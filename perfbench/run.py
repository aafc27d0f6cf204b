"""projlim benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload degenerate-m5 --seed 1 --seconds 30 --trace 0

Each workload runs single-threaded and closed-loop (one op at a time) in a
fresh process, for the whole number of its cycles that takes about
``--seconds`` on the machine the benchmark was defined on.  Two more fresh
processes only set up, so that ``setup_s`` is a median of three.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays part of the run with timing wrappers installed and
prints the per-layer metrics.  The last line of standard output is the JSON
result; the lines before it are a readable table with a digest of every
output, which is the same for two runs of one seed unless the program's
outputs differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("degenerate-m5", "lie-m5to7", "schur-young")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # the whole invocation must end within 180 s


def tail(latencies):
    """The highest order statistic with at least ten samples beyond it, and
    the percentile it sits at."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def throughput(latencies, per_cycle):
    """Ops per second of the median cycle: each slot of the cycle costs its
    median latency over the run's whole cycles (a cycle cut short by the time
    limit is left out)."""
    full = max(per_cycle)
    cycles, start = [], 0
    for n in per_cycle:
        if n == full:
            cycles.append(latencies[start : start + n])
        start += n
    return full / sum(statistics.median(slot) for slot in zip(*cycles))


def child(args, mode: str, hard_stop: float) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "bench_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--hard-stop", repr(hard_stop - 20.0),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, hard_stop + 5.0 - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projlim" / "__init__.py").is_file():
        print(f"error: no projlim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hard_stop = time.monotonic() + RUN_LIMIT_S

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        report, spawned = child(args, "setup", hard_stop)
        setups.append(report["first_op"] - spawned)
    report, spawned = child(args, "run", hard_stop)
    setups.append(report["first_op"] - spawned)

    lat = report["latencies"]
    attempted = len(lat)
    failed = report["failures"] + report["warm_failures"] + report.get("traced_failures", 0)
    tail_s, tail_pct = tail(lat)
    summary = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(lat, report["per_cycle"]), "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "fail_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  cycles {len(report['per_cycle'])}  "
          f"failed {failed}  digest {report['digest']}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  op_tail_ms is p{tail_pct:.1f} of {attempted} ops; setup_s samples "
          + " ".join(f"{s:.3f}" for s in setups))

    if args.trace:
        metrics = report["per_layer"]
        print(f"  traced replay of {report['traced_ops']} ops")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:14.4f} {m['unit']}")
    else:
        # fail_frac is 0 on a correct program, so it travels as failed/attempted.
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in summary.items() if name != "fail_frac"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
