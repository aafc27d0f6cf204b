"""One fresh workload process: set up, run the timed loop, report as JSON.

Started by ``run.py``; not meant to be run by hand.  With ``--mode setup`` it
stops right before the first timed op.  It prints one JSON object on its last
line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def measure(workload, seed: int, cycles: list, n_cycles: int, hard_stop: float, tracer=None):
    """Run the first ``n_cycles`` cycles, generating those not yet in
    ``cycles``, and stop early at ``hard_stop`` (a time.monotonic() value).

    Each op is timed alone; its output is checked after the timer stops.
    Returns (latencies, failures, digest of all outputs, ops run per cycle)."""
    latencies: list[float] = []
    failures = 0
    digest = hashlib.sha256()
    per_cycle: list[int] = []
    for index in range(n_cycles):
        if index == len(cycles):
            cycles.append(workload.cycle(seed, index))
        ran = 0
        for op in cycles[index]:
            if time.monotonic() > hard_stop:
                break
            if tracer is not None:
                root = tracer.begin_op(len(latencies))
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
                error = None
            except Exception as exc:  # any raise is a failed op
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(root)
            latencies.append(t1 - t0)
            ran += 1
            try:
                ok, record = workload.check(op, out) if error is None else (False, error)
            except Exception as exc:  # malformed output
                ok, record = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                failures += 1
                print(f"FAILED {op.kind} {op.args!r}: {record[:300]}", file=sys.stderr)
            digest.update(f"{op.kind} {op.args!r}\n{record}\n".encode())
        per_cycle.append(ran)
        if ran < len(cycles[index]):
            break
    return latencies, failures, digest.hexdigest(), per_cycle


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--hard-stop", type=float, required=True, help="time.monotonic() deadline")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench_workloads  # imports projlim, which is part of set-up

    workload = bench_workloads.WORKLOADS[args.workload](ROOT)
    warm = workload.warmup(args.seed)
    n_cycles = max(1, round(args.seconds / workload.cycle_seconds))
    cycles = [workload.cycle(args.seed, i) for i in range(n_cycles)]
    warm_failures = 0
    for op in warm:
        try:
            ok, _ = workload.check(op, workload.run(op))
        except Exception as exc:
            ok = False
            print(f"FAILED warm-up {op.kind}: {exc}", file=sys.stderr)
        warm_failures += not ok
    first_op = time.monotonic()
    result = {"first_op": first_op, "warm_failures": warm_failures}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    latencies, failures, digest, per_cycle = measure(workload, args.seed, cycles, n_cycles, args.hard_stop)
    result.update(latencies=latencies, failures=failures, digest=digest, per_cycle=per_cycle)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import bench_trace

        # Replay the first half of the cycles (at least one) with tracing on.
        replay_cycles = (len(per_cycle) + 1) // 2
        tracer = bench_trace.Tracer()
        tracer.install()
        traced, traced_failures, _, _ = measure(
            workload, args.seed, cycles, replay_cycles, args.hard_stop, tracer
        )
        ops = len(traced)
        overhead = 1.0 - sum(latencies[:ops]) / sum(traced)
        agg = bench_trace.aggregate(tracer)
        result["per_layer"] = bench_trace.layer_metrics(agg, ops, overhead)
        result["traced_ops"] = ops
        result["traced_failures"] = traced_failures
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
