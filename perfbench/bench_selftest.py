"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench/bench_selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_oracle as O  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as B  # noqa: E402
import run  # noqa: E402
from bench_worker import measure  # noqa: E402


def inputs(name, seed, cycles=2):
    workload = B.WORKLOADS[name](ROOT)
    return workload.warmup(seed) + [op for i in range(cycles) for op in workload.cycle(seed, i)]


@pytest.mark.parametrize("name", sorted(B.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert inputs(name, 7) == inputs(name, 7)
    assert inputs(name, 7) != inputs(name, 8)


def digest(name, seed, ops):
    """Digest of the first ``ops`` ops of a seed's first cycle."""
    workload = B.WORKLOADS[name](ROOT)
    workload.warmup(seed)
    lat, failures, hexdigest, _ = measure(workload, seed, [workload.cycle(seed, 0)[:ops]], 1, float("inf"))
    assert failures == 0 and len(lat) == ops
    return hexdigest


@pytest.mark.parametrize("name, ops", [("schur-young", 36), ("lie-m5to7", 6), ("degenerate-m5", 2)])
def test_same_seed_same_digest(name, ops):
    assert digest(name, 3, ops) == digest(name, 3, ops)


def first_op(name, kind, seed=1):
    return next(op for op in inputs(name, seed) if op.kind == kind)


def test_corrupted_permutation_is_caught():
    lie = B.Lie(ROOT)
    op = first_op("lie-m5to7", "limit")
    limit, limit_sig, perm, profile = lie.run(op)
    assert lie.check(op, (limit, limit_sig, perm, profile))[0]
    swapped = list(perm)
    i = next(k for k in range(len(perm) - 1) if perm[k] != perm[k + 1])
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert not lie.check(op, (limit, limit_sig, tuple(swapped), profile))[0]


def test_changed_figure1_byte_is_caught():
    degenerate = B.Degenerate(ROOT)
    op = B.Op("figure1", (("figure1", "--format", "json"), None, ()))
    golden = degenerate.golden
    assert degenerate.check(op, (0, golden))[0]
    k = golden.index("interior")
    assert not degenerate.check(op, (0, golden[:k] + "j" + golden[k + 1 :]))[0]


def test_wrong_point_limit_is_caught():
    degenerate = B.Degenerate(ROOT)
    op = first_op("degenerate-m5", "classify")
    code, text = degenerate.run(op)
    assert degenerate.check(op, (code, text))[0]
    doc = B.json.loads(text)
    point = doc["points"][0]["point"]
    coords = point.strip("[]").split(", ")
    if "0" in coords:  # change the zero pattern
        coords[coords.index("0")] = "1"
    else:  # or break proportionality, the first coordinate staying 1
        coords[-1] = str(2 * B.Fraction(coords[-1]))
    bad = text.replace(f'"point": "{point}"', '"point": "[' + ", ".join(coords) + ']"', 1)
    assert bad != text
    assert not degenerate.check(op, (code, bad))[0]


def test_wrong_dimension_and_survivors_are_caught():
    schur = B.Schur(ROOT)
    op = B.Op("pair", ((2, 1), (1,)))
    out = schur.run(op)
    assert schur.check(op, out)[0]
    assert not schur.check(op, (out[0] + 1,) + out[1:])[0]
    rho_op = B.Op("rho(2,)", ((2,), False, (1, 0, 0, 0, -1)))
    rho, surviving = schur.run(rho_op)
    assert schur.check(rho_op, (rho, surviving))[0]
    assert not schur.check(rho_op, (rho, surviving + (99,)))[0]


def test_oracle_reference_values():
    assert O.gl5_dim((1,)) == 5 and O.gl5_dim((2,)) == 15 and O.gl5_dim((1,) * 6) == 0
    assert O.sl5_pair_dim((1,), (1,)) == 24 and O.sl5_pair_dim((), ()) == 1
    assert O.lr_dimension_ok((1,), (1,), {(2,): 1, (1, 1): 1})
    assert not O.lr_dimension_ok((1,), (1,), {(2,): 1})
    assert O.extreme_weight_multiplicity((1, 1), (1, 1, 0, 0, 0), highest=True) == 1
    assert O.cycle_text((1, 2, 0, 3)) == "(0 1 2)(3)"


def test_self_time_on_synthetic_tree():
    # op [0, 10] > a [1, 4] > a1 [2, 3];  op > b [5, 9] > b1 [5, 7], b2 [6, 8]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert bench_trace.self_times(start, end, parent) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_aggregate_counts_nested_calls():
    tracer = bench_trace.Tracer()
    names = ["op", "lie.match_limit_geometry", "lie.build_po", "lie.build_po", "linalg.rref"]
    for name, (lo, hi, p) in zip(names, [(0, 10, -1), (1, 9, 0), (2, 3, 1), (4, 6, 1), (7, 8, -1)]):
        tracer.name.append(tracer._intern(name))
        tracer.start.append(float(lo))
        tracer.end.append(float(hi))
        tracer.parent.append(p)
        tracer.op.append(0)
    agg = bench_trace.aggregate(tracer)
    assert agg["build_po_in_match"] == 2
    assert agg["self"]["lie.match_limit_geometry"] == 5.0
    metrics = bench_trace.layer_metrics(agg, ops=2, overhead_frac=0.1)
    assert metrics["lie.build_po.calls"]["value"] == 1.0
    assert metrics["lie.match_limit_geometry.sigs_per_call"]["value"] == 2.0
    assert metrics["linalg.rref.self_ms"]["value"] == 500.0


def test_tracer_catches_internal_calls():
    import projlim

    tracer = bench_trace.Tracer()
    originals = {name: getattr(projlim.linalg, name) for name in ("rref", "rank")}
    tracer.install()
    try:
        root = tracer.begin_op(0)
        projlim.linalg.rank([[1, 2], [2, 4]])  # rank calls rref inside linalg
        tracer.close(root)
    finally:
        uninstall()
    agg = bench_trace.aggregate(tracer)
    assert agg["calls"]["linalg.rref"] == 1 and agg["rref_cells"] == 4
    assert projlim.linalg.rref is originals["rref"]


def uninstall():
    """Undo Tracer.install so later tests see the plain package."""
    import projlim

    modules = [m for n, m in list(sys.modules.items()) if n == "projlim" or n.startswith("projlim.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            inner = getattr(value, "__wrapped__", None)
            if inner is not None and callable(value):
                setattr(module, key, inner)
            elif isinstance(value, type) and value.__module__.startswith("projlim"):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "__wrapped__", None) is not None:
                        setattr(value, attr, member.__wrapped__)


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.throughput([1.0, 3.0, 2.0, 1.0, 9.0, 9.0, 5.0], [2, 2, 2, 1]) == pytest.approx(0.4)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "schur-young", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
