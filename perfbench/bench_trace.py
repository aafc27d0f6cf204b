"""Timing wrappers around projlim's public functions, and their aggregation.

``Tracer.install`` replaces each traced function in every ``projlim`` module
namespace that binds it, and each traced method on its class, so calls made
inside the package are caught too.  Every call records a span (name, start,
end, parent span, op id) in flat in-memory arrays; ``LaurentScalar``
arithmetic is only counted.  Nothing is installed unless a traced run asks
for it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  "Class.method" patches the class attribute.
SPANS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "inverse", "linalg.inverse"),
    ("projective", "point_limit", "projective.point_limit"),
    ("projective", "ProjMatrix.__init__", "projective.ProjMatrix"),
    ("projective", "ProjMatrix.rank_at_limit", "projective.rank_at_limit"),
    ("lie", "conjugacy_limit", "lie.conjugacy_limit"),
    ("lie", "match_limit_geometry", "lie.match_limit_geometry"),
    ("lie", "build_po", "lie.build_po"),
    ("lie", "invariant_profile", "lie.invariant_profile"),
    ("lie", "contract", "lie.contract"),
    ("lie", "LieAlgebraSpan.is_closed", "lie.is_closed"),
    ("lie", "LieAlgebraSpan.structure_constants", "lie.structure_constants"),
    ("geometry", "geometry_limit", "geometry.geometry_limit"),
    ("geometry", "classify_point_limit", "geometry.classify_point_limit"),
    ("young", "lr_decompose", "young.lr_decompose"),
    ("young", "skew_divide", "young.skew_divide"),
    ("young", "branch_to_lorentz", "young.branch_to_lorentz"),
    ("young", "schur_dim", "young.schur_dim"),
    ("young", "is_poincare_irreducible", "young.is_poincare_irreducible"),
    ("young", "spin_total", "young.spin_total"),
    ("correlator", "degenerate", "correlator.degenerate"),
    ("correlator", "rho_infinity", "correlator.rho_infinity"),
    ("cli", "main", "cli.main"),
] + [
    ("parsing", name, "parsing." + name)
    for name in (
        "parse_scalar",
        "parse_point",
        "parse_matrix",
        "parse_permutation",
        "parse_sequence",
        "parse_signature",
        "parse_algebra",
        "parse_diagram",
        "parse_pair",
        "parse_expression",
    )
]

COUNTED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "scale")


def _rref_cells(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * (len(rows[0]) if rows else 0)


def _geometry_key(args, kwargs):
    sig, seq = (list(args) + [kwargs.get("sig"), kwargs.get("seq")])[:2]
    return repr((sig, seq))


# Extra facts recorded per call: an int (summed) or a key (counted distinct).
INFO = {"linalg.rref": _rref_cells, "geometry.geometry_limit": _geometry_key}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.cells = defaultdict(int)  # span index -> int info
        self.keys: dict[int, str] = {}  # span index -> key info
        self.stack: list[int] = []
        self.op_id = -1
        self.laurent_ops = 0
        self.errors_raised = 0

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open("op")

    def wrap(self, name: str, fn, error_type):
        info = INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            if info is not None:
                value = info(args, kwargs)
                if isinstance(value, int):
                    tracer.cells[idx] = value
                else:
                    tracer.keys[idx] = value
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.errors_raised += 1
                raise
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.laurent_ops += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import projlim
        from projlim.errors import ProjlimError

        modules = [m for n, m in list(sys.modules.items()) if n == "projlim" or n.startswith("projlim.")]
        for module_name, attr, span_name in SPANS:
            home = getattr(projlim, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(span_name, cls.__dict__[method], ProjlimError))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(span_name, original, ProjlimError)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        scalar = projlim.laurent.LaurentScalar
        for attr in COUNTED:
            setattr(scalar, attr, self.counter(scalar.__dict__[attr]))

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                    + "\n"
                )


def self_times(start, end, parent):
    """Per span: its duration minus the part of it covered by its children."""
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start[k], start[p]), min(end[k], end[p])) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def aggregate(tracer: Tracer):
    """Calls, total seconds and self seconds per span name, plus the facts
    the per-layer metrics need."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] += 1
        total[name] += tracer.end[i] - tracer.start[i]
        own[name] += selfs[i]
    match_id = tracer.name_id.get("lie.match_limit_geometry")
    build_in_match = 0
    if match_id is not None:
        build_id = tracer.name_id.get("lie.build_po")
        for i, nid in enumerate(tracer.name):
            if nid == build_id:
                p = tracer.parent[i]
                while p >= 0 and tracer.name[p] != match_id:
                    p = tracer.parent[p]
                build_in_match += p >= 0
    return {
        "calls": calls,
        "total": total,
        "self": own,
        "rref_cells": sum(tracer.cells.values()),
        "geometry_distinct": len(set(tracer.keys.values())),
        "build_po_in_match": build_in_match,
        "laurent_ops": tracer.laurent_ops,
        "errors_raised": tracer.errors_raised,
    }


def layer_metrics(agg, ops: int, overhead_frac: float) -> dict:
    """The per-layer metrics, extensive ones divided by the number of ops."""
    calls, total, own = agg["calls"], agg["total"], agg["self"]

    def per_op(x):
        return x / ops

    def ms(x):
        return 1000.0 * x / ops

    parsing = [n for n in calls if n.startswith("parsing.")]
    geo_calls = calls["geometry.geometry_limit"]
    match_calls = calls["lie.match_limit_geometry"]
    m = {
        "laurent.ops": (per_op(agg["laurent_ops"]), "calls/op"),
        "linalg.rref.calls": (per_op(calls["linalg.rref"]), "calls/op"),
        "linalg.rref.self_ms": (ms(own["linalg.rref"]), "ms/op"),
        "linalg.rref.cells": (per_op(agg["rref_cells"]), "cells/op"),
        "linalg.solve.calls": (per_op(calls["linalg.solve"]), "calls/op"),
        "linalg.solve.self_ms": (ms(own["linalg.solve"]), "ms/op"),
        "linalg.nullspace.calls": (per_op(calls["linalg.nullspace"]), "calls/op"),
        "linalg.inverse.calls": (per_op(calls["linalg.inverse"]), "calls/op"),
        "projective.point_limit.calls": (per_op(calls["projective.point_limit"]), "calls/op"),
        "projective.point_limit.self_ms": (ms(own["projective.point_limit"]), "ms/op"),
        "projective.ProjMatrix.calls": (per_op(calls["projective.ProjMatrix"]), "calls/op"),
        "projective.ProjMatrix.self_ms": (ms(own["projective.ProjMatrix"]), "ms/op"),
        "projective.rank_at_limit.calls": (per_op(calls["projective.rank_at_limit"]), "calls/op"),
        "parsing.calls": (per_op(sum(calls[n] for n in parsing)), "calls/op"),
        "parsing.self_ms": (ms(sum(own[n] for n in parsing)), "ms/op"),
        "lie.conjugacy_limit.calls": (per_op(calls["lie.conjugacy_limit"]), "calls/op"),
        "lie.conjugacy_limit.self_ms": (ms(own["lie.conjugacy_limit"]), "ms/op"),
        "lie.match_limit_geometry.calls": (per_op(match_calls), "calls/op"),
        "lie.match_limit_geometry.self_ms": (ms(own["lie.match_limit_geometry"]), "ms/op"),
        "lie.build_po.calls": (per_op(calls["lie.build_po"]), "calls/op"),
        "lie.match_limit_geometry.sigs_per_call": (
            agg["build_po_in_match"] / match_calls if match_calls else 0.0,
            "sigs/call",
        ),
        "lie.is_closed.calls": (per_op(calls["lie.is_closed"]), "calls/op"),
        "lie.is_closed.self_ms": (ms(own["lie.is_closed"]), "ms/op"),
        "lie.structure_constants.calls": (per_op(calls["lie.structure_constants"]), "calls/op"),
        "lie.structure_constants.self_ms": (ms(own["lie.structure_constants"]), "ms/op"),
        "lie.invariant_profile.self_ms": (ms(own["lie.invariant_profile"]), "ms/op"),
        "lie.contract.calls": (per_op(calls["lie.contract"]), "calls/op"),
        "lie.contract.self_ms": (ms(own["lie.contract"]), "ms/op"),
        "geometry.geometry_limit.calls": (per_op(geo_calls), "calls/op"),
        "geometry.geometry_limit.distinct": (agg["geometry_distinct"], "count"),
        "geometry.geometry_limit.useful_frac": (
            agg["geometry_distinct"] / geo_calls if geo_calls else 0.0,
            "ratio",
        ),
        "geometry.geometry_limit.total_ms": (ms(total["geometry.geometry_limit"]), "ms/op"),
        "geometry.classify_point_limit.calls": (per_op(calls["geometry.classify_point_limit"]), "calls/op"),
        "geometry.classify_point_limit.self_ms": (ms(own["geometry.classify_point_limit"]), "ms/op"),
        "young.lr_decompose.calls": (per_op(calls["young.lr_decompose"]), "calls/op"),
        "young.lr_decompose.self_ms": (ms(own["young.lr_decompose"]), "ms/op"),
        "young.skew_divide.calls": (per_op(calls["young.skew_divide"]), "calls/op"),
        "young.skew_divide.self_ms": (ms(own["young.skew_divide"]), "ms/op"),
        "young.branch_to_lorentz.total_ms": (ms(total["young.branch_to_lorentz"]), "ms/op"),
        "young.schur_dim.self_ms": (ms(own["young.schur_dim"]), "ms/op"),
        "young.is_poincare_irreducible.self_ms": (ms(own["young.is_poincare_irreducible"]), "ms/op"),
        "correlator.degenerate.calls": (per_op(calls["correlator.degenerate"]), "calls/op"),
        "correlator.degenerate.self_ms": (ms(own["correlator.degenerate"]), "ms/op"),
        "correlator.rho_infinity.calls": (per_op(calls["correlator.rho_infinity"]), "calls/op"),
        "correlator.rho_infinity.self_ms": (ms(own["correlator.rho_infinity"]), "ms/op"),
        "cli.main.calls": (per_op(calls["cli.main"]), "calls/op"),
        "cli.main.self_ms": (ms(own["cli.main"]), "ms/op"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "errors.raised": (per_op(agg["errors_raised"]), "count/op"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
