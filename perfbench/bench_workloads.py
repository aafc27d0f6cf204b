"""The three workloads: seeded inputs, the call into projlim, the output check.

A workload is a stream of fixed-length cycles.  The order of op kinds inside
a cycle, and the cost class of each slot, are the same for every seed; the
seed draws the actual inputs.  So two seeds measure the same mix of work on
different data.  A run is a whole number of cycles, ``cycle_seconds`` being
the approximate cost of one cycle on the machine the benchmark was defined on
(2 cores, Python 3.11.7).

Inputs are generated here without calling projlim.  ``run`` is the timed
call; ``check`` runs afterwards, untimed, against ``bench_oracle``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import bench_oracle as O
import projlim as P
import projlim.cli  # noqa: F401  (not imported by the package itself)


class Op(NamedTuple):
    kind: str
    args: tuple


def _interleave(counts) -> list:
    """Spread the slots of each class evenly over one cycle."""
    keyed = [((i + 0.5) / n, k, item) for k, (item, n) in enumerate(counts) for i in range(n)]
    return [item for _, _, item in sorted(keyed)]


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _points_text(points) -> str:
    return ";".join("[" + ",".join(str(c) for c in p) + "]" for p in points)


def _vector(text: str) -> list[Fraction]:
    return [Fraction(c) for c in text.strip("[]").split(", ")]


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = P.cli.main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# degenerate-m5: CLI requests that re-derive the same few degenerations
# ---------------------------------------------------------------------------

IDENTITY5 = O.perm_matrix(range(5))


class Row(NamedTuple):
    sig: tuple
    sig_text: str
    seq_text: str
    weights: tuple
    perm: tuple | None
    samples: tuple
    points: int  # sample points of a correlator request, see below


# The three degenerations of the figure1 reproduction table.
ROWS = (
    Row(((4, 1),), "(4,1)", "diag(t^4,t^-1,t^-1,t^-1,t^-1)", (4, -1, -1, -1, -1), None,
        ((1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (1, 1, 1, 1, 1), (3, 1, 2, 0, 1)), 10),
    Row(((3, 2),), "(3,2)", "diag(t^-1,t^-1,t^-1,t^-1,t^4)", (-1, -1, -1, -1, 4), (1, 2, 3, 4, 0),
        ((1, 0, 0, 0, 0), (2, 1, 1, 1, 0), (1, 1, 0, 0, 1), (2, 0, 1, 1, 1)), 10),
    Row(((1, 0), (3, 1)), "((1),(3,1))", "diag(t,1,1,1,t)", (1, 0, 0, 0, 1), (0, 2, 3, 4, 1),
        ((1, 2, 3, 4, 5), (1, 0, 0, 0, 7), (1, 0, 0, 0, 0), (3, 1, 1, 0, 2)), 18),
)
FLAT = Row(((1, 0), (3, 1)), "((1),(3,1))", "", (0, -1, -1, -1, -1), None, (), 0)

# Slots of one cycle: F = figure1, C = correlator on a figure1 row,
# U = correlator --mode uv|ir, K = classify.
DEGENERATE_CYCLE = "".join(_interleave([("F", 1), ("C", 5), ("U", 5), ("K", 3)]))
EXTRA_POINTS = 3
# A correlator request samples ``Row.points`` points in all: the row's own
# four, seeded extras, and the interior basis points the program adds (4, 3
# and 1 for the three rows).  Each point costs one degeneration, and the third
# row's degeneration costs about half the others', so it gets more points and
# every correlator request costs about the same.


def _interior_point(rng: random.Random, sig) -> tuple:
    while True:
        x = tuple(rng.randint(-3, 3) for _ in range(5))
        if O.first_block_form(sig, x) < 0:
            return x


def _interior_basis(sig) -> list[tuple]:
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    return [e for e in units if O.first_block_form(sig, e) < 0]


def _row_left(row: Row):
    """L of the composed sequence perm^-1 . diag(t^w)."""
    return IDENTITY5 if row.perm is None else O.perm_matrix(O.inverse_perm(row.perm))


class Degenerate:
    name = "degenerate-m5"
    cycle_seconds = 10.5

    def __init__(self, root: Path):
        self.golden = (root / "src" / "projlim" / "data" / "figure1_golden.json").read_text()
        self.limit_sigs = [row["limit_signature"] for row in json.loads(self.golden)["rows"]]

    def _op(self, slot: str, rng: random.Random, counter: int) -> Op:
        if slot == "F":
            return Op("figure1", (("figure1", "--format", "json"), None, ()))
        if slot == "U":
            mode = rng.choice(("uv", "ir"))
            ell = rng.randint(1, 4)
            points = tuple(_interior_point(rng, FLAT.sig) for _ in range(EXTRA_POINTS))
            argv = ("correlator", "--mode", mode, "--ell", str(ell),
                    "--points", _points_text(points), "--format", "json")
            return Op("uv-ir", (argv, FLAT, points))
        row = ROWS[counter % len(ROWS)]
        extra = row.points - len(row.samples) - len(_interior_basis(row.sig)) if slot == "C" else EXTRA_POINTS
        points = tuple(_interior_point(rng, row.sig) for _ in range(extra))
        if slot == "C":
            reps = ",".join(rng.choice(("fundamental", "right_action")) for _ in range(rng.randint(1, 3)))
            argv = ["correlator", "--geometry", row.sig_text, "--reps", reps, "--seq", row.seq_text,
                    "--points", _points_text(row.samples + points), "--format", "json"]
            if row.perm is not None:
                argv[7:7] = ["--perm", O.cycle_text(row.perm)]
            return Op("correlator", (tuple(argv), row, row.samples + points))
        seq = row.seq_text
        if row.perm is not None:
            seq = f"compose(perm({O.cycle_text(O.inverse_perm(row.perm))}),{seq})"
        flag, value = rng.choice((("--signature", row.sig_text), ("--algebra", f"po{row.sig_text}")))
        argv = ("classify", flag, value, "--seq", seq, "--points", _points_text(points), "--format", "json")
        return Op("classify", (argv, row, points))

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = _rng(self.name, seed, f"cycle{index}")
        out = []
        for k, slot in enumerate(DEGENERATE_CYCLE):
            counter = index * DEGENERATE_CYCLE.count(slot) + DEGENERATE_CYCLE[:k].count(slot)
            out.append(self._op(slot, rng, counter))
        return out

    def warmup(self, seed: int) -> list[Op]:
        rng = _rng(self.name, seed, "warmup")
        return [self._op(slot, rng, 0) for slot in "FCUK"]

    def run(self, op: Op):
        return _cli(op.args[0])

    def check(self, op: Op, out) -> tuple[bool, str]:
        code, text = out
        if code != 0:
            return False, text
        if op.kind == "figure1":
            return text == self.golden, text
        _, row, points = op.args
        doc = json.loads(text)
        left = _row_left(row)
        if op.kind == "classify":
            pairs = [(x, s["point"], s["vanishing"]) for x, s in zip(points, doc["points"])]
            ok = len(doc["points"]) == len(points)
        else:
            expected = list(points) + _interior_basis(row.sig)
            samples = doc["samples"]
            ok = len(samples) == len(expected) and all(
                O.proportional(x, _vector(s["point_in"])) for x, s in zip(expected, samples)
            )
            pairs = [(x, s["point_out"], s["vanishing"]) for x, s in zip(expected, samples)]
            if op.kind == "correlator":
                ok = ok and doc["limit_signature"] == self.limit_sigs[ROWS.index(row)]
        for x, out_text, vanishing in pairs:
            mine = O.point_limit(left, row.weights, IDENTITY5, x)
            ok = ok and O.proportional(mine, _vector(out_text))
            ok = ok and vanishing == [i for i, c in enumerate(mine) if c == 0]
        return ok, text


# ---------------------------------------------------------------------------
# lie-m5to7: never-repeating conjugacy limits and contraction chains
# ---------------------------------------------------------------------------

# Slots of one cycle as (m, kind).  Limit cases run at m = 5, 6, 7 in the
# ratio 6:3:1; contraction chains at m = 5 and 6 only, because an m = 7 chain
# costs 3.5 to 6 s depending on its split points, too uneven to keep a run
# steady.  The counts put the median and the tail inside a cost class
# rather than between two.
LIE_CYCLE = _interleave([
    ((7, "limit"), 2), ((6, "sigma-chain"), 1), ((6, "limit"), 6),
    ((5, "sigma-chain"), 8), ((5, "limit"), 12),
])
# Every limit case at a given m has its limit signature in this slice of the
# sorted signature list, so each slot costs the same brute-force matching work
# on every seed.
RANK_BAND = {5: (18, 26), 6: (45, 60), 7: (60, 75)}
CHAIN_SPLITS = 2


def _limit_case(rng: random.Random, m: int, seen: set):
    sigs = O.signatures(m)
    lo, hi = RANK_BAND[m]
    ranks = {s: i for i, s in enumerate(sigs)}
    while True:
        sig = rng.choice(sigs)
        weights = tuple(rng.randint(-3, 3) for _ in range(m))
        left = tuple(rng.sample(range(m), m))
        right = tuple(rng.sample(range(m), m))
        case = (sig, weights, left, right)
        if lo <= ranks[O.limit_signature(sig, weights, right)] < hi and case not in seen:
            seen.add(case)
            return case


def _chain_case(rng: random.Random, m: int, seen: set):
    blocks = [(m - q, q) for q in range(m // 2 + 1)]
    while True:
        p, q = rng.choice(blocks)
        cuts = sorted(rng.sample(range(1, m), CHAIN_SPLITS))
        values = sorted(rng.sample(range(-6, 7), CHAIN_SPLITS + 1), reverse=True)
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        weights = tuple(v for v, n in zip(values, sizes) for _ in range(n))
        case = (p, q, weights)
        if case not in seen:
            seen.add(case)
            return case


class Lie:
    name = "lie-m5to7"
    cycle_seconds = 16.5

    def __init__(self, root: Path):
        self.seen: set = set()

    def _op(self, m: int, kind: str, rng: random.Random) -> Op:
        if kind == "limit":
            return Op(kind, _limit_case(rng, m, self.seen))
        return Op(kind, _chain_case(rng, m, self.seen))

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = _rng(self.name, seed, f"cycle{index}")
        return [self._op(m, kind, rng) for m, kind in LIE_CYCLE]

    def warmup(self, seed: int) -> list[Op]:
        rng = _rng(self.name, seed, "warmup")
        return [self._op(5, kind, rng) for kind in ("limit", "sigma-chain")]

    def run(self, op: Op):
        if op.kind == "sigma-chain":
            p, q, weights = op.args
            return P.sigma_chain(p, q, weights)
        sig, weights, left, right = op.args
        seq = P.FactoredSequence.build(O.perm_matrix(left), weights, O.perm_matrix(right))
        limit = P.conjugacy_limit(P.build_po(sig), seq)
        limit_sig, perm = P.match_limit_geometry(limit)
        return limit, limit_sig, perm, P.invariant_profile(limit)

    def check(self, op: Op, out) -> tuple[bool, str]:
        if op.kind == "sigma-chain":
            steps = [(s.split, s.fixed_indices, s.verified) for s in out.steps]
            record = repr((out.signature, out.weights, out.splits, steps, out.all_verified))
            return out.all_verified and len(out.splits) == CHAIN_SPLITS, record
        sig, weights, left, right = op.args
        limit, limit_sig, perm, profile = out
        m = len(weights)
        basis = limit.basis
        ok = (
            limit.dim == m * (m - 1) // 2
            and limit_sig == O.limit_signature(sig, weights, right)
            and O.spans_limit(limit_sig, perm, basis)
            and O.same_span([O.flatten(x) for x in O.limit_span(sig, left, weights, right)],
                            [O.flatten(x) for x in basis])
        )
        record = repr((limit_sig, perm, sorted(profile.as_dict().items()), basis))
        return ok, record


# ---------------------------------------------------------------------------
# schur-young: diagram pairs of 1 to 14 boxes and Laurent symmetrizer actions
# ---------------------------------------------------------------------------

# Pair slots as (boxes of one side, boxes of the other side).
PAIR_SLOTS = (
    [(11, 3)]
    + [(10, 2), (10, 0), (10, 1)]
    + [(9, 3), (9, 1), (9, 0)]
    + [(7, 7), (6, 6), (8, 4), (5, 5), (7, 2)]
    + [(1, 0), (2, 0), (3, 0), (2, 1), (1, 1), (4, 0), (3, 2), (5, 0), (4, 3), (6, 1), (2, 2), (8, 0)]
)
SCHUR_TAGS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _diagram(rng: random.Random, n: int) -> tuple:
    return rng.choice([p for p in _partitions(n) if len(p) <= 5])


class Schur:
    name = "schur-young"
    cycle_seconds = 1.0

    def __init__(self, root: Path):
        pass

    def _pair(self, rng: random.Random, a: int, b: int) -> Op:
        one, other = _diagram(rng, a), _diagram(rng, b)
        return Op("pair", (one, other) if rng.random() < 0.5 else (other, one))

    def _rho(self, rng: random.Random, lam: tuple) -> Op:
        dual = rng.random() < 0.5
        weights = tuple(rng.randint(-3, 3) for _ in range(5))
        return Op(f"rho{lam}", (lam, dual, weights))

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = _rng(self.name, seed, f"cycle{index}")
        ops = [self._pair(rng, a, b) for a, b in PAIR_SLOTS]
        ops += [self._rho(rng, lam) for lam in SCHUR_TAGS for _ in range(2)]
        return ops

    def warmup(self, seed: int) -> list[Op]:
        rng = _rng(self.name, seed, "warmup")
        return [self._pair(rng, 4, 2)] + [self._rho(rng, lam) for lam in SCHUR_TAGS]

    def run(self, op: Op):
        if op.kind == "pair":
            pair = op.args
            try:
                spin = P.spin_total(pair)
            except P.NotColumnOnly:
                spin = None
            return (P.schur_dim(pair), P.branch_to_lorentz(pair), P.is_poincare_irreducible(pair),
                    spin, P.statistics(pair), P.lr_decompose(*pair))
        lam, dual, weights = op.args
        tag = P.RepTag("schur", ((), lam) if dual else (lam, ()))
        rho = P.rho_infinity(tag, P.FactoredSequence.diagonal(weights))
        return rho, P.correlator.surviving_components(tag, rho)

    def check(self, op: Op, out) -> tuple[bool, str]:
        if op.kind == "pair":
            lam, lam_bar = op.args
            dim, branch, verdict, spin, stats, lr = out
            ok = (
                dim == O.sl5_pair_dim(lam, lam_bar)
                and O.lr_dimension_ok(lam, lam_bar, lr)
                and branch.single_summand == (O.is_column(lam) and O.is_column(lam_bar))
                and stats == ("fermionic" if (sum(lam) + sum(lam_bar)) % 2 else "bosonic")
            )
            record = repr((op.args, dim, branch.as_dict(), bool(verdict), verdict.reason, str(spin),
                           stats, sorted(lr.items())))
            return ok, record
        lam, dual, weights = op.args
        rho, surviving = out
        ok = len(surviving) == O.extreme_weight_multiplicity(lam, weights, highest=not dual)
        return ok, repr((op.args, str(rho), surviving))


WORKLOADS = {cls.name: cls for cls in (Degenerate, Lie, Schur)}
