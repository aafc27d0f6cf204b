"""Self-check suite: the thirteen verification criteria the package must meet.

Each check returns its verdict ``(passed, detail)``.  :func:`run_all` runs them
in order and makes each a :class:`CheckResult`: it numbers a check by its place
in :data:`CHECKS`, names it after its function (no ``check_`` prefix, hyphens
for underscores), times it, and reports a check that raises a ``ProjlimError``
as failed.
The test suite and the CLI ``selftest`` subcommand both drive this module, so
a shipped build can always re-verify itself.  All checks use exact arithmetic
and deterministic sampling — there is no tolerance anywhere.
"""

from __future__ import annotations

import importlib.resources
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .correlator import (
    FUNDAMENTAL,
    RIGHT_ACTION,
    RepTag,
    deform_correlator,
    figure1_json,
    figure1_table,
    make_correlator,
    rep_limit_commute_check,
    rep_matrix,
    rho_infinity,
    uv_ir_report,
)
from .errors import NotSubalgebra, ProjlimError
from .geometry import geometry_limit, in_model_space
from .laurent import LaurentScalar
from .lie import (
    BracketTable,
    LieAlgebraSpan,
    build_po,
    conjugacy_limit,
    contract,
    embed_and_limit,
    enumerate_signatures,
    invariant_profile,
    pad_span,
    sigma_chain,
    signature_str,
)
from .linalg import mat_mul, rank
from .parsing import (
    parse_diagram,
    parse_scalar,
    parse_sequence,
    parse_signature,
)
from .projective import FactoredSequence, ProjMatrix, ProjPoint
from .young import (
    _partitions_of,
    branch_to_lorentz,
    diagram_str,
    exterior_power_spins,
    is_poincare_irreducible,
    schur_dim,
    spin_total,
    statistics,
    symmetrizer_image_dim,
    tensor_power_decompose,
    validate_diagram,
)

__all__ = ["CheckResult", "run_all", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _matrix(m: int, entries: dict[tuple[int, int], int]) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), c in entries.items():
        out[i][j] = Fraction(c)
    return out


def _table(dim: int, entries: dict[tuple[int, int], dict[int, int]]) -> BracketTable:
    """Bracket table from sparse structure constants [e_i, e_j] = sum c^k e_k."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), image in entries.items():
        for k, value in image.items():
            c[i][j][k], c[j][i][k] = value, -value
    return BracketTable(c)


# Rotation generators of the 3-dimensional orthogonal algebra ...
_X1 = _matrix(3, {(0, 1): 1, (1, 0): -1})
_X2 = _matrix(3, {(0, 2): -1, (2, 0): 1})
_X3 = _matrix(3, {(1, 2): 1, (2, 1): -1})
# ... and the flat-limit generators replacing the first two.
_Y1 = _matrix(3, {(1, 0): -1})
_Y2 = _matrix(3, {(2, 0): 1})
_Y3 = _matrix(3, {(2, 1): -1})


def check_galilei_boost() -> tuple[bool, str]:
    """Boost generator conjugated by diag(t,1,1,1,t) degenerates to the
    commuting (Galilei) boost exactly."""
    boost = _matrix(5, {(3, 4): 1, (4, 3): 1})
    seq = FactoredSequence.diagonal([1, 0, 0, 0, 1])
    limit = seq.conjugate(boost).limit()
    expected = ProjMatrix(_matrix(5, {(3, 4): 1}))
    passed = limit == expected
    return passed, f"limit {limit}"


def check_example_limits() -> tuple[bool, str]:
    cases = [
        (
            ((1, 0), (3, 1)),
            "diag(t,1,1,1,t)",
            (((1, 0), (1, 0), (3, 0)), (0, 2, 3, 4, 1)),
        ),
        (((4, 1),), "diag(t^4,t^-1,t^-1,t^-1,t^-1)", (((1, 0), (3, 1)), (0, 1, 2, 3, 4))),
        (((3, 2),), "diag(t^-1,t^-1,t^-1,t^-1,t^4)", (((1, 0), (3, 1)), (1, 2, 3, 4, 0))),
    ]
    details = []
    passed = True
    for sig, seq_text, expected in cases:
        deg = geometry_limit(sig, parse_sequence(seq_text))
        got = (deg.limit_sig, deg.perm)
        ok = got == expected
        passed = passed and ok
        details.append(f"{seq_text} -> {got}{'' if ok else ' (expected ' + str(expected) + ')'}")
    return passed, "; ".join(details)


def check_contraction_chain() -> tuple[bool, str]:
    o3 = LieAlgebraSpan(3, [_X1, _X2, _X3])
    t1 = contract(o3, (2,))
    t1_expected = _table(3, {(0, 2): {1: -1}, (1, 2): {0: 1}})
    ok1 = t1 == t1_expected
    realization1 = LieAlgebraSpan(3, [_Y1, _Y2, _X3]).structure_constants()
    ok2 = t1 == realization1

    step2_source = LieAlgebraSpan(3, [_Y1, _Y2, _X3])
    t2 = contract(step2_source, (0,))
    t2_expected = _table(3, {(0, 2): {1: -1}})
    ok3 = t2 == t2_expected
    heis = LieAlgebraSpan(3, [_Y1, _Y2, _Y3]).structure_constants()
    ok4 = t2 == heis

    t3 = contract(heis, (1,))
    ok5 = t3.is_abelian()
    passed = ok1 and ok2 and ok3 and ok4 and ok5
    return (
        passed,
        f"first step {ok1 and ok2}, second step {ok3 and ok4}, center contraction abelian {ok5}",
    )


def check_sigma_chain() -> tuple[bool, str]:
    result = sigma_chain(3, 0, (0, -1, -2))
    return (
        result.all_verified,
        f"splits {result.splits}, steps verified {[s.verified for s in result.steps]}, "
        f"final matches limit {result.final_matches_limit}",
    )


def check_invariant_profiles() -> tuple[bool, str]:
    heis = LieAlgebraSpan(3, [_Y1, _Y2, _Y3]).structure_constants()
    abelian = contract(heis, (1,))
    profile_heis = invariant_profile(heis)
    profile_abelian = invariant_profile(abelian)
    passed = (
        profile_heis.center_dim == 1
        and profile_abelian.center_dim == 3
        and profile_heis != profile_abelian
    )
    return passed, f"center dims {profile_heis.center_dim} vs {profile_abelian.center_dim}"


def _golden_bytes() -> str:
    return (
        importlib.resources.files("projlim.data")
        .joinpath("figure1_golden.json")
        .read_text()
    )


def check_figure1() -> tuple[bool, str]:
    b = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
    fund = rho_infinity(FUNDAMENTAL, b).limit()
    right = rho_infinity(RIGHT_ACTION, b).limit()
    ok_rho = (
        fund == ProjMatrix(_matrix(5, {(0, 0): 1}))
        and right == ProjMatrix(_matrix(5, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1}))
    )
    table = figure1_table()
    cells = {
        (row["name"], rep): tuple(row["cells"][rep]["surviving"])
        for row in table["rows"]
        for rep in ("fundamental", "right_action")
    }
    expected = {
        ("ds_to_poincare", "fundamental"): (1,),
        ("ds_to_poincare", "right_action"): (2, 3, 4, 5),
        ("ads_to_poincare", "fundamental"): (1,),
        ("ads_to_poincare", "right_action"): (2, 3, 4, 5),
        ("poincare_to_galilei", "fundamental"): (1, 2),
        ("poincare_to_galilei", "right_action"): (3, 4, 5),
    }
    ok_cells = cells == expected
    ok_golden = figure1_json() == _golden_bytes()
    passed = ok_rho and ok_cells and ok_golden
    return passed, f"rho-infinity {ok_rho}, six cells {ok_cells}, golden bytes {ok_golden}"


def check_uv_ir() -> tuple[bool, str]:
    rng = random.Random(7)
    points = []
    while len(points) < 10:
        x0 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        spatial = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
        ]
        if all(c == 0 for c in spatial):
            continue
        points.append([x0] + spatial)
    passed = True
    notes = []
    for mode in ("uv", "ir"):
        report = uv_ir_report(2, mode, points)
        if any(surv != (1,) for surv in report.surviving):
            passed = False
            notes.append(f"{mode}: surviving {report.surviving}")
        for sample in report.samples[: len(points)]:
            if sample.kind != "boundary":
                passed = False
                notes.append(f"{mode}: {sample.point_in} -> {sample.kind}")
        fixed = report.samples[len(points) :]
        if not fixed or any(
            s.kind != "interior_lower_dim" or s.point_out != "[1, 0, 0, 0, 0]"
            for s in fixed
        ):
            passed = False
            notes.append(f"{mode}: fixed-point classification failed")
    boundary_check = all(
        in_model_space(((1, 0), (3, 1)), ProjPoint([0] + p[1:])) == "boundary"
        for p in points
    )
    passed = passed and boundary_check
    return (
        passed,
        "; ".join(notes) if notes else "10 points to boundary, fixed point kept, survival {1}",
    )


def check_schur_dimensions() -> tuple[bool, str]:
    small = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    oracle_ok = all(
        schur_dim((lam, ())) == symmetrizer_image_dim(lam, sum(lam)) for lam in small
    )
    frozen = [
        (((1,), ()), 5),
        (((1, 1), ()), 10),
        (((2,), ()), 15),
        (((3,), ()), 35),
        (((2, 1), ()), 40),
        (((1, 1, 1), ()), 10),
        (((1, 1, 1, 1, 1), ()), 1),
        (((1, 1, 1, 1, 1, 1), ()), 0),
    ]
    frozen_ok = all(schur_dim(pair) == dim for pair, dim in frozen)
    powers_ok = all(
        sum(f * schur_dim((lam, ())) for lam, f in tensor_power_decompose(p)) == 5**p
        for p in range(0, 4)
    )
    passed = oracle_ok and frozen_ok and powers_ok
    return passed, f"oracle {oracle_ok}, frozen dims {frozen_ok}, tensor powers {powers_ok}"


def _diagrams_up_to(n: int) -> list[tuple[int, ...]]:
    return [lam for total in range(n + 1) for lam in _partitions_of(total)]


def check_lorentz_branching() -> tuple[bool, str]:
    from math import comb

    dims_ok = True
    dirac_ok = True
    scalar_ok = True
    for p in range(0, 5):
        irreps = exterior_power_spins(p)
        total = sum(ir.dimension * ir.multiplicity for ir in irreps)
        dims_ok = dims_ok and total == comb(4, p)
        content = sorted((ir.a2, ir.b2, ir.multiplicity) for ir in irreps)
        if p in (1, 3):
            dirac_ok = dirac_ok and content == [(0, 1, 1), (1, 0, 1)]
        if p in (0, 4):
            scalar_ok = scalar_ok and content == [(0, 0, 1)]
    diagrams = _diagrams_up_to(4)
    scan_ok = True
    for lam in diagrams:
        for lam_bar in diagrams:
            expected = all(r == 1 for r in lam) and all(r == 1 for r in lam_bar)
            got = branch_to_lorentz((lam, lam_bar)).single_summand
            if got != expected:
                scan_ok = False
    passed = dims_ok and dirac_ok and scalar_ok and scan_ok
    return passed, f"dims {dims_ok}, Dirac {dirac_ok}, scalar {scalar_ok}, column scan {scan_ok}"


def check_poincare_irreducibility() -> tuple[bool, str]:
    diagrams = _diagrams_up_to(4)
    accepted = [
        (lam, lam_bar)
        for lam in diagrams
        for lam_bar in diagrams
        if is_poincare_irreducible((lam, lam_bar))
    ]
    expected = sorted(
        [((1,) * p, ()) for p in range(1, 5)] + [((), (1,) * q) for q in range(1, 5)]
    )
    set_ok = sorted(accepted) == expected
    parity_ok = all(
        statistics(pair)
        == ("fermionic" if (2 * spin_total(pair)) % 2 == 1 else "bosonic")
        for pair in accepted
    )
    passed = set_ok and parity_ok
    return (
        passed,
        f"{len(accepted)} accepted pairs, set {set_ok}, spin-statistics parity {parity_ok}",
    )


def _random_invertible(rng: random.Random, bound: int = 2) -> list[list[Fraction]]:
    while True:
        g = [[Fraction(rng.randint(-bound, bound)) for _ in range(5)] for _ in range(5)]
        if rank(g) == 5:
            return g


def check_property_suites() -> tuple[bool, str]:
    rng = random.Random(20260817)

    # (a) antisymmetry + Jacobi for contracted tables across a randomized grid
    contracted_cases = 0
    contracted_ok = True
    signatures = [s for m in (3, 4, 5) for s in enumerate_signatures(m)]
    while contracted_cases < 200:
        sig = rng.choice(signatures)
        algebra = build_po(sig)
        count = rng.choice((1, 2))
        indices = tuple(sorted(rng.sample(range(algebra.dim), min(count, algebra.dim))))
        try:
            table = contract(algebra, indices)
        except NotSubalgebra:
            continue
        if not (table.is_antisymmetric() and table.satisfies_jacobi()):
            contracted_ok = False
            break
        contracted_cases += 1

    # (b) bracket-closure of conjugacy limits (the constructor re-checks it)
    closure_ok = True
    for _ in range(20):
        sig = rng.choice(signatures)
        m = sum(p + q for p, q in sig)
        weights = [rng.randint(-3, 3) for _ in range(m)]
        limit = conjugacy_limit(build_po(sig), FactoredSequence.diagonal(weights))
        table = limit.structure_constants()
        if not (table.is_antisymmetric() and table.satisfies_jacobi()):
            closure_ok = False
            break

    # (c) functoriality of deform_correlator
    functorial_ok = True
    spec = make_correlator(((1, 0), (3, 1)), [FUNDAMENTAL, RIGHT_ACTION])
    for _ in range(20):
        g = _random_invertible(rng)
        h = _random_invertible(rng)
        if deform_correlator(deform_correlator(spec, g), h) != deform_correlator(
            spec, mat_mul(h, g)
        ):
            functorial_ok = False
            break

    # (d) parse round-trips on printed canonical forms
    roundtrip_ok = True
    for _ in range(40):
        terms = {
            rng.randint(-3, 3): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 3))
        }
        scalar = LaurentScalar(terms)
        if parse_scalar(str(scalar)) != scalar:
            roundtrip_ok = False
            break
        sig = rng.choice(signatures)
        if parse_signature(signature_str(sig)) != sig:
            roundtrip_ok = False
            break
        lam = validate_diagram(
            sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
        )
        if parse_diagram(diagram_str(lam)) != lam:
            roundtrip_ok = False
            break

    passed = contracted_ok and closure_ok and functorial_ok and roundtrip_ok
    return (
        passed,
        f"contracted tables {contracted_cases} cases {contracted_ok}, "
        f"limit closure {closure_ok}, functoriality {functorial_ok}, round-trips {roundtrip_ok}",
    )


def check_ambient_embedding() -> tuple[bool, str]:
    po = build_po(((4, 1),))
    base = conjugacy_limit(po, parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)"))
    passed = True
    notes = []
    for m_target in (6, 7):
        padded_weights = [4, -1, -1, -1, -1] + [0] * (m_target - 5)
        big = embed_and_limit(po, m_target, FactoredSequence.diagonal(padded_weights))
        ok = big.span_equals(pad_span(base, m_target))
        passed = passed and ok
        notes.append(f"m={m_target}: {ok}")
    return passed, ", ".join(notes)


def check_representation_limit_commutation() -> tuple[bool, str]:
    po = build_po(((1, 0), (3, 1)))
    b = parse_sequence("diag(t,1,1,1,t)")
    samples = [
        _matrix(5, {(1, 2): 1, (2, 1): -1}),
        _matrix(5, {(1, 3): 1, (3, 1): -1}),
        _matrix(5, {(2, 3): 1, (3, 2): -1}),
        _matrix(5, {(3, 4): 1, (4, 3): 1, (1, 0): 1}),
        _matrix(5, {(2, 4): 1, (4, 2): 1, (1, 0): 1}),
    ]
    passed = rep_limit_commute_check(po, b, RepTag("schur", ((1, 1), ())), samples)
    # Both sides above share the induced action; rho(g h) = rho(g) rho(h)
    # for seeded g, h (entries -1..1) catches a wrong (say, transposed) one.
    rng = random.Random(20261020)
    for _ in range(5):
        g, h = _random_invertible(rng, 1), _random_invertible(rng, 1)
        for tag in (RepTag("schur", ((1, 1), ())), RepTag("schur", ((), (2,)))):
            passed = passed and rep_matrix(tag, mat_mul(g, h)) == mat_mul(rep_matrix(tag, g), rep_matrix(tag, h))
    return passed, "5 truncated exponentials, antisymmetric square"


CHECKS: list[Callable[[], tuple[bool, str]]] = [
    check_galilei_boost,
    check_example_limits,
    check_contraction_chain,
    check_sigma_chain,
    check_invariant_profiles,
    check_figure1,
    check_uv_ir,
    check_schur_dimensions,
    check_lorentz_branching,
    check_poincare_irreducibility,
    check_property_suites,
    check_ambient_embedding,
    check_representation_limit_commutation,
]


def run_all() -> list[CheckResult]:
    """Every check in order, each with its wall time.  A check that raises a
    ProjlimError fails, with the error as its detail."""
    results = []
    for number, check in enumerate(CHECKS, 1):
        start = time.perf_counter()
        try:
            passed, detail = check()
        except ProjlimError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        name = check.__name__.removeprefix("check_").replace("_", "-")
        results.append(CheckResult(number, name, passed, detail, time.perf_counter() - start))
    return results
