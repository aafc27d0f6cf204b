"""Model spaces, their degenerations, and point-limit classification."""

import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import geometry as geometry_module
from projlim import laurent, projective
from projlim.cli import main
from projlim.correlator import FUNDAMENTAL, RIGHT_ACTION, degenerate, figure1_table, make_correlator
from projlim.errors import DimError, NoMatch, ParseError, ProjlimError
from projlim.geometry import (
    GAUGE_DIRECTION,
    classify_point_limit,
    gauge_equivalent,
    geometry_limit,
    in_model_space,
    limit_signature,
    quadratic_form_value,
    scale_matrix,
    transform_vector,
)
from projlim.lie import build_po, conjugacy_limit, match_limit_geometry, validate_signature
from projlim.parsing import parse_sequence
from projlim.projective import FactoredSequence, ProjPoint, invert_permutation, permutation_matrix

from _reference import reference_apply_to_point, reference_rank

FLAT = ((1, 0), (3, 1))
GALILEI_SEQ = parse_sequence("diag(t,1,1,1,t)")
GALILEI_DEG = geometry_limit(FLAT, GALILEI_SEQ)


class TestModelSpace:
    def test_interior_boundary_outside(self):
        assert in_model_space((4, 1), [1, 0, 0, 0, 0]) == "interior"
        assert in_model_space((4, 1), [1, 0, 0, 0, 1]) == "boundary"
        assert in_model_space((4, 1), [1, 0, 0, 0, 2]) == "outside"

    def test_flat_geometry_uses_first_block(self):
        # first block (1,0): interior iff the first coordinate is nonzero
        assert in_model_space(FLAT, [1, 9, 9, 9, 9]) == "interior"
        assert in_model_space(FLAT, [0, 1, 0, 0, 0]) == "boundary"

    def test_accepts_proj_points(self):
        assert in_model_space((4, 1), ProjPoint([2, 0, 0, 0, 0])) == "interior"


def _coercing_calls(entry):
    """The three calls that read a point's entries as rationals, each with
    ``entry`` as its first coordinate."""
    point = [entry, 0, 0, 0, 1]
    return (
        lambda: in_model_space((4, 1), point),
        lambda: quadratic_form_value((4, 1), point),
        lambda: gauge_equivalent(point, [1, 0, 0, 0, 0]),
    )


class TestPointEntryCoercion:
    """Entries are read as ``ProjPoint`` reads them: a bad entry raises a
    ``ProjlimError`` (``ParseError`` for bad text), never a bare Python error."""

    def test_an_entry_depending_on_t_is_refused(self):
        for call in _coercing_calls("t"):
            with pytest.raises(ProjlimError, match="depends on the parameter"):
                call()

    def test_division_by_zero_is_a_parse_error(self):
        for call in _coercing_calls("1/0"):
            with pytest.raises(ParseError, match="division by zero"):
                call()

    def test_unknown_text_is_a_parse_error(self):
        for call in _coercing_calls("x"):
            with pytest.raises(ParseError, match="expected a scalar"):
                call()

    def test_a_float_is_refused_as_proj_point_refuses_it(self):
        with pytest.raises(ProjlimError, match="cannot coerce 0.5 to LaurentScalar") as refused:
            ProjPoint([0.5, 0, 0, 0, 1])
        for call in _coercing_calls(0.5):
            with pytest.raises(ProjlimError, match=re.escape(str(refused.value))):
                call()

    def test_a_bool_is_refused_as_proj_point_refuses_it(self):
        with pytest.raises(ProjlimError, match="cannot coerce True to LaurentScalar") as refused:
            ProjPoint([True, 0, 0, 0, 1])
        for call in _coercing_calls(True):
            with pytest.raises(ProjlimError, match=re.escape(str(refused.value))):
                call()


class TestLimitSignature:
    def test_single_split_preserves_totals(self):
        assert limit_signature(3, 2, {4}) == ((3, 1), (0, 1))

    def test_two_splits(self):
        assert limit_signature(4, 1, {1, 4}) == ((1, 0), (3, 0), (0, 1))

    def test_no_split_is_identity(self):
        assert limit_signature(4, 1, set()) == ((4, 1),)

    @given(
        st.integers(1, 4),
        st.integers(0, 3),
        st.sets(st.integers(1, 6), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_always_preserved(self, p, q, splits):
        m = p + q
        splits = {s for s in splits if 0 < s < m}
        sig = limit_signature(p, q, splits)
        assert sum(pp for pp, qq in sig) == p
        assert sum(qq for pp, qq in sig) == q
        assert len(sig) == len(splits) + 1


class TestGeometryLimit:
    def test_flat_to_galilei(self):
        deg = geometry_limit(FLAT, GALILEI_SEQ)
        assert (deg.limit_sig, deg.perm) == (
            ((1, 0), (1, 0), (3, 0)),
            (0, 2, 3, 4, 1),
        )

    def test_positive_curvature_to_flat(self):
        seq = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
        deg = geometry_limit((4, 1), seq)
        assert (deg.limit_sig, deg.perm) == (((1, 0), (3, 1)), (0, 1, 2, 3, 4))

    def test_rank_is_read_off_the_weights(self):
        """The limit of L diag(t^w) R has the rank of L diag(w_k == min w) R,
        so Degeneration.rank is the count of least weights.  Checked against
        the dense elimination it replaced (ProjMatrix.rank_at_limit) on 400
        seeded sequences at m = 2..7 with identity, permutation and dense
        factors, and through geometry_limit on those at m <= 5 that match."""
        rng = random.Random(26)

        def factor(m):
            kind = rng.randrange(3)
            if kind == 0:
                return [[int(i == j) for j in range(m)] for i in range(m)]
            if kind == 1:
                return permutation_matrix(tuple(rng.sample(range(m), m)))
            while True:
                rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(m)]
                if reference_rank(rows) == m:
                    return rows

        matched = {True: 0, False: 0}
        for index in range(400):
            m = 2 + index % 6
            b = FactoredSequence.build(factor(m), [rng.randint(-2, 2) for _ in range(m)], factor(m))
            rank = b.matrix().rank_at_limit()
            assert b.weights.count(min(b.weights)) == rank
            if m <= 5:
                try:
                    deg = geometry_limit(((m - 1, 1),), b)
                except NoMatch:
                    continue
                assert deg.rank == rank
                matched[rank < m] += 1
        assert min(matched.values()) >= 5, matched

    def test_no_degeneration_is_fast(self):
        # The limit fills every off-diagonal entry, the worst case for a
        # search over permutations.
        start = time.perf_counter()
        deg = geometry_limit(((5, 1),), FactoredSequence.diagonal([0] * 6))
        assert time.perf_counter() - start < 0.5
        assert (deg.limit_sig, deg.perm) == (((5, 1),), (0, 1, 2, 3, 4, 5))


class TestClassifyPointLimit:
    def test_generic_interior_point_hits_boundary(self):
        report = classify_point_limit(GALILEI_DEG, ProjPoint([1, 2, 3, 4, 5]))
        assert report.kind == "boundary"
        assert report.point == ProjPoint([0, 2, 3, 4, 0])

    def test_time_axis_point_stays_interior(self):
        report = classify_point_limit(GALILEI_DEG, ProjPoint([1, 0, 0, 0, 7]))
        assert report.kind == "interior_lower_dim"
        assert report.point == ProjPoint([1, 0, 0, 0, 7])

    def test_origin_is_fixed(self):
        report = classify_point_limit(GALILEI_DEG, ProjPoint([1, 0, 0, 0, 0]))
        assert report.kind == "interior_lower_dim"
        assert report.vanishing  # some coordinates are pinned to zero

    def test_interior_precondition(self):
        with pytest.raises(ProjlimError):
            classify_point_limit(GALILEI_DEG, ProjPoint([0, 1, 0, 0, 0]))

    def test_generic_kind_requires_full_rank(self):
        # an invertible constant sequence keeps interior points generic
        from projlim.projective import FactoredSequence

        seq = FactoredSequence.constant(
            [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        )
        report = classify_point_limit(geometry_limit(FLAT, seq), ProjPoint([1, 2, 0, 0, 0]))
        assert report.kind == "interior_generic"

    def test_as_dict_shape(self):
        report = classify_point_limit(GALILEI_DEG, ProjPoint([1, 2, 3, 4, 5]))
        d = report.as_dict()
        assert set(d) >= {"kind", "point", "vanishing", "limit_signature"}

    @pytest.mark.parametrize(
        "sig, seq, point",
        [
            (((2, 1),), "diag(t,1,1)", [1, 0, 0]),
            (((3, 1),), "diag(t,1,1,1)", [1, 0, 0, 0]),
            (((5, 1),), "diag(t,1,1,1,1,t)", [2, 0, 0, 0, 0, 1]),
        ],
    )
    def test_other_dimensions(self, sig, seq, point):
        report = classify_point_limit(geometry_limit(sig, parse_sequence(seq)), ProjPoint(point))
        assert report.kind == "interior_lower_dim"
        assert report.point == ProjPoint(point)


def reference_side(sig, coords):
    """``in_model_space`` by its definition: the sign of
    -x_0^2 - ... - x_{p0-1}^2 + x_{p0}^2 + ... + x_{p0+q0-1}^2."""
    p0, q0 = sig[0]
    value = Fraction(0)
    for i, c in enumerate(coords[: p0 + q0]):
        value += (-1 if i < p0 else 1) * Fraction(c) * Fraction(c)
    return "interior" if value < 0 else "boundary" if value == 0 else "outside"


def reference_classify_point_limit(sig, b, x):
    """The per-point classification before the Degeneration record: it derives
    the limit signature, frame permutation and rank at the limit again for
    every point."""
    sig = validate_signature(sig)
    x = ProjPoint(list(x))
    if reference_side(sig, x.constant_coords()) != "interior":
        raise ProjlimError("point is not interior to the model space")
    y = reference_apply_to_point(b, x).limit()
    limit_sig, perm = match_limit_geometry(conjugacy_limit(build_po(sig), b))
    y_coords = y.constant_coords()
    inv = invert_permutation(perm)
    z_coords = [y_coords[inv[i]] for i in range(len(y_coords))]
    membership = reference_side(limit_sig, z_coords)
    if membership == "boundary":
        kind = "boundary"
    elif membership == "interior":
        if b.matrix().rank_at_limit() == len(z_coords):
            kind = "interior_generic"
        else:
            kind = "interior_lower_dim"
    else:
        raise ProjlimError("interior point escaped the closed limit model space")
    return kind, y, y.zero_pattern(), limit_sig


ORACLE_SIGS = [
    ((2, 1),),
    ((1, 0), (1, 1)),
    ((3, 1),),
    ((2, 2),),
    ((1, 0), (2, 1)),
    ((4, 1),),
    ((3, 2),),
    ((1, 0), (3, 1)),
    ((5, 1),),
]


def _oracle_cases():
    """Seeded (sig, sequence, points): a diagonal and a permuted sequence per
    signature and weight range, with random sparse interior points (fewer at
    m = 6, where every reference call runs the brute-force match, and 0/1
    weights there cost seconds per match)."""
    rng = random.Random(20261018)
    cases = []
    for sig in ORACLE_SIGS:
        m = sum(p + q for p, q in sig)
        for low, high in ((-2, 2),) if m == 6 else ((-2, 2), (0, 1)):
            weights = [rng.randint(low, high) for _ in range(m)]
            perm = list(range(m))
            rng.shuffle(perm)
            points = []
            while len(points) < (1 if m == 6 else 3):
                x = [rng.choice((-2, -1, 0, 0, 0, 1, 3)) for _ in range(m)]
                if in_model_space(sig, x) == "interior":
                    points.append(x)
            diagonal = FactoredSequence.diagonal(weights)
            cases.append((sig, diagonal, points))
            cases.append((sig, diagonal.premultiply(permutation_matrix(perm)), points))
    # An interior point that escapes the limit model space: both raise.
    escaping = FactoredSequence.diagonal([2, -2, 0, 2]).premultiply(permutation_matrix((2, 3, 1, 0)))
    cases.append((((2, 2),), escaping, [[2, 0, 0, 1], [1, 1, 1, 0]]))
    return cases


class TestAgainstReference:
    @pytest.mark.parametrize("sig, seq, points", _oracle_cases())
    def test_record_matches_per_point_derivation(self, sig, seq, points):
        deg = geometry_limit(sig, seq)
        for x in points:
            try:
                expected = reference_classify_point_limit(sig, seq, x)
            except ProjlimError as exc:
                with pytest.raises(type(exc)):
                    classify_point_limit(deg, x)
                continue
            report = classify_point_limit(deg, x)
            assert (report.kind, report.point, report.vanishing, report.limit_signature) == expected


@pytest.fixture
def cold_cache():
    """Start from an empty degeneration cache, as a fresh process does."""
    geometry_module._degeneration.cache_clear()


@pytest.fixture
def match_calls(monkeypatch, cold_cache):
    """Count calls of lie.match_limit_geometry made from anywhere in projlim."""
    original = match_limit_geometry
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "projlim" and getattr(module, "match_limit_geometry", None) is original:
            monkeypatch.setattr(module, "match_limit_geometry", counted)
    return calls


IDENTITY5 = [[int(i == j) for j in range(5)] for i in range(5)]
CLASSIFY_ARGV = [
    "classify", "--algebra", "po((1),(3,1))", "--seq", "diag(t,1,1,1,t)",
    "--points", "[1,2,3,4,5];[1,0,0,0,7];[1,0,0,0,0];[3,1,1,0,2]",
]


class TestOneDegenerationPerRequest:
    """Each request derives its degeneration at most once, and a process
    derives it once for all requests (``geometry_limit`` keeps it)."""

    def test_degenerate_matches_once(self, match_calls):
        spec = make_correlator(FLAT, [FUNDAMENTAL, RIGHT_ACTION])
        samples = [[1, 2, 3, 4, 5], [1, 0, 0, 0, 7], [1, 0, 0, 0, 0], [3, 1, 1, 0, 2], [2, 1, 0, 0, 0], [1, 1, 1, 1, 1]]
        report = degenerate(spec, parse_sequence("diag(t,1,1,1,t)"), (0, 2, 3, 4, 1), samples)
        assert len(report.samples) == 7  # six given plus the interior basis point
        assert len(match_calls) == 1

    def test_classify_matches_once(self, match_calls, capsys):
        code = main(CLASSIFY_ARGV)
        assert code == 0
        assert capsys.readouterr().out.count(" -> ") == 4
        assert len(match_calls) == 1

    def test_figure1_matches_once_per_row(self, match_calls):
        assert len(figure1_table()["rows"]) == 3
        assert len(match_calls) == 3

    @pytest.mark.parametrize("argv", [CLASSIFY_ARGV, ["figure1", "--format", "json"]])
    def test_a_repeated_request_matches_nothing(self, match_calls, capsys, argv):
        assert main(argv) == 0
        first, matched = capsys.readouterr().out, len(match_calls)
        assert matched >= 1
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(match_calls) == matched

    def test_the_same_record_is_shared(self, cold_cache):
        seq = parse_sequence("diag(t,1,1,1,t)")
        first = geometry_limit(FLAT, seq)
        again = FactoredSequence.build(IDENTITY5, [1, 0, 0, 0, 1], IDENTITY5)
        assert again == seq and hash(again) == hash(seq)
        assert geometry_limit([[1], [3, 1]], again) is first  # the normalized signature is the key
        info = geometry_module._degeneration.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_a_dimension_mismatch_is_refused_before_the_lookup(self, cold_cache):
        with pytest.raises(DimError, match="sequence dimension 3 != algebra ambient 5"):
            geometry_limit(((4, 1),), FactoredSequence.diagonal([1, 0, 0]))
        info = geometry_module._degeneration.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_no_match_is_raised_again(self, match_calls):
        seq = FactoredSequence.build([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for attempt in (1, 2):
            with pytest.raises(NoMatch):
                geometry_limit(((2, 1),), seq)
            assert len(match_calls) == attempt
        assert geometry_module._degeneration.cache_info().currsize == 0


class TestRationalPointRoute:
    """A rational point is classified in rationals: no Laurent vector is
    formed and no Laurent row is made canonical."""

    def test_no_laurent_work(self, monkeypatch):
        deg = geometry_limit(FLAT, parse_sequence("compose(perm((0 4 1 2 3)),diag(t,1,1,1,t))"))
        points = [[1, 2, 3, 4, 5], [Fraction(1, 2), 0, 0, 0, 7], [laurent.lau("3"), 1, 1, 0, laurent.lau("2")]]
        expected = [classify_point_limit(deg, x) for x in points]

        def refuse(*args, **kwargs):
            pytest.fail("Laurent work for a rational point")

        monkeypatch.setattr(projective, "rational_combination", refuse)
        monkeypatch.setattr(laurent, "rational_combination", refuse)
        monkeypatch.setattr(projective, "_canonicalize", refuse)
        for x, report in zip(points, expected):
            assert classify_point_limit(deg, x) == report
            assert classify_point_limit(deg, ProjPoint(x)) == report
            assert str(classify_point_limit(deg, x).point) == str(report.point)


class TestTransformAndGauge:
    def test_transform_vector_matches_point_limit(self):
        assert transform_vector([1, 2, 3, 4, 5], GALILEI_SEQ) == ProjPoint([0, 2, 3, 4, 0])

    def test_gauge_direction_is_lightlike_combination(self):
        assert GAUGE_DIRECTION == (1, 1, 1, 1, -1)

    def test_gauge_equivalence_basics(self):
        g = list(GAUGE_DIRECTION)
        assert gauge_equivalent(g, [2 * c for c in g])
        assert gauge_equivalent([1, 0, 0, 0, 0], [1, 0, 0, 0, 0])
        # shifting by the gauge direction is allowed
        w = [1, 1, 0, 0, 0]
        shifted = [w[i] - GAUGE_DIRECTION[i] for i in range(5)]
        assert gauge_equivalent(w, shifted)

    def test_gauge_needs_five_components(self):
        with pytest.raises(DimError):
            gauge_equivalent([1, 0, 0, 0], [1, 0, 0, 0])

    def test_gauge_inequivalence(self):
        assert not gauge_equivalent([1, 0, 0, 0, 0], [0, 1, 0, 0, 0])

    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_gauge_relation_is_reflexive_and_symmetric(self, w):
        if all(c == 0 for c in w):
            return
        assert gauge_equivalent(w, w)
        shifted = [w[i] + GAUGE_DIRECTION[i] for i in range(5)]
        if any(c != 0 for c in shifted):
            assert gauge_equivalent(w, shifted) == gauge_equivalent(shifted, w)


class TestScaleMatrix:
    def test_uv_and_ir_weights(self):
        assert scale_matrix("uv").weights == (0, 1, 1, 1, 1)
        assert scale_matrix("ir").weights == (0, -1, -1, -1, -1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProjlimError):
            scale_matrix("sideways")
