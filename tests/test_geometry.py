"""Model spaces, their degenerations, and point-limit classification."""

import dataclasses
import itertools
import random
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import geometry as geometry_module
from projlim import laurent, linalg, projective
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
from projlim.lie import build_po, conjugacy_limit, enumerate_signatures, match_limit_geometry, validate_signature
from projlim.parsing import parse_sequence
from projlim.projective import FactoredSequence, ProjPoint, canonical_coords, point_limit, point_text

from _reference import permutation_matrix, reference_gauge_equivalent, reference_point_route, reference_rank

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


def reference_classify_point_limit(sig, b, x):
    """The per-point classification before the Degeneration record: it derives
    the limit signature, frame permutation and rank at the limit again for
    every point, then takes the Laurent point route."""
    sig = validate_signature(sig)
    limit_sig, perm = match_limit_geometry(conjugacy_limit(build_po(sig), b))
    rank = b.matrix().rank_at_limit()
    record = SimpleNamespace(sig=sig, seq=b, m=b.dim, limit_sig=limit_sig, perm=perm, rank=rank)
    kind, _, _, vanishing, y = reference_point_route(record, x)
    return kind, y, vanishing, limit_sig


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
            cases.append((sig, FactoredSequence.constant(permutation_matrix(perm)).compose(diagonal), points))
    # An interior point that escapes the limit model space: both raise.
    escaping = FactoredSequence.constant(permutation_matrix((2, 3, 1, 0))).compose(FactoredSequence.diagonal([2, -2, 0, 2]))
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


POINT_VALUES = (-3, -2, -1, 0, 0, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _grid_factor(rng, kind, m):
    """An m x m factor: the identity, a permutation or a dense invertible one with entries -1, 0, 1."""
    if kind == "identity":
        return linalg.identity(m)
    if kind == "permutation":
        return permutation_matrix(rng.sample(range(m), m))
    while True:
        a = [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(m)]
        if reference_rank(a) == m:
            return a


def _grid_points(rng, sig, m):
    """Three interior points and one drawn freely (it may be outside, on the
    boundary or zero), each as a list of numbers, of expression strings or as
    a ProjPoint; then the refusals: the zero vector, a short and a long point,
    points that depend on t ([t, t, ...] does not: it is [1, 1, ...]), a float
    and a bool."""
    points = []
    while len(points) < 3:
        x = [rng.choice(POINT_VALUES) for _ in range(m)]
        if in_model_space(sig, x) == "interior":
            points.append(x)
    points.append([rng.choice(POINT_VALUES) for _ in range(m)])
    points = [rng.choice((x, [str(c) for c in x], ProjPoint(x) if any(x) else x)) for x in points]
    rest = [0] * (m - 1)
    return points + [
        [0] * m,
        [1] * (m - 1),
        [1] * (m + 1),
        ["t", 1] + rest[1:],
        ["t", "t"] + rest[1:],
        ["t^-1 + 2", "t^-1"] + rest[1:],
        ProjPoint(["t"] + [1] * (m - 1)),
        [0.5] + rest,
        [True] + rest,
    ]


class TestRationalRouteAgainstLaurentRoute:
    """The rational point route (``canonical_coords``, ``rational_limit``,
    ``point_text``) against the Laurent route it replaced
    (``_reference.reference_point_route``) on a seeded grid at m = 3-6, with
    L and R each the identity, a permutation or a dense -1/0/1 matrix."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_grid(self, m):
        rng = random.Random(20261020 + m)
        signatures = enumerate_signatures(m)
        kinds = ("identity", "permutation", "dense")
        matched = 0
        for left, right in itertools.product(kinds, repeat=2):
            for draw in range(3):
                sig = rng.choice(signatures)
                # Equal weights keep full rank, so interior points stay generic.
                weights = [rng.randint(-2, 2)] * m if draw == 2 else [rng.randint(-2, 2) for _ in range(m)]
                seq = FactoredSequence.build(_grid_factor(rng, left, m), weights, _grid_factor(rng, right, m))
                try:
                    deg = geometry_limit(sig, seq)
                    matched += 1
                except NoMatch:
                    # The point route reads only sig, seq, limit_sig, perm and
                    # rank, so the record of the weights alone, carrying the
                    # dense sequence, runs it where no limit is matched.
                    deg = dataclasses.replace(geometry_limit(sig, FactoredSequence.diagonal(weights)), seq=seq)
                for x in _grid_points(rng, sig, m):
                    self.check(deg, x)
        assert matched >= 8

    @staticmethod
    def check(deg, x):
        try:
            kind, text_in, text_out, vanishing, point = reference_point_route(deg, x)
        except ProjlimError as exc:
            with pytest.raises(ProjlimError) as caught:
                classify_point_limit(deg, x)
            assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
            return
        report = classify_point_limit(deg, x)
        assert (report.kind, report.vanishing, report.limit_signature) == (kind, vanishing, deg.limit_sig)
        assert (point_text(canonical_coords(x)), point_text(report.coords), report.as_dict()["point"]) == (
            text_in,
            text_out,
            text_out,
        )
        assert report.point == point and str(report.point) == text_out
        assert point_limit(deg.seq, x) == point


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

    def test_gauge_equivalent_matches_the_solve_reference(self):
        """The rank test against solve-and-kernel over a seeded grid: zero
        vectors, multiples of the gauge direction and alpha*w1 + beta*g with
        alpha = 0 or not, beside random pairs."""
        rng = random.Random(44)
        g = list(GAUGE_DIRECTION)
        seen = {True: 0, False: 0}
        for k in range(3000):
            w1 = [rng.randint(-2, 2) for _ in range(5)]
            kind = k % 5
            if kind == 0:
                w1 = [0] * 5 if k % 2 else [rng.randint(-2, 2) * c for c in g]
            alpha, beta = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if kind in (0, 1, 2):
                w2 = [alpha * a + beta * c for a, c in zip(w1, g)]
            elif kind == 3:
                w2 = [beta * c for c in g] if k % 2 else [0] * 5
            else:
                w2 = [rng.randint(-2, 2) for _ in range(5)]
            want = reference_gauge_equivalent(w1, w2)
            assert gauge_equivalent(w1, w2) == want, (w1, w2)
            seen[want] += 1
        assert min(seen.values()) >= 500, seen

    def test_gauge_equivalent_makes_no_dense_elimination(self, monkeypatch):
        calls = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(rows) or rref(rows))
        assert gauge_equivalent([1, 1, 0, 0, 0], [0, 0, -1, -1, 1])
        assert not gauge_equivalent([1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        assert calls == []

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
