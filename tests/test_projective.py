"""Projective canonical forms, factored sequences, and their limits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import (
    LaurentScalar,
    NotInvertible,
    ProjMatrix,
    ProjPoint,
    ZeroMatrix,
)
from projlim.parsing import parse_matrix, parse_point, parse_sequence
from projlim.projective import (
    FactoredSequence,
    _canonicalize,
    invert_permutation,
    lmat_from_rational,
    permutation_matrix,
    point_limit,
)

T = LaurentScalar.t(1)


def nonzero_fraction():
    return st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
        lambda f: f != 0
    )


class TestCanonicalForm:
    def test_point_scaling_invariance(self):
        assert ProjPoint([2, 4, 6]) == ProjPoint([1, 2, 3])
        assert ProjPoint([Fraction(1, 3), 0, 1]) == ProjPoint([1, 0, 3])

    def test_point_sign_normalization(self):
        # first nonzero coordinate becomes +1
        assert str(ProjPoint([-2, 4])) == "[1, -2]"

    def test_monomial_scaling_invariance(self):
        scaled = [T * 2, T * 4, T * 6]
        assert ProjPoint(scaled) == ProjPoint([1, 2, 3])

    def test_global_min_exponent_zero(self):
        point = ProjPoint([T, T * T])
        assert str(point) == "[1, t]"

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroMatrix):
            ProjPoint([0, 0, 0])

    def test_matrix_rescaling(self):
        assert ProjMatrix([[2, 0], [0, 4]]) == ProjMatrix([[1, 0], [0, 2]])

    @given(st.lists(nonzero_fraction(), min_size=2, max_size=5), nonzero_fraction())
    @settings(max_examples=50, deadline=None)
    def test_point_scale_property(self, coords, scale):
        assert ProjPoint([scale * c for c in coords]) == ProjPoint(coords)


class TestLimits:
    def test_matrix_limit_keeps_lowest_order(self):
        pm = ProjMatrix([[LaurentScalar.one(), T], [T, T * T]])
        assert pm.limit().constant_rows() == [[1, 0], [0, 0]]

    def test_point_limit(self):
        point = ProjPoint([LaurentScalar.one(), T * 3])
        assert point.limit() == ProjPoint([1, 0])

    def test_rank_at_limit(self):
        pm = ProjMatrix([[LaurentScalar.one(), LaurentScalar.zero()], [LaurentScalar.zero(), T]])
        assert pm.rank_at_limit() == 1


class TestFactoredSequence:
    def test_diagonal_matrix(self):
        seq = FactoredSequence.diagonal([1, 0])
        assert seq.matrix() == ProjMatrix([[T, LaurentScalar.zero()], [LaurentScalar.zero(), LaurentScalar.one()]])

    def test_inverse_composes_to_identity(self):
        seq = parse_sequence("diag(t^2,t^-1,1)")
        composed = seq.compose(seq.inverse())
        assert composed.matrix().constant_rows() == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_singular_factor_rejected(self):
        with pytest.raises(NotInvertible):
            FactoredSequence.build([[1, 1], [1, 1]], (0, 0), [[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "left, right",
        [
            ([[1, 0], [0, 1, 5]], [[1, 0], [0, 1]]),  # a ragged row of full rank
            ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]),  # 2x3, full rank on its first two columns
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]]),  # 3x3 against two weights
        ],
    )
    def test_non_square_factor_rejected(self, left, right):
        with pytest.raises(NotInvertible, match="must be 2x2"):
            FactoredSequence.build(left, (1, 0), right)

    @pytest.mark.parametrize(
        "const, message",
        [([[1, 1], [1, 1]], "invertible factors"), ([[1, 0, 0], [0, 1, 0]], "must be 2x2")],
    )
    def test_singular_or_non_square_premultiplier_rejected(self, const, message):
        with pytest.raises(NotInvertible, match=message):
            FactoredSequence.diagonal([1, 0]).premultiply(const)

    def test_conjugation_of_boost(self):
        boost = [[Fraction(0)] * 5 for _ in range(5)]
        boost[3][4] = boost[4][3] = Fraction(1)
        seq = parse_sequence("diag(t,1,1,1,t)")
        limit = seq.conjugate(boost).limit()
        expected = [[Fraction(0)] * 5 for _ in range(5)]
        expected[3][4] = Fraction(1)
        assert limit == ProjMatrix(lmat_from_rational(expected))

    def test_point_limit_through_sequence(self):
        seq = parse_sequence("diag(t,1,1,1,t)")
        assert point_limit(seq, [1, 2, 3, 4, 5]) == ProjPoint([0, 2, 3, 4, 0])

    @given(st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_inverse(self, perm):
        perm = tuple(perm)
        mat = permutation_matrix(perm)
        inv = permutation_matrix(invert_permutation(perm))
        n = len(perm)
        from projlim.linalg import mat_mul

        assert mat_mul(mat, inv) == [
            [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
        ]


class TestParsing:
    def test_sequence_roundtrip_forms(self):
        for text in (
            "diag(t,1,1,1,t)",
            "diag(t^4,t^-1,t^-1,t^-1,t^-1)",
            "compose(perm((0 4 1 2 3)), diag(t,1,1,1,t))",
        ):
            seq = parse_sequence(text)
            assert seq.dim == 5

    def test_matrix_and_point_literals(self):
        rows = parse_matrix("[[1, t], [0, t^-1]]")
        assert rows[0][1] == T
        coords = parse_point("[1, 1/2, 0]")
        assert coords[1] == LaurentScalar.constant(Fraction(1, 2))

    def test_pole_absorbed_by_projective_rescaling(self):
        # diag(t^-1, 1) is projectively the same as diag(1, t): no poles survive
        seq = parse_sequence("diag(t^-1,1)")
        assert seq.matrix() == ProjMatrix([[LaurentScalar.one(), LaurentScalar.zero()], [LaurentScalar.zero(), T]])
        assert seq.matrix().limit().constant_rows() == [[1, 0], [0, 0]]


class TestParseDimension:
    def test_perm_takes_the_given_dimension(self):
        assert parse_sequence("perm((0 1))", 3).left_rows() == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 1],
        ]
        assert parse_sequence("perm((0 1))").dim == 5

    def test_perm_inside_compose_at_m6(self):
        seq = parse_sequence("compose(perm((0 1)),diag(t,1,1,1,1,1))", 6)
        assert seq.matrix() == ProjMatrix(
            parse_matrix(
                "[[0,1,0,0,0,0],[t,0,0,0,0,0],[0,0,1,0,0,0],"
                "[0,0,0,1,0,0],[0,0,0,0,1,0],[0,0,0,0,0,1]]"
            )
        )


# -- the canonical form before it skipped no-op work, kept as an oracle ----------


def reference_canonicalize(rows):
    """Always shift and always rescale, zero entries included."""
    exps = [e.min_exponent() for row in rows for e in row if not e.is_zero()]
    if not exps:
        raise ZeroMatrix("projective class of the zero matrix is undefined")
    shift = -min(exps)
    rows = [[e.shift(shift) for e in row] for row in rows]
    lead = next(e.coefficient(0) for row in rows for e in row if e.coefficient(0) != 0)
    inv = Fraction(1) / lead
    return [[e.scale(inv) for e in row] for row in rows]


def reference_limit(rows):
    """Entrywise limit of a canonical representative, canonicalized again."""
    return reference_canonicalize(
        [[LaurentScalar.constant(e.limit_at_zero()) for e in row] for row in rows]
    )


COEFFS = [Fraction(c) for c in (1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-3, 4)]


def random_scalar(rng, zero_frac, constant):
    if rng.random() < zero_frac:
        return LaurentScalar.zero()
    if constant:
        return LaurentScalar.constant(rng.choice(COEFFS))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-3, 3)] = rng.choice(COEFFS)
    return LaurentScalar(terms)


def laurent_grid(seed=20261018):
    """Seeded Laurent matrices: zero entries, negative exponents, leading
    constants other than 1, 1x1 and all-constant ones, and each also in its
    canonical form, which must come back unchanged."""
    rng = random.Random(seed)
    shapes = [(1, 1), (1, 1), (1, 3), (1, 5), (2, 2), (3, 3), (2, 5), (5, 5)]
    grid = []
    for index in range(120):
        nrows, ncols = shapes[index % len(shapes)]
        constant = index % 5 == 0
        zero_frac = (0.0, 0.3, 0.7)[index % 3]
        rows = [[random_scalar(rng, zero_frac, constant) for _ in range(ncols)] for _ in range(nrows)]
        if all(e.is_zero() for row in rows for e in row):
            rows[rng.randrange(nrows)][rng.randrange(ncols)] = LaurentScalar.t(rng.randint(-3, 3))
        grid.append(rows)
        grid.append(reference_canonicalize(rows))
    return grid


GRID = laurent_grid()


class TestCanonicalFormAgainstReference:
    def test_grid_covers_the_cases(self):
        entries = [e for rows in GRID for row in rows for e in row]
        assert any(e.is_zero() for e in entries)
        assert any(not e.is_zero() and e.min_exponent() < 0 for e in entries)
        assert any(len(rows) == len(rows[0]) == 1 for rows in GRID)
        assert any(all(e.is_constant() for row in rows for e in row) for rows in GRID)
        leads = [
            next(e.coefficient(0) for row in rows for e in row if e.coefficient(0) != 0)
            for rows in GRID
            if any(e.coefficient(0) != 0 for row in rows for e in row)
        ]
        assert any(lead != 1 for lead in leads) and any(lead == 1 for lead in leads)

    def test_matrices(self):
        for rows in GRID:
            pm = ProjMatrix(rows)
            expected = reference_canonicalize(rows)
            assert pm.rows == expected
            assert str(pm) == str(ProjMatrix(expected))
            limit = pm.limit()
            assert limit.rows == reference_limit(pm.rows)
            assert str(limit) == "[" + ", ".join(
                "[" + ", ".join(map(str, row)) + "]" for row in reference_limit(pm.rows)
            ) + "]"
            assert _canonicalize(limit.rows) == limit.rows

    def test_points(self):
        for rows in GRID:
            for row in rows:
                if all(e.is_zero() for e in row):
                    with pytest.raises(ZeroMatrix):
                        ProjPoint(row)
                    continue
                point = ProjPoint(row)
                [expected] = reference_canonicalize([row])
                assert point.coords == expected
                assert str(point) == "[" + ", ".join(map(str, expected)) + "]"
                [expected_limit] = reference_limit([point.coords])
                assert point.limit().coords == expected_limit
                assert str(point.limit()) == "[" + ", ".join(map(str, expected_limit)) + "]"

    def test_zero_matrix_still_rejected(self):
        with pytest.raises(ZeroMatrix):
            ProjMatrix([[LaurentScalar.zero(), LaurentScalar.zero()]])
