"""Projective canonical forms, factored sequences, and their limits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import (
    DimError,
    DivergentLimit,
    LaurentScalar,
    NotExact,
    NotInvertible,
    ProjMatrix,
    ProjPoint,
    ZeroMatrix,
)
from projlim.parsing import parse_matrix, parse_point, parse_sequence

from _reference import (
    lmat_from_rational,
    permutation_matrix,
    lmat_mul,
    random_scaled_permutation as _scaled_permutation,
    reference_apply_to_point,
    reference_inverse,
    reference_rank,
)
from projlim.correlator import FUNDAMENTAL, rep_matrix
from projlim.errors import NotFactorable
from projlim import linalg
from projlim.lie import LieAlgebraSpan, build_po, sigma_chain, verify_morphism
from projlim.linalg import dense_rows
from projlim.projective import FactoredSequence, _canonicalize, invert_permutation, point_limit

T = LaurentScalar.t(1)


def _premultiply(const, seq):
    """const * seq(t), as the constant sequence of const composed with seq."""
    return FactoredSequence.constant(const).compose(seq)


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
        for zero in ([0, 0, 0], [LaurentScalar.zero()] * 3, ["0", 0, Fraction(0)]):
            with pytest.raises(ZeroMatrix, match="the zero vector is not a projective point"):
                ProjPoint(zero)

    def test_ragged_matrix_is_a_dimension_error(self):
        with pytest.raises(DimError, match="ragged matrix"):
            ProjMatrix([[1, 0], [0, 1, 5]])

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
        # const * b(t) is the constant sequence of const composed with b(t).
        with pytest.raises(NotInvertible, match=message):
            _premultiply(const, FactoredSequence.diagonal([1, 0]))

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


def _cycles(perm):
    """perm in the cycle notation of ``perm(...)``, fixed points included."""
    out, seen = "", set()
    for start in range(len(perm)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(str(i))
            i = perm[i]
        out += "(" + " ".join(cycle) + ")" if cycle else ""
    return out


class TestParseDimension:
    def test_perm_takes_the_given_dimension(self):
        assert dense_rows(parse_sequence("perm((0 1))", 3).left) == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 1],
        ]
        assert parse_sequence("perm((0 1))").dim == 5

    def test_one_entry_factors_equal_the_dense_build(self):
        """``diag(...)`` and ``perm(...)`` build their factors as sparse rows;
        they equal the dense route through ``build``, factors and inverses,
        over seeded coefficients, weights and permutations at m = 1..7."""
        rng = random.Random(43)
        for m in range(1, 8):
            eye = linalg.identity(m)
            for _ in range(4):
                coeffs = [Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 2, 5))) for _ in range(m)]
                weights = [rng.randint(-3, 3) for _ in range(m)]
                text = "diag(" + ",".join(f"{c}*t^{w}" for c, w in zip(coeffs, weights)) + ")"
                diagonal = [[coeffs[i] if i == j else 0 for j in range(m)] for i in range(m)]
                perm = tuple(rng.sample(range(m), m))
                for parsed, built in (
                    (parse_sequence(text), FactoredSequence.build(diagonal, weights, eye)),
                    (parse_sequence(f"perm({_cycles(perm)})", m), FactoredSequence.constant(permutation_matrix(perm))),
                ):
                    assert parsed == built
                    assert (parsed.left_inv, parsed.right_inv) == (built.left_inv, built.right_inv)

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
            # The limit is canonical as stored: the sparse helper leaves its
            # rows unchanged, they are the nonzero entries of the dense view,
            # and the dense oracle leaves that view unchanged too.
            assert _canonicalize(limit.sparse) == limit.sparse
            assert limit.sparse == sparse_of(limit.rows)
            assert reference_canonicalize(limit.rows) == limit.rows

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
                # Stored as the one sparse row of the dense view; the readers
                # and the limit agree with the dense reference.
                for p, dense in ((point, expected), (point.limit(), expected_limit)):
                    [row_sparse] = sparse_of([dense])
                    assert p.sparse == row_sparse and p.dim == len(dense)
                    assert p == ProjPoint(dense) and hash(p) == hash(ProjPoint(dense))
                    assert p.zero_pattern() == tuple(i for i, e in enumerate(dense) if e.is_zero())
                    if all(e.is_constant() for e in dense):
                        assert p.constant_coords() == [e.constant_value() for e in dense]

    def test_zero_matrix_still_rejected(self):
        with pytest.raises(ZeroMatrix):
            ProjMatrix([[LaurentScalar.zero(), LaurentScalar.zero()]])
        with pytest.raises(ZeroMatrix):
            ProjMatrix._of(((), ()), 3)


def sparse_of(rows):
    """The nonzero (column, entry) pairs of each dense row, as tuples."""
    return tuple(tuple((j, e) for j, e in enumerate(row) if not e.is_zero()) for row in rows)


def _has_zero_line(rows):
    """Whether a dense matrix with a nonzero entry has a zero row and a zero
    column."""
    return any(all(e.is_zero() for e in row) for row in rows) and any(
        all(row[j].is_zero() for row in rows) for j in range(len(rows[0]))
    )


class TestSparseStorage:
    """``ProjMatrix`` keeps only the nonzero entries of its canonical rows;
    every reader must still answer as the dense canonical form does."""

    def test_grid_covers_the_cases(self):
        needs_shift = [
            rows for rows in GRID if min(e.min_exponent() for row in rows for e in row if not e.is_zero()) != 0
        ]
        assert len(needs_shift) >= 20
        assert sum(_has_zero_line(rows) for rows in GRID) >= 20
        assert any(_has_zero_line(rows) for rows in needs_shift)

    def test_readers_against_the_dense_reference(self):
        for rows in GRID:
            pm = ProjMatrix(rows)
            expected = reference_canonicalize(rows)
            assert pm.sparse == sparse_of(expected) and pm.ncols == len(rows[0])
            assert all(
                [j for j, _ in row] == sorted({j for j, _ in row}) for row in pm.sparse
            ), "columns ascend, each once"
            assert pm.rows == expected
            assert str(pm) == "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in expected) + "]"
            assert pm == ProjMatrix(expected) and hash(pm) == hash(ProjMatrix(expected))
            assert pm.limit().rows == reference_limit(expected)
            constant = all(e.is_constant() for row in expected for e in row)
            assert pm.is_constant() == constant
            if constant:
                assert pm.constant_rows() == [[e.constant_value() for e in row] for row in expected]
                assert all(type(x) is Fraction for row in pm.constant_rows() for x in row)
            else:
                with pytest.raises(DivergentLimit):
                    pm.constant_rows()

    def test_dense_view_is_a_copy(self):
        pm = ProjMatrix([[T, 0], [0, 2 * T]])
        pm.rows[0][0] = LaurentScalar.t(5)
        assert str(pm) == "[[1, 0], [0, 2]]"

    def test_equality_sees_every_entry_and_the_width(self):
        for rows in GRID:
            pm = ProjMatrix(rows)
            changed = [row[:] for row in pm.rows]
            i, j = next((i, j) for i, row in enumerate(changed) for j, e in enumerate(row) if not e.is_zero())
            changed[i][j] = changed[i][j] + LaurentScalar.t(7)
            assert pm != ProjMatrix(changed)
        assert ProjMatrix([[1, 0]]) != ProjMatrix([[1, 0, 0]])
        assert ProjMatrix([[1], [0]]) != ProjMatrix([[1]])

    def test_dense_and_sparse_construction_agree(self):
        """The same class built from dense entries and from sparse rows (the
        route of the factored products) is equal and hashes equal, also when
        the rows are not canonical yet."""
        for rows in GRID:
            dense = ProjMatrix(rows)
            sparse = ProjMatrix._of(sparse_of(rows), len(rows[0]))
            assert sparse == dense and hash(sparse) == hash(dense)
            assert str(sparse) == str(dense)
        for seq in sequence_grid():
            built = seq.matrix()
            dense = ProjMatrix(reference_sequence_rows(seq))
            assert built == dense and hash(built) == hash(dense)


# -- sequences as dense Laurent products, kept as an oracle ----------------------


def reference_sequence_rows(seq):
    """left * diag(t^w) * right, every factor a dense Laurent matrix."""
    n = seq.dim
    zero = LaurentScalar.zero()
    diag = [[LaurentScalar.t(seq.weights[i]) if i == j else zero for j in range(n)] for i in range(n)]
    left, right = lmat_from_rational(dense_rows(seq.left)), lmat_from_rational(dense_rows(seq.right))
    return lmat_mul(left, lmat_mul(diag, right))


def reference_apply(seq, coords):
    """b(t) x as the dense Laurent matrix times the vector, entry by entry."""
    out = []
    for row in reference_sequence_rows(seq):
        acc = LaurentScalar.zero()
        for c, x in zip(row, coords):
            acc = acc + c * x
        out.append(acc)
    return out


def sequence_grid(seed=20261024):
    """Seeded sequences at m = 1, 3, 5 (the point lengths of ``GRID``) with
    invertible 0/+-1/2 factors and weights in -3..3, and their inverses."""
    rng = random.Random(seed)
    for index in range(36):
        m = (1, 3, 5)[index % 3]
        factors = []
        while len(factors) < 2:
            rows = [[Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(m)] for _ in range(m)]
            if reference_rank(rows) == m:
                factors.append(rows)
        seq = FactoredSequence.build(factors[0], [rng.randint(-3, 3) for _ in range(m)], factors[1])
        yield seq
        yield seq.inverse()


class TestSequenceAgainstDenseProducts:
    def test_matrix_and_sample_points(self):
        points = {}
        for rows in GRID:
            for row in rows:
                if any(not e.is_zero() for e in row):
                    points.setdefault(len(row), []).append(row)
        checked = 0
        for seq in sequence_grid():
            assert seq.matrix().rows == reference_canonicalize(reference_sequence_rows(seq))
            for coords in points[seq.dim][:6]:
                [expected] = reference_canonicalize([reference_apply(seq, coords)])
                assert reference_apply_to_point(seq, ProjPoint(coords)).coords == expected
                assert point_limit(seq, coords) == ProjPoint(expected).limit()
                checked += 1
        assert checked >= 300

    def test_point_limit_reads_the_least_weight(self):
        """The least-weight point_limit against the canonical limit of the
        Laurent point b(t) x, on dense L and R and their inverses, for
        Laurent points, rational points and rational ProjPoints."""
        rng = random.Random(20261030)
        laurent = {}
        for rows in GRID:
            for row in rows:
                if any(not e.is_zero() and not e.is_constant() for e in row):
                    laurent.setdefault(len(row), []).append(row)
        kinds = {"laurent": 0, "rational": 0, "point": 0}
        for seq in sequence_grid():
            rational = []
            while len(rational) < 3:
                coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(seq.dim)]
                if any(coords):
                    rational.append(coords)
            cases = [("laurent", c) for c in laurent[seq.dim][:6]] + [("rational", c) for c in rational]
            cases.append(("point", ProjPoint(rational[0])))
            for kind, coords in cases:
                expected = reference_apply_to_point(seq, coords).limit()
                got = point_limit(seq, coords)
                assert got == expected and str(got) == str(expected) and hash(got) == hash(expected), (seq, coords)
                assert got.zero_pattern() == expected.zero_pattern()
                kinds[kind] += 1
        assert sum(kinds.values()) >= 500 and min(kinds.values()) >= 70, kinds

    def test_a_zero_point_is_refused_by_name(self):
        with pytest.raises(ZeroMatrix, match="the zero vector is not a projective point"):
            point_limit(FactoredSequence.diagonal([1, 0, 0]), [0, 0, 0])

    @pytest.mark.parametrize("coords", [[1, 2], [1, 2, 3, 4]])
    def test_point_of_the_wrong_length_is_refused(self, coords):
        with pytest.raises(DimError, match="point has"):
            point_limit(FactoredSequence.diagonal([1, 0, 0]), coords)

    @pytest.mark.parametrize("x", [[[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]])
    def test_matrix_of_the_wrong_size_is_refused(self, x):
        with pytest.raises(DimError, match="needs a 3x3 matrix"):
            FactoredSequence.diagonal([1, 0, 0]).conjugate(x)

    def test_conjugate(self):
        """Ad_b x against L D R x R^-1 D^-1 L^-1, every factor dense."""
        assert _conjugations_against_dense(sequence_grid(), random.Random(20261018)) == 216

    def test_conjugate_by_monomial_factors(self):
        """The same against dense products when L and R are permutations,
        signed or scaled permutations, or the identity: the conjugation only
        relabels, scaled by the factor entries, rational entries (Ad_R) and
        Laurent ones (Ad_L) alike."""
        rng = random.Random(20261034)
        values = ((1,), (1, -1), (1, -1, 2, Fraction(1, 3), Fraction(-3, 2)))
        sequences = []
        for m in (2, 3, 4, 5):
            for left_values in values:
                for right_values in values + (None,):
                    right = linalg.identity(m) if right_values is None else _scaled_permutation(rng, m, right_values)
                    weights = [rng.randint(-3, 3) for _ in range(m)]
                    sequences.append(FactoredSequence.build(_scaled_permutation(rng, m, left_values), weights, right))
        assert _conjugations_against_dense(sequences, rng) == 3 * 48


def _conjugations_against_dense(sequences, rng):
    """Check Ad_b x against the dense product L D R x R^-1 D^-1 L^-1 for three
    random x per sequence; the number of checks."""
    entries = [Fraction(c) for c in (0, 0, 0, 1, -1, 2)] + [Fraction(1, 2), Fraction(-3, 4)]
    checked = 0
    for seq in sequences:
        n = seq.dim
        zero = LaurentScalar.zero()
        left, right = dense_rows(seq.left), dense_rows(seq.right)
        chain = [
            lmat_from_rational(left),
            [[LaurentScalar.t(seq.weights[i]) if i == j else zero for j in range(n)] for i in range(n)],
            lmat_from_rational(right),
            None,
            lmat_from_rational(reference_inverse(right)),
            [[LaurentScalar.t(-seq.weights[i]) if i == j else zero for j in range(n)] for i in range(n)],
            lmat_from_rational(reference_inverse(left)),
        ]
        for _ in range(3):
            x = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if not any(any(row) for row in x):
                x[0][0] = Fraction(1)
            chain[3] = lmat_from_rational(x)
            product = chain[0]
            for factor in chain[1:]:
                product = lmat_mul(product, factor)
            assert seq.conjugate(x).rows == reference_canonicalize(product), (seq, x)
            checked += 1
    return checked


def _monomial(rows):
    """Whether a dense square matrix has one nonzero entry in each row and
    each column."""
    support = [[j for j, x in enumerate(row) if x != 0] for row in rows]
    return all(len(js) == 1 for js in support) and sorted(js[0] for js in support) == list(range(len(rows)))


def compose_pairs(seed=20261019):
    """(a, b) pairs over ``sequence_grid()`` at m = 3 and 5: constant * grid
    and grid * constant (dense constants, shifted or not), monomial middles
    (b's left factor is a's right inverse times a scaled permutation),
    diagonal and permutation sequences, and grid * grid."""
    rng = random.Random(seed)
    grid = [seq for seq in sequence_grid() if seq.dim > 1]
    pairs = []
    for index, a in enumerate(grid):
        n = a.dim
        while True:
            const = [[Fraction(rng.choice((0, 1, -1, 2))) for _ in range(n)] for _ in range(n)]
            if reference_rank(const) == n:
                break
        shift = rng.randint(-2, 2)
        weights = [rng.randint(-3, 3) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        scaled = [[Fraction(rng.choice((1, -1, 2, Fraction(1, 3)))) * x for x in row] for row in permutation_matrix(tuple(order))]
        mono_left = [[sum(x * y for x, y in zip(row, col)) for col in zip(*scaled)] for row in reference_inverse(dense_rows(a.right))]
        pairs += [
            (FactoredSequence.constant(const), a),
            (FactoredSequence.build(const, [shift] * n, dense_rows(a.left)), a),
            (a, FactoredSequence.constant(const)),
            (a, FactoredSequence.build(dense_rows(a.right), [shift] * n, const)),
            (a, FactoredSequence.build(mono_left, weights, const)),
            (FactoredSequence.diagonal(weights), _premultiply(scaled, FactoredSequence.diagonal(weights[::-1]))),
            (a, grid[(index + 4) % len(grid)]),
        ]
    return pairs


class TestCompose:
    """compose(a, b).matrix() against the dense product of the two dense
    Laurent matrices; non-monomial, non-constant middles are refused."""

    def test_against_dense_products(self):
        kinds = {"constant": 0, "monomial": 0, "refused": 0}
        for a, b in compose_pairs():
            n = a.dim
            mid = [[sum(x * y for x, y in zip(row, col)) for col in zip(*dense_rows(b.left))] for row in dense_rows(a.right)]
            if not (a.is_constant() or b.is_constant() or _monomial(mid)):
                with pytest.raises(NotFactorable, match="middle factor is not monomial; product has no factored form"):
                    a.compose(b)
                kinds["refused"] += 1
                continue
            c = a.compose(b)
            expected = reference_canonicalize(lmat_mul(reference_sequence_rows(a), reference_sequence_rows(b)))
            assert c.matrix().rows == expected, (a, b)
            assert reference_inverse(dense_rows(c.left)) == _dense(c.left_inv, n)
            assert reference_inverse(dense_rows(c.right)) == _dense(c.right_inv, n)
            kinds["constant" if a.is_constant() or b.is_constant() else "monomial"] += 1
        assert kinds["constant"] >= 80 and kinds["monomial"] >= 40 and kinds["refused"] >= 10, kinds

    def test_dimension_mismatch_is_refused(self):
        with pytest.raises(NotFactorable, match="dimension mismatch"):
            FactoredSequence.diagonal([1, 0]).compose(FactoredSequence.diagonal([1, 0, 0]))


def _canonical_rows(rows, n):
    """Whether rows are n tuples of (column, value) pairs with ascending
    columns below n and nonzero Fraction values."""
    return len(rows) == n and all(
        isinstance(row, tuple)
        and all(a < b for (a, _), (b, _) in zip(row, row[1:]))
        and all(0 <= j < n and isinstance(x, Fraction) and x != 0 for j, x in row)
        for row in rows
    )


def _dense(rows, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
    return out


class TestSparseFactorStorage:
    """Every constructor stores each factor and each inverse once, as
    canonical sparse rows, so equality and hashing of those tuples is
    equality of the factors and weights."""

    @staticmethod
    def pool():
        grid = [seq for seq in sequence_grid() if seq.dim == 3][:8]
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        perm = permutation_matrix((1, 2, 0))
        const = [[2, 1, 0], [0, 1, 0], [1, 0, -1]]
        made = list(grid)
        for w in ([1, 0, -1], [2, 2, 2], [0, -1, -1]):
            made += [FactoredSequence.diagonal(w), FactoredSequence.build(eye, w, eye)]
        made += [FactoredSequence.constant(perm), FactoredSequence.build(perm, [0, 0, 0], eye)]
        made += [FactoredSequence.constant(const), _premultiply(const, FactoredSequence.diagonal([0, 0, 0]))]
        for seq in grid[:4]:
            made += [seq.inverse(), seq.inverse().inverse(), _premultiply(const, seq), _premultiply(eye, seq)]
            made += [FactoredSequence.constant(perm).compose(seq), seq.compose(FactoredSequence.constant(const))]
        diag = FactoredSequence.diagonal([2, 0, -1])
        made += [diag.compose(diag), diag.compose(_premultiply(perm, FactoredSequence.diagonal([1, 1, 0])))]
        made += [FactoredSequence.diagonal([4, 0, -2]), _premultiply(perm, diag).compose(diag)]
        return made

    def test_constructors_leave_canonical_rows(self):
        for seq in self.pool():
            n = seq.dim
            eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for rows in (seq.left, seq.right, seq.left_inv, seq.right_inv):
                assert _canonical_rows(rows, n), seq
            assert dense_rows(seq.left) == _dense(seq.left, n) and dense_rows(seq.right) == _dense(seq.right, n)
            assert reference_inverse(dense_rows(seq.left)) == _dense(seq.left_inv, n)
            assert reference_inverse(dense_rows(seq.right)) == _dense(seq.right_inv, n)
            assert all(isinstance(w, int) for w in seq.weights)
            # An identity factor is stored as the unit rows the conjugation skips.
            assert dense_rows(seq.left) != eye or seq.left == tuple(((i, 1),) for i in range(n))

    def test_equality_is_equality_of_factors(self):
        pool = self.pool()
        equal_pairs = 0
        for a in pool:
            for b in pool:
                same = (dense_rows(a.left), a.weights, dense_rows(a.right)) == (dense_rows(b.left), b.weights, dense_rows(b.right))
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
                    equal_pairs += a is not b
        assert equal_pairs >= 20


class TestInverseRows:
    """``linalg.inverse_rows``, the one inverse, against the Gauss-Jordan
    ``reference_inverse`` over a seeded grid at n = 2-7: a monomial factor (a
    permutation times nonzero scales) is inverted by transposition with no
    elimination; dense, singular and monomial-shaped singular factors go
    through ``pivot_inverse``.  A singular matrix keeps its two texts: the
    pivot text from ``inverse_rows`` and the dense ``linalg.inverse``, the
    sequence text from a sequence with that factor."""

    @staticmethod
    def _grid():
        rng = random.Random(20261028)
        scales = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)]
        for n in range(2, 8):
            for _ in range(5):
                perm = rng.sample(range(n), n)
                values = [rng.choice(scales) for _ in range(n)]
                yield "monomial", [[values[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
                # Two rows in one column: shaped like a monomial, but singular.
                a, b = rng.sample(range(n), 2)
                cols = perm[:]
                cols[a] = cols[b]
                yield "shaped", [[values[i] if j == cols[i] else 0 for j in range(n)] for i in range(n)]
                yield "dense", [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                dense = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
                yield "singular", dense + [[a + b for a, b in zip(dense[0], dense[-1])]]

    def test_against_reference(self, monkeypatch):
        eliminations = []
        original = linalg.pivot_inverse

        def counted(vectors, pivots):
            eliminations.append(len(vectors))
            return original(vectors, pivots)

        monkeypatch.setattr(linalg, "pivot_inverse", counted)
        seen = {"monomial": 0, "shaped": 0, "dense": 0, "singular": 0}
        for kind, factor in self._grid():
            n = len(factor)
            expected = reference_inverse(factor)
            eliminations.clear()
            rows = tuple(tuple((j, Fraction(x)) for j, x in enumerate(row) if x) for row in factor)
            if expected is None:
                assert kind != "monomial", factor
                with pytest.raises(NotInvertible, match="^the pivot block is singular$"):
                    linalg.inverse_rows(rows)
            else:
                inv = linalg.inverse_rows(rows)
                assert _canonical_rows(inv, n) and _dense(inv, n) == expected, factor
            assert eliminations == ([] if kind == "monomial" else [n]), (kind, factor)
            seen[kind] += expected is not None
            if expected is None:
                with pytest.raises(NotInvertible, match="^the pivot block is singular$"):
                    linalg.inverse(linalg.frac_rows(factor))
                with pytest.raises(NotInvertible, match="^factored sequence requires invertible factors$"):
                    FactoredSequence.build(factor, [0] * n, linalg.identity(n))
            else:
                assert linalg.inverse(linalg.frac_rows(factor)) == expected
        assert seen["monomial"] == 30 and seen["shaped"] == 0 and seen["dense"] >= 10

    def test_sequences_of_permutations_invert_by_transposition(self, monkeypatch):
        monkeypatch.setattr(linalg, "pivot_inverse", None)  # any elimination would fail
        parse_sequence.cache_clear()  # parse afresh, not from an earlier test
        seq = parse_sequence("compose(perm((0 1 2 3 4)),diag(t,1,1,1,t))", 5)
        assert _dense(seq.left_inv, 5) == reference_inverse(dense_rows(seq.left))
        assert _dense(seq.right_inv, 5) == reference_inverse(dense_rows(seq.right))


def _weighted_calls(weight):
    """The three calls that take integer weights, each with ``weight`` as its first weight."""
    eye = linalg.identity(2)
    return (
        lambda: sigma_chain(2, 0, [weight, 0]),
        lambda: FactoredSequence.build(eye, [weight, 0], eye),
        lambda: FactoredSequence.diagonal([weight, 0]),
    )


class TestIntegerWeights:
    """Weights are integers: anything else is refused with ``NotExact``, a
    ``ProjlimError``, never truncated or read as a number."""

    def test_a_float_is_refused(self):
        for call in _weighted_calls(1.9):
            with pytest.raises(NotExact, match="weights must be integers, got 1.9"):
                call()

    def test_a_string_is_refused(self):
        for call in _weighted_calls("1"):
            with pytest.raises(NotExact, match="weights must be integers, got '1'"):
                call()

    def test_a_bool_is_refused(self):
        for call in _weighted_calls(True):
            with pytest.raises(NotExact, match="weights must be integers, got True"):
                call()


def _matrix_calls(entry):
    """The six calls that read a rational matrix through ``linalg.frac_rows``,
    each given ``entry`` as the (0, 0) entry of its matrix."""
    eye = linalg.identity(2)
    bad = [[entry, 0], [0, 1]]
    seq = FactoredSequence.diagonal([1, 0])
    so2 = build_po(((2, 0),)).structure_constants()
    return {
        "build": lambda: FactoredSequence.build(bad, [0, 1], eye),
        "premultiply": lambda: _premultiply(bad, seq),
        "rep-matrix": lambda: rep_matrix(FUNDAMENTAL, bad),
        "conjugate": lambda: seq.conjugate(bad),
        "lie-span": lambda: LieAlgebraSpan(2, [[[entry, 0], [0, -entry]]]),
        "verify-morphism": lambda: verify_morphism([[entry]], so2, so2),
    }


class TestExactMatrixEntries:
    """Matrix entries are exact: a float or a bool is refused with
    ``NotExact``, never read as its binary fraction or as 0 or 1."""

    @pytest.mark.parametrize("call", sorted(_matrix_calls(0)))
    def test_a_float_and_a_bool_are_refused(self, call):
        for entry in (0.5, True):
            with pytest.raises(NotExact, match=f"matrix entries must be exact, got {entry!r}"):
                _matrix_calls(entry)[call]()
