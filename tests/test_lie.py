"""Block algebras, conjugacy limits, contractions, and contraction chains."""

import random
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import linalg
from projlim import lie as lie_module
from projlim.cli import main as cli_main
from projlim.errors import (
    DecompositionError,
    DimError,
    NoMatch,
    NotClosed,
    NotSubalgebra,
    SignatureError,
)
from projlim.lie import (
    BracketTable,
    _echelon_by,
    _graded_frame,
    _spans_permuted_po,
    LieAlgebraSpan,
    build_po,
    conjugacy_limit,
    contract,
    embed_and_limit,
    enumerate_signatures,
    invariant_profile,
    match_limit_geometry,
    pad_span,
    sigma_chain,
    signature_str,
    truncated_exp,
    validate_signature,
    verify_morphism,
    z_and_nplus,
)
from projlim.geometry import geometry_limit
from projlim.parsing import parse_sequence
from projlim.projective import FactoredSequence, invert_permutation, permutation_matrix

from _reference import (
    reference_commutator,
    reference_inverse,
    reference_nullspace,
    reference_rank,
    reference_rref,
    reference_solve,
)


def _matrix(m, entries):
    out = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), c in entries.items():
        out[i][j] = Fraction(c)
    return out


def _flat(x):
    return [c for row in x for c in row]


def _flattened(span):
    return [_flat(x) for x in span.basis]


def _span_basis(span):
    """The canonical (RREF) basis of the flattened span, as dense rows."""
    zero = Fraction(0)
    return [[row.get(c, zero) for c in range(span.m * span.m)] for _, row in span._echelon.canonical()]


def _row_space_basis(rows):
    """Canonical (RREF) basis of the row space, by the Gauss-Jordan ``reference_rref``."""
    red, pivots = reference_rref(rows)
    return red[: len(pivots)]


def _dense_c(table):
    """The dense c[i][j][k] array of a BracketTable, as nested tuples."""
    n = table.dim
    zero = Fraction(0)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, coeffs in table.brackets():
        for k, x in coeffs.items():
            c[i][j][k] = x
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


# Basis of the rotation algebra in three variables and of its flat partners.
X1 = _matrix(3, {(0, 1): 1, (1, 0): -1})
X2 = _matrix(3, {(0, 2): -1, (2, 0): 1})
X3 = _matrix(3, {(1, 2): 1, (2, 1): -1})
Y1 = _matrix(3, {(1, 0): -1})
Y2 = _matrix(3, {(2, 0): 1})
Y3 = _matrix(3, {(2, 1): -1})


class TestSignatures:
    def test_flat_pair_is_single_block(self):
        assert validate_signature((4, 1)) == ((4, 1),)

    def test_bare_p_block(self):
        assert validate_signature(((1,), (3, 1))) == ((1, 0), (3, 1))

    def test_str_roundtrip(self):
        assert signature_str(((1, 0), (3, 1))) == "((1),(3,1))"
        assert signature_str(((4, 1),)) == "(4,1)"

    def test_empty_block_rejected(self):
        with pytest.raises(SignatureError):
            validate_signature(((0, 0),))

    def test_dimension_formula(self):
        # so(5)-type block: full antisymmetric algebra has dimension 10
        assert build_po(((4, 1),)).dim == 10
        # flat geometry: rotations+boosts (6) plus translations (4)
        assert build_po(((1, 0), (3, 1))).dim == 10
        assert build_po(((1, 0), (2, 0))).dim == 3

    def test_enumerate_signatures_m3(self):
        sigs = enumerate_signatures(3)
        assert ((3, 0),) in sigs and ((2, 1),) in sigs
        assert ((1, 0), (2, 0)) in sigs
        assert ((1, 0), (1, 0), (1, 0)) in sigs
        # canonical blocks always have p >= q
        assert all(p >= q for sig in sigs for (p, q) in sig)


class TestRotationContractionChain:
    def test_first_contraction_matches_flat_algebra(self):
        o3 = LieAlgebraSpan(3, [X1, X2, X3])
        table = contract(o3, (2,))
        flat = LieAlgebraSpan(3, [Y1, Y2, X3]).structure_constants()
        assert table == flat
        # [X1', X2'] = 0, [X1', X3'] = -X2', [X2', X3'] = X1'
        assert _dense_c(table)[0][1] == (0, 0, 0)
        assert _dense_c(table)[0][2] == (0, -1, 0)
        assert _dense_c(table)[1][2] == (1, 0, 0)

    def test_second_contraction_is_heisenberg(self):
        flat = LieAlgebraSpan(3, [Y1, Y2, X3])
        table = contract(flat, (0,))
        heis = LieAlgebraSpan(3, [Y1, Y2, Y3]).structure_constants()
        assert table == heis
        assert invariant_profile(table).center_dim == 1

    def test_third_contraction_is_abelian(self):
        heis = LieAlgebraSpan(3, [Y1, Y2, Y3]).structure_constants()
        assert contract(heis, (1,)).is_abelian()

    def test_contraction_needs_subalgebra(self):
        o3 = LieAlgebraSpan(3, [X1, X2, X3])
        with pytest.raises(NotSubalgebra):
            contract(o3, (0, 1))  # [X1, X2] = X3 does not stay in the span

    def test_profiles_separate_heisenberg_from_abelian(self):
        heis = LieAlgebraSpan(3, [Y1, Y2, Y3]).structure_constants()
        abelian = contract(heis, (1,))
        assert invariant_profile(heis) != invariant_profile(abelian)
        assert invariant_profile(abelian).is_abelian


class TestConjugacyLimits:
    def test_flat_to_galilei(self):
        limit = conjugacy_limit(build_po(((1, 0), (3, 1))), parse_sequence("diag(t,1,1,1,t)"))
        assert match_limit_geometry(limit) == (
            ((1, 0), (1, 0), (3, 0)),
            (0, 2, 3, 4, 1),
        )

    def test_positive_curvature_to_flat(self):
        limit = conjugacy_limit(
            build_po(((4, 1),)), parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
        )
        assert match_limit_geometry(limit) == (((1, 0), (3, 1)), (0, 1, 2, 3, 4))

    def test_negative_curvature_to_flat(self):
        limit = conjugacy_limit(
            build_po(((3, 2),)), parse_sequence("diag(t^-1,t^-1,t^-1,t^-1,t^4)")
        )
        assert match_limit_geometry(limit) == (((1, 0), (3, 1)), (1, 2, 3, 4, 0))

    def test_constant_sequence_is_isomorphism(self):
        alg = build_po(((2, 1),))
        seq = FactoredSequence.constant([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        limit = conjugacy_limit(alg, seq)
        assert limit.dim == alg.dim
        assert invariant_profile(limit) == invariant_profile(alg)

    def test_limit_dimension_never_drops(self):
        alg = build_po(((4, 1),))
        for text in ("diag(t,1,1,1,1)", "diag(t^2,t,1,t^-1,t^-2)"):
            assert conjugacy_limit(alg, parse_sequence(text)).dim == alg.dim

    def test_z_and_nplus_grading(self):
        alg = build_po(((4, 1),))
        seq = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
        z, nplus = z_and_nplus(alg, seq)
        # zero-weight stabilizer (6 rotations/boosts) + contracted translations (4)
        assert (z.dim, nplus.dim) == (6, 4)
        assert z.dim + nplus.dim == alg.dim
        from projlim.linalg import mat_mul

        for x in nplus.basis:
            sq = mat_mul(x, x)
            assert all(c == 0 for row in sq for c in row)

    @given(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_limits_of_m3_blocks_close_and_match(self, weights):
        for sig in (((3, 0),), ((2, 1),), ((1, 0), (2, 0))):
            limit = conjugacy_limit(build_po(sig), FactoredSequence.diagonal(weights))
            table = limit.structure_constants()
            assert table.is_antisymmetric() and table.satisfies_jacobi()
            match_limit_geometry(limit)  # must not raise


class TestMatchLimitGeometry:
    def test_undegenerated_m7_limit_is_read_off_quickly(self):
        limit = conjugacy_limit(build_po(((6, 1),)), FactoredSequence.diagonal([0] * 7))
        start = time.perf_counter()
        assert match_limit_geometry(limit) == (((6, 1),), (0, 1, 2, 3, 4, 5, 6))
        assert time.perf_counter() - start < 0.1

    def test_blocks_that_do_not_reach_each_other_raise(self):
        # so(2) + so(2) in pgl_4: two blocks, neither below the other.
        rotations = LieAlgebraSpan(
            4, [_matrix(4, {(0, 1): 1, (1, 0): -1}), _matrix(4, {(2, 3): 1, (3, 2): -1})]
        )
        with pytest.raises(NoMatch):
            match_limit_geometry(rotations)

    def test_uncoloured_pair_raises(self):
        limit = conjugacy_limit(
            build_po(((2, 1),)), parse_sequence("compose([[1,1,0],[0,1,0],[0,0,1]],diag(t,1,t^-1))")
        )
        with pytest.raises(NoMatch):
            match_limit_geometry(limit)


class TestSigmaChain:
    def test_rotation_chain(self):
        result = sigma_chain(3, 0, (0, -1, -2))
        assert result.splits == (1, 2)
        assert result.all_verified
        assert result.final_matches_limit
        assert result.final_table.is_abelian() is False  # two-step chain, not full flattening

    def test_full_flattening_chain(self):
        result = sigma_chain(2, 0, (0, -1))
        assert result.all_verified

    def test_morphism_checker_rejects_wrong_map(self):
        o3 = LieAlgebraSpan(3, [X1, X2, X3]).structure_constants()
        heis = LieAlgebraSpan(3, [Y1, Y2, Y3]).structure_constants()
        not_a_morphism = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert not verify_morphism(not_a_morphism, o3, heis)


class TestEmbedding:
    def test_limit_unchanged_in_larger_space(self):
        alg = build_po(((4, 1),))
        base = conjugacy_limit(alg, parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)"))
        for m_target in (6, 7):
            weights = [4, -1, -1, -1, -1] + [0] * (m_target - 5)
            big = embed_and_limit(alg, m_target, FactoredSequence.diagonal(weights))
            padded = LieAlgebraSpan(
                m_target,
                [
                    [
                        [x[i][j] if i < 5 and j < 5 else Fraction(0) for j in range(m_target)]
                        for i in range(m_target)
                    ]
                    for x in base.basis
                ],
                check_closed=False,
            )
            assert big.span_equals(padded)


class TestTruncatedExp:
    def test_nilpotent_exponential_is_exact(self):
        n = _matrix(3, {(0, 1): 1})
        h = truncated_exp(n, 3)
        assert h == [
            [Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]


class TestSpanChecks:
    def test_dependent_basis_raises(self):
        with pytest.raises(DimError):
            LieAlgebraSpan(3, [X1, X2, [[2 * c for c in row] for row in X1]])

    def test_dependent_after_trace_removal_raises(self):
        with pytest.raises(DimError):
            LieAlgebraSpan(3, [X1, linalg.identity(3)])

    def test_non_closed_span_raises(self):
        with pytest.raises(NotClosed):
            LieAlgebraSpan(3, [X1, X2])

    def test_contains(self):
        o3 = LieAlgebraSpan(3, [X1, X2, X3])
        assert o3.contains([[2 * a + b for a, b in zip(r1, r3)] for r1, r3 in zip(X1, X3)])
        assert o3.contains(linalg.identity(3))  # zero in pgl_3
        assert not o3.contains(Y1)
        assert not LieAlgebraSpan(3, []).contains(Y1)

    def test_structure_constants_of_unchecked_span_raise(self):
        span = LieAlgebraSpan(3, [X1, X2], check_closed=False)
        with pytest.raises(NotClosed):
            span.structure_constants()


# -- reference implementations: one nullspace per grade, one solve per bracket --


def _unflat(v, m):
    return [list(v[i * m : (i + 1) * m]) for i in range(m)]


def _subspace_with_zeros(vectors, positions):
    """Basis of the subspace of span(vectors) vanishing at the given positions."""
    if not vectors:
        return []
    if not positions:
        return [v[:] for v in vectors]
    constraint = [[v[p] for v in vectors] for p in positions]
    out = []
    n = len(vectors[0])
    for c in reference_nullspace(constraint):
        vec = [Fraction(0)] * n
        for coeff, v in zip(c, vectors):
            if coeff != 0:
                for i in range(n):
                    vec[i] += coeff * v[i]
        out.append(vec)
    return out


def _frame(alg, seq):
    m = alg.m
    right = seq.right_rows()
    rinv = reference_inverse(right)
    vectors = [_flat(linalg.mat_mul(linalg.mat_mul(right, x), rinv)) for x in alg.basis]
    w = seq.weights
    return vectors, [w[i] - w[j] for i in range(m) for j in range(m)]


def _back(seq, vecs, m):
    left = seq.left_rows()
    linv = reference_inverse(left)
    return [linalg.mat_mul(linalg.mat_mul(left, _unflat(v, m)), linv) for v in vecs]


def reference_conjugacy_limit(alg, seq):
    m = alg.m
    vectors, grade = _frame(alg, seq)
    limit_vecs = []
    for d in sorted(set(grade)):
        low = [p for p in range(m * m) if grade[p] < d]
        for v in _subspace_with_zeros(vectors, low):
            lead = [x if grade[p] == d else Fraction(0) for p, x in enumerate(v)]
            if any(x != 0 for x in lead):
                limit_vecs.append(lead)
    basis_vecs = _row_space_basis(limit_vecs)
    assert len(basis_vecs) == alg.dim
    return LieAlgebraSpan(m, _back(seq, basis_vecs, m))


def reference_z_and_nplus(alg, seq):
    m = alg.m
    vectors, grade = _frame(alg, seq)
    z_vecs = _subspace_with_zeros(vectors, [p for p in range(m * m) if grade[p] != 0])
    limit = reference_conjugacy_limit(alg, seq)
    left = seq.left_rows()
    linv = reference_inverse(left)
    limit_frame = [_flat(linalg.mat_mul(linalg.mat_mul(linv, x), left)) for x in limit.basis]
    nplus_vecs = _subspace_with_zeros(limit_frame, [p for p in range(m * m) if grade[p] >= 0])
    if len(z_vecs) + len(nplus_vecs) != limit.dim or reference_rank(z_vecs + nplus_vecs) != limit.dim:
        raise DecompositionError("centralizer + positive part do not span the conjugacy limit")
    return LieAlgebraSpan(m, _back(seq, z_vecs, m)), LieAlgebraSpan(m, _back(seq, nplus_vecs, m))


def reference_structure_constants(span):
    n = span.dim
    basis = span.basis
    basis_cols = linalg.transpose([_flat(x) for x in basis])
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords = reference_solve(basis_cols, _flat(reference_commutator(basis[i], basis[j])))
            assert coords is not None
            for k in range(n):
                c[i][j][k] = coords[k]
                c[j][i][k] = -coords[k]
    return BracketTable(c)


def _random_invertible(rng, m):
    while True:
        mat = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(m)]
        if reference_rank(linalg.frac_rows(mat)) == m:
            return mat


def _oracle_cases():
    rng = random.Random(20261018)
    for m, count in ((3, 10), (4, 8), (5, 6)):
        signatures = enumerate_signatures(m)
        for _ in range(count):
            sig = rng.choice(signatures)
            weights = [rng.randint(-3, 3) for _ in range(m)]
            seq = FactoredSequence.build(
                _random_invertible(rng, m), weights, _random_invertible(rng, m)
            )
            yield sig, seq
        # Diagonal sequences: the centralizer and the contracted part split
        # the limit, so z_and_nplus answers instead of raising.
        for _ in range(count):
            sig = rng.choice(signatures)
            yield sig, FactoredSequence.diagonal([rng.randint(-3, 3) for _ in range(m)])


class TestAgainstReference:
    def test_single_elimination_matches_per_grade_reference(self):
        split = 0
        for sig, seq in _oracle_cases():
            alg = build_po(sig)
            limit = conjugacy_limit(alg, seq)
            expected = reference_conjugacy_limit(alg, seq)
            assert limit.basis == expected.basis, (sig, seq)
            assert limit.structure_constants() == reference_structure_constants(limit)
            assert alg.structure_constants() == reference_structure_constants(alg)
            try:
                want = reference_z_and_nplus(alg, seq)
            except DecompositionError:
                with pytest.raises(DecompositionError):
                    z_and_nplus(alg, seq)
                continue
            got = z_and_nplus(alg, seq)
            assert got[0].span_equals(want[0]) and got[1].span_equals(want[1]), (sig, seq)
            split += 1
        assert split >= 10


# -- reference matcher: every signature against all m! permutations -----------


def reference_match_limit_geometry(limit):
    m = limit.m
    target = _span_basis(limit)
    target_support = {p for vec in target for p in range(m * m) if vec[p] != 0}
    for sig in enumerate_signatures(m):
        base_flat = _flattened(build_po(sig, m))
        base_support = {(p // m, p % m) for vec in base_flat for p in range(m * m) if vec[p] != 0}
        for perm in permutations(range(m)):
            inv = invert_permutation(perm)
            if {inv[i] * m + inv[j] for (i, j) in base_support} != target_support:
                continue
            mapped = []
            for vec in base_flat:
                new = [Fraction(0)] * (m * m)
                for i in range(m):
                    for j in range(m):
                        if vec[i * m + j] != 0:
                            new[inv[i] * m + inv[j]] = vec[i * m + j]
                mapped.append(new)
            if _row_space_basis(mapped) == target:
                return sig, tuple(perm)
    raise NoMatch("limit span is not a permuted orthogonal block algebra")


def _match_or_nomatch(match, limit):
    try:
        return match(limit)
    except NoMatch:
        return NoMatch


def _match_cases():
    """Limits of po(sig) at m = 2-6 along sequences with a permutation or a
    dense +-1 left factor, or with all weights zero (no degeneration)."""
    rng = random.Random(20261019)

    def shuffled(m):
        perm = list(range(m))
        rng.shuffle(perm)
        return permutation_matrix(tuple(perm))

    def dense(m):
        while True:
            mat = [[rng.choice((-1, 1)) for _ in range(m)] for _ in range(m)]
            if reference_rank(linalg.frac_rows(mat)) == m:
                return mat

    for m, count in ((2, 4), (3, 6), (4, 6), (5, 6), (6, 2)):
        signatures = enumerate_signatures(m)
        for left, weights in (
            (shuffled, lambda: [rng.randint(-2, 2) for _ in range(m)]),
            (dense, lambda: [rng.randint(-2, 2) for _ in range(m)]),
            (shuffled, lambda: [0] * m),
        ):
            for _ in range(count):
                sig = rng.choice(signatures)
                seq = FactoredSequence.build(left(m), weights(), shuffled(m))
                yield sig, conjugacy_limit(build_po(sig), seq)


class TestMatchAgainstReference:
    def test_reading_off_matches_brute_force(self):
        outcomes = []
        for sig, limit in _match_cases():
            got = _match_or_nomatch(match_limit_geometry, limit)
            assert got == _match_or_nomatch(reference_match_limit_geometry, limit), (sig, limit.basis)
            outcomes.append(got)
        assert outcomes.count(NoMatch) >= 10
        assert len(outcomes) - outcomes.count(NoMatch) >= 40


# -- reference dense routines: per-pair closure, n^3 tables and invariants -----


def _mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j] != 0), Fraction(0)) for row in a]


def reference_span_echelon(span):
    """The RREF rows and pivots of the flattened basis, by the Gauss-Jordan ``reference_rref``."""
    red, pivots = reference_rref(_flattened(span))
    return red[: len(pivots)], pivots


def reference_coordinates(echelon, pivots, v):
    coords = [v[p] for p in pivots]
    residual = v
    for y, row in zip(coords, echelon):
        if y:
            residual = [r - y * x if x else r for r, x in zip(residual, row)]
    return None if any(residual) else coords


def reference_is_closed(span):
    echelon, pivots = reference_span_echelon(span)
    basis = span.basis
    return all(
        reference_coordinates(echelon, pivots, _flat(reference_commutator(basis[i], basis[j])))
        is not None
        for i in range(span.dim)
        for j in range(i + 1, span.dim)
    )


def reference_echelon_structure_constants(span):
    """Dense c[i][j][k], through the echelon form and the pivot-block inverse."""
    n = span.dim
    echelon, pivots = reference_span_echelon(span)
    pivot_block = [[row[p] for p in pivots] for row in _flattened(span)]
    from_echelon = linalg.transpose(reference_inverse(pivot_block))
    basis = span.basis
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = _flat(reference_commutator(basis[i], basis[j]))
            echelon_coords = reference_coordinates(echelon, pivots, br)
            if echelon_coords is None:
                raise NotClosed(f"bracket of basis elements {i}, {j} leaves the span")
            coords = _mat_vec(from_echelon, echelon_coords)
            for k in range(n):
                c[i][j][k] = coords[k]
                c[j][i][k] = -coords[k]
    return c


def reference_bracket_coords(c, u, v):
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        if u[i] == 0:
            continue
        for j in range(n):
            if v[j] == 0:
                continue
            f = u[i] * v[j]
            for k in range(n):
                if c[i][j][k] != 0:
                    out[k] += f * c[i][j][k]
    return out


def _reference_product_space(c, a, b):
    prods = [reference_bracket_coords(c, u, v) for u in a for v in b]
    return _row_space_basis([p for p in prods if any(x != 0 for x in p)])


def reference_derived_series_dims(c):
    cur = linalg.identity(len(c))
    dims = [len(c)]
    while True:
        nxt = _reference_product_space(c, cur, cur)
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        cur = nxt
        if not nxt:
            break
    return tuple(dims)


def reference_lower_central_dims(c):
    full = linalg.identity(len(c))
    cur = full
    dims = [len(c)]
    while True:
        nxt = _reference_product_space(c, full, cur)
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        cur = nxt
        if not nxt:
            break
    return tuple(dims)


def reference_center_dim(c):
    n = len(c)
    constraints = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return len(reference_nullspace(constraints))


def reference_killing_matrix(c):
    n = len(c)
    k_mat = linalg.zeros(n, n)
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                for l in range(n):
                    if c[i][k][l] != 0 and c[j][l][k] != 0:
                        acc += c[i][k][l] * c[j][l][k]
            k_mat[i][j] = acc
    return k_mat


def reference_contract(c, t_indices):
    n = len(c)
    t_set = sorted(set(t_indices))
    in_t = [i in t_set for i in range(n)]
    for i in t_set:
        for j in t_set:
            if any(c[i][j][k] != 0 for k in range(n) if not in_t[k]):
                raise NotSubalgebra(
                    f"indices {t_set} do not span a subalgebra: [e_{i}, e_{j}] leaves the span"
                )
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (in_t[i] and in_t[j]) or (in_t[i] != in_t[j] and not in_t[k]):
                    out[i][j][k] = c[i][j][k]
    return out


def reference_is_antisymmetric(c):
    n = len(c)
    return all(c[i][j][k] == -c[j][i][k] for i in range(n) for j in range(n) for k in range(n))


def reference_verify_morphism(map_matrix, src_c, dst_c):
    n = len(src_c)
    mm = linalg.frac_rows(map_matrix)
    if reference_rank(mm) < n:
        return False
    cols = [[mm[r][i] for r in range(n)] for i in range(n)]
    return all(
        _mat_vec(mm, src_c[i][j]) == reference_bracket_coords(dst_c, cols[i], cols[j])
        for i in range(n)
        for j in range(n)
    )


def _raised(fn, *args):
    """fn(*args), or the type and text of the NotClosed or NotSubalgebra it raises."""
    try:
        return fn(*args)
    except (NotClosed, NotSubalgebra) as exc:
        return type(exc), str(exc)


def _table_cases():
    """Seeded tables at m = 3-6: limit spans along permuted and dense +-1
    sequences, sub-spans of those limits (closed or not), contractions of po
    tables along random index sets (subalgebras or not) and along none (an
    abelian table), and the step tables of sigma chains with their limits;
    plus random tables that are not antisymmetric."""
    rng = random.Random(20261020)
    for n in (2, 3, 3, 4, 4, 5):
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 2 * n)):
            c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1, 2))
        yield "random", c
    for m, count in ((3, 4), (4, 4), (5, 3), (6, 2)):
        signatures = enumerate_signatures(m)
        for k in range(count):
            sig = rng.choice(signatures)
            left = _random_invertible(rng, m) if k % 2 else permutation_matrix(tuple(rng.sample(range(m), m)))
            seq = FactoredSequence.build(left, [rng.randint(-2, 2) for _ in range(m)], _random_invertible(rng, m))
            limit = conjugacy_limit(build_po(sig), seq)
            yield "limit", limit
            part = rng.sample(limit.basis, rng.randint(2, min(4, limit.dim)))
            yield "sub-span", LieAlgebraSpan(m, part, check_closed=False)
            po = build_po(sig)
            yield "contraction", (po, ())
            for _ in range(2):
                yield "contraction", (po, tuple(rng.sample(range(po.dim), rng.randint(1, 3))))
    for m in (3, 4, 5, 6):
        q = rng.randint(0, m // 2)
        weights = sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)
        yield "chain", (m - q, q, weights)


def _dense(c):
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def _check_invariants(table):
    c = _dense_c(table)
    assert table.derived_series_dims() == reference_derived_series_dims(c)
    assert table.lower_central_dims() == reference_lower_central_dims(c)
    assert table.center_dim() == reference_center_dim(c)
    assert table.killing_matrix() == reference_killing_matrix(c)
    assert table.is_abelian() == all(x == 0 for plane in c for row in plane for x in row)
    assert table.is_antisymmetric() == reference_is_antisymmetric(c)


def _check_morphisms(rng, src, dst):
    n = src.dim
    identity = linalg.identity(n)
    maps = [identity, [[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(n)] for _ in range(n)]]
    outcomes = []
    for mm in maps:
        got = verify_morphism(mm, src, dst)
        assert got == reference_verify_morphism(mm, _dense_c(src), _dense_c(dst))
        outcomes.append(got)
    return outcomes


class TestSparseAgainstDenseReference:
    def test_tables_invariants_contractions_and_morphisms(self):
        rng = random.Random(7)
        seen = {"not closed": 0, "not subalgebra": 0, "contraction": 0, "non-isomorphism": 0, "isomorphism": 0}
        for kind, case in _table_cases():
            if kind in ("limit", "sub-span"):
                span = case
                assert span.is_closed() == reference_is_closed(span)
                got = _raised(span.structure_constants)
                want = _raised(reference_echelon_structure_constants, span)
                if isinstance(want, tuple):
                    assert got == want
                    seen["not closed"] += 1
                    continue
                assert _dense(want) == _dense_c(got)
                assert got == BracketTable(want) and hash(got) == hash(BracketTable(want))
                _check_invariants(got)
                for ok in _check_morphisms(rng, got, got):
                    seen["isomorphism" if ok else "non-isomorphism"] += 1
            elif kind == "contraction":
                po, indices = case
                table = po.structure_constants()
                got = _raised(contract, table, indices)
                want = _raised(reference_contract, _dense_c(table), indices)
                if isinstance(want, tuple):
                    assert got == want
                    seen["not subalgebra"] += 1
                    continue
                assert _dense_c(got) == _dense(want) and got == BracketTable(want)
                _check_invariants(got)
                for ok in _check_morphisms(rng, got, table):
                    seen["isomorphism" if ok else "non-isomorphism"] += 1
                seen["contraction"] += 1
            elif kind == "random":
                table = BracketTable(case)
                assert _dense_c(table) == _dense(case)
                _check_invariants(table)
            else:
                p, q, weights = case
                result = sigma_chain(p, q, weights)
                assert result.all_verified
                po = build_po(((p, q),))
                composite = [0] * (p + q)
                for step in result.steps:
                    composite = [w - (i >= step.split) for i, w in enumerate(composite)]
                    limit = conjugacy_limit(po, FactoredSequence.diagonal(composite))
                    limit_c = reference_echelon_structure_constants(limit)
                    assert reference_verify_morphism(step.morphism, _dense_c(step.table), limit_c) == step.verified
                    _check_invariants(step.table)
        assert seen["not closed"] >= 3 and seen["not subalgebra"] >= 3, seen
        assert seen["contraction"] >= 5 and seen["non-isomorphism"] >= 5 and seen["isomorphism"] >= 5, seen


class TestOneBracketPassPerSpan:
    """A limit request forms each basis commutator of its limit exactly once:
    the closure check builds the table that the invariants then read."""

    @pytest.fixture
    def bracket_calls(self, monkeypatch):
        calls = []
        original = lie_module._sparse_bracket

        def counted(a, b, m):
            calls.append((id(a), id(b)))
            return original(a, b, m)

        monkeypatch.setattr(lie_module, "_sparse_bracket", counted)
        return calls

    def test_geometry_limit_then_invariants(self, bracket_calls):
        deg = geometry_limit(((5, 1),), parse_sequence("diag(t,t^2,1,1,t^-1,1)", 6))
        invariant_profile(deg.limit)
        rows = deg.limit._nonzero_basis
        n = deg.limit.dim
        assert sorted(bracket_calls) == sorted((id(rows[i]), id(rows[j])) for i in range(n) for j in range(i + 1, n))

    def test_cli_limit_at_m6(self, bracket_calls, capsys):
        assert cli_main(["limit", "--algebra", "po((3),(2,1))", "--seq", "compose(perm((0 5)),diag(t,1,t^2,1,t^-1,1))"]) == 0
        capsys.readouterr()
        assert len(bracket_calls) == len(set(bracket_calls)) == 15 * 14 // 2


# -- reference dense eliminations: graded echelon, limit basis, match check ----


def reference_echelon_by(vectors, key):
    """(key of the pivot column, row) pairs of the dense RREF with the columns
    in ascending ``key``, rows mapped back to the original columns."""
    order = sorted(range(len(key)), key=key.__getitem__)
    red, pivots = reference_rref([[v[p] for p in order] for v in vectors])
    out = []
    for row, c in zip(red, pivots):
        vec = [Fraction(0)] * len(key)
        for p, x in zip(order, row):
            vec[p] = x
        out.append((key[order[c]], vec))
    return out


def reference_limit_basis(vectors, grade):
    """The RREF basis of the initial parts of the grade-ordered echelon rows."""
    initial = [
        [x if grade[p] == d else Fraction(0) for p, x in enumerate(row)]
        for d, row in reference_echelon_by(vectors, grade)
    ]
    return _row_space_basis(initial)


def reference_spans_permuted_po(limit, sig, perm):
    """Whether the RREF of the permuted po(sig) basis equals the limit's."""
    m = limit.m
    mapped = [[vec[perm[k] * m + perm[l]] for k in range(m) for l in range(m)] for vec in _flattened(build_po(sig, m))]
    return _row_space_basis(mapped) == reference_span_echelon(limit)[0]


def _densify(v, size):
    out = [Fraction(0)] * size
    for p, x in v.items():
        out[p] = x
    return out


def _limit_grid():
    """Seeded limits of po(sig) at m = 3-6 along sequences whose factors are
    permutations or dense +-1 matrices."""
    rng = random.Random(20261021)
    for m, count in ((3, 8), (4, 8), (5, 6), (6, 4)):
        signatures = enumerate_signatures(m)
        for k in range(count):
            factors = [
                _random_invertible(rng, m) if (k >> bit) % 2 else permutation_matrix(tuple(rng.sample(range(m), m)))
                for bit in (0, 1)
            ]
            yield rng.choice(signatures), FactoredSequence.build(factors[0], [rng.randint(-3, 3) for _ in range(m)], factors[1])


class TestSparseEchelonAgainstDense:
    def test_graded_echelon_limit_basis_and_span_echelon(self):
        for sig, seq in _limit_grid():
            alg = build_po(sig)
            m = alg.m
            vectors, grade = _graded_frame(alg, seq)
            dense_vectors, dense_grade = _frame(alg, seq)
            assert [_densify(v, m * m) for v in vectors] == dense_vectors and grade == dense_grade
            for key in (grade, [g == 0 for g in grade], [g < 0 for g in grade]):
                got = [(d, _densify(row, m * m)) for d, row in _echelon_by(vectors, key)]
                assert got == reference_echelon_by(dense_vectors, key), (sig, seq)
            limit = conjugacy_limit(alg, seq)
            assert limit.basis == _back(seq, reference_limit_basis(dense_vectors, grade), m), (sig, seq)
            echelon, pivots = reference_span_echelon(limit)
            assert _span_basis(limit) == echelon
            assert [p for p, _ in limit._echelon.canonical()] == pivots

    def test_match_confirmation(self):
        rng = random.Random(5)
        outcomes = []
        limits = [conjugacy_limit(build_po(sig), seq) for sig, seq in _limit_grid()]
        for limit in limits + [limit for _, limit in _match_cases()]:
            m = limit.m
            candidates = [(rng.choice(enumerate_signatures(m)), tuple(rng.sample(range(m), m)))]
            try:
                limit_sig, perm = match_limit_geometry(limit)
                shuffled = list(perm)
                rng.shuffle(shuffled)
                candidates += [(limit_sig, perm), (limit_sig, tuple(shuffled))]
            except NoMatch:
                pass
            spans = [limit]
            if len(candidates) > 1:
                # The matched basis inside a larger span: equal containment, unequal span.
                diagonal = _matrix(m, {(0, 0): 1, (1, 1): -1})
                if not limit.contains(diagonal):
                    spans.append(LieAlgebraSpan(m, limit.basis + [diagonal], check_closed=False))
            for span in spans:
                for cand_sig, cand_perm in candidates:
                    got = _spans_permuted_po(span, cand_sig, cand_perm)
                    assert got == reference_spans_permuted_po(span, cand_sig, cand_perm), (span.basis, cand_sig, cand_perm)
                    outcomes.append(got)
        assert outcomes.count(True) >= 30 and outcomes.count(False) >= 60, outcomes


# -- reference Jacobi check: two dense bracket_coords per cyclic term ----------


def reference_satisfies_jacobi(c):
    n = len(c)
    basis = [[Fraction(1 if s == i else 0) for s in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for a, b, c_ in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = reference_bracket_coords(c, basis[b], basis[c_])
                    term = reference_bracket_coords(c, basis[a], inner)
                    for s in range(n):
                        total[s] += term[s]
                if any(x != 0 for x in total):
                    return False
    return True


def _jacobi_cases():
    """Seeded tables: po(sig) at m = 3-5, their contractions, the same tables
    with one antisymmetric pair of entries changed, and random tables that
    are not antisymmetric."""
    rng = random.Random(20261022)
    for m in (3, 4, 5):
        for sig in rng.sample(enumerate_signatures(m), 3):
            table = build_po(sig).structure_constants()
            yield table
            try:
                yield contract(table, rng.sample(range(table.dim), rng.randint(1, 3)))
            except NotSubalgebra:
                pass
            for _ in range(2):
                c = [[list(row) for row in plane] for plane in _dense_c(table)]
                i, j = rng.sample(range(table.dim), 2)
                k = rng.randrange(table.dim)
                delta = rng.choice((1, -1, 2))
                c[i][j][k] += delta
                c[j][i][k] -= delta
                yield BracketTable(c)
    for n in (3, 4, 4, 5, 5, 6):
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 2 * n)):
            c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1, 2))
        yield BracketTable(c)


class TestSparseJacobi:
    def test_against_dense_reference(self):
        verdicts = []
        for table in _jacobi_cases():
            got = table.satisfies_jacobi()
            assert got == reference_satisfies_jacobi(_dense_c(table))
            verdicts.append(got)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10, verdicts


class TestNoDenseEliminationInLie:
    """A limit request at m = 6 runs no dense RREF from the Lie core or from
    linalg.inverse; the only ones left are the rank tests of the parsed
    sequence's factors."""

    def test_geometry_limit_then_invariants(self, monkeypatch):
        callers = []
        original = linalg.rref

        def counted(rows):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return original(rows)

        monkeypatch.setattr(linalg, "rref", counted)
        deg = geometry_limit(((3, 1), (2, 0)), parse_sequence("compose(perm((0 5)),diag(t,1,t^2,1,t^-1,1))", 6))
        invariant_profile(deg.limit)
        assert set(callers) == {("projlim.linalg", "rank")}, callers

    def test_spans_are_built_without_dense_matrices(self, monkeypatch):
        """The spans the Lie core builds make no dense copy: no Fraction copy
        of a matrix, no trace removal and no dense basis matrix."""
        seq = parse_sequence("compose(perm((0 5)),diag(t,1,t^2,1,t^-1,1))", 6)
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        monkeypatch.setattr(linalg, "frac_rows", counted("frac_rows", linalg.frac_rows))
        monkeypatch.setattr(lie_module, "_matrix", counted("_matrix", lie_module._matrix))
        monkeypatch.setattr(LieAlgebraSpan, "_trace_free", counted("_trace_free", LieAlgebraSpan._trace_free))
        deg = geometry_limit(((3, 1), (2, 0)), seq)
        invariant_profile(deg.limit)
        assert deg.limit.dim == 15
        assert calls == []


# -- sparse construction against the dense constructor ------------------------


def reference_po_basis(sig):
    """The dense po(sig) basis in the order of ``build_po``."""
    block = [k for k, (p, q) in enumerate(sig) for _ in range(p + q)]
    jdiag = [j for p, q in sig for j in [-1] * p + [1] * q]
    m = len(block)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m) if block[a] == block[b]]
    units = [(r, c) for r in range(m) for c in range(m) if block[r] > block[c]]
    return [_matrix(m, {(a, b): 1, (b, a): -jdiag[a] * jdiag[b]}) for a, b in pairs] + [
        _matrix(m, {(r, c): 1}) for r, c in units
    ]


def _row_view(span):
    """The nonzero (column, value) entries of every row of every basis
    matrix, each row in ascending column."""
    return [[sorted(row) for row in rows] for rows in span._nonzero_basis]


def _same_span_data(span, dense):
    return (
        span.m == dense.m
        and span._flat == dense._flat
        and span.basis == dense.basis
        and _row_view(span) == _row_view(dense)
        and span._echelon.rows == dense._echelon.rows
    )


class TestSparseSpanConstruction:
    def test_build_po_equals_dense_construction(self):
        for m in range(1, 8):
            for sig in enumerate_signatures(m):
                basis = reference_po_basis(sig)
                span = build_po(sig)
                assert _same_span_data(span, LieAlgebraSpan(m, basis, check_closed=False)), sig
                assert span.basis == basis, sig

    def test_built_spans_pass_the_dense_constructor_unchanged(self):
        """Limits, their z and n_plus parts and their paddings are trace-free:
        the dense constructor, which removes traces, rebuilds each unchanged.
        Padding keeps every entry in place."""
        limits = splits = 0
        zero = Fraction(0)
        for sig, seq in list(_oracle_cases()) + list(_limit_grid()):
            alg = build_po(sig)
            limit = conjugacy_limit(alg, seq)
            m = limit.m
            spans = [limit]
            for extra in (1, 2):
                padded = pad_span(limit, m + extra)
                zero_rows = [[zero] * (m + extra) for _ in range(extra)]
                assert padded.basis == [[row + [zero] * extra for row in x] + zero_rows for x in limit.basis]
                spans.append(padded)
            try:
                spans += z_and_nplus(alg, seq)
                splits += 1
            except DecompositionError:
                pass
            for span in spans:
                assert _same_span_data(span, LieAlgebraSpan(span.m, span.basis, check_closed=False)), (sig, seq)
            limits += 1
        assert limits >= 50 and splits >= 10, (limits, splits)
