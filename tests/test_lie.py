"""Block algebras, conjugacy limits, contractions, and contraction chains."""

import dataclasses
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import linalg
from projlim import lie as lie_module
from projlim.cli import main as cli_main
from projlim.errors import (
    DimError,
    EmbeddingError,
    NoMatch,
    NotClosed,
    NotExact,
    NotFiltration,
    NotSubalgebra,
    SignatureError,
)
from projlim.lie import (
    BracketTable,
    _limit_in_frame,
    _spans_permuted_po,
    LieAlgebraSpan,
    build_po,
    conjugacy_limit,
    contract,
    embed_and_limit,
    enumerate_signatures,
    invariant_profile,
    iw_contract,
    match_limit_geometry,
    pad_span,
    sigma_chain,
    signature_str,
    truncated_exp,
    validate_signature,
    verify_morphism,
)
from projlim import geometry as geometry_module
from projlim.geometry import geometry_limit
from projlim.parsing import parse_sequence
from projlim.linalg import dense_rows
from projlim.projective import FactoredSequence, conjugate_flat, invert_permutation

from _reference import (
    _limit_morphism,
    permutation_matrix,
    random_scaled_permutation as _scaled_permutation,
    reference_commutator,
    reference_inverse,
    reference_nullspace,
    reference_rank,
    reference_rref,
    reference_solve,
    split_rule_contract,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    def test_target_below_the_ambient_is_refused(self):
        with pytest.raises(EmbeddingError, match="^target dimension 4 below ambient 5$"):
            embed_and_limit(build_po(((4, 1),)), 4, FactoredSequence.diagonal([1, 0, 0, 0]))

    def test_sequence_of_another_dimension_is_refused(self):
        with pytest.raises(DimError, match="^sequence dimension 5 != target 6$"):
            embed_and_limit(build_po(((4, 1),)), 6, FactoredSequence.diagonal([4, -1, -1, -1, -1]))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_factors_mixing_block_and_padding_are_refused(self, side):
        mixing = permutation_matrix((0, 1, 2, 3, 5, 4))  # swaps the last block index with the padding
        factors = {"left": linalg.identity(6), "right": linalg.identity(6), side: mixing}
        seq = FactoredSequence.build(factors["left"], [4, -1, -1, -1, -1, 0], factors["right"])
        with pytest.raises(EmbeddingError, match="^sequence factors mix embedded block with padding$"):
            embed_and_limit(build_po(((4, 1),)), 6, seq)


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
    right = dense_rows(seq.right)
    rinv = reference_inverse(right)
    vectors = [_flat(linalg.mat_mul(linalg.mat_mul(right, x), rinv)) for x in alg.basis]
    w = seq.weights
    return vectors, [w[i] - w[j] for i in range(m) for j in range(m)]


def _back(seq, vecs, m):
    left = dense_rows(seq.left)
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
        # Diagonal sequences: both factors the identity.
        for _ in range(count):
            sig = rng.choice(signatures)
            yield sig, FactoredSequence.diagonal([rng.randint(-3, 3) for _ in range(m)])


class TestAgainstReference:
    def test_single_elimination_matches_per_grade_reference(self):
        for sig, seq in _oracle_cases():
            alg = build_po(sig)
            limit = conjugacy_limit(alg, seq)
            expected = reference_conjugacy_limit(alg, seq)
            assert limit.basis == expected.basis, (sig, seq)
            assert limit.structure_constants() == reference_structure_constants(limit)
            assert alg.structure_constants() == reference_structure_constants(alg)


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
    plus random tables that are not antisymmetric.  Then the larger cases of
    ``_large_table_cases``."""
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
    yield from _large_table_cases()


def _large_table_cases():
    """Seeded cases at m = 7-8, where partner pairs skip most pairs: limits
    along permutation factors (and a dense +-1 right factor at m = 7), two
    sub-spans of each (a random one, and one that is not closed), each
    limit's table with one entry changed on one side only (not
    antisymmetric), and an m = 7 sigma chain with two splits."""
    rng = random.Random(20261023)
    for m, dense_right in ((7, True), (7, False), (8, False)):
        sig = rng.choice(enumerate_signatures(m))
        left = permutation_matrix(tuple(rng.sample(range(m), m)))
        right = _random_invertible(rng, m) if dense_right else permutation_matrix(tuple(rng.sample(range(m), m)))
        seq = FactoredSequence.build(left, [rng.randint(-3, 3) for _ in range(m)], right)
        limit = conjugacy_limit(build_po(sig), seq)
        yield "limit", limit
        basis = limit.basis
        yield "sub-span", LieAlgebraSpan(m, rng.sample(basis, rng.randint(2, 4)), check_closed=False)
        # Two basis elements whose bracket has a part outside their span.
        table = limit.structure_constants()
        i, j = next((i, j) for i, j, coeffs in table.brackets() if set(coeffs) - {i, j})
        yield "sub-span", LieAlgebraSpan(m, [basis[i], basis[j]], check_closed=False)
        c = [[list(row) for row in plane] for plane in _dense_c(table)]
        i, j, k = (rng.randrange(limit.dim) for _ in range(3))
        c[i][j][k] += rng.choice((1, -1, 2))
        yield "random", c
    q = rng.randint(0, 3)
    cuts = sorted(rng.sample(range(1, 7), 2))
    yield "chain", (7 - q, q, [3] * cuts[0] + [0] * (cuts[1] - cuts[0]) + [-2] * (7 - cuts[1]))


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
                # Both directions: the contraction's brackets are among the
                # original's, so only the source table shows the rest.
                for ok in _check_morphisms(rng, got, table) + _check_morphisms(rng, table, got):
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
                for step, images in zip(result.steps, _step_images(po, result.steps)):
                    composite = [w - (i >= step.split) for i, w in enumerate(composite)]
                    limit = conjugacy_limit(po, FactoredSequence.diagonal(composite))
                    limit_c = reference_echelon_structure_constants(limit)
                    # sigma_l, e_a -> images[a], in the limit's basis.
                    morphism = _limit_morphism(images, step.table, limit)[0]
                    assert reference_verify_morphism(morphism, _dense_c(step.table), limit_c) == step.verified
                    _check_invariants(step.table)
        assert seen["not closed"] >= 3 and seen["not subalgebra"] >= 3, seen
        assert seen["contraction"] >= 5 and seen["non-isomorphism"] >= 5 and seen["isomorphism"] >= 5, seen

    def test_limit_morphism_against_reference(self):
        """The direct image check of sigma chains against the dense
        ``verify_morphism`` oracle on the limit's own table: the identity, a
        relabelling of the basis with the relabelled table, a mixing of the
        images, a table that is not antisymmetric, a table with a bracket
        between commuting images, and an image outside the limit."""
        rng = random.Random(11)
        verdicts = []
        for sig, seq in list(_limit_grid())[::3]:
            limit = conjugacy_limit(build_po(sig), seq)
            m, n, flat = limit.m, limit.dim, limit._flat
            table_c = reference_echelon_structure_constants(limit)
            perm = rng.sample(range(n), n)
            relabelled = [[[table_c[perm[i]][perm[j]][perm[k]] for k in range(n)] for j in range(n)] for i in range(n)]
            mix = [[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(n)] for _ in range(n)]
            mixed = []
            for i in range(n):
                img = {}
                for r in range(n):
                    for p, x in flat[r].items():
                        img[p] = img.get(p, 0) + mix[r][i] * x
                mixed.append({p: x for p, x in img.items() if x})
            perturbed = [[list(row) for row in plane] for plane in table_c]
            perturbed[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += 1
            # An antisymmetric table with a nonzero bracket of two basis
            # elements whose images commute: only the table shows the pair.
            commuting = sorted(set(combinations(range(n), 2)) - _support_partners(limit))
            if commuting:
                i, j = rng.choice(commuting)
                k = rng.randrange(n)
                extra = [[list(row) for row in plane] for plane in table_c]
                extra[i][j][k] += 1
                extra[j][i][k] -= 1
            relabelling = [[Fraction(int(r == perm[i])) for i in range(n)] for r in range(n)]
            cases = [
                (flat, table_c, linalg.identity(n)),
                ([flat[p] for p in perm], relabelled, relabelling),
                (mixed, table_c, mix),
                (flat, perturbed, linalg.identity(n)),
            ]
            if commuting:
                cases.append((flat, extra, linalg.identity(n)))
            diagonal = {0: Fraction(1), m + 1: Fraction(-1)}  # E_00 - E_11
            if limit._echelon.coordinates(diagonal) is None:
                outside = [diagonal] + flat[1:]
                zero_column = [[Fraction(0)] + row[1:] for row in linalg.identity(n)]
                cases.append((outside, table_c, zero_column))
            for images, source_c, want_map in cases:
                morphism, ok = _limit_morphism(images, BracketTable(source_c), limit)
                assert morphism == want_map
                assert ok == reference_verify_morphism(morphism, source_c, table_c), (sig, seq)
                verdicts.append(ok)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 15, verdicts


def _support_partners(span):
    """The pairs i < j of basis matrices where a column of one meets a row of
    the other, read off the dense basis: the only pairs whose commutator can
    be nonzero."""
    m, basis = span.m, span.basis
    cols = [{c for r in range(m) for c in range(m) if x[r][c]} for x in basis]
    rows = [{r for r in range(m) for c in range(m) if x[r][c]} for x in basis]
    return {
        (i, j)
        for i in range(span.dim)
        for j in range(i + 1, span.dim)
        if cols[i] & rows[j] or cols[j] & rows[i]
    }


class TestOneBracketPassPerSpan:
    """A limit request forms no commutator at all: the match proves the
    limit closed, and its invariants are those of po(limit_sig), read off
    limit_sig with no table built.  They equal the profile of po(limit_sig)'s
    table, which brackets each partner pair of po(limit_sig)'s basis exactly
    once, and no other (every other pair brackets to zero)."""

    @pytest.fixture
    def bracket_calls(self, monkeypatch):
        calls = []
        original = lie_module._sparse_bracket

        def counted(a, b, m):
            calls.append((id(a), id(b)))
            return original(a, b, m)

        monkeypatch.setattr(lie_module, "_sparse_bracket", counted)
        return calls

    @staticmethod
    def _table_route(sig, bracket_calls):
        """The profile of po(sig) read off its table, built afresh, after
        checking that the table brackets each partner pair once."""
        base = lie_module._po.__wrapped__(sig)
        bracket_calls.clear()
        table = base.structure_constants()
        index = {id(rows): k for k, rows in enumerate(base._nonzero_basis)}
        pairs = [(index[a], index[b]) for a, b in bracket_calls]
        n = base.dim
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == _support_partners(base) and len(pairs) < n * (n - 1) // 2
        return lie_module._table_profile(table)

    def test_geometry_limit_then_invariants(self, bracket_calls):
        """Neither ``geometry_limit`` nor the invariants form a commutator,
        nor build a table of po(limit_sig); the profile is the table's."""
        lie_module._po.cache_clear()
        geometry_module._degeneration.cache_clear()
        deg = geometry_limit(((5, 1),), parse_sequence("diag(t,t^2,1,1,t^-1,1)", 6))
        profile = invariant_profile(deg.limit)
        assert bracket_calls == []
        assert deg.limit._table is None and build_po(deg.limit_sig)._table is None
        assert invariant_profile(deg.limit) == profile and bracket_calls == []
        assert profile == self._table_route(deg.limit_sig, bracket_calls)

    def test_cli_limit_at_m6(self, bracket_calls, capsys):
        lie_module._po.cache_clear()
        geometry_module._degeneration.cache_clear()
        seq = "compose(perm((0 5)),diag(t,1,t^2,1,t^-1,1))"
        argv = ["limit", "--algebra", "po((3),(2,1))", "--seq", seq, "--format", "json"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert bracket_calls == []
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first and bracket_calls == []
        deg = geometry_limit(((3, 0), (2, 1)), parse_sequence(seq, 6))
        assert deg.limit.dim == 15
        payload = json.loads(first)
        assert payload["invariants"] == self._table_route(deg.limit_sig, bracket_calls).as_dict()


class TestWorkBound:
    """Call counts of the Lie core for fixed inputs, so that a return to
    all-pairs products fails on any host: an m = 7 limit with its match and
    invariants, and an m = 6 sigma chain.  No factor is inverted or ranked
    densely along either.  The shared po(sig) spans are built afresh, so a
    table that an earlier test filled in is counted again."""

    @staticmethod
    def _count(monkeypatch, counts, owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    @pytest.fixture
    def calls(self, monkeypatch):
        lie_module._po.cache_clear()
        counts = {}
        for owner, name in (
            (lie_module, "_sparse_bracket"),
            (BracketTable, "_bracket"),
            (BracketTable, "_ad"),
            (linalg, "inverse"),
            (linalg, "rank"),
        ):
            self._count(monkeypatch, counts, owner, name)
        return counts

    def test_m7_limit_match_and_invariants(self, calls):
        left, right = permutation_matrix((3, 0, 6, 1, 5, 2, 4)), permutation_matrix((1, 4, 0, 6, 2, 5, 3))
        seq = FactoredSequence.build(left, [2, -1, 0, 3, -3, 1, 0], right)
        limit = conjugacy_limit(build_po(((3, 1), (2, 0), (1, 0))), seq)
        match_limit_geometry(limit)
        invariant_profile(limit)
        # All pairs: 210 commutators, 164 table brackets and 1130 ad calls.
        # The match proves the limit closed and the invariants are read off
        # its signature: no commutator, no table product, no inverse, no rank.
        assert calls == {}

    def test_m6_sigma_chain(self, calls):
        result = sigma_chain(4, 2, [2, 2, 0, 0, 0, -1])
        assert result.all_verified
        # All pairs: 420 commutators, 675 table brackets and 675 ad calls,
        # 6 inverses and 3 ranks.  The 60 commutators are the partner pairs
        # of po((4,2))'s basis, which build its own table; the step checks
        # filter that table (iw_contract) and bracket nothing, and the step
        # limits are matched, so none builds a table of its own.
        po = build_po(((4, 2),))
        assert calls == {"_sparse_bracket": 60} == {"_sparse_bracket": len(_support_partners(po))}
        calls.clear()
        assert sigma_chain(4, 2, [2, 2, 0, 0, 0, -1]) == result
        assert calls == {}

    def test_sigma_chain_step_checks_read_no_coordinates(self, calls, monkeypatch):
        """A step check compares one echelon of its images with the limit's
        RREF rows.  Once po's own table is built, a chain reads no coordinates
        in a basis (``LieAlgebraSpan._coordinates``), inverts no basis
        (``linalg.pivot_inverse``), forms no product, and takes one
        conjugacy limit per split (one with no split)."""
        for owner, name in (
            (LieAlgebraSpan, "_coordinates"),
            (linalg, "pivot_inverse"),
            (lie_module, "conjugacy_limit"),
        ):
            self._count(monkeypatch, calls, owner, name)
        rng = random.Random(20261051)
        chains = [(4, 2, [2, 2, 0, 0, 0, -1]), (3, 0, [0, 0, 0])]
        for _ in range(8):
            m = rng.randint(2, 7)
            q = rng.randint(0, m // 2)
            chains.append((m - q, q, sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)))
        for p, q, weights in chains:
            build_po(((p, q),)).structure_constants()
            calls.clear()
            result = sigma_chain(p, q, weights)
            assert result.all_verified
            assert calls == {"conjugacy_limit": max(len(result.splits), 1)}, (p, q, weights)


class TestConjugationWork:
    """The one conjugation, ``projective.conjugate_flat``, forms products only
    for a factor that is not a permutation."""

    @pytest.fixture
    def conjugations(self, monkeypatch):
        calls = []  # (factor, Fraction products formed)
        original = lie_module.conjugate_flat
        fraction_mul = Fraction.__mul__

        def spy(g, ginv, vectors, m):
            products = 0

            def counted(a, b):
                nonlocal products
                products += 1
                return fraction_mul(a, b)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Fraction, "__mul__", counted)
                out = original(g, ginv, vectors, m)
            calls.append((g, products))
            return out

        monkeypatch.setattr(lie_module, "conjugate_flat", spy)
        return calls

    def test_sigma_chain_forms_no_conjugation_product(self, conjugations):
        assert sigma_chain(4, 2, [2, 2, 0, 0, 0, -1]).all_verified
        # The two steps each take a limit along a diagonal sequence, the
        # last one along the weights, so no final limit is taken: Ad_R and
        # Ad_L by identity factors, no product formed.
        assert len(conjugations) == 4
        assert all(products == 0 for _, products in conjugations)

    def test_a_permutation_limit_forms_no_product_and_no_elimination(self, conjugations, monkeypatch):
        left, right = permutation_matrix((2, 0, 4, 1, 3)), permutation_matrix((1, 3, 0, 4, 2))
        seq = FactoredSequence.build(left, [2, -1, 0, 3, -1], right)
        alg = build_po(((2, 1), (2, 0)))
        inserts = []
        insert = linalg.Echelon.insert
        monkeypatch.setattr(linalg.Echelon, "insert", lambda self, v: inserts.append(v) or insert(self, v))
        _limit_in_frame(alg, seq)
        assert inserts == []
        limit = conjugacy_limit(alg, seq)
        # Ad_R in the frame limit above, then Ad_R and Ad_L in
        # conjugacy_limit: a permutation only relabels.
        assert len(conjugations) == 3
        assert all(products == 0 for _, products in conjugations)
        assert match_limit_geometry(limit)

    def test_monomial_factors_run_no_elimination_and_dense_ones_do(self, monkeypatch):
        rng = random.Random(20261034)
        weights = [2, -1, 0, 3, -1]
        scaled = _scaled_permutation(rng, 5, (1, -1, 2, Fraction(1, 2)))
        rights = (scaled, linalg.identity(5), permutation_matrix((4, 3, 2, 1, 0)), _random_invertible(rng, 5))
        sequences = [FactoredSequence.build(_random_invertible(rng, 5), weights, right) for right in rights]
        alg = build_po(((3, 2),))
        inserts, batches = [], []
        insert, extend = linalg.Echelon.insert, linalg.Echelon.extend

        def recorded_extend(self, vectors):
            batches.append(list(vectors))
            return extend(self, batches[-1])

        monkeypatch.setattr(linalg.Echelon, "insert", lambda self, v: inserts.append(v) or insert(self, v))
        monkeypatch.setattr(linalg.Echelon, "extend", recorded_extend)
        for seq in sequences[:3]:
            _limit_in_frame(alg, seq)
            assert inserts == [], seq
        # A dense right factor overlaps the supports: the graded echelon
        # inserts every vector.  The initial parts of its rows, the second
        # batch, have disjoint supports, so they are inserted not at all.
        batches.clear()
        _limit_in_frame(alg, sequences[3])
        assert len(inserts) == alg.dim
        parts = batches[1]
        assert len(parts) == alg.dim and sum(map(len, parts)) == len(set().union(*parts))

    def test_block_algebras_monomial_limits_and_chains_insert_nothing(self, monkeypatch):
        """Every batch met on these paths has disjoint supports, so
        ``Echelon.extend`` makes every echelon without one ``insert``."""
        inserts = []
        insert = linalg.Echelon.insert
        monkeypatch.setattr(linalg.Echelon, "insert", lambda self, v: inserts.append(v) or insert(self, v))
        lie_module._po.cache_clear()
        try:
            alg = build_po(((2, 1), (3, 0)))
            assert alg.dim == 3 + 3 + 9 and inserts == []
            rng = random.Random(20261045)
            values = (1, -1, 2, Fraction(1, 3))
            factors = (
                (permutation_matrix(tuple(rng.sample(range(6), 6))), permutation_matrix(tuple(rng.sample(range(6), 6)))),
                (_scaled_permutation(rng, 6, values), _scaled_permutation(rng, 6, values)),
            )
            for left, right in factors:
                limit = conjugacy_limit(alg, FactoredSequence.build(left, [3, -1, 0, 2, -2, 1], right))
                assert invariant_profile(limit).dim == alg.dim
                assert inserts == []
            assert sigma_chain(3, 2, [2, 1, 1, 0, -1]).all_verified
            assert inserts == []
        finally:
            lie_module._po.cache_clear()


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


def _limit_grid(seed=20261021, counts=((3, 8), (4, 8), (5, 6), (6, 4))):
    """Seeded limits of po(sig) at m = 3-6 along sequences whose factors are
    permutations or dense +-1 matrices."""
    rng = random.Random(seed)
    for m, count in counts:
        signatures = enumerate_signatures(m)
        for k in range(count):
            factors = [
                _random_invertible(rng, m) if (k >> bit) % 2 else permutation_matrix(tuple(rng.sample(range(m), m)))
                for bit in (0, 1)
            ]
            yield rng.choice(signatures), FactoredSequence.build(factors[0], [rng.randint(-3, 3) for _ in range(m)], factors[1])


_MONOMIAL_VALUES = ((1,), (1, -1), (1, -1, 2, Fraction(1, 2), -3))  # permutation, signed, scaled


def _monomial_grid(seed=20261034):
    """Seeded (alg, seq) at m = 2-8: po(sig) along sequences whose factors are
    both permutations, signed or scaled permutations; along diagonal
    sequences; with one dense +-1 factor and one monomial; and, from m = 3,
    po(sig) of a smaller m with the padding of ``embed_and_limit`` along a
    block-diagonal monomial sequence."""
    rng = random.Random(seed)
    for m in range(2, 9):
        def weights(n=m):
            return [rng.randint(-3, 3) for _ in range(n)]

        def po(n=m):
            return build_po(rng.choice(enumerate_signatures(n)))

        for values in _MONOMIAL_VALUES:
            yield po(), FactoredSequence.build(_scaled_permutation(rng, m, values), weights(), _scaled_permutation(rng, m, values))
        yield po(), FactoredSequence.diagonal(weights())
        yield po(), FactoredSequence.build(_random_invertible(rng, m), weights(), _scaled_permutation(rng, m, _MONOMIAL_VALUES[2]))
        yield po(), FactoredSequence.build(_scaled_permutation(rng, m, _MONOMIAL_VALUES[1]), weights(), _random_invertible(rng, m))
        if m >= 3:
            small = rng.randint(2, m - 1)
            factors = []
            for _ in range(2):
                values = rng.choice(_MONOMIAL_VALUES)
                top, bottom = _scaled_permutation(rng, small, values), _scaled_permutation(rng, m - small, values)
                factors.append([row + [Fraction(0)] * (m - small) for row in top] + [[Fraction(0)] * small + row for row in bottom])
            yield po(small), FactoredSequence.build(factors[0], weights(), factors[1])


class TestMonomialLimitsAgainstDense:
    def test_frame_limit_basis_and_match(self):
        """For every case of ``_monomial_grid``: the frame limit equals the
        dense ``reference_limit_basis``, and the limit's basis and match
        equal those of the span built from that reference basis."""
        disjoint = matched = cases = 0
        for base, seq in _monomial_grid():
            m = seq.dim
            alg = pad_span(base, m)
            vectors, grade, frame_limit = _limit_in_frame(alg, seq)
            dense_vectors, dense_grade = _frame(alg, seq)
            expected = reference_limit_basis(dense_vectors, grade)
            assert grade == dense_grade and [_densify(v, m * m) for v in frame_limit] == expected, (base, seq)
            limit = embed_and_limit(base, m, seq) if base.m < m else conjugacy_limit(base, seq)
            reference = LieAlgebraSpan(m, _back(seq, expected, m), check_closed=False)
            assert limit.basis == reference.basis, (base, seq)
            assert lie_module._stored_match(limit) == (lie_module._read_match(reference) or False), (base, seq)
            disjoint += sum(map(len, vectors)) == len(set().union(*vectors))
            matched += bool(lie_module._stored_match(limit))
            cases += 1
        # Every case but (most of) the dense right factors reads the limit off
        # disjoint supports.
        assert cases == 48 and disjoint >= 40 and matched >= 25, (cases, disjoint, matched)


class TestSparseEchelonAgainstDense:
    def test_graded_echelon_limit_basis_and_span_echelon(self):
        for sig, seq in _limit_grid():
            alg = build_po(sig)
            m = alg.m
            vectors, grade, frame_limit = _limit_in_frame(alg, seq)
            dense_vectors, dense_grade = _frame(alg, seq)
            assert [_densify(v, m * m) for v in vectors] == dense_vectors and grade == dense_grade
            assert [_densify(v, m * m) for v in frame_limit] == reference_limit_basis(dense_vectors, grade)
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
    """A limit request at m = 6 runs no dense RREF at all: not from the Lie
    core, not from linalg.inverse, and not for the rank of the sequence at
    its limit (``Degeneration.rank`` is read off the weights).  Nor does
    ``verify_morphism``, which eliminates its sparse columns."""

    def test_geometry_limit_then_invariants(self, monkeypatch):
        callers = []
        original = linalg.rref

        def counted(rows):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return original(rows)

        monkeypatch.setattr(linalg, "rref", counted)
        geometry_module._degeneration.cache_clear()
        deg = geometry_limit(((3, 1), (2, 0)), parse_sequence("compose(perm((0 5)),diag(t,1,t^2,1,t^-1,1))", 6))
        invariant_profile(deg.limit)
        assert callers == []

    def test_verify_morphism_reads_independence_off_sparse_columns(self, monkeypatch):
        o3 = LieAlgebraSpan(3, [X1, X2, X3]).structure_constants()
        monkeypatch.setattr(linalg, "rref", lambda rows: pytest.fail("dense rref"))
        one, zero = Fraction(1), Fraction(0)
        singular = [[one, one, zero], [zero, zero, zero], [zero, zero, one]]
        assert not verify_morphism(singular, o3, o3)
        assert verify_morphism(linalg.identity(3), o3, o3)

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
        monkeypatch.setattr(linalg, "dense_rows", counted("dense_rows", linalg.dense_rows))
        monkeypatch.setattr(LieAlgebraSpan, "_trace_free", counted("_trace_free", LieAlgebraSpan._trace_free))
        geometry_module._degeneration.cache_clear()
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
        """Limits and their paddings are trace-free: the dense constructor,
        which removes traces, rebuilds each unchanged.  Padding keeps every
        entry in place."""
        limits = 0
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
            for span in spans:
                assert _same_span_data(span, LieAlgebraSpan(span.m, span.basis, check_closed=False)), (sig, seq)
            limits += 1
        assert limits >= 50, limits


# -- work done once per process: shared po(sig), closure proven by the match --


class TestSharedBlockAlgebras:
    """``build_po`` validates every call and then returns the one span of the
    normalized signature, which must stay equal to a freshly built one and
    closed: closure proofs by ``match_limit_geometry`` rest on that."""

    def test_every_spelling_of_a_signature_gives_the_same_span(self):
        sig = ((1, 0), (3, 1))
        assert build_po(sig) is build_po(list(sig)) is build_po([list(b) for b in sig]) is build_po(((1,), (3, 1)), 5)
        assert build_po((4, 1)) is build_po(((4, 1),)) is build_po([[4, 1]])
        with pytest.raises(SignatureError):
            build_po(sig, 6)

    def test_shared_spans_equal_fresh_ones_and_are_closed(self):
        for m in range(1, 7):
            for sig in enumerate_signatures(m):
                shared, fresh = build_po(sig), lie_module._po.__wrapped__(sig)
                assert shared is not fresh
                assert shared._flat == fresh._flat and shared._echelon.rows == fresh._echelon.rows, sig
                assert shared.is_closed() and shared.structure_constants() == fresh.structure_constants(), sig


class TestClosureProvenByMatch:
    """``geometry_limit`` builds no bracket table: the match identifies its
    limit as Ad_P po(sig), which is closed.  A limit that does not match is
    checked for closure before NoMatch is raised."""

    @pytest.fixture
    def tables(self, monkeypatch):
        spans = []
        original = LieAlgebraSpan._bracket_table

        def counted(self):
            spans.append(self)
            return original(self)

        monkeypatch.setattr(LieAlgebraSpan, "_bracket_table", counted)
        geometry_module._degeneration.cache_clear()  # every limit is derived here
        return spans

    def test_geometry_limit_equals_the_checked_limit(self, tables):
        matched = unmatched = 0
        for sig, seq in _limit_grid(21, ((3, 12), (4, 12), (5, 12), (6, 12))):
            tables.clear()
            try:
                deg = geometry_limit(sig, seq)
            except NoMatch:
                assert len(tables) == 1, (sig, seq)  # the closure check
                conjugacy_limit(build_po(sig), seq)
                unmatched += 1
                continue
            assert tables == [], (sig, seq)
            # The limit, conjugated out of its frame, with its closure proven
            # by its own table on the conjugated basis.
            m = deg.limit.m
            frame = _limit_in_frame(build_po(sig), seq)[2]
            checked = LieAlgebraSpan._of(m, conjugate_flat(seq.left, seq.left_inv, frame, m))
            assert deg.limit.span_equals(checked) and deg.limit.is_closed(), (sig, seq)
            assert deg.limit.structure_constants() == checked.structure_constants(), (sig, seq)
            matched += 1
        assert matched >= 12 and unmatched >= 12, (matched, unmatched)

    def test_a_span_that_is_not_closed_raises_not_closed(self, monkeypatch):
        not_closed = LieAlgebraSpan(3, [X1, X2], check_closed=False)
        with pytest.raises(NoMatch):
            match_limit_geometry(not_closed)
        # Limits whose frame basis is that span, under an identity and a
        # dense left factor: the closure check reads the frame either way.
        # The right factor is scaled, not a permutation, so the frame is
        # eliminated (and replaced here) rather than read off the match.
        frames = []

        def frame(alg, seq):
            frames.append(seq)
            return None, None, not_closed._flat

        monkeypatch.setattr(lie_module, "_limit_in_frame", frame)
        geometry_module._degeneration.cache_clear()
        for left in (linalg.identity(3), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
            seq = FactoredSequence.build(left, [0, 0, 0], [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
            with pytest.raises(NotClosed):
                conjugacy_limit(build_po(((3, 0),)), seq)
            with pytest.raises(NotClosed):
                geometry_limit(((3, 0),), seq)
        assert len(frames) == 4


def _identification_grid(seed=20261028, seeded=((6, 8), (7, 4))):
    """Limits of po(sig) at m = 3-7 with weights in -3..3 and identity,
    permutation or dense L/R factors: every signature at m <= 5, and seeded
    ones at m = 6 and 7.  The factor kinds cycle through all nine pairs."""
    rng = random.Random(seed)
    makers = (
        lambda m: linalg.identity(m),
        lambda m: permutation_matrix(tuple(rng.sample(range(m), m))),
        lambda m: _random_invertible(rng, m),
    )
    cases = [(m, sig) for m in (3, 4, 5) for sig in enumerate_signatures(m)]
    cases += [(m, rng.choice(enumerate_signatures(m))) for m, count in seeded for _ in range(count)]
    for k, (m, sig) in enumerate(cases):
        left, right = makers[k % 3](m), makers[(k // 3) % 3](m)
        yield sig, FactoredSequence.build(left, [rng.randint(-3, 3) for _ in range(m)], right)


class TestLimitIdentifiedOnce:
    """A conjugacy limit is identified once, by the match it stores: a matched
    limit is closed with no table, and its invariants are those of
    po(limit_sig); only a limit that does not match builds its table."""

    def test_invariants_and_closure_against_the_table(self):
        matched = unmatched = 0
        for sig, seq in _identification_grid():
            limit = conjugacy_limit(build_po(sig), seq)
            if limit._match:
                assert limit._table is None, (sig, seq)  # closed by the match
                matched += 1
            else:
                # Closed by its own table, which the span keeps: built on the
                # frame basis, it is the table of the limit's own basis.
                assert limit._match is False and limit._table is not None, (sig, seq)
                assert limit._table == LieAlgebraSpan._of(limit.m, limit._flat).structure_constants(), (sig, seq)
                with pytest.raises(NoMatch):
                    match_limit_geometry(limit)
                unmatched += 1
            profile = invariant_profile(limit)
            table = limit.structure_constants()
            assert profile == invariant_profile(table), (sig, seq)
            assert limit.is_closed() and limit.structure_constants() is table, (sig, seq)
            assert table.is_antisymmetric() and table.satisfies_jacobi(), (sig, seq)
        assert matched >= 40 and unmatched >= 20, (matched, unmatched)

    def test_a_second_limit_with_the_same_signature_forms_no_commutator(self, monkeypatch):
        lie_module._po.cache_clear()
        calls = []
        original = lie_module._sparse_bracket

        def counted(a, b, m):
            calls.append(m)
            return original(a, b, m)

        monkeypatch.setattr(lie_module, "_sparse_bracket", counted)
        weights, right = [2, -1, 0, 3, -3, 1], permutation_matrix((1, 4, 0, 5, 2, 3))
        first, second = (
            conjugacy_limit(build_po(((3, 1), (2, 0))), FactoredSequence.build(permutation_matrix(left), weights, right))
            for left in ((3, 0, 5, 1, 2, 4), (5, 4, 3, 2, 1, 0))
        )
        assert first._match[0] == second._match[0] and not first.span_equals(second)
        assert calls == []  # both limits are closed by their match
        profile = invariant_profile(first)
        assert invariant_profile(second) == profile
        assert calls == []  # the profile is read off the limit signature
        assert first._table is None and second._table is None
        assert build_po(first._match[0])._table is None

    def test_a_second_match_does_no_work(self, monkeypatch):
        reads = []
        original = lie_module._read_match

        def counted(limit):
            reads.append(limit)
            return original(limit)

        seq = FactoredSequence.build(permutation_matrix((2, 0, 1, 4, 3)), [1, 0, -1, 0, 2], linalg.identity(5))
        # The limit as a fresh span, with no match stored.
        limit = LieAlgebraSpan._of(5, conjugacy_limit(build_po(((4, 1),)), seq)._flat, check_closed=False)
        monkeypatch.setattr(lie_module, "_read_match", counted)
        assert match_limit_geometry(limit) == match_limit_geometry(limit)
        not_po = LieAlgebraSpan(3, [X1, X2], check_closed=False)
        for _ in range(2):
            with pytest.raises(NoMatch):
                match_limit_geometry(not_po)
        assert reads == [limit, not_po]
        # conjugacy_limit stores the match: the caller's match reads nothing.
        # Along permutation factors it is read off the match po((4,1))
        # stores, with no read.  A right factor that rotates two coordinates
        # of one sign keeps po((4,1)) but not its basis: that limit is
        # eliminated and its match read once.
        reads.clear()
        match_limit_geometry(conjugacy_limit(build_po(((4, 1),)), seq))
        assert reads == []
        rotation = linalg.identity(5)
        rotation[0][:2], rotation[1][:2] = [Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]
        limit = conjugacy_limit(build_po(((4, 1),)), FactoredSequence.build(permutation_matrix((2, 0, 1, 4, 3)), seq.weights, rotation))
        match_limit_geometry(limit)
        assert reads == [limit]


def _engine_limit(alg, seq):
    """The limit of ``alg`` along ``seq`` through the frame elimination and
    the match reader: ``alg`` copied as a span with no stored match."""
    return conjugacy_limit(LieAlgebraSpan._of(alg.m, alg._flat, check_closed=False), seq)


def _closed_form_grid(seed=20261047, seeded=((6, 40), (7, 30), (8, 20))):
    """(alg, seq) pairs for ``_monomial_limit``: every signature at m <= 5
    (and each with its blocks read as (q, p)) under identity and permutation
    L and R, and seeded signatures at m = 6-8 under permutations, with
    weights in -3..3.  Every other source is a limit of po(sig), with the
    match it stores (most of them not the identity)."""
    rng = random.Random(seed)
    cases = [(m, sig) for m in range(1, 6) for sig in enumerate_signatures(m)]
    cases += [(m, tuple((q, p) for p, q in sig)) for m, sig in cases if any(q for _, q in sig)]
    cases = [(m, sig, kinds) for m, sig in cases for kinds in ((0, 0), (0, 1), (1, 0), (1, 1))]
    cases += [(m, rng.choice(enumerate_signatures(m)), (1, 1)) for m, count in seeded for _ in range(count)]

    def factor(m, kind):
        return permutation_matrix(tuple(rng.sample(range(m), m))) if kind else linalg.identity(m)

    def weights(m):
        return [rng.randint(-3, 3) for _ in range(m)]

    for k, (m, sig, (left, right)) in enumerate(cases):
        alg = build_po(sig)
        if k % 2:
            alg = conjugacy_limit(alg, FactoredSequence.build(factor(m, 1), weights(m), factor(m, 1)))
        yield alg, FactoredSequence.build(factor(m, left), weights(m), factor(m, right))


class TestMonomialLimitReadOffMatch:
    """A span with a stored match and disjoint supports, along permutation
    factors, has its limit and match read off that match
    (``lie._monomial_limit``): the same basis, in the same order and scaling,
    and the same match as the frame elimination and the match reader give."""

    def test_closed_form_against_the_engine(self):
        cases = permuted = 0
        for alg, seq in _closed_form_grid():
            limit = lie_module._monomial_limit(alg, seq)
            engine = _engine_limit(alg, seq)
            assert limit is not None and conjugacy_limit(alg, seq)._flat == limit._flat, (alg._match, seq)
            assert limit._flat == engine._flat and limit._match == engine._match, (alg._match, seq)
            permuted += alg._match[1] != tuple(range(alg.m))
            cases += 1
        assert cases == 550 and permuted >= 250, (cases, permuted)

    def test_a_block_algebra_stores_the_match_the_reader_gives(self):
        """(sig, identity) when every block has p >= q; with p < q, the
        match the reader gives, which puts the larger colour first."""
        for m in range(1, 7):
            for sig in enumerate_signatures(m):
                for spelling in {sig, tuple((q, p) for p, q in sig)}:
                    alg = lie_module._po.__wrapped__(spelling)
                    fresh = LieAlgebraSpan._of(m, alg._flat, check_closed=False)
                    assert alg._match == lie_module._read_match(fresh), spelling
                    if spelling == sig:
                        assert alg._match == (sig, tuple(range(m)))

    def test_other_sources_and_factors_take_the_engine(self, monkeypatch):
        """A scaled or dense factor, a span with no stored match, a padding
        and a stored match on overlapping supports are eliminated in the
        frame, and give the engine's limit."""
        rng = random.Random(20261147)
        weights = [2, -1, 0, 3, -1]
        alg = build_po(((2, 1), (2, 0)))
        # po(sig) in the basis x_0 + x_1, x_1 + x_2, ..., x_last.
        basis = alg.basis
        sums = [[[a + b for a, b in zip(r, s)] for r, s in zip(x, y)] for x, y in zip(basis, basis[1:])]
        overlapping = LieAlgebraSpan(5, sums + basis[-1:])
        assert match_limit_geometry(overlapping)
        perm = permutation_matrix((2, 0, 4, 1, 3))
        cases = [
            (alg, FactoredSequence.build(_scaled_permutation(rng, 5, (1, -1, 2)), weights, perm)),
            (alg, FactoredSequence.build(perm, weights, _random_invertible(rng, 5))),
            (LieAlgebraSpan._of(5, alg._flat, check_closed=False), FactoredSequence.build(perm, weights, perm)),
            (pad_span(build_po(((2, 1),)), 5), FactoredSequence.build(perm, weights, perm)),
            (overlapping, FactoredSequence.build(perm, weights, perm)),
        ]
        frames = []
        original = lie_module._limit_in_frame
        monkeypatch.setattr(lie_module, "_limit_in_frame", lambda a, s: frames.append(s) or original(a, s))
        for source, seq in cases:
            assert lie_module._monomial_limit(source, seq) is None, seq
            assert conjugacy_limit(source, seq)._flat == _engine_limit(source, seq)._flat, seq
        assert len(frames) == 2 * len(cases)

    def test_a_permutation_limit_of_a_block_algebra_runs_no_engine(self, monkeypatch):
        calls = []
        for name in ("_limit_in_frame", "_read_match"):
            original = getattr(lie_module, name)
            monkeypatch.setattr(lie_module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        insert = linalg.Echelon.insert
        monkeypatch.setattr(linalg.Echelon, "insert", lambda self, v: calls.append("insert") or insert(self, v))
        weights = [3, -1, 0, 2, -2, 1]
        alg = build_po(((3, 1), (2, 0)))
        limit = conjugacy_limit(alg, FactoredSequence.build(permutation_matrix((3, 0, 5, 1, 2, 4)), weights, permutation_matrix((1, 4, 0, 5, 2, 3))))
        assert match_limit_geometry(limit) and invariant_profile(limit).dim == alg.dim
        assert calls == []
        # A dense right factor takes the engine: one frame and one match read.
        conjugacy_limit(alg, FactoredSequence.build(linalg.identity(6), weights, _random_invertible(random.Random(3), 6)))
        assert calls.count("_limit_in_frame") == 1 and calls.count("_read_match") == 1

    def test_two_benchmark_limit_cycles_run_no_engine(self, monkeypatch):
        """The 58 ops of two seed-1 cycles of the lie-m5to7 workload: 40
        limits of ``build_po`` spans and 18 contraction chains (36 limits)
        along permutation factors, all read off a stored match."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import bench_workloads

        calls = {"_limit_in_frame": 0, "_read_match": 0, "_monomial_limit": 0}
        for name in calls:
            original = getattr(lie_module, name)

            def counted(*args, _f=original, _n=name):
                calls[_n] += 1
                return _f(*args)

            monkeypatch.setattr(lie_module, name, counted)
        workload = bench_workloads.Lie(PERFBENCH.parent)
        ops = [op for index in range(2) for op in workload.cycle(1, index)]
        for op in ops:
            assert workload.check(op, workload.run(op))[0], op
        assert len(ops) == 58 and calls == {"_limit_in_frame": 0, "_read_match": 0, "_monomial_limit": 76}


def _table_route_profile(sig):
    """The profile of po(sig) read off its table, on a span built afresh."""
    return lie_module._table_profile(lie_module._po.__wrapped__(sig).structure_constants())


class TestSignatureProfile:
    """The profile of po(sig) read off its block sizes equals the profile
    read off its table of structure constants: every signature at m <= 7,
    seeded ones at m = 8, and blocks with p < q (the match orders each block
    p >= q, but ``build_po`` takes either)."""

    def test_every_signature_up_to_m7(self):
        for m in range(1, 8):
            for sig in enumerate_signatures(m):
                assert lie_module._signature_profile(sig) == _table_route_profile(sig), sig

    def test_seeded_signatures_at_m8(self):
        rng = random.Random(20261030)
        for sig in rng.sample(enumerate_signatures(8), 12):
            assert lie_module._signature_profile(sig) == _table_route_profile(sig), sig

    def test_blocks_with_p_below_q(self):
        rng = random.Random(20261031)
        sigs = [((1, 2),), ((0, 3),), ((1, 3),), ((2, 3), (0, 1)), ((0, 2), (1, 0), (1, 2))]
        for _ in range(24):
            sig = rng.choice(enumerate_signatures(rng.randint(2, 7)))
            sigs.append(tuple((q, p) if rng.random() < 0.5 else (p, q) for p, q in sig))
        for sig in sigs:
            assert lie_module._signature_profile(sig) == _table_route_profile(sig), sig

    def test_a_built_block_algebra_takes_the_closed_form(self, monkeypatch):
        """``invariant_profile`` of a ``build_po`` span reads its match and
        builds no table."""
        monkeypatch.setattr(LieAlgebraSpan, "_bracket_table", lambda self: pytest.fail("table built"))
        sig = ((2, 0), (3, 1), (1, 0))
        assert invariant_profile(lie_module._po.__wrapped__(sig)) == lie_module._signature_profile(sig)


class TestContractKeepsAntisymmetry:
    """``contract`` treats (i, j) and (j, i) alike, so the contraction of a
    table known to be antisymmetric is marked so; a table not known to be
    antisymmetric leaves the flag unknown."""

    def test_sigma_chain_tables_are_marked(self):
        rng = random.Random(20261032)
        for _ in range(16):
            m = rng.randint(3, 6)
            q = rng.randint(0, m // 2)
            weights = sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)
            result = sigma_chain(m - q, q, weights)
            for step in result.steps:
                assert step.table._antisymmetric is True, (m, q, weights)
                # The same rows with the flag unknown, checked from scratch.
                assert BracketTable._of(list(step.table._rows)).is_antisymmetric(), (m, q, weights)

    def test_a_table_not_known_antisymmetric_leaves_the_flag_unknown(self):
        zero = Fraction(0)
        c = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
        c[0][1][0] = Fraction(1)  # [e0, e1] = e0 with [e1, e0] = 0
        table = BracketTable(c)
        assert contract(table, [0])._antisymmetric is None
        assert not table.is_antisymmetric()
        contracted = contract(table, [0])
        assert contracted._antisymmetric is None and contracted.is_antisymmetric()
        c[1][0][0] = Fraction(-1)
        unknown = BracketTable(c)  # antisymmetric, but not known to be
        assert contract(unknown, [1])._antisymmetric is None


def _stored_form(table):
    """Dimension, antisymmetry flag and every row with its key order: what
    equal output bytes need."""
    return table.dim, table._antisymmetric, [[(j, list(c.items())) for j, c in row.items()] for row in table._rows]


def _contracted(fn, table, indices):
    """The stored form of fn(table, indices), or the type and text of its NotSubalgebra."""
    try:
        return _stored_form(fn(table, indices))
    except NotSubalgebra as exc:
        return type(exc), str(exc)


class TestIwContract:
    """``iw_contract`` keeps c^k_ab where d_k = d_a + d_b; ``contract`` is its
    case d = 0 on the fixed indices and -1 elsewhere."""

    def test_contract_equals_the_split_rule_oracle(self):
        """Against the split rule (keep [t, t], project [t, t^c], kill
        [t^c, t^c]) with every coefficient read through ``Fraction`` again:
        equal rows in the same key order, the same flag, the same
        NotSubalgebra text.  Po tables, sigma-chain step tables, and random
        tables that are not antisymmetric, some with the flag computed."""
        rng = random.Random(20261048)
        raised = 0
        for draw in range(600):
            kind = draw % 3
            if kind == 0:
                table = build_po(rng.choice(enumerate_signatures(rng.randint(2, 5)))).structure_constants()
            elif kind == 1:
                m = rng.randint(3, 6)
                q = rng.randint(0, m // 2)
                weights = sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)
                steps = sigma_chain(m - q, q, weights).steps
                table = rng.choice(steps).table if steps else build_po(((m - q, q),)).structure_constants()
            else:
                n = rng.randint(2, 6)
                c = [[[0] * n for _ in range(n)] for _ in range(n)]
                for _ in range(rng.randint(1, n)):
                    c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1, 2, Fraction(1, 3)))
                table = BracketTable(c)
                if rng.random() < 0.5:
                    table.is_antisymmetric()
            indices = rng.sample(range(table.dim), rng.randint(1, max(1, 2 * table.dim // 3))) if table.dim else []
            got = _contracted(contract, table, indices)
            assert got == _contracted(split_rule_contract, table, indices), (draw, indices)
            raised += got[0] is NotSubalgebra
        assert 150 <= raised <= 250, raised  # about a third of the draws

    def test_filter_of_po_is_the_bracketed_limit_table(self):
        """The theorem of ``iw_contract`` on po(p,q): with y_a the least-grade
        part of basis element e_a along diag(t^w) and d_a its grade, no entry
        of the po table lies below the filtration, the y_a span the conjugacy
        limit, and their bracketed table is the filter.  Every single-block
        signature at m <= 5 with every weakly decreasing weight vector in
        0..3, and a seeded grid at m = 6-7."""
        cases = [
            ((p, m - p), w)
            for m in range(1, 6)
            for p in range(m + 1)
            for w in combinations_with_replacement(range(3, -1, -1), m)
        ]
        rng = random.Random(20261049)
        for _ in range(16):
            m = rng.randint(6, 7)
            p = rng.randint(0, m)
            cases.append(((p, m - p), sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)))
        changed = 0
        for sig, w in cases:
            m = len(w)
            po = build_po((sig,))
            table = po.structure_constants()
            grade = [w[p // m] - w[p % m] for p in range(m * m)]
            d = [min(grade[p] for p in v) for v in po._flat]
            assert all(d[k] >= d[i] + d[j] for i, j, coeffs in table.brackets() for k in coeffs), (sig, w)
            y = [{p: x for p, x in v.items() if grade[p] == da} for v, da in zip(po._flat, d)]
            limit = LieAlgebraSpan._of(m, y)
            assert limit.span_equals(conjugacy_limit(po, FactoredSequence.diagonal(w))), (sig, w)
            filtered = iw_contract(table, d)
            assert filtered == limit.structure_constants(), (sig, w)
            changed += filtered != table
        assert len(cases) == 629 + 16 and changed >= 400, changed

    def test_refusals(self):
        so3 = build_po(((3, 0),)).structure_constants()
        # [e_0, e_1] is a multiple of e_2, whose exponent -1 is below 0 + 0.
        text = r"^exponents are not a filtration of the table: \[e_0, e_1\] has a part below d_0 \+ d_1$"
        with pytest.raises(NotFiltration, match=text) as exc:
            iw_contract(so3, [0, 0, -1])
        assert exc.value.pair == (0, 1)
        with pytest.raises(DimError, match="^need 3 exponents, got 2$"):
            iw_contract(so3, [0, 0])
        with pytest.raises(NotExact, match="^exponents must be integers, got 0.5$"):
            iw_contract(so3, [0, 0.5, 0])

    def test_step_check_rejects_each_fault(self, monkeypatch):
        """The step check on the last step of a chain, then with one fault
        each: an image doubled, an image left whole, two images swapped, an
        image outside the limit, the unfiltered po table, one entry of the
        table changed, and the images of the chain against a limit they do
        not span (po itself, the limit along constant weights)."""
        m, w = 5, (2, 2, 0, -1, -1)
        po = build_po(((3, 2),))
        result = sigma_chain(3, 2, w)
        y = [lie_module._min_grade_projection(v, w, m) for v in po._flat]
        assert lie_module._step_verified(po, y, result.final_table, w) is True
        assert _step_images(po, result.steps)[-1] == y
        a = next(k for k, (v, part) in enumerate(zip(po._flat, y)) if v != part)
        doubled, whole = list(y), list(y)
        doubled[a] = {p: 2 * x for p, x in y[a].items()}
        whole[a] = po._flat[a]
        swapped = [y[1], y[0]] + y[2:]
        outside = [{0: Fraction(1), m + 1: Fraction(-1)}] + y[1:]  # E_00 - E_11
        rows = [dict(row) for row in result.final_table._rows]
        i, j = next((i, j) for i, row in enumerate(rows) for j in row)
        rows[i][j] = {k: 2 * c for k, c in rows[i][j].items()}
        changed = BracketTable._of(rows, antisymmetric=True)
        for images, table in (
            (doubled, result.final_table),
            (whole, result.final_table),
            (swapped, result.final_table),
            (outside, result.final_table),
            (y, po.structure_constants()),
            (y, changed),
        ):
            assert lie_module._step_verified(po, images, table, w) is False
        monkeypatch.setattr(lie_module, "conjugacy_limit", lambda alg, seq: alg)
        assert lie_module._step_verified(po, y, result.final_table, w) is False


class TestSigmaChainFinalCheck:
    """The final check of a sigma chain is the last step's, whose limit is
    taken along the weights themselves: one step check per split, or one
    for a chain with no split.  Compared with the image-bracketing oracle
    ``_limit_morphism`` made afresh against the limit along the weights,
    over seeded chains."""

    def test_against_a_fresh_check(self, monkeypatch):
        rng = random.Random(20261029)
        checks = []
        original = lie_module._step_verified

        def counted(po, images, table, weights):
            checks.append(tuple(weights))
            return original(po, images, table, weights)

        monkeypatch.setattr(lie_module, "_step_verified", counted)
        for _ in range(24):
            m = rng.randint(3, 6)
            q = rng.randint(0, m // 2)
            weights = sorted((rng.randint(-4, 4) for _ in range(m)), reverse=True)
            checks.clear()
            result = sigma_chain(m - q, q, weights)
            assert len(checks) == max(len(result.splits), 1), (m, q, weights)
            assert checks[-1] == tuple(weights), (m, q, weights)
            # The images of the last step, rebuilt, against the full limit.
            po = build_po(((m - q, q),), m)
            images = ([po._flat] + _step_images(po, result.steps))[-1]
            full = conjugacy_limit(po, FactoredSequence.diagonal(weights))
            assert _limit_morphism(images, result.final_table, full)[1] == result.final_matches_limit, (m, q, weights)


def _step_images(po, steps):
    """The images sigma_l(e_a) of each step of a chain, rebuilt from po's
    basis: a step keeps the images of its fixed indices and projects every
    other one to its least grade along the step's unit drop."""
    m, images, out = po.m, po._flat, []
    for step in steps:
        u = [0] * step.split + [-1] * (m - step.split)
        images = [
            img if idx in step.fixed_indices else lie_module._min_grade_projection(img, u, m)
            for idx, img in enumerate(images)
        ]
        out.append(images)
    return out


def reference_sigma_chain(p, q, weights):
    """The chain as first built: each step takes its limit along the sum of
    the unit drops up to its split, and a separate limit along the weights
    is checked at the end unless it is the same span as the last step's."""
    m = p + q
    w = tuple(int(x) for x in weights)
    po = build_po(((p, q),), m)
    n = po.dim
    sigma_images = po._flat
    splits = tuple(i for i in range(1, m) if w[i - 1] > w[i])
    steps = []
    composite = [0] * m
    current = po.structure_constants()
    for split in splits:
        u = [0] * split + [-1] * (m - split)
        fixed = tuple(idx for idx in range(n) if all(u[p // m] == u[p % m] for p in sigma_images[idx]))
        current = contract(current, fixed)
        sigma_images = [
            img if idx in fixed else lie_module._min_grade_projection(img, u, m)
            for idx, img in enumerate(sigma_images)
        ]
        composite = [a + b for a, b in zip(composite, u)]
        limit = conjugacy_limit(po, FactoredSequence.diagonal(composite))
        steps.append(lie_module.ChainStep(split, fixed, current, _limit_morphism(sigma_images, current, limit)[1]))
    full_limit = conjugacy_limit(po, FactoredSequence.diagonal(w))
    if steps and full_limit.span_equals(limit):
        final_ok = steps[-1].verified
    else:
        final_ok = _limit_morphism(sigma_images, current, full_limit)[1]
    return lie_module.ChainResult((p, q), w, splits, tuple(steps), current, final_ok)


def _chain_grid(seed=20261033):
    """Seeded sigma chains at m = 1-8, one even and one odd q each, with
    weakly decreasing weights whose drops are 0 (no split) or 1-9; every
    (m, q) also gets the chain with no split."""
    rng = random.Random(seed)
    for m in range(1, 9):
        for parity in (0, 1):
            q = rng.choice([x for x in range(m + 1) if x % 2 == parity])
            yield m - q, q, [rng.randint(-3, 3)] * m
            for _ in range(4):
                weights = [rng.randint(-3, 3)]
                for _ in range(m - 1):
                    weights.append(weights[-1] - rng.choice((0, 0) + tuple(range(1, 10))))
                yield m - q, q, weights


class TestSigmaChainAgainstReference:
    """One conjugacy limit per split gives the chain the unit-drop composites
    and the separate final limit gave: by ROADMAP item 14 the limit depends
    only on the order of the weights."""

    def test_every_field_equals_the_reference(self):
        drops = set()
        for p, q, weights in _chain_grid():
            got, want = sigma_chain(p, q, weights), reference_sigma_chain(p, q, weights)
            for field in dataclasses.fields(lie_module.ChainResult):
                assert getattr(got, field.name) == getattr(want, field.name), (p, q, weights, field.name)
            drops.update(a - b for a, b in zip(weights, weights[1:]))
        assert drops == set(range(10)), drops

    def test_one_conjugacy_limit_per_split(self, monkeypatch):
        calls = []
        original = lie_module.conjugacy_limit

        def counted(alg, seq):
            calls.append(seq.weights)
            return original(alg, seq)

        monkeypatch.setattr(lie_module, "conjugacy_limit", counted)
        for p, q, weights in _chain_grid():
            calls.clear()
            result = sigma_chain(p, q, weights)
            assert len(calls) == max(len(result.splits), 1), (p, q, weights)
            # The last limit is taken along the weights themselves.
            assert tuple(calls[-1]) == tuple(weights), (p, q, weights)


class TestExactInput:
    """Integers and rationals are read exactly: a float or a bool is refused
    with ``NotExact``, never truncated or read as 0 or 1."""

    def test_signature_entries(self):
        for sig in (((4.9, 1),), ((True, 1),), ((" 3", 1),), (4.9, 1), (True, 1)):
            with pytest.raises(NotExact, match="^signature entries must be integers, got "):
                validate_signature(sig)

    def test_contraction_indices(self):
        so3 = build_po(((3, 0),))
        for index in (0.9, True):
            with pytest.raises(NotExact, match=f"^contraction indices must be integers, got {index!r}$"):
                contract(so3, [index])

    def test_matrix_size_of_a_span(self):
        for m in (2.9, True):
            with pytest.raises(NotExact, match=f"^matrix sizes must be integers, got {m!r}$"):
                LieAlgebraSpan(m, [])

    def test_structure_constants(self):
        for c in (0.1, True):
            with pytest.raises(NotExact, match=f"^structure constants must be exact, got {c!r}"):
                BracketTable([[[c]]])
