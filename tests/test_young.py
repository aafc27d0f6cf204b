"""Diagram combinatorics: dimensions, branching, spin, and statistics.

The Littlewood-Richardson machinery is checked against two oracles: Schur
polynomials computed directly as generating functions of semistandard
tableaux in five variables, and the original brute-force routines (every
filling enumerated, the lattice condition tested at the leaves), kept here
as reference implementations.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import young
from projlim.cli import main
from projlim.errors import NotColumnOnly, NotExact, ShapeError, TooLarge
from projlim.young import (
    branch_to_lorentz,
    conjugate_diagram,
    diagram_str,
    exterior_power_spins,
    is_poincare_irreducible,
    lr_decompose,
    pair_str,
    schur_dim,
    skew_divide,
    spin_statistics_obeyed,
    spin_total,
    statistics,
    symmetrizer_basis,
    symmetrizer_image_dim,
    tensor_power_decompose,
    validate_diagram,
    validate_pair,
)

from _reference import delta_terms, reference_rref, reference_symmetrizer_matrix

N_VARS = 5


# ---------------------------------------------------------------------------
# Oracle: Schur polynomials via semistandard tableaux
# ---------------------------------------------------------------------------


def _ssyt(shape: tuple[int, ...], max_entry: int = N_VARS):
    """Yield semistandard tableaux of the given shape as row tuples."""
    if not shape:
        yield ()
        return

    rows: list[tuple[int, ...]] = []

    def fill(r: int, current: list[tuple[int, ...]]):
        if r == len(shape):
            yield tuple(current)
            return
        width = shape[r]
        above = current[r - 1] if r > 0 else None

        def cells(c: int, row: list[int]):
            if c == width:
                yield tuple(row)
                return
            lo = row[c - 1] if c > 0 else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, max_entry + 1):
                yield from cells(c + 1, row + [v])

        for row in cells(0, []):
            yield from fill(r + 1, current + [row])

    yield from fill(0, [])


def schur_polynomial(shape: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial in five variables."""
    poly: dict[tuple[int, ...], int] = {}
    for tableau in _ssyt(shape):
        exp = [0] * N_VARS
        for row in tableau:
            for v in row:
                exp[v - 1] += 1
        key = tuple(exp)
        poly[key] = poly.get(key, 0) + 1
    return poly


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def poly_add_scaled(target: dict, poly: dict, coeff: int) -> None:
    for k, v in poly.items():
        target[k] = target.get(k, 0) + coeff * v
    for k in [k for k, v in target.items() if v == 0]:
        del target[k]


def partitions_up_to(n: int) -> list[tuple[int, ...]]:
    out = [()]
    for total in range(1, n + 1):
        def extend(prefix, remaining):
            cap = prefix[-1] if prefix else remaining
            for first in range(min(cap, remaining), 0, -1):
                if first == remaining:
                    out.append(prefix + (first,))
                else:
                    extend(prefix + (first,), remaining - first)

        extend((), total)
    return out


SMALL = [lam for lam in partitions_up_to(3)]


# ---------------------------------------------------------------------------
# Oracle: the brute-force Littlewood-Richardson routines
# ---------------------------------------------------------------------------


def ref_partitions_of(n: int, max_first: int | None = None):
    """All partitions of n, lexicographically descending."""
    if n == 0:
        yield ()
        return
    first_cap = n if max_first is None else min(n, max_first)
    for first in range(first_cap, 0, -1):
        for rest in ref_partitions_of(n - first, first):
            yield (first,) + rest


def ref_contains(outer, inner) -> bool:
    if len(inner) > len(outer):
        return False
    return all(outer[i] >= inner[i] for i in range(len(inner)))


def ref_lr_fillings(outer, inner, content) -> int:
    """Fillings of outer/inner with the given content, row-weak and
    column-strict, whose reverse reading word is a lattice word."""
    rows = len(outer)
    inner_pad = tuple(inner) + (0,) * (rows - len(inner))
    cells = [(r, c) for r in range(rows) for c in range(inner_pad[r], outer[r])]
    if not cells:
        return 1 if not content else 0
    if sum(content) != len(cells):
        return 0
    n_values = len(content)
    grid: dict[tuple[int, int], int] = {}
    remaining = list(content)
    count = 0

    def lattice_ok() -> bool:
        seen = [0] * (n_values + 1)
        for r in range(rows):
            for c in range(outer[r] - 1, inner_pad[r] - 1, -1):
                v = grid.get((r, c))
                if v is None:
                    continue
                seen[v] += 1
                if v > 1 and seen[v] > seen[v - 1]:
                    return False
        return True

    def place(idx: int) -> None:
        nonlocal count
        if idx == len(cells):
            if lattice_ok():
                count += 1
            return
        r, c = cells[idx]
        left = grid.get((r, c - 1))
        above = grid.get((r - 1, c))
        low = left if left is not None else 1
        for v in range(low, n_values + 1):
            if remaining[v - 1] == 0:
                continue
            if above is not None and v <= above:
                continue
            grid[(r, c)] = v
            remaining[v - 1] -= 1
            place(idx + 1)
            remaining[v - 1] += 1
            del grid[(r, c)]

    place(0)
    return count


def ref_lr_decompose(lam, mu) -> dict:
    if not mu:
        return {lam: 1}
    if not lam:
        return {mu: 1}
    out = {}
    for nu in ref_partitions_of(sum(lam) + sum(mu)):
        if ref_contains(nu, lam):
            coeff = ref_lr_fillings(nu, lam, mu)
            if coeff:
                out[nu] = coeff
    return out


def ref_skew_divide(lam, mu) -> dict:
    if sum(mu) > sum(lam):
        return {}
    out = {}
    for nu in ref_partitions_of(sum(lam) - sum(mu)):
        if ref_contains(lam, nu):
            coeff = ref_lr_decompose(nu, mu).get(lam, 0)
            if coeff:
                out[nu] = coeff
    return out


def ref_divide_by_delta(lam) -> dict:
    out: dict = {}
    for delta in delta_terms(sum(lam)):
        for nu, coeff in ref_skew_divide(lam, delta).items():
            out[nu] = out.get(nu, 0) + coeff
    return out


class TestAgainstReference:
    def test_divide_by_delta_on_all_small_diagrams(self):
        diagrams = [lam for lam in partitions_up_to(10) if len(lam) <= 5]
        assert len(diagrams) == 113
        for lam in diagrams:
            assert young._divide_by_delta(lam) == ref_divide_by_delta(lam), lam

    def test_lr_decompose_on_all_small_pairs(self):
        pairs = [
            (lam, mu)
            for lam, mu in itertools.product(partitions_up_to(9), repeat=2)
            if sum(lam) + sum(mu) <= 9
        ]
        assert len(pairs) == 734
        for lam, mu in pairs:
            got = lr_decompose(lam, mu)
            expected = ref_lr_decompose(lam, mu)
            assert list(got.items()) == list(expected.items()), (lam, mu)

    def test_skew_divide_on_seeded_sample(self):
        rng = random.Random(6)
        diagrams = partitions_up_to(9)
        sample = [(rng.choice(diagrams), rng.choice(diagrams[:42])) for _ in range(150)]
        sample += [((2, 1), (3,)), ((3,), (1, 1)), ((1, 1), (1, 1, 1)), ((), (1,))]
        assert any(len(mu) > len(lam) for lam, mu in sample)
        assert any(
            len(mu) <= len(lam) and sum(mu) <= sum(lam) and not ref_contains(lam, mu)
            for lam, mu in sample
        )
        for lam, mu in sample:
            got = skew_divide(lam, mu)
            expected = ref_skew_divide(lam, mu)
            assert list(got.items()) == list(expected.items()), (lam, mu)


class TestLittlewoodRichardsonCap:
    def test_product_over_the_cap_raises(self):
        with pytest.raises(TooLarge):
            lr_decompose((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1))

    def test_branch_over_the_cap_exits_1(self, capsys):
        assert main(["schur", "--pair", "([14,12,10,8,6],[])"]) == 1
        assert "capped" in capsys.readouterr().err

    def test_nine_nine_answers_quickly(self, capsys):
        start = time.perf_counter()
        assert main(["schur", "--pair", "([9,9],[])", "--format", "json"]) == 0
        assert time.perf_counter() - start < 1.0
        assert len(json.loads(capsys.readouterr().out)["branch"]["summands"]) == 15

    def test_cap_is_shared_by_the_quotients_of_one_branch(self, monkeypatch):
        # (20,) / Delta is 11 single-row quotients of 20, 18, ..., 0 cells,
        # each filled in one way: 110 cells of setup plus 110 placements.
        monkeypatch.setattr(young, "_LR_CAP", 220)
        assert len(young._divide_by_delta((20,))) == 11
        monkeypatch.setattr(young, "_LR_CAP", 219)
        with pytest.raises(TooLarge):
            young._divide_by_delta((20,))


class TestDimensions:
    FROZEN = {
        ((1,), ()): 5,
        ((1, 1), ()): 10,
        ((2,), ()): 15,
        ((3,), ()): 35,
        ((2, 1), ()): 40,
        ((1, 1, 1), ()): 10,
        ((1, 1, 1, 1), ()): 5,
        ((1, 1, 1, 1, 1), ()): 1,
        ((1, 1, 1, 1, 1, 1), ()): 0,
        ((1,), (1,)): 24,
        ((), ()): 1,
    }

    def test_frozen_values(self):
        for pair, dim in self.FROZEN.items():
            assert schur_dim(pair) == dim, pair

    def test_dimension_matches_tableau_count(self):
        for lam in partitions_up_to(4):
            if len(lam) > N_VARS:
                continue
            assert schur_dim((lam, ())) == len(list(_ssyt(lam)))

    def test_dimension_matches_symmetrizer_rank(self):
        for lam in SMALL:
            assert schur_dim((lam, ())) == symmetrizer_image_dim(lam, sum(lam))

    def test_height_six_vanishes(self):
        assert schur_dim(((2, 1, 1, 1, 1, 1), ())) == 0

    def test_full_column_strips_off(self):
        assert schur_dim(((2, 1, 1, 1, 1), ())) == schur_dim(((1,), ()))


class TestLittlewoodRichardson:
    def test_products_match_schur_polynomials(self):
        for lam, mu in itertools.product(SMALL, repeat=2):
            if sum(lam) == 0 and sum(mu) == 0:
                continue
            expansion = lr_decompose(lam, mu)
            direct = poly_mul(schur_polynomial(lam), schur_polynomial(mu))
            reconstructed: dict[tuple[int, ...], int] = {}
            for nu, coeff in expansion.items():
                assert coeff > 0
                if len(nu) <= N_VARS:
                    poly_add_scaled(reconstructed, schur_polynomial(nu), coeff)
            assert reconstructed == direct, (lam, mu)

    def test_square_of_fundamental(self):
        assert sorted(lr_decompose((1,), (1,)).items()) == [((1, 1), 1), ((2,), 1)]

    def test_dimension_multiplicativity(self):
        for lam, mu in itertools.product(SMALL, repeat=2):
            total = sum(
                coeff * schur_dim((nu, ()))
                for nu, coeff in lr_decompose(lam, mu).items()
            )
            assert total == schur_dim((lam, ())) * schur_dim((mu, ()))

    def test_skew_divide_inverts_products(self):
        # nu / mu collects exactly the lam with c^nu_{lam,mu} != 0
        quotients = skew_divide((2, 1), (1,))
        assert sorted(quotients.items()) == [((1, 1), 1), ((2,), 1)]
        assert skew_divide((1, 1, 1), (2,)) == {}


class TestDeltaAndBranching:
    def test_delta_terms_are_even_rows(self):
        """The lazy ``_delta_terms_in(lam)`` yields each term of the
        truncated reference sum Delta contained in lam exactly once."""
        terms = delta_terms(4)
        assert all(all(r % 2 == 0 for r in lam) for lam in terms)
        assert sorted(terms) == [(), (2,), (2, 2), (4,)]
        diagrams = [lam for lam in partitions_up_to(10) if len(lam) <= 5]
        for lam in diagrams:
            lazy = list(young._delta_terms_in(lam))
            assert len(lazy) == len(set(lazy)), lam
            assert sorted(lazy) == sorted(d for d in delta_terms(sum(lam)) if ref_contains(lam, d)), lam

    def test_branch_of_column_is_single(self):
        result = branch_to_lorentz(((1, 1), ()))
        assert result.single_summand
        [summand] = result.summands
        assert (tuple(summand.lam), tuple(summand.lam_bar)) == ((1, 1), ())

    def test_branch_of_row_is_not_single(self):
        result = branch_to_lorentz(((2,), ()))
        assert not result.single_summand
        shapes = {(tuple(s.lam), tuple(s.lam_bar)) for s in result.summands}
        assert ((), ()) in shapes  # the trace term survives branching

    def test_column_only_scan(self):
        for lam in partitions_up_to(3):
            for lam_bar in partitions_up_to(3):
                expected = all(r == 1 for r in lam) and all(r == 1 for r in lam_bar)
                assert branch_to_lorentz((lam, lam_bar)).single_summand == expected


class TestSpinAndStatistics:
    COLUMN_SPINS = {1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(1, 2), 4: Fraction(0)}

    def test_single_column_spins(self):
        for p, spin in self.COLUMN_SPINS.items():
            assert spin_total(((1,) * p, ())) == spin
            assert spin_total(((), (1,) * p)) == spin

    def test_two_sided_columns_add(self):
        assert spin_total(((1,), (1,))) == Fraction(1)
        assert spin_total(((1, 1), (1,))) == Fraction(3, 2)

    def test_spin_undefined_off_columns(self):
        # Not a column, or a side of height > 5 (the zero module).
        for pair in (((2,), ()), ((1,), (1,) * 6), ((2, 1, 1, 1, 1, 1), ()), ((), (1,) * 7), ((1,) * 6, (1,) * 6)):
            with pytest.raises(NotColumnOnly):
                spin_total(pair)
        # Height-5 columns are stripped, not refused.
        assert spin_total(((2, 1, 1, 1, 1), ())) == Fraction(1, 2)
        assert spin_total(((1,) * 5, ())) == Fraction(0)

    def test_exterior_power_content(self):
        dims = {p: sum(ir.dimension * ir.multiplicity for ir in exterior_power_spins(p)) for p in range(5)}
        assert dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
        dirac = sorted((ir.a2, ir.b2) for ir in exterior_power_spins(1))
        assert dirac == [(0, 1), (1, 0)]

    def test_statistics_parity(self):
        assert statistics(((1,), ())) == "fermionic"
        assert statistics(((1, 1), ())) == "bosonic"
        assert statistics(((1,), (1,))) == "bosonic"
        assert statistics(((1, 1, 1), ())) == "fermionic"

    def test_statistics_matches_doubled_spin_on_columns(self):
        for p in range(1, 5):
            for q in range(0, 5 - p):
                pair = ((1,) * p, (1,) * q)
                doubled = 2 * spin_total(pair)
                expected = "fermionic" if doubled % 2 == 1 else "bosonic"
                assert statistics(pair) == expected


class TestIrreducibility:
    def test_accepted_set_is_exactly_single_columns(self):
        accepted = []
        for lam in partitions_up_to(4):
            for lam_bar in partitions_up_to(4):
                if is_poincare_irreducible((lam, lam_bar)):
                    accepted.append((lam, lam_bar))
        expected = sorted(
            [((1,) * p, ()) for p in range(1, 5)] + [((), (1,) * q) for q in range(1, 5)]
        )
        assert sorted(accepted) == expected

    def test_rejection_reasons_are_informative(self):
        verdict = is_poincare_irreducible(((2,), ()))
        assert not verdict
        assert verdict.reason

    def test_two_sided_pair_rejected(self):
        assert not is_poincare_irreducible(((1,), (1,)))


class TestSymmetrizer:
    def test_image_dims(self):
        assert symmetrizer_image_dim((1, 1), 2) == 10
        assert symmetrizer_image_dim((2,), 2) == 15
        assert symmetrizer_image_dim((2, 1), 3) == 40

    def test_basis_shape(self):
        mat, cols = reference_symmetrizer_matrix((1, 1))
        assert len(mat) == len(cols) == 25
        columns, pivots, tuples = symmetrizer_basis((1, 1))
        assert len(columns) == len(pivots) == 10  # one column per image dimension
        # every column is indexed by the 25 tensor indices
        assert all(col and all(0 <= r < 25 for r in col) for col in columns)
        assert tuples == cols

    def test_size_cap(self):
        for build in (symmetrizer_basis, reference_symmetrizer_matrix):
            with pytest.raises(TooLarge, match="symmetrizer construction is capped at 3 boxes"):
                build((4,))

    @pytest.mark.parametrize("lam", SMALL)
    def test_basis_columns_are_weight_vectors(self, lam):
        """Every basis column has one index multiset over its support, so a
        diagonal matrix acts on it by one scalar.  The schur action of a
        factored sequence rests on this; the cap makes SMALL every diagram a
        symmetrizer is built for."""
        columns, _, tuples = symmetrizer_basis(lam)
        for col in columns:
            support = [tuples[r] for r, value in col.items() if value != 0]
            assert support
            assert len({tuple(sorted(tup)) for tup in support}) == 1

    @pytest.mark.parametrize("lam", SMALL)
    def test_basis_is_the_pivot_columns_of_the_dense_symmetrizer(self, lam):
        """In order, the sparse columns are the columns of the dense
        symmetrizer matrix at the pivots of its RREF (a dense Gauss-Jordan
        that shares no code with ``linalg.Echelon``), with zeros left out
        and keys ascending.  The pivots are those of the RREF of the
        columns taken as rows."""
        matrix, ref_tuples = reference_symmetrizer_matrix(lam)
        _, ref_pivots = reference_rref(matrix)
        columns, pivots, tuples = symmetrizer_basis(lam)
        assert tuples == ref_tuples
        expected = [{r: row[j] for r, row in enumerate(matrix) if row[j] != 0} for j in ref_pivots]
        assert columns == expected
        assert all(list(col) == sorted(col) for col in columns)
        assert all(type(x) is Fraction for col in columns for x in col.values())
        dense_rows = [[col.get(r, Fraction(0)) for r in range(len(tuples))] for col in columns]
        assert sorted(pivots) == reference_rref(dense_rows)[1]
        assert len(columns) == schur_dim((lam, ())) == symmetrizer_image_dim(lam, sum(lam))


class TestTensorPowers:
    def test_total_dimension(self):
        for p in range(0, 5):
            total = sum(
                mult * schur_dim((lam, ())) for lam, mult in tensor_power_decompose(p)
            )
            assert total == 5**p

    def test_multiplicities_are_tableau_counts(self):
        decomposition = dict(tensor_power_decompose(3))
        assert decomposition == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}

    def test_cap(self):
        with pytest.raises(TooLarge):
            tensor_power_decompose(6)


class TestSpinStatistics:
    def test_antisymmetric_pair_is_fermionic(self):
        coeffs = {
            ("g", (1, 2), ()): Fraction(1),
            ("g", (2, 1), ()): Fraction(-1),
        }
        assert spin_statistics_obeyed(coeffs, 2, 0, "fermionic")
        assert not spin_statistics_obeyed(coeffs, 2, 0, "bosonic")

    def test_symmetric_pair_is_bosonic(self):
        coeffs = {
            ("g", (1, 2), ()): Fraction(2),
            ("g", (2, 1), ()): Fraction(2),
        }
        assert spin_statistics_obeyed(coeffs, 2, 0, "bosonic")

    def test_mixed_groups(self):
        coeffs = {
            ("g", (1,), (3, 4)): Fraction(1),
            ("g", (1,), (4, 3)): Fraction(-1),
        }
        assert spin_statistics_obeyed(coeffs, 1, 2, "fermionic")

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            spin_statistics_obeyed({("g", (1,), ()): 1}, 2, 0, "bosonic")
        with pytest.raises(ShapeError):
            spin_statistics_obeyed({("g", (0, 1), ()): 1}, 2, 0, "bosonic")
        with pytest.raises(ShapeError):
            spin_statistics_obeyed({}, 1, 0, "anyonic")


class TestValidation:
    def test_diagram_normalization(self):
        assert validate_diagram([3, 1]) == (3, 1)
        assert validate_diagram(()) == ()

    def test_non_monotone_rejected(self):
        with pytest.raises(ShapeError):
            validate_diagram([1, 2])
        with pytest.raises(ShapeError):
            validate_diagram([3, 1, 0])

    def test_pair_and_str_roundtrip(self):
        pair = validate_pair(((2, 1), (1,)))
        assert pair_str(pair) == "([2,1],[1])"
        assert diagram_str((2, 1)) == "[2,1]"

    def test_conjugate_involution(self):
        for lam in partitions_up_to(4):
            assert conjugate_diagram(conjugate_diagram(lam)) == lam

    @given(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_preserves_boxes(self, rows):
        lam = validate_diagram(sorted(rows, reverse=True))
        assert sum(conjugate_diagram(lam)) == sum(lam)


class TestExactRows:
    """Row lengths are integers: a float or a bool is refused with
    ``NotExact``, never truncated or read as 1."""

    def test_row_lengths(self):
        for row in (2.7, True):
            with pytest.raises(NotExact, match=f"^row lengths must be integers, got {row!r}$"):
                validate_diagram((row,))
            with pytest.raises(NotExact, match=f"^row lengths must be integers, got {row!r}$"):
                schur_dim(((row,), ()))
