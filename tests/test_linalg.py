"""The one row elimination, ``Echelon``, and the dense routines read off it,
against a dense Gauss-Jordan reference and a reference determinant."""

import random
from fractions import Fraction

import pytest

from projlim import linalg
from projlim.errors import NotInvertible
from projlim.linalg import Echelon, dense_rows
from projlim.projective import FactoredSequence

from _reference import (
    reference_determinant,
    reference_inverse,
    reference_nullspace,
    reference_rank,
    reference_rref,
    reference_solve,
    reference_symmetric_signature,
)


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _dense_rows(echelon, ncols):
    """The canonical rows as dense lists, and their pivots."""
    rows = echelon.canonical()
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for _, row in rows], [p for p, _ in rows]


def _matrices():
    """Seeded matrices with 0/+-1/2 entries: some with a row that is a
    combination of earlier rows, some with a zero row, some with no rows."""
    rng = random.Random(20261018)
    for k in range(330):
        ncols = rng.randint(1, 9)
        nrows = 0 if k % 11 == 0 else rng.randint(1, 7)
        rows = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(ncols)] for _ in range(nrows)]
        if rows and k % 3 == 0:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x - 2 * y for x, y in zip(a, b)])
        if k % 5 == 0:
            rows.append([Fraction(0)] * ncols)
        rng.shuffle(rows)
        yield rng, rows, ncols


def _insert_all(echelon, rows):
    """Insert the rows one at a time; the rank growth each insert reports."""
    return [echelon.insert(_sparse(row)) for row in rows]


class TestEchelonAgainstRref:
    """Against the Gauss-Jordan ``reference_rref``."""

    def test_rows_pivots_and_rank(self):
        seen = {"empty": 0, "dependent": 0, "full rank": 0}
        for _, rows, ncols in _matrices():
            echelon = Echelon()
            grew = _insert_all(echelon, rows)
            red, pivots = reference_rref(rows)
            rank = len(pivots)
            assert _dense_rows(echelon, ncols) == (red[:rank], pivots)
            assert len(echelon) == rank
            # insert reports growth exactly when the rank of the prefix grows
            assert grew == [reference_rank(rows[: r + 1]) > reference_rank(rows[:r]) for r in range(len(rows))]
            if not rows:
                seen["empty"] += 1
            elif rank < len(rows):
                seen["dependent"] += 1
            else:
                seen["full rank"] += 1
        assert sum(seen.values()) >= 300
        assert min(seen.values()) >= 20, seen

    def test_permuted_column_order(self):
        for rng, rows, ncols in _matrices():
            order = rng.sample(range(ncols), ncols)
            echelon = Echelon(order)
            _insert_all(echelon, rows)
            red, pivots = reference_rref([[row[c] for c in order] for row in rows])
            want = []
            for row in red[: len(pivots)]:
                vec = [Fraction(0)] * ncols
                for c, x in zip(order, row):
                    vec[c] = x
                want.append(vec)
            assert _dense_rows(echelon, ncols) == (want, [order[c] for c in pivots])

    def test_rows_do_not_depend_on_insertion_order(self):
        for rng, rows, ncols in _matrices():
            first, second = Echelon(), Echelon()
            _insert_all(first, rows)
            _insert_all(second, rng.sample(rows, len(rows)))
            assert first.rows == second.rows

    def test_coordinates_inside_and_outside_the_span(self):
        inside = outside = 0
        for rng, rows, ncols in _matrices():
            echelon = Echelon()
            _insert_all(echelon, rows)
            weights = [rng.choice((0, 1, -1, 2)) for _ in rows]
            v = [sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0)) for c in range(ncols)]
            coords = echelon.coordinates(_sparse(v))
            combo = [sum((y * echelon.rows[p].get(c, 0) for p, y in coords.items()), Fraction(0)) for c in range(ncols)]
            assert combo == v
            inside += 1
            w = [Fraction(rng.choice((0, 1, -1))) for _ in range(ncols)]
            in_span = reference_rank(rows + [w]) == reference_rank(rows) if rows else not any(w)
            assert (echelon.coordinates(_sparse(w)) is not None) == in_span
            outside += not in_span
        assert inside >= 300 and outside >= 100


def _square_matrices():
    """Seeded n x n matrices, n = 0..6, with 0/+-1/2 entries; about a third
    made singular by a row that is a combination of the others."""
    rng = random.Random(20261019)
    for k in range(240):
        n = k % 7
        rows = [[Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(n)] for _ in range(n)]
        if n >= 2 and k % 3 == 0:
            weights = [rng.choice((0, 1, -1, 2)) for _ in range(n - 1)]
            rows[-1] = [sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0)) for c in range(n)]
            rng.shuffle(rows)
        yield rows


def _dense_inverse(rows, n):
    """The dense matrix of the stored (column, value) rows of an inverse."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
    return out


def _mat_vec(a, x):
    return [sum((r * y for r, y in zip(row, x)), Fraction(0)) for row in a]


class TestDenseRoutinesAgainstReference:
    """rref, rank, solve, nullspace and inverse, read off the one elimination,
    against the Gauss-Jordan ``reference_rref`` and ``reference_determinant``."""

    def test_rref_and_rank(self):
        for _, rows, _ in _matrices():
            before = [row[:] for row in rows]
            assert linalg.rref(rows) == reference_rref(rows)
            assert rows == before
            assert linalg.rank(rows) == reference_rank(rows)
            # Integer entries give the same Fraction rows.
            red, pivots = linalg.rref([[int(x) for x in row] for row in rows])
            assert (red, pivots) == reference_rref(rows)
            assert all(type(x) is Fraction for row in red for x in row)

    def test_solve(self):
        consistent = inconsistent = 0
        for rng, rows, ncols in _matrices():
            if not rows:
                continue
            weights = [Fraction(rng.choice((0, 1, -1, 2))) for _ in range(ncols)]
            for rhs in (_mat_vec(rows, weights), [Fraction(rng.choice((0, 1, -1))) for _ in rows]):
                x = linalg.solve(rows, rhs)
                want = reference_solve(rows, rhs)
                assert x == want
                if want is None:
                    inconsistent += 1
                    continue
                assert _mat_vec(rows, x) == rhs
                consistent += 1
        assert consistent >= 300 and inconsistent >= 50

    def test_nullspace(self):
        for _, rows, _ in _matrices():
            kernel = linalg.nullspace(rows)
            assert kernel == reference_nullspace(rows)
            assert all(not any(_mat_vec(rows, v)) for v in kernel)

    def test_inverse_and_singularity(self):
        seen = {"invertible": 0, "singular": 0}
        for rows in _square_matrices():
            n = len(rows)
            singular = reference_determinant(rows) == 0
            assert (linalg.rank(rows) < n) == singular
            if singular:
                assert reference_inverse(rows) is None
                with pytest.raises(NotInvertible):
                    linalg.inverse(rows)
                seen["singular"] += 1
                continue
            inv = linalg.inverse(rows)
            assert inv == reference_inverse(rows)
            assert not n or linalg.mat_mul(rows, inv) == linalg.identity(n)
            seen["invertible"] += 1
        assert min(seen.values()) >= 60, seen

    def test_sequence_factor_inverses(self):
        """A factored sequence keeps the inverses of its factors from its
        invertibility check: equal to the reference inverse on every side a
        factor can take, and a singular factor raises the same text there."""
        seen = {"invertible": 0, "singular": 0}
        for rows in _square_matrices():
            n = len(rows)
            if not n:
                continue  # a sequence has at least one weight
            eye, weights = linalg.identity(n), list(range(n))
            want = reference_inverse(rows)
            if want is None:
                for make in (
                    lambda: FactoredSequence.build(rows, weights, eye),
                    lambda: FactoredSequence.build(eye, weights, rows),
                    lambda: FactoredSequence.constant(rows).compose(FactoredSequence.diagonal(weights)),
                ):
                    with pytest.raises(NotInvertible, match="^factored sequence requires invertible factors$"):
                        make()
                seen["singular"] += 1
                continue
            left = FactoredSequence.build(rows, weights, eye)
            right = FactoredSequence.build(eye, weights, rows)
            premultiplied = FactoredSequence.constant(rows).compose(FactoredSequence.diagonal(weights))
            for inverse_rows in (left.left_inv, right.right_inv, premultiplied.left_inv):
                assert _dense_inverse(inverse_rows, n) == want
            assert dense_rows(left.inverse().right) == want
            assert dense_rows(right.inverse().left) == want
            assert _dense_inverse(left.inverse().right_inv, n) == rows
            assert _dense_inverse(right.inverse().left_inv, n) == rows
            assert left.inverse().inverse() == left
            seen["invertible"] += 1
        assert min(seen.values()) >= 60, seen

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1, 5]], [[1, 0], [0, 1], [1, 1]], [[1, 2]]],
    )
    def test_non_square_has_no_inverse(self, rows):
        with pytest.raises(NotInvertible, match="only a square matrix"):
            linalg.inverse(linalg.frac_rows(rows))

    def test_pivot_inverse_gives_echelon_rows(self):
        checked = 0
        for _, rows, ncols in _matrices():
            echelon = Echelon()
            independent = [_sparse(row) for row in rows if echelon.insert(_sparse(row))]
            pivots = list(echelon.rows)
            inverse = linalg.pivot_inverse(independent, pivots)
            block = reference_inverse([[v.get(p, Fraction(0)) for p in pivots] for v in independent])
            assert inverse == {p: [(k, t) for k, t in enumerate(row) if t] for p, row in zip(pivots, block)}
            for p, row in echelon.rows.items():
                combo = {}
                for k, t in inverse[p]:
                    for c, x in independent[k].items():
                        combo[c] = combo.get(c, 0) + t * x
                assert {c: x for c, x in combo.items() if x} == row
                checked += 1
        assert checked >= 600

    def test_pivot_inverse_of_a_singular_block(self):
        vectors = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}]
        with pytest.raises(NotInvertible, match="pivot block is singular"):
            linalg.pivot_inverse(vectors, [0, 1])


def _symmetric_matrices():
    """Seeded symmetric matrices up to 6x6 with entries in -2..2: every other
    one has a zero diagonal, the rest a diagonal that is mostly zero, so the
    elimination often meets a block with no diagonal pivot."""
    rng = random.Random(20261019)
    for k in range(300):
        n = rng.randint(1, 6)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            if k % 2 and rng.random() < 0.3:
                a[i][i] = Fraction(rng.randint(-2, 2))
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = Fraction(rng.randint(-2, 2))
        yield a


class TestSymmetricSignature:
    """The congruence elimination against Descartes' rule on the exact
    characteristic polynomial (exact here: a symmetric matrix has real roots)."""

    def test_against_descartes_count(self):
        for a in _symmetric_matrices():
            assert linalg.symmetric_signature(a) == reference_symmetric_signature(a), a
