"""The sparse echelon against the dense reduced row echelon form."""

import random
from fractions import Fraction

from projlim import linalg
from projlim.linalg import Echelon


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
    def test_rows_pivots_and_rank(self):
        seen = {"empty": 0, "dependent": 0, "full rank": 0}
        for _, rows, ncols in _matrices():
            echelon = Echelon()
            grew = _insert_all(echelon, rows)
            red, pivots = linalg.rref(rows)
            rank = len(pivots)
            assert _dense_rows(echelon, ncols) == (red[:rank], pivots)
            assert len(echelon) == rank
            # insert reports growth exactly when the rank of the prefix grows
            assert grew == [linalg.rank(rows[: r + 1]) > linalg.rank(rows[:r]) for r in range(len(rows))]
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
            red, pivots = linalg.rref([[row[c] for c in order] for row in rows])
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
            in_span = linalg.rank(rows + [w]) == linalg.rank(rows) if rows else not any(w)
            assert (echelon.coordinates(_sparse(w)) is not None) == in_span
            outside += not in_span
        assert inside >= 300 and outside >= 100
