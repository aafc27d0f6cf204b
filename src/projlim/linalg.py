"""Exact linear algebra over Q.

Dense vectors are lists of Fraction, matrices are lists of rows; sparse
vectors are {column: value} dicts of their nonzero entries, and sparse rows
hold the nonzero (column, value) entries of each row of a matrix.  Numbers
from callers are read by ``exact`` (a rational) and ``integers`` (a tuple of
ints), which refuse what is not exact rather than truncate it; ``sparse_rows``,
``dense_rows`` and ``nonzero_flat`` are the one set of dense/sparse
converters.  There is one row elimination, ``Echelon``: it keeps the reduced
row echelon form of a growing set of sparse vectors, with exact pivoting and
no numerical questions.  The vectors met here (flattened matrices, structure
constants, symmetrizers, factors of sequences) are mostly zero, so it
touches only nonzero entries.  The dense ``rref`` reads its rows off an
``Echelon``, and ``rank``, ``solve`` and ``nullspace`` read theirs off
``rref``.  There is one inverse, ``inverse_rows`` of sparse rows: a monomial
matrix is inverted by transposition, any other through ``pivot_inverse``
(coordinates in a basis from its echelon pivots), which reads an inverse off
one ``Echelon`` with a tag column per row, not off ``rref``; the dense
``inverse`` is a view of it.  ``symmetric_signature`` does its own
congruence elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotExact, NotInvertible

Vec = list[Fraction]
Mat = list[list[Fraction]]
# The nonzero (column, value) entries of each row, in ascending column order.
SparseRows = tuple[tuple[tuple[int, Fraction], ...], ...]

_ONE = Fraction(1)


def exact(x, what: str) -> Fraction:
    """x as a Fraction.  A float is not exact and a bool is not a number, so
    both are refused (NotExact); ``what`` names the input in the message.

    >>> exact("1/2", "matrix entries")
    Fraction(1, 2)
    >>> exact(0.5, "matrix entries")
    Traceback (most recent call last):
    projlim.errors.NotExact: matrix entries must be exact, got 0.5; give an int, a Fraction or a string
    """
    if isinstance(x, (float, bool)):
        raise NotExact(f"{what} must be exact, got {x!r}; give an int, a Fraction or a string")
    return Fraction(x)


def integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints.  Anything but an integer (a float, a
    string, a bool) is refused (NotExact), not truncated or read as 0 or 1.

    >>> integers([1.9, 1.2], "weights")
    Traceback (most recent call last):
        ...
    projlim.errors.NotExact: weights must be integers, got 1.9
    """
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise NotExact(f"{what} must be integers, got {v!r}")
    return values


def frac_rows(rows) -> Mat:
    """Deep-copy a matrix-like nested iterable into Fractions, each entry
    read by ``exact``.

    >>> frac_rows([[1, "1/2"], [Fraction(2, 3), "0.1"]])
    [[Fraction(1, 1), Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 10)]]
    """
    return [[exact(x, "matrix entries") for x in row] for row in rows]


def sparse_rows(rows) -> SparseRows:
    """The nonzero (column, value) entries of each row of a dense matrix
    (rational or Laurent)."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def dense_rows(rows, ncols: int | None = None) -> Mat:
    """The matrix with the given sparse rows and ncols columns (square when
    ncols is not given); every other entry is 0."""
    out = zeros(len(rows), len(rows) if ncols is None else ncols)
    for dense, row in zip(out, rows):
        for j, x in row:
            dense[j] = x
    return out


def nonzero_flat(x: Mat) -> dict[int, Fraction]:
    """The nonzero entries of the flattened square matrix, as {i * m + j: x_ij}."""
    m = len(x)
    return {i * m + j: v for i, row in enumerate(x) for j, v in enumerate(row) if v}


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for s in range(k):
            c = ai[s]
            if c == 0:
                continue
            bs = b[s]
            for j in range(m):
                if bs[j] != 0:
                    oi[j] += c * bs[j]
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


class Echelon:
    """Reduced row echelon form of the span of sparse vectors, kept up to date.

    ``rows`` maps each pivot column to its row {column: value}: 1 at its own
    pivot, 0 at every other pivot, and 0 before its pivot in ``order`` (the
    columns in ascending index by default).  These are the nonzero rows of
    the RREF with the columns permuted into ``order``, whatever the order of
    insertion.  A reduced vector whose pivot entry is already 1 becomes a
    row as it is, with no rescaling, so rows keep the type of the inserted
    values (``rref`` coerces its input to ``Fraction``).
    """

    __slots__ = ("rows", "_key")

    def __init__(self, order=None):
        self.rows: dict[int, dict[int, Fraction]] = {}
        self._key = None if order is None else {c: k for k, c in enumerate(order)}.__getitem__

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict[int, Fraction]) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(coords, residual), nonzero entries only, with v = residual + the
        sum of coords[p] rows[p]; the residual is zero on every pivot."""
        coords = {c: x for c, x in v.items() if x and c in self.rows}
        residual = {c: x for c, x in v.items() if x and c not in self.rows}
        for p, y in coords.items():
            for c, x in self.rows[p].items():
                if c != p:
                    residual[c] = residual.get(c, 0) - y * x
        return coords, {c: x for c, x in residual.items() if x}

    def coordinates(self, v: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """{pivot: y} with v = sum y rows[pivot], or None when v is outside the span."""
        coords, residual = self._reduce(v)
        return None if residual else coords

    def insert(self, v: dict[int, Fraction]) -> bool:
        """Add v to the span; whether the rank grew."""
        residual = self._reduce(v)[1]
        if not residual:
            return False
        p = min(residual, key=self._key)
        if residual[p] == 1:  # already scaled: the residual is a fresh dict
            new = residual
        else:
            inv = Fraction(1) / residual[p]
            new = {c: x * inv for c, x in residual.items()}
        for row in self.rows.values():
            f = row.get(p)
            if f:
                for c, x in new.items():
                    y = row.get(c, 0) - f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
        self.rows[p] = new
        return True

    def canonical(self) -> list[tuple[int, dict[int, Fraction]]]:
        """(pivot, row) pairs in ascending pivot order: the RREF rows."""
        return [(p, self.rows[p]) for p in sorted(self.rows, key=self._key)]


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns, read off an ``Echelon``
    of the rows.  Input is not modified; its entries may be any rationals."""
    ncols = len(rows[0]) if rows else 0
    echelon = Echelon()
    for row in rows:
        echelon.insert({c: Fraction(x) for c, x in enumerate(row) if x})
    zero = Fraction(0)
    canonical = echelon.canonical()
    red = [[row.get(c, zero) for c in range(ncols)] for _, row in canonical]
    return red + [[zero] * ncols for _ in range(len(rows) - len(red))], [p for p, _ in canonical]


def rank(rows: Mat) -> int:
    return len(rref(rows)[1])


def solve(a: Mat, rhs: Vec) -> Vec | None:
    """One exact solution of A x = rhs, or None if inconsistent.  Nothing in
    the package calls it: it is kept as API and for the benchmark's span of
    the same name."""
    n, m = len(a), len(a[0])
    aug = [a[i][:] + [rhs[i]] for i in range(n)]
    red, pivots = rref(aug)
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    return x


def nullspace(a: Mat) -> Mat:
    """Basis of the right kernel of A (list of vectors).  Nothing in the
    package calls it: it is kept as API and for the benchmark's span of the
    same name."""
    if not a:
        return []
    m = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis: Mat = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def inverse(a: Mat) -> Mat:
    """The inverse of a square matrix: a dense view of ``inverse_rows``."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotInvertible(f"only a square matrix has an inverse: {n} rows of lengths {[len(r) for r in a]}")
    return dense_rows(inverse_rows(sparse_rows(a)))


def inverse_rows(rows: SparseRows) -> SparseRows:
    """The sparse rows of the inverse of the n x n matrix with the given
    sparse rows; NotInvertible when it is singular.

    A monomial matrix (one nonzero x at (i, j) in every row and column, such
    as a permutation) is inverted by transposition: row j of the inverse is
    1/x at column i.  Any other goes through one ``pivot_inverse`` with every
    column a pivot: the pivot block is the matrix."""
    n = len(rows)
    if all(len(row) == 1 for row in rows):
        transposed: list = [None] * n
        for i, ((j, x),) in enumerate(rows):
            transposed[j] = ((i, _ONE / x),)
        if None not in transposed:  # else two rows share a column: singular
            return tuple(transposed)
    inv = pivot_inverse([dict(row) for row in rows], list(range(n)))
    return tuple(tuple(inv[c]) for c in range(n))


def pivot_inverse(vectors: list[dict[int, Fraction]], pivots: list[int]) -> dict[int, list[tuple[int, Fraction]]]:
    """Coordinates in the basis ``vectors`` (independent, sparse), read off
    the ``pivots`` of their echelon: {p: [(k, t_pk) for nonzero t_pk]}, with
    (t_pk) the inverse of the pivot block (vectors[k][p]).

    Echelon row p is sum_k t_pk vectors[k], so a member x of the span is
    sum_k (sum_p x[p] t_pk) vectors[k].  The block rows, each with a 1 at a
    tag column base + k after every pivot, go into one ``Echelon``, which
    eliminates the pivots first: row p ends up 1 at p and t_pk at tag k.
    """
    base = max(pivots, default=-1) + 1
    echelon = Echelon()
    for k, v in enumerate(vectors):
        echelon.insert({**{p: v[p] for p in pivots if p in v}, base + k: Fraction(1)})
    if any(p not in echelon.rows for p in pivots):
        raise NotInvertible("the pivot block is singular")
    return {p: [(c - base, t) for c, t in sorted(echelon.rows[p].items()) if c >= base] for p in pivots}


def symmetric_signature(a: Mat) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Computed by simultaneous row/column elimination (congruence transforms),
    which preserves the signature by Sylvester's law of inertia.
    """
    n = len(a)
    m = [row[:] for row in a]
    plus = minus = 0
    todo = list(range(n))
    while todo:
        # prefer a nonzero diagonal pivot
        k = next((i for i in todo if m[i][i] != 0), None)
        if k is None:
            # find a nonzero off-diagonal pair and fold it onto the diagonal:
            # replacing row/col i by (row/col i + row/col j) makes the i-th
            # diagonal entry 2*m[i][j] != 0.
            pair = next(
                ((i, j) for i in todo for j in todo if j != i and m[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            k = i
        d = m[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        todo.remove(k)
        for i in todo:
            if m[i][k] != 0:
                f = m[i][k] / d
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
    return plus, minus, n - plus - minus
