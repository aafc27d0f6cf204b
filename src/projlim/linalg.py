"""Exact linear algebra over Q, list-of-lists style.

Vectors are lists of Fraction, matrices are lists of rows.  Everything is
small (at most a few hundred rows), so plain Gaussian elimination with exact
pivoting is both fast enough and free of numerical questions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac_rows(rows) -> Mat:
    """Deep-copy a matrix-like nested iterable into Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


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


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns.  Input is not modified."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r] + [[Fraction(0)] * ncols for _ in range(nrows - r)], pivots


def rank(rows: Mat) -> int:
    return len(rref(rows)[1])


def row_space_basis(rows: Mat) -> Mat:
    """Canonical (RREF) basis of the row space; rows of zeros dropped."""
    red, pivots = rref(rows)
    return red[: len(pivots)]


def solve(a: Mat, rhs: Vec) -> Vec | None:
    """One exact solution of A x = rhs, or None if inconsistent."""
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
    """Basis of the right kernel of A (list of vectors)."""
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
    n = len(a)
    eye = identity(n)
    aug = [a[i][:] + eye[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in red[:n]]


def determinant(a: Mat) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return det


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
