"""Dense Gauss-Jordan references for the exact linear algebra, and the
matrix commutator for the dense Lie oracles.

They share no code with ``projlim.linalg``, so the tests that check the one
row elimination (``linalg.Echelon``) and the routines read off it, and the
dense oracles of the Lie core and the correlator, compare against an
independent elimination.
"""

from fractions import Fraction


def reference_rref(rows):
    """Reduced row echelon form and pivot columns by dense Gauss-Jordan."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
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


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def reference_determinant(a):
    """Determinant by elimination below the diagonal, with row swaps."""
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


def reference_solve(a, rhs):
    """The solution of A x = rhs with every free variable 0, or None if
    inconsistent."""
    ncols = len(a[0])
    red, pivots = reference_rref([[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(a, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def reference_nullspace(a):
    """Kernel basis of A, one vector per free column, in column order."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = reference_rref([[Fraction(x) for x in row] for row in a])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def reference_inverse(a):
    """Inverse of a square matrix, from the RREF of [A | I]; None if singular."""
    n = len(a)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = reference_rref([[Fraction(x) for x in row] + e for row, e in zip(a, eye)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def reference_commutator(a, b):
    """The matrix commutator ab - ba, entry by entry."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
