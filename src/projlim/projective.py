"""Projective matrices, points and factored degenerating sequences.

A projective matrix is a nonzero matrix of Laurent scalars modulo rescaling
by c * t^k (c a nonzero rational, k an integer).  The canonical representative
has global minimum exponent 0 and its first row-major entry with nonzero
constant term rescaled to 1; two projective matrices are equal exactly when
their canonical representatives coincide entrywise.

Degenerating sequences b(t) are kept in factored form

    b(t) = left * diag(t^w_0, ..., t^w_{m-1}) * right

with exact rational invertible ``left``/``right``.  This makes conjugation,
inversion and the t -> 0 limit exact symbolic operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import NotFactorable, NotInvertible, ZeroMatrix
from .laurent import LaurentScalar, lau

LMat = list[list[LaurentScalar]]


def _to_laurent_rows(entries) -> LMat:
    return [[lau(x) for x in row] for row in entries]


def _canonicalize(rows: LMat) -> LMat:
    """Canonical representative of the projective class of ``rows``.

    Zero entries are kept as they are, and the shift and the rescaling are
    skipped when they would change nothing.
    """
    exps = [e.min_exponent() for row in rows for e in row if e]
    if not exps:
        raise ZeroMatrix("projective class of the zero matrix is undefined")
    shift = -min(exps)
    if shift:
        rows = [[e.shift(shift) if e else e for e in row] for row in rows]
    lead = next(c for row in rows for e in row if (c := e.coefficient(0)) != 0)
    if lead != 1:
        inv = 1 / lead
        rows = [[e.scale(inv) if e else e for e in row] for row in rows]
    return rows


def _limit_rows(rows: LMat) -> LMat:
    """Entrywise t -> 0 limit of a canonical representative.

    The result is canonical too: the minimum exponent is 0, so some entry has
    a nonzero constant term, and the first such term is 1.
    """
    return [
        [e if e.is_constant() else LaurentScalar.constant(e.limit_at_zero()) for e in row]
        for row in rows
    ]


class ProjMatrix:
    """A projective class of Laurent matrices, stored canonically.

    >>> m = ProjMatrix([["t^2", "0"], ["0", "t^3"]])
    >>> print(m)
    [[1, 0], [0, t]]
    >>> m == ProjMatrix([["2*t^5", "0"], ["0", "2*t^6"]])
    True
    """

    __slots__ = ("rows",)

    def __init__(self, entries):
        rows = _to_laurent_rows(entries)
        width = {len(r) for r in rows}
        if len(width) != 1:
            raise ZeroMatrix("ragged matrix")
        self.rows: LMat = _canonicalize(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> LaurentScalar:
        return self.rows[i][j]

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.rows for e in row)

    def constant_rows(self) -> linalg.Mat:
        """Rational entries of a constant representative."""
        return [[e.constant_value() for e in row] for row in self.rows]

    def limit(self) -> "ProjMatrix":
        """Entrywise t -> 0 limit of the canonical representative.

        Always converges (canonical form has no poles), and the limit is
        canonical itself, so it is not normalized again.
        """
        out = object.__new__(ProjMatrix)
        out.rows = _limit_rows(self.rows)
        return out

    def rank_at_limit(self) -> int:
        return linalg.rank(self.limit().constant_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self.rows))

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"ProjMatrix({self})"


class ProjPoint:
    """A point of projective space with Laurent coordinates, stored canonically.

    >>> ProjPoint(["t", "t^2", "0"]) == ProjPoint(["3", "3*t", "0"])
    True
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        row = [lau(x) for x in coords]
        self.coords: list[LaurentScalar] = _canonicalize([row])[0]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def limit(self) -> "ProjPoint":
        out = object.__new__(ProjPoint)
        out.coords = _limit_rows([self.coords])[0]
        return out

    def constant_coords(self) -> linalg.Vec:
        return [c.constant_value() for c in self.coords]

    def zero_pattern(self) -> tuple[int, ...]:
        """Indices of vanishing coordinates (0-based)."""
        return tuple(i for i, c in enumerate(self.coords) if c.is_zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(tuple(self.coords))

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.coords)) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


# ---------------------------------------------------------------------------
# Laurent matrix helpers (plain lists, no projective normalization)
# ---------------------------------------------------------------------------


def lmat_mul(a: LMat, b: LMat) -> LMat:
    n, k, m = len(a), len(b), len(b[0])
    zero = LaurentScalar.zero()
    out: LMat = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for s in range(k):
            c = a[i][s]
            if c.is_zero():
                continue
            for j in range(m):
                if not b[s][j].is_zero():
                    out[i][j] = out[i][j] + c * b[s][j]
    return out


def lmat_from_rational(m: linalg.Mat) -> LMat:
    return [[LaurentScalar.constant(x) for x in row] for row in m]


def lmat_vec(a: LMat, v: list[LaurentScalar]) -> list[LaurentScalar]:
    out = []
    for row in a:
        acc = LaurentScalar.zero()
        for c, x in zip(row, v):
            if not c.is_zero() and not x.is_zero():
                acc = acc + c * x
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def permutation_matrix(perm: tuple[int, ...]) -> linalg.Mat:
    """Matrix M with M[i][perm[i]] = 1, acting on points by (Mx)_i = x_{perm(i)}.

    With this convention Ad_M sends the matrix unit E_{ij} to
    E_{perm^-1(i), perm^-1(j)}.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise NotInvertible(f"{perm} is not a permutation of 0..{n-1}")
    m = linalg.zeros(n, n)
    for i, j in enumerate(perm):
        m[i][j] = Fraction(1)
    return m


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# Factored sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredSequence:
    """b(t) = left * diag(t^weights) * right with rational invertible factors."""

    left: tuple[tuple[Fraction, ...], ...]
    weights: tuple[int, ...]
    right: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def _freeze(m: linalg.Mat) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x) for x in row) for row in m)

    @classmethod
    def build(cls, left, weights, right) -> "FactoredSequence":
        left = linalg.frac_rows(left)
        right = linalg.frac_rows(right)
        weights = tuple(int(w) for w in weights)
        n = len(weights)
        if len(left) != n or len(right) != n:
            raise NotInvertible("factor dimensions do not match the weight count")
        if linalg.determinant(left) == 0 or linalg.determinant(right) == 0:
            raise NotInvertible("factored sequence requires invertible factors")
        return cls(cls._freeze(left), weights, cls._freeze(right))

    @classmethod
    def diagonal(cls, weights) -> "FactoredSequence":
        n = len(weights)
        eye = linalg.identity(n)
        return cls.build(eye, weights, eye)

    @classmethod
    def constant(cls, matrix) -> "FactoredSequence":
        n = len(matrix)
        return cls.build(matrix, (0,) * n, linalg.identity(n))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def left_rows(self) -> linalg.Mat:
        return [list(r) for r in self.left]

    def right_rows(self) -> linalg.Mat:
        return [list(r) for r in self.right]

    def is_constant(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def matrix(self) -> ProjMatrix:
        """b(t) as a projective Laurent matrix."""
        return ProjMatrix(self._laurent_rows())

    def _laurent_rows(self) -> LMat:
        diag = [
            [LaurentScalar.t(self.weights[i]) if i == j else LaurentScalar.zero() for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return lmat_mul(lmat_from_rational(self.left_rows()), lmat_mul(diag, lmat_from_rational(self.right_rows())))

    def inverse(self) -> "FactoredSequence":
        return FactoredSequence.build(
            linalg.inverse(self.right_rows()),
            tuple(-w for w in self.weights),
            linalg.inverse(self.left_rows()),
        )

    def premultiply(self, const: linalg.Mat) -> "FactoredSequence":
        """const * b(t) for an invertible rational matrix."""
        return FactoredSequence.build(
            linalg.mat_mul(linalg.frac_rows(const), self.left_rows()), self.weights, self.right_rows()
        )

    def compose(self, other: "FactoredSequence") -> "FactoredSequence":
        """The product sequence self(t) * other(t), kept in factored form.

        Works whenever the middle product right_1 * left_2 is monomial (one
        nonzero entry per row and column), e.g. for diagonal sequences or
        permutation/constant factors; raises NotFactorable otherwise.
        """
        if self.dim != other.dim:
            raise NotFactorable("dimension mismatch")
        if self.is_constant():
            shift = self.weights[0]
            c = linalg.mat_mul(self.left_rows(), self.right_rows())
            return FactoredSequence.build(
                linalg.mat_mul(c, other.left_rows()),
                tuple(w + shift for w in other.weights),
                other.right_rows(),
            )
        if other.is_constant():
            shift = other.weights[0]
            c = linalg.mat_mul(other.left_rows(), other.right_rows())
            return FactoredSequence.build(
                self.left_rows(),
                tuple(w + shift for w in self.weights),
                linalg.mat_mul(self.right_rows(), c),
            )
        mid = linalg.mat_mul(self.right_rows(), other.left_rows())
        n = self.dim
        perm = [-1] * n  # column of the unique nonzero entry in each row
        for i in range(n):
            nz = [j for j in range(n) if mid[i][j] != 0]
            if len(nz) != 1:
                raise NotFactorable("middle factor is not monomial; product has no factored form")
            perm[i] = nz[0]
        if sorted(perm) != list(range(n)):
            raise NotFactorable("middle factor is not monomial; product has no factored form")
        # diag(t^w1) * mid = mid * diag(t^{w1 permuted}) since mid has a single
        # nonzero entry per row i in column perm[i].
        permuted = tuple(self.weights[i] for i in invert_permutation(perm))
        new_left = linalg.mat_mul(self.left_rows(), mid)
        return FactoredSequence.build(
            new_left,
            tuple(p + w for p, w in zip(permuted, other.weights)),
            other.right_rows(),
        )

    # -- actions -------------------------------------------------------

    def conjugate(self, x) -> ProjMatrix:
        """Ad_{b(t)} x = b(t) x b(t)^-1 for a rational (or Laurent) matrix x."""
        if isinstance(x, ProjMatrix):
            xr = x.rows
        else:
            xr = _to_laurent_rows(x)
        r = lmat_from_rational(self.right_rows())
        r_inv = lmat_from_rational(linalg.inverse(self.right_rows()))
        l = lmat_from_rational(self.left_rows())
        l_inv = lmat_from_rational(linalg.inverse(self.left_rows()))
        y = lmat_mul(r, lmat_mul(xr, r_inv))
        n = self.dim
        y = [
            [y[i][j].shift(self.weights[i] - self.weights[j]) for j in range(n)]
            for i in range(n)
        ]
        return ProjMatrix(lmat_mul(l, lmat_mul(y, l_inv)))

    def apply_to_point(self, point: ProjPoint | list) -> ProjPoint:
        """b(t) x as a projective point."""
        coords = point.coords if isinstance(point, ProjPoint) else [lau(c) for c in point]
        r = lmat_from_rational(self.right_rows())
        v = lmat_vec(r, list(coords))
        v = [c.shift(w) for c, w in zip(v, self.weights)]
        v = lmat_vec(lmat_from_rational(self.left_rows()), v)
        return ProjPoint(v)


def point_limit(seq: FactoredSequence, point: ProjPoint | list) -> ProjPoint:
    """Canonical t -> 0 limit of b(t) x."""
    return seq.apply_to_point(point).limit()


