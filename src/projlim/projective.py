"""Projective matrices, points and factored degenerating sequences.

A projective matrix is a nonzero matrix of Laurent scalars modulo rescaling
by c * t^k (c a nonzero rational, k an integer).  The canonical representative
has global minimum exponent 0 and its first row-major entry with nonzero
constant term rescaled to 1; two projective matrices are equal exactly when
their canonical representatives coincide entrywise.  The class is stored once,
as sparse rows (the nonzero (column, LaurentScalar) entries of each row), and
the canonical form, its limit and every reader run over the nonzero entries
only; the dense rows are a view.  A ``ProjPoint`` is stored the same way, as
one sparse row.  A rational point needs none of that: it is one list of
canonical rational coordinates (``canonical_coords``, the first nonzero
coordinate scaled to 1), read once and printed from those rationals
(``point_text``).

Degenerating sequences b(t) are kept in factored form

    b(t) = left * diag(t^w_0, ..., t^w_{m-1}) * right

with exact rational invertible ``left``/``right``.  This makes conjugation,
inversion and the t -> 0 limit exact symbolic operations.  Each factor is
stored once, as its sparse rows (the nonzero (column, value) entries of each
row), beside the sparse rows of its inverse, computed once when the sequence
is made (``linalg.inverse_rows``): the check that its factors are
invertible computes them, and inversion swaps the four, so nothing is
inverted again.  A dense matrix is read once, where a caller hands one in
(``build``, ``constant``, ``conjugate``), and products of factors multiply
sparse rows.  There is one conjugation of flattened sparse matrices,
``conjugate_flat`` (rational or Laurent entries), which the Lie limits use
too.  A monomial factor (one nonzero entry per row, as for a permutation)
only relabels: each entry moves to one position, scaled by the two factor
entries it meets, and a permutation forms no product at all; an identity
factor costs nothing.  There is one factored product
``factored_product`` of sparse rows and a diagonal of Laurent powers, which
gives the sparse rows of b(t) and of every rho-infinity, with no product
formed when both factors are the identity.

The limit of a point is read off the weights (the least-weight rule): with
y = right * x, the limit of b(t) x is left * z, where z keeps the coefficients
of y at the least value of w_i + val(y_i).  A rational point takes no Laurent
arithmetic at all (``rational_limit``, which ``point_limit`` uses too): no
Laurent scalar is made for it from input to printed output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import DimError, NotFactorable, NotInvertible, ZeroMatrix
from .laurent import LaurentScalar, lau, rational_combination
from .linalg import SparseRows, sparse_rows

_ZERO = LaurentScalar.zero()
_NOUGHT = Fraction(0)


def _dense_row(row, ncols: int) -> list[LaurentScalar]:
    """The dense row of Laurent scalars with the given nonzero entries; every
    zero is the same shared zero scalar."""
    out = [_ZERO] * ncols
    for j, e in row:
        out[j] = e
    return out


def _canonicalize(rows: SparseRows) -> SparseRows:
    """Canonical representative of the projective class of the sparse Laurent
    rows (nonzero entries only, in ascending column order).

    The shift and the rescaling run over the nonzero entries only, and are
    skipped when they would change nothing.
    """
    exps = [e.min_exponent() for row in rows for _, e in row]
    if not exps:
        raise ZeroMatrix("projective class of the zero matrix is undefined")
    shift = -min(exps)
    if shift:
        rows = tuple(tuple((j, e.shift(shift)) for j, e in row) for row in rows)
    lead = next(c for row in rows for _, e in row if (c := e.coefficient(0)) != 0)
    if lead != 1:
        inv = 1 / lead
        rows = tuple(tuple((j, e * inv) for j, e in row) for row in rows)
    return rows


def _limit_rows(rows: SparseRows) -> SparseRows:
    """Entrywise t -> 0 limit of canonical sparse rows, with every entry whose
    limit is 0 dropped.

    The result is canonical too: the minimum exponent is 0, so some entry has
    a nonzero constant term, and the first such term is 1.
    """
    # No canonical entry has a pole, so its limit is its constant term c; an
    # entry with c != 0 and one term is the constant c already.
    return tuple(
        tuple((j, e if e.is_monomial() else LaurentScalar._of({0: c})) for j, e in row if (c := e.coefficient(0)))
        for row in rows
    )


def _rationals(coords) -> list[Fraction] | None:
    """The coordinates of a point as rationals (expression strings parsed), or
    None when one of them depends on t.  A float or a bool is refused by
    ``lau`` (NotExact)."""
    out = []
    for x in coords:
        if type(x) is int:
            x = Fraction(x)
        elif type(x) is not Fraction:
            x = lau(x)
            if not x.is_constant():
                return None
            x = x.coefficient(0)
        out.append(x)
    return out


def _canonical(coords: list[Fraction]) -> list[Fraction]:
    """The canonical coordinates of a rational point: its first nonzero
    coordinate rescaled to 1.  This is the canonical form ``_canonicalize``
    gives, with no shift to make."""
    lead = next((x for x in coords if x), None)
    if lead is None:
        raise ZeroMatrix("the zero vector is not a projective point")
    return coords if lead == 1 else [x / lead if x else x for x in coords]


def _rational_row(coords) -> tuple:
    """The sparse row of canonical rational coordinates, the entries constant
    LaurentScalars."""
    return tuple((i, LaurentScalar._of({0: x})) for i, x in enumerate(coords) if x)


def canonical_coords(point) -> list[Fraction]:
    """The canonical rational coordinates of a point given as a ``ProjPoint``
    or as coordinates (integers, fractions, Laurent scalars or expression
    strings), with the refusals of ``ProjPoint(point).constant_coords()``: a
    float or a bool (NotExact), the zero vector (ZeroMatrix) and a point that
    depends on t (DivergentLimit).  Rational coordinates are read with no
    Laurent arithmetic.

    >>> canonical_coords([-3, 1, 1, 0, 2])
    [Fraction(1, 1), Fraction(-1, 3), Fraction(-1, 3), Fraction(0, 1), Fraction(-2, 3)]
    """
    if isinstance(point, ProjPoint):
        return point.constant_coords()
    point = list(point)
    rational = _rationals(point)
    if rational is None:  # [t, t] is the constant point [1, 1]
        return ProjPoint(point).constant_coords()
    return _canonical(rational)


def point_text(coords) -> str:
    """The printed form of a point: ``[x_0, x_1, ...]``, each coordinate a
    rational or a Laurent scalar (a constant scalar prints as its value)."""
    return "[" + ", ".join(map(str, coords)) + "]"


class ProjMatrix:
    """A projective class of Laurent matrices, stored canonically as sparse
    rows: ``sparse`` holds the nonzero (column, LaurentScalar) entries of each
    row in ascending column order, ``ncols`` the width.  ``rows`` is a dense
    view.

    >>> m = ProjMatrix([["t^2", "0"], ["0", "t^3"]])
    >>> print(m)
    [[1, 0], [0, t]]
    >>> m == ProjMatrix([["2*t^5", "0"], ["0", "2*t^6"]])
    True
    """

    __slots__ = ("sparse", "ncols")

    def __init__(self, entries):
        rows = [[lau(x) for x in row] for row in entries]
        width = {len(r) for r in rows}
        if len(width) != 1:
            raise DimError("ragged matrix")
        self.sparse: SparseRows = _canonicalize(sparse_rows(rows))
        self.ncols: int = width.pop()

    @classmethod
    def _of(cls, rows: SparseRows, ncols: int) -> "ProjMatrix":
        """The class of the sparse Laurent rows (nonzero entries only, in
        ascending column order) of a matrix with ncols columns."""
        return cls._canonical(_canonicalize(rows), ncols)

    @classmethod
    def _canonical(cls, rows: SparseRows, ncols: int) -> "ProjMatrix":
        """The class of sparse rows that are canonical already."""
        out = object.__new__(cls)
        out.sparse, out.ncols = rows, ncols
        return out

    @property
    def rows(self) -> list[list[LaurentScalar]]:
        """The dense canonical representative (a fresh copy)."""
        return [_dense_row(row, self.ncols) for row in self.sparse]

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.sparse for _, e in row)

    def constant_rows(self) -> linalg.Mat:
        """Rational entries of a constant representative."""
        return linalg.dense_rows([[(j, e.constant_value()) for j, e in row] for row in self.sparse], self.ncols)

    def limit(self) -> "ProjMatrix":
        """Entrywise t -> 0 limit of the canonical representative.

        Always converges (canonical form has no poles), and the limit is
        canonical itself, so it is not normalized again.
        """
        return ProjMatrix._canonical(_limit_rows(self.sparse), self.ncols)

    def rank_at_limit(self) -> int:
        return linalg.rank(self.limit().constant_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.sparse == other.sparse

    def __hash__(self) -> int:
        return hash(self.sparse)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"ProjMatrix({self})"


class ProjPoint:
    """A point of projective space with Laurent coordinates, stored canonically
    as one sparse row: ``sparse`` holds the nonzero (index, LaurentScalar)
    coordinates in ascending order, ``dim`` the length.  ``coords`` is a dense
    view.

    >>> ProjPoint(["t", "t^2", "0"]) == ProjPoint(["3", "3*t", "0"])
    True
    """

    __slots__ = ("sparse", "dim")

    def __init__(self, coords):
        coords = list(coords)
        rational = _rationals(coords)
        if rational is None:
            [self.sparse] = _canonicalize(sparse_rows([[lau(x) for x in coords]]))
        else:
            self.sparse = _rational_row(_canonical(rational))
        self.dim: int = len(coords)

    @classmethod
    def _of_rationals(cls, coords) -> "ProjPoint":
        """The point with the given canonical rational coordinates, its
        entries constant LaurentScalars."""
        out = object.__new__(cls)
        out.sparse, out.dim = _rational_row(coords), len(coords)
        return out

    @property
    def coords(self) -> list[LaurentScalar]:
        """The dense canonical coordinates (a fresh copy)."""
        return _dense_row(self.sparse, self.dim)

    def limit(self) -> "ProjPoint":
        out = object.__new__(ProjPoint)
        [out.sparse] = _limit_rows((self.sparse,))
        out.dim = self.dim
        return out

    def constant_coords(self) -> linalg.Vec:
        out = [Fraction(0)] * self.dim
        for i, c in self.sparse:
            out[i] = c.constant_value()
        return out

    def zero_pattern(self) -> tuple[int, ...]:
        """Indices of vanishing coordinates (0-based)."""
        nonzero = {i for i, _ in self.sparse}
        return tuple(i for i in range(self.dim) if i not in nonzero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.dim == other.dim and self.sparse == other.sparse

    def __hash__(self) -> int:
        return hash(self.sparse)

    def __str__(self) -> str:
        return point_text(self.coords)

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation of 0..n-1, checked in the pass that
    inverts it: every entry must land in a free slot of 0..n-1."""
    n = len(perm)
    inv = [None] * n
    for i, j in enumerate(perm):
        if not 0 <= j < n or inv[j] is not None:
            raise NotInvertible(f"{perm} is not a permutation of 0..{n-1}")
        inv[j] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# Factored sequences
# ---------------------------------------------------------------------------


def transpose_rows(rows: SparseRows) -> SparseRows:
    """The sparse rows of the transpose of a square matrix (its columns), in
    ascending order."""
    columns: list[list] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            columns[j].append((i, x))
    return tuple(map(tuple, columns))


def is_identity(rows: SparseRows) -> bool:
    """Whether the sparse rows (rational or Laurent) are those of the identity."""
    return all(row == ((i, 1),) for i, row in enumerate(rows))


def conjugate_flat(g: SparseRows, ginv: SparseRows, vectors: list[dict], m: int) -> list[dict]:
    """g x g^-1 for each flattened m x m matrix x, from the nonzero entries only:
    (g x g^-1)_il = sum over nonzero x_jk of g_ij x_jk (g^-1)_kl.

    The vectors are {i * m + j: x_ij} dicts of rational or Laurent values; g
    and g^-1 are rational sparse rows of an invertible g.  For an identity g
    the vectors are returned as they are, with no products formed.  When
    every row of g has one entry, g is a scaled permutation (it is
    invertible), and so is g^-1: x_jk moves to the one position (i, l) with
    g_ij = a and (g^-1)_kl = b nonzero, as a x b, and as x itself, with no
    product formed, when a = b = 1.
    """
    if is_identity(g):
        return vectors
    columns = transpose_rows(g)
    if all(len(row) == 1 for row in g):
        # The one nonzero g_ij in column j and (g^-1)_kl in row k, each with
        # whether it is 1.
        row_of = [(i * m, a, a == 1) for ((i, a),) in columns]
        col_of = [(l, b, b == 1) for ((l, b),) in ginv]
        out = []
        for v in vectors:
            moved = {}
            for p, x in v.items():
                i, a, a_one = row_of[p // m]
                l, b, b_one = col_of[p % m]
                moved[i + l] = x if a_one and b_one else a * (x * b)
            out.append(moved)
        return out
    out = []
    for v in vectors:
        acc: dict = {}
        for p, x in v.items():
            j, k = divmod(p, m)
            for l, b in ginv[k]:
                xb = x * b
                for i, a in columns[j]:
                    q = i * m + l
                    acc[q] = acc.get(q, 0) + a * xb
        out.append({q: y for q, y in acc.items() if y})
    return out


def _product(a: SparseRows, b: SparseRows) -> SparseRows:
    """The sparse rows of a * b for square rational factors given by their sparse rows."""
    out = []
    for row in a:
        acc: dict[int, Fraction] = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple((j, acc[j]) for j in sorted(acc) if acc[j]))
    return tuple(out)


def factored_product(left: SparseRows, powers: list[LaurentScalar], right: SparseRows) -> SparseRows:
    """The sparse rows of left * diag(powers) * right for square rational
    factors given by their sparse rows and nonzero powers: entry (i, j) is one
    ``rational_combination`` of the left_ik right_kj powers_k over the k where
    both factors are nonzero.  When both factors are the identity the result
    is diag(powers), with no product formed."""
    if is_identity(left) and is_identity(right):
        return tuple(((k, p),) for k, p in enumerate(powers))
    out = []
    for row in left:
        terms: dict[int, list[tuple[Fraction, LaurentScalar]]] = {}
        for k, a in row:
            for j, c in right[k]:
                terms.setdefault(j, []).append((a * c, powers[k]))
        out.append(tuple((j, x) for j in sorted(terms) if (x := rational_combination(terms[j]))))
    return tuple(out)


@dataclass(frozen=True)
class FactoredSequence:
    """b(t) = left * diag(t^weights) * right with rational invertible factors.

    Each factor is stored once, as its sparse rows: the nonzero (column,
    value) entries of each row, in ascending column order.  ``left_inv`` and
    ``right_inv`` hold the sparse rows of left^-1 and right^-1; they take no
    part in equality, hashing or the repr, so equal sequences hash equal
    however they were built.  Dense input is read once, by ``build``,
    ``constant`` and ``conjugate``; products multiply sparse rows.
    """

    left: SparseRows
    weights: tuple[int, ...]
    right: SparseRows
    left_inv: SparseRows = field(repr=False, compare=False)
    right_inv: SparseRows = field(repr=False, compare=False)

    @classmethod
    def build(cls, left, weights, right) -> "FactoredSequence":
        left = linalg.frac_rows(left)
        right = linalg.frac_rows(right)
        weights = linalg.integers(weights, "weights")
        n = len(weights)
        if any(len(factor) != n or any(len(row) != n for row in factor) for factor in (left, right)):
            raise NotInvertible(f"factors must be {n}x{n} to match the weight count")
        return cls._of(sparse_rows(left), weights, sparse_rows(right))

    @classmethod
    def _of(cls, left: SparseRows, weights, right: SparseRows, left_inv=None, right_inv=None) -> "FactoredSequence":
        """The sequence of n x n factors.  An inverse not given is computed
        here, which raises NotInvertible for a singular factor."""
        try:
            if left_inv is None:
                left_inv = linalg.inverse_rows(left)
            if right_inv is None:
                right_inv = linalg.inverse_rows(right)
        except NotInvertible:
            raise NotInvertible("factored sequence requires invertible factors") from None
        return cls(left, weights, right, left_inv, right_inv)

    @classmethod
    def diagonal(cls, weights) -> "FactoredSequence":
        weights = linalg.integers(weights, "weights")
        eye = tuple(((i, Fraction(1)),) for i in range(len(weights)))
        return cls(eye, weights, eye, eye, eye)

    @classmethod
    def constant(cls, matrix) -> "FactoredSequence":
        n = len(matrix)
        return cls.build(matrix, (0,) * n, linalg.identity(n))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def is_constant(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def matrix(self) -> ProjMatrix:
        """b(t) as a projective Laurent matrix, each t^w_k built (and its
        exponent checked) once."""
        powers = [LaurentScalar.t(w) for w in self.weights]
        return ProjMatrix._of(factored_product(self.left, powers, self.right), self.dim)

    def inverse(self) -> "FactoredSequence":
        """right^-1 diag(t^-w) left^-1: the stored factors and inverses swapped."""
        return FactoredSequence(
            self.right_inv, tuple(-w for w in self.weights), self.left_inv, self.right, self.left
        )

    def compose(self, other: "FactoredSequence") -> "FactoredSequence":
        """The product sequence self(t) * other(t), kept in factored form.

        Works whenever one of the two is constant or the middle product
        mid = right_1 * left_2 is monomial (one nonzero entry per row), e.g.
        for diagonal sequences or permutation factors; raises NotFactorable
        otherwise.  mid is formed once in every case, as sparse rows.
        """
        if self.dim != other.dim:
            raise NotFactorable("dimension mismatch")
        mid = _product(self.right, other.left)
        if self.is_constant():
            permuted = self.weights  # t^s commutes with any mid
        elif other.is_constant():
            weights = tuple(w + other.weights[0] for w in self.weights)
            return FactoredSequence._of(self.left, weights, _product(mid, other.right), left_inv=self.left_inv)
        elif any(len(row) != 1 for row in mid):
            raise NotFactorable("middle factor is not monomial; product has no factored form")
        else:
            # mid is invertible with the one entry of row i in column perm(i),
            # so diag(t^w1) * mid = mid * diag(t^{w1 permuted}).
            permuted = tuple(self.weights[i] for i in invert_permutation([j for ((j, _),) in mid]))
        weights = tuple(p + w for p, w in zip(permuted, other.weights))
        return FactoredSequence._of(_product(self.left, mid), weights, other.right, right_inv=other.right_inv)

    # -- actions -------------------------------------------------------

    def conjugate(self, x) -> ProjMatrix:
        """Ad_{b(t)} x = b(t) x b(t)^-1 for a rational n x n matrix x: Ad_R,
        then t^(w_i - w_j) on entry (i, j), then Ad_L."""
        n = self.dim
        x = linalg.frac_rows(x)
        if len(x) != n or any(len(row) != n for row in x):
            raise DimError(f"conjugation by a sequence of dimension {n} needs a {n}x{n} matrix")
        [y] = conjugate_flat(self.right, self.right_inv, [linalg.nonzero_flat(x)], n)
        w = self.weights
        graded = {p: LaurentScalar.monomial(v, w[p // n] - w[p % n]) for p, v in y.items()}
        [z] = conjugate_flat(self.left, self.left_inv, [graded], n)
        return ProjMatrix._of(linalg.flat_rows(z, n), n)


def _times(rows: SparseRows, x: list[Fraction]) -> list[Fraction]:
    """rows * x for rational sparse rows and a dense rational vector: x itself
    for the identity, and a row with one entry relabels, with no sum formed."""
    if is_identity(rows):
        return x
    return [_dot(row, x) for row in rows]


def _dot(row, x: list[Fraction]) -> Fraction:
    """One sparse row times x: a row with one entry reads x[j], scaled unless
    the entry is 1."""
    if len(row) == 1:
        [(j, a)] = row
        return x[j] if a == 1 else a * x[j]
    return sum(a * x[j] for j, a in row)


def rational_limit(seq: FactoredSequence, coords: list[Fraction]) -> list[Fraction]:
    """The canonical coordinates of the t -> 0 limit of b(t) x for a nonzero
    rational point x of the sequence's dimension, by the least-weight rule of
    ``point_limit``: every val(y_i) of y = R x is 0, so v is the least weight
    of a nonzero y_i, and z is y on the coordinates of that weight.  No
    Laurent arithmetic at all.

    >>> rational_limit(FactoredSequence.diagonal([1, 0, 0]), [Fraction(2), Fraction(4), Fraction(-1)])
    [Fraction(0, 1), Fraction(1, 1), Fraction(-1, 4)]
    """
    w = seq.weights
    y = _times(seq.right, coords)
    v = min(w[i] for i, c in enumerate(y) if c)
    return _canonical(_times(seq.left, [c if w[i] == v else _NOUGHT for i, c in enumerate(y)]))


def point_limit(seq: FactoredSequence, point: ProjPoint | list) -> ProjPoint:
    """Canonical t -> 0 limit of b(t) x, read off the least weight.

    Let y = R x, so that b(t) x = L diag(t^w) y, whose entry i has least
    exponent w_i + val(y_i).  Let v be the least of these over the nonzero
    y_i, and z_i the coefficient of t^(v - w_i) in y_i (0 for y_i = 0).  Then
    z != 0, and L z is the coefficient of t^v in b(t) x; no lower power
    occurs, since L is constant.  L is invertible, so L z != 0 and v is the
    least exponent of b(t) x: its limit is the class of L z.  A rational
    point takes ``rational_limit``.  The rule equals the canonical limit of
    the Laurent point b(t) x.

    >>> seq = FactoredSequence.diagonal([1, 0, 2])
    >>> str(point_limit(seq, ["t^-1 + 5", "3 + t", "t^-1"]))  # w_i + val(y_i): 0, 0, 1
    '[1, 3, 0]'
    >>> str(point_limit(seq, [0, 2, 4]))
    '[0, 1, 0]'
    """
    x = point.coords if isinstance(point, ProjPoint) else list(point)
    rational = _rationals(x)
    if rational is not None:
        rational = _canonical(rational)  # ZeroMatrix for the zero vector
    else:
        x = [lau(c) for c in x]
    if len(x) != seq.dim:
        raise DimError(f"point has {len(x)} coordinates, sequence dimension is {seq.dim}")
    if rational is not None:
        return ProjPoint._of_rationals(rational_limit(seq, rational))
    y = [rational_combination((a, x[j]) for j, a in row) for row in seq.right]
    v = min(seq.weights[i] + e.min_exponent() for i, e in enumerate(y) if e)
    z = [e.coefficient(v - w) for w, e in zip(seq.weights, y)]
    return ProjPoint._of_rationals(_canonical(_times(seq.left, z)))
