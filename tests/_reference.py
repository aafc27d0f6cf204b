"""Dense Gauss-Jordan references for the exact linear algebra, the
solve-and-kernel gauge test for the rank test of ``gauge_equivalent``, the
dense permutation matrix, the matrix commutator for the dense Lie oracles, the inertia of a symmetric matrix by
Descartes' rule on its Faddeev-LeVerrier characteristic polynomial for the
congruence-elimination oracle, the dense Laurent matrix product for
the factored-sequence oracles, the Laurent push of a point through a
factored sequence for the point-limit oracles, the Laurent point route
(``ProjPoint`` read, Laurent limit, ``LaurentScalar.__str__`` text) for the
rational point route, the dense Young
symmetrizer matrix for the symmetrizer-basis oracles, random scaled
permutation factors for the monomial-factor oracles, and the truncated
formal sum Delta for the lazy ``young._delta_terms_in``.

They share no code with ``projlim.linalg``, so the tests that check the one
row elimination (``linalg.Echelon``) and the routines read off it, and the
dense oracles of the Lie core and the correlator, compare against an
independent elimination.  Two sparse oracles of the Lie core are the
exceptions, and use the package's own readers, elimination and commutator: the
split-rule contraction ``split_rule_contract``, which ``lie.contract`` must
equal byte for byte, and ``_limit_morphism``, the sigma-chain step check that
brackets every partner pair of the images, against which the filter check
of ``lie.iw_contract`` is compared.
"""

import itertools
from fractions import Fraction
from typing import Dict, Iterable

from projlim import linalg
from projlim.errors import DimError, NotSubalgebra, ProjlimError, TooLarge
from projlim.laurent import LaurentScalar, lau, rational_combination
from projlim.lie import BracketTable, LieAlgebraSpan, _commutator_partners, _sparse_bracket
from projlim.projective import ProjPoint
from projlim.young import (
    _SYMMETRIZER_CAP,
    DIM_FUND,
    _diagram_cells,
    _group_permutations,
    boxes,
    conjugate_diagram,
    validate_diagram,
)


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


def reference_gauge_equivalent(w1, w2):
    """Whether w2 = alpha*w1 + beta*(1, 1, 1, 1, -1) with alpha != 0, by
    solving the 5 x 2 system and reading its kernel: a solution with a
    nonzero kernel (w1 zero or parallel to the gauge direction) lets alpha
    take any value."""
    columns = [[Fraction(a), Fraction(g)] for a, g in zip(w1, (1, 1, 1, 1, -1))]
    solution = reference_solve(columns, list(w2))
    if solution is None:
        return False
    return bool(reference_nullspace(columns)) or solution[0] != 0


def permutation_matrix(perm):
    """The matrix M with M[i][perm[i]] = 1, acting on points by
    (Mx)_i = x_{perm(i)}; Ad_M sends E_ij to E_{perm^-1(i), perm^-1(j)}."""
    n = len(perm)
    assert sorted(perm) == list(range(n)), perm
    return [[Fraction(int(j == perm[i])) for j in range(n)] for i in range(n)]


def reference_characteristic_polynomial(a):
    """Coefficients [c_n = 1, c_(n-1), ..., c_0] of det(x I - A), highest
    degree first, by the Faddeev-LeVerrier recursion
    M_k = A M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(A M_k) / k."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][r] * m[r][j] for r in range(n)) + (coeffs[-1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(a[i][r] * m[r][i] for i in range(n) for r in range(n))
        coeffs.append(-trace / k)
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def reference_symmetric_signature(a):
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix by Descartes'
    rule of signs on its characteristic polynomial, which counts the
    positive and negative roots exactly when every root is real."""
    coeffs = reference_characteristic_polynomial(a)
    n = len(coeffs) - 1
    zero = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
    mirrored = [c if (n - d) % 2 == 0 else -c for d, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(mirrored), zero


def reference_commutator(a, b):
    """The matrix commutator ab - ba, dense row by row: row i adds a_ik times
    row k of b and subtracts b_ik times row k of a (zero factors skipped)."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for x, y, sign in ((a[i][k], b[k], 1), (b[i][k], a[k], -1)):
                if x:
                    for j in range(n):
                        out[i][j] += sign * x * y[j]
    return out


def random_scaled_permutation(rng, m, values):
    """A random m x m permutation matrix with each 1 replaced by a choice from values."""
    order = rng.sample(range(m), m)
    return [[Fraction(rng.choice(values)) if j == order[i] else Fraction(0) for j in range(m)] for i in range(m)]


def lmat_from_rational(m):
    """The dense Laurent matrix of constants with the rational entries of m."""
    return [[LaurentScalar.constant(x) for x in row] for row in m]


def lmat_mul(a, b):
    """The product of two dense matrices of Laurent scalars, entry by entry."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[LaurentScalar.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for s in range(k):
            c = a[i][s]
            if c.is_zero():
                continue
            for j in range(m):
                if not b[s][j].is_zero():
                    out[i][j] = out[i][j] + c * b[s][j]
    return out


def reference_apply_to_point(seq, point):
    """b(t) x as a projective point: the rational rows of right, the weights
    and the rational rows of left applied to the Laurent vector, which is
    then made canonical.  Its ``limit()`` is the oracle of the least-weight
    ``projective.point_limit``."""
    x = point.coords if isinstance(point, ProjPoint) else [lau(c) for c in point]
    if len(x) != seq.dim:
        raise DimError(f"point has {len(x)} coordinates, sequence dimension is {seq.dim}")
    v = [rational_combination((a, x[j]) for j, a in row).shift(w) for row, w in zip(seq.right, seq.weights)]
    return ProjPoint([rational_combination((a, v[j]) for j, a in row) for row in seq.left])


def reference_side(sig, coords):
    """``in_model_space`` by its definition: the sign of
    -x_0^2 - ... - x_{p0-1}^2 + x_{p0}^2 + ... + x_{p0+q0-1}^2."""
    p0, q0 = sig[0]
    value = Fraction(0)
    for i, c in enumerate(coords[: p0 + q0]):
        value += (-1 if i < p0 else 1) * Fraction(c) * Fraction(c)
    return "interior" if value < 0 else "boundary" if value == 0 else "outside"


def reference_point_route(deg, x):
    """The classification of a sample point by the Laurent route the rational
    one replaced: the point read as a ``ProjPoint``, its limit the canonical
    limit of the Laurent point b(t) x (``reference_apply_to_point``), both
    printed through ``LaurentScalar.__str__``, and membership by the form's
    definition (``reference_side``).  ``deg`` needs sig, seq, m, limit_sig,
    perm and rank, as a ``Degeneration`` has them.  Returns (kind, text in,
    text out, vanishing, limit point); a refusal raises the error the package
    raises, with its text."""
    point = x if isinstance(x, ProjPoint) else ProjPoint(list(x))
    coords = point.constant_coords()
    if len(coords) != deg.m:
        raise DimError(f"expected {deg.m} coordinates, got {len(coords)}")
    if reference_side(deg.sig, coords) != "interior":
        raise ProjlimError("point is not interior to the model space")
    # t x depends on t, so it is made canonical by the Laurent route; its class is x's.
    text_in = str(ProjPoint([LaurentScalar.t() * c for c in point.coords]))
    y = reference_apply_to_point(deg.seq, point).limit()
    y_coords = y.constant_coords()
    inverse = sorted(range(deg.m), key=deg.perm.__getitem__)
    side = reference_side(deg.limit_sig, [y_coords[j] for j in inverse])
    if side == "outside":
        raise ProjlimError(
            "interior point escaped the closed limit model space; "
            "the sequence does not degenerate this geometry"
        )
    kind = "boundary" if side == "boundary" else "interior_generic" if deg.rank == deg.m else "interior_lower_dim"
    return kind, text_in, str(y), y.zero_pattern(), y


def reference_symmetrizer_matrix(lam: Iterable[int]) -> tuple[list[list[Fraction]], list[tuple[int, ...]]]:
    """Matrix of the Young symmetrizer c = (row symmetrize) o (column
    antisymmetrize) on (C^5) tensor power boxes(lam), together with the
    ordered list of index tuples labeling the tensor basis.

    Capped at 3 boxes (the 125-dimensional cube).
    """
    lam = validate_diagram(lam)
    p = boxes(lam)
    if p > _SYMMETRIZER_CAP:
        raise TooLarge(f"symmetrizer construction is capped at {_SYMMETRIZER_CAP} boxes")
    tuples = list(itertools.product(range(DIM_FUND), repeat=p))
    index_of = {tup: k for k, tup in enumerate(tuples)}
    dim = DIM_FUND ** p
    if p == 0:
        return [[Fraction(1)]], tuples
    cells = _diagram_cells(lam)
    number = {cell: k for k, cell in enumerate(cells)}
    rows = [
        [number[(r, c)] for c in range(row_len)] for r, row_len in enumerate(lam)
    ]
    cols_shape = conjugate_diagram(lam)
    cols = [
        [number[(r, c)] for r in range(col_len)] for c, col_len in enumerate(cols_shape)
    ]
    row_perms = _group_permutations(rows, p)
    col_perms = _group_permutations(cols, p)

    # Apply b (antisymmetrize columns with signs), then a (symmetrize rows).
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for tup in tuples:
        j = index_of[tup]
        b_image: Dict[tuple[int, ...], int] = {}
        for perm, sign in col_perms:
            moved = tuple(tup[perm[k]] for k in range(p))
            b_image[moved] = b_image.get(moved, 0) + sign
        for mid, coeff in b_image.items():
            if coeff == 0:
                continue
            for perm, _ in row_perms:
                moved = tuple(mid[perm[k]] for k in range(p))
                matrix[index_of[moved]][j] += coeff
    return matrix, tuples


def delta_terms(max_boxes):
    """The formal sum Delta truncated at max_boxes boxes: every diagram with
    even row lengths, i.e. the partitions of n <= max_boxes / 2 with each row
    doubled."""

    def partitions(n, top):
        if not n:
            yield ()
        for first in range(min(n, top), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    return [tuple(2 * r for r in part) for n in range(max_boxes // 2 + 1) for part in partitions(n, n)]


def split_rule_contract(h, t_indices):
    """The contraction along the subalgebra spanned by basis indices, by the
    split rule: keep [t, t] whole (NotSubalgebra when it leaves t), project
    [t, t^c] onto the complement and kill [t^c, t^c]; every kept coefficient
    is read through ``Fraction`` into a fresh table, marked antisymmetric when
    the source is known to be.  ``lie.contract`` is the 0/-1 case of
    ``lie.iw_contract``."""
    table = h.structure_constants() if isinstance(h, LieAlgebraSpan) else h
    n = table.dim
    t_set = sorted(set(linalg.integers(t_indices, "contraction indices")))
    if any(i < 0 or i >= n for i in t_set):
        raise DimError(f"contraction indices out of range for dimension {n}")
    in_t = [i in t_set for i in range(n)]
    brackets = {}
    for i, j, coeffs in table.brackets():
        if in_t[i] and in_t[j]:
            if any(not in_t[k] for k in coeffs):
                raise NotSubalgebra(f"indices {t_set} do not span a subalgebra: [e_{i}, e_{j}] leaves the span")
            brackets[i, j] = coeffs
        elif in_t[i] != in_t[j]:
            brackets[i, j] = {k: c for k, c in coeffs.items() if not in_t[k]}
    rows = [{} for _ in range(n)]
    for (i, j), coeffs in sorted(brackets.items()):
        nonzero = {k: Fraction(x) for k, x in sorted(coeffs.items()) if x}
        if nonzero:
            rows[i][j] = nonzero
    return BracketTable._of(rows, table._antisymmetric or None)


def _limit_morphism(images, source, limit):
    """The map sending source basis vector i to the flattened matrix
    ``images[i]``, as a matrix in the basis of ``limit``, and whether it is
    an isomorphism of Lie algebras onto the limit (of the same dimension).

    The check reads the images directly, which is ``verify_morphism``
    against the limit's table: they lie in the limit and are independent,
    and [img_i, img_j] = sum_k c^k_ij img_k as matrices for the commutator
    partners of the images and the pairs with c_ij nonzero (both sides are
    zero for every other pair).  Commutators are antisymmetric, so a source
    table that is not fails.  An image outside the limit gets a zero column.
    """
    n, m = len(images), limit.m
    coords = [limit._coordinates(img) for img in images]
    zero = Fraction(0)
    morphism = [[(c or {}).get(r, zero) for c in coords] for r in range(n)]
    if any(c is None for c in coords) or not linalg.Echelon().extend(coords) or not source.is_antisymmetric():
        return morphism, False
    rows = [linalg.flat_rows(img, m) for img in images]
    pairs = set(_commutator_partners(images, m)) | {(i, j) for i, j, _ in source.brackets() if i < j}
    for i, j in pairs:
        image = {}
        for k, c in source._rows[i].get(j, {}).items():
            for p, x in images[k].items():
                image[p] = image.get(p, 0) + c * x
        if _sparse_bracket(rows[i], rows[j], m) != {p: x for p, x in image.items() if x}:
            return morphism, False
    return morphism, True
