"""Reference mathematics the benchmark checks projlim's outputs against.

Everything here is written from the definitions, in plain Python over
``Fraction``, and never imports projlim, so a check fails when projlim is
wrong rather than agreeing with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# Permutations and exact linear algebra
# ---------------------------------------------------------------------------


def perm_matrix(perm):
    """P with P[i][perm[i]] = 1, so (P x)_i = x_perm(i)."""
    n = len(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def inverse_perm(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def cycle_text(perm):
    """Cycle notation ``(a perm[a] perm[perm[a]] ...)...`` for a permutation."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rank(rows):
    """Rank by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def same_span(a, b):
    """Whether two lists of flat vectors span the same space."""
    ra = rank(a)
    return ra == rank(b) and rank(a + b) == ra


def flatten(mat):
    return [x for row in mat for x in row]


# ---------------------------------------------------------------------------
# Orthogonal block algebras and their limits along permuted diagonal sequences
# ---------------------------------------------------------------------------


def signatures(m):
    """All ordered block signatures ((p, q), ...) with p >= q >= 0 summing to m,
    sorted lexicographically."""
    out = []

    def extend(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for size in range(1, remaining + 1):
            for q in range(size // 2 + 1):
                extend(prefix + [(size - q, q)], remaining - size)

    extend([], m)
    return sorted(out)


def po_basis(sig):
    """Basis of po(sig) as m x m integer matrices.

    Inside each block the form is J = diag(-1 x p, +1 x q) and the generators
    are E_ab - J_a J_b E_ba (a < b); between blocks every matrix unit E_rc
    with r in a later block than c.
    """
    m = sum(p + q for p, q in sig)
    block_of, sign = [], []
    for k, (p, q) in enumerate(sig):
        block_of += [k] * (p + q)
        sign += [-1] * p + [1] * q
    basis = []
    for a in range(m):
        for b in range(a + 1, m):
            if block_of[a] == block_of[b]:
                x = [[0] * m for _ in range(m)]
                x[a][b] = 1
                x[b][a] = -sign[a] * sign[b]
                basis.append(x)
    for r in range(m):
        for c in range(m):
            if block_of[r] > block_of[c]:
                x = [[0] * m for _ in range(m)]
                x[r][c] = 1
                basis.append(x)
    return basis


def conjugate(x, g, g_inv):
    return mat_mul(mat_mul(g, x), g_inv)


def limit_span(sig, left, weights, right):
    """Exact t -> 0 limit of Ad_{L diag(t^w) R} po(sig) for permutations L, R.

    After conjugating by R each basis element is supported on one matrix unit
    or one symmetric pair of units, and distinct elements have disjoint
    supports, so the limit is spanned by the lowest-grade part of each.
    """
    m = len(weights)
    lmat, rmat = perm_matrix(left), perm_matrix(right)
    linv, rinv = perm_matrix(inverse_perm(left)), perm_matrix(inverse_perm(right))
    out = []
    for x in po_basis(sig):
        y = conjugate(x, rmat, rinv)
        cells = [(i, j) for i in range(m) for j in range(m) if y[i][j] != 0]
        low = min(weights[i] - weights[j] for i, j in cells)
        lead = [[0] * m for _ in range(m)]
        for i, j in cells:
            if weights[i] - weights[j] == low:
                lead[i][j] = y[i][j]
        out.append(conjugate(lead, lmat, linv))
    return out


def limit_signature(sig, weights, right):
    """Signature of the limit: each block splits into runs of equal weight,
    ordered by decreasing weight, and each run keeps its count of negative
    and positive form directions (written larger first)."""
    perm = inverse_perm(right)  # coordinate a of po(sig) sits at position perm[a]
    out = []
    start = 0
    for p, q in sig:
        coords = range(start, start + p + q)
        groups = {}
        for a in coords:
            neg, pos = groups.get(weights[perm[a]], (0, 0))
            if a - start < p:
                neg += 1
            else:
                pos += 1
            groups[weights[perm[a]]] = (neg, pos)
        for w in sorted(groups, reverse=True):
            neg, pos = groups[w]
            out.append((max(neg, pos), min(neg, pos)))
        start += p + q
    return tuple(out)


def spans_limit(limit_sig, perm, limit_basis):
    """Whether Ad_{P(perm)} po(limit_sig) spans the given basis."""
    pmat, pinv = perm_matrix(perm), perm_matrix(inverse_perm(perm))
    ours = [flatten(conjugate(x, pmat, pinv)) for x in po_basis(limit_sig)]
    return same_span(ours, [flatten(x) for x in limit_basis])


# ---------------------------------------------------------------------------
# Point limits
# ---------------------------------------------------------------------------


def point_limit(left, weights, right, x):
    """Projective t -> 0 limit of L diag(t^w) R x for rational L, R.

    Only the coordinates of R x of lowest weight among the nonzero ones
    survive; L is invertible, so their image is nonzero.
    """
    v = [sum(Fraction(right[i][j]) * x[j] for j in range(len(x))) for i in range(len(x))]
    low = min(w for w, c in zip(weights, v) if c != 0)
    kept = [c if w == low else Fraction(0) for w, c in zip(weights, v)]
    return [sum(Fraction(left[i][j]) * kept[j] for j in range(len(kept))) for i in range(len(kept))]


def proportional(a, b):
    """Whether two vectors are nonzero multiples of each other."""
    if len(a) != len(b):
        return False
    if [x == 0 for x in a] != [y == 0 for y in b]:
        return False
    k = next((i for i, x in enumerate(a) if x != 0), None)
    if k is None:
        return False
    ratio = Fraction(b[k]) / Fraction(a[k])
    return all(Fraction(y) == ratio * x for x, y in zip(a, b))


def first_block_form(sig, x):
    """-x_0^2 - ... - x_{p0-1}^2 + x_{p0}^2 + ... + x_{p0+q0-1}^2."""
    p0, q0 = sig[0]
    return -sum(Fraction(c) ** 2 for c in x[:p0]) + sum(Fraction(c) ** 2 for c in x[p0 : p0 + q0])


# ---------------------------------------------------------------------------
# GL(5) / sl(5) dimensions and weights
# ---------------------------------------------------------------------------

N = 5


def gl5_dim(lam):
    """Hook-content formula: prod over cells of (5 + col - row) / hook."""
    if len(lam) > N:
        return 0
    conj = [sum(1 for r in lam if r > c) for c in range(lam[0])] if lam else []
    num = den = 1
    for r, row in enumerate(lam):
        for c in range(row):
            num *= N + c - r
            den *= row - c + conj[c] - r - 1
    return num // den


def sl5_pair_dim(lam, lam_bar):
    """Weyl formula for the highest weight lam - reverse(lam_bar) of GL(5)."""
    a = list(lam) + [0] * (N - len(lam))
    b = list(lam_bar) + [0] * (N - len(lam_bar))
    mu = [a[i] - b[N - 1 - i] for i in range(N)]
    num = den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    return num // den


def lr_dimension_ok(lam, mu, decomposition):
    """sum_nu c_nu dim(nu) == dim(lam) dim(mu) over GL(5)."""
    total = sum(c * gl5_dim(nu) for nu, c in decomposition.items())
    return total == gl5_dim(lam) * gl5_dim(mu)


def is_column(lam):
    return all(r == 1 for r in lam)


def semistandard_tableaux(lam, n=N):
    """Contents (tuples of entries 0..n-1, row by row) of the semistandard
    tableaux of shape lam: rows weakly increase, columns strictly increase."""
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]
    out = []
    for values in product(range(n), repeat=len(cells)):
        grid = dict(zip(cells, values))
        if all(
            (c == 0 or grid[(r, c - 1)] <= v) and (r == 0 or grid[(r - 1, c)] < v)
            for (r, c), v in grid.items()
        ):
            out.append(values)
    return out


def extreme_weight_multiplicity(lam, weights, highest):
    """How many weight vectors of S_lam(C^5) reach the largest (or smallest)
    total weight sum(weights[entry])."""
    totals = [sum(weights[v] for v in t) for t in semistandard_tableaux(lam)]
    target = max(totals) if highest else min(totals)
    return totals.count(target)
