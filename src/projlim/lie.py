"""Lie subalgebras of pgl_m(R): spans, limits, contractions, invariants.

Spans, limits, matches and invariants eliminate with ``linalg.Echelon``, the
one row elimination, over the nonzero entries of their vectors, and read
coordinates in a basis off its pivots with ``linalg.pivot_inverse``.
Subalgebras are stored as spans of trace-free matrices, flattened to their
nonzero entries (``basis`` is a dense view), each with the echelon of its
basis; membership, closure, structure constants, span equality and limit
matching all reduce against it, and the closure check keeps the table of
structure constants it builds.  Conjugacy limits along factored sequences
are computed exactly through the weight filtration: in the diagonal frame,
grade every matrix position (i, j) by w_i - w_j, eliminate with the columns
in ascending grade order, keep the lowest-grade part of each echelon row (its
initial form), and conjugate the resulting span back.  Abstract (basis-only)
Lie algebras are handled as structure-constant tables, which is what
contractions produce; a table stores only its nonzero entries, and
invariants, contractions and morphism checks iterate over those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (
    DecompositionError,
    DimError,
    EmbeddingError,
    NoMatch,
    NotClosed,
    NotSubalgebra,
    SignatureError,
)
from .linalg import Mat
from .projective import FactoredSequence, invert_permutation

Signature = tuple[tuple[int, int], ...]
Sparse = dict[int, Fraction]  # nonzero entries {position: value} of a vector


def _nonzero_flat(x: Mat) -> Sparse:
    """The nonzero entries of the flattened matrix, as {position: value}."""
    m = len(x)
    return {i * m + j: v for i, row in enumerate(x) for j, v in enumerate(row) if v}


def _nonzero_rows(v: Sparse, m: int) -> list[list[tuple[int, Fraction]]]:
    """For each row of the flattened m x m matrix v, its nonzero (column, value) entries."""
    return [[(p % m, x) for p, x in v.items() if p // m == i] for i in range(m)]


def _sparse_bracket(a, b, m: int) -> dict[int, Fraction]:
    """The nonzero entries of the flattened commutator ab - ba of two m x m
    matrices given by their ``_nonzero_rows``."""
    out: dict[int, Fraction] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, row in enumerate(x):
            for k, u in row:
                if sign < 0:
                    u = -u
                for j, v in y[k]:
                    p = i * m + j
                    out[p] = out.get(p, 0) + u * v
    return {p: v for p, v in out.items() if v}


def _matrix(v: Sparse, m: int) -> Mat:
    """The m x m matrix with the given nonzero flattened entries."""
    x = linalg.zeros(m, m)
    for p, c in v.items():
        x[p // m][p % m] = c
    return x


def _conjugate(g: Mat, ginv: Mat, vectors: list[Sparse], m: int) -> list[Sparse]:
    """g x g^-1 for each flattened matrix x, from the nonzero entries only:
    (g x g^-1)_il = sum over nonzero x_jk of g_ij x_jk (g^-1)_kl."""
    columns = [[(i, g[i][j]) for i in range(m) if g[i][j]] for j in range(m)]
    inv_rows = _nonzero_rows(_nonzero_flat(ginv), m)
    out = []
    for v in vectors:
        acc: Sparse = {}
        for p, x in v.items():
            j, k = divmod(p, m)
            for l, b in inv_rows[k]:
                xb = x * b
                for i, a in columns[j]:
                    q = i * m + l
                    acc[q] = acc.get(q, 0) + a * xb
        out.append({q: y for q, y in acc.items() if y})
    return out


def _echelon_by(vectors: list[Sparse], key: list) -> list[tuple[object, Sparse]]:
    """Echelon basis of span(vectors), eliminating columns in ascending ``key``.

    Returns (key of the pivot column, row) pairs in pivot order, with rows
    in the original columns.  Each row vanishes on every column whose key is
    below the key of its pivot, so the rows whose pivot key is at least k
    span the vectors of the span that vanish on all columns with key below k.
    """
    echelon = linalg.Echelon(sorted(range(len(key)), key=key.__getitem__))
    for v in vectors:
        echelon.insert(v)
    return [(key[p], row) for p, row in echelon.canonical()]


class LieAlgebraSpan:
    """Span of trace-free matrices in pgl_m(R), closed under the commutator.

    The basis is stored once, in the given order, as the nonzero entries of
    each flattened matrix; ``basis`` is a dense view.  Closure is verified
    unless ``check_closed=False`` by bracketing every pair of basis elements
    once, and the span keeps the structure-constant table this builds.
    """

    def __init__(self, m: int, basis, *, check_closed: bool = True):
        self.m = int(m)
        self._init([self._trace_free(x) for x in basis], check_closed)

    @classmethod
    def _of(cls, m: int, flat: list[Sparse], check_closed: bool = True) -> "LieAlgebraSpan":
        """The span of flattened matrices, with no trace removal: the spans
        built here are conjugates, initial (lowest-grade) forms or paddings
        of trace-free matrices, so they are trace-free already."""
        span = cls.__new__(cls)
        span.m = m
        span._init(flat, check_closed)
        return span

    def _init(self, flat: list[Sparse], check_closed: bool) -> None:
        self._flat = flat
        # The one elimination of the span: the echelon of the flattened basis.
        self._echelon = linalg.Echelon()
        if not all(self._echelon.insert(v) for v in flat):
            raise DimError("basis matrices are linearly dependent after trace removal")
        self._nonzero_basis = [_nonzero_rows(v, self.m) for v in flat]
        self._table: BracketTable | None = None
        self._from_echelon: dict[int, list[tuple[int, Fraction]]] | None = None
        if check_closed and not self.is_closed():
            raise NotClosed("span is not closed under the matrix commutator")

    def _trace_free(self, x) -> Sparse:
        rows = linalg.frac_rows(x)
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise DimError(f"basis matrix is not {self.m}x{self.m}")
        tr = sum(rows[i][i] for i in range(self.m))
        if tr != 0:
            shift = tr / self.m
            for i in range(self.m):
                rows[i][i] -= shift
        return _nonzero_flat(rows)

    def _coordinates(self, v: Sparse) -> Sparse | None:
        """Nonzero coordinates {k: x} in the given basis of a flattened matrix,
        given by its nonzero entries, or None when it lies outside the span."""
        coords = self._echelon.coordinates(v)
        if coords is None:
            return None
        if self._from_echelon is None:
            self._from_echelon = linalg.pivot_inverse(self._flat, list(self._echelon.rows))
        out: Sparse = {}
        for p, y in coords.items():
            for k, t in self._from_echelon[p]:
                out[k] = out.get(k, 0) + y * t
        return {k: x for k, x in sorted(out.items()) if x}

    @property
    def dim(self) -> int:
        return len(self._flat)

    @property
    def basis(self) -> list[Mat]:
        """The basis as dense m x m matrices, built afresh on each access."""
        return [_matrix(v, self.m) for v in self._flat]

    def contains(self, x: Mat) -> bool:
        return self._echelon.coordinates(self._trace_free(x)) is not None

    def is_closed(self) -> bool:
        """Whether every bracket of basis elements stays in the span.  A
        closed span keeps the table this check builds, so that
        ``structure_constants()`` costs nothing more."""
        if self._table is None:
            try:
                self._table = self._bracket_table()
            except NotClosed:
                return False
        return True

    def span_equals(self, other: "LieAlgebraSpan") -> bool:
        return self.m == other.m and self._echelon.rows == other._echelon.rows

    def structure_constants(self) -> "BracketTable":
        """Structure constants c^k_{ij} with [e_i, e_j] = sum_k c^k_{ij} e_k.

        The table of the closure check; an unchecked span builds it here, and
        raises NotClosed when a bracket leaves the span.
        """
        if self._table is None:
            self._table = self._bracket_table()
        return self._table

    def _bracket_table(self) -> "BracketTable":
        """Bracket each pair of basis elements once and reduce it against the
        echelon rows; NotClosed when a bracket leaves the span."""
        brackets: dict[tuple[int, int], Sparse] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                br = _sparse_bracket(self._nonzero_basis[i], self._nonzero_basis[j], self.m)
                coords = self._coordinates(br)
                if coords is None:
                    raise NotClosed(f"bracket of basis elements {i}, {j} leaves the span")
                brackets[i, j] = coords
                brackets[j, i] = {k: -x for k, x in coords.items()}
        return BracketTable._from_brackets(self.dim, brackets)

    def __repr__(self) -> str:
        return f"LieAlgebraSpan(m={self.m}, dim={self.dim})"


class BracketTable:
    """Structure constants of an abstract Lie algebra in a fixed basis.

    Only the nonzero entries are stored: for each (i, j) with a nonzero
    bracket, {k: c^k_{ij}} in ascending k.  Every invariant below iterates
    over those entries.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, c):
        planes = [[list(row) for row in plane] for plane in c]
        n = len(planes)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in planes):
            raise DimError("structure constants must form an n x n x n array")
        brackets = {(i, j): dict(enumerate(row)) for i, plane in enumerate(planes) for j, row in enumerate(plane)}
        table = self._from_brackets(n, brackets)
        self.dim, self._rows = table.dim, table._rows

    @classmethod
    def _from_brackets(cls, n: int, brackets: dict) -> "BracketTable":
        """The table with [e_i, e_j] = sum_k brackets[i, j][k] e_k (missing
        pairs and zero values are zero brackets)."""
        rows: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]
        for (i, j), coeffs in sorted(brackets.items()):
            nonzero = {k: Fraction(x) for k, x in sorted(coeffs.items()) if x}
            if nonzero:
                rows[i][j] = nonzero
        table = cls.__new__(cls)
        table.dim = n
        # _rows[i][j] = {k: c^k_ij}, nonzero entries only, keys ascending.
        table._rows = tuple(rows)
        return table

    def brackets(self):
        """Every nonzero bracket as (i, j, {k: c^k_ij}), in ascending (i, j)."""
        for i, row in enumerate(self._rows):
            for j, coeffs in row.items():
                yield i, j, coeffs

    def is_antisymmetric(self) -> bool:
        return all(
            self._rows[j].get(i) == {k: -c for k, c in coeffs.items()}
            for i, j, coeffs in self.brackets()
        )

    def _ad(self, i: int, v: Sparse) -> Sparse:
        """[e_i, v] for a vector given by its nonzero coordinates."""
        out: Sparse = {}
        row = self._rows[i]
        for j, y in v.items():
            coeffs = row.get(j)
            if coeffs:
                for k, c in coeffs.items():
                    out[k] = out.get(k, 0) + y * c
        return out

    def _bracket(self, u: Sparse, v: Sparse) -> Sparse:
        """[u, v] for vectors given by their nonzero coordinates."""
        out: Sparse = {}
        for i, x in u.items():
            for k, z in self._ad(i, v).items():
                out[k] = out.get(k, 0) + x * z
        return out

    def satisfies_jacobi(self) -> bool:
        """Whether [e_i, [e_j, e_k]] summed cyclically vanishes for every
        i < j < k.  The s-th entry of [e_a, [e_b, e_c]] is the sum of
        c^l_{bc} c^s_{al} over the nonzero entries only."""
        for i, j, k in combinations(range(self.dim), 3):
            total: Sparse = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for s, y in self._ad(a, self._rows[b].get(c, {})).items():
                    total[s] = total.get(s, 0) + y
            if any(total.values()):
                return False
        return True

    def is_abelian(self) -> bool:
        return not any(self._rows)

    # -- subspace machinery for invariants --------------------------------

    def derived_series_dims(self) -> tuple[int, ...]:
        # With [v, u] = -[u, v] the pairs u before v span the same space.
        anti = self.is_antisymmetric()
        return self._series_dims(
            lambda cur: (self._bracket(u, v) for r, u in enumerate(cur) for v in (cur[r + 1 :] if anti else cur))
        )

    def lower_central_dims(self) -> tuple[int, ...]:
        return self._series_dims(lambda cur: (self._ad(i, v) for i in range(self.dim) for v in cur))

    def _series_dims(self, step) -> tuple[int, ...]:
        """Dimensions of g, g_1, g_2, ... until they stop falling.  g_1 = [g, g]
        is spanned by the nonzero brackets of basis elements, and g_{r+1} by
        the vectors ``step`` yields from the echelon rows of g_r."""
        dims = [self.dim]
        products = (coeffs for _, _, coeffs in self.brackets())
        while dims[-1]:
            span = linalg.Echelon()
            for p in products:
                if p:
                    span.insert(p)
            if len(span) == dims[-1]:
                break
            dims.append(len(span))
            products = step(list(span.rows.values()))
        return tuple(dims)

    def center_dim(self) -> int:
        n = self.dim
        # For each (j, k) with a nonzero entry, the linear form
        # x -> sum_i x_i c^k_{ij}; the center is their common kernel.
        constraints: dict[tuple[int, int], Sparse] = {}
        for i, j, coeffs in self.brackets():
            for k, c in coeffs.items():
                constraints.setdefault((j, k), {})[i] = c
        forms = linalg.Echelon()
        for v in constraints.values():
            forms.insert(v)
            if len(forms) == n:
                break
        return n - len(forms)

    def killing_matrix(self) -> Mat:
        """K_ij = tr(ad_i ad_j) = sum_{k,l} c^l_{ik} c^k_{jl}, symmetric."""
        n = self.dim
        k_mat = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                row_j = self._rows[j]
                acc = Fraction(0)
                for k, coeffs in self._rows[i].items():
                    for l, a in coeffs.items():
                        b = row_j.get(l, {}).get(k)
                        if b:
                            acc += a * b
                k_mat[i][j] = k_mat[j][i] = acc
        return k_mat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BracketTable):
            return NotImplemented
        return self.dim == other.dim and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.dim, tuple((i, j, tuple(coeffs.items())) for i, j, coeffs in self.brackets())))

    def __repr__(self) -> str:
        return f"BracketTable(dim={self.dim})"


def truncated_exp(x: Mat, order: int) -> Mat:
    """sum_{r<=order} x^r / r! -- a rational approximation of exp(x)."""
    m = len(x)
    x = linalg.frac_rows(x)
    out = linalg.identity(m)
    power = linalg.identity(m)
    fact = 1
    for r in range(1, order + 1):
        power = linalg.mat_mul(power, x)
        fact *= r
        out = [[a + b / fact for a, b in zip(ra, rb)] for ra, rb in zip(out, power)]
    return out


# ---------------------------------------------------------------------------
# Orthogonal block algebras
# ---------------------------------------------------------------------------


def validate_signature(sig, m: int | None = None) -> Signature:
    """Normalize and check a block signature ((p_0,q_0), (p_1,q_1), ...).

    A flat pair of integers denotes a single block, mirroring the text
    syntax where ``(4,1)`` is the one-block signature and ``((4),(1))``
    spells out two blocks.
    """
    sig = tuple(sig)
    if len(sig) == 2 and all(isinstance(entry, int) for entry in sig):
        sig = (sig,)
    blocks = []
    for block in sig:
        if isinstance(block, int):
            block = (block, 0)
        block = tuple(block)
        if len(block) == 1:
            block = (block[0], 0)
        p, q = block
        p, q = int(p), int(q)
        if p < 0 or q < 0 or p + q < 1:
            raise SignatureError(f"invalid block ({p},{q})")
        blocks.append((p, q))
    if not blocks:
        raise SignatureError("signature needs at least one block")
    total = sum(p + q for p, q in blocks)
    if m is not None and total != m:
        raise SignatureError(f"signature blocks sum to {total}, expected {m}")
    return tuple(blocks)


def signature_str(sig: Signature) -> str:
    parts = []
    for p, q in sig:
        parts.append(f"({p})" if q == 0 else f"({p},{q})")
    return "(" + ",".join(parts) + ")" if len(sig) > 1 else parts[0]


def build_po(sig, m: int | None = None) -> LieAlgebraSpan:
    """The block algebra po(sig) in pgl_m(R).

    Basis order: for each block in order, the generators
    M_ab = E_ab - J_a J_b E_ba for a < b inside the block (sorted by (a, b));
    then all strictly-lower cross-block matrix units E_rc sorted row-major.
    J is the block form: -1 on the first p coordinates of a block, +1 after.
    """
    sig = validate_signature(sig, m)
    block = [k for k, (p, q) in enumerate(sig) for _ in range(p + q)]
    jdiag = [j for p, q in sig for j in [-1] * p + [1] * q]
    m = len(block)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m) if block[a] == block[b]]
    units = [(r, c) for r in range(m) for c in range(m) if block[r] > block[c]]
    flat = [{a * m + b: Fraction(1), b * m + a: Fraction(-jdiag[a] * jdiag[b])} for a, b in pairs]
    flat += [{r * m + c: Fraction(1)} for r, c in units]
    return LieAlgebraSpan._of(m, flat, check_closed=False)


# ---------------------------------------------------------------------------
# Conjugacy limits
# ---------------------------------------------------------------------------


def _graded_frame(alg: LieAlgebraSpan, seq: FactoredSequence) -> tuple[list[Sparse], list[int]]:
    """The flattened basis of Ad_R alg (R the right factor of seq) and the
    grade w_i - w_j of every flattened position (i, j)."""
    m = alg.m
    if seq.dim != m:
        raise DimError(f"sequence dimension {seq.dim} != algebra ambient {m}")
    right = seq.right_rows()
    vectors = _conjugate(right, linalg.inverse(right), alg._flat, m)
    w = seq.weights
    return vectors, [w[i] - w[j] for i in range(m) for j in range(m)]


def _conjugate_back(seq: FactoredSequence, vecs: list[Sparse], m: int) -> list[Sparse]:
    """Ad_L of flattened matrices, L the left factor of seq."""
    left = seq.left_rows()
    return _conjugate(left, linalg.inverse(left), vecs, m)


def conjugacy_limit(alg: LieAlgebraSpan, seq: FactoredSequence) -> LieAlgebraSpan:
    """The t -> 0 limit of Ad_{b(t)} alg for a factored sequence b.

    The limit always has the same dimension as ``alg`` and is verified to be
    bracket-closed.
    """
    vectors, grade = _graded_frame(alg, seq)
    # Ordered by grade, the echelon rows are a basis adapted to the weight
    # filtration, so their initial (lowest-grade) parts span the limit.
    initial = linalg.Echelon()
    for d, row in _echelon_by(vectors, grade):
        initial.insert({p: x for p, x in row.items() if grade[p] == d})
    basis_vecs = [row for _, row in initial.canonical()]
    return LieAlgebraSpan._of(alg.m, _conjugate_back(seq, basis_vecs, alg.m))


def z_and_nplus(
    alg: LieAlgebraSpan, seq: FactoredSequence
) -> tuple[LieAlgebraSpan, LieAlgebraSpan]:
    """Split a conjugacy limit into centralizer and contracted translations.

    Returns (z, n_plus): z is the part of ``alg`` commuting with the sequence
    generator (grade-0 in the diagonal frame), n_plus the strictly-positive
    part of the limit with respect to the generator X_b of b_n = exp(n X_b)
    (equivalently the strictly *negative* t-grades).  Their direct sum must be
    the whole conjugacy limit; DecompositionError otherwise.
    """
    m = alg.m
    vectors, grade = _graded_frame(alg, seq)
    z_vecs = [row for zero, row in _echelon_by(vectors, [g == 0 for g in grade]) if zero]

    limit = conjugacy_limit(alg, seq)
    left = seq.left_rows()
    limit_frame = _conjugate(linalg.inverse(left), left, limit._flat, m)
    negative = [g < 0 for g in grade]
    nplus_vecs = [row for neg, row in _echelon_by(limit_frame, negative) if neg]

    both = linalg.Echelon()
    if len(z_vecs) + len(nplus_vecs) != limit.dim or not all(both.insert(v) for v in z_vecs + nplus_vecs):
        raise DecompositionError("centralizer + positive part do not span the conjugacy limit")
    return (
        LieAlgebraSpan._of(m, _conjugate_back(seq, z_vecs, m)),
        LieAlgebraSpan._of(m, _conjugate_back(seq, nplus_vecs, m)),
    )


def embed_and_limit(
    alg: LieAlgebraSpan, m_target: int, seq: FactoredSequence
) -> LieAlgebraSpan:
    """Pad ``alg`` into pgl_{m_target} and take the limit along ``seq``.

    The sequence must be block-diagonal with respect to the embedding: no
    mixing between the first ``alg.m`` coordinates and the padding ones.
    """
    m = alg.m
    if m_target < m:
        raise EmbeddingError(f"target dimension {m_target} below ambient {m}")
    if seq.dim != m_target:
        raise DimError(f"sequence dimension {seq.dim} != target {m_target}")
    for mat in (seq.left_rows(), seq.right_rows()):
        for i in range(m_target):
            for j in range(m_target):
                if (i < m) != (j < m) and mat[i][j] != 0:
                    raise EmbeddingError(
                        "sequence factors mix embedded block with padding"
                    )
    return conjugacy_limit(pad_span(alg, m_target), seq)


def pad_span(alg: LieAlgebraSpan, m_target: int) -> LieAlgebraSpan:
    """``alg`` in the top-left block of pgl_{m_target} (m_target >= alg.m), zeros elsewhere."""
    m = alg.m
    padded = [{(p // m) * m_target + p % m: x for p, x in v.items()} for v in alg._flat]
    return LieAlgebraSpan._of(m_target, padded, check_closed=False)


# ---------------------------------------------------------------------------
# Matching limits against permuted block algebras
# ---------------------------------------------------------------------------


def enumerate_signatures(m: int) -> list[Signature]:
    """All ordered block signatures with p_i >= q_i >= 0 summing to m."""
    out: list[Signature] = []

    def extend(prefix: list[tuple[int, int]], remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for size in range(1, remaining + 1):
            for q in range(0, size // 2 + 1):
                p = size - q
                extend(prefix + [(p, q)], remaining - size)

    extend([], m)
    return sorted(out)


def match_limit_geometry(limit: LieAlgebraSpan) -> tuple[Signature, tuple[int, ...]]:
    """Identify a limit span as Ad_{P(perm)} po(sig), reading both off the span.

    The blocks are the strongly connected components of the span's support
    digraph, ordered by how many coordinates they reach.  In a block with
    smallest coordinate a, E_ab - E_ba in the span gives b the colour of a,
    E_ab + E_ba the other; the larger colour (a's on a tie) is the p part.
    Coordinates in ascending order take the next free index of their part:
    the lexicographically smallest permutation.  One comparison with the
    permuted po(sig) confirms the match, or raises NoMatch.
    """
    m = limit.m
    support = {p for vec in limit._flat for p in vec}
    reach = [[i == j or i * m + j in support for j in range(m)] for i in range(m)]
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    blocks = sorted(
        {tuple(j for j in range(m) if reach[i][j] and reach[j][i]) for i in range(m)},
        key=lambda block: (sum(reach[block[0]]), block),
    )
    sig: list[tuple[int, int]] = []
    perm = [0] * m
    free = iter(range(m))
    for block in blocks:
        a = block[0]
        same, other = [a], []
        for b in block[1:]:
            for sign, part in ((-1, same), (1, other)):
                if limit._echelon.coordinates({a * m + b: 1, b * m + a: sign}) is not None:
                    part.append(b)
                    break
            else:
                raise NoMatch("limit span is not a permuted orthogonal block algebra")
        p_part, q_part = (same, other) if len(same) >= len(other) else (other, same)
        for k in p_part + q_part:
            perm[k] = next(free)
        sig.append((len(p_part), len(q_part)))
    if not _spans_permuted_po(limit, tuple(sig), tuple(perm)):
        raise NoMatch("limit span is not a permuted orthogonal block algebra")
    return tuple(sig), tuple(perm)


def _spans_permuted_po(limit: LieAlgebraSpan, sig: Signature, perm: tuple[int, ...]) -> bool:
    """Whether the limit span is Ad_{P(perm)} po(sig): the permuted basis has
    the limit's dimension and reduces to zero against the limit's echelon."""
    m = limit.m
    inv = invert_permutation(perm)  # Ad_P E_ij = E_{perm^-1(i), perm^-1(j)}
    base = build_po(sig, m)
    return base.dim == limit.dim and all(
        limit._echelon.coordinates({inv[p // m] * m + inv[p % m]: x for p, x in vec.items()}) is not None
        for vec in base._flat
    )


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


def contract(h: BracketTable | LieAlgebraSpan, t_indices) -> BracketTable:
    """Contract a Lie algebra along the subalgebra spanned by basis indices.

    In the split basis the contracted bracket keeps [t, t] whole, projects
    [t, t^c] onto the complement, and kills [t^c, t^c].
    """
    table = h.structure_constants() if isinstance(h, LieAlgebraSpan) else h
    n = table.dim
    t_set = sorted(set(int(i) for i in t_indices))
    if any(i < 0 or i >= n for i in t_set):
        raise DimError(f"contraction indices out of range for dimension {n}")
    in_t = [i in t_set for i in range(n)]
    brackets: dict[tuple[int, int], Sparse] = {}
    for i, j, coeffs in table.brackets():
        if in_t[i] and in_t[j]:
            if any(not in_t[k] for k in coeffs):
                raise NotSubalgebra(
                    f"indices {t_set} do not span a subalgebra: "
                    f"[e_{i}, e_{j}] leaves the span"
                )
            brackets[i, j] = coeffs
        elif in_t[i] != in_t[j]:
            brackets[i, j] = {k: c for k, c in coeffs.items() if not in_t[k]}
    return BracketTable._from_brackets(n, brackets)


def verify_morphism(map_matrix: Mat, src: BracketTable, dst: BracketTable) -> bool:
    """Whether x -> M x is a Lie algebra isomorphism from src onto dst.

    The i-th column of M holds the dst-coordinates of the image of the i-th
    src basis vector.
    """
    n = src.dim
    if dst.dim != n:
        raise DimError(f"source dimension {n} != target dimension {dst.dim}")
    mm = linalg.frac_rows(map_matrix)
    if len(mm) != n or any(len(r) != n for r in mm):
        raise DimError(f"map must be {n}x{n}")
    if linalg.rank(mm) < n:
        return False
    cols = [{r: mm[r][i] for r in range(n) if mm[r][i]} for i in range(n)]
    for i in range(n):
        for j in range(n):
            # [M e_i, M e_j] - M [e_i, e_j] must vanish.
            diff = dst._bracket(cols[i], cols[j])
            for k, c in src._rows[i].get(j, {}).items():
                for r, x in cols[k].items():
                    diff[r] = diff.get(r, 0) - c * x
            if any(diff.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# Invariant profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantProfile:
    dim: int
    derived_series: tuple[int, ...]
    lower_central_series: tuple[int, ...]
    center_dim: int
    is_abelian: bool
    is_nilpotent: bool
    is_solvable: bool
    killing_rank: int
    killing_signature: tuple[int, int, int]

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "derived_series": list(self.derived_series),
            "lower_central_series": list(self.lower_central_series),
            "center_dim": self.center_dim,
            "is_abelian": self.is_abelian,
            "is_nilpotent": self.is_nilpotent,
            "is_solvable": self.is_solvable,
            "killing_rank": self.killing_rank,
            "killing_signature": list(self.killing_signature),
        }


def invariant_profile(h: BracketTable | LieAlgebraSpan) -> InvariantProfile:
    """Isomorphism invariants of a Lie algebra given by structure constants."""
    table = h.structure_constants() if isinstance(h, LieAlgebraSpan) else h
    derived = table.derived_series_dims()
    lower = table.lower_central_dims()
    killing = table.killing_matrix()
    plus, minus, zero = linalg.symmetric_signature(killing)
    return InvariantProfile(
        dim=table.dim,
        derived_series=derived,
        lower_central_series=lower,
        center_dim=table.center_dim(),
        is_abelian=table.is_abelian(),
        is_nilpotent=lower[-1] == 0,
        is_solvable=derived[-1] == 0,
        killing_rank=plus + minus,
        killing_signature=(plus, minus, zero),
    )


# ---------------------------------------------------------------------------
# Contraction chains (sigma chains)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One single-split contraction step of a sigma chain."""

    split: int  # 1-based split position i_l
    fixed_indices: tuple[int, ...]  # t_{l-1}: basis indices fixed by the step
    table: BracketTable  # contracted structure constants h_l
    morphism: tuple[tuple[Fraction, ...], ...]  # sigma_l in the limit basis
    verified: bool  # morphism check against the conjugacy limit


@dataclass(frozen=True)
class ChainResult:
    signature: tuple[int, int]
    weights: tuple[int, ...]
    splits: tuple[int, ...]
    steps: tuple[ChainStep, ...]
    final_table: BracketTable
    final_matches_limit: bool

    @property
    def all_verified(self) -> bool:
        return all(s.verified for s in self.steps) and self.final_matches_limit


def _min_grade_projection(v: Sparse, u: list[int], m: int) -> Sparse:
    """The entries of a flattened matrix at its lowest grade u_i - u_j."""
    grade = {p: u[p // m] - u[p % m] for p in v}
    d = min(grade.values(), default=0)
    return {p: x for p, x in v.items() if grade[p] == d}


def _limit_morphism(
    images: list[Sparse], source: BracketTable, limit: LieAlgebraSpan
) -> tuple[Mat, bool]:
    """The map sending source basis vector i to the flattened matrix
    ``images[i]``, as a matrix in the basis of ``limit``, and whether it is
    an isomorphism of Lie algebras onto the limit.  An image outside the
    limit gets a zero column and fails the check.
    """
    n = len(images)
    coords = [limit._coordinates(img) for img in images]
    zero = Fraction(0)
    morphism = [[(c or {}).get(r, zero) for c in coords] for r in range(n)]
    if any(c is None for c in coords):
        return morphism, False
    return morphism, verify_morphism(morphism, source, limit.structure_constants())


def sigma_chain(p: int, q: int, weights) -> ChainResult:
    """Realize the conjugacy limit of po(p,q) as a chain of contractions.

    ``weights`` must be weakly decreasing; each strict drop contributes one
    single-split factor, processed in ascending split position.  Every step
    contracts along the subalgebra fixed by its factor and is verified (via
    verify_morphism) to be isomorphic to the conjugacy limit up to that step;
    the last step's limit is the conjugacy limit along the full sequence.
    """
    m = p + q
    w = tuple(int(x) for x in weights)
    if len(w) != m:
        raise DimError(f"need {m} weights, got {len(w)}")
    if any(w[i] < w[i + 1] for i in range(m - 1)):
        raise SignatureError("weights must be weakly decreasing")
    po = build_po(((p, q),), m)
    n = po.dim
    sigma_images = po._flat
    splits = tuple(i for i in range(1, m) if w[i - 1] > w[i])

    steps: list[ChainStep] = []
    composite = [0] * m
    current = po.structure_constants()
    for split in splits:
        u = [0] * split + [-1] * (m - split)
        fixed = tuple(
            idx for idx in range(n) if all(u[p // m] == u[p % m] for p in sigma_images[idx])
        )
        current = contract(current, fixed)
        sigma_images = [
            img if idx in fixed else _min_grade_projection(img, u, m)
            for idx, img in enumerate(sigma_images)
        ]
        composite = [a + b for a, b in zip(composite, u)]
        limit = conjugacy_limit(po, FactoredSequence.diagonal(composite))
        morphism, verified = _limit_morphism(sigma_images, current, limit)
        steps.append(
            ChainStep(
                split=split,
                fixed_indices=fixed,
                table=current,
                morphism=tuple(tuple(row) for row in morphism),
                verified=verified,
            )
        )

    # Final check against the limit along the *original* weights (the per-step
    # limits used unit drops; the full sequence may space its drops freely).
    full_limit = conjugacy_limit(po, FactoredSequence.diagonal(w))
    _, final_ok = _limit_morphism(sigma_images, current, full_limit)
    return ChainResult(
        signature=(p, q),
        weights=w,
        splits=splits,
        steps=tuple(steps),
        final_table=current,
        final_matches_limit=final_ok,
    )
