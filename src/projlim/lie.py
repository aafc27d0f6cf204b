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
initial form), and conjugate the resulting span back.  Every conjugation is
``projective.conjugate_flat`` on the sparse factor rows and inverses the
sequence keeps.  When the conjugated basis vectors have pairwise disjoint
supports, as the basis of po(sig) has under a monomial right factor, none
can reduce another, so each echelon row is one vector, rescaled, and the
limit is read off with no elimination: each vector's lowest-grade part,
scaled to 1 at its first position.  Abstract (basis-only) Lie algebras are
handled as structure-constant tables, which is what contractions produce; a
table stores only its nonzero entries, and invariants, contractions and
morphism checks iterate over those.

Contractions set brackets to zero, so most products vanish for want of
support.  Brackets are formed only for partner pairs (``_partners``): two
matrices where a column of one meets a row of the other, or two table
vectors where a key of ``_rows[a]``, a in the support of one, lies in the
support of the other.  Every other pair brackets to zero, so the closure
check, the series, the Killing form and the morphism checks skip it exactly.

Each block algebra po(sig) is built once per process (``build_po``) and
shared.  A conjugacy limit is identified once, by ``match_limit_geometry``,
which the span stores: a limit that is Ad_P po(sig) is closed already,
because po(sig) is and conjugation by a permutation is a Lie automorphism,
and its invariants are those of po(sig), read off the block sizes of sig
with no table built (``_signature_profile``).  Only a limit that does not
match builds its own table, on its sparse basis before the left factor is
applied, to prove closure and for its invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (
    DimError,
    EmbeddingError,
    NoMatch,
    NotClosed,
    NotSubalgebra,
    SignatureError,
)
from .linalg import Mat
from .projective import FactoredSequence, conjugate_flat, invert_permutation

Signature = tuple[tuple[int, int], ...]
Sparse = dict[int, Fraction]  # nonzero entries {position: value} of a vector


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


def _partners(outs, ins) -> set[tuple[int, int]]:
    """The pairs (a, b) for which some key of outs[a] is a key of ins[b].

    A bilinear product x * y whose value is zero unless an output key of x
    meets an input key of y can be nonzero only for these pairs: for
    matrices, a column of x meets a row of y; for a table, a key b of
    ``_rows[a]`` for some a in the support of x meets the support of y.
    Every other pair multiplies to zero, so skipping it is exact.
    """
    holders: dict[int, list[int]] = {}
    for b, keys in enumerate(ins):
        for key in keys:
            holders.setdefault(key, []).append(b)
    return {(a, b) for a, keys in enumerate(outs) for key in keys for b in holders.get(key, ())}


def _commutator_partners(flat: list[Sparse], m: int) -> list[tuple[int, int]]:
    """The pairs i < j of flattened m x m matrices whose commutator can be
    nonzero (a column of one meets a row of the other), in ascending order."""
    pairs = _partners([{p % m for p in v} for v in flat], [{p // m for p in v} for v in flat])
    return sorted({(a, b) if a < b else (b, a) for a, b in pairs if a != b})


class LieAlgebraSpan:
    """Span of trace-free matrices in pgl_m(R), closed under the commutator.

    The basis is stored once, in the given order, as the nonzero entries of
    each flattened matrix; ``basis`` is a dense view.  Closure is verified
    unless ``check_closed=False`` by bracketing every pair of basis elements
    once, and the span keeps the structure-constant table this builds, as it
    keeps the outcome of ``match_limit_geometry``.
    """

    def __init__(self, m: int, basis, *, check_closed: bool = True):
        [self.m] = linalg.integers([m], "matrix sizes")
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
        self._table: BracketTable | None = None
        # The stored match (sig, perm) of match_limit_geometry: None until it
        # is read, False when the span does not match.
        self._match: tuple[Signature, tuple[int, ...]] | bool | None = None
        self._from_echelon: dict[int, list[tuple[int, Fraction]]] | None = None
        if check_closed:
            self._closed()

    @functools.cached_property
    def _nonzero_basis(self) -> list[list[list[tuple[int, Fraction]]]]:
        """The ``_nonzero_rows`` of each basis element, built on first use: a
        matched limit never brackets."""
        return [_nonzero_rows(v, self.m) for v in self._flat]

    def _trace_free(self, x) -> Sparse:
        rows = linalg.frac_rows(x)
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise DimError(f"basis matrix is not {self.m}x{self.m}")
        tr = sum(rows[i][i] for i in range(self.m))
        if tr != 0:
            shift = tr / self.m
            for i in range(self.m):
                rows[i][i] -= shift
        return linalg.nonzero_flat(rows)

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
        return [linalg.dense_rows(_nonzero_rows(v, self.m)) for v in self._flat]

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

    def _closed(self) -> "LieAlgebraSpan":
        """This span, or NotClosed when a bracket of basis elements leaves it."""
        if not self.is_closed():
            raise NotClosed("span is not closed under the matrix commutator")
        return self

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
        """Bracket each partner pair i < j of basis elements once (every other
        pair brackets to zero) and reduce it against the echelon rows;
        NotClosed when a bracket leaves the span.  The rows are written in
        place: ascending keys, nonzero ``Fraction`` entries, antisymmetric."""
        rows: list[dict[int, Sparse]] = [{} for _ in range(self.dim)]
        for i, j in _commutator_partners(self._flat, self.m):
            coords = self._coordinates(_sparse_bracket(self._nonzero_basis[i], self._nonzero_basis[j], self.m))
            if coords is None:
                raise NotClosed(f"bracket of basis elements {i}, {j} leaves the span")
            if coords:
                rows[i][j] = coords
                rows[j][i] = {k: -x for k, x in coords.items()}
        return BracketTable._of(rows, antisymmetric=True)

    def __repr__(self) -> str:
        return f"LieAlgebraSpan(m={self.m}, dim={self.dim})"


class BracketTable:
    """Structure constants of an abstract Lie algebra in a fixed basis.

    Only the nonzero entries are stored: for each (i, j) with a nonzero
    bracket, {k: c^k_{ij}} in ascending k.  Every invariant below iterates
    over those entries, and the series and morphism checks form only the
    products of partner pairs (``_partners``): u and v are partners when
    some c_ab with a in the support of u and b in that of v is nonzero.
    """

    __slots__ = ("dim", "_rows", "_antisymmetric")

    def __init__(self, c):
        planes = [[list(row) for row in plane] for plane in c]
        n = len(planes)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in planes):
            raise DimError("structure constants must form an n x n x n array")
        brackets = {
            (i, j): {k: linalg.exact(x, "structure constants") for k, x in enumerate(row)}
            for i, plane in enumerate(planes)
            for j, row in enumerate(plane)
        }
        table = self._from_brackets(n, brackets)
        self.dim, self._rows, self._antisymmetric = table.dim, table._rows, None

    @classmethod
    def _from_brackets(cls, n: int, brackets: dict, antisymmetric: bool | None = None) -> "BracketTable":
        """The table with [e_i, e_j] = sum_k brackets[i, j][k] e_k (missing
        pairs and zero values are zero brackets); ``antisymmetric`` as in ``_of``."""
        rows: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]
        for (i, j), coeffs in sorted(brackets.items()):
            nonzero = {k: Fraction(x) for k, x in sorted(coeffs.items()) if x}
            if nonzero:
                rows[i][j] = nonzero
        return cls._of(rows, antisymmetric)

    @classmethod
    def _of(cls, rows: list[dict[int, Sparse]], antisymmetric: bool | None = None) -> "BracketTable":
        """The table of rows already in stored form; ``antisymmetric`` when
        known (None: computed on first request)."""
        table = cls.__new__(cls)
        table.dim = len(rows)
        # _rows[i][j] = {k: c^k_ij}, nonzero entries only, keys ascending.
        table._rows = tuple(rows)
        table._antisymmetric = antisymmetric
        return table

    def brackets(self):
        """Every nonzero bracket as (i, j, {k: c^k_ij}), in ascending (i, j)."""
        for i, row in enumerate(self._rows):
            for j, coeffs in row.items():
                yield i, j, coeffs

    def is_antisymmetric(self) -> bool:
        if self._antisymmetric is None:
            self._antisymmetric = all(
                self._rows[j].get(i) == {k: -c for k, c in coeffs.items()}
                for i, j, coeffs in self.brackets()
            )
        return self._antisymmetric

    def _reach(self, v: Sparse) -> set[int]:
        """The keys b with c_ab nonzero for some a in the support of v."""
        return {b for a in v for b in self._rows[a]}

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
        def step(cur):
            pairs = _partners([self._reach(u) for u in cur], cur)
            if self.is_antisymmetric():
                # Partnership is symmetric, and [v, u] = -[u, v]: the pairs
                # u before v span the same space.
                pairs = [(r, s) for r, s in pairs if r < s]
            return (self._bracket(cur[r], cur[s]) for r, s in pairs)

        return self._series_dims(step)

    def lower_central_dims(self) -> tuple[int, ...]:
        return self._series_dims(
            lambda cur: (self._ad(i, cur[r]) for i, r in _partners(self._rows, cur))
        )

    def _series_dims(self, step) -> tuple[int, ...]:
        """Dimensions of g, g_1, g_2, ... until they stop falling.  g_1 = [g, g]
        is spanned by the nonzero brackets of basis elements (those with
        i < j for an antisymmetric table), and g_{r+1} by the vectors ``step``
        yields from the echelon rows of g_r."""
        dims = [self.dim]
        anti = self.is_antisymmetric()
        products = (coeffs for i, j, coeffs in self.brackets() if i < j or not anti)
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
        """K_ij = tr(ad_i ad_j) = sum_{k,l} c^l_{ik} c^k_{jl}, symmetric.  Each
        entry c^l_ik meets only the entries c^k_jl listed under (l, k)."""
        n = self.dim
        under: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for j, l, coeffs in self.brackets():
            for k, b in coeffs.items():
                under.setdefault((l, k), []).append((j, b))
        k_mat = linalg.zeros(n, n)
        for i, k, coeffs in self.brackets():
            for l, a in coeffs.items():
                for j, b in under.get((l, k), ()):
                    if j >= i:
                        k_mat[i][j] += a * b
        for i in range(n):
            for j in range(i):
                k_mat[i][j] = k_mat[j][i]
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
        if isinstance(block, (int, float)):  # a float is refused below
            block = (block, 0)
        block = tuple(block)
        if len(block) == 1:
            block = (block[0], 0)
        p, q = linalg.integers(block, "signature entries")
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
    """The block algebra po(sig) in pgl_m(R), built once per process.

    Basis order: for each block in order, the generators
    M_ab = E_ab - J_a J_b E_ba for a < b inside the block (sorted by (a, b));
    then all strictly-lower cross-block matrix units E_rc sorted row-major.
    J is the block form: -1 on the first p coordinates of a block, +1 after.

    The signature is validated on every call; the span is then shared by
    every request for the same normalized signature (a bounded cache that
    holds all 455 signatures at m <= 7), so it must not be modified.  Only
    its deterministic lazy caches, the bracket table and the coordinate map,
    fill in as it is used.
    """
    return _po(validate_signature(sig, m))


@functools.lru_cache(maxsize=512)
def _po(sig: Signature) -> LieAlgebraSpan:
    """The span of ``build_po`` for a normalized signature."""
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


def _min_grade_projection(v: Sparse, u: list[int], m: int) -> Sparse:
    """The entries of a flattened matrix at its lowest grade u_i - u_j."""
    grade = {p: u[p // m] - u[p % m] for p in v}
    d = min(grade.values(), default=0)
    return {p: x for p, x in v.items() if grade[p] == d}


def _unit_at_first(v: Sparse) -> Sparse:
    """The nonzero vector scaled to 1 at its smallest position."""
    lead = v[min(v)]
    if lead == 1:
        return v
    return {p: x / lead for p, x in v.items()}


def _limit_in_frame(alg: LieAlgebraSpan, seq: FactoredSequence) -> tuple[list[Sparse], list[int], list[Sparse]]:
    """The conjugacy limit of ``alg`` along ``seq`` before Ad_L (L the left
    factor of seq): the flattened basis of Ad_R alg (R the right factor),
    the grade w_i - w_j of every flattened position (i, j), and a basis of
    the limit in that diagonal frame: the rows of the reduced echelon form
    of the initial (lowest-grade) parts of the echelon rows of Ad_R alg
    eliminated in ascending grade.

    When the vectors of Ad_R alg have pairwise disjoint supports, as the
    basis of every ``build_po`` or ``pad_span`` span has under a monomial R,
    no elimination is needed: no vector meets another's support, so none
    reduces another, and each echelon row is one vector, scaled.  Its
    initial part is the vector's least-grade part, and the limit basis is
    these parts, each scaled to 1 at its smallest position, in ascending
    order of that position.  Vectors that overlap (a dense R) are eliminated.
    """
    m = alg.m
    if seq.dim != m:
        raise DimError(f"sequence dimension {seq.dim} != algebra ambient {m}")
    vectors = conjugate_flat(seq.right, seq.right_inv, alg._flat, m)
    w = seq.weights
    grade = [w[i] - w[j] for i in range(m) for j in range(m)]
    if sum(map(len, vectors)) == len(set().union(*vectors)):
        parts = (_unit_at_first(_min_grade_projection(v, w, m)) for v in vectors)
        return vectors, grade, sorted(parts, key=min)
    # With the columns eliminated in ascending grade, each echelon row
    # vanishes below the grade of its pivot, so the rows are a basis adapted
    # to the weight filtration and their initial (lowest-grade) parts span
    # the limit.
    graded = linalg.Echelon(sorted(range(m * m), key=grade.__getitem__))
    for v in vectors:
        graded.insert(v)
    initial = linalg.Echelon()
    for p, row in graded.canonical():
        initial.insert({c: x for c, x in row.items() if grade[c] == grade[p]})
    return vectors, grade, [row for _, row in initial.canonical()]


def conjugacy_limit(alg: LieAlgebraSpan, seq: FactoredSequence) -> LieAlgebraSpan:
    """The t -> 0 limit of Ad_{b(t)} alg for a factored sequence b.

    The limit always has the same dimension as ``alg`` and is verified to be
    bracket-closed here.  It is matched first (``match_limit_geometry``,
    stored on the limit): a limit equal to a permuted po(sig) is closed with
    no table built.  Only a limit that does not match builds its table of
    structure constants, and raises NotClosed when a bracket leaves it.  The
    table is built on the frame basis of ``_limit_in_frame``, which is sparse
    whatever the left factor L: Ad_L sends frame basis element i to limit
    basis element i and is a Lie automorphism, so both have the same table
    and either is closed exactly when the other is.  The limit keeps it.

    For po(sig), or its padding, along monomial factors (permutations,
    scaled or not) no elimination runs before the limit span is built: the
    conjugations only relabel, and the basis has pairwise disjoint supports,
    so each basis element keeps its own least-grade part and no two parts
    can cancel (``_limit_in_frame``).  po((1,1)) along diag(t, 1) keeps the
    lower half E_10 of E_01 + E_10, a permuted po((1),(1)):

    >>> limit = conjugacy_limit(build_po((1, 1)), FactoredSequence.diagonal([1, 0]))
    >>> limit.basis == [[[0, 0], [1, 0]]]
    True
    >>> match_limit_geometry(limit)
    (((1, 0), (1, 0)), (0, 1))
    """
    m = alg.m
    frame = _limit_in_frame(alg, seq)[2]
    limit = LieAlgebraSpan._of(m, conjugate_flat(seq.left, seq.left_inv, frame, m), check_closed=False)
    if not _stored_match(limit):
        limit._table = LieAlgebraSpan._of(m, frame).structure_constants()
    return limit


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
    for rows in (seq.left, seq.right):
        if any((i < m) != (j < m) for i, row in enumerate(rows) for j, _ in row):
            raise EmbeddingError("sequence factors mix embedded block with padding")
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
    permuted po(sig) confirms the match, or raises NoMatch.  The outcome is
    stored on the span, so a second call on it does no work.
    """
    match = _stored_match(limit)
    if not match:
        raise NoMatch("limit span is not a permuted orthogonal block algebra")
    return match


def _stored_match(limit: LieAlgebraSpan) -> tuple[Signature, tuple[int, ...]] | bool:
    """The match of ``match_limit_geometry``, or False when the span does not
    match; read off the span once and stored on it."""
    if limit._match is None:
        limit._match = _read_match(limit) or False
    return limit._match


def _read_match(limit: LieAlgebraSpan) -> tuple[Signature, tuple[int, ...]] | None:
    """The (sig, perm) of ``match_limit_geometry``, or None when it does not match."""
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
                return None
        p_part, q_part = (same, other) if len(same) >= len(other) else (other, same)
        for k in p_part + q_part:
            perm[k] = next(free)
        sig.append((len(p_part), len(q_part)))
    if not _spans_permuted_po(limit, tuple(sig), tuple(perm)):
        return None
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
    [t, t^c] onto the complement, and kills [t^c, t^c].  The rule treats
    (i, j) and (j, i) alike, so the contraction of a table known to be
    antisymmetric is marked antisymmetric; otherwise the flag is left unknown.
    """
    table = h.structure_constants() if isinstance(h, LieAlgebraSpan) else h
    n = table.dim
    t_set = sorted(set(linalg.integers(t_indices, "contraction indices")))
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
    return BracketTable._from_brackets(n, brackets, table._antisymmetric or None)


def verify_morphism(map_matrix: Mat, src: BracketTable, dst: BracketTable) -> bool:
    """Whether x -> M x is a Lie algebra isomorphism from src onto dst.

    The i-th column of M holds the dst-coordinates of the image of the i-th
    src basis vector.  The columns must be independent (one
    ``linalg.Echelon`` of the sparse columns).  [M e_i, M e_j] - M [e_i, e_j]
    is formed for the partner pairs of the columns under dst and the pairs
    with a nonzero src bracket; for every other pair both terms are zero.
    """
    n = src.dim
    if dst.dim != n:
        raise DimError(f"source dimension {n} != target dimension {dst.dim}")
    mm = linalg.frac_rows(map_matrix)
    if len(mm) != n or any(len(r) != n for r in mm):
        raise DimError(f"map must be {n}x{n}")
    cols = [{r: mm[r][i] for r in range(n) if mm[r][i]} for i in range(n)]
    independent = linalg.Echelon()
    if not all(independent.insert(col) for col in cols):
        return False
    pairs = _partners([dst._reach(col) for col in cols], cols) | {(i, j) for i, j, _ in src.brackets()}
    for i, j in pairs:
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
    """Isomorphism invariants of a Lie algebra given by structure constants.

    A span that matches a permuted po(sig) (``match_limit_geometry``, which
    ``conjugacy_limit`` tries on every limit and which is read here if no
    match is stored yet) is isomorphic to po(sig), so it gets the profile of
    po(sig), read off the block sizes of sig (``_signature_profile``); it
    builds no table.  Any other span, and a table, is profiled from its
    table of structure constants.
    """
    if isinstance(h, LieAlgebraSpan):
        match = _stored_match(h)
        if match:
            return _signature_profile(match[0])
        h = h.structure_constants()
    return _table_profile(h)


def _signature_profile(sig: Signature) -> InvariantProfile:
    """The invariant profile of po(sig), read off the block sizes n_i = p_i + q_i.

    po(sig) = s + N with s = so(p_1,q_1) + ... + so(p_k,q_k) on the diagonal
    blocks and N the full blocks Hom(V_j, V_i) for i > j (the cross-block
    matrix units below the diagonal), an ideal on which s acts by
    commutators.  Three facts give every bracket of the series:
    so(n) is perfect for n >= 3, abelian for n = 2 and zero for n = 1;
    for n_i >= 2, so(p_i,q_i) moves V_i onto all of V_i, so
    [so_i, Hom(V_j, V_i)] and [so_j, Hom(V_j, V_i)] are the whole block;
    and Hom(V_l, V_i) Hom(V_j, V_l) = Hom(V_j, V_i) for j < l < i, while
    any other product of two blocks of N vanishes.  Every term of either
    series after g itself is therefore the sum of so_i over
    S = {i : n_i >= 3} and of the blocks (i, j) of a set X, of dimension
    sum_{i in S} n_i(n_i - 1)/2 + sum_{(i,j) in X} n_i n_j.  With
    A = {i : n_i >= 2} and via(X, Y) the blocks (i, j) with (i, l) in X and
    (l, j) in Y for some j < l < i:

    - [g, g] has X_1 = {(i, j) : i or j in A} | via(all, all);
    - the derived series X_{r+1} = {(i, j) in X_r : i or j in S}
      | via(X_r, X_r), since only the so_i with i in S are left in g_r;
    - the lower central series X_{r+1} = {(i, j) in X_r : i or j in A}
      | via(all, X_r) | via(X_r, all); the blocks [N, so_i] for i in S
      add nothing, since every block (i, j) with i or j in A is in X_1 and
      so in every X_r;

    each stopping as ``BracketTable._series_dims`` stops.  The center is
    zero unless po(sig) is so(2) or so(1,1) (one block, n_1 = 2), or the
    corner Hom(V_1, V_k) is one-dimensional (k >= 2, n_1 = n_k = 1), when
    it is the center.  The Killing form vanishes on the nilpotent ideal N
    and is (m - 2) tr(XY) on each so block: so(n_i) contributes
    (n_i - 2) tr(XY), and each other block j contributes n_j tr(XY) on
    Hom(V_j, V_i) and on Hom(V_i, V_j).  In the basis M_ab = E_ab - J_a J_b E_ba,
    tr(M_ab M_ab) = -2 J_a J_b, so for m >= 3 the signature is
    (sum p_i q_i, sum C(p_i, 2) + C(q_i, 2), the rest); for m <= 2 it is zero.

    The flat geometry po((1),(3,1)), the Poincare algebra so(3,1) + R^4:

    >>> p = _signature_profile(((1, 0), (3, 1)))
    >>> p.dim, p.derived_series, p.lower_central_series, p.center_dim
    (10, (10,), (10,), 0)
    >>> p.killing_signature
    (3, 3, 4)
    """
    n = [p + q for p, q in sig]
    k, m = len(n), sum(n)
    big = [x >= 2 for x in n]  # A
    simple = [x >= 3 for x in n]  # S
    cells = {(i, j) for i in range(k) for j in range(i)}
    so_dim = sum(x * (x - 1) // 2 for x in n if x >= 3)
    total = sum(x * (x - 1) // 2 for x in n) + sum(n[i] * n[j] for i, j in cells)

    def dim(x) -> int:
        return so_dim + sum(n[i] * n[j] for i, j in x)

    def via(x, y) -> set[tuple[int, int]]:
        return {(i, j) for i, l in x for j in range(l) if (l, j) in y}

    def touching(x, marked) -> set[tuple[int, int]]:
        return {(i, j) for i, j in x if marked[i] or marked[j]}

    first = touching(cells, big) | via(cells, cells)

    def series(step) -> tuple[int, ...]:
        dims, x = [total], first
        while dims[-1] and dim(x) != dims[-1]:
            dims.append(dim(x))
            x = step(x)
        return tuple(dims)

    derived = series(lambda x: touching(x, simple) | via(x, x))
    lower = series(lambda x: touching(x, big) | via(cells, x) | via(x, cells))
    center = int(n[0] == 2 if k == 1 else n[0] == n[-1] == 1)
    if m >= 3:
        plus = sum(p * q for p, q in sig)
        minus = sum(p * (p - 1) // 2 + q * (q - 1) // 2 for p, q in sig)
    else:
        plus = minus = 0
    return InvariantProfile(
        dim=total,
        derived_series=derived,
        lower_central_series=lower,
        center_dim=center,
        is_abelian=dim(first) == 0,
        is_nilpotent=lower[-1] == 0,
        is_solvable=derived[-1] == 0,
        killing_rank=plus + minus,
        killing_signature=(plus, minus, total - plus - minus),
    )


def _table_profile(table: BracketTable) -> InvariantProfile:
    """The invariant profile read off a table of structure constants."""
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


def _limit_morphism(
    images: list[Sparse], source: BracketTable, limit: LieAlgebraSpan
) -> tuple[Mat, bool]:
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
    independent = linalg.Echelon()
    if (
        any(c is None for c in coords)
        or not all(independent.insert(c) for c in coords)
        or not source.is_antisymmetric()
    ):
        return morphism, False
    rows = [_nonzero_rows(img, m) for img in images]
    pairs = set(_commutator_partners(images, m)) | {(i, j) for i, j, _ in source.brackets() if i < j}
    for i, j in pairs:
        image: Sparse = {}
        for k, c in source._rows[i].get(j, {}).items():
            for p, x in images[k].items():
                image[p] = image.get(p, 0) + c * x
        if _sparse_bracket(rows[i], rows[j], m) != {p: x for p, x in image.items() if x}:
            return morphism, False
    return morphism, True


def sigma_chain(p: int, q: int, weights) -> ChainResult:
    """Realize the conjugacy limit of po(p,q) as a chain of contractions.

    ``weights`` must be integers (NotExact for a float, a string or a bool)
    and weakly decreasing; each strict drop contributes one
    single-split factor, processed in ascending split position.  Every step
    contracts along the subalgebra fixed by its factor and is verified (by
    ``_limit_morphism`` on its images) to be isomorphic to the conjugacy
    limit up to that step: the limit along the weights up to its split,
    constant after it.  The basis of po(p,q) has pairwise disjoint supports,
    so each basis element keeps its own least-grade part and the limit
    depends only on the order of the weights.  The last step's weights are
    the weights themselves, so its check is the final check; a chain with no
    split checks po(p,q) against its limit along the weights.
    """
    m = p + q
    w = linalg.integers(weights, "weights")
    if len(w) != m:
        raise DimError(f"need {m} weights, got {len(w)}")
    if any(w[i] < w[i + 1] for i in range(m - 1)):
        raise SignatureError("weights must be weakly decreasing")
    po = build_po(((p, q),), m)
    n = po.dim
    sigma_images = po._flat
    splits = tuple(i for i in range(1, m) if w[i - 1] > w[i])

    steps: list[ChainStep] = []
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
        limit = conjugacy_limit(po, FactoredSequence.diagonal(w[:split] + (w[split],) * (m - split)))
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

    if steps:
        final_ok = steps[-1].verified
    else:
        _, final_ok = _limit_morphism(sigma_images, current, conjugacy_limit(po, FactoredSequence.diagonal(w)))
    return ChainResult(
        signature=(p, q),
        weights=w,
        splits=splits,
        steps=tuple(steps),
        final_table=current,
        final_matches_limit=final_ok,
    )
