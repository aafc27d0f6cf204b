"""Symbolic projective correlators and their degenerations.

A correlator is a tensor product of smeared field-operator components; here it
is carried purely symbolically as a list of factors, each tagged with the
finite-dimensional representation its components transform in.  Degenerating
the underlying geometry along a sequence b(t) multiplies each factor by
rho(b(t)^-1); the canonical t->0 limit of that matrix (rho-infinity) is
rank-deficient, and its nonzero rows or columns single out the components the
limiting correlator can still depend on.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DimError, NotInvertible, ProjlimError, TooLarge
from .geometry import classify_point_limit, geometry_limit, scale_matrix
from .laurent import LaurentScalar
from .lie import LieAlgebraSpan, Signature, truncated_exp, validate_signature
from .linalg import (
    Mat,
    SparseRows,
    dense_rows,
    frac_rows,
    identity,
    inverse,
    inverse_rows,
    mat_mul,
    pivot_inverse,
    sparse_rows,
)
from .projective import (
    FactoredSequence,
    ProjMatrix,
    ProjPoint,
    factored_product,
    invert_permutation,
    is_identity,
    transpose_rows,
)
from .young import DIM_FUND, DiagramPair, pair_str, symmetrizer_basis, validate_pair

__all__ = [
    "SCHEMA_VERSION",
    "RepTag",
    "FUNDAMENTAL",
    "RIGHT_ACTION",
    "Factor",
    "CorrelatorSpec",
    "make_correlator",
    "rho_infinity",
    "surviving_components",
    "SupportSample",
    "DegenerationReport",
    "degenerate",
    "deform_correlator",
    "figure1_table",
    "figure1_json",
    "uv_ir_report",
    "rep_limit_commute_check",
]

SCHEMA_VERSION = "1"

#: Factors a uv/ir scale-limit correlator may have.  The time grows linearly;
#: at this cap the slowest request (``correlator --mode uv --format json``
#: with the default 3 sample points) takes ~0.45 s (Python 3.11).
_MAX_FACTORS = 8192


# ---------------------------------------------------------------------------
# Representation tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepTag:
    """Finite-dimensional representation label for one correlator factor.

    Every tag acts through one module of tensors of C^n (``_schur_module``).
    ``fundamental`` components transform against the defining action, the
    module of (1) (the factor picks up rho(g^-1) = matrix of g^-1);
    ``right_action`` is the inverse right-multiplication variant on the same
    module (the factor picks up the matrix of g itself); ``schur`` wraps a
    single-sided diagram pair and acts through the induced map on the
    symmetrizer image in the tensors of C^5.
    """

    kind: str
    pair: Optional[DiagramPair] = None

    def __post_init__(self) -> None:
        if self.kind not in ("fundamental", "right_action", "schur"):
            raise ProjlimError(f"unknown representation kind {self.kind!r}")
        if self.kind == "schur":
            if self.pair is None:
                raise ProjlimError("schur tag needs a diagram pair")
            object.__setattr__(self, "pair", validate_pair(self.pair))
        elif self.pair is not None:
            raise ProjlimError(f"{self.kind} tag takes no diagram pair")

    def tag_str(self) -> str:
        if self.kind == "schur":
            return f"schur{pair_str(self.pair)}"
        return self.kind

    def __str__(self) -> str:
        return self.tag_str()


FUNDAMENTAL = RepTag("fundamental")
RIGHT_ACTION = RepTag("right_action")


@dataclass(frozen=True)
class Factor:
    rep: RepTag
    label: str


def _freeze_matrix(rows: Mat) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class CorrelatorSpec:
    """Symbolic correlator: ordered factors over a geometry signature.

    ``transform`` accumulates the group elements applied so far via
    :func:`deform_correlator`; a pristine correlator carries the identity.
    """

    factors: Tuple[Factor, ...]
    geometry: Signature
    transform: tuple[tuple[Fraction, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DimError("a correlator needs at least one factor")
        object.__setattr__(self, "geometry", validate_signature(self.geometry))
        if self.transform is None:
            m = sum(p + q for p, q in self.geometry)
            object.__setattr__(self, "transform", _freeze_matrix(identity(m)))

    def smear_labels(self) -> tuple[str, ...]:
        """Display labels; deformed correlators compose the smearing with
        the inverse of the accumulated transform."""
        m = len(self.transform)
        pristine = self.transform == _freeze_matrix(identity(m))
        if pristine:
            return tuple(f.label for f in self.factors)
        return tuple(f"{f.label}∘g^-1" for f in self.factors)


def make_correlator(sig: Signature, reps: Sequence[RepTag]) -> CorrelatorSpec:
    """The correlator of the given factors over sig, labelled f1, f2, ..."""
    factors = tuple(Factor(rep, f"f{i + 1}") for i, rep in enumerate(reps))
    return CorrelatorSpec(factors=factors, geometry=validate_signature(sig))


# ---------------------------------------------------------------------------
# Induced representations on symmetrizer images
# ---------------------------------------------------------------------------


class _SchurAction:
    """Induced action of n x n matrices on the symmetrizer image of a diagram
    in the tensor power of C^n; the fundamental action is the module of (1).

    The basis is ``young.symmetrizer_basis`` as built: sparse columns, each
    the Young symmetrizer applied to one tensor e_{j1...jp}, and their
    echelon pivots.  The symmetrizer only permutes tensor slots, so every
    term of a column has the same index multiset {j1, ..., jp}, kept in
    ``multisets``.  The basis is therefore a weight basis: a diagonal matrix
    diag(t^w) acts on column k by t^(w_j1 + ... + w_jp), and only the
    factors around it need the tensor action (``rows_of``).
    """

    def __init__(self, lam: tuple[int, ...], n: int):
        columns, pivots, tuples = symmetrizer_basis(lam, n)
        self.dim = len(columns)
        self.index_of = {tup: k for k, tup in enumerate(tuples)}
        self.tuples = tuples
        self.basis_cols = columns
        self.multisets = [tuple(sorted(tuples[next(iter(col))])) for col in columns]
        # The coordinates each pivot tensor index feeds, with their nonzero
        # weights.  Images under g tensor p stay in the symmetrizer image, so
        # the other indices feed none.
        self.coord_cols = pivot_inverse(columns, pivots)
        self.unit = tuple(((k, Fraction(1)),) for k in range(self.dim))
        # The module of (1) has the unit basis e_0, ..., e_{n-1}: its induced
        # action is g itself.
        self.fundamental = lam == (1,)

    def _tensor_image(self, g_cols: SparseRows, col: dict[int, object]):
        """Apply g tensor p to one sparse basis column; ``g_cols`` are the
        sparse columns of g."""
        out: dict[int, object] = {}
        for flat, coeff in col.items():
            # Build (g e_{j1}) tensor ... tensor (g e_{jp}) sparsely, starting
            # from the rational coefficient.
            partial: dict[tuple[int, ...], object] = {(): coeff}
            for j in self.tuples[flat]:
                nxt: dict[tuple[int, ...], object] = {}
                for prefix, value in partial.items():
                    for i, gij in g_cols[j]:
                        key = prefix + (i,)
                        term = value * gij
                        nxt[key] = nxt[key] + term if key in nxt else term
                partial = nxt
            for tup_out, value in partial.items():
                flat_out = self.index_of[tup_out]
                out[flat_out] = out[flat_out] + value if flat_out in out else value
        return out

    def rows_of(self, g: SparseRows) -> SparseRows:
        """Sparse rows of the induced action of g, given by its sparse rows
        over the rationals or Laurent scalars.  The module of (1) gets g
        itself, and the identity the unit rows in the scalar type of g, with
        no tensor image formed."""
        if self.fundamental:
            return g
        if is_identity(g):
            one = g[0][0][1]
            return tuple(((k, one),) for k in range(self.dim)) if isinstance(one, LaurentScalar) else self.unit
        g_cols = transpose_rows(g)
        rows: list[list] = [[] for _ in range(self.dim)]
        for j, col in enumerate(self.basis_cols):
            coords: dict[int, object] = {}
            for r, value in self._tensor_image(g_cols, col).items():
                if not value:
                    continue
                for i, c in self.coord_cols.get(r, ()):
                    term = value * c
                    coords[i] = coords[i] + term if i in coords else term
            for i, x in coords.items():
                if x:
                    rows[i].append((j, x))
        return tuple(map(tuple, rows))

    def factored_matrix(self, outer: SparseRows, weights: Sequence[int], inner: SparseRows) -> SparseRows:
        """Sparse rows (nonzero Laurent entries, ascending columns) of the
        induced action of outer * diag(t^weights) * inner for rational
        invertible n x n factors, divided by t^e with e the least column
        exponent (the same projective class).

        rho is a homomorphism and rho(diag(t^w)) is diagonal in the weight
        basis, so entry (i, j) is the sum over k of rho(outer)_ik
        rho(inner)_kj t^e_k, with e_k the sum of the weights over column k's
        multiset.  Every e_k occurs in the product (both factors are
        invertible), so the least exponent of the result is 0, and
        ExponentOverflow is raised exactly when the canonical matrix would
        have an exponent beyond the bound.  Each distinct power is built
        once, and the product is ``projective.factored_product``, the one
        that gives b(t) itself, which forms none for identity factors."""
        exponents = [sum(weights[j] for j in ms) for ms in self.multisets]
        low = min(exponents)
        made = {e: LaurentScalar.t(e - low) for e in dict.fromkeys(exponents)}
        return factored_product(self.rows_of(outer), [made[e] for e in exponents], self.rows_of(inner))


@functools.cache
def _schur_action(lam: tuple[int, ...], n: int) -> _SchurAction:
    return _SchurAction(lam, n)


def _schur_module(rep: RepTag, n: int) -> tuple[_SchurAction, bool, bool]:
    """The module of a tag on n x n matrices, whether rho inverts (rho(g) is
    the action of g, so a factor picks up that of b^-1), and whether the tag
    is dual (rho(g) is the action of the transpose of g^-1).  fundamental is
    the module of (1); right_action is that module with rho(g) the action
    of g^-1.  Schur tags are refused, in this order: a mixed pair, a diagram
    over the symmetrizer cap, n != 5."""
    if rep.kind != "schur":
        return _schur_action((1,), n), rep.kind == "fundamental", False
    lam, lam_bar = rep.pair
    if lam and lam_bar:
        raise TooLarge(
            "mixed diagram pairs need the traceless composite module; "
            "only single-sided schur tags are supported"
        )
    action = _schur_action(lam_bar or lam, DIM_FUND)  # built on C^5, so the cap is checked first
    if n != DIM_FUND:
        raise DimError(f"schur tags act on {DIM_FUND}x{DIM_FUND} matrices only")
    return action, not lam_bar, bool(lam_bar)


def rep_matrix(rep: RepTag, g: Mat) -> Mat:
    """rho(g) for a rational group element: the matrix a factor of this tag
    picks up when the correlator is deformed by g^-1.  A g that is not
    invertible is refused with NotInvertible, whatever the tag.  The sparse
    rows of g are inverted directly, with no dense inverse.  Selftest #13
    calls it, to check that rho is a homomorphism."""
    g = frac_rows(g)
    rows = sparse_rows(g)
    try:
        if any(len(row) != len(g) for row in g):
            raise NotInvertible("only a square matrix has an inverse")
        g_inv = inverse_rows(rows)
    except NotInvertible:
        text = "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in g) + "]"
        raise NotInvertible(f"rho(g) needs an invertible group element g, got g = {text}") from None
    action, invert, dual = _schur_module(rep, len(g))
    rows = rows if invert else g_inv
    return dense_rows(action.rows_of(transpose_rows(rows) if dual else rows))


def rho_infinity(rep: RepTag, b: FactoredSequence) -> ProjMatrix:
    """Canonical t->0 limit of rho(b(t)^-1).

    Every tag acts through its module (``_schur_module``, which refuses
    what a schur tag cannot take): fundamental gives the limit of b^-1,
    right_action that of b, a schur tag the induced matrix on the
    symmetrizer image (of b^T on the dual side).  rho is a homomorphism, so
    with b = L diag(t^w) R the diagonal factor acts diagonally on the
    module's weight basis, and only the rational factors (read off the
    stored inverses, none inverted again) get the tensor action.

    >>> from .parsing import parse_sequence
    >>> b = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
    >>> rho_infinity(RepTag("fundamental"), b).limit().constant_rows() == [
    ...     [1 if i == j == 0 else 0 for j in range(5)] for i in range(5)]
    True
    """
    action, invert, dual = _schur_module(rep, b.dim)
    seq = b.inverse() if invert else b
    if dual:  # b^T = R^T diag(t^w) L^T
        outer, inner = transpose_rows(seq.right), transpose_rows(seq.left)
    else:
        outer, inner = seq.left, seq.right
    return ProjMatrix._of(action.factored_matrix(outer, seq.weights, inner), action.dim)


def _nonzero_rows(pm: ProjMatrix) -> tuple[int, ...]:
    return tuple(i + 1 for i, row in enumerate(pm.sparse) if any(e.coefficient(0) for _, e in row))


def _nonzero_columns(pm: ProjMatrix) -> tuple[int, ...]:
    return tuple(sorted({j + 1 for row in pm.sparse for j, e in row if e.coefficient(0)}))


def surviving_components(rep: RepTag, rho_inf: ProjMatrix) -> tuple[int, ...]:
    """Indices (1-based) of components the limit correlator can depend on.

    Components carrying the defining (or an induced) action transform
    contravariantly, so they survive along the nonzero columns of
    rho-infinity; right-action components survive along its nonzero rows.
    Both are read off the t^0 coefficients of the canonical representative,
    which has minimum exponent 0: they are its limit.
    """
    if rep.kind == "right_action":
        return _nonzero_rows(rho_inf)
    return _nonzero_columns(rho_inf)


# ---------------------------------------------------------------------------
# Degeneration reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportSample:
    point_in: str
    kind: str
    point_out: str
    vanishing: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "point_in": self.point_in,
            "kind": self.kind,
            "point_out": self.point_out,
            "vanishing": list(self.vanishing),
        }


@dataclass(frozen=True)
class DegenerationReport:
    limit_signature: Signature
    permutation: tuple[int, ...]
    rho_inf: tuple[tuple[str, ProjMatrix], ...]  # per distinct rep tag
    surviving: tuple[tuple[int, ...], ...]  # per factor
    samples: tuple[SupportSample, ...]
    support_kinds: tuple[str, ...]
    fixed_points: tuple[str, ...]

    def rho_of(self, rep: RepTag) -> ProjMatrix:
        for name, pm in self.rho_inf:
            if name == rep.tag_str():
                return pm
        raise KeyError(rep.tag_str())

    def as_dict(self) -> dict:
        return {
            "limit_signature": [list(b) for b in self.limit_signature],
            "permutation": list(self.permutation),
            "rho_inf": {name: str(pm) for name, pm in self.rho_inf},
            "surviving": [list(s) for s in self.surviving],
            "samples": [s.as_dict() for s in self.samples],
            "support_kinds": list(self.support_kinds),
            "fixed_points": list(self.fixed_points),
        }


def _compose_permutation(b: FactoredSequence, perm: Optional[Sequence[int]]) -> FactoredSequence:
    """Figure-style composed sequence P(perm)^-1 . b: row i of P^-1 L is row
    perm^-1(i) of L, and L^-1 P moves column k of L^-1 to perm(k), so the
    stored rows are only relabelled."""
    if perm is None:
        return b
    perm = tuple(perm)
    if len(perm) != b.dim:
        raise DimError(f"permutation of length {len(perm)} for a sequence of dimension {b.dim}")
    left = tuple(b.left[i] for i in invert_permutation(perm))
    left_inv = tuple(tuple(sorted((perm[k], x) for k, x in row)) for row in b.left_inv)
    return FactoredSequence(left, b.weights, b.right, left_inv, b.right_inv)


def degenerate(
    spec: CorrelatorSpec,
    b: FactoredSequence,
    perm: Optional[Sequence[int]] = None,
    sample_points: Optional[Sequence[Sequence[object]]] = None,
) -> DegenerationReport:
    """Degenerate a correlator along b (optionally composed with a coordinate
    permutation, as the limit sequences of the reproduction table are).

    Per-factor surviving components come from rho-infinity of the factor's
    tag; the support summary classifies the limits of the supplied interior
    sample points plus the interior standard basis points.
    """
    deg = geometry_limit(spec.geometry, _compose_permutation(b, perm))

    rho_cache: Dict[str, ProjMatrix] = {}
    for factor in spec.factors:
        name = factor.rep.tag_str()
        if name not in rho_cache:
            rho_cache[name] = rho_infinity(factor.rep, deg.seq)
    surviving = tuple(
        surviving_components(factor.rep, rho_cache[factor.rep.tag_str()])
        for factor in spec.factors
    )

    # Each point is made canonical once; its str is point_in.  The basis point
    # e_i is interior (Q(e_i) = -1 < 0) exactly when i < p0.
    m = deg.m
    points = [entry if isinstance(entry, ProjPoint) else ProjPoint(entry) for entry in sample_points or ()]
    points += [ProjPoint([int(i == j) for j in range(m)]) for i in range(deg.sig[0][0])]

    samples = []
    fixed_points: list[str] = []
    kinds: set[str] = set()
    for point in points:
        report = classify_point_limit(deg, point)
        kinds.add(report.kind)
        out_str = str(report.point)
        if report.kind == "interior_lower_dim" and out_str not in fixed_points:
            fixed_points.append(out_str)
        samples.append(
            SupportSample(
                point_in=str(point),
                kind=report.kind,
                point_out=out_str,
                vanishing=report.vanishing,
            )
        )

    return DegenerationReport(
        limit_signature=deg.limit_sig,
        permutation=deg.perm,
        rho_inf=tuple(sorted(rho_cache.items())),
        surviving=surviving,
        samples=tuple(samples),
        support_kinds=tuple(sorted(kinds)),
        fixed_points=tuple(fixed_points),
    )


# ---------------------------------------------------------------------------
# Deformation (finite, invertible)
# ---------------------------------------------------------------------------


def deform_correlator(spec: CorrelatorSpec, g: Mat) -> CorrelatorSpec:
    """Deform a correlator by an invertible rational transformation.

    Symbolically each factor gains the prefactor rho(g^-1) and its smearing
    becomes f o g^-1; computationally the CorrelatorSpec accumulates g so
    that applying g then h equals applying h*g in one step (functoriality).
    """
    g = frac_rows(g)
    inverse(g)  # raises NotInvertible on singular input
    accumulated = mat_mul(g, [list(row) for row in spec.transform])
    return CorrelatorSpec(
        factors=spec.factors,
        geometry=spec.geometry,
        transform=_freeze_matrix(accumulated),
    )


# ---------------------------------------------------------------------------
# Reproduction table and scale limits
# ---------------------------------------------------------------------------


def _row_spec(name: str, sig: Signature, seq_text: str, perm: Optional[tuple[int, ...]],
              samples: list[list[int]]) -> dict:
    return {
        "name": name,
        "signature": sig,
        "sequence": seq_text,
        "permutation": perm,
        "samples": samples,
    }


_FIGURE_ROWS = [
    _row_spec(
        "ds_to_poincare",
        ((4, 1),),
        "diag(t^4,t^-1,t^-1,t^-1,t^-1)",
        None,
        [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [1, 1, 1, 1, 1], [3, 1, 2, 0, 1]],
    ),
    _row_spec(
        "ads_to_poincare",
        ((3, 2),),
        "diag(t^-1,t^-1,t^-1,t^-1,t^4)",
        (1, 2, 3, 4, 0),
        [[1, 0, 0, 0, 0], [2, 1, 1, 1, 0], [1, 1, 0, 0, 1], [2, 0, 1, 1, 1]],
    ),
    _row_spec(
        "poincare_to_galilei",
        ((1, 0), (3, 1)),
        "diag(t,1,1,1,t)",
        (0, 2, 3, 4, 1),
        [[1, 2, 3, 4, 5], [1, 0, 0, 0, 7], [1, 0, 0, 0, 0], [3, 1, 1, 0, 2]],
    ),
]


def figure1_table() -> dict:
    """Recompute the three-row limiting-correlator reproduction table.

    Rows: de Sitter and anti-de Sitter degenerating to the flat (Poincare)
    geometry, and the flat geometry degenerating to the Galilei geometry.
    Each row reports, for the defining components and the right-action
    components, which operator slots survive and where the interior sample
    points land.
    """
    from .parsing import parse_sequence

    rows = []
    for row in _FIGURE_ROWS:
        b = parse_sequence(row["sequence"])
        spec = make_correlator(row["signature"], [FUNDAMENTAL, RIGHT_ACTION])
        report = degenerate(spec, b, row["permutation"], row["samples"])
        cells = {}
        for rep, surv in zip((FUNDAMENTAL, RIGHT_ACTION), report.surviving):
            cells[rep.tag_str()] = {
                "surviving": list(surv),
                "operators": [f"O{i}" for i in surv],
                "rho_inf": str(report.rho_of(rep)),
            }
        rows.append(
            {
                "name": row["name"],
                "signature": [list(b_) for b_ in validate_signature(row["signature"])],
                "sequence": row["sequence"],
                "permutation": list(row["permutation"]) if row["permutation"] else None,
                "limit_signature": [list(b_) for b_ in report.limit_signature],
                "support_kinds": list(report.support_kinds),
                "fixed_points": list(report.fixed_points),
                "cells": cells,
            }
        )
    return {"schema_version": SCHEMA_VERSION, "rows": rows}


def figure1_json() -> str:
    """Byte-deterministic serialization of the reproduction table."""
    return json.dumps(figure1_table(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def uv_ir_report(
    ell: int,
    mode: str,
    sample_points: Optional[Sequence[Sequence[object]]] = None,
) -> DegenerationReport:
    """Degenerate an ell-point correlator of defining components on the flat
    geometry under the scale transformation d(s) = diag(1, s, s, s, s).

    The ultraviolet limit sends s -> 0 and acts on points through d(s)^-1
    (zooming in); the infrared limit sends s -> infinity and acts through
    d(s) directly.  Projectively both push interior points with nonzero
    spatial part onto the boundary sphere and keep [1,0,0,0,0] fixed, and
    only the first component survives.
    """
    if ell < 1:
        raise DimError("need at least one factor")
    if ell > _MAX_FACTORS:
        raise TooLarge(f"a scale-limit correlator is capped at {_MAX_FACTORS} factors, got {ell}")
    spec = make_correlator(((1, 0), (3, 1)), [FUNDAMENTAL] * ell)
    d = scale_matrix(mode)
    seq = d.inverse() if mode == "uv" else d
    if sample_points is None:
        sample_points = [[1, 1, 0, 0, 0], [2, 0, 1, 1, 1], [1, 0, 0, 0, 3]]
    return degenerate(spec, seq, None, sample_points)


# ---------------------------------------------------------------------------
# Representation/limit commutation
# ---------------------------------------------------------------------------


_TRUNCATION_ORDER = 3


def rep_limit_commute_check(
    alg: LieAlgebraSpan,
    b: FactoredSequence,
    rep: RepTag,
    samples: Sequence[Mat],
) -> bool:
    """Check that degenerating before or after applying the representation
    gives the same projective matrix.

    Samples are rational algebra elements; each is exponentiated as a
    polynomial truncation h = 1 + X + ... + X^k/k! (k = _TRUNCATION_ORDER),
    conjugated by b(t), and pushed through the representation.  The check
    compares the canonical limit of rho(b h b^-1)(t) with rho applied to the
    canonical limit of b h b^-1 itself.  For the fundamental tag rho is the identity,
    so the two sides coincide: only membership and invertibility of each
    sample are checked, and no limits are compared.  A sequence whose
    dimension is not the algebra's, and an empty sample list, are refused
    with DimError.
    """
    if b.dim != alg.m:
        raise DimError(f"sequence dimension {b.dim} != algebra ambient {alg.m}")
    if not samples:
        raise DimError("the check needs at least one sample element")
    for x in samples:
        x = frac_rows(x)
        if not alg.contains(x):
            raise ProjlimError("sample element is not in the given algebra")
        h = truncated_exp(x, _TRUNCATION_ORDER)
        inverse(h)  # group elements must stay invertible after truncation
        if rep.kind == "fundamental":
            continue  # rho is the identity: both sides are the same limit
        conj_pm = b.conjugate(h)  # canonical Laurent matrix of b h b^-1
        if rep.kind == "right_action":
            # Inverse variant: rho(g) = g^-1.  The conjugate of the inverse
            # is the inverse conjugate; its limit is compared against the
            # inverse of the limit, which must exist for the check to apply.
            lhs = b.conjugate(inverse(h)).limit()
            rhs = ProjMatrix(inverse(conj_pm.limit().constant_rows()))
        else:
            # The sparse rows of the conjugate and of its limit go straight
            # into the induced action (transposed on the dual side).
            action, _, dual = _schur_module(rep, b.dim)
            before, after = conj_pm.sparse, conj_pm.limit().sparse
            if dual:
                before, after = transpose_rows(before), transpose_rows(after)
            lhs = ProjMatrix._of(action.rows_of(before), action.dim).limit()
            rhs = ProjMatrix._of(action.rows_of(after), action.dim)
        if lhs != rhs:
            return False
    return True
