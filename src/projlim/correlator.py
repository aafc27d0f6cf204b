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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DimError, ProjlimError, TooLarge
from .geometry import (
    classify_point_limit,
    geometry_limit,
    in_model_space,
    scale_matrix,
)
from .laurent import LaurentScalar
from .lie import LieAlgebraSpan, Signature, truncated_exp, validate_signature
from .linalg import Echelon, Mat, frac_rows, identity, inverse, mat_mul, pivot_inverse, transpose
from .projective import (
    FactoredSequence,
    ProjMatrix,
    ProjPoint,
    invert_permutation,
    lmat_from_rational,
    permutation_matrix,
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

    ``fundamental`` components transform against the defining action (the
    factor picks up rho(g^-1) = matrix of g^-1); ``right_action`` is the
    inverse right-multiplication variant (the factor picks up the matrix of
    g itself); ``schur`` wraps a single-sided diagram pair and acts through
    the induced map on the symmetrizer image.
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
    dagger: bool
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


def make_correlator(
    sig: Signature,
    reps: Sequence[RepTag],
    daggers: Optional[Sequence[bool]] = None,
    labels: Optional[Sequence[str]] = None,
) -> CorrelatorSpec:
    reps = list(reps)
    if daggers is None:
        daggers = [False] * len(reps)
    if labels is None:
        labels = [f"f{i + 1}" for i in range(len(reps))]
    factors = tuple(
        Factor(rep, bool(d), str(lab)) for rep, d, lab in zip(reps, daggers, labels)
    )
    return CorrelatorSpec(factors=factors, geometry=validate_signature(sig))


# ---------------------------------------------------------------------------
# Induced representations on symmetrizer images
# ---------------------------------------------------------------------------


def _is_zero(value) -> bool:
    if isinstance(value, LaurentScalar):
        return value.is_zero()
    return value == 0


def _sparse_columns(matrix) -> list[dict[int, object]]:
    cols = len(matrix[0])
    out: list[dict[int, object]] = [dict() for _ in range(cols)]
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if not _is_zero(value):
                out[j][i] = value
    return out


def _schur_side(pair: DiagramPair) -> tuple[tuple[int, ...], bool]:
    """Single-sided schur data: (diagram, dual?).  Mixed pairs are refused."""
    lam, lam_bar = pair
    if lam and lam_bar:
        raise TooLarge(
            "mixed diagram pairs need the traceless composite module; "
            "only single-sided schur tags are supported"
        )
    if lam_bar:
        return lam_bar, True
    return lam, False


class _SchurAction:
    """Induced action of 5x5 matrices on the symmetrizer image of a diagram."""

    def __init__(self, lam: tuple[int, ...]):
        basis, tuples = symmetrizer_basis(lam)
        self.dim = len(basis[0])
        self.index_of = {tup: k for k, tup in enumerate(tuples)}
        self.tuples = tuples
        self.basis_cols = _sparse_columns(basis)
        echelon = Echelon()
        for col in self.basis_cols:
            echelon.insert(col)
        # The coordinates each pivot tensor index feeds, with their nonzero
        # weights.  Images under g tensor p stay in the symmetrizer image, so
        # the other indices feed none.
        self.coord_cols = pivot_inverse(self.basis_cols, list(echelon.rows))

    def _tensor_image(self, g_cols: list[dict[int, object]], col: dict[int, object]):
        """Apply g tensor p to one sparse basis column."""
        out: dict[int, object] = {}
        for flat, coeff in col.items():
            # Build (g e_{j1}) tensor ... tensor (g e_{jp}) sparsely, starting
            # from the rational coefficient.
            partial: dict[tuple[int, ...], object] = {(): coeff}
            for j in self.tuples[flat]:
                nxt: dict[tuple[int, ...], object] = {}
                for prefix, value in partial.items():
                    for i, gij in g_cols[j].items():
                        key = prefix + (i,)
                        term = value * gij
                        nxt[key] = nxt[key] + term if key in nxt else term
                partial = nxt
            for tup_out, value in partial.items():
                flat_out = self.index_of[tup_out]
                out[flat_out] = out[flat_out] + value if flat_out in out else value
        return out

    def matrix_of(self, g):
        """Matrix of the induced action of the 5 x 5 matrix g (d x d), over
        the ring of g's entries (rationals or Laurent scalars)."""
        if len(g) != DIM_FUND or any(len(row) != DIM_FUND for row in g):
            raise DimError(f"schur tags act on {DIM_FUND}x{DIM_FUND} matrices only")
        zero = LaurentScalar.zero() if isinstance(g[0][0], LaurentScalar) else Fraction(0)
        g_cols = _sparse_columns(g)
        columns = []
        for col in self.basis_cols:
            coords: dict[int, object] = {}
            for r, value in self._tensor_image(g_cols, col).items():
                if not value:
                    continue
                for i, c in self.coord_cols.get(r, ()):
                    term = value * c
                    coords[i] = coords[i] + term if i in coords else term
            columns.append(coords)
        return [[columns[j].get(i, zero) for j in range(self.dim)] for i in range(self.dim)]


_SCHUR_CACHE: Dict[tuple[int, ...], _SchurAction] = {}


def _schur_action(lam: tuple[int, ...]) -> _SchurAction:
    if lam not in _SCHUR_CACHE:
        _SCHUR_CACHE[lam] = _SchurAction(lam)
    return _SCHUR_CACHE[lam]


def rep_matrix(rep: RepTag, g: Mat) -> Mat:
    """rho(g) for a rational group element: the matrix a factor of this tag
    picks up when the correlator is deformed by g^-1."""
    g = frac_rows(g)
    if rep.kind == "fundamental":
        return g
    if rep.kind == "right_action":
        return inverse(g)
    lam, dual = _schur_side(rep.pair)
    base = transpose(inverse(g)) if dual else g
    return _schur_action(lam).matrix_of(base)


def rho_infinity(rep: RepTag, b: FactoredSequence) -> ProjMatrix:
    """Canonical t->0 limit of rho(b(t)^-1).

    fundamental: limit of b^-1; right_action: limit of b itself; schur tags:
    the induced matrix on the symmetrizer image (single-sided, <= 3 boxes;
    the dual side uses the transpose of b).

    >>> from .parsing import parse_sequence
    >>> b = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
    >>> rho_infinity(RepTag("fundamental"), b).limit().constant_rows() == [
    ...     [1 if i == j == 0 else 0 for j in range(5)] for i in range(5)]
    True
    """
    if rep.kind == "fundamental":
        return b.inverse().matrix()
    if rep.kind == "right_action":
        return b.matrix()
    lam, dual = _schur_side(rep.pair)
    base = transpose(b.matrix().rows) if dual else b.inverse().matrix().rows
    return ProjMatrix(_schur_action(lam).matrix_of(base))


def _nonzero_rows(pm: ProjMatrix) -> tuple[int, ...]:
    limit = pm.limit().constant_rows()
    return tuple(
        i + 1 for i, row in enumerate(limit) if any(x != 0 for x in row)
    )


def _nonzero_columns(pm: ProjMatrix) -> tuple[int, ...]:
    limit = pm.limit().constant_rows()
    n = len(limit[0])
    return tuple(
        j + 1 for j in range(n) if any(row[j] != 0 for row in limit)
    )


def surviving_components(rep: RepTag, rho_inf: ProjMatrix) -> tuple[int, ...]:
    """Indices (1-based) of components the limit correlator can depend on.

    Components carrying the defining (or an induced) action transform
    contravariantly, so they survive along the nonzero columns of
    rho-infinity; right-action components survive along its nonzero rows.
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
    """Figure-style composed sequence perm^-1 . b."""
    if perm is None:
        return b
    perm = tuple(perm)
    left = permutation_matrix(invert_permutation(perm))
    return b.premultiply(left)


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

    m = deg.m
    points: list[ProjPoint] = []
    if sample_points:
        for entry in sample_points:
            point = entry if isinstance(entry, ProjPoint) else ProjPoint(list(entry))
            points.append(point)
    for i in range(m):
        coords = [0] * m
        coords[i] = 1
        if in_model_space(spec.geometry, coords) == "interior":
            points.append(ProjPoint(coords))

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


def rep_limit_commute_check(
    alg: LieAlgebraSpan,
    b: FactoredSequence,
    rep: RepTag,
    samples: Sequence[Mat],
    order: int = 3,
) -> bool:
    """Check that degenerating before or after applying the representation
    gives the same projective matrix.

    Samples are rational algebra elements; each is exponentiated as a
    polynomial truncation h = 1 + X + ... + X^order/order!, conjugated by
    b(t), and pushed through the representation.  The check compares the
    canonical limit of rho(b h b^-1)(t) with rho applied to the canonical
    limit of b h b^-1 itself.  For the fundamental tag rho is the identity,
    so the two sides coincide: only membership and invertibility of each
    sample are checked, and no limits are compared.
    """
    for x in samples:
        x = frac_rows(x)
        if not alg.contains(x):
            raise ProjlimError("sample element is not in the given algebra")
        h = truncated_exp(x, order)
        inverse(h)  # group elements must stay invertible after truncation
        if rep.kind == "fundamental":
            continue  # rho is the identity: both sides are the same limit
        conj_pm = b.conjugate(h)  # canonical Laurent matrix of b h b^-1
        if rep.kind == "right_action":
            # Inverse variant: rho(g) = g^-1.  The conjugate of the inverse
            # is the inverse conjugate; its limit is compared against the
            # inverse of the limit, which must exist for the check to apply.
            lhs = b.conjugate(inverse(h)).limit()
            rhs = ProjMatrix(
                lmat_from_rational(inverse(conj_pm.limit().constant_rows()))
            )
        else:
            lam, dual = _schur_side(rep.pair)
            action = _schur_action(lam)
            base_laurent = transpose(conj_pm.rows) if dual else conj_pm.rows
            lhs = ProjMatrix(action.matrix_of(base_laurent)).limit()
            limit_rows = conj_pm.limit().constant_rows()
            base_rational = transpose(limit_rows) if dual else limit_rows
            rhs = ProjMatrix(
                lmat_from_rational(action.matrix_of(base_rational))
            )
        if lhs != rhs:
            return False
    return True
