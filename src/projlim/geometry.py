"""Model-space geometry: membership, limit signatures, point limits, vector gauge.

A geometry signature ``((p0,q0),...,(pk,qk))`` fixes a quadratic form of
signature ``(p0,q0)`` on the leading coordinates; the model space is the open
subset of projective space where that form is negative.  Degenerating a
geometry along a diagonal sequence splits its signature blocks and pushes
interior points to the boundary or onto lower-dimensional strata.  This module
provides the point-level side of that story; the algebra-level side lives in
:mod:`projlim.lie`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DimError, ProjlimError, SignatureError
from .lie import (
    LieAlgebraSpan,
    Signature,
    build_po,
    conjugacy_limit,
    match_limit_geometry,
    validate_signature,
)
from .linalg import Echelon, integers
from .projective import (
    FactoredSequence,
    ProjPoint,
    _rationals,
    canonical_coords,
    invert_permutation,
    point_limit,
    point_text,
    rational_limit,
)

__all__ = [
    "in_model_space",
    "limit_signature",
    "Degeneration",
    "geometry_limit",
    "PointLimitReport",
    "classify_point_limit",
    "transform_vector",
    "gauge_equivalent",
    "scale_matrix",
]

PointLike = Union[ProjPoint, Sequence[object]]

#: Direction along which vector components may be shifted without changing
#: the underlying projective vector field: (W1-f, W2-f, W3-f, W4-f, W5+f).
GAUGE_DIRECTION = (
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(-1),
)


def _rational_coords(x: PointLike, m: int) -> list[Fraction]:
    """Coerce a point-like value to a list of ``m`` exact rational coordinates.

    Entries are read as ``ProjPoint`` reads them (``projective._rationals``):
    integers, fractions, constant Laurent scalars and expression strings.
    """
    values = x.constant_coords() if isinstance(x, ProjPoint) else _rationals(list(x))
    if values is None:
        raise ProjlimError("vector entry depends on the parameter; take a limit first")
    if len(values) != m:
        raise DimError(f"expected {m} coordinates, got {len(values)}")
    return values


def quadratic_form_value(sig: Signature, x: PointLike) -> Fraction:
    """Evaluate the first-block form Q(x) = -x_0^2-...-x_{p0-1}^2 + x_{p0}^2+...

    Only the leading ``p0 + q0`` coordinates enter; the remaining coordinates
    span the null directions of the degenerate form.
    """
    sig = validate_signature(sig)
    m = sum(p + q for p, q in sig)
    return _first_block_form(sig, _rational_coords(x, m))


def _first_block_form(sig: Signature, coords: list[Fraction]) -> Fraction:
    """Q(x) of a normalized signature at rational coordinates, summed in
    integers: Q(d x) / d^2 for the common denominator d of the block."""
    p0, q0 = sig[0]
    block = coords[: p0 + q0]
    d = math.lcm(*(c.denominator for c in block))
    n = [c.numerator * (d // c.denominator) for c in block]
    return Fraction(sum(a * a for a in n[p0:]) - sum(a * a for a in n[:p0]), d * d)


def in_model_space(sig: Signature, x: PointLike) -> str:
    """Classify a point against the model space of ``sig``.

    Returns ``"interior"`` (Q < 0), ``"boundary"`` (Q = 0) or ``"outside"``
    (Q > 0).  The sign is projectively well-defined because Q is quadratic.

    >>> in_model_space(((1, 0), (3, 1)), [1, 7, 0, 0, 0])
    'interior'
    >>> in_model_space(((1, 0), (3, 1)), [0, 1, 2, 3, 4])
    'boundary'
    >>> in_model_space((4, 1), [1, 0, 0, 0, 2])
    'outside'
    """
    value = quadratic_form_value(sig, x)
    if value < 0:
        return "interior"
    if value == 0:
        return "boundary"
    return "outside"


def limit_signature(p: int, q: int, split_set: Iterable[int]) -> Signature:
    """Split the sign sequence (-1 x p, +1 x q) at the given positions.

    Splitting after position ``s`` (for ``1 <= s <= p+q-1``) starts a new
    block; each resulting segment contributes a block ``(p_i, q_i)`` counting
    its -1s and +1s.  Totals are preserved: the blocks sum back to ``(p, q)``.

    >>> limit_signature(4, 1, {1})
    ((1, 0), (3, 1))
    >>> limit_signature(4, 1, set())
    ((4, 1),)
    >>> limit_signature(3, 2, {4})
    ((3, 1), (0, 1))
    """
    p, q = integers((p, q), "signature entries")
    if p < 0 or q < 0 or p + q < 1:
        raise SignatureError(f"invalid signature ({p},{q})")
    m = p + q
    splits = sorted(set(integers(split_set, "split positions")))
    for s in splits:
        if not 1 <= s <= m - 1:
            raise SignatureError(f"split position {s} outside 1..{m - 1}")
    bounds = [0] + splits + [m]
    blocks = []
    for start, stop in zip(bounds, bounds[1:]):
        minus = max(0, min(stop, p) - min(start, p))
        plus = (stop - start) - minus
        blocks.append((minus, plus))
    return tuple(blocks)


@dataclass(frozen=True)
class Degeneration:
    """One degeneration of the geometry ``sig`` along ``seq``.

    ``limit`` is the conjugacy limit of ``po(sig)``; it equals the
    ``perm``-conjugate of ``build_po(limit_sig)``.  ``rank`` is the rank of
    ``seq`` at t->0.  Points and correlators are read off this one record.
    """

    sig: Signature
    seq: FactoredSequence
    limit: LieAlgebraSpan
    limit_sig: Signature
    perm: tuple[int, ...]
    rank: int

    @property
    def m(self) -> int:
        return self.seq.dim

    @functools.cached_property
    def inverse_perm(self) -> tuple[int, ...]:
        """P^-1, read once per degeneration."""
        return invert_permutation(self.perm)


#: Degenerations kept per process by ``geometry_limit``.  Deriving one
#: allocates about 15 KB at m = 5, 30 KB at m = 7 and 2.4 MB at m = 30
#: (tracemalloc, the limit span and its match): a full cache holds about
#: 2 MB at m = 7 and at most about 150 MB at m = 30.
DEGENERATION_CACHE_SIZE = 64


def geometry_limit(sig: Signature, seq: FactoredSequence) -> Degeneration:
    """Degenerate the geometry of ``sig`` along ``seq``.

    The conjugacy limit of the structure algebra (``conjugacy_limit``) with
    the match it stores: the limit equals Ad_P po(limit_sig), which proves it
    closed with no table built.  A limit that does not match raises
    ``NotClosed`` from ``conjugacy_limit`` when it is not closed, and
    ``NoMatch`` here otherwise.

    The signature is validated and the dimensions compared on every call;
    the degeneration is then derived once per process for each normalized
    signature and sequence (a bounded cache; an error is not kept, so it is
    raised again).  The record is shared, so it must not be modified.
    """
    sig = validate_signature(sig)
    m = sum(p + q for p, q in sig)
    if seq.dim != m:  # refuse before build_po, whose cost grows steeply with m
        raise DimError(f"sequence dimension {seq.dim} != algebra ambient {m}")
    return _degeneration(sig, seq)


@functools.lru_cache(maxsize=DEGENERATION_CACHE_SIZE)
def _degeneration(sig: Signature, seq: FactoredSequence) -> Degeneration:
    """The degeneration of ``geometry_limit`` for a normalized signature and
    a sequence of its dimension."""
    limit = conjugacy_limit(build_po(sig), seq)
    limit_sig, perm = match_limit_geometry(limit)
    # b = L diag(t^w) R tends to L diag(w_k == min w) R with L, R invertible:
    # its rank is the count of least weights.
    return Degeneration(sig, seq, limit, limit_sig, perm, seq.weights.count(min(seq.weights)))


@dataclass(frozen=True)
class PointLimitReport:
    """Outcome of pushing one interior point through a degeneration.  The
    limit point is kept as its canonical rational coordinates; ``point`` is
    the ``ProjPoint`` they make, built when it is read."""

    kind: str  # interior_generic | interior_lower_dim | boundary
    coords: tuple[Fraction, ...]  # canonical coordinates of the limit point
    vanishing: tuple[int, ...]  # coordinate positions that became zero
    limit_signature: Signature

    @property
    def point(self) -> ProjPoint:
        return ProjPoint._of_rationals(self.coords)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "point": point_text(self.coords),
            "vanishing": list(self.vanishing),
            "limit_signature": [list(block) for block in self.limit_signature],
        }


def classify_point_limit(deg: Degeneration, x: PointLike) -> PointLimitReport:
    """Classify the t->0 limit of an interior point under a degeneration.

    The point must be interior for ``deg.sig``.  Its limit ``y`` is tested
    against the permuted limit model space P.X(limit_sig): boundary points
    report ``"boundary"``; interior limit points report ``"interior_generic"``
    when the sequence keeps full rank in the limit and ``"interior_lower_dim"``
    otherwise (the image then lies in the strictly smaller subspace recorded
    by ``vanishing``).  The point is read once, as canonical rationals
    (``canonical_coords``), and its limit is ``rational_limit``: no Laurent
    scalar is made.
    """
    coords = canonical_coords(x)
    if len(coords) != deg.m:
        raise DimError(f"expected {deg.m} coordinates, got {len(coords)}")
    if _first_block_form(deg.sig, coords) >= 0:
        raise ProjlimError("point is not interior to the model space")

    y = rational_limit(deg.seq, coords)
    # Membership in P.X(limit_sig): the form of limit_sig at P^-1 y.
    value = _first_block_form(deg.limit_sig, [y[i] for i in deg.inverse_perm])
    if value == 0:
        kind = "boundary"
    elif value < 0:
        kind = "interior_generic" if deg.rank == deg.m else "interior_lower_dim"
    else:
        raise ProjlimError(
            "interior point escaped the closed limit model space; "
            "the sequence does not degenerate this geometry"
        )
    return PointLimitReport(
        kind=kind,
        coords=tuple(y),
        vanishing=tuple(i for i, c in enumerate(y) if not c),
        limit_signature=deg.limit_sig,
    )


def transform_vector(w: PointLike, b: FactoredSequence) -> ProjPoint:
    """Push projective vector components through a degeneration sequence.

    Returns the canonical t->0 limit of ``b(t) . w``; rank loss is allowed,
    so some components may vanish in the limit.

    >>> from .projective import FactoredSequence
    >>> str(transform_vector([1, 0, 0, 0, 1], FactoredSequence.diagonal([1, 0, 0, 0, 1])))
    '[1, 0, 0, 0, 1]'
    """
    return point_limit(b, w)


def gauge_equivalent(w1: PointLike, w2: PointLike) -> bool:
    """Decide whether two component lists define the same projective vector.

    Components are defined up to a common nonzero scale c and a gauge shift
    f along ``g = (1, 1, 1, 1, -1)``: w2 must equal c*(W1-f, ..., W4-f, W5+f)
    for some c != 0 and some f, that is w2 = alpha*w1 + beta*g with
    alpha = c != 0.  Decided by ranks in one echelon: that holds exactly when
    rank[g, w1, w2] = rank[g, w1], and either rank[g, w1] < 2 (w1 is zero or
    parallel to g, so alpha is free) or rank[g, w2] = 2 (w2 is not a multiple
    of g, so alpha is not 0).

    >>> gauge_equivalent([1, 1, 1, 1, 0], [0, 0, 0, 0, 1])
    True
    >>> gauge_equivalent([1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    False
    """
    a = dict(enumerate(_rational_coords(w1, 5)))
    c = dict(enumerate(_rational_coords(w2, 5)))
    echelon = Echelon()
    echelon.insert(dict(enumerate(GAUGE_DIRECTION)))
    c_along_g = echelon.coordinates(c) is not None
    a_off_g = echelon.insert(a)
    return echelon.coordinates(c) is not None and not (a_off_g and c_along_g)


def scale_matrix(mode: str) -> FactoredSequence:
    """Diagonal scale transformation d(s) = diag(1, s, s, s, s).

    ``"uv"`` parametrizes s = t (the limit s -> 0); ``"ir"`` parametrizes
    s = 1/t (the limit s -> infinity).

    >>> scale_matrix("uv").weights
    (0, 1, 1, 1, 1)
    >>> scale_matrix("ir").weights
    (0, -1, -1, -1, -1)
    """
    if mode == "uv":
        return FactoredSequence.diagonal([0, 1, 1, 1, 1])
    if mode == "ir":
        return FactoredSequence.diagonal([0, -1, -1, -1, -1])
    raise ProjlimError(f"unknown scale mode {mode!r}; expected 'uv' or 'ir'")
