"""Exact deformations and limits of homogeneous projective space-time geometries.

The package computes, in exact rational arithmetic:

* conjugacy limits of Lie subalgebras of pgl_m(R) (any m) along factored
  one-parameter sequences, and their identification as permuted orthogonal
  block algebras;
* Lie algebra contractions, invariant profiles and contraction chains realizing
  the diagonal conjugacy limit of po(p,q) for weakly decreasing weights as a
  composition of contractions;
* degenerations of projective space-time geometries and of the projective
  correlators living on them, including the scale (UV/IR) flow of Poincare
  geometry;
* sl_5 representation theory on Young-diagram pairs: dimensions, branching to
  the Lorentz block, spin/statistics bookkeeping.
"""

from .errors import (
    DimError,
    DivergentLimit,
    EmbeddingError,
    ExponentOverflow,
    NoMatch,
    NotClosed,
    NotColumnOnly,
    NotExact,
    NotFactorable,
    NotFiltration,
    NotInvertible,
    NotSubalgebra,
    ParseError,
    ProjlimError,
    ShapeError,
    SignatureError,
    TooLarge,
    ZeroMatrix,
    ZeroScalar,
)
from .laurent import LaurentScalar, lau
from .projective import (
    FactoredSequence,
    ProjMatrix,
    ProjPoint,
    point_limit,
)
from .lie import (
    BracketTable,
    LieAlgebraSpan,
    build_po,
    conjugacy_limit,
    contract,
    embed_and_limit,
    enumerate_signatures,
    invariant_profile,
    iw_contract,
    match_limit_geometry,
    sigma_chain,
    signature_str,
    validate_signature,
)
from .geometry import (
    Degeneration,
    classify_point_limit,
    transform_vector,
    gauge_equivalent,
    geometry_limit,
    in_model_space,
    limit_signature,
    scale_matrix,
)
from .young import (
    branch_to_lorentz,
    is_poincare_irreducible,
    lr_decompose,
    schur_dim,
    spin_statistics_obeyed,
    spin_total,
    statistics,
    tensor_power_decompose,
)
from .correlator import (
    FUNDAMENTAL,
    RIGHT_ACTION,
    RepTag,
    deform_correlator,
    degenerate,
    figure1_table,
    make_correlator,
    rep_limit_commute_check,
    rho_infinity,
    uv_ir_report,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentScalar",
    "lau",
    "ProjMatrix",
    "ProjPoint",
    "FactoredSequence",
    "point_limit",
    "transform_vector",
    "BracketTable",
    "LieAlgebraSpan",
    "build_po",
    "conjugacy_limit",
    "contract",
    "embed_and_limit",
    "enumerate_signatures",
    "invariant_profile",
    "iw_contract",
    "match_limit_geometry",
    "sigma_chain",
    "signature_str",
    "validate_signature",
    "Degeneration",
    "classify_point_limit",
    "gauge_equivalent",
    "geometry_limit",
    "in_model_space",
    "limit_signature",
    "scale_matrix",
    "branch_to_lorentz",
    "is_poincare_irreducible",
    "lr_decompose",
    "schur_dim",
    "spin_statistics_obeyed",
    "spin_total",
    "statistics",
    "tensor_power_decompose",
    "RepTag",
    "FUNDAMENTAL",
    "RIGHT_ACTION",
    "make_correlator",
    "rho_infinity",
    "degenerate",
    "deform_correlator",
    "figure1_table",
    "uv_ir_report",
    "rep_limit_commute_check",
    "ProjlimError",
    "ZeroScalar",
    "DivergentLimit",
    "ExponentOverflow",
    "ZeroMatrix",
    "NotInvertible",
    "NotFactorable",
    "NotExact",
    "ParseError",
    "SignatureError",
    "NotClosed",
    "NotSubalgebra",
    "NotFiltration",
    "DimError",
    "EmbeddingError",
    "NoMatch",
    "TooLarge",
    "NotColumnOnly",
    "ShapeError",
    "__version__",
]
