"""Refusals of the library entry points, one fixed case each: the error class
and its message.  Each raise here is reached by no other fixed test, and
would otherwise run only when a hypothesis draw happens to reach it."""

import re
from fractions import Fraction

import pytest

from projlim import young
from projlim.cli import main
from projlim.correlator import make_correlator, uv_ir_report
from projlim.errors import DimError, EmbeddingError, NotExact, ShapeError, SignatureError, ZeroScalar
from projlim.geometry import limit_signature
from projlim.laurent import LaurentScalar
from projlim.lie import (
    BracketTable,
    LieAlgebraSpan,
    build_po,
    conjugacy_limit,
    contract,
    embed_and_limit,
    enumerate_signatures,
    pad_span,
    sigma_chain,
    truncated_exp,
    validate_signature,
    verify_morphism,
)
from projlim.projective import FactoredSequence

# 0.1 as a float stores this binary fraction, not 1/10.
_BINARY_TENTH = Fraction(3602879701896397, 36028797018963968)
_ONE_BRACKET = BracketTable([[[0]]])

REFUSALS = {
    "limit of another dimension": (
        lambda: conjugacy_limit(build_po((2, 1)), FactoredSequence.diagonal([1, 0])),
        DimError, "sequence dimension 2 != algebra ambient 3",
    ),
    "morphism between dimensions": (
        lambda: verify_morphism([[1]], _ONE_BRACKET, BracketTable([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])),
        DimError, "source dimension 1 != target dimension 2",
    ),
    "morphism map of the wrong shape": (
        lambda: verify_morphism([[1, 0]], _ONE_BRACKET, _ONE_BRACKET),
        DimError, "map must be 1x1",
    ),
    "empty signature": (lambda: validate_signature(()), SignatureError, "signature needs at least one block"),
    "signature block of three entries": (
        lambda: validate_signature(((1, 2, 3),)), SignatureError, "a block is (p,q) or (p), got (1, 2, 3)",
    ),
    "non-cube bracket table": (
        lambda: BracketTable([[[0, 0]]]), DimError, "structure constants must form an n x n x n array",
    ),
    "non-square span basis matrix": (
        lambda: LieAlgebraSpan(2, [[[1, 0]]]), DimError, "basis matrix is not 2x2",
    ),
    "correlator with no factor": (
        lambda: make_correlator(((1, 0), (3, 1)), []), DimError, "a correlator needs at least one factor",
    ),
    "limit signature of no coordinates": (
        lambda: limit_signature(0, 0, set()), SignatureError, "invalid signature (0,0)",
    ),
    "split outside the signature": (
        lambda: limit_signature(2, 1, {3}), SignatureError, "split position 3 outside 1..2",
    ),
    "negative exterior power": (
        lambda: young.exterior_power_spins(-1), ShapeError, "exterior power degree must be nonnegative",
    ),
    "symmetrizer of another box count": (
        lambda: young.symmetrizer_image_dim((2,), 3), DimError, "diagram has 2 boxes but the power is 3",
    ),
    "spin-statistics key of two parts": (
        lambda: young.spin_statistics_obeyed({("g", (1, 2)): 1}, 2, 0, "bosonic"),
        ShapeError, "keys must be (gamma, alphas, betas)",
    ),
    "diagram pair of one diagram": (
        lambda: young.schur_dim(((1,),)), ShapeError, "a diagram pair has two diagrams, got 1",
    ),
    "valuation of zero": (lambda: LaurentScalar.zero().min_exponent(), ZeroScalar, "zero scalar has no valuation"),
    "negative power of a non-monomial": (
        lambda: (LaurentScalar.one() + LaurentScalar.t()) ** -1, ZeroScalar, "cannot invert non-monomial 1 + t",
    ),
    "float constant": (
        lambda: LaurentScalar.constant(0.1), NotExact, "constants must be exact, got 0.1",
    ),
    "bool constant": (
        lambda: LaurentScalar.constant(True), NotExact, "constants must be exact, got True",
    ),
    "float scale factor": (
        lambda: LaurentScalar.t().scale(0.1), NotExact, "scale factors must be exact, got 0.1",
    ),
    "float spin-statistics coefficient": (
        lambda: young.spin_statistics_obeyed(
            {("g", (1, 2), ()): 0.1, ("g", (2, 1), ()): _BINARY_TENTH}, 2, 0, "bosonic"
        ),
        NotExact, "coefficients must be exact, got 0.1",
    ),
    "contraction index out of range": (
        lambda: contract(build_po((2, 1)), [5]), DimError, "contraction indices out of range for dimension 3",
    ),
    "float sigma-chain signature": (
        lambda: sigma_chain(2.0, 0, (1, 0)), NotExact, "signature entries must be integers, got 2.0",
    ),
    "string sigma-chain signature": (
        lambda: sigma_chain("2", 0, (1, 0)), NotExact, "signature entries must be integers, got '2'",
    ),
    "float padded size": (
        lambda: pad_span(build_po((2, 1)), 7.0), NotExact, "matrix sizes must be integers, got 7.0",
    ),
    "padding below the ambient size": (
        lambda: pad_span(build_po((2, 1)), 2), EmbeddingError, "target dimension 2 below ambient 3",
    ),
    "float embedding size": (
        lambda: embed_and_limit(build_po((2, 1)), 6.0, FactoredSequence.diagonal([0] * 6)),
        NotExact, "matrix sizes must be integers, got 6.0",
    ),
    "float limit signature": (
        lambda: limit_signature(4.0, 1, set()), NotExact, "signature entries must be integers, got 4.0",
    ),
    "string limit signature": (
        lambda: limit_signature("4", 1, set()), NotExact, "signature entries must be integers, got '4'",
    ),
    "fractional split position": (
        lambda: limit_signature(4, 1, {1.5}), NotExact, "split positions must be integers, got 1.5",
    ),
    "float enumeration size": (
        lambda: enumerate_signatures(4.0), NotExact, "matrix sizes must be integers, got 4.0",
    ),
    "fractional truncation order": (
        lambda: truncated_exp([[0]], 2.5), NotExact, "truncation orders must be integers, got 2.5",
    ),
    "float tensor power": (
        lambda: young.tensor_power_decompose(2.0), NotExact, "tensor power degrees must be integers, got 2.0",
    ),
    "fractional exterior power": (
        lambda: young.exterior_power_spins(1.5), NotExact, "exterior power degrees must be integers, got 1.5",
    ),
    "float scale-limit factor count": (
        lambda: uv_ir_report(2.0, "uv"), NotExact, "factor counts must be integers, got 2.0",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_with_its_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


def test_a_bool_is_no_scalar_operand():
    one = LaurentScalar.one()
    assert one == 1 and one != True  # noqa: E712
    with pytest.raises(TypeError):
        one + True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--seq", "diag(t,1,1,1,t)", "--points", "[1,0,0,0,0]"], "classify needs --algebra or --signature"),
        (["correlator", "--reps", "fundamental,spinor", "--seq", "diag(t,1,1,1,t)"], "unknown representation 'spinor'"),
    ],
)
def test_cli_syntax_refusal_exits_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"syntax error: {message}\n")
