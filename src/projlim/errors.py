"""Exception hierarchy for projlim.

Every error raised on bad *input* (as opposed to a bug) derives from
:class:`ProjlimError`.  The CLI maps :class:`ParseError` to exit code 2 and
every other :class:`ProjlimError` to exit code 1.
"""

from __future__ import annotations


class ProjlimError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroScalar(ProjlimError):
    """An operation needed a nonzero Laurent scalar but got zero."""


class DivergentLimit(ProjlimError):
    """t -> 0 limit requested for a scalar with a pole at t = 0."""


class ExponentOverflow(ProjlimError):
    """A Laurent exponent left the supported machine-integer range."""


class ZeroMatrix(ProjlimError):
    """A projective matrix or point would be identically zero."""


class NotInvertible(ProjlimError):
    """A matrix that must be invertible is singular."""


class NotFactorable(ProjlimError):
    """Two factored sequences cannot be composed into factored form."""


class NotExact(ProjlimError):
    """A value is not an exact number of the kind asked for: a float, a bool
    or any other non-number where a rational is read, or anything but an
    integer as a weight."""


class ParseError(ProjlimError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SignatureError(ProjlimError):
    """An orthogonal block signature is malformed."""


class NotClosed(ProjlimError):
    """A span is not closed under the matrix commutator."""


class NotSubalgebra(ProjlimError):
    """An index set does not select a subalgebra of a bracket table."""


class NotFiltration(ProjlimError):
    """Exponents d are not a filtration of a bracket table: some nonzero
    c^k_ij has d_k < d_i + d_j.  ``pair`` is (i, j)."""

    def __init__(self, i: int, j: int):
        super().__init__(
            f"exponents are not a filtration of the table: [e_{i}, e_{j}] has a part below d_{i} + d_{j}"
        )
        self.pair = (i, j)


class DimError(ProjlimError):
    """Dimension mismatch between bracket tables or linear maps."""


class EmbeddingError(ProjlimError):
    """A sequence does not respect a block embedding pgl_m -> pgl_M."""


class NoMatch(ProjlimError):
    """A subalgebra matches no permuted orthogonal block algebra."""


class TooLarge(ProjlimError):
    """Request exceeds the supported size bound for exact computation."""


class NotColumnOnly(ProjlimError):
    """A single-column Young diagram was required."""


class ShapeError(ProjlimError):
    """A coefficient array does not have the announced index shape."""
