"""Exact Laurent polynomials in one deformation parameter t.

Scalars are finite sums ``sum_k c_k * t^k`` with rational coefficients and
integer exponents (possibly negative).  They model one-parameter families of
matrix entries along a degenerating sequence, with the limit taken at t -> 0;
a term t^k corresponds to e^{-k n} for the sequence parameter n -> infinity.

No division is provided: the ring of Laurent polynomials is enough for every
conjugation by a factored sequence, and keeping out power series sidesteps
truncation questions entirely.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivergentLimit, ExponentOverflow, NotExact, ZeroScalar
from .linalg import exact, integers

# Exponents are kept small machine integers; anything beyond this bound is a
# runaway computation, not a legitimate geometry deformation.
MAX_EXPONENT = 10**6

Rat = int | Fraction

_ZERO = Fraction(0)


def _check_exponent(k: int) -> int:
    if abs(k) > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent {k} exceeds bound {MAX_EXPONENT}")
    return k


class LaurentScalar:
    """A Laurent polynomial ``sum_k coeffs[k] * t^k`` over Q.

    Instances are immutable by convention; all arithmetic returns new objects.

    >>> t = LaurentScalar.t()
    >>> s = Fraction(3, 2) * t**-1 + t**2
    >>> str(s)
    '3/2*t^-1 + t^2'
    >>> s.min_exponent()
    -1
    >>> (t * s).limit_at_zero()
    Fraction(3, 2)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Rat] | None = None):
        terms = terms or {}
        clean: dict[int, Fraction] = {}
        for k, c in zip(integers(terms, "exponents"), terms.values()):
            c = exact(c, "coefficients")
            if c != 0:
                clean[_check_exponent(k)] = c
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[int, Fraction]) -> LaurentScalar:
        """Wrap ``terms`` whose coefficients are already ``Fraction`` and whose
        exponents are already checked; zero coefficients are dropped."""
        out = object.__new__(cls)
        out._terms = {k: c for k, c in terms.items() if c}
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentScalar:
        return cls._of({})

    @classmethod
    def one(cls) -> LaurentScalar:
        return cls._of({0: Fraction(1)})

    @classmethod
    def constant(cls, c: Rat) -> LaurentScalar:
        """The constant c, read by ``exact``: a float or a bool is refused."""
        return cls._of({0: exact(c, "constants")})

    @classmethod
    def t(cls, exponent: int = 1) -> LaurentScalar:
        """The monomial t^exponent."""
        return cls({exponent: 1})

    @classmethod
    def monomial(cls, c: Rat, exponent: int) -> LaurentScalar:
        return cls({exponent: c})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return set(self._terms) <= {0}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def min_exponent(self) -> int:
        """Valuation at t = 0.  Raises ZeroScalar for the zero scalar."""
        if not self._terms:
            raise ZeroScalar("zero scalar has no valuation")
        return min(self._terms)

    def coefficient(self, k: int) -> Fraction:
        return self._terms.get(k, _ZERO)

    def constant_value(self) -> Fraction:
        """The value as a rational number; requires a constant scalar."""
        if not self.is_constant():
            raise DivergentLimit(f"{self} is not constant in t")
        return self.coefficient(0)

    def limit_at_zero(self) -> Fraction:
        """The value at t = 0; zero is allowed, a pole is not.

        >>> (LaurentScalar.one() + LaurentScalar.t()).limit_at_zero()
        Fraction(1, 1)
        >>> LaurentScalar.t(-1).limit_at_zero()
        Traceback (most recent call last):
            ...
        projlim.errors.DivergentLimit: t^-1 diverges at t=0
        """
        if self._terms and self.min_exponent() < 0:
            raise DivergentLimit(f"{self} diverges at t=0")
        return self.coefficient(0)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other: LaurentScalar | Rat) -> LaurentScalar | None:
        """other as a scalar, or None (NotImplemented) for anything but a
        scalar, an int or a Fraction; a bool is not a number."""
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return LaurentScalar.constant(other)
        return None

    def __add__(self, other: LaurentScalar | Rat) -> LaurentScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in o._terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return LaurentScalar._of(terms)

    __radd__ = __add__

    def __neg__(self) -> LaurentScalar:
        return LaurentScalar._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: LaurentScalar | Rat) -> LaurentScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Rat) -> LaurentScalar:
        return (-self) + other

    def __mul__(self, other: LaurentScalar | Rat) -> LaurentScalar:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # Scaling keeps every exponent, so none needs checking again.
            c = Fraction(other)
            return LaurentScalar._of({k: v * c for k, v in self._terms.items()})
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = _check_exponent(k1 + k2)
                terms[k] = terms[k] + c1 * c2 if k in terms else c1 * c2
        return LaurentScalar._of(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentScalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ZeroScalar(f"cannot invert non-monomial {self}")
            k = self.min_exponent()
            return LaurentScalar._of({_check_exponent(k * n): self._terms[k] ** n})
        out = LaurentScalar.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> LaurentScalar:
        """Multiply by t^k."""
        return LaurentScalar._of({_check_exponent(e + k): c for e, c in self._terms.items()})

    def scale(self, c: Rat) -> LaurentScalar:
        """c times this scalar, c read by ``exact``: a float or a bool is refused."""
        return self * exact(c, "scale factors")

    # -- comparison / display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (LaurentScalar, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # A constant equals its rational value, so it must hash like it.
        if self.is_constant():
            return hash(self.coefficient(0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for k in sorted(self._terms):
            c = self._terms[k]
            if k == 0:
                body = str(abs(c))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentScalar({self})"


def rational_combination(pairs) -> LaurentScalar:
    """The sum of c * s over pairs (c, s) of a rational c and a LaurentScalar
    s, with no scalar built per term (the exponents of s are checked already).

    >>> str(rational_combination([(2, lau("t")), (Fraction(1, 2), lau("1 + t^-1"))]))
    '1/2*t^-1 + 1/2 + 2*t'
    """
    terms: dict[int, Fraction] = {}
    for c, s in pairs:
        for k, x in s._terms.items():
            terms[k] = terms[k] + c * x if k in terms else c * x
    return LaurentScalar._of(terms)


def lau(x: LaurentScalar | Rat | str) -> LaurentScalar:
    """Coerce a number or expression string to a LaurentScalar.  A float is
    not exact and a bool is not a number, so both are refused (NotExact),
    as is any other type.

    >>> lau("3/2*t^-1 + t^2") == Fraction(3,2)*LaurentScalar.t(-1) + LaurentScalar.t(2)
    True
    """
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LaurentScalar.constant(x)
    if isinstance(x, str):
        from .parsing import parse_scalar

        return parse_scalar(x)
    raise NotExact(f"cannot coerce {x!r} to LaurentScalar; give an int, a Fraction or an expression string")
