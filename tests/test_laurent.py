"""Exact Laurent-scalar arithmetic, canonical printing, and limits."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import DivergentLimit, ExponentOverflow, LaurentScalar, NotExact
from projlim.laurent import MAX_EXPONENT, lau
from projlim.parsing import parse_scalar

ZERO = LaurentScalar.zero()
ONE = LaurentScalar.constant(1)
T = LaurentScalar.t(1)


def scalars(max_terms: int = 4, max_exp: int = 5):
    coeff = st.fractions(
        min_value=-6, max_value=6, max_denominator=4
    )
    term = st.tuples(st.integers(-max_exp, max_exp), coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: LaurentScalar({e: c for e, c in terms})
    )


class TestArithmetic:
    def test_zero_and_one(self):
        assert ZERO.is_zero()
        assert not ONE.is_zero()
        assert ONE + ZERO == ONE
        assert ONE * ZERO == ZERO

    def test_mixed_with_fractions(self):
        x = LaurentScalar({1: Fraction(2), 0: Fraction(1)})
        assert Fraction(3) * x == x * 3 == LaurentScalar({1: 6, 0: 3})
        assert Fraction(1, 2) + x == x + Fraction(1, 2) == LaurentScalar(
            {1: 2, 0: Fraction(3, 2)}
        )

    def test_powers_of_t(self):
        assert T * T == LaurentScalar.t(2)
        assert T * LaurentScalar.t(-1) == ONE

    def test_subtraction_cancels(self):
        x = LaurentScalar({2: 5, -1: 3})
        assert (x - x).is_zero()

    def test_constants_hash_like_their_value(self):
        assert LaurentScalar.constant(3) == 3
        assert len({LaurentScalar.constant(3), 3}) == 1
        assert len({LaurentScalar.constant(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({ZERO, 0}) == 1
        assert len({T, LaurentScalar.t(1), 1}) == 2

    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()


class TestCoercion:
    """``lau`` reads ints, Fractions and expression strings; a float is not
    exact and a bool is not a number, so both are refused with a ProjlimError."""

    @pytest.mark.parametrize("x", [0.5, 2.0, True, False])
    def test_a_float_or_a_bool_is_refused(self, x):
        with pytest.raises(NotExact, match=f"cannot coerce {x!r} to LaurentScalar"):
            lau(x)


class TestLimits:
    def test_constant_limit(self):
        assert LaurentScalar.constant(Fraction(7, 3)).limit_at_zero() == Fraction(7, 3)

    def test_vanishing_limit(self):
        assert (T * 5).limit_at_zero() == 0

    def test_divergent_limit(self):
        with pytest.raises(DivergentLimit):
            LaurentScalar.t(-1).limit_at_zero()

    def test_constant_value_raises_on_nonconstant(self):
        with pytest.raises(DivergentLimit):
            (T + ONE).constant_value()

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_limit_matches_zero_coefficient(self, a):
        if a.is_zero() or a.min_exponent() >= 0:
            assert a.limit_at_zero() == a.coefficient(0)
        else:
            with pytest.raises(DivergentLimit):
                a.limit_at_zero()


class TestPrinting:
    def test_canonical_strings(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(T) == "t"
        assert str(LaurentScalar({-1: 1})) == "t^-1"
        assert str(LaurentScalar({2: Fraction(-3, 2)})) == "-3/2*t^2"

    def test_sorted_by_exponent(self):
        x = LaurentScalar({3: 1, -2: 2, 0: -1})
        assert str(x) == "2*t^-2 - 1 + t^3"

    @given(scalars())
    @settings(max_examples=80, deadline=None)
    def test_parse_roundtrip(self, a):
        assert parse_scalar(str(a)) == a


def stored(x):
    """The stored (exponent, coefficient) terms of a scalar."""
    return x._terms


def assert_clean(x):
    assert all(type(c) is Fraction and c != 0 for c in stored(x).values())
    assert all(type(k) is int for k in stored(x))


rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4)
)


class TestInvariants:
    """Arithmetic results store no zero coefficient, exponents stay bounded,
    and rational factors act like constants."""

    def test_cancellation_stores_no_zero(self):
        a = LaurentScalar({0: 1, 1: 1})
        b = LaurentScalar({0: -1, 1: 1})
        assert stored(a + b) == {1: 2}
        assert stored(a - LaurentScalar({0: 1})) == {1: 1}
        assert stored(a * b) == {0: -1, 2: 1}
        assert stored(a + (-a)) == {}
        assert stored(a - a) == {}
        assert stored(a + (-1)) == {1: 1}
        assert stored(a * 0) == {} and stored(0 * a) == {}

    @given(scalars(), scalars(), rationals)
    @settings(max_examples=80, deadline=None)
    def test_results_are_clean(self, a, b, c):
        for x in (a + b, a - b, a * b, -a, a + c, c + a, a - c, c - a, a * c, c * a, a.shift(2)):
            assert_clean(x)

    def test_exponent_overflow(self):
        top = LaurentScalar.t(MAX_EXPONENT)
        assert (top * LaurentScalar.t(-1)).min_exponent() == MAX_EXPONENT - 1
        with pytest.raises(ExponentOverflow):
            top * T
        with pytest.raises(ExponentOverflow):
            top.shift(1)
        with pytest.raises(ExponentOverflow):
            LaurentScalar.t(-MAX_EXPONENT).shift(-1)
        half = LaurentScalar.t(MAX_EXPONENT // 2 + 1)
        with pytest.raises(ExponentOverflow):
            half**2
        with pytest.raises(ExponentOverflow):
            half**-2
        assert (top**-1).min_exponent() == -MAX_EXPONENT

    @given(scalars(), rationals)
    @settings(max_examples=80, deadline=None)
    def test_rational_factor_in_either_order(self, a, c):
        as_constant = a * LaurentScalar.constant(c)
        assert c * a == a * c == a.scale(c) == as_constant
        assert str(c * a) == str(as_constant)

    @given(rationals, scalars())
    @settings(max_examples=60, deadline=None)
    def test_constants_hash_like_their_value(self, c, a):
        assert hash(LaurentScalar.constant(c)) == hash(c)
        # A constant reached through arithmetic hashes the same way.
        assert hash((a + c) - a) == hash(Fraction(c))


class TestExactTerms:
    """Exponents are integers and coefficients exact: a float or a bool is
    refused with ``NotExact``, never truncated or read as its binary
    fraction or as 0 or 1."""

    def test_exponents(self):
        for k in (0.5, True):
            with pytest.raises(NotExact, match=f"^exponents must be integers, got {k!r}$"):
                LaurentScalar({k: 1})

    def test_coefficients(self):
        for c in (0.1, True):
            with pytest.raises(NotExact, match=f"^coefficients must be exact, got {c!r}"):
                LaurentScalar({1: c})
