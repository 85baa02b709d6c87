"""Exact scalar arithmetic: examples, ring axioms, a convolution oracle and a
sympy oracle for the operators."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from smbraid.algebra import CyclicElement, Matrix
from smbraid.phi import PhiParams, tau_power_direct
from smbraid.reps import scalar_char
from smbraid.scalars import (
    LaurentPoly,
    T,
    as_scalar,
    format_scalar,
    is_unit,
    multinomial_coeff,
    parse_scalar,
    unit_root_order,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def laurents(draw):
    support = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    return LaurentPoly({e: draw(fractions) for e in support})


scalars = st.one_of(fractions, laurents())


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_unit_monomial_product():
    # (-t) * (-t^-1) == 1
    assert (-T) * (-T.invert()) == 1


def test_poly_times_monomial():
    # (1 - t) * t == t - t^2
    assert (1 - T) * T == LaurentPoly({1: 1, 2: -1})


def test_invert_rational():
    assert Fraction(2) ** -1 == Fraction(1, 2)
    inverse = LaurentPoly({0: 2}).invert()
    assert isinstance(inverse, Fraction) and inverse == Fraction(1, 2)


def test_invert_monomial():
    assert (-T).invert() == LaurentPoly({-1: -1})
    assert (-T) ** -1 == LaurentPoly({-1: -1})


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        (1 + T).invert()
    with pytest.raises(ValueError):
        LaurentPoly({}).invert()
    # zero is not a unit: the library entry points that invert refuse it
    with pytest.raises(ValueError):
        CyclicElement.x_power(2, 0, -1)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        scalar_char(0, 2)
    with pytest.raises(ValueError):
        tau_power_direct(PhiParams.of(1, 1, 1), 0, 1, 0)


def test_pow_examples():
    assert Fraction(2) ** -3 == Fraction(1, 8)
    assert (-T) ** 2 == LaurentPoly({2: 1})
    assert as_scalar(0) ** 0 == 1
    zero_power = LaurentPoly({}) ** 0
    assert isinstance(zero_power, Fraction) and zero_power == 1
    with pytest.raises(ValueError):
        (1 + T) ** -1


def test_multinomial_examples():
    assert multinomial_coeff(1, 1, 0, 0) == 1
    assert multinomial_coeff(2, 1, 1, 0) == 2
    # independent arithmetic: 6! / (2! 2! 2!)
    assert multinomial_coeff(6, 2, 2, 2) == 720 // (2 * 2 * 2) == 90
    with pytest.raises(ValueError):
        multinomial_coeff(3, 1, 1, 0)


def test_unit_root_orders():
    assert unit_root_order(Fraction(1)) == 1
    assert unit_root_order(Fraction(-1)) == 2
    assert unit_root_order(Fraction(2)) is None
    assert unit_root_order(-T) is None
    assert unit_root_order(LaurentPoly({0: -1})) == 2


def test_canonical_form_constant_laurent_collapses():
    x = T * T.invert()
    assert isinstance(x, Fraction)
    assert x == 1


def test_units():
    assert is_unit(Fraction(-5, 3))
    assert is_unit(LaurentPoly({3: Fraction(2)}))
    assert not is_unit(Fraction(0))
    assert not is_unit(1 + T)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    assert x * 1 == x


@given(scalars)
def test_unit_inverse_round_trip(x):
    if is_unit(x):
        assert x**-1 * x == 1


@given(laurents(), laurents())
def test_laurent_product_matches_convolution_oracle(x, y):
    # brute-force exponent-shifted convolution
    expected: dict[int, Fraction] = {}
    for e1 in x.support:
        for e2 in y.support:
            expected[e1 + e2] = expected.get(e1 + e2, Fraction(0)) + x.coeff(e1) * y.coeff(e2)
    assert x * y == as_scalar(LaurentPoly(expected))


# --- sympy oracle for the operators ------------------------------------------------

t = sympy.Symbol("t")
operands = st.one_of(st.integers(-6, 6), fractions, laurents())


def to_sympy(x: int | Fraction | LaurentPoly) -> sympy.Expr:
    if isinstance(x, LaurentPoly):
        return sympy.Add(*(to_sympy(c) * t**e for e, c in x.items()))
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def assert_canonical(value: object) -> None:
    """A Fraction when constant, a non-constant LaurentPoly otherwise; for a
    constant, a LaurentPoly of the same value compares and hashes alike."""
    assert type(value) in (Fraction, LaurentPoly)
    if isinstance(value, LaurentPoly):
        assert not value.is_constant()
    else:
        assert LaurentPoly({0: value}) == value and hash(LaurentPoly({0: value})) == hash(value)


def assert_matches(value: object, expected: sympy.Expr) -> None:
    assert_canonical(value)
    assert sympy.expand(to_sympy(value) - expected) == 0


@given(laurents(), operands, st.integers(-3, 4))
def test_operators_match_sympy(x, y, e):
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches(op(x, y), op(to_sympy(x), to_sympy(y)))
        assert_matches(op(y, x), op(to_sympy(y), to_sympy(x)))
    assert_matches(-x, -to_sympy(x))
    if e >= 0 or is_unit(x):
        assert_matches(x**e, to_sympy(x) ** e)
    else:
        with pytest.raises(ValueError):
            x**e
    if is_unit(x):
        assert_matches(x.invert(), 1 / to_sympy(x))


@pytest.mark.parametrize(
    "text,value",
    [
        ("5", Fraction(5)),
        ("-7/3", Fraction(-7, 3)),
        ("-1*t^1 + 1*t^-1", LaurentPoly({1: -1, -1: 1})),
        ("-t", LaurentPoly({1: -1})),
        ("t^-2", LaurentPoly({-2: 1})),
        ("1 + t", LaurentPoly({0: 1, 1: 1})),
        ("1 - t", LaurentPoly({0: 1, 1: -1})),
        ("1/2*t^3", LaurentPoly({3: Fraction(1, 2)})),
        ("+3", Fraction(3)),
        (" -3/6 ", Fraction(-1, 2)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == as_scalar(value)


def test_parse_rejects_garbage():
    # rationals are p or p/q in ASCII digits; a zero denominator is an error, not a crash
    for bad in ["", "q", "t^", "2 2", "5t", "1e3", "1.5", ".5", "1.", "1_000", "\u0661", "1/\u0662",
                "1/0", "1/0*t", "\u0661*t", "t^\u0661"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == as_scalar(x)


def test_format_examples():
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert format_scalar(LaurentPoly({1: -1, -1: 1})) == "-1*t^1 + 1*t^-1"
    assert format_scalar(LaurentPoly({})) == "0"
