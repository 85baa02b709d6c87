"""Exact scalar arithmetic: examples, ring axioms, and a convolution oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smbraid.scalars import (
    LaurentPoly,
    T,
    as_scalar,
    format_scalar,
    is_unit,
    multinomial_coeff,
    parse_scalar,
    scalar_add,
    scalar_invert,
    scalar_mul,
    scalar_neg,
    scalar_pow,
    unit_root_order,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def laurents(draw):
    support = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    return LaurentPoly({e: draw(fractions) for e in support})


scalars = st.one_of(fractions, laurents())


def test_rational_addition():
    assert scalar_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_unit_monomial_product():
    # (-t) * (-t^-1) == 1
    assert scalar_mul(scalar_neg(T), scalar_neg(T.invert())) == 1


def test_poly_times_monomial():
    # (1 - t) * t == t - t^2
    assert scalar_mul(scalar_add(1, scalar_neg(T)), T) == LaurentPoly({1: 1, 2: -1})


def test_invert_rational():
    assert scalar_invert(Fraction(2)) == Fraction(1, 2)


def test_invert_monomial():
    assert scalar_invert(scalar_neg(T)) == LaurentPoly({-1: -1})


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        scalar_invert(scalar_add(1, T))
    with pytest.raises(ValueError):
        scalar_invert(Fraction(0))


def test_pow_examples():
    assert scalar_pow(Fraction(2), -3) == Fraction(1, 8)
    assert scalar_pow(scalar_neg(T), 2) == LaurentPoly({2: 1})
    assert scalar_pow(Fraction(0), 0) == 1
    with pytest.raises(ValueError):
        scalar_pow(scalar_add(1, T), -1)


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
    assert unit_root_order(scalar_neg(T)) is None
    assert unit_root_order(LaurentPoly({0: -1})) == 2


def test_canonical_form_constant_laurent_collapses():
    x = scalar_mul(T, T.invert())
    assert isinstance(x, Fraction)
    assert x == 1


def test_units():
    assert is_unit(Fraction(-5, 3))
    assert is_unit(LaurentPoly({3: Fraction(2)}))
    assert not is_unit(Fraction(0))
    assert not is_unit(scalar_add(1, T))


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert scalar_add(x, y) == scalar_add(y, x)
    assert scalar_mul(x, y) == scalar_mul(y, x)
    assert scalar_add(scalar_add(x, y), z) == scalar_add(x, scalar_add(y, z))
    assert scalar_mul(scalar_mul(x, y), z) == scalar_mul(x, scalar_mul(y, z))
    assert scalar_mul(x, scalar_add(y, z)) == scalar_add(scalar_mul(x, y), scalar_mul(x, z))
    assert scalar_add(x, scalar_neg(x)) == 0
    assert scalar_mul(x, 1) == x


@given(scalars)
def test_unit_inverse_round_trip(x):
    if is_unit(x):
        assert scalar_mul(scalar_invert(x), x) == 1


@given(laurents(), laurents())
def test_laurent_product_matches_convolution_oracle(x, y):
    # brute-force exponent-shifted convolution
    expected: dict[int, Fraction] = {}
    for e1 in x.support:
        for e2 in y.support:
            expected[e1 + e2] = expected.get(e1 + e2, Fraction(0)) + x.coeff(e1) * y.coeff(e2)
    product = x * y
    assert all(product.coeff(e) == c for e, c in expected.items())
    assert product.support <= set(expected)


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
