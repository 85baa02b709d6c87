"""Exact scalar arithmetic: examples, ring axioms, a convolution oracle, a
sympy oracle for the operators and a dict-of-Fraction reference class.  The
Fraction oracles reach the library only through conftest's `scalar` and
`terms`."""

from __future__ import annotations

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import scalar, terms
from smbraid.algebra import CyclicElement, Matrix
from smbraid.analysis import root_of_unity_order
from smbraid.phi import PhiParams, tau_power_direct
from smbraid.reps import scalar_char
from smbraid.scalars import (
    MAX_SPAN,
    LaurentPoly,
    T,
    as_scalar,
    format_scalar,
    is_unit,
    multinomial_coeff,
    parse_scalar,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
rationals = fractions.map(scalar)


@st.composite
def laurents(draw):
    support = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    return scalar({e: draw(fractions) for e in support})


scalars = st.one_of(rationals, laurents())


def test_rational_addition():
    total = scalar(Fraction(1, 2)) + scalar(Fraction(1, 3))
    assert total == scalar(Fraction(5, 6)) and terms(total) == {0: Fraction(5, 6)}


def test_unit_monomial_product():
    # (-t) * (-t^-1) == 1
    assert (-T) * (-(T**-1)) == 1


def test_poly_times_monomial():
    # (1 - t) * t == t - t^2
    assert (1 - T) * T == scalar({1: 1, 2: -1})


def assert_constant(value: object, ref: Fraction) -> None:
    """A constant is a LaurentPoly holding the triple (0, (n,), den) of its
    value n/den (zero holds (0, (), 1)); it prints like the Fraction of that
    value, equals and hashes like the same value built by arithmetic, and an
    integer value equals and hashes like its int."""
    assert type(value) is LaurentPoly
    assert (value._low, value._nums, value._den) == (0, (ref.numerator,) if ref else (), ref.denominator)
    assert terms(value) == ({0: ref} if ref else {})
    assert value == scalar(ref) and scalar(ref) == value
    assert format_scalar(value) == str(ref)
    assert hash(value) == hash(scalar(ref))
    if ref.denominator == 1:
        assert value == int(ref) and int(ref) == value and hash(value) == hash(int(ref))


def test_invert_rational():
    assert as_scalar(2) ** -1 == scalar(Fraction(1, 2))
    inverse = scalar({0: 2}) ** -1
    assert_constant(inverse, Fraction(1, 2))


def test_invert_monomial():
    assert T**-1 == scalar({-1: 1})
    assert (-T) ** -1 == scalar({-1: -1})


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        (1 + T) ** -1
    with pytest.raises(ValueError):
        scalar({}) ** -1
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
    assert as_scalar(2) ** -3 == scalar(Fraction(1, 8))
    assert (-T) ** 2 == scalar({2: 1})
    assert as_scalar(0) ** 0 == 1
    zero_power = scalar({}) ** 0
    assert_constant(zero_power, Fraction(1))
    with pytest.raises(ValueError):
        (1 + T) ** -1


def test_span_limit():
    # numerators are stored densely, so a value may span at most MAX_SPAN exponents
    far = T ** (MAX_SPAN + 5)
    assert far == scalar({MAX_SPAN + 5: 1}) and far * far ** -1 == 1
    assert len(terms(1 + T ** (MAX_SPAN - 1))) == 2
    assert far + 0 == far - scalar(Fraction(0)) == far and far * 0 == 0
    for make in (
        lambda: 1 + far,
        lambda: far - T**-1,
        lambda: (1 + T ** (MAX_SPAN // 2 + 1)) ** 2,
        lambda: scalar({0: 1, MAX_SPAN: 1}),
        lambda: parse_scalar("1 + t^2000000"),
    ):
        with pytest.raises(ValueError, match="spans"):
            make()
    assert parse_scalar("t^2000000") == T**2000000


def test_multinomial_examples():
    assert multinomial_coeff(1, 1, 0, 0) == 1
    assert multinomial_coeff(2, 1, 1, 0) == 2
    # independent arithmetic: 6! / (2! 2! 2!)
    assert multinomial_coeff(6, 2, 2, 2) == 720 // (2 * 2 * 2) == 90
    with pytest.raises(ValueError):
        multinomial_coeff(3, 1, 1, 0)


@given(
    st.one_of(st.sampled_from([1, -1, as_scalar(-1), scalar({0: -1}), T, -T, 2 * T**-1]), scalars).filter(bool),
    st.integers(0, 8),
)
@example(scalar(Fraction(1)), 0)
@example(scalar(Fraction(-1)), 1)
def test_root_of_unity_order_matches_brute_force(a, r_max):
    expected = next((r for r in range(1, r_max + 1) if a**r == 1), None)
    assert root_of_unity_order(a, r_max) == expected


def test_canonical_form_constant_laurent_collapses():
    x = T * T**-1
    assert_constant(x, Fraction(1))
    assert x == 1


def test_units():
    assert is_unit(scalar(Fraction(-5, 3)))
    assert is_unit(scalar({3: Fraction(2)}))
    assert not is_unit(scalar(Fraction(0)))
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
    for e1, c1 in terms(x).items():
        for e2, c2 in terms(y).items():
            expected[e1 + e2] = expected.get(e1 + e2, Fraction(0)) + c1 * c2
    assert x * y == scalar(expected)


# --- sympy oracle for the operators ------------------------------------------------

t = sympy.Symbol("t")
operands = st.one_of(st.integers(-6, 6), rationals, laurents())


def to_sympy(x: int | Fraction | LaurentPoly) -> sympy.Expr:
    if isinstance(x, LaurentPoly):
        return sympy.Add(*(to_sympy(c) * t**e for e, c in terms(x).items()))
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def assert_canonical(value: object, expected: sympy.Expr) -> None:
    """A LaurentPoly, constant exactly when the expected value is; a constant
    holds the triple of its Fraction value, prints like it, and compares and
    hashes like that value built by arithmetic."""
    assert type(value) is LaurentPoly
    expected = sympy.expand(expected)
    if not expected.is_Rational:
        assert value._nums and (value._low or len(value._nums) > 1)
        return
    assert_constant(value, Fraction(int(expected.p), int(expected.q)))


def assert_matches(value: object, expected: sympy.Expr) -> None:
    assert_canonical(value, expected)
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
        assert_matches(x**-1, 1 / to_sympy(x))


@given(st.one_of(operands.map(as_scalar), laurents()), operands, st.integers(-3, 4))
def test_every_result_is_a_laurent_poly(x, y, e):
    # constants included: every operation returns the one scalar type, equal
    # and hashing alike to the same value built from its terms by arithmetic
    results = [op(a, b) for op in (operator.add, operator.sub, operator.mul) for a, b in ((x, y), (y, x))]
    results += [-x, as_scalar(y), parse_scalar(format_scalar(x))]
    if e >= 0 or is_unit(x):
        results.append(x**e)
    for value in results:
        assert type(value) is LaurentPoly
        rebuilt = scalar(terms(value))
        assert value == rebuilt and hash(value) == hash(rebuilt)


# --- differential reference: Laurent polynomials as dicts of Fractions --------------


class DictLaurent:
    """The exponent -> Fraction map representation that integer numerators
    replaced, kept as a reference: every operation works term by term on
    Fractions.  Only non-constant values are built; constants are Fractions."""

    def __init__(self, coeffs: dict[int, Fraction]):
        self.coeffs = coeffs

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self.coeffs.items(), reverse=True)

    def text(self) -> str:
        return " + ".join(f"{c}*t^{e}" for e, c in self.items())


def dict_canonical(coeffs: dict[int, Fraction]) -> Fraction | DictLaurent:
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return Fraction(0)
    if len(coeffs) == 1 and 0 in coeffs:
        return coeffs[0]
    return DictLaurent(coeffs)


def dict_add(x: dict, y: dict, sign: int) -> Fraction | DictLaurent:
    coeffs = dict(x)
    for e, c in y.items():
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
    return dict_canonical(coeffs)


def dict_mul(x: dict, y: dict) -> Fraction | DictLaurent:
    coeffs: dict[int, Fraction] = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            coeffs[e1 + e2] = coeffs.get(e1 + e2, Fraction(0)) + c1 * c2
    return dict_canonical(coeffs)


def dict_pow(x: dict, e: int) -> Fraction | DictLaurent:
    if len(x) == 1:
        ((exp, c),) = x.items()
        return dict_canonical({exp * e: c**e})
    if e < 0:
        raise ValueError("negative power of a non-unit")
    acc: dict[int, Fraction] = {0: Fraction(1)}
    for _ in range(e):
        value = dict_mul(acc, x)
        acc = value.coeffs if isinstance(value, DictLaurent) else ({0: value} if value else {})
    return dict_canonical(acc)


@st.composite
def laurent_pairs(draw):
    """A LaurentPoly built from a map of Fraction or int coefficients (it may be
    constant or zero) and its map of nonzero terms."""
    support = draw(st.lists(st.integers(-4, 4), max_size=5, unique=True))
    coeffs = {e: draw(st.one_of(fractions, st.integers(-10**12, 10**12))) for e in support}
    return scalar(coeffs), {e: Fraction(c) for e, c in coeffs.items() if c}


@st.composite
def paired_operands(draw):
    """An int, rational constant or LaurentPoly operand and its map of nonzero
    terms."""
    kind = draw(st.sampled_from(["int", "fraction", "laurent"]))
    if kind == "laurent":
        return draw(laurent_pairs())
    value = draw(st.integers(-6, 6) if kind == "int" else fractions)
    return value if kind == "int" else scalar(value), {0: Fraction(value)} if value else {}


def assert_agrees(value: object, ref: Fraction | DictLaurent) -> None:
    """Same value, text and terms as the reference, and the hash of the same
    value built from the reference by arithmetic; a constant result holds its
    Fraction's triple, and a non-constant one is a canonical (low, nums, den)
    triple."""
    if isinstance(ref, Fraction):
        assert_constant(value, ref)
        return
    assert type(value) is LaurentPoly
    assert sorted(terms(value).items(), reverse=True) == ref.items()
    assert format_scalar(value) == ref.text()
    assert value == scalar(ref.coeffs) and hash(value) == hash(scalar(ref.coeffs))
    low, nums, den = value._low, value._nums, value._den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert nums[0] != 0 and nums[-1] != 0
    assert den > 0 and gcd(den, *nums) == 1
    assert low == min(ref.coeffs)


@given(laurent_pairs(), paired_operands(), st.integers(-3, 4))
def test_operators_match_dict_reference(xs, ys, e):
    (x, xd), (y, yd) = xs, ys
    cases = [
        (lambda: x + y, lambda: dict_add(xd, yd, 1)),
        (lambda: y + x, lambda: dict_add(yd, xd, 1)),
        (lambda: x - y, lambda: dict_add(xd, yd, -1)),
        (lambda: y - x, lambda: dict_add(yd, xd, -1)),
        (lambda: x * y, lambda: dict_mul(xd, yd)),
        (lambda: y * x, lambda: dict_mul(yd, xd)),
        (lambda: -x, lambda: dict_add({}, xd, -1)),
        (lambda: x**e, lambda: dict_pow(xd, e)),
    ]
    for got, expected in cases:
        try:
            ref = expected()
        except ValueError:
            with pytest.raises(ValueError):
                got()
            continue
        assert_agrees(got(), ref)


@pytest.mark.parametrize(
    "text,value",
    [
        ("5", Fraction(5)),
        ("-7/3", Fraction(-7, 3)),
        ("-1*t^1 + 1*t^-1", {1: -1, -1: 1}),
        ("-t", {1: -1}),
        ("t^-2", {-2: 1}),
        ("1 + t", {0: 1, 1: 1}),
        ("1 - t", {0: 1, 1: -1}),
        ("1/2*t^3", {3: Fraction(1, 2)}),
        ("+3", Fraction(3)),
        (" -3/6 ", Fraction(-1, 2)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == scalar(value)


def test_parse_scalar_terms_that_cancel_give_zero():
    assert parse_scalar("t - t") == 0
    assert parse_scalar("1*t^2 - 1*t^2") == 0


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
    assert format_scalar(scalar(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(scalar({1: -1, -1: 1})) == "-1*t^1 + 1*t^-1"
    assert format_scalar(scalar({})) == "0"


# --- input checks ------------------------------------------------------------------

_NOT_A_SCALAR = object()


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: as_scalar("x"), TypeError, "not a scalar: 'x'"),
        (lambda: as_scalar(Fraction(1, 2)), TypeError, "not a scalar: Fraction(1, 2)"),
        (lambda: Matrix([[_NOT_A_SCALAR]]), TypeError, f"not a scalar: {_NOT_A_SCALAR!r}"),
        (lambda: root_of_unity_order(0), ValueError, "need a nonzero scalar"),
    ],
    ids=["as-scalar-str", "as-scalar-fraction", "matrix-entry-object", "root-of-unity-order-0"],
)
def test_bad_input_is_rejected(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_int_and_laurent_poly_are_the_only_scalars():
    # Fraction is no scalar: it is refused, never equal, and no operand
    half = parse_scalar("1/2")
    assert half == scalar(Fraction(1, 2))
    assert half != Fraction(1, 2) and not half == Fraction(1, 2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(half, Fraction(1, 2))
        with pytest.raises(TypeError):
            op(Fraction(1, 2), half)
    # values come from as_scalar, parse_scalar and arithmetic, not the class
    for args in [({0: 1},), ()]:
        with pytest.raises(TypeError):
            LaurentPoly(*args)
    assert copy.deepcopy(half) == half == pickle.loads(pickle.dumps(half))
    # an int subclass is an int
    assert as_scalar(True) == 1 and as_scalar(1) == True  # noqa: E712
    assert T + True == 1 + T and T - True == T - 1 and True - T == 1 - T and T * True == T


def test_parse_scalar_checks_the_span_of_the_sum():
    # terms that cancel leave no span behind; the check is on the final value
    assert parse_scalar("1 + t^2000000 - t^2000000") == 1
    with pytest.raises(ValueError) as exc:
        parse_scalar("1 + t^2000000 + t^3000000")
    assert str(exc.value) == "Laurent polynomial spans 3000001 exponents, more than 1048576"
    # numerators of one exponent add up over the common denominator
    assert parse_scalar("1/2*t + 1/3*t - 5/6*t + 1/4") == scalar(Fraction(1, 4))
    assert parse_scalar("1/2*t - 1/6*t^-1 + t") == scalar({1: Fraction(3, 2), -1: Fraction(-1, 6)})
