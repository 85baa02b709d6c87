"""Exact scalar arithmetic over Q[t, t^-1].

Scalars are rationals (``fractions.Fraction``) and Laurent polynomials in a
single variable ``t`` with rational coefficients: one ring in two flavours.
Every operation is exact; there is no floating point anywhere.

The canonical form of a scalar is a ``Fraction`` whenever the value is
constant, and a ``LaurentPoly`` otherwise.  ``LaurentPoly`` arithmetic
(``+ - * **`` with ``int``, ``Fraction`` or ``LaurentPoly`` operands, and
``invert()``) returns canonical values, and ``Fraction`` arithmetic is closed
already, so callers use plain operators and equality and hashing are reliable
across the two flavours.  ``as_scalar`` is the coercion at the boundary: it
turns ``int`` inputs and constant ``LaurentPoly`` values into canonical form
(a negative power of a plain ``int`` would be a float).

Units of Q[t, t^-1] are exactly the nonzero monomials c*t^k; inversion and
negative powers are only defined for those (and for nonzero rationals).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import Iterator, Union


class LaurentPoly:
    """Sparse Laurent polynomial: a map exponent -> nonzero rational coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, Fraction | int] | None = None):
        pruned: dict[int, Fraction] = {}
        for exp, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                pruned[int(exp)] = c
        self._coeffs = pruned

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in descending exponent order."""
        return iter(sorted(self._coeffs.items(), reverse=True))

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, ZERO)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return not self._coeffs or (len(self._coeffs) == 1 and 0 in self._coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._coeffs.get(0, ZERO)

    def is_unit(self) -> bool:
        return len(self._coeffs) == 1

    def invert(self) -> ScalarValue:
        if not self.is_unit():
            raise ValueError(f"not a unit in Q[t, t^-1]: {self}")
        ((exp, c),) = self._coeffs.items()
        return _canonical({-exp: 1 / c})

    def __add__(self, other: object) -> ScalarValue:
        terms = _terms(other)
        if terms is None:
            return NotImplemented
        return _sum(self._coeffs, terms, 1)

    __radd__ = __add__

    def __neg__(self) -> ScalarValue:
        return _canonical({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: object) -> ScalarValue:
        terms = _terms(other)
        if terms is None:
            return NotImplemented
        return _sum(self._coeffs, terms, -1)

    def __rsub__(self, other: object) -> ScalarValue:
        terms = _terms(other)
        if terms is None:
            return NotImplemented
        return _sum(terms, self._coeffs, -1)

    def __mul__(self, other: object) -> ScalarValue:
        terms = _terms(other)
        if terms is None:
            return NotImplemented
        coeffs: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in terms.items():
                e = e1 + e2
                c = c1 * c2
                coeffs[e] = coeffs[e] + c if e in coeffs else c
        return _canonical(coeffs)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> ScalarValue:
        """Exact power, with x**0 == 1; negative exponents require a unit."""
        if self.is_unit():
            ((exp, c),) = self._coeffs.items()
            return _canonical({exp * e: c**e})
        if e < 0:
            raise ValueError(f"negative power of a non-unit: {self}")
        acc: ScalarValue = ONE
        base: ScalarValue = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constant polynomials must hash like their Fraction value.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ScalarValue = Union[Fraction, LaurentPoly]

ZERO = Fraction(0)
ONE = Fraction(1)
T = LaurentPoly({1: 1})


def _terms(x: object) -> dict[int, Fraction] | None:
    """The exponent -> coefficient map of an operand, or None for a non-scalar."""
    if isinstance(x, LaurentPoly):
        return x._coeffs
    if isinstance(x, Fraction):
        return {0: x}
    if isinstance(x, int):
        return {0: Fraction(x)}
    return None


def _sum(x: dict[int, Fraction], y: dict[int, Fraction], sign: int) -> ScalarValue:
    coeffs = dict(x)
    for e, c in y.items():
        if sign < 0:
            c = -c
        coeffs[e] = coeffs[e] + c if e in coeffs else c
    return _canonical(coeffs)


def _canonical(coeffs: dict[int, Fraction]) -> ScalarValue:
    """The canonical value of a map whose coefficients are Fractions already:
    zero terms dropped, a constant returned as its Fraction."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return ZERO
    if len(coeffs) == 1 and 0 in coeffs:
        return coeffs[0]
    poly = object.__new__(LaurentPoly)
    poly._coeffs = coeffs
    return poly


def as_scalar(x: ScalarValue | int) -> ScalarValue:
    """Coerce to canonical form: Fraction when constant, LaurentPoly otherwise."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, LaurentPoly):
        return x.constant_value() if x.is_constant() else x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a scalar: {x!r}")


def is_unit(x: ScalarValue | int) -> bool:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return x != 0
    return x.is_unit()


def unit_root_order(x: ScalarValue | int) -> int | None:
    """Smallest r >= 1 with x**r == 1, or None.

    Over Q the only roots of unity are 1 and -1; in Q[t, t^-1] the units are
    the monomials c*t^k, whose powers can be 1 only when k == 0, reducing to
    the rational case.  The decision is exact, no search bound is needed.
    """
    x = as_scalar(x)
    if x == 0:
        raise ValueError("zero has no unit order")
    if isinstance(x, Fraction):
        if x == 1:
            return 1
        if x == -1:
            return 2
        return None
    # Non-constant Laurent: a monomial t^k (k != 0) has infinite order, and a
    # non-monomial is not even a unit.
    return None


def multinomial_coeff(p: int, i: int, j: int, k: int) -> int:
    """Exact p! / (i! j! k!) for i + j + k == p."""
    if min(p, i, j, k) < 0 or i + j + k != p:
        raise ValueError(f"need i + j + k == p with all nonnegative, got {(p, i, j, k)}")
    return factorial(p) // (factorial(i) * factorial(j) * factorial(k))


# --- text format -----------------------------------------------------------
#
# Rational:  p/q  or  p, ASCII digits with an optional sign on p.
# Laurent:   terms  c*t^e  joined by " + ", descending exponent, coefficient
#            carries its sign, e.g.  -1*t^1 + 1*t^-1.
# Parsing also accepts the shorthands  t, -t, t^k, c*t  and "-"-separated sums.

_TERM_RE = re.compile(
    r"""\s*(?P<sep>[+-])?\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*t(?:\^(?P<exp1>-?\d+))?)?
          | t(?:\^(?P<exp2>-?\d+))?
        )\s*""",
    re.VERBOSE | re.ASCII,
)
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational(digits: str, text: str) -> Fraction:
    """`digits` (a match of p or p/q inside `text`) as a Fraction."""
    try:
        return Fraction(digits)
    except ZeroDivisionError:
        raise ValueError(f"bad scalar {text!r}: zero denominator") from None


def parse_scalar(text: str) -> ScalarValue:
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    if "t" not in text:
        if _RATIONAL_RE.fullmatch(text) is None:
            raise ValueError(f"bad rational {text!r}: expected p or p/q")
        return _rational(text, text)
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad scalar {text!r} at position {pos}")
        sep, sign = m.group("sep"), m.group("sign")
        if sep is None and sign is None and not first:
            raise ValueError(f"missing +/- between terms in {text!r}")
        c = _rational(m.group("coeff"), text) if m.group("coeff") else Fraction(1)
        for mark in (sep, sign):
            if mark == "-":
                c = -c
        has_t = m.group("coeff") is None or "t" in text[m.start() : m.end()]
        exp = 0
        if has_t:
            exp_text = m.group("exp1") or m.group("exp2")
            exp = int(exp_text) if exp_text else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
        pos = m.end()
        first = False
    return as_scalar(LaurentPoly(coeffs))


def format_scalar(x: ScalarValue | int) -> str:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return str(x)
    if x.is_zero():
        return "0"
    return " + ".join(f"{c}*t^{e}" for e, c in x.items())
