"""Exact scalar arithmetic over Q[t, t^-1].

Scalars are rationals (``fractions.Fraction``) and Laurent polynomials in a
single variable ``t`` with rational coefficients: one ring in two flavours.
Every operation is exact; there is no floating point anywhere.

A ``LaurentPoly`` keeps integer numerators over one denominator: a lowest
exponent, the tuple of numerators from there up, and a positive denominator
that shares no factor with all the numerators together.  A product is one
integer convolution and one ``gcd``; a sum puts both sides on a common
denominator and aligns the exponents.

The canonical form of a scalar is a ``Fraction`` whenever the value is
constant, and a ``LaurentPoly`` otherwise.  ``LaurentPoly`` arithmetic
(``+ - * **`` with ``int``, ``Fraction`` or ``LaurentPoly`` operands) returns
canonical values, and ``Fraction`` arithmetic is closed already, so callers
use plain operators and equality and hashing are reliable across the two
flavours.  ``as_scalar`` is the coercion at the boundary: it turns ``int``
inputs and constant ``LaurentPoly`` values into canonical form (a negative
power of a plain ``int`` would be a float).

Units of Q[t, t^-1] are exactly the nonzero monomials c*t^k; ``x ** -1`` and
other negative powers are only defined for those (and for nonzero rationals).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterator, Sequence, Union


class LaurentPoly:
    """Laurent polynomial stored as integer numerators over one denominator.

    The value is ``sum(nums[i] * t**(low + i)) / den``.  Every stored triple is
    canonical: ``nums`` has no zero at either end (and is empty only for zero,
    then with ``low == 0``), ``den > 0`` and ``gcd(den, *nums) == 1``, so equal
    values have equal triples.
    """

    __slots__ = ("_low", "_nums", "_den")

    def __init__(self, coeffs: dict[int, Fraction | int] | None = None):
        terms: dict[int, Fraction] = {}
        for exp, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                terms[int(exp)] = c
        if not terms:
            self._low, self._nums, self._den = 0, (), 1
            return
        low, high = min(terms), max(terms)
        _check_span(high - low + 1)
        # Each coefficient is in lowest terms, so the lcm of the denominators
        # shares no factor with all the scaled numerators together.
        den = lcm(*(c.denominator for c in terms.values()))
        self._low, self._den = low, den
        self._nums = tuple(
            c.numerator * (den // c.denominator) if (c := terms.get(e)) else 0
            for e in range(low, high + 1)
        )

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in descending exponent order."""
        low, den = self._low, self._den
        return (
            (low + i, Fraction(n, den))
            for i, n in reversed(tuple(enumerate(self._nums)))
            if n
        )

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_constant(self) -> bool:
        return not self._nums or (self._low == 0 and len(self._nums) == 1)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._nums[0], self._den) if self._nums else ZERO

    def is_unit(self) -> bool:
        return len(self._nums) == 1

    def __add__(self, other: object) -> ScalarValue:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(self._low, self._nums, self._den, *parts, 1)

    __radd__ = __add__

    def __neg__(self) -> ScalarValue:
        return _make(self._low, [-n for n in self._nums], self._den)

    def __sub__(self, other: object) -> ScalarValue:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(self._low, self._nums, self._den, *parts, -1)

    def __rsub__(self, other: object) -> ScalarValue:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(*parts, self._low, self._nums, self._den, -1)

    def __mul__(self, other: object) -> ScalarValue:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        low, b, den = parts
        a = self._nums
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _make(self._low + low, out, self._den * den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> ScalarValue:
        """Exact power, with x**0 == 1; negative exponents require a unit."""
        if self.is_unit():
            (n,) = self._nums
            num, den = (n**e, self._den**e) if e >= 0 else (self._den**-e, n**-e)
            if den < 0:
                num, den = -num, -den
            return _make(self._low * e, [num], den)
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
            return self._low == other._low and self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constant polynomials must hash like their Fraction value; the others
        # hash like the tuple of their (exponent, Fraction coefficient) pairs in
        # ascending order.  hash(Fraction(n)) == hash(n), so an integer
        # numerator stands for itself when the denominator is 1.
        if self.is_constant():
            return hash(self.constant_value())
        low, den = self._low, self._den
        return hash(
            tuple(
                (low + i, n if den == 1 else Fraction(n, den))
                for i, n in enumerate(self._nums)
                if n
            )
        )

    def __repr__(self) -> str:
        return f"LaurentPoly({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ScalarValue = Union[Fraction, LaurentPoly]

ZERO = Fraction(0)
ONE = Fraction(1)

# Longest exponent range a LaurentPoly may span.  The numerators are stored
# densely, so a sum such as 1 + t^(10**12) would otherwise allocate one slot per
# exponent in between.
MAX_SPAN = 1 << 20


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"Laurent polynomial spans {span} exponents, more than {MAX_SPAN}")


def _parts(x: object) -> tuple[int, Sequence[int], int] | None:
    """The canonical (low, nums, den) triple of an operand, or None for a
    non-scalar."""
    if isinstance(x, LaurentPoly):
        return x._low, x._nums, x._den
    if isinstance(x, Fraction):
        return 0, (x.numerator,) if x else (), x.denominator
    if isinstance(x, int):
        return 0, (x,) if x else (), 1
    return None


def _sum(
    low1: int, a: Sequence[int], den1: int, low2: int, b: Sequence[int], den2: int, sign: int
) -> ScalarValue:
    """a/den1 + sign * b/den2, on the common denominator lcm(den1, den2)."""
    if not b:
        return _make(low1, list(a), den1)
    if not a:
        return _make(low2, [sign * n for n in b], den2)
    g = gcd(den1, den2)
    fa, fb = den2 // g, sign * (den1 // g)
    low = min(low1, low2)
    span = max(low1 + len(a), low2 + len(b)) - low
    _check_span(span)
    out = [0] * span
    for i, n in enumerate(a, low1 - low):
        out[i] = n * fa
    for i, n in enumerate(b, low2 - low):
        out[i] += n * fb
    return _make(low, out, den1 // g * den2)


def _make(low: int, nums: list[int], den: int) -> ScalarValue:
    """The canonical value of sum(nums[i] * t**(low + i)) / den, for den > 0:
    zeros trimmed from both ends, the common factor of den and the numerators
    cancelled, and a constant returned as its Fraction."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    if not end:
        return ZERO
    start = 0
    while not nums[start]:
        start += 1
    if start or end < len(nums):
        nums = nums[start:end]
        low += start
    _check_span(len(nums))
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    if low == 0 and len(nums) == 1:
        return Fraction(nums[0], den)
    poly = object.__new__(LaurentPoly)
    poly._low = low
    poly._nums = tuple(nums)
    poly._den = den
    return poly


T = LaurentPoly({1: 1})


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
    if not x:
        return "0"
    return " + ".join(f"{c}*t^{e}" for e, c in x.items())
