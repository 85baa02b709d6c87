"""Exact scalar arithmetic over Q[t, t^-1].

Every scalar is a ``LaurentPoly``: a Laurent polynomial in one variable ``t``
with rational coefficients, stored as integer numerators over one
denominator.  Constants are ``LaurentPoly`` values too, so there is one
scalar type; every operation is exact and there is no floating point
anywhere.

The stored triple is canonical: a lowest exponent, the tuple of numerators
from there up, and a positive denominator that shares no factor with all the
numerators together.  A constant ``n/den`` is ``(0, (n,), den)`` and zero is
``(0, (), 1)``.  A product is one integer convolution (``_accumulate``, also
the kernel of ``algebra.Matrix``) and one ``gcd``; a sum convolves both sides
with the monomials that put them on a common denominator.  A product of two
one-term values, or a sum of two at the same exponent, is one integer product
or sum and one ``gcd``.

``LaurentPoly`` arithmetic (``+ - * **`` with ``int`` or ``LaurentPoly``
operands) returns canonical ``LaurentPoly`` values, and a value equal to an
``int`` compares and hashes like it.  No other type is a scalar: a value is
built by ``as_scalar`` (the coercion of an ``int``; a negative power of a plain
``int`` would be a float), by ``parse_scalar`` or by arithmetic from ``T``,
never by calling the class.

Units of Q[t, t^-1] are exactly the nonzero monomials c*t^k; ``x ** -1`` and
other negative powers are only defined for those.
"""

from __future__ import annotations

import re
from math import factorial, gcd, lcm


class LaurentPoly:
    """Laurent polynomial stored as integer numerators over one denominator.

    The value is ``sum(nums[i] * t**(low + i)) / den``.  Every stored triple is
    canonical: ``nums`` has no zero at either end (and is empty only for zero,
    then with ``low == 0``), ``den > 0`` and ``gcd(den, *nums) == 1``, so equal
    values have equal triples.
    """

    __slots__ = ("_low", "_nums", "_den")

    # _new builds every value without calling __init__, and copy and pickle
    # restore one without it too.
    def __init__(self, *args: object):
        raise TypeError("LaurentPoly values come from as_scalar, parse_scalar and arithmetic")

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_constant(self) -> bool:
        return not self._nums or (self._low == 0 and len(self._nums) == 1)

    def is_unit(self) -> bool:
        return len(self._nums) == 1

    def __add__(self, other: object) -> LaurentPoly:
        if type(other) is LaurentPoly:
            return _sum(self._low, self._nums, self._den, other._low, other._nums, other._den, 1)
        if type(other) is int:
            return _sum(self._low, self._nums, self._den, 0, (other,) if other else (), 1, 1)
        if not isinstance(other, int):
            return NotImplemented
        return _sum(self._low, self._nums, self._den, *_parts(other), 1)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _new(self._low, tuple([-n for n in self._nums]), self._den)

    def __sub__(self, other: object) -> LaurentPoly:
        if type(other) is LaurentPoly:
            return _sum(self._low, self._nums, self._den, other._low, other._nums, other._den, -1)
        if not isinstance(other, int):
            return NotImplemented
        return _sum(self._low, self._nums, self._den, *_parts(other), -1)

    def __rsub__(self, other: object) -> LaurentPoly:
        if not isinstance(other, int):
            return NotImplemented
        return _sum(*_parts(other), self._low, self._nums, self._den, -1)

    def __mul__(self, other: object) -> LaurentPoly:
        if type(other) is LaurentPoly:
            low, b, den = other._low, other._nums, other._den
        elif type(other) is int:
            low, b, den = 0, (other,) if other else (), 1
        elif isinstance(other, int):
            low, b, den = _parts(other)
        else:
            return NotImplemented
        a = self._nums
        if len(a) == 1 and len(b) == 1:
            # one term times one term: one integer product and one gcd
            n = a[0] * b[0]
            den *= self._den
            g = gcd(n, den)
            if g != 1:
                n //= g
                den //= g
            return _new(self._low + low, (n,), den)
        if not a or not b:
            return ZERO
        return _make(*_accumulate([(self._low + low, a, b)]), self._den * den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> LaurentPoly:
        """Exact power, with x**0 == 1; negative exponents require a unit."""
        if len(self._nums) == 1:
            # (n/den)**e is in lowest terms as n/den is
            (n,) = self._nums
            num, den = (n**e, self._den**e) if e >= 0 else (self._den**-e, n**-e)
            if den < 0:
                num, den = -num, -den
            return _new(self._low * e, (num,), den)
        if e < 0:
            raise ValueError(f"negative power of a non-unit: {self}")
        acc = ONE
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        if type(other) is LaurentPoly:
            return self._nums == other._nums and self._low == other._low and self._den == other._den
        if type(other) is int:
            nums = self._nums
            if not other:
                return not nums
            return len(nums) == 1 and nums[0] == other and self._den == 1 and not self._low
        if not isinstance(other, int):
            return NotImplemented
        return (self._low, self._nums, self._den) == _parts(other)

    def __hash__(self) -> int:
        # A value equal to an int hashes like it; any other hashes its triple.
        low, nums, den = self._low, self._nums, self._den
        if not low and den == 1 and len(nums) <= 1:
            return hash(nums[0]) if nums else 0
        return hash((low, nums, den))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def _new(low: int, nums: tuple[int, ...], den: int) -> LaurentPoly:
    """A LaurentPoly holding a triple that is canonical already."""
    poly = object.__new__(LaurentPoly)
    poly._low = low
    poly._nums = nums
    poly._den = den
    return poly


ZERO = _new(0, (), 1)
ONE = _new(0, (1,), 1)
T = _new(1, (1,), 1)

# Longest exponent range a LaurentPoly may span.  The numerators are stored
# densely, so a sum such as 1 + t^(10**12) would otherwise allocate one slot per
# exponent in between.
MAX_SPAN = 1 << 20


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"Laurent polynomial spans {span} exponents, more than {MAX_SPAN}")


def _parts(x: object) -> tuple[int, tuple[int, ...], int]:
    """The canonical (low, nums, den) triple of a LaurentPoly or an int (int
    subclasses included); TypeError for anything else.  The operators read
    LaurentPoly and int operands directly and come here only for a subclass
    of int."""
    if isinstance(x, LaurentPoly):
        return x._low, x._nums, x._den
    if isinstance(x, int):
        return 0, (int(x),) if x else (), 1
    raise TypeError(f"not a scalar: {x!r}")


def _sum(
    low1: int, a: tuple[int, ...], den1: int, low2: int, b: tuple[int, ...], den2: int, sign: int
) -> LaurentPoly:
    """a/den1 + sign * b/den2 for canonical triples, on the common
    denominator lcm(den1, den2)."""
    if len(a) == 1 and len(b) == 1 and low1 == low2:
        n = a[0] * den2 + sign * b[0] * den1
        if not n:
            return ZERO
        den = den1 * den2
        g = gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        return _new(low1, (n,), den)
    if not b:
        return _new(low1, a, den1)
    if not a:
        return _new(low2, b if sign > 0 else tuple([-n for n in b]), den2)
    g = gcd(den1, den2)
    return _make(*_accumulate([(low1, a, (den2 // g,)), (low2, b, (sign * (den1 // g),))]), den1 // g * den2)


def _make(low: int, nums: tuple[int, ...], den: int) -> LaurentPoly:
    """The canonical value of sum(nums[i] * t**(low + i)) / den, for trimmed
    numerators and den > 0: the common factor of den and the numerators
    cancelled."""
    if not nums:
        return ZERO
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([n // g for n in nums])
    return _new(low, nums, den)


# A trimmed entry (lowest exponent, trimmed integer numerators); zero is (0, ()).
_ZERO_ENTRY: tuple[int, tuple[int, ...]] = (0, ())


def _accumulate(terms: list[tuple[int, tuple[int, ...], tuple[int, ...]]]) -> tuple[int, tuple[int, ...]]:
    """The sum of t^low * a * b over a list of triples (low, a, b) of nonempty
    trimmed numerators, as a trimmed entry; the span is checked before use."""
    if len(terms) == 1:
        # a monomial times a trimmed entry is trimmed already
        low, a, b = terms[0]
        if len(a) == 1:
            return low, tuple([a[0] * y for y in b])
        if len(b) == 1:
            return low, tuple([x * b[0] for x in a])
    elif not terms:
        return _ZERO_ENTRY
    low = min([t[0] for t in terms])
    span = max([t[0] + len(t[1]) + len(t[2]) for t in terms]) - 1 - low
    if span == 1:  # monomials at one exponent
        n = sum([t[1][0] * t[2][0] for t in terms])
        return (low, (n,)) if n else _ZERO_ENTRY
    _check_span(span)
    out = [0] * span
    for t_low, a, b in terms:
        if len(a) > len(b):  # fewer, longer inner loops
            a, b = b, a
        for i, x in enumerate(a, t_low - low):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    end = span
    while end and not out[end - 1]:
        end -= 1
    start = 0
    while start < end and not out[start]:
        start += 1
    return (low + start, tuple(out[start:end])) if end else _ZERO_ENTRY


def as_scalar(x: LaurentPoly | int) -> LaurentPoly:
    """Coerce an int or LaurentPoly to its LaurentPoly value."""
    if type(x) is LaurentPoly:
        return x
    return _new(*_parts(x))


def is_unit(x: LaurentPoly | int) -> bool:
    return as_scalar(x).is_unit()


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


def _rational(digits: str, text: str) -> tuple[int, int]:
    """`digits` (a match of p or p/q inside `text`) as the integers (p, q)."""
    p, _, q = digits.partition("/")
    den = int(q) if q else 1
    if not den:
        raise ValueError(f"bad scalar {text!r}: zero denominator")
    return int(p), den


def parse_scalar(text: str) -> LaurentPoly:
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    if "t" not in text:
        if _RATIONAL_RE.fullmatch(text) is None:
            raise ValueError(f"bad rational {text!r}: expected p or p/q")
        num, den = _rational(text, text)
        return _make(0, (num,) if num else (), den)
    terms: list[tuple[int, int, int]] = []  # (exponent, numerator, denominator)
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad scalar {text!r} at position {pos}")
        sep, sign = m.group("sep"), m.group("sign")
        if sep is None and sign is None and terms:
            raise ValueError(f"missing +/- between terms in {text!r}")
        num, den = _rational(m.group("coeff"), text) if m.group("coeff") else (1, 1)
        for mark in (sep, sign):
            if mark == "-":
                num = -num
        has_t = m.group("coeff") is None or "t" in text[m.start() : m.end()]
        exp = 0
        if has_t:
            exp_text = m.group("exp1") or m.group("exp2")
            exp = int(exp_text) if exp_text else 1
        terms.append((exp, num, den))
        pos = m.end()
    # the numerators of each exponent, added up over the common denominator
    den = lcm(*[d for _, _, d in terms])
    sums: dict[int, int] = {}
    for exp, num, d in terms:
        sums[exp] = sums.get(exp, 0) + num * (den // d)
    exps = [exp for exp, n in sums.items() if n]
    if not exps:
        return ZERO
    low, high = min(exps), max(exps)
    _check_span(high - low + 1)
    return _make(low, tuple([sums.get(e, 0) for e in range(low, high + 1)]), den)


def format_scalar(x: LaurentPoly | int) -> str:
    x = as_scalar(x)
    return _format(x._low, x._nums, x._den)


def _format(low: int, nums: tuple[int, ...], den: int) -> str:
    """The text of sum(nums[i] * t**(low + i)) / den, nums trimmed, den > 0."""
    if not nums:
        return "0"
    if not low and len(nums) == 1:
        return _ratio(nums[0], den)
    return " + ".join(f"{_ratio(n, den)}*t^{e}" for e, n in reversed(tuple(enumerate(nums, low))) if n)


def _ratio(n: int, den: int) -> str:
    """n/den in lowest terms, as str(Fraction(n, den)) prints it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"
