"""The extension family Phi_{a,b,c} of a braid representation to SM_n.

Given a braid representation rho and scalars a, b, c, the extension sends
sigma letters to their rho-images and every singular generator to

    tau_i  ->  a * rho(sigma_i) + b * rho(sigma_i)^-1 + c * 1,

where 1 is the algebra identity of the backend.  An `Extension` holds these
images as one letter table, built once per (representation, parameters)
pair, and `reps.rep_eval(ext, w)` folds a word through it: a strict
left-to-right product with no reordering, so a failed comparison localizes
to a letter position.

`check_relations` verifies all seven defining relation families on a given
(representation, parameters) pair by exact evaluation of both sides, and the
two `tau_power_*` functions compute the scalar value of tau_1^p sigma_1^q
under a scalar character d by multinomial expansion and by direct powering.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul
from typing import Iterator, NamedTuple, TypeVar

from .algebra import AlgebraElement, linear_combination
from .reps import BraidRep, rep_eval
from .scalars import (
    ONE,
    ZERO,
    ScalarValue,
    as_scalar,
    format_scalar,
    is_unit,
    multinomial_coeff,
)
from .words import GenLetter, SMWord, defining_relations, tau


class PhiParams(NamedTuple):
    a: ScalarValue
    b: ScalarValue
    c: ScalarValue

    @staticmethod
    def of(a: ScalarValue | int, b: ScalarValue | int, c: ScalarValue | int) -> "PhiParams":
        return PhiParams(as_scalar(a), as_scalar(b), as_scalar(c))

    def text(self) -> str:
        return f"({format_scalar(self.a)}, {format_scalar(self.b)}, {format_scalar(self.c)})"


class Extension:
    """The letter table of Phi_{a,b,c} on SM_n, built once.

    `letters` maps every sigma_i^(+-1) to its rho-image and every tau_i to
    a * rho(sigma_i) + b * rho(sigma_i)^-1 + c * 1.  `rep_eval(ext, w)` folds
    a word through it.
    """

    def __init__(self, rep: BraidRep, params: PhiParams):
        self.rep = rep
        self.n = rep.n
        self.letters: dict[GenLetter, AlgebraElement] = dict(rep.letters)
        for i in range(1, rep.n):
            self.letters[tau(i)] = linear_combination(
                [(params.a, rep.image(i)), (params.b, rep.image_inv(i)), (params.c, rep.one())]
            )

    def one(self) -> AlgebraElement:
        return self.rep.one()


class RelationCheck(NamedTuple):
    """A `RelationInstance` and whether its two sides have one image."""

    family: int
    name: str
    indices: tuple[int, ...]
    lhs: SMWord
    rhs: SMWord
    passed: bool


class RelationReport(NamedTuple):
    params: PhiParams
    checks: tuple[RelationCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def families_passed(self) -> int:
        """Number of relation families (out of 7) with no failing instance;
        families with no instance at this n pass vacuously."""
        bad = {c.family for c in self.failures()}
        return 7 - len(bad)

    def format_text(self) -> str:
        lines = [f"{self.families_passed()}/7 relation families pass"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"  ({c.family}) {c.name} {c.indices}: "
                f"{c.lhs.text()!r} vs {c.rhs.text()!r} ... {status}"
            )
        return "\n".join(lines)


def check_relations(rep: BraidRep, params: PhiParams) -> RelationReport:
    """Evaluate both sides of every defining relation instance, exactly."""
    ext = Extension(rep, params)
    checks = []
    for inst in defining_relations(rep.n):
        passed = rep_eval(ext, inst.lhs) == rep_eval(ext, inst.rhs)
        checks.append(RelationCheck(*inst, passed))
    return RelationReport(params, tuple(checks))


def _unit_d(d: ScalarValue | int, p: int) -> ScalarValue:
    """d as a scalar, after the checks both `tau_power_*` routes make."""
    d = as_scalar(d)
    if p < 0:
        raise ValueError("need p >= 0")
    if not is_unit(d):
        raise ValueError(f"need a unit d, got {format_scalar(d)}")
    return d


def tau_power_expand(params: PhiParams, d: ScalarValue | int, p: int, q: int) -> ScalarValue:
    """Scalar image of tau_1^p sigma_1^q under the character sigma_1 -> d:

        sum over i+j+k = p of  p!/(i! j! k!) * a^i b^j c^k * d^(i - j + q).
    """
    return _multinomial_sum(params, _unit_d(d, p), p, q)


def _multinomial_sum(params: PhiParams, d: ScalarValue, p: int, q: int) -> ScalarValue:
    """The sum of `tau_power_expand`, for a unit scalar d and p >= 0."""
    a_pow, b_pow, c_pow = ([ONE, *_powers(x, p)] for x in (params.a, params.b, params.c))
    total: ScalarValue = ZERO
    for i in range(p + 1):
        for j in range(p - i + 1):
            k = p - i - j
            coeff = multinomial_coeff(p, i, j, k)
            total = total + coeff * (a_pow[i] * b_pow[j]) * (c_pow[k] * d ** (i - j + q))
    return total


_Power = TypeVar("_Power", ScalarValue, AlgebraElement)


def _powers(x: _Power, k: int) -> Iterator[_Power]:
    """x, x^2, ..., x^k, streamed: one product per power after the first."""
    return accumulate(repeat(x, k), mul)


def tau_power_direct(params: PhiParams, d: ScalarValue | int, p: int, q: int) -> ScalarValue:
    """Independent evaluation of the same scalar: (a d + b d^-1 + c)^p d^q by
    repeated multiplication."""
    d = _unit_d(d, p)
    base = params.a * d + params.b * d**-1 + params.c
    acc: ScalarValue = ONE
    for _ in range(p):
        acc = acc * base
    return acc * d**q
