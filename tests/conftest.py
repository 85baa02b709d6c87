"""Shared test helpers: seeded random word generators, the enumeration of
freely reduced braid words, and the one conversion between the library's
scalars and the ``Fraction`` values the tests use as their oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from smbraid.scalars import LaurentPoly, T, _parts, as_scalar
from smbraid.words import SMWord, braid_letters, tau


def scalar(x: int | Fraction | dict[int, Fraction | int]) -> LaurentPoly:
    """An int, a Fraction or a map {exponent: coefficient} as a LaurentPoly,
    built by arithmetic: each term is as_scalar(n) * as_scalar(d)**-1 * T**e."""
    total = as_scalar(0)
    for e, c in (x if isinstance(x, dict) else {0: x}).items():
        c = Fraction(c)
        total += as_scalar(c.numerator) * as_scalar(c.denominator) ** -1 * T**e
    return total


def terms(x: LaurentPoly) -> dict[int, Fraction]:
    """The nonzero terms of a LaurentPoly as {exponent: Fraction}, read from
    its stored (low, nums, den) triple."""
    low, nums, den = _parts(x)
    return {e: Fraction(n, den) for e, n in enumerate(nums, low) if n}


def random_braid_word(rng: random.Random, n: int, max_len: int) -> SMWord:
    length = rng.randint(0, max_len)
    alphabet = braid_letters(n)
    return SMWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


def random_sm_word(rng: random.Random, n: int, max_len: int) -> SMWord:
    length = rng.randint(0, max_len)
    alphabet = list(braid_letters(n)) + [tau(i) for i in range(1, n)]
    return SMWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


def enumerate_braid_words(n: int, max_len: int) -> Iterator[SMWord]:
    """All freely reduced braid words of length <= max_len, shortest first,
    and each length in `braid_letters` order: the brute-force route of the
    witness walk in `analysis.find_scalar_witness`."""
    alphabet = braid_letters(n)
    level: list[tuple] = [()]
    yield SMWord(n, ())
    for _ in range(max_len):
        next_level = []
        for prefix in level:
            for letter in alphabet:
                if prefix and prefix[-1] == letter.inverse():
                    continue
                letters = prefix + (letter,)
                next_level.append(letters)
                yield SMWord(n, letters)
        level = next_level
