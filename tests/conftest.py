"""Shared test helpers: seeded random word generators, the brute-force
routes of the witness walk (the enumeration of freely reduced braid words),
of the SM_2 kernel grid and of the formal product, and the one conversion
between the library's scalars and the ``Fraction`` values the tests use as
their oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from smbraid.algebra import FormalElement
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


def grid_reference(rep, params, p_max, q_max):
    """The brute-force route of `analysis.kernel_search_sm2`: the grid cell
    by cell, in hit order, each row head tau_1^p times sigma_1^q and
    sigma_1^-q, each cell tested with is_identity()."""
    s, s_inv, one = rep.image(1), rep.image_inv(1), rep.one()
    t = s.scale(params.a) + s_inv.scale(params.b) + one.scale(params.c)
    hits = []
    head = one
    for p in range(p_max + 1):
        if p:
            head = head * t
        if p and head.is_identity():
            hits.append((p, 0))
        pos = neg = head
        for q in range(1, q_max + 1):
            pos = pos * s
            neg = neg * s_inv
            if pos.is_identity():
                hits.append((p, q))
            if neg.is_identity():
                hits.append((p, -q))
    return tuple(hits)


def formal_terms(x: FormalElement) -> dict[object, dict[int, Fraction]]:
    """The coefficients of a formal element as {group element: terms(c)}."""
    return {g: terms(c) for g, c in x.coeffs.items()}


def formal_product_reference(x: FormalElement, y: FormalElement) -> dict[object, dict[int, Fraction]]:
    """The all-pairs route of `FormalElement.__mul__`, in plain Python on
    `formal_terms`: every pair of terms a * g of x and b * h of y adds the
    convolution of the {exponent: Fraction} maps of a and b to the map at
    g * h; maps that cancel to nothing, and their zero terms, are dropped.
    No LaurentPoly arithmetic and no FormalElement constructor is used."""
    total: dict[object, dict[int, Fraction]] = {}
    ys = formal_terms(y).items()
    for g, a in formal_terms(x).items():
        for h, b in ys:
            acc = total.setdefault(g * h, {})
            for i, u in a.items():
                for j, v in b.items():
                    acc[i + j] = acc.get(i + j, 0) + u * v
    purged = {gh: {e: c for e, c in acc.items() if c} for gh, acc in total.items()}
    return {gh: acc for gh, acc in purged.items() if acc}
