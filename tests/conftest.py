"""Shared test helpers: seeded random word generators and the enumeration
of freely reduced braid words."""

from __future__ import annotations

import random
from typing import Iterator

from smbraid.words import SMWord, braid_letters, tau


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
