"""Words in the braid group B_n and the singular braid monoid SM_n.

B_n is generated by sigma_1 .. sigma_{n-1} subject to the braid relation
``sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1}`` and far
commutation; SM_n adds the singular generators tau_1 .. tau_{n-1} (which have
no inverses) and five more relation families mixing sigma and tau letters.

A braid word is an `SMWord` with no tau letter (`is_braid`); there is one
word type for both monoids, since B_n sits inside SM_n.

Words are immutable letter sequences and are never normalized behind the
caller's back: every rewriting operation returns a new word whose letter
sequence documents the rewrite, except for explicit `free_reduce` calls.

Token grammar (whitespace separated): ``s<k>`` = sigma_k, ``S<k>`` =
sigma_k^-1, ``t<k>`` = tau_k, ``x`` = sigma_1 ... sigma_{n-1}, ``X`` = its
inverse.  The index ``<k>`` is an ASCII decimal with no leading zero.
`x`/`X` expand at parse time; serialization never re-folds them.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple


class GenLetter(NamedTuple):
    """One generator occurrence: `kind` is the token character "s" (sigma),
    "S" (sigma^-1) or "t" (tau), and `index` the 1-based strand position,
    valid range 1 .. n-1."""

    kind: str
    index: int

    def inverse(self) -> "GenLetter":
        if self.kind == "t":
            raise ValueError("tau letters have no inverse")
        return GenLetter("S" if self.kind == "s" else "s", self.index)

    @property
    def is_tau(self) -> bool:
        return self.kind == "t"

    def token(self) -> str:
        return f"{self.kind}{self.index}"


def sigma(i: int) -> GenLetter:
    return GenLetter("s", i)


def sigma_inv(i: int) -> GenLetter:
    return GenLetter("S", i)


def tau(i: int) -> GenLetter:
    return GenLetter("t", i)


class SMWord:
    """A word in SM_n: ambient strand count plus a finite letter sequence.
    Words are values: equal when their fields are equal, hashable, and
    their fields cannot be rebound."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[GenLetter, ...] = ()):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        for letter in letters:
            if not 1 <= letter.index <= n - 1:
                raise ValueError(f"letter {letter.token()} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.n, self.letters))

    def __reduce__(self):
        return SMWord, (self.n, self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[GenLetter]:
        return iter(self.letters)

    def __mul__(self, other: "SMWord") -> "SMWord":
        if not isinstance(other, SMWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"strand counts differ: {self.n} vs {other.n}")
        return SMWord(self.n, self.letters + other.letters)

    @property
    def is_braid(self) -> bool:
        return not any(letter.is_tau for letter in self.letters)

    def inverse(self) -> "SMWord":
        return SMWord(self.n, tuple(l.inverse() for l in reversed(self.letters)))

    def text(self) -> str:
        return " ".join(letter.token() for letter in self.letters)

    def __repr__(self) -> str:
        return f"SMWord({self.n}, {self.text()!r})"


def sigma_power(n: int, i: int, e: int) -> SMWord:
    """sigma_i**e as a literal word (inverse letters for e < 0)."""
    letter = sigma(i) if e >= 0 else sigma_inv(i)
    return SMWord(n, (letter,) * abs(e))


def tau_power(n: int, i: int, e: int) -> SMWord:
    if e < 0:
        raise ValueError("tau letters have no inverse")
    return SMWord(n, (tau(i),) * e)


_INDEX_RE = re.compile(r"[1-9][0-9]*")


def parse_word(text: str, n: int) -> SMWord:
    """Parse the token grammar; `x`/`X` expand to the full twist word."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    letters: list[GenLetter] = []
    for token in text.split():
        if token == "x":
            letters.extend(sigma(i) for i in range(1, n))
            continue
        if token == "X":
            letters.extend(sigma_inv(i) for i in range(n - 1, 0, -1))
            continue
        head, tail = token[0], token[1:]
        if head not in ("s", "S", "t") or _INDEX_RE.fullmatch(tail) is None:
            raise ValueError(f"unknown token {token!r}")
        index = int(tail)
        if not 1 <= index <= n - 1:
            raise ValueError(f"index out of range in token {token!r} for n={n}")
        letters.append(GenLetter(head, index))
    return SMWord(n, tuple(letters))


# --- relation-invariant statistics ------------------------------------------


def tau_count(w: SMWord) -> int:
    """Number of tau letters; invariant under all seven relation families."""
    return sum(1 for letter in w if letter.is_tau)


def sigma_exponent_sum(w: SMWord) -> int:
    """Signed sigma letter count; a second relation invariant."""
    total = 0
    for letter in w:
        if letter.kind == "s":
            total += 1
        elif letter.kind == "S":
            total -= 1
    return total


def permutation_image(w: SMWord) -> tuple[int, ...]:
    """Image in the symmetric group; every letter (tau included) acts as the
    transposition of its two strands.  Letters act left to right."""
    perm = list(range(w.n))
    for letter in w:
        i = letter.index - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


class SM2NormalForm(NamedTuple):
    """The complete invariant of SM_2 = N x Z: (tau count, sigma exponent)."""

    p: int
    q: int


def sm2_normal_form(w: SMWord) -> SM2NormalForm:
    """Normal form tau_1^p sigma_1^q of an SM_2 word.

    sigma_1 and tau_1 commute, so SM_2 is the free commutative product of one
    N-generator and one Z-generator and the pair (p, q) decides word equality.
    """
    if w.n != 2:
        raise ValueError(f"normal form is defined for n=2 only, got n={w.n}")
    return SM2NormalForm(tau_count(w), sigma_exponent_sum(w))


# --- rewriting ---------------------------------------------------------------


def tau_conjugator(i: int, n: int) -> SMWord:
    """The braid word w_i with tau_i = w_i tau_1 w_i^-1.

    w_1 is empty; sliding tau through crossings gives the recursion
    tau_{i+1} = (sigma_i sigma_{i+1}) tau_i (sigma_i sigma_{i+1})^-1, hence
    w_{i+1} = sigma_i sigma_{i+1} w_i.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for n={n}")
    letters: list[GenLetter] = []
    for j in range(i - 1, 0, -1):
        letters.extend((sigma(j), sigma(j + 1)))
    return SMWord(n, tuple(letters))


def _expand_taus(w: SMWord) -> list[GenLetter]:
    """The letters of w with each tau_i replaced by w_i tau_1 w_i^-1."""
    expanded: list[GenLetter] = []
    for letter in w:
        if not letter.is_tau:
            expanded.append(letter)
            continue
        conj = tau_conjugator(letter.index, w.n)
        expanded.extend(conj.letters)
        expanded.append(tau(1))
        expanded.extend(conj.inverse().letters)
    return expanded


def _sigma_to_s1x(letter: GenLetter) -> list[str]:
    i = letter.index
    core = "s1" if letter.kind == "s" else "S1"
    return ["x"] * (i - 1) + [core] + ["X"] * (i - 1)


def to_s1x_generators(w: SMWord) -> tuple[str, ...]:
    """Rewrite over the two-generator-plus-singular alphabet {s1, S1, x, X, t1}.

    Uses sigma_i = x^(i-1) sigma_1 x^-(i-1) and tau_i = w_i tau_1 w_i^-1 with
    the conjugator's own sigma letters re-expressed the same way.  Parsing the
    returned tokens back (at the same n) yields a word with the same image
    under every representation.
    """
    tokens: list[str] = []
    for letter in _expand_taus(w):
        if letter.is_tau:
            tokens.append("t1")
        else:
            tokens.extend(_sigma_to_s1x(letter))
    return tuple(tokens)


def free_reduce(w: SMWord) -> SMWord:
    """Cancel adjacent sigma/sigma^-1 pairs; tau letters block cancellation."""
    stack: list[GenLetter] = []
    for letter in w:
        if stack and not letter.is_tau and not stack[-1].is_tau and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return SMWord(w.n, tuple(stack))


def conjugate(w: SMWord, u: SMWord) -> SMWord:
    """u * w * u^-1, literally concatenated; a tau letter in u raises."""
    if w.n != u.n:
        raise ValueError(f"strand counts differ: {w.n} vs {u.n}")
    return u * w * u.inverse()


class TauBlockForm(NamedTuple):
    """A word rewritten as  prefix . tau_1^{r_1} u_1 ... tau_1^{r_k} u_k.

    `prefix` collects any leading braid letters (kept explicit rather than
    conjugated away, so the rewrite is total and image-preserving); each block
    is a run of tau_1 letters followed by a braid tail, so every r_i >= 1.
    """

    n: int
    prefix: SMWord
    blocks: tuple[tuple[int, SMWord], ...]

    def assemble(self) -> SMWord:
        letters = list(self.prefix.letters)
        for r, u in self.blocks:
            letters += (tau(1),) * r + u.letters
        return SMWord(self.n, tuple(letters))


def decompose_tau_blocks(w: SMWord) -> TauBlockForm:
    """Rewrite w so the only singular letter is tau_1, grouped into blocks.

    Each tau_i is replaced by w_i tau_1 w_i^-1 (an equality that follows from
    the sliding relations), so the assembled form has the same image as w
    under every representation and the same tau count.
    """
    expanded = _expand_taus(w)
    pos = 0
    while pos < len(expanded) and not expanded[pos].is_tau:
        pos += 1
    prefix = SMWord(w.n, tuple(expanded[:pos]))

    blocks: list[tuple[int, SMWord]] = []
    while pos < len(expanded):
        r = 0
        while pos < len(expanded) and expanded[pos].is_tau:
            r += 1
            pos += 1
        start = pos
        while pos < len(expanded) and not expanded[pos].is_tau:
            pos += 1
        blocks.append((r, SMWord(w.n, tuple(expanded[start:pos]))))
    return TauBlockForm(w.n, prefix, tuple(blocks))


class ShapeForm:
    """Kernel-power shape  tau_1^{r_i} v^{m_i} u_i ...  with
    v = tau_1^p sigma_1^q and 0 <= r_i < p; a leading braid segment appears
    as a (0, 0, u) block.  A value, like `SMWord`."""

    __slots__ = ("n", "p", "q", "blocks")

    def __init__(self, n: int, p: int, q: int, blocks: tuple[tuple[int, int, SMWord], ...]):
        if p < 1:
            raise ValueError("reference pair needs p >= 1")
        for r, m, _ in blocks:
            if not (0 <= r < p and m >= 0):
                raise ValueError(f"block ({r}, {m}) violates 0 <= r < p, m >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.p, self.q, self.blocks) == (other.n, other.p, other.q, other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.q, self.blocks))

    def __reduce__(self):
        return ShapeForm, (self.n, self.p, self.q, self.blocks)

    def __repr__(self) -> str:
        return f"ShapeForm(n={self.n!r}, p={self.p!r}, q={self.q!r}, blocks={self.blocks!r})"

    def assemble(self) -> SMWord:
        v = (tau(1),) * self.p + sigma_power(self.n, 1, self.q).letters
        letters: list[GenLetter] = []
        for r, m, u in self.blocks:
            letters += (tau(1),) * r + v * m + u.letters
        return SMWord(self.n, tuple(letters))

    def strip(self) -> SMWord:
        """Drop every v^{m_i} factor.

        When v lies in the kernel of the representation under test, the
        stripped word has the same image as the assembled one.
        """
        letters: list[GenLetter] = []
        for r, _, u in self.blocks:
            letters += (tau(1),) * r + u.letters
        return SMWord(self.n, tuple(letters))


def shape_form(w: SMWord, p: int, q: int) -> ShapeForm:
    """Split each tau_1 run of the block form of w against v = tau_1^p sigma_1^q.

    A run tau_1^s becomes tau_1^{s mod p} v^{s div p} sigma_1^{-(s div p) q},
    with the sigma correction merged (freely reduced) into the block's braid
    tail.  The result assembles to a word with the same image as w under
    every representation, because tau_1 and sigma_1 commute.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    form = decompose_tau_blocks(w)
    blocks: list[tuple[int, int, SMWord]] = []
    if len(form.prefix):
        blocks.append((0, 0, form.prefix))
    for s, u in form.blocks:
        m, r = divmod(s, p)
        blocks.append((r, m, free_reduce(sigma_power(w.n, 1, -m * q) * u)))
    return ShapeForm(w.n, p, q, tuple(blocks))


def braid_letters(n: int) -> tuple[GenLetter, ...]:
    """Alphabet sigma_1, sigma_1^-1, ..., sigma_{n-1}, sigma_{n-1}^-1."""
    out: list[GenLetter] = []
    for i in range(1, n):
        out.append(sigma(i))
        out.append(sigma_inv(i))
    return tuple(out)


# --- defining relations -------------------------------------------------------


class RelationInstance(NamedTuple):
    family: int
    name: str
    indices: tuple[int, ...]
    lhs: SMWord
    rhs: SMWord


_FAMILY_NAMES = {
    1: "braid",
    2: "sigma far commutation",
    3: "tau far commutation",
    4: "tau-sigma far commutation",
    5: "tau-sigma same-index commutation",
    6: "left slide",
    7: "right slide",
}


def _relation(
    n: int, family: int, indices: tuple[int, ...], lhs: tuple[GenLetter, ...], rhs: tuple[GenLetter, ...]
) -> RelationInstance:
    return RelationInstance(family, _FAMILY_NAMES[family], indices, SMWord(n, lhs), SMWord(n, rhs))


def _far_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Index pairs i < j with j - i >= 2."""
    return ((i, j) for i in range(1, n) for j in range(i + 2, n))


def braid_relations(n: int) -> Iterator[RelationInstance]:
    """The presentation of B_n: the braid relation (family 1) and far
    commutation (family 2)."""
    for i in range(1, n - 1):
        yield _relation(n, 1, (i,), (sigma(i), sigma(i + 1), sigma(i)), (sigma(i + 1), sigma(i), sigma(i + 1)))
    for i, j in _far_pairs(n):
        yield _relation(n, 2, (i, j), (sigma(i), sigma(j)), (sigma(j), sigma(i)))


def defining_relations(n: int) -> Iterator[RelationInstance]:
    """All instances of the seven defining relation families of SM_n at
    strand count n: those of B_n, then families 3 to 7."""
    yield from braid_relations(n)
    for i, j in _far_pairs(n):
        yield _relation(n, 3, (i, j), (tau(i), tau(j)), (tau(j), tau(i)))
    for i, j in itertools.permutations(range(1, n), 2):
        if abs(i - j) >= 2:
            yield _relation(n, 4, (i, j), (tau(i), sigma(j)), (sigma(j), tau(i)))
    for i in range(1, n):
        yield _relation(n, 5, (i,), (tau(i), sigma(i)), (sigma(i), tau(i)))
    for i in range(1, n - 1):
        yield _relation(n, 6, (i,), (sigma(i), sigma(i + 1), tau(i)), (tau(i + 1), sigma(i), sigma(i + 1)))
    for i in range(1, n - 1):
        yield _relation(n, 7, (i,), (sigma(i + 1), sigma(i), tau(i + 1)), (tau(i), sigma(i + 1), sigma(i)))
