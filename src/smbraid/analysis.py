"""Mechanized faithfulness and kernel analysis for the extension family.

Everything here is bounded, exact evidence: the searches enumerate a finite
grid or word ball and report what they saw.  Absence of a hit is never a
proof, and every report carries its bounds and a `bounded` flag.

The kernel of a monoid homomorphism into an algebra is taken to be the
preimage of the algebra identity.  For monoids this can be trivial even when
the map is not injective, which is why unfaithfulness witnesses (two distinct
words with one image) are handled separately from kernel hits.

A witness is only ever constructed together with a machine-checked
distinctness certificate: one of the relation invariants (tau count, sigma
exponent sum, strand permutation) must differ between the two words, and
their images must be exactly equal.  No separate SM_2 invariant is needed:
for n = 2 the tau count and the sigma exponent sum are the normal form
tau_1^p sigma_1^q of SM_2 = N x Z, so they already decide equality there.

SM_3 word equality is decided in the group algebra of B_3, embedded in
SL(2, Z) x Z; `sm3_word_equality` states what "true implies equal" rests on.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple

from .algebra import AlgebraElement, FormalElement, Matrix, SL2ZxZ, _kronecker_keys
from .phi import Extension, PhiParams, _multinomial_sum, _powers
from .reps import BraidRep, cyclic_rep, matrix_rep_from_images, rep_eval
from .scalars import ScalarValue, as_scalar, format_scalar, is_unit
from .words import (
    GenLetter,
    SMWord,
    braid_letters,
    conjugate,
    permutation_image,
    sigma_exponent_sum,
    sigma_power,
    tau,
    tau_count,
    tau_power,
)

# Each one-parameter family by mode: the slot of (a, b, c) that holds the
# value, and the sign e with sigma_1^(e*s) the braid side of a witness.  Phi
# sends tau_1 to value * rho(sigma_1)^e (e = 0: the identity), so tau_1^s v
# and sigma_1^(e*s) have one image whenever rho(v) = value^-s * 1.
_MODES = {"a00": (0, 1), "0b0": (1, -1), "00c": (2, 0)}
MODES = tuple(_MODES)


# --- distinctness certificates ---------------------------------------------------


class DistinctnessCertificate(NamedTuple):
    """An invariant that separates two words, proving them distinct in SM_n."""

    kind: str  # tau-count | sigma-exponent | permutation
    left: object
    right: object

    def text(self) -> str:
        return f"{self.kind}: {self.left} != {self.right}"


def distinctness_certificate(w1: SMWord, w2: SMWord) -> DistinctnessCertificate | None:
    """First relation invariant separating w1 and w2, or None if all agree."""
    if w1.n != w2.n:
        raise ValueError(f"strand counts differ: {w1.n} vs {w2.n}")
    t1, t2 = tau_count(w1), tau_count(w2)
    if t1 != t2:
        return DistinctnessCertificate("tau-count", t1, t2)
    e1, e2 = sigma_exponent_sum(w1), sigma_exponent_sum(w2)
    if e1 != e2:
        return DistinctnessCertificate("sigma-exponent", e1, e2)
    p1, p2 = permutation_image(w1), permutation_image(w2)
    if p1 != p2:
        return DistinctnessCertificate("permutation", p1, p2)
    return None


class UnfaithfulnessWitness(NamedTuple):
    """Two distinct words with exactly equal images under the given extension."""

    w1: SMWord
    w2: SMWord
    certificate: DistinctnessCertificate
    image: AlgebraElement
    params: PhiParams


def root_of_unity_order(a: ScalarValue | int, r_max: int = 8) -> int | None:
    """Smallest 1 <= r <= r_max with a**r == 1, or None.

    The answer is exact, with no search: over Q the only roots of unity are
    1 and -1, and in Q[t, t^-1] the units are the monomials c*t^k, whose
    powers can be 1 only when k == 0, which reduces to the rational case.
    The bound is kept for interface symmetry with the bounded searches.
    """
    a = as_scalar(a)
    if a == 0:
        raise ValueError("need a nonzero scalar")
    r = 1 if a == 1 else 2 if a == -1 else None
    return r if r is not None and r <= r_max else None


def unit_power_witness(rep: BraidRep, mode: str, value: ScalarValue | int, r: int) -> UnfaithfulnessWitness:
    """Witness pair for a root-of-unity parameter: tau_1^r against the braid
    word with the same image (value**r == 1 required).  This is the
    scalar-power witness with v the empty word, since rho(empty) = 1 =
    value**(-r) * 1."""
    value = as_scalar(value)
    if r < 1:
        raise ValueError("need r >= 1")
    if value**r != 1:
        raise ValueError(f"{format_scalar(value)}**{r} != 1")
    return scalar_power_witness(rep, mode, value, SMWord(rep.n), r)


def find_scalar_witness(
    rep: BraidRep,
    value: ScalarValue | int,
    s_max: int,
    len_max: int,
) -> tuple[SMWord, int] | None:
    """Bounded search for a braid word v with rho(v) == value**(-s) * identity;
    v is returned as an `SMWord` with no tau letter.

    It takes no mode: this condition is the same for all three one-parameter
    families, and the family only decides which witness pair
    `scalar_power_witness` builds from the (v, s) found here.

    A breadth-first walk over distinct images of freely reduced words of
    length <= len_max.  Level k extends the words kept at level k-1, in
    order, by each letter of `braid_letters` except the inverse of the last
    one; a new word costs one multiply by the letter's image.  A word whose
    image was already reached is neither kept nor extended, since equal
    images have equal futures.  So each image keeps its first word in
    shortlex order: shorter words first, and words of one length compared
    letter by letter in `braid_letters` order.  The walk stops early when a
    level reaches no new image (a finite image group is exhausted).

    A matrix image is held as a key, never as a `Matrix`
    (`algebra._kronecker_keys`).  With D the lcm of the letter denominators
    and c the depth, the key of M is (low, ents): the entries of
    t^-low * M * D**c, each packed as one integer in slots of
    K = c * bitlen(B) + 1 bits, where low is the lowest exponent and
    B = max(D, row sums of a letter's coefficient magnitudes times D) bounds
    every coefficient by B**c.  A step is one integer product per entry
    pair, an exact division by D and a shift.  A target value**(-s) * 1 is
    keyed off the scalar itself, with no matrix built; if value**(-s) * D**c
    is not integral, or has a coefficient above B**c, it has no key and no
    hit.  c starts at min(len_max, 8) and doubles, restarting the walk, while
    the level at c is nonempty, so K follows the depth reached, not len_max.
    Where products could span more than `scalars.MAX_SPAN` exponents, the
    walk multiplies the matrices themselves, and raises as their product does.

    Exponents are then tried s = 1..s_max, then s = -1..-s_max, so the
    returned exponent is positive whenever a positive one exists in bounds;
    with s_max == 0 there is nothing to try and no walk is made.
    Absence of a hit is evidence only; the search is bounded.
    """
    value = as_scalar(value)
    if not is_unit(value):
        raise ValueError(f"need a unit, got {format_scalar(value)}")
    if s_max < 0 or len_max < 0:
        raise ValueError("bounds must be nonnegative")
    if s_max == 0:
        return None
    walk_letters = [(letter, letter.inverse()) for letter in braid_letters(rep.n)]
    images = [rep.letters[letter] for letter, _ in walk_letters]
    one = rep.one()
    depth = min(len_max, 8)
    while True:
        packed = rep.backend == "matrix" and _kronecker_keys(images, depth)
        if not packed:  # the elements are their own keys, at any depth
            depth = len_max
        key, target, steps, mul = packed or (lambda x: x, one.scale, images, operator.mul)
        start = key(one)
        first: dict[object, tuple[GenLetter, ...]] = {start: ()}
        level: list[tuple[tuple[GenLetter, ...], object]] = [((), start)]
        for _ in range(depth):
            next_level = []
            for letters, img in level:
                for (letter, inverse), step in zip(walk_letters, steps):
                    if letters and letters[-1] == inverse:
                        continue
                    grown = letters + (letter,)
                    new = mul(img, step)
                    if first.setdefault(new, grown) is grown:
                        next_level.append((grown, new))
            level = next_level
            if not level:
                break
        if not level or depth == len_max:
            break
        depth = min(2 * depth, len_max)  # the keys only hold products of up to depth images
    for s in list(range(1, s_max + 1)) + list(range(-1, -s_max - 1, -1)):
        letters = first.get(target(value**-s))
        if letters is not None:
            return SMWord(rep.n, letters), s
    return None


def scalar_power_witness(
    rep: BraidRep,
    mode: str,
    value: ScalarValue | int,
    v: SMWord,
    s: int,
) -> UnfaithfulnessWitness:
    """Witness pair built from rho(v) == value**(-s) * identity: tau_1^s v
    against the braid word with the same image.  A negative s is normalized
    by replacing (v, s) with (v^-1, -s)."""
    value = as_scalar(value)
    if not is_unit(value):
        raise ValueError(f"need a unit, got {format_scalar(value)}")
    if s == 0:
        raise ValueError("need s != 0")
    if s < 0:
        v, s = v.inverse(), -s
    expected = rep.one().scale(value**-s)
    if rep_eval(rep, v) != expected:
        raise ValueError("rho(v) is not the required scalar multiple of the identity")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    slot, sign = _MODES[mode]
    params = PhiParams.of(*(value if i == slot else 0 for i in range(3)))
    w1 = tau_power(rep.n, 1, s) * v
    w2 = sigma_power(rep.n, 1, sign * s)
    cert = distinctness_certificate(w1, w2)
    if cert is None:
        raise ValueError("words are not separated by any invariant; no distinctness certificate")
    ext = Extension(rep, params)
    image = rep_eval(ext, w1)
    if rep_eval(ext, w2) != image:
        raise ValueError("images differ; the pair is not a witness")
    return UnfaithfulnessWitness(w1, w2, cert, image, params)


# --- SM_2 kernel searches ---------------------------------------------------------


class KernelReport(NamedTuple):
    """Bounded grid search over tau_1^p sigma_1^q, 0 <= p <= p_max, |q| <= q_max.

    Hits with p == 0 (possible only for an unfaithful rho) are recorded too;
    the minimal generator requires p >= 1, ties broken by smallest |q|, then
    positive q.  `cyclic_structure_verified` is None when there is no minimal
    generator to verify against.
    """

    p_max: int
    q_max: int
    hits: tuple[tuple[int, int], ...]
    minimal_generator: tuple[int, int] | None
    cyclic_structure_verified: bool | None
    bounded = True

    def to_dict(self) -> dict:
        return {
            "bounds": {"p_max": self.p_max, "q_max": self.q_max},
            "bounded": self.bounded,
            "hits": [list(h) for h in self.hits],
            "minimal_generator": list(self.minimal_generator) if self.minimal_generator else None,
            "cyclic_ok": self.cyclic_structure_verified,
        }


def _hit_order(hit: tuple[int, int]) -> tuple[int, int, int]:
    p, q = hit
    return (p, abs(q), 0 if q > 0 else 1)


def kernel_search_sm2(rep: BraidRep, params: PhiParams, p_max: int, q_max: int) -> KernelReport:
    """All (p, q) in bounds with Phi(tau_1^p sigma_1^q) equal to the identity.

    The p = 0 row (q != 0) is scanned as well: any hit there is a braid word
    in the kernel and flags an unfaithful rho.  The trivial pair (0, 0) is
    never reported.

    A cell is a hit iff its row head tau_1^p equals sigma_1^-q: the images of
    sigma_1 and sigma_1^-1 are two-sided inverses (matrices over a domain,
    the commutative cyclic algebra, single group elements).  So the p_max + 1
    heads are computed once and held, keyed by image, and sigma_1^q and
    sigma_1^-q are streamed for q = 1..q_max with one lookup each: at most
    p_max + 2*q_max products and no identity test.  Several p share a head
    when tau_1 has finite image order.  The hits are sorted into hit order,
    by p, then |q|, positive q first, rather than scanned in it.
    """
    if rep.n != 2:
        raise ValueError(f"SM_2 kernel search needs n=2, got n={rep.n}")
    if p_max < 0 or q_max < 0:
        raise ValueError("bounds must be nonnegative")
    one = rep.one()
    t_img = Extension(rep, params).letters[tau(1)]
    rows: dict[AlgebraElement, list[int]] = {one: [0]}
    for p, head in enumerate(_powers(t_img, p_max), start=1):
        rows.setdefault(head, []).append(p)

    hits = [(p, 0) for p in rows[one] if p]
    powers = zip(_powers(rep.image(1), q_max), _powers(rep.image_inv(1), q_max))
    for q, (pos, neg) in enumerate(powers, start=1):
        hits.extend((p, q) for p in rows.get(neg, ()))
        hits.extend((p, -q) for p in rows.get(pos, ()))
    hits.sort(key=_hit_order)

    minimal = next((h for h in hits if h[0] >= 1), None)
    report = KernelReport(p_max, q_max, tuple(hits), minimal, None)
    if minimal is not None:
        report = KernelReport(p_max, q_max, tuple(hits), minimal, verify_cyclic_structure(report))
    return report


def verify_cyclic_structure(report: KernelReport) -> bool:
    """Desk-scale cyclicity: every hit must be a positive multiple of the
    minimal generator."""
    if report.minimal_generator is None:
        raise ValueError("report has no minimal generator")
    p0, q0 = report.minimal_generator
    for p, q in report.hits:
        if p == 0 or p % p0 != 0:
            return False
        m = p // p0
        if m < 1 or q != m * q0:
            return False
    return True


def nonscalar_power_check(rep: BraidRep, s_max: int) -> bool:
    """True iff no power rho(sigma_1)^s, 1 <= s <= s_max, is a scalar multiple
    of the identity.  (Negative exponents need no separate scan: the inverse
    of a scalar matrix is scalar.)"""
    if rep.backend != "matrix":
        raise ValueError(f"scalar-power check needs the matrix backend, got {rep.backend!r}")
    if s_max < 0:
        raise ValueError("bounds must be nonnegative")
    return all(acc.scalar_multiple_of_identity() is None for acc in _powers(rep.image(1), s_max))


def scalar_kernel_hits(params: PhiParams, d: ScalarValue | int, p_max: int, q_max: int) -> tuple[tuple[int, int], ...]:
    """All (p, q) in bounds, p >= 1, whose multinomial character value is 1."""
    d = as_scalar(d)
    if not is_unit(d):
        raise ValueError(f"need a unit d, got {format_scalar(d)}")
    if p_max < 0 or q_max < 0:
        raise ValueError("bounds must be nonnegative")
    hits = []
    for p in range(1, p_max + 1):
        # row * d**q == 1 iff row == d**-q, as d is a unit
        row = _multinomial_sum(params, d, p, 0)
        hits.extend((p, q) for q in range(-q_max, q_max + 1) if row == d**-q)
    return tuple(sorted(hits, key=_hit_order))


def scalar_kernel_criterion(params: PhiParams, d: ScalarValue | int, p_max: int, q_max: int) -> tuple[int, int] | None:
    """Smallest (p, q) with the multinomial sum equal to 1, ordered by
    (p, |q|, positive q first); None if no hit in bounds."""
    hits = scalar_kernel_hits(params, d, p_max, q_max)
    return hits[0] if hits else None


def compare_matrix_cyclic_kernels(
    m: Matrix,
    s: int,
    d_s: ScalarValue | int,
    params: PhiParams,
    p_max: int,
    q_max: int,
) -> tuple[KernelReport, KernelReport, bool]:
    """Run the SM_2 kernel search twice, with sigma_1 -> m as a matrix and
    with sigma_1 -> X in the twisted cyclic algebra X^s = d_s, and compare.

    Requires m^s == d_s * I with s minimal and m itself non-scalar, i.e. the
    hypotheses under which the cyclic algebra is the subalgebra generated by
    the image.
    """
    d_s = as_scalar(d_s)
    if s < 1:
        raise ValueError("need s >= 1")
    if m.scalar_multiple_of_identity() is not None:
        raise ValueError("generator image is already scalar; use a scalar character instead")
    for k, acc in enumerate(_powers(m, s), start=1):
        scalar = acc.scalar_multiple_of_identity()
        if k < s and scalar is not None:
            raise ValueError(f"m**{k} is already scalar; s={s} is not minimal")
        if k == s and (scalar is None or scalar != d_s):
            raise ValueError(f"m**{s} != d_s * identity")
    matrix_report = kernel_search_sm2(matrix_rep_from_images(2, [m]), params, p_max, q_max)
    cyclic_report = kernel_search_sm2(cyclic_rep(s, d_s), params, p_max, q_max)
    return matrix_report, cyclic_report, matrix_report.hits == cyclic_report.hits


def conjugation_kernel_check(
    rep: BraidRep,
    params: PhiParams,
    kernel_word: SMWord,
    conjugators: list[SMWord] | tuple[SMWord, ...],
) -> bool:
    """Whether every braid conjugate u w u^-1 of a kernel word stays in the
    kernel.  Raises if the input word is not in the kernel to begin with."""
    ext = Extension(rep, params)
    if not rep_eval(ext, kernel_word).is_identity():
        raise ValueError("input word is not in the kernel")
    return all(rep_eval(ext, conjugate(kernel_word, u)).is_identity() for u in conjugators)


# --- SM_3 equality oracle -----------------------------------------------------------


@lru_cache(maxsize=1)
def _sm3_oracle() -> Extension:
    """Phi_{1,-1,0}, each braid kept as its image in SL(2, Z) x Z."""
    e = SL2ZxZ((1, 0, 0, 1, 0))
    images = [FormalElement(e, [(SL2ZxZ(g), 1)]) for g in ((1, 1, 0, 1, 1), (1, 0, -1, 1, 1))]
    inverses = [FormalElement(e, [(SL2ZxZ(g), 1)]) for g in ((1, -1, 0, 1, -1), (1, 0, 1, 1, -1))]
    rep = BraidRep(3, FormalElement.one(e), images, inverses, name="sl2z-x-z")
    return Extension(rep, PhiParams.of(1, -1, 0))


def sm3_word_equality(w1: SMWord, w2: SMWord) -> bool:
    """Decide equality of SM_3 words through a faithful instance.

    Images are compared in the group algebra of B_3 at parameters (1, -1, 0),
    a braid g kept as (rho(g), e(g)) in SL(2, Z) x Z: rho(sigma_1) = [[1, 1],
    [0, 1]], rho(sigma_2) = [[1, 0], [-1, 1]], e the exponent sum.  "False
    implies distinct" is unconditional.  "True implies equal" rests on the
    faithfulness of this instance (Paris) and on g -> (rho(g), e(g)) being
    injective: ker rho is generated by (sigma_1 sigma_2)^6 (Kassel-Turaev),
    of exponent sum 12, so rho(g) = I and e(g) = 0 force g = 1.
    """
    if w1.n != 3 or w2.n != 3:
        raise ValueError(f"oracle is for n=3 words, got n={w1.n} and n={w2.n}")
    ext = _sm3_oracle()
    return rep_eval(ext, w1) == rep_eval(ext, w2)
