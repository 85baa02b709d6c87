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
SL(2, Z) x Z: a braid is five integers, a word's image a map from them to
integer coefficients, and `sm3_word_equality` states what "true implies
equal" rests on.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, repeat
from math import gcd
from typing import Iterable, NamedTuple

from .algebra import AlgebraElement, Matrix, _character, _search_keys
from .phi import Extension, PhiParams, _multinomial_sum, _powers
from .reps import BraidRep, cyclic_rep, matrix_rep_from_images, rep_eval
from .scalars import LaurentPoly, _parts, as_scalar, format_scalar, is_unit
from .words import (
    GenLetter,
    SMWord,
    braid_letters,
    check_braid_relations,
    conjugate,
    permutation_image,
    sigma,
    sigma_exponent_sum,
    sigma_inv,
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


def root_of_unity_order(a: LaurentPoly | int, r_max: int = 8) -> int | None:
    """Smallest 1 <= r <= r_max with a**r == 1, or None.

    The answer is exact, with no search: over Q the only roots of unity are
    1 and -1, and in Q[t, t^-1] the units are the monomials c*t^k, whose
    powers can be 1 only when k == 0, which reduces to the rational case.
    r_max caps the order reported: with r_max = 0, or r_max = 1 for -1, the
    answer is None, and `smbraid unfaith` then runs the scalar-power search.
    """
    a = as_scalar(a)
    if a == 0:
        raise ValueError("need a nonzero scalar")
    r = 1 if a == 1 else 2 if a == -1 else None
    return r if r is not None and r <= r_max else None


def unit_power_witness(rep: BraidRep, mode: str, value: LaurentPoly | int, r: int) -> UnfaithfulnessWitness:
    """Witness pair for a root-of-unity parameter: tau_1^r against the braid
    word with the same image.  This is the scalar-power witness with v the
    empty word, so its image comparison holds exactly when value**r == 1,
    and it needs r >= 1 as it needs s >= 1."""
    return scalar_power_witness(rep, mode, value, SMWord(rep.n), r)


def find_scalar_witness(
    rep: BraidRep,
    value: LaurentPoly | int,
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

    Each image, and each target value**(-s) * 1, is held as the key that
    `algebra._search_keys` gives it; a product of at most c images has a
    key, so a target with none is not reached at depth c.  Keys bounded to
    products of c images (the packed keys of a matrix or cyclic rep) are
    asked for at c = min(len_max, 8), and c doubles, restarting the walk,
    while the level at c is nonempty, so the key size follows the depth
    reached, not len_max; keys that hold any depth are walked to len_max at
    once.

    Exponents are tried in the order s = 1..s_max, and no negative s is
    tried: whenever a word v reaches value**s * 1, its inverse, of the same
    length, reaches value**(-s) * 1, so a negative s is only ever hit where
    a positive one already is.  The answer is the first s in that order
    whose target is hit, with that target's first word, and the search ends
    by one rule: as soon as that answer is settled.  An s is open while it
    may still be hit: the character filter below keeps it.  The walk
    returns at the product that first reaches the target of the first open
    s, even mid-level, since no later word of that image and no later s can
    come first.  Only that target is keyed before the walk; if it is never
    reached, the later targets are keyed and looked up once the walk ends.
    If no s is open, the answer is None and there is no walk.  Absence of a
    hit is evidence only; the search is bounded.

    The search first drops every s whose target no word in bounds can
    reach, by the multiplicative map chi to the scalars of
    `algebra._character`: the determinant of a matrix rep (the Burau
    determinant argument; J. Birman, Braids, Links, and Mapping Class
    Groups, 1974), the coefficient sum of a formal rep, the augmentation of
    the group algebra, a ring homomorphism, and the norm of a cyclic rep.
    The braid relations, checked when the rep is built, make every sigma_i
    conjugate to sigma_1, so chi(rho(v)) = delta**e(v), where
    delta = chi(rho(sigma_1)) is a unit, computed once per rep
    (`BraidRep._delta`), and e(v) is the exponent sum of v, with
    |e(v)| <= len(v) <= len_max.  The target value**(-s) * 1 has
    chi = value**(-s * k), with k the dimension of a matrix rep, 1 for a
    formal rep and the order of a cyclic one, so s can be hit only where
    (value**k)**s * delta**e == 1 for some |e| <= len_max, so s is kept
    iff it is a row that `_grid_box` finds on the grid 0 <= s <= s_max,
    |e| <= len_max: a multiple of its step up to its p_top.  A dropped s
    could never hit, so every result is the one the unfiltered search
    returns.  Letter images that are each
    1 * g (`perm`, an `as_formal` lift) have delta = 1, so the only s kept
    has the target 1 * 1, which the empty word reaches, and such a search
    makes no product.

    A kept s has a target with a key at depth c = len_max, by the argument
    of `algebra._packed_keys`, as its lambda = value**(-s) has
    lambda**k = delta**e = chi(rho(sigma_1**+-1))**|e| with |e| <= c;
    element keys are never None.
    """
    value = as_scalar(value)
    if not is_unit(value):
        raise ValueError(f"need a unit, got {format_scalar(value)}")
    if s_max < 0 or len_max < 0:
        raise ValueError("bounds must be nonnegative")
    one, (delta, k) = rep.one(), rep._delta
    stride, top, _, _ = _grid_box(value**k, delta, s_max, len_max)
    exponents = range(stride, top + 1, stride)
    if not exponents:  # no s is open, so no key is worth building
        return None
    walk_letters = [(letter, letter.inverse()) for letter in braid_letters(rep.n)]
    images = [rep.letters[letter] for letter, _ in walk_letters]
    depth = min(len_max, 8)
    while True:
        key, steps, mul, bound = _search_keys(images, depth)
        if bound is None:  # the keys hold products of any length
            depth = len_max
        targets = ((s, key(one.scale(value**-s))) for s in exponents)  # keyed as they are asked for
        goal_s, goal = next(targets)
        start = key(one)
        if start == goal:
            return SMWord(rep.n), goal_s
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
                        if new == goal:
                            return SMWord(rep.n, grown), goal_s
                        next_level.append((grown, new))
            level = next_level
            if not level:
                break
        if not level or depth == len_max:  # the target of the first open s was never reached
            return next(((SMWord(rep.n, first[t]), s) for s, t in targets if t in first), None)
        depth = min(2 * depth, len_max)  # the keys only hold products of up to depth images


def scalar_power_witness(
    rep: BraidRep,
    mode: str,
    value: LaurentPoly | int,
    v: SMWord,
    s: int,
) -> UnfaithfulnessWitness:
    """Witness pair built from rho(v) == value**(-s) * identity, for s >= 1
    and a braid word v: w1 = tau_1^s v against w2 = sigma_1^(e*s), with e the
    sign of the mode.  Their tau counts, s and 0, are the certificate.

    Phi sends tau_1 to value * rho(sigma_1)^e, so the image of w1 is
    value**s * rho(sigma_1)^(e*s) * rho(v) and the image of w2 is
    rho(sigma_1)^(e*s): the two are equal exactly when rho(v) =
    value**(-s) * 1.  So comparing them is the one check of rho(v)."""
    value = as_scalar(value)
    if not is_unit(value):
        raise ValueError(f"need a unit, got {format_scalar(value)}")
    if s < 1:
        raise ValueError("need s >= 1")
    if not v.is_braid:
        raise ValueError("v must be a braid word (no tau letters)")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    slot, sign = _MODES[mode]
    params = PhiParams.of(*(value if i == slot else 0 for i in range(3)))
    w1 = tau_power(rep.n, 1, s) * v
    w2 = sigma_power(rep.n, 1, sign * s)
    ext = Extension(rep, params)
    image = rep_eval(ext, w1)
    if rep_eval(ext, w2) != image:
        raise ValueError("rho(v) is not value**-s * 1, so the images differ")
    return UnfaithfulnessWitness(w1, w2, distinctness_certificate(w1, w2), image, params)


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

    The grid is first narrowed to a box by the multiplicative map chi of
    `algebra._character` (the determinant, the coefficient sum, or the
    cyclic norm): a hit has chi(tau_1)**p * delta**q = chi(1) = 1,
    with delta = chi(rho(sigma_1)) (`BraidRep._delta`).  `_grid_box`
    gives a box, p <= p_top and q_lo <= q <= q_hi, holding every cell that
    passes, so no hit lies outside it and the report is the one the whole
    grid gives.  When (0, 0) is its only cell, the report comes
    back with no key built and no product.

    A cell is a hit iff its row head tau_1^p equals sigma_1^-q: the images of
    sigma_1 and sigma_1^-1 are two-sided inverses (matrices over a domain,
    the commutative cyclic algebra, single group elements).  So the
    p_top + 1 heads are computed once and held, keyed by image, and
    sigma_1^-q is streamed for q = 1..q_hi and sigma_1^q for q = 1..-q_lo,
    with one lookup each: at most p_top + q_hi - q_lo products and no
    identity test.  Several p share a head when tau_1 has finite image
    order.  The hits are sorted into hit order, by p, then |q|, positive q
    first, rather than scanned in it.

    Heads and powers are held as the keys of `algebra._search_keys` at the
    box's depth max(p_top, q_hi, -q_lo), as the witness walk holds its
    images, so a packed power is one sparse pass of integer products and
    builds no `LaurentPoly`.  The identity and every head and power are
    products of at most that depth of images, so each has a key; when a
    grid is packed, and which scalar multiples of 1 have a key, is stated
    at `algebra._packed_keys`.
    """
    if rep.n != 2:
        raise ValueError(f"SM_2 kernel search needs n=2, got n={rep.n}")
    if p_max < 0 or q_max < 0:
        raise ValueError("bounds must be nonnegative")
    images = [Extension(rep, params).letters[tau(1)], rep.image(1), rep.image_inv(1)]
    _, p_top, q_lo, q_hi = _grid_box(_character(images[0])[0], rep._delta[0], p_max, q_max)
    if not (p_top or q_lo or q_hi):  # (0, 0) is the only cell left
        return KernelReport(p_max, q_max, (), None, None)
    key, steps, mul, _ = _search_keys(images, max(p_top, q_hi, -q_lo))

    def powers(i: int, k: int) -> Iterable:
        """The keys of images[i]**1..k: one product per power after the first."""
        return accumulate(repeat(steps[i], k - 1), mul, initial=key(images[i])) if k else ()

    start = key(rep.one())
    rows: dict[object, list[int]] = {start: [0]}
    for p, head in enumerate(powers(0, p_top), start=1):
        rows.setdefault(head, []).append(p)

    hits = [(p, 0) for p in rows[start] if p]
    for q, neg in enumerate(powers(2, q_hi), start=1):
        hits.extend((p, q) for p in rows.get(neg, ()))
    for q, pos in enumerate(powers(1, -q_lo), start=1):
        hits.extend((p, -q) for p in rows.get(pos, ()))
    hits.sort(key=_hit_order)

    minimal = next((h for h in hits if h[0] >= 1), None)
    report = KernelReport(p_max, q_max, tuple(hits), minimal, None)
    return report._replace(cyclic_structure_verified=verify_cyclic_structure(report)) if minimal else report


def _grid_box(x: LaurentPoly, delta: LaurentPoly, p_max: int, q_max: int) -> tuple[int, int, int, int]:
    """The cells (p, q) with 0 <= p <= p_max, |q| <= q_max and
    x**p * delta**q == 1, for a scalar x and a unit delta, as
    (step, p_top, q_lo, q_hi): the rows p >= 1 that hold such a cell are
    exactly the multiples of step up to p_top, and the box 0 <= p <= p_top,
    q_lo <= q <= q_hi holds every such cell.  The box is the smallest one
    unless delta = +-1, and p_top = q_lo = q_hi = 0 when (0, 0) is the only
    cell.  With x = c_x * t^k_x and delta = c_d * t^k_d when both are units:

    * delta = +-1 leaves q free.  A row p >= 1 needs x**p = +-1, so x = +-1:
      every row where x = 1, or x = -1 with delta = -1 and q_max >= 1 (an
      odd row needs an odd q); otherwise only the even ones where x = -1.
      Row 0 stays whatever x is: a finite-order sigma_1 image hits at (0, q).
    * Otherwise delta has infinite order, so a cell with p = 0 has q = 0,
      and x must be a unit for p >= 1.  The cells that pass are then the
      multiples m * (p0, q0), m >= 1, of one vector with p0 >= 1.  A first
      vector (p1, q1) is read off the t-exponents, p * k_x + q * k_d = 0,
      when k_d != 0 (none when k_d = 0 and k_x != 0), or off the sizes when
      k_d = k_x = 0: |c_x|**p = |c_d|**-q, and reading numerator times
      denominator of both reduced fractions, n_x**p = n_d**|q| with
      n = |num| * den and n_d >= 2, which `_common_power` solves; the sign
      of q is read off which of |c_x| and |c_d| exceed 1.  A passing cell
      has n_x <= n_d**q_max, so an n_x of more than q_max * bitlen(n_d) + 1
      bits has none (the + 1 keeps n_x = 1 at q_max = 0), and is dropped
      before that solve, which would strip the large denominator of a
      cyclic norm, such as 2**s, about one bit per step.  Any passing cell
      is a multiple k * (p1, q1), and a positive rational is 1 only when
      its k-th power is, so r = c_x**p1 * c_d**q1 decides: (p0, q0) =
      (p1, q1) for r = 1, (2 p1, 2 q1) for r = -1, and no cell otherwise.
      That one exact power is taken only when (p1, q1) lies in bounds, so
      it is no larger than the grid's own largest power.
    """
    if delta == 1 or delta == -1:
        if x == 1 or x == -1 and delta == -1 and q_max:
            return 1, p_max, -q_max, q_max
        return (2, p_max - p_max % 2, -q_max, q_max) if x == -1 else (1, 0, -q_max, q_max)
    if not x.is_unit():
        return 1, 0, 0, 0
    x_low, (x_num,), x_den = _parts(x)
    d_low, (d_num,), d_den = _parts(delta)
    n_x, n_d = abs(x_num) * x_den, abs(d_num) * d_den
    if d_low:
        g = gcd(x_low, d_low)
        p, q = abs(d_low) // g, (-x_low if d_low > 0 else x_low) // g
    elif x_low or n_x.bit_length() > q_max * n_d.bit_length() + 1 or not (common := _common_power(n_x, n_d)):
        return 1, 0, 0, 0
    else:
        p, q = common
        if (abs(x_num) > x_den) == (abs(d_num) > d_den):
            q = -q
    if p > p_max or abs(q) > q_max:
        return 1, 0, 0, 0
    r = x**p * delta**q
    if r == -1:
        p, q = 2 * p, 2 * q
    elif r != 1:
        return 1, 0, 0, 0
    m = min(p_max // p, q_max // abs(q)) if q else p_max // p
    return p, m * p, min(0, m * q), max(0, m * q)


def _common_power(m: int, n: int) -> tuple[int, int] | None:
    """The coprime (p, j) with p >= 1 and m**p == n**j, for m >= 1 and
    n >= 2, or None if there is none.

    Euclid's algorithm run on exponents (D. Knuth, TAOCP vol. 2, 4.5.2): a
    solution means m = g**j and n = g**p for one integer g, and then, as
    long as neither is 1, the larger of the two is a power of g divisible by
    the smaller, so it is replaced by the quotient.  Each of a and b is held
    with the exponents (u, v) of its value m**u * n**v, and each step is
    unimodular, so once a = 1 its (u, v) is the primitive relation; a
    remainder on the way proves there is no g.  There are at most as many
    steps as m and n have bits.
    """
    a, ua, va, b, ub, vb = m, 1, 0, n, 0, 1
    while a != 1:
        if a < b:
            a, ua, va, b, ub, vb = b, ub, vb, a, ua, va
        a, rem = divmod(a, b)
        if rem:
            return None
        ua, va = ua - ub, va - vb
    return (ua, -va) if ua > 0 else (-ua, va)


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


def scalar_kernel_hits(params: PhiParams, d: LaurentPoly | int, p_max: int, q_max: int) -> tuple[tuple[int, int], ...]:
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


def scalar_kernel_criterion(params: PhiParams, d: LaurentPoly | int, p_max: int, q_max: int) -> tuple[int, int] | None:
    """Smallest (p, q) with the multinomial sum equal to 1, ordered by
    (p, |q|, positive q first); None if no hit in bounds."""
    hits = scalar_kernel_hits(params, d, p_max, q_max)
    return hits[0] if hits else None


def compare_matrix_cyclic_kernels(
    m: Matrix,
    s: int,
    d_s: LaurentPoly | int,
    params: PhiParams,
    p_max: int,
    q_max: int,
) -> tuple[KernelReport, KernelReport, bool]:
    """Run the SM_2 kernel search twice, with sigma_1 -> m as a matrix and
    with sigma_1 -> X in the twisted cyclic algebra X^s = d_s, and compare.

    Requires m^s == d_s * I with s minimal and m itself non-scalar, i.e. the
    hypotheses under which the cyclic algebra is the subalgebra generated by
    the image.  They are checked by walking m, m^2, ... up to m^s and
    stopping at the first scalar power, which must be m^s, compared with
    d_s.  A non-scalar 2x2 m whose powers reach a scalar first does so at
    2, 3, 4 or 6, as its eigenvalue ratio is then a root of unity of degree
    at most 2 over Q, so the walk stops by m^6 whatever s is.  A larger m
    walking past m^6 first checks m^s == d_s * I by square-and-multiply, in
    O(log s) products, then walks on to m^(s-1).
    """
    d_s = as_scalar(d_s)
    if s < 1:
        raise ValueError("need s >= 1")
    power, k = m, 1
    while (c := power.scalar_multiple_of_identity()) is None:
        if k == s or k == 6 and m.dim == 2:
            raise ValueError(f"m**{s} != d_s * identity")
        if k == 6:
            ladder = m
            for bit in bin(s)[3:]:  # the bits of s below the leading one
                ladder = ladder * ladder * m if bit == "1" else ladder * ladder
            if ladder.scalar_multiple_of_identity() != d_s:
                raise ValueError(f"m**{s} != d_s * identity")
        power, k = power * m, k + 1
    if k == 1:
        raise ValueError("generator image is already scalar; use a scalar character instead")
    if k < s:
        raise ValueError(f"m**{k} is already scalar; s={s} is not minimal")
    if c != d_s:
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

# B_3 -> SL(2, Z) x Z: a braid g as the five integers (a, b, c, d, e) of
# (rho(g), e(g)), rho(g) = [[a, b], [c, d]] its reduced Burau image at t = -1
# and e(g) its exponent sum.
_SL2Z_ONE = (1, 0, 0, 1, 0)
_SL2Z_LETTERS = {
    sigma(1): (1, 1, 0, 1, 1),
    sigma_inv(1): (1, -1, 0, 1, -1),
    sigma(2): (1, 0, -1, 1, 1),
    sigma_inv(2): (1, 0, 1, 1, -1),
}


def _sl2z_mul(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d, e = g
    p, q, r, s, f = h
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, e + f)


def _check_sl2z_table(letters: dict[GenLetter, tuple[int, ...]]) -> None:
    """Raise unless the images of sigma_i and sigma_i^-1 are inverses both
    ways and satisfy the braid relations of B_3, as a `BraidRep` would."""
    for i in (1, 2):
        g, g_inv = letters[sigma(i)], letters[sigma_inv(i)]
        if not _sl2z_mul(g, g_inv) == _SL2Z_ONE == _sl2z_mul(g_inv, g):
            raise ValueError(f"image of generator {i} is not invertible")
    check_braid_relations(3, lambda w: reduce(_sl2z_mul, [letters[letter] for letter in w], _SL2Z_ONE))


_check_sl2z_table(_SL2Z_LETTERS)
# tau_i -> sigma_i - sigma_i^-1: the two group elements of each tau image
_SL2Z_TAUS = {i: (_SL2Z_LETTERS[sigma(i)], _SL2Z_LETTERS[sigma_inv(i)]) for i in (1, 2)}


def _moved(image: dict[tuple[int, ...], int], g: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Each term c * h of `image` moved to c * hg; right translation is
    injective, so the moved terms stay distinct."""
    return {_sl2z_mul(h, g): k for h, k in image.items()}


def _sm3_image(w: SMWord) -> dict[tuple[int, ...], int]:
    """Phi_{1,-1,0}(w) in the group algebra Z[SL(2, Z) x Z]: a map from the
    5-tuples of the group elements to their nonzero integer coefficients.

    The word is folded left to right.  The braid letters since the last tau
    letter are held as one group element g; a tau letter tau_i moves the
    image by g sigma_i and by g sigma_i^-1 and subtracts the second from the
    first, dropping zeros.
    """
    image = {_SL2Z_ONE: 1}
    g = _SL2Z_ONE
    for letter in w.letters:
        if letter.kind != "t":
            g = _sl2z_mul(g, _SL2Z_LETTERS[letter])
            continue
        plus, minus = _SL2Z_TAUS[letter.index]
        moved = _moved(image, _sl2z_mul(g, plus))
        for h, k in _moved(image, _sl2z_mul(g, minus)).items():
            if acc := moved.pop(h, 0) - k:
                moved[h] = acc
        image, g = moved, _SL2Z_ONE
    return _moved(image, g)


def sm3_word_equality(w1: SMWord, w2: SMWord) -> bool:
    """Decide equality of SM_3 words through a faithful instance.

    Images are compared in the group algebra of B_3 at parameters (1, -1, 0),
    tau_i -> sigma_i - sigma_i^-1, a braid g kept as (rho(g), e(g)) in
    SL(2, Z) x Z, held as the integers (a, b, c, d, e):
    rho(sigma_1) = [[1, 1], [0, 1]], rho(sigma_2) = [[1, 0], [-1, 1]], e the
    exponent sum.  "False implies distinct" is unconditional.  "True implies
    equal" rests on the faithfulness of this instance (Paris) and on
    g -> (rho(g), e(g)) being injective: ker rho is generated by
    (sigma_1 sigma_2)^6 (Kassel-Turaev), of exponent sum 12, so rho(g) = I
    and e(g) = 0 force g = 1.
    """
    if w1.n != 3 or w2.n != 3:
        raise ValueError(f"oracle is for n=3 words, got n={w1.n} and n={w2.n}")
    return _sm3_image(w1) == _sm3_image(w2)
