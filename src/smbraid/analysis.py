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
from math import gcd, log
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

    Each image is held as the key that `algebra._search_keys` gives it, and
    a target value**(-s) * 1 is keyed off the scalar itself; a target with
    no key is no hit.  Keys bounded to products of c images (the
    Kronecker-packed keys of a matrix rep, the cyclic coordinate keys of a
    cyclic rep over a rational twist) are asked for at c = min(len_max, 8),
    and c doubles, restarting the walk, while the level at c is nonempty,
    so the key size follows the depth reached, not len_max; keys that hold
    any depth are walked to len_max at once.

    Exponents are tried s = 1..s_max, then s = -1..-s_max, so the returned
    exponent is positive whenever a positive one exists in bounds.  The
    answer is the first s in that order whose target is hit, with that
    target's first word, and the search ends by one rule: as soon as that
    answer is settled.  An s is open while it may still be hit: the
    determinant filter below keeps it and, once no restart can follow, its
    target has a key.  The walk returns at the product that first reaches
    the target of the first open s, even mid-level, since no later word of
    that image and no later s can come first.  Only that target is keyed
    before the walk; if it is never reached, the later targets are keyed
    and looked up once the walk ends.  If no s is open, the answer is None
    and there is no walk.  Absence of a hit is
    evidence only; the search is bounded.

    A matrix or formal rep first drops every s whose target no word in
    bounds can reach, by a multiplicative map chi to the scalars: the
    determinant of a matrix rep (the Burau determinant argument; J. Birman,
    Braids, Links, and Mapping Class Groups, 1974), and the coefficient sum
    of a formal rep, the augmentation of the group algebra, a ring
    homomorphism.  The braid relations, checked when the rep is built, make
    every sigma_i conjugate to sigma_1, so chi(rho(v)) = delta**e(v), where
    delta = chi(rho(sigma_1)) is a unit, computed once per rep
    (`BraidRep._delta`), and e(v) is the exponent sum of v, with
    |e(v)| <= len(v) <= len_max.  The target value**(-s) * 1 has
    chi = value**(-s * k), with k the dimension of a matrix rep and 1 for a
    formal rep, so s is kept only where `_det_reachable` finds that power of
    delta.  A dropped s could never hit, so every result is the one the
    unfiltered search returns.  Letter images that are each 1 * g (`perm`,
    an `as_formal` lift) have delta = 1, so the only s kept has the target
    1 * 1, which the empty word reaches, and such a search makes no product.
    A cyclic rep is not filtered.
    """
    value = as_scalar(value)
    if not is_unit(value):
        raise ValueError(f"need a unit, got {format_scalar(value)}")
    if s_max < 0 or len_max < 0:
        raise ValueError("bounds must be nonnegative")
    one = rep.one()
    exponents = [*range(1, s_max + 1), *range(-1, -s_max - 1, -1)]
    if character := rep._delta:
        delta, k = character
        exponents = [s for s in exponents if _det_reachable(delta, value ** (-s * k), len_max)]
    walk_letters = [(letter, letter.inverse()) for letter in braid_letters(rep.n)]
    images = [rep.letters[letter] for letter, _ in walk_letters]
    depth = min(len_max, 8)
    while exponents:  # some s is open, so keys are worth building
        key, target, steps, mul, bound = _search_keys(one, images, depth)
        if bound is None:  # the keys hold products of any length
            depth = len_max
        # the open s, keyed as they are asked for: once no restart can
        # follow, only those whose target has a key
        targets = ((s, t) for s in exponents if (t := target(value**-s)) is not None or depth < len_max)
        goal_s, goal = next(targets, (None, None))
        if goal_s is None:
            break
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
    return None  # no s is open


def _det_reachable(delta: LaurentPoly, target: LaurentPoly, len_max: int) -> bool:
    """Whether delta**e == target for some |e| <= len_max, for units delta
    and target, by one candidate e and one exact power.  With delta = c*t^k:

    * k != 0: e is the t-exponent of target over k, if that divides;
    * delta = +-1: only the parity of e matters, so e is 0 for target 1 and
      1 for any other;
    * any other constant p/q: a hit needs target = P/Q with
      |P| * Q = (|p| * q)**|e|, so |e| is that integer logarithm, read off
      the float ratio of the two natural logs and rounded, and e is
      negative where exactly one of |target| and |delta| exceeds 1.  Both
      logarithms are of integers >= 2 or of 1, so the ratio is off by less
      than 1/2 unless |e| nears 10**15, a target of as many bits.
    """
    d_low, (d_num,), d_den = _parts(delta)
    low, (num,), den = _parts(target)
    if d_low:
        e, rem = divmod(low, d_low)
        if rem:
            return False
    elif low:
        return False
    elif abs(d_num) == d_den:
        e = 0 if target == 1 else 1
    else:
        e = round(log(abs(num) * den) / log(abs(d_num) * d_den))
        if (abs(num) > den) != (abs(d_num) > d_den):
            e = -e
    return abs(e) <= len_max and delta**e == target


def scalar_power_witness(
    rep: BraidRep,
    mode: str,
    value: LaurentPoly | int,
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

    A matrix or formal rep first narrows the grid to a box by the
    multiplicative map chi of `algebra._character` (the determinant, or
    the coefficient sum): a hit has chi(tau_1)**p * delta**q = chi(1) = 1,
    with delta = chi(rho(sigma_1)) (`BraidRep._delta`).  `_grid_box`
    gives a box, p <= p_top and q_lo <= q <= q_hi, holding every cell that
    passes, so no hit lies outside it and the report is the one the whole
    grid gives.  When (0, 0) is its only cell, the report comes
    back with no key built and no product.  A cyclic grid is the whole grid.

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
    images: a matrix grid is Kronecker-packed where that depth times the
    widest exponent range of an image is at most `algebra.PACKED_SPAN`,
    zero images and powers included, and keeps `Matrix` keys past it.

    A cyclic grid over a rational twist whose tau_1 image has rational
    coordinates, the cyclic half of `prop8`, is held as cyclic coordinate
    keys: the coordinates as integers over one scale, so a power is one
    sparse integer convolution and builds no `LaurentPoly`.  A Laurent
    twist or tau_1 image keeps `CyclicElement` keys.
    """
    if rep.n != 2:
        raise ValueError(f"SM_2 kernel search needs n=2, got n={rep.n}")
    if p_max < 0 or q_max < 0:
        raise ValueError("bounds must be nonnegative")
    images = [Extension(rep, params).letters[tau(1)], rep.image(1), rep.image_inv(1)]
    p_top, q_lo, q_hi = p_max, -q_max, q_max
    if character := rep._delta:
        p_top, q_lo, q_hi = _grid_box(_character(images[0])[0], character[0], p_max, q_max)
    if not (p_top or q_lo or q_hi):  # (0, 0) is the only cell left
        return KernelReport(p_max, q_max, (), None, None)
    key, _, steps, mul, _ = _search_keys(rep.one(), images, max(p_top, q_hi, -q_lo))

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


def _grid_box(x: LaurentPoly, delta: LaurentPoly, p_max: int, q_max: int) -> tuple[int, int, int]:
    """A box (p_top, q_lo, q_hi), 0 <= p <= p_top and q_lo <= q <= q_hi,
    holding every cell (p, q) with 0 <= p <= p_max, |q| <= q_max and
    x**p * delta**q == 1, for a scalar x and a unit delta; the smallest
    such box unless delta = +-1, and (0, 0, 0) when (0, 0) is the only such
    cell.  With x = c_x * t^k_x and delta = c_d * t^k_d when both are units:

    * delta = +-1 leaves q free.  A row p >= 1 needs x**p = +-1, so x = +-1:
      every row, or only the even ones where x = -1 and delta = 1.  Row 0
      stays whatever x is: a finite-order sigma_1 image hits at (0, q).
    * Otherwise delta has infinite order, so a cell with p = 0 has q = 0,
      and x must be a unit for p >= 1.  The cells that pass are then the
      multiples m * (p0, q0), m >= 1, of one vector with p0 >= 1.  A first
      vector (p1, q1) is read off the t-exponents, p * k_x + q * k_d = 0,
      when k_d != 0 (none when k_d = 0 and k_x != 0), or off the sizes when
      k_d = k_x = 0, below.  Any passing cell is a multiple k * (p1, q1),
      and a positive rational is 1 only when its k-th power is, so
      r = c_x**p1 * c_d**q1 decides: (p0, q0) = (p1, q1) for r = 1,
      (2 p1, 2 q1) for r = -1, and no cell otherwise.  That one exact power
      is taken only when (p1, q1) lies in bounds, so it is no larger than
      the grid's own largest power.

    With k_d = k_x = 0 the sizes give |c_x|**p = |c_d|**(-q), and, reading
    numerator times denominator of both reduced fractions, n_x**p = n_d**j
    with j = |q|, n = |num| * den and n_d >= 2.  So j = p * ratio with
    ratio = log(n_x) / log(n_d), and the sign of q is read off which of
    |c_x| and |c_d| exceed 1.  If a coprime (p1, j1) with p1 <= p_max solves
    it, ratio = j1 / p1, so every row p < p1 lies at least 1 / p1 >= 1 / p_max
    from an integer, and p1 is the first row within 1 / (2 p_max) of one.
    The floats find that row in one pass over the rows, stopping once
    j passes q_max: both logarithms are of integers, ratio is off by a
    relative 2**-50 at most, so p * ratio, up to q_max + 1, is off by less
    than (q_max + 1) * 2**-49, which is below 1 / (2 p_max) while
    p_max * (q_max + 1) < 2**48.  Past that the box is the whole grid.
    The row found is confirmed by the exact r above.
    """
    if delta == 1 or delta == -1:
        if x == 1 or x == -1 and delta == -1:
            return p_max, -q_max, q_max
        return (p_max - p_max % 2 if x == -1 else 0), -q_max, q_max
    if not x.is_unit():
        return 0, 0, 0
    x_low, (x_num,), x_den = _parts(x)
    d_low, (d_num,), d_den = _parts(delta)
    if d_low:
        g = gcd(x_low, d_low)
        p, q = abs(d_low) // g, (-x_low if d_low > 0 else x_low) // g
    elif x_low:
        return 0, 0, 0
    elif p_max * (q_max + 1) >= 1 << 48:
        return p_max, -q_max, q_max
    else:
        ratio = log(abs(x_num) * x_den) / log(abs(d_num) * d_den)
        sign = -1 if (abs(x_num) > x_den) == (abs(d_num) > d_den) else 1
        for p in range(1, p_max + 1):
            j = round(p * ratio)
            if j > q_max:
                return 0, 0, 0
            if abs(p * ratio - j) < 1 / (2 * p_max):
                q = sign * j
                break
        else:
            return 0, 0, 0
    if p > p_max or abs(q) > q_max:
        return 0, 0, 0
    r = x**p * delta**q
    if r == -1:
        p, q = 2 * p, 2 * q
    elif r != 1:
        return 0, 0, 0
    m = min(p_max // p, q_max // abs(q)) if q else p_max // p
    return m * p, min(0, m * q), max(0, m * q)


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
