"""Kernel searches, unfaithfulness witnesses, and structure checks."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_braid_words, grid_reference, multiplication_matrix, random_braid_word, random_sm_word, scalar,
    spy_products, terms
)
from smbraid import algebra, analysis, reps
from smbraid.algebra import (
    CyclicElement, FormalElement, Matrix, Permutation, _packed_keys, _search_keys
)
from smbraid.analysis import (
    KernelReport,
    compare_matrix_cyclic_kernels,
    conjugation_kernel_check,
    distinctness_certificate,
    find_scalar_witness,
    kernel_search_sm2,
    nonscalar_power_check,
    root_of_unity_order,
    scalar_kernel_criterion,
    scalar_kernel_hits,
    scalar_power_witness,
    sm3_word_equality,
    unit_power_witness,
    verify_cyclic_structure,
)
from smbraid.phi import Extension, PhiParams, tau_power_expand
from smbraid.reps import (
    BraidRep,
    as_formal,
    burau_reduced,
    burau_unreduced,
    cyclic_rep,
    matrix_rep_from_images,
    permutation_rep,
    rep_eval,
    scalar_char,
)
from smbraid.scalars import MAX_SPAN, LaurentPoly, T, as_scalar
from smbraid.words import (
    SMWord,
    braid_letters,
    decompose_tau_blocks,
    defining_relations,
    parse_word,
    sigma,
    sigma_inv,
    sigma_power,
    sm2_normal_form,
    tau,
    tau_count,
    tau_power,
)


def scalar_hits_oracle(a, b, c, d, p_max, q_max):
    """Independent grid scan: (a d + b d^-1 + c)^p d^q == 1 by plain Fractions."""
    base = a * d + b / d + c
    hits = set()
    for p in range(1, p_max + 1):
        for q in range(-q_max, q_max + 1):
            if base**p * Fraction(d) ** q == 1:
                hits.add((p, q))
    return hits


# --- roots of unity and witnesses ----------------------------------------------


def test_root_of_unity_order():
    assert root_of_unity_order(-1) == 2
    assert root_of_unity_order(1) == 1
    assert root_of_unity_order(2) is None
    assert root_of_unity_order(-T) is None
    with pytest.raises(ValueError):
        root_of_unity_order(0)


def test_unit_power_witness_a_mode():
    w = unit_power_witness(burau_reduced(3), "a00", -1, 2)
    assert w.w1 == tau_power(3, 1, 2)
    assert w.w2 == sigma_power(3, 1, 2)
    assert w.certificate.kind == "tau-count"
    # both images equal rho(sigma_1^2) since (-1)^2 == 1
    from smbraid.reps import rep_eval

    assert w.image == rep_eval(burau_reduced(3), sigma_power(3, 1, 2))


def test_unit_power_witness_b_and_c_modes():
    wb = unit_power_witness(burau_reduced(3), "0b0", -1, 2)
    assert wb.w2 == sigma_power(3, 1, -2)
    wc = unit_power_witness(burau_reduced(3), "00c", 1, 1)
    assert wc.w1 == tau_power(3, 1, 1)
    assert wc.w2 == SMWord(3)
    assert wc.image.is_identity()


def test_unit_power_witness_on_permutation_rep():
    w = unit_power_witness(permutation_rep(3), "a00", -1, 2)
    assert w.image.is_identity()


def test_unit_power_witness_reduced_n2_image():
    # (-1)^2 * (-t)^2 == t^2 times the 1x1 identity
    w = unit_power_witness(burau_reduced(2), "a00", -1, 2)
    assert w.image == Matrix([[T**2]])


def test_unit_power_witness_trivial_root():
    # a == 1 already collapses tau_1 onto sigma_1
    w = unit_power_witness(scalar_char(5, 2), "a00", 1, 1)
    assert w.w1 == tau_power(2, 1, 1) and w.w2 == sigma_power(2, 1, 1)


def test_unit_power_witness_rejects_non_root():
    with pytest.raises(ValueError):
        unit_power_witness(burau_reduced(3), "a00", 2, 2)
    with pytest.raises(ValueError):
        unit_power_witness(burau_reduced(3), "a00", -1, 0)


def test_find_scalar_witness_scalar_char():
    hit = find_scalar_witness(scalar_char(2, 2), 2, 4, 4)
    assert hit is not None
    v, s = hit
    assert v == sigma_power(2, 1, -1) and s == 1


def test_find_scalar_witness_absent_on_burau():
    assert find_scalar_witness(burau_unreduced(2), 2, 4, 6) is None


def test_find_scalar_witness_absent_on_mismatched_bases():
    # 2^-s never equals a power of 3
    assert find_scalar_witness(scalar_char(3, 2), 2, 4, 8) is None


def test_find_scalar_witness_rejects_negative_bounds():
    for s_max, len_max in ((-1, 4), (4, -1), (-1, -3)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            find_scalar_witness(scalar_char(2, 2), -1, s_max, len_max)


def enumerated_witness_states(rep, len_max):
    """The enumerate-evaluate-dedup route: every freely reduced word is
    evaluated from scratch, and the first word of each image is kept."""
    states = []
    seen = set()
    for v in enumerate_braid_words(rep.n, len_max):
        img = rep_eval(rep, v)
        if img in seen:
            continue
        seen.add(img)
        states.append((v, img))
    return states


def enumerated_witness(states, rep, value, s_max):
    """The brute-force route of `find_scalar_witness`: the first s in
    1..s_max, then -1..-s_max, whose target an enumerated image equals, with
    its first word.  It tries the negative s that the search skips, so an
    agreement shows that no negative s comes first."""
    one = rep.one()
    for s in list(range(1, s_max + 1)) + list(range(-1, -s_max - 1, -1)):
        target = one.scale(value**-s)
        for v, img in states:
            if img == target:
                return v, s
    return None


def scaled_permutation_rep(n, d):
    """sigma_i -> d * (i i+1) and sigma_i^-1 -> d^-1 * (i i+1) in the group
    algebra of S_n: formal letters that are not 1 * g, with rho(s1 s1) = d^2 * 1."""
    e = Permutation.identity(n)
    swaps = [Permutation.transposition(n, i) for i in range(1, n)]
    images = [FormalElement(e, [(g, d)]) for g in swaps]
    inverses = [FormalElement(e, [(g, d**-1)]) for g in swaps]
    return BraidRep(n, FormalElement.one(e), images, inverses, name="scaled-perm")


WITNESS_REPS = {
    "perm2": permutation_rep(2),
    "perm3": permutation_rep(3),
    "perm4": permutation_rep(4),
    "perm5": permutation_rep(5),
    "scaled2-perm3": scaled_permutation_rep(3, scalar(2)),
    "burau-reduced3": burau_reduced(3),
    "burau-unreduced2": burau_unreduced(2),
    "burau-unreduced3": burau_unreduced(3),
    "burau-reduced3-formal": as_formal(burau_reduced(3)),
    "scalar2-n2": scalar_char(2, 2),
    "scalar2-n3": scalar_char(2, 3),
    "scalar1_2-n3": scalar_char(scalar(Fraction(1, 2)), 3),
    "scalar-1-n3": scalar_char(-1, 3),
    "scalar-t-n3": scalar_char(-T, 3),
    "cyclic2_2-n2": cyclic_rep(2, 2),
    "cyclic3_-1-n3": cyclic_rep(3, -1, 3),
    "cyclic2_2t^-1-n3": cyclic_rep(2, 2 * T**-1, 3),
    # Laurent twists, whose right-multiplication maps are packed
    "cyclic4_t-n2": cyclic_rep(4, T),
    "cyclic2_2t^-1-n2": cyclic_rep(2, 2 * T**-1),
    # rational twists: X wraps to the twist 1/2, and X^-1 = -2/3 X
    "cyclic3_1_2-n2": cyclic_rep(3, scalar(Fraction(1, 2))),
    "cyclic2_-3_2-n2": cyclic_rep(2, scalar(Fraction(-3, 2))),
    "matrix2x2-n2": matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])]),
    # the inverse has denominator 2 and a t^-1 entry, and the square is -2t * 1
    "matrix2x2-laurent-n2": matrix_rep_from_images(2, [Matrix([[0, -2 * T], [1, 0]])]),
}
# -1/2 t^-1 gives the Laurent matrix rep a hit.  Under that rep at len_max 4,
# the target 8/7 * 1 (value 7/8, s = 1) is not integral over the keys' scale
# 2^4, and truncating it would give the identity's key.
WITNESS_VALUES = (
    scalar(2), scalar(-1), scalar(Fraction(1, 2)), T, -T, 2 * T**-1, scalar(Fraction(-1, 2)) * T**-1, scalar(Fraction(7, 8))
)


@pytest.mark.parametrize("name", WITNESS_REPS)
def test_find_scalar_witness_matches_enumeration(name):
    # The breadth-first walk keeps exactly the words the enumeration keeps, so
    # the reported (v, s) is the same pair, not merely an equivalent one.
    rep = WITNESS_REPS[name]
    found = 0
    for len_max in range(5):
        states = enumerated_witness_states(rep, len_max)
        for value in WITNESS_VALUES:
            for s_max in (0, 1, 4):
                expected = enumerated_witness(states, rep, value, s_max)
                got = find_scalar_witness(rep, value, s_max, len_max)
                assert got == expected, (len_max, value, s_max)
                found += expected is not None
    if name.startswith(("scalar", "cyclic", "scaled", "matrix")):
        assert found, "grid rows for scalar, cyclic, scaled and matrix reps must include hits"


def test_find_scalar_witness_matches_enumeration_on_reduced_burau3():
    # The workload's shape (burau-reduced, n = 3, len_max = 5), at seeded units.
    rng = random.Random(20)
    rep = burau_reduced(3)
    states = enumerated_witness_states(rep, 5)
    values = [scalar(x) for x in (Fraction(3, 2), Fraction(2, 3), 1, -1)]
    values += [scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))) * T ** rng.randint(-3, 3) for _ in range(6)]
    for value in values:
        assert find_scalar_witness(rep, value, 4, 5) == enumerated_witness(states, rep, value, 4), value


def test_find_scalar_witness_keys_are_injective_up_to_the_bound():
    # Over [[0, -2t], [1, 0]] and its inverse, D = 2 and B = 4, so at depth 1 a
    # key coefficient may reach 4 in magnitude; every (q + r t) / 2 * 1 with
    # |q| <= 4, |r| <= 1 and q + r t != 0 must keep a key of its own.
    m = Matrix([[0, -2 * T], [1, 0]])
    key, *_ = _packed_keys([m, m.inverse()], 1)
    one = Matrix.identity(2)
    keys = [key(one.scale(scalar({0: Fraction(q, 2), 1: Fraction(r, 2)}))) for q in range(-4, 5) for r in (-1, 0, 1) if q or r]
    assert None not in keys and len(set(keys)) == len(keys)


def test_packed_keys_take_zero_images_and_products():
    # A zero image and a product that vanishes are keyed like any matrix, and
    # every zero matrix has the one key (0, (0,) * dim**2).
    zero, nil, shear = Matrix([[0, 0], [0, 0]]), Matrix([[0, 3 * T], [0, 0]]), Matrix([[1, 1], [0, 1]])
    images = [zero, nil, shear, Matrix([[scalar(Fraction(1, 2)), 0], [0, 2]])]
    key, steps, product = _packed_keys(images, 3)
    assert key(zero) == key(Matrix.identity(2).scale(0)) == (0, (0, 0, 0, 0))
    for m in (Matrix.identity(2), *images, nil * shear):
        for image, step in zip(images, steps):
            assert product(key(m), step) == key(m * image), (m, image)
    assert product(key(nil), steps[1]) == (0, (0, 0, 0, 0))
    key, *_ = _packed_keys([zero], 2)
    assert key(zero) == (0, (0, 0, 0, 0)) and key(Matrix.identity(2)) is not None


def test_packed_keys_follow_cyclic_products():
    # Packed keys over a rational twist: a step takes the key of x to the
    # key of x times the image for every product x of fewer than c images,
    # zero included, and a target y * 1 is keyed as y * D**c, or not at all
    # where that is not an integer or exceeds B**c.  D and B are read off
    # the multiplication matrices: multiplying by X^i * image sends X^i to
    # column i, so its magnitudes sum to a row sum of the map.  Under twist
    # 1/2 the coordinate 1/2 wraps to 1/4, so the scale must hold
    # x * twist as well as x.  A factor t moves a key's lowest exponent and
    # nothing else.
    for order in (1, 2, 3, 4):
        for twist in (Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(-1)):
            one = CyclicElement.one(order, scalar(twist))
            x, x_inv = (CyclicElement.x_power(order, scalar(twist), k) for k in (1, -1))
            half = x.scale(scalar(Fraction(1, 2)))
            images = [half + x_inv.scale(scalar(Fraction(2, 3))), x, x_inv, one.scale(0)]
            depth = 3
            key, steps, product = _packed_keys(images, depth)
            held = [one]
            for _ in range(depth):
                for m in held:
                    for image, step in zip(images, steps):
                        assert product(key(m), step) == key(m * image), (order, twist, m, image)
                held = [m * image for m in held for image in images[:3]]
            cols = [[terms(c).get(0, 0) for c in col] for m in images for col in zip(*multiplication_matrix(m).rows)]
            d = lcm(*[c.denominator for col in cols for c in col if c])
            cap = max([d, *[sum(map(abs, col)) * d for col in cols]]) ** depth
            assert key(one) == (0, (d**depth,) + (0,) * (order - 1))
            for y in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-5, 4), Fraction(1, 2 * 3**4 * 2**9)):
                n = d**depth * y
                expected = (0, (int(n),) + (0,) * (order - 1)) if n.denominator == 1 and abs(n) <= cap else None
                assert key(one.scale(scalar(y))) == expected, (order, twist, y)
            for m in (one, x, images[0]):
                low, ents = key(m)
                assert key(m.scale(T)) == (low + 1, ents), (order, twist, m)


def test_packed_keys_take_laurent_twists():
    # A Laurent twist or a Laurent coordinate is packed like a matrix entry:
    # a step takes the key of x to the key of x times the image for every
    # product x of fewer than c images, where wrapping past X^(s-1) moves
    # the exponents by those of the twist.  Distinct products keep distinct
    # keys.  An order-500 image X is one triple per coordinate, and X then
    # X^-1 returns to the key of 1.
    for order in (1, 2, 3, 4):
        for twist in (T, 2 * T**-1, scalar({-3: Fraction(-1, 3)}), scalar(Fraction(1, 2))):
            one = CyclicElement.one(order, twist)
            x, x_inv = (CyclicElement.x_power(order, twist, k) for k in (1, -1))
            tau_image = x.scale(T) + x_inv.scale(scalar({0: Fraction(1, 2), 1: -1})) + one.scale(scalar(Fraction(2, 3)))
            images = [tau_image, x, x_inv, one.scale(0)]
            depth = 3
            key, steps, product = _packed_keys(images, depth)
            held, keys = [one], {}
            for _ in range(depth):
                for m in held:
                    assert keys.setdefault(key(m), m) == m, (order, twist, m)
                    for image, step in zip(images, steps):
                        assert product(key(m), step) == key(m * image), (order, twist, m, image)
                held = [m * image for m in held for image in images[:3]]
    one = CyclicElement.one(500, scalar(2))
    images = [CyclicElement.x_power(500, 2, k) for k in (1, -1)]
    key, steps, product = _packed_keys(images, 4)
    assert [len(triples) for _, triples in steps] == [500, 500]
    assert product(product(key(one), steps[0]), steps[1]) == key(one)


def test_find_scalar_witness_keys_every_kept_target():
    # Every s that the character filter keeps at bound len_max has a target
    # value**-s * 1 with a key at depth len_max, so the walk needs no
    # keyability filter, while bounded keys leave some dropped s with none.
    # And a step takes the key of x to the key of x times the letter's image.
    for name, rep in WITNESS_REPS.items():
        images = [rep.letters[letter] for letter in braid_letters(rep.n)]
        one, (delta, k) = rep.one(), character(rep)
        kept = unkeyed_dropped = 0
        for len_max in (*range(10), 12):
            key, steps, product, bound = _search_keys(images, len_max)
            for value in WITNESS_VALUES:
                step, top = analysis._grid_box(value**k, delta, 4, len_max)[:2]
                for s in range(1, 5):
                    target = key(one.scale(value**-s))
                    if s <= top and s % step == 0:
                        assert target is not None, (name, len_max, value, s)
                        kept += 1
                    else:
                        unkeyed_dropped += target is None
        assert kept, name
        assert unkeyed_dropped or bound is None, name
        for depth in (1, 4):
            key, steps, product, bound = _search_keys(images, depth)
            if bound is not None and bound < 3:
                continue  # the keys hold no product of three images
            for x in (one, *images, images[0] * images[-1]):
                for image, step in zip(images, steps):
                    assert product(key(x), step) == key(x * image), (name, depth, x, image)


def test_find_scalar_witness_sizes_keys_by_the_depth_reached(monkeypatch):
    # Both images have order 2, so the walk ends at depth 2 whatever len_max
    # says; slots and scales sized from len_max would take billions of bits.
    # The constant image is packed at any depth, as its products span one
    # exponent.  Both have determinant -1, so the target -1 * 1 (s = 1),
    # of determinant 1, is walked for; no image is -1 * 1.
    kinds = spy_key_kinds(monkeypatch)
    for m in (Matrix([[1, -2 * T], [0, -1]]), Matrix([[1, -2], [0, -1]])):
        rep = matrix_rep_from_images(2, [m])
        kinds.clear()
        start = time.perf_counter()
        assert find_scalar_witness(rep, -1, 1, 10**9) is None
        assert time.perf_counter() - start < 0.5
        assert kinds == ["packed"], m


def test_find_scalar_witness_restarts_past_the_first_depth():
    # s1^9 = 2^9 * 1 lies past the first depth (8), so the walk must restart deeper.
    rep = matrix_rep_from_images(2, [Matrix([[2]])])
    assert find_scalar_witness(rep, scalar(Fraction(1, 2**9)), 1, 8) is None
    assert find_scalar_witness(rep, scalar(Fraction(1, 2**9)), 1, 9) == (sigma_power(2, 1, 9), 1)


def character(rep):
    """(chi(rho(sigma_1)), k) with chi(c * 1) = c**k, read off the letter
    image: (det, dim) of a matrix, (coefficient sum, 1) of a formal element,
    and (norm, order) of a cyclic element, the norm taken as the determinant
    of its multiplication matrix."""
    x = rep.image(1)
    if rep.backend == "matrix":
        return x.det(), x.dim
    if rep.backend == "formal":
        return sum(x.coeffs.values(), scalar(0)), 1
    return multiplication_matrix(x).det(), x.order


@pytest.mark.parametrize("name", WITNESS_REPS)
def test_find_scalar_witness_drops_only_targets_no_determinant_reaches(name):
    # chi(rho(v)) = delta**e(v) with |e(v)| <= len(v), for delta =
    # chi(rho(sigma_1)) and chi the determinant of a matrix rep, the
    # coefficient sum of a formal one or the norm of a cyclic one, so the
    # search may drop the exponent s
    # only where no such power is chi(value**-s * 1) = value**(-s * k).  Each
    # verdict of the closed form is checked against that definition, looped
    # over e; every s of an enumerated hit must be kept; and the search must
    # still return the enumeration's (v, s).  The enumeration tries
    # s = -1..-4 after 1..4 and the search does not, which is sound because
    # value**s * 1 and value**-s * 1 are reached together, first by words of
    # one length (v and its inverse), so every result has s >= 1.  Values
    # are +-2^j t^k.  The bound stops at 4 on perm4 and perm5, whose balls
    # of radius 6 hold 19k and 134k words, each evaluated from scratch.
    rng = random.Random(35)
    rep = WITNESS_REPS[name]
    one, (delta, k) = rep.one(), character(rep)
    assert rep._delta == (delta, k)
    bounds = (0, 1, 2, 4, 6) if rep.n <= 3 else (0, 1, 2, 4)
    all_states = enumerated_witness_states(rep, bounds[-1])
    hits = 0
    for len_max in bounds:
        states = [(v, img) for v, img in all_states if len(v) <= len_max]
        values = [scalar(-1), T**-1, T**3, scalar(Fraction(1, 2))]
        values += [rng.choice((-1, 1)) * scalar(Fraction(2) ** rng.randint(-3, 3)) * T ** rng.randint(-3, 3) for _ in range(8)]
        for value in values:
            expected = enumerated_witness(states, rep, value, 4)
            got = find_scalar_witness(rep, value, 4, len_max)
            assert got == expected and (got is None or got[1] >= 1), (len_max, value)
            for s in range(1, 5):
                # the states keep each image's shortlex-first word
                up, down = (next((len(v) for v, img in states if img == one.scale(value**e)), None) for e in (s, -s))
                assert up == down, (len_max, value, s)
            step, top, _, _ = analysis._grid_box(value**k, delta, 4, len_max)
            for s in (1, 2, 3, 4, -1, -2, -3, -4):
                target = value ** (-s * k)
                kept = abs(s) <= top and s % step == 0
                assert kept == any(delta**e == target for e in range(-len_max, len_max + 1)), (len_max, value, s)
                image = one.scale(value**-s)
                hit = any(img == image for _, img in states)
                assert kept or not hit, (len_max, value, s)
                hits += hit
    assert hits


def test_find_scalar_witness_keeps_the_full_twist_of_reduced_burau3():
    # rho(Delta^2) = t^3 * 1 for the full twist Delta^2 = (s1 s2)^3: six
    # letters of exponent sum 6, and t^6 = (-t)^6 is its determinant.  So the
    # filter keeps the exponent that reaches it, and the search finds it at
    # len_max 6 and not before.
    rep = burau_reduced(3)
    assert rep_eval(rep, parse_word("s1 s2 s1 s2 s1 s2", 3)) == rep.one().scale(T**3)
    states = enumerated_witness_states(rep, 6)
    for value, s in ((T**-1, 3), (T**-3, 1), (T**3, 1)):
        expected = enumerated_witness(states, rep, value, 4)
        assert expected is not None and len(expected[0]) == 6 and expected[1] == s, value
        assert find_scalar_witness(rep, value, 4, 6) == expected, value
        assert find_scalar_witness(rep, value, 4, 5) is None, value


def test_find_scalar_witness_returns_at_once_where_no_determinant_reaches():
    # Unreduced Burau at n = 4 has det rho(sigma_1) = -t, so no word's
    # determinant is 2**(-4s): the search returns without a walk, however long
    # the words it may take.
    rep = burau_unreduced(4)
    for len_max in (10, 10**9):
        start = time.perf_counter()
        assert find_scalar_witness(rep, 2, 4, len_max) is None
        assert time.perf_counter() - start < 0.5, len_max


def test_find_scalar_witness_decides_constant_determinants_in_closed_form():
    # delta = 2 for the character 2 and delta = -1 for [[1, -2], [0, -1]]:
    # the exponents kept come from one exact solve on the (s, e) grid, not a
    # loop over every |e| <= len_max, so a bound of 10**9 costs nothing.
    cases = [
        (scalar_char(2, 2), (scalar(3), 2 * T, scalar(6), scalar(Fraction(-3, 4)))),
        (matrix_rep_from_images(2, [Matrix([[1, -2], [0, -1]])]), (scalar(2), T, scalar(Fraction(3, 2)), scalar(-2))),
    ]
    for rep, values in cases:
        for value in values:
            start = time.perf_counter()
            assert find_scalar_witness(rep, value, 4, 10**9) is None, (rep.name, value)
            assert time.perf_counter() - start < 0.5, (rep.name, value)


# Values whose targets some word's determinant reaches, so a matrix rep walks:
# det rho(sigma_1) is -t for unreduced Burau, 2 for [[0, -2], [1, 0]] and
# [[2]], and 2t for [[0, -2t], [1, 0]].
RESTART_VALUES = {
    "burau-unreduced2": (T, -T, scalar(-1)),
    "matrix2x2-n2": (scalar(2), scalar(-1), scalar(Fraction(1, 2))),
    "matrix2x2-laurent-n2": (scalar(Fraction(-1, 2)) * T**-1, scalar(-1), 2 * T),
    "scalar2-n2": (scalar(2), scalar(-1), scalar(Fraction(1, 2))),
    "cyclic2_2-n2": WITNESS_VALUES,
    "cyclic3_1_2-n2": WITNESS_VALUES,
}


def first_kept_exponent(rep, value, len_max):
    """The first s in try order that the character filter keeps, or None."""
    delta, k = character(rep)
    step, top = analysis._grid_box(value**k, delta, 4, len_max)[:2]
    return next((s for s in range(1, 5) if s <= top and s % step == 0), None)


@pytest.mark.parametrize("name", RESTART_VALUES)
def test_find_scalar_witness_matches_enumeration_past_a_restart(name, monkeypatch):
    # Packed keys, of a matrix or a cyclic rep, are first sized for depth 8; a
    # walk that looks further restarts with keys for a deeper one, and must
    # still keep the enumeration's words.  The walk at depth 8 settles the
    # search, with no restart, exactly where the answer's s is the first one
    # kept and its word has at most 8 letters: a miss, a longer word, or an
    # earlier s left open needs the restart.  Every image group here is
    # infinite, so no walk ends early by exhaustion.  Where the filter keeps
    # no s, no key is built.
    rep = WITNESS_REPS[name]
    kinds = spy_key_kinds(monkeypatch)
    for len_max in (9, 12, 17):
        states = enumerated_witness_states(rep, len_max)
        for value in RESTART_VALUES[name]:
            kinds.clear()
            expected = enumerated_witness(states, rep, value, 4)
            assert find_scalar_witness(rep, value, 4, len_max) == expected, (len_max, value)
            first = first_kept_exponent(rep, value, len_max)
            if first is None:
                assert expected is None and kinds == [], (len_max, value)
                continue
            settled = expected is not None and len(expected[0]) <= 8 and expected[1] == first
            assert kinds[0] == "packed" and (len(kinds) > 1) != settled, (len_max, value)


def test_find_scalar_witness_keeps_the_matrix_span_limit():
    # Products of this image span more exponents than a LaurentPoly may, so the
    # walk multiplies matrices and raises as their product does.  The target
    # -1 * 1 has determinant 1, that of the empty word, so the walk runs.
    rep = matrix_rep_from_images(2, [Matrix([[T ** (MAX_SPAN // 2 + 1), 1], [0, 1]])])
    with pytest.raises(ValueError, match="spans"):
        find_scalar_witness(rep, -1, 1, 3)


def count_search_work(monkeypatch, mul_budget):
    """Count `FormalElement` products ("mul"), group products of permutations
    ("group_mul", the products inside a formal one) and `rep_eval` calls; a
    product of either kind past
    the budget fails at once instead of running on."""
    calls = Counter()

    def counted_mul(cls, name):
        mul = cls.__mul__

        def wrapper(self, other):
            calls[name] += 1
            assert calls[name] <= mul_budget, f"more than {mul_budget} {name} calls"
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", wrapper)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_mul(FormalElement, "mul")
    counted_mul(Permutation, "group_mul")
    for module in (analysis, reps):
        monkeypatch.setattr(module, "rep_eval", counted("rep_eval", module.rep_eval))
    return calls


# S_3 as permutation matrices: a finite group without -1 * 1, so at value -1
# the target of s = 1 is never reached and the walk exhausts the group.
PERM3_MATRICES = matrix_rep_from_images(
    3, [Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])]
)


def test_find_scalar_witness_multiplies_once_per_new_image(monkeypatch):
    # Every image of `permutation_rep(4)` has coefficient sum 1, so at value
    # -1 the character filter keeps only s = +-2 and +-4, whose target 1 * 1
    # the empty word reaches: it makes no product at all.  S_3 as
    # permutation matrices has determinants +-1 and keeps walking for s = 1:
    # it has 6 elements and each kept image is extended by at most 4
    # letters, one key product each, and no formal element is multiplied.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    products = spy_products(monkeypatch)
    assert find_scalar_witness(rep, -1, 4, 6) == (SMWord(4), 2)
    assert products["product"] == calls["group_mul"] == calls["mul"] == calls["rep_eval"] == 0
    assert find_scalar_witness(PERM3_MATRICES, -1, 4, 6) == (SMWord(3), 2)
    assert 0 < products["product"] <= 6 * 4
    assert calls["mul"] == calls["rep_eval"] == 0


def test_find_scalar_witness_with_no_keyed_target_walks_nothing(monkeypatch):
    # A permutation image has coefficient sum 1, so every word's image has
    # too, and under value 2 no target 2**-s * 1 is kept: no key is built
    # and no product made.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    kinds = spy_key_kinds(monkeypatch)
    assert find_scalar_witness(rep, 2, 4, 6) is None
    assert find_scalar_witness(rep, scalar(Fraction(3, 2)), 4, 10**6) is None
    assert calls["mul"] == calls["group_mul"] == 0 and kinds == []


def test_find_scalar_witness_without_exponents_walks_nothing(monkeypatch):
    # s_max == 0 leaves no exponent to try, so no image is worth building.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    assert find_scalar_witness(rep, 2, 0, 6) is None
    assert calls["mul"] == calls["group_mul"] == 0


def test_find_scalar_witness_stops_when_images_are_exhausted(monkeypatch):
    # Once a level adds no new image the walk ends, whatever len_max says:
    # S_3 as permutation matrices is exhausted in the first walk, with no
    # restart, after the same 19 products at len_max 6 and 10**6.  On
    # `permutation_rep(4)` the empty word settles the search first.
    products = spy_products(monkeypatch)
    for len_max in (6, 10**6):
        products.clear()
        assert find_scalar_witness(PERM3_MATRICES, -1, 4, len_max) == (SMWord(3), 2)
        assert products["product"] == 19, len_max
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    assert find_scalar_witness(rep, -1, 4, 10**6) == (SMWord(4), 2)
    assert calls["group_mul"] == 0


def test_find_scalar_witness_returns_once_its_answer_is_settled(monkeypatch):
    # The answer is the first hit s in try order, with its target's first
    # word, so once the first open s is hit no later product can change it.
    # The character 2 at value 2 hits s = 1 with S1, its second product, at
    # any len_max; walking on would double the depth without end.
    products = spy_products(monkeypatch)
    for len_max in (8, 4096, 10**6):
        products.clear()
        assert find_scalar_witness(scalar_char(2, 2), 2, 4, len_max) == (sigma_power(2, 1, -1), 1), len_max
        assert products["product"] == 2, len_max
    # Reduced Burau at t^-3 hits s = 1, the first s tried, with the full
    # twist (6 letters), so no longer word can change the enumeration's
    # answer, and the walk keyed for depth 8 (L = 12) stops where the one
    # keyed for depth 6 does.
    rep = burau_reduced(3)
    expected = enumerated_witness(enumerated_witness_states(rep, 6), rep, T**-3, 4)
    assert expected[1] == 1 and len(expected[0]) == 6
    counts = []
    for len_max in (6, 12):
        products.clear()
        assert find_scalar_witness(rep, T**-3, 4, len_max) == expected, len_max
        counts.append(products["product"])
    assert counts[0] == counts[1] > 0


def test_find_scalar_witness_keys_only_the_first_open_target_before_the_walk(monkeypatch):
    # The character filter keeps s = 2, 4 for `permutation_rep(4)` at -1,
    # and the empty word reaches the target of s = 2, so that one target is
    # built as a scaled identity and keyed.  Where the first target is
    # missed (S_3 as matrices, whose determinants keep s = 1..4: the group
    # has no -1 * 1), the later targets are built once the walk ends, up to
    # the first that it reached.
    keyed = []
    for cls in (FormalElement, Matrix):

        def counted(x, c, scale=cls.scale):
            if x.is_identity():
                keyed.append(c)
            return scale(x, c)

        monkeypatch.setattr(cls, "scale", counted)
    assert find_scalar_witness(permutation_rep(4), -1, 4, 4) == (SMWord(4), 2)
    assert keyed == [1]
    keyed.clear()
    assert find_scalar_witness(PERM3_MATRICES, -1, 4, 6) == (SMWord(3), 2)
    assert keyed == [-1, 1]


def test_find_scalar_witness_takes_one_determinant_per_rep(monkeypatch):
    # delta = det rho(sigma_1) depends on the rep only, so two searches on
    # one rep take it once.  No word's determinant (-t)^e is 2**(-8s) or
    # (3/2)**(-8s), so no s is open and neither search builds keys, which
    # on burau_unreduced(32) would cost several times that determinant.
    rep = burau_unreduced(8)
    dets = Counter()
    det = Matrix.det

    def counted(self):
        dets["det"] += 1
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    kinds = spy_key_kinds(monkeypatch)
    for value in (scalar(2), scalar(Fraction(3, 2))):
        assert find_scalar_witness(rep, value, 4, 10) is None
    assert dets["det"] == 1 and kinds == []


def key_kind(keys, x):
    """Which kind of key `_search_keys` returned: keys of any depth are the
    elements, bounded ones are packed."""
    key, *_, bound = keys
    if bound is None:
        assert key(x) is x
        return "element"
    return "packed"


def spy_key_kinds(monkeypatch):
    """Record the kind of every key set that `analysis._search_keys` hands out."""
    kinds = []

    def spy(images, *args):
        keys = _search_keys(images, *args)
        kinds.append(key_kind(keys, images[0]))
        return keys

    monkeypatch.setattr(analysis, "_search_keys", spy)
    return kinds


def test_find_scalar_witness_keys_by_backend(monkeypatch):
    # Packed keys for a matrix rep and for a cyclic rep, over a rational or
    # a Laurent twist; element keys for every formal rep, whether its
    # letters are each 1 * g, a permutation or a matrix, or scaled.  Every
    # rep takes values whose
    # targets some word's character reaches, so that keys are built:
    # chi(rho(sigma_1)) is 1 for the unit letters, 2 for the scaled ones, -t
    # for reduced Burau, and the norm (-1)**(s+1) * d of X under X^s = d for
    # a cyclic rep: -1, -1/2 and -2t^-1 here.
    kinds = spy_key_kinds(monkeypatch)
    units = (scalar(Fraction(1, 2)), scalar(-1), T)
    cases = [
        (permutation_rep(4), "element", (scalar(-1),)),
        (as_formal(burau_reduced(3)), "element", (scalar(-1),)),
        (scaled_permutation_rep(3, scalar(2)), "element", units[:2]),
        (scaled_permutation_rep(3, scalar(1)), "element", (scalar(-1),)),
        (burau_reduced(3), "packed", (-T**-1, scalar(-1), T)),
        (cyclic_rep(3, -1, 3), "packed", (scalar(-1),)),
        (cyclic_rep(2, scalar(Fraction(1, 2)), 3), "packed", units[:2]),
        (cyclic_rep(2, 2 * T**-1, 3), "packed", (scalar(-1), T * scalar(Fraction(1, 2)))),
    ]
    for rep, expected, values in cases:
        states = enumerated_witness_states(rep, 3)
        for value in values:
            kinds.clear()
            assert find_scalar_witness(rep, value, 4, 3) == enumerated_witness(states, rep, value, 4), (rep.name, value)
            assert kinds == [expected], (rep.name, value)


def test_scalar_power_witness_examples():
    rep = scalar_char(2, 2)
    w = scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -1), 1)
    assert w.w1 == parse_word("t1 S1", 2)
    assert w.w2 == sigma_power(2, 1, 1)
    assert w.image == rep.one().scale(2)

    w = scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -2), 2)
    assert w.w1 == parse_word("t1 t1 S1 S1", 2)
    assert w.image == rep.one().scale(4)


def test_scalar_power_witness_rejects_s_below_1():
    # rho(sigma_1) = 2 = 2^-(-1), but the (v, s) = (s1, -1) arrangement is
    # not inverted: a witness takes s >= 1, and (S1, 1) is the same pair.
    rep = scalar_char(2, 2)
    for v, s in ((sigma_power(2, 1, 1), -1), (sigma_power(2, 1, -1), 0)):
        with pytest.raises(ValueError, match="^need s >= 1$"):
            scalar_power_witness(rep, "a00", 2, v, s)
    assert scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -1), 1).w1 == parse_word("t1 S1", 2)


def test_scalar_power_witness_c_mode():
    rep = scalar_char(scalar(Fraction(1, 2)), 2)
    w = scalar_power_witness(rep, "00c", 2, sigma_power(2, 1, 1), 1)
    assert w.w1 == parse_word("t1 s1", 2)
    assert w.w2 == SMWord(2)
    assert w.image.is_identity()


def test_scalar_power_witness_rejects_bad_precondition():
    rep = scalar_char(2, 2)
    with pytest.raises(ValueError):
        scalar_power_witness(rep, "a00", 2, SMWord(2), 1)
    with pytest.raises(ValueError):
        scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -1), 0)


IMAGES_DIFFER = r"^rho\(v\) is not value\*\*-s \* 1, so the images differ$"
WITNESS_REJECTIONS = [
    ("s-zero", lambda: scalar_power_witness(scalar_char(2, 2), "a00", 2, sigma_power(2, 1, -1), 0),
     "^need s >= 1$"),
    ("wrong-image", lambda: scalar_power_witness(scalar_char(2, 2), "a00", 2, SMWord(2), 1), IMAGES_DIFFER),
    ("wrong-image-c-mode", lambda: scalar_power_witness(scalar_char(2, 2), "00c", 2, sigma_power(2, 1, 1), 1),
     IMAGES_DIFFER),
    ("tau-letter", lambda: scalar_power_witness(scalar_char(2, 2), "a00", 2, parse_word("t1 S1 S1", 2), 1),
     r"^v must be a braid word \(no tau letters\)$"),
    ("other-strand-count", lambda: scalar_power_witness(scalar_char(2, 2), "a00", 2, sigma_power(3, 1, -1), 1),
     "^strand counts differ: 2 vs 3$"),
    ("unknown-mode", lambda: scalar_power_witness(scalar_char(2, 2), "zzz", 2, sigma_power(2, 1, -1), 1),
     "^mode must be one of"),
    ("non-unit", lambda: scalar_power_witness(scalar_char(2, 2), "a00", 0, sigma_power(2, 1, -1), 1),
     "^need a unit, got 0$"),
    ("r-zero", lambda: unit_power_witness(burau_reduced(3), "a00", -1, 0), "^need s >= 1$"),
    ("non-root", lambda: unit_power_witness(burau_reduced(3), "a00", 2, 2), IMAGES_DIFFER),
    ("non-root-odd", lambda: unit_power_witness(burau_reduced(3), "0b0", -1, 1), IMAGES_DIFFER),
    ("non-root-c-mode", lambda: unit_power_witness(permutation_rep(3), "00c", -T, 4), IMAGES_DIFFER),
    ("non-root-non-unit", lambda: unit_power_witness(burau_reduced(3), "a00", 0, 1), "^need a unit, got 0$"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in WITNESS_REJECTIONS],
                         ids=[c[0] for c in WITNESS_REJECTIONS])
def test_witnesses_reject_every_bad_precondition(make, message):
    # Each input here breaks one precondition of a witness: s >= 1 (r >= 1),
    # a braid v on the rep's strands with rho(v) = value**-s * 1
    # (value**r = 1), a known mode, a unit value.  The image comparison is
    # the one check of rho(v), so a wrong rho(v) and a value**r != 1 both
    # fail there.
    with pytest.raises(ValueError, match=message):
        make()


def test_witnesses_reject_unknown_mode():
    # the CLI's argparse choices stop a bad mode first, so only the library sees one
    message = r"^mode must be one of \('a00', '0b0', '00c'\), got 'zzz'$"
    with pytest.raises(ValueError, match=message):
        scalar_power_witness(scalar_char(2, 2), "zzz", 2, sigma_power(2, 1, -1), 1)
    with pytest.raises(ValueError, match=message):
        unit_power_witness(burau_reduced(3), "zzz", -1, 2)


def test_distinctness_certificate_kinds():
    assert distinctness_certificate(parse_word("t1", 2), SMWord(2)).kind == "tau-count"
    assert distinctness_certificate(parse_word("s1", 3), SMWord(3)).kind == "sigma-exponent"
    assert (
        distinctness_certificate(parse_word("s1 S2", 3), parse_word("s2 S1", 3)).kind
        == "permutation"
    )
    assert distinctness_certificate(parse_word("s1 s1", 2), parse_word("s1 s1", 2)) is None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(0, 8))
def test_certificate_decides_sm2(seed, max_len):
    # In SM_2 = N x Z the tau count and sigma exponent sum are the normal
    # form, so two n = 2 words get no certificate exactly when they are equal.
    rng = random.Random(seed)
    w1, w2 = random_sm_word(rng, 2, max_len), random_sm_word(rng, 2, max_len)
    assert (distinctness_certificate(w1, w2) is None) == (sm2_normal_form(w1) == sm2_normal_form(w2))


# --- kernel searches ----------------------------------------------------------------


def test_kernel_search_geometric_progression():
    report = kernel_search_sm2(scalar_char(2, 2), PhiParams.of(2, 0, 0), 6, 12)
    assert set(report.hits) == scalar_hits_oracle(2, 0, 0, Fraction(2), 6, 12)
    assert report.hits == tuple((m, -2 * m) for m in range(1, 7))
    assert report.minimal_generator == (1, -2)
    assert report.cyclic_structure_verified is True


def test_kernel_search_even_powers():
    report = kernel_search_sm2(scalar_char(2, 2), PhiParams.of(1, 0, -3), 6, 12)
    assert set(report.hits) == scalar_hits_oracle(1, 0, -3, Fraction(2), 6, 12)
    assert report.hits == ((2, 0), (4, 0), (6, 0))
    assert report.minimal_generator == (2, 0)
    assert report.cyclic_structure_verified is True


def test_kernel_search_birman_instance_empty():
    report = kernel_search_sm2(burau_reduced(2), PhiParams.of(1, -1, 0), 4, 8)
    assert report.hits == ()
    assert report.minimal_generator is None
    assert report.cyclic_structure_verified is None
    assert report.bounded


def test_kernel_search_p0_row_flags_unfaithful_rho():
    report = kernel_search_sm2(permutation_rep(2), PhiParams.of(2, 3, -4), 2, 3)
    assert (0, 2) in report.hits and (0, -2) in report.hits


def test_kernel_search_requires_n2():
    with pytest.raises(ValueError):
        kernel_search_sm2(scalar_char(2, 3), PhiParams.of(1, 0, 0), 2, 2)


def test_kernel_hits_closed_under_addition():
    report = kernel_search_sm2(scalar_char(2, 2), PhiParams.of(2, 0, 0), 6, 12)
    hits = set(report.hits)
    for p1, q1 in hits:
        for p2, q2 in hits:
            if p1 + p2 <= 6 and abs(q1 + q2) <= 12:
                assert (p1 + p2, q1 + q2) in hits


GRID_TRIPLES = [
    PhiParams.of(1, 0, 0),
    PhiParams.of(0, 0, 0),
    PhiParams.of(2, 0, 0),
    PhiParams.of(1, 0, -3),
    PhiParams.of(1, 0, -1),
    PhiParams.of(1, -1, 0),
    PhiParams.of(0, 0, 1),
    PhiParams.of(scalar(Fraction(1, 2)), -1, 2),
]
GRID_BOUNDS = [(0, 0), (0, 5), (4, 0), (4, 8)]


def grid_reps():
    # scalar_char(T) has spread 0 off exponent 0: sigma_1 -> t, tau_1 -> t at (1, 0, 0)
    yield from (scalar_char(d, 2) for d in (2, 1, -1, T))
    # the prop8 shapes: [[0, -2], [1, 0]] squares to -2, and the companion matrix
    # of x^2 - x/2 + 1/4 cubes to -1/8, here conjugated by a unimodular matrix
    yield matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])])
    half, u = scalar(Fraction(1, 2)), Matrix([[-1, 1], [-2, 1]])
    yield matrix_rep_from_images(2, [u * Matrix([[0, -half * half], [1, half]]) * u.inverse()])
    # tau_1 -> [[0, 1], [0, 0]] at (1, 0, -1), so tau_1^2 = 0
    yield matrix_rep_from_images(2, [Matrix([[1, 1], [0, 1]])])
    yield permutation_rep(2)
    yield burau_reduced(2)
    yield burau_unreduced(2)
    yield as_formal(burau_unreduced(2))
    yield from (cyclic_rep(s, ds) for s, ds in ((1, 2), (2, -1), (3, 1), (4, T)))


def test_kernel_search_matches_cell_by_cell_grid():
    for rep in grid_reps():
        for params in GRID_TRIPLES:
            for p_max, q_max in GRID_BOUNDS:
                expected = grid_reference(rep, params, p_max, q_max)
                assert kernel_search_sm2(rep, params, p_max, q_max).hits == expected, (rep.name, params.text())


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([Fraction(2), Fraction(-1, 2), Fraction(3, 2), Fraction(-1), Fraction(1)]),
    a=small_rationals,
    b=small_rationals,
    c=small_rationals,
    k=st.sampled_from([None, -2, -1, 1, 2]),
    p_max=st.integers(0, 4),
    q_max=st.integers(0, 8),
)
def test_kernel_search_matches_cell_by_cell_grid_property(d, a, b, c, k, p_max, q_max):
    if k is not None:
        # plant a d + b d^-1 + c = d^-k, so tau^p sigma^(k p) maps to 1
        c = d**-k - a * d - b / d
    rep, params = scalar_char(scalar(d), 2), PhiParams.of(scalar(a), scalar(b), scalar(c))
    expected = grid_reference(rep, params, p_max, q_max)
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == expected
    if k is not None and 1 <= p_max and abs(k) <= q_max:
        assert (1, k) in expected


invertible_rational_2x2 = st.lists(small_rationals, min_size=4, max_size=4).filter(lambda e: e[0] * e[3] != e[1] * e[2])


@settings(max_examples=60, deadline=None)
@given(
    entries=invertible_rational_2x2,
    k=st.integers(-2, 2),
    a=small_rationals,
    b=small_rationals,
    c=small_rationals,
    p_max=st.integers(0, 4),
    q_max=st.integers(0, 8),
)
def test_kernel_search_matches_cell_by_cell_grid_rational_2x2_property(entries, k, a, b, c, p_max, q_max):
    # sigma_1 -> t^k * M for an invertible rational M: a grid that packs its keys
    rows = [[scalar(x) * T**k for x in entries[:2]], [scalar(x) * T**k for x in entries[2:]]]
    rep, params = matrix_rep_from_images(2, [Matrix(rows)]), PhiParams.of(scalar(a), scalar(b), scalar(c))
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == grid_reference(rep, params, p_max, q_max)


@settings(max_examples=60, deadline=None)
@given(
    entries=invertible_rational_2x2,
    f=st.dictionaries(st.integers(-2, 2), small_rationals, max_size=3),
    k=st.integers(-2, 2),
    abc=st.one_of(
        st.sampled_from([(1, 0, 0), (0, 1, 0)]), st.tuples(small_rationals, small_rationals, small_rationals)
    ),
    p_max=st.integers(0, 4),
    q_max=st.integers(0, 8),
)
def test_kernel_search_matches_cell_by_cell_grid_laurent_2x2_property(entries, f, k, abc, p_max, q_max):
    # sigma_1 -> t^k * [[1, f], [0, 1]] * M for a Laurent f and an invertible
    # rational M: every image spans at most 9 exponents, so at depth <= 8 the
    # grid packs them.  (1, 0, 0) plants the hits (p, -p), (0, 1, 0) (p, p).
    m = Matrix([[scalar(x) for x in entries[:2]], [scalar(x) for x in entries[2:]]])
    rep = matrix_rep_from_images(2, [Matrix([[1, scalar(f)], [0, 1]]) * m.scale(T**k)])
    params = PhiParams.of(*(scalar(x) for x in abc))
    images = [Extension(rep, params).letters[tau(1)], rep.image(1), rep.image_inv(1)]
    assert _packed_keys(images, max(p_max, q_max)) is not None
    hits = kernel_search_sm2(rep, params, p_max, q_max).hits
    assert hits == grid_reference(rep, params, p_max, q_max)
    if abc in ((1, 0, 0), (0, 1, 0)) and p_max and q_max:
        assert (1, -1 if abc[0] else 1) in hits


cyclic_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
cyclic_twists = [Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2), Fraction(2), Fraction(-1), Fraction(2, 3)]


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(1, 5),
    twist=st.sampled_from(cyclic_twists),
    abc=st.one_of(
        st.just((0, 0, 0)),
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, -1), (-1, 0, 0)]),
        st.tuples(cyclic_rationals, cyclic_rationals, cyclic_rationals),
    ),
    p_max=st.integers(0, 5),
    q_max=st.integers(0, 10),
)
def test_kernel_search_matches_cell_by_cell_grid_rational_cyclic_property(order, twist, abc, p_max, q_max):
    # sigma_1 -> X with X^order = twist and a rational tau_1 image: a grid on
    # packed keys, whose denominators compound with the twist's.
    # (0, 0, 0) sends tau_1 to zero; (1, 0, 0) and (0, 1, 0) plant hits.
    rep, params = cyclic_rep(order, scalar(twist)), PhiParams.of(*(scalar(x) for x in abc))
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == grid_reference(rep, params, p_max, q_max)


@settings(max_examples=60, deadline=None)
@given(
    rep=st.sampled_from([cyclic_rep(4, T), cyclic_rep(2, 2 * T**-1), cyclic_rep(3, scalar(Fraction(-1, 2)) * T**2)]),
    abc=st.one_of(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, -1)]),
        st.tuples(cyclic_rationals, cyclic_rationals, cyclic_rationals),
        st.tuples(st.sampled_from([T, -T**-1, 2 * T]), cyclic_rationals, cyclic_rationals),
    ),
    p_max=st.integers(0, 5),
    q_max=st.integers(0, 10),
)
def test_kernel_search_matches_cell_by_cell_grid_laurent_cyclic_property(rep, abc, p_max, q_max):
    # sigma_1 -> X with X^order = a Laurent twist: a grid on packed keys,
    # whose wrapped coefficients move the exponents by the twist's.
    params = PhiParams.of(*(x if isinstance(x, LaurentPoly) else scalar(x) for x in abc))
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == grid_reference(rep, params, p_max, q_max)


def test_kernel_search_packs_matrix_grids_within_the_packed_span(monkeypatch):
    # Packed keys for a matrix or cyclic grid whose box depth (8 for a
    # det +-1 image, 4 where the character leaves a box such as (4, -4, 0))
    # times the widest exponent range of the right-multiplication maps of
    # its tau_1, sigma_1 and sigma_1^-1 images is at most PACKED_SPAN,
    # Laurent images and twists included; element keys for a grid past it
    # (a matrix of range 18: 8 * 18 = 144; X under X^4 = t^40, whose map
    # wraps X^3 to t^40: 4 * 40 = 160) and for every formal grid.  Every
    # grid here keeps a nonempty box, so each builds one key set: the norm
    # of tau_1 -> t * X under X^3 = 1 is t^3, no unit power of delta = 1,
    # so that box is row 0, and tau_1 -> -4/3 X - 4/3 X^-1 + 2/3 under
    # X^3 = -8 has norm 16, and 16^3 * (-8)^-4 = 1.
    packed = []

    def spy(*args):
        keys = _packed_keys(*args)
        packed.append(keys is not None)
        return keys

    monkeypatch.setattr(algebra, "_packed_keys", spy)
    kinds = spy_key_kinds(monkeypatch)
    perm2, formal_burau2, formal_scalar2 = permutation_rep(2), as_formal(burau_reduced(2)), as_formal(scalar_char(2, 2))
    diagonal = matrix_rep_from_images(2, [Matrix([[T, 0], [0, T**-1]])])
    cases = [
        (matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])]), PhiParams.of(1, 2, 1), "packed"),
        (scalar_char(T, 2), PhiParams.of(1, 0, 0), "packed"),
        (scalar_char(T, 2), PhiParams.of(0, 1, 0), "packed"),
        (diagonal, PhiParams.of(1, 0, 0), "packed"),
        (diagonal, PhiParams.of(1, 0, 1), "packed"),
        (burau_reduced(2), PhiParams.of(0, 1, 0), "packed"),
        (burau_unreduced(2), PhiParams.of(1, 0, 0), "packed"),
        (burau_unreduced(2), PhiParams.of(0, 1, 0), "packed"),
        (matrix_rep_from_images(2, [Matrix([[T**9, 0], [0, T**-9]])]), PhiParams.of(1, 0, 0), "element"),
        (cyclic_rep(4, T), PhiParams.of(1, 0, 0), "packed"),
        (cyclic_rep(4, T**40), PhiParams.of(1, 0, 0), "element"),
        (cyclic_rep(3, 1), PhiParams.of(T, 0, 0), "packed"),
        (cyclic_rep(3, -8), PhiParams.of(*(scalar(Fraction(*x)) for x in ((-4, 3), (-4, 3), (2, 3)))), "packed"),
        (cyclic_rep(4, scalar(Fraction(3, 2))), PhiParams.of(1, 0, 0), "packed"),
        (cyclic_rep(2, -1), PhiParams.of(0, 0, 0), "packed"),
        (perm2, PhiParams.of(1, 0, 0), "element"),
        (perm2, PhiParams.of(0, 1, 0), "element"),
        (perm2, PhiParams.of(0, 0, 1), "element"),
        (perm2, PhiParams.of(2, 0, 0), "element"),
        (formal_burau2, PhiParams.of(1, 0, 0), "element"),
        (formal_scalar2, PhiParams.of(1, 0, 0), "element"),
    ]
    for rep, params, kind in cases:
        packed.clear()
        kinds.clear()
        report = kernel_search_sm2(rep, params, 4, 8)
        assert packed == ([kind == "packed"] if rep.backend != "formal" else []), (rep.name, params.text())
        assert kinds == [kind], (rep.name, params.text())
        assert report.hits == grid_reference(rep, params, 4, 8)


def test_kernel_search_packs_up_to_the_packed_span(monkeypatch):
    # sigma_1 -> [[t, 0], [0, t^-1]] at (1, 0, 0): every image spans
    # exponents -1..1 and has det 1, so the box keeps the whole grid, and a
    # grid of depth 64 (64 * 2 = PACKED_SPAN) packs and one of depth 65
    # keeps Matrix keys; both agree with the cell-by-cell grid.
    assert algebra.PACKED_SPAN == 128
    kinds = spy_key_kinds(monkeypatch)
    rep, params = matrix_rep_from_images(2, [Matrix([[T, 0], [0, T**-1]])]), PhiParams.of(1, 0, 0)
    for q_max, kind in ((64, "packed"), (65, "element")):
        kinds.clear()
        assert kernel_search_sm2(rep, params, 4, q_max).hits == grid_reference(rep, params, 4, q_max)
        assert kinds == [kind], q_max


def test_kernel_search_with_an_empty_box_builds_no_keys(monkeypatch):
    # chi(tau_1) = det(-t + t^-1) is no unit for burau_reduced(2) at
    # (1, -1, 0), and tau_1 -> 3 under the character 2 at (1, 0, 1) has no
    # power 2^-q: (0, 0) is each box's only cell, so no key set is built.
    calls = spy_products(monkeypatch)
    for rep, params in ((burau_reduced(2), PhiParams.of(1, -1, 0)), (scalar_char(2, 2), PhiParams.of(1, 0, 1))):
        for p_max, q_max in ((4, 65), (300, 0), (6, 12)):
            calls.clear()
            report = kernel_search_sm2(rep, params, p_max, q_max)
            assert report == KernelReport(p_max, q_max, (), None, None)
            assert report.hits == grid_reference(rep, params, p_max, q_max)
            assert calls["keys"] == calls["product"] == 0, (rep.name, p_max, q_max)


def box_reps():
    """Matrix and formal reps whose character filter a grid must survive:
    scalar characters at +-1, at rational values and at Laurent units, the
    two Burau reps, 2x2 images with det +-1 (finite order: 6, 4 and 2;
    infinite: unipotent, hyperbolic, diagonal Laurent) or not, and formal
    lifts, with `perm2`; and one cyclic rep, filtered by its norm."""
    third, half = scalar(Fraction(1, 3)), scalar(Fraction(1, 2))
    values = (1, -1, 2, -8, 4, scalar(Fraction(-1, 2)), scalar(Fraction(2, 3)), T, -T, 2 * T**-1, T**2 * third)
    yield from (scalar_char(d, 2) for d in values)
    yield from (burau_reduced(2), burau_unreduced(2))
    images = (
        [[0, -1], [1, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[2, 1], [1, 1]],
        [[T, 0], [0, T**-1]], [[0, -2], [1, 0]], [[T, 1], [0, half]],
    )
    yield from (matrix_rep_from_images(2, [Matrix(m)]) for m in images)
    yield from (permutation_rep(2), as_formal(burau_reduced(2)), as_formal(scalar_char(2, 2)), cyclic_rep(3, -8))


BOX_REPS = list(box_reps())
box_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def box_params(draw, rep):
    """Random params, or params planted so that hits are likely: tau_1 ->
    sigma_1^+-1, tau_1 -> c * 1 for a power c of a small base, or, on a
    scalar character d, c = d^k - a*d - b*d^-1."""
    kind = draw(st.sampled_from(["random", "sigma", "scalar", "planted"]))
    if kind == "sigma":
        return PhiParams.of(*draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)])))
    if kind == "scalar":
        base = draw(st.sampled_from([Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3, 2)]))
        c = scalar(base ** draw(st.integers(-3, 3))) * T ** draw(st.sampled_from([0, 0, 1, -1, 2]))
        return PhiParams.of(0, 0, c)
    a, b, c = (scalar(draw(box_rationals)) for _ in range(3))
    if kind == "planted" and rep.backend == "matrix" and rep.image(1).dim == 1:
        (d,), = rep.image(1).rows
        c = d ** draw(st.integers(-2, 2)) - a * d - b * d**-1
    return PhiParams.of(a, b, c)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rep=st.sampled_from(BOX_REPS), p_max=st.integers(0, 7), q_max=st.integers(0, 13))
def test_kernel_search_box_holds_every_hit(data, rep, p_max, q_max):
    # The grid equals the cell-by-cell grid, and the box of `_grid_box`
    # holds every reference hit and every cell that the character passes.
    # Its rows p >= 1 that hold a cell are exactly the multiples of its
    # step up to p_top.  Where delta != +-1 the box is the smallest that
    # holds those cells.
    params = data.draw(box_params(rep))
    expected = grid_reference(rep, params, p_max, q_max)
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == expected
    x, delta = algebra._character(Extension(rep, params).letters[tau(1)])[0], rep._delta[0]
    step, p_top, q_lo, q_hi = analysis._grid_box(x, delta, p_max, q_max)
    cells = [
        (p, q) for p in range(p_max + 1) for q in range(-q_max, q_max + 1) if (p, q) != (0, 0) and x**p * delta**q == 1
    ]
    assert set(expected) <= set(cells)
    assert sorted({p for p, _ in cells if p}) == list(range(step, p_top + 1, step))
    assert all(p <= p_top and q_lo <= q <= q_hi for p, q in cells)
    if delta != 1 and delta != -1:
        qs = [0, *(q for _, q in cells)]
        assert (p_top, q_lo, q_hi) == (max([p for p, _ in cells], default=0), min(qs), max(qs))


def test_grid_box_closed_forms(monkeypatch):
    # (step, p_top, q_lo, q_hi) from the lattice of cells x^p delta^q = 1
    box = analysis._grid_box
    cases = [
        ((T, T), (1, 6, -6, 0)),  # (1, -1)
        ((T, -T**-2), (4, 4, 0, 2)),  # (2, 1) gives -1, so (4, 2)
        ((T**2, T**-3), (3, 6, 0, 4)),  # (3, 2)
        ((scalar(Fraction(1, 4)), 8), (3, 6, 0, 4)),  # (3, 2)
        ((8, 4), (2, 6, -9, 0)),  # (2, -3)
        ((4, -8), (3, 6, -4, 0)),  # (3, -2)
        ((6, scalar(Fraction(2, 3))), (1, 0, 0, 0)),  # |num| * den agree, sizes do not
        ((scalar(Fraction(41, 30)), 2), (1, 0, 0, 0)),
        ((-1, 2), (2, 6, 0, 0)),  # (2, 0)
        ((1, T), (1, 6, 0, 0)),  # (1, 0)
        ((T + 1, T), (1, 0, 0, 0)),  # no unit
        ((0, 2), (1, 0, 0, 0)),
        ((-1, 1), (2, 6, -12, 12)),  # only even rows, and 6 is even
        ((2, -1), (1, 0, -12, 12)),  # row 0 only
        ((-1, -1), (1, 6, -12, 12)),
    ]
    for (x, delta), expected in cases:
        assert box(as_scalar(x), as_scalar(delta), 6, 12) == expected, (x, delta)
    assert box(as_scalar(-1), as_scalar(1), 5, 12) == (2, 4, -12, 12)
    # an odd row of x = -1 against delta = -1 needs an odd q
    assert box(as_scalar(-1), as_scalar(-1), 5, 0) == (2, 4, 0, 0)
    # (2, 1) doubled is (4, 2): past p_max = 3
    assert box(T, -T**-2, 3, 12) == (4, 0, 0, 0)
    # the solve is exact at any bound: no pass over the rows
    half, two = scalar(Fraction(1, 2)), as_scalar(2)
    assert box(half, two, 10**18, 10**18) == (1, 10**18, 0, 10**18)
    assert box(half, two, 10**5, 10**5) == (1, 10**5, 0, 10**5)
    assert box(scalar(Fraction(41, 30)), two, 10**18, 10**18) == (1, 0, 0, 0)
    # 12 = 2^2 3 and 24 = 2^3 3 are no powers of one integer
    assert box(as_scalar(12), as_scalar(24), 10**5, 10**5) == (1, 0, 0, 0)
    # (10^-300)^7 * (10^7)^300 = 1, and |q| <= 10^5 allows 333 multiples
    assert box(scalar(Fraction(1, 10**300)), as_scalar(10**7), 10**5, 10**5) == (7, 2331, 0, 99900)
    # n_x = 1 has one bit, and n_d**0 = 1 too: the cell (2, 0) of x = -1
    # stays at q_max = 0
    assert box(as_scalar(-1), two, 6, 0) == (2, 6, 0, 0)
    # a passing cell has n_x <= n_d**q_max, so a 50003-bit n_x against
    # n_d = 2 and q_max = 12 has none, decided before the exponent solve
    def no_solve(*args):
        raise AssertionError("_common_power called")

    monkeypatch.setattr(analysis, "_common_power", no_solve)
    assert box(5 * half**50000, two, 6, 12) == (1, 0, 0, 0)


def test_common_power_matches_brute_force():
    # Exhaustive for small m and n: every coprime (p, j) with m**p == n**j
    # has p, j <= log2(300) < 9, and there is at most one.
    for m in range(1, 300):
        for n in range(2, 80):
            sols = {(p, j) for p in range(1, 10) for j in range(10) if gcd(p, j) == 1 and m**p == n**j}
            assert sols == ({found} if (found := analysis._common_power(m, n)) else set()), (m, n)
    assert analysis._common_power(2**60 * 3**120, 2**45 * 3**90) == (3, 4)
    assert analysis._common_power(10**300, 10**7) == (7, 300)
    assert analysis._common_power(10**300 + 1, 10**7) is None


@settings(max_examples=200, deadline=None)
@given(g=st.integers(2, 10**6), a=st.integers(0, 60), b=st.integers(1, 60), extra=st.sampled_from((2, 3, 5, 7, 11)))
def test_common_power_of_common_base_powers(g, a, b, extra):
    # m = g^a and n = g^b share every relation (p, j) = (b, a) / gcd(a, b),
    # whatever g is; a prime factor of m that n lacks leaves none.
    d = gcd(a, b)
    assert analysis._common_power(g**a, g**b) == (b // d, a // d)
    if g % extra:
        assert analysis._common_power(g**a * extra, g**b) is None


def test_kernel_search_makes_no_product_outside_its_box(monkeypatch):
    # scalar:2 at (1, 0, 0) sends tau_1 to 2, so its hits are (p, -p): the
    # box is (6, -6, 0), and the grid makes 5 head products and 5 products
    # of sigma_1^k, where the whole grid makes (6 - 1) + 2 * (12 - 1) = 27.
    # X^3 = -8 at (1, 0, 0) has the norm -8 for tau_1 and for sigma_1, so
    # its box is (6, -6, 0) too.
    calls = spy_products(monkeypatch)
    report = kernel_search_sm2(scalar_char(2, 2), PhiParams.of(1, 0, 0), 6, 12)
    assert report.hits == tuple((p, -p) for p in range(1, 7))
    assert calls["keys"] == 1 and calls["product"] == 10
    calls.clear()
    report = kernel_search_sm2(cyclic_rep(3, -8), PhiParams.of(1, 0, 0), 6, 12)
    assert report.hits == tuple((p, -p) for p in range(1, 7))
    assert calls["keys"] == 1 and calls["product"] == 10


def test_kernel_search_dense_grid_in_hit_order():
    # tau -> sigma -> 1: every cell but (0, 0) is a hit
    rep, params = scalar_char(1, 2), PhiParams.of(1, 0, 0)
    assert kernel_search_sm2(rep, params, 1, 2).hits == (
        (0, 1), (0, -1), (0, 2), (0, -2),
        (1, 0), (1, 1), (1, -1), (1, 2), (1, -2),
    )
    report = kernel_search_sm2(rep, params, 6, 12)
    expected = [(p, sq) for p in range(7) for q in range(13) for sq in ((q, -q) if q else (0,)) if (p, sq) != (0, 0)]
    assert report.hits == tuple(expected)
    assert report.minimal_generator == (1, 0)
    assert report.cyclic_structure_verified is False


def test_kernel_search_repeated_heads():
    # tau -> sigma has order 2 in S_2: rows 0, 2, 4 share a head, as do 1, 3
    assert kernel_search_sm2(permutation_rep(2), PhiParams.of(1, 0, 0), 4, 2).hits == (
        (0, 2), (0, -2),
        (1, 1), (1, -1),
        (2, 0), (2, 2), (2, -2),
        (3, 1), (3, -1),
        (4, 0), (4, 2), (4, -2),
    )


def test_verify_cyclic_structure():
    ok = KernelReport(6, 12, ((1, -2), (2, -4), (3, -6)), (1, -2), None)
    assert verify_cyclic_structure(ok)
    ok2 = KernelReport(6, 12, ((2, 0), (4, 0)), (2, 0), None)
    assert verify_cyclic_structure(ok2)
    bad = KernelReport(6, 12, ((2, 0), (3, 0)), (2, 0), None)
    assert not verify_cyclic_structure(bad)
    with pytest.raises(ValueError):
        verify_cyclic_structure(KernelReport(6, 12, (), None, None))


def test_nonscalar_power_check():
    assert nonscalar_power_check(burau_unreduced(2), 8)
    from smbraid.reps import matrix_rep_from_images

    rep = matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])])
    assert not nonscalar_power_check(rep, 2)
    ident = matrix_rep_from_images(2, [Matrix.identity(2)])
    assert not nonscalar_power_check(ident, 1)
    with pytest.raises(ValueError):
        nonscalar_power_check(permutation_rep(2), 2)
    with pytest.raises(ValueError, match="bounds must be nonnegative"):
        nonscalar_power_check(burau_unreduced(2), -3)


def test_scalar_kernel_criterion_examples():
    assert scalar_kernel_criterion(PhiParams.of(2, 0, 0), 2, 6, 12) == (1, -2)
    assert scalar_kernel_criterion(PhiParams.of(1, 0, -3), 2, 6, 12) == (2, 0)
    assert scalar_kernel_criterion(PhiParams.of(1, -1, 0), -T, 6, 12) is None


def test_scalar_kernel_hits_reject_negative_bounds():
    for p_max, q_max in ((2, -1), (-1, 5), (-1, -1)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            scalar_kernel_hits(PhiParams.of(2, 0, 0), 2, p_max, q_max)
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            scalar_kernel_criterion(PhiParams.of(2, 0, 0), 2, p_max, q_max)


def test_scalar_criterion_agrees_with_kernel_search():
    rng = random.Random(43)
    ds = [2, scalar(Fraction(1, 2)), -1, scalar(Fraction(-3, 2))]
    for _ in range(6):
        params = PhiParams.of(
            rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        )
        for d in ds:
            hits = scalar_kernel_hits(params, d, 4, 6)
            report = kernel_search_sm2(scalar_char(d, 2), params, 4, 6)
            assert hits == tuple(h for h in report.hits if h[0] >= 1)
            assert scalar_kernel_criterion(params, d, 4, 6) == report.minimal_generator


def test_scalar_kernel_hits_match_per_cell_expansion():
    rng = random.Random(53)
    triples = [PhiParams.of(2, 0, 0), PhiParams.of(1, 0, -3)] + [
        PhiParams.of(*(scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(3))) for _ in range(4)
    ]
    for params in triples:
        for d in (2, scalar(Fraction(1, 2)), -1, -T):
            expected = tuple(
                (p, q) for p in range(1, 4) for q in range(-6, 7) if tau_power_expand(params, d, p, q) == 1
            )
            assert scalar_kernel_hits(params, d, 3, 6) == tuple(sorted(expected, key=analysis._hit_order))


# --- matrix vs cyclic comparison -------------------------------------------------------


def test_compare_backends_identity_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, -2, PhiParams.of(1, 2, 1), 5, 6)
    assert equal
    assert mr.minimal_generator == (1, 0) and cr.minimal_generator == (1, 0)


def test_compare_backends_empty_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, -2, PhiParams.of(1, -1, 0), 5, 6)
    assert equal and mr.hits == () and cr.hits == ()


def test_compare_backends_pure_c_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, -2, PhiParams.of(0, 0, 1), 5, 6)
    assert equal and (1, 0) in mr.hits


def test_compare_backends_validates_hypotheses():
    m = Matrix([[0, -2], [1, 0]])
    with pytest.raises(ValueError):
        compare_matrix_cyclic_kernels(m, 2, 5, PhiParams.of(1, 0, 0), 3, 3)
    with pytest.raises(ValueError):
        compare_matrix_cyclic_kernels(Matrix.identity(2).scale(2), 1, 2, PhiParams.of(1, 0, 0), 3, 3)
    with pytest.raises(ValueError):
        # s not minimal: m^2 = -2 I already scalar, so s = 4 must be rejected
        compare_matrix_cyclic_kernels(m, 4, 4, PhiParams.of(1, 0, 0), 3, 3)


def test_compare_backends_checks_a_huge_s_in_log_s_products(monkeypatch):
    # The walk m, m^2, ... stops at the first scalar power, and a 2x2 m has
    # none past m^6, so a 2x2 input is decided in at most 5 products
    # whatever s is: a shear or a hyperbolic m fails at s = 10**6 or 10**7
    # as m**s != d_s * identity, a rotation of order 4 stops at m**2, and
    # [[0, -2], [1, 0]], whose square is -2 * 1, stops there at s = 4 with
    # the wrong d_s and at s = 10**9.
    products = Counter()
    mul = Matrix.__mul__

    def counted(x, y):
        products["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    params = PhiParams.of(1, 0, 0)
    cases = [
        ([[1, 1], [0, 1]], 10**6, 1, r"^m\*\*1000000 != d_s \* identity$", 5),
        ([[2, 1], [1, 1]], 10**7, 1, r"^m\*\*10000000 != d_s \* identity$", 5),
        ([[0, -1], [1, 0]], 10**6, 1, r"^m\*\*2 is already scalar; s=1000000 is not minimal$", 1),
        ([[0, -2], [1, 0]], 4, 5, r"^m\*\*2 is already scalar; s=4 is not minimal$", 1),
        ([[0, -2], [1, 0]], 10**9, 4, r"^m\*\*2 is already scalar; s=1000000000 is not minimal$", 1),
    ]
    for rows, s, d_s, message, most in cases:
        products.clear()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            compare_matrix_cyclic_kernels(Matrix(rows), s, d_s, params, 3, 3)
        assert time.perf_counter() - start < 0.5, (rows, s)
        assert products["mul"] <= most, (rows, s, products["mul"])


def test_compare_backends_checks_m_s_first_past_m6_for_a_larger_m(monkeypatch):
    # The companion matrix of X^7 - 2 has m^7 = 2 * 1 and no earlier scalar
    # power, which no 2x2 m can have, so past m^6 the walk checks m**s by
    # square-and-multiply first: s = 7 passes both checks and compares the
    # backends, s = 14 fails the ladder at d_s = 3 and the walk at
    # d_s = 4, and s = 10**6 fails the ladder at once.  A 3x3 m with no
    # scalar power and s <= 6 fails when the walk reaches m**s, and the
    # 3-cycle reaches 1 * 1 at m**3 whatever s is.
    products = Counter()
    mul = Matrix.__mul__

    def counted(x, y):
        products["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    companion = Matrix([[2 if (i, j) == (0, 6) else int(i == j + 1) for j in range(7)] for i in range(7)])
    assert companion.inverse() * companion == Matrix.identity(7)
    params = PhiParams.of(1, 0, 0)
    products.clear()
    mr, cr, equal = compare_matrix_cyclic_kernels(companion, 7, 2, params, 2, 3)
    assert equal and mr.hits == cr.hits == ((1, -1), (2, -2))
    cases = [
        (companion, 14, 3, r"^m\*\*14 != d_s \* identity$"),
        (companion, 14, 4, r"^m\*\*7 is already scalar; s=14 is not minimal$"),
        (companion, 10**6, 2, r"^m\*\*1000000 != d_s \* identity$"),
        (Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), 5, 1, r"^m\*\*5 != d_s \* identity$"),
        (Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 10**9, 1, r"^m\*\*3 is already scalar; s=1000000000 is not minimal$"),
    ]
    for m, s, d_s, message in cases:
        products.clear()
        with pytest.raises(ValueError, match=message):
            compare_matrix_cyclic_kernels(m, s, d_s, params, 3, 3)
        assert products["mul"] <= 13 + 2 * s.bit_length(), (s, d_s, products["mul"])


def test_compare_backends_rejects_s_below_1():
    with pytest.raises(ValueError, match="^need s >= 1$"):
        compare_matrix_cyclic_kernels(Matrix([[0, -2], [1, 0]]), 0, -2, PhiParams.of(1, 0, 0), 3, 3)


# --- conjugation closure ------------------------------------------------------------------


def test_conjugation_keeps_kernel_scalar_char():
    rng = random.Random(47)
    rep = scalar_char(2, 3)
    params = PhiParams.of(2, 0, 0)
    v = parse_word("t1 S1 S1", 3)
    conjugators = [random_braid_word(rng, 3, 6) for _ in range(50)]
    assert conjugation_kernel_check(rep, params, v, conjugators)
    assert conjugation_kernel_check(rep, params, v, [SMWord(3)])


def test_conjugation_check_rejects_non_kernel_word():
    rep = scalar_char(2, 3)
    params = PhiParams.of(2, 0, 0)
    assert rep_eval(Extension(rep, params), parse_word("t1", 3)) == rep.one().scale(4)
    with pytest.raises(ValueError):
        conjugation_kernel_check(rep, params, parse_word("t1", 3), [SMWord(3)])


# --- SM_3 oracle -------------------------------------------------------------------------


def test_sm3_oracle_validates_defining_relations():
    for inst in defining_relations(3):
        assert sm3_word_equality(inst.lhs, inst.rhs)


def test_sm3_oracle_separates_invariant_distinguished_pairs():
    pairs = [
        ("t1", "s1"),
        ("t1", ""),
        ("s1", "s2"),
        ("s1 s1", "s1"),
        ("t1 s1", "t1"),
        ("t2", "t1 t1"),
        ("x", "X"),
        ("s1 s2", "s2 s1"),
    ]
    for a, b in pairs:
        w1, w2 = parse_word(a, 3), parse_word(b, 3)
        assert distinctness_certificate(w1, w2) is not None
        assert not sm3_word_equality(w1, w2)


def test_sm3_oracle_equal_after_rewriting():
    w = parse_word("t2 s1", 3)
    from smbraid.words import decompose_tau_blocks

    assert sm3_word_equality(w, decompose_tau_blocks(w).assemble())


def test_sm3_oracle_rejects_other_n():
    with pytest.raises(ValueError):
        sm3_word_equality(parse_word("t1", 2), parse_word("t1", 2))


def test_sm3_oracle_confirms_rewrites_on_random_words():
    from conftest import random_sm_word
    from smbraid.words import decompose_tau_blocks

    rng = random.Random(53)
    for _ in range(10):
        w = random_sm_word(rng, 3, 5)
        assert sm3_word_equality(w, decompose_tau_blocks(w).assemble())
        assert sm3_word_equality(w, decompose_tau_blocks(w).shape(2, -1).assemble())


def test_sm3_oracle_sends_tau_to_sigma_minus_its_inverse():
    # the cited theorem (Paris) is about tau_i -> sigma_i - sigma_i^-1 alone
    letters = analysis._SL2Z_LETTERS
    for i in (1, 2):
        s, s_inv = letters[sigma(i)], letters[sigma_inv(i)]
        assert analysis._sm3_image(parse_word(f"s{i}", 3)) == {s: 1}
        assert analysis._sm3_image(parse_word(f"S{i}", 3)) == {s_inv: 1}
        assert analysis._sm3_image(parse_word(f"t{i}", 3)) == {s: 1, s_inv: -1}


def test_sm3_oracle_coefficients_leave_plus_minus_one():
    # (s1 - S1)^2 = s1^2 - 2 + S1^2
    square = {(1, 2, 0, 1, 2): 1, (1, 0, 0, 1, 0): -2, (1, -2, 0, 1, -2): 1}
    assert analysis._sm3_image(parse_word("t1 t1", 3)) == square
    assert analysis._sm3_image(SMWord(3)) == {(1, 0, 0, 1, 0): 1}


# The reduced Burau route to SM_3 equality: Phi_{1,-1,0} into the group algebra
# of the reduced Burau matrix group, which is B_3 itself (faithful for n = 3).
BURAU_SM3 = Extension(as_formal(burau_reduced(3)), PhiParams.of(1, -1, 0))
SM3_LETTERS = (*braid_letters(3), tau(1), tau(2))
SM3_RELATIONS = tuple(defining_relations(3))


def sm3_words(max_len: int):
    return st.lists(st.sampled_from(SM3_LETTERS), max_size=max_len).map(lambda ls: SMWord(3, tuple(ls)))


@st.composite
def sm3_pairs(draw):
    """(w1, w2, known_equal): two random words, or two words equal in SM_3
    (a relation spliced into a context, or a block or shape rewrite)."""
    kind = draw(st.sampled_from(("random", "relation", "blocks", "shape")))
    if kind == "random":
        return draw(sm3_words(8)), draw(sm3_words(8)), False
    if kind == "relation":
        inst = draw(st.sampled_from(SM3_RELATIONS))
        left, right = draw(sm3_words(2)), draw(sm3_words(3))
        return left * inst.lhs * right, left * inst.rhs * right, True
    w = draw(sm3_words(8))
    if kind == "blocks":
        return w, decompose_tau_blocks(w).assemble(), True
    p, q = draw(st.integers(1, 3)), draw(st.integers(-2, 2))
    return w, decompose_tau_blocks(w).shape(p, q).assemble(), True


@settings(max_examples=60, deadline=None)
@given(sm3_pairs())
def test_sm3_oracle_matches_reduced_burau_route(pair):
    w1, w2, known_equal = pair
    assume(tau_count(w1) <= 4 and tau_count(w2) <= 4)
    equal = sm3_word_equality(w1, w2)
    assert equal == (rep_eval(BURAU_SM3, w1) == rep_eval(BURAU_SM3, w2))
    assert equal or not known_equal


def _wordeq3_tokens(rng: random.Random, length: int, taus: int) -> list[str]:
    """`length` tokens, `taus` of them tau letters, the others sigma letters
    of either sign or the twist tokens x and X, which expand to two letters."""
    kinds = ["t"] * taus + ["s"] * (length - taus)
    rng.shuffle(kinds)
    return [f"t{rng.randint(1, 2)}" if k == "t" else rng.choice(("s1", "s2", "S1", "S2", "x", "X")) for k in kinds]


def test_sm3_oracle_matches_reduced_burau_route_on_wordeq3_shaped_pairs():
    # The shape of the wordeq3 queries: 6-9 tokens with three tau letters.
    # Every other pair is equal in SM_3 by a relation spliced into a context.
    rng = random.Random(31)
    for k in range(200):
        if k % 2:
            w1, w2 = (parse_word(" ".join(_wordeq3_tokens(rng, rng.randint(6, 9), 3)), 3) for _ in range(2))
        else:
            inst = rng.choice(SM3_RELATIONS)
            context = _wordeq3_tokens(rng, rng.randint(6, 9) - len(inst.lhs), 3 - tau_count(inst.lhs))
            cut = rng.randint(0, len(context))
            u, v = parse_word(" ".join(context[:cut]), 3), parse_word(" ".join(context[cut:]), 3)
            w1, w2 = u * inst.lhs * v, u * inst.rhs * v
        equal = sm3_word_equality(w1, w2)
        assert equal == (rep_eval(BURAU_SM3, w1) == rep_eval(BURAU_SM3, w2))
        assert equal or k % 2
        assert tau_count(w1) == 3


# --- input checks ------------------------------------------------------------------

BAD_INPUT_CASES = [
    ("certificate-mixed-n", lambda: distinctness_certificate(SMWord(2), SMWord(3)),
     "strand counts differ: 2 vs 3"),
    ("witness-search-non-unit", lambda: find_scalar_witness(scalar_char(2, 2), 0, 1, 1),
     "need a unit, got 0"),
    ("power-witness-non-unit",
     lambda: scalar_power_witness(scalar_char(2, 2), "a00", 0, sigma_power(2, 1, -1), 1),
     "need a unit, got 0"),
    ("grid-negative-p", lambda: kernel_search_sm2(scalar_char(2, 2), PhiParams.of(2, 0, 0), -1, 0),
     "bounds must be nonnegative"),
    ("grid-negative-q", lambda: kernel_search_sm2(scalar_char(2, 2), PhiParams.of(2, 0, 0), 0, -1),
     "bounds must be nonnegative"),
    # p_max = 0: no row is expanded, so only the function's own check can fire
    ("scalar-hits-non-unit", lambda: scalar_kernel_hits(PhiParams.of(2, 0, 0), 0, 0, 1),
     "need a unit d, got 0"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_is_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_verify_cyclic_structure_rejects_q_off_the_line():
    # p = 2 is twice the generator's p, but q = -3 is not twice its q
    assert not verify_cyclic_structure(KernelReport(6, 12, ((1, -2), (2, -3)), (1, -2), None))
