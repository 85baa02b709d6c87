"""Kernel searches, unfaithfulness witnesses, and structure checks."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import enumerate_braid_words, grid_reference, random_braid_word, random_sm_word, scalar
from smbraid import algebra, analysis, reps
from smbraid.algebra import (
    CyclicElement, FormalElement, Matrix, Permutation, _cyclic_keys, _kronecker_keys, _search_keys
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
from smbraid.scalars import MAX_SPAN, T
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
    key, *_ = _kronecker_keys([m, m.inverse()], 1)
    one = Matrix.identity(2)
    keys = [key(one.scale(scalar({0: Fraction(q, 2), 1: Fraction(r, 2)}))) for q in range(-4, 5) for r in (-1, 0, 1) if q or r]
    assert None not in keys and len(set(keys)) == len(keys)


def test_kronecker_keys_take_zero_images_and_products():
    # A zero image and a product that vanishes are keyed like any matrix, and
    # every zero matrix has the one key (0, (0,) * dim**2).
    zero, nil, shear = Matrix([[0, 0], [0, 0]]), Matrix([[0, 3 * T], [0, 0]]), Matrix([[1, 1], [0, 1]])
    images = [zero, nil, shear, Matrix([[scalar(Fraction(1, 2)), 0], [0, 2]])]
    key, scalar_key, steps, product = _kronecker_keys(images, 3)
    assert key(zero) == scalar_key(scalar(0)) == (0, (0, 0, 0, 0))
    for m in (Matrix.identity(2), *images, nil * shear):
        for image, step in zip(images, steps):
            assert product(key(m), step) == key(m * image), (m, image)
    assert product(key(nil), steps[1]) == (0, (0, 0, 0, 0))
    key, *_ = _kronecker_keys([zero], 2)
    assert key(zero) == (0, (0, 0, 0, 0)) and key(Matrix.identity(2)) is not None


def test_cyclic_keys_follow_cyclic_products():
    # Coordinate keys over a rational twist: a step takes the key of x to
    # the key of x times the image for every product x of fewer than c
    # images, zero included, and a target y * 1 is keyed off y.  Under twist
    # 1/2 the coordinate 1/2 wraps to 1/4, so the scale must hold x * twist
    # as well as x.
    for order in (1, 2, 3, 4):
        for twist in (Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(-1)):
            one = CyclicElement.one(order, scalar(twist))
            x, x_inv = (CyclicElement.x_power(order, scalar(twist), k) for k in (1, -1))
            half = x.scale(scalar(Fraction(1, 2)))
            images = [half + x_inv.scale(scalar(Fraction(2, 3))), x, x_inv, one.scale(0)]
            depth = 3
            key, scalar_key, steps, product = _cyclic_keys(one, images, depth)
            assert [len(step) for step in steps] == [len([c for c in m.coords if c]) for m in images]
            held = [one]
            for _ in range(depth):
                for m in held:
                    for image, step in zip(images, steps):
                        assert product(key(m), step) == key(m * image), (order, twist, m, image)
                held = [m * image for m in held for image in images[:3]]
            for y in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-5, 4), Fraction(1, 2 * 3**4 * 2**9)):
                assert scalar_key(scalar(y)) == key(one.scale(scalar(y))), (order, twist, y)
            assert scalar_key(T) is None and key(x.scale(T)) is None


def test_cyclic_keys_take_only_rational_constants():
    # A Laurent twist or a Laurent coordinate leaves the element keys; the
    # steps keep only nonzero coordinates, so an order-500 image X is one
    # triple and the grid stays cheap.
    assert _cyclic_keys(CyclicElement.one(4, T), [CyclicElement.x_power(4, T, 1)], 2) is None
    one = CyclicElement.one(3, scalar(2))
    assert _cyclic_keys(one, [CyclicElement.x_power(3, 2, 1).scale(T)], 2) is None
    one = CyclicElement.one(500, scalar(2))
    images = [CyclicElement.x_power(500, 2, k) for k in (1, -1)]
    key, _, steps, product = _cyclic_keys(one, images, 4)
    assert steps == [[(1, 2, 4)], [(499, 1, 2)]]
    assert product(product(key(one), steps[0]), steps[1]) == key(one)


def test_find_scalar_witness_keys_targets_from_the_scalar():
    # Every kind of key `_search_keys` gives keeps one contract: a target
    # c * 1 is keyed off the scalar, with no element built, and its key is
    # that of the element, None exactly where the element has no key; and a
    # step takes the key of x to the key of x times the letter's image.
    keyed = missing = 0
    for name, rep in WITNESS_REPS.items():
        images = [rep.letters[letter] for letter in braid_letters(rep.n)]
        one = rep.one()
        for depth in (1, 4):
            key, scalar_key, steps, product, bound = _search_keys(one, images, depth)
            for value in WITNESS_VALUES:
                for s in (1, 2, 3, 4, -1, -2, -3, -4):
                    expected = key(one.scale(value**-s))
                    assert scalar_key(value**-s) == expected, (name, depth, value, s)
                    keyed += expected is not None
                    missing += expected is None
            if bound is not None and bound < 3:
                continue  # the keys hold no product of three images
            for x in (one, *images, images[0] * images[-1]):
                for image, step in zip(images, steps):
                    assert product(key(x), step) == key(x * image), (name, depth, x, image)
    assert keyed and missing


def test_find_scalar_witness_sizes_keys_by_the_depth_reached(monkeypatch):
    # Both images have order 2, so the walk ends at depth 2 whatever len_max
    # says; slots and scales sized from len_max would take billions of bits.
    # The constant image is packed at any depth, as its products span one
    # exponent.  Both have determinant -1, so the target -1 * 1 (s = +-1),
    # of determinant 1, is walked for; no image is -1 * 1.
    kinds = spy_key_kinds(monkeypatch)
    for m in (Matrix([[1, -2 * T], [0, -1]]), Matrix([[1, -2], [0, -1]])):
        rep = matrix_rep_from_images(2, [m])
        kinds.clear()
        start = time.perf_counter()
        assert find_scalar_witness(rep, -1, 1, 10**9) is None
        assert time.perf_counter() - start < 0.5
        assert kinds == ["kronecker"], m


def test_find_scalar_witness_restarts_past_the_first_depth():
    # s1^9 = 2^9 * 1 lies past the first depth (8), so the walk must restart deeper.
    rep = matrix_rep_from_images(2, [Matrix([[2]])])
    assert find_scalar_witness(rep, scalar(Fraction(1, 2**9)), 1, 8) is None
    assert find_scalar_witness(rep, scalar(Fraction(1, 2**9)), 1, 9) == (sigma_power(2, 1, 9), 1)


@pytest.mark.parametrize("name", [name for name, rep in WITNESS_REPS.items() if rep.backend == "matrix"])
def test_find_scalar_witness_drops_only_targets_no_determinant_reaches(name):
    # det rho(v) = delta**e(v) with |e(v)| <= len(v), for delta = det
    # rho(sigma_1), so a matrix rep may drop the exponent s only where no
    # such power is the determinant of value**-s * 1.  Each verdict of the
    # closed form is checked against that definition, looped over e; every
    # s of an enumerated hit must be kept; and the search must still return
    # the enumeration's (v, s).  Values are +-2^j t^k.
    rng = random.Random(35)
    rep = WITNESS_REPS[name]
    one, delta = rep.one(), rep.image(1).det()
    all_states = enumerated_witness_states(rep, 6)
    hits = 0
    for len_max in (0, 1, 2, 4, 6):
        states = [(v, img) for v, img in all_states if len(v) <= len_max]
        values = [scalar(-1), T**-1, T**3, scalar(Fraction(1, 2))]
        values += [rng.choice((-1, 1)) * scalar(Fraction(2) ** rng.randint(-3, 3)) * T ** rng.randint(-3, 3) for _ in range(8)]
        for value in values:
            expected = enumerated_witness(states, rep, value, 4)
            assert find_scalar_witness(rep, value, 4, len_max) == expected, (len_max, value)
            for s in (1, 2, 3, 4, -1, -2, -3, -4):
                target = value ** (-s * one.dim)
                kept = analysis._det_reachable(delta, target, len_max)
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
    # each verdict is one candidate exponent and one power, not a loop over
    # every |e| <= len_max, so a bound of 10**9 costs nothing.
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


@pytest.mark.parametrize("name", RESTART_VALUES)
def test_find_scalar_witness_matches_enumeration_past_a_restart(name, monkeypatch):
    # Kronecker and cyclic coordinate keys are first sized for depth 8; a
    # longer walk restarts with keys for a deeper one, and must still keep
    # the enumeration's words.
    rep = WITNESS_REPS[name]
    kind = "cyclic" if rep.backend == "cyclic" else "kronecker"
    kinds = spy_key_kinds(monkeypatch)
    for len_max in (9, 12, 17):
        states = enumerated_witness_states(rep, len_max)
        for value in RESTART_VALUES[name]:
            kinds.clear()
            expected = enumerated_witness(states, rep, value, 4)
            assert find_scalar_witness(rep, value, 4, len_max) == expected, (len_max, value)
            assert kinds[0] == kind and len(kinds) > 1, (len_max, value)


def test_find_scalar_witness_keeps_the_matrix_span_limit():
    # Products of this image span more exponents than a LaurentPoly may, so the
    # walk multiplies matrices and raises as their product does.  The target
    # -1 * 1 has determinant 1, that of the empty word, so the walk runs.
    rep = matrix_rep_from_images(2, [Matrix([[T ** (MAX_SPAN // 2 + 1), 1], [0, 1]])])
    with pytest.raises(ValueError, match="spans"):
        find_scalar_witness(rep, -1, 1, 3)


def count_search_work(monkeypatch, mul_budget):
    """Count `FormalElement` products ("mul"), group products of permutations
    ("group_mul", the steps of a walk on group keys, and also the products
    inside a formal one) and `rep_eval` calls; a product of either kind past
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


def test_find_scalar_witness_multiplies_once_per_new_image(monkeypatch):
    # S_4 has 24 elements and each kept image is extended by at most 6 letters.
    # The walk keys each image by its permutation, so every product is a
    # group product and no formal element is multiplied.  Under value -1 the
    # target 1 * 1 (s = 2) has the identity's key, so the walk runs and finds
    # the empty word.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 24 * 6)
    assert find_scalar_witness(rep, -1, 4, 6) == (SMWord(4), 2)
    assert 0 < calls["group_mul"] <= 24 * 6
    assert calls["mul"] == 0
    assert calls["rep_eval"] == 0


def test_find_scalar_witness_with_no_keyed_target_walks_nothing(monkeypatch):
    # A permutation image has coefficient 1, so under value 2 no target
    # 2**-s * 1 has a group key and no product is worth making.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    assert find_scalar_witness(rep, 2, 4, 6) is None
    assert find_scalar_witness(rep, scalar(Fraction(3, 2)), 4, 10**6) is None
    assert calls["mul"] == calls["group_mul"] == 0


def test_find_scalar_witness_without_exponents_walks_nothing(monkeypatch):
    # s_max == 0 leaves no exponent to try, so no image is worth building.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    assert find_scalar_witness(rep, 2, 0, 6) is None
    assert calls["mul"] == calls["group_mul"] == 0


def test_find_scalar_witness_stops_when_images_are_exhausted(monkeypatch):
    # Once a level adds no new image the walk ends, whatever len_max says.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 24 * 6)
    assert find_scalar_witness(rep, -1, 4, 10**6) == (SMWord(4), 2)
    assert 0 < calls["group_mul"] <= 24 * 6


def key_kind(keys, x):
    """Which kind of key `_search_keys` returned: keys of any depth read off
    the key of x, bounded ones off the backend of x."""
    key, *_, bound = keys
    if bound is None:
        return "element" if key(x) is x else "group"
    return "cyclic" if isinstance(x, CyclicElement) else "kronecker"


def spy_key_kinds(monkeypatch):
    """Record the kind of every key set that `analysis._search_keys` hands out."""
    kinds = []

    def spy(one, images, *args):
        keys = _search_keys(one, images, *args)
        kinds.append(key_kind(keys, images[0]))
        return keys

    monkeypatch.setattr(analysis, "_search_keys", spy)
    return kinds


def test_find_scalar_witness_keys_only_unit_coefficient_letters_by_group(monkeypatch):
    # Group keys for formal letters that are each 1 * g, a permutation or a
    # matrix; element keys for scaled formal letters and a cyclic rep with a
    # Laurent twist; cyclic coordinate keys for a cyclic rep with a rational
    # twist; and Kronecker keys, never group keys, for a matrix rep.
    # The matrix rep takes values whose targets some word's determinant
    # reaches (det rho(sigma_1) = -t), so that it walks.
    kinds = spy_key_kinds(monkeypatch)
    units = (scalar(Fraction(1, 2)), scalar(-1), T)
    cases = [
        (permutation_rep(4), ["group"], units),
        (as_formal(burau_reduced(3)), ["group"], units),
        (scaled_permutation_rep(3, scalar(2)), ["element"], units),
        (scaled_permutation_rep(3, scalar(1)), ["group"], units),
        (burau_reduced(3), ["kronecker"], (-T**-1, scalar(-1), T)),
        (cyclic_rep(3, -1, 3), ["cyclic"], units),
        (cyclic_rep(2, scalar(Fraction(1, 2)), 3), ["cyclic"], units),
        (cyclic_rep(2, 2 * T**-1, 3), ["element"], units),
    ]
    for rep, expected, values in cases:
        states = enumerated_witness_states(rep, 3)
        for value in values:
            kinds.clear()
            assert find_scalar_witness(rep, value, 4, 3) == enumerated_witness(states, rep, value, 4), (rep.name, value)
            assert kinds == expected, (rep.name, value)


def test_group_keys_follow_formal_products():
    # The key of 1 * g is g, a step multiplies it by the letter's element,
    # and the target c * 1 is the identity's key exactly when c == 1.
    for rep in (permutation_rep(3), as_formal(burau_reduced(3))):
        images = list(rep.letters.values())
        one = rep.one()
        key, target, steps, product, bound = _search_keys(one, images, 2)
        assert bound is None
        assert key(one) == target(scalar(1)) == one.identity
        assert target(scalar(2)) is None and target(scalar(-1)) is None
        assert key(one.scale(2)) is None and key(images[0] + images[-1]) is None
        for x in (one, *images, images[0] * images[-1]):
            for image, step in zip(images, steps):
                assert product(key(x), step) == key(x * image)
    scaled = scaled_permutation_rep(3, scalar(2))
    images = list(scaled.letters.values())
    assert key_kind(_search_keys(scaled.one(), images, 2), images[0]) == "element"


def test_scalar_power_witness_examples():
    rep = scalar_char(2, 2)
    w = scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -1), 1)
    assert w.w1 == parse_word("t1 S1", 2)
    assert w.w2 == sigma_power(2, 1, 1)
    assert w.image == rep.one().scale(2)

    w = scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, -2), 2)
    assert w.w1 == parse_word("t1 t1 S1 S1", 2)
    assert w.image == rep.one().scale(4)


def test_scalar_power_witness_normalizes_negative_s():
    rep = scalar_char(2, 2)
    # rho(sigma_1) = 2 = 2^-(-1): the (v, s) = (s1, -1) arrangement
    w = scalar_power_witness(rep, "a00", 2, sigma_power(2, 1, 1), -1)
    assert w.w1 == parse_word("t1 S1", 2)


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
    assert _kronecker_keys(images, max(p_max, q_max)) is not None
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
    # cyclic coordinate keys, whose denominators compound with the twist's.
    # (0, 0, 0) sends tau_1 to zero; (1, 0, 0) and (0, 1, 0) plant hits.
    rep, params = cyclic_rep(order, scalar(twist)), PhiParams.of(*(scalar(x) for x in abc))
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == grid_reference(rep, params, p_max, q_max)


def test_kernel_search_packs_matrix_grids_within_the_packed_span(monkeypatch):
    # Kronecker keys for a matrix grid whose depth (here 8) times the widest
    # exponent range of its tau_1, sigma_1 and sigma_1^-1 images is at most
    # PACKED_SPAN, Laurent images included; element keys for a matrix grid
    # past it (range 17: 8 * 17 = 136) and for a cyclic grid with a Laurent
    # twist or tau_1 image; cyclic coordinate keys for a rational cyclic
    # grid; group keys exactly for a formal grid whose three images are each
    # 1 * g.
    packed = []

    def spy(*args):
        keys = _kronecker_keys(*args)
        packed.append(keys is not None)
        return keys

    monkeypatch.setattr(algebra, "_kronecker_keys", spy)
    kinds = spy_key_kinds(monkeypatch)
    perm2, formal_burau2, formal_scalar2 = permutation_rep(2), as_formal(burau_reduced(2)), as_formal(scalar_char(2, 2))
    cases = [
        (matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])]), PhiParams.of(1, 2, 1), "kronecker"),
        (scalar_char(T, 2), PhiParams.of(1, 0, 0), "kronecker"),
        (scalar_char(T, 2), PhiParams.of(0, 0, 0), "kronecker"),
        (scalar_char(T, 2), PhiParams.of(1, 0, 1), "kronecker"),
        (burau_reduced(2), PhiParams.of(1, -1, 0), "kronecker"),
        (burau_unreduced(2), PhiParams.of(1, 0, 0), "kronecker"),
        (burau_unreduced(2), PhiParams.of(T, scalar(Fraction(-1, 2)), 3), "kronecker"),
        (matrix_rep_from_images(2, [Matrix([[T**9, 0], [0, T**-8]])]), PhiParams.of(1, 0, 0), "element"),
        (cyclic_rep(4, T), PhiParams.of(1, 0, 0), "element"),
        (cyclic_rep(3, 2), PhiParams.of(T, 0, 0), "element"),
        (cyclic_rep(3, -8), PhiParams.of(*(scalar(Fraction(*x)) for x in ((1, 2), (-4, 3), (2, 3)))), "cyclic"),
        (cyclic_rep(4, scalar(Fraction(3, 2))), PhiParams.of(1, 0, 0), "cyclic"),
        (cyclic_rep(2, -1), PhiParams.of(0, 0, 0), "cyclic"),
        (perm2, PhiParams.of(1, 0, 0), "group"),
        (perm2, PhiParams.of(0, 1, 0), "group"),
        (perm2, PhiParams.of(0, 0, 1), "group"),
        (perm2, PhiParams.of(2, 0, 0), "element"),
        (formal_burau2, PhiParams.of(1, 0, 0), "group"),
        (formal_scalar2, PhiParams.of(1, 0, 0), "group"),
    ]
    for rep, params, kind in cases:
        packed.clear()
        kinds.clear()
        report = kernel_search_sm2(rep, params, 4, 8)
        assert packed == ([kind == "kronecker"] if rep.backend == "matrix" else []), (rep.name, params.text())
        assert kinds == [kind], (rep.name, params.text())
        assert report.hits == grid_reference(rep, params, 4, 8)


def test_kernel_search_packs_up_to_the_packed_span(monkeypatch):
    # burau_reduced(2) at (1, -1, 0): tau_1 -> -t + t^-1 spans exponents -1..1,
    # so a grid of depth 64 (64 * 2 = PACKED_SPAN) packs and one of depth 65
    # keeps Matrix keys; both agree with the cell-by-cell grid.
    assert algebra.PACKED_SPAN == 128
    kinds = spy_key_kinds(monkeypatch)
    rep, params = burau_reduced(2), PhiParams.of(1, -1, 0)
    for q_max, kind in ((64, "kronecker"), (65, "element")):
        kinds.clear()
        assert kernel_search_sm2(rep, params, 4, q_max).hits == grid_reference(rep, params, 4, q_max)
        assert kinds == [kind], q_max


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
