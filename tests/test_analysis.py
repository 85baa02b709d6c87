"""Kernel searches, unfaithfulness witnesses, and structure checks."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import enumerate_braid_words, random_braid_word, random_sm_word
from smbraid import analysis, reps
from smbraid.algebra import FormalElement, Matrix, _kronecker_keys
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
    shape_form,
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
    assert root_of_unity_order(Fraction(-1)) == 2
    assert root_of_unity_order(Fraction(1)) == 1
    assert root_of_unity_order(Fraction(2)) is None
    assert root_of_unity_order(-T) is None
    with pytest.raises(ValueError):
        root_of_unity_order(Fraction(0))


def test_unit_power_witness_a_mode():
    w = unit_power_witness(burau_reduced(3), "a00", Fraction(-1), 2)
    assert w.w1 == tau_power(3, 1, 2)
    assert w.w2 == sigma_power(3, 1, 2)
    assert w.certificate.kind == "tau-count"
    # both images equal rho(sigma_1^2) since (-1)^2 == 1
    from smbraid.reps import rep_eval

    assert w.image == rep_eval(burau_reduced(3), sigma_power(3, 1, 2))


def test_unit_power_witness_b_and_c_modes():
    wb = unit_power_witness(burau_reduced(3), "0b0", Fraction(-1), 2)
    assert wb.w2 == sigma_power(3, 1, -2)
    wc = unit_power_witness(burau_reduced(3), "00c", Fraction(1), 1)
    assert wc.w1 == tau_power(3, 1, 1)
    assert wc.w2 == SMWord(3)
    assert wc.image.is_identity()


def test_unit_power_witness_on_permutation_rep():
    w = unit_power_witness(permutation_rep(3), "a00", Fraction(-1), 2)
    assert w.image.is_identity()


def test_unit_power_witness_reduced_n2_image():
    # (-1)^2 * (-t)^2 == t^2 times the 1x1 identity
    w = unit_power_witness(burau_reduced(2), "a00", Fraction(-1), 2)
    assert w.image == Matrix([[T**2]])


def test_unit_power_witness_trivial_root():
    # a == 1 already collapses tau_1 onto sigma_1
    w = unit_power_witness(scalar_char(5, 2), "a00", Fraction(1), 1)
    assert w.w1 == tau_power(2, 1, 1) and w.w2 == sigma_power(2, 1, 1)


def test_unit_power_witness_rejects_non_root():
    with pytest.raises(ValueError):
        unit_power_witness(burau_reduced(3), "a00", Fraction(2), 2)
    with pytest.raises(ValueError):
        unit_power_witness(burau_reduced(3), "a00", Fraction(-1), 0)


def test_find_scalar_witness_scalar_char():
    hit = find_scalar_witness(scalar_char(2, 2), Fraction(2), 4, 4)
    assert hit is not None
    v, s = hit
    assert v == sigma_power(2, 1, -1) and s == 1


def test_find_scalar_witness_absent_on_burau():
    assert find_scalar_witness(burau_unreduced(2), Fraction(2), 4, 6) is None


def test_find_scalar_witness_absent_on_mismatched_bases():
    # 2^-s never equals a power of 3
    assert find_scalar_witness(scalar_char(3, 2), Fraction(2), 4, 8) is None


def test_find_scalar_witness_rejects_negative_bounds():
    for s_max, len_max in ((-1, 4), (4, -1), (-1, -3)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            find_scalar_witness(scalar_char(2, 2), Fraction(-1), s_max, len_max)


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


WITNESS_REPS = {
    "perm2": permutation_rep(2),
    "perm3": permutation_rep(3),
    "perm4": permutation_rep(4),
    "burau-reduced3": burau_reduced(3),
    "burau-unreduced2": burau_unreduced(2),
    "burau-unreduced3": burau_unreduced(3),
    "burau-reduced3-formal": as_formal(burau_reduced(3)),
    "scalar2-n2": scalar_char(2, 2),
    "scalar2-n3": scalar_char(2, 3),
    "scalar1_2-n3": scalar_char(Fraction(1, 2), 3),
    "scalar-1-n3": scalar_char(-1, 3),
    "scalar-t-n3": scalar_char(-T, 3),
    "cyclic2_2-n2": cyclic_rep(2, 2),
    "cyclic3_-1-n3": cyclic_rep(3, -1, 3),
    "cyclic2_2t^-1-n3": cyclic_rep(2, 2 * T**-1, 3),
    "matrix2x2-n2": matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])]),
    # the inverse has denominator 2 and a t^-1 entry, and the square is -2t * 1
    "matrix2x2-laurent-n2": matrix_rep_from_images(2, [Matrix([[0, -2 * T], [1, 0]])]),
}
# -1/2 t^-1 gives the Laurent matrix rep a hit.  Under that rep at len_max 4,
# the target 8/7 * 1 (value 7/8, s = 1) is not integral over the keys' scale
# 2^4, and truncating it would give the identity's key.
WITNESS_VALUES = (Fraction(2), Fraction(-1), Fraction(1, 2), T, -T, 2 * T**-1, Fraction(-1, 2) * T**-1, Fraction(7, 8))


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
    if name.startswith(("scalar", "cyclic", "matrix")):
        assert found, "grid rows for scalar, cyclic and matrix reps must include hits"


def test_find_scalar_witness_matches_enumeration_on_reduced_burau3():
    # The workload's shape (burau-reduced, n = 3, len_max = 5), at seeded units.
    rng = random.Random(20)
    rep = burau_reduced(3)
    states = enumerated_witness_states(rep, 5)
    values = [Fraction(3, 2), Fraction(2, 3), Fraction(1), Fraction(-1)]
    values += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5)) * T ** rng.randint(-3, 3) for _ in range(6)]
    for value in values:
        assert find_scalar_witness(rep, value, 4, 5) == enumerated_witness(states, rep, value, 4), value


def test_find_scalar_witness_keys_are_injective_up_to_the_bound():
    # Over [[0, -2t], [1, 0]] and its inverse, D = 2 and B = 4, so at depth 1 a
    # key coefficient may reach 4 in magnitude; every (q + r t) / 2 * 1 with
    # |q| <= 4, |r| <= 1 and q + r t != 0 must keep a key of its own.
    m = Matrix([[0, -2 * T], [1, 0]])
    key, *_ = _kronecker_keys([m, m.inverse()], 1)
    one = Matrix.identity(2)
    keys = [key(one.scale(Fraction(q, 2) + Fraction(r, 2) * T)) for q in range(-4, 5) for r in (-1, 0, 1) if q or r]
    assert None not in keys and len(set(keys)) == len(keys)


def test_find_scalar_witness_keys_targets_from_the_scalar():
    # The walk keys each target value**-s * 1 off the scalar's (low, nums, den)
    # triple, with no matrix built; the key must be that of the matrix, and
    # None exactly where the matrix has no key.
    keyed = missing = 0
    for name, rep in WITNESS_REPS.items():
        if rep.backend != "matrix":
            continue
        images = [rep.letters[letter] for letter in braid_letters(rep.n)]
        one = rep.one()
        for depth in (1, 4):
            key, scalar_key, _, _ = _kronecker_keys(images, depth)
            for value in WITNESS_VALUES:
                for s in (1, 2, 3, 4, -1, -2, -3, -4):
                    expected = key(one.scale(value**-s))
                    assert scalar_key(value**-s) == expected, (name, depth, value, s)
                    keyed += expected is not None
                    missing += expected is None
    assert keyed and missing


def test_find_scalar_witness_sizes_keys_by_the_depth_reached():
    # Both images have order 2, so the walk ends at depth 2 whatever len_max
    # says; slots and scales sized from len_max would take billions of bits.
    # The constant image is packed at any depth, as its products span one
    # exponent.
    for m in (Matrix([[1, -2 * T], [0, -1]]), Matrix([[1, -2], [0, -1]])):
        rep = matrix_rep_from_images(2, [m])
        start = time.perf_counter()
        assert find_scalar_witness(rep, 2, 4, 10**9) is None
        assert time.perf_counter() - start < 0.5


def test_find_scalar_witness_restarts_past_the_first_depth():
    # s1^9 = 2^9 * 1 lies past the first depth (8), so the walk must restart deeper.
    rep = matrix_rep_from_images(2, [Matrix([[2]])])
    assert find_scalar_witness(rep, Fraction(1, 2**9), 1, 8) is None
    assert find_scalar_witness(rep, Fraction(1, 2**9), 1, 9) == (sigma_power(2, 1, 9), 1)


def test_find_scalar_witness_keeps_the_matrix_span_limit():
    # Products of this image span more exponents than a LaurentPoly may, so the
    # walk multiplies matrices and raises as their product does.
    rep = matrix_rep_from_images(2, [Matrix([[T ** (MAX_SPAN // 2 + 1), 1], [0, 1]])])
    with pytest.raises(ValueError, match="spans"):
        find_scalar_witness(rep, 2, 1, 3)


def count_search_work(monkeypatch, mul_budget):
    """Count FormalElement products and `rep_eval` calls; a product past the
    budget fails at once instead of running on."""
    calls = Counter()
    mul = FormalElement.__mul__

    def counted_mul(self, other):
        calls["mul"] += 1
        assert calls["mul"] <= mul_budget, f"more than {mul_budget} multiplications"
        return mul(self, other)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(FormalElement, "__mul__", counted_mul)
    for module in (analysis, reps):
        monkeypatch.setattr(module, "rep_eval", counted("rep_eval", module.rep_eval))
    return calls


def test_find_scalar_witness_multiplies_once_per_new_image(monkeypatch):
    # S_4 has 24 elements and each kept image is extended by at most 6 letters.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 24 * 6)
    assert find_scalar_witness(rep, Fraction(2), 4, 6) is None
    assert calls["mul"] <= 24 * 6
    assert calls["rep_eval"] == 0


def test_find_scalar_witness_without_exponents_walks_nothing(monkeypatch):
    # s_max == 0 leaves no exponent to try, so no image is worth building.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 0)
    assert find_scalar_witness(rep, 2, 0, 6) is None
    assert calls["mul"] == 0


def test_find_scalar_witness_stops_when_images_are_exhausted(monkeypatch):
    # Once a level adds no new image the walk ends, whatever len_max says.
    rep = permutation_rep(4)
    calls = count_search_work(monkeypatch, 24 * 6)
    assert find_scalar_witness(rep, Fraction(2), 4, 10**6) is None
    assert calls["mul"] <= 24 * 6


def test_scalar_power_witness_examples():
    rep = scalar_char(2, 2)
    w = scalar_power_witness(rep, "a00", Fraction(2), sigma_power(2, 1, -1), 1)
    assert w.w1 == parse_word("t1 S1", 2)
    assert w.w2 == sigma_power(2, 1, 1)
    assert w.image == rep.one().scale(2)

    w = scalar_power_witness(rep, "a00", Fraction(2), sigma_power(2, 1, -2), 2)
    assert w.w1 == parse_word("t1 t1 S1 S1", 2)
    assert w.image == rep.one().scale(4)


def test_scalar_power_witness_normalizes_negative_s():
    rep = scalar_char(2, 2)
    # rho(sigma_1) = 2 = 2^-(-1): the (v, s) = (s1, -1) arrangement
    w = scalar_power_witness(rep, "a00", Fraction(2), sigma_power(2, 1, 1), -1)
    assert w.w1 == parse_word("t1 S1", 2)


def test_scalar_power_witness_c_mode():
    rep = scalar_char(Fraction(1, 2), 2)
    w = scalar_power_witness(rep, "00c", Fraction(2), sigma_power(2, 1, 1), 1)
    assert w.w1 == parse_word("t1 s1", 2)
    assert w.w2 == SMWord(2)
    assert w.image.is_identity()


def test_scalar_power_witness_rejects_bad_precondition():
    rep = scalar_char(2, 2)
    with pytest.raises(ValueError):
        scalar_power_witness(rep, "a00", Fraction(2), SMWord(2), 1)
    with pytest.raises(ValueError):
        scalar_power_witness(rep, "a00", Fraction(2), sigma_power(2, 1, -1), 0)


def test_witnesses_reject_unknown_mode():
    # the CLI's argparse choices stop a bad mode first, so only the library sees one
    message = r"^mode must be one of \('a00', '0b0', '00c'\), got 'zzz'$"
    with pytest.raises(ValueError, match=message):
        scalar_power_witness(scalar_char(2, 2), "zzz", Fraction(2), sigma_power(2, 1, -1), 1)
    with pytest.raises(ValueError, match=message):
        unit_power_witness(burau_reduced(3), "zzz", Fraction(-1), 2)


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


def grid_reference(rep, params, p_max, q_max):
    """The grid cell by cell, in hit order: each row head tau_1^p times
    sigma_1^q and sigma_1^-q, each cell tested with is_identity()."""
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


GRID_TRIPLES = [
    PhiParams.of(1, 0, 0),
    PhiParams.of(0, 0, 0),
    PhiParams.of(2, 0, 0),
    PhiParams.of(1, 0, -3),
    PhiParams.of(1, -1, 0),
    PhiParams.of(0, 0, 1),
    PhiParams.of(Fraction(1, 2), -1, 2),
]
GRID_BOUNDS = [(0, 0), (0, 5), (4, 0), (4, 8)]


def grid_reps():
    yield from (scalar_char(d, 2) for d in (2, 1, -1, T))
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
    rep, params = scalar_char(d, 2), PhiParams.of(a, b, c)
    expected = grid_reference(rep, params, p_max, q_max)
    assert kernel_search_sm2(rep, params, p_max, q_max).hits == expected
    if k is not None and 1 <= p_max and abs(k) <= q_max:
        assert (1, k) in expected


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
    assert scalar_kernel_criterion(PhiParams.of(2, 0, 0), Fraction(2), 6, 12) == (1, -2)
    assert scalar_kernel_criterion(PhiParams.of(1, 0, -3), Fraction(2), 6, 12) == (2, 0)
    assert scalar_kernel_criterion(PhiParams.of(1, -1, 0), -T, 6, 12) is None


def test_scalar_kernel_hits_reject_negative_bounds():
    for p_max, q_max in ((2, -1), (-1, 5), (-1, -1)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            scalar_kernel_hits(PhiParams.of(2, 0, 0), 2, p_max, q_max)
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            scalar_kernel_criterion(PhiParams.of(2, 0, 0), 2, p_max, q_max)


def test_scalar_criterion_agrees_with_kernel_search():
    rng = random.Random(43)
    ds = [Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-3, 2)]
    for _ in range(6):
        params = PhiParams.of(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        )
        for d in ds:
            hits = scalar_kernel_hits(params, d, 4, 6)
            report = kernel_search_sm2(scalar_char(d, 2), params, 4, 6)
            assert hits == tuple(h for h in report.hits if h[0] >= 1)
            assert scalar_kernel_criterion(params, d, 4, 6) == report.minimal_generator


def test_scalar_kernel_hits_match_per_cell_expansion():
    rng = random.Random(53)
    triples = [PhiParams.of(2, 0, 0), PhiParams.of(1, 0, -3)] + [
        PhiParams.of(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))) for _ in range(4)
    ]
    for params in triples:
        for d in (Fraction(2), Fraction(1, 2), Fraction(-1), -T):
            expected = tuple(
                (p, q) for p in range(1, 4) for q in range(-6, 7) if tau_power_expand(params, d, p, q) == 1
            )
            assert scalar_kernel_hits(params, d, 3, 6) == tuple(sorted(expected, key=analysis._hit_order))


# --- matrix vs cyclic comparison -------------------------------------------------------


def test_compare_backends_identity_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, Fraction(-2), PhiParams.of(1, 2, 1), 5, 6)
    assert equal
    assert mr.minimal_generator == (1, 0) and cr.minimal_generator == (1, 0)


def test_compare_backends_empty_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, Fraction(-2), PhiParams.of(1, -1, 0), 5, 6)
    assert equal and mr.hits == () and cr.hits == ()


def test_compare_backends_pure_c_instance():
    m = Matrix([[0, -2], [1, 0]])
    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, Fraction(-2), PhiParams.of(0, 0, 1), 5, 6)
    assert equal and (1, 0) in mr.hits


def test_compare_backends_validates_hypotheses():
    m = Matrix([[0, -2], [1, 0]])
    with pytest.raises(ValueError):
        compare_matrix_cyclic_kernels(m, 2, Fraction(5), PhiParams.of(1, 0, 0), 3, 3)
    with pytest.raises(ValueError):
        compare_matrix_cyclic_kernels(Matrix.identity(2).scale(2), 1, Fraction(2), PhiParams.of(1, 0, 0), 3, 3)
    with pytest.raises(ValueError):
        # s not minimal: m^2 = -2 I already scalar, so s = 4 must be rejected
        compare_matrix_cyclic_kernels(m, 4, Fraction(4), PhiParams.of(1, 0, 0), 3, 3)


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
    from smbraid.words import decompose_tau_blocks, shape_form

    rng = random.Random(53)
    for _ in range(10):
        w = random_sm_word(rng, 3, 5)
        assert sm3_word_equality(w, decompose_tau_blocks(w).assemble())
        assert sm3_word_equality(w, shape_form(w, 2, -1).assemble())


def test_sm3_oracle_sends_tau_to_sigma_minus_its_inverse():
    # the cited theorem (Paris) is about tau_i -> sigma_i - sigma_i^-1 alone
    ext = analysis._sm3_oracle()
    for i in (1, 2):
        s, s_inv, t = (rep_eval(ext, parse_word(f"{kind}{i}", 3)) for kind in "sSt")
        assert t == s + s_inv.scale(-1)
        assert len(t.coeffs) == 2


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
    return w, shape_form(w, p, q).assemble(), True


@settings(max_examples=60, deadline=None)
@given(sm3_pairs())
def test_sm3_oracle_matches_reduced_burau_route(pair):
    w1, w2, known_equal = pair
    assume(tau_count(w1) <= 4 and tau_count(w2) <= 4)
    equal = sm3_word_equality(w1, w2)
    assert equal == (rep_eval(BURAU_SM3, w1) == rep_eval(BURAU_SM3, w2))
    assert equal or not known_equal


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
