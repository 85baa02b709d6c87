"""Word model: grammar, invariants, normal forms, and rewriting transforms.

Rewrites whose correctness the letters alone cannot show (tau conjugators,
two-generator rewriting, block decompositions) are checked against two
independent image oracles: the strand permutation and unreduced Burau with
random rational parameters.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import enumerate_braid_words, random_braid_word, random_sm_word
from smbraid.phi import Extension, PhiParams
from smbraid.reps import burau_unreduced, permutation_rep, rep_eval
from smbraid.words import (
    ShapeForm,
    _expand_taus,
    SMWord,
    braid_relations,
    conjugate,
    decompose_tau_blocks,
    defining_relations,
    free_reduce,
    parse_word,
    permutation_image,
    sigma,
    sigma_exponent_sum,
    sigma_inv,
    sigma_power,
    sm2_normal_form,
    tau,
    tau_conjugator,
    tau_count,
    tau_power,
    to_s1x_generators,
)


def oracles(n):
    return (
        Extension(permutation_rep(n), PhiParams.of(1, -1, 0)),
        Extension(burau_unreduced(n), PhiParams.of(2, -3, 7)),
    )


def images_equal(w1: SMWord, w2: SMWord) -> bool:
    return all(rep_eval(ext, w1) == rep_eval(ext, w2) for ext in oracles(w1.n))


# --- parsing and serialization -------------------------------------------------


def test_parse_examples():
    assert parse_word("t1 s1", 2).letters == (tau(1), sigma(1))
    assert parse_word("x", 3).letters == (sigma(1), sigma(2))
    assert parse_word("X", 3).letters == (sigma_inv(2), sigma_inv(1))
    with pytest.raises(ValueError):
        parse_word("s3", 3)
    with pytest.raises(ValueError):
        parse_word("y2", 3)
    with pytest.raises(ValueError):
        parse_word("s1", 1)
    # an index is ASCII [1-9][0-9]*: no Unicode digits, no leading zeros, no signs
    for token in ["s\u0661", "s01", "t0", "S+1", "s1.0", "s\u00b2", "t"]:
        with pytest.raises(ValueError, match="unknown token"):
            parse_word(token, 3)


def test_parse_round_trip_never_folds_x():
    w = parse_word("x t1 X", 4)
    assert w.text() == "s1 s2 s3 t1 S3 S2 S1"
    assert parse_word(w.text(), 4) == w


def test_one_word_type_compares_by_letters_and_inverts():
    # a word's value is (n, letters), whichever constructor built it
    w = SMWord(3, (sigma(1), sigma_inv(2)))
    assert w == parse_word("s1 S2", 3)
    assert hash(w) == hash(parse_word("s1 S2", 3))
    assert repr(w) == "SMWord(3, 's1 S2')"
    assert w.is_braid
    assert w.inverse() == parse_word("s2 S1", 3)
    t1 = parse_word("t1", 3)
    assert not t1.is_braid
    with pytest.raises(ValueError, match="tau letters have no inverse"):
        t1.inverse()
    with pytest.raises(ValueError, match="tau letters have no inverse"):
        conjugate(w, parse_word("s2 t1", 3))


def test_letter_inverse():
    assert sigma(2).inverse() == sigma_inv(2)
    with pytest.raises(ValueError):
        tau(1).inverse()


# --- invariants -----------------------------------------------------------------


def test_invariant_examples():
    assert tau_count(parse_word("t1 s1", 2)) == 1
    assert tau_count(SMWord(2)) == 0
    assert sigma_exponent_sum(parse_word("s1 S1", 2)) == 0
    assert sigma_exponent_sum(parse_word("t1 s1 s1", 2)) == 2
    assert permutation_image(parse_word("s1", 2)) == (1, 0)
    assert permutation_image(parse_word("t1 t1", 2)) == (0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_invariants_agree_on_all_relations(n):
    for inst in defining_relations(n):
        assert tau_count(inst.lhs) == tau_count(inst.rhs)
        assert sigma_exponent_sum(inst.lhs) == sigma_exponent_sum(inst.rhs)
        assert permutation_image(inst.lhs) == permutation_image(inst.rhs)


def test_defining_relations_at_n4():
    got = [(i.family, i.name, i.indices, i.lhs.text(), i.rhs.text()) for i in defining_relations(4)]
    assert got == [
        (1, "braid", (1,), "s1 s2 s1", "s2 s1 s2"),
        (1, "braid", (2,), "s2 s3 s2", "s3 s2 s3"),
        (2, "sigma far commutation", (1, 3), "s1 s3", "s3 s1"),
        (3, "tau far commutation", (1, 3), "t1 t3", "t3 t1"),
        (4, "tau-sigma far commutation", (1, 3), "t1 s3", "s3 t1"),
        (4, "tau-sigma far commutation", (3, 1), "t3 s1", "s1 t3"),
        (5, "tau-sigma same-index commutation", (1,), "t1 s1", "s1 t1"),
        (5, "tau-sigma same-index commutation", (2,), "t2 s2", "s2 t2"),
        (5, "tau-sigma same-index commutation", (3,), "t3 s3", "s3 t3"),
        (6, "left slide", (1,), "s1 s2 t1", "t2 s1 s2"),
        (6, "left slide", (2,), "s2 s3 t2", "t3 s2 s3"),
        (7, "right slide", (1,), "s2 s1 t2", "t1 s2 s1"),
        (7, "right slide", (2,), "s3 s2 t3", "t2 s3 s2"),
    ]


@pytest.mark.parametrize(
    "n, counts",
    [
        (2, {5: 1}),
        (3, {1: 1, 5: 2, 6: 1, 7: 1}),
        (4, {1: 2, 2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 2}),
        (5, {1: 3, 2: 3, 3: 3, 4: 6, 5: 4, 6: 3, 7: 3}),
        (6, {1: 4, 2: 6, 3: 6, 4: 12, 5: 5, 6: 4, 7: 4}),
    ],
)
def test_defining_relation_counts_per_family(n, counts):
    assert Counter(i.family for i in defining_relations(n)) == counts


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_braid_relations_are_the_tau_free_prefix(n):
    relations = list(defining_relations(n))
    prefix = list(itertools.takewhile(lambda i: i.lhs.is_braid and i.rhs.is_braid, relations))
    assert list(braid_relations(n)) == prefix
    # every later instance has a tau letter on both sides
    assert not any(i.lhs.is_braid or i.rhs.is_braid for i in relations[len(prefix) :])


def test_relation_6_preserves_tau_count():
    lhs, rhs = parse_word("s1 s2 t1", 3), parse_word("t2 s1 s2", 3)
    assert tau_count(lhs) == tau_count(rhs) == 1


# --- SM_2 normal form -------------------------------------------------------------


def test_normal_form_examples():
    assert sm2_normal_form(parse_word("t1 s1", 2)) == sm2_normal_form(parse_word("s1 t1", 2))
    assert (sm2_normal_form(parse_word("t1 s1", 2)).p, sm2_normal_form(parse_word("t1 s1", 2)).q) == (1, 1)
    nf = sm2_normal_form(parse_word("S1 t1 s1", 2))
    assert (nf.p, nf.q) == (1, 0)
    # the separating pair tau_1 sigma_1 vs tau_1
    assert sm2_normal_form(parse_word("t1 s1", 2)) != sm2_normal_form(parse_word("t1", 2))
    with pytest.raises(ValueError):
        sm2_normal_form(parse_word("t1", 3))


sm2_words = st.lists(
    st.sampled_from([sigma(1), sigma_inv(1), tau(1)]), max_size=12
).map(lambda ls: SMWord(2, tuple(ls)))


@given(sm2_words, sm2_words)
def test_normal_form_is_homomorphism(w1, w2):
    nf1, nf2, nf12 = sm2_normal_form(w1), sm2_normal_form(w2), sm2_normal_form(w1 * w2)
    assert (nf12.p, nf12.q) == (nf1.p + nf2.p, nf1.q + nf2.q)


# --- tau conjugators ----------------------------------------------------------------


def test_tau_conjugator_base_cases():
    assert tau_conjugator(1, 4).text() == ""
    assert tau_conjugator(2, 3).text() == "s1 s2"
    assert tau_conjugator(3, 4).text() == "s2 s3 s1 s2"
    with pytest.raises(ValueError):
        tau_conjugator(3, 3)


@pytest.mark.parametrize("n,i", [(3, 2), (4, 2), (4, 3), (5, 4)])
def test_tau_conjugator_images(n, i):
    w_i = tau_conjugator(i, n)
    rewritten = w_i * tau_power(n, 1, 1) * w_i.inverse()
    assert permutation_image(rewritten) == permutation_image(SMWord(n, (tau(i),)))
    assert images_equal(SMWord(n, (tau(i),)), rewritten)


# --- two-generator alphabet ----------------------------------------------------------


def test_s1x_examples():
    assert to_s1x_generators(parse_word("s1", 3)) == ("s1",)
    assert to_s1x_generators(parse_word("s2", 3)) == ("x", "s1", "X")
    toks = to_s1x_generators(parse_word("t2", 3))
    assert set(toks) <= {"s1", "S1", "x", "X", "t1"}


@pytest.mark.parametrize("n", [3, 4])
def test_s1x_preserves_images(n):
    rng = random.Random(7)
    for _ in range(25):
        w = random_sm_word(rng, n, 6)
        back = parse_word(" ".join(to_s1x_generators(w)), n)
        assert images_equal(w, back)
        assert tau_count(back) == tau_count(w)
        assert sigma_exponent_sum(back) == sigma_exponent_sum(w)


# --- block decomposition ----------------------------------------------------------------


def test_decompose_examples():
    form = decompose_tau_blocks(parse_word("s1 t1", 2))
    assert form.assemble() == parse_word("s1 t1", 2)
    assert tau_count(form.assemble()) == 1

    form = decompose_tau_blocks(parse_word("t2", 3))
    assert form.prefix.text() == "s1 s2"
    assert [(r, u.text()) for r, u in form.blocks] == [(1, "S2 S1")]
    assert images_equal(parse_word("t2", 3), form.assemble())

    form = decompose_tau_blocks(SMWord(3))
    assert form.blocks == ()
    assert form.assemble() == SMWord(3)


def test_expand_taus_builds_one_word_per_tau_letter(monkeypatch):
    built = []
    init = SMWord.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    w = parse_word("t3 s1 t2 t1 S3", 4)
    monkeypatch.setattr(SMWord, "__init__", counted)
    expanded = _expand_taus(w)
    monkeypatch.undo()
    assert len(built) <= tau_count(w) == 3
    assert SMWord(4, expanded) == parse_word("s2 s3 s1 s2 t1 S2 S1 S3 S2 s1 s1 s2 t1 S2 S1 t1 S3", 4)


def test_shape_builds_one_word_per_block(monkeypatch):
    built = []
    init = SMWord.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    form = decompose_tau_blocks(parse_word("t1 t1 s2 t2 S1 s1", 3))
    monkeypatch.setattr(SMWord, "__init__", counted)
    sf = form.shape(2, 1)
    monkeypatch.undo()
    assert len(built) == len(sf.blocks) == 2
    assert sf.blocks == ((0, 1, parse_word("S1 s2 s1 s2", 3)), (1, 0, parse_word("S2 S1", 3)))


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_preserves_images_and_tau_count(n):
    rng = random.Random(11)
    for _ in range(30):
        w = random_sm_word(rng, n, 8)
        form = decompose_tau_blocks(w)
        assert sum(r for r, _ in form.blocks) == tau_count(w)
        assert all(u.is_braid for _, u in form.blocks)
        assert all(r >= 1 for r, _ in form.blocks)
        assert images_equal(w, form.assemble())


# The parent route: each assembled word as a left fold of `*` over tau_power,
# v = tau_1^p sigma_1^q and the braid tails, one concatenation at a time.


def folded_block_form(form):
    out = form.prefix
    for r, u in form.blocks:
        out = out * tau_power(form.n, 1, r) * u
    return out


def folded_shape(sf, strip=False):
    v = tau_power(sf.n, 1, sf.p) * sigma_power(sf.n, 1, sf.q)
    out = SMWord(sf.n)
    for r, m, u in sf.blocks:
        out = out * tau_power(sf.n, 1, r)
        for _ in range(0 if strip else m):
            out = out * v
        out = out * u
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p,q", [(1, 0), (1, -2), (2, 1), (3, -1), (2, 3)])
def test_assembled_words_match_the_folded_route(n, p, q):
    rng = random.Random(100 * n + 10 * p + q)
    for _ in range(25):
        w = random_sm_word(rng, n, 10)
        form = decompose_tau_blocks(w)
        assert form.assemble() == folded_block_form(form)
        sf = decompose_tau_blocks(w).shape(p, q)
        assert sf.assemble() == folded_shape(sf)
        assert sf.strip() == folded_shape(sf, strip=True)


# --- kernel-power shape --------------------------------------------------------------------


def test_shape_examples():
    sf = decompose_tau_blocks(SMWord(2, (tau(1),) * 3)).shape(2, 0)
    assert [(r, m, u.text()) for r, m, u in sf.blocks] == [(1, 1, "")]

    sf = decompose_tau_blocks(tau_power(2, 1, 5) * sigma_power(2, 1, -10)).shape(1, -2)
    assert [(r, m, u.text()) for r, m, u in sf.blocks] == [(0, 5, "")]

    sf = decompose_tau_blocks(SMWord(2, (sigma(1),))).shape(3, 1)
    assert [(r, m, u.text()) for r, m, u in sf.blocks] == [(0, 0, "s1")]

    with pytest.raises(ValueError):
        decompose_tau_blocks(SMWord(2, (tau(1),))).shape(0, 1)


@pytest.mark.parametrize("n,p,q", [(2, 1, -2), (2, 2, 0), (3, 2, 1), (3, 3, -1)])
def test_shape_preserves_images(n, p, q):
    rng = random.Random(5)
    for _ in range(20):
        w = random_sm_word(rng, n, 8)
        sf = decompose_tau_blocks(w).shape(p, q)
        for r, m, _ in sf.blocks:
            assert 0 <= r < p and m >= 0
        assert images_equal(w, sf.assemble())


def test_strip_examples():
    sf = decompose_tau_blocks(SMWord(2, (tau(1),) * 3)).shape(2, 0)
    assert sf.strip() == SMWord(2, (tau(1),))
    sf = decompose_tau_blocks(tau_power(2, 1, 5) * sigma_power(2, 1, -10)).shape(1, -2)
    assert sf.strip() == SMWord(2)
    sf = decompose_tau_blocks(tau_power(3, 1, 2) * SMWord(3, (sigma(2),))).shape(1, 0)
    assert sf.strip() == SMWord(3, (sigma(2),))


# --- conjugation -------------------------------------------------------------------------------


def test_conjugate_examples():
    t1 = SMWord(2, (tau(1),))
    assert conjugate(t1, SMWord(2)) == t1
    c = conjugate(t1, SMWord(2, (sigma(1),)))
    assert c.text() == "s1 t1 S1"
    nf = sm2_normal_form(c)
    assert (nf.p, nf.q) == (1, 0)
    with pytest.raises(ValueError):
        conjugate(t1, SMWord(3))


def test_conjugate_image_is_conjugated_image():
    ext = oracles(3)[1]
    w = parse_word("t1 S1 S1", 3)
    u = SMWord(3, (sigma(2),))
    conjugated = rep_eval(ext, conjugate(w, u))
    expected = rep_eval(ext.rep, u) * rep_eval(ext, w) * rep_eval(ext.rep, u.inverse())
    assert conjugated == expected


def test_conjugate_round_trip_up_to_free_reduction():
    rng = random.Random(3)
    for _ in range(25):
        w = random_sm_word(rng, 3, 6)
        u = random_braid_word(rng, 3, 4)
        back = conjugate(conjugate(w, u), u.inverse())
        assert free_reduce(back) == free_reduce(w)


def test_free_reduce_blocks_at_tau():
    w = parse_word("s1 t1 S1", 2)
    assert free_reduce(w) == w
    assert free_reduce(parse_word("s1 S1", 2)) == SMWord(2)
    assert free_reduce(parse_word("s1 s2 S2 S1 t1", 3)) == parse_word("t1", 3)


# --- enumeration -------------------------------------------------------------------------------


def test_enumeration_small_balls():
    ball1 = [w.text() for w in enumerate_braid_words(2, 1)]
    assert ball1 == ["", "s1", "S1"]
    ball2 = list(enumerate_braid_words(2, 2))
    assert [w.text() for w in ball2[3:]] == ["s1 s1", "S1 S1"]


def test_enumeration_count_matches_brute_force():
    # independent count: all words over 4 letters whose free reduction has full length
    import itertools

    from smbraid.words import braid_letters

    alphabet = braid_letters(3)
    expected = 0
    for length in range(3):
        for combo in itertools.product(alphabet, repeat=length):
            if len(free_reduce(SMWord(3, combo))) == length:
                expected += 1
    assert expected == 17
    assert sum(1 for _ in enumerate_braid_words(3, 2)) == 17


def test_enumeration_is_freely_reduced_and_shortest_first():
    lengths = [len(w) for w in enumerate_braid_words(3, 3)]
    assert lengths == sorted(lengths)
    for w in enumerate_braid_words(3, 3):
        assert free_reduce(w) == w


# --- input checks ------------------------------------------------------------------

BAD_INPUT_CASES = [
    ("letter-out-of-range", lambda: SMWord(2, (sigma(2),)), "letter s2 out of range for n=2"),
    ("tau-out-of-range", lambda: SMWord(3, (tau(3),)), "letter t3 out of range for n=3"),
    ("product-mixed-n", lambda: SMWord(2) * SMWord(3), "strand counts differ: 2 vs 3"),
    ("shape-p-0", lambda: ShapeForm(2, 0, 0, ()), "reference pair needs p >= 1"),
    ("shape-r-too-big", lambda: ShapeForm(2, 2, 1, ((2, 0, SMWord(2)),)),
     "block (2, 0) violates 0 <= r < p, m >= 0"),
    ("shape-m-negative", lambda: ShapeForm(2, 2, 1, ((0, -1, SMWord(2)),)),
     "block (0, -1) violates 0 <= r < p, m >= 0"),
    ("shape-block-mixed-n", lambda: ShapeForm(2, 1, 0, ((0, 0, parse_word("s2", 3)),)),
     "strand counts differ: 2 vs 3"),
    ("tau-power-negative", lambda: tau_power(2, 1, -1), "tau letters have no inverse"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_is_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message

