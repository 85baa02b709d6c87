"""The extension family: evaluation, relation verification, character formulas."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sm_word, scalar
from smbraid.algebra import CyclicElement, FormalElement, Matrix
from smbraid.phi import (
    Extension,
    PhiParams,
    check_relations,
    tau_power_direct,
    tau_power_expand,
)
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
from smbraid.scalars import T, as_scalar
from smbraid.words import (
    SMWord,
    braid_letters,
    decompose_tau_blocks,
    parse_word,
    sigma_power,
    tau,
    tau_power,
)


def random_params(rng: random.Random) -> PhiParams:
    pick = lambda: scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return PhiParams.of(pick(), pick(), pick())


def test_check_relations_builds_one_extension(monkeypatch):
    import smbraid.phi as phi_module

    rep, params = burau_unreduced(4), PhiParams.of(2, -1, T)
    built = []

    class CountingExtension(Extension):
        def __init__(self, rep_, params_):
            super().__init__(rep_, params_)
            built.append(self)

    monkeypatch.setattr(phi_module, "Extension", CountingExtension)
    assert check_relations(rep, params).all_pass
    assert len(built) == 1
    (ext,) = built
    # independent route: each tau image built by hand from the rep's images
    for i in range(1, 4):
        expected = rep.image(i).scale(2) + rep.image_inv(i).scale(-1) + rep.one().scale(T)
        assert ext.letters[tau(i)] == expected
    for letter in braid_letters(4):
        assert ext.letters[letter] is rep.letters[letter]
    assert len(ext.letters) == 9


def test_scalar_extension_matches_direct_power():
    rng = random.Random(19)
    for d in (2, scalar(Fraction(-1, 3)), -T):
        params = random_params(rng)
        ext = Extension(scalar_char(d, 2), params)
        for p in range(4):
            for q in range(-3, 4):
                w = tau_power(2, 1, p) * sigma_power(2, 1, q)
                assert rep_eval(ext, w) == Matrix([[tau_power_direct(params, d, p, q)]])


def test_zero_parameters_kill_tau_words():
    rep = scalar_char(2, 2)
    ext = Extension(rep, PhiParams.of(0, 0, 0))
    img1 = rep_eval(ext, parse_word("t1 s1", 2))
    img2 = rep_eval(ext, parse_word("t1", 2))
    assert img1 == img2 == Matrix([[0]])
    assert not img1.is_identity()


def test_scalar_character_value():
    # 2 * 2 * 2^-2 == 1
    rep = scalar_char(2, 2)
    img = rep_eval(Extension(rep, PhiParams.of(2, 0, 0)), parse_word("t1 S1 S1", 2))
    assert img.is_identity()


def test_matrix_tau_image_identity_instance():
    m = Matrix([[0, -2], [1, 0]])
    rep = matrix_rep_from_images(2, [m])
    img = rep_eval(Extension(rep, PhiParams.of(1, 2, 1)), parse_word("t1", 2))
    assert img == m + m.inverse().scale(2) + Matrix.identity(2)
    assert img.is_identity()


def test_extension_property_matches_rep_eval():
    rng = random.Random(23)
    for rep in (burau_unreduced(3), permutation_rep(3)):
        ext = Extension(rep, random_params(rng))
        for _ in range(10):
            w = random_sm_word(rng, 3, 6)
            braid = parse_word(" ".join(l.token() for l in w if not l.is_tau), 3)
            assert rep_eval(ext, braid) == rep_eval(rep, braid)


def test_phi_eval_is_monoid_homomorphism_every_backend():
    rng = random.Random(29)
    reps = [burau_unreduced(3), permutation_rep(3), scalar_char(2, 3)]
    for rep in reps:
        ext = Extension(rep, random_params(rng))
        for _ in range(10):
            w1, w2 = random_sm_word(rng, 3, 5), random_sm_word(rng, 3, 5)
            assert rep_eval(ext, w1 * w2) == rep_eval(ext, w1) * rep_eval(ext, w2)
    ext = Extension(cyclic_rep(2, -2), random_params(rng))
    for _ in range(10):
        w1, w2 = random_sm_word(rng, 2, 5), random_sm_word(rng, 2, 5)
        assert rep_eval(ext, w1 * w2) == rep_eval(ext, w1) * rep_eval(ext, w2)


def test_phi_invariant_under_block_and_shape_rewrites():
    rng = random.Random(31)
    ext = Extension(burau_unreduced(3), PhiParams.of(1, -1, 0))
    for _ in range(15):
        w = random_sm_word(rng, 3, 6)
        assert rep_eval(ext, w) == rep_eval(ext, decompose_tau_blocks(w).assemble())
        assert rep_eval(ext, w) == rep_eval(ext, decompose_tau_blocks(w).shape(2, 1).assemble())


def test_stripping_kernel_generator_powers_preserves_image():
    # with v = tau_1 sigma_1^-2 in the kernel of (2,0,0) over sigma_1 -> 2,
    # rewriting against (p, q) = (1, -2) and dropping the v powers is invisible
    rng = random.Random(33)
    ext = Extension(scalar_char(2, 2), PhiParams.of(2, 0, 0))
    assert rep_eval(ext, parse_word("t1 S1 S1", 2)).is_identity()
    for _ in range(20):
        w = random_sm_word(rng, 2, 8)
        sf = decompose_tau_blocks(w).shape(1, -2)
        assert rep_eval(ext, w) == rep_eval(ext, sf.strip())


# --- relation checking ---------------------------------------------------------


@pytest.mark.parametrize(
    "rep_factory",
    [
        lambda: burau_unreduced(3),
        lambda: burau_reduced(3),
        lambda: permutation_rep(4),
        lambda: scalar_char(2, 3),
    ],
)
def test_relations_pass_for_shipped_reps(rep_factory):
    rng = random.Random(37)
    rep = rep_factory()
    for _ in range(5):
        report = check_relations(rep, random_params(rng))
        assert report.all_pass
        assert report.families_passed() == 7


def test_relations_pass_specific_instances():
    assert check_relations(burau_unreduced(3), PhiParams.of(1, -1, 0)).all_pass
    assert check_relations(permutation_rep(4), PhiParams.of(1, -1, 0)).all_pass


def test_corrupted_tau_image_fails_slide_relation():
    # mutate the tau image on the left side only: the slide relation
    # sigma_1 sigma_2 tau_1 = tau_2 sigma_1 sigma_2 must then fail
    rep = burau_unreduced(3)
    params = PhiParams.of(1, 2, 3)
    ext = Extension(rep, params)
    corrupted = ext.letters[tau(1)] + rep.one().scale(params.c)
    lhs = rep_eval(rep, parse_word("s1 s2", 3)) * corrupted
    rhs = rep_eval(ext, parse_word("t2 s1 s2", 3))
    assert lhs != rhs
    # sanity: the uncorrupted sides agree
    assert rep_eval(ext, parse_word("s1 s2 t1", 3)) == rhs


def test_relation_report_text_counts_families():
    report = check_relations(burau_unreduced(3), PhiParams.of(1, 0, 0))
    assert report.format_text().startswith("7/7 relation families pass")


# --- character formulas -----------------------------------------------------------


def test_tau_power_expand_examples():
    # p=1, q=0: a d + b d^-1 + c
    d = Fraction(5)
    val = tau_power_expand(PhiParams.of(2, 3, 7), scalar(d), 1, 0)
    assert val == scalar(2 * d + 3 / d + 7)
    # p=0: just d^q
    assert tau_power_expand(PhiParams.of(1, 1, 1), 2, 0, 5) == 32
    # (2 - 3)^2 * 2^0 == 1: a kernel generator for (1, 0, -3) at d = 2
    assert tau_power_expand(PhiParams.of(1, 0, -3), 2, 2, 0) == 1


def test_tau_power_direct_examples():
    assert tau_power_direct(PhiParams.of(2, 0, 0), 2, 3, -3) == 8
    assert tau_power_direct(PhiParams.of(1, 0, -3), 2, 2, 0) == 1
    assert tau_power_direct(PhiParams.of(1, 2, 1), 2, 1, 0) == 2 + 1 + 1


def test_tau_power_routes_agree_on_laurent_unit():
    params = PhiParams.of(1, -1, 0)
    d = -T
    for p in range(5):
        for q in range(-4, 5):
            assert tau_power_expand(params, d, p, q) == tau_power_direct(params, d, p, q)


def test_tau_power_routes_agree_random_rationals():
    rng = random.Random(41)
    ds = [2, scalar(Fraction(1, 2)), -1, -T]
    for _ in range(8):
        params = random_params(rng)
        for d in ds:
            for p in range(0, 6):
                for q in (-5, -1, 0, 1, 5):
                    assert tau_power_expand(params, d, p, q) == tau_power_direct(params, d, p, q)


def test_tau_power_matches_cyclic_backend_instance():
    # (X + 2 X^-1 + 1) in the twisted algebra X^2 = -2 equals the identity
    rep = cyclic_rep(2, -2)
    img = rep_eval(Extension(rep, PhiParams.of(1, 2, 1)), tau_power(2, 1, 1))
    assert img.is_identity()


def test_tau_power_rejects_non_unit():
    with pytest.raises(ValueError):
        tau_power_expand(PhiParams.of(1, 1, 1), 1 + T, 1, 0)
    with pytest.raises(ValueError):
        tau_power_direct(PhiParams.of(1, 1, 1), 0, 1, 0)
    with pytest.raises(ValueError):
        tau_power_expand(PhiParams.of(1, 1, 1), 2, -1, 0)


# --- image equality -----------------------------------------------------------------


def test_phi_image_equal_examples():
    rep = burau_reduced(3)
    birman = Extension(rep, PhiParams.of(1, -1, 0))
    w = parse_word("t1 s2", 3)
    assert rep_eval(birman, w) == rep_eval(birman, w)
    # relation (5) instance
    assert rep_eval(birman, parse_word("t1 s1", 3)) == rep_eval(birman, parse_word("s1 t1", 3))
    # a = -1 root-of-unity collapse: tau_1^2 and sigma_1^2 share an image
    minus = Extension(rep, PhiParams.of(-1, 0, 0))
    assert rep_eval(minus, parse_word("t1 t1", 3)) == rep_eval(minus, parse_word("s1 s1", 3))
    with pytest.raises(ValueError):
        rep_eval(birman, parse_word("t1", 2))


def test_scalar_invert_consistency_in_tau_image():
    # b * rho(sigma^-1) really uses the exact inverse image
    rep = burau_unreduced(2)
    img = Extension(rep, PhiParams.of(0, 1, 0)).letters[tau(1)]
    assert img == rep.image(1).inverse()
    assert as_scalar(2) ** -1 == scalar(Fraction(1, 2))


# --- cross-backend property: each backend maps onto the matrix image ---------------
#
# Collapsing sends a formal element sum c_g [g] to sum c_g * M_g, and a cyclic
# element sum c_i X^i to sum c_i * M^i.  Both are algebra maps that send the
# generator images of one representation to those of a matrix representation,
# so the collapsed image of every SM_n word under Phi_{a,b,c} must be that
# word's image under the matrix representation.


def collapse(terms, to_matrix, dim: int) -> Matrix:
    acc = Matrix([[0] * dim for _ in range(dim)])
    for g, c in terms:
        acc = acc + to_matrix(g).scale(c)
    return acc


def permutation_matrix(g) -> Matrix:
    """P_g with P_g[g[k]][k] = 1, so that P_g * P_h = P_(g after h)."""
    n = len(g.images)
    rows = [[0] * n for _ in range(n)]
    for k, v in enumerate(g.images):
        rows[v][k] = 1
    return Matrix(rows)


cross_scalars = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(scalar),
    st.sampled_from([T, -T, 1 - T, T**-1, T + T**-1]),
)


@st.composite
def sm_cases(draw, n_values):
    n = draw(st.sampled_from(n_values))
    alphabet = list(braid_letters(n)) + [tau(i) for i in range(1, n)]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=6))
    params = PhiParams.of(draw(cross_scalars), draw(cross_scalars), draw(cross_scalars))
    return n, SMWord(n, tuple(letters)), params


@settings(max_examples=60, deadline=None)
@given(sm_cases((2, 3)))
def test_formal_matrix_image_collapses_to_matrix_image(case):
    n, w, params = case
    rep = burau_reduced(n)
    image = rep_eval(Extension(as_formal(rep), params), w)
    assert isinstance(image, FormalElement)
    assert collapse(image.coeffs.items(), lambda g: g, rep.one().dim) == rep_eval(Extension(rep, params), w)


@settings(max_examples=60, deadline=None)
@given(sm_cases((2, 3, 4)))
def test_formal_permutation_image_collapses_to_permutation_matrices(case):
    n, w, params = case
    swaps = []
    for i in range(1, n):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i - 1], rows[i] = rows[i], rows[i - 1]
        swaps.append(Matrix(rows))
    image = rep_eval(Extension(permutation_rep(n), params), w)
    mats = matrix_rep_from_images(n, swaps)
    assert collapse(image.coeffs.items(), permutation_matrix, n) == rep_eval(Extension(mats, params), w)


@settings(max_examples=60, deadline=None)
@given(sm_cases((2, 3, 4)))
def test_cyclic_image_collapses_to_matrix_powers(case):
    n, w, params = case
    m = Matrix([[0, -2], [1, 0]])  # m^2 = -2 * I
    powers = [Matrix.identity(2), m]
    image = rep_eval(Extension(cyclic_rep(2, -2, n), params), w)
    assert isinstance(image, CyclicElement)
    expected = rep_eval(Extension(matrix_rep_from_images(n, [m] * (n - 1)), params), w)
    assert collapse(zip(range(2), image.coords), powers.__getitem__, 2) == expected
