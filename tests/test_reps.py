"""Representations: definitional matrices, relation checks, evaluation."""

from __future__ import annotations

import random

import pytest

from conftest import random_braid_word, scalar
from smbraid.algebra import CyclicElement, FormalElement, Matrix, Permutation
from smbraid.reps import (
    BraidRep,
    as_formal,
    burau_reduced,
    burau_unreduced,
    cyclic_rep,
    matrix_rep_from_images,
    permutation_rep,
    rep_eval,
    rep_from_selector,
    scalar_char,
)
from fractions import Fraction

from smbraid.phi import Extension, PhiParams
from smbraid.scalars import T
from smbraid.words import SMWord, braid_letters, parse_word, sigma_power, tau


def test_burau_unreduced_generator_matrix():
    rep = burau_unreduced(2)
    assert rep.image(1) == Matrix([[1 - T, T], [1, 0]])


def test_burau_unreduced_braid_relation_n3():
    rep = burau_unreduced(3)
    lhs = rep_eval(rep, parse_word("s1 s2 s1", 3))
    rhs = rep_eval(rep, parse_word("s2 s1 s2", 3))
    assert lhs == rhs


def test_burau_unreduced_characteristic_roots():
    # the 2x2 generator satisfies (M - I)(M + t I) == 0, i.e. eigenvalues 1 and -t
    m = burau_unreduced(2).image(1)
    eye = Matrix.identity(2)
    product = (m + eye.scale(-1)) * (m + eye.scale(T))
    assert product == Matrix([[0, 0], [0, 0]])


def test_burau_unreduced_metadata():
    for n in (2, 3, 4, 5):
        rep = burau_unreduced(n)
        assert (rep.n, rep.name, rep.backend) == (n, "burau-unreduced", "matrix")
    with pytest.raises(ValueError):
        burau_unreduced(1)


def test_burau_reduced_n2_is_scalar_minus_t():
    rep = burau_reduced(2)
    assert rep.image(1) == Matrix([[-T]])
    assert rep_eval(rep, sigma_power(2, 1, 3)) == Matrix([[-(T**3)]])


def test_burau_reduced_n3_relation_and_nonscalar():
    rep = burau_reduced(3)
    assert rep_eval(rep, parse_word("s1 s2 s1", 3)) == rep_eval(rep, parse_word("s2 s1 s2", 3))
    assert rep.image(1).scalar_multiple_of_identity() is None
    assert not rep_eval(rep, parse_word("s1 s1", 3)).is_identity()
    with pytest.raises(ValueError):
        burau_reduced(4)


def test_permutation_rep_witness():
    rep = permutation_rep(3)
    assert rep_eval(rep, parse_word("s1 s1", 3)).is_identity()
    assert rep_eval(rep, parse_word("s1 s2 s1", 3)) == rep_eval(rep, parse_word("s2 s1 s2", 3))


def test_scalar_char_metadata():
    assert not rep_eval(scalar_char(2, 2), parse_word("s1 s1", 2)).is_identity()
    assert rep_eval(scalar_char(-1, 2), parse_word("s1 s1", 2)).is_identity()
    assert rep_eval(scalar_char(2, 3), parse_word("s1 S2", 3)).is_identity()
    # d = -t coincides with reduced Burau at n=2
    assert scalar_char(-T, 2).image(1) == burau_reduced(2).image(1)
    with pytest.raises(ValueError):
        scalar_char(0, 2)


def test_scalar_char_powers():
    rep = scalar_char(2, 2)
    assert rep_eval(rep, sigma_power(2, 1, -3)) == Matrix([[scalar(Fraction(1, 8))]])
    assert rep_eval(rep, SMWord(2)).is_identity()


def test_rep_eval_is_monoid_homomorphism():
    rng = random.Random(17)
    reps = [burau_unreduced(3), permutation_rep(3), scalar_char(2, 3)]
    for rep in reps:
        for _ in range(15):
            w1 = random_braid_word(rng, 3, 5)
            w2 = random_braid_word(rng, 3, 5)
            assert rep_eval(rep, w1 * w2) == rep_eval(rep, w1) * rep_eval(rep, w2)


def test_rep_eval_free_cancellation():
    rep = burau_unreduced(2)
    assert rep_eval(rep, parse_word("s1 S1", 2)).is_identity()


def test_rep_eval_empty_and_one_letter_words():
    rep = burau_unreduced(3)
    ext = Extension(rep, PhiParams.of(T, scalar(Fraction(-1, 2)), 3))
    for target in (rep, ext):
        assert rep_eval(target, SMWord(3)) == target.one()
    for letter in braid_letters(3):
        assert rep_eval(rep, SMWord(3, (letter,))) == rep.letters[letter]
    assert rep_eval(ext, SMWord(3, (tau(2),))) == ext.letters[tau(2)]


def test_rep_eval_rejects_tau_and_wrong_n():
    rep = burau_unreduced(3)
    with pytest.raises(ValueError):
        rep_eval(rep, parse_word("t1", 3))
    with pytest.raises(ValueError):
        rep_eval(rep, parse_word("s1 t1", 3))
    with pytest.raises(ValueError):
        rep_eval(rep, parse_word("s1", 2))


def test_burau_powers_never_scalar_up_to_8():
    m = burau_unreduced(2).image(1)
    acc = Matrix.identity(2)
    for _ in range(8):
        acc = acc * m
        assert acc.scalar_multiple_of_identity() is None


def test_matrix_rep_from_images_validates():
    m = Matrix([[0, -2], [1, 0]])
    rep = matrix_rep_from_images(2, [m])
    assert rep_eval(rep, sigma_power(2, 1, 2)) == Matrix.identity(2).scale(-2)
    # pairwise distinct powers up to 8: the image subgroup is infinite cyclic
    powers = [rep_eval(rep, sigma_power(2, 1, k)).text() for k in range(1, 9)]
    assert len(set(powers)) == 8

    bad = Matrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match=r"relation \(1\) braid \(1,\) fails on the images: 's1 s2 s1' vs 's2 s1 s2'"):
        matrix_rep_from_images(3, [bad, Matrix([[2, 0], [0, 1]])])
    with pytest.raises(ValueError):
        matrix_rep_from_images(2, [Matrix([[1, 1], [1, 1]])])  # singular


def test_far_commutation_checked():
    # n=4 with a deliberately non-commuting far pair must be rejected; with
    # the identity in the middle, the braid relation at (1, 2) fails first
    a = Matrix([[1, 1], [0, 1]])
    b = Matrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match=r"relation \(1\) braid \(1,\) fails"):
        matrix_rep_from_images(4, [a, Matrix.identity(2), b])
    # the transpositions (2 3), (1 2), (1 3) satisfy both braid relations,
    # but (2 3) and (1 3) do not commute
    p23 = Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    p12 = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    p13 = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match=r"relation \(2\) sigma far commutation \(1, 3\) fails on the images: 's1 s3' vs 's3 s1'"):
        matrix_rep_from_images(4, [p23, p12, p13])


def test_cyclic_rep_images():
    rep = cyclic_rep(2, -2)
    x = rep.image(1)
    assert (x * rep.image_inv(1)).is_identity()
    assert rep_eval(rep, sigma_power(2, 1, 2)) == rep.one().scale(-2)


def test_as_formal_lifts_matrix_group():
    rep = as_formal(burau_reduced(3))
    assert rep.backend == "formal"
    img = rep_eval(rep, parse_word("s1 s2", 3))
    assert len(img.coeffs) == 1
    with pytest.raises(ValueError):
        as_formal(cyclic_rep(2, -2))


def test_rep_from_selector(tmp_path):
    assert rep_from_selector("burau-unreduced", 3).name == "burau-unreduced"
    assert rep_from_selector("burau-reduced", 2).name == "burau-reduced"
    assert rep_from_selector("perm", 4).name == "perm"
    assert rep_from_selector("scalar:1/2", 2).image(1) == Matrix([[scalar(Fraction(1, 2))]])
    path = tmp_path / "m.txt"
    path.write_text("0,-2\n1,0\n")
    rep = rep_from_selector(f"matrix:{path}", 2)
    assert rep.image(1) == Matrix([[0, -2], [1, 0]])
    with pytest.raises(ValueError):
        rep_from_selector("nope", 2)
    with pytest.raises(ValueError):
        rep_from_selector(f"matrix:{path}", 3)


def test_rep_from_selector_shares_shipped_reps(tmp_path):
    for selector, n in [("burau-unreduced", 4), ("perm", 3), ("scalar:2", 2)]:
        assert rep_from_selector(selector, n) is rep_from_selector(selector, n)
    # a matrix file is read again on every call
    path = tmp_path / "m.txt"
    path.write_text("0,-2\n1,0\n")
    assert rep_from_selector(f"matrix:{path}", 2).image(1) == Matrix([[0, -2], [1, 0]])
    path.write_text("0,1\n1,0\n")
    assert rep_from_selector(f"matrix:{path}", 2).image(1) == Matrix([[0, 1], [1, 0]])
    # errors are not cached
    for _ in range(2):
        with pytest.raises(ValueError):
            rep_from_selector("scalar:0", 2)
    # an extension built on a shared rep leaves its letter table alone
    rep = rep_from_selector("burau-unreduced", 4)
    Extension(rep, PhiParams.of(1, -1, 0))
    assert set(rep.letters) == set(braid_letters(4))


# --- construction pinned against independently built images --------------------------


def _burau_block(n: int, i: int, block) -> Matrix:
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for dr in range(2):
        for dc in range(2):
            rows[i - 1 + dr][i - 1 + dc] = block[dr][dc]
    return Matrix(rows)


def _burau_unreduced_case(n: int):
    tinv = T**-1
    images = [
        (_burau_block(n, i, [[1 - T, T], [1, 0]]), _burau_block(n, i, [[0, 1], [tinv, 1 - tinv]]))
        for i in range(1, n)
    ]
    return (f"burau-unreduced{n}", lambda: burau_unreduced(n), images,
            f"BraidRep(burau-unreduced (n={n}, backend=matrix))")


def _perm_case(n: int):
    e = Permutation.identity(n)
    images = []
    for i in range(1, n):
        swap = list(range(n))
        swap[i - 1], swap[i] = swap[i], swap[i - 1]
        x = FormalElement(e, [(Permutation(tuple(swap)), 1)])
        images.append((x, x))
    return (f"perm{n}", lambda: permutation_rep(n), images,
            f"BraidRep(perm (n={n}, backend=formal))")


def _scalar_case(d, text: str, n: int):
    # a Fraction d is inverted by Fraction arithmetic, the Laurent unit -t by the library
    d, inverse = (scalar(d), scalar(d**-1)) if isinstance(d, Fraction) else (d, d**-1)
    images = [(Matrix([[d]]), Matrix([[inverse]]))] * (n - 1)
    return (f"scalar{text}-{n}", lambda: scalar_char(d, n), images,
            f"BraidRep(scalar:{text} (n={n}, backend=matrix))")


_REDUCED3 = [
    (Matrix([[-T, 1], [0, 1]]), Matrix([[-(T**-1), T**-1], [0, 1]])),
    (Matrix([[1, 0], [T, -T]]), Matrix([[1, 0], [1, -(T**-1)]])),
]
_FORMAL2 = Matrix.identity(2)

CONSTRUCTION_CASES = [
    *(_burau_unreduced_case(n) for n in (2, 3, 4, 24)),  # 24 needs a polynomial-time inverse
    ("burau-reduced2", lambda: burau_reduced(2), [(Matrix([[-T]]), Matrix([[-(T**-1)]]))],
     "BraidRep(burau-reduced (n=2, backend=matrix))"),
    ("burau-reduced3", lambda: burau_reduced(3), _REDUCED3,
     "BraidRep(burau-reduced (n=3, backend=matrix))"),
    *(_perm_case(n) for n in (2, 3, 4)),
    _scalar_case(Fraction(2), "2", 2),
    _scalar_case(Fraction(2), "2", 3),
    _scalar_case(Fraction(-1), "-1", 2),
    _scalar_case(Fraction(-1), "-1", 3),
    _scalar_case(-T, "-1*t^1", 2),
    _scalar_case(-T, "-1*t^1", 3),
    ("cyclic2", lambda: cyclic_rep(2, -2),
     [(CyclicElement(2, scalar(-2), (scalar(0), scalar(1))),
       CyclicElement(2, scalar(-2), (scalar(0), scalar(Fraction(-1, 2)))))],
     "BraidRep(cyclic:2:-2 (n=2, backend=cyclic))"),
    ("cyclic1", lambda: cyclic_rep(1, T),
     [(CyclicElement(1, T, (T,)), CyclicElement(1, T, (T**-1,)))],
     "BraidRep(cyclic:1:1*t^1 (n=2, backend=cyclic))"),
    ("burau-reduced3-formal", lambda: as_formal(burau_reduced(3)),
     [(FormalElement(_FORMAL2, [(m, 1)]), FormalElement(_FORMAL2, [(m_inv, 1)])) for m, m_inv in _REDUCED3],
     "BraidRep(burau-reduced+formal (n=3, backend=formal))"),
    ("matrix-images", lambda: matrix_rep_from_images(2, [Matrix([[0, -2], [1, 0]])], name="m"),
     [(Matrix([[0, -2], [1, 0]]), Matrix([[0, 1], [scalar(Fraction(-1, 2)), 0]]))],
     "BraidRep(m (n=2, backend=matrix))"),
]


@pytest.mark.parametrize("make,images,expected_repr", [c[1:] for c in CONSTRUCTION_CASES],
                         ids=[c[0] for c in CONSTRUCTION_CASES])
def test_construction_matches_independent_images(make, images, expected_repr):
    rep = make()
    assert repr(rep) == expected_repr
    assert rep.n - 1 == len(images)
    for i, (img, inv) in enumerate(images, start=1):
        assert rep.image(i) == img
        assert rep.image_inv(i) == inv
        assert (rep.image(i) * rep.image_inv(i)).is_identity()
        assert (rep.image_inv(i) * rep.image(i)).is_identity()


# --- input checks ------------------------------------------------------------------

_ONE1 = Matrix.identity(1)
_TWO1 = Matrix([[2]])

BAD_INPUT_CASES = [
    ("n-below-2", lambda: BraidRep(1, _ONE1, [], [], name="x"), "need n >= 2, got 1"),
    ("image-count", lambda: BraidRep(3, _ONE1, [_TWO1], [_TWO1.inverse()], name="x"),
     "need 2 generator images, got 1"),
    ("not-invertible", lambda: BraidRep(2, _ONE1, [_TWO1], [_TWO1], name="x"),
     "image of generator 1 is not invertible"),
    ("image-0", lambda: scalar_char(2, 2).image(0), "generator index 0 out of range for n=2"),
    ("image-n", lambda: scalar_char(2, 2).image(2), "generator index 2 out of range for n=2"),
    ("image-inv-0", lambda: scalar_char(2, 2).image_inv(0), "generator index 0 out of range for n=2"),
    ("image-inv-n", lambda: scalar_char(2, 2).image_inv(2), "generator index 2 out of range for n=2"),
    ("mixed-dimensions", lambda: matrix_rep_from_images(3, [_TWO1, Matrix.identity(2)]),
     "generator matrices must share one dimension"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_is_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
