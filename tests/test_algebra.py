"""Group elements and algebra backends: axioms, oracles, and examples."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from conftest import enumerate_braid_words, formal_product_reference, formal_terms, random_braid_word, scalar, terms
from smbraid.algebra import (
    CyclicElement,
    FormalElement,
    Matrix,
    Permutation,
    _minus,
    linear_combination,
    parse_matrix,
)
from smbraid.analysis import _SL2Z_LETTERS, _SL2Z_ONE, _check_sl2z_table, _sl2z_mul
from smbraid.reps import burau_reduced, permutation_rep, rep_eval
from smbraid.scalars import MAX_SPAN, ZERO, T, LaurentPoly, as_scalar, format_scalar, is_unit
from smbraid.words import parse_word, sigma, sigma_inv


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


# --- group elements ------------------------------------------------------------


def symmetric_elements(n: int, rng: random.Random, count: int):
    out = []
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        out.append(Permutation(tuple(images)))
    return out


def invert(g):
    """Inverse of a permutation or a matrix, computed here from the images."""
    if isinstance(g, Matrix):
        return g.inverse()
    inv = [0] * len(g.images)
    for k, v in enumerate(g.images):
        inv[v] = k
    return Permutation(tuple(inv))


def test_make_group_kinds():
    assert Permutation.identity(3) == Permutation((0, 1, 2))
    assert Permutation.transposition(3, 2) == Permutation((0, 2, 1))
    with pytest.raises(ValueError):
        Permutation.transposition(3, 3)
    with pytest.raises(ValueError):
        Matrix.identity(0)
    with pytest.raises(ValueError):
        permutation_rep(0)


def test_symmetric_product_example():
    t1, t2 = Permutation.transposition(3, 1), Permutation.transposition(3, 2)
    product = t1 * t2
    # g after h: t1 * t2 sends 0 -> t1(t2(0)) = t1(0) = 1
    assert product == Permutation((1, 2, 0))
    assert product.text() == "[2,3,1]"
    # a 3-cycle: applying it three times is the identity
    assert product != Permutation.identity(3)
    assert product * (product * product) == Permutation.identity(3)


def test_permutation_size_mismatch_raises():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)
    s3 = Permutation.identity(3)
    swap = FormalElement(s3, [(Permutation((1, 0, 2)), 1)])
    # a 4-point key inside an S_3 element is not truncated to 3 points
    with pytest.raises(ValueError):
        swap * FormalElement(s3, [(Permutation((0, 1, 2, 3)), 1)])


def test_matrix_model_identity():
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])
    assert Matrix.identity(2).text() == "[[1,0],[0,1]]"


@pytest.mark.parametrize(
    "model,seed",
    [
        (("perm", 4), 1),
        (("matrix", 1), 2),
        (("matrix", 2), 3),
    ],
)
def test_group_axioms_on_random_triples(model, seed):
    rng = random.Random(seed)
    kind, n = model
    if kind == "perm":
        e = Permutation.identity(n)
        elements = symmetric_elements(n, rng, 6)
    else:
        e = Matrix.identity(n)
        elements = []
        while len(elements) < 5:
            m = Matrix([[scalar(random_fraction(rng)) for _ in range(n)] for _ in range(n)])
            try:
                m.inverse()
            except ValueError:
                continue
            elements.append(m)
    for g in elements:
        assert g * e == g == e * g
        assert g * invert(g) == e == invert(g) * g
        for h in elements:
            assert (g.text() == h.text()) == (g == h)
            assert (hash(g) == hash(h)) or g != h
            for k in elements:
                assert (g * h) * k == g * (h * k)


# --- SL(2, Z) x Z, the SM_3 oracle's group ----------------------------------------

# B_3 -> SL(2, Z) x Z: reduced Burau at t = -1, paired with the exponent sum
SL2_ONE, SL2_LETTERS, sl2_mul = _SL2Z_ONE, _SL2Z_LETTERS, _sl2z_mul


def sl2_image(w) -> tuple[int, ...]:
    return reduce(sl2_mul, [SL2_LETTERS[letter] for letter in w], SL2_ONE)


def test_sl2zxz_identity_and_generator_inverses():
    assert SL2_LETTERS[sigma_inv(2)] == (1, 0, 1, 1, -1)
    for g in SL2_LETTERS.values():
        assert sl2_mul(g, SL2_ONE) == g == sl2_mul(SL2_ONE, g)
    for i in (1, 2):
        g, g_inv = SL2_LETTERS[sigma(i)], SL2_LETTERS[sigma_inv(i)]
        assert sl2_mul(g, g_inv) == SL2_ONE == sl2_mul(g_inv, g)


def test_sl2zxz_powers_of_s1_s2():
    s1s2 = sl2_image(parse_word("s1 s2", 3))
    cube = reduce(sl2_mul, [s1s2] * 3)
    assert cube == (-1, 0, 0, -1, 6)
    # (s1 s2)^6 has the identity matrix but degree 12: it is not the identity,
    # and neither is its reduced Burau image
    assert sl2_mul(cube, cube) == (1, 0, 0, 1, 12) != SL2_ONE
    burau = burau_reduced(3)
    assert rep_eval(burau, parse_word("s1 s2 " * 6, 3)) != burau.one()


@pytest.mark.parametrize("seed", range(3))
def test_sl2zxz_associative_on_random_triples(seed):
    rng = random.Random(seed)
    elements = [sl2_image(random_braid_word(rng, 3, 8)) for _ in range(6)]
    for g in elements:
        for h in elements:
            for k in elements:
                assert sl2_mul(sl2_mul(g, h), k) == sl2_mul(g, sl2_mul(h, k))


def test_sl2zxz_table_satisfies_the_braid_relation():
    assert sl2_image(parse_word("s1 s2 s1", 3)) == sl2_image(parse_word("s2 s1 s2", 3)) == (0, 1, -1, 0, 3)
    _check_sl2z_table(SL2_LETTERS)


@pytest.mark.parametrize("changes,message", [
    # sigma_1^-1 -> [[1, -1], [0, 1]] at degree +1 misses the inverse of sigma_1
    ({sigma_inv(1): (1, -1, 0, 1, 1)}, "image of generator 1 is not invertible"),
    # sigma_2 -> [[1, 0], [1, 1]] and its inverse: s1 s2 s1 = [[2, 3], [1, 2]], s2 s1 s2 = [[2, 1], [3, 2]]
    ({sigma(2): (1, 0, 1, 1, 1), sigma_inv(2): (1, 0, -1, 1, -1)},
     "relation (1) braid (1,) fails on the images: 's1 s2 s1' vs 's2 s1 s2'"),
], ids=["inverse", "braid-relation"])
def test_sl2zxz_table_check_raises_on_a_broken_table(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _check_sl2z_table({**SL2_LETTERS, **changes})


def test_sl2zxz_images_match_reduced_burau():
    burau = burau_reduced(3)
    # every pair of freely reduced words of length <= 4, so u v^-1 has length <= 8
    ball = list(enumerate_braid_words(3, 4))
    pairs = {(rep_eval(burau, w), sl2_image(w)) for w in ball}
    assert len(pairs) == len({b for b, _ in pairs}) == len({s for _, s in pairs}) < len(ball)
    rng = random.Random(5)
    for _ in range(200):
        u, v = random_braid_word(rng, 3, 8), random_braid_word(rng, 3, 8)
        assert (sl2_image(u) == sl2_image(v)) == (rep_eval(burau, u) == rep_eval(burau, v))


# --- matrices ------------------------------------------------------------------


def test_matrix_example_sum_to_identity():
    # M + 2*M^-1 + I == I  for M = [[0,-2],[1,0]]
    m = Matrix([[0, -2], [1, 0]])
    total = m + m.inverse().scale(2) + Matrix.identity(2)
    assert total.is_identity()


def test_matrix_square_twist():
    m = Matrix([[0, -2], [1, 0]])
    assert m * m == Matrix.identity(2).scale(-2)
    assert (m * m).scalar_multiple_of_identity() == -2
    assert m.scalar_multiple_of_identity() is None


def test_matrix_power_and_inverse():
    m = Matrix([[0, -2], [1, 0]])
    assert m * m * m * m == Matrix.identity(2).scale(4)  # (-2)^2
    assert m.inverse() == Matrix([[0, 1], [scalar(Fraction(-1, 2)), 0]])


def test_matrix_laurent_inverse_stays_in_ring():
    burau_block = Matrix([[1 - T, T], [1, 0]])
    inv = burau_block.inverse()
    assert (burau_block * inv).is_identity()
    assert inv == Matrix([[0, 1], [T**-1, 1 - T**-1]])


def test_matrix_is_identity_compares_in_place(monkeypatch):
    cases = [
        (Matrix.identity(3), True),
        (Matrix([[1, 0], [0, 2]]), False),  # diagonal, but not the identity
        (Matrix([[1, 0], [0, T]]), False),
        (Matrix([[1, 0], [T, 1]]), False),
        (Matrix.identity(2).scale(-1), False),
        (Matrix([[1 - T, T], [1, 0]]) * Matrix([[1 - T, T], [1, 0]]).inverse(), True),
    ]
    # no fresh identity matrix is built to compare against
    monkeypatch.setattr(Matrix, "identity", None)
    for m, expected in cases:
        assert m.is_identity() is expected


def random_sparse_entry(rng: random.Random):
    """Zero most of the time, else an int, a rational constant or a LaurentPoly
    that may be constant or zero."""
    kind = rng.random()
    if kind < 0.55:
        return 0
    if kind < 0.65:
        return rng.randint(-3, 3)
    if kind < 0.8:
        return scalar(random_fraction(rng))
    exps = rng.sample(range(-2, 3), rng.randint(0, 3))
    return scalar({e: random_fraction(rng) for e in exps})


@pytest.mark.parametrize("seed", range(6))
def test_sparse_matrix_product_matches_dense_sum(seed):
    rng = random.Random(seed)
    for _ in range(60):
        dim = rng.randint(1, 4)
        x, y = (Matrix([[random_sparse_entry(rng) for _ in range(dim)] for _ in range(dim)]) for _ in range(2))
        cols = list(zip(*y.rows))
        dense = [[sum((a * b for a, b in zip(row, col)), ZERO) for col in cols] for row in x.rows]
        product = x * y
        assert product == Matrix(dense)
        # every entry is canonical already: coercing it again changes nothing
        for row in product.rows:
            for entry in row:
                assert as_scalar(entry) is entry


# --- the stored numerators against entrywise LaurentPoly routes ------------------------
#
# The references below compute on `LaurentPoly` entries, one scalar operation at a
# time, apart from the stored numerators: the product skips every pair with a zero
# entry, and a tau image is scale(a) + scale(b) + scale(c), entry by entry.


def reference_product(x_rows, y_rows):
    cols = tuple(zip(*y_rows))
    rows = []
    for row in x_rows:
        nonzero = [(k, a) for k, a in enumerate(row) if a]
        out = []
        for col in cols:
            acc = None
            for k, a in nonzero:
                b = col[k]
                if b:
                    acc = a * b if acc is None else acc + a * b
            out.append(ZERO if acc is None else acc)
        rows.append(out)
    return rows


def reference_scale(s, rows):
    return [[s * a if a else a for a in row] for row in rows]


def reference_sum(x_rows, y_rows):
    return [[a + b if a and b else a or b for a, b in zip(r1, r2)] for r1, r2 in zip(x_rows, y_rows)]


mixed_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6)
mixed_scalars = st.one_of(
    st.just(ZERO),
    mixed_coefficients.map(scalar),
    st.dictionaries(st.integers(-3, 3), mixed_coefficients, max_size=3).map(scalar),
)
mixed_units = st.builds(
    lambda c, e: scalar(c) * T**e, st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 5)]),
    st.integers(-2, 2),
)


def drawn_rows(draw, dim):
    return [[draw(mixed_scalars) for _ in range(dim)] for _ in range(dim)]


def assert_matches(got: Matrix, rows):
    expected = Matrix(rows)
    assert got == expected and hash(got) == hash(expected)
    assert got.rows == tuple(map(tuple, rows)) and got.text() == expected.text()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_matrix_product_matches_entrywise_reference(data):
    dim = data.draw(st.integers(1, 3))
    x_rows, y_rows = drawn_rows(data.draw, dim), drawn_rows(data.draw, dim)
    if dim > 1 and data.draw(st.booleans()):
        # x[0][1] * y[1][0] == -x[0][0] * y[0][0] + x[0][0] * u * w: entry (0, 0)
        # cancels to zero, or loses terms, before the other pairs are added
        u, w = data.draw(mixed_units), data.draw(mixed_scalars)
        x_rows[0][1] = x_rows[0][0] * u
        y_rows[1][0] = -y_rows[0][0] * u**-1 + w
    assert_matches(Matrix(x_rows) * Matrix(y_rows), reference_product(x_rows, y_rows))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_matrix_sum_and_scale_match_entrywise_reference(data):
    dim = data.draw(st.integers(1, 3))
    x_rows = drawn_rows(data.draw, dim)
    # y == -x + w entrywise, for a small w: entries cancel or lose an end term
    y_rows = [[data.draw(st.sampled_from([-a, ZERO])) + data.draw(mixed_scalars) for a in row] for row in x_rows]
    x, y = Matrix(x_rows), Matrix(y_rows)
    assert_matches(x + y, reference_sum(x_rows, y_rows))
    s = data.draw(st.one_of(mixed_scalars, mixed_units))
    assert_matches(x.scale(s), reference_scale(s, x_rows))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tau_image_matches_scale_and_add_reference(data):
    dim = data.draw(st.integers(1, 3))
    m_rows = drawn_rows(data.draw, dim)
    a, c = data.draw(mixed_scalars), data.draw(mixed_scalars)
    if data.draw(st.booleans()):
        # n == -(a / b) * m + w for a unit b: a*m + b*n cancels down to b*w
        b = data.draw(mixed_units)
        n_rows = [[-(a * b**-1) * x + data.draw(mixed_scalars) for x in row] for row in m_rows]
    else:
        b = data.draw(mixed_scalars)
        n_rows = drawn_rows(data.draw, dim)
    one_rows = Matrix.identity(dim).rows
    expected = reference_sum(
        reference_sum(reference_scale(a, m_rows), reference_scale(b, n_rows)), reference_scale(c, one_rows)
    )
    got = linear_combination([(a, Matrix(m_rows)), (b, Matrix(n_rows)), (c, Matrix.identity(dim))])
    assert_matches(got, expected)


def test_matrix_product_rejects_an_entry_past_max_span():
    # t^-k * 1 + t^k * 1 spans 2k + 1 exponents; no numerator list is allocated
    k = MAX_SPAN // 2 + 1
    x = Matrix([[T**-k, T**k], [0, 1]])
    with pytest.raises(ValueError, match=f"spans {2 * k + 1} exponents, more than {MAX_SPAN}"):
        x * Matrix([[1, 0], [1, 0]])


def test_matrix_non_invertible_raises():
    for m, det in [
        (Matrix([[1, 1], [1, 1]]), "0"),
        (Matrix([[1, T], [0, 1 + T]]), "1*t^1 + 1*t^0"),  # det 1+t is not a unit
        (Matrix([[scalar(Fraction(1, 2)), 0], [0, 1 + T]]), "1/2*t^1 + 1/2*t^0"),
    ]:
        with pytest.raises(ValueError) as exc:
            m.inverse()
        assert str(exc.value) == f"matrix not invertible over the scalar ring (det = {det})"


# --- determinant and inverse against sympy ------------------------------------------

t_sym = sympy.Symbol("t")


def scalar_to_sympy(x: LaurentPoly) -> sympy.Expr:
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * t_sym**e for e, c in terms(x).items()))


def matrix_to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix([[scalar_to_sympy(a) for a in row] for row in m.rows])


rational_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(scalar)
laurent_entries = st.one_of(
    rational_entries,
    st.sampled_from([T, -T, 1 - T, T**-1, T + T**-1, 2 * T**2 - 1]),
)
unit_entries = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]).map(scalar),
    st.sampled_from([T, -T, T**-1, 2 * T**2]),
)


@st.composite
def square_matrices(draw):
    """A random rational or Laurent matrix of dimension 1 to 4; half of them
    are L * U with unit diagonals, so that their inverses exist."""
    dim = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([rational_entries, laurent_entries]))
    if not draw(st.booleans()):
        return Matrix([[draw(entries) for _ in range(dim)] for _ in range(dim)])
    lower = [[draw(entries) if c < r else int(c == r) for c in range(dim)] for r in range(dim)]
    upper = [[draw(entries) if c > r else 0 for c in range(dim)] for r in range(dim)]
    for i in range(dim):
        upper[i][i] = draw(unit_entries)
    return Matrix(lower) * Matrix(upper)


@settings(max_examples=50, deadline=None)
@given(square_matrices())
def test_det_and_inverse_match_sympy(m):
    # sympy computes over the fraction field QQ(t) (or QQ), by its own routes
    expected = DomainMatrix.from_Matrix(matrix_to_sympy(m)).to_field()
    field = expected.domain

    def ours(x):
        return field.from_sympy(scalar_to_sympy(x))

    assert ours(m.det()) == expected.det()
    if not is_unit(m.det()):
        with pytest.raises(ValueError):
            m.inverse()
        return
    inv = m.inverse()
    assert [[ours(a) for a in row] for row in inv.rows] == expected.inv().to_list()
    for row in inv.rows:
        for entry in row:
            assert as_scalar(entry) is entry
    # the stored inverse is canonical: rebuilt from its rows it is stored alike
    rebuilt = Matrix(inv.rows)
    assert inv == rebuilt and hash(inv) == hash(rebuilt) and inv.text() == rebuilt.text()


trimmed_nums = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(lambda nums: nums[0] and nums[-1])


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.one_of(st.just([]), trimmed_nums), st.integers(-3, 3), trimmed_nums)
def test_diagonal_subtraction_matches_termwise_difference(a_low, a, low, c):
    # The Faddeev-LeVerrier step subtracts t^low * c from a diagonal entry;
    # against the difference of the {exponent: coefficient} maps, with the
    # entry trimmed at both ends and zero stored as (0, ()).
    entry = (a_low if a else 0, tuple(a))
    expected = {e: x for e, x in enumerate(a, a_low)}
    for e, x in enumerate(c, low):
        expected[e] = expected.get(e, 0) - x
    expected = {e: x for e, x in expected.items() if x}
    got_low, got = _minus(entry, low, tuple(c))
    assert (got[0] and got[-1]) if got else got_low == 0
    assert {e: x for e, x in enumerate(got, got_low) if x} == expected


def elementary(dim: int, i: int, j: int, x) -> Matrix:
    """The identity with x at (i, j), i != j; its determinant is 1."""
    return Matrix([[x if (r, c) == (i, j) else int(r == c) for c in range(dim)] for r in range(dim)])


def assert_zeros_canonical(m: Matrix):
    # a zero entry is stored as (0, ()), never at a shifted exponent
    for row in m._entries:
        for low, nums in row:
            assert nums or low == 0


def test_dense_unimodular_12x12_inverse():
    # a dense product of elementary integer matrices, determinant 1, at a
    # size where a factorial-time route such as cofactor expansion stalls
    rng, dim = random.Random(12), 12
    m = Matrix.identity(dim)
    for _ in range(8 * dim):
        i, j = rng.sample(range(dim), 2)
        m = m * elementary(dim, i, j, rng.choice([-2, -1, 1, 2]))
    assert sum(a == 0 for row in m.rows for a in row) < dim
    inv = m.inverse()
    identity = Matrix.identity(dim)
    assert m * inv == identity == inv * m
    assert m.det() == 1 and inv.det() == 1
    assert_zeros_canonical(inv)


@st.composite
def unimodular_products(draw, dim: int):
    """A product of up to 2 * dim factors of dimension `dim`, each an
    elementary matrix or a diagonal matrix of units, over rational or
    Laurent entries: invertible by construction."""
    entries = draw(st.sampled_from([rational_entries, laurent_entries]))
    m = Matrix.identity(dim)
    for _ in range(draw(st.integers(0, 2 * dim))):
        if dim > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
            m = m * elementary(dim, i, j, draw(entries))
        else:
            m = m * Matrix([[draw(unit_entries) if r == c else 0 for c in range(dim)] for r in range(dim)])
    return m


@st.composite
def matrix_triples(draw):
    """Two invertible products and one matrix of random entries, which may
    be singular, all of one dimension from 1 to 8."""
    dim = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([rational_entries, laurent_entries]))
    dense = Matrix([[draw(entries) for _ in range(dim)] for _ in range(dim)])
    return draw(unimodular_products(dim)), draw(unimodular_products(dim)), dense


@settings(max_examples=25, deadline=None)
@given(matrix_triples())
def test_inverse_is_two_sided_and_det_multiplicative(triple):
    a, b, c = triple
    identity = Matrix.identity(a.dim)
    for m in (a, b, c):
        assert_zeros_canonical(m)
        if not is_unit(m.det()):
            assert m is c
            with pytest.raises(ValueError, match="matrix not invertible over the scalar ring"):
                m.inverse()
            continue
        inv = m.inverse()
        assert m * inv == identity == inv * m
        assert inv.det() * m.det() == 1
        assert_zeros_canonical(inv)
    for x, y in [(a, b), (a, c), (c, b)]:
        assert (x * y).det() == x.det() * y.det()


@settings(max_examples=50, deadline=None)
@given(square_matrices())
def test_matrix_hash_is_stable_and_route_independent(m):
    h = hash(m)
    assert hash(m) == h
    dim = m.dim
    text = "\n".join(",".join(format_scalar(a) for a in row) for row in m.rows)
    routes = [
        Matrix(m.rows),
        Matrix.identity(dim) * m,
        m * Matrix.identity(dim),
        m.scale(1),
        (m + m).scale(scalar(Fraction(1, 2))),
        parse_matrix(text),
        Matrix([
            [scalar(Fraction(format_scalar(a))) if a._low == 0 and len(a._nums) <= 1 else a for a in row]
            for row in m.rows
        ]),
    ]
    for other in routes:
        assert other == m and hash(other) == h == hash(other)


def test_parse_matrix_round_trip():
    m = parse_matrix("0,-2\n1,0\n")
    assert m == Matrix([[0, -2], [1, 0]])
    assert parse_matrix("-t\n") == Matrix([[-T]])
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("1,2\n3\n")


def test_parse_matrix_skips_blank_lines():
    assert parse_matrix("1,0\n\n0,1\n") == Matrix.identity(2)


# --- formal group algebra ----------------------------------------------------------


def test_formal_singleton_convolution():
    # [[2]] has infinite order in GL_1, so its powers are distinct basis elements
    g, ginv, e = Matrix([[2]]), Matrix([[scalar(Fraction(1, 2))]]), Matrix.identity(1)
    z = e
    x = FormalElement(z, [(g, scalar(3)), (e, scalar(5))])
    product = x * FormalElement(z, [(ginv, 1)])
    assert product == FormalElement(z, [(e, 3), (ginv, 5)])


def test_formal_square_expansion():
    # (a[g] + b[g^-1] + c[e])^2 expanded by hand
    z = Matrix.identity(1)

    def g(k: int) -> Matrix:
        return Matrix([[scalar(Fraction(2) ** k)]])

    a, b, c = 2, -3, 5
    x = FormalElement(z, [(g(1), a), (g(-1), b), (g(0), c)])
    expected = FormalElement(
        z,
        [
            (g(2), a * a),
            (g(-2), b * b),
            (g(0), 2 * a * b + c * c),
            (g(1), 2 * a * c),
            (g(-1), 2 * b * c),
        ],
    )
    assert x * x == expected


def test_formal_product_matches_brute_force_oracle():
    rng = random.Random(9)
    s3 = Permutation.identity(3)
    for _ in range(20):
        xs = [(g, scalar(random_fraction(rng))) for g in symmetric_elements(3, rng, 3)]
        ys = [(g, scalar(random_fraction(rng))) for g in symmetric_elements(3, rng, 3)]
        x, y = FormalElement(s3, xs), FormalElement(s3, ys)
        # oracle: double loop over support pairs, collecting by group element
        total: dict[tuple[int, ...], LaurentPoly] = {}
        for g, cg in x.terms():
            for h, ch in y.terms():
                # g after h, composed here on the image tuples
                gh = tuple(g.images[h.images[k]] for k in range(3))
                total[gh] = total.get(gh, ZERO) + cg * ch
        product = x * y
        assert {k.images: v for k, v in product.coeffs.items()} == {k: v for k, v in total.items() if v != 0}


def _products(one, gens, length):
    """The distinct products of at most `length` of `gens`, `one` first."""
    pool, level = [one], [one]
    for _ in range(length):
        level = [g * h for g in level for h in gens]
        pool.extend(g for g in dict.fromkeys(level) if g not in pool)
    return pool


_S3 = Permutation.identity(3)
_GL2 = Matrix.identity(2)
# Each pool holds an identity and elements whose products meet, so terms of a
# product collide and may cancel.  The matrices include singular ones (two of
# rank 1, a nilpotent and zero), under which distinct terms move to one.
FORMAL_POOLS = {
    "perm3": (_S3, _products(_S3, [Permutation.transposition(3, i) for i in (1, 2)], 3)),
    "matrix2": (_GL2, [
        _GL2, Matrix([[0, -2], [1, 0]]), Matrix([[1, 1], [0, 1]]), Matrix([[T, 0], [0, 1]]),
        Matrix([[1, 0], [0, 0]]), Matrix([[1, 1], [0, 0]]), Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [0, 0]]),
    ]),
}
FORMAL_COEFFS = [1, -1, 2, -2, scalar(Fraction(1, 2)), T, -(T**-1), 1 - T]


@pytest.mark.parametrize("group", FORMAL_POOLS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_formal_product_matches_all_pairs_reference(group, data):
    # Zero factors, scaled letters (one term, coefficient not 1) and terms that
    # cancel are all drawn: lists of up to five terms from small pools.
    identity, pool = FORMAL_POOLS[group]
    drawn = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(FORMAL_COEFFS)), max_size=5)
    x, y = FormalElement(identity, data.draw(drawn)), FormalElement(identity, data.draw(drawn))
    product = x * y
    assert formal_terms(product) == formal_product_reference(x, y)
    assert all(type(c) is LaurentPoly and c for z in (x, y, product) for c in z.coeffs.values())


def test_formal_product_edge_cases():
    s3 = Permutation.identity(3)
    t1, t2 = (FormalElement(s3, [(Permutation.transposition(3, i), 1)]) for i in (1, 2))
    one, zero = FormalElement.one(s3), FormalElement(s3)
    g1, g2, h = Matrix.identity(2), Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [0, 0]])
    gl2 = FormalElement.one(g1)
    x, y = FormalElement(g1, [(g1, 2), (g2, 3)]), FormalElement(g1, [(g1, 1), (g2, -1)])
    hh = FormalElement(g1, [(h, 1)])
    cases = [
        # the identity terms of the four pairs cancel
        ((t1 + t2) * (t1 + t2.scale(-1)), t2 * t1 + (t1 * t2).scale(-1)),
        (zero * t1, zero),
        (t1 * zero, zero),
        (t1.scale(2) * t1.scale(scalar(Fraction(1, 2))), one),
        # h has rank 1: I * h == [[1, 1], [0, 1]] * h, so two terms meet
        (x * hh, FormalElement(g1, [(h, 5)])),
        (y * hh, FormalElement(g1)),
        (y * (hh + gl2), y),
    ]
    for got, expected in cases:
        assert got == expected
    for a, b in ((t1 + t2, t1 + t2.scale(-1)), (x, hh), (y, hh), (y, hh + gl2)):
        assert formal_terms(a * b) == formal_product_reference(a, b)


def test_formal_keys_are_group_elements():
    s3 = Permutation.identity(3)
    t1, t2 = Permutation.transposition(3, 1), Permutation.transposition(3, 2)
    x = FormalElement(s3, [(t1, 2), (t2, 3), (t1, -2)])
    assert x.coeffs == {t2: 3}
    y = FormalElement(s3, [(t2, 1), (t2, 2)])
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert FormalElement(s3, [(t1, 1)]).text() == "1 * [2,1,3]"
    gl1 = Matrix.identity(1)
    m = FormalElement(gl1, [(Matrix([[2]]), 1), (Matrix([[-1]]), T)])
    assert m.text() == "1*t^1 * [[-1]] + 1 * [[2]]"
    assert m.terms() == [(Matrix([[-1]]), T), (Matrix([[2]]), 1)]


def test_formal_cancelled_terms_are_purged():
    gl2 = Matrix.identity(2)
    g, h = Matrix([[0, -2], [1, 0]]), Matrix([[1 - T, T], [1, 0]])
    x = FormalElement(gl2, [(g, T), (h, scalar(Fraction(1, 2))), (g, -T), (h, 0), (gl2, 0)])
    assert x.coeffs == {h: scalar(Fraction(1, 2))}
    # a key deleted on cancellation comes back when a later term adds it again
    y = FormalElement(gl2, [(g, T), (g, -T), (g, 3)])
    assert y.coeffs == {g: 3}
    zero = FormalElement(gl2, [(g, 1), (h, T), (g, -1), (h, -T)])
    assert zero == FormalElement(gl2) and zero.coeffs == {} and zero.text() == "0"


def test_formal_identity_and_zero():
    s3 = Permutation.identity(3)
    swap = FormalElement(s3, [(Permutation.transposition(3, 1), 1)])
    assert FormalElement.one(s3).is_identity()
    assert not swap.is_identity()
    zero = FormalElement(s3)
    assert not zero.is_identity()
    assert zero.coeffs == {}
    assert zero == swap + swap.scale(-1) and zero.text() == "0"


def test_formal_identity_over_matrices(monkeypatch):
    gl2 = Matrix.identity(2)
    diagonal = Matrix([[1, 0], [0, 2]])
    one, other = FormalElement.one(gl2), FormalElement(gl2, [(diagonal, 1)])
    assert one.identity is other.identity is gl2
    # each element holds its identity: the test builds no matrix
    monkeypatch.setattr(Matrix, "identity", None)
    assert one.is_identity()
    assert not other.is_identity()
    assert not FormalElement(gl2, [(gl2, 2)]).is_identity()
    assert not (one + other).is_identity()


def test_formal_embed_inverse_cancels():
    rng = random.Random(4)
    s4 = Permutation.identity(4)
    for g in symmetric_elements(4, rng, 8):
        assert (FormalElement(s4, [(g, 1)]) * FormalElement(s4, [(invert(g), 1)])).is_identity()


def test_formal_backend_mismatch_raises():
    s3 = FormalElement.one(Permutation.identity(3))
    # equal identities held as two objects are one group
    assert s3 * FormalElement.one(Permutation.identity(3)) == s3
    with pytest.raises(ValueError):
        s3 + FormalElement.one(Permutation.identity(4))
    with pytest.raises(ValueError):
        FormalElement.one(Matrix.identity(2)) * FormalElement.one(Matrix.identity(3))
    with pytest.raises(ValueError):
        s3 * FormalElement.one(Matrix.identity(3))
    with pytest.raises(ValueError):
        s3 * Matrix.identity(2)


# --- twisted cyclic algebra --------------------------------------------------------


def test_cyclic_square_reduces_via_twist():
    x = CyclicElement.x_power(2, -2, 1)
    assert x * x == CyclicElement(2, scalar(-2), (scalar(-2), scalar(0)))
    assert x * x * x * x == CyclicElement(2, scalar(-2), (scalar(4), scalar(0)))


def test_cyclic_negative_x_powers():
    x_inv = CyclicElement.x_power(2, -2, -1)
    x = CyclicElement.x_power(2, -2, 1)
    assert (x * x_inv).is_identity()
    assert x_inv == CyclicElement(2, scalar(-2), (scalar(0), scalar(Fraction(-1, 2))))


def test_cyclic_is_identity():
    assert CyclicElement.one(3, 5).is_identity()
    assert not CyclicElement.x_power(3, 5, 1).is_identity()
    assert not CyclicElement(3, scalar(5), (scalar(0),) * 3).is_identity()


def test_cyclic_matches_matrix_power_span():
    # X^i -> M^i is an algebra isomorphism when M^s = twist * I with s minimal
    rng = random.Random(12)
    m = Matrix([[0, -2], [1, 0]])
    s, twist = 2, scalar(-2)

    def to_matrix(v: CyclicElement) -> Matrix:
        acc, m_i = Matrix([[0, 0], [0, 0]]), Matrix.identity(2)
        for coeff in v.coords:
            acc = acc + m_i.scale(coeff)
            m_i = m_i * m
        return acc

    for _ in range(20):
        u = CyclicElement(s, twist, tuple(scalar(random_fraction(rng)) for _ in range(s)))
        v = CyclicElement(s, twist, tuple(scalar(random_fraction(rng)) for _ in range(s)))
        assert to_matrix(u * v) == to_matrix(u) * to_matrix(v)
        assert to_matrix(u + v) == to_matrix(u) + to_matrix(v)


def test_cyclic_mismatch_raises():
    with pytest.raises(ValueError):
        CyclicElement.one(2, -2) * CyclicElement.one(3, -2)
    with pytest.raises(ValueError):
        CyclicElement.one(2, -2) * CyclicElement.one(2, 5)


# --- generic bilinearity across backends -----------------------------------------------


@pytest.mark.parametrize("seed", [21, 22])
def test_backend_algebra_axioms(seed):
    rng = random.Random(seed)
    s3 = Permutation.identity(3)
    formal = [
        FormalElement(s3, [(g, scalar(random_fraction(rng))) for g in symmetric_elements(3, rng, 2)])
        for _ in range(3)
    ]
    mats = [Matrix([[scalar(random_fraction(rng)) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
    cyc = [
        CyclicElement(2, scalar(-2), (scalar(random_fraction(rng)), scalar(random_fraction(rng))))
        for _ in range(3)
    ]
    for x, y, z in (formal, mats, cyc):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        s = scalar(random_fraction(rng))
        assert (x + y).scale(s) == x.scale(s) + y.scale(s)
        assert x.scale(s) * y == (x * y).scale(s)


# --- input checks ------------------------------------------------------------------

_ONE2 = Matrix.identity(2)
_ONE3 = Matrix.identity(3)

BAD_INPUT_CASES = [
    ("matrix-add-dims", lambda: _ONE2 + _ONE3, "dimension mismatch: 2 vs 3"),
    ("matrix-mul-dims", lambda: _ONE3 * _ONE2, "dimension mismatch: 3 vs 2"),
    # CyclicElement.x_power checks order and twist first, so only direct
    # construction reaches the element's own checks
    ("cyclic-order-0", lambda: CyclicElement(0, scalar(1), ()), "need order >= 1"),
    ("cyclic-twist-0", lambda: CyclicElement(1, scalar(0), (scalar(1),)), "twist must be a unit"),
    ("cyclic-coords", lambda: CyclicElement(2, scalar(-2), (scalar(1),)), "need 2 coordinates, got 1"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_is_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
