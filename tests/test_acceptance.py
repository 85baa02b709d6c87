"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line with its elapsed time (run pytest with -s to see
them) and enforces the stated wall-clock budget.  Derived expected values are
recomputed inside the tests from independent routes (plain Fraction
arithmetic, brute-force grids, hand-expanded formulas) rather than trusted
from the implementation under test.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import random_braid_word, random_sm_word, scalar
from smbraid.algebra import Matrix
from smbraid.analysis import (
    compare_matrix_cyclic_kernels,
    conjugation_kernel_check,
    distinctness_certificate,
    find_scalar_witness,
    kernel_search_sm2,
    nonscalar_power_check,
    scalar_kernel_criterion,
    scalar_kernel_hits,
    scalar_power_witness,
    sm3_word_equality,
    unit_power_witness,
    verify_cyclic_structure,
)
from smbraid.phi import Extension, PhiParams, check_relations, tau_power_direct, tau_power_expand
from smbraid.reps import burau_reduced, burau_unreduced, permutation_rep, rep_eval, scalar_char
from smbraid.scalars import LaurentPoly, T
from smbraid.words import (
    ShapeForm,
    SMWord,
    conjugate,
    decompose_tau_blocks,
    defining_relations,
    parse_word,
    permutation_image,
    sigma_exponent_sum,
    sigma_power,
    sm2_normal_form,
    tau_count,
    tau_power,
    to_s1x_generators,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail: str = "") -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s (budget {self.seconds}s)"
        suffix = f" -- {detail}" if detail else ""
        print(f"PASS {self.name} [{elapsed:.2f}s]{suffix}")


def random_rational(rng: random.Random, nonzero: bool = False) -> LaurentPoly:
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if value != 0 or not nonzero:
            return scalar(value)


def random_params(rng: random.Random, nonzero: bool = False) -> PhiParams:
    return PhiParams.of(
        random_rational(rng, nonzero), random_rational(rng, nonzero), random_rational(rng, nonzero)
    )


def test_criterion_01_relations_well_defined():
    budget = Budget("criterion 1 (relations define an SM_n representation)", 30)
    rng = random.Random(101)
    reps = [
        burau_unreduced(2),
        burau_unreduced(3),
        burau_unreduced(4),
        burau_reduced(3),
        permutation_rep(4),
        scalar_char(2, 3),
    ]
    checked = 0
    for rep in reps:
        for _ in range(20):
            report = check_relations(rep, random_params(rng))
            assert report.all_pass, f"{rep.name}: {report.failures()}"
            assert report.families_passed() == 7
            checked += len(report.checks)
    budget.done(f"{checked} relation instances, 6 representations x 20 parameter triples")


def test_criterion_02_all_zero_parameters():
    budget = Budget("criterion 2 (zero parameters collapse tau words)", 1)
    rep = burau_reduced(2)
    params = PhiParams.of(0, 0, 0)
    w1, w2 = parse_word("t1 s1", 2), parse_word("t1", 2)
    ext = Extension(rep, params)
    img1, img2 = rep_eval(ext, w1), rep_eval(ext, w2)
    assert img1 == img2 == Matrix([[0]])
    nf1, nf2 = sm2_normal_form(w1), sm2_normal_form(w2)
    assert (nf1.p, nf1.q) == (1, 1) and (nf2.p, nf2.q) == (1, 0)
    assert nf1 != nf2
    budget.done("equal zero images, normal forms (1,1) != (1,0)")


def test_criterion_03_root_of_unity_witnesses():
    budget = Budget("criterion 3 (root-of-unity witnesses, all three slots)", 1)
    rep = burau_reduced(3)
    wa = unit_power_witness(rep, "a00", -1, 2)
    assert wa.w1 == tau_power(3, 1, 2) and wa.w2 == sigma_power(3, 1, 2)
    assert wa.certificate.kind == "tau-count"
    assert wa.image == rep_eval(rep, sigma_power(3, 1, 2))

    wb = unit_power_witness(rep, "0b0", -1, 2)
    assert wb.w1 == tau_power(3, 1, 2) and wb.w2 == sigma_power(3, 1, -2)
    assert wb.image == rep_eval(rep, sigma_power(3, 1, -2))

    wc = unit_power_witness(rep, "00c", 1, 1)
    assert wc.w1 == tau_power(3, 1, 1) and len(wc.w2) == 0
    assert wc.image.is_identity()
    budget.done("tau_1^2 vs s1^2, s1^-2, and tau_1 vs empty word")


def test_criterion_04_scalar_power_witness_search():
    budget = Budget("criterion 4 (scalar-power witness search)", 5)
    rep = scalar_char(2, 2)
    hit = find_scalar_witness(rep, 2, 4, 4)
    assert hit is not None
    v, s = hit
    assert v == sigma_power(2, 1, -1) and s == 1
    witness = scalar_power_witness(rep, "a00", 2, v, s)
    assert witness.image == rep.one().scale(2)
    assert rep_eval(Extension(rep, PhiParams.of(2, 0, 0)), witness.w1) == rep.one().scale(2)
    budget.done("found (S1, 1); both witness images equal 2*identity")


def test_criterion_05_sm2_kernel_structure():
    budget = Budget("criterion 5 (SM_2 kernel grids and cyclic structure)", 10)
    rep = scalar_char(2, 2)

    report = kernel_search_sm2(rep, PhiParams.of(2, 0, 0), 6, 12)
    expected = {(p, q) for p in range(1, 7) for q in range(-12, 13)
                if Fraction(4) ** p * Fraction(2) ** q == 1}
    assert expected == {(m, -2 * m) for m in range(1, 7)}
    assert set(report.hits) == expected
    assert report.minimal_generator == (1, -2)
    assert verify_cyclic_structure(report) and report.cyclic_structure_verified

    report = kernel_search_sm2(rep, PhiParams.of(1, 0, -3), 6, 12)
    expected = {(p, q) for p in range(1, 7) for q in range(-12, 13)
                if Fraction(-1) ** p * Fraction(2) ** q == 1}
    assert expected == {(2 * m, 0) for m in range(1, 4)}
    assert set(report.hits) == expected
    assert report.minimal_generator == (2, 0)
    assert verify_cyclic_structure(report) and report.cyclic_structure_verified
    budget.done("hits {(m,-2m)} minimal (1,-2); hits {(2m,0)} minimal (2,0); cyclic true")


def test_criterion_06_nonscalar_image_evidence():
    budget = Budget("criterion 6 (non-scalar image: no kernel hits in bounds)", 60)
    rep = burau_unreduced(2)
    assert nonscalar_power_check(rep, 8)
    rng = random.Random(106)
    tested = [PhiParams.of(1, -1, 0)] + [random_params(rng, nonzero=True) for _ in range(10)]
    for params in tested:
        report = kernel_search_sm2(rep, params, 4, 8)
        assert report.hits == (), f"unexpected hit for {params.text()}"
    budget.done("no scalar power up to 8; 11 parameter triples, empty grids p<=4 |q|<=8")


def test_criterion_07_multinomial_formula():
    budget = Budget("criterion 7 (multinomial expansion vs direct powering)", 60)
    rng = random.Random(107)
    ds = [2, scalar(Fraction(1, 2)), -1, -T]
    triples = [random_params(rng) for _ in range(20)]
    for params in triples:
        for d in ds:
            for p in range(9):
                for q in range(-8, 9):
                    assert tau_power_expand(params, d, p, q) == tau_power_direct(params, d, p, q)
    # criterion/search agreement across all four characters
    for params in triples[:8]:
        for d in ds:
            hits = scalar_kernel_hits(params, d, 4, 8)
            report = kernel_search_sm2(scalar_char(d, 2), params, 4, 8)
            assert hits == tuple(h for h in report.hits if h[0] >= 1)
            assert scalar_kernel_criterion(params, d, 4, 8) == report.minimal_generator
    budget.done("20 triples x 4 characters x p<=8 x |q|<=8; criterion == grid search")


def test_criterion_08_matrix_vs_cyclic_backends():
    budget = Budget("criterion 8 (matrix vs twisted-cyclic kernel comparison)", 10)
    m = Matrix([[0, -2], [1, 0]])
    assert m * m == Matrix.identity(2).scale(-2)

    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, -2, PhiParams.of(1, 2, 1), 5, 6)
    assert equal
    assert mr.minimal_generator == (1, 0) and cr.minimal_generator == (1, 0)
    assert (m + m.inverse().scale(2) + Matrix.identity(2)).is_identity()

    mr, cr, equal = compare_matrix_cyclic_kernels(m, 2, -2, PhiParams.of(1, -1, 0), 5, 6)
    assert equal and mr.hits == () and cr.hits == ()
    budget.done("(1,2,1): both minimal (1,0); (1,-1,0): both empty")


def test_criterion_09_conjugation_and_shape_stripping():
    budget = Budget("criterion 9 (kernel conjugates and shape stripping)", 30)
    rng = random.Random(109)
    rep = scalar_char(2, 3)
    params = PhiParams.of(2, 0, 0)
    ext = Extension(rep, params)
    v = parse_word("t1 S1 S1", 3)
    assert rep_eval(ext, v).is_identity()

    for _ in range(50):
        m = rng.randint(1, 3)
        power: SMWord = v
        for _ in range(m - 1):
            power = power * v
        u = random_braid_word(rng, 3, 6)
        assert conjugation_kernel_check(rep, params, power, [u])
        assert rep_eval(ext, conjugate(power, u)).is_identity()

    for _ in range(50):
        blocks = tuple(
            (0, rng.randint(0, 3), random_braid_word(rng, 3, 4)) for _ in range(rng.randint(1, 3))
        )
        sf = ShapeForm(3, 1, -2, blocks)
        assembled, stripped = sf.assemble(), sf.strip()
        assert rep_eval(ext, assembled) == rep_eval(ext, stripped)
    budget.done("50 conjugates of v^m stay in kernel; 50 shape strips image-equal")


def test_criterion_10_block_decomposition_and_two_generators():
    budget = Budget("criterion 10 (block decomposition and two-generator rewrite)", 30)
    rng = random.Random(110)
    oracles = [
        Extension(burau_unreduced(3), PhiParams.of(1, -1, 0)),
        Extension(permutation_rep(3), PhiParams.of(1, -1, 0)),
    ]
    for _ in range(200):
        w = random_sm_word(rng, 3, 8)
        rewritten = [
            decompose_tau_blocks(w).assemble(),
            parse_word(" ".join(to_s1x_generators(w)), 3),
        ]
        for other in rewritten:
            assert tau_count(other) == tau_count(w)
            assert sigma_exponent_sum(other) == sigma_exponent_sum(w)
            assert permutation_image(other) == permutation_image(w)
            for ext in oracles:
                assert rep_eval(ext, other) == rep_eval(ext, w)
    budget.done("200 random SM_3 words, both rewrites, both oracles, all invariants")


def test_criterion_11_birman_instance():
    budget = Budget("criterion 11 (faithful-instance consistency)", 30)
    report = kernel_search_sm2(burau_reduced(2), PhiParams.of(1, -1, 0), 5, 10)
    assert report.hits == () and report.minimal_generator is None

    relation_count = 0
    for inst in defining_relations(3):
        assert sm3_word_equality(inst.lhs, inst.rhs)
        relation_count += 1

    rng = random.Random(111)
    separated = 0
    while separated < 20:
        w1 = random_sm_word(rng, 3, 6)
        w2 = random_sm_word(rng, 3, 6)
        if distinctness_certificate(w1, w2) is None:
            continue
        assert not sm3_word_equality(w1, w2)
        separated += 1
    budget.done(f"empty kernel grid; {relation_count} defining relations true; 20 separated pairs false")
