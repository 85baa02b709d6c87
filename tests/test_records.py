"""The library's immutable records: value semantics, frozen fields, and the
constructor checks of the three records that validate their fields."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import scalar
from smbraid.algebra import CyclicElement, FormalElement, Matrix, Permutation
from smbraid.analysis import DistinctnessCertificate, KernelReport, UnfaithfulnessWitness
from smbraid.phi import PhiParams, RelationCheck, RelationReport
from smbraid.scalars import T, as_scalar
from smbraid.words import (
    GenLetter,
    RelationInstance,
    ShapeForm,
    SM2NormalForm,
    SMWord,
    TauBlockForm,
    parse_word,
    sigma,
    tau,
)


def _relation_check() -> RelationCheck:
    return RelationCheck(5, "tau-sigma same-index commutation", (1,), parse_word("t1 s1", 2), parse_word("s1 t1", 2), True)


# Each record, built twice from equal but separately made fields, and a field
# to assign to.
RECORDS = {
    "SMWord": (lambda: SMWord(3, (sigma(1), tau(2))), "letters"),
    "SM2NormalForm": (lambda: SM2NormalForm(2, -1), "q"),
    "TauBlockForm": (lambda: TauBlockForm(3, parse_word("s1", 3), ((2, parse_word("S2", 3)),)), "blocks"),
    "ShapeForm": (lambda: ShapeForm(2, 2, 1, ((1, 3, parse_word("s1", 2)),)), "p"),
    "RelationInstance": (lambda: RelationInstance(3, "tau far commutation", (1, 3), parse_word("t1 t3", 4), parse_word("t3 t1", 4)), "lhs"),
    "PhiParams": (lambda: PhiParams.of(scalar(Fraction(1, 2)), T, 0), "a"),
    "RelationCheck": (_relation_check, "passed"),
    "RelationReport": (lambda: RelationReport(PhiParams.of(1, -1, 0), (_relation_check(),)), "checks"),
    "DistinctnessCertificate": (lambda: DistinctnessCertificate("permutation", (1, 0, 2), (0, 1, 2)), "left"),
    "UnfaithfulnessWitness": (
        lambda: UnfaithfulnessWitness(
            parse_word("t1 S1", 2),
            parse_word("s1", 2),
            DistinctnessCertificate("tau-count", 1, 0),
            Matrix([[2]]),
            PhiParams.of(2, 0, 0),
        ),
        "image",
    ),
    "KernelReport": (lambda: KernelReport(6, 12, ((1, -2), (2, -4)), (1, -2), True), "hits"),
    "CyclicElement": (lambda: CyclicElement(2, scalar(-2), (scalar(Fraction(1, 2)), as_scalar(T))), "coords"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_values_and_hashes(name):
    make, _ = RECORDS[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    make, field = RECORDS[name]
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    assert getattr(x, field) == before


@pytest.mark.parametrize("name", ["SMWord", "ShapeForm", "CyclicElement"])
def test_validating_records_copy_and_pickle_as_values(name):
    make, field = RECORDS[name]
    x = make()
    with pytest.raises(AttributeError):
        delattr(x, field)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)


def test_records_of_different_classes_differ():
    # The validating records compare by class as well as by fields.
    assert SMWord(2) != ShapeForm(2, 1, 0, ())
    assert SMWord(2, (sigma(1),)) != (2, (sigma(1),))
    assert CyclicElement(1, scalar(1), (as_scalar(1),)) != (1, as_scalar(1), (as_scalar(1),))


def test_plain_records_are_tuples_of_their_fields():
    assert SM2NormalForm(2, -1) == (2, -1)
    assert tuple(PhiParams.of(1, 2, 3)) == (as_scalar(1), as_scalar(2), as_scalar(3))
    assert _relation_check()[-1] is True


def test_kernel_report_is_always_bounded():
    report = KernelReport(1, 1, (), None, None)
    assert report.bounded is True and KernelReport.bounded is True
    assert report.to_dict()["bounded"] is True


def test_smword_checks_its_fields():
    with pytest.raises(ValueError, match=r"^need n >= 2, got 1$"):
        SMWord(1)
    with pytest.raises(ValueError, match=r"^letter s3 out of range for n=3$"):
        SMWord(3, (sigma(1), sigma(3)))
    with pytest.raises(ValueError, match=r"^letter t0 out of range for n=2$"):
        SMWord(2, (tau(0),))


def test_shape_form_checks_its_fields():
    with pytest.raises(ValueError, match=r"^reference pair needs p >= 1$"):
        ShapeForm(2, 0, 1, ())
    with pytest.raises(ValueError, match=r"^block \(2, 0\) violates 0 <= r < p, m >= 0$"):
        ShapeForm(2, 2, 1, ((2, 0, SMWord(2)),))
    with pytest.raises(ValueError, match=r"^block \(0, -1\) violates 0 <= r < p, m >= 0$"):
        ShapeForm(2, 2, 1, ((0, -1, SMWord(2)),))


def test_cyclic_element_checks_its_fields():
    with pytest.raises(ValueError, match=r"^need order >= 1$"):
        CyclicElement(0, scalar(1), ())
    with pytest.raises(ValueError, match=r"^twist must be a unit$"):
        CyclicElement(1, scalar(0), (as_scalar(1),))
    with pytest.raises(ValueError, match=r"^need 2 coordinates, got 1$"):
        CyclicElement(2, scalar(1), (as_scalar(1),))


def test_reprs_are_pinned():
    assert repr(SMWord(3, (sigma(1), tau(2)))) == "SMWord(3, 's1 t2')"
    assert repr(SMWord(2)) == "SMWord(2, '')"
    assert repr(SM2NormalForm(2, -1)) == "SM2NormalForm(p=2, q=-1)"
    assert repr(ShapeForm(2, 1, 0, ())) == "ShapeForm(n=2, p=1, q=0, blocks=())"
    x = CyclicElement(3, scalar(Fraction(1, 2)), (scalar(2), as_scalar(0), -T))
    assert repr(x) == "CyclicElement(order=3, twist=1/2, [2,0,-1*t^1])"
    assert x.text() == "2*X^0 + 0*X^1 + -1*t^1*X^2"
    assert repr(Matrix([[1, -T], [0, scalar(Fraction(1, 2))]])) == "Matrix([[1,-1*t^1],[0,1/2]])"
    swap, e = Permutation((1, 0, 2)), Permutation((0, 1, 2))
    assert repr(swap) == "Permutation([2,1,3])"
    assert repr(FormalElement(e, [(swap, 2), (e, -T)])) == "FormalElement(-1*t^1 * [1,2,3] + 2 * [2,1,3])"
    assert repr(FormalElement(e)) == "FormalElement(0)"


def test_elements_and_ints_do_not_mix():
    for x in (Matrix.identity(2), Permutation((1, 0)), SMWord(2, (sigma(1),))):
        with pytest.raises(TypeError):
            x * 1
    with pytest.raises(TypeError):
        Matrix.identity(2) + 1
    assert (FormalElement.one(Permutation((0, 1))) == 1) is False


# Each validating record, from its sequence field, with that field's items.
SEQUENCE_FIELDS = {
    "SMWord": (lambda seq: SMWord(3, seq), "letters", (sigma(1), tau(2), sigma(1))),
    "ShapeForm": (lambda seq: ShapeForm(2, 2, 1, seq), "blocks", ((0, 0, parse_word("s1", 2)), (1, 3, SMWord(2)))),
    "CyclicElement": (lambda seq: CyclicElement(2, scalar(-2), seq), "coords", (scalar(Fraction(1, 2)), as_scalar(T))),
}


@pytest.mark.parametrize("name", SEQUENCE_FIELDS)
def test_sequence_fields_are_stored_as_tuples(name):
    make, field, items = SEQUENCE_FIELDS[name]
    ref = make(items)
    for x in (make(list(items)), make(iter(items)), make(item for item in items)):
        assert getattr(x, field) == items and type(getattr(x, field)) is tuple
        assert x == ref and hash(x) == hash(ref)


def test_smword_rejects_unknown_letter_kinds():
    for kind in ("q", "T", "", "st"):
        with pytest.raises(ValueError, match=rf"^letter {kind}1 has unknown kind '{kind}'$"):
            SMWord(2, (sigma(1), GenLetter(kind, 1)))


def test_shape_form_stores_each_block_as_a_tuple():
    u = parse_word("s1", 2)
    ref = ShapeForm(2, 2, 1, ((1, 3, u), (0, 0, SMWord(2))))
    for blocks in ([[1, 3, u], [0, 0, SMWord(2)]], [iter((1, 3, u)), (0, 0, SMWord(2))]):
        x = ShapeForm(2, 2, 1, blocks)
        assert all(type(block) is tuple for block in x.blocks)
        assert x == ref and hash(x) == hash(ref)
