"""The library's immutable records: value semantics, frozen fields, and the
constructor checks of the three records that validate their fields."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from smbraid.algebra import CyclicElement, Matrix
from smbraid.analysis import DistinctnessCertificate, KernelReport, UnfaithfulnessWitness
from smbraid.phi import PhiParams, RelationCheck, RelationReport
from smbraid.scalars import T, as_scalar
from smbraid.words import (
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
    "PhiParams": (lambda: PhiParams.of(Fraction(1, 2), T, 0), "a"),
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
    "CyclicElement": (lambda: CyclicElement(2, Fraction(-2), (as_scalar(Fraction(1, 2)), as_scalar(T))), "coords"),
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
    assert CyclicElement(1, Fraction(1), (as_scalar(1),)) != (1, as_scalar(1), (as_scalar(1),))


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
        CyclicElement(0, Fraction(1), ())
    with pytest.raises(ValueError, match=r"^twist must be a unit$"):
        CyclicElement(1, Fraction(0), (as_scalar(1),))
    with pytest.raises(ValueError, match=r"^need 2 coordinates, got 1$"):
        CyclicElement(2, Fraction(1), (as_scalar(1),))


def test_reprs_are_pinned():
    assert repr(SMWord(3, (sigma(1), tau(2)))) == "SMWord(3, 's1 t2')"
    assert repr(SMWord(2)) == "SMWord(2, '')"
    assert repr(SM2NormalForm(2, -1)) == "SM2NormalForm(p=2, q=-1)"
    assert repr(ShapeForm(2, 1, 0, ())) == "ShapeForm(n=2, p=1, q=0, blocks=())"
