"""The package's values are `rational.Record`s: each keeps the constructor,
equality, hash and repr a frozen dataclass with the same fields would have."""

import copy
import pickle
from dataclasses import make_dataclass

import pytest

from sp4solvable.catalog import DEFAULT_PARAM_SAMPLES, load_catalog
from sp4solvable.identify import DeGraafClass, QuadraticValue, SWClass
from sp4solvable.invariants import InvariantSignature, PencilStrata
from sp4solvable.jordan import JordanDecomposition, OrbitLabel
from sp4solvable.rational import Q, Record
from sp4solvable.sp4 import X_ALPHA, DiagonalElement, T, standard_subalgebra
from sp4solvable.structure import Subalgebra
from sp4solvable.verify import CheckRecord, VerificationReport

VALUES = [
    (DeGraafClass, ("M7", (Q(1), Q(-3)))),
    (SWClass, ("s_{4,3}", (Q(1, 2), Q(2)))),
    (QuadraticValue, (Q(1), Q(-1, 2), Q(5), True)),
    (PencilStrata, (2, ((1, 2),))),
    (InvariantSignature, (2, (2, 0), 1, (1,), "mixed", None)),
    (JordanDecomposition, (T(1, 2), X_ALPHA)),
    (OrbitLabel, (1, "T_ab", {"a": Q(3), "b": Q(2)})),
    (DiagonalElement, (Q(1), Q(-2))),
    (CheckRecord, ("d1_T_a1", "2", "solvable", "pass", "ok")),
]


@pytest.mark.parametrize("cls, args", VALUES, ids=[c.__name__ for c, _ in VALUES])
def test_a_value_is_a_frozen_record(cls, args):
    names = cls.__slots__
    value = cls(*args)
    reference = make_dataclass(cls.__name__, names, frozen=True)(*args)
    assert isinstance(value, Record)
    assert value == cls(**dict(zip(names, args))) == value.replace()
    assert value != reference and value != args
    assert repr(value) == repr(reference)
    assert [getattr(value, n) for n in names] == list(args)
    if cls is not OrbitLabel:  # a dict field: the label hashes its items
        assert hash(value) == hash(reference) == hash(cls(*args))
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value and type(copied) is cls
    other = value.replace(**{names[0]: "changed"})
    assert other != value and getattr(other, names[0]) == "changed"
    with pytest.raises(AttributeError):
        setattr(value, names[-1], None)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    with pytest.raises(AttributeError):
        value.comment = "x"
    with pytest.raises(TypeError):
        cls(*args, "extra")
    with pytest.raises(TypeError):
        cls(*args[:1], **{names[0]: args[0]})
    with pytest.raises(TypeError):
        value.replace(colour="red")


def test_a_catalog_row_survives_pickle_and_copy():
    row = next(e for e in load_catalog() if e.equivalences)
    for copied in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert copied == row and hash(copied) == hash(row)
        assert copied.equivalences[0] == row.equivalences[0]


def test_the_defaults_are_kept():
    assert DeGraafClass("K2") == DeGraafClass("K2", ()) == DeGraafClass(family="K2")
    assert SWClass("n_{1,1}").params == ()
    assert QuadraticValue(1, 2, 3).imaginary is False
    assert CheckRecord("r", "-", "c", "pass").detail == ""
    assert OrbitLabel(1, "zero").params == {}
    assert OrbitLabel(1, "zero").params is not OrbitLabel(1, "zero").params
    with pytest.raises(TypeError):
        DeGraafClass()


def test_an_orbit_label_ignores_the_key_order_of_its_params():
    ab = OrbitLabel(1, "T_ab", {"a": Q(3), "b": Q(2)})
    ba = OrbitLabel(1, "T_ab", {"b": Q(2), "a": Q(3)})
    assert ab == ba and hash(ab) == hash(ba) and len({ab, ba}) == 1
    assert ab.to_json() == {"table": 1, "row": "T_ab", "params": {"a": "3", "b": "2"}}
    assert ab != OrbitLabel(1, "T_ab", {"a": Q(2), "b": Q(3)})


def test_the_stateful_classes_keep_their_interfaces():
    b = standard_subalgebra("b")
    sub = Subalgebra(b)
    assert sub == Subalgebra(standard_subalgebra("b")) and hash(sub) == hash(Subalgebra(b))
    assert sub != Subalgebra(standard_subalgebra("n")) and sub != b
    assert sub.constants is sub.constants
    assert VerificationReport().records == [] and VerificationReport().samples == DEFAULT_PARAM_SAMPLES
    records = [CheckRecord("r", "-", "c", "fail")]
    rep = VerificationReport(records, (Q(2),))
    assert rep.records is records and rep.samples == (Q(2),) and not rep.overall_pass
    assert VerificationReport(samples=(Q(3),)).samples == (Q(3),)
