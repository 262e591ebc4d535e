"""Record classes keep value semantics: pickle, deepcopy, hash and read-only fields.

Seven records are NamedTuples; ZnElement is a slotted class that validates
on construction and equals only its own class.
"""

import copy
import pickle

import pytest

from starinv import (
    ExactMatrix,
    OneMPAboveForm,
    PlusBlockData,
    RingMismatch,
    TheoremReport,
    ZnElement,
    dagger,
    family_1mp,
    full_rank_factorize,
    leq_minus,
    one_mp,
    penrose_profile,
)

A = ExactMatrix.from_rows([[1, 2], [2, 4]])
P = ExactMatrix.from_rows([[1, 0], [0, 0]])
Q = ExactMatrix.from_rows([[1, 1], [0, 0]])
Z = ExactMatrix.zeros(2, 2)

# record, the names of its fields in order
RECORDS = {
    "OrderVerdict": (leq_minus(P, ExactMatrix.identity(2)), ("holds", "witness", "method", "reason")),
    "OneMPAboveForm": (OneMPAboveForm(Q, Z), ("b4", "d")),
    "PlusBlockData": (PlusBlockData(P, Q, Z, A, P), ("b22", "y", "x", "w", "z")),
    "RankFactorization": (
        full_rank_factorize(A),
        ("f", "g", "pivots", "r"),
    ),
    "PenroseProfile": (penrose_profile(A, dagger(A)), ("eq1", "eq2", "eq3", "eq4")),
    "InverseFamily": (
        family_1mp(A, one_mp(A, dagger(A))),
        ("kind", "a", "base", "left", "right"),
    ),
    "TheoremReport": (
        TheoremReport("one_mp_closure", "z6", 36, (("2", "3"),), 0.5, ("note",)),
        ("theorem", "ring", "checked", "violations", "elapsed", "notes", "sampled"),
    ),
    "ZnElement": (ZnElement(15, 12), ("value", "modulus")),
}


def field_tuple(name):
    record, fields = RECORDS[name]
    return tuple(getattr(record, f) for f in fields)


def test_every_record_is_its_class_by_name():
    assert sorted(type(record).__name__ for record, _ in RECORDS.values()) == sorted(RECORDS)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name, protocol):
    record = RECORDS[name][0]
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and back == record


@pytest.mark.parametrize("name", RECORDS)
def test_deepcopy_is_equal(name):
    record = RECORDS[name][0]
    clone = copy.deepcopy(record)
    assert type(clone) is type(record) and clone == record


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_field_tuple_hash(name):
    assert hash(RECORDS[name][0]) == hash(field_tuple(name))


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_raises(name):
    record, fields = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    assert getattr(record, fields[0]) == field_tuple(name)[0]


class TestSlottedRecords:
    def test_zn_element_reduces_and_equals_only_its_class(self):
        z = ZnElement(3, 12)
        assert ZnElement(15, 12) == z and hash(ZnElement(15, 12)) == hash((3, 12))
        assert z != (3, 12) and (3, 12) != z
        assert z != ZnElement(3, 13)

    def test_int_times_zn_element_raises(self):
        with pytest.raises(TypeError):
            3 * ZnElement(3, 12)
        with pytest.raises(RingMismatch):
            ZnElement(3, 12) * 3

    def test_deletion_raises(self):
        with pytest.raises(AttributeError):
            del ZnElement(3, 12).value

    def test_validation_on_construction_and_unpickling(self):
        with pytest.raises(ValueError, match="modulus n >= 2"):
            ZnElement(3, 1)
        assert pickle.loads(pickle.dumps(ZnElement(-1, 12))).value == 11

    def test_repr(self):
        assert repr(ZnElement(3, 12)) == "3 (mod 12)"
