"""The package's immutable record types: field equality, hashing, and no
assignment after construction."""

import copy
import pickle

import pytest

from admgci import (
    CiStatement,
    InputError,
    InternalError,
    PartialCorrTest,
    PrunedStatement,
    ReducedBasis,
)


def st(x, z, y):
    return CiStatement(list(x), list(z), list(y))


def make(kind):
    """Two equal instances of each record type, built separately."""
    return {
        "statement": lambda: st("a", "d", "e"),
        "pruned": lambda: PrunedStatement(st("a", "d", "e"), 0),
        "basis": lambda: ReducedBasis(("a", "d", "e"), (st("a", "d", "e"),), ("reduced-form",), ()),
        "test": lambda: PartialCorrTest("a", "e", frozenset("d"), 0),
    }[kind]()


KINDS = ["statement", "pruned", "basis", "test"]
FIELDS = {
    "statement": ["x", "z", "y"],
    "pruned": ["statement", "implied_by"],
    "basis": ["ordering", "statements", "provenance", "pruned"],
    "test": ["x", "y", "given", "source_statement"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_fields_cannot_be_set_or_deleted(kind):
    record = make(kind)
    for name in FIELDS[kind]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("kind", KINDS)
def test_equal_fields_give_equal_values_and_hashes(kind):
    a, b = make(kind), make(kind)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_different_fields_compare_unequal():
    assert PrunedStatement(st("a", "d", "e"), 0) != PrunedStatement(st("a", "d", "e"), 1)
    assert PartialCorrTest("a", "e", frozenset(), 0) != PartialCorrTest("a", "e", frozenset("d"), 0)
    assert st("a", "d", "e") != st("a", "", "e")


def test_basis_with_mismatched_provenance_raises():
    with pytest.raises(InternalError, match="one provenance tag per statement"):
        ReducedBasis(("a", "d", "e"), (st("a", "d", "e"),), (), ())
    with pytest.raises(InternalError, match="one provenance tag per statement"):
        ReducedBasis(("a", "d", "e"), (), ("reduced-form",), ())
    basis = make("basis")
    with pytest.raises(InternalError, match="one provenance tag per statement"):
        basis._replace(provenance=())
    with pytest.raises(InternalError, match="one provenance tag per statement"):
        ReducedBasis._make((basis.ordering, (), basis.provenance, ()))
    assert basis._replace(pruned=()) == basis


@pytest.mark.parametrize("side", [0, 1, 2])
def test_statement_rejects_a_bare_string_side(side):
    # "bd" would otherwise be read as the two names b and d
    sides = [["a"], [], ["c"]]
    sides[side] = "bd"
    with pytest.raises(InputError, match="got a bare string"):
        CiStatement(*sides)
