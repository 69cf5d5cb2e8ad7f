"""The package's immutable record types: field equality, hashing, and no
assignment after construction."""

import copy
import pickle

import numpy as np
import pytest

from admgci import (
    SEMI_GRAPHOID,
    WITH_COMPOSITION,
    CapacityError,
    CiStatement,
    InputError,
    InternalError,
    PartialCorrTest,
    PrunedStatement,
    ReducedBasis,
    StatementUniverse,
    closure,
    ordered_local_markov,
    reduced_basis,
    reduced_local_markov,
    sem,
)
from admgci import implication
from conftest import random_admg, random_bidirected_graph, random_block_admg, random_dag


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
    # the copies keep the as-constructed x/y orientation of every statement
    assert repr(copy.copy(a)) == repr(pickle.loads(pickle.dumps(a))) == repr(a)


def test_different_fields_compare_unequal():
    assert PrunedStatement(st("a", "d", "e"), 0) != PrunedStatement(st("a", "d", "e"), 1)
    assert PartialCorrTest("a", "e", frozenset(), 0) != PartialCorrTest("a", "e", frozenset("d"), 0)
    assert st("a", "d", "e") != st("a", "", "e")


@pytest.mark.parametrize("plain", [tuple(st("a", "d", "e")), tuple(st("e", "d", "a"))])
def test_statement_never_equals_a_plain_tuple(plain):
    statement = st("a", "d", "e")
    assert statement != plain and plain != statement
    assert not (statement == plain or plain == statement)


def test_statement_unpacks_and_validates_replace_and_make():
    statement = st("ab", "d", "e")
    x, z, y = statement
    assert (x, z, y) == (frozenset("ab"), frozenset("d"), frozenset("e"))
    assert statement._replace(z=()).render() == "I({a,b} ; {} ; {e})"
    with pytest.raises(InputError, match="pairwise disjoint"):
        statement._replace(y=statement.x)
    with pytest.raises(InputError, match="pairwise disjoint"):
        CiStatement._make((x, z, x))
    with pytest.raises(InputError, match="non-empty sets"):
        CiStatement._make((x, z, ()))


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


def test_statements_built_unchecked_would_pass_the_checks(monkeypatch):
    # closure, reduced_basis, reduced_local_markov and ordered_local_markov
    # build their statements without the constructor's checks: each would
    # pass them, and keep its orientation; a listing budget of 1000 keeps
    # the large closures of sparse 9-vertex graphs from dominating the run
    # time (the engine's dominant statements are few, the listing is not)
    monkeypatch.setattr(implication, "CLOSURE_BUDGET", 1000)
    rng = np.random.default_rng(61)
    generators = (random_admg, random_block_admg, random_dag, random_bidirected_graph)
    closed = 0
    for k in range(1000):
        g = generators[k % 4](rng, int(rng.integers(3, 10)))
        basis = reduced_basis(g)
        built = [*basis.statements, *(p.statement for p in basis.pruned)]
        built += ordered_local_markov(g, basis.ordering)
        if not g.has_mixed_directed_cycle():
            built += reduced_local_markov(g)
        roles = rng.integers(0, 4, size=len(g.vertices))
        x, z, y = ([v for v, r in zip(g.vertices, roles) if r == i] for i in (1, 2, 3))
        seeds = [basis.statements] + ([[CiStatement(x, z, y)]] if x and y else [])
        for seed in seeds:
            for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                try:
                    built += closure(StatementUniverse(g.vertices), seed, axioms)
                    closed += 1
                except CapacityError:
                    pass
        for stmt in built:
            assert tuple(CiStatement(*stmt)) == tuple(stmt), (repr(g), stmt)
    assert closed > 2500, closed


# the SEM records, reached through the module: pytest would try to collect a
# class named Test... imported by bare name
def sem_record(kind):
    t = PartialCorrTest("a", "e", frozenset("d"), 0)
    return {
        "parameters": lambda: sem.SemParameters({("a", "b"): 0.5}, {"a": 1.0, "b": 2.0}, {}),
        "covariance": lambda: sem.Covariance(("a", "b"), np.array([[1.0, 0.5], [0.5, 2.0]])),
        "data": lambda: sem.DataTable(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]])),
        "result": lambda: sem.TestResult(t, 0.5, 1.0, 0.25, False),
        "report": lambda: sem.TestReport(
            (sem.TestResult(t, None, None, None, False, "x"),), 0.05, "none", 3
        ),
    }[kind]()


TEST = "PartialCorrTest(x='a', y='e', given=frozenset({'d'}), source_statement=0)"
SEM_REPRS = {  # as the frozen dataclasses these records once were printed them
    "parameters": "SemParameters(coefficients={('a', 'b'): 0.5}, "
    "error_variances={'a': 1.0, 'b': 2.0}, error_covariances={})",
    "covariance": "Covariance(variables=('a', 'b'), "
    "matrix=array([[1. , 0.5],\n       [0.5, 2. ]]))",
    "data": "DataTable(variables=('a', 'b'), values=array([[1., 2.],\n       [3., 4.]]))",
    "result": f"TestResult(test={TEST}, r=0.5, z=1.0, p=0.25, reject=False, error=None)",
    "report": f"TestReport(results=(TestResult(test={TEST}, r=None, z=None, p=None, "
    "reject=False, error='x'),), alpha=0.05, correction='none', n=3)",
}


@pytest.mark.parametrize("kind", SEM_REPRS)
def test_sem_records_keep_their_repr_and_pickle(kind):
    record = sem_record(kind)
    assert repr(record) == SEM_REPRS[kind]
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and repr(restored) == repr(record)


@pytest.mark.parametrize("kind", SEM_REPRS)
def test_sem_record_fields_cannot_be_set(kind):
    record = sem_record(kind)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_test_result_error_defaults_to_none():
    assert sem_record("result").error is None
    assert sem.TestResult._field_defaults == {"error": None}


def test_data_table_replace_checks_the_shape():
    table = sem_record("data")
    with pytest.raises(InputError, match="one column per distinct name"):
        table._replace(values=np.ones((2, 3)))
    with pytest.raises(InputError, match="one column per distinct name"):
        table._replace(variables=("a", "a"))
    with pytest.raises(InputError, match="one column per distinct name"):
        sem.DataTable._make((("a",), table.values))
    assert table._replace(variables=("b", "a")).column("b").tolist() == [1.0, 3.0]


def test_covariance_replace_checks_the_shape():
    sigma = sem_record("covariance")
    with pytest.raises(InputError, match="one row per distinct name"):
        sigma._replace(matrix=np.eye(3))
    with pytest.raises(InputError, match="one row per distinct name"):
        sigma._replace(variables=("a", "a"))
    with pytest.raises(InputError, match="one row per distinct name"):
        sem.Covariance._make((("a",), sigma.matrix))
    assert sigma._replace(variables=("b", "a")).submatrix(["b"]).tolist() == [[1.0]]


def test_covariance_submatrix_names_an_unknown_variable():
    sigma = sem_record("covariance")
    assert sigma.submatrix(["b", "a"]).tolist() == [[2.0, 0.5], [0.5, 1.0]]
    with pytest.raises(InputError, match="unknown variable 'c'"):
        sigma.submatrix(["a", "c"])
