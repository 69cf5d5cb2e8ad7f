"""The package's public names: the ones the benchmark reads or wraps still
resolve, the test-only wrappers stay gone, and the README's example runs."""

import re
from pathlib import Path

import pytest

import admgci
from admgci import admg, graphio, implication, markov, msep, sem, statements

# removed with their replacements: see the README's "Library entry points"
REMOVED = [
    (markov, "markov_blanket"),
    (markov, "reduced_scope"),
    (markov, "reduced_form_applies"),
    (markov, "redundant_ancestral_set"),
    (msep, "connecting_paths"),
    (implication, "implies"),
    (implication, "AxiomSet"),
    (admg.Admg, "is_ancestral"),
    (statements.CiStatement, "flipped"),
    (graphio, "fixture_text"),
]

# settings with one value in use, now module constants read at call time:
# (function, its arguments after the graph, keyword, the constant's value)
REMOVED_KEYWORDS = [
    (msep.m_separated_bruteforce, (["a"], ["e"], ["d"]), "cap", 10),
    (sem.random_parameters, (5,), "max_condition", 1e8),
    (sem.random_parameters, (5,), "max_draws", 50),
]

# read through the package by perfbench/workloads.py and perfbench/test_reference.py
BENCHMARK_NAMES = [
    "Admg",
    "m_separated",
    "m_separated_bruteforce",
    "reduced_basis",
    "reduced_local_markov",
    "REDUCED_FORM",
    "ordered_local_markov",
    "closure",
    "StatementUniverse",
    "WITH_COMPOSITION",
    "CiStatement",
    "DataTable",
    "sample_partial_correlation",
]

# replaced by name in its module or class by perfbench/tracing.py::install
TRACED = [
    (graphio, "parse_graph"),
    (admg, "validate_ordering"),
    (msep, "m_separated"),
    (markov, "build_collapsed_ordering"),
    (markov, "reduced_basis"),
    (markov, "maximal_ancestral_sets"),
    (markov, "ordered_local_markov"),
    (implication, "closure"),
    (sem, "run_tests"),
    (admg.Admg, "__init__"),
    (admg.Admg, "has_mixed_directed_cycle"),
    (sem.DataTable, "from_csv"),
]


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_names_are_gone(module, name):
    assert name not in admgci.__all__
    with pytest.raises(AttributeError):
        getattr(admgci, name)
    assert not hasattr(module, name)


def test_statement_universe_has_no_decode():
    assert not hasattr(implication.StatementUniverse, "decode")


@pytest.mark.parametrize(
    "func, args, keyword, value", REMOVED_KEYWORDS, ids=[k for _, _, k, _ in REMOVED_KEYWORDS]
)
def test_removed_keywords_raise_type_error(func, args, keyword, value, figure2):
    with pytest.raises(TypeError, match=keyword):
        func(figure2, *args, **{keyword: value})


def test_implied_covariance_takes_no_ordering(figure2):
    params = sem.random_parameters(figure2, 5)
    with pytest.raises(TypeError):
        sem.implied_covariance(figure2, params, figure2.topological_ordering())


def test_implies_each_resolves():
    assert admgci.implies_each is implication.implies_each


def test_removed_attributes_are_gone():
    assert not hasattr(admgci.CiStatement(["a"], [], ["b"]), "key")
    assert not hasattr(admgci.GraphParseError("bad", 3), "line")
    assert "method" not in sem.TestReport._fields


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_names_the_benchmark_reads_resolve(name):
    assert name in admgci.__all__
    assert getattr(admgci, name) is not None


@pytest.mark.parametrize(
    "owner, attr", TRACED, ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in TRACED]
)
def test_names_the_benchmark_traces_resolve(owner, attr):
    assert callable(getattr(owner, attr))


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace: dict = {}
    exec(block, namespace)
    assert len(namespace["basis"].statements) == 3
    assert namespace["report"].passed is True
