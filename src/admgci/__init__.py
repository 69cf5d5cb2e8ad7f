"""Conditional-independence analysis for acyclic directed mixed graphs."""

from .admg import Admg, validate_ordering
from .errors import (
    CapacityError,
    GenerationError,
    GraphParseError,
    InputError,
    InternalError,
    NumericError,
)
from .graphio import fixture_graph, format_graph, load_graph, parse_graph
from .implication import (
    SEMI_GRAPHOID,
    WITH_COMPOSITION,
    AxiomSet,
    StatementUniverse,
    closure,
    implies,
)
from .markov import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    PartialCorrTest,
    PrunedStatement,
    ReducedBasis,
    build_collapsed_ordering,
    markov_blanket,
    maximal_ancestral_sets,
    ordered_local_entries,
    ordered_local_markov,
    reduced_basis,
    reduced_form_applies,
    reduced_local_markov,
    reduced_scope,
    redundant_ancestral_set,
    test_plan,
)
from .msep import connecting_paths, m_separated, m_separated_bruteforce
from .statements import CiStatement, dedupe

__version__ = "0.1.0"


def __getattr__(name: str):
    # the names of __all__ not bound above come from sem, which needs numpy:
    # it is imported on the first access to one of them (PEP 562)
    if name in __all__:
        from . import sem

        return getattr(sem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Admg",
    "AxiomSet",
    "CapacityError",
    "CiStatement",
    "Covariance",
    "DataTable",
    "GenerationError",
    "GraphParseError",
    "InputError",
    "InternalError",
    "NumericError",
    "ORDERED_LOCAL",
    "PartialCorrTest",
    "PrunedStatement",
    "REDUCED_FORM",
    "ReducedBasis",
    "SEMI_GRAPHOID",
    "SemParameters",
    "StatementUniverse",
    "TestReport",
    "TestResult",
    "WITH_COMPOSITION",
    "build_collapsed_ordering",
    "closure",
    "connecting_paths",
    "dedupe",
    "fixture_graph",
    "format_graph",
    "implied_covariance",
    "implies",
    "load_graph",
    "m_separated",
    "m_separated_bruteforce",
    "markov_blanket",
    "maximal_ancestral_sets",
    "ordered_local_entries",
    "ordered_local_markov",
    "parse_graph",
    "partial_correlation",
    "random_parameters",
    "reduced_basis",
    "reduced_form_applies",
    "reduced_local_markov",
    "reduced_scope",
    "redundant_ancestral_set",
    "run_tests",
    "sample_partial_correlation",
    "simulate",
    "test_plan",
    "validate_ordering",
]
