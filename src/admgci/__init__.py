"""Conditional-independence analysis for acyclic directed mixed graphs.

Every public name is resolved on first access (PEP 562) from the one module
that defines it, so importing the package loads none of its modules, and the
command line loads only what a subcommand runs; the SEM names load numpy.
A resolved name is bound here, so later accesses are plain lookups.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in (
        ("admg", "Admg validate_ordering"),
        (
            "errors",
            "CapacityError GenerationError GraphParseError InputError InternalError NumericError",
        ),
        ("graphio", "fixture_graph format_graph load_graph parse_graph"),
        (
            "implication",
            "SEMI_GRAPHOID WITH_COMPOSITION AxiomSet StatementUniverse closure implies",
        ),
        (
            "markov",
            "ORDERED_LOCAL REDUCED_FORM PartialCorrTest PrunedStatement ReducedBasis "
            "build_collapsed_ordering markov_blanket maximal_ancestral_sets "
            "ordered_local_entries ordered_local_markov reduced_basis reduced_form_applies "
            "reduced_local_markov reduced_scope redundant_ancestral_set test_plan",
        ),
        ("msep", "connecting_paths m_separated m_separated_bruteforce"),
        (
            "sem",
            "Covariance DataTable SemParameters TestReport TestResult implied_covariance "
            "partial_correlation random_parameters run_tests sample_partial_correlation "
            "simulate",
        ),
        ("statements", "CiStatement dedupe"),
    )
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
