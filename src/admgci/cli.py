"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification or statistical
test failure or an output pipe closed early, 2 input error, 3 a work budget
exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .admg import Admg, validate_ordering
from .errors import CapacityError, GenerationError, InputError, NumericError
from .graphio import load_graph

# each handler imports the modules it runs beyond the graph core, so that a
# process loads only what its subcommand needs: sem (numpy) for simulate and
# sem-check, markov and statements for the statement bases, implication for
# verify, msep for msep. A handler returns its exit code and its JSON payload;
# ``main`` prints the payload, or the lines of the subcommand's text view, a
# function of the payload alone, so the text shows nothing the JSON lacks.


def _split_names(value: str) -> list[str]:
    return [t.strip() for t in value.split(",") if t.strip()]


def _statement_json(st, provenance: str | None = None, implied_by=None) -> dict:
    d = st.to_json_dict()
    d["provenance"] = provenance
    d["implied_by"] = implied_by
    return d


def _statement_text(d: dict) -> str:
    from .statements import CiStatement

    return CiStatement(d["x"], d["given"], d["indep"]).render()


def _test_json(t) -> dict:
    return {"x": t.x, "y": t.y, "given": sorted(t.given)}


def _test_text(t: dict) -> str:
    from .markov import PartialCorrTest

    return PartialCorrTest(t["x"], t["y"], frozenset(t["given"]), None).render()


def _nonnegative_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _ordering_arg(g: Admg, value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    return validate_ordering(g, _split_names(value))


# --- subcommand handlers and their text views ---------------------------------


def _cmd_components(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    return 0, {
        "components": [sorted(c) for c in g.c_components()],
        "mixed_directed_cycle": g.has_mixed_directed_cycle(),
    }


def _text_components(p):
    rendered = " ".join("{" + ",".join(c) + "}" for c in p["components"])
    yield f"c-components: {rendered}"
    yield f"mixed-directed-cycle: {'yes' if p['mixed_directed_cycle'] else 'no'}"


def _cmd_msep(args) -> tuple[int, dict]:
    from . import msep

    g = load_graph(args.graph)
    x = _split_names(args.x)
    y = _split_names(args.y)
    z = _split_names(args.given) if args.given else []
    separated = msep.m_separated(g, x, y, z)
    payload = {"x": sorted(x), "y": sorted(y), "given": sorted(z), "separated": separated}
    return (0 if separated else 1), payload


def _text_msep(p):
    yield "separated" if p["separated"] else "connected"


def _cmd_order(args) -> tuple[int, dict]:
    from . import markov

    return 0, {"ordering": list(markov.build_collapsed_ordering(load_graph(args.graph)))}


def _text_order(p):
    yield ",".join(p["ordering"])


def _analysis(g: Admg, mode: str, ordering):
    """Returns (ordering, statements, provenance, pruned, invoked|None)."""
    from . import markov
    from .statements import dedupe

    if mode == "reduced":
        statements = markov.reduced_local_markov(g)
        return None, statements, [markov.REDUCED_FORM] * len(statements), [], None
    if mode == "ordered":
        order = ordering or markov.build_collapsed_ordering(g)
        entries = markov.ordered_local_entries(g, order)
        statements = dedupe(st for _, _, st in entries if st is not None)
        return order, statements, [markov.ORDERED_LOCAL] * len(statements), [], len(entries)
    basis = markov.reduced_basis(g, ordering)
    return basis.ordering, list(basis.statements), list(basis.provenance), list(basis.pruned), None


def _cmd_analyze(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    ordering = _ordering_arg(g, args.order)
    order, statements, provenance, pruned, invoked = _analysis(g, args.mode, ordering)
    payload = {
        "mode": args.mode,
        "ordering": list(order) if order else None,
        "statements": [_statement_json(st, tag) for st, tag in zip(statements, provenance)],
    }
    if invoked is not None:
        payload["invoked"] = invoked
    if args.mode == "auto":
        payload["pruned"] = [
            _statement_json(p.statement, "ordered-local-pruned", p.implied_by) for p in pruned
        ]
    return 0, payload


def _text_analyze(p):
    return map(_statement_text, p["statements"])


def _cmd_verify(args) -> tuple[int, dict]:
    from . import implication, markov

    g = load_graph(args.graph)
    ordering = _ordering_arg(g, args.order)
    basis = markov.reduced_basis(g, ordering)
    ordered = markov.ordered_local_markov(g, basis.ordering)
    universe = implication.StatementUniverse(g.vertices)
    in_basis = set(basis.statements)
    targets = [st for st in ordered if st not in in_basis]
    composition = args.axioms == "composition"
    answers = implication.implies_each(universe, basis.statements, targets, composition)
    found = dict(zip(targets, answers))
    checked = [
        dict(_statement_json(st), in_basis=st in in_basis, derivable=found.get(st, True))
        for st in ordered
    ]
    all_derivable = all(d["derivable"] for d in checked)
    payload = {
        "ordering": list(basis.ordering),
        "axioms": args.axioms,
        "basis_size": len(basis.statements),
        "ordered_size": len(ordered),
        "checked": checked,
        "all_derivable": all_derivable,
    }
    return (0 if all_derivable else 1), payload


def _text_verify(p):
    for d in p["checked"]:
        status = "derivable" if d["derivable"] else "NOT-DERIVABLE"
        yield f"{_statement_text(d)} : {'in-basis' if d['in_basis'] else status}"
    yield (
        f"{'all' if p['all_derivable'] else 'NOT all'} ordered-local statements "
        f"follow from the {p['basis_size']}-statement basis (axioms: {p['axioms']})"
    )


def _plan_for(g: Admg, mode: str, ordering):
    from . import markov

    _, statements, _, _, _ = _analysis(g, mode, ordering)
    return markov.test_plan(statements)


def _cmd_sem_tests(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    plan = _plan_for(g, args.mode, _ordering_arg(g, args.order))
    return 0, {"mode": args.mode, "tests": [_test_json(t) for t in plan]}


def _text_sem_tests(p):
    return map(_test_text, p["tests"])


def _cmd_simulate(args) -> tuple[int, dict]:
    from . import sem

    g = load_graph(args.graph)
    params = sem.random_parameters(g, args.seed)
    table = sem.simulate(g, params, args.n, args.seed)
    table.to_csv(args.out)
    return 0, {"out": args.out, "rows": table.n, "columns": list(table.variables)}


def _text_simulate(p):
    yield f"wrote {p['rows']} rows x {len(p['columns'])} columns to {p['out']}"


def _cmd_sem_check(args) -> tuple[int, dict]:
    from . import sem

    g = load_graph(args.graph)
    data = sem.DataTable.from_csv(args.data)
    plan = _plan_for(g, args.mode, _ordering_arg(g, args.order))
    report = sem.run_tests(data, plan, alpha=args.alpha, correction=args.correction)
    tests = [
        dict(_test_json(r.test), r=r.r, z=r.z, p=r.p, reject=r.reject, error=r.error)
        for r in report.results
    ]
    payload = {
        "alpha": report.alpha,
        "correction": report.correction,
        "method": "fisher-z",
        "n": report.n,
        "tests": tests,
        "rejections": report.rejections,
        "pass": report.passed,
    }
    return (0 if report.passed else 1), payload


def _text_sem_check(p):
    for t in p["tests"]:
        head = _test_text(t)[:-4]  # strip the trailing " = 0"
        if t["error"]:
            yield f"{head}: error ({t['error']})"
        else:
            verdict = "reject" if t["reject"] else "accept"
            yield f"{head}: r={t['r']:+.4f} z={t['z']:+.3f} p={t['p']:.4g} {verdict}"
    yield "PASS" if p["pass"] else "FAIL"


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admgci",
        description=(
            "Conditional-independence analysis for acyclic directed mixed "
            "graphs: structure, m-separation, local Markov statement bases, "
            "axiom-closure verification, and linear-SEM partial-correlation "
            "tests. Graph files use one edge per line (a -> b, a <-> b); the "
            "bundled fixtures figure1, figure2 and figure3 can be named in "
            "place of a file. Each exponential step has a fixed work budget; "
            "past it the command exits 3."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order=False):
        p.add_argument("graph", help="graph file path or bundled fixture name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", help="comma-separated consistent vertex ordering")

    p = sub.add_parser("components", help="c-components and mixed-cycle status")
    add_common(p)
    p.set_defaults(func=_cmd_components, view=_text_components)

    p = sub.add_parser("msep", help="decide m-separation for a query")
    add_common(p)
    p.add_argument("--x", required=True, help="comma-separated vertex set")
    p.add_argument("--y", required=True, help="comma-separated vertex set")
    p.add_argument("--given", default="", help="comma-separated conditioning set")
    p.set_defaults(func=_cmd_msep, view=_text_msep)

    p = sub.add_parser("order", help="construct the collapsed consistent ordering")
    add_common(p)
    p.set_defaults(func=_cmd_order, view=_text_order)

    p = sub.add_parser("analyze", help="emit local Markov statements")
    add_common(p, order=True)
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.set_defaults(func=_cmd_analyze, view=_text_analyze)

    p = sub.add_parser(
        "verify", help="check the ordered-local statements against the pruned basis"
    )
    add_common(p, order=True)
    p.add_argument(
        "--axioms", choices=("semigraphoid", "composition"), default="composition"
    )
    p.set_defaults(func=_cmd_verify, view=_text_verify)

    p = sub.add_parser("sem-tests", help="list the vanishing-partial-correlation tests")
    add_common(p, order=True)
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.set_defaults(func=_cmd_sem_tests, view=_text_sem_tests)

    p = sub.add_parser("simulate", help="draw data from a random parameterization")
    add_common(p)
    p.add_argument("--n", type=int, default=1000, help="number of observations")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="random seed, at least 0")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate, view=_text_simulate)

    p = sub.add_parser("sem-check", help="run the test plan against a CSV data file")
    add_common(p, order=True)
    p.add_argument("data", help="CSV file with a header of vertex names")
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--correction", choices=("bonferroni", "none"), default="bonferroni"
    )
    p.set_defaults(func=_cmd_sem_check, view=_text_sem_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        code, payload = args.func(args)
    except (InputError, NumericError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in args.view(payload):
            print(line)
    return code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here rather than at exit
    except BrokenPipeError:  # point stdout at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
