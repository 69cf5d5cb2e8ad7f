"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification or statistical
test failure or an output pipe closed early, 2 input error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import implication, markov, msep
from .admg import Admg, validate_ordering
from .errors import CapacityError, GenerationError, InputError, NumericError
from .graphio import load_graph
from .statements import CiStatement, dedupe


def _split_names(value: str) -> list[str]:
    return [t.strip() for t in value.split(",") if t.strip()]


def _statement_json(st: CiStatement, provenance: str | None = None, implied_by=None) -> dict:
    d = st.to_json_dict()
    d["provenance"] = provenance
    d["implied_by"] = implied_by
    return d


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cap_arg(value: str) -> int:
    try:
        cap = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


def _ordering_arg(g: Admg, value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    return validate_ordering(g, _split_names(value))


# --- subcommand handlers ------------------------------------------------------


def _cmd_components(args) -> int:
    g = load_graph(args.graph)
    comps = g.c_components()
    cyclic = g.has_mixed_directed_cycle()
    if args.format == "json":
        _print_json(
            {
                "components": [sorted(c) for c in comps],
                "mixed_directed_cycle": cyclic,
            }
        )
    else:
        rendered = " ".join("{" + ",".join(sorted(c)) + "}" for c in comps)
        print(f"c-components: {rendered}")
        print(f"mixed-directed-cycle: {'yes' if cyclic else 'no'}")
    return 0


def _cmd_msep(args) -> int:
    g = load_graph(args.graph)
    x = _split_names(args.x)
    y = _split_names(args.y)
    z = _split_names(args.given) if args.given else []
    separated = msep.m_separated(g, x, y, z)
    if args.format == "json":
        _print_json(
            {"x": sorted(x), "y": sorted(y), "given": sorted(z), "separated": separated}
        )
    else:
        print("separated" if separated else "connected")
    return 0 if separated else 1


def _cmd_order(args) -> int:
    g = load_graph(args.graph)
    order = markov.build_collapsed_ordering(g)
    if args.format == "json":
        _print_json({"ordering": list(order)})
    else:
        print(",".join(order))
    return 0


def _analysis(g: Admg, mode: str, ordering, cap: int):
    """Returns (ordering, statements, provenance, pruned, invoked|None)."""
    if mode == "reduced":
        statements = markov.reduced_local_markov(g)
        return None, statements, [markov.REDUCED_FORM] * len(statements), [], None
    if mode == "ordered":
        order = ordering or markov.build_collapsed_ordering(g)
        entries = markov.ordered_local_entries(g, order, cap)
        statements = dedupe(st for _, _, st in entries if st is not None)
        return order, statements, [markov.ORDERED_LOCAL] * len(statements), [], len(entries)
    basis = markov.reduced_basis(g, ordering, cap)
    return basis.ordering, list(basis.statements), list(basis.provenance), list(basis.pruned), None


def _enum_cap(args) -> int:
    return args.cap if args.cap is not None else markov.ANCESTRAL_ENUM_CAP


def _cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    ordering = _ordering_arg(g, args.order)
    order, statements, provenance, pruned, invoked = _analysis(
        g, args.mode, ordering, _enum_cap(args)
    )
    if args.format == "json":
        payload = {
            "mode": args.mode,
            "ordering": list(order) if order else None,
            "statements": [
                _statement_json(st, tag) for st, tag in zip(statements, provenance)
            ],
        }
        if invoked is not None:
            payload["invoked"] = invoked
        if args.mode == "auto":
            payload["pruned"] = [
                _statement_json(p.statement, "ordered-local-pruned", p.implied_by)
                for p in pruned
            ]
        _print_json(payload)
    else:
        for st in statements:
            print(st.render())
    return 0


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    ordering = _ordering_arg(g, args.order)
    basis = markov.reduced_basis(g, ordering, _enum_cap(args))
    ordered = markov.ordered_local_markov(g, basis.ordering, _enum_cap(args))
    axioms = (
        implication.WITH_COMPOSITION
        if args.axioms == "composition"
        else implication.SEMI_GRAPHOID
    )
    universe_cap = args.cap if args.cap is not None else implication.UNIVERSE_CAP
    universe = implication.StatementUniverse(g.vertices, cap=universe_cap)
    in_basis = set(basis.statements)
    targets = [st for st in ordered if st not in in_basis]
    answers = implication.implies_each(universe, basis.statements, targets, axioms)
    found = dict(zip(targets, answers))
    checked = [(st, st in in_basis, found.get(st, True)) for st in ordered]
    all_derivable = all(ok for _, _, ok in checked)
    if args.format == "json":
        _print_json(
            {
                "ordering": list(basis.ordering),
                "axioms": args.axioms,
                "basis_size": len(basis.statements),
                "ordered_size": len(ordered),
                "checked": [
                    dict(_statement_json(st), in_basis=inb, derivable=ok)
                    for st, inb, ok in checked
                ],
                "all_derivable": all_derivable,
            }
        )
    else:
        for st, inb, ok in checked:
            status = "in-basis" if inb else ("derivable" if ok else "NOT-DERIVABLE")
            print(f"{st.render()} : {status}")
        print(
            f"{'all' if all_derivable else 'NOT all'} ordered-local statements "
            f"follow from the {len(basis.statements)}-statement basis "
            f"(axioms: {args.axioms})"
        )
    return 0 if all_derivable else 1


def _plan_for(g: Admg, mode: str, ordering, cap: int):
    _, statements, _, _, _ = _analysis(g, mode, ordering, cap)
    return markov.test_plan(statements)


def _cmd_sem_tests(args) -> int:
    g = load_graph(args.graph)
    ordering = _ordering_arg(g, args.order)
    plan = _plan_for(g, args.mode, ordering, _enum_cap(args))
    if args.format == "json":
        _print_json(
            {
                "mode": args.mode,
                "tests": [
                    {"x": t.x, "y": t.y, "given": sorted(t.given)} for t in plan
                ],
            }
        )
    else:
        for t in plan:
            print(t.render())
    return 0


def _cmd_simulate(args) -> int:
    from . import sem  # numpy, which no graph-only subcommand loads

    g = load_graph(args.graph)
    params = sem.random_parameters(g, args.seed)
    table = sem.simulate(g, params, args.n, args.seed)
    table.to_csv(args.out)
    if args.format == "json":
        _print_json({"out": args.out, "rows": table.n, "columns": list(table.variables)})
    else:
        print(f"wrote {table.n} rows x {len(table.variables)} columns to {args.out}")
    return 0


def _cmd_sem_check(args) -> int:
    from . import sem

    g = load_graph(args.graph)
    data = sem.DataTable.from_csv(args.data)
    ordering = _ordering_arg(g, args.order)
    plan = _plan_for(g, args.mode, ordering, _enum_cap(args))
    report = sem.run_tests(data, plan, alpha=args.alpha, correction=args.correction)
    if args.format == "json":
        _print_json(
            {
                "alpha": report.alpha,
                "correction": report.correction,
                "method": report.method,
                "n": report.n,
                "tests": [
                    {
                        "x": r.test.x,
                        "y": r.test.y,
                        "given": sorted(r.test.given),
                        "r": r.r,
                        "z": r.z,
                        "p": r.p,
                        "reject": r.reject,
                        "error": r.error,
                    }
                    for r in report.results
                ],
                "rejections": report.rejections,
                "pass": report.passed,
            }
        )
    else:
        for r in report.results:
            head = r.test.render()[:-4]  # strip the trailing " = 0"
            if r.error:
                print(f"{head}: error ({r.error})")
            else:
                verdict = "reject" if r.reject else "accept"
                print(f"{head}: r={r.r:+.4f} z={r.z:+.3f} p={r.p:.4g} {verdict}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


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
            "place of a file."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order=False, cap=False):
        p.add_argument("graph", help="graph file path or bundled fixture name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", help="comma-separated consistent vertex ordering")
        if cap:
            p.add_argument(
                "--cap",
                type=_cap_arg,
                default=None,
                help="size cap for the exponential enumeration/closure steps (defaults: 16 "
                "members of the vertex's district before it for the ancestral-set "
                "enumeration, 12 vertices for the closure universe)",
            )

    p = sub.add_parser("components", help="c-components and mixed-cycle status")
    add_common(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("msep", help="decide m-separation for a query")
    add_common(p)
    p.add_argument("--x", required=True, help="comma-separated vertex set")
    p.add_argument("--y", required=True, help="comma-separated vertex set")
    p.add_argument("--given", default="", help="comma-separated conditioning set")
    p.set_defaults(func=_cmd_msep)

    p = sub.add_parser("order", help="construct the collapsed consistent ordering")
    add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("analyze", help="emit local Markov statements")
    add_common(p, order=True, cap=True)
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "verify", help="check the ordered-local statements against the pruned basis"
    )
    add_common(p, order=True, cap=True)
    p.add_argument(
        "--axioms", choices=("semigraphoid", "composition"), default="composition"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sem-tests", help="list the vanishing-partial-correlation tests")
    add_common(p, order=True, cap=True)
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.set_defaults(func=_cmd_sem_tests)

    p = sub.add_parser("simulate", help="draw data from a random parameterization")
    add_common(p)
    p.add_argument("--n", type=int, default=1000, help="number of observations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sem-check", help="run the test plan against a CSV data file")
    add_common(p, order=True, cap=True)
    p.add_argument("data", help="CSV file with a header of vertex names")
    p.add_argument("--mode", choices=("ordered", "reduced", "auto"), default="auto")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--correction", choices=("bonferroni", "none"), default="bonferroni"
    )
    p.set_defaults(func=_cmd_sem_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, NumericError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


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
