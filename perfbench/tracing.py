"""Spans around the calls into each layer of the program, recorded from the
benchmark's own files by wrapping the program's public functions.

A span holds a name, start, end, parent span and operation id, plus counts
taken from the call's arguments and result. Spans stay in memory until the
process writes them out as JSON. A layer's self time is its span minus the
spans of its children.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import reference as ref

# per-layer metric -> span name; the metric is the layer's self time per
# operation, in ms
LAYER_TIMES = {
    "graphio.parse_graph_ms": "graphio.parse_graph",
    "admg.construct_ms": "admg.construct",
    "admg.validate_ordering_ms": "admg.validate_ordering",
    "admg.mixed_cycle_ms": "admg.mixed_cycle",
    "msep.m_separated_ms": "msep.m_separated",
    "markov.collapsed_ordering_ms": "markov.collapsed_ordering",
    "markov.reduced_basis_ms": "markov.reduced_basis",
    "markov.maximal_ancestral_sets_ms": "markov.maximal_ancestral_sets",
    "markov.ordered_local_ms": "markov.ordered_local",
    "implication.closure_ms": "implication.closure",
    "sem.from_csv_ms": "sem.from_csv",
    "sem.run_tests_ms": "sem.run_tests",
}
# per-layer count -> (span name, attribute); the metric is the count per operation
LAYER_COUNTS = {
    "msep.queries": ("msep.m_separated", None),
    "markov.ancestral_subsets": ("markov.reduced_basis", "ancestral_subsets"),
    "markov.basis_statements": ("markov.reduced_basis", "statements"),
    "markov.pruned_statements": ("markov.reduced_basis", "pruned"),
    "implication.closure_triples": ("implication.closure", "triples"),
    "implication.universe_slots": ("implication.closure", "slots"),
    "sem.tests_planned": ("sem.run_tests", "tests"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op: int | None = None

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[5] = attrs(result, *args, **(kwargs or {}))
        return result

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def as_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def _basis_attrs(basis, g, *args, **kwargs):
    """Basis size, pruned count, and the sum of 2^|free| over the vertices
    that do not take the reduced form (|free| is the vertex's position)."""
    pos = {v: i for i, v in enumerate(basis.ordering)}
    directed = g.directed_edges
    subsets = 0
    for d in ref.districts(g.vertices, [tuple(e) for e in g.bidirected_edges]):
        for x in d:
            before = [v for v in d if pos[v] <= pos[x]]
            spots = sorted(pos[v] for v in before)
            consecutive = spots[-1] - spots[0] == len(spots) - 1
            if not consecutive or any((t, h) in directed for t in before for h in before):
                subsets += 2 ** pos[x]
    return {
        "statements": len(basis.statements),
        "pruned": len(basis.pruned),
        "ancestral_subsets": subsets,
    }


def install(tracer: Tracer) -> None:
    """Route the program's layer entry points through ``tracer``.

    Module-level functions are replaced in every ``admgci`` module that
    holds them, since modules import each other's functions by name.
    """
    import admgci.cli  # noqa: F401  (loads every module that gets wrapped)
    from admgci import admg, graphio, implication, markov, msep, sem

    functions = [
        (graphio, "parse_graph", "graphio.parse_graph", None),
        (admg, "validate_ordering", "admg.validate_ordering", None),
        (msep, "m_separated", "msep.m_separated", None),
        (markov, "build_collapsed_ordering", "markov.collapsed_ordering", None),
        (markov, "reduced_basis", "markov.reduced_basis", _basis_attrs),
        (markov, "maximal_ancestral_sets", "markov.maximal_ancestral_sets", None),
        (markov, "ordered_local_markov", "markov.ordered_local", None),
        (
            implication,
            "closure",
            "implication.closure",
            lambda result, universe, *a, **k: {"triples": len(result), "slots": universe.slots},
        ),
        (
            sem,
            "run_tests",
            "sem.run_tests",
            lambda result, data, plan, *a, **k: {"tests": len(plan)},
        ),
    ]
    modules = [m for n, m in sys.modules.items() if n == "admgci" or n.startswith("admgci.")]
    for module, attr, name, attrs in functions:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    admg.Admg.__init__ = tracer.wrap("admg.construct", admg.Admg.__init__)
    admg.Admg.has_mixed_directed_cycle = tracer.wrap(
        "admg.mixed_cycle", admg.Admg.has_mixed_directed_cycle
    )
    from_csv = sem.DataTable.__dict__["from_csv"].__func__
    sem.DataTable.from_csv = classmethod(tracer.wrap("sem.from_csv", from_csv))


def traced_cli(argv) -> int:
    """Run ``admgci.cli.main`` as one traced operation and write the spans
    to ``spans-<pid>.json`` in the working directory."""
    import admgci.cli

    tracer = Tracer()
    install(tracer)
    tracer.op = 0
    try:
        return tracer.call("op", admgci.cli.main, (argv,))
    finally:
        with open(f"spans-{os.getpid()}.json", "w") as fh:
            json.dump(tracer.as_json(), fh)


def layer_metrics(spans: list[dict], operations: int) -> dict[str, float]:
    """Self time (ms) and counts of each layer, per operation."""
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["process"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    self_ms = {name: 0.0 for name in LAYER_TIMES.values()}
    counts = {metric: 0 for metric in LAYER_COUNTS}
    for s in spans:
        if s["name"] in self_ms:
            busy = s["end"] - s["start"] - child_time.get((s["process"], s["index"]), 0.0)
            self_ms[s["name"]] += busy * 1000
        for metric, (name, attr) in LAYER_COUNTS.items():
            if s["name"] == name:
                counts[metric] += 1 if attr is None else s["attrs"][attr]
    out = {metric: self_ms[name] / operations for metric, name in LAYER_TIMES.items()}
    out.update({metric: c / operations for metric, c in counts.items()})
    return out


def process_metrics(python: str, env: dict, cwd: str, samples: int = 5) -> dict[str, float]:
    """Median bare interpreter start, and median ``import admgci.cli`` time
    measured inside fresh interpreters, both in ms."""
    starts, imports = [], []
    probe = "import time; t = time.perf_counter(); import admgci.cli; print(time.perf_counter() - t)"
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
        out = subprocess.run(
            [python, "-c", probe], env=env, cwd=cwd, check=True, timeout=60, capture_output=True, text=True
        )
        imports.append(float(out.stdout))
    return {
        "cli.interpreter_ms": statistics.median(starts) * 1000,
        "cli.import_ms": statistics.median(imports) * 1000,
    }
