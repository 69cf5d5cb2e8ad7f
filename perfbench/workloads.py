"""The four workloads: inputs, the timed operation, and the output checks.

A workload is built from a seed (set-up), then hands out a ``round``: a
fixed list of ``(key, operation)`` pairs that the runner times one at a
time. An operation calls into the program and returns its output; nothing
else happens between the timer reads. The runner keeps the first output per
key and requires every repeat to equal it; ``check`` runs after the timed
loop and compares those outputs against the computations in ``reference``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import inputs
import reference as ref


class Workload:
    name = ""

    def warm_up(self) -> None:
        """Run a fixed, seed-independent amount of work before timing."""
        raise NotImplementedError

    def round(self) -> list:
        """The ``(key, operation)`` pairs of one round, in timing order."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        """Problems found in ``{key: output}``; empty when all hold."""
        raise NotImplementedError


def _canonical(x, z, y) -> tuple:
    """A statement up to the symmetry that swaps its two independent sides."""
    return frozenset((frozenset(x), frozenset(y))), frozenset(z)


def _statement_set(statements) -> set:
    return {_canonical(s.x, s.z, s.y) for s in statements}


def _reference_set(statements) -> set:
    return {_canonical([x], z, y) for x, z, y in statements}


def _holds(g: ref.Graph, st) -> bool:
    return ref.m_separated(g, st.x, st.y, st.z)


class MsepBatch(Workload):
    """One operation is one ``m_separated`` query; queries cycle over four
    1000-vertex ADMGs with 2 parents per vertex and 150 bi-directed edges."""

    name = "msep_batch"
    GRAPHS, VERTICES = 4, 1000

    def __init__(self, seed: int, workdir: str):
        import admgci

        self._admgci = admgci
        rng = random.Random(seed)
        self.graphs, self.refs, per_graph = [], [], []
        for _ in range(self.GRAPHS):
            names, directed, bidirected = inputs.sparse_admg(rng, self.VERTICES)
            self.graphs.append(admgci.Admg(names, directed, bidirected))
            self.refs.append(ref.Graph(names, directed, bidirected))
            per_graph.append(inputs.msep_queries(rng, self.refs[-1]))
        # interleaved, so consecutive queries meet different graphs
        self.queries = [(gi, q) for batch in zip(*per_graph) for gi, q in enumerate(batch)]

    def warm_up(self):
        for _key, op in self.round()[:3]:
            op()

    def round(self):
        a = self._admgci
        return [((gi, q), (lambda g=self.graphs[gi], q=q: a.m_separated(g, *q))) for gi, q in self.queries]

    def check(self, outputs):
        problems = []
        for (gi, (x, y, z)), answer in outputs.items():
            expected = ref.m_separated(self.refs[gi], x, y, z)
            if answer is not expected:
                problems.append(f"m_separated{(x, y, z)} gave {answer}, expected {expected}")
            if self._admgci.m_separated(self.graphs[gi], y, x, z) is not expected:
                problems.append(f"m_separated{(x, y, z)} changes when x and y swap")
        return problems


class BasisScale(Workload):
    """One operation builds an ``Admg`` and runs ``reduced_basis`` and
    ``reduced_local_markov``; five graphs of 200..300 vertices in districts
    of at most 4, with no mixed directed cycle."""

    name = "basis_scale"
    # three distinct 250-vertex graphs fill the middle 60 % of the operations,
    # so p50 falls well inside them and p90 inside the 300-vertex cluster
    SIZES = (200, 250, 250, 250, 300)

    def __init__(self, seed: int, workdir: str):
        import admgci

        self._admgci = admgci
        rng = random.Random(seed)
        self.inputs = [inputs.district_admg(rng, n) for n in self.SIZES]
        self.order = list(range(len(self.SIZES)))
        rng.shuffle(self.order)

    def _op(self, names, directed, bidirected):
        a = self._admgci
        g = a.Admg(names, directed, bidirected)
        return a.reduced_basis(g), a.reduced_local_markov(g)

    def warm_up(self):
        self._op(*inputs.district_admg(random.Random(0), 40))

    def round(self):
        return [(i, (lambda e=self.inputs[i]: self._op(*e))) for i in self.order]

    def check(self, outputs):
        problems = []
        for i, (basis, rlm) in outputs.items():
            g = ref.Graph(*self.inputs[i])
            n = len(g.vertices)
            if not ref.consistent_order(g, basis.ordering):
                problems.append(f"V={n}: ordering breaks a parent or a district")
            expected = ref.reduced_statements(g)
            got = _statement_set(basis.statements)
            if got != _reference_set(expected):
                problems.append(f"V={n}: basis differs from the per-vertex statements")
            if len(basis.statements) != len(expected) or len(basis.statements) > n:
                problems.append(f"V={n}: {len(basis.statements)} statements, expected {len(expected)}")
            if _statement_set(rlm) != got or len(rlm) != len(basis.statements):
                problems.append(f"V={n}: basis differs from reduced_local_markov")
            if basis.pruned or set(basis.provenance) != {self._admgci.REDUCED_FORM}:
                problems.append(f"V={n}: some vertex did not take the reduced form")
            bad = [s for s in basis.statements if not _holds(g, s)]
            if bad:
                problems.append(f"V={n}: {len(bad)} statements fail the moralisation check")
        return problems


# Graph shapes for desk_verify: (generator seed, vertices) for
# inputs.desk_admg, each with a mixed directed cycle, smallest closure first.
# Their composition closures hold 70, 153, 545, 1387 and 2119 triples, so the
# operation times form five clusters about 2.5x apart: p50 falls in the middle
# of the third and p90 in the middle of the fifth, away from the cluster edges.
DESK_SHAPES = ((144, 8), (24, 8), (44, 8), (280, 8), (186, 8))


class DeskVerify(Workload):
    """One operation is ``admgci verify --axioms composition`` through the
    library: a fresh ``Admg``, ``reduced_basis``, ``ordered_local_markov``,
    the full composition closure of the basis and a membership check."""

    name = "desk_verify"
    SAMPLE = 40
    # A shape runs slower right after a larger one, so the order of a round
    # would move p50. A round runs each shape REPEATS times in a row,
    # smallest first, the same for every seed: only the smallest shape ever
    # follows a larger one.
    REPEATS = 4

    def __init__(self, seed: int, workdir: str):
        import admgci

        self._admgci = admgci
        rng = random.Random(seed)
        self.inputs = []
        for shape_seed, n in DESK_SHAPES:
            names, directed, bidirected = inputs.desk_admg(random.Random(shape_seed), n)
            rename = inputs.monotone_names(rng, names)
            self.inputs.append(
                (
                    [rename[v] for v in names],
                    [(rename[t], rename[h]) for t, h in directed],
                    [(rename[u], rename[v]) for u, v in bidirected],
                )
            )
        self.order = [i for i in range(len(self.inputs)) for _ in range(self.REPEATS)]
        self.sample_rng = random.Random(seed + 1)

    def _op(self, names, directed, bidirected):
        a = self._admgci
        g = a.Admg(names, directed, bidirected)
        basis = a.reduced_basis(g)
        ordered = a.ordered_local_markov(g, basis.ordering)
        closed = a.closure(a.StatementUniverse(g.vertices), basis.statements, a.WITH_COMPOSITION)
        return basis, ordered, closed, all(s in closed for s in ordered)

    def warm_up(self):
        for e in self.inputs[:2]:
            self._op(*e)

    def round(self):
        return [(i, (lambda e=self.inputs[i]: self._op(*e))) for i in self.order]

    def check(self, outputs):
        problems = []
        for i, (basis, ordered, closed, derivable) in outputs.items():
            g = ref.Graph(*self.inputs[i])
            if not ref.has_mixed_cycle(g):
                problems.append(f"shape {i}: no mixed directed cycle")
            if not derivable or not all(s in closed for s in ordered):
                problems.append(f"shape {i}: an ordered-local statement is not derivable")
            if not set(basis.statements) <= closed:
                problems.append(f"shape {i}: the closure misses a basis statement")
            if not all(_holds(g, s) for s in basis.statements):
                problems.append(f"shape {i}: a basis statement fails the moralisation check")
            pool = sorted(closed, key=lambda s: s.render())
            sample = self.sample_rng.sample(pool, min(self.SAMPLE, len(pool)))
            if not all(_holds(g, s) for s in sample):
                problems.append(f"shape {i}: a closure statement fails the moralisation check")
        return problems


class CliSession(Workload):
    """One operation is one fresh ``python`` process running
    ``admgci.cli.main`` with ``--format json``, following a fixed script."""

    name = "cli_session"
    VERTICES, ROWS, ALPHA = 30, 10_000, 0.05
    TESTS = (595, 615)  # planned tests accepted for the session graph
    CLI = "import sys; from admgci.cli import main; sys.exit(main(sys.argv[1:]))"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        while True:
            names, directed, bidirected = inputs.district_admg(rng, self.VERTICES, (1, 1, 2, 2))
            g = ref.Graph(names, directed, bidirected)
            statements = ref.reduced_statements(g)
            if self.TESTS[0] <= len(ref.planned_tests(statements)) <= self.TESTS[1]:
                break
        self.g, self.statements = g, statements
        self.workdir = workdir
        self.graph_path = os.path.join(workdir, "session.txt")
        self.data_path = os.path.join(workdir, "session.csv")
        inputs.write_graph(self.graph_path, directed, bidirected, names)
        inputs.write_csv(self.data_path, inputs.simulate_sem(rng, g, self.ROWS))
        graph, data = self.graph_path, self.data_path
        x, given, indep = rng.choice(statements)
        separated = ("msep", graph, "--x", x, "--y", rng.choice(sorted(indep)), "--given", ",".join(sorted(given)))
        tail, head = rng.choice(directed)
        connected = ("msep", graph, "--x", tail, "--y", head)
        sem_check = ("sem-check", graph, data, "--alpha", str(self.ALPHA))
        # 8 graph-only calls and 2 sem-check calls: p50 falls among the
        # graph-only calls and p90 among the sem-check calls
        self.script = [
            ("components", graph),
            separated,
            ("order", graph),
            ("analyze", graph),
            sem_check,
            ("sem-tests", graph),
            connected,
            ("components", graph),
            ("analyze", graph),
            sem_check,
        ]
        self.prefix = [sys.executable, "-c", self.CLI]

    def call(self, argv):
        proc = subprocess.run(
            self.prefix + list(argv) + ["--format", "json"],
            cwd=self.workdir,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        self.call(self.script[0])

    def round(self):
        return [(i, (lambda a=argv: self.call(a))) for i, argv in enumerate(self.script)]

    def check(self, outputs):
        problems = []
        for i, (code, stdout, stderr) in outputs.items():
            argv = self.script[i]
            try:
                payload = json.loads(stdout)
            except ValueError:
                problems.append(f"{argv[0]}: exit {code}, no JSON ({stderr.strip()[-200:]})")
                continue
            problem = self._check_payload(argv, code, payload)
            if problem:
                problems.append(f"{argv[0]}: {problem}")
        return problems

    def _check_payload(self, argv, code, payload) -> str:
        g = self.g
        command = argv[0]
        if command == "components":
            comps = [frozenset(c) for c in payload["components"]]
            if comps != ref.districts(g.vertices, g.bidirected):
                return "components differ from the union-find districts"
            if payload["mixed_directed_cycle"] is not False or code != 0:
                return "reports a mixed directed cycle"
        elif command == "msep":
            # the query is the one sent, not the one echoed back
            sent = dict(zip(argv[2::2], argv[3::2]))
            x, y = sent["--x"].split(","), sent["--y"].split(",")
            given = sent["--given"].split(",") if sent.get("--given") else []
            if [sorted(payload[k]) for k in ("x", "y", "given")] != [sorted(x), sorted(y), sorted(given)]:
                return f"echoed query {payload['x']} vs {payload['y']} differs from the one sent"
            expected = ref.m_separated(g, x, y, given)
            if payload["separated"] is not expected or code != (0 if expected else 1):
                return f"answer for {x} vs {y} differs from the moralisation check"
        elif command == "order":
            if code != 0 or not ref.consistent_order(g, payload["ordering"]):
                return "ordering breaks a parent or a district"
        elif command == "analyze":
            got = {_canonical(s["x"], s["given"], s["indep"]) for s in payload["statements"]}
            if code != 0 or got != _reference_set(self.statements) or payload["pruned"]:
                return "statements differ from the per-vertex statements"
        elif command == "sem-tests":
            if code != 0 or _test_keys(payload["tests"]) != self._expected_tests():
                return "tests differ from the pairs of the per-vertex statements"
        elif command == "sem-check":
            return self._check_sem(code, payload)
        return ""

    def _expected_tests(self) -> set:
        return {(min(x, y), max(x, y), z) for x, y, z in ref.planned_tests(self.statements)}

    def _check_sem(self, code, payload) -> str:
        tests = payload["tests"]
        if payload["n"] != self.ROWS or _test_keys(tests) != self._expected_tests():
            return "tests or row count differ from the per-vertex statements"
        threshold = self.ALPHA / len(tests)
        columns = self._columns_from_file()
        for t in tests:
            r = ref.residual_partial_correlation(columns, t["x"], t["y"], t["given"])
            if t["error"] is not None or abs(t["r"] - r) > 1e-9:
                return f"r for {t['x']},{t['y']} is {t['r']}, residuals give {r}"
            p = ref.fisher_p(t["r"], self.ROWS, len(t["given"]))
            if not math.isclose(t["p"], p, rel_tol=1e-9, abs_tol=1e-300):
                return f"p for {t['x']},{t['y']} is {t['p']}, Fisher's z gives {p}"
            if t["reject"] is not (t["p"] < threshold):
                return f"reject for {t['x']},{t['y']} does not match p < alpha / tests"
            if not ref.m_separated(self.g, [t["x"]], [t["y"]], t["given"]):
                return f"tested pair {t['x']},{t['y']} is not m-separated"
        rejections = sum(t["reject"] for t in tests)
        if payload["pass"] is not (rejections == 0) or code != (0 if rejections == 0 else 1):
            return "verdict or exit code does not match the rejections"
        return ""

    def _columns_from_file(self):
        import numpy as np

        with open(self.data_path) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(self.data_path, delimiter=",", skiprows=1)
        return {v: table[:, i] for i, v in enumerate(header)}


def _test_keys(tests) -> set:
    return {(min(t["x"], t["y"]), max(t["x"], t["y"]), frozenset(t["given"])) for t in tests}


WORKLOADS = {w.name: w for w in (MsepBatch, BasisScale, DeskVerify, CliSession)}
