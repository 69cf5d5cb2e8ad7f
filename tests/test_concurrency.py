import itertools
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from admgci import (
    Admg,
    InputError,
    m_separated,
    maximal_ancestral_sets,
    ordered_local_markov,
    reduced_basis,
    reduced_local_markov,
)
from admgci.markov import _reduced_statement
from conftest import district_chain_admg, random_admg, random_sparse_admg


def test_shared_graph_queries_are_thread_safe():
    # graphs are immutable with lazily filled caches; hammer one instance
    # from several threads and compare against the sequential answers
    rng = np.random.default_rng(70)
    g = random_admg(rng, 7)
    order = reduced_basis(g).ordering
    queries = [
        ([x], [y], z)
        for x, y in itertools.permutations(g.vertices, 2)
        for z in ([], [v for v in g.vertices if v not in (x, y)][:2])
    ]
    sequential = [m_separated(g, *q) for q in queries]
    sequential_sets = [maximal_ancestral_sets(g, x, order) for x in order]

    def worker(_):
        return (
            [m_separated(g, *q) for q in queries],
            [maximal_ancestral_sets(g, x, order) for x in order],
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        for answers, sets in pool.map(worker, range(16)):
            assert answers == sequential
            assert sets == sequential_sets


def reduced_local_or_error(g: Admg):
    try:
        return reduced_local_markov(g)
    except InputError as exc:
        return str(exc)


def oriented(statements) -> list[tuple]:
    """Statements as plain tuples, so that a comparison sees the orientation."""
    return [tuple(st) for st in statements]


def test_cold_graph_first_queries_from_eight_threads():
    # m-separation reads only maps the constructor built, while the ancestor,
    # descendant and reduced-statement caches and the ordered-local memo are
    # filled by whichever call comes first; on a fresh graph, eight threads
    # make their first calls at the same moment
    rng = np.random.default_rng(71)
    template = random_sparse_admg(rng, 300)
    queries = []
    for _ in range(40):
        vs = list(rng.permutation(template.vertices))
        x, y = vs[:2], vs[2:4]
        queries.append((x, y, sorted(template.parents(x) - set(x) - set(y))))
    sequential = [m_separated(template, *q) for q in queries]
    assert 0 < sum(sequential) < len(queries)
    probes = list(template.vertices[::7])
    reduced = [_reduced_statement(template, v) for v in probes]
    ancestors = [template.ancestors([v]) for v in probes]
    # the basis and the reduced local property on the graph, which has a
    # mixed directed cycle, and on one without
    calm = district_chain_admg(rng, 300)
    assert template.has_mixed_directed_cycle() and not calm.has_mixed_directed_cycle()
    bases = [reduced_basis(t) for t in (template, calm)]
    local = [reduced_local_or_error(t) for t in (template, calm)]
    assert isinstance(local[0], str) and isinstance(local[1], list)
    # the basis of the graph with a mixed directed cycle leaves an
    # ordered-local memo; that of the other enumerates no vertex
    cyclic_order = bases[0].ordering
    ordered = oriented(ordered_local_markov(template, cyclic_order))

    def worker(shift):
        barrier.wait()
        order = queries[shift:] + queries[:shift]
        answers = [m_separated(cold, *q) for q in order]
        turn = probes[shift:] + probes[:shift]
        got_reduced = {v: _reduced_statement(cold, v) for v in turn}
        got_ancestors = {v: cold.ancestors([v]) for v in reversed(turn)}
        # half the workers fill the reduced-statement caches from the basis,
        # half from the reduced local property; the ordered-local lists come
        # before this worker's basis or after it
        graphs = (cold, cold_calm)
        if shift % 10:
            got_ordered = ordered_local_markov(cold, cyclic_order)
            got_local = [reduced_local_or_error(c) for c in graphs]
            got_bases = [reduced_basis(c) for c in graphs]
        else:
            got_bases = [reduced_basis(c) for c in graphs]
            got_local = [reduced_local_or_error(c) for c in graphs]
            got_ordered = ordered_local_markov(cold, cyclic_order)
        # on the cycle-free graph the basis is all reduced-form statements,
        # each the very object the reduced local property returned
        shared = {id(st) for st in got_local[1]}
        assert all(id(st) in shared for st in got_bases[1].statements)
        return (
            answers[len(queries) - shift :] + answers[: len(queries) - shift],
            [got_reduced[v] for v in probes],
            [got_ancestors[v] for v in probes],
            got_bases,
            got_local,
            oriented(got_ordered),
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, also inside the cache fills
    try:
        for _ in range(5):
            cold = Admg(template.vertices, template.directed_edges, template.bidirected_edges)
            cold_calm = Admg(calm.vertices, calm.directed_edges, calm.bidirected_edges)
            barrier = threading.Barrier(8, timeout=60)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = pool.map(worker, range(0, 40, 5))
                for answers, got_reduced, got_ancestors, *got in results:
                    got_bases, got_local, got_ordered = got
                    assert answers == sequential
                    assert got_reduced == reduced
                    assert got_ancestors == ancestors
                    assert got_bases == bases
                    assert got_local == local
                    assert got_ordered == ordered
    finally:
        sys.setswitchinterval(interval)


LAZY_NAMES_PROBE = """
import json, sys, threading
import admgci
names = ["Admg", "CiStatement", "closure", "m_separated", "reduced_basis", "DataTable"]
barrier = threading.Barrier(8, timeout=60)
seen = [None] * 8

def worker(i):
    barrier.wait()
    seen[i] = [getattr(admgci, n) for n in names]

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({
    "alive": sum(t.is_alive() for t in threads),
    "identical": [all(s[k] is seen[0][k] for s in seen) for k in range(len(names))],
    "bound": [vars(admgci).get(n) is seen[0][k] for k, n in enumerate(names)],
}))
"""


def test_first_lazy_access_from_eight_threads():
    # the package resolves its public names on first access; eight threads
    # making that first access at once in a fresh interpreter all get the
    # one object, which is then bound in the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMES_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"alive": 0, "identical": [True] * 6, "bound": [True] * 6}
