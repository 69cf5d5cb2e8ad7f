import itertools
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from admgci import Admg, m_separated, maximal_ancestral_sets, reduced_basis, reduced_scope
from conftest import random_admg, random_sparse_admg


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


def test_cold_graph_first_queries_from_eight_threads():
    # m-separation reads only maps the constructor built, while the ancestor
    # and descendant caches are filled by whichever call comes first; on a
    # fresh graph, eight threads make their first calls at the same moment
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
    scopes = [reduced_scope(template, v) for v in probes]
    ancestors = [template.ancestors([v]) for v in probes]

    def worker(shift):
        barrier.wait()
        order = queries[shift:] + queries[:shift]
        answers = [m_separated(cold, *q) for q in order]
        turn = probes[shift:] + probes[:shift]
        got_scopes = {v: reduced_scope(cold, v) for v in turn}
        got_ancestors = {v: cold.ancestors([v]) for v in reversed(turn)}
        return (
            answers[len(queries) - shift :] + answers[: len(queries) - shift],
            [got_scopes[v] for v in probes],
            [got_ancestors[v] for v in probes],
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, also inside the cache fills
    try:
        for _ in range(5):
            cold = Admg(template.vertices, template.directed_edges, template.bidirected_edges)
            barrier = threading.Barrier(8, timeout=60)
            with ThreadPoolExecutor(max_workers=8) as pool:
                for answers, got_scopes, got_ancestors in pool.map(worker, range(0, 40, 5)):
                    assert answers == sequential
                    assert got_scopes == scopes
                    assert got_ancestors == ancestors
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
