import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from admgci import Admg, m_separated, maximal_ancestral_sets, reduced_basis
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
    # the latent-augmented maps are built by whichever query comes first; on a
    # fresh graph, eight threads make their first queries at the same moment
    rng = np.random.default_rng(71)
    template = random_sparse_admg(rng, 300)
    queries = []
    for _ in range(40):
        vs = list(rng.permutation(template.vertices))
        x, y = vs[:2], vs[2:4]
        queries.append((x, y, sorted(template.parents(x) - set(x) - set(y))))
    sequential = [m_separated(template, *q) for q in queries]
    assert 0 < sum(sequential) < len(queries)

    def worker(shift):
        barrier.wait()
        order = queries[shift:] + queries[:shift]
        answers = [m_separated(cold, *q) for q in order]
        return answers[len(queries) - shift :] + answers[: len(queries) - shift]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, also during the build
    try:
        for _ in range(5):
            cold = Admg(template.vertices, template.directed_edges, template.bidirected_edges)
            barrier = threading.Barrier(8, timeout=60)
            with ThreadPoolExecutor(max_workers=8) as pool:
                for answers in pool.map(worker, range(0, 40, 5)):
                    assert answers == sequential
    finally:
        sys.setswitchinterval(interval)
