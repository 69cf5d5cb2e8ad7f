import numpy as np
import pytest

from admgci import Admg, fixture_graph

_NAMES = "abcdefghijklmnop"


@pytest.fixture(scope="session")
def figure1() -> Admg:
    return fixture_graph("figure1")


@pytest.fixture(scope="session")
def figure2() -> Admg:
    return fixture_graph("figure2")


@pytest.fixture(scope="session")
def figure3() -> Admg:
    return fixture_graph("figure3")


def random_admg(rng: np.random.Generator, n: int, p_dir=0.35, p_bi=0.3) -> Admg:
    """A random ADMG on n short-named vertices: directed edges follow a random
    permutation (guaranteeing acyclicity), bi-directed edges are independent."""
    vs = list(_NAMES[:n])
    perm = list(rng.permutation(vs))
    directed = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p_dir
    ]
    bidirected = [
        (vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p_bi
    ]
    return Admg(vs, directed, bidirected)


def random_cycle_free_admg(rng: np.random.Generator, n: int, p_dir=0.35, p_bi=0.3) -> Admg:
    """Rejection-sample until the graph has no mixed directed cycle."""
    while True:
        g = random_admg(rng, n, p_dir, p_bi)
        if not g.has_mixed_directed_cycle():
            return g


def random_block_admg(rng: np.random.Generator, n: int, p_dir=0.35, p_bi=0.5) -> Admg:
    """A random ADMG on n short-named vertices with no mixed directed cycle,
    drawn without rejection: a random permutation is cut into blocks (each
    gap a cut with probability 1/2), bi-directed edges join pairs inside a
    block and directed edges point forward across blocks. No edge leads to an
    earlier block and every directed edge leads to a later one, so no cycle
    of the mixed graph holds a directed edge."""
    perm = list(rng.permutation(list(_NAMES[:n])))
    block = np.cumsum(rng.random(n) < 0.5)
    directed, bidirected = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if block[i] < block[j]:
                if rng.random() < p_dir:
                    directed.append((perm[i], perm[j]))
            elif rng.random() < p_bi:
                bidirected.append((perm[i], perm[j]))
    return Admg(perm, directed, bidirected)


def random_dag(rng: np.random.Generator, n: int, p_dir=0.4) -> Admg:
    return random_admg(rng, n, p_dir=p_dir, p_bi=0.0)


def random_bidirected_graph(rng: np.random.Generator, n: int, p_bi=0.4) -> Admg:
    return random_admg(rng, n, p_dir=0.0, p_bi=p_bi)


def random_sparse_admg(rng: np.random.Generator, n: int, window=8, max_parents=3) -> Admg:
    """A random ADMG on vertices v0..v{n-1} for graphs beyond the short names.

    In a random order each vertex takes up to ``max_parents`` parents among
    the ``window`` vertices before it; n // 3 bi-directed edges join
    uniformly drawn pairs, so mixed directed cycles are common."""
    names = [f"v{i}" for i in range(n)]
    order = list(rng.permutation(names))
    directed = set()
    for i in range(1, n):
        lo = max(0, i - window)
        k = int(rng.integers(0, min(max_parents, i - lo) + 1))
        for j in rng.choice(np.arange(lo, i), size=k, replace=False):
            directed.add((order[j], order[i]))
    bidirected = set()
    while len(bidirected) < n // 3:
        i, j = rng.choice(n, size=2, replace=False)
        bidirected.add((names[min(i, j)], names[max(i, j)]))
    return Admg(names, directed, bidirected)


def district_chain_admg(rng: np.random.Generator, n: int, window=10, max_parents=3) -> Admg:
    """A random ADMG on v0..v{n-1} with no mixed directed cycle.

    The vertices fall into consecutive districts of 1..4, each a bi-directed
    chain v_i <-> v_{i+1} <-> ...; every vertex takes up to ``max_parents``
    parents among the ``window`` vertices before its district. Directed edges
    thus only enter later districts and bi-directed edges stay inside one, so
    no mixed directed path returns to where it started."""
    names = [f"v{i}" for i in range(n)]
    directed, bidirected = [], []
    start = 0
    while start < n:
        end = min(n, start + int(rng.integers(1, 5)))
        bidirected += [(names[i], names[i + 1]) for i in range(start, end - 1)]
        lo = max(0, start - window)
        for i in range(start, end):
            k = int(rng.integers(0, min(max_parents, start - lo) + 1))
            picks = rng.choice(np.arange(lo, start), size=k, replace=False)
            directed += [(names[j], names[i]) for j in picks]
        start = end
    return Admg(names, directed, bidirected)
