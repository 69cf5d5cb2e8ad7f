"""Seeded input generators. Standard library only, apart from the data
simulation for ``cli_session``.

Every generator takes a ``random.Random``; the same seed gives the same
edge lists, queries and data.
"""

from __future__ import annotations

import random
import string

import reference as ref


def sparse_admg(rng: random.Random, n: int, window: int = 40, n_bi: int = 150):
    """An ADMG on ``n`` vertices for m-separation queries.

    Vertices ``v0..`` sit in a random topological order; each vertex after
    the first two takes 2 parents among the ``window`` vertices before it.
    ``n_bi`` bi-directed edges join vertices less than ``window`` apart.
    Mixed directed cycles are allowed.
    """
    names = [f"v{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    directed = []
    for i in range(2, n):
        for p in rng.sample(range(max(0, i - window), i), 2):
            directed.append((order[p], order[i]))
    bidirected: set[tuple[str, str]] = set()
    while len(bidirected) < n_bi:
        i = rng.randrange(n)
        j = rng.randrange(max(0, i - window), min(n, i + window))
        if i != j:
            bidirected.add(tuple(sorted((order[i], order[j]))))
    return names, directed, sorted(bidirected)


def msep_queries(rng: random.Random, g: ref.Graph):
    """56 queries with |x|, |y| in 1..2 and |z| in 0..6, in random order: each
    |z| with each |y|, and |x| = 1 three times as often as |x| = 2.

    ``m_separated`` runs one reachability pass per member of x, so |x| = 2
    costs more; the fixed mix keeps p50 among the |x| = 1 queries and the
    cost distribution the same for every seed. y lies before x in the
    topological order and z starts with parents of x, so some queries are
    separated; the rest of z is random.
    """
    order = g.topological()
    pos = {v: i for i, v in enumerate(order)}
    patterns = [(nx, ny, nz) for nx in (1, 1, 1, 2) for ny in (1, 2) for nz in range(7)]
    rng.shuffle(patterns)
    queries = []
    for nx, ny, nz in patterns:
        while True:
            x = rng.sample(g.vertices, nx)
            first = min(pos[v] for v in x)
            if first >= ny + 6:
                break
        y = rng.sample(order[:first], ny)
        pa = sorted(set().union(*(g.pa[v] for v in x)) - set(x) - set(y))
        rng.shuffle(pa)
        others = [v for v in rng.sample(g.vertices, 12) if v not in x and v not in y]
        z = []
        for v in pa + others:
            if v not in z:
                z.append(v)
        queries.append((tuple(x), tuple(y), tuple(z[:nz])))
    return queries


def district_admg(rng: random.Random, n: int, parents=(0, 1, 1, 2)):
    """An ADMG with no mixed directed cycle, by construction.

    The vertices, in random order, are cut into districts of sizes 1, 2, 3
    and 4 in equal numbers (in random order); each district is a
    bi-directed chain with no internal directed edge. The vertices take
    parent counts from ``parents`` in equal numbers, each parent chosen
    uniformly among the vertices of earlier districts, so every directed
    edge runs from an earlier district to a later one. Equal numbers keep
    the edge counts, and so the work, nearly the same for every seed.
    """
    names = [f"v{i}" for i in range(n)]
    perm = names[:]
    rng.shuffle(perm)
    sizes = [1, 2, 3, 4] * (n // 10)
    rest = n - sum(sizes)
    while rest:
        sizes.append(min(4, rest))
        rest -= sizes[-1]
    rng.shuffle(sizes)
    degrees = (list(parents) * (n // len(parents) + 1))[:n]
    rng.shuffle(degrees)
    directed, bidirected = [], []
    earlier: list[str] = []
    for size in sizes:
        district = perm[len(earlier) : len(earlier) + size]
        bidirected += [(district[j], district[j + 1]) for j in range(size - 1)]
        for j, v in enumerate(district):
            k = min(degrees[len(earlier) + j], len(earlier))
            directed += [(p, v) for p in rng.sample(earlier, k)]
        earlier += district
    return names, directed, bidirected


def desk_admg(rng: random.Random, n: int, p_dir: float = 0.3, p_bi: float = 0.3):
    """A dense random ADMG on ``n`` vertices: directed edges follow a random
    permutation, bi-directed edges are independent coin flips."""
    names = [f"v{i}" for i in range(n)]
    perm = names[:]
    rng.shuffle(perm)
    directed = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p_dir]
    bidirected = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p_bi]
    return names, directed, bidirected


def monotone_names(rng: random.Random, names):
    """Map ``names`` to fresh random names that sort in the same order.

    The program breaks ties by name, so an order-preserving renaming keeps
    its orderings, bases and closures the same up to the renaming.
    """
    fresh: set[str] = set()
    while len(fresh) < len(names):
        fresh.add("".join(rng.choices(string.ascii_lowercase, k=4)))
    return dict(zip(sorted(names), sorted(fresh)))


def simulate_sem(rng: random.Random, g: ref.Graph, rows: int):
    """Rows of a linear Gaussian SEM on ``g``: path coefficients of magnitude
    0.3..1 with random sign, unit-variance errors, and one latent common
    cause per bi-directed edge. Returns {vertex: column}."""
    import numpy as np

    gen = np.random.default_rng(rng.randrange(2**32))
    columns = {v: gen.standard_normal(rows) for v in g.vertices}
    for u, v in g.bidirected:
        latent = gen.standard_normal(rows)
        columns[u] += rng.uniform(0.3, 0.8) * latent
        columns[v] += rng.uniform(0.3, 0.8) * latent
    for v in g.topological():  # parents are standardised before their children use them
        for p in sorted(g.pa[v]):
            columns[v] += rng.choice((-1, 1)) * rng.uniform(0.3, 1.0) * columns[p]
        columns[v] /= columns[v].std()
    return columns


def write_graph(path, directed, bidirected, vertices) -> None:
    lines = [f"{t} -> {h}" for t, h in directed]
    lines += [f"{u} <-> {v}" for u, v in bidirected]
    touched = {v for e in directed for v in e} | {v for e in bidirected for v in e}
    lines += [v for v in vertices if v not in touched]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, columns) -> None:
    import numpy as np

    names = sorted(columns)
    table = np.column_stack([columns[v] for v in names])
    np.savetxt(path, table, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
