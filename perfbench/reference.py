"""Reference computations the benchmark checks the program against.

Written apart from ``admgci.msep``, ``admgci.markov``, ``admgci.implication``
and ``admgci.sem``; they take plain edge lists, never an ``Admg``, so no
relation cached inside the program can leak into a check.

- m-separation: give every bi-directed edge an explicit latent parent, keep
  the ancestral subgraph of the query, moralise it, delete the conditioning
  set and test undirected connectivity.
- districts: union-find over the bi-directed edges.
- partial correlation: correlation of least-squares residuals.
"""

from __future__ import annotations

import math


class Graph:
    """Plain adjacency of an ADMG, built once from edge lists."""

    def __init__(self, vertices, directed, bidirected):
        self.vertices = tuple(sorted(vertices))
        self.directed = tuple(directed)
        self.bidirected = tuple(tuple(e) for e in bidirected)
        self.pa = {v: set() for v in self.vertices}
        self.ch = {v: set() for v in self.vertices}
        self.sp = {v: set() for v in self.vertices}
        for t, h in self.directed:
            self.pa[h].add(t)
            self.ch[t].add(h)
        for u, v in self.bidirected:
            self.sp[u].add(v)
            self.sp[v].add(u)

    def closure(self, start, step) -> set:
        seen = set(start)
        stack = list(seen)
        while stack:
            for w in step[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def ancestors(self, s) -> set:
        return self.closure(s, self.pa)

    def descendants(self, s) -> set:
        return self.closure(s, self.ch)

    def topological(self) -> list:
        indeg = {v: len(self.pa[v]) for v in self.vertices}
        ready = [v for v in self.vertices if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for c in sorted(self.ch[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return order


def m_separated(g: Graph, x, y, z) -> bool:
    """m-separation by moralising the ancestral subgraph of the
    latent-augmented DAG (one latent parent per bi-directed edge)."""
    x, y, z = set(x), set(y), set(z)
    # a latent has no parents, so the ancestral set of the augmented DAG is
    # the observed ancestral set plus every latent with a child inside it
    keep = g.ancestors(x | y | z)
    adj = {v: set() for v in keep}
    parents = {v: [p for p in g.pa[v] if p in keep] for v in keep}
    for i, pair in enumerate(g.bidirected):
        for child in pair:
            if child in keep:
                adj.setdefault(("latent", i), set())
                parents[child].append(("latent", i))
    for v, ps in parents.items():
        for p in ps:
            adj[p].add(v)
            adj[v].add(p)
        for i in range(len(ps)):  # marry the parents
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])
    seen = set(x)
    stack = list(x)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for w in adj[v]:
            if w not in z and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def districts(vertices, bidirected) -> list[frozenset]:
    """Bi-directed connected components by union-find, ordered by least member."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in bidirected:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def reduced_statements(g: Graph) -> list[tuple[str, frozenset, frozenset]]:
    """The per-vertex statement I(x ; pa(x) ; V - (pa(x) | de({x} | sp(x)))),
    one per vertex whose independence side is non-empty, in vertex order.
    A statement that is the mirror image of an earlier one is the same
    statement and is kept once."""
    out = []
    seen = set()
    every = set(g.vertices)
    for x in g.vertices:
        scope = g.pa[x] | g.descendants({x} | g.sp[x])
        indep = frozenset(every - scope)
        pa = frozenset(g.pa[x])
        if indep and (indep, pa, frozenset([x])) not in seen:
            seen.add((frozenset([x]), pa, indep))
            out.append((x, pa, indep))
    return out


def planned_tests(statements) -> list[tuple[str, str, frozenset]]:
    """Distinct (x, y, given) pairwise tests of ``(x, given, indep)`` statements."""
    seen = set()
    out = []
    for x, given, indep in statements:
        for y in sorted(indep):
            key = (min(x, y), max(x, y), given)
            if key not in seen:
                seen.add(key)
                out.append((x, y, given))
    return out


def has_mixed_cycle(g: Graph) -> bool:
    """True iff some directed edge u -> w has u reachable from w by forward
    directed and bi-directed moves; a shortest such walk is a simple path,
    and a cycle closed by a bi-directed edge contains such an edge too."""
    step = {v: g.ch[v] | g.sp[v] for v in g.vertices}
    return any(u in g.closure([w], step) for u, w in g.directed)


def consistent_order(g: Graph, order) -> bool:
    """Every parent precedes its child and every district is consecutive."""
    if sorted(order) != list(g.vertices):
        return False
    pos = {v: i for i, v in enumerate(order)}
    if any(pos[t] > pos[h] for t, h in g.directed):
        return False
    for d in districts(g.vertices, g.bidirected):
        ps = sorted(pos[v] for v in d)
        if ps[-1] - ps[0] != len(ps) - 1:
            return False
    return True


def residual_partial_correlation(columns, x, y, given) -> float:
    """Correlation of the least-squares residuals of x and y on [1, given]."""
    import numpy as np

    n = columns[x].shape[0]
    design = np.column_stack([np.ones(n)] + [columns[v] for v in sorted(given)])
    targets = np.column_stack([columns[x], columns[y]])
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    res = targets - design @ coef
    rx, ry = res[:, 0], res[:, 1]
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def fisher_p(r: float, n: int, k: int) -> float:
    """Two-sided p-value of Fisher's z for a partial correlation on k given."""
    z = math.sqrt(n - k - 3) * math.atanh(r)
    return math.erfc(abs(z) / math.sqrt(2))
