"""Independent reference implementations used only as test oracles.

These deliberately avoid the package's algorithms: d- and m-separation go
through moralization, mixed-directed-path detection enumerates simple paths,
and the axiom closure applies one rule family at a time to the whole set.
"""

from __future__ import annotations

from itertools import chain, combinations

from admgci import Admg, CiStatement


def d_separated_moral(g: Admg, x_set, y_set, z_set) -> bool:
    """Textbook d-separation for DAGs: restrict to the ancestors of the query,
    moralize, delete the conditioning set, and test undirected connectivity."""
    assert not g.bidirected_edges, "moralization oracle applies to DAGs only"
    x, y, z = frozenset(x_set), frozenset(y_set), frozenset(z_set)
    keep = g.ancestors(x | y | z)
    sub = g.induced_subgraph(keep)
    adj: dict[str, set[str]] = {v: set() for v in sub.vertices}
    for t, h in sub.directed_edges:
        adj[t].add(h)
        adj[h].add(t)
    for v in sub.vertices:  # marry the parents of every vertex
        ps = sorted(sub.parents([v]))
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])
    blocked = set(z)
    stack = [v for v in x if v not in blocked]
    seen = set(stack)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for w in adj[v]:
            if w not in blocked and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def m_separated_latent_moral(g: Admg, x_set, y_set, z_set) -> bool:
    """m-separation by moralization of the latent-augmented DAG.

    Every bi-directed edge u <-> v becomes an explicit latent vertex with the
    two children u and v. The DAG is restricted to the ancestors of the
    query, moralized, z is deleted, and x and y are tested for undirected
    connectivity (Richardson 2003: an ADMG and its canonical DAG agree on
    m-separation among the observed vertices)."""
    x, y, z = frozenset(x_set), frozenset(y_set), frozenset(z_set)
    parents: dict[object, set] = {v: set(g.parents([v])) for v in g.vertices}
    for i, edge in enumerate(sorted(sorted(e) for e in g.bidirected_edges)):
        latent = ("L", i)
        parents[latent] = set()
        for v in edge:
            parents[v].add(latent)
    keep = set(x | y | z)
    stack = list(keep)
    while stack:
        for p in parents[stack.pop()]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    adj: dict[object, set] = {v: set() for v in keep}
    for v in keep:
        for p in parents[v]:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in combinations(parents[v], 2):  # marry the parents
            adj[p].add(q)
            adj[q].add(p)
    stack = list(x)
    seen = set(stack)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for w in adj[v]:
            if w not in z and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def mixed_directed_path_by_enumeration(g: Admg, alpha: str, beta: str) -> bool:
    """Exhaustive simple-path search for a mixed directed path."""

    def walk(v: str, on_path: set[str], used_directed: bool) -> bool:
        if v == beta:
            return used_directed
        for w in g.children([v]):
            if w not in on_path and walk(w, on_path | {w}, True):
                return True
        for w in g.spouses([v]):
            if w not in on_path and walk(w, on_path | {w}, used_directed):
                return True
        return False

    return walk(alpha, {alpha}, False)


def _proper_nonempty_subsets(s: frozenset):
    items = sorted(s)
    for k in range(1, len(items)):
        for combo in combinations(items, k):
            yield frozenset(combo)


def closure_round_robin(seed, composition: bool) -> set[CiStatement]:
    """Fixpoint applying one rule family per pass over the whole set."""
    current: set[CiStatement] = set(seed)

    def orientations(st):
        yield st.x, st.z, st.y
        yield st.y, st.z, st.x

    def decomposition(stmts):
        for st in stmts:
            for x, z, y in orientations(st):
                for sub in _proper_nonempty_subsets(y):
                    yield CiStatement(x, z, sub)

    def weak_union(stmts):
        for st in stmts:
            for x, z, y in orientations(st):
                for moved in _proper_nonempty_subsets(y):
                    yield CiStatement(x, z | moved, y - moved)

    def contraction(stmts):
        for s1 in stmts:
            for x1, z1, y1 in orientations(s1):
                for s2 in stmts:
                    for x2, z2, y2 in orientations(s2):
                        if x1 == x2 and z2 == z1 | y1:
                            yield CiStatement(x1, z1, y1 | y2)

    def composition_rule(stmts):
        for s1 in stmts:
            for x1, z1, y1 in orientations(s1):
                for s2 in stmts:
                    for x2, z2, y2 in orientations(s2):
                        if x1 == x2 and z1 == z2 and not y1 & y2:
                            yield CiStatement(x1, z1, y1 | y2)

    families = [decomposition, weak_union, contraction]
    if composition:
        families.append(composition_rule)

    changed = True
    while changed:
        changed = False
        for family in families:
            fresh = set(family(tuple(current))) - current
            if fresh:
                current |= fresh
                changed = True
    return current


def all_subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))
