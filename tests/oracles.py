"""Independent reference implementations used only as test oracles.

These deliberately avoid the package's algorithms: d- and m-separation go
through moralization, the topological order scans for the least ready
vertex, mixed-directed-path and -cycle detection enumerate simple paths, the
collapsed ordering re-sorts the edges and searches every pair, and the axiom
closure applies one rule family at a time to the whole set.
"""

from __future__ import annotations

from itertools import chain, combinations

from admgci import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    Admg,
    CiStatement,
    markov_blanket,
    maximal_ancestral_sets,
    reduced_form_applies,
    reduced_scope,
    redundant_ancestral_set,
)


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


def least_ready_first_order(g: Admg) -> tuple[str, ...]:
    """The topological order that places, at every step, the least-named
    vertex whose parents are all placed; a quadratic scan, no heap."""
    placed: list[str] = []
    while len(placed) < len(g.vertices):
        done = set(placed)
        placed.append(
            min(v for v in g.vertices if v not in done and g.parents([v]) <= done)
        )
    return tuple(placed)


def _mixed_path_over(children, spouses, alpha, beta) -> bool:
    """Exhaustive simple-path search for a mixed directed path over adjacency
    maps of any node type."""

    def walk(v, on_path: set, used_directed: bool) -> bool:
        if v == beta:
            return used_directed
        for w in children[v]:
            if w not in on_path and walk(w, on_path | {w}, True):
                return True
        for w in spouses[v]:
            if w not in on_path and walk(w, on_path | {w}, used_directed):
                return True
        return False

    return walk(alpha, {alpha}, False)


def mixed_directed_path_by_enumeration(g: Admg, alpha: str, beta: str) -> bool:
    """Exhaustive simple-path search for a mixed directed path."""
    children = {v: g.children([v]) for v in g.vertices}
    spouses = {v: g.spouses([v]) for v in g.vertices}
    return _mixed_path_over(children, spouses, alpha, beta)


def mixed_directed_cycle_by_enumeration(g: Admg) -> bool:
    """A mixed directed path closed by an opposing edge: a directed edge
    t -> h with a mixed directed path h ~> t, or a bi-directed edge with a
    mixed directed path between its ends in either direction."""
    for t, h in sorted(g.directed_edges):
        if mixed_directed_path_by_enumeration(g, h, t):
            return True
    for u, v in sorted(sorted(e) for e in g.bidirected_edges):
        if any(mixed_directed_path_by_enumeration(g, a, b) for a, b in ((u, v), (v, u))):
            return True
    return False


def collapsed_ordering_reference(g: Admg) -> tuple[str, ...]:
    """The collapse as the paper states it, step by step: re-sort every
    remaining bi-directed edge between supernodes (frozensets, compared by
    their sorted members), take the least, search both directions for a mixed
    directed path by enumeration, and drop the edge if one exists or merge the
    pair if not. Then sort the supernode DAG topologically, least label first."""
    children: dict[frozenset, set] = {frozenset({v}): set() for v in g.vertices}
    parents: dict[frozenset, set] = {n: set() for n in children}
    spouses: dict[frozenset, set] = {n: set() for n in children}
    for t, h in g.directed_edges:
        children[frozenset({t})].add(frozenset({h}))
        parents[frozenset({h})].add(frozenset({t}))
    for u, v in map(tuple, g.bidirected_edges):
        spouses[frozenset({u})].add(frozenset({v}))
        spouses[frozenset({v})].add(frozenset({u}))

    def label(n):
        return tuple(sorted(n))

    while True:
        edges = sorted(
            (label(a), label(b), a, b) for a in spouses for b in spouses[a] if label(a) < label(b)
        )
        if not edges:
            break
        _, _, u, w = edges[0]
        if _mixed_path_over(children, spouses, u, w) or _mixed_path_over(children, spouses, w, u):
            spouses[u].discard(w)
            spouses[w].discard(u)
            continue
        merged = u | w
        for maps in (parents, children, spouses):
            maps[merged] = (maps[u] | maps[w]) - {u, w}
        for n in (u, w):
            for p in parents.pop(n):
                children[p].discard(n)
            for c in children.pop(n):
                parents[c].discard(n)
            for s in spouses.pop(n):
                spouses[s].discard(n)
        for p in parents[merged]:
            children[p].add(merged)
        for c in children[merged]:
            parents[c].add(merged)
        for s in spouses[merged]:
            spouses[s].add(merged)

    order: list[str] = []
    placed: set = set()
    while len(placed) < len(children):
        ready = [n for n in children if n not in placed and parents[n] <= placed]
        n = min(ready, key=label)
        placed.add(n)
        order.extend(label(n))
    return tuple(order)


def reduced_basis_reference(g: Admg, ordering) -> tuple[list[CiStatement], list[str], list]:
    """The basis procedure through the public, self-validating entry points,
    one vertex at a time: the reduced-form statement where
    ``reduced_form_applies``, else every ordered-local statement not certified
    by ``redundant_ancestral_set``. Returns statements, provenance tags and
    (pruned statement, index of the implying statement) pairs."""
    order = list(ordering)
    statements: list[CiStatement] = []
    provenance: list[str] = []
    pruned: list = []

    def emit(stmt, tag):
        if stmt not in statements:
            statements.append(stmt)
            provenance.append(tag)
        return statements.index(stmt)

    for x in order:
        if reduced_form_applies(g, x, order):
            indep = frozenset(g.vertices) - reduced_scope(g, x)
            if indep:
                emit(CiStatement([x], g.parents([x]), indep), REDUCED_FORM)
            continue
        top = None
        for i, a in enumerate(maximal_ancestral_sets(g, x, order)):
            mb = markov_blanket(g, x, a)
            indep = a - mb - {x}
            stmt = CiStatement([x], mb, indep) if indep else None
            if i == 0:
                top = emit(stmt, ORDERED_LOCAL) if stmt else None
            elif redundant_ancestral_set(g, x, order, a):
                if stmt:
                    pruned.append((stmt, top))
            elif stmt:
                emit(stmt, ORDERED_LOCAL)
    return statements, provenance, pruned


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
