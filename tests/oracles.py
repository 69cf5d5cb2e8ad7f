"""Independent reference implementations used only as test oracles.

These deliberately avoid the package's algorithms: d- and m-separation go
through moralization, the topological order scans for the least ready
vertex, mixed-directed-path and -cycle detection enumerate simple paths, the
collapsed ordering re-sorts the edges and searches every pair, the
reduced-form statements walk the edge sets breadth first, the maximal
ancestral sets scan every subset of the ordering prefix, Markov blankets and
the pruning rule are read off induced subgraphs, statements are keyed
by sorted name tuples, the axiom closure applies one rule family at a time
to the whole set, and the CSV reader converts every cell with ``float``.
"""

from __future__ import annotations

import csv
from collections import deque
from itertools import chain, combinations

import numpy as np

from admgci import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    Admg,
    CiStatement,
    InputError,
    maximal_ancestral_sets,
    reduced_form_applies,
    reduced_scope,
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


def maximal_ancestral_sets_by_scan(g: Admg, x: str, ordering) -> list[frozenset[str]]:
    """Every ancestral A with x in A <= pre(x), found by scanning all subsets
    of the ordering prefix as bitmasks, bucketed by Markov blanket; the sets
    of each bucket not strictly inside another of the same bucket survive.
    Ordered by descending size, then name."""
    order = list(ordering)
    pre = order[: order.index(x) + 1]
    bit = {v: 1 << i for i, v in enumerate(pre)}
    an_mask = {v: sum(bit[a] for a in g.ancestors([v])) for v in pre}
    buckets: dict[frozenset[str], list[int]] = {}
    for mask in range(1 << len(pre)):
        if not mask & bit[x]:
            continue
        if any(mask & bit[v] and an_mask[v] & ~mask for v in pre):
            continue  # not ancestral
        members = frozenset(v for v in pre if mask & bit[v])
        buckets.setdefault(blanket_by_definition(g, x, members), []).append(mask)
    result = [
        frozenset(v for v in pre if m & bit[v])
        for masks in buckets.values()
        for m in masks
        if not any(o != m and m & o == m for o in masks)
    ]
    result.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return result


def blanket_by_definition(g: Admg, x: str, a) -> frozenset[str]:
    """The Markov blanket of ``x`` in the subgraph on ``a``, read off that
    subgraph: x's district there and the parents of that district there,
    without ``x``."""
    sub = g.induced_subgraph(a)
    district = sub.district(x)
    return (district | sub.parents(district)) - {x}


def redundant_by_definition(g: Admg, x: str, ordering, a) -> bool:
    """The pruning rule read off induced subgraphs: the members of x's
    district in the subgraph on its prefix that x's district in the subgraph
    on ``a`` lacks must all lie outside ``a``, and their parents must lie in
    x's blanket in ``a``."""
    order = list(ordering)
    pre = order[: order.index(x) + 1]
    dropped = g.induced_subgraph(pre).district(x) - g.induced_subgraph(a).district(x)
    return dropped.isdisjoint(a) and g.parents(dropped) <= blanket_by_definition(g, x, a)


def reduced_basis_reference(g: Admg, ordering) -> tuple[list[CiStatement], list[str], list]:
    """The basis procedure one vertex at a time, through the public,
    self-validating entry points and the definitions above: the reduced-form
    statement where ``reduced_form_applies``, else every ordered-local
    statement whose set :func:`redundant_by_definition` does not prune.
    Returns statements, provenance tags and (pruned statement, index of the
    implying statement) pairs."""
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
            mb = blanket_by_definition(g, x, a)
            indep = a - mb - {x}
            stmt = CiStatement([x], mb, indep) if indep else None
            if i == 0:
                top = emit(stmt, ORDERED_LOCAL) if stmt else None
            elif redundant_by_definition(g, x, order, a):
                if stmt:
                    pruned.append((stmt, top))
            elif stmt:
                emit(stmt, ORDERED_LOCAL)
    return statements, provenance, pruned


def sorted_statement_key(st: CiStatement) -> tuple:
    """A statement's identity up to swapping its independence sides, as sorted
    name tuples with the lexicographically smaller side first."""
    tx, tz, ty = tuple(sorted(st.x)), tuple(sorted(st.z)), tuple(sorted(st.y))
    return (tx, tz, ty) if tx <= ty else (ty, tz, tx)


def reduced_statements_by_bfs(g: Admg, order) -> list[CiStatement]:
    """The reduced-form statement I(x ; pa(x) ; V - pa(x) - de({x} | sp(x)))
    of each vertex in ``order`` with a non-empty independence side, first
    occurrences only. Reads nothing but ``g.directed_edges`` and
    ``g.bidirected_edges``; descendants come from one breadth-first search
    per vertex, and duplicates are found by :func:`sorted_statement_key`."""
    parents = {v: set() for v in g.vertices}
    children = {v: set() for v in g.vertices}
    spouses = {v: set() for v in g.vertices}
    for t, h in g.directed_edges:
        parents[h].add(t)
        children[t].add(h)
    for u, w in map(tuple, g.bidirected_edges):
        spouses[u].add(w)
        spouses[w].add(u)
    out, seen = [], set()
    for x in order:
        reached = {x} | spouses[x]
        todo = deque(reached)
        while todo:
            for c in children[todo.popleft()]:
                if c not in reached:
                    reached.add(c)
                    todo.append(c)
        indep = set(g.vertices) - reached - parents[x]
        if indep:
            st = CiStatement([x], parents[x], indep)
            key = sorted_statement_key(st)
            if key not in seen:
                seen.add(key)
                out.append(st)
    return out


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

    def oriented(stmts):
        return [o for st in stmts for o in orientations(st)]

    def contraction(stmts):
        pairs = oriented(stmts)
        for x1, z1, y1 in pairs:
            for x2, z2, y2 in pairs:
                if x1 == x2 and z2 == z1 | y1:
                    yield CiStatement(x1, z1, y1 | y2)

    def composition_rule(stmts):
        pairs = oriented(stmts)
        for x1, z1, y1 in pairs:
            for x2, z2, y2 in pairs:
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


def csv_by_rows(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and values of a CSV data file, one ``float`` per cell,
    with the errors ``DataTable.from_csv`` raises."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            variables, rows, lines = _float_rows(reader)
        except csv.Error as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError("data file contains no observations")
    for lineno, row in zip(lines, rows):
        for name, value in zip(variables, row):
            if not np.isfinite(value):
                raise InputError(f"line {lineno}: non-finite value {value} in column {name!r}")
    return variables, np.array(rows, dtype=float)


def _float_rows(reader):
    """Header names, the non-blank rows as floats and their line numbers."""
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty data file: a header row is required") from None
    variables = tuple(h.strip() for h in header)
    if len(set(variables)) != len(variables):
        duplicate = next(v for v in variables if variables.count(v) > 1)
        raise InputError(f"line 1: duplicate column {duplicate!r} in the header")
    rows, lines = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(variables):
            raise InputError(f"line {lineno}: expected {len(variables)} fields")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        lines.append(lineno)
    return variables, rows, lines
