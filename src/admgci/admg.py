"""Acyclic directed mixed graphs (path diagrams) and their structural relations.

An ADMG has a set of vertices, a set of directed edges whose directed part is
acyclic, and a set of bi-directed edges. A pair of vertices may carry both a
directed and a bi-directed edge. Graphs are immutable: each fact that takes
one O(V+E) pass is derived in the constructor, and only per-vertex ancestor
and descendant sets are cached on first use, so instances are safe to share
between threads.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from itertools import chain
from typing import Collection, Iterable

from .errors import CapacityError, InputError

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")  # used with fullmatch

# adjacency reads allowed to the vertex-simple path searches of one
# has_mixed_directed_path or build_collapsed_ordering call
MIXED_PATH_BUDGET = 1_000_000


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise InputError(
            f"invalid vertex name {name!r}: expected a non-empty string of "
            "letters, digits and underscores"
        )
    return name


class Admg:
    """An acyclic directed mixed graph over named vertices.

    Instances are immutable. The constructor derives, in O(V+E) each: the
    parent, child and spouse maps, the one representation every algorithm
    reads (sorted tuples, which iterate fast and in the same order under any
    hash seed); the least-name-first topological order, whose sort is also the
    acyclicity check; the districts; and the strongly connected components of
    the mixed graph (directed edges forward, bi-directed edges both ways),
    with the *cyclic* ones that hold a directed edge. Ancestor and descendant
    closures are cached per vertex on first use.

    Parameters
    ----------
    vertices:
        Iterable of vertex names. Duplicates are ignored; names from edges
        must be declared here as well.
    directed:
        Iterable of ``(tail, head)`` pairs, one per edge ``tail -> head``.
    bidirected:
        Iterable of two-element pairs, one per edge ``u <-> v``.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[Collection[str]] = (),
    ):
        names = sorted({_check_name(v) for v in vertices})
        vset = set(names)

        dir_edges: set[tuple[str, str]] = set()
        for tail, head in directed:
            if tail not in vset or head not in vset:
                raise InputError(f"directed edge ({tail!r}, {head!r}) uses an undeclared vertex")
            if tail == head:
                raise InputError(f"self-loop {tail!r} -> {head!r} is not allowed")
            if (tail, head) in dir_edges:
                raise InputError(f"duplicate directed edge {tail} -> {head}")
            dir_edges.add((tail, head))

        bi_edges: set[frozenset[str]] = set()
        for pair in bidirected:
            u, v = tuple(pair)
            if u not in vset or v not in vset:
                raise InputError(f"bi-directed edge ({u!r}, {v!r}) uses an undeclared vertex")
            if u == v:
                raise InputError(f"self-loop {u!r} <-> {v!r} is not allowed")
            edge = frozenset((u, v))
            if edge in bi_edges:
                raise InputError(f"duplicate bi-directed edge {min(u, v)} <-> {max(u, v)}")
            bi_edges.add(edge)

        self._vertices: tuple[str, ...] = tuple(names)
        self._vset = frozenset(names)
        self._directed = frozenset(dir_edges)
        self._bidirected = frozenset(bi_edges)

        pa: dict[str, set[str]] = {v: set() for v in names}
        ch: dict[str, set[str]] = {v: set() for v in names}
        sp: dict[str, set[str]] = {v: set() for v in names}
        for tail, head in dir_edges:
            pa[head].add(tail)
            ch[tail].add(head)
        for u, v in map(tuple, bi_edges):
            sp[u].add(v)
            sp[v].add(u)
        self._parents, self._children, self._spouses = (
            {v: tuple(sorted(m[v])) for v in names} for m in (pa, ch, sp)
        )

        order = _lex_topological(names, pa, ch)
        if len(order) != len(names):
            # the sort leaves out every vertex on or after a cycle, children
            # included; those on a cycle share a strong component with another
            scc = _strong_components(sorted(vset.difference(order)), ch.__getitem__)
            roots = Counter(scc.values())
            cyclic = sorted(v for v, r in scc.items() if roots[r] > 1)
            raise InputError(f"directed part has a cycle through {{{','.join(cyclic)}}}")
        self._order = tuple(order)

        self._district: dict[str, frozenset[str]] = {}
        for v in names:  # a district is met first at its least member
            if v not in self._district:
                comp = self._closure_of(v, sp, {})
                self._district.update(dict.fromkeys(comp, comp))
        self._components = tuple(dict.fromkeys(self._district.values()))

        # each vertex's component in the mixed graph, named by a member; the
        # cyclic components hold both ends of a directed edge
        scc = self._scc = _strong_components(names, lambda v: chain(ch[v], sp[v]))
        self._cyclic = frozenset(scc[t] for t, h in dir_edges if scc[t] == scc[h])
        self._hash = hash((self._vertices, self._directed, self._bidirected))

        # lazy caches; safe because the graph never mutates
        self._an_cache: dict[str, frozenset[str]] = {}
        self._de_cache: dict[str, frozenset[str]] = {}

    # --- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Admg):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._directed == other._directed
            and self._bidirected == other._bidirected
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Admg(vertices={list(self._vertices)!r}, "
            f"directed={sorted(self._directed)!r}, "
            f"bidirected={sorted(tuple(sorted(e)) for e in self._bidirected)!r})"
        )

    # --- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        """All vertex names in lexicographic order."""
        return self._vertices

    @property
    def directed_edges(self) -> frozenset[tuple[str, str]]:
        return self._directed

    @property
    def bidirected_edges(self) -> frozenset[frozenset[str]]:
        return self._bidirected

    def _check_vertex(self, name: str) -> str:
        if name not in self._vset:
            raise InputError(f"unknown vertex {name!r}")
        return name

    def _check_set(self, s: Collection[str]) -> frozenset[str]:
        if isinstance(s, str):
            raise InputError("expected a collection of vertex names, got a bare string")
        out = frozenset(s)
        for v in out:
            self._check_vertex(v)
        return out

    # --- structural relations -----------------------------------------------

    def _union(self, s: Collection[str], part) -> frozenset[str]:
        """Union of ``part(v)`` over the members ``v`` of the checked set ``s``."""
        return frozenset().union(*map(part, self._check_set(s)))

    def parents(self, s: Collection[str]) -> frozenset[str]:
        """Union of tails of directed edges into members of ``s``."""
        return self._union(s, self._parents.__getitem__)

    def children(self, s: Collection[str]) -> frozenset[str]:
        """Union of heads of directed edges out of members of ``s``."""
        return self._union(s, self._children.__getitem__)

    def spouses(self, s: Collection[str]) -> frozenset[str]:
        """Union of bi-directed neighbours of members of ``s``."""
        return self._union(s, self._spouses.__getitem__)

    def _closure_of(self, v: str, step: dict[str, frozenset[str]], cache: dict) -> frozenset[str]:
        hit = cache.get(v)
        if hit is not None:
            return hit
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in step[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        result = frozenset(seen)
        cache[v] = result
        return result

    def ancestors(self, s: Collection[str]) -> frozenset[str]:
        """Reflexive-transitive closure of the parent relation; ``s`` is included."""
        return self._union(s, lambda v: self._closure_of(v, self._parents, self._an_cache))

    def descendants(self, s: Collection[str]) -> frozenset[str]:
        """Reflexive-transitive closure of the child relation; ``s`` is included."""
        return self._union(s, lambda v: self._closure_of(v, self._children, self._de_cache))

    def district(self, x: str) -> frozenset[str]:
        """The c-component of ``x``: its connected component via bi-directed edges."""
        return self._district[self._check_vertex(x)]

    def c_components(self) -> tuple[frozenset[str], ...]:
        """Partition of the vertices into districts, ordered by least member."""
        return self._components

    def induced_subgraph(self, a: Collection[str]) -> "Admg":
        """The subgraph on ``a``: both edge sets restricted to endpoints within ``a``."""
        a = self._check_set(a)
        directed = [(t, h) for (t, h) in self._directed if t in a and h in a]
        bidirected = [e for e in self._bidirected if e <= a]
        return Admg(a, directed, bidirected)

    def is_ancestral(self, a: Collection[str]) -> bool:
        """True iff ``a`` is closed under the ancestor relation."""
        a = self._check_set(a)
        return self.ancestors(a) == a

    def has_mixed_directed_path(self, alpha: str, beta: str) -> bool:
        """True iff a vertex-simple path from ``alpha`` to ``beta`` exists whose
        edges are all bi-directed or forward-pointing directed, with at least
        one directed edge. Raises :class:`CapacityError` when the search needs
        more than ``MIXED_PATH_BUDGET`` adjacency reads."""
        self._check_vertex(alpha)
        self._check_vertex(beta)
        if alpha == beta:
            raise InputError("mixed directed paths require distinct endpoints")
        return _mixed_path_search(self._children, self._spouses, alpha, beta, [MIXED_PATH_BUDGET])

    def has_mixed_directed_cycle(self) -> bool:
        """True iff some mixed directed path is closed by an opposing edge.

        Equivalently, some strongly connected component of the mixed graph
        holds both ends of a directed edge t -> h. A mixed directed cycle
        keeps its own directed edge inside one component. Conversely, a
        shortest walk h ~> t in the mixed graph is a simple path, which
        t -> h closes into a mixed directed cycle (if that path is the single
        bi-directed edge h <-> t, the pair is a "bow": the path t -> h closed
        by t <-> h). The components are found in the constructor.
        """
        return bool(self._cyclic)

    def topological_ordering(self) -> tuple[str, ...]:
        """A consistent ordering of the vertices: the least ready name first."""
        return self._order


def _lex_topological(nodes: Iterable, parents, children) -> list:
    """Kahn's topological sort, least ready node first. The result lacks every
    node on or after a directed cycle, so it is short iff the maps hold one."""
    indeg = {n: len(parents[n]) for n in nodes}
    ready = [n for n, d in indeg.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(ready, c)
    return order


def _strong_components(nodes: Iterable, successors) -> dict:
    """Strongly connected components by an iterative Tarjan pass.

    Maps every node to the root of its component, a member that names it.
    ``successors(v)`` must yield only members of ``nodes``.
    """
    index: dict = {}
    low: dict = {}
    component: dict = {}
    stack = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        frames = [(root, iter(successors(root)))]  # (vertex, successors left)
        while frames:
            v, rest = frames[-1]
            for w in rest:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    frames.append((w, iter(successors(w))))
                    break
                if w not in component:  # visited and still on the stack
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = v
                        if w == v:
                            break
    return component


def _mixed_path_search(children, spouses, alpha, beta, budget: list[int]) -> bool:
    """Vertex-simple mixed directed path test, generic over node type.

    A witnessing path splits at its first directed edge into a simple
    bi-directed-only prefix alpha..u, the edge u -> w, and a suffix from w
    that may use any admissible move. Suffix simplicity comes for free (any
    admissible walk avoiding the prefix shortcuts to a simple path), so the
    search enumerates simple bi-directed prefixes and answers each candidate
    first edge with one plain reachability query. Vertex-simplicity cannot be
    dropped: a two-state walk search would accept walks that revisit the
    endpoint and have no simple witness.

    The prefixes can be exponentially many, so ``budget``, a one-item list of
    the adjacency reads left to one caller's searches, pays for each expanded
    vertex's children and spouses; overspending raises :class:`CapacityError`.
    """

    def expand(v) -> None:
        budget[0] -= len(children[v]) + len(spouses[v])
        if budget[0] < 0:
            raise CapacityError(
                f"the mixed directed path search from {alpha} to {beta} exceeded its "
                f"budget of {MIXED_PATH_BUDGET} adjacency reads"
            )

    def reaches(start, excluded) -> bool:
        if start == beta:
            return True
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            expand(v)
            for w in chain(children[v], spouses[v]):
                if w == beta:
                    return True
                if w not in excluded and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    on_prefix = {alpha}

    def first_edge_from(u) -> bool:
        expand(u)
        return any(
            w == beta or (w not in on_prefix and reaches(w, on_prefix)) for w in children[u]
        )

    if first_edge_from(alpha):
        return True
    frames = [(alpha, iter(spouses[alpha]))]  # one (vertex, spouses left) per prefix vertex
    while frames:
        u, rest = frames[-1]
        for v in rest:
            if v != beta and v not in on_prefix:  # the path ends at beta, so never passes it
                break
        else:
            frames.pop()
            on_prefix.discard(u)
            continue
        on_prefix.add(v)
        if first_edge_from(v):
            return True
        frames.append((v, iter(spouses[v])))
    return False


def validate_ordering(g: Admg, ordering: Iterable[str]) -> tuple[str, ...]:
    """Check that ``ordering`` is a consistent total order on ``g``'s vertices.

    Consistency means every vertex appears after all of its ancestors. It
    suffices to check parents: the first vertex in the order with a later
    ancestor also has a later parent.
    """
    order = tuple(ordering)
    if sorted(order) != list(g.vertices):
        raise InputError(
            "ordering must be a permutation of the graph's vertices "
            f"({','.join(g.vertices)}), got {','.join(order)}"
        )
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        for a in g._parents[v]:
            if position[a] > position[v]:
                raise InputError(
                    f"ordering is not consistent: {a} is an ancestor of {v} but follows it"
                )
    return order
