"""Local Markov machinery for ADMGs.

Covers Markov blankets, the maximal ancestral sets behind the ordered local
Markov property, the one-statement-per-vertex reduced form valid for graphs
without mixed directed cycles (under the composition axiom), the collapsed
ordering construction, and the pruning procedure that yields a small basis
of conditional-independence statements for arbitrary ADMGs.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain

from .admg import MIXED_PATH_BUDGET, Admg, validate_ordering
from .admg import _lex_topological, _mixed_path_search, _strong_components
from .errors import CapacityError, InputError, InternalError
from .statements import CiStatement, _trusted, dedupe

# connected sub-districts (leaves of the take/exclude enumeration) one
# maximal-ancestral-set call may visit; a bi-directed clique of 16 members
# before the vertex has exactly this many
ANCESTRAL_SET_BUDGET = 2**16

REDUCED_FORM = "reduced-form"
ORDERED_LOCAL = "ordered-local"


# the record types below are named tuples: immutable, compared and hashed
# field by field, as tuples


class PrunedStatement(namedtuple("PrunedStatement", "statement implied_by")):
    """A statement dropped from the basis because an emitted one implies it:
    the :class:`CiStatement` and the index into ``ReducedBasis.statements`` of
    the statement implying it."""

    __slots__ = ()


class ReducedBasis(namedtuple("ReducedBasis", "ordering statements provenance pruned")):
    """Output of :func:`reduced_basis`: the ordering used (a tuple of names),
    the statements, one provenance tag per statement, and the audit trail of
    pruned statements, each a tuple."""

    __slots__ = ()

    def __new__(cls, ordering, statements, provenance, pruned):
        if len(statements) != len(provenance):
            raise InternalError("one provenance tag per statement required")
        return super().__new__(cls, ordering, statements, provenance, pruned)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which would skip the check
        return cls(*iterable)


# --- blankets and ancestral sets ---------------------------------------------


def _district_in(g: Admg, x: str, members: frozenset[str]) -> frozenset[str]:
    """District of ``x`` in the subgraph induced on ``members`` (x assumed in)."""
    comp = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in g._spouses[v]:
            if w in members and w not in comp:
                comp.add(w)
                stack.append(w)
    return frozenset(comp)


def _blanket(g: Admg, x: str, d: frozenset[str]) -> frozenset[str]:
    """Markov blanket of ``x`` in an ancestral set whose district of ``x`` is
    ``d``: the set holds pa(d), so the blanket is pa(d) | d - {x}."""
    return frozenset(chain(d, *(g._parents[v] for v in d))) - {x}


def maximal_ancestral_sets(g: Admg, x: str, ordering: Iterable[str]) -> list[frozenset[str]]:
    """All ancestral sets A with ``x in A <= pre(x)`` that are maximal with
    respect to their Markov blanket: one per connected sub-district of ``x``.

    An ancestral A holds the parents of D = dis_A(x), so its blanket is
    pa(D) | D - {x}, and D is the district of ``x`` in that blanket plus
    ``x``: blankets and D match one to one. The ancestral sets with district
    D avoid B = sp(D) & pre(x) - D, hence de(B), and pre(x) - de(B) is
    ancestral: it is the one maximal set, kept iff it still holds D. The D
    range over the bi-directed connected sets that hold ``x`` inside its
    district within pre(x); :class:`CapacityError` is raised once more than
    ``ANCESTRAL_SET_BUDGET`` of them are visited. Ordered by descending size,
    then name.
    """
    order = validate_ordering(g, ordering)
    g._check_vertex(x)
    return [a for a, _ in _maximal_ancestral_sets(g, x, order[: order.index(x) + 1])]


def _maximal_ancestral_sets(
    g: Admg, x: str, pre: tuple[str, ...]
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """:func:`maximal_ancestral_sets` for the validated prefix ``pre`` ending in
    ``x``, each set paired with its D; the first D is x's district in ``pre``."""
    prefix = frozenset(pre)
    district = _district_in(g, x, prefix)
    budget, leaves = ANCESTRAL_SET_BUDGET, 0
    # each step takes or excludes the least frontier vertex; at a leaf the
    # excluded vertices are exactly the spouses of ``chosen`` in the prefix,
    # and the leaves are the distinct connected sub-districts that hold x
    result: list[tuple[frozenset[str], frozenset[str]]] = []
    stack = [(frozenset({x}), district.intersection(g._spouses[x]), frozenset())]
    while stack:
        chosen, frontier, excluded = stack.pop()
        if frontier:
            v = min(frontier)
            rest, grown = frontier - {v}, chosen | {v}
            stack.append((chosen, rest, excluded | {v}))
            reach = district.intersection(g._spouses[v]) - grown - excluded
            stack.append((grown, rest | reach, excluded))
            continue
        leaves += 1
        if leaves > budget:
            raise CapacityError(
                f"the ancestral-set enumeration of {x} counted {leaves} connected "
                f"sub-districts, over its budget of {budget}"
            )
        blocked = frozenset().union(*(g._closure_of(b, g._children, g._de_cache) for b in excluded))
        if chosen.isdisjoint(blocked):
            result.append((prefix - blocked, chosen))
    result.sort(key=lambda pair: (-len(pair[0]), tuple(sorted(pair[0]))))
    return result


# --- the ordered local Markov property ---------------------------------------


def ordered_local_entries(
    g: Admg, ordering: Iterable[str]
) -> list[tuple[str, frozenset[str], CiStatement | None]]:
    """Every (vertex, maximal ancestral set) invocation of the ordered local
    property, with its statement, or ``None`` when the independence side is
    empty (vacuous)."""
    order = validate_ordering(g, ordering)
    entries: list[tuple[str, frozenset[str], CiStatement | None]] = []
    for i, x in enumerate(order):
        entries.extend((x, a, stmt) for a, _, stmt in _ordered_local(g, x, order[: i + 1]))
    return entries


def _ordered_local(
    g: Admg, x: str, pre: tuple[str, ...]
) -> Iterator[tuple[frozenset[str], frozenset[str], CiStatement | None]]:
    """Each maximal ancestral set A of ``x`` in the validated prefix ``pre``,
    with its D = dis_A(x) and its statement I(x ; A - mb - {x} | mb), or
    ``None`` when that is vacuous; the blanket mb comes from D."""
    sx = frozenset((x,))
    for a, d in _maximal_ancestral_sets(g, x, pre):
        mb = _blanket(g, x, d)
        indep = a - mb - sx
        yield a, d, (_trusted(sx, mb, indep) if indep else None)


def ordered_local_markov(g: Admg, ordering: Iterable[str]) -> list[CiStatement]:
    """The ordered local Markov statements for a consistent ordering.

    One statement per vertex and maximal ancestral set; vacuous statements
    (empty independence side) are dropped and duplicates canonicalized away.
    The vertices that :func:`reduced_basis` last enumerated on ``g`` for
    this ordering come from the graph's memo, as the same objects.
    """
    order = validate_ordering(g, ordering)
    memo_order, memo = g._ordered_memo
    known = memo if memo_order == order else {}
    per_vertex = (
        known[x] if x in known else [s for *_, s in _ordered_local(g, x, order[: i + 1]) if s]
        for i, x in enumerate(order)
    )
    return dedupe(chain.from_iterable(per_vertex))


# --- the reduced (one statement per vertex) property --------------------------


def _reduced_statement(g: Admg, x: str) -> CiStatement | None:
    """I(x ; V - pa(x) - de({x} | sp(x)) | pa(x)), or ``None`` when that side
    is empty; derived once per graph and vertex, so every caller gets the one
    object (a racing thread's duplicate is dropped by ``setdefault``)."""
    cache = g._reduced_cache
    if x in cache:
        return cache[x]
    de = (g._closure_of(v, g._children, g._de_cache) for v in (x, *g._spouses[x]))
    indep = g._vset.difference(g._parents[x], *de)
    stmt = _trusted(frozenset((x,)), frozenset(g._parents[x]), indep) if indep else None
    return cache.setdefault(x, stmt)


def reduced_local_markov(g: Admg) -> list[CiStatement]:
    """One statement per vertex: x independent of everything outside its
    reduced scope, given its parents.

    Only valid (equivalent to the global property under composition) when the
    graph has no mixed directed cycle.
    """
    if g.has_mixed_directed_cycle():
        raise InputError(
            "graph has a mixed directed cycle; the one-statement-per-vertex "
            "form does not apply - use reduced_basis() instead"
        )
    statements = (_reduced_statement(g, x) for x in g.vertices)
    return dedupe(st for st in statements if st is not None)


# --- collapsed ordering construction ------------------------------------------


def build_collapsed_ordering(g: Admg) -> tuple[str, ...]:
    """Construct a consistent ordering that keeps confounded vertices together.

    Repeatedly, in lexicographic endpoint order: a bi-directed edge whose
    endpoints admit no mixed directed path between them is contracted into a
    supernode (parallel edges merge when all of one kind; anything else would
    witness a mixed directed cycle); otherwise the bi-directed edge is
    dropped. The resulting DAG of supernodes is topologically sorted with a
    lexicographic tie-break and supernodes expand in name order. For graphs
    without mixed directed cycles every c-component ends up consecutive.

    Supernodes are disjoint, so their sorted member tuples compare as their
    least members do; a supernode is named by its least member, and a heap of
    ``(name, name)`` pairs with lazy deletion yields the edges in the same
    order as re-sorting them after every step.

    The vertex-simple path search runs only for pairs inside a cyclic
    strongly connected component of the evolving mixed graph (arcs along
    directed edges, both ways along bi-directed ones; see
    :meth:`Admg.has_mixed_directed_cycle`): a mixed directed path closed by
    the pair's edge is a closed walk with a directed edge, so it stays in the
    pair's component, which is cyclic. A merge never changes the components;
    a drop can split only its own, which alone is decomposed again. A
    component that is not cyclic is one district with no directed edge
    inside, so the collapse starts from one supernode per such district and
    heaps only the edges of cyclic components: each edge left out would merge
    unsearched, no outside merge changes a search's answer, and the final DAG
    is the same. Supernodes have no more adjacency entries than their
    members, so a search that finds no path reads no more than edge by edge;
    one that finds a path stops early, after reads that rest on set order.

    All searches of one call share a budget of ``MIXED_PATH_BUDGET``
    adjacency reads; past it, :class:`CapacityError` names the pair and the
    size of its cyclic component.
    """
    component, cyclic = dict(g._scc), set(g._cyclic)  # keyed by supernode name
    members, spouses, heap = {}, {}, []  # a supernode per district, or per vertex if cyclic
    for d in g._components:
        least = min(d)
        if component[least] not in cyclic:
            members[least], spouses[least] = list(d), set()
            continue
        for v in d:
            members[v], spouses[v] = [v], set(g._spouses[v])
            heap.extend((v, s) for s in g._spouses[v] if v < s)
    node = {v: n for n, vs in members.items() for v in vs}
    parents, children = {n: set() for n in members}, {n: set() for n in members}
    for t, h in g._directed:
        children[node[t]].add(node[h])
        parents[node[h]].add(node[t])
    budget = [MIXED_PATH_BUDGET]

    def linked(u: str, w: str) -> bool:
        """A mixed directed path between supernodes, in either direction."""
        try:
            return _mixed_path_search(children, spouses, u, w, budget) or _mixed_path_search(
                children, spouses, w, u, budget
            )
        except CapacityError as exc:
            size = sum(len(members[n]) for n in members if component[n] == component[u])
            raise CapacityError(f"{exc}, in a cyclic component of {size} vertices") from None

    heapq.heapify(heap)
    while heap:
        u, w = heapq.heappop(heap)
        if u not in members or w not in spouses[u]:
            continue  # u was merged into a lesser supernode, or the edge is gone
        root = component[u]
        if root in cyclic and linked(u, w):
            spouses[u].discard(w)
            spouses[w].discard(u)
            # the component was strongly connected, and a shortest path from u
            # never re-enters u, so every member is still reached from u or w
            cyclic.discard(root)
            split = _strong_components(
                (u, w),
                lambda n: [m for m in chain(children[n], spouses[n]) if component[m] == root],
            )
            component.update(split)
            cyclic.update(
                split[t] for t in split for h in children[t] if split.get(h) == split[t]
            )
            continue

        if w in children[u] or u in children[w]:
            raise InternalError("directed edge inside a mergeable confounded pair")
        # u, the lesser name, absorbs w
        for p in parents[w]:
            children[p].discard(w)
            children[p].add(u)
        for c in children[w]:
            parents[c].discard(w)
            parents[c].add(u)
        for s in spouses[w]:
            spouses[s].discard(w)
            if s != u:
                spouses[s].add(u)
                heapq.heappush(heap, (min(u, s), max(u, s)))
        parents[u] |= parents.pop(w)
        children[u] |= children.pop(w)
        spouses[u] |= spouses.pop(w)
        spouses[u].discard(u)
        if not parents[u].isdisjoint(children[u]):
            raise InternalError(
                "merging a confounded pair produced opposing directed edges; "
                "this would require a mixed directed cycle"
            )
        absorbed = members.pop(w)
        if len(absorbed) > len(members[u]):
            members[u], absorbed = absorbed, members[u]
        members[u].extend(absorbed)

    order = [v for n in _lex_topological(members, parents, children) for v in sorted(members[n])]
    if len(order) != len(g.vertices):
        raise InternalError("collapsed graph is not a DAG")
    return validate_ordering(g, order)


# --- pruning conditions --------------------------------------------------------


def _reduced_form_flags(g: Admg, order: tuple[str, ...]) -> Iterator[bool]:
    """Per vertex x of the validated ``order``, whether its reduced-form
    statement subsumes its ordered-local ones: its district is consecutive up
    to x and has no directed edge yet (only a cyclic component holds one)."""
    lead, parents, scc, cyclic = g._lead, g._parents, g._scc, g._cyclic
    last, spoilt = {}, set()  # each district's last position; the spoilt ones
    for i, x in enumerate(order):
        d = lead[x]
        if last.get(d, i - 1) != i - 1 or (scc[x] in cyclic and d in map(lead.get, parents[x])):
            spoilt.add(d)
        last[d] = i
        yield d not in spoilt


def _prunable(g: Admg, dis_pre: frozenset, a: frozenset, d: frozenset, mb: frozenset) -> bool:
    """True iff x's full-prefix statement (with earlier vertices' ones) implies
    the one for the ancestral set ``a``: ``dis_pre`` is x's district in its
    prefix, ``d`` and ``mb`` its district and blanket in ``a``."""
    dropped = dis_pre - d  # the members of x's prefix district that ``a`` cuts off
    return dropped.isdisjoint(a) and mb.issuperset(chain(*(g._parents[v] for v in dropped)))


# --- the basis-producing procedure ---------------------------------------------


def reduced_basis(g: Admg, ordering: Iterable[str] | None = None) -> ReducedBasis:
    """Produce the pruned set of conditional-independence statements whose
    closure under the composition-extended semi-graphoid axioms recovers the
    ordered local Markov property.

    Works for any ADMG. Vertices where ``_reduced_form_flags`` holds contribute
    their single reduced-form statement; the rest fall back to the ordered
    local statements, pruning every ancestral set that ``_prunable``
    certifies as implied. Vacuous statements
    are dropped, duplicates collapse to their first occurrence, and pruned
    statements are recorded with the index of the statement implying them.
    The enumerated vertices' statements replace the graph's ordered-local memo.
    """
    # the one validation of the ordering; the helpers below trust it
    order = (
        build_collapsed_ordering(g) if ordering is None else validate_ordering(g, ordering)
    )
    statements: list[CiStatement] = []
    provenance: list[str] = []
    pruned: list[PrunedStatement] = []
    index_of: dict[CiStatement, int] = {}
    memo: dict[str, list[CiStatement]] = {}

    def emit(stmt: CiStatement, tag: str) -> int:
        at = index_of.setdefault(stmt, len(statements))
        if at == len(statements):  # first occurrence
            statements.append(stmt)
            provenance.append(tag)
        return at

    for i, (x, reduced) in enumerate(zip(order, _reduced_form_flags(g, order))):
        if reduced:
            stmt = _reduced_statement(g, x)
            if stmt is not None:
                emit(stmt, REDUCED_FORM)
            continue

        entries = list(_ordered_local(g, x, order[: i + 1]))
        memo[x] = [stmt for _, _, stmt in entries if stmt is not None]
        # every set lies in the prefix, so only the prefix itself has i + 1 members
        if not entries or len(entries[0][0]) != i + 1:
            raise InternalError("the full prefix must be the largest maximal ancestral set")
        _, dis_pre, top = entries[0]
        top_index = None if top is None else emit(top, ORDERED_LOCAL)
        for a, d, stmt in entries[1:]:
            if stmt is None:
                continue  # vacuous: nothing to emit or prune
            if _prunable(g, dis_pre, a, d, stmt.z):
                if top_index is None:
                    raise InternalError("pruned a non-vacuous statement via a vacuous one")
                pruned.append(PrunedStatement(stmt, top_index))
            else:
                emit(stmt, ORDERED_LOCAL)

    g._ordered_memo = (order, memo)  # one assignment: readers see the old or the new
    return ReducedBasis(order, tuple(statements), tuple(provenance), tuple(pruned))


# --- the vanishing-partial-correlation tests a basis implies ---------------------


class PartialCorrTest(namedtuple("PartialCorrTest", "x y given source_statement")):
    """A single vanishing-partial-correlation hypothesis: vertex names ``x``
    and ``y``, the frozenset ``given``, and the index of the statement it
    came from."""

    __slots__ = ()

    def render(self) -> str:
        if self.given:
            return f"rho({self.x},{self.y} | {','.join(sorted(self.given))}) = 0"
        return f"rho({self.x},{self.y}) = 0"


def test_plan(basis: ReducedBasis | Iterable[CiStatement]) -> list[PartialCorrTest]:
    """Expand statements into pairwise vanishing-partial-correlation tests,
    deduplicated across statements."""
    statements = basis.statements if isinstance(basis, ReducedBasis) else tuple(basis)
    plan: list[PartialCorrTest] = []
    seen: set[tuple] = set()
    for i, st in enumerate(statements):
        for x in sorted(st.x):
            for y in sorted(st.y):
                key = (min(x, y), max(x, y), st.z)
                if key not in seen:
                    seen.add(key)
                    plan.append(PartialCorrTest(x, y, st.z, i))
    return plan
