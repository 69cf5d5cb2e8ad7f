"""Local Markov machinery for ADMGs.

Covers Markov blankets, the maximal ancestral sets behind the ordered local
Markov property, the one-statement-per-vertex reduced form valid for graphs
without mixed directed cycles (under the composition axiom), the collapsed
ordering construction, and the pruning procedure that yields a small basis
of conditional-independence statements for arbitrary ADMGs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable

from .admg import MIXED_PATH_BUDGET, Admg, validate_ordering
from .admg import _lex_topological, _mixed_path_search, _strong_components
from .errors import CapacityError, InputError, InternalError
from .statements import CiStatement, dedupe

ANCESTRAL_ENUM_CAP = 16

REDUCED_FORM = "reduced-form"
ORDERED_LOCAL = "ordered-local"


@dataclass(frozen=True)
class PrunedStatement:
    """A statement dropped from the basis because an emitted one implies it."""

    statement: CiStatement
    implied_by: int  # index into ReducedBasis.statements


@dataclass(frozen=True)
class ReducedBasis:
    """Output of :func:`reduced_basis`: statements, per-statement provenance,
    the ordering used, and the audit trail of pruned statements."""

    ordering: tuple[str, ...]
    statements: tuple[CiStatement, ...]
    provenance: tuple[str, ...]
    pruned: tuple[PrunedStatement, ...]

    def __post_init__(self):
        if len(self.statements) != len(self.provenance):
            raise InternalError("one provenance tag per statement required")


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


def _blanket_in(g: Admg, x: str, members: frozenset[str]) -> frozenset[str]:
    """Markov blanket of ``x`` w.r.t. the subgraph on ``members``, unvalidated."""
    dis = _district_in(g, x, members)
    pa: set[str] = set()
    for v in dis:
        pa.update(g._parents[v])
    return frozenset((pa & members) | dis - {x})


def markov_blanket(g: Admg, x: str, a: Collection[str]) -> frozenset[str]:
    """Parents of ``x``'s district within the subgraph on ``a``, plus the
    district itself minus ``x``.

    ``a`` must be ancestral, contain ``x``, and give ``x`` no children in ``a``.
    """
    g._check_vertex(x)
    a = g._check_set(a)
    if x not in a:
        raise InputError(f"{x} is not a member of the conditioning set")
    if not g.is_ancestral(a):
        raise InputError("markov_blanket requires an ancestral vertex set")
    if not a.isdisjoint(g._children[x]):
        raise InputError(f"{x} has children inside the given ancestral set")
    return _blanket_in(g, x, a)


def maximal_ancestral_sets(
    g: Admg, x: str, ordering: Iterable[str], cap: int = ANCESTRAL_ENUM_CAP
) -> list[frozenset[str]]:
    """All ancestral sets A with ``x in A <= pre(x)`` that are maximal with
    respect to their Markov blanket.

    Enumerated by brute force over subsets of the ordering prefix, bucketed
    by blanket; within a bucket only sets with no proper ancestral superset
    of equal blanket survive. Ordered by descending size, then name.
    """
    order = validate_ordering(g, ordering)
    g._check_vertex(x)
    return _maximal_ancestral_sets(g, x, order[: order.index(x) + 1], cap)


def _maximal_ancestral_sets(
    g: Admg, x: str, pre: tuple[str, ...], cap: int
) -> list[frozenset[str]]:
    """:func:`maximal_ancestral_sets` for the validated prefix ``pre`` ending in ``x``."""
    free = [v for v in pre if v != x]
    if len(free) > cap:
        raise CapacityError(
            f"{len(free)} candidate vertices before {x} exceeds the enumeration "
            f"cap of {cap}; raise the cap to force the exponential scan"
        )

    index = {v: i for i, v in enumerate(pre)}
    an_masks = []
    for v in pre:
        m = 0
        for a in g.ancestors([v]):
            m |= 1 << index[a]  # ancestors of a prefix member stay in the prefix
        an_masks.append(m)
    x_bit = 1 << index[x]
    required = an_masks[index[x]]

    free_bits = [1 << index[v] for v in free]
    n_free = len(free_bits)
    buckets: dict[frozenset[str], list[int]] = {}
    for choice in range(1 << n_free):
        mask = x_bit
        for i in range(n_free):
            if choice >> i & 1:
                mask |= free_bits[i]
        if mask & required != required:
            continue
        ancestral = True
        m = mask
        while m:
            low = m & -m
            if an_masks[low.bit_length() - 1] & ~mask:
                ancestral = False
                break
            m ^= low
        if not ancestral:
            continue
        members = frozenset(pre[i] for i in range(len(pre)) if mask >> i & 1)
        blanket = _blanket_in(g, x, members)
        buckets.setdefault(blanket, []).append(mask)

    decode = {1 << i: pre[i] for i in range(len(pre))}

    def unpack(m: int) -> frozenset[str]:
        members = set()
        while m:
            low = m & -m
            members.add(decode[low])
            m ^= low
        return frozenset(members)

    result: list[frozenset[str]] = []
    for masks in buckets.values():
        union = 0
        for m in masks:
            union |= m
        if union in set(masks):
            # every other set in the bucket is contained in it: unique maximum
            result.append(unpack(union))
            continue
        for m in masks:  # keep the masks not strictly contained in another
            if not any(o != m and m & o == m for o in masks):
                result.append(unpack(m))
    result.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return result


# --- the ordered local Markov property ---------------------------------------


def ordered_local_entries(
    g: Admg, ordering: Iterable[str], cap: int = ANCESTRAL_ENUM_CAP
) -> list[tuple[str, frozenset[str], CiStatement | None]]:
    """Every (vertex, maximal ancestral set) invocation of the ordered local
    property, with its statement, or ``None`` when the independence side is
    empty (vacuous)."""
    order = validate_ordering(g, ordering)
    entries: list[tuple[str, frozenset[str], CiStatement | None]] = []
    for i, x in enumerate(order):
        for a in _maximal_ancestral_sets(g, x, order[: i + 1], cap):
            mb = _blanket_in(g, x, a)
            indep = a - mb - {x}
            stmt = CiStatement([x], mb, indep) if indep else None
            entries.append((x, a, stmt))
    return entries


def ordered_local_markov(
    g: Admg, ordering: Iterable[str], cap: int = ANCESTRAL_ENUM_CAP
) -> list[CiStatement]:
    """The ordered local Markov statements for a consistent ordering.

    One statement per vertex and maximal ancestral set; vacuous statements
    (empty independence side) are dropped and duplicates canonicalized away.
    """
    entries = ordered_local_entries(g, ordering, cap)
    return dedupe(stmt for _, _, stmt in entries if stmt is not None)


# --- the reduced (one statement per vertex) property --------------------------


def reduced_scope(g: Admg, x: str) -> frozenset[str]:
    """Parents of ``x`` plus all descendants of ``x`` and its spouses.

    The complement of this set is what the reduced-form statement declares
    independent of ``x`` given its parents. Always contains ``x``.
    """
    g._check_vertex(x)
    return g.parents([x]) | g.descendants({x} | g.spouses([x]))


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
    all_v = frozenset(g.vertices)
    statements = []
    for x in g.vertices:
        indep = all_v - reduced_scope(g, x)
        if indep:
            statements.append(CiStatement([x], g.parents([x]), indep))
    return dedupe(statements)


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
    strongly connected component of the evolving graph's mixed graph (arcs
    along directed edges, both ways along bi-directed ones; see
    :meth:`Admg.has_mixed_directed_cycle`). A mixed directed path between the
    ends of a bi-directed edge, closed by that edge, is a closed walk that
    holds a directed edge, so both ends of that directed edge and the pair lie
    in one cyclic component. Any other pair has no mixed directed path and
    merges without a search. A merge never changes the components, since the
    merged pair already reach each other both ways: they stay those of the
    original graph until a drop, which can split only the component that held
    the dropped edge, and only that component is decomposed again.

    All searches of one call share a budget of ``MIXED_PATH_BUDGET``
    adjacency reads; past it, :class:`CapacityError` names the pair and the
    size of its cyclic component.
    """
    members = {v: [v] for v in g.vertices}
    parents = {v: set(g._parents[v]) for v in g.vertices}
    children = {v: set(g._children[v]) for v in g.vertices}
    spouses = {v: set(g._spouses[v]) for v in g.vertices}
    component, cyclic = dict(g._scc), set(g._cyclic)  # keyed by supernode name
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

    heap = [tuple(sorted(e)) for e in g.bidirected_edges]
    heapq.heapify(heap)
    while heap:
        u, w = heapq.heappop(heap)
        if u not in members or w not in spouses[u]:
            continue  # u was merged into a lesser supernode, or the edge is gone
        root = component[u]
        if root in cyclic and linked(u, w):
            spouses[u].discard(w)
            spouses[w].discard(u)
            # the component stays connected through u or w, ignoring directions
            inside = {u, w}
            todo = [u, w]
            while todo:
                n = todo.pop()
                for m in chain(parents[n], children[n], spouses[n]):
                    if m not in inside and component[m] == root:
                        inside.add(m)
                        todo.append(m)
            cyclic.discard(root)
            split = _strong_components(
                inside, lambda n: [m for m in chain(children[n], spouses[n]) if m in inside]
            )
            component.update(split)
            cyclic.update(
                split[t] for t in inside for h in children[t] if split.get(h) == split[t]
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


def reduced_form_applies(g: Admg, x: str, ordering: Iterable[str]) -> bool:
    """True iff the single reduced-form statement for ``x`` subsumes all of its
    ordered-local statements: the part of ``x``'s district preceding it must
    be consecutive in the ordering and free of internal directed edges."""
    order = validate_ordering(g, ordering)
    g._check_vertex(x)
    return _reduced_form_applies(g, x, {v: i for i, v in enumerate(order)})


def _reduced_form_applies(g: Admg, x: str, pos: dict[str, int]) -> bool:
    """:func:`reduced_form_applies` given the positions of a validated ordering."""
    dp = frozenset(v for v in g.district(x) if pos[v] <= pos[x])
    positions = [pos[v] for v in dp]
    if max(positions) - min(positions) != len(positions) - 1:
        return False
    return all(dp.isdisjoint(g._children[v]) for v in dp)


def redundant_ancestral_set(
    g: Admg, x: str, ordering: Iterable[str], a_prime: Collection[str]
) -> bool:
    """True iff the statement for the ancestral set ``a_prime`` is implied by
    the statement for the full prefix of ``x`` (together with the statements
    of earlier vertices), so it can be pruned from the basis."""
    order = validate_ordering(g, ordering)
    g._check_vertex(x)
    a_prime = g._check_set(a_prime)
    pre = frozenset(order[: order.index(x) + 1])
    if x not in a_prime or not a_prime <= pre:
        raise InputError("the candidate set must contain the vertex and lie in its prefix")
    if not g.is_ancestral(a_prime):
        raise InputError("the candidate set must be ancestral")
    return _redundant_ancestral_set(g, x, pre, a_prime)


def _redundant_ancestral_set(
    g: Admg, x: str, pre: frozenset[str], a_prime: frozenset[str]
) -> bool:
    """:func:`redundant_ancestral_set` for a checked ancestral ``a_prime``
    inside the prefix ``pre`` of ``x``."""
    dis_pre = _district_in(g, x, pre)
    dis_prime = _district_in(g, x, a_prime)
    dropped = dis_pre - dis_prime
    outside = dis_pre - a_prime
    straddling = dropped - outside  # in a_prime but cut off from x's district
    if straddling:
        return False
    return g.parents(dropped) <= _blanket_in(g, x, a_prime)


# --- the basis-producing procedure ---------------------------------------------


def reduced_basis(
    g: Admg,
    ordering: Iterable[str] | None = None,
    cap: int = ANCESTRAL_ENUM_CAP,
) -> ReducedBasis:
    """Produce the pruned set of conditional-independence statements whose
    closure under the composition-extended semi-graphoid axioms recovers the
    ordered local Markov property.

    Works for any ADMG. Vertices satisfying :func:`reduced_form_applies`
    contribute their single reduced-form statement; the rest fall back to the
    ordered local statements, pruning every ancestral set that
    :func:`redundant_ancestral_set` certifies as implied. Vacuous statements
    are dropped, duplicates collapse to their first occurrence, and pruned
    statements are recorded with the index of the statement implying them.
    """
    # the one validation of the ordering; the helpers below trust it
    order = (
        build_collapsed_ordering(g) if ordering is None else validate_ordering(g, ordering)
    )
    all_v = frozenset(g.vertices)
    statements: list[CiStatement] = []
    provenance: list[str] = []
    pruned: list[PrunedStatement] = []
    index_of: dict[tuple, int] = {}

    def emit(stmt: CiStatement, tag: str) -> int:
        at = index_of.get(stmt.key)
        if at is None:
            at = len(statements)
            statements.append(stmt)
            provenance.append(tag)
            index_of[stmt.key] = at
        return at

    pos = {v: i for i, v in enumerate(order)}
    for i, x in enumerate(order):
        if _reduced_form_applies(g, x, pos):
            indep = all_v - reduced_scope(g, x)
            if indep:
                emit(CiStatement([x], g.parents([x]), indep), REDUCED_FORM)
            continue

        sets = _maximal_ancestral_sets(g, x, order[: i + 1], cap)
        pre = frozenset(order[: i + 1])
        if not sets or sets[0] != pre:
            raise InternalError("the full prefix must be the largest maximal ancestral set")
        top_index: int | None = None
        mb = _blanket_in(g, x, pre)
        indep = pre - mb - {x}
        if indep:
            top_index = emit(CiStatement([x], mb, indep), ORDERED_LOCAL)
        for a in sets[1:]:
            mb = _blanket_in(g, x, a)
            indep = a - mb - {x}
            stmt = CiStatement([x], mb, indep) if indep else None
            if _redundant_ancestral_set(g, x, pre, a):
                if stmt is not None:
                    if top_index is None:
                        raise InternalError(
                            "pruned a non-vacuous statement via a vacuous one"
                        )
                    pruned.append(PrunedStatement(stmt, top_index))
            elif stmt is not None:
                emit(stmt, ORDERED_LOCAL)

    return ReducedBasis(order, tuple(statements), tuple(provenance), tuple(pruned))
