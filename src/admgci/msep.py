"""m-separation: a linear-time decision procedure and a brute-force path oracle.

The fast path works on the latent-augmented DAG, in which every bi-directed
edge u <-> v becomes a latent common parent ``("latent", u, v)``. Its parent
and child maps are built once per graph and cached on the :class:`Admg`
(``Admg._latent_dag``). A query is one multi-source reachability pass over
that DAG, Shachter's "Bayes-Ball" form of Koller & Friedman, Alg. 3.1: every
member of x starts in the "up" state, up- and down-visits are kept in two
sets, and the pass answers "connected" as soon as it reaches a member of y.
A collider in z sends the pass back up to its parents; a collider with a
descendant in z is opened the same way, by the walk down to that descendant
and back up, so no ancestor set of z is computed. The cost is the part of
the graph the pass reaches. Latents are never conditioned on. The oracle
enumerates vertex-simple paths and applies the collider / non-collider
conditions literally; it is intentionally small-graph only.
"""

from __future__ import annotations

from typing import Collection, Iterator

from .admg import Admg
from .errors import CapacityError, InputError

BRUTE_FORCE_CAP = 10


def _validate_query(
    g: Admg, x_set: Collection[str], y_set: Collection[str], z_set: Collection[str]
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    x = g._check_set(x_set)
    y = g._check_set(y_set)
    z = g._check_set(z_set)
    if not x or not y:
        raise InputError("m-separation queries need non-empty x and y sets")
    if x & y or x & z or y & z:
        raise InputError("m-separation query sets must be pairwise disjoint")
    return x, y, z


def m_separated(
    g: Admg, x_set: Collection[str], y_set: Collection[str], z_set: Collection[str]
) -> bool:
    """True iff no m-connecting path exists between ``x_set`` and ``y_set`` given ``z_set``."""
    x, y, z = _validate_query(g, x_set, y_set, z_set)
    parents, children = g._latent_dag()
    # "up": entered from a child (or a source); "down": entered from a parent
    up_seen: set[object] = set(x)
    down_seen: set[object] = set()
    up_todo: list[object] = list(x)
    down_todo: list[object] = []
    while up_todo or down_todo:
        if up_todo:
            v = up_todo.pop()
            if v in z:  # a non-collider in z blocks
                continue
            ups, downs = parents[v], children[v]
        else:
            v = down_todo.pop()
            if v in z:  # a collider in z: bounce back to its parents
                ups, downs = parents[v], ()
            else:
                ups, downs = (), children[v]
        for p in ups:
            if p in y:
                return False
            if p not in up_seen:
                up_seen.add(p)
                up_todo.append(p)
        for c in downs:
            if c in y:
                return False
            if c not in down_seen:
                down_seen.add(c)
                down_todo.append(c)
    return True


# Edge marks as seen walking along a path: '>' tail->head along the walk,
# '<' against the arrow, '=' bi-directed.
_FORWARD, _BACKWARD, _BI = ">", "<", "="


def _simple_mixed_paths(
    g: Admg, start: str, goal: str
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All vertex-simple paths start..goal, branching over parallel edge types."""
    children = {v: sorted(g.children([v])) for v in g.vertices}
    parents = {v: sorted(g.parents([v])) for v in g.vertices}
    spouses = {v: sorted(g.spouses([v])) for v in g.vertices}

    path = [start]
    marks: list[str] = []
    on_path = {start}

    def walk(v: str) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        steps = (
            [(w, _FORWARD) for w in children[v]]
            + [(w, _BACKWARD) for w in parents[v]]
            + [(w, _BI) for w in spouses[v]]
        )
        for w, mark in steps:
            if w in on_path:
                continue
            path.append(w)
            marks.append(mark)
            if w == goal:
                yield tuple(path), tuple(marks)
            else:
                on_path.add(w)
                yield from walk(w)
                on_path.discard(w)
            path.pop()
            marks.pop()

    yield from walk(start)


def _m_connecting(
    path: tuple[str, ...],
    marks: tuple[str, ...],
    z: frozenset[str],
    anc_z: frozenset[str],
) -> bool:
    for i in range(1, len(path) - 1):
        into_left = marks[i - 1] in (_FORWARD, _BI)  # arrowhead at path[i] from the left edge
        into_right = marks[i] in (_BACKWARD, _BI)  # arrowhead at path[i] from the right edge
        if into_left and into_right:  # collider
            if path[i] not in anc_z:
                return False
        else:
            if path[i] in z:
                return False
    return True


def m_separated_bruteforce(
    g: Admg,
    x_set: Collection[str],
    y_set: Collection[str],
    z_set: Collection[str],
    cap: int = BRUTE_FORCE_CAP,
) -> bool:
    """Literal m-separation by exhaustive simple-path enumeration.

    Independent of :func:`m_separated`; intended as an oracle for graphs with
    at most ``cap`` vertices.
    """
    if len(g.vertices) > cap:
        raise CapacityError(
            f"brute-force oracle capped at {cap} vertices, graph has {len(g.vertices)}"
        )
    x, y, z = _validate_query(g, x_set, y_set, z_set)
    anc_z = g.ancestors(z)
    for a in sorted(x):
        for b in sorted(y):
            for path, marks in _simple_mixed_paths(g, a, b):
                if _m_connecting(path, marks, z, anc_z):
                    return False
    return True


def connecting_paths(
    g: Admg, x: str, y: str, z_set: Collection[str]
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All m-connecting simple paths between two vertices (debugging aid)."""
    xs, ys, z = _validate_query(g, [x], [y], z_set)
    anc_z = g.ancestors(z)
    return [
        (path, marks)
        for path, marks in _simple_mixed_paths(g, x, y)
        if _m_connecting(path, marks, z, anc_z)
    ]
