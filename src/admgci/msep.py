"""m-separation: a linear-time decision procedure and a brute-force path oracle.

m-separation in an ADMG is d-separation in its canonical DAG, where each
u <-> v gets a latent common parent (Richardson 2003). The fast path walks
the :class:`Admg`'s own parent, child and spouse maps instead, crossing
u <-> v into an arrowhead at the far end, as the latent would. A query is one
multi-source Bayes-Ball pass (Shachter 1998; Koller & Friedman, Alg. 3.1):
every member of x starts "up", up- and down-visits live in two sets, and the
pass answers "connected" on reaching a member of y. An up-visit outside z
moves up to parents and down to children and spouses; a down-visit outside z
moves down to children. A collider in z sends the pass back up to its
parents and down across its bi-directed edges; a collider with a descendant
in z opens the same way, by the walk down to that descendant and back up, so
no ancestor set of z is computed. The oracle enumerates vertex-simple paths
and applies the collider / non-collider conditions literally; it is
intentionally small-graph only.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

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
    parents, children, spouses = g._parents, g._children, g._spouses
    # "up": entered from a child (or a source); "down": entered through an
    # arrowhead, from a parent or across a bi-directed edge
    up_seen: set[str] = set(x)
    down_seen: set[str] = set()
    up_todo: list[str] = list(x)
    down_todo: list[str] = []
    while up_todo or down_todo:
        if up_todo:
            v = up_todo.pop()
            if v in z:  # a non-collider in z blocks
                continue
            ups, downs = parents[v], children[v] + spouses[v]
        else:
            v = down_todo.pop()
            if v in z:  # a collider in z: bounce back to its parents and spouses
                ups, downs = parents[v], spouses[v]
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
    path = [start]
    marks: list[str] = []
    on_path = {start}

    def walk(v: str) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        steps = (
            [(w, _FORWARD) for w in g._children[v]]
            + [(w, _BACKWARD) for w in g._parents[v]]
            + [(w, _BI) for w in g._spouses[v]]
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
) -> bool:
    """Literal m-separation by exhaustive simple-path enumeration.

    Independent of :func:`m_separated`; intended as an oracle for graphs with
    at most ``BRUTE_FORCE_CAP`` vertices, read when called.
    """
    if len(g.vertices) > BRUTE_FORCE_CAP:
        raise CapacityError(
            f"brute-force oracle capped at {BRUTE_FORCE_CAP} vertices, "
            f"graph has {len(g.vertices)}"
        )
    x, y, z = _validate_query(g, x_set, y_set, z_set)
    anc_z = g.ancestors(z)
    for a in sorted(x):
        for b in sorted(y):
            for path, marks in _simple_mixed_paths(g, a, b):
                if _m_connecting(path, marks, z, anc_z):
                    return False
    return True

