"""Desk-scale conditional-independence implication by axiom closure.

A statement over n vertices is three bitmasks (x, z, y), keyed by the integer
``min(x, y) << 2n | max(x, y) << n | z`` so that a statement and its x/y swap
share one key (symmetry). Closure is a worklist fixpoint. Decomposition and
weak union move one member b of y at a time, to (x, z, y∖b) and (x, z∪b, y∖b);
any general step is a chain of these. Contraction scans the statements whose
sides match. Composition, when enabled, adds (x, z, U) for the union U of
every y seen with (x, z): a chain of composition steps, and complete, since
decomposition of U then yields y1 ∪ y2 for any two such y. Membership in the
closure decides implication; this is derivability under the stated axioms,
not general probabilistic implication. ``implies`` stops as soon as one
statement found yields the target by symmetry, decomposition and weak union.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, InputError
from .statements import CiStatement

UNIVERSE_CAP = 12


@dataclass(frozen=True)
class AxiomSet:
    """Rule selection: the four semi-graphoid rules always apply, composition
    on request."""

    composition: bool = False


SEMI_GRAPHOID = AxiomSet(composition=False)
WITH_COMPOSITION = AxiomSet(composition=True)


class StatementUniverse:
    """All CI statements over a fixed ground set of at most ``cap`` vertices."""

    def __init__(self, vertices: Iterable[str], cap: int = UNIVERSE_CAP):
        self.vertices = tuple(sorted(set(vertices)))
        if len(self.vertices) > cap:
            raise CapacityError(
                f"ground set of {len(self.vertices)} vertices exceeds the "
                f"universe cap of {cap}"
            )
        self._index = {v: i for i, v in enumerate(self.vertices)}

    @property
    def slots(self) -> int:
        """Number of role assignments (absent, x, z, y) over the ground set, 4^n."""
        return 4 ** len(self.vertices)

    def _mask(self, names: frozenset[str]) -> int:
        m = 0
        for v in names:
            i = self._index.get(v)
            if i is None:
                raise InputError(f"vertex {v!r} is outside the statement universe")
            m |= 1 << i
        return m

    def encode(self, st: CiStatement) -> tuple[int, int, int]:
        return self._mask(st.x), self._mask(st.z), self._mask(st.y)

    def decode(self, masks: tuple[int, int, int]) -> CiStatement:
        x, z, y = masks
        names = lambda m: [self.vertices[i] for i in range(len(self.vertices)) if m >> i & 1]
        return CiStatement(names(x), names(z), names(y))

    def word(self, x: int, z: int, y: int) -> int:
        """Symmetry-canonical key: ``min(x, y) << 2n | max(x, y) << n | z``."""
        n = len(self.vertices)
        return ((x << n | y) if x < y else (y << n | x)) << n | z


def _entails(sx: int, sz: int, sy: int, tx: int, tz: int, ty: int) -> bool:
    """Whether (tx, tz, ty) follows from (sx, sz, sy) by symmetry,
    decomposition and weak union alone: each side within one side, and the
    conditioning set between sz and sz ∪ sx ∪ sy."""
    span = sx | sz | sy
    return (
        (tx | sx == sx and ty | sy == sy or tx | sy == sy and ty | sx == sx)
        and sz | tz == tz
        and tz | span == span
    )


def _saturate(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    axioms: AxiomSet,
    targets: Iterable[tuple[int, int, int]] = (),
) -> tuple[list[tuple[int, int, int]], set[tuple[int, int, int]]]:
    """Least fixpoint of the enabled rules, or as much of it as entails every
    target. Returns the canonical triples and the targets not entailed."""
    word = universe.word
    wanted = set(targets)
    seen: set[int] = set()
    triples: list[tuple[int, int, int]] = []
    queue: deque[tuple[int, int, int]] = deque()
    by_xz: dict[tuple[int, int], list[int]] = defaultdict(list)
    by_xu: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    union: dict[tuple[int, int], int] = {}

    def push(x: int, z: int, y: int) -> bool:
        """Add a triple; True once the last target is entailed."""
        w = word(x, z, y)
        if w in seen:
            return False
        seen.add(w)
        triples.append((x, z, y))
        queue.append((x, z, y))
        for a, b in ((x, y), (y, x)):
            by_xz[(a, z)].append(b)
            by_xu[(a, z | b)].append((z, b))
        if wanted:
            wanted.difference_update([t for t in wanted if _entails(x, z, y, *t)])
            return not wanted
        return False

    for st in seed:
        if push(*universe.encode(st)):
            return triples, wanted

    while queue:
        x0, z0, y0 = queue.popleft()
        for x, y in ((x0, y0), (y0, x0)):
            z = z0
            # decomposition and weak union, one member of y at a time
            if y & (y - 1):
                rest = y
                while rest:
                    b = rest & -rest
                    rest ^= b
                    if push(x, z, y ^ b) or push(x, z | b, y ^ b):
                        return triples, wanted
            # contraction, this statement as the first premise
            for w2 in tuple(by_xz.get((x, z | y), ())):
                if push(x, z, y | w2):
                    return triples, wanted
            # contraction, this statement as the second premise
            for z1, y1 in tuple(by_xu.get((x, z), ())):
                if push(x, z1, y1 | y):
                    return triples, wanted
            # composition against the union of every y seen with (x, z)
            if axioms.composition:
                u = union.get((x, z), 0)
                if y & ~u:
                    u |= y
                    union[(x, z)] = u
                    if u != y and push(x, z, u):
                        return triples, wanted
    return triples, wanted


def closure(
    universe: StatementUniverse, seed: Iterable[CiStatement], axioms: AxiomSet = SEMI_GRAPHOID
) -> set[CiStatement]:
    """All statements derivable from ``seed`` under the enabled axioms."""
    triples, _ = _saturate(universe, seed, axioms)
    masks = {m for t in triples for m in t}
    names = {m: frozenset(v for i, v in enumerate(universe.vertices) if m >> i & 1) for m in masks}
    return {CiStatement(names[x], names[z], names[y]) for x, z, y in triples}


def implies(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    target: CiStatement,
    axioms: AxiomSet = SEMI_GRAPHOID,
) -> bool:
    """Membership of ``target`` in the closure, with early exit once a
    statement found entails it."""
    return implies_each(universe, seed, [target], axioms)[0]


def implies_each(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    targets: Iterable[CiStatement],
    axioms: AxiomSet = SEMI_GRAPHOID,
) -> list[bool]:
    """Membership of each target in the closure, from one saturation that
    stops once every target follows from a statement found."""
    encoded = [universe.encode(t) for t in targets]
    if not encoded:
        return []
    _, missing = _saturate(universe, seed, axioms, encoded)
    return [t not in missing for t in encoded]
