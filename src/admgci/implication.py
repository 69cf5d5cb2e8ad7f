"""Desk-scale conditional-independence implication by axiom closure.

Statements over a small ground set are encoded as base-4 words (one digit
per vertex: absent / x-side / conditioning / y-side), with the symmetry
representative being the numerically smaller of a word and its side-swap.
Closure runs a worklist fixpoint applying the four semi-graphoid rules
(symmetry, decomposition, weak union, contraction) and, optionally, the
composition rule. Membership in the closure decides implication; this is
derivability under the stated axioms, not general probabilistic implication.
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
        n = len(self.vertices)
        # spread[m] places each set bit i of m at base-4 digit i
        spread = [0] * (1 << n)
        for i in range(n):
            bit = 1 << i
            val = 1 << (2 * i)
            for m in range(bit):
                spread[bit | m] = val + spread[m]
        self._spread = spread

    @property
    def slots(self) -> int:
        """Number of base-4 words over the ground set."""
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
        """Symmetry-canonical slot: min of the word and its x/y swap."""
        s = self._spread
        w1 = s[x] + 2 * s[z] + 3 * s[y]
        w2 = s[y] + 2 * s[z] + 3 * s[x]
        return w1 if w1 <= w2 else w2


def _saturate(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    axioms: AxiomSet,
    stop_word: int | None = None,
) -> tuple[list[tuple[int, int, int]], bool]:
    """Least fixpoint of the enabled rules; optionally stop once a target
    word appears. Returns the canonical triples and whether the target hit."""
    word = universe.word
    seen: set[int] = set()
    triples: list[tuple[int, int, int]] = []
    queue: deque[tuple[int, int, int]] = deque()
    by_xz: dict[tuple[int, int], list[int]] = defaultdict(list)
    by_xu: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)

    def push(x: int, z: int, y: int) -> bool:
        w = word(x, z, y)
        if w in seen:
            return False
        seen.add(w)
        triples.append((x, z, y))
        queue.append((x, z, y))
        for a, b in ((x, y), (y, x)):
            by_xz[(a, z)].append(b)
            by_xu[(a, z | b)].append((z, b))
        return w == stop_word

    for st in seed:
        if push(*universe.encode(st)):
            return triples, True

    while queue:
        x0, z0, y0 = queue.popleft()
        for x, y in ((x0, y0), (y0, x0)):
            z = z0
            # decomposition and weak union over every proper non-empty split of y
            sub = (y - 1) & y
            while sub:
                if push(x, z, sub):
                    return triples, True
                if push(x, z | (y ^ sub), sub):
                    return triples, True
                sub = (sub - 1) & y
            # contraction, this statement as the first premise
            for w2 in tuple(by_xz.get((x, z | y), ())):
                if push(x, z, y | w2):
                    return triples, True
            # contraction, this statement as the second premise
            for z1, y1 in tuple(by_xu.get((x, z), ())):
                if push(x, z1, y1 | y):
                    return triples, True
            if axioms.composition:
                for w2 in tuple(by_xz.get((x, z), ())):
                    merged = y | w2
                    if merged != y and push(x, z, merged):
                        return triples, True
    return triples, False


def closure(
    universe: StatementUniverse, seed: Iterable[CiStatement], axioms: AxiomSet = SEMI_GRAPHOID
) -> set[CiStatement]:
    """All statements derivable from ``seed`` under the enabled axioms."""
    triples, _ = _saturate(universe, seed, axioms)
    return {universe.decode(t) for t in triples}


def implies(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    target: CiStatement,
    axioms: AxiomSet = SEMI_GRAPHOID,
) -> bool:
    """Membership of ``target`` in the closure, with early exit on discovery."""
    stop = universe.word(*universe.encode(target))
    _, hit = _saturate(universe, seed, axioms, stop_word=stop)
    return hit
