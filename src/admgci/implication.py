"""Desk-scale conditional-independence implication by axiom closure.

A statement over n vertices is three bitmasks (x, z, y). Symmetry,
decomposition and weak union make it stand for all its weakenings: (x', z',
y') with x' ⊆ x and y' ⊆ y (or the sides swapped) and z ⊆ z' ⊆ x ∪ z ∪ y
(``_entails``). So the closure is kept as its *dominant* statements, those
no other statement of the closure entails, after Baioletti, Busanello and
Vantaggi (IJAR 2009), with the axioms as in Studený (2005): a conclusion a
kept statement entails is dropped, and the kept ones a new one entails leave.

Contraction and composition act on kept statements through lifted rules.
For kept d1 = (A1, B1 | C1) and d2 = (A2, B2 | C2), each in both
orientations, with Si = Ai ∪ Bi ∪ Ci and X = A1 ∩ A2, a rule fires only
when X ≠ ∅, C1 ⊆ S2 and C2 ⊆ S1, and gives
- contraction: (X, (B1 ∖ C2) ∪ (B2 ∩ S1) | C2 ∪ (C1 ∖ B2)), from d2's
  weakening (X, Y | Z) and d1's (X, W | Z ∪ Y), and the same with 1 and 2
  swapped;
- composition: (X, (B1 ∖ C2) ∪ (B2 ∖ C1) | C1 ∪ C2).
Each is the unique maximal conclusion of its rule over all weakenings of d1
and d2 in that orientation, so a kept set closed under them entails a set
closed under the plain rules. The engine is a FIFO semi-naive worklist: a
statement popped is paired with each kept statement popped before it
(paired with itself it gives itself), so each pair meets once; a popped
statement a newer one entails leaves the pairing, as the newer one's
conclusions entail its own. This is derivability under the stated axioms,
not general probabilistic implication.

``implies_each`` stops once every target is entailed by one kept statement.
``closure`` lists everything the kept statements entail: it collects the
keys ``first << 2n | second << n | z``, first being the side holding the
least vertex, so a statement and its x/y swap share one key, then builds
each statement once, without the constructor's checks: from checked seeds,
the rules keep the sides disjoint and x, y non-empty.

``STEP_BUDGET`` bounds the engine in comparisons of two statements: drawn
conclusions alone would not bound its time, as each new one is compared
with every kept statement. ``CLOSURE_BUDGET`` bounds the listing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from functools import cache

from .errors import CapacityError, InputError
from .statements import CiStatement, _trusted

# the engine's steps per closure, in comparisons of two statements; a pair
# of kept statements joined or a conclusion drawn counts 32, about its cost
STEP_BUDGET = 20_000_000

# statements ``closure`` may list; the largest closures listed in the tests
# hold about 43 000 (10 vertices), those of the 8-vertex desk shapes 2 100
CLOSURE_BUDGET = 50_000

# a statement over n vertices: the bitmasks (x, z, y)
Triple = tuple[int, int, int]

# the ``composition`` argument: the four semi-graphoid rules always apply,
# composition on request
SEMI_GRAPHOID = False
WITH_COMPOSITION = True


class StatementUniverse:
    """All CI statements over a fixed ground set of vertices. The universe has
    no size limit: the closure's budgets bound its work instead."""

    def __init__(self, vertices: Iterable[str]):
        self.vertices = tuple(sorted(set(vertices)))
        self._bit = {v: 1 << i for i, v in enumerate(self.vertices)}

    @property
    def slots(self) -> int:
        """Number of role assignments (absent, x, z, y) over the ground set, 4^n."""
        return 4 ** len(self.vertices)

    def _mask(self, names: frozenset[str]) -> int:
        bit = self._bit
        m = 0
        try:
            for v in names:
                m |= bit[v]
        except KeyError as e:
            raise InputError(f"vertex {e.args[0]!r} is outside the statement universe") from None
        return m

    def encode(self, st: CiStatement) -> tuple[int, int, int]:
        return self._mask(st.x), self._mask(st.z), self._mask(st.y)

    def _sides(self) -> Callable[[int], frozenset[str]]:
        """Mask -> the frozenset of its vertices, each built once, on first use."""
        vertices = self.vertices
        return cache(lambda m: frozenset(v for i, v in enumerate(vertices) if m >> i & 1))


def _entails(sx: int, sz: int, sy: int, tx: int, tz: int, ty: int) -> bool:
    """Whether (tx, tz, ty) follows from (sx, sz, sy) by symmetry,
    decomposition and weak union alone: each side within one side, and the
    conditioning set between sz and sz ∪ sx ∪ sy."""
    return (
        (tx & sx == tx and ty & sy == ty or tx & sy == tx and ty & sx == ty)
        and sz & tz == sz
        and (sx | sz | sy) & tz == tz
    )


def _lifted(d1: Triple, d2: Triple, composition: bool) -> list[Triple]:
    """The lifted contraction (and composition) of two statements: in each
    orientation, the maximal conclusion of the rule over their weakenings."""
    (x1, z1, y1), (x2, z2, y2) = d1, d2
    s1, s2 = x1 | z1 | y1, x2 | z2 | y2
    if z1 & ~s2 or z2 & ~s1:
        return []
    out = []
    for a1, b1 in ((x1, y1), (y1, x1)):
        for a2, b2 in ((x2, y2), (y2, x2)):
            x = a1 & a2
            if x:
                out.append((x, z2 | z1 & ~b2, b1 & ~z2 | b2 & s1))
                out.append((x, z1 | z2 & ~b1, b2 & ~z1 | b1 & s2))
                if composition:
                    out.append((x, z1 | z2, b1 & ~z2 | b2 & ~z1))
    return [c for c in out if c[2]]


def _dominant(
    universe: StatementUniverse, seed: Iterable[CiStatement], composition: bool,
    targets: Iterable[Triple] = (),
) -> tuple[list[Triple], set[Triple]]:
    """The dominant statements of the closure, or of as much of it as
    entails every target (triples), and the targets not entailed. Raises
    :class:`CapacityError` past ``STEP_BUDGET`` steps."""
    n = len(universe.vertices)
    wanted = set(targets)
    seen: set[int] = set()  # the key of every conclusion drawn
    kept: dict[int, Triple] = {}
    popped: dict[int, Triple] = {}  # the kept ones popped so far
    queue: deque[int] = deque()
    steps = 0

    def keep(x: int, z: int, y: int) -> bool:
        """Keep a conclusion no kept statement entails, in place of those it
        entails; True once the last target is entailed. A repeat costs one
        set lookup: what was drawn before is still entailed by a kept one."""
        nonlocal steps
        w = ((x << n | y) if x & -x < y & -y else (y << n | x)) << n | z
        if w in seen:
            return False
        seen.add(w)
        # ``_entails`` inline, both ways: a call would cost 4 times as much
        steps += len(kept)
        for sx, sz, sy in kept.values():
            if (x & sx == x and y & sy == y or x & sy == x and y & sx == y) and (
                sz & z == sz and (sx | sz | sy) & z == z
            ):
                return False
        steps += len(kept) + len(wanted)
        span = x | z | y
        for k, (sx, sz, sy) in list(kept.items()):
            if (sx & x == sx and sy & y == sy or sx & y == sx and sy & x == sy) and (
                z & sz == z and span & sz == sz
            ):
                del kept[k]
                popped.pop(k, None)
        kept[w] = (x, z, y)
        queue.append(w)
        if not wanted:
            return False
        wanted.difference_update([t for t in wanted if _entails(x, z, y, *t)])
        return not wanted

    for st in seed:
        steps += 32
        if keep(*universe.encode(st)):
            return list(kept.values()), wanted
    while queue:
        w = queue.popleft()
        d1 = kept.get(w)
        if d1 is None:
            continue
        for k, d2 in list(popped.items()):
            if k in popped:
                lifted = _lifted(d1, d2, composition)
                steps += 32 * (1 + len(lifted))
                for c in lifted:
                    if keep(*c):
                        return list(kept.values()), wanted
            if steps > STEP_BUDGET:
                raise CapacityError(
                    f"the closure over {n} vertices took {steps} steps, "
                    f"over its budget of {STEP_BUDGET}"
                )
        if kept.get(w) is d1:
            popped[w] = d1
    return list(kept.values()), wanted


def closure(
    universe: StatementUniverse, seed: Iterable[CiStatement], composition: bool = False
) -> set[CiStatement]:
    """All statements derivable from ``seed`` under the enabled axioms, each
    built once with the side holding the least vertex as x. Raises
    :class:`CapacityError` once the engine's budget runs out, or once more
    than ``CLOSURE_BUDGET`` statements are found, before building any."""
    kept, _ = _dominant(universe, seed, composition)
    n = len(universe.vertices)
    keys: set[int] = set()
    add = keys.add
    # every weakening of each kept statement: x' ⊆ x and y' ⊆ y non-empty,
    # and z with any part of what they leave of x and y
    for x, z, y in kept:
        a = x
        while a:
            b = y
            while b:
                free = x ^ a | y ^ b
                d = free
                k = ((a << n | b) if a & -a < b & -b else (b << n | a)) << n | z
                add(k | d)
                while d:
                    d = d - 1 & free
                    add(k | d)
                if len(keys) > CLOSURE_BUDGET:
                    raise CapacityError(
                        f"the closure over {n} vertices found {CLOSURE_BUDGET + 1} statements, "
                        f"over its budget of {CLOSURE_BUDGET}"
                    )
                b = b - 1 & y
            a = a - 1 & x
    new, side, low = _trusted, universe._sides(), (1 << n) - 1
    return {new(side(k >> 2 * n), side(k & low), side(k >> n & low)) for k in keys}


def implies_each(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    targets: Iterable[CiStatement],
    composition: bool = False,
) -> list[bool]:
    """Membership of each target in the closure, from one run of the engine
    that stops once every target is entailed by a kept statement."""
    encoded = [universe.encode(t) for t in targets]
    if not encoded:
        return []
    _, missing = _dominant(universe, seed, composition, encoded)
    return [t not in missing for t in encoded]
