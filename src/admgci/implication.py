"""Desk-scale conditional-independence implication by axiom closure.

A statement over n vertices is three bitmasks (x, z, y), keyed by the integer
``min(x, y) << 2n | max(x, y) << n | z`` so that a statement and its x/y swap
share one key (symmetry); a repeated statement costs one set lookup and no
call. Closure is a semi-naive worklist fixpoint. Decomposition and weak union
move one member b of y at a time, to (x, z, y∖b) and (x, z∪b, y∖b); any
general step is a chain of these. A statement joins the contraction indexes
when it is popped, after being joined with every statement popped before it:
each pair of premises meets once, when the later of the two is popped, and
no pair of popped statements is missed. Composition, when enabled, adds
(x, z, U) for the union U of every y seen with (x, z): a chain of composition
steps, and complete, since decomposition of U then yields y1 ∪ y2 for any two
such y. Membership in the closure decides implication; this is derivability
under the stated axioms, not general probabilistic implication.

Each entry point gets the engine that fits what it returns. ``implies_each``
runs the worklist above under either axiom set, and stops as soon as every
target follows from one statement found by symmetry, decomposition and weak
union: one large statement may answer many targets early. ``closure`` runs
it for the semi-graphoid axioms only. Under composition, X ⊥ Y | Z holds iff
a ⊥ b | Z for every a ∈ X and b ∈ Y (decomposition one way, composition the
other), so ``closure`` computes the least fixpoint of the pair rows
N(a, Z) = {b : a ⊥ b | Z}, far fewer than the statements, and then lists
each statement once from them. On rows the axioms become symmetry (b ∈
N(a, Z) iff a ∈ N(b, Z)), weak union (c ∈ N(a, Z) puts N(a, Z) ∖ c into
N(a, Z ∪ c)) and contraction (c ∈ N(a, Z) puts N(a, Z ∪ c) into N(a, Z));
decomposition and composition hold by construction. The listing builds each
statement once, straight into the result set, from one frozenset per mask,
and without the constructor's checks, as ``closure`` does for ``_saturate``'s
triples: from checked seeds, the rules keep the sides disjoint and x, y non-empty.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from functools import cache

from .errors import CapacityError, InputError
from .statements import CiStatement, _trusted

# statements one closure may hold (under composition, ``closure`` counts its
# pair statements first, then its statements); the largest closures run in
# the tests hold about 43 000 (10 vertices), those of the 8-vertex desk
# shapes 2 100
CLOSURE_BUDGET = 50_000


# the ``composition`` argument: the four semi-graphoid rules always apply,
# composition on request
SEMI_GRAPHOID = False
WITH_COMPOSITION = True


class StatementUniverse:
    """All CI statements over a fixed ground set of vertices. The universe has
    no size limit: ``CLOSURE_BUDGET`` bounds the work of a closure in it."""

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
    span = sx | sz | sy
    return (
        (tx | sx == sx and ty | sy == sy or tx | sy == sy and ty | sx == sx)
        and sz | tz == tz
        and tz | span == span
    )


def _saturate(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    composition: bool,
    targets: Iterable[tuple[int, int, int]] = (),
) -> tuple[list[tuple[int, int, int]], set[tuple[int, int, int]]]:
    """Least fixpoint of the enabled rules, or as much of it as entails every
    target. Returns the canonical triples and the targets not entailed.
    Raises :class:`CapacityError` once more than ``CLOSURE_BUDGET`` triples
    are found."""
    n = len(universe.vertices)
    wanted = set(targets)
    seen: set[int] = set()
    triples: list[tuple[int, int, int]] = []
    head = 0  # the worklist is triples[head:]
    # popped statements, both orientations, keyed by x << n | z and x << n | z∪y
    by_xz: dict[int, list[int]] = defaultdict(list)
    by_xu: dict[int, list[tuple[int, int]]] = defaultdict(list)
    union: dict[int, int] = {}

    def add(w: int, x: int, z: int, y: int, match: bool = True) -> bool:
        """Add a triple of unseen key ``w``; True once the last target is
        entailed. With ``match`` off it is not matched against the targets."""
        seen.add(w)
        triples.append((x, z, y))
        if wanted and match:
            wanted.difference_update([t for t in wanted if _entails(x, z, y, *t)])
            if not wanted:
                return True
        if len(triples) > CLOSURE_BUDGET:
            raise _over_budget(n)
        return False

    for st in seed:
        x, z, y = universe.encode(st)
        w = ((x << n | y) if x < y else (y << n | x)) << n | z
        if w not in seen and add(w, x, z, y):
            return triples, wanted

    while head < len(triples):
        x0, z, y0 = triples[head]
        head += 1
        for x, y in ((x0, y0), (y0, x0)):
            xz = x << n | z
            # decomposition and weak union, one member of y at a time; what
            # they make is entailed by this statement, and entailment is
            # transitive, so it entails no target this one did not
            if y & (y - 1):
                rest = y
                while rest:
                    b = rest & -rest
                    rest ^= b
                    v = y ^ b
                    w = ((x << n | v) if x < v else (v << n | x)) << n | z
                    if w not in seen:
                        add(w, x, z, v, False)
                    if w | b not in seen:
                        add(w | b, x, z | b, v, False)
            # contraction against every popped statement, this one as the
            # first premise and then as the second
            for v in by_xz.get(xz | y, ()):
                v |= y
                w = ((x << n | v) if x < v else (v << n | x)) << n | z
                if w not in seen and add(w, x, z, v):
                    return triples, wanted
            for z1, y1 in by_xu.get(xz, ()):
                v = y1 | y
                w = ((x << n | v) if x < v else (v << n | x)) << n | z1
                if w not in seen and add(w, x, z1, v):
                    return triples, wanted
            by_xz[xz].append(y)
            by_xu[xz | y].append((z, y))
            # composition against the union of every y seen with (x, z)
            if composition:
                u = union.get(xz, 0)
                if y & ~u:
                    u |= y
                    union[xz] = u
                    w = ((x << n | u) if x < u else (u << n | x)) << n | z
                    if u != y and w not in seen and add(w, x, z, u):
                        return triples, wanted
    return triples, wanted


def _over_budget(n: int) -> CapacityError:
    return CapacityError(
        f"the closure over {n} vertices found {CLOSURE_BUDGET + 1} statements, "
        f"over its budget of {CLOSURE_BUDGET}"
    )


def _pair_closure(universe: StatementUniverse, seed: Iterable[CiStatement]) -> set[CiStatement]:
    """The composition closure, each unordered statement built once with the
    side holding the least vertex as x. Raises :class:`CapacityError` once
    more than ``CLOSURE_BUDGET`` pairs or statements are found, before
    building a statement past the budget."""
    n = len(universe.vertices)
    low = (1 << n) - 1
    rows: dict[int, int] = {}  # z << n | a, a one-bit mask -> N(a, z) = {b : a ⊥ b | z}
    # key -> the bits of its row not yet processed: each rule instance fires
    # when the later of its premises is processed, reading the rows as they are
    work: dict[int, int] = {}
    pairs = 0

    def add(key: int, bits: int) -> None:
        """Put ``bits`` into a row, and the row's vertex into theirs."""
        nonlocal pairs
        old = rows.get(key, 0)
        new = bits & ~old
        if not new:
            return
        rows[key] = old | new
        work[key] = work.get(key, 0) | new
        # symmetry keeps the rows two-ended, so each new pair is new at both ends
        pairs += new.bit_count()
        if pairs > CLOSURE_BUDGET:
            raise _over_budget(n)
        a, base = key & low, key & ~low
        while new:
            b = new & -new
            new ^= b
            k = base | b
            rows[k] = rows.get(k, 0) | a
            work[k] = work.get(k, 0) | a

    for st in seed:
        x, z, y = universe.encode(st)
        while x:
            a = x & -x
            x ^= a
            add(z << n | a, y)

    while work:
        key, new = work.popitem()
        a, z, row = key & low, key >> n, rows[key]
        # weak union: c ∈ N(a, z) puts N(a, z) ∖ c into N(a, z ∪ c), and
        # contraction: a new c ∈ N(a, z) puts N(a, z ∪ c) into N(a, z)
        pulled = 0
        rest = row
        while rest:
            c = rest & -rest
            rest ^= c
            k = (z | c) << n | a
            if c & new:
                add(k, row ^ c)
                pulled |= rows.get(k, 0)
            elif new & ~rows.get(k, 0):  # most are known already: skip the call
                add(k, new)
        add(key, pulled)
        # contraction: c ∈ N(a, z ∖ c) puts N(a, z) into N(a, z ∖ c)
        rest = z
        while rest:
            c = rest & -rest
            rest ^= c
            k = (z ^ c) << n | a
            if rows.get(k, 0) & c:
                add(k, new)

    # X ⊥ Y | z holds iff every a ∈ X has Y within N(a, z): grow X upwards
    # while the rows of its members share bits above its least member
    new, side = _trusted, universe._sides()
    out: set[CiStatement] = set()
    add = out.add
    members: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for key in sorted(rows):
        members[key >> n].append((key & low, rows[key]))
    for z, row_of in members.items():
        sz = side(z)
        stack = [(a, row & -2 * a, j + 1) for j, (a, row) in enumerate(row_of) if row >= 2 * a]
        while stack:
            x, common, j = stack.pop()
            # the 2^|common| - 1 statements of this x, counted before listing
            if len(out) + (1 << common.bit_count()) > CLOSURE_BUDGET + 1:
                raise _over_budget(n)
            sx, y = side(x), common
            while y:
                add(new(sx, sz, side(y)))
                y = y - 1 & common
            for k in range(j, len(row_of)):
                a, row = row_of[k]
                if common & row:
                    stack.append((x | a, common & row, k + 1))
    return out


def closure(
    universe: StatementUniverse, seed: Iterable[CiStatement], composition: bool = False
) -> set[CiStatement]:
    """All statements derivable from ``seed`` under the enabled axioms."""
    if composition:
        return _pair_closure(universe, seed)
    triples, _ = _saturate(universe, seed, composition)
    new, side = _trusted, universe._sides()
    return {new(side(x), side(z), side(y)) for x, z, y in triples}


def implies_each(
    universe: StatementUniverse,
    seed: Iterable[CiStatement],
    targets: Iterable[CiStatement],
    composition: bool = False,
) -> list[bool]:
    """Membership of each target in the closure, from one saturation that
    stops once every target follows from a statement found."""
    encoded = [universe.encode(t) for t in targets]
    if not encoded:
        return []
    _, missing = _saturate(universe, seed, composition, encoded)
    return [t not in missing for t in encoded]
