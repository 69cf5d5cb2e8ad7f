import random
import time

import numpy as np
import pytest

import expected
from admgci import (
    Admg,
    CapacityError,
    CiStatement,
    InputError,
    SEMI_GRAPHOID,
    StatementUniverse,
    WITH_COMPOSITION,
    closure,
    implies_each,
    m_separated,
    ordered_local_markov,
    reduced_basis,
)
from admgci import implication
from admgci.implication import CLOSURE_BUDGET
from conftest import (
    district_chain_admg,
    random_admg,
    random_bidirected_graph,
    random_block_admg,
    random_dag,
    random_sparse_admg,
)
from oracles import all_subsets, closure_round_robin, closure_worklist


def random_statements(rng, vertices, count):
    out = []
    while len(out) < count:
        roles = rng.integers(0, 4, size=len(vertices))
        x = [v for v, r in zip(vertices, roles) if r == 1]
        z = [v for v, r in zip(vertices, roles) if r == 2]
        y = [v for v, r in zip(vertices, roles) if r == 3]
        if x and y:
            out.append(CiStatement(x, z, y))
    return out


class TestUniverse:
    def test_capacity(self):
        # no size limit: the closure budget bounds the work instead
        names = [f"v{i:02d}" for i in range(13)]
        uni = StatementUniverse(names)
        assert uni.slots == 4**13
        seed = [CiStatement(["v00"], [], names[1:])]
        assert implies_each(uni, seed, [CiStatement(["v12"], names[1:6], ["v00"])]) == [True]
        pair = [CiStatement(["v00"], ["v11"], ["v12"])]
        assert closure(uni, pair) == set(pair)
        assert implies_each(uni, pair, [CiStatement(["v00"], [], ["v12"])]) == [False]

    def test_encode_decode_roundtrip(self):
        # one bit per vertex in name order; the closure decodes what it finds
        uni = StatementUniverse(["a", "b", "c", "d"])
        st = CiStatement(["a"], ["c"], ["b", "d"])
        assert uni.encode(st) == (0b0001, 0b0100, 0b1010)
        assert st in closure(uni, [st])

    def test_a_statement_and_its_swap_are_one_triple(self):
        uni = StatementUniverse(["a", "b", "c"])
        st = CiStatement(["a"], ["c"], ["b"])
        swap = CiStatement(st.y, st.z, st.x)
        kept, _ = implication._dominant(uni, [st, swap], SEMI_GRAPHOID)
        assert kept == [uni.encode(st)]

    def test_unknown_vertex(self):
        uni = StatementUniverse(["a", "b"])
        with pytest.raises(InputError):
            uni.encode(CiStatement(["a"], [], ["z"]))


class TestClosureExamples:
    def test_empty_seed(self):
        uni = StatementUniverse(["a", "b"])
        assert closure(uni, [], WITH_COMPOSITION) == set()

    def test_single_statement_semi_graphoid_steps(self):
        uni = StatementUniverse(["x", "y", "w"])
        seed = [CiStatement(["x"], [], ["y", "w"])]
        cl = closure(uni, seed, SEMI_GRAPHOID)
        assert CiStatement(["x"], ["w"], ["y"]) in cl  # weak union
        assert CiStatement(["x"], [], ["y"]) in cl  # decomposition

    def test_figure2_reduced_implies_ordered_under_composition(self, figure2):
        uni = StatementUniverse(figure2.vertices)
        cl = closure(uni, expected.FIGURE2_REDUCED, WITH_COMPOSITION)
        assert set(expected.FIGURE2_ORDERED) <= cl

    def test_composition_is_needed_for_figure2(self, figure2):
        uni = StatementUniverse(figure2.vertices)
        cl = closure(uni, expected.FIGURE2_REDUCED, SEMI_GRAPHOID)
        assert not set(expected.FIGURE2_ORDERED) <= cl

    def test_implies_examples(self, figure2):
        uni = StatementUniverse(figure2.vertices)
        seed = expected.FIGURE2_REDUCED
        targets = [CiStatement(["b"], ["a", "d"], ["e"]), CiStatement(["a"], ["d"], ["b"])]
        assert implies_each(uni, seed, targets, WITH_COMPOSITION) == [True, False]
        assert implies_each(uni, seed, [seed[0]], SEMI_GRAPHOID) == [True]  # target in seed

    def test_implies_agrees_with_materialized_closure(self):
        rng = np.random.default_rng(40)
        vertices = ["a", "b", "c", "d"]
        uni = StatementUniverse(vertices)
        for _ in range(10):
            seed = random_statements(rng, vertices, 2)
            for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                cl = closure(uni, seed, axioms)
                targets = random_statements(rng, vertices, 8)
                for t in targets:
                    assert implies_each(uni, seed, [t], axioms) == [t in cl]


class TestClosureProperties:
    def test_extensive_idempotent_monotone(self):
        rng = np.random.default_rng(41)
        vertices = ["a", "b", "c", "d"]
        uni = StatementUniverse(vertices)
        for _ in range(10):
            seed = random_statements(rng, vertices, 3)
            for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                cl = closure(uni, seed, axioms)
                assert set(seed) <= cl
                assert closure(uni, cl, axioms) == cl
                smaller = closure(uni, seed[:2], axioms)
                assert smaller <= cl
            assert closure(uni, seed, SEMI_GRAPHOID) <= closure(uni, seed, WITH_COMPOSITION)

    def test_symmetry_quotient(self):
        rng = np.random.default_rng(42)
        vertices = ["a", "b", "c", "d"]
        uni = StatementUniverse(vertices)
        seed = random_statements(rng, vertices, 3)
        cl = closure(uni, seed, WITH_COMPOSITION)
        for st in cl:
            assert CiStatement(st.y, st.z, st.x) in cl

    def test_matches_round_robin_schedule(self):
        rng = np.random.default_rng(43)
        for n, cases in ((4, 8), (5, 150), (6, 150)):
            vertices = list("abcdef"[:n])
            uni = StatementUniverse(vertices)
            for _ in range(cases):
                seed = random_statements(rng, vertices, int(rng.integers(1, 4)))
                for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                    want = closure_round_robin(seed, axioms)
                    assert closure(uni, seed, axioms) == want, seed
                    members = sorted(want, key=lambda st: st.render())
                    targets = random_statements(rng, vertices, 4)
                    targets += members[:: len(members) // 3 or 1]
                    got = [implies_each(uni, seed, [t], axioms)[0] for t in targets]
                    assert got == implies_each(uni, seed, targets, axioms)
                    assert got == [t in want for t in targets], seed

    def test_closure_of_reduced_bases_matches_round_robin_schedule(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            g = random_admg(rng, int(rng.integers(4, 7)))
            basis = reduced_basis(g).statements
            uni = StatementUniverse(g.vertices)
            for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                want = closure_round_robin(basis, axioms)
                assert closure(uni, basis, axioms) == want, repr(g)

    def test_sound_for_m_separation(self):
        # seeds that hold as m-separations stay m-separations after closure
        rng = np.random.default_rng(44)
        for _ in range(12):
            g = random_admg(rng, int(rng.integers(3, 7)))
            basis = reduced_basis(g)
            uni = StatementUniverse(g.vertices)
            for st in closure(uni, basis.statements, WITH_COMPOSITION):
                assert m_separated(g, st.x, st.y, st.z), (repr(g), st.render())


@pytest.fixture
def built(monkeypatch) -> list[CiStatement]:
    """Every statement the closure's unchecked constructor builds, in order."""
    made = []
    trusted = implication._trusted

    def recorded(*sides):
        made.append(trusted(*sides))
        return made[-1]

    monkeypatch.setattr(implication, "_trusted", recorded)
    return made


class TestPairRows:
    """Under composition a statement holds iff each of its pair statements
    does; the closure, listed from its dominant statements, equals the
    statement worklist's, which derives every statement one at a time."""

    def test_a_statement_holds_iff_each_of_its_pairs_holds(self):
        # the pair lemma, checked on the independent oracle
        rng = np.random.default_rng(46)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 7)))
            want = closure_round_robin(reduced_basis(g).statements, WITH_COMPOSITION)
            pairs = {st for st in want if len(st.x) == len(st.y) == 1}
            for st in want:
                assert all(CiStatement([a], st.z, [b]) in pairs for a in st.x for b in st.y)
            for zs in all_subsets(g.vertices):
                rest = [v for v in g.vertices if v not in zs]
                for xs in all_subsets(rest):
                    for ys in all_subsets([v for v in rest if v not in xs]):
                        if xs and ys and all(
                            CiStatement([a], zs, [b]) in pairs for a in xs for b in ys
                        ):
                            assert CiStatement(xs, zs, ys) in want, repr(g)

    def test_matches_the_statement_worklist(self, monkeypatch):
        # 1000 seeds: the bases of the four generators at 3-9 vertices and
        # one random statement each, under both axiom sets
        rng = np.random.default_rng(47)
        generators = (random_admg, random_block_admg, random_dag, random_bidirected_graph)
        refused = 0
        for k in range(500):
            g = generators[k % 4](rng, int(rng.integers(3, 10)))
            uni = StatementUniverse(g.vertices)
            for seed in (reduced_basis(g).statements, random_statements(rng, list(g.vertices), 1)):
                for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                    want = closure_worklist(seed, axioms)
                    assert closure(uni, seed, axioms) == want, (seed, axioms)
                # the listing refuses exactly the budgets below the closure's
                # size: about half of these
                budget = int(rng.integers(1, 2 * len(want) + 2))
                monkeypatch.setattr(implication, "CLOSURE_BUDGET", budget)
                if budget < len(want):
                    refused += 1
                    with pytest.raises(CapacityError, match=f"found {budget + 1} statements"):
                        closure(uni, seed, WITH_COMPOSITION)
                else:
                    assert len(closure(uni, seed, WITH_COMPOSITION)) == len(want)
                monkeypatch.undo()
        assert 300 < refused < 700

    def test_each_statement_is_listed_once_with_the_least_vertex_on_x(self, built):
        # the listing dedupes the keys of the kept statements' weakenings
        # first, then builds each statement once, straight into the result
        rng = np.random.default_rng(48)
        for _ in range(40):
            g = random_admg(rng, int(rng.integers(3, 8)))
            uni = StatementUniverse(g.vertices)
            for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                built.clear()
                closed = closure(uni, reduced_basis(g).statements, axioms)
                assert len(built) == len(closed) and set(built) == closed
                assert all(min(st.x) < min(st.y) for st in built)


def submasks(m):
    """Every submask of ``m``, ``m`` first and 0 last."""
    s = m
    while True:
        yield s
        if not s:
            return
        s = s - 1 & m


def weakenings(x, z, y):
    """Every statement (x, z, y) entails by symmetry, decomposition and weak
    union, enumerated."""
    for a, b in ((x, y), (y, x)):
        for a1 in submasks(a):
            for b1 in submasks(b):
                if a1 and b1:
                    for d in submasks(a ^ a1 | b ^ b1):
                        yield a1, z | d, b1


def canonical(x, z, y):
    return min(x, y), z, max(x, y)


def random_masks(rng, n):
    """A random statement over n vertices as masks (x, z, y)."""
    while True:
        roles = rng.integers(0, 4, size=n)
        x, z, y = (sum(1 << i for i in range(n) if roles[i] == r) for r in (1, 2, 3))
        if x and y:
            return x, z, y


def maximal(statements):
    """The statements no other one of them entails."""
    found = {canonical(*t) for t in statements}
    return {t for t in found if not any(u != t and implication._entails(*u, *t) for u in found)}


class TestLiftedRules:
    def test_lifted_conclusions_are_the_maximal_ones_over_all_weakenings(self):
        # by brute force: contraction (and composition) applied to every pair
        # of weakenings, one of each statement, in either order; where a rule
        # has no application in some orientation, its closed form gives a
        # statement a premise entails, so the premises join both sides
        rng = np.random.default_rng(49)
        fired = 0
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            d1, d2 = (random_masks(rng, n) for _ in range(2))
            for composition in (SEMI_GRAPHOID, WITH_COMPOSITION):
                derived = set()
                for p, q in ((d1, d2), (d2, d1)):
                    second: dict[tuple[int, int], list[int]] = {}
                    for x, z, y in weakenings(*q):
                        second.setdefault((x, z), []).append(y)
                    for x, z, y in weakenings(*p):
                        derived.update(canonical(x, z, y | w) for w in second.get((x, z | y), ()))
                        if composition:
                            derived.update(canonical(x, z, y | w) for w in second.get((x, z), ()))
                lifted = implication._lifted(d1, d2, composition)
                # sound: each is derived, or entailed by a premise
                for c in lifted:
                    assert canonical(*c) in derived or any(
                        implication._entails(*d, *c) for d in (d1, d2)
                    ), (d1, d2, c)
                # and nothing derived is missed
                want = maximal([*derived, d1, d2])
                assert maximal([*lifted, d1, d2]) == want, (d1, d2, composition)
                fired += want != maximal([d1, d2])
        assert fired > 800, fired


def sparse_dag_11():
    """An 11-vertex sparse DAG whose composition closure from its basis holds
    110 245 statements: edge i -> j for i < j with probability 0.25."""
    rng = random.Random(3)
    names = [f"v{i:02d}" for i in range(12)]
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.25]
    return Admg(sorted({v for e in edges for v in e}), edges, [])


class TestClosureBudget:
    def test_largest_closure_is_refused(self):
        g = sparse_dag_11()
        basis = reduced_basis(g).statements
        universe = StatementUniverse(g.vertices)
        assert (len(g.vertices), len(basis)) == (11, 11)
        refused = (
            f"the closure over 11 vertices found {CLOSURE_BUDGET + 1} statements, "
            f"over its budget of {CLOSURE_BUDGET}"
        )
        with pytest.raises(CapacityError, match=refused):
            closure(universe, basis, WITH_COMPOSITION)
        # a target that needs no rule is found before the budget runs out
        assert implies_each(universe, basis, [basis[0]], WITH_COMPOSITION) == [True]

    def test_the_largest_closure_is_refused_in_seconds_before_the_listing_passes_it(
        self, built
    ):
        # a clean refusal, never a hang: the engine keeps 59 statements, and
        # the listing counts the keys of their weakenings before building a
        # statement, so it refuses with none built
        g = sparse_dag_11()
        basis = reduced_basis(g).statements
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"found {CLOSURE_BUDGET + 1} statements"):
            closure(StatementUniverse(g.vertices), basis, WITH_COMPOSITION)
        assert time.perf_counter() - start < 15
        assert built == []

    def test_target_found_by_the_triple_past_the_budget_is_answered(self, monkeypatch):
        # the budget is checked after each pair of kept statements, once its
        # conclusions are matched against the targets, so a found answer is
        # never refused: here contraction of the two seeds finds the target
        # past a budget of no steps
        universe = StatementUniverse(["a", "b", "c"])
        seed = [CiStatement(["a"], ["c"], ["b"]), CiStatement(["a"], [], ["c"])]
        target = CiStatement(["a"], [], ["b", "c"])
        monkeypatch.setattr(implication, "STEP_BUDGET", 0)
        assert implies_each(universe, seed, [target], WITH_COMPOSITION) == [True]
        with pytest.raises(CapacityError, match="took [0-9]+ steps, over its budget of 0"):
            closure(universe, seed, WITH_COMPOSITION)

    @pytest.mark.parametrize("composition", [SEMI_GRAPHOID, WITH_COMPOSITION])
    def test_the_refusal_counts_one_statement_past_the_budget(self, monkeypatch, composition):
        # the listing refuses exactly the closures of more statements than
        # its budget, whatever the kept statements' weakenings share
        g = Admg(["a", "b", "c", "d", "e"], [("a", "c"), ("b", "c"), ("c", "d")], [("d", "e")])
        basis = reduced_basis(g).statements
        universe = StatementUniverse(g.vertices)
        closed = closure(universe, basis, composition)
        kept, _ = implication._dominant(universe, basis, composition)
        assert (len(kept), len(closed)) == ((4, 43) if composition else (4, 28))
        for budget in (1, 2, len(closed) // 2, len(closed) - 1):
            monkeypatch.setattr(implication, "CLOSURE_BUDGET", budget)
            with pytest.raises(CapacityError, match=f"found {budget + 1} statements"):
                closure(universe, basis, composition)
        monkeypatch.setattr(implication, "CLOSURE_BUDGET", len(closed))
        assert closure(universe, basis, composition) == closed

    @pytest.mark.parametrize("composition, index", [(WITH_COMPOSITION, 44), (SEMI_GRAPHOID, 39)])
    def test_the_slowest_sparse_graph_is_refused_within_two_seconds(self, composition, index):
        # of 60 sparse graphs of 13-20 vertices, the one each axiom set takes
        # longest on: refused after 0.7-0.8 s on a 2-core machine (best of
        # two runs, so a busy moment on the host does not fail it)
        rng = np.random.default_rng(0)
        graphs = [random_sparse_admg(rng, rng.integers(13, 21)) for _ in range(index + 1)]
        g = graphs[index]
        basis = reduced_basis(g)
        in_basis = set(basis.statements)
        targets = [st for st in ordered_local_markov(g, basis.ordering) if st not in in_basis]
        universe = StatementUniverse(g.vertices)
        took = []
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match="steps, over its budget of 20000000"):
                implies_each(universe, basis.statements, targets, composition)
            took.append(time.perf_counter() - start)
            if took[-1] < 2:
                break
        assert min(took) < 2, took

    def test_targets_are_matched_only_against_statements_that_may_entail_more(
        self, monkeypatch
    ):
        # a conclusion a kept statement entails entails no target that one
        # did not, so only the kept statements are matched against the open
        # targets: this graph's 30 targets are all derived in few matches
        g = district_chain_admg(np.random.default_rng(1), 20)
        basis = reduced_basis(g)
        in_basis = set(basis.statements)
        targets = [st for st in ordered_local_markov(g, basis.ordering) if st not in in_basis]
        calls = [0]
        entails = implication._entails

        def counted(*masks):
            calls[0] += 1
            return entails(*masks)

        monkeypatch.setattr(implication, "_entails", counted)
        universe = StatementUniverse(g.vertices)
        answers = implies_each(universe, basis.statements, targets, WITH_COMPOSITION)
        assert len(answers) == 30 and all(answers)
        assert calls[0] < 10_000, calls[0]
