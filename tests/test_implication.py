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
)
from oracles import all_subsets, closure_round_robin


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
        triples, _ = implication._saturate(uni, [st, swap], SEMI_GRAPHOID)
        assert triples == [uni.encode(st)]

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


def decoded(universe, triples):
    names = {}
    for m in {m for t in triples for m in t}:
        names[m] = frozenset(v for j, v in enumerate(universe.vertices) if m >> j & 1)
    return {CiStatement(names[x], names[z], names[y]) for x, z, y in triples}


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
    """Under composition ``closure`` is computed from the closure's pair
    statements; ``_saturate`` derives every statement one at a time."""

    def test_a_statement_holds_iff_each_of_its_pairs_holds(self):
        # the lemma the pair rows rest on, checked on the independent oracle
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
        rng = np.random.default_rng(47)
        generators = (random_admg, random_block_admg, random_dag, random_bidirected_graph)
        refused = 0
        for k in range(500):
            g = generators[k % 4](rng, int(rng.integers(3, 10)))
            uni = StatementUniverse(g.vertices)
            for seed in (reduced_basis(g).statements, random_statements(rng, list(g.vertices), 1)):
                triples, _ = implication._saturate(uni, seed, WITH_COMPOSITION)
                assert closure(uni, seed, WITH_COMPOSITION) == decoded(uni, triples), seed
                # ``_saturate`` counts one statement at a time, so it refuses
                # exactly the budgets below the closure's size: about half of these
                budget = int(rng.integers(1, 2 * len(triples) + 2))
                monkeypatch.setattr(implication, "CLOSURE_BUDGET", budget)
                if budget < len(triples):
                    refused += 1
                    with pytest.raises(CapacityError, match=f"found {budget + 1} statements"):
                        implication._pair_closure(uni, seed)
                else:
                    assert len(implication._pair_closure(uni, seed)) == len(triples)
                monkeypatch.undo()
        assert 300 < refused < 700

    def test_each_statement_is_listed_once_with_the_least_vertex_on_x(self, built):
        # the listing builds its statements straight into the result set:
        # none is built twice
        rng = np.random.default_rng(48)
        for _ in range(40):
            g = random_admg(rng, int(rng.integers(3, 8)))
            uni = StatementUniverse(g.vertices)
            built.clear()
            closed = implication._pair_closure(uni, reduced_basis(g).statements)
            assert len(built) == len(closed) and set(built) == closed
            assert all(min(st.x) < min(st.y) for st in built)


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
        # a clean refusal, never a hang: 0.1-0.7 s on a 2-core machine, and
        # the listing refuses before it has built a statement past the budget
        g = sparse_dag_11()
        basis = reduced_basis(g).statements
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"found {CLOSURE_BUDGET + 1} statements"):
            closure(StatementUniverse(g.vertices), basis, WITH_COMPOSITION)
        assert time.perf_counter() - start < 15
        assert CLOSURE_BUDGET // 2 < len(built) <= CLOSURE_BUDGET

    def test_target_found_by_the_triple_past_the_budget_is_answered(self, monkeypatch):
        # the triple that would break the budget is checked against the
        # targets first, so a found answer is never refused
        g = Admg(["a", "b", "c", "d", "e"], [("a", "c"), ("b", "c"), ("c", "d")], [("d", "e")])
        basis = reduced_basis(g).statements
        universe = StatementUniverse(g.vertices)
        triples, _ = implication._saturate(universe, basis, WITH_COMPOSITION)
        k = max(
            i for i, t in enumerate(triples)
            if not any(implication._entails(*s, *t) for s in triples[:i])
        )
        names = universe.vertices
        target = CiStatement(*([v for j, v in enumerate(names) if m >> j & 1] for m in triples[k]))
        monkeypatch.setattr(implication, "CLOSURE_BUDGET", k)
        assert implies_each(universe, basis, [target], WITH_COMPOSITION) == [True]
        with pytest.raises(CapacityError, match=f"found {k + 1} statements"):
            closure(universe, basis, WITH_COMPOSITION)

    @pytest.mark.parametrize("composition", [SEMI_GRAPHOID, WITH_COMPOSITION])
    def test_the_refusal_counts_one_statement_past_the_budget(self, monkeypatch, composition):
        # under composition the budget is spent first on the pair statements,
        # then on the listing; budgets below the pair count trip the first
        g = Admg(["a", "b", "c", "d", "e"], [("a", "c"), ("b", "c"), ("c", "d")], [("d", "e")])
        basis = reduced_basis(g).statements
        universe = StatementUniverse(g.vertices)
        closed = closure(universe, basis, composition)
        pairs = sum(len(st.x) == len(st.y) == 1 for st in closed)
        assert (pairs, len(closed)) == ((26, 43) if composition else (18, 28))
        listing = (pairs, pairs + 1, (pairs + len(closed)) // 2, len(closed) - 1)
        for budget in (1, 2, pairs // 2, pairs - 1, *listing):
            monkeypatch.setattr(implication, "CLOSURE_BUDGET", budget)
            with pytest.raises(CapacityError, match=f"found {budget + 1} statements"):
                closure(universe, basis, composition)
        monkeypatch.setattr(implication, "CLOSURE_BUDGET", len(closed))
        assert closure(universe, basis, composition) == closed

    def test_targets_are_matched_only_against_statements_that_may_entail_more(
        self, monkeypatch
    ):
        # what decomposition and weak union make is entailed by its premise,
        # so only the seed and what contraction and composition make are
        # matched against the open targets; this graph's 30 targets run the
        # closure to its budget, which took 696 092 matches when every new
        # statement was matched
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
        with pytest.raises(CapacityError, match="over its budget"):
            implies_each(universe, basis.statements, targets, WITH_COMPOSITION)
        assert calls[0] < 10_000
