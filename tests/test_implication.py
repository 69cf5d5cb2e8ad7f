import random

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
from conftest import district_chain_admg, random_admg
from oracles import closure_round_robin


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
