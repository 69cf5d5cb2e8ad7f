import numpy as np
import pytest

import expected
from admgci import (
    AxiomSet,
    CapacityError,
    CiStatement,
    InputError,
    SEMI_GRAPHOID,
    StatementUniverse,
    WITH_COMPOSITION,
    closure,
    implies,
    m_separated,
    reduced_basis,
)
from admgci.implication import implies_each
from conftest import random_admg
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


class TestAxiomSet:
    def test_flags(self):
        assert not SEMI_GRAPHOID.composition
        assert WITH_COMPOSITION.composition
        assert AxiomSet(composition=True) == WITH_COMPOSITION


class TestUniverse:
    def test_capacity(self):
        with pytest.raises(CapacityError):
            StatementUniverse([f"v{i:02d}" for i in range(13)])
        assert StatementUniverse(["x", "y"], cap=2).slots == 16

    def test_encode_decode_roundtrip(self):
        uni = StatementUniverse(["a", "b", "c", "d"])
        st = CiStatement(["a"], ["c"], ["b", "d"])
        assert uni.decode(uni.encode(st)) == st

    def test_word_identifies_symmetric_statements(self):
        uni = StatementUniverse(["a", "b", "c"])
        st = CiStatement(["a"], ["c"], ["b"])
        assert uni.word(*uni.encode(st)) == uni.word(*uni.encode(st.flipped()))

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
        assert implies(uni, seed, CiStatement(["b"], ["a", "d"], ["e"]), WITH_COMPOSITION)
        assert not implies(uni, seed, CiStatement(["a"], ["d"], ["b"]), WITH_COMPOSITION)
        assert implies(uni, seed, seed[0], SEMI_GRAPHOID)  # target in seed

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
                    assert implies(uni, seed, t, axioms) == (t in cl)


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
            assert st.flipped() in cl

    def test_matches_round_robin_schedule(self):
        rng = np.random.default_rng(43)
        for n, cases in ((4, 8), (5, 150), (6, 150)):
            vertices = list("abcdef"[:n])
            uni = StatementUniverse(vertices)
            for _ in range(cases):
                seed = random_statements(rng, vertices, int(rng.integers(1, 4)))
                for axioms in (SEMI_GRAPHOID, WITH_COMPOSITION):
                    want = closure_round_robin(seed, axioms.composition)
                    assert closure(uni, seed, axioms) == want, seed
                    members = sorted(want, key=lambda st: st.render())
                    targets = random_statements(rng, vertices, 4)
                    targets += members[:: len(members) // 3 or 1]
                    got = [implies(uni, seed, t, axioms) for t in targets]
                    assert got == implies_each(uni, seed, targets, axioms)
                    assert got == [t in want for t in targets], seed

    def test_sound_for_m_separation(self):
        # seeds that hold as m-separations stay m-separations after closure
        rng = np.random.default_rng(44)
        for _ in range(12):
            g = random_admg(rng, int(rng.integers(3, 7)))
            basis = reduced_basis(g)
            uni = StatementUniverse(g.vertices)
            for st in closure(uni, basis.statements, WITH_COMPOSITION):
                assert m_separated(g, st.x, st.y, st.z), (repr(g), st.render())
