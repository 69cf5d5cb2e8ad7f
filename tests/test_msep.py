import itertools

import numpy as np
import pytest

from admgci import (
    Admg,
    CapacityError,
    InputError,
    connecting_paths,
    m_separated,
    m_separated_bruteforce,
)
from conftest import random_admg, random_dag, random_sparse_admg
from oracles import all_subsets, d_separated_moral, m_separated_latent_moral


class TestExamples:
    def test_figure2_separations(self, figure2):
        assert m_separated(figure2, ["a"], ["e"], ["d"])
        assert not m_separated(figure2, ["a"], ["b"], ["d"])

    def test_edgeless_graph(self):
        g = Admg(["x", "y"])
        assert m_separated(g, ["x"], ["y"], [])

    def test_figure1_bruteforce(self, figure1):
        # both simple paths between a and d hold a collider outside an(Z)
        assert m_separated_bruteforce(figure1, ["a"], ["d"], [])
        assert m_separated(figure1, ["a"], ["d"], [])

    def test_single_edge_always_connected(self):
        g = Admg(["x", "y"], [("x", "y")])
        assert not m_separated_bruteforce(g, ["x"], ["y"], [])
        assert not m_separated(g, ["x"], ["y"], [])

    def test_bruteforce_capacity(self):
        g = Admg([f"v{i}" for i in range(11)])
        with pytest.raises(CapacityError):
            m_separated_bruteforce(g, ["v0"], ["v1"], [])
        assert m_separated_bruteforce(g, ["v0"], ["v1"], [], cap=11)

    def test_query_validation(self, figure2):
        with pytest.raises(InputError, match="disjoint"):
            m_separated(figure2, ["a"], ["a"], [])
        with pytest.raises(InputError, match="non-empty"):
            m_separated(figure2, [], ["a"], [])
        with pytest.raises(InputError, match="unknown"):
            m_separated(figure2, ["zz"], ["a"], [])

    def test_connecting_paths_debugging_aid(self, figure2):
        paths = connecting_paths(figure2, "a", "b", ["d"])
        assert (("a", "b"), ("=",)) in paths
        assert connecting_paths(figure2, "a", "e", ["d"]) == []


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            g = random_admg(rng, int(rng.integers(2, 8)))
            vs = list(g.vertices)
            rng.shuffle(vs)
            x, y = [vs[0]], [vs[1]]
            z = [v for v in vs[2:] if rng.random() < 0.4]
            assert m_separated(g, x, y, z) == m_separated(g, y, x, z)

    def test_setwise_composition_and_decomposition(self):
        # graph-side: separation from a union holds iff it holds from each part
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 8)))
            vs = list(g.vertices)
            rng.shuffle(vs)
            x, y, w = [vs[0]], [vs[1]], [vs[2]]
            z = [v for v in vs[3:] if rng.random() < 0.4]
            whole = m_separated(g, x, y + w, z)
            parts = m_separated(g, x, y, z) and m_separated(g, x, w, z)
            assert whole == parts

    def test_fast_path_equals_bruteforce_exhaustively(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(2, 8)))
            for x, y in itertools.combinations(g.vertices, 2):
                rest = [v for v in g.vertices if v not in (x, y)]
                for z in all_subsets(rest):
                    assert m_separated(g, [x], [y], z) == m_separated_bruteforce(
                        g, [x], [y], z
                    ), (repr(g), x, y, z)

    def test_set_valued_queries_match_bruteforce(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 8)))
            vs = list(g.vertices)
            rng.shuffle(vs)
            k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            x, y = vs[:k1], vs[k1 : k1 + k2]
            z = [v for v in vs[k1 + k2 :] if rng.random() < 0.4]
            assert m_separated(g, x, y, z) == m_separated_bruteforce(g, x, y, z)

    def test_matches_textbook_d_separation_on_dags(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(2, 8)))
            for x, y in itertools.combinations(g.vertices, 2):
                rest = [v for v in g.vertices if v not in (x, y)]
                for z in all_subsets(rest):
                    assert m_separated(g, [x], [y], z) == d_separated_moral(
                        g, [x], [y], z
                    ), (repr(g), x, y, z)


def _random_query(rng, g, max_size=3):
    vs = list(rng.permutation(g.vertices))
    kx, ky = int(rng.integers(1, max_size + 1)), int(rng.integers(1, max_size + 1))
    return vs[:kx], vs[kx : kx + ky], vs[kx + ky :]


class TestBeyondSmallGraphs:
    def test_matches_latent_moralization_on_20_to_200_vertices(self):
        # graphs with mixed directed cycles; half the queries condition on
        # the parents of x, so both answers occur
        rng = np.random.default_rng(20)
        answers = []
        for n in [20, 50, 100, 200] * 10:
            g = random_sparse_admg(rng, n)
            for _ in range(25):
                x, y, rest = _random_query(rng, g)
                if rng.random() < 0.5:
                    z = [v for v in rest if rng.random() < 0.2]
                else:
                    extra = [v for v in rest if rng.random() < 0.05]
                    z = sorted((g.parents(x) | set(extra)) - set(x) - set(y))
                expected = m_separated_latent_moral(g, x, y, z)
                assert m_separated(g, x, y, z) == expected, (n, x, y, z)
                answers.append(expected)
        assert 100 < sum(answers) < len(answers) - 100

    def test_matches_bruteforce_on_8_to_10_vertices(self):
        rng = np.random.default_rng(21)
        answers = []
        for i in range(60):
            g = random_admg(rng, 8 + i % 3, p_dir=0.2, p_bi=0.15)
            for _ in range(20):
                x, y, rest = _random_query(rng, g)
                z = [v for v in rest if rng.random() < 0.3]
                expected = m_separated_bruteforce(g, x, y, z)
                assert m_separated(g, x, y, z) == expected, (repr(g), x, y, z)
                answers.append(expected)
        assert 100 < sum(answers) < len(answers) - 100

    def test_latent_moralization_oracle_matches_bruteforce(self):
        # the oracle itself, checked where the path enumeration can run
        rng = np.random.default_rng(22)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 9)))
            x, y, rest = _random_query(rng, g, max_size=2)
            z = [v for v in rest if rng.random() < 0.4]
            assert m_separated_latent_moral(g, x, y, z) == m_separated_bruteforce(g, x, y, z)
