import itertools

import numpy as np
import pytest

from admgci import (
    Admg,
    CapacityError,
    InputError,
    m_separated,
    m_separated_bruteforce,
)
from admgci import msep
from admgci.msep import _m_connecting, _simple_mixed_paths
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

    def test_bruteforce_capacity(self, monkeypatch):
        g = Admg([f"v{i}" for i in range(11)])
        with pytest.raises(CapacityError, match="capped at 10 vertices, graph has 11"):
            m_separated_bruteforce(g, ["v0"], ["v1"], [])
        monkeypatch.setattr(msep, "BRUTE_FORCE_CAP", 11)
        assert m_separated_bruteforce(g, ["v0"], ["v1"], [])

    def test_query_validation(self, figure2):
        with pytest.raises(InputError, match="disjoint"):
            m_separated(figure2, ["a"], ["a"], [])
        with pytest.raises(InputError, match="non-empty"):
            m_separated(figure2, [], ["a"], [])
        with pytest.raises(InputError, match="unknown"):
            m_separated(figure2, ["zz"], ["a"], [])

    def test_bruteforce_paths_and_connecting_rule(self, figure2):
        z = frozenset({"d"})
        anc_z = figure2.ancestors(z)
        paths = list(_simple_mixed_paths(figure2, "a", "b"))
        assert (("a", "b"), ("=",)) in paths
        assert _m_connecting(("a", "b"), ("=",), z, anc_z)
        paths = list(_simple_mixed_paths(figure2, "a", "e"))
        assert paths and not any(_m_connecting(p, m, z, anc_z) for p, m in paths)


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

    def test_no_down_visit_past_the_last_member_of_y_and_z(self):
        # the pass stops descending past the last member of y | z in the
        # topological order; it must still see a collider at that member, or
        # one whose descendant there is in z
        rng = np.random.default_rng(23)
        answers = {"early y and z": [], "collider below z": [], "random": []}
        for n in [50, 100, 200, 500] * 4:
            g = random_sparse_admg(rng, n)
            order = g.topological_ordering()
            position = {v: i for i, v in enumerate(order)}
            quarter = n // 4
            queries = []
            for _ in range(10):
                early = list(rng.choice(order[:quarter], size=5, replace=False))
                ky = int(rng.integers(1, 3))
                x = list(rng.choice(order[-quarter:], size=int(rng.integers(1, 3)), replace=False))
                z = [v for v in early[ky:] if rng.random() < 0.6]
                queries.append(("early y and z", x, early[:ky], z))
            colliders = [v for v in order if len(g._parents[v]) + len(g._spouses[v]) > 1]
            for c in rng.choice(colliders, size=10):
                a, b = rng.choice(g._parents[c] + g._spouses[c], size=2, replace=False)
                d = str(rng.choice(sorted(g.descendants([c]) - {a, b})))
                if position[b] > position[d]:
                    a, b = b, a
                if position[b] > position[d]:
                    continue
                # x is a or an ancestor of a, which then may be blocked at a
                x = str(rng.choice(sorted(g.ancestors([a]) - {b, d})))
                z = [d] + [
                    v for v in order[: position[d]] if v not in (x, a, b) and rng.random() < 0.02
                ]
                if x != a and position[a] < position[d] and rng.random() < 0.5:
                    z.append(a)
                queries.append(("collider below z", [x], [b], sorted(set(z))))
            for _ in range(10):
                x, y, rest = _random_query(rng, g)
                queries.append(("random", x, y, [v for v in rest if rng.random() < 0.1]))
            for kind, x, y, z in queries:
                expected = m_separated_latent_moral(g, x, y, z)
                assert m_separated(g, x, y, z) == expected, (kind, n, x, y, z)
                answers[kind].append(expected)
        for kind, seen in answers.items():
            assert 0 < sum(seen) < len(seen), kind

    def test_collider_with_its_descendant_last_in_z(self):
        # a -> c <- b, c -> d: d is the last member of y | z, and the pass
        # must walk down to it from the collider c
        g = Admg(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
        assert g.topological_ordering()[-1] == "d"
        assert not m_separated(g, ["a"], ["b"], ["d"])
        assert m_separated(g, ["a"], ["b"], [])

    def test_latent_moralization_oracle_matches_bruteforce(self):
        # the oracle itself, checked where the path enumeration can run
        rng = np.random.default_rng(22)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 9)))
            x, y, rest = _random_query(rng, g, max_size=2)
            z = [v for v in rest if rng.random() < 0.4]
            assert m_separated_latent_moral(g, x, y, z) == m_separated_bruteforce(g, x, y, z)
