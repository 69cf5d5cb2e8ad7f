import itertools

import numpy as np
import pytest

from admgci import Admg, InputError, validate_ordering
from conftest import random_admg, random_dag, random_sparse_admg
from oracles import least_ready_first_order, mixed_directed_path_by_enumeration


class TestConstruction:
    def test_vertices_sorted_and_deduplicated(self):
        g = Admg(["b", "a", "b"])
        assert g.vertices == ("a", "b")

    @pytest.mark.parametrize("name", ["", "a b", "x-y", "x.y", None])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(InputError, match="vertex name"):
            Admg([name])

    def test_trailing_newline_in_name_rejected(self):
        # a name that ended in "\n" would break the format_graph/parse_graph round trip
        with pytest.raises(InputError) as err:
            Admg(["a\n", "b"], [("a\n", "b")])
        assert str(err.value) == (
            "invalid vertex name 'a\\n': expected a non-empty string of "
            "letters, digits and underscores"
        )

    def test_self_loops_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            Admg(["x"], directed=[("x", "x")])
        with pytest.raises(InputError, match="self-loop"):
            Admg(["x"], bidirected=[("x", "x")])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InputError, match="duplicate directed"):
            Admg(["x", "y"], directed=[("x", "y"), ("x", "y")])
        with pytest.raises(InputError, match="duplicate bi-directed"):
            Admg(["x", "y"], bidirected=[("x", "y"), ("y", "x")])

    @pytest.mark.parametrize(
        "kind, edges, shown",
        [
            ("bidirected", [("a",)], "bi-directed edge ('a',)"),
            ("bidirected", [("a", "b", "c")], "bi-directed edge ('a', 'b', 'c')"),
            ("directed", [("a", "b", "c")], "directed edge ('a', 'b', 'c')"),
            ("directed", [()], "directed edge ()"),
            # a string is not read as a sequence of one-character names
            ("directed", ["ab"], "directed edge 'ab'"),
            ("bidirected", ["bc"], "bi-directed edge 'bc'"),
        ],
    )
    def test_edges_that_are_not_pairs_rejected(self, kind, edges, shown):
        with pytest.raises(InputError) as info:
            Admg(["a", "b", "c"], **{kind: edges})
        assert str(info.value) == f"{shown} is not a pair of vertex names"

    @pytest.mark.parametrize("edge", [{"cd", "ab"}, frozenset(("cd", "ab"))])
    def test_directed_edge_given_as_a_set_rejected(self, edge):
        # which end a set yields first, and so the tail, rests on the hash seed
        with pytest.raises(InputError) as info:
            Admg(["ab", "cd"], directed=[edge])
        assert str(info.value) == "directed edge {'ab', 'cd'} is a set: give a (tail, head) pair"

    def test_bidirected_edges_given_as_sets_accepted(self):
        g = Admg(["ab", "cd", "e"], bidirected=[{"cd", "ab"}, frozenset(("e", "ab"))])
        assert Admg(g.vertices, bidirected=g.bidirected_edges) == g
        assert g.spouses(["ab"]) == frozenset({"cd", "e"})

    def test_undeclared_endpoints_rejected(self):
        with pytest.raises(InputError, match="undeclared"):
            Admg(["x"], directed=[("x", "y")])

    def test_directed_cycles_rejected(self):
        with pytest.raises(InputError, match="cycle"):
            Admg(["x", "y", "z"], directed=[("x", "y"), ("y", "z"), ("z", "x")])
        with pytest.raises(InputError, match="cycle"):
            Admg(["x", "y"], directed=[("x", "y"), ("y", "x")])

    def test_directed_cycle_error_text(self):
        # the message lists the vertices on a cycle, in name order, and not
        # the ones only downstream of it
        with pytest.raises(InputError) as info:
            Admg(
                ["a", "w", "x", "y", "z"],
                directed=[("a", "x"), ("x", "y"), ("y", "z"), ("z", "x"), ("z", "w")],
            )
        assert str(info.value) == "directed part has a cycle through {x,y,z}"
        with pytest.raises(InputError) as info:
            Admg(
                ["a", "b", "c", "d"],
                directed=[("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")],
            )
        assert str(info.value) == "directed part has a cycle through {b,c}"
        with pytest.raises(InputError) as info:
            Admg(["x", "y"], directed=[("x", "y"), ("y", "x")])
        assert str(info.value) == "directed part has a cycle through {x,y}"

    def test_directed_cycle_error_names_exactly_the_cycle_vertices(self):
        # a vertex is on a directed cycle iff it reaches itself by one or more edges
        rng = np.random.default_rng(12)
        names = [f"v{i}" for i in range(7)]
        raised = 0
        for _ in range(200):
            edges = [(u, w) for u, w in itertools.permutations(names, 2) if rng.random() < 0.15]
            on_cycle = []
            for v in names:
                seen, todo = set(), [w for u, w in edges if u == v]
                while todo:
                    u = todo.pop()
                    if u not in seen:
                        seen.add(u)
                        todo.extend(w for t, w in edges if t == u)
                if v in seen:
                    on_cycle.append(v)
            if not on_cycle:
                Admg(names, directed=edges)
                continue
            raised += 1
            with pytest.raises(InputError) as info:
                Admg(names, directed=edges)
            assert str(info.value) == f"directed part has a cycle through {{{','.join(on_cycle)}}}"
        assert raised >= 50

    def test_parallel_directed_and_bidirected_allowed(self):
        g = Admg(["x", "y"], directed=[("x", "y")], bidirected=[("x", "y")])
        assert g.parents(["y"]) == {"x"}
        assert g.spouses(["y"]) == {"x"}

    def test_equality_and_hash(self):
        g1 = Admg(["x", "y"], [("x", "y")])
        g2 = Admg(["y", "x"], [("x", "y")])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Admg(["x", "y"], bidirected=[("x", "y")])


class TestRelations:
    def test_parents(self, figure1, figure2):
        assert figure2.parents(["a"]) == {"d"}
        assert figure2.parents([]) == frozenset()
        assert figure1.parents(["c"]) == {"a"}

    def test_spouses(self, figure1, figure2):
        assert figure2.spouses(["a"]) == {"b", "c"}
        assert figure1.spouses(["c"]) == {"d"}
        assert Admg(["x"]).spouses(["x"]) == frozenset()

    def test_ancestors(self, figure2, figure3):
        assert figure2.ancestors(["a", "c"]) == {"a", "c", "d", "e"}
        assert figure3.ancestors(["d", "c"]) == {"h", "f", "i", "g", "b", "e", "d", "c"}

    def test_descendants_reflexive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_admg(rng, int(rng.integers(2, 7)))
            for x in g.vertices:
                assert x in g.descendants([x])
                assert x in g.ancestors([x])

    def test_unknown_vertex_errors(self, figure2):
        with pytest.raises(InputError, match="unknown vertex"):
            figure2.parents(["zz"])
        with pytest.raises(InputError, match="bare string"):
            figure2.parents("ab")

    def test_district(self, figure1):
        assert figure1.district("a") == {"a", "b"}
        assert figure1.district("d") == {"c", "d"}
        assert Admg(["x", "y"], [("x", "y")]).district("x") == {"x"}

    def test_c_components(self, figure1, figure3):
        assert [sorted(c) for c in figure1.c_components()] == [["a", "b"], ["c", "d"]]
        assert [sorted(c) for c in Admg(["x", "y"]).c_components()] == [["x"], ["y"]]
        assert [sorted(c) for c in figure3.c_components()] == [
            ["a", "b", "c"],
            ["d", "e"],
            ["f"],
            ["g"],
            ["h"],
            ["i"],
        ]

    def test_induced_subgraph(self, figure2):
        sub = figure2.induced_subgraph({"a", "c", "d", "e"})
        assert sub.district("a") == {"a", "c"}
        assert figure2.induced_subgraph(figure2.vertices) == figure2
        empty = figure2.induced_subgraph([])
        assert empty.vertices == ()

    def test_ancestral_sets_are_their_own_closure(self, figure2):
        assert figure2.ancestors({"a", "c", "d", "e"}) == {"a", "c", "d", "e"}
        assert figure2.ancestors({"a"}) != {"a"}
        assert figure2.ancestors([]) == frozenset()

    def test_ancestral_closure_idempotent_extensive(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(2, 8)))
            k = int(rng.integers(0, len(g.vertices) + 1))
            s = frozenset(rng.choice(g.vertices, size=k, replace=False))
            closed = g.ancestors(s)
            assert s <= closed
            assert g.ancestors(closed) == closed
            assert g.parents(closed) <= closed

    def test_monotone_in_argument(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(2, 8)))
            vs = list(g.vertices)
            s2 = frozenset(rng.choice(vs, size=int(rng.integers(1, len(vs) + 1)), replace=False))
            s1 = frozenset(v for v in s2 if rng.random() < 0.5)
            for op in (g.parents, g.spouses, g.ancestors, g.descendants):
                assert op(s1) <= op(s2)

    def test_districts_partition(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(2, 8)))
            comps = g.c_components()
            assert sorted(v for c in comps for v in c) == list(g.vertices)
            for c1, c2 in itertools.combinations(comps, 2):
                assert not c1 & c2
            for x in g.vertices:
                assert x in g.district(x)
                # direct BFS over the bi-directed adjacency
                seen, stack = {x}, [x]
                while stack:
                    v = stack.pop()
                    for w in g.spouses([v]):
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert g.district(x) == seen


class TestMixedDirectedPaths:
    def test_figure3_examples(self, figure3):
        assert figure3.has_mixed_directed_path("b", "c")
        assert not figure3.has_mixed_directed_path("a", "b")
        assert not figure3.has_mixed_directed_path("b", "a")

    def test_isolated_vertices(self):
        g = Admg(["x", "y"])
        assert not g.has_mixed_directed_path("x", "y")

    def test_same_endpoint_rejected(self, figure2):
        with pytest.raises(InputError):
            figure2.has_mixed_directed_path("a", "a")

    def test_agrees_with_path_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            g = random_admg(rng, int(rng.integers(2, 8)))
            for alpha, beta in itertools.permutations(g.vertices, 2):
                assert g.has_mixed_directed_path(alpha, beta) == (
                    mixed_directed_path_by_enumeration(g, alpha, beta)
                ), (repr(g), alpha, beta)

    def test_cycle_examples(self, figure1, figure2, figure3):
        assert figure1.has_mixed_directed_cycle()
        assert not figure2.has_mixed_directed_cycle()
        assert figure3.has_mixed_directed_cycle()

    def test_no_cycle_without_bidirected_edges(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            assert not random_dag(rng, int(rng.integers(2, 8))).has_mixed_directed_cycle()


class TestOrderings:
    def test_topological_ordering_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(2, 8)))
            validate_ordering(g, g.topological_ordering())

    def test_topological_ordering_is_least_ready_first(self):
        # simulate's draws follow this order, so its tie-break is pinned
        rng = np.random.default_rng(19)
        graphs = [random_admg(rng, int(rng.integers(1, 11))) for _ in range(300)]
        graphs += [random_sparse_admg(rng, 60) for _ in range(20)]
        for g in graphs:
            assert g.topological_ordering() == least_ready_first_order(g), repr(g)

    def test_validate_ordering_rejects_non_permutations(self, figure2):
        with pytest.raises(InputError, match="permutation"):
            validate_ordering(figure2, ["a", "b"])

    def test_validate_ordering_rejects_inconsistency(self, figure2):
        with pytest.raises(InputError, match="not consistent"):
            validate_ordering(figure2, ["a", "b", "c", "d", "e"])  # a precedes its parent d
