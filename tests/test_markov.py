import numpy as np
import pytest

import expected
from admgci import (
    Admg,
    CapacityError,
    InputError,
    CiStatement,
    StatementUniverse,
    WITH_COMPOSITION,
    build_collapsed_ordering,
    closure,
    implies_each,
    m_separated,
    maximal_ancestral_sets,
    ordered_local_entries,
    ordered_local_markov,
    reduced_basis,
    reduced_local_markov,
    validate_ordering,
)
from admgci import markov
from admgci.markov import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    _blanket,
    _district_in,
    _prunable,
    _reduced_form_flags,
    _reduced_statement,
)
from conftest import (
    random_admg,
    random_bidirected_graph,
    random_block_admg,
    random_cycle_free_admg,
    random_dag,
)
from oracles import (
    all_subsets,
    blanket_by_definition,
    maximal_ancestral_sets_by_scan,
    reduced_form_by_definition,
    redundant_by_definition,
)


def _random_consistent_order(rng: np.random.Generator, g: Admg) -> list[str]:
    """A uniformly drawn ready vertex at every step: a random consistent ordering."""
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(g.vertices):
        ready = [v for v in g.vertices if v not in placed and g.parents([v]) <= placed]
        v = ready[int(rng.integers(len(ready)))]
        order.append(v)
        placed.add(v)
    return order


def blanket(g: Admg, x: str, a) -> frozenset[str]:
    """x's Markov blanket in the ancestral set ``a``, as the basis reads it."""
    return _blanket(g, x, _district_in(g, x, frozenset(a)))


def prunable(g: Admg, x: str, order, a) -> bool:
    """The basis's pruning rule for the ancestral set ``a`` of ``x``."""
    a, pre = frozenset(a), frozenset(order[: list(order).index(x) + 1])
    d = _district_in(g, x, a)
    return _prunable(g, _district_in(g, x, pre), a, d, _blanket(g, x, d))


def reduced_form(g: Admg, x: str, order) -> bool:
    """The basis's one-pass reduced-form test over ``order``, read at ``x``."""
    order = tuple(order)
    return list(_reduced_form_flags(g, order))[order.index(x)]


class TestMarkovBlanket:
    def test_figure2(self, figure2):
        a = figure2.ancestors(["a", "c"])
        assert blanket(figure2, "a", a) == {"d", "c"}

    def test_figure3(self, figure3):
        a = figure3.ancestors(["a", "c"])
        assert blanket(figure3, "c", a) == {"g", "e"}

    def test_isolated_vertex(self):
        g = Admg(["x"])
        assert blanket(g, "x", ["x"]) == frozenset()

    def test_matches_the_definition_on_random_graphs(self):
        # every ancestral set and every member without children in it
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(300):
            g = random_admg(rng, int(rng.integers(2, 9)))
            for subset in all_subsets(g.vertices):
                a = frozenset(subset)
                if g.ancestors(a) != a:
                    continue
                for x in sorted(a):
                    if a.isdisjoint(g.children([x])):
                        assert blanket(g, x, a) == blanket_by_definition(g, x, a), (
                            repr(g), x, sorted(a)
                        )
                        checked += 1
        assert checked > 5000, checked


class TestMaximalAncestralSets:
    def test_figure2_vertex_c(self, figure2):
        sets = maximal_ancestral_sets(figure2, "c", expected.FIGURE2_ORDERING)
        blankets = [blanket(figure2, "c", s) for s in sets]
        assert blankets == [
            {"a", "b", "d"},
            {"a", "d"},
            {"b", "d"},
            {"d"},
        ]

    def test_figure3_vertex_c(self, figure3):
        sets = maximal_ancestral_sets(figure3, "c", expected.FIGURE3_ORDERING)
        assert sets == [
            figure3.ancestors(["a", "d", "c"]),
            figure3.ancestors(["d", "c"]),
            figure3.ancestors(["c", "a"]),
        ]

    def test_first_vertex_single_set(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            g = random_admg(rng, int(rng.integers(2, 7)))
            order = build_collapsed_ordering(g)
            assert maximal_ancestral_sets(g, order[0], order) == [frozenset({order[0]})]

    def test_capacity(self, monkeypatch):
        # the budget counts the connected sub-districts that hold the vertex,
        # not its prefix or district: 18 isolated vertices have one, and the
        # 17 members of a chain before v17 give only 18
        names = [f"v{i:02d}" for i in range(18)]
        assert maximal_ancestral_sets(Admg(names), "v17", names) == [frozenset(names)]
        chain = Admg(names, bidirected=list(zip(names, names[1:])))
        sets = maximal_ancestral_sets(chain, "v17", names)
        full = frozenset(names)
        assert len(sets) == 18 and set(sets) == {full, *(full - {v} for v in names[:-1])}
        # v03 has 4 sub-districts in the chain; the budget is read per call
        monkeypatch.setattr(markov, "ANCESTRAL_SET_BUDGET", 3)
        refused = "enumeration of v03 counted 4 connected sub-districts, over its budget of 3"
        with pytest.raises(CapacityError, match=refused):
            maximal_ancestral_sets(chain, "v03", names)
        monkeypatch.setattr(markov, "ANCESTRAL_SET_BUDGET", 4)
        assert maximal_ancestral_sets(chain, "v03", names) == [
            {"v00", "v01", "v02", "v03"},
            {"v00", "v01", "v03"},
            {"v00", "v02", "v03"},
            {"v01", "v02", "v03"},
        ]
        # a bi-directed clique of k members before x has 2^k sub-districts,
        # so a budget of 2^k refuses it exactly at k + 1 members
        clique = Admg(names[:6], bidirected=[(a, b) for a in names[:6] for b in names[:6] if a < b])
        monkeypatch.setattr(markov, "ANCESTRAL_SET_BUDGET", 2**4)
        assert len(maximal_ancestral_sets(clique, "v04", names[:6])) == 2**4
        with pytest.raises(CapacityError, match="v05 counted 17 connected sub-districts"):
            maximal_ancestral_sets(clique, "v05", names[:6])

    def test_matches_subset_scan(self):
        rng = np.random.default_rng(35)
        counts = {"one": 0, "several": 0}
        for _ in range(1000):
            g = random_admg(rng, int(rng.integers(2, 11)))
            for order in (build_collapsed_ordering(g), _random_consistent_order(rng, g)):
                for x in order:
                    got = maximal_ancestral_sets(g, x, order)
                    assert got == maximal_ancestral_sets_by_scan(g, x, order), (repr(g), order, x)
                    counts["one" if len(got) == 1 else "several"] += 1
        assert counts["one"] > 100 and counts["several"] > 100, counts

    def test_genuinely_maximal_with_distinct_blankets(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(2, 8)))
            order = build_collapsed_ordering(g)
            for x in order:
                pre = frozenset(order[: order.index(x) + 1])
                sets = maximal_ancestral_sets(g, x, order)
                blankets = [blanket(g, x, s) for s in sets]
                assert len(set(blankets)) == len(blankets)
                for s, mb in zip(sets, blankets):
                    for v in sorted(pre - s):
                        grown = g.ancestors(s | {v})
                        if grown <= pre:
                            assert blanket(g, x, grown) != mb, (repr(g), x, v)


class TestFigure3Reconstruction:
    """Validates every structural fact the reconstructed figure3 fixture must
    reproduce before its goldens are trusted."""

    def test_ancestor_sets(self, figure3):
        assert figure3.ancestors(["a", "c"]) == {"a", "f", "h", "c", "g", "i", "e"}
        assert figure3.ancestors(["c"]) == {"i", "g", "e", "c"}
        assert figure3.ancestors(["d", "c"]) == {"h", "f", "i", "g", "b", "e", "d", "c"}
        assert figure3.ancestors(["a", "d", "c"]) == frozenset(figure3.vertices)

    def test_blankets(self, figure3):
        assert blanket(figure3, "c", figure3.ancestors(["a", "c"])) == {"g", "e"}
        assert blanket(figure3, "c", figure3.ancestors(["d", "c"])) == {"b", "g", "e", "f"}
        assert blanket(figure3, "c", frozenset(figure3.vertices)) == {
            "a", "b", "g", "e", "f",
        }

    def test_districts(self, figure3):
        assert figure3.district("b") == {"a", "b", "c"}
        assert figure3.district("d") == {"d", "e"}

    def test_removed_bidirected_edge_has_mixed_path(self, figure3):
        assert figure3.has_mixed_directed_path("b", "c")  # via b -> d <-> e -> c

    def test_merged_pair_a_b_has_no_mixed_path(self, figure3):
        assert not figure3.has_mixed_directed_path("a", "b")
        assert not figure3.has_mixed_directed_path("b", "a")

    def test_d_e_merge_relies_on_prior_removal(self, figure3):
        # in the original graph e -> c <-> b -> d is a mixed directed path, so
        # the d,e merge is only legal because b <-> c is cut first: the
        # collapse checks run against the evolving graph
        assert figure3.has_mixed_directed_path("e", "d")
        assert not figure3.has_mixed_directed_path("d", "e")

    def test_paper_style_ordering_is_consistent(self, figure3):
        validate_ordering(figure3, expected.FIGURE3_ORDERING)

    def test_vertex_b_consecutive_prefix_district(self, figure3):
        order = expected.FIGURE3_ORDERING
        pre_b = frozenset(order[: order.index("b") + 1])
        assert figure3.district("b") & pre_b == {"a", "b"}
        assert reduced_form(figure3, "b", order)

    def test_vertex_c_fails_the_consecutive_condition(self, figure3):
        assert not reduced_form(figure3, "c", expected.FIGURE3_ORDERING)

    def test_pruning_decisions_for_c(self, figure3):
        order = expected.FIGURE3_ORDERING
        full = frozenset(figure3.vertices)
        a_dc = figure3.ancestors(["d", "c"])
        a_ca = figure3.ancestors(["c", "a"])
        # dropped district parts and their parents, step by step
        assert _district_in(figure3, "c", full) == {"a", "b", "c"}
        assert _district_in(figure3, "c", a_dc) == {"b", "c"}
        assert _district_in(figure3, "c", a_ca) == {"c"}
        assert figure3.parents({"a"}) == {"f"}
        assert figure3.parents({"a"}) <= blanket(figure3, "c", a_dc)
        assert prunable(figure3, "c", order, a_dc)
        assert not prunable(figure3, "c", order, a_ca)


class TestOrderedLocal:
    def test_figure2_matches_seven_statement_list(self, figure2):
        got = ordered_local_markov(figure2, expected.FIGURE2_ORDERING)
        assert set(got) == set(expected.FIGURE2_ORDERED)
        assert len(got) == 7

    def test_figure2_invocations(self, figure2):
        entries = ordered_local_entries(figure2, expected.FIGURE2_ORDERING)
        assert len(entries) == 9  # two vacuous: the first two vertices
        assert sum(st is None for _, _, st in entries) == 2

    def test_figure3_eleven_statements_thirteen_invocations(self, figure3):
        got = ordered_local_markov(figure3, expected.FIGURE3_ORDERING)
        assert set(got) == set(expected.FIGURE3_ORDERED)
        entries = ordered_local_entries(figure3, expected.FIGURE3_ORDERING)
        assert len(entries) == expected.FIGURE3_INVOKED
        vacuous = [(x, a) for x, a, st in entries if st is None]
        assert [x for x, _ in vacuous] == ["h", "f"]

    def test_single_vertex_graph(self):
        g = Admg(["x"])
        assert ordered_local_markov(g, ["x"]) == []

    def test_inconsistent_ordering_rejected(self, figure2):
        with pytest.raises(InputError):
            ordered_local_markov(figure2, ["a", "b", "c", "d", "e"])


class TestReducedLocal:
    # the reduced scope pa(x) | de(x) | de(sp(x)) is what a reduced-form
    # statement leaves out of its independence side

    def test_reduced_scope_figure2(self, figure2):
        # the scope of a is {a, b, c, d}
        assert _reduced_statement(figure2, "a") == CiStatement(["a"], ["d"], ["e"])

    def test_reduced_scope_dag_vertex(self):
        g = Admg(["w", "x", "y", "z"], [("x", "y"), ("y", "z")])
        vs = frozenset(g.vertices)
        rest = vs - g.parents(["y"]) - g.descendants(["y"])
        assert _reduced_statement(g, "y") == CiStatement(["y"], ["x"], rest)
        assert rest == {"w"}

    def test_reduced_scope_pure_bidirected(self):
        g = Admg(["x", "y", "z"], bidirected=[("x", "y"), ("y", "z")])
        assert _reduced_statement(g, "y") is None  # the scope is {x, y, z}
        assert _reduced_statement(g, "x") == CiStatement(["x"], [], ["z"])

    def test_figure2_matches_three_statement_list(self, figure2):
        assert reduced_local_markov(figure2) == expected.FIGURE2_REDUCED

    def test_bidirected_chain_collapses_to_one_statement(self):
        g = Admg(["x", "y", "z"], bidirected=[("x", "y"), ("y", "z")])
        assert reduced_local_markov(g) == [CiStatement(["x"], [], ["z"])]

    def test_dag_gives_classic_local_property(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 8)))
            got = set(reduced_local_markov(g))
            want = set()
            vs = frozenset(g.vertices)
            for x in g.vertices:
                rest = vs - g.parents([x]) - g.descendants([x])
                if rest:
                    want.add(CiStatement([x], g.parents([x]), rest))
            assert got == want

    def test_mixed_cycle_rejected(self, figure1):
        with pytest.raises(InputError, match="mixed directed cycle"):
            reduced_local_markov(figure1)

    def test_size_at_most_vertex_count(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = random_cycle_free_admg(rng, int(rng.integers(2, 9)))
            assert len(reduced_local_markov(g)) <= len(g.vertices)


class TestCollapsedOrdering:
    def test_figure2_exact(self, figure2):
        assert build_collapsed_ordering(figure2) == ("e", "d", "a", "b", "c")

    def test_figure3_merges(self, figure3):
        order = build_collapsed_ordering(figure3)
        validate_ordering(figure3, order)
        # merged confounded pairs stay consecutive even though b <-> c is cut
        for pair in ({"a", "b"}, {"d", "e"}):
            positions = sorted(order.index(v) for v in pair)
            assert positions[1] - positions[0] == 1

    def test_dag_topological_lexicographic(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 8)))
            assert build_collapsed_ordering(g) == g.topological_ordering()

    def test_cycle_free_components_consecutive(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            g = random_cycle_free_admg(rng, int(rng.integers(2, 8)))
            order = build_collapsed_ordering(g)
            validate_ordering(g, order)
            for comp in g.c_components():
                positions = sorted(order.index(v) for v in comp)
                assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_prefix_avoids_later_district_descendants(self):
        # the collapse construction's defining property for cycle-free graphs
        rng = np.random.default_rng(26)
        for _ in range(40):
            g = random_cycle_free_admg(rng, int(rng.integers(2, 8)))
            order = build_collapsed_ordering(g)
            for x in order:
                pre = frozenset(order[: order.index(x) + 1])
                dis = g.district(x)
                assert not pre & (g.descendants(dis) - dis)


class TestPruningConditions:
    def test_first_vertex_always_reducible(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            g = random_admg(rng, int(rng.integers(2, 7)))
            order = build_collapsed_ordering(g)
            assert reduced_form(g, order[0], order)

    def test_reducible_vertex_statement_is_m_separation(self):
        rng = np.random.default_rng(28)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(2, 9)))
            order = build_collapsed_ordering(g)
            for x in order:
                if reduced_form(g, x, order):
                    stmt = _reduced_statement(g, x)
                    if stmt is not None:
                        assert m_separated(g, [x], stmt.y, stmt.z), (repr(g), x)

    def test_reduced_form_matches_the_definition_on_random_graphs(self):
        # the collapsed ordering and a random consistent one of each graph
        rng = np.random.default_rng(46)
        answers, scattered = {True: 0, False: 0}, 0
        for _ in range(1000):
            g = random_admg(rng, int(rng.integers(2, 11)))
            for order in (build_collapsed_ordering(g), tuple(_random_consistent_order(rng, g))):
                for i, x in enumerate(order):
                    got = reduced_form(g, x, order)
                    assert got == reduced_form_by_definition(g, x, order), (repr(g), order, x)
                    answers[got] += 1
                    spots = [j for j, v in enumerate(order[: i + 1]) if v in g.district(x)]
                    scattered += spots[-1] - spots[0] != len(spots) - 1
        assert min(answers.values()) > 200, answers
        assert scattered > 100, scattered

    def test_full_prefix_is_trivially_redundant_free(self, figure3):
        order = expected.FIGURE3_ORDERING
        pre = frozenset(order)
        assert prunable(figure3, "c", order, pre)

    def test_matches_the_definition_on_random_graphs(self):
        # every ancestral set inside each vertex's prefix that holds the vertex
        rng = np.random.default_rng(45)
        answers = {True: 0, False: 0}
        for _ in range(150):
            g = random_admg(rng, int(rng.integers(2, 8)))
            order = _random_consistent_order(rng, g)
            for i, x in enumerate(order):
                for subset in all_subsets(order[:i]):
                    a = frozenset(subset) | {x}
                    if g.ancestors(a) == a:
                        got = prunable(g, x, order, a)
                        assert got == redundant_by_definition(g, x, order, a), (
                            repr(g), order, x, sorted(a)
                        )
                        answers[got] += 1
        assert min(answers.values()) > 200, answers



class TestReducedBasis:
    def test_figure3_ten_statements(self, figure3):
        basis = reduced_basis(figure3)
        assert set(basis.statements) == set(expected.FIGURE3_BASIS)
        assert len(basis.statements) == 10
        c_statements = [st for st in basis.statements if st.x == {"c"}]
        assert c_statements == expected.FIGURE3_C_STATEMENTS
        assert basis.provenance.count(REDUCED_FORM) == 8
        assert basis.provenance.count(ORDERED_LOCAL) == 2

    def test_figure3_pruned_bookkeeping(self, figure3):
        basis = reduced_basis(figure3)
        assert len(basis.pruned) == 1
        assert basis.pruned[0].statement == expected.FIGURE3_PRUNED
        implying = basis.statements[basis.pruned[0].implied_by]
        assert implying == expected.FIGURE3_C_STATEMENTS[0]

    def test_figure3_under_paper_style_ordering(self, figure3):
        basis = reduced_basis(figure3, expected.FIGURE3_ORDERING)
        assert set(basis.statements) == set(expected.FIGURE3_BASIS)

    def test_figure2_equals_reduced_local(self, figure2):
        basis = reduced_basis(figure2)
        assert list(basis.statements) == reduced_local_markov(figure2)
        assert set(basis.provenance) == {REDUCED_FORM}
        assert not basis.pruned

    def test_cycle_free_matches_reduced_local(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = random_cycle_free_admg(rng, int(rng.integers(2, 8)))
            basis = reduced_basis(g)
            assert set(basis.statements) == set(reduced_local_markov(g))

    def test_dag_gives_classic_local_property(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 8)))
            assert set(reduced_basis(g).statements) == set(reduced_local_markov(g))

    def test_every_statement_is_an_m_separation(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(2, 9)))
            basis = reduced_basis(g)
            for st in basis.statements:
                assert m_separated(g, st.x, st.y, st.z), (repr(g), st.render())

    def test_size_bounded_by_ordered_invocations(self):
        # the bound holds against the invocation count; the emitted ordered
        # list can be smaller because a reduced-form statement ranges over all
        # vertices and stays non-vacuous where the prefix-bound ordered
        # statement of the same vertex is vacuous (e.g. x -> y plus isolated z)
        rng = np.random.default_rng(32)
        for _ in range(40):
            g = random_admg(rng, int(rng.integers(2, 8)))
            order = build_collapsed_ordering(g)
            basis = reduced_basis(g, order)
            assert len(basis.statements) <= len(ordered_local_entries(g, order))

    def test_closure_recovers_ordered_statements(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(2, 7)))
            order = build_collapsed_ordering(g)
            basis = reduced_basis(g, order)
            ordered = ordered_local_markov(g, order)
            uni = StatementUniverse(g.vertices)
            assert set(ordered) <= closure(uni, basis.statements, WITH_COMPOSITION)

    def test_closure_recovers_ordered_statements_at_9_and_10_vertices(self):
        # the paper's claim on graphs past the suite's usual size; at this
        # density nearly every graph has a mixed directed cycle, and the
        # claim says something only where the basis pruned a statement
        rng = np.random.default_rng(35)
        cyclic = pruning = 0
        for _ in range(200):
            g = random_admg(rng, int(rng.integers(9, 11)))
            cyclic += g.has_mixed_directed_cycle()
            basis = reduced_basis(g)
            pruning += bool(basis.pruned)
            ordered = ordered_local_markov(g, basis.ordering)
            uni = StatementUniverse(g.vertices)
            assert set(ordered) <= closure(uni, basis.statements, WITH_COMPOSITION), repr(g)
        assert cyclic >= 100 and pruning >= 50, (cyclic, pruning)

    def test_basis_implies_ordered_statements_at_10_to_12_vertices(self):
        # the claim on cycle-free graphs of 10-12 vertices, target by target:
        # their closures are often too large to list
        rng = np.random.default_rng(36)
        for _ in range(200):
            g = random_block_admg(rng, int(rng.integers(10, 13)))
            basis = reduced_basis(g)
            in_basis = set(basis.statements)
            targets = [st for st in ordered_local_markov(g, basis.ordering) if st not in in_basis]
            uni = StatementUniverse(g.vertices)
            assert all(implies_each(uni, basis.statements, targets, WITH_COMPOSITION)), repr(g)

    def test_pure_bidirected_matches_pairwise_family(self):
        # one statement per vertex: independent of all non-spouses, given nothing
        rng = np.random.default_rng(34)
        for _ in range(40):
            g = random_bidirected_graph(rng, int(rng.integers(2, 8)))
            vs = frozenset(g.vertices)
            want = set()
            for x in g.vertices:
                rest = vs - {x} - g.spouses([x])
                if rest:
                    want.add(CiStatement([x], [], rest))
            assert set(reduced_local_markov(g)) == want
            assert set(reduced_basis(g).statements) == want


def oriented(statements) -> list[tuple]:
    """Statements as plain tuples, so that a comparison sees the orientation."""
    return [tuple(st) for st in statements]


def copy_of(g: Admg) -> Admg:
    """An equal graph with empty caches."""
    return Admg(g.vertices, g.directed_edges, g.bidirected_edges)


class TestOrderedLocalMemo:
    """``reduced_basis`` leaves on the graph the ordered-local statements of
    the vertices it enumerated, for its one ordering, and
    ``ordered_local_markov`` reads them instead of enumerating again."""

    @pytest.fixture(scope="class")
    def graphs(self, figure1, figure2, figure3):
        rng = np.random.default_rng(37)
        cyclic = []
        while len(cyclic) < 150:
            g = random_admg(rng, int(rng.integers(3, 10)))
            if g.has_mixed_directed_cycle():
                cyclic.append(g)
        return [figure1, figure2, figure3, *cyclic]

    def test_lists_equal_those_of_a_fresh_graph_in_either_call_order(self, graphs):
        remembered = 0
        for g in graphs:
            order = build_collapsed_ordering(g)
            want = oriented(ordered_local_markov(copy_of(g), order))
            basis_first = copy_of(g)
            basis = reduced_basis(basis_first)
            remembered += bool(basis_first._ordered_memo[1])
            assert oriented(ordered_local_markov(basis_first, order)) == want, repr(g)
            basis_last = copy_of(g)
            assert oriented(ordered_local_markov(basis_last, order)) == want, repr(g)
            assert reduced_basis(basis_last) == basis
            assert oriented(ordered_local_markov(basis_last, order)) == want, repr(g)
        assert remembered > 140, remembered

    def test_a_second_ordering_replaces_the_memo(self, graphs):
        rng = np.random.default_rng(38)
        replaced = 0
        for g in graphs:
            g = copy_of(g)
            order = build_collapsed_ordering(g)
            other = tuple(_random_consistent_order(rng, g))
            want = [oriented(ordered_local_markov(copy_of(g), o)) for o in (order, other)]
            reduced_basis(g, order)
            reduced_basis(g, other)
            replaced += order != other
            assert g._ordered_memo[0] == other
            assert [oriented(ordered_local_markov(g, o)) for o in (order, other)] == want
            reduced_basis(g, order)
            assert [oriented(ordered_local_markov(g, o)) for o in (other, order)] == want[::-1]
        assert replaced > 100, replaced

    def test_a_statement_shared_with_the_basis_is_its_object(self, graphs):
        shared = 0
        for g in graphs:
            g = copy_of(g)
            basis = reduced_basis(g)
            ids = {id(st) for st in ordered_local_markov(g, basis.ordering)}
            enumerated = [
                st for st, tag in zip(basis.statements, basis.provenance) if tag == ORDERED_LOCAL
            ]
            enumerated += [p.statement for p in basis.pruned]
            assert all(id(st) in ids for st in enumerated), repr(g)
            shared += len(enumerated)
        assert shared > 400, shared

