"""The linear-time graph core against its exhaustive oracles, and on graphs far
beyond what recursion or path enumeration can handle."""

from collections import Counter
from itertools import chain

import numpy as np
import pytest

from admgci import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    Admg,
    CapacityError,
    InputError,
    build_collapsed_ordering,
    fixture_graph,
    format_graph,
    reduced_basis,
    reduced_local_markov,
    validate_ordering,
)
from admgci.admg import MIXED_PATH_BUDGET, _strong_components
from admgci.cli import main
from conftest import district_chain_admg, random_admg, random_block_admg, random_sparse_admg
from oracles import (
    collapsed_ordering_reference,
    m_separated_latent_moral,
    mixed_directed_cycle_by_enumeration,
    reduced_basis_reference,
    reduced_statements_by_bfs,
)


def oracle_graphs(seed: int, count: int, max_vertices: int):
    """Seeded random ADMGs of 2..max_vertices vertices, with edge densities
    drawn per graph so sparse, dense, bow-laden and cycle-free graphs mix."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_vertices + 1))
        yield random_admg(rng, n, float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.1, 0.5)))


def has_bow(g: Admg) -> bool:
    return any(frozenset(e) in g.bidirected_edges for e in g.directed_edges)


def districts_consecutive(g: Admg, order) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    return all(
        max(pos[v] for v in d) - min(pos[v] for v in d) == len(d) - 1 for d in g.c_components()
    )


def bidirected_chain(n: int) -> Admg:
    """c0 <-> c1 <-> ... <-> c{n-1} plus the one directed edge c0 -> c5."""
    names = [f"c{i}" for i in range(n)]
    return Admg(names, [("c0", "c5")], zip(names, names[1:]))


def chain_ordering(n: int) -> tuple[str, ...]:
    # c0 <-> c1 comes first in name order and c1 <-> ... <-> c5 <- c0 closes a
    # mixed directed cycle through it, so it is dropped; every later pair merges
    return ("c0", *sorted(f"c{i}" for i in range(1, n)))


def bidirected_ladder(rungs: int, directed=()) -> Admg:
    """Rails a0 <-> a1 <-> ... and b0 <-> b1 <-> ..., joined by rungs ai <-> bi."""
    a = [f"a{i}" for i in range(rungs)]
    b = [f"b{i}" for i in range(rungs)]
    rails = [*zip(a, a[1:]), *zip(b, b[1:])]
    return Admg(a + b, directed, [*zip(a, b), *rails])


def closed_ladder(rungs: int) -> Admg:
    """The bi-directed ladder with the one directed edge b{r-1} -> a0."""
    return bidirected_ladder(rungs, [(f"b{rungs - 1}", "a0")])


def partition(root: dict, cyclic) -> set:
    """The blocks of a vertex -> component-name map, each with whether its
    name is among ``cyclic``."""
    blocks: dict = {}
    for v, r in root.items():
        blocks.setdefault(r, set()).add(v)
    return {(frozenset(b), r in cyclic) for r, b in blocks.items()}


def assert_quotient_components(g: Admg) -> None:
    """The components the graph found over its district quotient are those of
    a vertex-level pass over the mixed graph, cyclic ones included."""
    root = _strong_components(g.vertices, lambda v: chain(g._children[v], g._spouses[v]))
    cyclic = {root[t] for t, h in g.directed_edges if root[t] == root[h]}
    assert partition(g._scc, g._cyclic) == partition(root, cyclic), repr(g)


def meets_the_search(g: Admg) -> bool:
    """A cyclic component, where the collapse searches, beside a bi-directed
    edge in a component that is not, merged from the start."""
    return bool(g._cyclic) and any(g._scc[min(e)] not in g._cyclic for e in g.bidirected_edges)


class TestAgainstOracles:
    def test_mixed_cycle_and_collapse_match_enumeration(self):
        cycles, consecutive, bows = Counter(), Counter(), 0
        met = 0  # graphs where the district-first start meets the search
        for g in oracle_graphs(seed=50, count=2400, max_vertices=10):
            cyclic = g.has_mixed_directed_cycle()
            assert cyclic == mixed_directed_cycle_by_enumeration(g), repr(g)
            assert_quotient_components(g)
            order = build_collapsed_ordering(g)
            assert order == collapsed_ordering_reference(g), repr(g)
            cycles[cyclic] += 1
            consecutive[districts_consecutive(g, order)] += 1
            bows += has_bow(g)
            met += meets_the_search(g)
        # these hold about 100 such graphs; sparse ones hold more
        rng = np.random.default_rng(50)
        for _ in range(600):
            g = random_sparse_admg(rng, int(rng.integers(6, 15)))
            assert_quotient_components(g)
            if meets_the_search(g):
                assert build_collapsed_ordering(g) == collapsed_ordering_reference(g), repr(g)
                met += 1
        assert min(cycles[True], cycles[False]) > 100, cycles
        assert min(consecutive[True], consecutive[False]) > 100, consecutive
        assert bows > 100
        assert met > 200, met

    def test_cycle_free_iff_no_district_holds_a_directed_edge_and_districts_form_a_dag(self):
        # the characterization that random_block_admg draws from
        cycles = Counter()
        for g in oracle_graphs(seed=54, count=1500, max_vertices=9):
            root = {v: min(d) for d in g.c_components() for v in d}
            inside = any(root[t] == root[h] for t, h in g.directed_edges)
            across = {(root[t], root[h]) for t, h in g.directed_edges if root[t] != root[h]}
            try:
                Admg(set(root.values()), across)
                districts_acyclic = True
            except InputError:
                districts_acyclic = False
            cyclic = g.has_mixed_directed_cycle()
            assert cyclic == (inside or not districts_acyclic), repr(g)
            cycles[inside, districts_acyclic] += 1
        assert min(cycles.values()) > 20 and len(cycles) == 4, cycles

    def test_block_generator_draws_only_cycle_free_graphs(self):
        rng = np.random.default_rng(53)
        mixed = 0
        for k in range(600):
            g = random_block_admg(rng, int(rng.integers(2, 11 if k % 2 else 17)))
            assert not g.has_mixed_directed_cycle(), repr(g)
            if len(g.vertices) <= 10:
                assert not mixed_directed_cycle_by_enumeration(g), repr(g)
            mixed += bool(g.directed_edges) and any(len(d) > 1 for d in g.c_components())
        assert mixed > 300, mixed

    def test_basis_matches_the_public_entry_points(self):
        cycles = Counter()
        for g in oracle_graphs(seed=51, count=1000, max_vertices=9):
            basis = reduced_basis(g)
            assert basis.ordering == collapsed_ordering_reference(g), repr(g)
            statements, provenance, pruned = reduced_basis_reference(g, basis.ordering)
            assert list(basis.statements) == statements, repr(g)
            assert list(basis.provenance) == provenance, repr(g)
            assert [(p.statement, p.implied_by) for p in basis.pruned] == pruned, repr(g)
            cycles[g.has_mixed_directed_cycle()] += 1
        assert min(cycles[True], cycles[False]) > 100, cycles

    def test_small_chains_match_the_reference(self):
        for n in (6, 7, 12):
            g = bidirected_chain(n)
            assert collapsed_ordering_reference(g) == chain_ordering(n)
            assert build_collapsed_ordering(g) == chain_ordering(n)


def assert_positions_follow_the_order(g: Admg) -> None:
    order = g.topological_ordering()
    assert len(g._position) == len(order)
    for i, v in enumerate(order):
        assert g._position[v] == i
    for tail, head in g.directed_edges:
        assert g._position[tail] < g._position[head]


class TestTopologicalPositions:
    """The position map m-separation prunes by is the topological order."""

    @pytest.mark.parametrize("name", ["figure1", "figure2", "figure3"])
    def test_fixtures(self, name):
        assert_positions_follow_the_order(fixture_graph(name))

    def test_random_graphs_with_mixed_cycles(self):
        graphs = oracle_graphs(seed=51, count=300, max_vertices=10)
        cyclic = [g for g in graphs if g.has_mixed_directed_cycle()]
        rng = np.random.default_rng(52)
        cyclic += [random_sparse_admg(rng, n) for n in (50, 200, 1000)]
        assert len(cyclic) > 100 and all(g.has_mixed_directed_cycle() for g in cyclic)
        for g in cyclic:
            assert_positions_follow_the_order(g)


def sides(statements):
    """Each statement's sides as constructed, so orientation counts too."""
    return [(st.x, st.z, st.y) for st in statements]


class TestReducedStatementsAtScale:
    """The one-statement-per-vertex form on graphs of hundreds of vertices,
    against a breadth-first oracle that shares no code with the package."""

    @pytest.mark.parametrize("seed,n", [(1, 200), (2, 450), (3, 700), (4, 1000)])
    def test_basis_and_reduced_form_match_the_oracle(self, seed, n):
        g = district_chain_admg(np.random.default_rng(seed), n)
        assert not g.has_mixed_directed_cycle()
        assert max(len(d) for d in g.c_components()) == 4
        basis = reduced_basis(g)
        assert set(basis.provenance) == {REDUCED_FORM} and not basis.pruned
        assert sides(basis.statements) == sides(reduced_statements_by_bfs(g, basis.ordering))
        assert sides(reduced_local_markov(g)) == sides(reduced_statements_by_bfs(g, g.vertices))


def fresh(g: Admg) -> Admg:
    """An equal graph with empty caches."""
    return Admg(g.vertices, g.directed_edges, g.bidirected_edges)


def basis_and_local(g: Admg, local_first: bool):
    """``reduced_basis(g)`` and ``reduced_local_markov(g)`` in the given order,
    each as sides (or the error message), so orientation counts too."""

    def local():
        try:
            return sides(reduced_local_markov(g))
        except InputError as exc:
            return str(exc)

    got_local = local() if local_first else None
    basis = reduced_basis(g)
    pruned = [(sides([p.statement]), p.implied_by) for p in basis.pruned]
    got_basis = (basis.ordering, sides(basis.statements), basis.provenance, pruned)
    return got_basis, got_local if local_first else local()


def cycle_free_graphs():
    """100 small random graphs without a mixed directed cycle and 50 district
    chains of up to 120 vertices."""
    small = oracle_graphs(seed=53, count=400, max_vertices=9)
    graphs = [g for g in small if not g.has_mixed_directed_cycle()][:100]
    rng = np.random.default_rng(53)
    graphs += [district_chain_admg(rng, int(rng.integers(5, 120))) for _ in range(50)]
    assert len(graphs) == 150
    return graphs


class TestSharedReducedStatements:
    """A graph derives each vertex's reduced-form statement once: the basis
    and the reduced local property read the same objects, in either order."""

    @pytest.mark.parametrize("local_first", [False, True])
    def test_either_order_matches_a_fresh_graph(self, local_first):
        graphs = [fixture_graph(name) for name in ("figure1", "figure2", "figure3")]
        for g in graphs + cycle_free_graphs():
            reference = basis_and_local(fresh(g), False)[0], basis_and_local(fresh(g), True)[1]
            assert basis_and_local(g, local_first) == reference, repr(g)

    def test_basis_returns_the_reduced_local_objects(self):
        same = 0
        for g in [fixture_graph("figure2"), *cycle_free_graphs()]:
            local = reduced_local_markov(g)
            equal = dict(zip(local, local))
            basis = reduced_basis(g)
            for st, tag in zip(basis.statements, basis.provenance):
                if tag == REDUCED_FORM:
                    match = equal[st]
                    # twins I(a ; b | Z) of a and I(b ; a | Z) of b are equal,
                    # and each list may keep a different one of the two
                    assert match is st or match.x != st.x, repr(g)
                    same += match is st
        assert same > 2000

    def test_mixed_cycle_still_rejected_after_the_basis(self):
        graphs = [fixture_graph("figure1"), fixture_graph("figure3")]
        small = oracle_graphs(seed=54, count=300, max_vertices=9)
        graphs += [g for g in small if g.has_mixed_directed_cycle()]
        rng = np.random.default_rng(54)
        graphs += [random_sparse_admg(rng, n) for n in (50, 200)]
        assert len(graphs) > 100
        filled = 0
        for g in graphs:
            reduced_basis(g)
            filled += bool(g._reduced_cache)
            with pytest.raises(InputError, match="mixed directed cycle"):
                reduced_local_markov(g)
        assert filled > 100


def long_chain_with_bow() -> Admg:
    """v0 -> ... -> v29 plus v27 -> v29 and v27 <-> v29: a mixed directed
    cycle in a 30-vertex graph whose largest district has 2 vertices."""
    names = [f"v{i}" for i in range(30)]
    return Admg(names, [*zip(names, names[1:]), ("v27", "v29")], [("v27", "v29")])


class TestMixedCyclesAtScale:
    """The ancestral-set enumeration grows with a vertex's district, not
    with its position in the ordering."""

    def test_long_chain_with_a_bow(self):
        g = long_chain_with_bow()
        basis = reduced_basis(g)
        assert len(basis.statements) == 28 and ORDERED_LOCAL in basis.provenance
        for st in basis.statements:
            assert m_separated_latent_moral(g, st.x, st.y, st.z), st.render()

    def test_long_chain_with_a_bow_from_the_cli(self, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text(format_graph(long_chain_with_bow()))
        assert main(["analyze", str(path), "--mode", "auto"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 28

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sparse_graphs_with_mixed_cycles(self, seed):
        g = random_sparse_admg(np.random.default_rng(seed), 300)
        assert g.has_mixed_directed_cycle()
        basis = reduced_basis(g)
        assert basis.provenance.count(ORDERED_LOCAL) > 100 and basis.pruned
        for st in basis.statements:
            assert m_separated_latent_moral(g, st.x, st.y, st.z), st.render()


class TestBeyondRecursionDepth:
    def test_long_bidirected_chain(self):
        g = bidirected_chain(1500)
        assert g.has_mixed_directed_cycle()
        assert build_collapsed_ordering(g) == chain_ordering(1500)

    def test_long_bidirected_chain_from_the_cli(self, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        lines = ["c0 -> c5", *(f"c{i} <-> c{i + 1}" for i in range(1499))]
        path.write_text("\n".join(lines) + "\n")
        assert main(["components", str(path)]) == 0
        assert "mixed-directed-cycle: yes" in capsys.readouterr().out
        assert main(["order", str(path)]) == 0
        assert capsys.readouterr().out == ",".join(chain_ordering(1500)) + "\n"

    def test_quotient_components_match_the_vertex_level_pass(self):
        assert_quotient_components(bidirected_chain(1500))
        for edges in ((), [("a0", "b5")], [("b4999", "a0")]):
            assert_quotient_components(bidirected_ladder(5000, edges))
        # many districts, and a cyclic component of about 1000 vertices
        for seed in (0, 1):
            assert_quotient_components(random_sparse_admg(np.random.default_rng(seed), 1500))

    def test_ten_thousand_vertex_ladder(self):
        g = bidirected_ladder(5000)
        assert not g.has_mixed_directed_cycle()
        assert build_collapsed_ordering(g) == g.vertices

    @pytest.mark.parametrize("edge", [("a0", "b5"), ("b4999", "a0")])
    def test_ten_thousand_vertex_ladder_with_one_directed_edge(self, edge):
        assert bidirected_ladder(5000, [edge]).has_mixed_directed_cycle()


class TestSearchBudget:
    # the vertex-simple path search grows about x4 per two rungs of a closed
    # ladder: 16 rungs (32 vertices) fit the budget, 22 rungs (44) do not
    def test_closed_ladder_within_budget(self):
        g = closed_ladder(16)
        validate_ordering(g, build_collapsed_ordering(g))

    def test_closed_ladder_over_budget(self):
        g = closed_ladder(22)
        refused = (
            f"from a0 to a1 exceeded its budget of {MIXED_PATH_BUDGET} adjacency reads"
        )
        with pytest.raises(CapacityError, match=f"{refused}, in a cyclic component of 44 "):
            build_collapsed_ordering(g)
        with pytest.raises(CapacityError, match=refused):
            g.has_mixed_directed_path("a0", "a1")

    @pytest.mark.parametrize("command", ["order", "analyze"])
    def test_closed_ladder_from_the_cli_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "ladder.txt"
        path.write_text(format_graph(closed_ladder(22)))
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and "component of 44 vertices" in err
