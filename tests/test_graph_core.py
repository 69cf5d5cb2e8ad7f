"""The linear-time graph core against its exhaustive oracles, and on graphs far
beyond what recursion or path enumeration can handle."""

from collections import Counter

import numpy as np
import pytest

from admgci import (
    ORDERED_LOCAL,
    REDUCED_FORM,
    Admg,
    CapacityError,
    InputError,
    build_collapsed_ordering,
    format_graph,
    reduced_basis,
    reduced_local_markov,
    reduced_scope,
    validate_ordering,
)
from admgci.admg import MIXED_PATH_BUDGET
from admgci.cli import main
from conftest import district_chain_admg, random_admg, random_sparse_admg
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


class TestAgainstOracles:
    def test_mixed_cycle_and_collapse_match_enumeration(self):
        cycles, consecutive, bows = Counter(), Counter(), 0
        for g in oracle_graphs(seed=50, count=2400, max_vertices=10):
            cyclic = g.has_mixed_directed_cycle()
            assert cyclic == mixed_directed_cycle_by_enumeration(g), repr(g)
            order = build_collapsed_ordering(g)
            assert order == collapsed_ordering_reference(g), repr(g)
            cycles[cyclic] += 1
            consecutive[districts_consecutive(g, order)] += 1
            bows += has_bow(g)
        assert min(cycles[True], cycles[False]) > 100, cycles
        assert min(consecutive[True], consecutive[False]) > 100, consecutive
        assert bows > 100

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

    def test_scope_still_checks_its_vertex(self):
        g = district_chain_admg(np.random.default_rng(5), 200)
        with pytest.raises(InputError, match="unknown vertex 'nope'"):
            reduced_scope(g, "nope")


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
