"""The linear-time graph core against its exhaustive oracles, and on graphs far
beyond what recursion or path enumeration can handle."""

from collections import Counter

import numpy as np
import pytest

from admgci import Admg, build_collapsed_ordering, reduced_basis
from admgci.cli import main
from conftest import random_admg
from oracles import (
    collapsed_ordering_reference,
    mixed_directed_cycle_by_enumeration,
    reduced_basis_reference,
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
