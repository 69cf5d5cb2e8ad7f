"""Tests of the benchmark's own reference computations and generators.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import admgci  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _small_admgs(count, max_vertices=8):
    rng = random.Random(2024)
    for _ in range(count):
        n = rng.randint(2, max_vertices)
        names, directed, bidirected = inputs.desk_admg(rng, n, rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
        yield rng, names, directed, bidirected


def test_moralisation_agrees_with_bruteforce():
    checked = separated = 0
    for rng, names, directed, bidirected in _small_admgs(250):
        g = admgci.Admg(names, directed, bidirected)
        r = ref.Graph(names, directed, bidirected)
        for _ in range(6):
            picked = rng.sample(names, len(names))
            nx = rng.randint(1, max(1, len(names) // 3))
            ny = rng.randint(1, len(names) - nx)
            x, y = picked[:nx], picked[nx : nx + ny]
            z = picked[nx + ny : nx + ny + rng.randint(0, len(names) - nx - ny)]
            expected = admgci.m_separated_bruteforce(g, x, y, z)
            assert ref.m_separated(r, x, y, z) is expected, (names, directed, bidirected, x, y, z)
            checked += 1
            separated += expected
    assert checked == 1500 and 0 < separated < checked


def test_union_find_districts_match_c_components():
    for _rng, names, directed, bidirected in _small_admgs(200):
        g = admgci.Admg(names, directed, bidirected)
        assert ref.districts(names, bidirected) == list(g.c_components())


def test_mixed_cycle_rule_matches_program():
    for _rng, names, directed, bidirected in _small_admgs(300):
        g = admgci.Admg(names, directed, bidirected)
        assert ref.has_mixed_cycle(ref.Graph(names, directed, bidirected)) is g.has_mixed_directed_cycle()


def test_district_generator_never_makes_a_mixed_cycle():
    rng = random.Random(7)
    for n in list(range(1, 40)) + [200, 300]:
        for parents in ((0, 1, 1, 2), (1, 1, 2, 2), (3,)):
            names, directed, bidirected = inputs.district_admg(rng, n, parents)
            g = ref.Graph(names, directed, bidirected)
            assert not ref.has_mixed_cycle(g)
            assert all(len(d) <= 4 for d in ref.districts(names, bidirected))
            if n <= 12:
                assert not admgci.Admg(names, directed, bidirected).has_mixed_directed_cycle()


def test_reduced_statements_match_program_on_cycle_free_graphs():
    rng = random.Random(11)
    for n in range(2, 30):
        names, directed, bidirected = inputs.district_admg(rng, n)
        g = admgci.Admg(names, directed, bidirected)
        got = set(admgci.reduced_local_markov(g))
        expected = {admgci.CiStatement([x], z, y) for x, z, y in ref.reduced_statements(ref.Graph(names, directed, bidirected))}
        assert got == expected


def test_residual_partial_correlation_and_fisher_p():
    gen = np.random.default_rng(3)
    data = gen.standard_normal((500, 5)) @ gen.standard_normal((5, 5))
    names = tuple("abcde")
    columns = {v: data[:, i] for i, v in enumerate(names)}
    table = admgci.DataTable(names, data)
    for x, y, given in (("a", "b", ()), ("a", "c", ("d",)), ("b", "e", ("a", "c", "d"))):
        r = ref.residual_partial_correlation(columns, x, y, given)
        assert abs(r - admgci.sample_partial_correlation(table, x, y, given)) < 1e-12
        z = math.sqrt(500 - len(given) - 3) * math.atanh(r)
        assert ref.fisher_p(r, 500, len(given)) == math.erfc(abs(z) / math.sqrt(2))


def test_monotone_names_keep_the_order():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(9)]
    rename = inputs.monotone_names(rng, names)
    assert sorted(rename.values()) == [rename[v] for v in sorted(names)]
    assert len(set(rename.values())) == len(names)


def test_desk_shapes_have_mixed_cycles():
    for shape_seed, n in workloads.DESK_SHAPES:
        names, directed, bidirected = inputs.desk_admg(random.Random(shape_seed), n)
        assert ref.has_mixed_cycle(ref.Graph(names, directed, bidirected))
