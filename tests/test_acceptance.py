"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime bound. Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import json
import time

import numpy as np

import expected
from admgci import (
    Admg,
    SEMI_GRAPHOID,
    StatementUniverse,
    WITH_COMPOSITION,
    CiStatement,
    closure,
    build_collapsed_ordering,
    implied_covariance,
    m_separated,
    m_separated_bruteforce,
    ordered_local_entries,
    ordered_local_markov,
    partial_correlation,
    random_parameters,
    reduced_basis,
    reduced_local_markov,
    run_tests,
    simulate,
    test_plan as build_test_plan,
)
from admgci.cli import main
from admgci.markov import _blanket, _district_in, _prunable
from conftest import (
    random_admg,
    random_bidirected_graph,
    random_cycle_free_admg,
)
from oracles import all_subsets


def _parse_statements(text: str) -> list[CiStatement]:
    out = []
    for line in text.strip().splitlines():
        body = line.strip()[2:-1]  # I( ... )
        parts = [p.strip()[1:-1] for p in body.split(";")]
        sets = [[v for v in p.split(",") if v] for p in parts]
        out.append(CiStatement(sets[0], sets[1], sets[2]))
    return out


def _run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _report(number: int, summary: str) -> None:
    print(f"[criterion {number:2d}] PASS: {summary}")


def test_criterion_01_figure2_ordered_list(capsys):
    start = time.perf_counter()
    code, out = _run_cli(
        capsys, "analyze", "figure2", "--mode", "ordered", "--order", "e,d,a,b,c"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    got = _parse_statements(out)
    assert set(got) == set(expected.FIGURE2_ORDERED)
    assert len(got) == 7
    assert elapsed < 1.0
    _report(1, f"figure2 ordered mode emits the 7-statement list ({elapsed:.2f}s)")


def test_criterion_02_figure2_reduced_list(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "analyze", "figure2", "--mode", "reduced")
    elapsed = time.perf_counter() - start
    assert code == 0
    got = _parse_statements(out)
    assert set(got) == set(expected.FIGURE2_REDUCED)
    assert len(got) == 3
    assert elapsed < 1.0
    _report(2, f"figure2 reduced mode emits the 3-statement list ({elapsed:.2f}s)")


def test_criterion_03_composition_closure_recovers_ordered(figure2):
    start = time.perf_counter()
    uni = StatementUniverse(figure2.vertices)
    with_comp = closure(uni, expected.FIGURE2_REDUCED, WITH_COMPOSITION)
    assert set(expected.FIGURE2_ORDERED) <= with_comp
    without = closure(uni, expected.FIGURE2_REDUCED, SEMI_GRAPHOID)
    not_derivable = [st for st in expected.FIGURE2_ORDERED if st not in without]
    assert not_derivable, "composition must be doing real work"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        3,
        f"closure with composition recovers all 7; {len(not_derivable)} of 7 "
        f"need composition ({elapsed:.2f}s)",
    )


def test_criterion_04_figure3_procedure(capsys, figure3):
    # precondition: the reconstructed fixture reproduces the quoted intermediates
    assert figure3.ancestors(["a", "c"]) == {"a", "f", "h", "c", "g", "i", "e"}
    assert figure3.ancestors(["d", "c"]) == {"h", "f", "i", "g", "b", "e", "d", "c"}
    full = frozenset(figure3.vertices)  # the prefix of c, the last vertex
    a_dc = figure3.ancestors(["d", "c"])
    a_ca = figure3.ancestors(["c", "a"])
    d_dc, d_ca = _district_in(figure3, "c", a_dc), _district_in(figure3, "c", a_ca)
    assert _blanket(figure3, "c", d_ca) == {"g", "e"}
    assert _blanket(figure3, "c", d_dc) == {"b", "g", "e", "f"}
    dis_pre = _district_in(figure3, "c", full)
    assert dis_pre - d_dc == {"a"}
    assert figure3.parents({"a"}) == {"f"}
    assert _prunable(figure3, dis_pre, a_dc, d_dc, _blanket(figure3, "c", d_dc))
    assert not _prunable(figure3, dis_pre, a_ca, d_ca, _blanket(figure3, "c", d_ca))

    code, out = _run_cli(capsys, "analyze", "figure3", "--mode", "auto")
    assert code == 0
    got = _parse_statements(out)
    assert len(got) == 10
    assert set(got) == set(expected.FIGURE3_BASIS)
    c_statements = [st for st in got if st.x == {"c"}]
    assert c_statements == expected.FIGURE3_C_STATEMENTS
    per_vertex = {v: sum(1 for st in got if st.x == {v}) for v in figure3.vertices}
    assert per_vertex == {"c": 2, **{v: 1 for v in "abdefghi"}}

    # ordered mode under the reference ordering invokes 13 statements; the first
    # two vertices of the ordering contribute vacuous ones (empty independence
    # side), so 11 are emitted
    code, out = _run_cli(
        capsys,
        "analyze",
        "figure3",
        "--mode",
        "ordered",
        "--order",
        ",".join(expected.FIGURE3_ORDERING),
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invoked"] == 13
    assert len(payload["statements"]) == 11
    assert set(_statements_from_json(payload["statements"])) == set(expected.FIGURE3_ORDERED)
    _report(4, "figure3 auto emits the 10-statement basis; ordered invokes 13 (11 non-vacuous)")


def _statements_from_json(items) -> list[CiStatement]:
    return [CiStatement(d["x"], d["given"], d["indep"]) for d in items]


def test_criterion_05_figure3_completeness(figure3):
    start = time.perf_counter()
    uni = StatementUniverse(figure3.vertices)
    assert uni.slots == 262_144
    basis = reduced_basis(figure3)
    cl = closure(uni, basis.statements, WITH_COMPOSITION)
    ordered = ordered_local_markov(figure3, expected.FIGURE3_ORDERING)
    assert set(ordered) <= cl
    entries = ordered_local_entries(figure3, expected.FIGURE3_ORDERING)
    assert len(entries) == 13  # the two vacuous invocations hold trivially
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        5,
        f"closure of the 10-statement basis ({len(cl)} statements) covers all "
        f"ordered-local statements ({elapsed:.1f}s)",
    )


def test_criterion_06_figure1_structure(capsys):
    code, out = _run_cli(capsys, "components", "figure1")
    assert code == 0
    assert "{a,b} {c,d}" in out
    assert "mixed-directed-cycle: yes" in out
    _report(6, "figure1 components are {a,b},{c,d} and the mixed cycle is detected")


def test_criterion_07_sem_test_plans(capsys):
    code, out = _run_cli(
        capsys, "sem-tests", "figure2", "--mode", "ordered", "--order", "e,d,a,b,c"
    )
    assert code == 0
    assert set(out.strip().splitlines()) == {
        "rho(a,e | d) = 0",
        "rho(b,e | d) = 0",
        "rho(b,e | a,d) = 0",
        "rho(c,e | d) = 0",
        "rho(c,e | a,d) = 0",
        "rho(c,e | b,d) = 0",
        "rho(c,e | a,b,d) = 0",
    }
    code, out = _run_cli(capsys, "sem-tests", "figure2", "--mode", "reduced")
    assert code == 0
    assert set(out.strip().splitlines()) == {
        "rho(a,e | d) = 0",
        "rho(b,e | d) = 0",
        "rho(c,e | d) = 0",
    }
    _report(7, "figure2 plans match the 7-test and 3-test lists")


def test_criterion_08_gaussian_exact_zeros(figure2):
    order = figure2.topological_ordering()
    plan = build_test_plan(reduced_local_markov(figure2))
    nonzero_hits = 0
    for seed in range(100):
        params = random_parameters(figure2, seed)
        sigma = implied_covariance(figure2, params, order)
        for t in plan:
            assert abs(partial_correlation(sigma, t.x, t.y, t.given)) < 1e-9
        if abs(partial_correlation(sigma, "a", "b", ["d"])) > 1e-6:
            nonzero_hits += 1
    assert nonzero_hits >= 95
    _report(
        8,
        f"100 draws: reduced-plan correlations vanish; (a,b|d) generic in "
        f"{nonzero_hits}/100",
    )


def test_criterion_09_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(90)

    graphs = [random_admg(rng, int(rng.integers(2, 8))) for _ in range(140)]
    cycle_free = [random_cycle_free_admg(rng, int(rng.integers(2, 8))) for _ in range(40)]
    bidirected = [random_bidirected_graph(rng, int(rng.integers(2, 8))) for _ in range(20)]
    everything = graphs + cycle_free + bidirected
    assert len(everything) >= 200

    # (a) the fast decision procedure equals the brute-force oracle
    for g in everything:
        for x, y in itertools.combinations(g.vertices, 2):
            rest = [v for v in g.vertices if v not in (x, y)]
            for z in all_subsets(rest):
                assert m_separated(g, [x], [y], z) == m_separated_bruteforce(
                    g, [x], [y], z
                ), (repr(g), x, y, z)

    # (b) every emitted statement, in every mode, is an m-separation
    for g in everything:
        order = build_collapsed_ordering(g)
        basis = reduced_basis(g, order)
        emitted = list(basis.statements) + ordered_local_markov(g, order)
        if not g.has_mixed_directed_cycle():
            emitted += reduced_local_markov(g)
        for st in emitted:
            assert m_separated(g, st.x, st.y, st.z), (repr(g), st.render())

    # (c) for cycle-free graphs the composition closure of the reduced family
    # contains the ordered-local family
    for g in cycle_free:
        order = build_collapsed_ordering(g)
        uni = StatementUniverse(g.vertices)
        cl = closure(uni, reduced_local_markov(g), WITH_COMPOSITION)
        assert set(ordered_local_markov(g, order)) <= cl, repr(g)

    # (d) the pruned basis never exceeds the ordered invocation count
    for g in everything:
        order = build_collapsed_ordering(g)
        assert len(reduced_basis(g, order).statements) <= len(
            ordered_local_entries(g, order)
        ), repr(g)

    # (e) pure bi-directed graphs: reduced list == pairwise non-spouse family
    for g in bidirected:
        vs = frozenset(g.vertices)
        want = set()
        for x in g.vertices:
            rest = vs - {x} - g.spouses([x])
            if rest:
                want.add(CiStatement([x], [], rest))
        assert set(reduced_local_markov(g)) == want, repr(g)

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(9, f"property suite over {len(everything)} random graphs ({elapsed:.1f}s)")


def test_criterion_10_statistical_calibration(figure2):
    # self-simulated data passes at alpha=0.01 with Bonferroni
    params = random_parameters(figure2, 7)
    data = simulate(figure2, params, 2000, seed=7)
    plan = build_test_plan(reduced_local_markov(figure2))
    report = run_tests(data, plan, alpha=0.01, correction="bonferroni")
    assert report.passed

    # with e -> a injected into the generating model, the (a,e|d) test rejects
    perturbed = Admg(
        figure2.vertices,
        list(figure2.directed_edges) + [("e", "a")],
        [tuple(e) for e in figure2.bidirected_edges],
    )
    hits = 0
    for rep in range(50):
        p = random_parameters(perturbed, 5000 + rep)
        table = simulate(perturbed, p, 2000, seed=6000 + rep)
        rep_report = run_tests(table, plan, alpha=0.01, correction="bonferroni")
        for res in rep_report.results:
            if {res.test.x, res.test.y} == {"a", "e"} and res.reject:
                hits += 1
    power = hits / 50
    assert power > 0.9
    _report(10, f"self-check passes at alpha=0.01; injected-edge power {power:.2f}")
