import itertools
import math

import numpy as np
import pytest

import expected
from admgci import (
    Admg,
    Covariance,
    DataTable,
    InputError,
    NumericError,
    SemParameters,
    implied_covariance,
    m_separated_bruteforce,
    ordered_local_markov,
    partial_correlation,
    random_parameters,
    reduced_basis,
    reduced_local_markov,
    run_tests,
    sample_partial_correlation,
    simulate,
)
from admgci import CiStatement, PartialCorrTest
from admgci import test_plan as build_test_plan
from conftest import random_admg


class TestParameters:
    def test_support_validation(self, figure2):
        p = random_parameters(figure2, 0)
        p.validate(figure2)
        bad = SemParameters({("e", "d"): 1.0}, p.error_variances, p.error_covariances)
        with pytest.raises(InputError, match="coefficient support"):
            bad.validate(figure2)
        bad = SemParameters(p.coefficients, {"a": 1.0}, p.error_covariances)
        with pytest.raises(InputError, match="variance per vertex"):
            bad.validate(figure2)
        bad = SemParameters(p.coefficients, p.error_variances, {})
        with pytest.raises(InputError, match="covariance support"):
            bad.validate(figure2)

    def test_deterministic_in_seed(self, figure2):
        assert random_parameters(figure2, 5) == random_parameters(figure2, 5)
        assert random_parameters(figure2, 5) != random_parameters(figure2, 6)

    def test_dag_has_no_error_covariances(self):
        g = Admg(["x", "y", "z"], [("x", "y"), ("y", "z")])
        p = random_parameters(g, 1)
        assert p.error_covariances == {}

    def test_figure2_support(self, figure2):
        p = random_parameters(figure2, 2)
        assert set(p.coefficients) == set(figure2.directed_edges)
        assert set(p.error_covariances) == {
            frozenset(e) for e in [("a", "b"), ("a", "c"), ("b", "c")]
        }
        assert all(v != 0 for v in p.error_covariances.values())
        assert all(abs(c) >= 0.3 for c in p.coefficients.values())

    @pytest.mark.parametrize(
        "g",
        [
            Admg("abcd", bidirected=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
            Admg("abcde", bidirected=[("a", v) for v in "bcde"]),
        ],
        ids=["bidirected-4-cycle", "bidirected-star"],
    )
    def test_halved_blocks_keep_the_support(self, g, monkeypatch):
        # a random block zeroed off these supports is often not positive
        # definite, so its off-diagonal entries get halved until it is
        eigvalsh = np.linalg.eigvalsh
        singular = []

        def spy(m):
            w = eigvalsh(m)
            singular.append(w.min() <= 1e-10)
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for seed in range(40):
            p = random_parameters(g, seed)
            assert set(p.error_covariances) == set(g.bidirected_edges)
            assert all(v != 0 for v in p.error_covariances.values())
            sigma = implied_covariance(g, p, g.topological_ordering())
            assert eigvalsh(sigma.matrix).min() > 0
        assert any(singular)  # some seed reached the halving loop

    def test_error_covariance_positive_definite(self, figure2):
        for seed in range(20):
            p = random_parameters(figure2, seed)
            order = figure2.topological_ordering()
            sigma = implied_covariance(figure2, p, order)
            assert np.linalg.eigvalsh(sigma.matrix).min() > 0


class TestImpliedCovariance:
    def test_empty_graph_unit_errors(self):
        g = Admg(["x", "y"])
        p = SemParameters({}, {"x": 1.0, "y": 1.0}, {})
        sigma = implied_covariance(g, p, ("x", "y"))
        assert np.allclose(sigma.matrix, np.eye(2))

    def test_single_edge(self):
        g = Admg(["x", "y"], [("x", "y")])
        p = SemParameters({("x", "y"): 0.7}, {"x": 1.0, "y": 1.0}, {})
        sigma = implied_covariance(g, p, ("x", "y"))
        assert sigma.matrix[0, 1] == pytest.approx(0.7)
        assert sigma.matrix[1, 1] == pytest.approx(0.7**2 + 1)

    def test_non_pd_error_covariance_rejected(self):
        g = Admg(["x", "y"], bidirected=[("x", "y")])
        p = SemParameters({}, {"x": 1.0, "y": 1.0}, {frozenset(("x", "y")): 1.5})
        with pytest.raises(InputError, match="positive definite"):
            implied_covariance(g, p, ("x", "y"))

    def test_figure2_separated_triples_vanish(self, figure2):
        order = figure2.topological_ordering()
        for seed in range(25):
            sigma = implied_covariance(figure2, random_parameters(figure2, seed), order)
            for x in ("a", "b", "c"):
                assert abs(partial_correlation(sigma, x, "e", ["d"])) < 1e-9


class TestPartialCorrelation:
    def test_marginal_is_plain_correlation(self):
        m = np.array([[2.0, 0.6], [0.6, 1.5]])
        sigma = Covariance(("x", "y"), m)
        want = 0.6 / math.sqrt(2.0 * 1.5)
        assert partial_correlation(sigma, "x", "y") == pytest.approx(want)

    def test_symmetric_in_arguments(self, figure2):
        sigma = implied_covariance(
            figure2, random_parameters(figure2, 3), figure2.topological_ordering()
        )
        r1 = partial_correlation(sigma, "a", "b", ["d"])
        r2 = partial_correlation(sigma, "b", "a", ["d"])
        assert r1 == pytest.approx(r2)
        assert -1 <= r1 <= 1

    def test_invariant_under_diagonal_rescaling(self, figure2):
        rng = np.random.default_rng(50)
        sigma = implied_covariance(
            figure2, random_parameters(figure2, 4), figure2.topological_ordering()
        )
        d = np.diag(rng.uniform(0.5, 3.0, size=len(sigma.variables)))
        scaled = Covariance(sigma.variables, d @ sigma.matrix @ d)
        for x, y, z in [("a", "b", ["d"]), ("a", "e", ["d"]), ("c", "e", [])]:
            assert partial_correlation(scaled, x, y, z) == pytest.approx(
                partial_correlation(sigma, x, y, z), abs=1e-12
            )

    def test_argument_validation(self, figure2):
        sigma = implied_covariance(
            figure2, random_parameters(figure2, 5), figure2.topological_ordering()
        )
        with pytest.raises(InputError):
            partial_correlation(sigma, "a", "a")
        with pytest.raises(InputError):
            partial_correlation(sigma, "a", "b", ["a"])
        with pytest.raises(NumericError):
            partial_correlation(Covariance(("x", "y"), np.array([[1.0, 2.0], [2.0, 1.0]])), "x", "y")

    def test_exact_zero_iff_separated_on_random_graphs(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            g = random_admg(rng, int(rng.integers(2, 6)))
            p = random_parameters(g, int(rng.integers(0, 10_000)), max_condition=1e6)
            sigma = implied_covariance(g, p, g.topological_ordering())
            for x, y in itertools.combinations(g.vertices, 2):
                rest = [v for v in g.vertices if v not in (x, y)]
                for k in range(len(rest) + 1):
                    for z in itertools.combinations(rest, k):
                        rho = partial_correlation(sigma, x, y, z)
                        if m_separated_bruteforce(g, [x], [y], z):
                            assert abs(rho) < 1e-9, (repr(g), x, y, z, rho)


class TestSimulate:
    def test_shapes_and_determinism(self, figure2):
        p = random_parameters(figure2, 6)
        t1 = simulate(figure2, p, 50, seed=9)
        t2 = simulate(figure2, p, 50, seed=9)
        t3 = simulate(figure2, p, 50, seed=10)
        assert t1.variables == figure2.vertices
        assert t1.values.shape == (50, 5)
        assert np.array_equal(t1.values, t2.values)
        assert not np.array_equal(t1.values, t3.values)
        single = simulate(figure2, p, 1, seed=0)
        assert single.values.shape == (1, 5)

    def test_sample_covariance_approaches_implied(self, figure2):
        p = random_parameters(figure2, 7)
        sigma = implied_covariance(figure2, p, figure2.topological_ordering())
        table = simulate(figure2, p, 1_000_000, seed=11)
        order = [sigma.variables.index(v) for v in table.variables]
        want = sigma.matrix[np.ix_(order, order)]
        got = np.cov(table.values, rowvar=False, ddof=1)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 0.01 * scale

    def test_csv_roundtrip(self, tmp_path, figure2):
        p = random_parameters(figure2, 8)
        table = simulate(figure2, p, 20, seed=12)
        path = tmp_path / "data.csv"
        table.to_csv(path)
        loaded = DataTable.from_csv(path)
        assert loaded.variables == table.variables
        assert np.allclose(loaded.values, table.values)

    def test_csv_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(InputError, match="header"):
            DataTable.from_csv(path)
        path.write_text("x,y\n1.0\n")
        with pytest.raises(InputError, match="expected 2 fields"):
            DataTable.from_csv(path)
        path.write_text("x,y\n1.0,oops\n")
        with pytest.raises(InputError, match="line 2"):
            DataTable.from_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ('"' + "x" * 200_000 + '",b\n1.0,2.0\n', 1),
            ('a,b\n1.0,2.0\n"' + "x" * 200_000 + '",3.0\n', 3),
        ],
        ids=["header", "body"],
    )
    def test_csv_field_over_the_size_limit(self, tmp_path, text, line):
        path = tmp_path / "big.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=f"^line {line}: field larger than field limit"):
            DataTable.from_csv(path)

    def test_csv_rejects_duplicate_columns(self, tmp_path):
        # otherwise the first c would win and the second column go unread
        path = tmp_path / "dup.csv"
        path.write_text("a,b,c, c\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(InputError, match="line 1: duplicate column 'c' in the header"):
            DataTable.from_csv(path)

    @pytest.mark.parametrize(
        "body, line, cell",
        [
            ("nan,1.0\nnan,2.0\nNaN,3.0\n", 2, "nan"),  # an all-NaN column
            ("1.0,2.0\n\n3.0,inf\n", 4, "inf"),  # the blank line 3 still counts
            ("1.0,2.0\n-inf,3.0\n", 3, "-inf"),
        ],
    )
    def test_csv_rejects_non_finite_values(self, tmp_path, body, line, cell):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n" + body)
        with pytest.raises(InputError, match=f"line {line}: non-finite value {cell} "):
            DataTable.from_csv(path)


class TestPlans:
    def test_figure2_reduced_plan(self, figure2):
        plan = build_test_plan(reduced_local_markov(figure2))
        assert {(t.x, t.y, t.given) for t in plan} == expected.FIGURE2_TESTS_REDUCED

    def test_figure2_ordered_plan(self, figure2):
        plan = build_test_plan(ordered_local_markov(figure2, expected.FIGURE2_ORDERING))
        assert {(t.x, t.y, t.given) for t in plan} == expected.FIGURE2_TESTS_ORDERED

    def test_accepts_reduced_basis(self, figure2):
        plan = build_test_plan(reduced_basis(figure2))
        assert {(t.x, t.y, t.given) for t in plan} == expected.FIGURE2_TESTS_REDUCED

    def test_empty_and_dedup(self):
        assert build_test_plan([]) == []
        plan = build_test_plan(
            [CiStatement(["a"], ["d"], ["e"]), CiStatement(["e"], ["d"], ["a"])]
        )
        assert len(plan) == 1


class TestRunTests:
    def test_exact_zero_sample_correlation(self):
        # alternating columns have exactly zero sample correlation
        data = DataTable(
            ("x", "y"),
            np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]] * 5),
        )
        plan = build_test_plan([CiStatement(["x"], [], ["y"])])
        assert sample_partial_correlation(data, "x", "y") == pytest.approx(0.0)
        report = run_tests(data, plan, alpha=0.05)
        result = report.results[0]
        assert result.r == pytest.approx(0.0)
        assert result.z == pytest.approx(0.0)
        assert result.p == pytest.approx(1.0)
        assert report.passed

    def test_insufficient_sample_is_per_test_error(self, figure2):
        p = random_parameters(figure2, 13)
        tiny = simulate(figure2, p, 4, seed=0)
        plan = build_test_plan(reduced_local_markov(figure2))
        report = run_tests(tiny, plan, alpha=0.05)
        assert report.errors == len(plan)
        assert not report.passed

    def test_constant_column_is_per_test_error(self, figure2):
        p = random_parameters(figure2, 15)
        table = simulate(figure2, p, 500, seed=2)
        values = table.values.copy()
        values[:, table.variables.index("a")] = 0.1  # rounds to a non-zero variance
        plan = build_test_plan(ordered_local_markov(figure2, expected.FIGURE2_ORDERING))
        report = run_tests(DataTable(table.variables, values), plan)
        for result in report.results:
            t = result.test
            if "a" in (t.x, t.y, *t.given):
                assert result.error == "column a is constant, so the sample covariance is singular"
                assert (result.r, result.reject) == (None, False)
            else:
                assert result.error is None and result.r is not None
        assert 0 < report.errors < len(plan) and not report.passed

    def test_collinear_columns_are_per_test_errors(self):
        # y = 2x exactly: the covariance of (x, y, w) is singular
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        data = DataTable(("w", "x", "y"), np.column_stack([rng.standard_normal(50), x, 2 * x]))
        plan = build_test_plan([CiStatement(["w"], ["x"], ["y"]), CiStatement(["w"], [], ["x"])])
        first, second = run_tests(data, plan).results
        assert first.r is None and first.error is not None
        assert second.error is None and second.r is not None

    def test_non_finite_data_is_per_test_error(self):
        # tables built in code skip the CSV check; NaN must not read as r = +1
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 3))
        values[:, 0] = np.nan
        data = DataTable(("a", "b", "c"), values)
        plan = build_test_plan([CiStatement(["a"], [], ["b"]), CiStatement(["b"], [], ["c"])])
        first, second = run_tests(data, plan).results
        assert first.error == "sample partial correlation is not finite"
        assert (first.r, first.reject) == (None, False)
        assert second.error is None

    def test_r_matches_per_test_sample_covariance(self):
        # run_tests takes submatrices of one covariance of all columns; the
        # per-test covariance of sample_partial_correlation is the reference
        rng = np.random.default_rng(5)
        g = random_admg(rng, 10, p_dir=0.3, p_bi=0.2)
        data = simulate(g, random_parameters(g, 5), 300, seed=6)
        plan = []
        for x, y in itertools.combinations(g.vertices, 2):
            rest = [v for v in g.vertices if v not in (x, y)]
            for k in range(5):
                given = rng.choice(rest, size=k, replace=False)
                plan.append(PartialCorrTest(x, y, frozenset(given), len(plan)))
        results = run_tests(data, plan).results
        for t, result in zip(plan, results):
            assert result.error is None
            expected_r = sample_partial_correlation(data, t.x, t.y, t.given)
            assert abs(result.r - expected_r) < 1e-9

    def test_missing_column_rejected(self, figure2):
        data = DataTable(("a", "b"), np.zeros((10, 2)))
        plan = build_test_plan(reduced_local_markov(figure2))
        with pytest.raises(InputError, match="missing column"):
            run_tests(data, plan, alpha=0.05)

    def test_parameter_validation(self, figure2):
        p = random_parameters(figure2, 14)
        data = simulate(figure2, p, 100, seed=1)
        plan = build_test_plan(reduced_local_markov(figure2))
        with pytest.raises(InputError, match="correction"):
            run_tests(data, plan, correction="fdr")
        with pytest.raises(InputError, match="alpha"):
            run_tests(data, plan, alpha=1.5)

    def test_type_one_error_calibrated(self, figure2):
        # raw per-test rejection rate at level alpha stays near alpha
        alpha = 0.01
        plan = build_test_plan(reduced_local_markov(figure2))
        rejections = 0
        total = 0
        for rep in range(200):
            p = random_parameters(figure2, 1000 + rep)
            data = simulate(figure2, p, 500, seed=2000 + rep)
            report = run_tests(data, plan, alpha=alpha, correction="none")
            rejections += report.rejections
            total += len(plan)
        assert rejections / total < 3 * alpha

    def test_power_against_extra_edge(self, figure2):
        # generate from figure2 plus e -> a, test the original plan
        perturbed = Admg(
            figure2.vertices,
            list(figure2.directed_edges) + [("e", "a")],
            [tuple(e) for e in figure2.bidirected_edges],
        )
        plan = build_test_plan(reduced_local_markov(figure2))
        hits = 0
        for rep in range(20):
            p = random_parameters(perturbed, 3000 + rep)
            data = simulate(perturbed, p, 2000, seed=4000 + rep)
            report = run_tests(data, plan, alpha=0.01)
            for res in report.results:
                if {res.test.x, res.test.y} == {"a", "e"} and res.reject:
                    hits += 1
        assert hits / 20 > 0.9
