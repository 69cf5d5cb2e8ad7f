import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expected
from admgci import Admg, GraphParseError, format_graph, parse_graph
from admgci.cli import main
from conftest import random_admg

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process_env(seed=None) -> dict:
    """The environment of a fresh interpreter on the package in ``src``,
    optionally under a fixed ``PYTHONHASHSEED``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    return env


def run_process(*argv, seed=None):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=process_env(seed), timeout=60
    )


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestParsing:
    def test_figure1_fixture(self, figure1):
        assert figure1.directed_edges == {("a", "c"), ("d", "b")}
        assert figure1.bidirected_edges == {frozenset("ab"), frozenset("cd")}

    def test_empty_input_is_valid(self):
        g = parse_graph("")
        assert g.vertices == ()

    def test_comments_whitespace_and_bare_vertices(self):
        g = parse_graph("# top\n  x   ->   y # inline\n\n z \n")
        assert g.vertices == ("x", "y", "z")
        assert g.directed_edges == {("x", "y")}

    @pytest.mark.parametrize(
        "text,match",
        [
            ("x -> x", "self-loop"),
            ("x <-> x", "self-loop"),
            ("x -> y\nx -> y", "duplicate directed"),
            ("x <-> y\ny <-> x", "duplicate bi-directed"),
            ("x -> y -> z", "exactly one"),
            ("x ->", "vertex name"),
            ("x y", "vertex name"),
        ],
    )
    def test_parse_errors_have_line_numbers(self, text, match):
        with pytest.raises(GraphParseError, match=match) as info:
            parse_graph(text)
        assert "line" in str(info.value)

    def test_directed_cycle_is_a_distinct_error(self):
        with pytest.raises(Exception, match="cycle"):
            parse_graph("x -> y\ny -> x")

    def test_round_trip(self, figure1, figure2, figure3):
        rng = np.random.default_rng(60)
        graphs = [figure1, figure2, figure3]
        graphs += [random_admg(rng, int(rng.integers(1, 8))) for _ in range(30)]
        for g in graphs:
            assert parse_graph(format_graph(g)) == g


class TestGoldens:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("figure1_components.txt", ["components", "figure1"]),
            (
                "figure2_ordered.txt",
                ["analyze", "figure2", "--mode", "ordered", "--order", "e,d,a,b,c"],
            ),
            ("figure2_reduced.txt", ["analyze", "figure2", "--mode", "reduced"]),
            ("figure3_auto.txt", ["analyze", "figure3", "--mode", "auto"]),
            ("figure3_order.txt", ["order", "figure3"]),
            ("figure2_semtests_reduced.txt", ["sem-tests", "figure2", "--mode", "reduced"]),
        ],
    )
    def test_text_outputs(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDENS / golden).read_text()

    @pytest.mark.parametrize("axioms,exit_code", [("composition", 0), ("semigraphoid", 1)])
    def test_verify_outputs(self, capsys, axioms, exit_code):
        code, out, _ = run(capsys, "verify", "figure3", "--axioms", axioms)
        assert code == exit_code
        assert out == (GOLDENS / f"figure3_verify_{axioms}.txt").read_text()


class TestExitCodes:
    def test_msep_separated_and_connected(self, capsys):
        code, out, _ = run(capsys, "msep", "figure2", "--x", "a", "--y", "e", "--given", "d")
        assert (code, out.strip()) == (0, "separated")
        code, out, _ = run(capsys, "msep", "figure2", "--x", "a", "--y", "b", "--given", "d")
        assert (code, out.strip()) == (1, "connected")

    def test_input_errors_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("x -> x\n")
        code, _, err = run(capsys, "components", str(bad))
        assert code == 2 and "self-loop" in err
        code, _, err = run(capsys, "components", str(tmp_path / "missing.txt"))
        assert code == 2 and "fixture" in err
        code, _, err = run(capsys, "msep", "figure2", "--x", "a", "--y", "a")
        assert code == 2
        code, _, err = run(capsys, "analyze", "figure1", "--mode", "reduced")
        assert code == 2 and "mixed directed cycle" in err

    def test_capacity_errors_exit_3(self, capsys):
        # c has two members of its district, a and b, before it
        code, _, err = run(capsys, "analyze", "figure3", "--mode", "ordered", "--cap", "1")
        assert code == 3 and "cap" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["analyze", "figure2", "--bogus"]) == 2
        assert main(["verify", "figure2", "--mode", "ordered-vs-reduced"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "verify", "sem-tests"])
    def test_negative_cap_exits_2_before_any_work(self, capsys, command):
        assert main([command, "figure1", "--cap", "-1"]) == 2
        assert "--cap: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["components", "{tmp}"],
            ["components", "{tmp}/binary"],
            ["sem-check", "figure1", "{tmp}/missing.csv"],
            ["sem-check", "figure1", "{tmp}"],
            ["simulate", "figure1", "--out", "{tmp}/missing/x.csv"],
        ],
    )
    def test_file_errors_exit_2_naming_the_path(self, tmp_path, argv):
        (tmp_path / "binary").write_bytes(bytes(range(128, 256)))
        argv = [a.format(tmp=tmp_path) for a in argv]
        # UTF-8 mode, so the binary file fails to decode under any locale
        proc = subprocess.run(
            [sys.executable, "-X", "utf8", "-m", "admgci", *argv],
            capture_output=True, text=True, env=process_env(), timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot ") and repr(argv[-1]) in proc.stderr

    @pytest.mark.parametrize(
        "at_line, big",
        [
            (1, '"' + "x" * 200_000 + '"'),
            (3, '"' + "x" * 200_000 + '"'),
            (3, '"' + "0" * 199_999 + '1"'),  # a number numpy alone would read
        ],
        ids=["header", "body", "body-number"],
    )
    def test_oversized_csv_field_exits_2(self, tmp_path, at_line, big):
        rows = ["a,b", "1.0,2.0", "3.0,4.0"]
        rows[at_line - 1] = big + ",5.0"
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows) + "\n")
        proc = run_process("-m", "admgci", "sem-check", "figure1", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"line {at_line}: field larger than field limit" in proc.stderr

    @pytest.mark.parametrize(
        "command",
        ["components", "msep", "order", "analyze", "verify", "sem-tests", "simulate", "sem-check"],
    )
    def test_every_subcommand_has_help(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage:" in out and command in out

    @pytest.mark.parametrize("module", ["admgci", "admgci.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        proc = run_process("-m", module, "components", "figure1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDENS / "figure1_components.txt").read_text()

    def test_closed_pipe_exits_1_without_traceback(self, tmp_path):
        # about 200 kB of JSON, more than a pipe buffers, so the writer is
        # still writing when the reader closes the pipe after one line
        names = [f"v{i}" for i in range(150)]
        path = tmp_path / "path.txt"
        path.write_text(format_graph(Admg(names, zip(names, names[1:]))))
        argv = ["-m", "admgci", "analyze", str(path), "--mode", "reduced", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=process_env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_output_does_not_depend_on_the_hash_seed(self):
        # statements hash through frozensets, so set order must never reach the output
        golden = (GOLDENS / "figure3_auto.txt").read_text()
        verify = []
        for seed in ("1", "2"):
            proc = run_process("-m", "admgci", "analyze", "figure3", "--mode", "auto", seed=seed)
            assert (proc.returncode, proc.stdout) == (0, golden), proc.stderr
            proc = run_process(
                "-m", "admgci", "verify", "figure2", "--axioms", "composition",
                "--format", "json", seed=seed,
            )
            verify.append((proc.returncode, proc.stdout))
        assert verify[0] == verify[1] and verify[0][0] == 0 and json.loads(verify[0][1])

    def test_inconsistent_order_rejected(self, capsys):
        code, _, err = run(
            capsys, "analyze", "figure2", "--mode", "ordered", "--order", "a,b,c,d,e"
        )
        assert code == 2 and "consistent" in err


GRAPH_ONLY = [
    ["components", "figure1"],
    ["msep", "figure2", "--x", "a", "--y", "e", "--given", "d"],
    ["order", "figure1"],
    ["analyze", "figure3"],
    ["verify", "figure2"],
    ["sem-tests", "figure2"],
]

NUMPY_PROBE = """
import contextlib, io, json, sys
import admgci
from admgci.cli import main
report = {"after_import": "numpy" in sys.modules, "after_commands": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report["after_commands"].append([code, "numpy" in sys.modules])
report["sem_names"] = [admgci.DataTable.__name__, admgci.run_tests.__name__]
report["after_sem_names"] = "numpy" in sys.modules
report["unresolved"] = [n for n in admgci.__all__ if not hasattr(admgci, n)]
report["all"] = admgci.__all__
print(json.dumps(report))
"""


def test_graph_only_subcommands_never_import_numpy():
    proc = run_process("-c", NUMPY_PROBE, json.dumps(GRAPH_ONLY))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] is False
    assert report["after_commands"] == [[0, False]] * len(GRAPH_ONLY)
    # the SEM names still resolve, and load numpy on first use
    assert report["sem_names"] == ["DataTable", "run_tests"]
    assert report["after_sem_names"] is True
    assert report["unresolved"] == []
    assert len(report["all"]) == 50 and {"DataTable", "run_tests", "test_plan"} <= set(report["all"])


class TestJson:
    def test_components(self, capsys):
        code, payload, _ = run_json(capsys, "components", "figure1")
        assert code == 0
        assert payload == {
            "components": [["a", "b"], ["c", "d"]],
            "mixed_directed_cycle": True,
        }

    def test_msep(self, capsys):
        code, payload, _ = run_json(
            capsys, "msep", "figure2", "--x", "a", "--y", "e", "--given", "d"
        )
        assert code == 0 and payload["separated"] is True

    def test_analyze_ordered_reports_invocations(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "analyze",
            "figure3",
            "--mode",
            "ordered",
            "--order",
            ",".join(expected.FIGURE3_ORDERING),
        )
        assert code == 0
        assert payload["invoked"] == expected.FIGURE3_INVOKED
        assert len(payload["statements"]) == len(expected.FIGURE3_ORDERED)
        assert payload["ordering"] == list(expected.FIGURE3_ORDERING)

    def test_analyze_auto_figure3(self, capsys):
        code, payload, _ = run_json(capsys, "analyze", "figure3", "--mode", "auto")
        assert code == 0
        statements = payload["statements"]
        assert len(statements) == 10
        assert sum(1 for s in statements if s["x"] == ["c"]) == 2
        assert all(s["implied_by"] is None for s in statements)
        assert len(payload["pruned"]) == 1
        pruned = payload["pruned"][0]
        assert pruned["implied_by"] == 8
        assert statements[8]["x"] == ["c"]
        assert {s["provenance"] for s in statements} == {"reduced-form", "ordered-local"}

    def test_empty_statement_list(self, capsys, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("x\n")
        code, out, _ = run(capsys, "analyze", str(path), "--mode", "reduced")
        assert code == 0 and out == ""
        code, payload, _ = run_json(capsys, "analyze", str(path), "--mode", "reduced")
        assert payload["statements"] == []

    def test_verify_figure3(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "figure3")
        assert code == 0
        assert payload["all_derivable"] is True
        assert payload["basis_size"] == 10

    def test_verify_semigraphoid_fails_on_figure2(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "figure2", "--axioms", "semigraphoid", "--order", "e,d,a,b,c"
        )
        assert code == 1
        assert payload["all_derivable"] is False
        underivable = [c for c in payload["checked"] if not c["derivable"]]
        assert underivable


class TestSemPipeline:
    def test_simulate_then_check_passes(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        code, _, _ = run(
            capsys, "simulate", "figure2", "--n", "2000", "--seed", "7", "--out", str(data)
        )
        assert code == 0
        code, out, _ = run(capsys, "sem-check", "figure2", str(data), "--alpha", "0.01")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_check_rejects_wrong_model(self, capsys, tmp_path):
        # data from figure2 with an extra edge e -> a fails the figure2 tests
        perturbed = tmp_path / "perturbed.txt"
        base = (Path(__file__).parents[1] / "src/admgci/fixtures/figure2.txt").read_text()
        perturbed.write_text(base + "e -> a\n")
        data = tmp_path / "data.csv"
        code, _, _ = run(
            capsys, "simulate", str(perturbed), "--n", "2000", "--seed", "3", "--out", str(data)
        )
        assert code == 0
        code, out, _ = run(capsys, "sem-check", "figure2", str(data), "--alpha", "0.01")
        assert code == 1
        assert out.strip().endswith("FAIL")
        code, payload, _ = run_json(
            capsys, "sem-check", "figure2", str(data), "--alpha", "0.01"
        )
        assert payload["pass"] is False and payload["rejections"] >= 1

    def test_sem_tests_modes(self, capsys):
        code, payload, _ = run_json(capsys, "sem-tests", "figure2", "--mode", "ordered")
        assert code == 0 and len(payload["tests"]) == 7
        code, payload, _ = run_json(capsys, "sem-tests", "figure2", "--mode", "auto")
        assert code == 0 and len(payload["tests"]) == 3

    def test_bad_columns(self, capsys, tmp_path):
        # a non-finite cell is an input error naming its line; a constant
        # column gives per-test errors and a FAIL, not an aborted run
        data = tmp_path / "data.csv"
        run(capsys, "simulate", "figure2", "--n", "200", "--seed", "5", "--out", str(data))
        lines = data.read_text().splitlines()
        nan_cell = lines[:4] + ["nan," + lines[4].split(",", 1)[1]] + lines[5:]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(nan_cell) + "\n")
        code, _, err = run(capsys, "sem-check", "figure2", str(bad))
        assert code == 2 and "line 5" in err
        rows = [lines[0]] + ["1.5," + line.split(",", 1)[1] for line in lines[1:]]
        flat = tmp_path / "constant.csv"
        flat.write_text("\n".join(rows) + "\n")
        code, payload, _ = run_json(capsys, "sem-check", "figure2", str(flat))
        assert code == 1 and payload["pass"] is False
        first = lines[0].split(",")[0]
        for t in payload["tests"]:
            touches = first in (t["x"], t["y"], *t["given"])
            assert (t["error"] is not None) == touches
            assert (t["r"] is None) == touches
        assert any(t["error"] for t in payload["tests"])
