import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expected
from admgci import Admg, GraphParseError, format_graph, load_graph, parse_graph
from admgci.cli import main
from conftest import random_admg, random_sparse_admg
from oracles import m_separated_latent_moral

GOLDENS = Path(__file__).parent / "goldens"


# the full message of each parse error, line number included
PARSE_ERRORS = {
    "x -> x": "line 1: self-loop x -> x",
    "x <-> x": "line 1: self-loop x <-> x",
    "x -> y\nx -> y": "line 2: duplicate directed edge x -> y",
    "x <-> y\ny <-> x": "line 2: duplicate bi-directed edge x <-> y",
    "a <-> b\nb <-> a": "line 2: duplicate bi-directed edge a <-> b",
    "x -> y -> z": "line 1: expected exactly one '->' per line",
    "x <-> y <-> z": "line 1: expected exactly one '<->' per line",
    "x ->": "line 1: invalid vertex name '' (letters, digits, underscore)",
    "x y": "line 1: invalid vertex name 'x y' (letters, digits, underscore)",
}


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
            ("a <-> b\nb <-> a", "duplicate bi-directed"),
            ("x -> y -> z", "exactly one"),
            ("x <-> y <-> z", "exactly one"),
            ("x ->", "vertex name"),
            ("x y", "vertex name"),
        ],
    )
    def test_parse_errors_have_line_numbers(self, text, match):
        with pytest.raises(GraphParseError, match=match) as info:
            parse_graph(text)
        assert str(info.value) == PARSE_ERRORS[text]

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

    def test_capacity_errors_exit_3(self, capsys, tmp_path):
        # a bi-directed clique of 18 has 2^17 connected sub-districts that
        # hold v17, twice the enumeration budget; v00 -> v17 keeps v17 off
        # the reduced form, and v16, with exactly 2^16, is not enumerated
        names = [f"v{i:02d}" for i in range(18)]
        pairs = [(a, b) for a in names for b in names if a < b]
        path = tmp_path / "clique.txt"
        path.write_text(format_graph(Admg(names, [("v00", "v17")], pairs)))
        code, out, err = run(capsys, "analyze", str(path), "--order", ",".join(names))
        assert (code, out) == (3, "")
        assert err == (
            "capacity error: the ancestral-set enumeration of v17 counted 65537 connected "
            "sub-districts, over its budget of 65536\n"
        )

    def test_long_district_chain_answers(self, capsys, tmp_path):
        # 29 members of v029's district come before it, but it has only 30
        # connected sub-districts
        names = [f"v{i:03d}" for i in range(30)]
        g = Admg(names, [("v000", "v029")], list(zip(names, names[1:])))
        path = tmp_path / "chain.txt"
        path.write_text(format_graph(g))
        code, payload, _ = run_json(capsys, "analyze", str(path), "--mode", "auto")
        assert code == 0 and len(payload["statements"]) == 56
        for st in payload["statements"]:
            assert m_separated_latent_moral(g, st["x"], st["indep"], st["given"]), st

    def test_paths_that_name_no_file_fall_back_to_fixtures(self, capsys, tmp_path):
        (tmp_path / "file.txt").write_text("a -> b\n")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing")
        for name in ["file.txt/x", "loop", "dangling", "missing", "a\0b"]:
            code, out, err = run(capsys, "components", str(tmp_path / name))
            assert (code, out) == (2, ""), name
            assert err.startswith("error: no such file or bundled fixture: "), name

    def test_closure_over_budget_exits_3(self, capsys, tmp_path):
        # an 11-vertex graph whose basis leaves ordered-local statements
        # underivable without composition, so verify saturates the closure
        path = tmp_path / "g.txt"
        path.write_text(
            "v10 -> v2\nv10 -> v8\nv2 -> v7\nv3 -> v1\nv3 -> v5\nv6 -> v0\nv8 -> v7\n"
            "v9 -> v0\nv9 -> v3\nv9 -> v7\nv0 <-> v10\nv0 <-> v2\nv0 <-> v3\nv0 <-> v5\n"
            "v10 <-> v5\nv10 <-> v9\nv4 <-> v7\n"
        )
        code, out, err = run(capsys, "verify", str(path), "--axioms", "semigraphoid")
        assert (code, out) == (3, "")
        assert err.startswith("capacity error: the closure over 11 vertices found 50001 statements")

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["analyze", "figure2", "--bogus"]) == 2
        assert main(["verify", "figure2", "--mode", "ordered-vs-reduced"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "verify", "sem-tests"])
    def test_negative_cap_exits_2_before_any_work(self, capsys, command):
        # the work budgets are constants; no flag changes them, so any --cap
        # is refused by the parser before a graph is read
        code, out, err = run(capsys, command, "figure3", "--cap", "-1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap -1" in err
        code, out, err = run(capsys, command, "figure3", "--cap", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 1" in err

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "figure1", "--seed", "-1", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert "argument --seed: must be at least 0, got -1" in err
        assert not out.exists()

    def test_a_graph_without_vertices(self, capsys, tmp_path):
        # no vertices imply no covariance to draw from, but the empty plan passes
        graph, out, data = tmp_path / "empty.txt", tmp_path / "x.csv", tmp_path / "d.csv"
        graph.write_text("")
        data.write_text("a,b\n1,2\n3,4\n")
        code, stdout, err = run(capsys, "simulate", str(graph), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: the graph has no vertices, so it implies no covariance\n"
        assert not out.exists()
        code, payload, _ = run_json(capsys, "sem-check", str(graph), str(data))
        assert (code, payload["tests"], payload["pass"]) == (0, [], True)

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
        "data, code",
        [(b"a -> b\n", 0), (bytes(range(128, 256)), 2)],
        ids=["text", "binary"],
    )
    def test_graph_read_from_a_pipe_is_read_once(self, data, code):
        # a pipe cannot be read twice: undecodable bytes end in exit 2,
        # never in an empty graph
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "utf8", "-m", "admgci", "components", f"/dev/fd/{r}"],
                capture_output=True, text=True, env=process_env(), timeout=60, pass_fds=(r,),
            )
        finally:
            os.close(r)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"error: cannot read '/dev/fd/{r}': ")
        else:
            assert proc.stdout == "c-components: {a} {b}\nmixed-directed-cycle: no\n"

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
        proc.stderr.close()
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


# each graph-only subcommand, with the package modules it loads beyond the
# graph core: the package, cli, admg, graphio and errors
GRAPH_ONLY = [
    (["components", "figure1"], []),
    (["msep", "figure2", "--x", "a", "--y", "e", "--given", "d"], ["msep"]),
    (["order", "figure1"], ["markov", "statements"]),
    (["analyze", "figure3"], ["markov", "statements"]),
    (["verify", "figure2"], ["implication", "markov", "statements"]),
    (["sem-tests", "figure2"], ["markov", "statements"]),
]
CORE = ["admgci", "admgci.admg", "admgci.cli", "admgci.errors", "admgci.graphio"]

MODULE_PROBE = """
import contextlib, io, sys
from admgci.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = set(sys.modules)
import json
watched = ("dataclasses", "importlib.resources", "json", "numpy", "pathlib", "typing")
print(json.dumps({
    "code": code,
    "admgci": sorted(m for m in loaded if m.split(".")[0] == "admgci"),
    "stdlib": [m for m in watched if m in loaded],
}))
"""

NUMPY_PROBE = """
import json, sys
import admgci
report = {"after_import": "numpy" in sys.modules, "loaded": sorted(vars(admgci))}
report["sem_names"] = [admgci.DataTable.__name__, admgci.run_tests.__name__]
report["after_sem_names"] = "numpy" in sys.modules
report["bound"] = [n for n in ("DataTable", "run_tests", "reduced_basis") if n in vars(admgci)]
report["unresolved"] = [n for n in admgci.__all__ if not hasattr(admgci, n)]
report["all"] = admgci.__all__
report["dir"] = [n for n in admgci.__all__ if n not in dir(admgci)]
star = {}
exec("from admgci import *", star)
report["star"] = [n for n in admgci.__all__ if star.get(n) is not getattr(admgci, n)]
print(json.dumps(report))
"""


def module_report(argv, *flags):
    proc = run_process(*flags, "-c", MODULE_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_graph_only_subcommands_never_import_numpy():
    for argv, extra in GRAPH_ONLY:
        report = module_report(argv)
        assert report["code"] == 0, argv
        assert report["admgci"] == sorted(CORE + [f"admgci.{m}" for m in extra]), argv
        assert "numpy" not in report["stdlib"] and "dataclasses" not in report["stdlib"], argv

    proc = run_process("-c", NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # importing the package loads none of its modules and binds no public name
    assert report["after_import"] is False
    assert not set(report["loaded"]) & set(report["all"])
    # the SEM names still resolve, load numpy on first use, and are then bound
    assert report["sem_names"] == ["DataTable", "run_tests"]
    assert report["after_sem_names"] is True
    assert report["bound"] == ["DataTable", "run_tests"]
    assert report["unresolved"] == []
    assert len(report["all"]) == 44 and {"DataTable", "run_tests", "test_plan"} <= set(report["all"])
    assert report["dir"] == [] and report["star"] == []


def test_simulate_loads_no_statement_modules(tmp_path):
    out = str(tmp_path / "data.csv")
    report = module_report(["simulate", "figure2", "--n", "20", "--out", out])
    assert report["code"] == 0
    assert report["admgci"] == sorted(CORE + ["admgci.sem"])
    assert "dataclasses" not in report["stdlib"]


def test_sem_check_loads_no_dataclasses(tmp_path):
    # every record of the package is a named tuple
    data = str(tmp_path / "data.csv")
    assert module_report(["simulate", "figure2", "--n", "200", "--out", data])["code"] == 0
    report = module_report(["sem-check", "figure2", data])
    assert report["code"] == 0
    assert report["admgci"] == sorted(CORE + ["admgci.markov", "admgci.sem", "admgci.statements"])
    assert "numpy" in report["stdlib"] and "dataclasses" not in report["stdlib"]


def test_graph_file_subcommand_loads_no_annotation_or_resource_modules(tmp_path):
    # without site (whose .pth files may preload them), a graph file in text
    # format needs neither typing, pathlib, importlib.resources nor json
    path = tmp_path / "g.txt"
    path.write_text("a -> b\nb <-> c\n")
    report = module_report(["components", str(path)], "-S")
    assert (report["code"], report["admgci"], report["stdlib"]) == (0, CORE, [])


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

    def test_verify_past_twelve_vertices(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(format_graph(random_sparse_admg(np.random.default_rng(0), 20)))
        code, payload, _ = run_json(capsys, "verify", str(path), "--axioms", "composition")
        assert code == 0 and payload["all_derivable"] is True
        assert len(payload["ordering"]) == 20

    def test_verify_answers_or_exits_3_on_13_to_20_vertices(self, capsys, tmp_path):
        # the basis implies every ordered-local statement under composition,
        # so verify never ends in 1; past the closure budget it ends in 3
        rng = np.random.default_rng(7)
        path = tmp_path / "g.txt"
        codes = []
        for i in range(40):
            path.write_text(format_graph(random_sparse_admg(rng, 13 + i % 8)))
            code, out, err = run(capsys, "verify", str(path), "--axioms", "composition")
            if code == 3:
                assert out == "" and err.startswith("capacity error: the closure over "), err
            else:
                assert code == 0, out
                assert out.splitlines()[-1].startswith("all ordered-local statements follow")
            codes.append(code)
        assert codes.count(0) >= 10, codes


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


# --- the text output holds nothing the JSON output lacks ---------------------


def braces(names) -> str:
    return "{" + ",".join(names) + "}"


def rho(t) -> str:
    given = f" | {','.join(t['given'])}" if t["given"] else ""
    return f"rho({t['x']},{t['y']}{given})"


def text_of(command: str, p: dict) -> list[str]:
    """The text output of ``command``, written from its JSON payload alone."""
    statement = lambda d: f"I({braces(d['x'])} ; {braces(d['given'])} ; {braces(d['indep'])})"
    if command == "components":
        return [
            "c-components: " + " ".join(braces(c) for c in p["components"]),
            "mixed-directed-cycle: " + ("yes" if p["mixed_directed_cycle"] else "no"),
        ]
    if command == "msep":
        return ["separated" if p["separated"] else "connected"]
    if command == "order":
        return [",".join(p["ordering"])]
    if command == "analyze":
        return [statement(d) for d in p["statements"]]
    if command == "verify":
        status = lambda d: "in-basis" if d["in_basis"] else (
            "derivable" if d["derivable"] else "NOT-DERIVABLE"
        )
        summary = (
            f"{'all' if p['all_derivable'] else 'NOT all'} ordered-local statements follow "
            f"from the {p['basis_size']}-statement basis (axioms: {p['axioms']})"
        )
        return [f"{statement(d)} : {status(d)}" for d in p["checked"]] + [summary]
    if command == "sem-tests":
        return [f"{rho(t)} = 0" for t in p["tests"]]
    if command == "simulate":
        return [f"wrote {p['rows']} rows x {len(p['columns'])} columns to {p['out']}"]
    assert command == "sem-check"
    lines = []
    for t in p["tests"]:
        if t["error"]:
            lines.append(f"{rho(t)}: error ({t['error']})")
        else:
            verdict = "reject" if t["reject"] else "accept"
            lines.append(f"{rho(t)}: r={t['r']:+.4f} z={t['z']:+.3f} p={t['p']:.4g} {verdict}")
    return lines + ["PASS" if p["pass"] else "FAIL"]


def test_text_output_is_rendered_from_the_json_payload(capsys, tmp_path):
    rng = np.random.default_rng(15)
    graphs = ["figure1", "figure2", "figure3"]
    for i in range(100):
        path = tmp_path / f"g{i}.txt"
        path.write_text(format_graph(random_admg(rng, 2 + i % 7)))
        graphs.append(str(path))
    flat = tmp_path / "constant.csv"  # a constant column: per-test error lines
    run(capsys, "simulate", "figure2", "--n", "50", "--out", str(flat))
    lines = flat.read_text().splitlines()
    flat.write_text("\n".join([lines[0]] + ["1," + r.split(",", 1)[1] for r in lines[1:]]))
    runs = [["sem-check", "figure2", str(flat)]]
    for k, graph in enumerate(graphs):
        vs = load_graph(graph).vertices
        runs += [["components", graph], ["order", graph]]
        runs += [["msep", graph, "--x", vs[0], "--y", vs[-1], "--given", ",".join(vs[1:-1])]]
        for mode in ("ordered", "reduced", "auto"):
            runs += [["analyze", graph, "--mode", mode], ["sem-tests", graph, "--mode", mode]]
        runs += [["verify", graph, "--axioms", axioms] for axioms in ("composition", "semigraphoid")]
        if k % 10 == 0:
            data = str(tmp_path / f"d{k}.csv")
            runs += [["simulate", graph, "--n", "100", "--seed", str(k), "--out", data]]
            runs += [["sem-check", graph, data, "--mode", mode] for mode in ("ordered", "auto")]
    commands = set()
    for argv in runs:
        code, text, err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--format", "json")
        assert (json_code, json_err) == (code, err), argv
        if out:  # an error exits with no payload
            assert text == "".join(line + "\n" for line in text_of(argv[0], json.loads(out))), argv
            commands.add(argv[0])
        else:
            assert (text, code) == ("", 2) and "reduced" in argv, argv
    assert len(commands) == 8
