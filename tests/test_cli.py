import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import locdom
from locdom import bound
from locdom.cli import EXIT_BOUND, EXIT_PARSE, EXIT_SCALE, EXIT_TWINS, main
from locdom.errors import VerificationFailed
from locdom.graphs import encode_graph6, generate


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args, input=None):
    result = runner.invoke(main, args, input=input)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestCheck:
    def test_p4_graph6(self, runner):
        rec = run_json(runner, ["check", "-"], input="Ch\n")
        assert rec["twin_free"] is True
        assert (rec["n"], rec["m"]) == (4, 3)

    def test_c4_twins_listed(self, runner):
        rec = run_json(runner, ["check", "-"], input="Cl\n")
        assert rec["twin_free"] is False
        assert [0, 2, "open"] in rec["twins"]

    def test_edge_list_autodetect(self, runner):
        rec = run_json(runner, ["check", "-"], input="n 4\n0 1\n1 2\n2 3\n")
        assert rec["graph_id"] == "Ch"

    def test_malformed(self, runner):
        result = runner.invoke(main, ["check", "-"], input="C\x01\n")
        assert result.exit_code == EXIT_PARSE
        assert "error" in result.stderr


class TestBound:
    def test_p4(self, runner):
        rec = run_json(runner, ["bound", "-"], input="Ch\n")
        assert rec["l_upper"] == 2 and rec["certified"] is True
        assert rec["ld_upper"] <= 3
        assert set(rec["candidates"]) == {"eq1", "eq2", "eq3", "eq4"}

    def test_k1(self, runner):
        rec = run_json(runner, ["bound", "-"], input="@\n")
        assert rec["l_upper"] == 0 and rec["ld_upper"] == 1

    def test_twins_exit(self, runner):
        result = runner.invoke(main, ["bound", "-"], input="Cl\n")
        assert result.exit_code == EXIT_TWINS

    def test_heuristic_mode(self, runner):
        rec = run_json(runner, ["bound", "-", "--mode", "heuristic"], input="Ch\n")
        assert rec["certified"] is False

    def test_refused_scale(self, runner, monkeypatch):
        monkeypatch.setenv("LOCDOM_MAX_EXACT", "3")
        result = runner.invoke(main, ["bound", "-"], input="Ch\n")
        assert result.exit_code == EXIT_SCALE


# python -O strips assert statements; the witness re-check must still fire
BAD_WITNESS_PATCHES = {
    "bound": "r = bound.construct_ld\n"
    "bound.construct_ld = lambda *a, **k: dataclasses.replace(r(*a, **k), witness=0)\n",
    "solve": "solver.min_locating = lambda g, ceiling: solver.OptimumWitness(0, 0, 'locating')\n",
}


@pytest.mark.parametrize("command", sorted(BAD_WITNESS_PATCHES))
def test_bad_witness_caught_under_optimize(command):
    script = (
        "import dataclasses\n"
        "from locdom import bound, cli, solver\n"
        + BAD_WITNESS_PATCHES[command]
        + f"cli.main([{command!r}, '-'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(locdom.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input="Ch\n",
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == EXIT_PARSE, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: locating witness failed")
    assert len(proc.stderr.splitlines()) == 1


class TestSolve:
    def test_p4(self, runner):
        rec = run_json(runner, ["solve", "-"], input="Ch\n")
        assert (rec["l_exact"], rec["ld_exact"]) == (2, 2)

    def test_c5(self, runner):
        rec = run_json(runner, ["solve", "-"], input="Dhc\n")
        assert (rec["l_exact"], rec["ld_exact"]) == (2, 2)

    def test_refused_scale(self, runner):
        result = runner.invoke(main, ["solve", "-", "--ceiling", "3"], input="Ch\n")
        assert result.exit_code == EXIT_SCALE


class TestQuestionTools:
    def test_partition2(self, runner):
        rec = run_json(runner, ["partition2", "-"], input="Ch\n")
        assert rec["q1_found"] is True

    def test_sk(self, runner):
        rec = run_json(runner, ["sk", "-", "2"], input="Ch\n")
        assert rec["s_k"] == 4

    def test_sk_bad_k(self, runner):
        result = runner.invoke(main, ["sk", "-", "9"], input="Ch\n")
        assert result.exit_code == EXIT_PARSE

    def test_sk_negative_k(self, runner):
        result = runner.invoke(main, ["sk", "-", "-1"], input="Ch\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stderr.splitlines() == ["error: k=-1 outside 1..4"]


class TestGenConvert:
    def test_gen_path(self, runner):
        result = runner.invoke(main, ["gen", "path", "4"])
        assert result.stdout.strip() == "Ch"

    def test_gen_negative_order(self, runner):
        result = runner.invoke(main, ["gen", "path", "-1"])
        assert result.exit_code == EXIT_PARSE
        assert result.stderr.splitlines() == ["error: negative vertex count -1"]

    def test_gen_all_counts(self, runner):
        result = runner.invoke(main, ["gen", "all", "3"])
        assert len(result.stdout.strip().splitlines()) == 8

    def test_gen_gnp_without_seed(self, runner):
        result = runner.invoke(main, ["gen", "gnp", "10", "--p", "0.5"])
        assert result.exit_code == EXIT_PARSE
        assert result.stderr.splitlines() == ["error: gnp requires a seed"]

    def test_gen_gnp_deterministic(self, runner):
        a = runner.invoke(main, ["gen", "gnp", "10", "--p", "0.5", "--seed", "1"]).stdout
        b = runner.invoke(main, ["gen", "gnp", "10", "--p", "0.5", "--seed", "1"]).stdout
        assert a == b

    def test_convert_roundtrip(self, runner):
        el = runner.invoke(main, ["convert", "-", "--to", "edgelist"], input="Ch\n").stdout
        g6 = runner.invoke(main, ["convert", "-", "--to", "g6"], input=el).stdout
        assert g6.strip() == "Ch"


class TestCorpus:
    def test_sweep_all4(self, runner, tmp_path):
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", "all:4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 64
        tf = [r for r in records if r["twin_free"]]
        assert len(tf) == 12
        for r in tf:
            assert r["ld_upper"] <= 3  # ceil(5*4/8)
            assert r["ld_exact"] <= r["ld_upper"]
        assert "n,graphs,twin_free" in result.stdout

    def test_empty_input(self, runner, tmp_path):
        src = tmp_path / "empty.g6"
        src.write_text("")
        result = runner.invoke(main, ["corpus", str(src)])
        assert result.exit_code == 0

    def test_partial_failure(self, runner, tmp_path):
        src = tmp_path / "mixed.g6"
        src.write_text("Ch\nC\x01bad\nDhc\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert "error" in records[1]
        assert records[0]["graph_id"] == "Ch" and records[2]["graph_id"] == "Dhc"

    def test_failing_record_isolated(self, runner, tmp_path, monkeypatch):
        real = bound.construct_ld

        def fail_on_c5(g, **kwargs):
            if encode_graph6(g) == "Dhc":
                raise VerificationFailed("planted failure")
            return real(g, **kwargs)

        monkeypatch.setattr(bound, "construct_ld", fail_on_c5)
        src = tmp_path / "three.g6"
        src.write_text("Ch\nDhc\nCh\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--jobs", "1", "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        assert records[1]["error"] == "VerificationFailed: planted failure"
        assert records[0] == dict(records[2], index=0) and "error" not in records[2]
        assert result.stderr.splitlines() == ["error: line 2: VerificationFailed: planted failure"]

    def test_negative_order(self, runner):
        result = runner.invoke(main, ["corpus", "all:-1"])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: negative vertex count -1"]

    def test_solve_ceiling_reaches_oracles(self, runner, tmp_path):
        src = tmp_path / "p17.g6"
        src.write_text(encode_graph6(generate("path", 17)) + "\n")
        out = tmp_path / "reports.jsonl"
        args = ["corpus", str(src), "--out", str(out), "--solve-ceiling", "17", "--no-q1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        assert record["ld_exact"] == 7  # ceil(2n/5) on the path P_n
        assert record["l_exact"] <= record["ld_exact"] <= record["ld_upper"]

    def test_jobs_determinism(self, runner, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        r1 = runner.invoke(main, ["corpus", "all:4", "--jobs", "1", "--out", str(out1)])
        r2 = runner.invoke(main, ["corpus", "all:4", "--jobs", "4", "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
