import contextlib
import inspect
import json
import os
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pytest
from click.testing import CliRunner

import locdom
from locdom import bound, cli, errors, location, solver
from locdom.cli import EXIT_BOUND, EXIT_PARSE, EXIT_SCALE, EXIT_TWINS, _in_order, _twin_free_fields, main
from locdom.errors import BoundViolation, VerificationFailed
from locdom.graphs import all_labeled_graphs, decode_graph6, encode_graph6, generate, is_twin_free

from conftest import random_graphs


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

    def test_edge_list_header_with_tab(self, runner):
        # the header is found by its first token, as parse_edge_list reads it
        rec = run_json(runner, ["check", "-"], input="n\t3\n0 1\n")
        assert (rec["n"], rec["m"]) == (3, 1)

    def test_edge_list_error_names_line(self, runner):
        result = runner.invoke(main, ["check", "-"], input="n 3\n0 1\n1 1\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: -: line 3: loop at vertex 1"]

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

    def test_certified_above_full_sums_ceiling(self, runner):
        # gen gnp 60 --p 0.3 --seed 1 | bound -: n is far above
        # EXACT_CEILING_DEFAULT, which bounds only the full sums, and the
        # graph leaves through its first split
        g60 = runner.invoke(main, ["gen", "gnp", "60", "--p", "0.3", "--seed", "1"]).stdout
        rec = run_json(runner, ["bound", "-"], input=g60)
        assert (rec["n"], rec["mode"], rec["certified"], rec["S"], rec["k"]) == (60, "exact", True, 60, 0)
        assert rec["l_upper"] <= 37 and rec["ld_upper"] <= 38

    def test_refused_scale(self, runner, monkeypatch):
        # with its split patched away P25 needs the full sums, refused above
        # the ceiling
        monkeypatch.setattr(bound, "first_split", lambda g, pinned: None)
        p25 = runner.invoke(main, ["gen", "path", "25"]).stdout
        result = runner.invoke(main, ["bound", "-"], input=p25)
        assert result.exit_code == EXIT_SCALE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: exact maximization refused for n=25 > 24"]

    def test_bound_violation_exit(self, runner, monkeypatch):
        def violate(g, **kwargs):
            raise BoundViolation("planted violation")

        monkeypatch.setattr(bound, "construct_ld", violate)
        result = runner.invoke(main, ["bound", "-"], input="Ch\n")
        assert result.exit_code == EXIT_BOUND
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: planted violation"]

    @pytest.mark.parametrize(
        "limit,message",
        [
            ("locating_size_limit", "certified witness of size 2 exceeds 1 for n=4"),
            ("ld_size_limit", "LD witness of size 3 exceeds 1"),
        ],
    )
    def test_certified_limit_exceeded(self, runner, monkeypatch, limit, message):
        # P4's witness has 2 vertices and its LD witness 3; a limit of 1
        # makes construct_ld's own check raise
        monkeypatch.setattr(bound, limit, lambda n: 1)
        result = runner.invoke(main, ["bound", "-"], input="Ch\n")
        assert result.exit_code == EXIT_BOUND
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_default_ceiling_certifies_n24(self, runner):
        # gen path 24 | bound -, at the default exact ceiling
        p24 = runner.invoke(main, ["gen", "path", "24"]).stdout
        result = runner.invoke(main, ["bound", "-"], input=p24)
        assert result.exit_code == 0, result.output
        rec = json.loads(result.stdout)
        assert rec["certified"] is True and rec["mode"] == "exact"
        assert rec["l_upper"] == 10


# python -O strips assert statements; the witness re-check must still fire.
# Each entry is the patch and the start of its one error line.
BAD_WITNESS_PATCHES = {
    "bound": (
        "r = bound.construct_ld\n"
        "bound.construct_ld = lambda *a, **k: r(*a, **k)._replace(witness=0)\n",
        "error: locating witness failed",
    ),
    "solve": (
        "solver.min_locating = lambda g, ceiling: solver.OptimumWitness(0, 0)\n",
        "error: locating witness failed",
    ),
    # {0} does not locate P4: vertices 2 and 3 both see none of it
    "partition2": (
        "solver.two_locating_partition = lambda g: solver.PartitionWitness(1, 14, True)\n",
        "error: bipartition witness failed",
    ),
}


@pytest.mark.parametrize("command", sorted(BAD_WITNESS_PATCHES))
def test_bad_witness_caught_under_optimize(command):
    patch, message = BAD_WITNESS_PATCHES[command]
    script = (
        "from locdom import bound, cli, solver\n"
        + patch
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
    assert proc.stderr.startswith(message)
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "bound", "solve"])
def test_single_graph_report_depends_on_input_alone(runner, command):
    # no wall-clock field rides in a report, so two runs print the same bytes
    outs = [runner.invoke(main, [command, "-"], input="Dhc\n") for _ in range(2)]
    assert [r.exit_code for r in outs] == [0, 0], outs[0].output
    assert outs[0].stdout == outs[1].stdout
    assert "timings_ms" not in json.loads(outs[0].stdout)


# the src beside this file, so that a copy of the repository tests its own code
SRC = Path(__file__).resolve().parents[1] / "src"
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


@pytest.mark.parametrize(
    "args, stdin, pooled",
    [
        ([], "", False),
        (["corpus", "all:4", "--jobs", "1"], "", False),
        (["check", "-"], "Dhc\n", False),
        (["bound", "-"], "Dhc\n", False),
        (["corpus", "all:4", "--jobs", "2"], "", True),
        (["corpus", "-", "--jobs", "2"], "Dhc\nCh\n", False),
    ],
    ids=["import", "corpus-j1", "check", "bound", "corpus-j2", "corpus-j2-two-graphs"],
)
def test_process_pool_loaded_only_to_fork(args, stdin, pooled):
    # a fresh interpreter, since this one has loaded the pool already; it
    # reports the pool's modules it holds after the command, on its last line
    # (two CPUs and a pool that costs nothing to start, so a corpus forks
    # after its first chunk on any host whenever two chunks are left)
    script = (
        "import json, sys\n"
        "from locdom import cli\n"
        "cli._usable_cpus = lambda: 2\n"
        "cli._POOL_START_S = 0\n"
        f"if {args!r}:\n"
        f"    cli.main({args!r}, standalone_mode=False)\n"
        f"print(json.dumps([m for m in {POOL_MODULES!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == (list(POOL_MODULES) if pooled else [])


class TestInputErrors:
    """An input that cannot be read or parsed is one error line and exit 2."""

    def test_unreadable_file(self, runner):
        result = runner.invoke(main, ["bound", "/no/such/file"])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read /no/such/file: ")

    @pytest.mark.parametrize("command", ["bound", "corpus"])
    def test_non_ascii_file(self, runner, tmp_path, command):
        path = tmp_path / "g.g6"
        path.write_bytes(b"C\xff\n")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")

    def test_bad_graph6_on_stdin(self, runner):
        result = runner.invoke(main, ["bound", "-"], input="bad!\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: -: character '!' outside graph6 alphabet"]

    @pytest.mark.parametrize("text", ["", "\n \n", "# comment only\n"], ids=["empty", "blank", "comment"])
    def test_no_graph(self, runner, text):
        result = runner.invoke(main, ["bound", "-"], input=text)
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: -: no graph found in input"]

    def test_second_graph6_line_rejected(self, runner):
        # a single-graph command reads one graph; blank and comment lines
        # are still skipped around it
        result = runner.invoke(main, ["bound", "-"], input="Ch\nDhc\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: -: ") and "corpus" in lines[0]
        assert run_json(runner, ["bound", "-"], input="# P4\n\n  Ch\n\n")["n"] == 4


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

    def test_bad_locating_witness_caught(self, runner, monkeypatch):
        # the empty set does not locate P4; in process, beside the python -O
        # run of test_bad_witness_caught_under_optimize
        monkeypatch.setattr(solver, "min_locating", lambda g, ceiling: solver.OptimumWitness(0, 0))
        result = runner.invoke(main, ["solve", "-"], input="Ch\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: locating witness failed re-verification"]


class TestNegativeCeiling:
    # a ceiling below 0 is misuse (exit 2), not a refused scale (exit 4):
    # no graph has fewer than 0 vertices
    @pytest.mark.parametrize(
        "args,option,value",
        [
            (["solve", "-", "--ceiling", "-1"], "--ceiling", -1),
            (["corpus", "-", "--solve-ceiling", "-1"], "--solve-ceiling", -1),
        ],
        ids=["solve-ceiling", "corpus-solve-ceiling"],
    )
    def test_exits_parse(self, runner, args, option, value):
        result = runner.invoke(main, args, input="Ch\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {option} must be at least 0, got {value}"]

    def test_zero_is_a_ceiling(self, runner):
        result = runner.invoke(main, ["solve", "-", "--ceiling", "0"], input="Ch\n")
        assert result.exit_code == EXIT_SCALE
        assert result.stderr.splitlines() == ["error: oracle refused for n=4 > 0"]


class TestRemovedOptions:
    # one certified path: no mode to pick and no ceiling on the split
    # search, so these are click usage errors, and like every other usage
    # error, from the group or from a command, they are one line naming
    # what was wrong
    @pytest.mark.parametrize(
        "args, named",
        [
            (["bound", "-", "--mode", "heuristic"], "--mode"),
            (["bound", "-", "--max-exact", "3"], "--max-exact"),
            (["corpus", "-", "--max-exact", "2"], "--max-exact"),
            (["--bogus"], "--bogus"),
            (["nosuch"], "nosuch"),
            (["corpus", "-", "--jobs", "x"], "--jobs"),
            (["gen", "bogus", "3"], "bogus"),
            (["gen"], "Missing argument"),
        ],
        ids=[
            "bound-mode",
            "bound-max-exact",
            "corpus-max-exact",
            "group-option",
            "command",
            "option-value",
            "choice",
            "missing-argument",
        ],
    )
    def test_rejected(self, runner, args, named):
        result = runner.invoke(main, args, input="Ch\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        # click's wording of the option differs between its versions
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and named in line

    def test_bare_group_prints_help(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == EXIT_PARSE
        assert result.stderr.startswith("Usage: ") and "Commands:" in result.stderr

    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ") and "Commands:" in result.stdout


class TestQuestionTools:
    def test_partition2(self, runner):
        rec = run_json(runner, ["partition2", "-"], input="Ch\n")
        assert rec["q1_found"] is True

    def test_bad_bipartition_witness_caught(self, runner, monkeypatch):
        # {0} does not locate C5: vertices 1 and 4 both see just vertex 0;
        # in process, beside the python -O run of
        # test_bad_witness_caught_under_optimize
        witness = solver.PartitionWitness(1, 0b11110, True)
        monkeypatch.setattr(solver, "two_locating_partition", lambda g: witness)
        result = runner.invoke(main, ["partition2", "-"], input="Dhc\n")
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: bipartition witness failed re-verification"]

    def test_partition2_note(self, runner, monkeypatch):
        # the NOTE is for a twin-free graph without a witness; P4 has one,
        # so the search is made to report none
        real = solver.two_locating_partition
        monkeypatch.setattr(
            solver, "two_locating_partition", lambda g: real(g)._replace(x=0, y=0, found=False)
        )
        for g6, note in (("Ch", True), ("Cl", False)):  # P4 is twin-free, C4 is not
            result = runner.invoke(main, ["partition2", "-"], input=g6 + "\n")
            assert result.exit_code == 0
            assert json.loads(result.stdout)["q1_found"] is False
            expected = ["NOTE: twin-free graph with no two-locating-set partition"] if note else []
            assert result.stderr.splitlines() == expected

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

    @pytest.mark.parametrize(
        "args,message",
        [
            (["complete", "2", "--p", "0.3"], "--p applies to gnp only"),
            (["path", "3", "--seed", "1"], "--seed applies to gnp only"),
            (["path", "3", "--count", "2"], "--count applies to gnp only"),
            (["gnp", "5", "--p", "0.5", "--seed", "1", "--count", "0"], "--count must be at least 1, got 0"),
        ],
        ids=["p", "seed", "count", "count-zero"],
    )
    def test_gen_unused_option(self, runner, args, message):
        result = runner.invoke(main, ["gen", *args])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_gen_gnp_deterministic(self, runner):
        a = runner.invoke(main, ["gen", "gnp", "10", "--p", "0.5", "--seed", "1"]).stdout
        b = runner.invoke(main, ["gen", "gnp", "10", "--p", "0.5", "--seed", "1"]).stdout
        assert a == b

    def test_convert_roundtrip(self, runner):
        el = runner.invoke(main, ["convert", "-", "--to", "edgelist"], input="Ch\n").stdout
        g6 = runner.invoke(main, ["convert", "-", "--to", "g6"], input=el).stdout
        assert g6.strip() == "Ch"

    def test_convert_edgelist_across_chunks(self, runner):
        # 6,073 edges, so the edge list spans two writes of _write_lines
        text = runner.invoke(main, ["gen", "gnp", "200", "--p", "0.3", "--seed", "11"]).stdout
        m = decode_graph6(text).edge_count
        assert m + 1 > cli._LINE_CHUNK
        el = runner.invoke(main, ["convert", "-", "--to", "edgelist"], input=text).stdout
        lines = el.split("\n")
        assert lines[0] == "n 200" and lines[-1] == ""
        assert len(lines) - 1 == m + 1
        assert runner.invoke(main, ["convert", "-", "--to", "g6"], input=el).stdout == text


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

    @staticmethod
    def _sweep_patched_on_c5(
        runner, tmp_path, monkeypatch, module, name, on_c5, args=(), last="Ch", exit_code=EXIT_PARSE
    ):
        """Sweep P4, C5 and last at --jobs 1, plus args, with module.name
        replaced by on_c5 on C5, and check the exit code."""
        real = getattr(module, name)

        def patched(g, **kwargs):
            return (on_c5 if encode_graph6(g) == "Dhc" else real)(g, **kwargs)

        monkeypatch.setattr(module, name, patched)
        src = tmp_path / "three.g6"
        src.write_text(f"Ch\nDhc\n{last}\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--jobs", "1", "--out", str(out), *args])
        assert result.exit_code == exit_code
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2] and "error" not in records[0]
        if last == "Ch":  # the records around C5 are untouched by the patch
            assert records[0] == dict(records[2], index=0)
        return result, records

    @classmethod
    def _sweep_failing_on_c5(cls, runner, tmp_path, monkeypatch, exc):
        """The sweep above with construct_ld raising exc on C5."""

        def fail(g, **kwargs):
            raise exc

        return cls._sweep_patched_on_c5(runner, tmp_path, monkeypatch, bound, "construct_ld", fail)

    def test_failing_record_isolated(self, runner, tmp_path, monkeypatch):
        exc = VerificationFailed("planted failure")
        result, records = self._sweep_failing_on_c5(runner, tmp_path, monkeypatch, exc)
        assert records[1]["error"] == "VerificationFailed: planted failure"
        assert result.stderr.splitlines() == ["error: line 2: VerificationFailed: planted failure"]

    def test_failed_record_counted(self, runner, tmp_path, monkeypatch):
        # C5 was built, so it counts in graphs and twin_free, but its failed
        # bound adds nothing to max_ld or q1_not_found
        exc = VerificationFailed("planted failure")
        result, _ = self._sweep_failing_on_c5(runner, tmp_path, monkeypatch, exc)
        assert result.stdout.splitlines()[-2:] == ["4,2,2,2,0,0", "5,1,1,0,0,0"]

    def test_violation_in_failed_record_counted(self, runner, tmp_path, monkeypatch):
        # C5's bound is violated and then its oracle witness fails: the
        # violation is still counted and still outranks the failure
        def violate(g, **kwargs):
            raise BoundViolation("planted violation")

        real = solver.min_locating_dominating

        def not_dominating_on_c5(g, **kwargs):
            # {0, 1} locates C5 but leaves vertex 3 undominated
            return solver.OptimumWitness(2, 0b11) if g.n == 5 else real(g, **kwargs)

        monkeypatch.setattr(solver, "min_locating_dominating", not_dominating_on_c5)
        result, records = self._sweep_patched_on_c5(
            runner, tmp_path, monkeypatch, bound, "construct_ld", violate, exit_code=EXIT_BOUND
        )
        assert records[1]["bound_violation"] == "planted violation" and "error" in records[1]
        assert result.stdout.splitlines()[-2:] == ["4,2,2,2,0,0", "5,1,1,0,1,0"]
        assert result.stderr.splitlines()[-1] == "BOUND VIOLATION: Dhc"

    def test_refused_record(self, runner, tmp_path, monkeypatch):
        # with the split search patched away P4 and C5 still certify through
        # the full sums, while P25 is refused above the ceiling: one failed
        # record, and the sweep goes on
        monkeypatch.setattr(bound, "first_split", lambda g, pinned: None)
        src = tmp_path / "three.g6"
        src.write_text(f"Ch\n{encode_graph6(generate('path', 25))}\nDhc\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        message = "RefusedScale: exact maximization refused for n=25 > 24"
        assert records[1]["error"] == message and "S" not in records[1]
        assert [(r["n"], r["certified"], r["S"]) for r in (records[0], records[2])] == [(4, True, 4), (5, True, 5)]
        assert result.stderr.splitlines() == [f"error: line 2: {message}"]
        assert result.stdout.splitlines()[-3:] == ["4,1,1,2,0,0", "5,1,1,2,0,0", "25,1,1,0,0,0"]

    def test_bound_violation_outranks_parse_error(self, runner, tmp_path, monkeypatch):
        def violate(g, **kwargs):
            raise BoundViolation("planted violation")

        result, records = self._sweep_patched_on_c5(
            runner, tmp_path, monkeypatch, bound, "construct_ld", violate, last="bad!", exit_code=EXIT_BOUND
        )
        # no S, so no q1_found
        assert records[1]["bound_violation"] == "planted violation"
        assert "S" not in records[1] and "q1_found" not in records[1]
        assert records[2] == {"index": 2, "error": "character '!' outside graph6 alphabet", "input": "bad!"}
        assert result.stdout.splitlines()[-1] == "5,1,1,2,1,0"
        assert result.stderr.splitlines() == [
            "error: line 3: character '!' outside graph6 alphabet",
            "BOUND VIOLATION: Dhc",
        ]

    def test_unexpected_error_isolated(self, runner, tmp_path, monkeypatch):
        # an exception that is not a LocdomError is recorded the same way
        exc = RuntimeError("planted bug")
        result, records = self._sweep_failing_on_c5(runner, tmp_path, monkeypatch, exc)
        assert records[1]["error"] == "RuntimeError: planted bug"
        lines = result.stderr.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-2:] == ["RuntimeError: planted bug", "error: line 2: RuntimeError: planted bug"]

    def test_bad_oracle_witness_caught(self, runner, tmp_path, monkeypatch):
        # {0, 1} locates C5 but leaves vertex 3 undominated
        def not_dominating(g, **kwargs):
            return solver.OptimumWitness(2, 0b11)

        result, records = self._sweep_patched_on_c5(
            runner, tmp_path, monkeypatch, solver, "min_locating_dominating", not_dominating
        )
        message = "VerificationFailed: locating-dominating witness failed re-verification"
        assert records[1]["error"] == message
        assert "ld_exact" not in records[1]
        assert result.stderr.splitlines() == [f"error: line 2: {message}"]

    def test_q1_not_found_counted(self, runner, tmp_path, monkeypatch):
        # q1 comes from S; a C5 bound that reports S < n is counted
        real = bound.construct_ld

        def short_s(g, **kwargs):
            return real(g, **kwargs)._replace(s_value=g.n - 1)

        result, records = self._sweep_patched_on_c5(
            runner, tmp_path, monkeypatch, bound, "construct_ld", short_s, exit_code=0
        )
        assert (records[1]["mode"], records[1]["S"], records[1]["q1_found"]) == ("exact", 4, False)
        assert result.stdout.splitlines()[-2:] == ["4,2,2,2,0,0", "5,1,1,2,0,1"]
        assert result.stderr == ""

    def test_error_names_file_line(self, runner, tmp_path):
        # blank and comment lines make no record but still count as lines
        src = tmp_path / "mixed.g6"
        src.write_text("Ch\n\n# comment\nbad!\nDhc\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        assert records[1]["input"] == "bad!"
        assert result.stderr.splitlines() == [f"error: line 4: {records[1]['error']}"]

    def test_control_character_is_one_bad_line(self, runner, tmp_path):
        # \x1f is whitespace to str.strip, but in graph6 text it is a
        # character outside the alphabet
        src = tmp_path / "control.g6"
        src.write_text("Ch\x1f\nDhc\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == [0, 1] and records[1]["n"] == 5
        assert result.stderr.splitlines() == ["error: line 1: character '\\x1f' outside graph6 alphabet"]

    def test_indented_comment_skipped(self, runner, tmp_path):
        src = tmp_path / "commented.g6"
        src.write_text("Ch\n   # indented comment\nDhc\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [json.loads(line)["graph_id"] for line in out.read_text().splitlines()] == ["Ch", "Dhc"]

    def test_record_builds_planes_once(self):
        # the bound's split search and the three oracles share one build
        location.miss_planes.cache_clear()
        record = {}
        _twin_free_fields(generate("cycle", 7), {"solve_ceiling": 16, "q1": True}, record)
        assert {"S", "l_exact", "ld_exact", "q1_found"} <= set(record)
        assert location.miss_planes.cache_info().misses == 1

    def test_out_directory_missing(self, runner, tmp_path):
        out = tmp_path / "missing" / "reports.jsonl"
        result = runner.invoke(main, ["corpus", "all:3", "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: cannot write {out}: ") and "No such file or directory" in line

    def test_negative_order(self, runner):
        result = runner.invoke(main, ["corpus", "all:-1"])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: negative vertex count -1"]

    @pytest.mark.parametrize("source", ["all:x", "all:", "all:5.0"])
    def test_bad_order(self, runner, source):
        result = runner.invoke(main, ["corpus", source])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: bad vertex count in {source!r}"]

    def test_refused_order(self, runner):
        # checked in the parent before any worker starts
        result = runner.invoke(main, ["corpus", "all:8", "--jobs", "2"])
        assert result.exit_code == EXIT_SCALE
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: full enumeration refused for n=8 > 7"]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_every_record_exact(self, runner, tmp_path, jobs):
        # P4, C5 and P30, the last above EXACT_CEILING_DEFAULT, all take the
        # one certified path, with q1 read off S
        src = tmp_path / "p4c5p30.g6"
        src.write_text(f"Ch\nDhc\n{encode_graph6(generate('path', 30))}\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--jobs", jobs, "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in out.read_text().splitlines()]
        modes = [(r["n"], r["mode"], r["certified"], r["q1_found"]) for r in records]
        assert modes == [(4, "exact", True, True), (5, "exact", True, True), (30, "exact", True, True)]

    def test_jobs_determinism(self, runner, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        r1 = runner.invoke(main, ["corpus", "all:4", "--jobs", "1", "--out", str(out1)])
        r2 = runner.invoke(main, ["corpus", "all:4", "--jobs", "4", "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, runner, jobs):
        result = runner.invoke(main, ["corpus", "all:3", "--jobs", jobs])
        assert result.exit_code == EXIT_PARSE
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: --jobs must be at least 1, got {jobs}"]

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_generated_equals_file(self, runner, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(cli, "_POOL_START_S", 0)  # fork after the first chunk
        src = tmp_path / "all5.g6"
        src.write_text(runner.invoke(main, ["gen", "all", "5"]).stdout)
        outs = []
        for source in ("all:5", str(src)):
            out = tmp_path / f"{len(outs)}.jsonl"
            result = runner.invoke(main, ["corpus", source, "--jobs", jobs, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].count(b"\n") == 1024

    def test_malformed_line_in_pool(self, runner, tmp_path, monkeypatch):
        # 40 records make chunks of 5 at --jobs 2 with two usable CPUs; a pool
        # that costs nothing to start takes every chunk after the first, so
        # line 4 fails in process and line 23 in a worker
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_POOL_START_S", 0)
        lines = [encode_graph6(generate("path", 4 + i % 3)) for i in range(40)]
        bad = (3, 22)
        for i in bad:
            lines[i] = "C\x01bad"
        src = tmp_path / "mixed.g6"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", str(src), "--jobs", "2", "--out", str(out)])
        assert result.exit_code == EXIT_PARSE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(40))
        for i in bad:
            assert set(records[i]) == {"index", "error", "input"} and records[i]["input"] == "C\x01bad"
        assert all("error" not in r for i, r in enumerate(records) if i not in bad)
        assert result.stderr.splitlines() == [f"error: line {i + 1}: {records[i]['error']}" for i in bad]
        assert result.stdout.splitlines()[-1] == "6,13,13,3,0,0"

    class InProcessPool:
        """A stand-in for _process_pool that records its size and the tasks
        it is given, and runs each in process, so no process is started."""

        def __init__(self, started: list, workers: int):
            self.workers = workers
            self.tasks: list = []
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            self.tasks.append(task)
            future = Future()
            future.set_result(fn(task))
            return future

    @pytest.mark.parametrize(
        "source, jobs, cpus, workers",
        [
            ("all:4", 5000, 4, 4),  # 64 records in 16 chunks, 15 left: as many workers as CPUs
            ("all:4", 3, 8, 3),  # fewer jobs than CPUs: the jobs
            ("three", 5000, 8, 2),  # three records: one worker per chunk left
            ("two", 5000, 8, None),  # two records: one chunk left, in process
            ("one", 5000, 8, None),  # one chunk: in process, no pool
            ("all:4", 5000, 1, None),  # one CPU: in process, no pool
        ],
    )
    def test_workers_capped(self, runner, tmp_path, monkeypatch, source, jobs, cpus, workers):
        # a pool forks all its workers at the first submit, so it must be no
        # larger than the CPUs or the chunks left after the first, which runs
        # in process; a pool that costs nothing to start takes all of those
        started: list = []
        monkeypatch.setattr(cli, "_process_pool", partial(self.InProcessPool, started))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_POOL_START_S", 0)
        if not source.startswith("all:"):
            path = tmp_path / f"{source}.g6"
            path.write_text({"one": "Ch\n", "two": "Ch\nDhc\n", "three": "Ch\nDhc\nCh\n"}[source])
            source = str(path)
        outs = []
        for j in (1, jobs):
            out = tmp_path / f"{j}.jsonl"
            result = runner.invoke(main, ["corpus", source, "--jobs", str(j), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert [pool.workers for pool in started] == ([] if workers is None else [workers])
        assert outs[0] == outs[1]

    def test_pool_starts_once_the_work_left_outlasts_it(self, monkeypatch):
        # chunk t takes cost[t] s on a stand-in clock, and a pool 20 s to
        # start: after chunks 0, 1 and 2 the mean times the chunks left is
        # 1 * 9, 1 * 8 and 4 * 7 s, so chunks 3 to 9 go to a pool of 7
        cost = [1, 1, 10, 1, 1, 1, 1, 1, 1, 1]
        now = 0.0

        def chunk(t):
            nonlocal now
            now += cost[t]
            return t

        started: list = []
        monkeypatch.setattr(cli, "perf_counter", lambda: now)
        monkeypatch.setattr(cli, "_corpus_chunk", chunk)
        monkeypatch.setattr(cli, "_process_pool", partial(self.InProcessPool, started))
        monkeypatch.setattr(cli, "_POOL_START_S", 20)
        with contextlib.ExitStack() as stack:
            assert list(cli._chunks(iter(range(10)), 10, 8, stack)) == list(range(10))
        assert [(pool.workers, pool.tasks) for pool in started] == [(7, list(range(3, 10)))]

    def test_usable_cpus(self):
        assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)

    def test_window_bounds_pulled_tasks(self):
        pulled = 0

        def source():
            nonlocal pulled
            for i in range(50):
                pulled += 1
                yield i

        window = 4
        with ThreadPoolExecutor(max_workers=2) as pool:
            for taken, result in enumerate(_in_order(pool, lambda x: x * x, source(), window)):
                assert result == taken * taken
                assert pulled - taken <= window
        assert pulled == 50


class TestQ1FromS:
    """A record takes q1_found from S = n, with no bipartition search."""

    OPT = {"solve_ceiling": 0, "q1": True}  # no oracles: q1 alone is checked

    def test_matches_bipartition_search(self):
        family = [g for n in range(1, 7) for g in all_labeled_graphs(n) if is_twin_free(g)]
        family += [g for g in random_graphs(64, 7, 14, p=0.5, seed0=223) if is_twin_free(g)]
        for g in family:
            record = {}
            _twin_free_fields(g, self.OPT, record)
            assert record["mode"] == "exact"
            assert record["q1_found"] is solver.two_locating_partition(g).found
        assert len(family) > 14000 and any(g.n == 14 for g in family)

    def test_read_from_s(self, monkeypatch):
        # P4 splits into two locating sets, but the record believes its S
        real = bound.construct_ld
        monkeypatch.setattr(
            bound, "construct_ld", lambda g, **kw: real(g, **kw)._replace(s_value=g.n - 1)
        )
        record = {}
        _twin_free_fields(generate("path", 4), self.OPT, record)
        assert (record["mode"], record["S"], record["q1_found"]) == ("exact", 3, False)

    def test_exact_sweep_runs_no_search(self, runner, tmp_path, monkeypatch):
        def fail(g):
            raise RuntimeError("bipartition search called")

        monkeypatch.setattr(solver, "two_locating_partition", fail)
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["corpus", "all:5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in out.read_text().splitlines()]
        tf = [r for r in records if r["twin_free"]]
        assert len(tf) == 312 and all(r["mode"] == "exact" and r["q1_found"] for r in tf)


# every class in locdom.errors and the exit code that README documents for it
DOCUMENTED_EXIT_CODES = {
    "LocdomError": EXIT_PARSE,
    "InvalidInput": EXIT_PARSE,
    "VerificationFailed": EXIT_PARSE,
    "TwinsPresent": EXIT_TWINS,
    "RefusedScale": EXIT_SCALE,
    "BoundViolation": EXIT_BOUND,
}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__]


def test_every_error_class_has_a_documented_code():
    assert {cls.__name__ for cls in ERROR_CLASSES} == set(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(runner, monkeypatch, cls):
    def fail(path):
        raise cls("planted")

    monkeypatch.setattr(cli, "_load_graph", fail)
    result = runner.invoke(main, ["check", "-"], input="Ch\n")
    assert result.exit_code == DOCUMENTED_EXIT_CODES[cls.__name__]
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: planted"]
