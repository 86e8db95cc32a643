"""Mutation check: every recorded mutant must still be caught by its tests.

    python tests/mutants.py [NAME ...]

Each entry of MUTANTS is one mutant: a file, its exact old text, its new
text, and the pytest ids of the tests that must each fail once the new text
is in place.  The runner copies src, tests and pyproject.toml into a
temporary directory, since pyproject's pythonpath = ["src"] makes pytest
import the src that sits beside its config, and runs every test there:

1. every named test, of the mutants and of the survivors, must pass on the
   unmutated copy;
2. each old text must occur exactly once in its file, so a refactor that
   moves it must carry its mutant along, and with the new text in place
   each named test must fail;
3. each entry of SURVIVORS, a mutant that no test is known to catch, must
   still pass the tests named for it, so a test that starts catching it
   shows here and the entry moves to MUTANTS.

NAMEs select entries of either list.  One line per entry; exits 0 when every
check holds, else 1.  This file is not a test module, so tier-1 does not
collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900  # seconds for one pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str = ""  # for a survivor: why its tests pass


MUTANTS = (
    Mutant(
        "refusal-before-split",
        "src/locdom/bound.py",
        """\
    r = first_split(g, pinned=False)
    if r is not None:
        return g.n, r
    if g.n > ceiling:
        refuse("exact maximization", g.n, ceiling)
""",
        """\
    if g.n > ceiling:
        refuse("exact maximization", g.n, ceiling)
    r = first_split(g, pinned=False)
    if r is not None:
        return g.n, r
""",
        (
            "tests/test_bound.py::TestMaxScoreExact::test_negative_ceiling",
            "tests/test_bound.py::TestMaxScoreExact::test_refused_after_the_walk",
            "tests/test_bound.py::TestConstruct::test_negative_max_exact",
            "tests/test_bound.py::TestConstruct::test_ceiling_bounds_only_full_sums",
            "tests/test_cli.py::TestBound::test_certified_above_full_sums_ceiling",
            "tests/test_cli.py::TestCorpus::test_every_record_exact[1]",
        ),
    ),
    Mutant(
        "q1-found-inverted",
        "src/locdom/cli.py",
        'record["q1_found"] = record["S"] == g.n',
        'record["q1_found"] = record["S"] != g.n',
        (
            "tests/test_cli.py::TestCorpus::test_q1_not_found_counted",
            "tests/test_cli.py::TestCorpus::test_every_record_exact[1]",
            "tests/test_cli.py::TestQ1FromS::test_matches_bipartition_search",
            "tests/test_cli.py::TestQ1FromS::test_read_from_s",
        ),
    ),
    Mutant(
        "lane-mask-dropped",
        "src/locdom/graphs.py",
        "    z = (z ^ z >> 30) & mask\n",
        "    z = z ^ z >> 30\n",
        (
            "tests/test_graphs.py::TestSplitmix64Lanes::test_matches_one_step_reference[1]",
            "tests/test_graphs.py::TestSplitmix64Lanes::test_runs_continue",
        ),
    ),
    Mutant(
        "walk-one-branch-first",
        "src/locdom/location.py",
        "stack += ((w, one, upper), (w, h, planes))",
        "stack += ((w, h, planes), (w, one, upper))",
        (
            "tests/test_location.py::test_first_split_walk_against_reference[free]",
            "tests/test_location.py::test_first_split_walk_against_reference[pinned]",
        ),
    ),
    Mutant(
        "split-prune-keep-and-miss",
        "src/locdom/location.py",
        "return keep & ~bad[0] & ~at_complements(bad[1], c)",
        "return keep & bad[0]",
        (
            "tests/test_location.py::test_first_split_walk_against_reference[free]",
            "tests/test_location.py::test_first_split_walk_against_reference[pinned]",
        ),
    ),
    Mutant(
        "walk-lies-in-under-zero-branch",
        "src/locdom/location.py",
        "            if high & one == high:\n",
        "            if high & h == high:\n",
        (
            "tests/test_location.py::test_first_split_walk_against_reference[free]",
            "tests/test_location.py::test_first_split_walk_against_reference[pinned]",
        ),
    ),
    Mutant(
        "size-counters-one-short",
        "src/locdom/location.py",
        "sizes = SIZE_COUNTERS[: c.bit_length()]",
        "sizes = SIZE_COUNTERS[: c.bit_length() - 1]",
        (
            "tests/test_solver.py::TestMinSets::test_edgeless[1]",
            "tests/test_solver.py::TestMinSets::test_edgeless[8]",
            "tests/test_solver.py::TestMinSets::test_edgeless[16]",
            "tests/test_location.py::test_min_good_set_walk_against_reference",
        ),
    ),
    Mutant(
        "x-partition-sorted-by-value",
        "src/locdom/location.py",
        "    return tuple(groups.values())\n",
        "    return tuple(sorted(groups.values()))\n",
        (
            "tests/test_location.py::TestXPartition::test_matches_reference",
            "tests/test_bound.py::TestBuildZ::test_matches_from_scratch_greedy",
        ),
    ),
    Mutant(
        "build-z-partition-without-new-vertex",
        "src/locdom/bound.py",
        "        z_part = x_partition(g, z, b)\n",
        "        z_part = x_partition(g, z ^ 1 << sep, b)\n",
        (
            "tests/test_bound.py::TestBuildZ::test_k2[Eo??-9]",
            "tests/test_bound.py::TestBuildZ::test_k2[Eg??-10]",
            "tests/test_bound.py::TestBuildZ::test_matches_from_scratch_greedy",
        ),
    ),
    Mutant(
        "exit-code-row-dropped",
        "src/locdom/cli.py",
        "    (RefusedScale, EXIT_SCALE),\n",
        "",
        (
            "tests/test_cli.py::test_exit_code_of_each_error_class[RefusedScale]",
            "tests/test_cli.py::TestBound::test_refused_scale",
            "tests/test_cli.py::TestSolve::test_refused_scale",
            "tests/test_cli.py::TestCorpus::test_refused_order",
        ),
    ),
    Mutant(
        "walk-misses-under-one-branch",
        "src/locdom/location.py",
        "            if not high & h:\n",
        "            if not high & one:\n",
        (
            "tests/test_location.py::test_first_split_walk_against_reference[free]",
            "tests/test_location.py::test_first_split_walk_against_reference[pinned]",
            "tests/test_location.py::test_min_good_set_walk_against_reference",
            "tests/test_location.py::test_fewest_repeats_across_blocks[12]",
            "tests/test_location.py::test_fewest_repeats_across_blocks[45]",
        ),
    ),
    Mutant(
        "oracles-without-reverify",
        "src/locdom/cli.py",
        "    _reverify(g, l_opt.witness, ld_opt.witness)\n    return l_opt, ld_opt\n",
        "    return l_opt, ld_opt\n",
        (
            "tests/test_cli.py::TestSolve::test_bad_locating_witness_caught",
            "tests/test_cli.py::TestCorpus::test_bad_oracle_witness_caught",
            "tests/test_cli.py::test_bad_witness_caught_under_optimize[solve]",
        ),
    ),
    Mutant(
        "write-lines-drops-chunk-newline",
        "src/locdom/cli.py",
        '"".join(line + "\\n" for line in islice(lines, _LINE_CHUNK))',
        '"\\n".join(islice(lines, _LINE_CHUNK))',
        ("tests/test_cli.py::TestGenConvert::test_convert_edgelist_across_chunks",),
    ),
    Mutant(
        "transpose-first-swap-missing",
        "src/locdom/graphs.py",
        "steps = [w >> i for i in range(1, w.bit_length())]",
        "steps = [w >> i for i in range(2, w.bit_length())]",
        (
            "tests/test_graphs.py::TestLabeledGraphTranspose::test_matches_reference[9]",
            "tests/test_graphs.py::TestLabeledGraphTranspose::test_matches_reference[1025]",
        ),
    ),
    Mutant(
        "encode-pattern-unchecked",
        "src/locdom/graphs.py",
        "    nbits = _pattern_bits(n, m)\n    order = _encode_order(n)",
        "    nbits = n * (n - 1) // 2\n    order = _encode_order(n)",
        (
            "tests/test_graphs.py::TestEnumeration::test_encode_pattern_rejects_bad_input[padding-bit]",
            "tests/test_graphs.py::TestEnumeration::test_encode_pattern_rejects_bad_input[bit-past-last-chunk]",
            "tests/test_graphs.py::TestEnumeration::test_encode_pattern_rejects_bad_input[pattern-negative]",
            "tests/test_graphs.py::TestEnumeration::test_encode_pattern_rejects_bad_input[order-negative]",
        ),
    ),
    Mutant(
        "process-pool-imported-at-start-up",
        "src/locdom/cli.py",
        "from collections import deque\nfrom functools import partial\n",
        "from collections import deque\nfrom concurrent.futures import ProcessPoolExecutor\nfrom functools import partial\n",
        (
            "tests/test_cli.py::test_process_pool_loaded_only_to_fork[import]",
            "tests/test_cli.py::test_process_pool_loaded_only_to_fork[corpus-j1]",
            "tests/test_cli.py::test_process_pool_loaded_only_to_fork[check]",
            "tests/test_cli.py::test_process_pool_loaded_only_to_fork[bound]",
        ),
    ),
    Mutant(
        "ld-without-closed-planes",
        "src/locdom/location.py",
        "        misses.append(tuple(closed.items()))\n",
        "",
        (
            "tests/test_solver.py::TestMinSets::test_edgeless[1]",
            "tests/test_solver.py::TestMinSets::test_edgeless[16]",
            "tests/test_solver.py::TestMinSets::test_cross_block_tie_break[17-1]",
            "tests/test_solver.py::TestMinSets::test_raised_ceiling_keeps_block_width",
            "tests/test_location.py::test_min_good_set_walk_against_reference",
        ),
    ),
    Mutant(
        "pair-planes-without-last-vertex",
        "src/locdom/location.py",
        "    for v, row in enumerate(adj):\n        target = groups[v]\n",
        "    for v, row in enumerate(adj[:-1]):\n        target = groups[v]\n",
        (
            "tests/test_location.py::test_memo_holds_located_planes_alone[P14]",
            "tests/test_location.py::test_memo_holds_located_planes_alone[gnp-14]",
            "tests/test_location.py::test_first_split_walk_against_reference[free]",
            "tests/test_location.py::test_fewest_repeats_against_reference",
            "tests/test_location.py::TestSeparationScore::test_table_matches_reference",
        ),
    ),
    Mutant(
        "min-good-set-tie-keeps-first-block",
        "src/locdom/location.py",
        "if high_size + low_size < best_size or differ & -differ & x:",
        "if high_size + low_size < best_size:",
        (
            "tests/test_solver.py::TestMinSets::test_cross_block_tie_break[17-1]",
            "tests/test_solver.py::TestMinSets::test_cross_block_tie_break[18-5]",
            "tests/test_location.py::test_min_good_set_walk_against_reference",
        ),
    ),
    Mutant(
        "in-order-submits-every-task-up-front",
        "src/locdom/cli.py",
        "    for task in tasks:\n",
        "    for task in list(tasks):\n",
        ("tests/test_cli.py::TestCorpus::test_window_bounds_pulled_tasks",),
    ),
)

SURVIVORS = (
    Mutant(
        "build-z-largest-separator",
        "src/locdom/bound.py",
        "sep = next((w for w in members(a & ~z) if (g.adj[w] & pair).bit_count() == 1), None)",
        "sep = max((w for w in members(a & ~z) if (g.adj[w] & pair).bit_count() == 1), default=None)",
        ("tests/test_bound.py::TestCandidates::test_k_positive_on_graphs_with_twins",),
        "the k >= 1 counts over the graphs with twins and n <= 6 do not depend on which "
        "separating vertex build_z takes; TestBuildZ::test_matches_from_scratch_greedy "
        "catches it",
    ),
    Mutant(
        "min-good-set-prune-below",
        "src/locdom/location.py",
        "h.bit_count() <= best_size and",
        "h.bit_count() < best_size and",
        (
            "tests/test_location.py::test_min_good_set_walk_against_reference",
            "tests/test_solver.py::TestMinSets",
        ),
        "equivalent: where the high part alone has best_size vertices only a witness "
        "wholly in the high vertices ties, and it is last among equal sizes in "
        "combinations order, so it never replaces the best",
    ),
)


def run_tests(copy: Path, ids: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code over ids in copy, and the ids it reports failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *ids],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    failed = {m[2] for m in map(re.compile(r"(FAILED|ERROR) (\S+)").match, proc.stdout.splitlines()) if m}
    return proc.returncode, failed


def applied(copy: Path, mutant: Mutant):
    """Put the mutant's new text in place of its old text in copy, and
    return a callable that puts the old text back; an old text found other
    than once is an error."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text found {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return lambda: path.write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    entries = [*MUTANTS, *SURVIVORS]
    if argv:
        unknown = set(argv) - {e.name for e in entries}
        if unknown:
            raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
        entries = [e for e in entries if e.name in argv]
    broken = 0
    with tempfile.TemporaryDirectory(prefix="locdom-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        named = tuple(dict.fromkeys(t for e in entries for t in e.tests))
        code, failed = run_tests(copy, named)
        if code != 0:
            print(f"unmutated copy: pytest exit {code}, failed: {' '.join(sorted(failed))}")
            return 1
        print(f"unmutated copy: {len(named)} named tests pass")
        for e in entries:
            survivor = e in SURVIVORS
            restore = applied(copy, e)
            try:
                code, failed = run_tests(copy, e.tests)
            except subprocess.TimeoutExpired:
                code, failed = None, set()
            finally:
                restore()
            if code is None:
                ok, note = False, f"timed out after {TIMEOUT} s"
            elif survivor:
                ok, note = code == 0, "survives" if code == 0 else f"now caught by {' '.join(sorted(failed))}"
            else:
                # a collection error (exit 2) fails every test it would have run
                missed = () if code == 2 else [t for t in e.tests if t not in failed]
                ok, note = not missed, f"caught by all {len(e.tests)}" if not missed else f"not caught by {' '.join(missed)}"
            broken += not ok
            print(f"{'ok' if ok else 'BROKEN':6} {'survivor' if survivor else 'mutant':8} {e.name}: {note}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
