"""Command-line workbench: single-graph analysis, corpus sweeps, reports.

Exit codes: 0 success, 2 parse error or any other locdom error (invalid
parameter, failed re-verification), 3 twins present, 4 refused scale,
5 bound violation, 1 anything else.  Single-graph commands print one JSON
report; ``corpus`` streams JSON-lines records (one per input graph, in
input order regardless of --jobs) and a CSV summary.  A record that fails
gets an ``error`` field and the sweep goes on; it exits 2 at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import click

from . import bound, graphs, location, solver
from .errors import (
    BoundViolation,
    InvalidParameter,
    LocdomError,
    RefusedScale,
    TwinsPresent,
    VerificationFailed,
)

EXIT_PARSE = 2
EXIT_TWINS = 3
EXIT_SCALE = 4
EXIT_BOUND = 5

# first match wins, so the LocdomError catch-all comes last
_EXIT_CODES = (
    (TwinsPresent, EXIT_TWINS),
    (RefusedScale, EXIT_SCALE),
    (BoundViolation, EXIT_BOUND),
    (LocdomError, EXIT_PARSE),
)

SOLVE_CEILING_DEFAULT = solver.MIN_SET_CEILING


def _default_max_exact() -> int:
    env = os.environ.get("LOCDOM_MAX_EXACT")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.BadParameter(f"LOCDOM_MAX_EXACT={env!r} is not an integer")
    return bound.EXACT_CEILING_DEFAULT


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _parse_graph_text(text: str) -> graphs.Graph:
    """Auto-detect edge-list ('n <count>' header) vs graph6."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n "):
            return graphs.parse_edge_list(text)
        return graphs.decode_graph6(line)
    raise LocdomError("no graph found in input")


def _load_graph(path: str) -> graphs.Graph:
    try:
        return _parse_graph_text(_read_input(path))
    except LocdomError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _vs(s: int) -> list[int]:
    return list(graphs.members(s))


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _base_record(g: graphs.Graph) -> dict:
    return {
        "graph_id": graphs.encode_graph6(g),
        "n": g.n,
        "m": g.edge_count,
        "twin_free": graphs.is_twin_free(g),
    }


def _reverify(g: graphs.Graph, l_witness: int, ld_witness: int) -> None:
    """Re-check witnesses before they are serialized."""
    if not location.is_locating(g, l_witness):
        raise VerificationFailed("locating witness failed re-verification")
    if not location.is_locating_dominating(g, ld_witness):
        raise VerificationFailed("locating-dominating witness failed re-verification")


def _bound_record(g: graphs.Graph, mode: str, max_exact: int) -> dict:
    report = bound.construct_ld(g, mode=mode, max_exact=max_exact)
    _reverify(g, report.witness, report.ld_witness)
    return {
        "mode": report.mode,
        "certified": report.certified,
        "l_upper": report.witness_size,
        "l_witness": _vs(report.witness),
        "ld_upper": report.ld_witness_size,
        "ld_witness": _vs(report.ld_witness),
        "S": report.s_value,
        "k": report.k,
        "candidates": {c.tag: {"size": c.size, "locating": c.locating} for c in report.candidates},
    }


class _Timer:
    """Per-phase wall-clock milliseconds for single-graph reports.

    Corpus records deliberately omit timings so output stays byte-identical
    across runs and worker counts.
    """

    def __init__(self):
        self.phases: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.phases[phase] = round((now - self._t0) * 1000, 3)
        self._t0 = now


class _Workbench(click.Group):
    """Reports a LocdomError from any command as one line and its exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except LocdomError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))


@click.group(cls=_Workbench)
def main() -> None:
    """Locating-dominating set workbench."""


@main.command()
@click.argument("input", default="-")
def check(input: str) -> None:
    """Parse a graph and report twins and basic stats."""
    timer = _Timer()
    g = _load_graph(input)
    timer.mark("parse")
    record = _base_record(g)
    record["twins"] = [[t.u, t.v, t.kind] for t in graphs.find_twins(g)]
    timer.mark("twins")
    record["timings_ms"] = timer.phases
    click.echo(_dumps(record))


@main.command(name="bound")
@click.argument("input", default="-")
@click.option("--mode", type=click.Choice(["exact", "heuristic"]), default="exact")
@click.option("--max-exact", type=int, default=None)
def bound_cmd(input: str, mode: str, max_exact: int | None) -> None:
    """Run the constructive bound pipeline and print the candidate table."""
    timer = _Timer()
    g = _load_graph(input)
    timer.mark("parse")
    ceiling = max_exact if max_exact is not None else _default_max_exact()
    record = _base_record(g)
    record.update(_bound_record(g, mode, ceiling))
    timer.mark("construct")
    record["timings_ms"] = timer.phases
    click.echo(_dumps(record))


@main.command()
@click.argument("input", default="-")
@click.option("--ceiling", type=int, default=SOLVE_CEILING_DEFAULT)
def solve(input: str, ceiling: int) -> None:
    """Exact minimum locating and locating-dominating sets."""
    timer = _Timer()
    g = _load_graph(input)
    timer.mark("parse")
    record = _base_record(g)
    l_opt = solver.min_locating(g, ceiling=ceiling)
    ld_opt = solver.min_locating_dominating(g, ceiling=ceiling)
    timer.mark("solve")
    record["timings_ms"] = timer.phases
    _reverify(g, l_opt.witness, ld_opt.witness)
    record.update(
        {
            "l_exact": l_opt.size,
            "l_witness": _vs(l_opt.witness),
            "ld_exact": ld_opt.size,
            "ld_witness": _vs(ld_opt.witness),
        }
    )
    click.echo(_dumps(record))


@main.command()
@click.argument("input", default="-")
def partition2(input: str) -> None:
    """Search for a bipartition into two locating sets."""
    g = _load_graph(input)
    record = _base_record(g)
    w = solver.two_locating_partition(g)
    record.update({"q1_found": w.found, "x": _vs(w.x), "y": _vs(w.y)})
    if not w.found and w.twin_free:
        click.echo("NOTE: twin-free graph with no two-locating-set partition", err=True)
    click.echo(_dumps(record))


# negative numbers pass as arguments, so the command's own check reports them
_NUMERIC_ARGS = {"ignore_unknown_options": True}


@main.command(context_settings=_NUMERIC_ARGS)
@click.argument("input", default="-")
@click.argument("k", type=int)
def sk(input: str, k: int) -> None:
    """Maximum summed separation score over k-partitions of V."""
    g = _load_graph(input)
    record = _base_record(g)
    res = solver.s_k_of_graph(g, k)
    record.update(
        {"k": k, "s_k": res.value, "blocks": [_vs(b) for b in res.witness_partition]}
    )
    click.echo(_dumps(record))


# ---------------------------------------------------------------------------
# Corpus sweeps.


def _corpus_record(args: tuple[int, str, dict]) -> dict:
    index, line, opt = args
    record: dict = {"index": index}
    try:
        g = graphs.decode_graph6(line)
    except LocdomError as exc:
        record["error"] = str(exc)
        record["input"] = line
        return record
    record.update(_base_record(g))
    if record["twin_free"]:
        try:
            _twin_free_fields(g, opt, record)
        except LocdomError as exc:  # one failing record must not end the sweep
            record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _twin_free_fields(g: graphs.Graph, opt: dict, record: dict) -> None:
    """Add the bound, the oracles and q1 to the record of a twin-free graph."""
    mode = "exact" if g.n <= opt["max_exact"] else "heuristic"
    try:
        record.update(_bound_record(g, mode, opt["max_exact"]))
    except BoundViolation as exc:
        record["bound_violation"] = str(exc)
    if g.n <= opt["solve_ceiling"]:
        l_opt = solver.min_locating(g, ceiling=opt["solve_ceiling"])
        ld_opt = solver.min_locating_dominating(g, ceiling=opt["solve_ceiling"])
        record["l_exact"] = l_opt.size
        record["ld_exact"] = ld_opt.size
        record["conjecture_half"] = 2 * ld_opt.size <= g.n + (g.n & 1)
    if opt["q1"] and g.n <= solver.PARTITION2_CEILING:
        record["q1_found"] = solver.two_locating_partition(g).found


@main.command()
@click.argument("source")
@click.option("--jobs", type=int, default=1)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--max-exact", type=int, default=None)
@click.option("--solve-ceiling", type=int, default=SOLVE_CEILING_DEFAULT)
@click.option("--no-q1", is_flag=True, default=False)
def corpus(source, jobs, out, max_exact, solve_ceiling, no_q1) -> None:
    """Sweep a corpus: SOURCE is a file of graph6 lines, '-' for stdin,
    or a generator spec 'all:N' for every labeled graph on N vertices."""
    if source.startswith("all:"):
        try:
            n = int(source.split(":", 1)[1])
        except ValueError:
            raise InvalidParameter(f"bad vertex count in {source!r}") from None
        lines = [graphs.encode_graph6(g) for g in graphs.all_labeled_graphs(n)]
    else:
        text = _read_input(source)
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    opt = {
        "max_exact": max_exact if max_exact is not None else _default_max_exact(),
        "solve_ceiling": solve_ceiling,
        "q1": not no_q1,
    }
    tasks = [(i, line, opt) for i, line in enumerate(lines)]
    per_n: dict[int, dict] = {}
    failed = 0
    violations = []
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(out, "w", encoding="ascii")) if out else sys.stdout
        if jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            # at least four chunks per worker, so a short corpus still spreads out
            chunksize = max(1, min(64, len(tasks) // (4 * jobs)))
            records = pool.map(_corpus_record, tasks, chunksize=chunksize)
        else:
            records = map(_corpus_record, tasks)
        for record in records:
            sink.write(_dumps(record) + "\n")
            if "error" in record:
                failed += 1
                click.echo(f"error: line {record['index'] + 1}: {record['error']}", err=True)
                continue
            stats = per_n.setdefault(
                record["n"],
                {"graphs": 0, "twin_free": 0, "max_ld": 0, "bound_violations": 0, "q1_not_found": 0},
            )
            stats["graphs"] += 1
            if record["twin_free"]:
                stats["twin_free"] += 1
                ld = record.get("ld_exact", record.get("ld_upper"))
                if ld is not None:
                    stats["max_ld"] = max(stats["max_ld"], ld)
                if "bound_violation" in record:
                    stats["bound_violations"] += 1
                    violations.append(record["graph_id"])
                if record.get("q1_found") is False:
                    stats["q1_not_found"] += 1
    summary = sys.stdout if out else sys.stderr
    summary.write("n,graphs,twin_free,max_ld,bound_violations,q1_not_found\n")
    for n in sorted(per_n):
        s = per_n[n]
        summary.write(
            f"{n},{s['graphs']},{s['twin_free']},{s['max_ld']},"
            f"{s['bound_violations']},{s['q1_not_found']}\n"
        )
    for g6 in violations:
        click.echo(f"BOUND VIOLATION: {g6}", err=True)
    if violations:
        sys.exit(EXIT_BOUND)
    if failed:
        sys.exit(EXIT_PARSE)


@main.command(context_settings=_NUMERIC_ARGS)
@click.argument("kind", type=click.Choice(list(graphs.GENERATOR_KINDS) + ["all"]))
@click.argument("n", type=int)
@click.option("--p", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--count", type=int, default=1, help="gnp only: graphs for seeds seed..seed+count-1")
def gen(kind, n, p, seed, count) -> None:
    """Emit generated graphs as graph6 lines."""
    if kind == "all":
        for g in graphs.all_labeled_graphs(n):
            click.echo(graphs.encode_graph6(g))
    elif kind == "gnp":
        for i in range(count):
            g = graphs.generate("gnp", n, p, None if seed is None else seed + i)
            click.echo(graphs.encode_graph6(g))
    else:
        click.echo(graphs.encode_graph6(graphs.generate(kind, n)))


@main.command()
@click.argument("input", default="-")
@click.option("--to", "fmt", type=click.Choice(["g6", "edgelist"]), required=True)
def convert(input: str, fmt: str) -> None:
    """Convert between graph6 and edge-list formats."""
    g = _load_graph(input)
    if fmt == "g6":
        click.echo(graphs.encode_graph6(g))
    else:
        click.echo(f"n {g.n}")
        for u, v in g.edges():
            click.echo(f"{u} {v}")


if __name__ == "__main__":
    main()
