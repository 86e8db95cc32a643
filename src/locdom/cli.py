"""Command-line workbench: single-graph analysis, corpus sweeps, reports.

Exit codes: 0 success.  A locdom error is one ``error:`` line and the code
of its class in _EXIT_CODES: InvalidInput 2, VerificationFailed 2,
TwinsPresent 3, RefusedScale 4, BoundViolation 5, LocdomError 2.  A usage
error (an unknown option or command, a bad option value) is one ``error:``
line too, and exits 2; a bare ``locdom`` prints its help.  Any other
exception is a bug and exits 1 with its traceback.  Single-graph commands
print one JSON report that depends on the input alone, so the same input
gives the same bytes (no wall-clock timings ride in it); ``corpus`` streams
JSON-lines records (one per input graph, in input order regardless of
--jobs) and a CSV summary.  A corpus runs its chunks in process until the
chunks left, at the mean time of those done, would outlast a pool's
start-up; only then does it load the process pool and the multiprocessing
machinery behind it, so every other command, and a short corpus at any
--jobs, starts without them.  ``bound``
and every twin-free corpus record take one certified path at any n: the
exact pipeline, which leaves through the first split of V into two
locating sets; only a graph with no split runs the full sums, refused
above bound.EXACT_CEILING_DEFAULT.  A record that fails gets an ``error``
field and the sweep goes on; it exits 5 if a record had a bound
violation, which outranks the 2 of a failed record.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import traceback
from collections import deque
from functools import partial
from itertools import chain, islice
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Iterator

import click

from . import bound, errors, graphs, location, solver
from .errors import BoundViolation, InvalidInput, LocdomError, RefusedScale, TwinsPresent, VerificationFailed

if TYPE_CHECKING:  # at run time only _process_pool imports the pool
    from concurrent.futures import Executor, Future

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


def _open_output(path: str):
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from None


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None


def _parse_graph_text(text: str) -> graphs.Graph:
    """Auto-detect edge-list (an 'n <count>' header, found by its first
    token) vs graph6, which must hold one graph line: a file of many is read
    by corpus."""
    lines = [line for _, line in graphs.graph6_lines(text)]
    if not lines:
        raise InvalidInput("no graph found in input")
    if lines[0].split()[:1] == ["n"]:
        return graphs.parse_edge_list(text)
    if len(lines) > 1:
        raise InvalidInput(f"{len(lines)} graph6 lines, not one; use corpus to read many graphs")
    return graphs.decode_graph6(lines[0])


def _load_graph(path: str) -> graphs.Graph:
    text = _read_input(path)
    try:
        return _parse_graph_text(text)
    except LocdomError as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def _vs(s: int) -> list[int]:
    return list(graphs.members(s))


# one encoder for every record: json.dumps with options builds a new one per
# call; records are trees built here, so the cycle check only costs time
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_dumps = _ENCODER.encode


def _base_record(g: graphs.Graph, graph_id: str | None = None) -> dict:
    """The fields of every record; graph_id is the graph6 of g, encoded
    here when the caller does not already have it."""
    return {
        "graph_id": graphs.encode_graph6(g) if graph_id is None else graph_id,
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


def _oracles(g: graphs.Graph, ceiling: int) -> tuple[solver.OptimumWitness, solver.OptimumWitness]:
    """The exact minimum locating and locating-dominating sets, each witness
    re-checked.  The oracles share their planes with the bound's split
    search, so the set-based check is what keeps them from vouching for
    each other."""
    l_opt = solver.min_locating(g, ceiling=ceiling)
    ld_opt = solver.min_locating_dominating(g, ceiling=ceiling)
    _reverify(g, l_opt.witness, ld_opt.witness)
    return l_opt, ld_opt


def _bound_record(g: graphs.Graph) -> dict:
    report = bound.construct_ld(g)
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


def _at_least(floor: int, ctx: click.Context, param: click.Parameter, value: int) -> int:
    """The click callback, bound to a floor by partial, that rejects an int
    option below it as misuse: one error line and exit 2."""
    return errors.require_at_least(param.opts[0], floor, value)


@contextlib.contextmanager
def _one_line_errors() -> Iterator[None]:
    """Report a LocdomError as one ``error:`` line and its exit code, and a
    click usage error (a bad option, argument or command name) as one
    ``error:`` line and exit 2; a bare ``locdom`` still prints its help."""
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:  # click >= 8.2: shows the help
        raise
    except click.UsageError as exc:
        # click wraps some messages (a choice's list of values) over lines
        click.echo(f"error: {' '.join(exc.format_message().split())}", err=True)
        sys.exit(exc.exit_code)
    except LocdomError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))


class _Workbench(click.Group):
    """Reports an error from the group's own options or from any command
    through _one_line_errors."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _one_line_errors():
            return super().invoke(ctx)


@click.group(cls=_Workbench)
def main() -> None:
    """Locating-dominating set workbench."""


@main.command()
@click.argument("input", default="-")
def check(input: str) -> None:
    """Parse a graph and report twins and basic stats."""
    g = _load_graph(input)
    record = _base_record(g)
    record["twins"] = [[t.u, t.v, t.kind] for t in graphs.find_twins(g)]
    click.echo(_dumps(record))


@main.command(name="bound")
@click.argument("input", default="-")
def bound_cmd(input: str) -> None:
    """Run the certified bound pipeline and print the candidate table."""
    g = _load_graph(input)
    record = _base_record(g)
    record.update(_bound_record(g))
    click.echo(_dumps(record))


@main.command()
@click.argument("input", default="-")
@click.option("--ceiling", type=int, default=solver.MIN_SET_CEILING, callback=partial(_at_least, 0))
def solve(input: str, ceiling: int) -> None:
    """Exact minimum locating and locating-dominating sets."""
    g = _load_graph(input)
    record = _base_record(g)
    l_opt, ld_opt = _oracles(g, ceiling)
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
    # re-checked before it is serialized
    if w.found and not (
        w.x ^ w.y == g.full_set and location.is_locating(g, w.x) and location.is_locating(g, w.y)
    ):
        raise VerificationFailed("bipartition witness failed re-verification")
    record.update({"q1_found": w.found, "x": _vs(w.x), "y": _vs(w.y)})
    if not w.found and record["twin_free"]:
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
# Corpus sweeps.  The unit of work is a chunk of consecutive records: a
# worker builds each graph, computes its record and serializes it, and hands
# back the JSON lines with their _Tally; the parent writes the lines in input
# order and merges the tallies.

# records per chunk at most: enough that handing a chunk over costs far less
# than computing it, few enough that the last chunks still spread over the
# workers
_CHUNK_MAX = 256

_SUMMARY_FIELDS = ("graphs", "twin_free", "max_ld", "bound_violations", "q1_not_found")


class _Tally:
    """What the CSV summary, the error lines and the exit code need of some records."""

    def __init__(self) -> None:
        self.per_n: dict[int, list[int]] = {}  # n -> the _SUMMARY_FIELDS
        self.errors: list[tuple[int, str]] = []  # (index, message)
        self.violations: list[str] = []  # graph6 of each bound violation

    def add(self, record: dict) -> None:
        """Count a record whose graph was built, failed or not; a failed
        one adds nothing to max_ld or q1_not_found, as its fields may stop
        short."""
        if "error" in record:
            self.errors.append((record["index"], record["error"]))
        if "n" not in record:  # the graph was never built
            return
        stats = self.per_n.setdefault(record["n"], [0] * len(_SUMMARY_FIELDS))
        stats[0] += 1
        if not record["twin_free"]:
            return
        stats[1] += 1
        if "bound_violation" in record:
            stats[3] += 1
            self.violations.append(record["graph_id"])
        if "error" in record:
            return
        ld = record.get("ld_exact", record.get("ld_upper"))
        if ld is not None:
            stats[2] = max(stats[2], ld)
        if record.get("q1_found") is False:
            stats[4] += 1

    def merge(self, other: "_Tally") -> None:
        for n, theirs in other.per_n.items():
            ours = self.per_n.setdefault(n, [0] * len(_SUMMARY_FIELDS))
            ours[:] = [
                max(a, b) if field == "max_ld" else a + b
                for field, a, b in zip(_SUMMARY_FIELDS, ours, theirs)
            ]
        self.errors += other.errors
        self.violations += other.violations


def _corpus_chunk(task: tuple) -> tuple[str, _Tally]:
    """The records of one chunk as JSON lines, and their tally.

    task is (build, first, items, opt): item i of items is record first + i,
    and build turns it into its graph and graph6 id (_file_graph for the
    lines of a file, _pattern_graph(n, .) for the pattern indices of all:N).
    """
    build, first, items, opt = task
    lines = []
    tally = _Tally()
    for index, item in enumerate(items, first):
        record = _corpus_record(build, index, item, opt)
        tally.add(record)
        lines.append(_dumps(record) + "\n")
    return "".join(lines), tally


def _file_graph(line: str) -> tuple[graphs.Graph, str]:
    """A graph6 line's graph, and its graph6 encoded again from the graph."""
    g = graphs.decode_graph6(line)
    return g, graphs.encode_graph6(g)


def _pattern_graph(n: int, m: int) -> tuple[graphs.Graph, str]:
    """Graph m of all:n, and its graph6 encoded from m itself."""
    return graphs.labeled_graph(n, m), graphs.encode_pattern(n, m)


def _corpus_record(build, index: int, item, opt: dict) -> dict:
    record: dict = {"index": index}
    try:
        g, graph_id = build(item)
    except LocdomError as exc:
        record["error"] = str(exc)
        record["input"] = item
        return record
    record.update(_base_record(g, graph_id))
    if record["twin_free"]:
        try:
            _twin_free_fields(g, opt, record)
        except Exception as exc:  # one failing record, whatever the cause, must not end the sweep
            if not isinstance(exc, LocdomError):
                traceback.print_exc()  # a bug, not a rejected graph: show where it happened
            record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _twin_free_fields(g: graphs.Graph, opt: dict, record: dict) -> None:
    """Add the bound, the oracles and q1 to the record of a twin-free graph.

    The record takes q1_found from its S: S = n exactly when V splits into
    two locating sets, and with S = n strict candidate_sets has just found
    both sides of that split (eq1 = a and eq2 = V \\ a) locating with the
    set-based is_locating.  A record whose bound raised BoundViolation has
    no S, and so no q1_found.
    """
    try:
        record.update(_bound_record(g))
    except BoundViolation as exc:
        record["bound_violation"] = str(exc)
    if g.n <= opt["solve_ceiling"]:
        l_opt, ld_opt = _oracles(g, opt["solve_ceiling"])
        record["l_exact"] = l_opt.size
        record["ld_exact"] = ld_opt.size
        record["conjecture_half"] = 2 * ld_opt.size <= g.n + (g.n & 1)
    if opt["q1"] and "S" in record:
        record["q1_found"] = record["S"] == g.n


def _in_order(pool: Executor, fn, tasks: Iterable, window: int) -> Iterator:
    """fn over tasks on the pool, results in task order.

    Tasks are pulled only as results are taken, so at most window of them
    are pulled and not yet taken.
    """
    pending: deque[Future] = deque()
    for task in tasks:
        pending.append(pool.submit(fn, task))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _process_pool(workers: int) -> Executor:
    """A pool of worker processes, imported here: its module pulls in
    multiprocessing, socket and pickle, which every other command and an
    in-process corpus would load for nothing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


# what a pool costs beyond its records, measured with Python 3.11 on a 2-CPU
# x86-64 host: about 20 ms to import concurrent.futures.process and
# multiprocessing, 11 ms to fork two workers and get their first results,
# and 3 ms to shut them down
_POOL_START_S = 0.035


def _chunks(
    tasks: Iterator[tuple], count: int, workers: int, stack: contextlib.ExitStack
) -> Iterator[tuple[str, _Tally]]:
    """_corpus_chunk over the count tasks, results in task order.

    Chunks run in process until the chunks left, at the mean time of those
    done, would take as long as starting a pool; the rest of tasks then go
    to a pool of min(workers, chunks left) processes, entered on stack, and
    with fewer than two left no pool starts.  The first chunk always runs
    in process, as nothing has been timed before it.  Records depend on
    their input alone, so the output is the same wherever a chunk runs.
    """
    spent = 0.0
    for done in range(count):
        workers = min(workers, count - done)
        if workers > 1 and done and spent / done * (count - done) >= _POOL_START_S:
            yield from _in_order(stack.enter_context(_process_pool(workers)), _corpus_chunk, tasks, 2 * workers)
            return
        t = perf_counter()
        result = _corpus_chunk(next(tasks))
        spent += perf_counter() - t
        yield result


@main.command()
@click.argument("source")
@click.option(
    "--jobs",
    type=int,
    default=1,
    callback=partial(_at_least, 1),
    help="worker processes at most; no more run than usable CPUs or chunks, "
    "none start until the work left would outlast their start-up, "
    "and the output is byte-identical at any count",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--solve-ceiling", type=int, default=solver.MIN_SET_CEILING, callback=partial(_at_least, 0))
@click.option("--no-q1", is_flag=True, default=False)
def corpus(source, jobs, out, solve_ceiling, no_q1) -> None:
    """Sweep a corpus: SOURCE is a file of graph6 lines, '-' for stdin,
    or a generator spec 'all:N' for every labeled graph on N vertices."""
    if source.startswith("all:"):
        try:
            n = int(source.split(":", 1)[1])
        except ValueError:
            raise InvalidInput(f"bad vertex count in {source!r}") from None
        build, items = partial(_pattern_graph, n), range(graphs.labeled_graph_count(n))
        line_numbers = range(1, len(items) + 1)
    else:
        text = _read_input(source)
        build = _file_graph
        numbered = graphs.graph6_lines(text)
        line_numbers = [i for i, _ in numbered]
        items = [line for _, line in numbered]
    opt = {"solve_ceiling": solve_ceiling, "q1": not no_q1}
    # a pool forks all its workers at the first submit, so it gets no more
    # than can run at once; the output is the same
    workers = min(jobs, _usable_cpus())
    # at least four chunks per worker, so a short corpus still spreads out
    size = max(1, min(_CHUNK_MAX, len(items) // (4 * workers)))
    tasks = ((build, i, items[i : i + size], opt) for i in range(0, len(items), size))
    tally = _Tally()
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(_open_output(out)) if out else sys.stdout
        for lines, part in _chunks(tasks, -(-len(items) // size), workers, stack):
            sink.write(lines)
            for index, error in part.errors:
                click.echo(f"error: line {line_numbers[index]}: {error}", err=True)
            tally.merge(part)
    summary = sys.stdout if out else sys.stderr
    summary.write("n," + ",".join(_SUMMARY_FIELDS) + "\n")
    for n in sorted(tally.per_n):
        summary.write(",".join(map(str, [n, *tally.per_n[n]])) + "\n")
    for g6 in tally.violations:
        click.echo(f"BOUND VIOLATION: {g6}", err=True)
    if tally.violations:
        sys.exit(EXIT_BOUND)
    if tally.errors:
        sys.exit(EXIT_PARSE)


# lines per write of gen and convert
_LINE_CHUNK = 4096


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout, one write per _LINE_CHUNK
    lines: click.echo flushes after every line, and gen all 7 is two million
    lines."""
    lines = iter(lines)
    while chunk := "".join(line + "\n" for line in islice(lines, _LINE_CHUNK)):
        sys.stdout.write(chunk)


@main.command(context_settings=_NUMERIC_ARGS)
@click.argument("kind", type=click.Choice(list(graphs.GENERATOR_KINDS) + ["all"]))
@click.argument("n", type=int)
@click.option("--p", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option(
    "--count", type=int, default=1, callback=partial(_at_least, 1), help="gnp only: graphs for seeds seed..seed+count-1"
)
def gen(kind, n, p, seed, count) -> None:
    """Emit generated graphs as graph6 lines."""
    if kind != "gnp":
        for name, given in (("--p", p is not None), ("--seed", seed is not None), ("--count", count != 1)):
            if given:
                raise InvalidInput(f"{name} applies to gnp only")
    if kind == "all":
        # graph m of all:n is labeled_graph(n, m), whose graph6 encode_pattern
        # writes off m alone, so no graph is built
        lines = map(partial(graphs.encode_pattern, n), range(graphs.labeled_graph_count(n)))
    elif kind == "gnp":
        seeds = (None if seed is None else seed + i for i in range(count))
        lines = (graphs.encode_graph6(graphs.generate("gnp", n, p, s)) for s in seeds)
    else:
        lines = [graphs.encode_graph6(graphs.generate(kind, n))]
    _write_lines(lines)


@main.command()
@click.argument("input", default="-")
@click.option("--to", "fmt", type=click.Choice(["g6", "edgelist"]), required=True)
def convert(input: str, fmt: str) -> None:
    """Convert between graph6 and edge-list formats."""
    g = _load_graph(input)
    if fmt == "g6":
        click.echo(graphs.encode_graph6(g))
    else:
        _write_lines(chain([f"n {g.n}"], (f"{u} {v}" for u, v in g.edges())))


if __name__ == "__main__":
    main()
