"""Child process of the benchmark: builds inputs, runs passes, replays traced.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    worker.py setup WORKLOAD SEED OUT      build the inputs and write them
    worker.py pass  WORKLOAD INPUTS OUT    one single-process pass, untraced
    worker.py pool  WORKLOAD INPUTS OUT    the same calls over two processes
    worker.py trace WORKLOAD INPUTS OUT    untraced replay, traced replay, counts

Each mode writes one JSON document to OUT.  A call that raises is recorded
as that item's ``error`` and the pass goes on.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from math import comb
from pathlib import Path
from time import perf_counter

import locdom.cli  # noqa: F401  (imported for its cost: users pay it on every command)
from locdom import bound, graphs, location, solver
from locdom.errors import TwinsPresent

import checker
import inputs


class Untraced:
    """The replays' tracer when nothing is recorded: a plain call."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans (name, start, end, parent span, item id), kept in memory.

    A span wraps one call into a package function made from the benchmark's
    own code; spans inside the package are not recorded.  The fields live in
    parallel lists of strings and floats, which the cyclic garbage collector
    does not track, so a long trace does not slow the code it measures.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[str | None] = []
        self._open = [-1]
        self.item = None

    def call(self, name, fn, *args):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.items.append(self.item)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self.ends[idx] = perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the durations of its children.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for d, parent in zip(dur, self.parents):
            if parent >= 0:
                child[parent] += d
        out: dict[str, dict] = {}
        for name, d, c in zip(self.names, dur, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - c
        return out


def _vs(mask: int) -> list[int]:
    return list(graphs.members(mask))


def _verify(g, witness: int, ld: int) -> bool:
    """The re-check the CLI makes before it serializes a bound record."""
    return location.is_locating(g, witness) and location.is_locating_dominating(g, ld)


# ---------------------------------------------------------------------------
# Stage-by-stage replays.  With ``Untraced`` they are plain calls; with a
# ``Tracer`` every call into the package becomes a span.


def replay_bound(tr, g) -> dict:
    """The exact pipeline in the order construct_ld runs it."""
    s_value, good = tr.call("bound.max_score_exact", bound.max_score_exact, g)
    d = tr.call("bound.decompose", bound.decompose, g, good, s_value)
    cands = tr.call("bound.candidate_sets", bound.candidate_sets, g, d, True)
    witness = min((c for c in cands if c.locating), key=lambda c: c.size).vertex_set
    ld = tr.call("location.extend_to_dominating", location.extend_to_dominating, g, witness)
    if not tr.call("location.verify", _verify, g, witness, ld):
        raise checker.CheckFailed("witness failed re-verification")
    return {"certified": True, "S": s_value, "k": d.k, "l_witness": _vs(witness), "ld_witness": _vs(ld)}


def replay_oracles(tr, g) -> dict:
    l_opt = tr.call("solver.min_locating", solver.min_locating, g)
    ld_opt = tr.call("solver.min_locating_dominating", solver.min_locating_dominating, g)
    return {"l_exact": l_opt.size, "l_opt": _vs(l_opt.witness), "ld_exact": ld_opt.size, "ld_opt": _vs(ld_opt.witness)}


def replay_item(tr, item: dict) -> dict:
    g = tr.call("graphs.decode_graph6", graphs.decode_graph6, item["g6"])
    task = item["task"]
    if task == "corpus":  # one record of ``corpus all:6``
        rec = {"graph_id": tr.call("graphs.encode_graph6", graphs.encode_graph6, g)}
        rec["twin_free"] = tr.call("graphs.is_twin_free", graphs.is_twin_free, g)
        if rec["twin_free"]:
            rec.update(replay_bound(tr, g))
            rec.update(replay_oracles(tr, g))
            w = tr.call("solver.two_locating_partition", solver.two_locating_partition, g)
            rec.update(q1_found=w.found, q1_x=_vs(w.x))
        return rec
    if task == "exact":
        if not tr.call("graphs.is_twin_free", graphs.is_twin_free, g):
            raise TwinsPresent("exact input has twins")
        rec = replay_bound(tr, g)
        if g.n <= solver.MIN_SET_CEILING:
            rec.update(replay_oracles(tr, g))
        return rec
    if task == "s_k":
        res = [tr.call("solver.s_k_of_graph", solver.s_k_of_graph, g, k) for k in range(1, g.n + 1)]
        return {"values": [r.value for r in res], "blocks": [[_vs(b) for b in r.witness_partition] for r in res]}
    if task == "p2":
        w = tr.call("solver.two_locating_partition", solver.two_locating_partition, g)
        return {"found": w.found, "x": _vs(w.x), "y": _vs(w.y)}
    if task == "heuristic":
        runs = []
        for s in item["starts"]:
            r = tr.call("bound.heuristic", bound.construct_ld, g, "heuristic", bound.EXACT_CEILING_DEFAULT, s)
            runs.append([_vs(r.witness), _vs(r.ld_witness)])
        return {"runs": runs}
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# Untraced single-item runs, as a user calls the package.


def run_item(item: dict) -> dict:
    """One item through the public entry points; errors are recorded."""
    t0 = perf_counter()
    try:
        g = graphs.decode_graph6(item["g6"])
        if item["task"] == "exact":
            t_cert = perf_counter()
            report = bound.construct_ld(g, mode="exact")
            if not _verify(g, report.witness, report.ld_witness):
                raise checker.CheckFailed("witness failed re-verification")
            rec = {
                "certified": report.certified,
                "S": report.s_value,
                "k": report.k,
                "l_witness": _vs(report.witness),
                "ld_witness": _vs(report.ld_witness),
                "cert_s": perf_counter() - t_cert,
            }
            if g.n <= solver.MIN_SET_CEILING:
                rec.update(replay_oracles(Untraced, g))
        else:
            rec = replay_item(Untraced, item)
    except Exception as exc:  # one failing item must not end the pass
        rec = {"error": f"{type(exc).__name__}: {exc}"}
    rec["item_s"] = perf_counter() - t0
    return rec


def _pass(items: list[dict]) -> dict:
    start = perf_counter()
    results = [run_item(it) for it in items]
    return {"start": start, "end": perf_counter(), "results": results}


def _pool(items: list[dict]) -> dict:
    start = perf_counter()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(run_item, items, chunksize=1))
    return {"start": start, "end": perf_counter(), "results": results}


# ---------------------------------------------------------------------------
# Work counts that repeat exactly from run to run.


def subsets_tested(n: int, witness: list[int]) -> int:
    """Subsets the increasing-cardinality oracle tries up to its witness.

    All smaller cardinalities, then the witness's lexicographic rank among
    the combinations of its own size, plus one for the witness itself.
    """
    r = len(witness)
    tested = sum(comb(n, s) for s in range(r))
    prev = -1
    for i, c in enumerate(witness):
        tested += sum(comb(n - 1 - j, r - 1 - i) for j in range(prev + 1, c))
        prev = c
    return tested + 1


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def work_counts(items: list[dict], results: list[dict]) -> dict:
    c = {"subsets": 0, "min_locating": 0, "min_locating_dominating": 0, "bipartitions": 0, "partitions": 0}
    for it, rec in zip(items, results):
        n = checker.order(it["g6"])
        if "S" in rec:
            c["subsets"] += 1 << n
        if "l_opt" in rec:
            c["min_locating"] += subsets_tested(n, rec["l_opt"])
            c["min_locating_dominating"] += subsets_tested(n, rec["ld_opt"])
        for found, x in ((rec.get("found"), rec.get("x")), (rec.get("q1_found"), rec.get("q1_x"))):
            if found is not None:
                c["bipartitions"] += (sum(1 << v for v in x) >> 1) + 1 if found else 1 << (n - 1)
        if "values" in rec:
            c["partitions"] += sum(stirling2(n, k) for k in range(1, n + 1))
    return c


def maximizers(items: list[dict], results: list[dict], max_n: int = 16) -> int:
    """Subsets attaining S, counted with score_sum over all 2^n subsets."""
    total = 0
    for it, rec in zip(items, results):
        if "S" not in rec:
            continue
        g = graphs.decode_graph6(it["g6"])
        if g.n <= max_n:
            total += sum(1 for a in range(1 << g.n) if bound.score_sum(g, a).sum == rec["S"])
    return total


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, from spans around an empty function."""
    def loop(tr):
        t0 = perf_counter()
        for _ in range(calls):
            tr.call("calibrate", int)
        return perf_counter() - t0

    return (loop(Tracer()) - loop(Untraced)) / calls


def _trace(items: list[dict]) -> dict:
    """Replay every item untraced and traced, alternating which goes first.

    Alternating item by item keeps drift in CPU speed out of the difference,
    which is the tracing overhead.
    """
    tr = Tracer()
    enumerated = 0
    if items and items[0]["task"] == "corpus":
        # the corpus builds its input lines before the first record
        glist = tr.call("graphs.all_labeled_graphs", list, graphs.all_labeled_graphs(6))
        lines = [tr.call("graphs.encode_graph6", graphs.encode_graph6, g) for g in glist]
        enumerated = len(glist)
        if lines != [it["g6"] for it in items]:
            raise checker.CheckFailed("enumeration differs from the workload inputs")
    seconds = {False: 0.0, True: 0.0}
    traced = []
    for i, it in enumerate(items):
        tr.item = it["id"]
        for use_tracer in (i % 2 == 1, i % 2 == 0):
            t0 = perf_counter()
            if use_tracer:
                traced.append(tr.call("bench.item", replay_item, tr, it))
            else:
                untraced = replay_item(Untraced, it)
            seconds[use_tracer] += perf_counter() - t0
        if untraced != traced[-1]:
            raise checker.CheckFailed(f"{it['id']}: traced replay differs from the untraced replay")
    return {
        "untraced_s": seconds[False],
        "traced_s": seconds[True],
        "spans": len(tr.names),
        "by_name": tr.summary(),
        "counts": dict(work_counts(items, traced), maximizers=maximizers(items, traced), enumerated=enumerated),
        "span_s": span_cost(),
        "results": traced,
    }


def main(argv: list[str]) -> int:
    mode, workload, arg, out = argv
    if mode == "setup":
        golden = checker.load_golden()
        doc = {"items": inputs.build(workload, int(arg), golden["gnp_seeds"])}
    else:
        items = json.loads(Path(arg).read_text())["items"]
        doc = {"pass": _pass, "pool": _pool, "trace": _trace}[mode](items)
    Path(out).write_text(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
