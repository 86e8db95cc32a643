"""Benchmark for locdom: three workloads, every output checked, one JSON result.

    python3 perfbench/run.py --workload sweep6 --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is used from ``src`` with no
install.  Workloads (see METRICS.md for why each was chosen):

  sweep6       ``python -m locdom.cli corpus all:6`` at --jobs 1 and --jobs 2
  exact-large  certified exact ``construct_ld`` on twin-free graphs, n = 14..18
  tools        ``s_k_of_graph``, ``two_locating_partition``, heuristic ``construct_ld``

With ``--trace 0`` the run times set-up nine times, then alternates a
single-process pass and a two-process pass over the same inputs until the
passes would add up to more than ``--seconds``, and reports medians in
reference seconds: wall time rescaled by ``speed.py``'s measure of how fast
the host ran each CPU at that moment (METRICS.md says why).  With
``--trace 1`` it makes one pass of each, then an untraced and a traced
in-process replay of the workload, and reports per-layer metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, each metric a
``{"value", "unit"}`` pair in the unit BENCHMARK.json gives; the line before it holds
the environment, the raw samples and the first failure messages.  Exit code
2 means the benchmark could not run at all (no ``src/locdom`` beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checker
import selftest
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep6", "exact-large", "tools")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # every child is killed before the run as a whole reaches this


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
    }


def git_commit() -> str | None:
    """HEAD of a git checkout at the root, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Interval(NamedTuple):
    """A timed child: when it ran, its peak RSS, exit code and stdout."""

    start: float
    end: float
    rss_mb: float
    exit: int
    stdout: str

    @property
    def wall(self) -> float:
        return self.end - self.start


class SpeedSamplers:
    """``speed.py`` processes, one per CPU, running for the whole timed run."""

    def __init__(self, run: "Run", cpus: list[int]):
        self.paths = {cpu: run.path(f"speed-{cpu}.json") for cpu in cpus}
        self.procs = [
            subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(path), str(cpu)], cwd=ROOT, env=run.env)
            for cpu, path in self.paths.items()
        ]
        self.samples: dict[int, list] = {}

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for cpu, path in self.paths.items():
            self.samples[cpu] = json.loads(path.read_text()) if path.exists() else []

    def reference_s(self, cpus: tuple[int, ...], start: float, end: float) -> float:
        """The interval [start, end] in seconds at the reference speed.

        Each slice of the interval is scaled by NOMINAL_S over the kernel
        time measured on that CPU at that moment (a running median of five
        samples), so drift inside a long pass is followed, not averaged.
        With several CPUs the result is their mean.
        """
        out = []
        for cpu in cpus:
            samples = self.samples[cpu]
            mids = [(s + e) / 2 for s, e, _ in samples]
            kernel = [statistics.median(c for _, _, c in samples[max(0, i - 2):i + 3]) for i in range(len(samples))]
            total = 0.0
            for i, mid in enumerate(mids):
                lo = (mids[i - 1] + mid) / 2 if i else float("-inf")
                hi = (mid + mids[i + 1]) / 2 if i + 1 < len(mids) else float("inf")
                total += max(0.0, min(hi, end) - max(lo, start)) * speed.NOMINAL_S / kernel[i]
            out.append(total)
        return statistics.mean(out)


class Run:
    """One benchmark run: children, checks and samples for one workload."""

    def __init__(self, workload: str, seed: int, tmp: Path, env_info: dict):
        self.workload = workload
        self.env_info = env_info
        self.seed = seed
        self.tmp = tmp
        self.t0 = perf_counter()
        self.tally = checker.Tally()
        self.golden = checker.load_golden()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cpus = sorted(os.sched_getaffinity(0))
        self.cpu_single = cpus[0]  # single-process children run pinned here
        self.cpus = cpus[:2]
        self.items: list[dict] = []
        self.graphs: dict[str, list[set[int]]] = {}
        self.timings: dict[str, list[tuple[float, float, float, tuple[int, ...]]]] = {}
        self.rss: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self.j1_results: list | None = None
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.tmp / f"{self._n:03d}-{stem}"

    def timing(self, name: str, ran: Interval, pinned: bool) -> None:
        """Record a timed interval with the CPUs it ran on: ``cpu_single`` if pinned."""
        cpus = (self.cpu_single,) if pinned else tuple(self.cpus)
        self.timings.setdefault(name, []).append((ran.wall, ran.start, ran.end, cpus))

    def child(self, argv: list[str], pinned: bool) -> Interval:
        """Run a child to completion through ``launch.py``.

        A pinned child runs on ``cpu_single``.  The whole process group is
        killed if it would outlast the run's time limit.
        """
        out_path, err_path, res_path = self.path("stdout"), self.path("stderr"), self.path("launch.json")
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - self.t0))
        cpu = str(self.cpu_single) if pinned else "-"
        launcher = [sys.executable, str(HERE / "launch.py"), str(res_path), cpu]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(launcher + argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
        res = json.loads(res_path.read_text()) if res_path.exists() else {"start": 0.0, "end": float("nan"), "maxrss_kb": 0, "exit": -9}
        if res["exit"] != 0:
            err_tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"child {argv[1:4]} exited {res['exit']}: {err_tail}", file=sys.stderr)
        return Interval(res["start"], res["end"], res["maxrss_kb"] / 1024, res["exit"], out_path.read_text(errors="replace"))

    def worker(self, mode: str, arg: str, pinned: bool) -> tuple[Interval, str | None]:
        """Run worker.py in MODE: the child's interval and its JSON text or None."""
        out = self.path(f"{mode}.json")
        ran = self.child([sys.executable, str(HERE / "worker.py"), mode, self.workload, arg, str(out)], pinned)
        return ran, out.read_text() if ran.exit == 0 else None

    def worker_doc(self, mode: str, pinned: bool) -> tuple[Interval, dict | None]:
        ran, text = self.worker(mode, str(self.inputs_path), pinned)
        return ran, json.loads(text) if text else None

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats: int) -> bool:
        """Fresh interpreters import locdom and build the inputs; all must agree."""
        texts = set()
        for i in range(repeats + 1):  # the first one only warms caches
            ran, text = self.worker("setup", str(self.seed), pinned=True)
            if text is None:
                self.tally.item("setup", ["input build failed"])
                return False
            if i:
                self.timing("setup_s", ran, pinned=True)
            texts.add(text)
        self.tally.item("setup", [] if len(texts) == 1 else ["the same seed built different inputs"])
        self.inputs_path = self.path("inputs.json")
        self.inputs_path.write_text(text)
        self.items = json.loads(text)["items"]
        return True

    # -- passes --------------------------------------------------------------

    def corpus(self, source: str, jobs: int, *flags: str) -> tuple[Interval, Path]:
        out = self.path(f"corpus-j{jobs}.jsonl")
        argv = [sys.executable, "-m", "locdom.cli", "corpus", source, "--jobs", str(jobs), "--out", str(out), *flags]
        return self.child(argv, pinned=jobs == 1), out

    def sweep_pass(self, jobs: int, full_check: bool) -> Interval:
        ran, out = self.corpus("all:6", jobs)
        digest = checker.sha256_file(out) if out.exists() else ""
        gate = checker.sweep_gate_faults(digest, ran.stdout.strip().splitlines(), ran.exit, self.golden["sweep6"])
        self.tally.item(f"corpus all:6 --jobs {jobs}", gate)
        if full_check and out.exists():
            records = [json.loads(line) for line in out.read_text().splitlines()]
            for rec in records:
                self.tally.item(f"all:6 record {rec.get('index')}", checker.sweep_record_faults(rec))
            self.j1_results = records
        return ran

    def item_faults(self, it: dict, rec: dict) -> list[str]:
        if "error" in rec:
            return [rec["error"]]
        nbr = self.graphs.get(it["g6"]) or self.graphs.setdefault(it["g6"], checker.decode_g6(it["g6"]))
        task = it["task"]
        if task == "exact":
            faults = checker.bound_record_faults(nbr, rec, self.golden["exact"][it["base"]])
            if "l_opt" in rec:
                faults += checker.optimum_faults(nbr, rec["l_exact"], set(rec["l_opt"]), False)
                faults += checker.optimum_faults(nbr, rec["ld_exact"], set(rec["ld_opt"]), True)
            if "l_exact" not in rec and len(nbr) <= 16:
                faults.append("oracle cross-check missing")
            return faults
        if task == "s_k":
            golden = self.golden["s_k"][it["base"]]
            if len(rec["values"]) != len(golden):
                return ["s_k missing values"]
            return [f for k, (v, b) in enumerate(zip(rec["values"], rec["blocks"]), 1) for f in checker.sk_faults(nbr, k, v, b, golden[k - 1])]
        if task == "p2":
            return checker.partition_faults(nbr, set(rec["x"]), set(rec["y"]), rec["found"], self.golden["p2"][it["base"]])
        if task == "heuristic":
            if len(rec["runs"]) != len(it["starts"]):
                return ["heuristic runs missing"]
            return [f for l, ld in rec["runs"] for f in checker.witness_faults(nbr, set(l), set(ld))]
        return [f"unknown task {task}"]

    def check_results(self, label: str, results: list[dict] | None, reference: list[dict] | None = None) -> None:
        """Check each item; with a reference, outputs must also equal it."""
        if results is None or len(results) != len(self.items):
            for it in self.items:
                self.tally.item(f"{label} {it['id']}", ["pass did not complete"])
            return
        for i, (it, rec) in enumerate(zip(self.items, results)):
            faults = self.item_faults(it, rec)
            if reference is not None and outputs(rec) != outputs(reference[i]):
                faults.append("output differs from the single-process pass")
            self.tally.item(f"{label} {it['id']}", faults)

    def single(self) -> Interval:
        """One single-process pass, pinned; its interval spans the pass alone."""
        if self.workload == "sweep6":
            return self.sweep_pass(1, full_check=self.j1_results is None)
        ran, doc = self.worker_doc("pass", pinned=True)
        results = doc and doc["results"]
        self.check_results("j1", results, self.j1_results)
        if self.j1_results is None and results is not None:
            self.j1_results = results
        return ran._replace(start=doc["start"], end=doc["end"]) if doc else ran

    def double(self) -> Interval:
        """The same inputs over two worker processes."""
        if self.workload == "sweep6":
            return self.sweep_pass(2, full_check=False)
        if self.workload == "tools":
            ran, doc = self.worker_doc("pool", pinned=False)
            self.check_results("j2", doc and doc["results"], self.j1_results)
            return ran._replace(start=doc["start"], end=doc["end"]) if doc else ran
        source = self.path("exact.g6")
        source.write_text("".join(it["g6"] + "\n" for it in self.items))
        ran, out = self.corpus(str(source), 2, "--no-q1")
        records = [json.loads(line) for line in out.read_text().splitlines()] if ran.exit == 0 else None
        self.check_results("corpus --jobs 2", records, self.j1_results)
        return ran

    # -- result --------------------------------------------------------------

    def timed(self, seconds: float) -> dict | None:
        samplers = SpeedSamplers(self, self.cpus)
        try:
            if not self.setup(SETUP_REPEATS):
                return None
            measured = 0.0
            while True:
                t = perf_counter()
                one = self.single()
                self.timing("wall_s", one, pinned=True)
                self.rss.append(one.rss_mb)
                two = self.double()
                self.timing("wall_s_j2", two, pinned=False)
                pair = perf_counter() - t
                measured += pair
                if measured + pair > seconds:
                    break
        finally:
            samplers.stop()
        if not all(samplers.samples.values()):
            self.tally.item("speed samplers", ["a speed sampler recorded nothing"])
            return None
        metrics = {"peak_rss_mb": statistics.median(self.rss)}
        for name, rows in self.timings.items():
            self.raw[name] = [wall for wall, *_ in rows]
            metrics[name] = statistics.median(samplers.reference_s(cpus, start, end) for _, start, end, cpus in rows)
        return metrics

    def traced(self) -> dict | None:
        if not self.setup(0):
            return None
        wall_s = self.single().wall
        wall_s_j2 = self.double().wall
        _, doc = self.worker_doc("trace", pinned=True)
        if doc is None:
            self.tally.item("traced replay", ["traced replay failed"])
            return None
        self.tally.item("traced replay", self.traced_faults(doc["results"]))
        return layer_metrics(self.workload, doc, wall_s, wall_s_j2, self.items, self.j1_results)

    def traced_faults(self, traced: list[dict]) -> list[str]:
        """The traced replay must give the witnesses the untraced pass gave."""
        if self.j1_results is None:
            return ["no untraced pass to compare with"]
        if self.workload == "sweep6":
            keys = ("graph_id", "twin_free", "S", "k", "l_witness", "ld_witness", "l_exact", "ld_exact", "q1_found")
            pairs = [({k: a.get(k) for k in keys}, {k: b.get(k) for k in keys}) for a, b in zip(traced, self.j1_results)]
        else:
            pairs = [(outputs(a), outputs(b)) for a, b in zip(traced, self.j1_results)]
        bad = sum(a != b for a, b in pairs) + abs(len(traced) - len(self.j1_results))
        return [f"{bad} traced outputs differ from the untraced pass"] if bad else []

    def finish(self, kind: str, metrics: dict | None = None) -> int:
        """Print the detail line and the result; ``kind`` names the manifest's metric list."""
        if selftest_problems := selftest.problems():
            self.tally.item("checker self-test", selftest_problems)
        if metrics is not None:
            metrics = with_units(kind, metrics, self.tally)
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "env": self.env_info,
            "raw": self.raw,
            "failures": self.tally.messages,
        }
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": self.tally.failed == 0 and metrics is not None,
            "attempted": max(1, self.tally.attempted),
            "failed": self.tally.failed,
            "metrics": metrics or {},
        }, sort_keys=True))
        return 0


def with_units(kind: str, values: dict, tally: checker.Tally) -> dict:
    """Each metric as ``{"value", "unit"}``, in the unit and set BENCHMARK.json lists."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in listed}
    if values.keys() != units.keys():
        tally.item("metric names", [f"metrics differ from BENCHMARK.json {kind}: {sorted(values.keys() ^ units.keys())}"])
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}


def outputs(rec: dict) -> dict:
    """A result without its timings and the corpus-only bookkeeping fields."""
    skip = ("item_s", "cert_s", "index", "graph_id", "m", "n", "twin_free", "mode", "candidates",
            "l_upper", "ld_upper", "conjecture_half", "l_opt", "ld_opt")
    return {k: v for k, v in rec.items() if k not in skip}


def layer_metrics(workload: str, doc: dict, wall_s: float, wall_s_j2: float, items: list, j1: list) -> dict:
    by = doc["by_name"]
    counts = doc["counts"]

    def self_s(name: str) -> float:
        return by.get(name, {}).get("self_s", 0.0)

    def per(name: str, units: int, scale: float) -> float:
        return self_s(name) / units * scale if units else 0.0

    def per_call(name: str, scale: float = 1e6) -> float:
        return per(name, by.get(name, {}).get("calls", 0), scale)

    def layer(prefix: str) -> float:
        return sum(v["self_s"] for k, v in by.items() if k.startswith(prefix + "."))

    traced_total = sum(v["self_s"] for v in by.values())
    in_layers = sum(layer(p) for p in ("graphs", "location", "bound", "solver"))

    def cert(n: int) -> float:
        times = [r["cert_s"] for it, r in zip(items, j1 or []) if "cert_s" in r and checker.order(it["g6"]) == n]
        return statistics.median(times) if times else 0.0

    m = {
        "graphs.all_labeled_graphs.us_per_graph": per("graphs.all_labeled_graphs", counts["enumerated"], 1e6),
        "graphs.encode_graph6.us_per_graph": per_call("graphs.encode_graph6"),
        "graphs.decode_graph6.us_per_graph": per_call("graphs.decode_graph6"),
        "graphs.is_twin_free.us_per_graph": per_call("graphs.is_twin_free"),
        "graphs.self_s": layer("graphs"),
        "location.extend_to_dominating.us_per_call": per_call("location.extend_to_dominating"),
        "location.verify.us_per_call": per_call("location.verify"),
        "location.self_s": layer("location"),
        "bound.max_score_exact.us_per_subset": per("bound.max_score_exact", counts["subsets"], 1e6),
        "bound.max_score_exact.self_s": self_s("bound.max_score_exact"),
        "bound.max_score_exact.subsets": counts["subsets"],
        "bound.maximizers": counts["maximizers"],
        "bound.decompose.us_per_call": per_call("bound.decompose"),
        "bound.candidate_sets.us_per_call": per_call("bound.candidate_sets"),
        "bound.heuristic.ms_per_graph": per_call("bound.heuristic", 1e3),
        "bound.self_s": layer("bound"),
        "bound.share": layer("bound") / traced_total if traced_total else 0.0,
        "bound.cert_s_n16": cert(16),
        "bound.cert_s_n18": cert(18),
        "solver.min_locating.us_per_subset": per("solver.min_locating", counts["min_locating"], 1e6),
        "solver.min_locating.subsets": counts["min_locating"],
        "solver.min_locating_dominating.us_per_subset": per(
            "solver.min_locating_dominating", counts["min_locating_dominating"], 1e6),
        "solver.min_locating_dominating.subsets": counts["min_locating_dominating"],
        "solver.two_locating_partition.us_per_bipartition": per(
            "solver.two_locating_partition", counts["bipartitions"], 1e6),
        "solver.two_locating_partition.bipartitions": counts["bipartitions"],
        "solver.s_k_of_graph.us_per_partition": per("solver.s_k_of_graph", counts["partitions"], 1e6),
        "solver.s_k_of_graph.partitions": counts["partitions"],
        "solver.self_s": layer("solver"),
        "cli.self_s": wall_s - in_layers if workload == "sweep6" else 0.0,
        "cli.j2_efficiency": wall_s / (2 * wall_s_j2),
        "trace.overhead_s": doc["traced_s"] - doc["untraced_s"],
        "trace.spans": doc["spans"],
        "trace.span_us": doc["span_s"] * 1e6,
    }
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "locdom" / "__init__.py").is_file():
        print(f"error: no locdom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_info = environment()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args.workload, args.seed, tmp, env_info)
        return run.finish("per_layer", run.traced()) if args.trace else run.finish("end_to_end", run.timed(args.seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
