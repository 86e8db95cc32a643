"""Reference-speed sampler: times a fixed pure-Python kernel on one CPU.

    speed.py OUT_JSON CPU

The sampler pins itself to CPU. It runs the kernel about every 0.1 s, which
takes roughly 4% of that CPU, and records (start, end, thread CPU seconds)
for each run. On SIGTERM it writes the samples to OUT_JSON and exits.

The kernel is the checker's set-based locating test on a fixed graph. It
uses no locdom code, so a change to the program cannot move it. Only the
speed the machine gives this CPU can. On a shared host that speed drifts by
tens of percent over minutes. ``run.py`` divides each timed pass by the
kernel's median time on the same CPU during that pass, which removes the
drift.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
from pathlib import Path
from time import perf_counter, sleep, thread_time

import checker

_RNG = random.Random(20240528)
GRAPH = [set() for _ in range(12)]
for _v in range(12):
    for _u in range(_v):
        if _RNG.random() < 0.3:
            GRAPH[_u].add(_v)
            GRAPH[_v].add(_u)
SUBSETS = [{v for v in range(12) if a >> v & 1} for a in range(0, 4096, 4)]
PERIOD_S = 0.1
NOMINAL_S = 0.004  # the kernel's typical time on the 2-CPU Xeon this was tuned on


def kernel() -> int:
    return sum(checker.is_locating(GRAPH, x) for x in SUBSETS)


def main(out_path: str, cpu: int) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass  # unpinned samples still track the machine, only less closely
    samples = []
    while not stop:
        start, c0 = perf_counter(), thread_time()
        kernel()
        samples.append((start, perf_counter(), thread_time() - c0))
        sleep(max(0.0, PERIOD_S - (perf_counter() - start)))
    Path(out_path).write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
