"""Run one command; write its wall time, peak RSS and exit code as JSON.

    launch.py RESULT_JSON CPU COMMAND...

CPU is a CPU number to pin the command to, or ``-`` to leave it unpinned.

The benchmark starts every measured child through this small process.  On
Linux a child's ``ru_maxrss`` also counts the resident set of the process
that created it, so a child started straight from the benchmark, which holds
the checked outputs in memory, would report the benchmark's size, not its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def main(result_path: str, cpu: str, argv: list[str]) -> int:
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    t0 = perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"start": t0, "end": t1, "maxrss_kb": usage.ru_maxrss, "exit": proc.returncode}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
