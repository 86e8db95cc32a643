"""Self-test of the benchmark's checker: known-bad outputs must count as failures.

    python3 perfbench/selftest.py

Exits 0 when every deliberately wrong output is caught.  ``run.py`` makes
the same test at the start of every run and reports a miss as a failed item.
"""

from __future__ import annotations

import sys

import checker

P4 = "Ch"  # the path 0-1-2-3


def bad_cases(golden: dict) -> list[tuple[str, list[str]]]:
    """(name, faults) for outputs that are wrong on purpose; each needs a fault."""
    nbr = checker.decode_g6(P4)
    sweep = golden["sweep6"]
    return [
        ("non-locating witness", checker.witness_faults(nbr, {0}, {0, 1})),
        ("non-dominating LD witness", checker.witness_faults(nbr, {0, 1}, {0, 1})),
        ("witness above the bound", checker.witness_faults(nbr, {0, 1, 2}, {0, 1, 2})),
        ("wrong digest", checker.sweep_gate_faults("0" * 64, sweep["summary"], 0, sweep)),
        ("wrong summary line", checker.sweep_gate_faults(sweep["sha256"], ["6,32768,13824,3,1,0"], 0, sweep)),
        ("overlapping bipartition", checker.partition_faults(nbr, {0, 1}, {1, 2, 3}, True, True)),
        ("s_k off golden", checker.sk_faults(nbr, 2, 4, [[0, 1], [2, 3]], 5)),
    ]


def good_cases(golden: dict) -> list[tuple[str, list[str]]]:
    """(name, faults) for correct outputs; none may have a fault."""
    nbr = checker.decode_g6(P4)
    sweep = golden["sweep6"]
    return [
        ("locating-dominating witness", checker.witness_faults(nbr, {1, 2}, {1, 2, 3})),
        ("recorded digest", checker.sweep_gate_faults(sweep["sha256"], sweep["summary"], 0, sweep)),
    ]


def problems() -> list[str]:
    golden = checker.load_golden()
    out = [f"checker passed a {name}" for name, faults in bad_cases(golden) if not faults]
    out += [f"checker rejected a {name}: {faults}" for name, faults in good_cases(golden) if faults]
    return out


if __name__ == "__main__":
    found = problems()
    for p in found:
        print(p, file=sys.stderr)
    print("checker self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
