"""Record ``golden.json``: the values every later commit must reproduce.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run from the repository root.  The values are properties of the graphs'
isomorphism classes (S, k, L, LD, s_k, whether a two-locating bipartition
exists), so they hold for every workload seed, plus the digest and summary
line of ``corpus all:6``.  Re-record only when a change to the program is
meant to change one of them, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from locdom import bound, graphs, solver

import checker
import inputs

HEUR_BASES = tuple(f"gnp{n}" for n in inputs.HEUR_ORDERS)


def first_twin_free_seeds(name: str, count: int) -> list[int]:
    n = int(name[3:])
    seeds, s = [], 1
    while len(seeds) < count:
        if graphs.is_twin_free(graphs.generate("gnp", n, inputs.GNP_P, s)):
            seeds.append(s)
        s += 1
    return seeds


def sweep_golden(root: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp) / "all6.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "locdom.cli", "corpus", "all:6", "--jobs", "1", "--out", str(out)],
            cwd=root, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        return {"sha256": checker.sha256_file(out), "summary": proc.stdout.strip().splitlines()}


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    gnp = {b for b in inputs.EXACT_BASES + inputs.SK_BASES + inputs.P2_GNP if b.startswith("gnp")}
    seeds = {b: first_twin_free_seeds(b, 1) for b in sorted(gnp)}
    seeds.update({b: first_twin_free_seeds(b, inputs.HEUR_GRAPHS_PER_ORDER) for b in HEUR_BASES})
    exact = {}
    for b in inputs.EXACT_BASES:
        g = inputs.base_graph(b, seeds)
        r = bound.construct_ld(g, mode="exact")
        exact[b] = {"S": r.s_value, "k": r.k}
        if g.n <= solver.MIN_SET_CEILING:
            exact[b].update(l_exact=solver.min_locating(g).size, ld_exact=solver.min_locating_dominating(g).size)
    s_k = {}
    for b in inputs.SK_BASES:
        g = inputs.base_graph(b, seeds)
        s_k[b] = [solver.s_k_of_graph(g, k).value for k in range(1, g.n + 1)]
    p2 = {b: solver.two_locating_partition(inputs.base_graph(b, seeds)).found for b in inputs.P2_FIXED + inputs.P2_GNP}
    golden = {"gnp_seeds": seeds, "exact": exact, "s_k": s_k, "p2": p2, "sweep6": sweep_golden(root)}
    checker.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
