"""Workload inputs, built from a workload seed with locdom's own generators.

Every graph is a fixed base graph (a path, a cycle, or a gnp graph whose
generator seed is pinned in ``golden.json``) whose vertices the workload
seed relabels at random.  Relabeling changes the graph6 text, the bit
patterns and every tie-break the program sees, but not the isomorphism
class, so the golden values (S, k, L, LD, s_k, partition existence) hold for
every seed and the amount of work stays the same.  Drawing fresh gnp graphs
per seed would not: the exact pipeline's time on twin-free gnp n=16 graphs
ranges over 3x between generator seeds, with the number of score maximizers.

Paths and cycles in the bipartition search keep their natural labels: the
search stops at the first witness in bit order, so relabeling would move the
stopping point and with it most of that part's time.
"""

from __future__ import annotations

import random

from locdom import graphs

# gnp graphs use p = 0.3 throughout; golden.json pins the first twin-free
# generator seeds from 1 upwards for each order.
GNP_P = 0.3

EXACT_BASES = ("C16", "P16", "C18", "gnp14", "gnp16", "gnp18")
SK_BASES = ("gnp9", "gnp10")
P2_FIXED = ("P18", "P19", "P20", "C18", "C19", "C20")
P2_GNP = ("gnp18", "gnp19", "gnp20")
P2_ROUNDS = 4  # the bipartition part repeats so it takes a share like the others
HEUR_ORDERS = (60, 100, 150, 200)
HEUR_GRAPHS_PER_ORDER = 5
HEUR_STARTS = 40  # heuristic rng seeds per graph


def base_graph(name: str, gnp_seeds: dict[str, list[int]], index: int = 0) -> graphs.Graph:
    if name[0] in "PC":
        return graphs.generate("path" if name[0] == "P" else "cycle", int(name[1:]))
    return graphs.generate("gnp", int(name[3:]), GNP_P, gnp_seeds[name][index])


def relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def build(workload: str, seed: int, gnp_seeds: dict[str, list[int]]) -> list[dict]:
    """The workload's items, each with its graph as graph6 text."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep6":
        lines = map(graphs.encode_graph6, graphs.all_labeled_graphs(6))
        return [{"id": str(i), "task": "corpus", "g6": g6} for i, g6 in enumerate(lines)]

    def item(task: str, base: str, g: graphs.Graph, tag: str = "", **extra) -> dict:
        if base.startswith("gnp") and not graphs.is_twin_free(g):
            raise ValueError(f"{base} is not twin-free")
        return {"id": f"{task}:{base}{tag}", "task": task, "base": base, "g6": graphs.encode_graph6(g), **extra}

    if workload == "exact-large":
        return [item("exact", b, relabel(base_graph(b, gnp_seeds), rng)) for b in EXACT_BASES]
    if workload != "tools":
        raise ValueError(f"unknown workload {workload!r}")
    items = [item("s_k", b, relabel(base_graph(b, gnp_seeds), rng)) for b in SK_BASES]
    for r in range(P2_ROUNDS):
        items += [item("p2", b, base_graph(b, gnp_seeds), f"#{r}") for b in P2_FIXED]
        items += [item("p2", b, relabel(base_graph(b, gnp_seeds), rng), f"#{r}") for b in P2_GNP]
    for n in HEUR_ORDERS:
        for i in range(HEUR_GRAPHS_PER_ORDER):
            base = f"gnp{n}"
            g = relabel(base_graph(base, gnp_seeds, i), rng)
            starts = [rng.getrandbits(63) for _ in range(HEUR_STARTS)]
            items.append(item("heuristic", base, g, f"#{i}", starts=starts))
    return items
