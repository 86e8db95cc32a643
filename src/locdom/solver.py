"""Brute-force oracles and exhaustive search tools.

Everything here is deliberately simple exhaustive search, independent of the
constructive pipeline, so the two can check each other: minimum locating and
locating-dominating sets by increasing cardinality, the two-locating-sets
bipartition search, and the maximum summed separation score over
k-partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import InvalidParameter, RefusedScale
from .graphs import Graph, is_twin_free
from .location import is_locating, is_locating_dominating, score_table

MIN_SET_CEILING = 16
PARTITION2_CEILING = 20
SK_CEILING = 10


@dataclass(frozen=True)
class OptimumWitness:
    size: int
    witness: int
    kind: str  # "locating" or "locating_dominating"


@dataclass(frozen=True)
class PartitionWitness:
    x: int
    y: int
    found: bool
    twin_free: bool


@dataclass(frozen=True)
class SkResult:
    k: int
    value: int
    witness_partition: tuple[int, ...]
    twin_free: bool


def _min_verifying(g: Graph, predicate, kind: str, ceiling: int) -> OptimumWitness:
    if g.n > ceiling:
        raise RefusedScale(f"oracle refused for n={g.n} > {ceiling}")
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            x = 0
            for v in combo:
                x |= 1 << v
            if predicate(g, x):
                return OptimumWitness(r, x, kind)
    raise AssertionError("V itself always verifies; unreachable")


def min_locating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """L(G): smallest locating set, lexicographically first witness."""
    return _min_verifying(g, is_locating, "locating", ceiling)


def min_locating_dominating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """LD(G): smallest locating-dominating set."""
    return _min_verifying(g, is_locating_dominating, "locating_dominating", ceiling)


def two_locating_partition(g: Graph, ceiling: int = PARTITION2_CEILING) -> PartitionWitness:
    """Search all bipartitions V = X | Y for two simultaneous locating sets.

    Vertex 0 is pinned to X to halve the space; the first witness in
    increasing order of X's bit pattern is returned.  Twins are permitted;
    the result carries a twin_free flag instead.
    """
    if g.n > ceiling:
        raise RefusedScale(f"bipartition search refused for n={g.n} > {ceiling}")
    tf = is_twin_free(g)
    if g.n == 0:
        return PartitionWitness(0, 0, True, tf)
    full = g.full_set
    for m in range(1 << (g.n - 1)):
        x = m << 1 | 1
        y = full ^ x
        if is_locating(g, x) and is_locating(g, y):
            return PartitionWitness(x, y, True, tf)
    return PartitionWitness(0, 0, False, tf)


def _partitions_into_k(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All partitions of 0..n-1 into exactly k non-empty blocks.

    Enumerated as restricted-growth strings in lexicographic order; blocks
    are returned as bitmasks indexed by first occurrence.
    """
    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if used == k:
                blocks = [0] * k
                for v, lab in enumerate(labels):
                    blocks[lab] |= 1 << v
                yield tuple(blocks)
            return
        top = min(used + 1, k)
        for lab in range(top):
            new_used = max(used, lab + 1)
            if new_used + (n - 1 - i) >= k:
                labels[i] = lab
                yield from rec(i + 1, new_used)

    yield from rec(0, 0)


def s_k_of_graph(g: Graph, k: int, ceiling: int = SK_CEILING) -> SkResult:
    """Maximum of the summed separation score over all k-partitions of V."""
    if g.n > ceiling:
        raise RefusedScale(f"k-partition search refused for n={g.n} > {ceiling}")
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"k={k} outside 1..{g.n}")
    table = score_table(g)
    best = -1
    best_blocks: tuple[int, ...] = ()
    for blocks in _partitions_into_k(g.n, k):
        value = sum(table[blk] for blk in blocks)
        if value > best:
            best = value
            best_blocks = blocks
    return SkResult(k, best, best_blocks, is_twin_free(g))
