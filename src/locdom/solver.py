"""Brute-force oracles and exhaustive search tools.

Everything here is exhaustive search: minimum locating and
locating-dominating sets by increasing cardinality, the two-locating-sets
bipartition search, and the maximum summed separation score over
k-partitions.  The first three are block scans of location
(location.min_good_set and location.first_split, with vertex 0 pinned),
over the same subset planes as the bound's exact maximization, so they do
not check that kernel; what checks both is the CLI's set-based
re-verification of every locating and locating-dominating witness
(is_locating, is_locating_dominating) and the references in the tests.

s_k is a submask DP over location.score_table, whose entry T[a] =
|V \\ a| - D(a) counts the vertices outside a that are the first of their
trace class (D(a) counts the rest; the bound's S = n - min D over the a
with V \\ a locating reads the same counts).  Level j holds, for every
vertex set, the best summed score of its partitions into j blocks.  Each
level is a pure function of the graph and j, memoized in an lru_cache that
holds every level of one graph at SK_CEILING, so a call for k builds levels
up to k - 1 only and asking for every k in turn builds each once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import InvalidInput, refuse
from .graphs import Graph
from .location import first_split, min_good_set, score_table

MIN_SET_CEILING = 16
PARTITION2_CEILING = 20
SK_CEILING = 12


class OptimumWitness(NamedTuple):
    size: int
    witness: int


class PartitionWitness(NamedTuple):
    x: int
    y: int
    found: bool


class SkResult(NamedTuple):
    value: int
    witness_partition: tuple[int, ...]


def min_locating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """L(G): smallest locating set, first witness in combinations order.

    A negative ceiling is InvalidInput, and one from 0 to n - 1 RefusedScale."""
    if g.n > ceiling:
        refuse("oracle", g.n, ceiling)
    return OptimumWitness(*min_good_set(g, False))


def min_locating_dominating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """LD(G): smallest locating-dominating set, first witness in combinations
    order.  Ceilings as in min_locating."""
    if g.n > ceiling:
        refuse("oracle", g.n, ceiling)
    return OptimumWitness(*min_good_set(g, True))


def two_locating_partition(g: Graph) -> PartitionWitness:
    """Search all bipartitions V = X | Y for two simultaneous locating sets.

    Vertex 0 is pinned to X to halve the space; the first witness in
    increasing order of X's bit pattern is returned.  Twins are permitted.
    location.first_split does the search.
    """
    if g.n > PARTITION2_CEILING:
        refuse("bipartition search", g.n, PARTITION2_CEILING)
    if g.n == 0:
        return PartitionWitness(0, 0, True)
    x = first_split(g, pinned=True)
    if x is None:
        return PartitionWitness(0, 0, False)
    return PartitionWitness(x, g.full_set ^ x, True)


# the value of a k-partition that no set of blocks can reach; every sum
# with one such term stays negative, since real values are at most n^2
_UNREACHABLE = -(1 << 30)


@lru_cache(maxsize=SK_CEILING)  # levels 0..n - 1 of one graph at the ceiling
def _sk_level(g: Graph, j: int) -> tuple[int, ...]:
    """f_j[mask]: the largest summed score of a partition of mask into j
    non-empty blocks, or _UNREACHABLE.  f_0 is 0 at the empty set only, f_1
    is score_table(g) on non-empty masks, and f_j[mask] is the max of
    f_1[B] + f_{j-1}[mask - B] over the blocks B with low(mask) in B, B a
    proper subset of mask, filled only at the masks without vertex 0 of at
    least j vertices: all that _completion reads.
    """
    size = 1 << g.n
    if j == 0:
        return (0,) + (_UNREACHABLE,) * (size - 1)
    if j == 1:
        return (_UNREACHABLE, *score_table(g)[1:])
    table, below = _sk_level(g, 1), _sk_level(g, j - 1)
    level = [_UNREACHABLE] * size
    for mask in range(2, size, 2):
        if mask.bit_count() < j:
            continue
        rest = mask ^ mask & -mask
        best = _UNREACHABLE
        sub = rest  # mask - B, over the non-empty subsets of rest
        while sub:
            value = table[mask ^ sub] + below[sub]
            if value > best:
                best = value
            sub = sub - 1 & rest
        level[mask] = best
    return tuple(level)


def _extend(
    table: tuple[int, ...], block: int, best: list[int], shift: int, xs: Iterable[int]
) -> list[int]:
    """For each x in xs, the max of table[block | e << shift] + best[x ^ e] over the subsets e of x."""
    out = []
    for x in xs:
        top = table[block] + best[x]  # e = 0
        e = x
        while e:
            value = table[block | e << shift] + best[x ^ e]
            if value > top:
                top = value
            e = e - 1 & x
        out.append(top)
    return out


def _completion(g: Graph, blocks: list[int], k: int, i: int) -> int:
    """Best value of a k-partition whose blocks meet 0..i in exactly blocks.

    The vertices above i extend each block by a subset of them, and the rest
    split into the k - len(blocks) missing blocks, read from their level.
    Subsets of the vertices above i are indexed by x, the set x << (i + 1).
    """
    table, missing = _sk_level(g, 1), _sk_level(g, k - len(blocks))
    shift = i + 1
    count = 1 << (g.n - shift)
    best = [missing[x << shift] for x in range(count)]
    for block in blocks[:0:-1]:
        best = _extend(table, block, best, shift, range(count))
    return _extend(table, blocks[0], best, shift, (count - 1,))[0]


def s_k_of_graph(g: Graph, k: int) -> SkResult:
    """Maximum of the summed separation score over all k-partitions of V.

    A submask DP over score_table (_sk_level).  The witness is the
    maximizing partition whose restricted-growth string is lexicographically
    first: vertex by vertex, the smallest label whose best completion still
    reaches the maximum.  Its blocks are bitmasks indexed by first occurrence.
    """
    if g.n > SK_CEILING:
        refuse("k-partition search", g.n, SK_CEILING)
    if not 1 <= k <= g.n:
        raise InvalidInput(f"k={k} outside 1..{g.n}")
    value = _completion(g, [1], k, 0)  # every partition has vertex 0 in block 0
    blocks = [1]
    for i in range(1, g.n):
        last = min(len(blocks), k - 1)
        # the last label needs no check, as some label keeps the maximum; nor
        # do the others when i and every vertex after it must open a block
        tried = range(last) if k - len(blocks) < g.n - i else ()
        for label in tried:
            trial = blocks[:]
            trial[label] |= 1 << i
            if _completion(g, trial, k, i) == value:
                break
        else:
            label = last
        if label == len(blocks):
            blocks.append(0)
        blocks[label] |= 1 << i
    return SkResult(value, tuple(blocks))
