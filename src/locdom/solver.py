"""Brute-force oracles and exhaustive search tools.

Everything here is exhaustive search: minimum locating and
locating-dominating sets by increasing cardinality, the two-locating-sets
bipartition search, and the maximum summed separation score over
k-partitions.  The first three read the same subset planes as the bound's
location.score_table (location.miss_planes), so they do not check that
kernel; what checks both is the CLI's set-based re-verification of every
locating and locating-dominating witness (is_locating,
is_locating_dominating) and the references in the tests.

The planes: a predicate over the subsets x of the c = min(n, 16) lowest
vertices is one 2^c-bit int whose bit x is its value at x.  All three fix
the vertices from c up to each high pattern h in turn and test the 2^c
subsets below as one block, so a raised ceiling costs time, not memory:
"h << c | x is not locating" (or not locating-dominating) is
location.block_misses of miss_planes' located (or dominated) planes at h,
and "V \\ x is not locating" is the same plane read at complements.  The
minimum sets take the smallest size whose plane of r-subsets meets a
block's good plane.

s_k is a submask DP over location.score_table: level j holds, for every
vertex set, the best summed score of its partitions into j blocks.  A call
for k builds levels up to k - 1 only, and the levels of the last graph are
memoized (a one-entry lru_cache keyed by the frozen Graph) and extended on
demand, so asking for every k in turn builds each once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable

from .errors import InvalidParameter, RefusedScale
from .graphs import Graph, is_twin_free
from .location import BLOCK_BITS, block_misses, miss_planes, score_table

MIN_SET_CEILING = 16
PARTITION2_CEILING = 20
SK_CEILING = 12


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


# bit j of byte b moved to bit 7 - j
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _at_complements(plane: int, c: int) -> int:
    """The 2^c-bit plane read at complements: bit x becomes bit 2^c - 1 - x."""
    size = 1 << c
    nbytes = (size + 7) >> 3
    flipped = plane.to_bytes(nbytes, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (nbytes * 8 - size)


def _size_planes(n: int) -> list[int]:
    """planes[r] has bit x set iff |x| = r, over the 2^n subsets x of 0..n-1."""
    planes = [1] + [0] * n
    for w in range(n):
        for r in range(w + 1, 0, -1):
            planes[r] |= planes[r - 1] << (1 << w)
    return planes


# bit x of plane r is also |x| = r in every narrower block
_SIZE_PLANES = _size_planes(BLOCK_BITS)


def _min_good(g: Graph, dominating: bool, ceiling: int) -> OptimumWitness:
    """Smallest x that is locating (and dominating), first in combinations order.

    The vertices from c = min(n, BLOCK_BITS) up are fixed to each high
    pattern h in turn, as in two_locating_partition, so no plane is wider
    than 2^BLOCK_BITS bits whatever the ceiling; a block whose high part
    alone outgrows the best size so far is skipped.
    """
    if g.n > ceiling:
        raise RefusedScale(f"oracle refused for n={g.n} > {ceiling}")
    planes = miss_planes(g)
    c = planes.c
    full = (1 << (1 << c)) - 1
    groups = planes.dominated if dominating else planes.located
    best_size, best = g.n + 1, 0
    for h in range(1 << (g.n - c)):
        high_size = h.bit_count()
        if high_size > best_size:
            continue
        good = full ^ block_misses(groups, h)
        for low_size, plane in enumerate(_SIZE_PLANES[: best_size - high_size + 1]):
            cand = good & plane
            if cand:
                break
        else:
            continue
        # combinations order among equal sizes: the set holding the smallest
        # element where two sets differ comes first, so keep each w in turn
        # whenever some remaining candidate holds it
        for plane in planes.absent:
            held = cand & ~plane
            if held:
                cand = held
        x = h << c | cand.bit_length() - 1
        differ = x ^ best
        if high_size + low_size < best_size or differ & -differ & x:
            best_size, best = high_size + low_size, x
    kind = "locating_dominating" if dominating else "locating"
    return OptimumWitness(best_size, best, kind)


def min_locating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """L(G): smallest locating set, lexicographically first witness."""
    return _min_good(g, False, ceiling)


def min_locating_dominating(g: Graph, ceiling: int = MIN_SET_CEILING) -> OptimumWitness:
    """LD(G): smallest locating-dominating set, lexicographically first witness."""
    return _min_good(g, True, ceiling)


def two_locating_partition(g: Graph, ceiling: int = PARTITION2_CEILING) -> PartitionWitness:
    """Search all bipartitions V = X | Y for two simultaneous locating sets.

    Vertex 0 is pinned to X to halve the space; the first witness in
    increasing order of X's bit pattern is returned.  Twins are permitted;
    the result carries a twin_free flag instead.  The vertices from
    BLOCK_BITS up are fixed to each high pattern h in turn, and the block
    of 2^BLOCK_BITS choices below them is tested as one plane.
    """
    if g.n > ceiling:
        raise RefusedScale(f"bipartition search refused for n={g.n} > {ceiling}")
    tf = is_twin_free(g)
    if g.n == 0:
        return PartitionWitness(0, 0, True, tf)
    planes = miss_planes(g)
    c, groups = planes.c, planes.located
    pinned = ((1 << (1 << c)) - 1) ^ planes.absent[0]
    high_part = (1 << (g.n - c)) - 1
    for h in range(high_part + 1):
        # V - x is the complement of h above c and of x's low part below it
        comp_bad = _at_complements(block_misses(groups, high_part ^ h), c)
        good = pinned & ~block_misses(groups, h) & ~comp_bad
        if good:
            x = h << c | (good & -good).bit_length() - 1
            return PartitionWitness(x, g.full_set ^ x, True, tf)
    return PartitionWitness(0, 0, False, tf)


# the value of a k-partition that no set of blocks can reach; every sum
# with one such term stays negative, since real values are at most n^2
_UNREACHABLE = -(1 << 30)


class _SkLevels:
    """score_table(g) and the levels f_0, f_1, ... of the partition DP over it.

    f_j[mask] is the largest summed score of a partition of mask into j
    non-empty blocks, or _UNREACHABLE: f_1 = T on non-empty masks and
    f_j[mask] = max of T[B] + f_{j-1}[mask - B] over the blocks B with
    low(mask) in B, B a proper subset of mask.  From level 2 on only the
    masks without vertex 0 are filled, and only those with at least j
    vertices: every completion the witness rebuild reads lies above vertex
    0, and s_k = f_k[V] is read off level k - 1.  Levels are built on
    demand, so one call for a small k builds few of them.  Tuples, as
    every caller of the memo shares them.
    """

    def __init__(self, g: Graph):
        self.table = score_table(g)
        self.n = g.n
        size = 1 << g.n
        self.levels = [(0,) + (_UNREACHABLE,) * (size - 1), (_UNREACHABLE, *self.table[1:])]
        self._lock = threading.Lock()
        self._splits: list | None = None  # built for level 2, dropped after level n - 1

    def upto(self, j: int) -> tuple[tuple[int, ...], ...]:
        """The levels f_0..f_j, building the missing ones."""
        size = 1 << self.n
        with self._lock:  # callers in several threads share the memo
            while len(self.levels) <= j:
                if self._splits is None:
                    self._splits = self._make_splits()
                level = len(self.levels)
                at = self.levels[-1].__getitem__
                cur = [_UNREACHABLE] * size
                for count, mask, scores, subs in self._splits:
                    if count < level:
                        break
                    cur[mask] = max(map(add, scores, map(at, subs)))
                self.levels.append(tuple(cur))
            if len(self.levels) == self.n:
                self._splits = None  # no k reads a level above n - 1
            return tuple(self.levels[: j + 1])

    def _make_splits(self) -> list:
        """For each mask without vertex 0, of two or more vertices: its size,
        the remainders mask - B and the scores T[B], largest masks first."""
        splits = []
        for mask in range(2, 1 << self.n, 2):
            rest = mask ^ mask & -mask
            subs = []
            sub = rest
            while sub:
                subs.append(sub)
                sub = sub - 1 & rest
            if subs:
                splits.append((mask.bit_count(), mask, [self.table[mask ^ sub] for sub in subs], subs))
        splits.sort(key=lambda split: -split[0])
        return splits

    def top(self, k: int) -> int:
        """s_k = f_k[V]: the block B of vertex 0 plus the best (k - 1)-partition of V - B."""
        full = (1 << self.n) - 1
        if k == 1:
            return self.table[full]
        below = self.upto(k - 1)[k - 1]
        # V - B runs over the non-empty sets without vertex 0
        return max(self.table[full ^ rest] + below[rest] for rest in range(2, full + 1, 2))


@lru_cache(maxsize=1)
def _sk_memo(g: Graph) -> _SkLevels:
    """The DP levels of the last graph, shared by the calls for each k."""
    return _SkLevels(g)


def _extend(table: bytes, block: int, best: list[int], shift: int, xs: Iterable[int]) -> list[int]:
    """For each x in xs, the max of table[block | e << shift] + best[x ^ e] over the subsets e of x."""
    out = []
    for x in xs:
        top = _UNREACHABLE
        e = x
        while True:
            value = table[block | e << shift] + best[x ^ e]
            if value > top:
                top = value
            if not e:
                break
            e = e - 1 & x
        out.append(top)
    return out


def _completion(
    table: bytes, levels: tuple[tuple[int, ...], ...], blocks: list[int], k: int, i: int, n: int
) -> int:
    """Best value of a k-partition whose blocks meet 0..i in exactly blocks.

    The vertices above i extend each block by a subset of them, and the rest
    split into the k - len(blocks) missing blocks, read from the levels.
    Subsets of the vertices above i are indexed by x, the set x << (i + 1).
    """
    shift = i + 1
    count = 1 << (n - shift)
    missing = levels[k - len(blocks)]
    best = [missing[x << shift] for x in range(count)]
    for block in blocks[:0:-1]:
        best = _extend(table, block, best, shift, range(count))
    return _extend(table, blocks[0], best, shift, (count - 1,))[0]


def s_k_of_graph(g: Graph, k: int, ceiling: int = SK_CEILING) -> SkResult:
    """Maximum of the summed separation score over all k-partitions of V.

    A submask DP over score_table (_SkLevels, memoized for the last
    graph).  The witness is the maximizing partition whose restricted-growth
    string is lexicographically first: vertex by vertex, the smallest label
    whose best completion still reaches the maximum.  Its blocks are
    bitmasks indexed by first occurrence.
    """
    if g.n > ceiling:
        raise RefusedScale(f"k-partition search refused for n={g.n} > {ceiling}")
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"k={k} outside 1..{g.n}")
    memo = _sk_memo(g)
    table, levels = memo.table, memo.upto(k - 1)
    value = memo.top(k)
    blocks = [1]
    for i in range(1, g.n):
        last = min(len(blocks), k - 1)
        # the last label needs no check, as some label keeps the maximum; nor
        # do the others when i and every vertex after it must open a block
        tried = range(last) if k - len(blocks) < g.n - i else ()
        for label in tried:
            trial = blocks[:]
            trial[label] |= 1 << i
            if _completion(table, levels, trial, k, i, g.n) == value:
                break
        else:
            label = last
        if label < len(blocks):
            blocks[label] |= 1 << i
        else:
            blocks.append(1 << i)
    return SkResult(k, value, tuple(blocks), is_twin_free(g))
