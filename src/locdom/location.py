"""Neighborhood traces, trace partitions, and the locating/dominating predicates.

The trace of a vertex v with respect to a set X is N(v) & X.  Grouping a set
Y (disjoint from X) by equal trace yields the X-partition of Y, and
x_partition is the one function that builds it: the bound reads every
score, good set and separator off its tuples.  A set X is locating when
that partition of the complement of X has only singleton classes, and
dominating when every outside vertex has a non-empty trace.
One walk over the complement (outside_walk) notes a repeated trace and the
vertex with the empty trace; is_locating, is_locating_dominating and
extend_to_dominating read it, and so does bound.candidate_sets, which keeps
each candidate's walk so that construct_ld takes its locating-dominating
witness from it without walking the witness again.

The same predicates over all subsets at once are bit planes, and this module
alone knows their layout.  A subset is a = h << c | x: a block of the 2^c
subsets x of the c lowest vertices for each pattern h of the k = n - c high
vertices, read as one 2^c-bit plane, with c = min(n, BLOCK_BITS) = min(n,
12) in every scan, so no plane is wider than 2^12 bits at any n.  V \\ a
lies in block top ^ h, top = 2^k - 1, at the complement of x.  miss_planes
memoizes the located planes, of the pairs that a locating set must hit,
and vertex_planes splits them by vertex, the duplicate planes, each
grouped by the part of its set above c; min_good_set adds the closed
neighborhoods that a locating-dominating set must also hit per call.
One walk over the high vertices (_walk) gives a scan its blocks in
increasing h: it ORs each group in once, at the node that decides its
lowest high vertex, and skips a subtree where the scan's planes already
leave no candidate.  count_planes sums planes into bit-sliced counters and
least reads their minimum.  Four block scans read the walk: first_split
(the first split of V into two locating sets), min_good_set (a smallest
locating or locating-dominating set), fewest_repeats (the fewest
duplicates over the r with V \\ r locating) and score_table (every
separation score).

The separation score s(a) is |V \\ a| - D(a), where D(a) counts the
vertices outside a whose trace on a repeats that of an earlier outside
vertex.  When V \\ r is locating, s(V \\ r) = |r|, so the score sum at r
is n - D(r); the bound reads its maximum as n minus the fewest duplicates
over such r, and score_table counts the first vertex of each trace class.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache

from .errors import InvalidInput
from .graphs import Graph, members


def x_partition(g: Graph, x: int, y: int) -> tuple[int, ...]:
    """Classes of y by equal trace on x, as bitmasks ordered by minimum
    member; y must lie within V \\ x."""
    if y & ~g.complement_set(x):
        raise InvalidInput("y must be a subset of the complement of x")
    adj = g.adj
    groups: dict[int, int] = {}
    while y:  # members(y), inlined: every set the bound scores comes through here
        low = y & -y
        t = adj[low.bit_length() - 1] & x
        groups[t] = groups.get(t, 0) | low
        y ^= low
    # insertion order = first-seen order = order by minimum member
    return tuple(groups.values())


def representatives(classes: tuple[int, ...]) -> int:
    """Minimum-index member of each class of a trace partition."""
    chosen = 0
    for cls in classes:
        chosen |= cls & -cls
    return chosen


# the subset planes are built one block of the subsets of this many low
# vertices at a time, in every scan, so no plane is wider than 2^BLOCK_BITS
# bits at any n
BLOCK_BITS = 12


@lru_cache(maxsize=None)
def _nibble_tables(c: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Entry j of table i is the plane "x misses j << 4i" over the 2^c subsets x of 0..c-1.

    A plane is one 2^c-bit int whose bit x is the predicate's value at the
    subset with bit pattern x.  From bit 0 up, "w not in x" alternates runs
    of 2^w ones and 2^w zeros, built by doubling the first run; each table
    doubles in length with each of its vertices.  There is one table even
    when c = 0, so a lookup never finds none.  Returns the tables and their
    single-vertex entries, the planes "w not in x" for w < c.  Cached for
    every c seen (at most BLOCK_BITS + 1 values, about 50 KB in all), so a
    corpus whose orders straddle the block width builds each once.
    """
    size = 1 << c
    full = (1 << size) - 1
    tables = []
    for first in range(0, max(c, 1), 4):
        table = [full]
        for w in range(first, min(first + 4, c)):
            width = 1 << w
            absent = (1 << width) - 1
            width <<= 1
            while width < size:
                absent |= absent << width
                width <<= 1
            table += [plane & absent for plane in table]
        tables.append(tuple(table))
    return tuple(tables), tuple(tables[w >> 2][1 << (w & 3)] for w in range(c))


# (high part, plane) pairs over the subsets x of the c = min(n, BLOCK_BITS)
# lowest vertices, the first with high part 0 (its plane 0 when no set has
# that high part); tuples, as every caller of the memo shares them
Groups = tuple[tuple[int, int], ...]


def _or_pair_planes(g: Graph, c: int, groups: Sequence[dict[int, int]]) -> None:
    """OR the plane "x misses the low part of M_uv" of every pair u < v
    into groups[v][M_uv >> c], a dict from high parts to planes."""
    tables, _ = _nibble_tables(c)
    first, rest = tables[0], tables[1:]
    low_part = (1 << c) - 1
    adj = g.adj
    for v, row in enumerate(adj):
        target = groups[v]
        bit = 1 << v
        for u in range(v):
            m = adj[u] ^ row | 1 << u | bit
            high = m >> c
            m &= low_part
            plane = first[m & 15]  # one lookup per nibble, inlined: this loop runs once per pair
            for table in rest:
                m >>= 4
                plane &= table[m & 15]
            target[high] = target.get(high, 0) | plane


@lru_cache(maxsize=1)
def miss_planes(g: Graph) -> Groups:
    """The located planes of g: where a set is not locating.

    Two vertices u < v are both outside a set a with equal traces iff a
    misses M_uv = (N(u) xor N(v)) | {u, v}.  With the vertices from c up
    fixed to a pattern h, a = h << c | x misses a set M iff the high part
    H = M >> c misses h and x misses the low part of M.  So each pair
    (H, plane) ORs "x misses the low part of M_uv" over the pairs u < v
    with that high part, and the OR of the planes whose H misses h marks
    the x for which h << c | x is not locating.  The pair loop takes the
    one dict as the target of every vertex, so the memo holds one plane per
    high part, not one per vertex (those are vertex_planes).

    Memoized for the last graph (a one-entry lru_cache keyed by the frozen
    Graph): the exact bound's split search and the solver's oracles, called
    in turn on one graph as a corpus record does, build them once.
    """
    located = {0: 0}
    _or_pair_planes(g, min(g.n, BLOCK_BITS), [located] * g.n)
    return tuple(located.items())


def vertex_planes(g: Graph) -> tuple[Groups, ...]:
    """miss_planes' located planes split by vertex, built per call, not memoized.

    Blocks of 2^BLOCK_BITS subsets, as in miss_planes, whose located
    planes are the OR of these by high part.  Entry v groups the pairs
    u < v by high part as miss_planes does, so its planes whose high part
    misses h OR to v's duplicate plane in block h: the x for which v, outside
    h << c | x, has the trace of some earlier vertex outside it.  The plane
    is empty wherever v is in h << c | x, as every M_uv holds v, so
    fewest_repeats and score_table read it for every v.
    """
    groups: list[dict[int, int]] = [{0: 0} for _ in range(g.n)]
    _or_pair_planes(g, min(g.n, BLOCK_BITS), groups)
    return tuple(tuple(d.items()) for d in groups)


def _walk(
    k: int, misses: Sequence[Groups], lies_in: Sequence[Groups], alive: Callable[[int, list[int]], object] | None
) -> Iterator[tuple[int, list[int]]]:
    """The blocks h < 2^k in increasing order, each with its planes: the OR
    of the planes of each grouping of misses whose high part misses h, then
    of each grouping of lies_in whose high part lies in h.  A high part
    lies in h iff it misses top ^ h (top = 2^k - 1), so the located planes
    through lies_in are block top ^ h, whose x read at complements are
    those whose complement is not locating.

    The root holds the planes of the high part 0 of every grouping, and the
    walk decides the high vertices from k - 1 down, 0 before 1, so its
    leaves come in increasing h.  Each pair (H, plane) is ORed in once, at
    the node that decides the lowest vertex w of H, where every vertex of H
    is decided: on the 0 branch into its misses plane when H misses h, on
    the 1 branch into its lies_in plane when H lies in h.  A plane only
    grows on the way down, so when alive(h, planes) is false at a node (h
    holding the vertices decided 1 so far), no block below it passes, and
    the walk skips its subtree; it asks at every node, leaves included.
    The walk keeps its own stack, so Python's recursion limit does not
    bound its depth.
    """
    roots = [groups[0][1] for groups in (*misses, *lies_in)]
    # by lowest high vertex: the misses pairs and the lies_in pairs
    at: list[tuple[list, list]] = [([], []) for _ in range(k)]
    for side, groupings, first in ((0, misses, 0), (1, lies_in, len(misses))):
        for i, groups in enumerate(groupings, first):
            for high, plane in groups[1:]:
                at[(high & -high).bit_length() - 1][side].append((i, high, plane))
    stack = [(k, 0, roots)]
    while stack:
        w, h, planes = stack.pop()
        if alive is not None and not alive(h, planes):
            continue
        if not w:
            yield h, planes
            continue
        w -= 1
        one = h | 1 << w
        upper = planes.copy()
        miss_at, lies_at = at[w]
        for i, high, plane in lies_at:
            if high & one == high:
                upper[i] |= plane
        for i, high, plane in miss_at:  # planes becomes the 0 branch's: this node is done with it
            if not high & h:
                planes[i] |= plane
        stack += ((w, one, upper), (w, h, planes))


def count_planes(planes: Iterable[int]) -> list[int]:
    """How many of the planes hold each bit, as bit-sliced counters: bit x
    of counter j is bit j of that count.  Each plane is added in ripple-carry."""
    counters: list[int] = []
    for carry in planes:
        for j, count in enumerate(counters):
            counters[j] = count ^ carry
            carry &= count
            if not carry:
                break
        if carry:
            counters.append(carry)
    return counters


# the counter planes of |x| over the 2^BLOCK_BITS subsets x: count_planes
# of the planes "w in x", each "w not in x" moved up by 2^w; built once at
# import (2 KiB), so no first call at any width pays for them; least on a
# block of 2^c subsets reads only their low 2^c bits, as its mask has no
# higher bit
SIZE_COUNTERS = tuple(count_planes(absent << (1 << w) for w, absent in enumerate(_nibble_tables(BLOCK_BITS)[1])))


def least(counters: Sequence[int], mask: int) -> tuple[int, int]:
    """The smallest count of count_planes' counters over the bits of a
    non-empty mask, and the plane of the bits of mask that reach it.

    From the top counter down, a bit of the minimum is 0 whenever some bit
    still in mask has a 0 there, and then only those bits stay.
    """
    value = 0
    for j in reversed(range(len(counters))):
        zeros = mask ^ mask & counters[j]
        if zeros:
            mask = zeros
        else:
            value |= 1 << j
    return value, mask


# bit j of byte b moved to bit 7 - j
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def at_complements(plane: int, c: int) -> int:
    """The 2^c-bit plane read at complements: bit x becomes bit 2^c - 1 - x."""
    size = 1 << c
    nbytes = (size + 7) >> 3
    flipped = plane.to_bytes(nbytes, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (nbytes * 8 - size)


def first_split(g: Graph, pinned: bool) -> int | None:
    """The first x in bit order with both x and V \\ x locating, or None.

    Blocks of 2^BLOCK_BITS subsets.  _walk ORs the located planes whose
    high part misses h, the x that are not locating, and those whose high
    part lies in h, block top ^ h, which read at complements marks the x
    whose complement is not locating; the walk skips a subtree where the
    two leave no x.  With pinned, only the x that hold vertex 0 count
    (n >= 1).
    """
    located = miss_planes(g)
    c = min(g.n, BLOCK_BITS)
    keep = (1 << (1 << c)) - 1
    if pinned:
        keep ^= _nibble_tables(c)[1][0]

    def good(h: int, bad: list[int]) -> int:
        return keep & ~bad[0] & ~at_complements(bad[1], c)

    if c < g.n:
        blocks = _walk(g.n - c, (located,), (located,), good)
    else:  # one block, read directly: a corpus of small graphs calls this per record
        blocks = ((0, [located[0][1]] * 2),)
    for h, bad in blocks:
        x = good(h, bad)
        if x:
            return h << c | (x & -x).bit_length() - 1
    return None


def min_good_set(g: Graph, dominating: bool) -> tuple[int, int]:
    """The size of a smallest locating set (with dominating, locating-
    dominating set) and the first such set in combinations order.

    Blocks of 2^BLOCK_BITS subsets.  A block's smallest good x is least of
    the counters of |x| (SIZE_COUNTERS) on its good plane, the complement
    of the planes whose high part misses h (_walk): the located planes of
    miss_planes, and with dominating the planes "x misses N[v]" besides,
    as v is outside a and not dominated by it iff a misses N[v].  Only
    this search reads those, so they are built per call, grouped by high
    part as the located planes are, and not memoized.  The walk skips a
    subtree with no good x, or whose high part alone outgrows the best
    size so far.
    """
    c = min(g.n, BLOCK_BITS)
    tables, absent = _nibble_tables(c)
    full = (1 << (1 << c)) - 1
    misses = [miss_planes(g)]
    if dominating:
        first, rest = tables[0], tables[1:]
        low_part = (1 << c) - 1
        closed = {0: 0}
        for v, row in enumerate(g.adj):
            m = row | 1 << v
            high = m >> c
            m &= low_part
            plane = first[m & 15]  # the nibble lookups, inlined as in _or_pair_planes
            for table in rest:
                m >>= 4
                plane &= table[m & 15]
            closed[high] = closed.get(high, 0) | plane
        misses.append(tuple(closed.items()))
    # a subset of the c low vertices has at most c members, so the counters
    # above c.bit_length() are 0 wherever least reads them
    sizes = SIZE_COUNTERS[: c.bit_length()]
    best_size, best = g.n + 1, 0
    # bad[-1] holds the N[v] planes with dominating, and is bad[0] without
    if c < g.n:
        blocks = _walk(g.n - c, misses, (), lambda h, bad: h.bit_count() <= best_size and bad[0] | bad[-1] < full)
    else:  # one block, read directly, as in first_split
        blocks = ((0, [groups[0][1] for groups in misses]),)
    for h, bad in blocks:
        high_size = h.bit_count()
        # the walk passes no block without a good x, and the one block of
        # a graph with no high vertices holds V, which is good
        low_size, cand = least(sizes, full ^ (bad[0] | bad[-1]))
        if high_size + low_size > best_size:
            continue
        # combinations order among equal sizes: the set holding the smallest
        # element where two sets differ comes first, so keep each w in turn
        # whenever some remaining candidate holds it
        for plane in absent:
            held = cand & ~plane
            if held:
                cand = held
        x = h << c | cand.bit_length() - 1
        differ = x ^ best
        if high_size + low_size < best_size or differ & -differ & x:
            best_size, best = high_size + low_size, x
    return best_size, best


# binary digits to byte values 0 and 2^j, one table per counter plane j
_DIGIT_TO_BYTE = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]


def score_table(g: Graph) -> bytearray:
    """The separation score of every subset, indexed by its bit pattern.

    T[a] counts the vertices outside a that are the first of their trace
    class, so each block's scores are count_planes of the planes "v not in
    a, and no earlier vertex outside a has its trace": "v not in a" xor
    v's duplicate plane, which lies within it.  The blocks hold 2^BLOCK_BITS
    subsets, and _walk gives every one its duplicate planes (vertex_planes).
    Each counter plane is spread to one byte per subset through its binary
    digits, and the byte planes of a block are ORed into its slice of the
    table.
    """
    n = g.n
    c = min(n, BLOCK_BITS)
    absent = _nibble_tables(c)[1]
    size = 1 << c
    full = (1 << size) - 1
    digits = f"0{size}b"
    table = bytearray(1 << n)
    for h, repeats in _walk(n - c, vertex_planes(g), (), None):
        total = 0
        # "v not in a": absent[v] below c, and from c up all of the block or
        # none, where v's duplicate plane is empty too
        firsts = [out ^ repeat for out, repeat in zip(absent, repeats)]
        firsts += [full ^ repeats[c + w] for w in range(n - c) if not h >> w & 1]
        for j, count in enumerate(count_planes(firsts)):
            # format puts bit size-1 first, so big-endian bytes put bit x at byte x
            total |= int.from_bytes(format(count, digits).encode().translate(_DIGIT_TO_BYTE[j]), "big")
        table[h << c : (h + 1) << c] = total.to_bytes(size, "little")
    return table


def fewest_repeats(g: Graph) -> tuple[int, Iterator[int]]:
    """The fewest duplicates D(r) over the r with V \\ r locating, and the
    r that reach it, lazily in increasing bit order.

    No table of all 2^n counts is built.  _walk gives each block of
    2^BLOCK_BITS subsets the duplicate planes of every vertex
    (vertex_planes) and the located planes of miss_planes, which the split
    search has just memoized, read at complements where the high part lies
    in h: the x with V \\ r not locating, as in first_split.  The walk
    skips a subtree where that leaves no x.  D is count_planes of the
    duplicate planes, and least gives its minimum on the rest of the block
    with the plane of the x reaching it; the scan keeps those planes for
    the blocks at the fewest so far.
    """
    c = min(g.n, BLOCK_BITS)
    full = (1 << (1 << c)) - 1
    fewest = g.n + 1
    reached = []  # (block, plane of its x at fewest) for the blocks reaching fewest
    blocks = _walk(g.n - c, vertex_planes(g), (miss_planes(g),), lambda h, bad: bad[-1] < full)
    for h, (*repeats, bad) in blocks:
        # the walk passes no block with an empty mask; a vertex of h has no
        # duplicates, so its plane is 0 and not counted
        dups, plane = least(count_planes(filter(None, repeats)), full ^ at_complements(bad, c))
        if dups < fewest:
            fewest, reached = dups, []
        if dups == fewest:
            reached.append((h, plane))
    return fewest, (h << c | x for h, plane in reached for x in members(plane))


def outside_walk(g: Graph, x: int) -> int | None:
    """The one walk over V \\ x behind the locating predicates: None when
    two outside vertices share a trace on x, else the outside vertex with
    the empty trace as a one-vertex set, or 0 when there is none (a
    locating x leaves at most one).  x | outside_walk(g, x) is then
    locating-dominating."""
    y = g.complement_set(x)
    adj = g.adj
    first: dict[int, int] = {}  # trace -> the vertex that has it
    while y:  # members(y), inlined as in x_partition: every witness check comes through here
        low = y & -y
        t = adj[low.bit_length() - 1] & x
        if t in first:
            return None
        first[t] = low
        y ^= low
    return first.get(0, 0)


def is_locating(g: Graph, x: int) -> bool:
    """All vertices outside x have pairwise distinct traces."""
    return outside_walk(g, x) is not None


def is_dominating(g: Graph, x: int) -> bool:
    """Every vertex outside x has a neighbor in x."""
    y = g.complement_set(x)
    adj = g.adj
    while y:  # members(y), inlined as in outside_walk
        low = y & -y
        if not adj[low.bit_length() - 1] & x:
            return False
        y ^= low
    return True


def is_locating_dominating(g: Graph, x: int) -> bool:
    """Outside x, traces are pairwise distinct and none is empty."""
    return outside_walk(g, x) == 0


def extend_to_dominating(g: Graph, x: int) -> int:
    """Add the (unique) undominated vertex to a locating set, if any.

    A locating set has at most one outside vertex with empty trace, so the
    result is locating-dominating and at most one vertex larger.
    """
    undominated = outside_walk(g, x)
    if undominated is None:
        raise InvalidInput("x is not locating")
    return x | undominated
