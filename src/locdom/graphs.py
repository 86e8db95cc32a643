"""Bit-packed simple undirected graphs.

Vertices are dense integers 0..n-1.  A vertex set is a plain Python int
used as a bitmask (bit v set <=> vertex v is a member), which makes
set algebra single machine operations for the small orders this package
targets.  Graphs are immutable: ``adj[v]`` is the bitmask of the open
neighborhood N(v).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, islice
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidInput, refuse

GRAPH6_MAX_ORDER = 258047
ENUM_MAX_ORDER = 7  # 2^21 graphs at n=7 is the practical full-enumeration ceiling

_M64 = (1 << 64) - 1


def members(s: int) -> Iterator[int]:
    """Vertices of a bitmask set, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def set_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with bit-packed adjacency rows.

    A frozen dataclass, unlike the NamedTuple result records: every kernel
    reads n and adj, and a dataclass attribute reads in about half the time
    of a NamedTuple field.
    """

    n: int
    adj: tuple[int, ...]

    @property
    def full_set(self) -> int:
        """The vertex set V as a bitmask."""
        return (1 << self.n) - 1

    def complement_set(self, s: int) -> int:
        """V \\ s, for a vertex set s within V: every function that takes a
        vertex set checks it here."""
        if s >> self.n:  # a bit above V, or s < 0
            raise InvalidInput(f"vertex set {s} is not within the {self.n} vertices")
        return self.full_set ^ s

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in members(self.adj[v] & ((1 << v) - 1)):
                yield (u, v)


class TwinPair(NamedTuple):
    u: int
    v: int
    kind: str  # "open" or "closed"


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse, loops are errors."""
    if n < 0:
        raise InvalidInput(f"negative vertex count {n}")
    adj = [0] * n
    for u, v in edges:
        if fault := _edge_fault(n, u, v):
            raise InvalidInput(fault)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _edge_fault(n: int, u: int, v: int) -> str:
    """Why (u, v) is not an edge of a simple graph on 0..n-1, or ''."""
    if u == v:
        return f"loop at vertex {u}"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u}, {v}) outside range 0..{n - 1}"
    return ""


# ---------------------------------------------------------------------------
# graph6 codec.  Standard format: order as N(n), then the upper triangle
# read column-major -- (0,1),(0,2),(1,2),(0,3),..., the pair order of
# labeled_graph's pattern -- packed big-endian into 6-bit chunks, each chunk
# emitted as chr(value + 63); trailing pad bits zero.

_G6_HEADER = ">>graph6<<"
# each graph6 character to its six bits, most significant first
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
# six bits of the pattern, its first bit lowest, to their graph6 character
_G6_REVERSED = [chr(int(format(j, "06b")[::-1], 2) + 63) for j in range(64)]
_G6_OUTSIDE = re.compile(r"[^?-~]")  # '?' .. '~' are the 64 graph6 characters
# graph6 text is split on "\n" and stripped of these alone (str.strip and
# str.splitlines also take \x0b, \x0c and \x1c-\x1f), so every other
# character reaches the alphabet check
_G6_BLANKS = " \t\r\n"


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= GRAPH6_MAX_ORDER:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    raise InvalidInput(f"graph6 order {n} exceeds {GRAPH6_MAX_ORDER}")


def encode_graph6(g: Graph) -> str:
    """The graph6 text of g: encode_pattern of its triangle pattern, the m
    with labeled_graph(g.n, m) == g."""
    if g.n > GRAPH6_MAX_ORDER:
        _encode_order(g.n)  # raises before a pattern of that many bits is built
    adj = g.adj
    m = 0
    for j in range(1, g.n):
        m |= (adj[j] & (1 << j) - 1) << (j * (j - 1) >> 1)
    return encode_pattern(g.n, m)


def _pattern_bits(n: int, m: int) -> int:
    """n(n-1)/2, the bit count of a triangle pattern on n vertices, for
    n >= 0 and 0 <= m < 2^(n(n-1)/2); anything else names no graph and is
    InvalidInput."""
    if n < 0:
        raise InvalidInput(f"negative vertex count {n}")
    nbits = n * (n - 1) // 2
    if m >> nbits:  # a bit past the last pair, or m < 0
        raise InvalidInput(f"triangle pattern {m} outside 0..2^{nbits} - 1 for n={n}")
    return nbits


def encode_pattern(n: int, m: int) -> str:
    """The graph6 text of labeled_graph(n, m): the order, then the triangle
    pattern m as the bit stream, bit t of m the t-th bit, padded to whole
    chunks.  n and m are checked as labeled_graph checks them.

    Each 3 bytes of m, little-endian, hold 4 whole chunks, their first bits
    lowest, so each chunk is one lookup in a table of bit-reversed chunk
    characters: linear in the bit count.
    """
    nbits = _pattern_bits(n, m)
    order = _encode_order(n)  # before the bytes, so too large an order raises at once
    data = m.to_bytes(-(-nbits // 24) * 3, "little")
    chars = _G6_REVERSED
    out = [order]
    for i in range(0, len(data), 3):
        w = data[i] | data[i + 1] << 8 | data[i + 2] << 16
        out += chars[w & 63], chars[w >> 6 & 63], chars[w >> 12 & 63], chars[w >> 18]
    # the last group may hold up to 3 chunks past the stream's padded end
    return "".join(out)[: len(order) + -(-nbits // 6)]


def graph6_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of graph6 text that are not '#' comments,
    stripped, with their 1-based line numbers."""
    numbered = enumerate((raw.strip(_G6_BLANKS) for raw in text.split("\n")), start=1)
    return [(i, line) for i, line in numbered if line and not line.startswith("#")]


def decode_graph6(text: str) -> Graph:
    line = text.strip(_G6_BLANKS)
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise InvalidInput("empty graph6 string")
    bad = _G6_OUTSIDE.search(line)
    if bad:
        raise InvalidInput(f"character {bad.group()!r} outside graph6 alphabet")
    if line[0] == "~":  # extended order
        if line[1:2] == "~":
            raise InvalidInput("8-byte order form not supported")
        if len(line) < 4:
            raise InvalidInput("truncated extended order")
        n = int(line[1:4].translate(_G6_BITS), 2)
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    nbits = n * (n - 1) // 2
    nchunks = (nbits + 5) // 6
    if len(body) < nchunks:
        raise InvalidInput(f"truncated bit stream: {len(body)} < {nchunks} chunks")
    if len(body) > nchunks:
        raise InvalidInput("trailing characters after adjacency bits")
    # the stream's first bit is bit 0 of m, and the pad bits lie above nbits
    m = int(body.translate(_G6_BITS)[::-1] or "0", 2)
    if m >> nbits:
        raise InvalidInput("nonzero padding bits")
    return labeled_graph(n, m)


# ---------------------------------------------------------------------------
# Edge-list text format: first non-comment line "n <count>", then "u v" lines;
# '#' starts a comment line.


def parse_edge_list(text: str) -> Graph:
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise InvalidInput(f"line {lineno}: expected 'n <count>' header")
            try:
                n = int(tokens[1])
            except ValueError:
                raise InvalidInput(f"line {lineno}: bad vertex count {tokens[1]!r}")
            if n < 0:
                raise InvalidInput(f"line {lineno}: negative vertex count {n}")
            continue
        if len(tokens) != 2:
            raise InvalidInput(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InvalidInput(f"line {lineno}: non-integer endpoint in {line!r}")
        if fault := _edge_fault(n, u, v):
            raise InvalidInput(f"line {lineno}: {fault}")
        pairs.append((u, v))
    if n is None:
        raise InvalidInput("no 'n <count>' header found")
    return new_graph(n, pairs)


# ---------------------------------------------------------------------------
# Deterministic generators.  The gnp generator and random_subset (the
# seeded start of the heuristic bound) draw from splitmix64, a 64-bit
# mixing PRNG pinned here by its constants so that seeded corpora
# reproduce bit-identically across implementations:
#   state += 0x9E3779B97F4A7C15
#   z = state
#   z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
#   z = (z ^ (z >> 27)) * 0x94D049BB133111EB
#   output = z ^ (z >> 31)
# (all arithmetic mod 2^64).  Pairs (u, v), u < v, are visited in
# lexicographic order and the edge is present iff output < p * 2^64.
#
# The state after i steps is seed + i * 0x9E3779B97F4A7C15, so no draw
# depends on another, and splitmix64_lanes computes a run of them at once,
# each in its own 128-bit lane of one int (SIMD within a register): a 64-bit
# lane times a 64-bit constant fits in its 128 bits, and the lane mask after
# each xor-shift keeps the bits shifted in from the next lane out of the
# product.  gnp draws one row (u, v > u) per run, continuing the count, so
# no int is wider than one row of draws.

_GAMMA = 0x9E3779B97F4A7C15
_LANE = 128


def _lanes(value: int, count: int) -> int:
    """value (below 2^128) in each of count lanes."""
    return int.from_bytes(value.to_bytes(_LANE // 8, "little") * count, "little")


def splitmix64_lanes(seed: int, count: int) -> int:
    """Outputs 0..count-1 of splitmix64 from state seed (mod 2^64): output i,
    drawn at state seed + (i+1) * gamma, is lane i, bits 128i..128i+63."""
    # the states, unreduced (below 2^128 for any count this side of 2^63),
    # doubled into place: lanes width.. are lanes 0.. plus width * gamma
    states = (seed & _M64) + _GAMMA
    width = 1
    while width < count:
        step = min(width, count - width)
        states |= ((states & (1 << _LANE * step) - 1) + _lanes(width * _GAMMA, step)) << _LANE * width
        width += step
    mask = _lanes(_M64, count)
    z = states & mask
    z = (z ^ z >> 30) & mask
    z = z * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) & mask
    z = z * 0x94D049BB133111EB & mask
    return (z ^ z >> 31) & mask


def _lane_bytes(lanes: int, count: int, offset: int) -> bytes:
    """Byte offset (0..15) of each of count lanes, lane 0 first."""
    return lanes.to_bytes(count * _LANE // 8, "little")[offset :: _LANE // 8]


# byte 0 to b"1" and byte 1 to b"0" (bit 64 of a lane plus 2^64 - threshold
# is 0 exactly when its output is below threshold); no other byte occurs
_BELOW_DIGIT = bytes.maketrans(b"\x00\x01", b"10")
_BELOW_FLAG = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# byte b to the digit of its bit 0
_LOW_BIT_DIGIT = bytes(ord("0") + (b & 1) for b in range(256))


GENERATOR_KINDS = ("path", "cycle", "complete", "gnp")


def generate(kind: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """Deterministic graph generators: path, cycle, complete, gnp."""
    if kind not in GENERATOR_KINDS:
        raise InvalidInput(f"unknown generator kind {kind!r}")
    if n < 0:
        raise InvalidInput(f"negative vertex count {n}")
    if kind == "path":
        return new_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n <= 2:
            return new_graph(n, [(i, i + 1) for i in range(n - 1)])
        return new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return new_graph(n, [(i, j) for j in range(n) for i in range(j)])
    # gnp
    if p is None or not 0.0 <= p <= 1.0:
        raise InvalidInput(f"gnp requires p in [0, 1], got {p!r}")
    if seed is None:
        raise InvalidInput("gnp requires a seed")
    over = (1 << 64) - int(p * (1 << 64))
    adj = [0] * n
    state = seed & _M64
    for u in range(n - 1):
        count = n - 1 - u  # the pairs (u, v), v = u+1..n-1
        # bit 64 of a lane is set iff its output is at least the threshold
        above = _lane_bytes(splitmix64_lanes(state, count) + _lanes(over, count), count, 8)
        state = (state + count * _GAMMA) & _M64
        adj[u] |= int(above.translate(_BELOW_DIGIT)[::-1], 2) << u + 1
        bit = 1 << u
        for v in compress(range(u + 1, n), above.translate(_BELOW_FLAG)):
            adj[v] |= bit
    return Graph(n, tuple(adj))


def random_subset(n: int, seed: int) -> int:
    """The set of the v < n whose splitmix64 output v from seed is odd, read
    off byte 0 of each lane."""
    low = _lane_bytes(splitmix64_lanes(seed, n), n, 0)
    return int(low.translate(_LOW_BIT_DIGIT)[::-1] or b"0", 2)


def labeled_graph_count(n: int) -> int:
    """2^(n(n-1)/2), the number of labeled simple graphs on n vertices.

    Raises as all_labeled_graphs does: InvalidInput for n < 0 and
    RefusedScale above ENUM_MAX_ORDER.
    """
    if n < 0:
        raise InvalidInput(f"negative vertex count {n}")
    if n > ENUM_MAX_ORDER:
        refuse("full enumeration", n, ENUM_MAX_ORDER)
    return 1 << n * (n - 1) // 2


# the struct codes of rows of 1, 2, 4 and 8 bytes; struct has none wider
_ROW_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _swap_mask(w: int, k: int) -> int:
    """The mask of delta swap step k on a w x w bit matrix: the bits (r, c)
    with bit k clear in r and set in c, joined row by row as bytes."""
    row = sum(1 << c for c in range(w) if c & k).to_bytes(w >> 3, "little")
    empty = bytes(w >> 3)
    return int.from_bytes(b"".join(empty if r & k else row for r in range(w)), "little")


@lru_cache(maxsize=None)
def _matrix_plan(w: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """labeled_graph's steps at row width w, cached for every w seen, so a
    corpus whose orders straddle a power of two builds each width once.
    The widths are powers of two, so all those below w hold less than a
    third of the masks of w.

    Bit w*r + c of the matrix is row r, column c.  First, for each j < w,
    the mask of j bits, j, and the offset j*w of row j.  Then (shift, mask)
    of each delta swap: step k swaps bit (r, c) with bit (r + k, c - k)
    wherever r lacks bit k and c has it, a shift of k(w - 1).  The steps
    k = w/2, ..., 1 transpose the whole matrix at every width, so the masks
    hold w^2 log2(w)/8 bytes (5.8 MB at w = 2048).
    """
    steps = [w >> i for i in range(1, w.bit_length())]
    swaps = tuple((k * (w - 1), _swap_mask(w, k)) for k in steps)
    return tuple(((1 << j) - 1, j, j * w) for j in range(w)), swaps


def labeled_graph(n: int, m: int) -> Graph:
    """The graph on n vertices whose triangle bit pattern is m, for n >= 0
    and 0 <= m < 2^(n(n-1)/2); anything else is InvalidInput.

    Bit t of m is the t-th pair in the column-major order
    (0,1),(0,2),(1,2),(0,3),..., so column j, the pairs (0,j)..(j-1,j),
    is the slice of j bits from j(j-1)/2 and reads as N(j) below j.

    Column j becomes row j of a w x w bit matrix L held in one int, w the
    smallest power of two >= max(8, n), and N(v) is row v of L | L^T: the
    cost is n column steps and O(w^2 log w) bit work, with no step per
    edge.  The transpose is the log-depth one of Warren (Hacker's Delight,
    section 7-3), by masked delta swaps (_matrix_plan), at every width.  A
    row of up to 8 bytes is one struct field; a wider one is read from its
    bytes.
    """
    _pattern_bits(n, m)
    w = 8 if n <= 8 else 1 << (n - 1).bit_length()
    columns, swaps = _matrix_plan(w)
    low = 0
    for mask, j, at in islice(columns, 1, n):
        low |= (m & mask) << at
        m >>= j
    high = low
    for shift, mask in swaps:
        d = (high ^ high >> shift) & mask
        high ^= d ^ d << shift
    rb = w >> 3  # bytes per row
    rows = (low | high).to_bytes(n * rb, "little")
    if rb in _ROW_CODES:
        return Graph(n, tuple(rows) if rb == 1 else struct.unpack(f"<{n}{_ROW_CODES[rb]}", rows))
    return Graph(n, tuple(int.from_bytes(rows[i : i + rb], "little") for i in range(0, n * rb, rb)))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices, labeled_graph(n, m) for m = 0, 1, ...

    The order checks of labeled_graph_count run at the call, not at the
    first item.
    """
    return map(partial(labeled_graph, n), range(labeled_graph_count(n)))


# ---------------------------------------------------------------------------
# Twins.


def find_twins(g: Graph) -> list[TwinPair]:
    """All twin pairs: open (N(u) = N(v)) or closed (N[u] = N[v])."""
    out = []
    for v in range(g.n):
        for u in range(v):
            if g.adj[u] == g.adj[v]:
                out.append(TwinPair(u, v, "open"))
            elif g.adj[u] | 1 << u == g.adj[v] | 1 << v:
                out.append(TwinPair(u, v, "closed"))
    return out


def is_twin_free(g: Graph) -> bool:
    """No open twins (equal rows) and no closed twins (equal rows with the diagonal)."""
    return len(set(g.adj)) == g.n and len({row | 1 << v for v, row in enumerate(g.adj)}) == g.n
