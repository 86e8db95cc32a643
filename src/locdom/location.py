"""Neighborhood traces, trace partitions, and the locating/dominating predicates.

The trace of a vertex v with respect to a set X is N(v) & X.  Partitioning a
set Y (disjoint from X) by equal trace yields the X-partition of Y; a set X
is locating when that partition of the complement of X has only singleton
classes, and dominating when every outside vertex has a non-empty trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainViolation, PreconditionViolated
from .graphs import Graph, members


@dataclass(frozen=True)
class ClassPartition:
    """Partition of ``ground`` into classes of equal trace.

    Classes are ordered by their minimum member; ``traces[i]`` is the common
    trace shared by every member of ``classes[i]``.
    """

    ground: int
    classes: tuple[int, ...]
    traces: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def trace(g: Graph, v: int, x: int) -> int:
    return g.adj[v] & x


def x_partition(g: Graph, x: int, y: int) -> ClassPartition:
    """Partition y by trace with respect to x; requires y within V \\ x."""
    if y & ~g.complement_set(x):
        raise DomainViolation("y must be a subset of the complement of x")
    groups: dict[int, int] = {}
    for v in members(y):
        t = g.adj[v] & x
        groups[t] = groups.get(t, 0) | 1 << v
    # insertion order = first-seen order = order by minimum member
    return ClassPartition(y, tuple(groups.values()), tuple(groups.keys()))


def representatives(part: ClassPartition) -> int:
    """Minimum-index member of each class of a ClassPartition."""
    chosen = 0
    for cls in part.classes:
        chosen |= cls & -cls
    return chosen


def separation_score(g: Graph, a: int) -> int:
    """Number of distinct traces over the complement of a."""
    return len({row & a for v, row in enumerate(g.adj) if not a >> v & 1})


# binary digits to byte values 0 and 2^j, one table per counter plane j
_DIGIT_TO_BYTE = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]


def score_table(g: Graph) -> bytes:
    """separation_score of every subset, indexed by its bit pattern.

    Bit-sliced: a predicate over all subsets is one 2^n-bit int whose bit a
    is its value at subset a, so each step below is one whole-table integer
    operation.  out[w] is "w not in a", built by doubling a run of 2^w ones.
    Outside a, u < v share a trace iff a misses N(u) xor N(v), so dup_v, the
    OR over u < v of out[u] ANDed with out[w] for every other w in that
    difference (v itself is left to out[v]), marks the subsets where an
    earlier vertex outside a has v's trace.  first_v = out[v] & ~dup_v then marks where v is the
    first of its trace class, and T[a] = sum over v of first_v(a).  The sum
    runs in bit-sliced counters, each counter plane is spread to one byte
    per subset through its binary digits, and the byte planes are ORed
    together.  About n^3/4 whole-table operations in all.
    """
    n = g.n
    size = 1 << n
    adj = g.adj
    out = []
    for w in range(n):
        width = 1 << w
        plane = (1 << width) - 1
        width <<= 1
        while width < size:
            plane |= plane << width
            width <<= 1
        out.append(plane)
    counters: list[int] = []  # counters[j] holds bit j of the running T
    for v, row in enumerate(adj):
        dup = 0
        for u in range(v):
            term = out[u]
            diff = (adj[u] ^ row) & ~(1 << u | 1 << v)
            while diff:
                low = diff & -diff
                term &= out[low.bit_length() - 1]
                diff ^= low
            dup |= term
        carry = out[v] & ~dup
        for j, c in enumerate(counters):
            counters[j] = c ^ carry
            carry &= c
            if not carry:
                break
        if carry:
            counters.append(carry)
    del out  # the n planes are not needed for the byte stage
    digits = f"0{size}b"
    total = 0
    for j, c in enumerate(counters):
        # format puts bit size-1 first, so big-endian bytes put bit a at byte a
        total |= int.from_bytes(format(c, digits).encode().translate(_DIGIT_TO_BYTE[j]), "big")
    return total.to_bytes(size, "little")


def distinguishes(g: Graph, x: int, v: int, v2: int) -> bool:
    """True iff vertex x is adjacent to exactly one of v, v2."""
    if v == v2 or x == v or x == v2:
        raise DomainViolation("need three distinct vertices")
    row = g.adj[x]
    return (row >> v & 1) != (row >> v2 & 1)


def is_locating(g: Graph, x: int) -> bool:
    """All vertices outside x have pairwise distinct traces."""
    comp = g.complement_set(x)
    adj = g.adj
    seen = set()
    for v in members(comp):
        t = adj[v] & x
        if t in seen:
            return False
        seen.add(t)
    return True


def is_dominating(g: Graph, x: int) -> bool:
    adj = g.adj
    return all(adj[v] & x for v in members(g.complement_set(x)))


def is_locating_dominating(g: Graph, x: int) -> bool:
    return is_locating(g, x) and is_dominating(g, x)


def extend_to_dominating(g: Graph, x: int) -> int:
    """Add the (unique) undominated vertex to a locating set, if any.

    A locating set has at most one outside vertex with empty trace, so the
    result is locating-dominating and at most one vertex larger.
    """
    if not is_locating(g, x):
        raise PreconditionViolated("x is not locating")
    for v in members(g.complement_set(x)):
        if not g.adj[v] & x:
            return x | 1 << v
    return x
