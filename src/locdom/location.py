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


def score_table(g: Graph) -> bytearray:
    """separation_score of every subset, indexed by its bit pattern."""
    return bytearray(separation_score(g, a) for a in range(1 << g.n))


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
