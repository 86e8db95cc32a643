"""Constructive 5n/8 bound for locating sets in twin-free graphs.

The pipeline: maximize the separation-score sum s(A) + s(complement(A)) over
all subsets, normalize a maximizer into a good set (one whose complement-side
partition of it has only trivial classes), decompose the good set into the
non-trivial-class union B, its representatives R_B, the trivial remainder C,
a small separator Z inside A, and the set A' of A-vertices not located by
the representative side.  Four locating candidates fall out, and the
smallest is guaranteed (in exact mode, on twin-free input) to have size at
most floor((5n-1)/8); one more vertex makes it dominating as well, giving
ceil(5n/8).

A set is scored once: score_sum returns a ScoredSet carrying both trace
partitions (the A-partition of V \\ A and the (V \\ A)-partition of A), the
scores are their class counts, and each step reads the partitions of the
set it was handed.  build_z reads the Z-classes of B off x_partition after
each vertex it adds to Z.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import BoundViolation, InvalidInput, TwinsPresent, VerificationFailed, refuse, require_at_least
from .graphs import Graph, is_twin_free, members, random_subset
from .location import fewest_repeats, first_split, outside_walk, representatives, x_partition

# the ceiling of the full sums alone (_max_score_full): a graph that splits
# is certified at any n
EXACT_CEILING_DEFAULT = 24

CANDIDATE_TAGS = ("eq1", "eq2", "eq3", "eq4")


class ScoredSet(NamedTuple):
    """A subset a with its two trace partitions, as x_partition orders them.

    by_a: the a-partition of V \\ a; by_comp: the (V \\ a)-partition of a.
    The separation scores s(a) and s(V \\ a) are their class counts.
    """

    a: int
    by_a: tuple[int, ...]
    by_comp: tuple[int, ...]

    @property
    def s_a(self) -> int:
        return len(self.by_a)

    @property
    def s_comp(self) -> int:
        return len(self.by_comp)

    @property
    def sum(self) -> int:
        return self.s_a + self.s_comp


class GoodDecomposition(NamedTuple):
    """A good set ``a`` with its derived anatomy.

    b: union of the non-trivial classes of the a-partition of the complement;
    r_b: minimum-index representatives of those classes; k = |r_b|;
    c: the trivially-classed remainder of the complement;
    a_prime: vertices of a in non-trivial classes of the (r_b | c)-partition
    of the rest of the graph;
    z: a separator of at most max(k-1, 0) vertices inside a whose partition
    of b coincides with a's partition of b.
    """

    a: int
    b: int
    r_b: int
    c: int
    k: int
    a_prime: int
    z: int
    s_value: int


class Candidate(NamedTuple):
    """A candidate set with what the one walk over its complement
    (location.outside_walk) found: whether it is locating, and if so the
    outside vertex with the empty trace as a one-vertex set (0 when there is
    none, or when the set is not locating), which makes it
    locating-dominating."""

    tag: str
    vertex_set: int
    size: int
    locating: bool
    undominated: int


class BoundReport(NamedTuple):
    """Outcome of a bound construction run."""

    candidates: tuple[Candidate, ...]
    witness: int
    mode: str
    certified: bool
    s_value: int
    k: int
    ld_witness: int

    @property
    def witness_size(self) -> int:
        return self.witness.bit_count()

    @property
    def ld_witness_size(self) -> int:
        return self.ld_witness.bit_count()


def score_sum(g: Graph, a: int) -> ScoredSet:
    comp = g.complement_set(a)
    return ScoredSet(a, x_partition(g, a, comp), x_partition(g, comp, a))


def thinning_move(g: Graph, a: int, u_class: int, u: int) -> int:
    """Absorb all but u of a non-trivial complement class into a.

    Neither separation score decreases under this move; tests check that
    property, this function only performs the absorption.
    """
    if u_class not in x_partition(g, a, g.complement_set(a)):
        raise InvalidInput("u_class is not a class of the a-partition")
    if u_class.bit_count() < 2:
        raise InvalidInput("u_class is trivial")
    if not u_class >> u & 1:
        raise InvalidInput("u is not a member of u_class")
    return a | (u_class ^ 1 << u)


def local_search(g: Graph, a0: int) -> ScoredSet:
    """Greedy thinning: apply the first strictly improving move until stuck.

    Scans classes in minimum-member order with u = the class minimum; stops
    when the complement side has no non-trivial class or no move improves
    the score sum.  Each accepted move strictly increases the sum, so this
    terminates.
    """
    current = score_sum(g, a0)
    while True:
        for cls in current.by_a:
            if cls.bit_count() < 2:
                continue
            scored2 = score_sum(g, current.a | (cls ^ cls & -cls))
            if scored2.sum > current.sum:
                current = scored2
                break
        else:
            return current


def derive_good_set(g: Graph, a: int, s_max: int | None = None) -> int:
    """Normalize a maximizer into a good set: the complement-class representatives.

    Returns the minimum-index representatives r of the a-partition of the
    complement of a.  The complement-side partition of r always has |r|
    singleton classes, so s(complement(r)) = |r|; when a attains the global
    maximum score sum, r attains it too and is therefore a good set, which
    makes the complement of r a locating set.
    """
    return _good_set(g, score_sum(g, a), s_max).a


def _good_set(g: Graph, scored: ScoredSet, s_max: int | None = None) -> ScoredSet:
    """derive_good_set off a scored set, returning the good set scored.

    When every class of the a-partition is a singleton, r is V \\ a, and
    score_sum(g, r) would make the two x_partition calls that scored a made,
    in the other order: its ScoredSet is scored's with the two partitions
    swapped, which is taken instead.  The checks below read it either way.
    """
    if s_max is not None and scored.sum != s_max:
        raise InvalidInput(f"score sum {scored.sum} != maximum {s_max}")
    r = representatives(scored.by_a)
    if r == g.complement_set(scored.a):
        scored_r = ScoredSet(r, scored.by_comp, scored.by_a)
    else:
        scored_r = score_sum(g, r)
    if scored_r.s_comp != r.bit_count():
        raise VerificationFailed("representative set failed structural goodness")
    if s_max is not None and scored_r.sum != s_max:
        raise VerificationFailed("normalized set lost the maximum score sum")
    return scored_r


def max_score_exact(g: Graph, ceiling: int = EXACT_CEILING_DEFAULT) -> tuple[int, int]:
    """Exhaustive maximum S of the score sum, plus a k-maximal good set.

    A side's score is at most the size of the other side, with equality iff
    the side is locating, so S <= n, with equality iff V splits into two
    locating sets.  The good maximizers are the maximizers r with
    s(V \\ r) = |r|, that is with V \\ r locating; when S = n they are the
    r with both r and V \\ r locating, every one has k = 0 non-trivial
    complement classes, and the one returned is the first in bit order:
    location.first_split, which stops at it, at any n.  Only when no split
    exists are all 2^n subsets read (_max_score_full), and only they are
    bounded by the ceiling: a negative ceiling is InvalidInput before any
    walk, and a graph with no split and n above the ceiling RefusedScale
    after the walk.
    """
    require_at_least("ceiling", 0, ceiling)
    r = first_split(g, pinned=False)
    if r is not None:
        return g.n, r
    if g.n > ceiling:
        refuse("exact maximization", g.n, ceiling)
    return _max_score_full(g)


def _max_score_full(g: Graph) -> tuple[int, int]:
    """max_score_exact off the duplicate counts of all 2^n subsets, for any S.

    Let V \\ r be locating.  Then s(V \\ r) = |r|, and s(r) = |V \\ r| - D(r),
    where D(r) counts the vertices outside r whose trace on r repeats the
    trace of an earlier vertex outside r, so the score sum at r is n - D(r).
    Every maximizer normalizes to such an r (derive_good_set), so
    S = n - min D over these r, and the good maximizers are exactly the
    minimizers.  They are exactly the images of the maximizers under
    derive_good_set: that normalization maps every maximizer to a good
    maximizer (or raises), and every good maximizer r is the image of
    V \\ r, as the partition of r by traces on V \\ r has only trivial
    classes, so its representatives are r itself.  location.fewest_repeats
    gives min D and the minimizers.

    Among the good maximizers this returns the one with the largest number
    k of non-trivial complement classes, ties broken by smallest bit
    pattern.  Every non-trivial class has at least two members, so
    k <= sum(|class| - 1) = (n - |r|) - s(r) = n - S on a good maximizer;
    the walk over good maximizers, in increasing bit pattern, stops at the
    first one reaching n - S (the first one at all when S = n).
    """
    fewest, minimizers = fewest_repeats(g)
    best_good, best_k = None, -1
    for r in minimizers:
        k = sum(1 for cls in x_partition(g, r, g.complement_set(r)) if cls.bit_count() >= 2)
        if k > best_k:
            best_k, best_good = k, r
            if k >= fewest:
                break
    if best_good is None:
        raise VerificationFailed("no maximizer of the score sum is a good set")
    return g.n - fewest, best_good


def build_z(g: Graph, a: int, a_part: tuple[int, ...]) -> int:
    """Greedy separator: z inside a whose partition of b equals a's.

    a_part is the a-partition of b (x_partition(g, a, b)), k = len(a_part).
    While the z-partition of b has fewer classes than the a-partition, two
    a-classes share a z-class; any vertex of a \\ z adjacent to all of one
    and none of the other splits them.  Such a vertex always exists because
    the two classes have distinct traces in a and no vertex of z separates
    them.  At most k-1 additions are needed.  The pair is the two smallest
    class minima in the first z-class, by minimum member, that holds two,
    and the separator the smallest such vertex.  The z-partition of b
    starts as the one class b and is x_partition(g, z, b) after each
    addition, so its classes stay in minimum-member order.
    """
    k = len(a_part)
    if k <= 1:
        return 0
    # one probe vertex per a-class, its minimum; traces are constant on a class
    probes = representatives(a_part)
    b = sum(a_part)  # the classes are disjoint
    z_part = (b,)
    z = 0
    while len(z_part) != k:
        if z.bit_count() >= k - 1:
            raise VerificationFailed("separator exceeded k-1 vertices")
        # find two a-classes merged under z
        inside = next((zc & probes for zc in z_part if (zc & probes).bit_count() >= 2), 0)
        if not inside:
            raise VerificationFailed("class counts disagree but no merged pair found")
        rest = inside & (inside - 1)
        pair = inside & -inside | rest & -rest  # its two smallest probes
        sep = next((w for w in members(a & ~z) if (g.adj[w] & pair).bit_count() == 1), None)
        if sep is None:
            raise VerificationFailed("no separating vertex available in a \\ z")
        z |= 1 << sep
        z_part = x_partition(g, z, b)
    return z


def decompose(g: Graph, a: int, s_max: int | None = None) -> GoodDecomposition:
    """Decompose a good set into (b, r_b, c, k, a_prime, z)."""
    return _decompose(g, score_sum(g, a), s_max)


def _decompose(g: Graph, scored: ScoredSet, s_max: int | None = None) -> GoodDecomposition:
    """decompose off a scored set: b, r_b and k are read off its a-partition
    of the complement, whose non-trivial classes are the a-partition of b."""
    a = scored.a
    if scored.s_comp != a.bit_count():
        raise InvalidInput("complement-side partition of a has a non-trivial class")
    if s_max is not None and scored.sum != s_max:
        raise InvalidInput(f"score sum {scored.sum} != maximum {s_max}")
    b_part = tuple(cls for cls in scored.by_a if cls.bit_count() >= 2)
    b = sum(b_part)  # the classes are disjoint
    r_b = representatives(b_part)
    k = len(b_part)
    c = g.complement_set(a) & ~b
    a_prime = 0
    # at k = 0 the rest is a and its (r_b | c)-partition is by_comp, whose
    # classes the goodness check above found all trivial, so a_prime is empty
    if k:
        rep_side = r_b | c
        rest = g.complement_set(rep_side)  # a | (b \ r_b)
        for cls in x_partition(g, rep_side, rest):
            if cls.bit_count() >= 2:
                a_prime |= cls & a
    z = build_z(g, a, b_part)
    return GoodDecomposition(a, b, r_b, c, k, a_prime, z, scored.sum)


def candidate_sets(g: Graph, d: GoodDecomposition, strict: bool = True) -> tuple[Candidate, ...]:
    """The four candidate locating sets with size identities checked.

    eq1: complement of the representative-side good set; eq2: complement of
    a; eq3: a with the trivial remainder; eq4: the assembled small set
    a_prime | z | r_b | c (defined as c alone when k = 0, where it equals
    eq2).  In strict (exact) mode every candidate must verify as locating
    and the eq4 size bound must hold; failures indicate an implementation
    bug and raise.
    """
    n = g.n
    b = d.b.bit_count()
    c = d.c.bit_count()
    k = d.k
    sets = {
        "eq1": d.a | (d.b & ~d.r_b),
        "eq2": d.b | d.c,
        "eq3": d.a | d.c,
        "eq4": (d.a_prime | d.z | d.r_b | d.c) if k >= 1 else d.c,
    }
    sizes = [sets[tag].bit_count() for tag in CANDIDATE_TAGS[:3]]
    if sizes != [n - c - k, b + c, n - b]:
        raise VerificationFailed(f"eq1-eq3 sizes {sizes} break their identities")
    if strict:
        if d.a_prime.bit_count() > k:
            raise VerificationFailed("|a_prime| exceeds k on a k-maximal good set")
        if k >= 1 and sets["eq4"].bit_count() > c + 3 * k - 1:
            raise VerificationFailed("eq4 candidate exceeds c + 3k - 1")
    out = []
    walks: dict[int, int | None] = {}  # one walk per distinct set: at k = 0 eq4 is eq2 and eq3 is V
    for tag in CANDIDATE_TAGS:
        s = sets[tag]
        if s not in walks:
            walks[s] = outside_walk(g, s)
        walk = walks[s]
        if strict and walk is None:
            raise VerificationFailed(f"candidate {tag} failed the locating check")
        out.append(Candidate(tag, s, s.bit_count(), walk is not None, walk or 0))
    return tuple(out)


# a decomposition, its candidates, and the smallest locating one
_Run = tuple[GoodDecomposition, tuple[Candidate, ...], Candidate]


def _run(g: Graph, d: GoodDecomposition, strict: bool) -> _Run:
    cands = candidate_sets(g, d, strict=strict)
    return d, cands, min((c for c in cands if c.locating), key=lambda c: c.size)


def _require_twin_free(g: Graph) -> None:
    if not is_twin_free(g):
        raise TwinsPresent("graph has twin vertices; the bound does not apply")


def _thinned_run(g: Graph, a0: int) -> _Run:
    """The heuristic run from a0: greedy thinning, its good set, unchecked candidates."""
    return _run(g, _decompose(g, _good_set(g, local_search(g, a0))), strict=False)


@lru_cache(maxsize=1)
def _empty_start(g: Graph) -> _Run:
    """The twin check and the heuristic run from the empty set, memoized for
    the last graph (a one-entry lru_cache keyed by the frozen Graph):
    neither reads the seed, so a study of many seeds on one graph runs them
    once.  A graph with twins raises TwinsPresent, which lru_cache does not
    store, so it raises every call."""
    _require_twin_free(g)
    return _thinned_run(g, 0)


def locating_size_limit(n: int) -> int:
    return (5 * n - 1) // 8


def ld_size_limit(n: int) -> int:
    return -(-5 * n // 8)  # ceil(5n/8)


def construct_ld(
    g: Graph,
    mode: str = "exact",
    max_exact: int = EXACT_CEILING_DEFAULT,
    rng_seed: int = 0x5EED,
) -> BoundReport:
    """Build a locating set witnessing the 5n/8-style bound, then make it dominating.

    Exact mode runs the full pipeline off the true maximum S and certifies
    |witness| <= floor((5n-1)/8).  It reaches S through max_score_exact,
    where max_exact bounds only the full sums that a graph with no split
    needs, so a twin-free graph that splits is certified at any n.
    Heuristic mode runs greedy thinning from the empty set and from a
    seeded random set, keeps the random start only when its witness is
    strictly smaller, and never certifies; the twin
    check and the empty start do not read rng_seed and are memoized for
    the last graph (_empty_start), so only the random start runs again when
    the seed alone changes.  Either way the locating witness gains at most
    one vertex to become locating-dominating: the outside vertex with the
    empty trace, which candidate_sets' walk over the witness's complement
    already found, so the witness is not walked again.  A certified run
    checks the result against ceil(5n/8).  A negative max_exact in exact
    mode is InvalidInput.
    """
    if mode not in ("exact", "heuristic"):
        raise InvalidInput(f"unknown mode {mode!r}")
    certified = mode == "exact"
    if certified:
        require_at_least("max_exact", 0, max_exact)
    if g.n == 0:
        return BoundReport((), 0, mode, certified, 0, 0, 0)
    if certified:
        _require_twin_free(g)
        s_value, good = max_score_exact(g, ceiling=max_exact)
        d, cands, best = _run(g, decompose(g, good, s_max=s_value), strict=True)
    else:
        d, cands, best = _empty_start(g)
        seeded = _thinned_run(g, random_subset(g.n, rng_seed))
        if seeded[2].size < best.size:
            d, cands, best = seeded
    witness = best.vertex_set
    if certified and witness.bit_count() > locating_size_limit(g.n):
        raise BoundViolation(
            f"certified witness of size {witness.bit_count()} exceeds "
            f"{locating_size_limit(g.n)} for n={g.n}"
        )
    ld = witness | best.undominated
    if certified and ld.bit_count() > ld_size_limit(g.n):
        raise BoundViolation(
            f"LD witness of size {ld.bit_count()} exceeds {ld_size_limit(g.n)}"
        )
    return BoundReport(cands, witness, mode, certified, d.s_value, d.k, ld)
