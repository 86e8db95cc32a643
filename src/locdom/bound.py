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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import (
    BoundViolation,
    DomainViolation,
    NotGood,
    NotMaximal,
    Infeasible,
    RefusedScale,
    TwinsPresent,
    VerificationFailed,
)
from .graphs import Graph, is_twin_free, members, splitmix64
from .location import (
    extend_to_dominating,
    is_locating,
    representatives,
    score_table,
    separation_score,
    x_partition,
)

EXACT_CEILING_DEFAULT = 20

CANDIDATE_TAGS = ("eq1", "eq2", "eq3", "eq4")


@dataclass(frozen=True)
class ScoredSet:
    """A subset with its two separation scores."""

    a: int
    s_a: int
    s_comp: int

    @property
    def sum(self) -> int:
        return self.s_a + self.s_comp


@dataclass(frozen=True)
class GoodDecomposition:
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


@dataclass(frozen=True)
class Candidate:
    tag: str
    vertex_set: int
    size: int
    locating: bool


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a bound construction run."""

    n: int
    candidates: tuple[Candidate, ...]
    witness: int
    mode: str
    certified: bool
    s_value: int
    k: int
    ld_witness: int | None = None

    @property
    def witness_size(self) -> int:
        return self.witness.bit_count()

    @property
    def ld_witness_size(self) -> int | None:
        if self.ld_witness is None:
            return None
        return self.ld_witness.bit_count()


def score_sum(g: Graph, a: int) -> ScoredSet:
    return ScoredSet(a, separation_score(g, a), separation_score(g, g.complement_set(a)))


def thinning_move(g: Graph, a: int, u_class: int, u: int) -> int:
    """Absorb all but u of a non-trivial complement class into a.

    Neither separation score decreases under this move; tests check that
    property, this function only performs the absorption.
    """
    part = x_partition(g, a, g.complement_set(a))
    if u_class not in part.classes:
        raise DomainViolation("u_class is not a class of the a-partition")
    if u_class.bit_count() < 2:
        raise DomainViolation("u_class is trivial")
    if not u_class >> u & 1:
        raise DomainViolation("u is not a member of u_class")
    return a | (u_class ^ 1 << u)


def local_search(g: Graph, a0: int) -> ScoredSet:
    """Greedy thinning: apply the first strictly improving move until stuck.

    Scans classes in minimum-member order with u = the class minimum; stops
    when the complement side has no non-trivial class or no move improves
    the score sum.  Each accepted move strictly increases the sum, so this
    terminates.
    """
    a = a0
    current = score_sum(g, a)
    while True:
        part = x_partition(g, a, g.complement_set(a))
        moved = False
        for cls in part.classes:
            if cls.bit_count() < 2:
                continue
            u_bit = cls & -cls
            a2 = a | (cls ^ u_bit)
            scored2 = score_sum(g, a2)
            if scored2.sum > current.sum:
                a = a2
                current = scored2
                moved = True
                break
        if not moved:
            return current


def derive_good_set(g: Graph, a: int, s_max: int | None = None) -> int:
    """Normalize a maximizer into a good set: the complement-class representatives.

    Returns the minimum-index representatives r of the a-partition of the
    complement of a.  The complement-side partition of r always has |r|
    singleton classes, so s(complement(r)) = |r|; when a attains the global
    maximum score sum, r attains it too and is therefore a good set, which
    makes the complement of r a locating set.
    """
    scored = score_sum(g, a)
    if s_max is not None and scored.sum != s_max:
        raise NotMaximal(f"score sum {scored.sum} != maximum {s_max}")
    r = representatives(x_partition(g, a, g.complement_set(a)))
    scored_r = score_sum(g, r)
    if scored_r.s_comp != r.bit_count():
        raise Infeasible("representative set failed structural goodness")
    if s_max is not None and scored_r.sum != s_max:
        raise NotMaximal("normalized set lost the maximum score sum")
    return r


def max_score_exact(g: Graph, ceiling: int = EXACT_CEILING_DEFAULT) -> tuple[int, int]:
    """Exhaustive maximum S of the score sum, plus a k-maximal good set.

    One table T of separation scores over all 2^n subsets (score_table,
    built with whole-table bit-plane operations) gives the score sums
    T[a] + T[V \\ a] as one integer addition: reading T's bytes in reverse
    order is T at the complements.  S is the largest value present, found
    from n downward since s(a) <= |V \\ a| and s(V \\ a) <= |a|.  The good
    maximizers are the r with T[r] + T[V \\ r] = S and T[V \\ r] = |r|; they
    are exactly the images of the maximizers under derive_good_set.  That
    normalization maps every maximizer to a good maximizer (or raises), and
    every good maximizer r is the image of V \\ r: the partition of r by
    traces on V \\ r has only trivial classes, so its representatives are r
    itself.  Among the good maximizers this returns the one with the largest
    number k of non-trivial complement classes, ties broken by smallest bit
    pattern.  Every non-trivial class has at least two members, so
    k <= sum(|class| - 1) = (n - |r|) - T[r] = n - S on a good maximizer;
    the walk over maximizers, in increasing bit pattern, stops at the first
    good one reaching n - S (the first good one at all when S = n).
    """
    if g.n > ceiling:
        raise RefusedScale(f"exact maximization refused for n={g.n} > {ceiling}")
    n = g.n
    full = g.full_set
    table = score_table(g)
    sums = (int.from_bytes(table, "little") + int.from_bytes(table, "big")).to_bytes(len(table), "little")
    best_sum = next(s for s in range(n, -1, -1) if s in sums)
    best_good = None
    best_k = -1
    r = sums.find(best_sum)
    while r >= 0:
        if table[full ^ r] == r.bit_count():
            part = x_partition(g, r, full ^ r)
            k = sum(1 for cls in part.classes if cls.bit_count() >= 2)
            if k > best_k:
                best_k = k
                best_good = r
                if k == n - best_sum:
                    break
        r = sums.find(best_sum, r + 1)
    if best_good is None:
        raise Infeasible("no maximizer of the score sum is a good set")
    return best_sum, best_good


def build_z(g: Graph, a: int, b: int) -> int:
    """Greedy separator: z inside a whose partition of b equals a's.

    While the z-partition of b has fewer classes than the a-partition, two
    a-classes share a z-class; any vertex of a \\ z adjacent to all of one
    and none of the other splits them.  Such a vertex always exists because
    the two classes have distinct traces in a and no vertex of z separates
    them.  At most k-1 additions are needed.
    """
    a_part = x_partition(g, a, b)
    k = len(a_part)
    if k <= 1:
        return 0
    # pick one probe vertex per a-class; traces are constant on a class
    probes = [(cls & -cls).bit_length() - 1 for cls in a_part.classes]
    z = 0
    while True:
        z_part = x_partition(g, z, b)
        if len(z_part) == k:
            break
        if z.bit_count() >= k - 1:
            raise Infeasible("separator exceeded k-1 vertices")
        # find two a-classes merged under z
        pair = None
        for zc in z_part.classes:
            inside = [p for p in probes if zc >> p & 1]
            if len(inside) >= 2:
                pair = (inside[0], inside[1])
                break
        if pair is None:
            raise Infeasible("class counts disagree but no merged pair found")
        u, u2 = pair
        sep = None
        for w in members(a & ~z):
            if (g.adj[w] >> u & 1) != (g.adj[w] >> u2 & 1):
                sep = w
                break
        if sep is None:
            raise Infeasible("no separating vertex available in a \\ z")
        z |= 1 << sep
    return z


def decompose(g: Graph, a: int, s_max: int | None = None) -> GoodDecomposition:
    """Decompose a good set into (b, r_b, c, k, a_prime, z)."""
    scored = score_sum(g, a)
    if scored.s_comp != a.bit_count():
        raise NotGood("complement-side partition of a has a non-trivial class")
    if s_max is not None and scored.sum != s_max:
        raise NotGood(f"score sum {scored.sum} != maximum {s_max}")
    comp = g.complement_set(a)
    part = x_partition(g, a, comp)
    b = 0
    r_b = 0
    k = 0
    for cls in part.classes:
        if cls.bit_count() >= 2:
            b |= cls
            r_b |= cls & -cls
            k += 1
    c = comp & ~b
    rep_side = r_b | c
    rest = g.complement_set(rep_side)  # a | (b \ r_b)
    a_prime = 0
    for cls in x_partition(g, rep_side, rest).classes:
        if cls.bit_count() >= 2:
            a_prime |= cls & a
    z = build_z(g, a, b)
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
    for tag in CANDIDATE_TAGS:
        s = sets[tag]
        loc = is_locating(g, s)
        if strict and not loc:
            raise VerificationFailed(f"candidate {tag} failed the locating check")
        out.append(Candidate(tag, s, s.bit_count(), loc))
    return tuple(out)


def _pick_witness(candidates: tuple[Candidate, ...]) -> int:
    usable = [c for c in candidates if c.locating]
    best = min(usable, key=lambda c: c.size)
    return best.vertex_set


def _random_subset(n: int, seed: int) -> int:
    state = seed
    s = 0
    for v in range(n):
        state, out = splitmix64(state)
        if out & 1:
            s |= 1 << v
    return s


def locating_size_limit(n: int) -> int:
    return (5 * n - 1) // 8


def ld_size_limit(n: int) -> int:
    return -(-5 * n // 8)  # ceil(5n/8)


def construct_locating(
    g: Graph,
    mode: str = "exact",
    max_exact: int = EXACT_CEILING_DEFAULT,
    rng_seed: int = 0x5EED,
) -> BoundReport:
    """Build a locating set witnessing the 5n/8-style bound.

    Exact mode runs the full pipeline off the true maximum S and certifies
    |witness| <= floor((5n-1)/8).  Heuristic mode runs greedy thinning from
    the empty set and from a seeded random set, reports the best verified
    candidate, and never certifies.
    """
    if g.n == 0:
        return BoundReport(0, (), 0, mode, mode == "exact", 0, 0)
    if not is_twin_free(g):
        raise TwinsPresent("graph has twin vertices; the bound does not apply")
    if mode == "exact":
        s_value, good = max_score_exact(g, ceiling=max_exact)
        d = decompose(g, good, s_max=s_value)
        cands = candidate_sets(g, d, strict=True)
        witness = _pick_witness(cands)
        if witness.bit_count() > locating_size_limit(g.n):
            raise BoundViolation(
                f"certified witness of size {witness.bit_count()} exceeds "
                f"{locating_size_limit(g.n)} for n={g.n}"
            )
        return BoundReport(g.n, cands, witness, "exact", True, s_value, d.k)
    if mode != "heuristic":
        raise DomainViolation(f"unknown mode {mode!r}")
    best: BoundReport | None = None
    for a0 in (0, _random_subset(g.n, rng_seed)):
        scored = local_search(g, a0)
        good = derive_good_set(g, scored.a)
        d = decompose(g, good)
        cands = candidate_sets(g, d, strict=False)
        witness = _pick_witness(cands)
        report = BoundReport(g.n, cands, witness, "heuristic", False, d.s_value, d.k)
        if best is None or report.witness_size < best.witness_size:
            best = report
    return best


def construct_ld(
    g: Graph,
    mode: str = "exact",
    max_exact: int = EXACT_CEILING_DEFAULT,
    rng_seed: int = 0x5EED,
) -> BoundReport:
    """construct_locating plus the at-most-one-vertex domination fix-up."""
    report = construct_locating(g, mode, max_exact, rng_seed)
    if g.n == 0:
        return dataclasses.replace(report, ld_witness=0)
    ld = extend_to_dominating(g, report.witness)
    if report.certified and ld.bit_count() > ld_size_limit(g.n):
        raise BoundViolation(
            f"LD witness of size {ld.bit_count()} exceeds {ld_size_limit(g.n)}"
        )
    return dataclasses.replace(report, ld_witness=ld)
