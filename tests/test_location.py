import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from locdom.bound import construct_ld, decompose, derive_good_set, score_sum
from locdom.errors import InvalidInput
from locdom.graphs import all_labeled_graphs, generate, is_twin_free, new_graph, set_of
from locdom.location import (
    BLOCK_BITS,
    SIZE_COUNTERS,
    _nibble_tables,
    count_planes,
    extend_to_dominating,
    fewest_repeats,
    first_split,
    is_dominating,
    is_locating,
    is_locating_dominating,
    least,
    min_good_set,
    miss_planes,
    outside_walk,
    representatives,
    score_table,
    x_partition,
)
from locdom.solver import min_locating_dominating

from conftest import random_graphs, small_graphs
from oracles import (
    ref_first_split,
    ref_is_dominating,
    ref_is_locating,
    ref_max_score,
    ref_min_witness,
    ref_partition,
    ref_s,
    ref_trace,
    to_mask,
    to_set,
)


class TestXPartition:
    def test_p4_single_probe(self, p4):
        assert x_partition(p4, set_of([0]), set_of([1, 2, 3])) == (set_of([1]), set_of([2, 3]))

    def test_p4_two_probes(self, p4):
        assert x_partition(p4, set_of([0, 2]), set_of([1, 3])) == (set_of([1]), set_of([3]))

    def test_empty_probe_one_class(self, c5):
        assert x_partition(c5, 0, c5.full_set) == (c5.full_set,)

    def test_overlap_rejected(self, p4):
        with pytest.raises(InvalidInput, match="y must be a subset of the complement of x"):
            x_partition(p4, set_of([0]), set_of([0, 1]))

    def test_out_of_range_rejected(self, p4):
        with pytest.raises(InvalidInput, match="y must be a subset of the complement of x"):
            x_partition(p4, 0, 1 << 4)

    def test_matches_reference(self):
        rng = random.Random(31)
        cases = []
        for g in random_graphs(30, 2, 10, seed0=31):
            cases += [(g, 0, g.full_set), (g, g.full_set, 0)]
            for x in range(0, 1 << g.n, 3):
                comp = g.complement_set(x)
                cases += [(g, x, comp), (g, x, comp & rng.getrandbits(g.n)), (g, x, 0)]
        # as many vertices in y as possible traces on x (2^|x|), and one fewer
        for g in random_graphs(12, 12, 14, seed0=33):
            for size in (0, 1, 2, 3):
                vertices = rng.sample(range(g.n), size + (1 << size))
                x, y = to_mask(vertices[:size]), to_mask(vertices[size:])
                cases += [(g, x, y), (g, x, y & y - 1)]
        # twin-free gnp graphs with n = 60-200: up to four probes, and random x
        for n in (60, 100, 150, 200):
            for g in [g for g in (generate("gnp", n, 0.3, s) for s in range(1, 20)) if is_twin_free(g)][:2]:
                for size in range(5):
                    x = to_mask(rng.sample(range(n), size))
                    comp = g.complement_set(x)
                    cases += [(g, x, comp), (g, x, comp & rng.getrandbits(n))]
                x = rng.getrandbits(n)
                cases.append((g, x, g.complement_set(x)))
        for g, x, y in cases:
            got = [to_set(c) for c in x_partition(g, x, y)]
            assert got == [set(c) for c in ref_partition(g, to_set(x), to_set(y))]

    def test_disjoint_union_invariant(self):
        for g in random_graphs(10, 3, 8, seed0=37):
            for x in range(1 << g.n):
                union = 0
                for c in x_partition(g, x, g.complement_set(x)):
                    assert c and not (union & c)
                    union |= c
                assert union == g.complement_set(x)

    def test_refinement_monotone(self):
        # adding probe vertices never merges classes
        for g in random_graphs(15, 3, 9, seed0=41):
            for x in range(0, 1 << g.n, 5):
                for extra in range(g.n):
                    x2 = x | 1 << extra
                    y = g.complement_set(x2)
                    p1 = {frozenset(to_set(c) & to_set(y)) for c in x_partition(g, x, g.complement_set(x))}
                    p2 = {frozenset(to_set(c)) for c in x_partition(g, x2, y)}
                    for cls in p2 - {frozenset()}:
                        assert any(cls <= big for big in p1)


class TestSeparationScore:
    def test_examples(self, p4):
        assert score_sum(p4, set_of([0])).s_a == 2
        assert score_sum(p4, set_of([0, 2])).s_a == 2

    def test_extremes(self, c5):
        assert score_sum(c5, c5.full_set).s_a == 0
        assert score_sum(c5, 0).s_a == 1

    def test_matches_reference(self):
        for g in random_graphs(20, 1, 9, seed0=43):
            for a in range(1 << g.n):
                assert score_sum(g, a).s_a == ref_s(g, to_set(a))

    def test_table_matches_reference(self):
        # n = 0 is the one-entry table; n < 3 has planes narrower than a byte
        graphs = [new_graph(0, [])] + random_graphs(16, 1, 8, seed0=47) + random_graphs(8, 9, 12, seed0=53)
        for g in graphs:
            assert list(score_table(g)) == [ref_s(g, to_set(a)) for a in range(1 << g.n)]


class TestPredicates:
    def test_locating_examples(self, p4, k1):
        assert is_locating(p4, set_of([0, 3]))
        assert not is_locating(p4, set_of([1]))
        assert is_locating(k1, 0)  # singleton complement is vacuously located

    def test_dominating_examples(self, p4):
        assert is_dominating(p4, set_of([0, 3]))
        assert not is_dominating(p4, set_of([0]))
        assert is_dominating(p4, p4.full_set)

    def test_ld_examples(self, p4, c5):
        assert is_locating_dominating(p4, set_of([0, 3]))
        assert is_locating_dominating(c5, set_of([0, 2]))
        assert not is_locating_dominating(p4, set_of([1]))

    def test_locating_iff_class_count(self):
        for g in random_graphs(20, 1, 9, seed0=47):
            for x in range(1 << g.n):
                comp = g.complement_set(x)
                assert is_locating(g, x) == (len(x_partition(g, x, comp)) == comp.bit_count())

    def test_matches_reference(self):
        for g in random_graphs(20, 1, 9, seed0=53):
            for x in range(1 << g.n):
                assert is_locating(g, x) == ref_is_locating(g, to_set(x))
                assert is_dominating(g, x) == ref_is_dominating(g, to_set(x))

    def test_locating_superset_monotone(self):
        for g in random_graphs(15, 2, 8, seed0=59):
            for x in range(1 << g.n):
                if not is_locating(g, x):
                    continue
                for extra in range(g.n):
                    assert is_locating(g, x | 1 << extra)


class TestExtendToDominating:
    def test_c5_gap(self, c5):
        assert extend_to_dominating(c5, set_of([0, 1])) == set_of([0, 1, 3])

    def test_already_dominating(self, p4):
        x = set_of([0, 3])
        assert extend_to_dominating(p4, x) == x

    def test_k1(self, k1):
        assert extend_to_dominating(k1, 0) == set_of([0])

    def test_precondition(self, p4):
        with pytest.raises(InvalidInput, match="x is not locating"):
            extend_to_dominating(p4, set_of([1]))

    def test_adds_at_most_one(self):
        for g in random_graphs(25, 1, 9, seed0=61):
            for x in range(1 << g.n):
                if not is_locating(g, x):
                    continue
                ext = extend_to_dominating(g, x)
                assert is_locating_dominating(g, ext)
                assert ext.bit_count() <= x.bit_count() + 1


def test_outside_walk_readers_match_reference():
    # is_locating, is_locating_dominating and extend_to_dominating read one
    # walk over V \ x; each must agree with the set-based oracles on every
    # labeled graph with n <= 5 and every x
    for n in range(6):
        for g in all_labeled_graphs(n):
            for x in range(1 << n):
                x_set = to_set(x)
                locating = ref_is_locating(g, x_set)
                assert is_locating(g, x) == locating
                assert is_locating_dominating(g, x) == (locating and ref_is_dominating(g, x_set))
                if not locating:
                    with pytest.raises(InvalidInput, match="x is not locating"):
                        extend_to_dominating(g, x)
                    continue
                undominated = {v for v in set(range(n)) - x_set if not ref_trace(g, v, x_set)}
                assert len(undominated) <= 1
                assert extend_to_dominating(g, x) == to_mask(x_set | undominated)


class TestRepresentatives:
    def test_min_rule(self, p4):
        part = x_partition(p4, set_of([0]), set_of([1, 2, 3]))
        assert representatives(part) == set_of([1, 2])

    def test_empty(self, p4):
        part = x_partition(p4, p4.full_set, 0)
        assert representatives(part) == 0

    def test_meets_each_class_once(self):
        for g in random_graphs(15, 2, 9, seed0=67):
            for x in range(0, 1 << g.n, 7):
                part = x_partition(g, x, g.complement_set(x))
                chosen = representatives(part)
                for c in part:
                    assert (chosen & c).bit_count() == 1


@settings(derandomize=True, deadline=None)
@given(small_graphs())
def test_score_table_property(g):
    assert list(score_table(g)) == [ref_s(g, to_set(a)) for a in range(1 << g.n)]


@st.composite
def _widths_and_masks(draw):
    c = draw(st.integers(0, 16))
    return c, draw(st.integers(0, (1 << c) - 1))


@settings(derandomize=True, deadline=None)
@given(_widths_and_masks())
def test_miss_plane_property(c_and_m):
    # the plane "x misses m" is the AND over the nibbles of m of one entry
    # per table, the lookups miss_planes inlines
    c, m = c_and_m
    plane = -1
    for i, table in enumerate(_nibble_tables(c)[0]):
        plane &= table[m >> 4 * i & 15]
    assert plane == sum(1 << x for x in range(1 << c) if not x & m)


@st.composite
def _planes_and_masks(draw):
    width = 1 << draw(st.integers(0, 6))
    plane = st.integers(0, (1 << width) - 1)
    return width, draw(st.lists(plane, max_size=12)), draw(plane.filter(bool))


@settings(derandomize=True, deadline=None)
@given(_planes_and_masks())
def test_counter_planes_property(width_planes_mask):
    # count_planes and least against a loop over the bits one at a time
    width, planes, mask = width_planes_mask
    counters = count_planes(planes)
    counts = [sum(p >> x & 1 for p in planes) for x in range(width)]
    assert [sum((c >> x & 1) << j for j, c in enumerate(counters)) for x in range(width)] == counts
    fewest = min(counts[x] for x in range(width) if mask >> x & 1)
    argmin = sum(1 << x for x in range(width) if mask >> x & 1 and counts[x] == fewest)
    assert least(counters, mask) == (fewest, argmin)


def test_size_counter_planes():
    # read bit x of each counter plane: the count is |x| at every x of a block
    counts = [sum((count >> x & 1) << j for j, count in enumerate(SIZE_COUNTERS)) for x in range(1 << BLOCK_BITS)]
    assert counts == [x.bit_count() for x in range(1 << BLOCK_BITS)]


# on P4 (n = 4): the set {4}, the set {0, 3, 5}, and -1, which holds every
# bit; each passes a bit above V to the check in Graph.complement_set
@pytest.mark.parametrize("bad", [1 << 4, 0b1001 | 1 << 5, -1], ids=["1<<n", "bit-above-n", "-1"])
@pytest.mark.parametrize(
    "call",
    [
        score_sum,
        decompose,
        derive_good_set,
        is_locating,
        is_dominating,
        is_locating_dominating,
        extend_to_dominating,
        outside_walk,
        lambda g, x: x_partition(g, x, 1),
    ],
    ids=[
        "score_sum",
        "decompose",
        "derive_good_set",
        "is_locating",
        "is_dominating",
        "is_locating_dominating",
        "extend_to_dominating",
        "outside_walk",
        "x_partition",
    ],
)
def test_vertex_set_outside_v_rejected(p4, call, bad):
    with pytest.raises(InvalidInput, match=f"^vertex set {bad} is not within the 4 vertices$"):
        call(p4, bad)


def test_fewest_repeats_against_reference():
    # every labeled graph with n <= 5, twins included: the minimizers are
    # the r with V \ r locating at the maximum score sum, in bit order
    for n in range(6):
        for g in all_labeled_graphs(n):
            fewest, minimizers = fewest_repeats(g)
            s_max = ref_max_score(g)
            assert fewest == n - s_max
            assert iter(minimizers) is minimizers  # read lazily, as the walk needs
            full = g.full_set
            good = [r for r in range(1 << n) if is_locating(g, full ^ r) and score_sum(g, r).sum == s_max]
            assert list(minimizers) == good


@pytest.mark.parametrize("seed", [12, 45])
def test_fewest_repeats_across_blocks(seed):
    # n = 17 is 32 blocks of 2^BLOCK_BITS = 2^12 subsets, and on these
    # graphs S < n and the minimizers lie in both halves of them, some
    # without vertex 16 and some with it; the score table counts the same
    # duplicates, T[r] = n - |r| - D(r), with T[V - r] = |r| iff V - r is
    # locating, and T[V - a] is T read backwards
    g = generate("gnp", 17, 0.1, seed)
    table, full = score_table(g), g.full_set
    s_max = max(map(operator.add, table, reversed(table)))
    fewest, minimizers = fewest_repeats(g)
    good = [r for r in range(1 << 17) if table[full ^ r] == r.bit_count() and table[r] + r.bit_count() == s_max]
    assert fewest == 17 - s_max
    assert list(minimizers) == good
    assert {r >> 16 for r in good} == {0, 1}


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_first_split_walk_against_reference(pinned):
    # gnp with n = 13-20 has 1-8 high vertices above the 2^BLOCK_BITS-subset
    # blocks; the walk must give the first split in bit order, or None, as
    # the set-based search does
    graphs = [generate("gnp", n, p, seed) for n in range(13, 21) for p in (0.1, 0.3) for seed in (1, 2, 3)]
    graphs += [generate(kind, n) for kind in ("path", "cycle") for n in range(1, 21)]
    outcomes = set()
    for g in graphs:
        ref = ref_first_split(g, pinned)
        x = first_split(g, pinned)
        assert x == (None if ref is None else to_mask(ref))
        outcomes.add(None if x is None else x >> BLOCK_BITS > 0)
    assert outcomes == {None, False, True}  # no split, a split in block 0, and one above it


def test_min_good_set_walk_against_reference():
    # gnp(n, 0.3, 1): n = 14 has its L witness in block 1 and n = 16 its LD
    # witness in block 3 of 2^BLOCK_BITS subsets; at n = 18 both sizes are 5,
    # below the 6 high vertices, so the walk skips the last blocks, whose
    # high part alone is larger, by size alone
    above = 0
    for n in (13, 14, 16, 18):
        g = generate("gnp", n, 0.3, 1)
        for dominating in (False, True):
            ref = ref_min_witness(g, dominating)
            size, witness = min_good_set(g, dominating)
            assert (size, witness) == (len(ref), to_mask(ref))
            above += witness >> BLOCK_BITS > 0
    assert above >= 2
    assert size < g.n - BLOCK_BITS


@pytest.mark.parametrize("g", [generate("path", 14), generate("gnp", 14, 0.3, 1)], ids=["P14", "gnp-14"])
def test_memo_holds_located_planes_alone(g):
    # after the split search and the LD oracle have read it, the memo equals
    # the located grouping rebuilt from the sets M_uv over the 2^12 low
    # subsets one by one: no plane of a closed neighborhood N[v] is ORed in;
    # gnp 14 seed 1 has twins, so the bound refuses it and the test runs the
    # bound's split search directly
    if is_twin_free(g):
        assert construct_ld(g).certified
    first_split(g, pinned=False)
    min_locating_dominating(g)
    low = (1 << BLOCK_BITS) - 1
    ref = {0: 0}
    for v in range(g.n):
        for u in range(v):
            m = g.adj[u] ^ g.adj[v] | 1 << u | 1 << v
            plane = sum(1 << x for x in range(1 << BLOCK_BITS) if not x & m & low)
            ref[m >> BLOCK_BITS] = ref.get(m >> BLOCK_BITS, 0) | plane
    memo = miss_planes(g)
    assert memo[0][0] == 0 and len(memo) == len(ref) and dict(memo) == ref
