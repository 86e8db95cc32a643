import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from locdom import location, solver
from locdom.bound import max_score_exact, score_sum
from locdom.errors import InvalidInput, RefusedScale
from locdom.graphs import all_labeled_graphs, generate, is_twin_free, new_graph, set_of
from locdom.location import (
    BLOCK_BITS,
    _nibble_tables,
    is_locating,
    is_locating_dominating,
    miss_planes,
    score_table,
    vertex_planes,
)
from locdom.solver import (
    PartitionWitness,
    _sk_level,
    min_locating,
    min_locating_dominating,
    s_k_of_graph,
    two_locating_partition,
)

from conftest import open_twin, random_graphs, small_graphs
from oracles import ref_first_bipartition, ref_min_witness, ref_partitions, ref_s_k, to_mask, to_set


def _witness_family():
    """All labeled graphs with n <= 5, gnp graphs up to n = 10, P_n and C_n for n <= 14."""
    out = [g for n in range(6) for g in all_labeled_graphs(n)]
    out += random_graphs(60, 1, 10, seed0=191)
    out += [generate(kind, n) for kind in ("path", "cycle") for n in range(1, 15)]
    return out


class TestMinSets:
    def test_p4(self, p4):
        assert min_locating(p4).size == 2
        assert min_locating_dominating(p4).size == 2

    def test_k1(self, k1):
        assert min_locating(k1).size == 0
        assert min_locating_dominating(k1).size == 1

    def test_c5(self, c5):
        assert min_locating(c5).size == 2
        assert min_locating_dominating(c5).size == 2

    def test_witnesses_verify(self):
        for g in random_graphs(25, 1, 8, seed0=139):
            l = min_locating(g)
            ld = min_locating_dominating(g)
            assert is_locating(g, l.witness)
            assert is_locating_dominating(g, ld.witness)
            assert l.size <= ld.size <= l.size + 1

    def test_matches_reference(self):
        for g in random_graphs(25, 1, 8, seed0=149) + _witness_family():
            for oracle, dominating in ((min_locating, False), (min_locating_dominating, True)):
                w = oracle(g)
                ref = ref_min_witness(g, dominating)
                assert w.size == len(ref)
                assert to_set(w.witness) == ref

    @staticmethod
    def _corona_path(m):
        """P_m with one pendant vertex m + i on each path vertex i."""
        return new_graph(2 * m, [(i, i + 1) for i in range(m - 1)] + [(i, m + i) for i in range(m)])

    @pytest.mark.parametrize(
        "kind,n,ld",
        [("path", n, -(-2 * n // 5)) for n in range(1, 17)]  # Slater 1988
        + [("cycle", n, -(-2 * n // 5)) for n in range(3, 17)]  # Bertrand, Charon, Hudry, Lobstein 2004
        + [("corona", m, m) for m in range(1, 9)],
    )
    def test_closed_forms(self, kind, n, ld):
        # LD of P_n, C_n and P_m with a pendant on each vertex, past the
        # set-based reference's reach
        g = self._corona_path(n) if kind == "corona" else generate(kind, n)
        w = min_locating_dominating(g)
        assert w.size == w.witness.bit_count() == ld
        assert is_locating_dominating(g, w.witness)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_edgeless(self, n):
        # every vertex of E_n has the empty trace, so a locating set leaves
        # out one vertex and a locating-dominating set none; the sizes reach
        # the top counter of |x| that a block of c = n vertices can need
        g = new_graph(n, [])
        l, ld = min_locating(g), min_locating_dominating(g)
        assert (l.size, l.witness) == (n - 1, (1 << n - 1) - 1)
        assert (ld.size, ld.witness) == (n, (1 << n) - 1)

    def test_no_smaller_set(self):
        for g in random_graphs(10, 3, 6, seed0=151):
            l = min_locating(g)
            for x in range(1 << g.n):
                if x.bit_count() < l.size:
                    assert not is_locating(g, x)

    def test_refused_scale(self):
        g = generate("path", 17)
        with pytest.raises(RefusedScale):
            min_locating(g)

    @pytest.mark.parametrize("oracle", [min_locating, min_locating_dominating])
    def test_negative_ceiling(self, p4, oracle):
        # misuse, as the CLI's --ceiling reads it; a ceiling of 0 still refuses
        with pytest.raises(InvalidInput, match="^ceiling must be at least 0, got -1$"):
            oracle(p4, ceiling=-1)
        with pytest.raises(RefusedScale):
            oracle(p4, ceiling=0)

    @pytest.mark.parametrize("n,seed", [(17, 1), (18, 5)])
    def test_cross_block_tie_break(self, n, seed):
        # witnesses above block 0 (2^BLOCK_BITS = 2^12 subsets a block): gnp
        # 17 seed 1 has its L witness in block 8 and its LD witness in block
        # 24, gnp 18 seed 5 its L witness in block 34 and its LD witness in
        # block 20, so the scan's choice among blocks must give the first set
        # in combinations order
        g = generate("gnp", n, 0.3, seed)
        for dominating, oracle in ((False, min_locating), (True, min_locating_dominating)):
            ref = ref_min_witness(g, dominating)
            assert oracle(g, ceiling=n) == (len(ref), to_mask(ref))

    def test_one_walk_serves_both_oracles(self, monkeypatch):
        # min_locating then min_locating_dominating on one graph: one walk
        # over the high vertices and one build of the closed-neighborhood
        # planes, read from the memo by the second call; a refused call walks
        # nothing, and the next graph walks and builds again
        walks, builds = [], []
        walk, build = location._walk, location._closed_planes

        def spy_walk(k, misses, lies_in, alive):
            walks.append(k)
            return walk(k, misses, lies_in, alive)

        def spy_build(g, c):
            builds.append(g)
            return build(g, c)

        monkeypatch.setattr(location, "_walk", spy_walk)
        monkeypatch.setattr(location, "_closed_planes", spy_build)
        location.min_good_sets.cache_clear()
        graphs = [generate("path", 14), generate("gnp", 15, 0.3, 2)]
        for i, g in enumerate(graphs, 1):
            with pytest.raises(RefusedScale):
                min_locating_dominating(g, ceiling=g.n - 1)
            l, ld = min_locating(g), min_locating_dominating(g)
            assert (walks, builds) == ([h.n - BLOCK_BITS for h in graphs[:i]], graphs[:i])
            for w, dominating in ((l, False), (ld, True)):
                ref = ref_min_witness(g, dominating)
                assert w == (len(ref), to_mask(ref))

    def test_raised_ceiling_keeps_block_width(self, monkeypatch):
        # above 2^12 subsets the planes stay one block of 2^BLOCK_BITS wide,
        # in the memo and in the closed-neighborhood planes built beside it
        # for the one walk of both searches; one plane over all 2^24 subsets
        # is 2 MiB
        g = generate("path", 24)
        walked = []
        walk = location._walk

        def spy(k, misses, lies_in, alive):
            walked.extend(misses)
            return walk(k, misses, lies_in, alive)

        monkeypatch.setattr(location, "_walk", spy)
        location.min_good_sets.cache_clear()
        tracemalloc.start()
        try:
            l = min_locating(g, ceiling=24)
            ld = min_locating_dominating(g, ceiling=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # LD recorded from the combinations search, L from the locating
        # search run alone
        assert (ld.size, ld.witness) == (10, 5412005)
        assert (l.size, l.witness) == (10, 2706003)
        assert peak < 1 << 21
        hits = miss_planes.cache_info().hits
        memo = miss_planes(g)
        assert miss_planes.cache_info().hits == hits + 1
        assert len(walked) == 2 and walked[0] == memo  # one walk: the memo and the closed neighborhoods
        assert max(p.bit_length() for groups in walked for _, p in groups) <= 1 << BLOCK_BITS

    @pytest.mark.parametrize("g", [generate("path", 17), open_twin(24, 2)], ids=["P17", "open-twin-24"])
    def test_duplicate_planes_keep_block_width(self, g):
        # the full sums read the duplicate planes over the same blocks of
        # 2^BLOCK_BITS subsets as the split search and the oracles
        assert max(p.bit_length() for groups in vertex_planes(g) for _, p in groups) <= 1 << BLOCK_BITS


class TestTwoLocatingPartition:
    def test_p4_found(self, p4):
        w = two_locating_partition(p4)
        assert w.found
        assert is_locating(p4, w.x) and is_locating(p4, w.y)
        assert w.x | w.y == p4.full_set and not (w.x & w.y)
        assert w.x & 1  # vertex 0 pinned to x

    def test_k1(self, k1):
        w = two_locating_partition(k1)
        assert w.found and w.x == set_of([0]) and w.y == 0

    def test_twins_allowed(self, c4):
        # C4's opposite vertices are open twins; the search runs anyway
        assert two_locating_partition(c4) == PartitionWitness(set_of([0, 1]), set_of([2, 3]), True)

    def test_refused_scale(self):
        with pytest.raises(RefusedScale):
            two_locating_partition(generate("path", 21))

    def test_memo_retains_little(self):
        # cold, so what the memo and the nibble tables keep after the call
        # counts; the c = 16 nibble tables alone are about 0.5 MiB
        g = generate("gnp", 20, 0.3, 1)
        miss_planes.cache_clear()
        _nibble_tables.cache_clear()
        tracemalloc.start()
        try:
            w = two_locating_partition(g)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert w.found
        assert retained < 1 << 20


class TestBipartitionScoreIdentity:
    """Both sides of V = X | V - X are locating iff T[X] + T[V - X] = n, T the
    score table: a side's score is at most the size of the other side, with
    equality iff the side is locating."""

    @staticmethod
    def _check(g):
        w = two_locating_partition(g)
        assert w.found == (max_score_exact(g)[0] == g.n)
        if w.found:
            table, full = score_table(g), g.full_set
            assert w.x == next(r for r in range(1, 1 << g.n, 2) if table[r] + table[full ^ r] == g.n)

    def test_all_twin_free_up_to_5(self):
        checked = 0
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                if is_twin_free(g):
                    self._check(g)
                    checked += 1
        assert checked > 100

    def test_gnp(self):
        checked = 0
        for g in random_graphs(48, 7, 14, p=0.5, seed0=211):
            if is_twin_free(g):
                self._check(g)
                checked += 1
        assert checked > 10


class TestWitnessesPinned:
    # recorded from the per-subset searches these oracles replaced
    BIPARTITION_X = {
        ("path", 17): 21141, ("path", 18): 42281, ("path", 19): 84563, ("path", 20): 169125,
        ("cycle", 17): 10571, ("cycle", 18): 21141, ("cycle", 19): 42283, ("cycle", 20): 84563,
    }

    def test_first_bipartition_matches_reference(self):
        for g in _witness_family():
            w = two_locating_partition(g)
            ref = ref_first_bipartition(g)
            assert w.found == (ref is not None)
            assert to_set(w.x) == (ref or set())
            assert w.y == (g.full_set ^ w.x if w.found else 0)

    @pytest.mark.parametrize("kind,n", list(BIPARTITION_X))
    def test_large_bipartitions(self, kind, n):
        g = generate(kind, n)
        w = two_locating_partition(g)
        assert w.found and w.x == self.BIPARTITION_X[kind, n]
        assert w.y == g.full_set ^ w.x
        assert is_locating(g, w.x) and is_locating(g, w.y)

    def test_large_none_found(self):
        # the 17 leaves of a star are open twins: at most one may lie
        # outside X and at most one outside Y, so no block holds a witness
        star = new_graph(18, [(0, v) for v in range(1, 18)])
        assert two_locating_partition(star) == PartitionWitness(0, 0, False)

    def test_min_ld_p18(self):
        w = min_locating_dominating(generate("path", 18), ceiling=18)
        assert (w.size, w.witness) == (8, 84563)


class TestPartitionEnumeration:
    """The reference enumerator that ref_s_k, and so every s_k check, rests on."""

    def test_counts_are_stirling(self):
        # Stirling numbers of the second kind S(5, k)
        expected = {1: 1, 2: 15, 3: 25, 4: 10, 5: 1}
        for k, count in expected.items():
            assert sum(1 for _ in ref_partitions(5, k)) == count

    def test_blocks_partition(self):
        for blocks in ref_partitions(6, 3):
            union = set()
            for b in blocks:
                assert b and not (union & b)
                union |= b
            assert union == set(range(6))


class TestSk:
    def test_k_equals_n(self):
        for g in random_graphs(15, 2, 7, seed0=157):
            res = s_k_of_graph(g, g.n)
            expected = sum(score_sum(g, 1 << v).s_a for v in range(g.n))
            assert res.value == expected
            for v in range(g.n):
                assert score_sum(g, 1 << v).s_a in (1, 2)

    def test_p4_k2_equals_max_s2(self, p4):
        assert s_k_of_graph(p4, 2).value == 4 == max_score_exact(p4)[0]

    def test_k2_equals_max_s2_generally(self):
        # 2-partitions are exactly the (A, complement) pairs with both sides
        # non-empty; empty-block sums never exceed the maximum for n >= 2
        for g in random_graphs(15, 2, 7, seed0=163):
            assert s_k_of_graph(g, 2).value == max_score_exact(g)[0]

    def test_upper_bound(self):
        for g in random_graphs(10, 2, 6, seed0=167):
            for k in range(1, g.n + 1):
                assert s_k_of_graph(g, k).value <= (k - 1) * g.n

    def test_k_out_of_range(self, p4):
        with pytest.raises(InvalidInput, match=r"k=5 outside 1\.\.4"):
            s_k_of_graph(p4, 5)
        with pytest.raises(InvalidInput, match=r"k=0 outside 1\.\.4"):
            s_k_of_graph(p4, 0)

    def test_refused_scale(self):
        with pytest.raises(RefusedScale):
            s_k_of_graph(generate("path", 13), 2)

    def test_k1_value(self):
        for g in random_graphs(5, 2, 5, seed0=173):
            assert s_k_of_graph(g, 1).value == 0  # s(V) = 0

    @pytest.mark.parametrize(
        "kind,k,value,blocks",
        [
            ("cycle", 2, 12, (727, 3368)),
            ("cycle", 3, 21, (165, 1290, 2640)),
            ("path", 2, 12, (1387, 2708)),
            ("path", 3, 19, (677, 1290, 2128)),
        ],
    )
    def test_at_ceiling(self, kind, k, value, blocks):
        # recorded from the partition enumeration that the DP replaced
        res = s_k_of_graph(generate(kind, 12), k)
        assert (res.value, res.witness_partition) == (value, blocks)

    def test_small_k_builds_few_levels(self):
        # s_2 reads level 1 only: f_0 and f_1 exist, and at most f_2 besides
        g = generate("gnp", 12, 0.3, 5)
        _sk_level.cache_clear()
        res = s_k_of_graph(g, 2)
        assert _sk_level.cache_info().currsize <= 3
        assert res.value == max_score_exact(g)[0]

    def test_levels_stay_small(self):
        # the levels of one graph at the ceiling are 12 tuples of 2^12 small
        # ints, about 0.4 MiB; scratch space beside them must stay small too
        g = generate("gnp", 12, 0.3, 5)
        _sk_level.cache_clear()
        miss_planes.cache_clear()
        tracemalloc.start()
        try:
            for k in range(1, g.n + 1):
                s_k_of_graph(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_raised_ceiling(self, monkeypatch):
        # above the default SK_CEILING, past the graph size the level memo is sized for
        monkeypatch.setattr(solver, "SK_CEILING", 13)
        g = generate("gnp", 13, 0.3, 2)
        assert is_twin_free(g)
        assert s_k_of_graph(g, 2).value == max_score_exact(g)[0]

    def test_levels_shared_across_threads(self):
        # threads filling one graph's levels at once must all read the same values
        g = generate("gnp", 9, 0.4, 11)
        ks = [9, 4, 8, 2, 7, 5, 9, 6, 3, 8, 1, 5]
        expected = [s_k_of_graph(g, k) for k in ks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _sk_level.cache_clear()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    assert list(pool.map(lambda k: s_k_of_graph(g, k), ks, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_matches_reference(self):
        family = [g for n in range(6) for g in all_labeled_graphs(n)]
        family += random_graphs(30, 6, 9, seed0=181)
        for g in family:
            for k in range(1, g.n + 1):
                res = s_k_of_graph(g, k)
                assert (res.value, [to_set(b) for b in res.witness_partition]) == ref_s_k(g, k)


@st.composite
def graphs_and_k(draw):
    g = draw(small_graphs(min_n=1))
    return g, draw(st.integers(1, g.n))


@settings(derandomize=True, deadline=None)
@given(graphs_and_k())
def test_s_k_property(case):
    g, k = case
    res = s_k_of_graph(g, k)
    assert (res.value, [to_set(b) for b in res.witness_partition]) == ref_s_k(g, k)


class TestMaxS2:
    def test_examples(self, p4, k1):
        assert max_score_exact(p4)[0] == 4
        assert max_score_exact(k1)[0] == 1

    def test_sandwich_with_constructive_bound(self):
        from locdom.bound import construct_ld
        from locdom.solver import min_locating

        for g in random_graphs(40, 4, 8, seed0=179):
            if not is_twin_free(g):
                continue
            r = construct_ld(g)
            assert min_locating(g).size <= r.witness_size


@settings(derandomize=True, deadline=None)
@given(small_graphs())
def test_min_sets_property(g):
    for oracle, dominating in ((min_locating, False), (min_locating_dominating, True)):
        assert to_set(oracle(g).witness) == ref_min_witness(g, dominating)


@settings(derandomize=True, deadline=None)
@given(small_graphs())
def test_two_locating_partition_property(g):
    w = two_locating_partition(g)
    ref = ref_first_bipartition(g)
    assert (w.found, to_set(w.x), w.y) == (
        ref is not None,
        ref or set(),
        g.full_set ^ w.x if ref is not None else 0,
    )
