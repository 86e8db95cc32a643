import hashlib
import json
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from locdom import bound, location
from locdom.bound import (
    CANDIDATE_TAGS,
    _empty_start,
    _good_set,
    _max_score_full,
    build_z,
    candidate_sets,
    construct_ld,
    decompose,
    derive_good_set,
    ld_size_limit,
    local_search,
    locating_size_limit,
    max_score_exact,
    score_sum,
    thinning_move,
)
from locdom.errors import InvalidInput, LocdomError, RefusedScale, TwinsPresent
from locdom.graphs import (
    all_labeled_graphs,
    decode_graph6,
    encode_graph6,
    generate,
    is_twin_free,
    new_graph,
    set_of,
)
from locdom.location import (
    _nibble_tables,
    extend_to_dominating,
    is_locating,
    is_locating_dominating,
    miss_planes,
    representatives,
    score_table,
    x_partition,
)

from conftest import open_twin, random_graphs, small_graphs
from oracles import (
    ref_build_z,
    ref_is_dominating,
    ref_is_locating,
    ref_max_score,
    ref_s,
    ref_score_sum,
    to_mask,
    to_set,
)

# good sets with two non-trivial complement classes (graphs have twins, which
# the decomposition itself permits; only the full bound pipeline forbids them)
K2_DECOMPOSITIONS = [("Eo??", set_of([0, 3])), ("Eg??", set_of([1, 3]))]


def best_normalized_maximizer(g, s):
    """Reference good set: normalize every maximizer of the score sum, then
    keep the largest k and, among those, the smallest bit pattern."""

    def k_of(r):
        return sum(cls.bit_count() >= 2 for cls in x_partition(g, r, g.complement_set(r)))

    images = {derive_good_set(g, a, s_max=s) for a in range(1 << g.n) if ref_score_sum(g, to_set(a)) == s}
    return min(images, key=lambda r: (-k_of(r), r))


class TestScoreSum:
    def test_p4_examples(self, p4):
        assert score_sum(p4, set_of([0])).sum == 3
        s = score_sum(p4, set_of([0]))
        assert (s.s_a, s.s_comp) == (2, 1)
        assert score_sum(p4, set_of([0, 2])).sum == 4

    def test_empty_set(self, c5):
        s = score_sum(c5, 0)
        assert (s.s_a, s.s_comp, s.sum) == (1, 0, 1)

    def test_matches_reference(self):
        for g in random_graphs(20, 1, 9, seed0=71):
            for a in range(1 << g.n):
                assert score_sum(g, a).sum == ref_score_sum(g, to_set(a))

    def test_score_caps(self):
        for g in random_graphs(20, 1, 9, seed0=73):
            for a in range(1 << g.n):
                s = score_sum(g, a)
                assert s.s_a <= g.complement_set(a).bit_count()
                assert s.s_comp <= a.bit_count()


    def test_carries_both_partitions(self):
        # every graph with n <= 5 and every a
        for n in range(6):
            for g in all_labeled_graphs(n):
                for a in range(1 << n):
                    comp = g.complement_set(a)
                    s = score_sum(g, a)
                    assert (s.a, s.by_a, s.by_comp) == (a, x_partition(g, a, comp), x_partition(g, comp, a))
                    assert (s.s_a, s.s_comp) == (ref_s(g, to_set(a)), ref_s(g, to_set(comp)))


@pytest.mark.parametrize(
    "record,field",
    [
        (construct_ld, "witness"),
        (lambda g: score_sum(g, 1), "by_a"),
    ],
    ids=["BoundReport", "ScoredSet"],
)
def test_records_immutable(p4, record, field):
    r = record(p4)
    hash(r)
    with pytest.raises(AttributeError):
        setattr(r, field, getattr(r, field))
    assert record(p4) == r


@pytest.mark.parametrize("g", [new_graph(4, [(0, 1), (1, 2), (2, 3)]), generate("path", 17)], ids=["P4", "P17"])
def test_memo_entry_is_shared_groups(g):
    # the memo's entry, shared by every caller: a tuple of (high part,
    # plane) pairs, high part 0 first, hashable, and equal on a second call
    entry = miss_planes(g)
    hash(entry)
    assert type(entry) is tuple and entry[0][0] == 0
    assert all(type(pair) is tuple and len(pair) == 2 and all(type(i) is int for i in pair) for pair in entry)
    assert miss_planes(g) == entry


class TestThinningMove:
    def test_p4_keep_min(self, p4):
        a2 = thinning_move(p4, set_of([0]), set_of([2, 3]), 2)
        assert a2 == set_of([0, 3])
        assert score_sum(p4, a2).sum == 4

    def test_p4_keep_max(self, p4):
        a2 = thinning_move(p4, set_of([0]), set_of([2, 3]), 3)
        assert a2 == set_of([0, 2])
        assert score_sum(p4, a2).sum == 4

    def test_cardinality(self, p4):
        a = set_of([0])
        a2 = thinning_move(p4, a, set_of([2, 3]), 2)
        assert p4.complement_set(a2).bit_count() == p4.complement_set(a).bit_count() - 1

    def test_not_a_class(self, p4):
        with pytest.raises(InvalidInput, match="u_class is not a class of the a-partition"):
            thinning_move(p4, set_of([0]), set_of([1, 2]), 1)

    def test_trivial_class(self, p4):
        with pytest.raises(InvalidInput, match="u_class is trivial"):
            thinning_move(p4, set_of([0]), set_of([1]), 1)

    def test_u_outside_class(self, p4):
        with pytest.raises(InvalidInput, match="u is not a member of u_class"):
            thinning_move(p4, set_of([0]), set_of([2, 3]), 1)

    def test_scores_never_decrease(self):
        # spot check of the non-decrease guarantee; the acceptance suite
        # runs the large randomized version
        trials = 0
        for g in random_graphs(40, 3, 10, seed0=79):
            for a in range(0, 1 << g.n, 3):
                before = score_sum(g, a)
                part = x_partition(g, a, g.complement_set(a))
                for cls in part:
                    if cls.bit_count() < 2:
                        continue
                    for u_bit in (cls & -cls,):
                        u = u_bit.bit_length() - 1
                        a2 = thinning_move(g, a, cls, u)
                        after = score_sum(g, a2)
                        assert after.s_a >= before.s_a
                        assert after.s_comp >= before.s_comp
                        trials += 1
        assert trials > 100


class TestLocalSearch:
    def test_p4_from_singleton(self, p4):
        assert local_search(p4, set_of([0])).sum == 4

    def test_p4_from_empty(self, p4):
        got = local_search(p4, 0).sum
        assert 1 <= got <= 4

    def test_fixed_point(self, p4):
        a = set_of([0, 2])  # no non-trivial complement class
        assert local_search(p4, a).a == a

    def test_never_decreases(self):
        for g in random_graphs(30, 2, 10, seed0=83):
            for a0 in (0, g.full_set >> 1):
                assert local_search(g, a0).sum >= score_sum(g, a0).sum


class TestMaxScoreExact:
    def test_p4(self, p4):
        assert max_score_exact(p4)[0] == 4

    def test_k1(self, k1):
        assert max_score_exact(k1)[0] == 1

    def test_c5(self, c5):
        s, best = max_score_exact(c5)
        assert s == ref_max_score(c5)
        assert s >= score_sum(c5, set_of([0, 1])).sum

    def test_matches_reference(self):
        for g in random_graphs(15, 1, 8, seed0=89):
            assert max_score_exact(g)[0] == ref_max_score(g)

    def test_best_is_good(self):
        for g in random_graphs(15, 1, 8, seed0=97):
            s, best = max_score_exact(g)
            scored = score_sum(g, best)
            assert scored.sum == s
            assert scored.s_comp == best.bit_count()

    # above 2^12 subsets score_table fills one block of 2^BLOCK_BITS = 2^12
    # at a time: C17 has 32 blocks, gnp n = 20 has 256; recorded from the
    # one-block table
    BLOCKED = {
        ("cycle", 17): ("4da764bed90386070dc63fbd6c94632cdbd5aa1dc93114b14e2c37a95f67948c", (17, 10571)),
        ("path", 19): ("e89e2c92324d02ae18f861df59820678dc80fb0a61ede311c579e35c69216388", (19, 84563)),
        ("gnp", 18): ("938c61a09c00e2ada91e335c396ca71a658dd89ad60d765b12a9376ac7c5072c", (18, 95)),
        ("gnp", 20): ("48480c091c75e5cb422c777b16a0d974581231c2467e083845af4af7917ff21e", (20, 415)),
    }

    @pytest.mark.parametrize("kind,n", sorted(BLOCKED))
    def test_blocked_table_pinned(self, kind, n):
        g = generate(kind, n, 0.3, 1) if kind == "gnp" else generate(kind, n)
        digest, best = self.BLOCKED[kind, n]
        assert hashlib.sha256(score_table(g)).hexdigest() == digest
        assert max_score_exact(g) == best

    # n = 21-24, above the exact ceiling of 20 it had when these were
    # recorded from the table-based maximization at ceiling=22 (n <= 22)
    # and ceiling=24; now they run at the default ceiling
    ABOVE_CEILING = {
        ("cycle", 21): (21, 169125),
        ("cycle", 23): (23, 676501),
        ("gnp", 21): (21, 8255),
        ("gnp", 22): (22, 223),
        ("gnp", 23): (23, 239),
        ("gnp", 24): (24, 1119),
        ("path", 22): (22, 676501),
        ("path", 24): (24, 2706003),
    }

    @pytest.mark.parametrize("kind,n", sorted(ABOVE_CEILING))
    def test_above_ceiling_pinned(self, kind, n):
        g = generate(kind, n, 0.3, 1) if kind == "gnp" else generate(kind, n)
        assert max_score_exact(g) == self.ABOVE_CEILING[kind, n]

    # n = 17 splits the subsets into 32 blocks of 2^BLOCK_BITS = 2^12, over
    # which the full sums of these graphs (S < n) run, and these good sets
    # hold vertex 16, so they come from the upper half (blocks 16, 16, 20
    # and 17), each block read through the complements of one in the lower
    # half; recorded from the table-based maximization
    UPPER_BLOCK = {12: (12, 65927), 45: (14, 66342), 63: (11, 82690), 79: (14, 70279)}

    @pytest.mark.parametrize("seed", sorted(UPPER_BLOCK))
    def test_good_set_in_upper_block(self, seed):
        assert max_score_exact(generate("gnp", 17, 0.1, seed)) == self.UPPER_BLOCK[seed]

    # gnp(n - 1, 0.1, seed) plus an open twin of vertex seed, so S < n and
    # the sums run over the blocks of 2^BLOCK_BITS = 2^12 subsets: n = 20
    # has 256 blocks and its good set lies in block 64, n = 24 has 4,096;
    # recorded from the complementary-block sums that the duplicate counts
    # replaced
    OPEN_TWIN = {
        (18, 1): (16, 20931),
        (20, 1): (18, 263739),
        (22, 2): (17, 85767),
        (24, 2): (20, 33719),
    }

    @pytest.mark.parametrize("n,seed", sorted(OPEN_TWIN))
    def test_open_twin_pinned(self, n, seed):
        g = open_twin(n, seed)
        s, best = self.OPEN_TWIN[n, seed]
        assert max_score_exact(g) == (s, best)
        if n <= 20:
            # S over all sets, off the score table: T[V - a] is T read backwards
            table = score_table(g)
            assert s == max(map(operator.add, table, reversed(table)))

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_long_paths_certified(self, kind):
        # far above the default exact ceiling, which bounds only the full
        # sums, the split search still leaves at once: the walk over the high
        # vertices skips every subtree whose planes leave no split, where a
        # scan of the blocks took 337 s at P40
        for n in (25, 32, 40, 64, 100):
            g = generate(kind, n)
            report = construct_ld(g)
            assert report.certified and (report.s_value, report.k) == (n, 0)
            s, r = max_score_exact(g)
            assert s == n
            assert ref_is_locating(g, to_set(r)) and ref_is_locating(g, to_set(g.full_set ^ r))
            assert ref_is_locating(g, to_set(report.witness))
            assert report.witness_size <= (5 * n - 1) // 8
            ld = to_set(report.ld_witness)
            assert ref_is_locating(g, ld) and ref_is_dominating(g, ld)

    def test_peak_memory(self):
        # cold, so the memo and the nibble tables built in the call count too
        # (about 0.7 MiB); score sums over the whole table would take several
        # 2^n-byte objects, 1 MiB each at n = 20
        g = generate("gnp", 20, 0.3, 1)
        miss_planes.cache_clear()
        _nibble_tables.cache_clear()
        tracemalloc.start()
        try:
            best = max_score_exact(g, ceiling=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best == (20, 415)
        assert peak < 3 << 20

    def test_full_sums_peak_memory(self):
        # gnp n = 20 leaves max_score_exact through its first split, so the
        # full sums, with the per-vertex planes they build per call, are
        # measured here under the same bound
        g = generate("gnp", 20, 0.3, 1)
        miss_planes.cache_clear()
        _nibble_tables.cache_clear()
        tracemalloc.start()
        try:
            best = _max_score_full(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best == (20, 415)
        assert peak < 3 << 20

    def test_good_set_is_best_normalized_maximizer(self):
        # all graphs with n <= 5, twins included: 184 of them have S < n,
        # where the walk over maximizers stops early only at k = n - S > 0
        small = [g for n in range(6) for g in all_labeled_graphs(n)]
        for g in small + random_graphs(12, 6, 9, seed0=139):
            s, best = max_score_exact(g)
            assert best == best_normalized_maximizer(g, s)

    def test_split_exit_matches_full_sums(self):
        # max_score_exact leaves through the first split whenever S = n; the
        # score sums over all subsets must give the same S and good set, or
        # raise the same error: every twin-free labeled graph with n = 6,
        # gnp graphs with n = 7-20 and P_n and C_n with n <= 20
        def outcome(maximize, g):
            try:
                return maximize(g)
            except LocdomError as exc:
                return type(exc), str(exc)

        family = [g for g in all_labeled_graphs(6) if is_twin_free(g)]
        family += random_graphs(42, 7, 20, p=0.3, seed0=151)
        family += [generate(kind, n) for kind in ("path", "cycle") for n in range(1, 21)]
        for g in family:
            assert outcome(max_score_exact, g) == outcome(_max_score_full, g)

    def test_refused_scale(self):
        g = random_graphs(1, 25, 25, p=0.1, seed0=101)[0]
        with pytest.raises(RefusedScale):
            max_score_exact(g)

    def test_negative_ceiling(self, p4, monkeypatch):
        # misuse, as the CLI's options read it, rejected before any walk; a
        # ceiling of 0 bounds only the full sums, which P4's split never reaches
        assert max_score_exact(p4, ceiling=0) == max_score_exact(p4) == (4, 0b0011)

        def walked(g, pinned):
            raise AssertionError("split search ran")

        monkeypatch.setattr(bound, "first_split", walked)
        with pytest.raises(InvalidInput, match="^ceiling must be at least 0, got -3$"):
            max_score_exact(p4, ceiling=-3)

    def test_refused_after_the_walk(self, monkeypatch):
        # open_twin(18, 1) has no split (S = 16): the walk runs, finds none,
        # and only then are the full sums refused at ceiling n - 1
        g = open_twin(18, 1)
        calls = []
        real = bound.first_split

        def counted(g, pinned):
            calls.append(pinned)
            return real(g, pinned)

        monkeypatch.setattr(bound, "first_split", counted)
        with pytest.raises(RefusedScale, match="^exact maximization refused for n=18 > 17$"):
            max_score_exact(g, ceiling=17)
        assert calls == [False]


@settings(derandomize=True, deadline=None)
@given(small_graphs())
def test_max_score_exact_property(g):
    s, best = max_score_exact(g)
    assert s == ref_max_score(g)
    assert best == best_normalized_maximizer(g, s)


class TestDeriveGoodSet:
    def test_p4_already_good(self, p4):
        r = derive_good_set(p4, set_of([0, 2]), s_max=4)
        assert r == set_of([1, 3])

    def test_p4_other_side(self, p4):
        r = derive_good_set(p4, set_of([1, 3]), s_max=4)
        scored = score_sum(p4, r)
        assert scored.sum == 4 and scored.s_comp == r.bit_count()

    def test_size_preserved_on_good_input(self, p4):
        for a in (set_of([0, 2]), set_of([1, 3])):
            assert derive_good_set(p4, a, s_max=4).bit_count() == 2

    def test_not_maximal(self, p4):
        with pytest.raises(InvalidInput, match="score sum 3 != maximum 4"):
            derive_good_set(p4, set_of([0]), s_max=4)

    def test_structural_goodness_any_start(self):
        # the complement-side partition of the output always has |r| classes,
        # maximizer or not
        for g in random_graphs(20, 2, 9, seed0=103):
            for a in range(0, 1 << g.n, 5):
                r = derive_good_set(g, a)
                assert score_sum(g, r).s_comp == r.bit_count()

    def test_good_set_scored_as_score_sum(self):
        # where r is V \ a the good set is a's ScoredSet with its partitions
        # swapped, not a second scoring: it must equal the scoring of r
        swapped = 0
        for n in range(6):
            for g in all_labeled_graphs(n):
                for a in range(1 << n):
                    scored = score_sum(g, a)
                    r = representatives(scored.by_a)
                    assert _good_set(g, scored) == score_sum(g, r)
                    swapped += r == g.complement_set(a)
        assert swapped > 10000


class TestDecompose:
    def test_p4_all_trivial(self, p4):
        d = decompose(p4, set_of([0, 2]), s_max=4)
        assert (d.b, d.c, d.k) == (0, set_of([1, 3]), 0)
        assert d.a_prime == 0 and d.z == 0
        assert d.s_value == 4

    def test_not_good_structurally(self, p4):
        # vertices 0 and 1 share trace {} under the complement of {0,1,2}
        with pytest.raises(InvalidInput, match="complement-side partition of a has a non-trivial class"):
            decompose(p4, set_of([0, 1, 2]))

    def test_not_good_submaximal(self, p4):
        with pytest.raises(InvalidInput, match="score sum 3 != maximum 4"):
            decompose(p4, set_of([1]), s_max=4)

    @pytest.mark.parametrize("g6,a", K2_DECOMPOSITIONS)
    def test_k2_anatomy(self, g6, a):
        g = decode_graph6(g6)
        d = decompose(g, a)
        assert d.k == 2
        assert d.b | d.c == g.complement_set(a)
        assert d.r_b.bit_count() == d.k
        assert d.z.bit_count() <= d.k - 1
        apart = x_partition(g, d.a, d.b)
        zpart = x_partition(g, d.z, d.b)
        assert set(apart) == set(zpart)

    def test_invariants_on_exact_corpus(self):
        for g in random_graphs(25, 4, 9, seed0=107):
            s, good = max_score_exact(g)
            d = decompose(g, good, s_max=s)
            # b is the union of the non-trivial classes, c the rest
            part = x_partition(g, d.a, g.complement_set(d.a))
            b_expect = 0
            for cls in part:
                if cls.bit_count() >= 2:
                    b_expect |= cls
            assert d.b == b_expect
            assert d.c == g.complement_set(d.a) & ~d.b
            assert d.a_prime.bit_count() <= d.k
            assert d.a_prime & ~d.a == 0 and d.z & ~d.a == 0

    @staticmethod
    def _fresh_a_prime(g, d):
        rep_side = d.r_b | d.c
        a_prime = 0
        for cls in x_partition(g, rep_side, g.complement_set(rep_side)):
            if cls.bit_count() >= 2:
                a_prime |= cls & d.a
        return a_prime

    def test_a_prime_on_every_good_set(self):
        # every twin-free graph with n <= 6 has S = n, so each of its good
        # sets has k = 0, where decompose reads a_prime off its goodness check
        checked = 0
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                if not is_twin_free(g):
                    continue
                s = max_score_exact(g)[0]
                table, full = score_table(g), g.full_set
                for a in range(1 << n):
                    if table[a] + table[full ^ a] == s and table[full ^ a] == a.bit_count():
                        d = decompose(g, a, s_max=s)
                        assert d.a_prime == self._fresh_a_prime(g, d)
                        checked += 1
        assert checked > 100_000

    def test_a_prime_on_heuristic_decompositions(self):
        # local optima reach k >= 1, where a_prime is computed and often not empty
        seen_k, non_empty = set(), 0
        for i, g in enumerate(random_graphs(60, 8, 16, p=0.3, seed0=229)):
            for a0 in (0, i * 0x9E3779B9 % (1 << g.n)):
                d = decompose(g, derive_good_set(g, local_search(g, a0).a))
                assert d.a_prime == self._fresh_a_prime(g, d)
                seen_k.add(d.k)
                non_empty += d.a_prime != 0
        assert max(seen_k) >= 3 and 0 in seen_k and non_empty > 30


class TestBuildZ:
    def test_k0(self, p4):
        assert build_z(p4, set_of([0, 2]), ()) == 0

    def test_k1(self):
        g = decode_graph6("C?")  # empty graph on 4 vertices
        assert build_z(g, set_of([0]), x_partition(g, set_of([0]), set_of([1, 2, 3]))) == 0

    @pytest.mark.parametrize("g6,a", K2_DECOMPOSITIONS)
    def test_k2(self, g6, a):
        g = decode_graph6(g6)
        d = decompose(g, a)
        z = build_z(g, d.a, x_partition(g, d.a, d.b))
        assert z.bit_count() <= d.k - 1
        assert set(x_partition(g, z, d.b)) == set(x_partition(g, d.a, d.b))

    def test_matches_from_scratch_greedy(self):
        # b is the union of the non-trivial classes of the a-partition of
        # V \ a, as decompose has it.  1,000 cases with gnp n = 8-14 and a
        # random a reach k = 4 and |z| = 3; the z-class order decides the
        # pair only when two z-classes each merge a-classes, which a sparse
        # a (density 0.2) at n = 20-30 gives more often: another 1,000
        # cases, where z-classes in any order other than by minimum member
        # (say, sorted by value) return another z
        rng = random.Random(163)
        reach = set()
        family = [(g, 0.5) for g in random_graphs(200, 8, 14, seed0=163)]
        family += [(g, 0.2) for g in random_graphs(200, 20, 30, p=0.3, seed0=167)]
        for g, density in family:
            for _ in range(5):
                a = sum(1 << v for v in range(g.n) if rng.random() < density)
                b = sum(cls for cls in x_partition(g, a, g.complement_set(a)) if cls.bit_count() >= 2)
                a_part = x_partition(g, a, b)
                z = build_z(g, a, a_part)
                assert z == to_mask(ref_build_z(g, to_set(a), to_set(b)))
                assert set(x_partition(g, z, b)) == set(a_part)
                assert z.bit_count() <= max(len(a_part) - 1, 0)
                reach.add((len(a_part), z.bit_count()))
        assert max(k for k, _ in reach) >= 4 and max(size for _, size in reach) >= 3


class TestCandidates:
    def test_p4_sizes(self, p4):
        d = decompose(p4, set_of([0, 2]), s_max=4)
        cands = candidate_sets(p4, d)
        assert [c.size for c in cands] == [2, 2, 4, 2]
        assert all(c.locating for c in cands)

    def test_eq2_is_complement(self, p4):
        d = decompose(p4, set_of([0, 2]), s_max=4)
        cands = {c.tag: c for c in candidate_sets(p4, d)}
        assert cands["eq2"].vertex_set == p4.complement_set(d.a)

    def test_size_identities(self):
        for g in random_graphs(25, 4, 9, seed0=109):
            if not is_twin_free(g):
                continue
            s, good = max_score_exact(g)
            d = decompose(g, good, s_max=s)
            cands = {c.tag: c for c in candidate_sets(g, d)}
            n, b, c, k = g.n, d.b.bit_count(), d.c.bit_count(), d.k
            assert cands["eq1"].size == n - c - k
            assert cands["eq2"].size == b + c
            assert cands["eq3"].size == n - b
            if k >= 1:
                assert cands["eq4"].size <= c + 3 * k - 1

    def test_k_positive_on_graphs_with_twins(self):
        # the exact k >= 1 path, which no twin-free graph seen so far reaches:
        # every labeled graph with twins and n <= 6, its k-maximal good set,
        # the decomposition and the unchecked candidates.  S < n exactly
        # when k >= 1; there the two size checks hold on every graph, and
        # only eq3 and eq4 fail to locate
        graphs = k_positive = passed = 0
        not_locating = dict.fromkeys(CANDIDATE_TAGS, 0)
        for n in range(7):
            for g in all_labeled_graphs(n):
                if is_twin_free(g):
                    continue
                graphs += 1
                s, good = max_score_exact(g)
                d = decompose(g, good, s_max=s)
                cands = candidate_sets(g, d, strict=False)
                assert (d.k >= 1) == (s < n)
                if s == n:
                    continue
                k_positive += 1
                assert d.a_prime.bit_count() <= d.k
                assert cands[3].size <= d.c.bit_count() + 3 * d.k - 1
                for c in cands:
                    not_locating[c.tag] += not c.locating
                passed += all(c.locating for c in cands)
        assert (graphs, k_positive, passed) == (19718, 2808, 416)
        assert not_locating == {"eq1": 0, "eq2": 0, "eq3": 2392, "eq4": 178}


class TestConstruct:
    def test_p4(self, p4):
        r = construct_ld(p4)
        assert r.certified and r.witness_size == 2 <= locating_size_limit(4)
        assert is_locating(p4, r.witness)

    def test_k1(self, k1):
        r = construct_ld(k1)
        assert r.witness == 0 and r.ld_witness == set_of([0])

    def test_twins_rejected(self, c4):
        with pytest.raises(TwinsPresent):
            construct_ld(c4)

    def test_negative_max_exact(self, p4):
        with pytest.raises(InvalidInput, match="^max_exact must be at least 0, got -3$"):
            construct_ld(p4, max_exact=-3)
        # 0 bounds only the full sums, and P4 leaves through its split
        assert construct_ld(p4, max_exact=0) == construct_ld(p4)

    def test_ceiling_bounds_only_full_sums(self):
        # every twin-free labeled graph with n <= 6 splits, so a ceiling of 0
        # changes nothing: the same report, certified, at every n
        family = [g for n in range(7) for g in all_labeled_graphs(n) if is_twin_free(g)]
        for g in family:
            report = construct_ld(g, max_exact=0)
            assert report == construct_ld(g) and report.certified
        assert len(family) == 14150

    def test_empty_graph(self):
        r = construct_ld(new_graph(0, []))
        assert r.witness == 0 and r.ld_witness == 0
        assert r.candidates == () and r.certified

    @pytest.mark.parametrize("construct", [construct_ld])
    def test_unknown_mode_on_empty_graph(self, construct):
        # the mode is checked before the empty-graph shortcut
        with pytest.raises(InvalidInput, match="unknown mode 'bogus'"):
            construct(new_graph(0, []), mode="bogus")

    def test_averaging_combination(self):
        # min(eq1,eq4) <= (n+2k-1)/2 and min(eq1,eq2,eq3) <= (2n-k)/3
        checked = 0
        for g in random_graphs(60, 4, 9, seed0=113):
            if not is_twin_free(g):
                continue
            r = construct_ld(g)
            sizes = {c.tag: c.size for c in r.candidates}
            n, k = g.n, r.k
            if k >= 1:
                assert 2 * min(sizes["eq1"], sizes["eq4"]) <= n + 2 * k - 1
            assert 3 * min(sizes["eq1"], sizes["eq2"], sizes["eq3"]) <= 2 * n - k
            assert r.witness_size <= locating_size_limit(n)
            checked += 1
        assert checked > 10

    def test_heuristic_verified_uncertified(self):
        for g in random_graphs(60, 4, 12, seed0=127):
            if not is_twin_free(g):
                continue
            r = construct_ld(g, mode="heuristic")
            assert not r.certified
            assert is_locating(g, r.witness)
            assert is_locating_dominating(g, r.ld_witness)

    def test_heuristic_outputs_pinned(self):
        # the first two twin-free gnp graphs (p = 0.3, seeds from 1) at each
        # n, three rng seeds each: 18 runs, hashed byte for byte
        rows = []
        for n, seed, g in pinned_heuristic_graphs():
            for rng in (1, 2, 3):
                r = construct_ld(g, mode="heuristic", rng_seed=rng)
                cands = [(c.tag, c.vertex_set, c.locating) for c in r.candidates]
                rows.append([n, seed, rng, r.witness, r.ld_witness, r.s_value, r.k, cands])
        assert len(rows) == 18
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "18f9971681fe13f2c464d4547024f4e4c4158b954444fb57ff8ebcb465bbf850"

    def test_heuristic_vs_exact(self):
        # heuristic witness is a valid locating set, never smaller than L(G)
        from locdom.solver import min_locating

        for g in random_graphs(40, 4, 9, seed0=131):
            if not is_twin_free(g):
                continue
            h = construct_ld(g, mode="heuristic")
            assert h.witness_size >= min_locating(g).size

    def test_ld_limits(self):
        for g in random_graphs(60, 4, 10, seed0=137):
            if not is_twin_free(g):
                continue
            r = construct_ld(g)
            assert r.ld_witness_size <= ld_size_limit(g.n)


def pinned_heuristic_graphs():
    """(n, seed, graph) of the first two twin-free gnp graphs (p = 0.3,
    seeds from 1) at n = 30, 60 and 100."""
    for n in (30, 60, 100):
        seeds = [s for s in range(1, 20) if is_twin_free(generate("gnp", n, 0.3, s))][:2]
        for seed in seeds:
            yield n, seed, generate("gnp", n, 0.3, seed)


class TestLdStep:
    """construct_ld takes its LD witness from the walk that candidate_sets
    made over the witness's complement: it must be the set that
    extend_to_dominating, a walk of its own, gives."""

    def test_every_small_graph(self):
        checked = 0
        for n in range(7):
            for g in all_labeled_graphs(n):
                if not is_twin_free(g):
                    continue
                runs = [construct_ld(g)]
                runs += [construct_ld(g, mode="heuristic", rng_seed=rng) for rng in (1, 2, 3)]
                for r in runs:
                    assert r.ld_witness == extend_to_dominating(g, r.witness), encode_graph6(g)
                checked += 1
        assert checked > 14000

    def test_heuristic_gnp(self):
        family = [g for _, _, g in pinned_heuristic_graphs()]
        family += [first_twin_free_gnp(n) for n in (120, 150, 200)]
        for g in family:
            for rng in (1, 2, 3):
                r = construct_ld(g, mode="heuristic", rng_seed=rng)
                assert r.ld_witness == extend_to_dominating(g, r.witness)

    def test_one_walk_per_candidate_set(self, monkeypatch):
        # an exact run walks each distinct candidate set once, the witness
        # included, and walks nothing else
        walk = location.outside_walk
        walked = []

        def counted(g, x):
            walked.append(x)
            return walk(g, x)

        monkeypatch.setattr(location, "outside_walk", counted)
        monkeypatch.setattr(bound, "outside_walk", counted)
        family = [g for n in range(1, 6) for g in all_labeled_graphs(n) if is_twin_free(g)]
        family += [g for g in random_graphs(40, 7, 14, p=0.3, seed0=173) if is_twin_free(g)]
        assert len(family) > 300
        for g in family:
            walked.clear()
            r = construct_ld(g)
            assert sorted(walked) == sorted({c.vertex_set for c in r.candidates}), encode_graph6(g)


def first_twin_free_gnp(n):
    return next(g for g in (generate("gnp", n, 0.3, s) for s in range(1, 50)) if is_twin_free(g))


class TestHeuristicMemo:
    """construct_ld memoizes the twin check and the empty start for the last
    graph; the seeded start must still run on every call."""

    @staticmethod
    def warm_and_cold(g, seeds):
        _empty_start.cache_clear()
        warm = [construct_ld(g, mode="heuristic", rng_seed=s) for s in seeds]
        cold = []
        for s in seeds:
            _empty_start.cache_clear()
            cold.append(construct_ld(g, mode="heuristic", rng_seed=s))
        return warm, cold

    @pytest.mark.parametrize("n", [30, 60, 120, 200])
    def test_warm_equals_cold_gnp(self, n):
        warm, cold = self.warm_and_cold(first_twin_free_gnp(n), range(40))
        assert warm == cold
        assert len({r.witness for r in cold}) > 1  # the seed matters on these graphs

    def test_warm_equals_cold_small(self):
        checked = 0
        for n in range(6):
            for g in all_labeled_graphs(n):
                if is_twin_free(g):
                    warm, cold = self.warm_and_cold(g, (1, 2, 0x5EED))
                    assert warm == cold, encode_graph6(g)
                    checked += 1
        assert checked > 100

    def test_one_miss_per_graph(self):
        g = first_twin_free_gnp(60)
        _empty_start.cache_clear()
        for s in range(40):
            construct_ld(g, mode="heuristic", rng_seed=s)
        info = _empty_start.cache_info()
        assert (info.misses, info.hits) == (1, 39)

    def test_twins_raise_every_call(self, c4, p4):
        _empty_start.cache_clear()
        for cached_first in (False, True):
            if cached_first:
                construct_ld(p4, mode="heuristic")  # a twin-free graph takes the entry
            for _ in range(2):
                with pytest.raises(TwinsPresent):
                    construct_ld(c4, mode="heuristic")
        assert _empty_start.cache_info().hits == 0

    def test_equal_graph_hits(self):
        g = first_twin_free_gnp(60)
        same = decode_graph6(encode_graph6(g))
        assert same == g and same is not g
        _empty_start.cache_clear()
        first = construct_ld(g, mode="heuristic", rng_seed=3)
        assert construct_ld(same, mode="heuristic", rng_seed=3) == first
        assert _empty_start.cache_info().hits == 1
