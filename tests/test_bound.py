import pytest

from locdom.bound import (
    build_z,
    candidate_sets,
    construct_ld,
    construct_locating,
    decompose,
    derive_good_set,
    ld_size_limit,
    local_search,
    locating_size_limit,
    max_score_exact,
    score_sum,
    thinning_move,
)
from locdom.errors import (
    DomainViolation,
    NotGood,
    NotMaximal,
    RefusedScale,
    TwinsPresent,
)
from locdom.graphs import all_labeled_graphs, decode_graph6, is_twin_free, set_of
from locdom.location import is_locating, is_locating_dominating, x_partition

from conftest import random_graphs
from oracles import ref_max_score, ref_score_sum, to_set

# good sets with two non-trivial complement classes (graphs have twins, which
# the decomposition itself permits; only the full bound pipeline forbids them)
K2_DECOMPOSITIONS = [("Eo??", set_of([0, 3])), ("Eg??", set_of([1, 3]))]


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
        with pytest.raises(DomainViolation):
            thinning_move(p4, set_of([0]), set_of([1, 2]), 1)

    def test_trivial_class(self, p4):
        with pytest.raises(DomainViolation):
            thinning_move(p4, set_of([0]), set_of([1]), 1)

    def test_u_outside_class(self, p4):
        with pytest.raises(DomainViolation):
            thinning_move(p4, set_of([0]), set_of([2, 3]), 1)

    def test_scores_never_decrease(self):
        # spot check of the non-decrease guarantee; the acceptance suite
        # runs the large randomized version
        trials = 0
        for g in random_graphs(40, 3, 10, seed0=79):
            for a in range(0, 1 << g.n, 3):
                before = score_sum(g, a)
                part = x_partition(g, a, g.complement_set(a))
                for cls in part.classes:
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

    def test_good_set_is_best_normalized_maximizer(self):
        # reference: normalize every maximizer, then keep the largest k and,
        # among those, the smallest bit pattern
        def k_of(g, r):
            return sum(cls.bit_count() >= 2 for cls in x_partition(g, r, g.complement_set(r)).classes)

        # all graphs with n <= 5, twins included: 184 of them have S < n,
        # where the walk over maximizers stops early only at k = n - S > 0
        small = [g for n in range(6) for g in all_labeled_graphs(n)]
        for g in small + random_graphs(12, 6, 9, seed0=139):
            s, best = max_score_exact(g)
            images = {
                derive_good_set(g, a, s_max=s)
                for a in range(1 << g.n)
                if ref_score_sum(g, to_set(a)) == s
            }
            assert best == min(images, key=lambda r: (-k_of(g, r), r))

    def test_refused_scale(self):
        g = random_graphs(1, 21, 21, p=0.1, seed0=101)[0]
        with pytest.raises(RefusedScale):
            max_score_exact(g)


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
        with pytest.raises(NotMaximal):
            derive_good_set(p4, set_of([0]), s_max=4)

    def test_structural_goodness_any_start(self):
        # the complement-side partition of the output always has |r| classes,
        # maximizer or not
        for g in random_graphs(20, 2, 9, seed0=103):
            for a in range(0, 1 << g.n, 5):
                r = derive_good_set(g, a)
                assert score_sum(g, r).s_comp == r.bit_count()


class TestDecompose:
    def test_p4_all_trivial(self, p4):
        d = decompose(p4, set_of([0, 2]), s_max=4)
        assert (d.b, d.c, d.k) == (0, set_of([1, 3]), 0)
        assert d.a_prime == 0 and d.z == 0
        assert d.s_value == 4

    def test_not_good_structurally(self, p4):
        # vertices 0 and 1 share trace {} under the complement of {0,1,2}
        with pytest.raises(NotGood):
            decompose(p4, set_of([0, 1, 2]))

    def test_not_good_submaximal(self, p4):
        with pytest.raises(NotGood):
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
        assert set(apart.classes) == set(zpart.classes)

    def test_invariants_on_exact_corpus(self):
        for g in random_graphs(25, 4, 9, seed0=107):
            s, good = max_score_exact(g)
            d = decompose(g, good, s_max=s)
            # b is the union of the non-trivial classes, c the rest
            part = x_partition(g, d.a, g.complement_set(d.a))
            b_expect = 0
            for cls in part.classes:
                if cls.bit_count() >= 2:
                    b_expect |= cls
            assert d.b == b_expect
            assert d.c == g.complement_set(d.a) & ~d.b
            assert d.a_prime.bit_count() <= d.k
            assert d.a_prime & ~d.a == 0 and d.z & ~d.a == 0


class TestBuildZ:
    def test_k0(self, p4):
        assert build_z(p4, set_of([0, 2]), 0) == 0

    def test_k1(self):
        g = decode_graph6("C?")  # empty graph on 4 vertices
        assert build_z(g, set_of([0]), set_of([1, 2, 3])) == 0

    @pytest.mark.parametrize("g6,a", K2_DECOMPOSITIONS)
    def test_k2(self, g6, a):
        g = decode_graph6(g6)
        d = decompose(g, a)
        z = build_z(g, d.a, d.b)
        assert z.bit_count() <= d.k - 1
        assert set(x_partition(g, z, d.b).classes) == set(x_partition(g, d.a, d.b).classes)


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


class TestConstruct:
    def test_p4(self, p4):
        r = construct_locating(p4)
        assert r.certified and r.witness_size == 2 <= locating_size_limit(4)
        assert is_locating(p4, r.witness)

    def test_k1(self, k1):
        r = construct_ld(k1)
        assert r.witness == 0 and r.ld_witness == set_of([0])

    def test_twins_rejected(self, c4):
        with pytest.raises(TwinsPresent):
            construct_locating(c4)

    def test_empty_graph(self):
        from locdom.graphs import new_graph

        r = construct_ld(new_graph(0, []))
        assert r.witness == 0 and r.ld_witness == 0

    def test_averaging_combination(self):
        # min(eq1,eq4) <= (n+2k-1)/2 and min(eq1,eq2,eq3) <= (2n-k)/3
        checked = 0
        for g in random_graphs(60, 4, 9, seed0=113):
            if not is_twin_free(g):
                continue
            r = construct_locating(g)
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

    def test_heuristic_vs_exact(self):
        # heuristic witness is a valid locating set, never smaller than L(G)
        from locdom.solver import min_locating

        for g in random_graphs(40, 4, 9, seed0=131):
            if not is_twin_free(g):
                continue
            h = construct_locating(g, mode="heuristic")
            assert h.witness_size >= min_locating(g).size

    def test_ld_limits(self):
        for g in random_graphs(60, 4, 10, seed0=137):
            if not is_twin_free(g):
                continue
            r = construct_ld(g)
            assert r.ld_witness_size <= ld_size_limit(g.n)
