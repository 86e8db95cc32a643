import pytest

from locdom.errors import DomainViolation, PreconditionViolated
from locdom.graphs import new_graph, set_of
from locdom.location import (
    distinguishes,
    extend_to_dominating,
    is_dominating,
    is_locating,
    is_locating_dominating,
    representatives,
    score_table,
    separation_score,
    trace,
    x_partition,
)

from conftest import random_graphs
from oracles import ref_is_dominating, ref_is_locating, ref_partition, ref_s, to_mask, to_set


class TestTrace:
    def test_endpoint(self, p4):
        assert trace(p4, 0, set_of([1, 3])) == set_of([1])

    def test_middle(self, p4):
        assert trace(p4, 2, set_of([1, 3])) == set_of([1, 3])

    def test_empty_probe(self, p4):
        assert trace(p4, 2, 0) == 0


class TestXPartition:
    def test_p4_single_probe(self, p4):
        part = x_partition(p4, set_of([0]), set_of([1, 2, 3]))
        assert part.classes == (set_of([1]), set_of([2, 3]))
        assert part.traces == (set_of([0]), 0)

    def test_p4_two_probes(self, p4):
        part = x_partition(p4, set_of([0, 2]), set_of([1, 3]))
        assert part.classes == (set_of([1]), set_of([3]))
        assert part.traces == (set_of([0, 2]), set_of([2]))

    def test_empty_probe_one_class(self, c5):
        part = x_partition(c5, 0, c5.full_set)
        assert part.classes == (c5.full_set,)

    def test_overlap_rejected(self, p4):
        with pytest.raises(DomainViolation):
            x_partition(p4, set_of([0]), set_of([0, 1]))

    def test_out_of_range_rejected(self, p4):
        with pytest.raises(DomainViolation):
            x_partition(p4, 0, 1 << 4)

    def test_matches_reference(self):
        for g in random_graphs(30, 2, 10, seed0=31):
            for x in range(0, 1 << g.n, 3):
                y = g.complement_set(x)
                got = [to_set(c) for c in x_partition(g, x, y).classes]
                assert got == [set(c) for c in ref_partition(g, to_set(x), to_set(y))]

    def test_disjoint_union_invariant(self):
        for g in random_graphs(10, 3, 8, seed0=37):
            for x in range(1 << g.n):
                part = x_partition(g, x, g.complement_set(x))
                union = 0
                for c in part.classes:
                    assert c and not (union & c)
                    union |= c
                assert union == part.ground

    def test_refinement_monotone(self):
        # adding probe vertices never merges classes
        for g in random_graphs(15, 3, 9, seed0=41):
            for x in range(0, 1 << g.n, 5):
                for extra in range(g.n):
                    x2 = x | 1 << extra
                    y = g.complement_set(x2)
                    p1 = {frozenset(to_set(c) & to_set(y)) for c in x_partition(g, x, g.complement_set(x)).classes}
                    p2 = {frozenset(to_set(c)) for c in x_partition(g, x2, y).classes}
                    for cls in p2 - {frozenset()}:
                        assert any(cls <= big for big in p1)


class TestSeparationScore:
    def test_examples(self, p4):
        assert separation_score(p4, set_of([0])) == 2
        assert separation_score(p4, set_of([0, 2])) == 2

    def test_extremes(self, c5):
        assert separation_score(c5, c5.full_set) == 0
        assert separation_score(c5, 0) == 1

    def test_matches_reference(self):
        for g in random_graphs(20, 1, 9, seed0=43):
            for a in range(1 << g.n):
                assert separation_score(g, a) == ref_s(g, to_set(a))

    def test_table_matches_reference(self):
        # n = 0 is the one-entry table; n < 3 has planes narrower than a byte
        graphs = [new_graph(0, [])] + random_graphs(16, 1, 8, seed0=47) + random_graphs(8, 9, 12, seed0=53)
        for g in graphs:
            assert list(score_table(g)) == [ref_s(g, to_set(a)) for a in range(1 << g.n)]


class TestDistinguishes:
    def test_one_edge(self, p4):
        assert distinguishes(p4, 0, 1, 3)

    def test_both_edges(self, p4):
        assert not distinguishes(p4, 1, 0, 2)

    def test_neither_edge(self, p4):
        assert not distinguishes(p4, 0, 2, 3)

    def test_precondition(self, p4):
        with pytest.raises(DomainViolation):
            distinguishes(p4, 0, 0, 1)


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
                part = x_partition(g, x, comp)
                assert is_locating(g, x) == (len(part.classes) == comp.bit_count())

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
        with pytest.raises(PreconditionViolated):
            extend_to_dominating(p4, set_of([1]))

    def test_adds_at_most_one(self):
        for g in random_graphs(25, 1, 9, seed0=61):
            for x in range(1 << g.n):
                if not is_locating(g, x):
                    continue
                ext = extend_to_dominating(g, x)
                assert is_locating_dominating(g, ext)
                assert ext.bit_count() <= x.bit_count() + 1


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
                for c in part.classes:
                    assert (chosen & c).bit_count() == 1
