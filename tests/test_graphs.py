import random

import pytest

from locdom.errors import InvalidInput, RefusedScale
from locdom.graphs import (
    all_labeled_graphs,
    decode_graph6,
    encode_graph6,
    encode_pattern,
    find_twins,
    generate,
    is_twin_free,
    labeled_graph,
    members,
    new_graph,
    parse_edge_list,
    random_subset,
    set_of,
    splitmix64_lanes,
)

from conftest import random_graphs
from oracles import (
    ref_gnp_edges,
    ref_labeled_edges,
    ref_labeled_neighbourhoods,
    ref_splitmix64_outputs,
    ref_twins,
    to_mask,
    to_set,
)

SEEDS = (0, 1, 2**64 - 1, -5, 2**70)


class TestNewGraph:
    def test_p4(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.adj[1] == set_of([0, 2])
        assert g.edge_count == 3

    def test_k1(self):
        g = new_graph(1, [])
        assert g.n == 1 and g.adj[0] == 0

    def test_duplicates_collapse(self):
        g = new_graph(4, [(0, 1), (1, 0)])
        assert g.edge_count == 1 and g.adj[0] == set_of([1])

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match=r"^edge \(0, 5\) outside range 0\.\.2$"):
            new_graph(3, [(0, 5)])

    def test_loop_rejected(self):
        with pytest.raises(InvalidInput, match="^loop at vertex 1$"):
            new_graph(3, [(1, 1)])

    def test_negative_order(self):
        with pytest.raises(InvalidInput, match="^negative vertex count -1$"):
            new_graph(-1, [])

    def test_symmetry_irreflexivity(self):
        for g in random_graphs(20, 1, 12):
            for v in range(g.n):
                assert not g.adj[v] >> v & 1
                for u in members(g.adj[v]):
                    assert g.adj[u] >> v & 1


class TestGraph6:
    # frozen reference values, computed once with networkx's encoder
    FROZEN = {"Ch": [(0, 1), (1, 2), (2, 3)], "@": [], "Bw": [(0, 1), (0, 2), (1, 2)]}
    FROZEN_N = {"Ch": 4, "@": 1, "Bw": 3}

    @pytest.mark.parametrize("text", FROZEN)
    def test_decode_frozen(self, text):
        g = decode_graph6(text)
        assert g.n == self.FROZEN_N[text]
        assert sorted(g.edges()) == sorted(self.FROZEN[text])

    @pytest.mark.parametrize("text", FROZEN)
    def test_encode_frozen(self, text):
        g = new_graph(self.FROZEN_N[text], self.FROZEN[text])
        assert encode_graph6(g) == text

    def test_header_stripped(self):
        assert decode_graph6(">>graph6<<Ch").n == 4
        # and so are the space, tab, CR and LF around a line
        assert decode_graph6(" Ch\r\n") == decode_graph6("Ch")

    def test_roundtrip_corpus(self):
        # a corpus all:N record encodes its id from the pattern m it was built from
        for n in range(6):
            for m, g in enumerate(all_labeled_graphs(n)):
                assert decode_graph6(encode_graph6(g)) == g
                assert encode_pattern(n, m) == encode_graph6(g)

    def test_roundtrip_random_large(self):
        for g in random_graphs(50, 20, 50, p=0.2, seed0=7):
            assert decode_graph6(encode_graph6(g)) == g

    def test_extended_order_roundtrip(self):
        # n = 63 is the first order written in the four-character "~" form
        for n, p in ((63, 0.3), (100, 0.05), (300, 0.2)):
            g = generate("gnp", n, p, seed=3)
            enc = encode_graph6(g)
            assert enc.startswith("~")
            assert decode_graph6(enc) == g

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in random_graphs(30, 1, 40, p=0.3, seed0=11) + [generate("gnp", 200, 0.3, seed=11)]:
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert encode_graph6(g) == expected
            assert decode_graph6(expected) == g
            back = nx.from_graph6_bytes(encode_graph6(g).encode())
            assert sorted(back.edges()) == sorted(tuple(sorted(e)) for e in g.edges())

    def test_bad_character(self):
        # only space, tab, CR and LF are stripped: str.strip would also take
        # \x0b, \x0c and \x1c-\x1f, and decode the last two as P4
        for text in ["C\x01", "C\x1f", "Ch\x1f", "\x1cCh\x0b"]:
            with pytest.raises(InvalidInput, match="outside graph6 alphabet"):
                decode_graph6(text)

    @pytest.mark.parametrize("text", ["", " \t\r\n", ">>graph6<<\n"], ids=["empty", "blanks", "header-only"])
    def test_blank(self, text):
        with pytest.raises(InvalidInput, match="^empty graph6 string$"):
            decode_graph6(text)

    def test_truncated(self):
        with pytest.raises(InvalidInput, match="truncated bit stream: 0 < 3 chunks"):
            decode_graph6("E")  # n=6 needs bits
        with pytest.raises(InvalidInput, match="truncated extended order"):
            decode_graph6("~??")  # extended order cut short

    def test_trailing_garbage(self):
        with pytest.raises(InvalidInput, match="trailing characters after adjacency bits"):
            decode_graph6("Chh")

    def test_nonzero_padding(self):
        # n=2 uses 1 of 6 bits; "Aw" has pad bits 11000 set
        with pytest.raises(InvalidInput, match="nonzero padding bits"):
            decode_graph6("Aw")

    def test_order_too_large(self):
        g = new_graph(0, [])
        big = g.__class__(258048, (0,) * 258048)
        with pytest.raises(InvalidInput, match="graph6 order 258048 exceeds 258047"):
            encode_graph6(big)

        class Unread:  # an edge in a row that large would put a bit 2^35 places up in the pattern
            def __getitem__(self, v):
                raise AssertionError("rows read before the order was refused")

        with pytest.raises(InvalidInput, match="graph6 order 258048 exceeds 258047"):
            encode_graph6(g.__class__(258048, Unread()))
        with pytest.raises(InvalidInput, match="8-byte order form not supported"):
            decode_graph6("~~??????")  # eight-character order form


class TestEdgeList:
    def test_p4(self):
        g = parse_edge_list("n 4\n0 1\n1 2\n2 3")
        assert encode_graph6(g) == "Ch"

    def test_comments(self):
        g = parse_edge_list("n 2\n# comment\n0 1")
        assert g.edge_count == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match=r"edge \(0, 5\) outside range 0\.\.2"):
            parse_edge_list("n 3\n0 5")

    def test_missing_header(self):
        with pytest.raises(InvalidInput, match="line 1: expected 'n <count>' header"):
            parse_edge_list("0 1\n1 2")

    def test_bad_token(self):
        with pytest.raises(InvalidInput, match="line 2: non-integer endpoint in '0 x'"):
            parse_edge_list("n 3\n0 x")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n 3\n0 1\n1 1\n", r"line 3: loop at vertex 1"),
            ("# P3?\nn 3\n\n1 7\n", r"line 4: edge \(1, 7\) outside range 0\.\.2"),
            ("n -2\n", r"line 1: negative vertex count -2"),
            ("n -2\n0 1\n", r"line 1: negative vertex count -2"),
            ("# header\nn three\n", r"line 2: bad vertex count 'three'"),
            ("n 3\n0 1 2\n", r"line 2: expected 'u v', got '0 1 2'"),
            ("", r"no 'n <count>' header found"),
            ("# only a comment\n\n", r"no 'n <count>' header found"),
        ],
        ids=["loop", "out-of-range", "negative", "negative-then-edge", "bad-count", "three-tokens", "empty", "no-header"],
    )
    def test_error_names_line(self, text, message):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            parse_edge_list(text)


class TestGenerate:
    def test_path(self):
        assert encode_graph6(generate("path", 4)) == "Ch"

    def test_cycle(self):
        g = generate("cycle", 5)
        assert g.adj[0] == set_of([1, 4])
        assert g.edge_count == 5

    def test_complete(self):
        g = generate("complete", 4)
        assert g.edge_count == 6

    def test_gnp_deterministic(self):
        a = generate("gnp", 10, 0.5, seed=1)
        b = generate("gnp", 10, 0.5, seed=1)
        assert a == b

    def test_gnp_seed_sensitivity(self):
        assert generate("gnp", 10, 0.5, seed=1) != generate("gnp", 10, 0.5, seed=2)

    def test_gnp_extremes(self):
        assert generate("gnp", 8, 0.0, seed=5).edge_count == 0
        assert generate("gnp", 8, 1.0, seed=5).edge_count == 28

    def test_invalid_p(self):
        with pytest.raises(InvalidInput, match=r"gnp requires p in \[0, 1\], got 1\.5"):
            generate("gnp", 5, 1.5, seed=1)
        with pytest.raises(InvalidInput, match=r"gnp requires p in \[0, 1\], got None"):
            generate("gnp", 5, None, seed=1)

    def test_bad_kind(self):
        with pytest.raises(InvalidInput, match="unknown generator kind 'wheel'"):
            generate("wheel", 5)

    def test_empty(self):
        assert generate("path", 0).n == 0

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.999, 1.0])
    def test_gnp_matches_pairwise_reference(self, p):
        for n in [*range(15), 40, 120]:
            for seed in SEEDS[: 2 if n > 14 else None]:
                assert set(generate("gnp", n, p, seed).edges()) == ref_gnp_edges(n, p, seed), (n, seed)


def unpack_lanes(lanes, count):
    """The count 128-bit lanes of a packed int, lane 0 first."""
    raw = lanes.to_bytes(16 * count, "little")
    return [int.from_bytes(raw[i : i + 16], "little") for i in range(0, 16 * count, 16)]


class TestSplitmix64Lanes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_one_step_reference(self, seed):
        for count in [*range(131), 199, 19900]:
            lanes = splitmix64_lanes(seed, count)
            assert lanes >> 128 * count == 0, count  # nothing past the last lane
            assert unpack_lanes(lanes, count) == ref_splitmix64_outputs(seed, count), count

    def test_runs_continue(self):
        # a run from seed + i * gamma is the tail of the run from seed, as gnp's rows use it
        whole = ref_splitmix64_outputs(3, 300)
        for i in (1, 64, 299):
            tail = splitmix64_lanes(3 + i * 0x9E3779B97F4A7C15, 300 - i)
            assert unpack_lanes(tail, 300 - i) == whole[i:]

    def test_random_start_matches_reference(self):
        # vertex v is in the seeded start iff splitmix64 output v is odd
        for seed in (0, 1, 0x5EED, 2**64 - 1, -5, 2**70):
            outputs = ref_splitmix64_outputs(seed, 130)
            for n in range(131):
                assert random_subset(n, seed) == to_mask(v for v in range(n) if outputs[v] & 1), (n, seed)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        graphs = list(all_labeled_graphs(n))
        assert len(graphs) == count
        assert len(set(graphs)) == count

    def test_order_is_triangle_pattern(self):
        graphs = list(all_labeled_graphs(3))
        assert graphs[0].edge_count == 0
        assert graphs[1].adj == (set_of([1]), set_of([0]), 0)  # bit 0 = pair (0,1)
        assert graphs[-1].edge_count == 3

    def test_refused_scale(self):
        with pytest.raises(RefusedScale):
            next(all_labeled_graphs(8))

    def test_negative_order(self):
        with pytest.raises(InvalidInput, match="negative vertex count -1"):
            next(all_labeled_graphs(-1))

    @pytest.mark.parametrize(
        "n,m,message",
        [
            (3, 1000, r"^triangle pattern 1000 outside 0\.\.2\^3 - 1 for n=3$"),
            (3, -1, r"^triangle pattern -1 outside 0\.\.2\^3 - 1 for n=3$"),
            (-1, 0, "^negative vertex count -1$"),
        ],
        ids=["pattern-too-large", "pattern-negative", "order-negative"],
    )
    def test_labeled_graph_rejects_bad_input(self, n, m, message):
        # a bit past the last pair, a negative pattern and a negative order
        # name no graph, so each is refused rather than read as another one
        with pytest.raises(InvalidInput, match=message):
            labeled_graph(n, m)

    @pytest.mark.parametrize(
        "n,m,message",
        [
            (3, 8, r"^triangle pattern 8 outside 0\.\.2\^3 - 1 for n=3$"),
            (4, 64, r"^triangle pattern 64 outside 0\.\.2\^6 - 1 for n=4$"),
            (3, -1, r"^triangle pattern -1 outside 0\.\.2\^3 - 1 for n=3$"),
            (-1, 0, "^negative vertex count -1$"),
        ],
        ids=["padding-bit", "bit-past-last-chunk", "pattern-negative", "order-negative"],
    )
    def test_encode_pattern_rejects_bad_input(self, n, m, message):
        # the inverse of labeled_graph refuses what it refuses: unchecked,
        # (3, 8) wrote a padding bit, (4, 64) lost its top bit and gave the
        # empty graph, and (-1, 0) wrote an order outside the graph6 alphabet
        with pytest.raises(InvalidInput, match=message):
            encode_pattern(n, m)

    def test_labeled_graph_matches_reference(self):
        for n in range(7):
            for m, edges in enumerate(ref_labeled_edges(n)):
                assert labeled_graph(n, m) == new_graph(n, edges)


def seeded_pattern(n, density, seed):
    """A triangle pattern on n vertices, each pair present with the given density."""
    rnd = random.Random(seed)
    bits = "".join("1" if rnd.random() < density else "0" for _ in range(n * (n - 1) // 2))
    return int(bits[::-1] or "0", 2)


class TestLabeledGraphTranspose:
    """labeled_graph builds its rows by a bit-matrix transpose at row width
    w, the power of two >= max(8, n); the orders sit on both sides of each
    width and the patterns are empty, complete and random."""

    ORDERS = (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1025)

    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_reference(self, n):
        pairs = n * (n - 1) // 2
        patterns = [0, (1 << pairs) - 1]
        patterns += [seeded_pattern(n, density, n * 10 + i) for i, density in enumerate((0.1, 0.5, 0.9))]
        for m in patterns:
            expected = tuple(to_mask(nbr) for nbr in ref_labeled_neighbourhoods(n, m))
            g = labeled_graph(n, m)
            assert (g.n, g.adj) == (n, expected), m.bit_count()
            assert decode_graph6(encode_pattern(n, m)) == g


class TestTwins:
    def test_c4_open_twins(self, c4):
        pairs = {(t.u, t.v, t.kind) for t in find_twins(c4)}
        assert (0, 2, "open") in pairs and (1, 3, "open") in pairs

    def test_k2_closed(self, k2):
        assert [(t.u, t.v, t.kind) for t in find_twins(k2)] == [(0, 1, "closed")]

    def test_p4_twin_free(self, p4):
        assert find_twins(p4) == []
        assert is_twin_free(p4)

    def test_k1(self, k1):
        assert is_twin_free(k1)

    @staticmethod
    def _plant_twin(g, u, v, kind):
        """g with N(v) rewired so that u and v become open or closed twins."""
        edges = [e for e in g.edges() if v not in e]
        edges += [(v, w) for w in members(g.adj[u]) if w != v]
        if kind == "closed":
            edges.append((u, v))
        return new_graph(g.n, edges)

    def test_matches_reference(self):
        large = []
        for i, n in enumerate((60, 100, 140, 200)):
            g = generate("gnp", n, 0.3, seed=29 + i)
            large += [g, self._plant_twin(g, n // 3, n - 1, "open"), self._plant_twin(g, 1, n // 2, "closed")]
        for g in random_graphs(40, 1, 10, p=0.5, seed0=23) + large:
            got = sorted((t.u, t.v, t.kind) for t in find_twins(g))
            assert got == sorted(ref_twins(g))
            assert is_twin_free(g) == (not ref_twins(g))

    def test_twin_free_at_most_one_isolated(self):
        # two isolated vertices are open twins
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                if is_twin_free(g):
                    assert sum(1 for row in g.adj if row == 0) <= 1
