"""Independent set-based reference implementations.

Everything here works on plain Python sets and itertools enumeration, with
no shared code paths with the bitmask implementation, so the two sides can
cross-check each other.
"""

from itertools import combinations


def neighborhoods(g):
    return [{u for u in range(g.n) if row >> u & 1} for row in g.adj]


def to_set(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def to_mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def ref_trace(g, v, x_set):
    return neighborhoods(g)[v] & x_set


def ref_partition(g, x_set, y_set):
    nbr = neighborhoods(g)
    groups = {}
    for v in sorted(y_set):
        groups.setdefault(frozenset(nbr[v] & x_set), set()).add(v)
    return sorted(groups.values(), key=min)


def ref_s(g, a_set):
    nbr = neighborhoods(g)
    comp = set(range(g.n)) - a_set
    return len({frozenset(nbr[v] & a_set) for v in comp})


def ref_score_sum(g, a_set):
    return ref_s(g, a_set) + ref_s(g, set(range(g.n)) - a_set)


def ref_max_score(g):
    verts = list(range(g.n))
    return max(
        ref_score_sum(g, set(c)) for r in range(g.n + 1) for c in combinations(verts, r)
    )


def ref_build_z(g, a_set, b_set):
    """The greedy separator rebuilt from scratch each step: while the
    z-partition of b has fewer classes than the a-partition, take the first
    z-class (by minimum member) holding two a-class minima, its two smallest,
    and add the smallest vertex of a - z adjacent to exactly one of them."""
    nbr = neighborhoods(g)
    a_classes = ref_partition(g, a_set, b_set)
    minima = sorted(min(cls) for cls in a_classes)
    z = set()
    while len(ref_partition(g, z, b_set)) < len(a_classes):
        for zc in ref_partition(g, z, b_set):
            merged = [u for u in minima if u in zc]
            if len(merged) >= 2:
                break
        u, u2 = merged[:2]
        z.add(min(w for w in a_set - z if (u in nbr[w]) != (u2 in nbr[w])))
    return z


def ref_splitmix64(state):
    """One step of splitmix64 as the comment in graphs.py defines it; returns (new_state, output)."""
    mod = 1 << 64
    state = (state + 0x9E3779B97F4A7C15) % mod
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % mod
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % mod
    return state, z ^ (z >> 31)


def ref_splitmix64_outputs(seed, count):
    """The first count outputs of splitmix64 from state seed, one step at a time."""
    state, out = seed, []
    for _ in range(count):
        state, z = ref_splitmix64(state)
        out.append(z)
    return out


def ref_gnp_edges(n, p, seed):
    """The gnp edge set built pair by pair: pairs (u, v), u < v, in
    lexicographic order, each kept iff its output is below p * 2^64."""
    outputs = iter(ref_splitmix64_outputs(seed, n * (n - 1) // 2))
    threshold = int(p * (1 << 64))
    return {(u, v) for u in range(n) for v in range(u + 1, n) if next(outputs) < threshold}


def ref_is_locating(g, x_set):
    nbr = neighborhoods(g)
    comp = set(range(g.n)) - x_set
    traces = [frozenset(nbr[v] & x_set) for v in comp]
    return len(traces) == len(set(traces))


def ref_is_dominating(g, x_set):
    nbr = neighborhoods(g)
    return all(nbr[v] & x_set for v in set(range(g.n)) - x_set)


def ref_min_witness(g, dominating=False):
    """First locating (and dominating) set in increasing size, combinations order."""
    for r in range(g.n + 1):
        for c in combinations(range(g.n), r):
            x = set(c)
            if ref_is_locating(g, x) and (not dominating or ref_is_dominating(g, x)):
                return x
    raise AssertionError("unreachable")


def ref_first_bipartition(g):
    """X of the smallest odd bit pattern with X and V - X both locating, or None."""
    if g.n == 0:
        return set()  # the empty graph splits into two empty sets
    verts = set(range(g.n))
    for x in range(1, 1 << g.n, 2):
        x_set = to_set(x)
        if ref_is_locating(g, x_set) and ref_is_locating(g, verts - x_set):
            return x_set
    return None


def ref_first_split(g, pinned=False):
    """X of the smallest bit pattern, odd when pinned, with X and V - X both
    locating, or None.

    Two vertices u, v keep equal traces on a side S iff S misses
    M_uv = (N(u) ^ N(v)) | {u, v}, so no split lies below a choice of the
    vertices from t up that puts a whole M_uv on one side.  The search
    decides the vertices from n - 1 down, 0 before 1, so the splits come in
    bit order; it drops a branch once an M_uv whose least vertex is t lies
    on one side, and keeps a leaf only if ref_is_locating accepts both sides.
    """
    nbr = neighborhoods(g)
    verts = set(range(g.n))
    by_least = [[] for _ in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        m = (nbr[u] ^ nbr[v]) | {u, v}
        by_least[min(m)].append(m)

    def first(t, x_set):
        if t < 0:
            both = ref_is_locating(g, x_set) and ref_is_locating(g, verts - x_set)
            return x_set if both else None
        for side in (True,) if pinned and t == 0 else (False, True):
            y_set = x_set | {t} if side else x_set
            if all(m & y_set and not m <= y_set for m in by_least[t]):
                found = first(t - 1, y_set)
                if found is not None:
                    return found
        return None

    return first(g.n - 1, set())


def ref_labeled_edges(n):
    """Edge lists of all labeled graphs on n vertices, pattern m = 0, 1, ...

    Bit t of m selects the t-th pair in the order (0,1),(0,2),(1,2),(0,3),...
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for m in range(1 << len(pairs)):
        yield [pair for t, pair in enumerate(pairs) if m >> t & 1]


def ref_labeled_neighbourhoods(n, m):
    """Neighbour sets of the labeled graph with triangle pattern m on n
    vertices: bit t of m selects the t-th pair in the column-major order
    (0,1),(0,2),(1,2),(0,3),..."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bits = format(m, f"0{len(pairs)}b")[::-1] if pairs else ""
    nbr = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bits):
        if bit == "1":
            nbr[i].add(j)
            nbr[j].add(i)
    return nbr


def ref_twins(g):
    nbr = neighborhoods(g)
    out = []
    for u, v in combinations(range(g.n), 2):
        if nbr[u] - {v} == nbr[v] - {u}:
            kind = "closed" if v in nbr[u] else "open"
            out.append((u, v, kind))
    return out


def ref_partitions(n, k):
    """Partitions of range(n) into k non-empty blocks, as lists of sets.

    Generated as restricted-growth strings (vertex v gets a label at most one
    above the largest label before it) in lexicographic order; block b holds
    the vertices labeled b.
    """

    def grow(labels, used):
        if used + n - len(labels) < k:
            return
        if len(labels) == n:
            yield [{v for v in range(n) if labels[v] == b} for b in range(k)]
            return
        for lab in range(min(used + 1, k)):
            yield from grow(labels + [lab], max(used, lab + 1))

    yield from grow([], 0)


def ref_s_k(g, k):
    """Largest summed ref_s over k-partitions, with the first partition reaching it."""
    scores = {}
    best, witness = -1, None
    for blocks in ref_partitions(g.n, k):
        value = 0
        for b in blocks:
            key = frozenset(b)
            if key not in scores:
                scores[key] = ref_s(g, b)
            value += scores[key]
        if value > best:
            best, witness = value, blocks
    return best, witness
