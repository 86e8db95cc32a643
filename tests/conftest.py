import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from locdom.graphs import decode_graph6, generate, new_graph


@pytest.fixture
def p4():
    return new_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c4():
    return new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def c5():
    return generate("cycle", 5)


@pytest.fixture
def k1():
    return new_graph(1, [])


@pytest.fixture
def k2():
    return new_graph(2, [(0, 1)])


def random_graphs(count, n_lo, n_hi, p=0.4, seed0=0):
    """Deterministic stream of gnp graphs cycling over orders n_lo..n_hi."""
    out = []
    seed = seed0
    while len(out) < count:
        for n in range(n_lo, n_hi + 1):
            seed += 1
            out.append(generate("gnp", n, p, seed))
            if len(out) == count:
                break
    return out


def open_twin(n, seed):
    """gnp(n - 1, 0.1, seed) plus vertex n - 1, an open twin of vertex seed."""
    base = generate("gnp", n - 1, 0.1, seed)
    row = base.adj[seed]
    return new_graph(n, [*base.edges(), *((u, n - 1) for u in range(n - 1) if row >> u & 1)])


@st.composite
def small_graphs(draw, min_n=0, max_n=8):
    """Hypothesis strategy: a graph on min_n..max_n vertices, each edge drawn."""
    n = draw(st.integers(min_n, max_n))
    return new_graph(n, [(u, v) for v in range(n) for u in range(v) if draw(st.booleans())])
