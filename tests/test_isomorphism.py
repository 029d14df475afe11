import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.graphs import Graph, path_graph
from wsatlab.isomorphism import are_isomorphic

nx = pytest.importorskip("networkx")


def relabelled(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def switched(g: Graph, rng: random.Random, rounds: int) -> Graph:
    """g after random double-edge switches ab, cd -> ac, bd, which keep every
    degree; the result is often not isomorphic to g."""
    edges = set(g.edges)
    for _ in range(rounds):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted(e)) for e in ((a, c), (b, d))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (c, d)}
            edges |= new
    return Graph(g.n, edges)


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e in pairs if draw(st.booleans())])
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["relabelled", "switched", "independent"]))
    if kind == "independent":
        h = Graph(n, [e for e in pairs if draw(st.booleans())])
    elif kind == "switched" and g.num_edges >= 2:
        h = switched(g, rng, draw(st.integers(1, 4)))
    else:
        h = g
    perm = list(range(n))
    rng.shuffle(perm)
    return g, relabelled(h, perm)


@settings(max_examples=400, deadline=None)
@given(graph_pairs())
def test_matches_networkx(pair):
    g, h = pair
    assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))
    assert are_isomorphic(h, g) == are_isomorphic(g, h)


def test_long_path_does_not_recurse():
    n = 1500
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    g = path_graph(n)
    assert are_isomorphic(g, relabelled(g, perm))
