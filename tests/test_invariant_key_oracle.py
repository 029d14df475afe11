"""invariant_key as it stood before it was encoded as integers, kept
verbatim as a reference: the current key must split graphs into exactly the
same buckets, so every registry keeps the same representatives in the same
order.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab import isomorphism
from wsatlab.extremal import wsat_exact
from wsatlab.graphs import Graph, complete_graph
from wsatlab.isomorphism import IsoClassRegistry, invariant_key


def reference_invariant_key(g: Graph) -> tuple:
    """Isomorphism-invariant fingerprint: degree sequence, sorted
    neighbor-degree multisets, and triangle count."""
    degs = g.degrees
    nbr_profiles = tuple(
        sorted(
            (degs[u], tuple(sorted(degs[w] for w in g.neighbors(u))))
            for u in range(g.n)
        )
    )
    tri = 0
    for u, v in g.edges:
        tri += (g.adj_mask(u) & g.adj_mask(v)).bit_count()
    return (g.n, g.num_edges, nbr_profiles, tri // 3)


def relabelled(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def switched(g: Graph, rng: random.Random, rounds: int) -> Graph:
    """g after random double-edge switches ab, cd -> ac, bd, which keep every
    degree but often change the neighbor degrees or the triangles."""
    edges = set(g.edges)
    for _ in range(rounds):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted(e)) for e in ((a, c), (b, d))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (c, d)}
            edges |= new
    return Graph(g.n, edges)


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
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


@settings(max_examples=600, deadline=None)
@given(graph_pairs())
def test_keys_agree_with_reference(pair):
    g, h = pair
    assert (invariant_key(g) == invariant_key(h)) == (
        reference_invariant_key(g) == reference_invariant_key(h)
    )


def neighbor_degrees(code: int, n: int) -> tuple[int, ...]:
    """The neighbor degrees a vertex code counts in its base-(n+1) digits."""
    out = []
    d = 0
    while code:
        code, count = divmod(code, n + 1)
        out += [d] * count
        d += 1
    return tuple(out)


def test_buckets_match_reference_on_every_small_graph():
    # every labelled graph on at most 6 vertices: the two keys must be in
    # one-to-one correspondence, and the codes must spell out the
    # reference's neighbor degrees (a narrower base would carry first on
    # a vertex joined to all others, as in a clique)
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        to_ref: dict[tuple, tuple] = {}
        from_ref: dict[tuple, tuple] = {}
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            key, ref = invariant_key(g), reference_invariant_key(g)
            assert to_ref.setdefault(key, ref) == ref
            assert from_ref.setdefault(ref, key) == key
            assert sorted(neighbor_degrees(c, n) for c in key[2]) == sorted(
                nbrs for _, nbrs in ref[2]
            )
        assert len(to_ref) == len(from_ref)


def registry_levels(monkeypatch, key):
    """wsat_exact(7, K4), and for each registry it fills (one per edge
    count) the graphs offered in order with their novelty, bucketed by
    ``key``."""
    levels = []
    real_init, real_add = IsoClassRegistry.__init__, IsoClassRegistry.add

    def init(self):
        real_init(self)
        levels.append([])

    def add(self, g):
        novel = real_add(self, g)
        levels[-1].append((g, novel))
        return novel

    with monkeypatch.context() as m:
        m.setattr(isomorphism, "invariant_key", key)
        m.setattr(IsoClassRegistry, "__init__", init)
        m.setattr(IsoClassRegistry, "add", add)
        res = wsat_exact(7, complete_graph(4))
    return res, levels


def test_wsat_levels_keep_reference_representatives(monkeypatch):
    res, levels = registry_levels(monkeypatch, invariant_key)
    ref, ref_levels = registry_levels(monkeypatch, reference_invariant_key)
    assert sum(map(len, levels)) == res.nodes_explored == 6661
    assert levels == ref_levels
    assert (res.value, res.witnesses) == (ref.value, ref.witnesses)
