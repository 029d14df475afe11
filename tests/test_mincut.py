import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.mincut import MaxFlow


@st.composite
def networks(draw):
    """(n, arcs) with s = 0 and t = n - 1; arcs may be parallel or antiparallel."""
    n = draw(st.integers(2, 8))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 6))
    arcs = [(u, v, c) for u, v, c in draw(st.lists(arc, max_size=20)) if u != v]
    return n, arcs


def build(n, arcs):
    net = MaxFlow(n)
    for u, v, c in arcs:
        net.add_edge(u, v, c)
    return net


def brute_min_cuts(n, arcs):
    """(min cut capacity, every source set attaining it), over all s-t cuts."""
    cuts = []
    inner = range(1, n - 1)
    for k in range(n - 1):
        for extra in itertools.combinations(inner, k):
            side = {0, *extra}
            cuts.append(
                (sum(c for u, v, c in arcs if u in side and v not in side), side)
            )
    best = min(c for c, _ in cuts)
    return best, [side for c, side in cuts if c == best]


@settings(deadline=None, max_examples=300)
@given(networks())
def test_max_flow_matches_brute_force_cuts(case):
    n, arcs = case
    net = build(n, arcs)
    best, sides = brute_min_cuts(n, arcs)
    assert net.max_flow(0, n - 1) == best
    assert net.source_side() == set.intersection(*sides)
    # a second call finds nothing left to augment
    assert net.max_flow(0, n - 1) == 0


@settings(deadline=None, max_examples=200)
@given(networks(), st.data())
def test_capacity_reset_matches_fresh_network(case, data):
    n, arcs = case
    if not arcs:
        return
    net = build(n, arcs)
    net.max_flow(0, n - 1)
    j = data.draw(st.integers(0, len(arcs) - 1))
    raised = list(arcs)
    u, v, c = raised[j]
    raised[j] = (u, v, c + data.draw(st.integers(1, 10)))
    caps = []
    for _, _, c in raised:
        caps += (c, 0)
    net.cap = caps
    fresh = build(n, raised)
    assert net.max_flow(0, n - 1) == fresh.max_flow(0, n - 1)
    assert net.source_side() == fresh.source_side()


@settings(deadline=None, max_examples=200)
@given(networks())
def test_augments_from_a_feasible_starting_flow(case):
    n, arcs = case
    # a maximum flow of the halved network is feasible for the full one
    half = build(n, [(u, v, c // 2) for u, v, c in arcs])
    start = half.max_flow(0, n - 1)
    net = build(n, arcs)
    caps = []
    for k, (_, _, c) in enumerate(arcs):
        f = half.cap[2 * k + 1]
        caps += (c - f, f)
    net.cap = caps
    best, sides = brute_min_cuts(n, arcs)
    assert start + net.max_flow(0, n - 1) == best
    assert net.source_side() == set.intersection(*sides)


def test_long_path_needs_no_recursion():
    # one augmenting path through 5000 nodes
    n = 5000
    net = MaxFlow(n)
    for v in range(n - 1):
        net.add_edge(v, v + 1, 3 if v % 7 else 5)
    assert net.max_flow(0, n - 1) == 3
    assert net.source_side() == {0, 1}


@st.composite
def mixed_networks(draw):
    """(n, arcs, pairs): directed arcs plus undirected edges (u, v, c), each
    edge one add_edge pair with c in both residual slots."""
    n, arcs = draw(networks())
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 6))
    pairs = [(u, v, c) for u, v, c in draw(st.lists(edge, max_size=12)) if u != v]
    return n, arcs, pairs


def build_mixed(n, arcs, pairs, flows=None):
    """The mixed network carrying ``flows``: one value per arc, then one
    signed value per edge, from u to v. Zero flow by default."""
    net = build(n, arcs + [(u, v, 0) for u, v, _ in pairs])
    flows = flows or [0] * (len(arcs) + len(pairs))
    caps = []
    for (_, _, c), f in zip(arcs, flows):
        caps += (c - f, f)
    for (_, _, c), g in zip(pairs, flows[len(arcs):]):
        caps += (c - g, c + g)
    net.cap = caps
    return net


@settings(deadline=None, max_examples=300)
@given(mixed_networks())
def test_undirected_pairs_match_brute_force_cuts(case):
    n, arcs, pairs = case
    # the brute force sees each undirected edge as two opposite arcs
    directed = arcs + [(u, v, c) for u, v, c in pairs] + [(v, u, c) for u, v, c in pairs]
    best, sides = brute_min_cuts(n, directed)
    net = build_mixed(n, arcs, pairs)
    assert net.max_flow(0, n - 1) == best
    assert net.source_side() == set.intersection(*sides)
    # a maximum flow of the halved network is feasible for the full one
    half = build_mixed(n, [(u, v, c // 2) for u, v, c in arcs],
                       [(u, v, c // 2) for u, v, c in pairs])
    start = half.max_flow(0, n - 1)
    flows = [half.cap[2 * k + 1] for k in range(len(arcs))]
    flows += [c // 2 - half.cap[2 * (len(arcs) + k)] for k, (_, _, c) in enumerate(pairs)]
    net = build_mixed(n, arcs, pairs, flows)
    assert start + net.max_flow(0, n - 1) == best
    assert net.source_side() == set.intersection(*sides)


@settings(deadline=None, max_examples=200)
@given(mixed_networks())
def test_masks_left_after_max_flow_match_an_arc_scan(case):
    n, arcs, pairs = case
    net = build_mixed(n, arcs, pairs)
    net.max_flow(0, n - 1)
    scan = [0] * n
    for ei, c in enumerate(net.cap):
        if c > 0:
            scan[net.to[ei ^ 1]] |= 1 << net.to[ei]
    assert net.res == scan


def test_nodes_outside_the_network_raise():
    net = build(3, [(0, 1, 2), (1, 2, 1)])
    for s, t in [(-1, 2), (0, 3), (3, 0), (0, -3)]:
        with pytest.raises(ValueError, match="outside network"):
            net.max_flow(s, t)
    for u, v in [(-1, 1), (0, 3)]:
        with pytest.raises(ValueError, match="outside network"):
            net.add_edge(u, v, 1)
    assert net.max_flow(0, 2) == 1


def test_source_equal_to_sink_raises():
    net = build(2, [(0, 1, 1)])
    for v in (0, 1):
        with pytest.raises(ValueError, match=f"node {v} is both source and sink"):
            net.max_flow(v, v)


def test_arc_index_chains_every_arc_of_its_node_pair():
    n = 3
    net = build(n, [(0, 1, 2), (1, 1, 5), (1, 0, 1), (1, 1, 4), (0, 1, 3), (2, 1, 1)])
    chains = {}
    for key, a in net.first.items():
        while a is not None:
            chains.setdefault(key, []).append(a)
            a = net.nxt[a]
    pairs = {}
    for ei, v in enumerate(net.to):
        pairs.setdefault(net.to[ei ^ 1] * n + v, []).append(ei)
    assert {k: sorted(c) for k, c in chains.items()} == pairs


@settings(deadline=None, max_examples=200)
@given(networks())
def test_with_arcs_builds_what_add_edge_builds(case):
    n, arcs = case
    pairs = set()
    net, to = MaxFlow(n), []
    for u, v, _ in arcs:
        if (u, v) not in pairs and (v, u) not in pairs:
            pairs.add((u, v))
            net.add_edge(u, v, 0)
            to += (v, u)
    fast = MaxFlow.with_arcs(n, to)
    assert (fast.to, fast.cap, fast.first, fast.nxt) == (net.to, net.cap, net.first, net.nxt)


def test_with_arcs_refuses_a_repeated_pair_or_a_node_outside():
    for to in ([1, 0, 2, 1, 0, 1], [1, 0, 1, 0], [1, 1], [2, 2, 1, 0]):
        with pytest.raises(ValueError, match="same pair of nodes"):
            MaxFlow.with_arcs(3, to)
    with pytest.raises(ValueError, match="must pair up"):
        MaxFlow.with_arcs(3, [1, 0, 2])
    for to, bad in (([1, 0, 3, 1], 3), ([1, -1], -1)):
        with pytest.raises(ValueError, match=f"node {bad} outside network"):
            MaxFlow.with_arcs(3, to)
