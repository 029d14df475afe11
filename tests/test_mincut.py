import itertools

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
    assert net.source_side(0) == set.intersection(*sides)
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
    assert net.source_side(0) == fresh.source_side(0)


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
    assert net.source_side(0) == set.intersection(*sides)


def test_long_path_needs_no_recursion():
    # one augmenting path through 5000 nodes
    n = 5000
    net = MaxFlow(n)
    for v in range(n - 1):
        net.add_edge(v, v + 1, 3 if v % 7 else 5)
    assert net.max_flow(0, n - 1) == 3
    assert net.source_side(0) == {0, 1}
