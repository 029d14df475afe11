import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wsatlab.constructions import (
    build_delta3,
    build_delta4,
    counterexample_15_7,
    solve_params,
)
from wsatlab.errors import BudgetExceededError, CapExceededError, ParameterRangeError
from wsatlab.extremal import (
    _SubproblemNetwork,
    build_f_tilde,
    gamma_min_brute,
    gamma_min_ratio,
    gamma_of_set,
    lemma23_sequence,
    m_f,
    replicate_component,
    w_f_bounds,
    wsat_exact,
)
from wsatlab.graphs import (
    Graph,
    circulant,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from wsatlab.isomorphism import are_isomorphic
from wsatlab.mincut import MaxFlow
from wsatlab.percolation import is_weakly_saturated


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def gamma_enumerate(g):
    """Plain full-enumeration oracle, no pruning."""
    best = None
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            val = Fraction(m_f(g, s) - 1, k)
            if best is None or val < best:
                best = val
    return best


def test_m_f():
    k4 = complete_graph(4)
    assert m_f(k4, {0}) == 3
    assert m_f(k4, range(4)) == 6
    h = circulant(7, {1, 2}).with_edge(0, 3)
    assert m_f(h, range(7)) == 15
    with pytest.raises(ValueError):
        m_f(k4, {9})
    with pytest.raises(ValueError, match="^vertex -1 outside graph$"):
        m_f(k4, {-1})


def test_gamma_brute_examples():
    assert gamma_min_brute(complete_graph(4)).value == Fraction(5, 4)
    assert gamma_min_brute(complete_graph(5)).value == Fraction(9, 5)
    assert gamma_min_brute(circulant(8, {1, 4})).value == Fraction(3, 2) - Fraction(1, 8)


def test_gamma_brute_tiebreak():
    g = disjoint_union([path_graph(2), path_graph(2)])
    res = gamma_min_brute(g)
    assert res.value == 0
    assert res.witness == frozenset({0}), "smallest set, then lexicographic"


def test_gamma_brute_cap():
    with pytest.raises(CapExceededError):
        gamma_min_brute(complete_graph(6), cap=5)


def test_gamma_ratio_examples():
    res = gamma_min_ratio(complete_graph(4))
    assert res.value == Fraction(5, 4)
    assert gamma_of_set(complete_graph(4), res.witness) == res.value
    assert gamma_min_ratio(Graph(1)).value == -1
    assert gamma_min_ratio(cycle_graph(4)).value == Fraction(3, 4)
    with pytest.raises(ValueError):
        gamma_min_ratio(Graph(0))


def test_gamma_solvers_agree_small():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 11)
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        rb = gamma_min_brute(g)
        rr = gamma_min_ratio(g)
        assert rb.value == rr.value == gamma_enumerate(g)
        assert gamma_of_set(g, rr.witness) == rr.value
        assert gamma_of_set(g, rb.witness) == rb.value


def test_dinkelbach_certificate():
    rng = random.Random(13)
    for _ in range(20):
        g = rand_graph(rng, rng.randint(2, 9), 0.5)
        res = gamma_min_ratio(g)
        lam = res.value
        vals = [
            Fraction(m_f(g, s) - 1, k) - lam
            for k in range(1, g.n + 1)
            for s in itertools.combinations(range(g.n), k)
        ]
        assert min(vals) == 0
        assert gamma_of_set(g, res.witness) == lam


class RecursiveMaxFlow:
    """The earlier recursive Dinic, kept as the oracle for gamma_min_ratio."""

    def __init__(self, num_nodes):
        self.n = num_nodes
        self.head = [[] for _ in range(num_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, capacity):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s, t):
        while True:
            level = [-1] * self.n
            level[s] = 0
            dq = deque([s])
            while dq:
                u = dq.popleft()
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        dq.append(v)
            if level[t] < 0:
                return
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    ei = self.head[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[ei]))
                        if got > 0:
                            self.cap[ei] -= got
                            self.cap[ei ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while dfs(s, 1 << 200):
                pass

    def source_side(self, s):
        seen = {s}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for ei in self.head[u]:
                v = self.to[ei]
                if self.cap[ei] > 0 and v not in seen:
                    seen.add(v)
                    dq.append(v)
        return seen


def cold_subproblem(edges, n, a, b, forced=None):
    """Largest minimizer of b*m(S) - a*|S| on a network built from scratch."""
    m = len(edges)
    src, snk = 0, 1 + m + n
    inf = (a + b) * (m + n) + 1
    net = RecursiveMaxFlow(m + n + 2)
    for i, (u, v) in enumerate(edges):
        net.add_edge(src, 1 + i, b)
        net.add_edge(1 + i, 1 + m + u, inf)
        net.add_edge(1 + i, 1 + m + v, inf)
    for v in range(n):
        net.add_edge(1 + m + v, snk, inf if v == forced else a)
    net.max_flow(src, snk)
    side = net.source_side(src)
    return frozenset(v for v in range(n) if (1 + m + v) not in side)


def gamma_min_ratio_cold(g):
    """gamma_min_ratio with one cold network per solve: (value, witness, solves)."""
    n = g.n
    for v in range(n):
        if g.degree(v) == 0:
            return Fraction(-1), frozenset({v}), 0
    edges = g.sorted_edges()
    lam = Fraction(len(edges) - 1, n)
    witness = frozenset(range(n))
    solves = 0
    while True:
        a, b = lam.numerator, lam.denominator
        solves += 1
        s = cold_subproblem(edges, n, a, b)
        if s:
            val = m_f(g, s) - lam * len(s)
        else:
            val = None
            for v in range(n):
                solves += 1
                sv = cold_subproblem(edges, n, a, b, forced=v)
                vv = m_f(g, sv) - lam * len(sv)
                if val is None or vv < val:
                    val, s = vv, sv
        if val - 1 >= 0:
            return lam, witness, solves
        lam = Fraction(m_f(g, s) - 1, len(s))
        witness = s


def oracle_cases():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 14)
        yield rand_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.75]))
    for ratio in (Fraction(3, 2), Fraction(8, 5), Fraction(7, 4)):
        yield build_delta3(solve_params(3, ratio)).graph
    for ratio in (Fraction(2), Fraction(7, 3), Fraction(5, 2)):
        yield build_delta4(solve_params(4, ratio)).graph
    for big in (7, 20):
        yield counterexample_15_7(clique_big=big).graph
    # long residual paths
    yield path_graph(60)
    yield Graph(60, [(rng.randrange(v), v) for v in range(1, 60)])
    # shapes where the greedy start leaves long detours or lopsided loads
    yield cycle_graph(41)
    yield star_graph(25)
    yield disjoint_union([complete_graph(6), path_graph(15)])
    yield build_f_tilde(cycle_graph(5), clique_pad=0)


def test_gamma_ratio_matches_cold_network_oracle():
    for g in oracle_cases():
        res = gamma_min_ratio(g)
        assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


@st.composite
def subproblem_instances(draw):
    """(edges, n, queries): a graph on at most 12 vertices, its edges in any
    order and orientation, and solve(a, b, forced) arguments."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    ratio = st.integers(1, 20).flatmap(lambda b: st.tuples(st.integers(0, 13 * b), st.just(b)))
    forced = st.none() | st.integers(0, n - 1)
    queries = draw(st.lists(st.tuples(ratio, forced), min_size=1, max_size=6))
    return edges, n, queries


@settings(deadline=None, max_examples=300)
@given(subproblem_instances())
def test_subproblem_network_matches_cold_oracle(case):
    edges, n, queries = case
    # one network answers every query in turn, so left-over state would show
    net = _SubproblemNetwork(edges, n)
    for (a, b), forced in queries:
        assert net.solve(a, b, forced) == cold_subproblem(edges, n, a, b, forced)


def test_forced_vertex_is_never_on_the_source_side():
    # vertex 5 is isolated; at a = 1000, b = 1 the unforced sink arcs
    # 2a - b*deg(v) are far larger than the forced vertex's infinite one
    g = disjoint_union([complete_graph(5), Graph(1), path_graph(4)])
    edges = g.sorted_edges()
    net = _SubproblemNetwork(edges, g.n)
    for a, b in [(0, 1), (1, 3), (7, 4), (9, 2), (1000, 1), (3, 1000)]:
        for v in range(g.n):
            s = net.solve(a, b, forced=v)
            assert v in s
            assert s == cold_subproblem(edges, g.n, a, b, forced=v)


def scanned_masks(net):
    """Bit v of mask u iff some arc u -> v of ``net`` has positive residual."""
    res = [0] * net.n
    for ei, c in enumerate(net.cap):
        if c > 0:
            res[net.to[ei ^ 1]] |= 1 << net.to[ei]
    return res


@settings(deadline=None, max_examples=200)
@given(subproblem_instances())
def test_subproblem_masks_match_an_arc_scan(case):
    edges, n, queries = case
    net = _SubproblemNetwork(edges, n)
    flow = net.net
    calls = []
    kernel = flow.max_flow

    def checked(s, t, res):
        calls.append(res == scanned_masks(flow))
        out = kernel(s, t, res)
        calls.append(flow.res == scanned_masks(flow))
        return out

    flow.max_flow = checked
    for (a, b), forced in queries:
        net.solve(a, b, forced)
    assert calls == [True] * (2 * len(queries))


def test_forced_vertex_outside_the_graph_raises():
    net = _SubproblemNetwork([(0, 1), (1, 2)], 3)
    for forced in (-1, 3, -4):
        with pytest.raises(ValueError, match=f"forced vertex {forced} outside graph"):
            net.solve(1, 1, forced)


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 24), st.sampled_from([0.5, 0.75, 0.9]), st.randoms(use_true_random=False))
def test_gamma_ratio_matches_cold_oracle_on_dense_graphs(n, p, rng):
    g = rand_graph(rng, n, p)
    res = gamma_min_ratio(g)
    assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


DELTA4_5_2 = build_delta4(solve_params(4, Fraction(5, 2))).graph


@settings(deadline=None, max_examples=5)
@given(st.permutations(range(DELTA4_5_2.n)))
def test_gamma_ratio_matches_cold_oracle_on_relabelled_delta4(perm):
    g = relabel(DELTA4_5_2, perm)
    res = gamma_min_ratio(g)
    assert res.value == Fraction(5, 2)
    assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


@st.composite
def connected_graphs(draw, max_n=10):
    """A connected graph on 2 to max_n vertices: a random tree plus edges."""
    n = draw(st.integers(2, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, tree + draw(st.lists(st.sampled_from(pairs), unique=True)))


@st.composite
def scattered_unions(draw):
    """A disjoint union of 2 to 4 connected graphs, sometimes led by two
    copies of one graph, relabelled so that no component is a contiguous
    range of labels."""
    parts = draw(st.lists(connected_graphs(), min_size=2, max_size=4))
    if draw(st.booleans()):
        parts[1] = parts[0]
    g = disjoint_union(parts)
    perm = draw(st.permutations(range(g.n)))
    g = relabel(g, perm)
    for comp in g.components():
        assume(comp[-1] - comp[0] >= len(comp))
    return g


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scattered_unions())
def test_gamma_ratio_matches_cold_oracle_on_scattered_unions(g):
    res = gamma_min_ratio(g)
    assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


def test_gamma_ratio_breaks_ties_between_scattered_copies():
    # two interleaved copies of one graph attain the same values; the sweep
    # keeps the first vertex in label order that attains its minimum, which
    # here lies in the copy on labels 0, 2, 5, 7, 8
    part = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    perm = [1, 3, 4, 6, 9, 0, 2, 5, 7, 8]
    g = relabel(disjoint_union([part, part]), perm)
    res = gamma_min_ratio(g)
    assert res.witness == frozenset({0, 2, 5, 7, 8})
    assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


@settings(deadline=None, max_examples=100)
@given(scattered_unions(), st.lists(st.integers(1, 12).flatmap(
    lambda b: st.tuples(st.integers(0, 4 * b), st.just(b))), max_size=4))
def test_component_forced_solves_match_the_whole_network(g, ratios):
    # wherever the whole network's unforced optimum is the empty set alone,
    # forcing v moves only v's component; the gamma minimum is always such
    # a ratio, as every nonempty S has m(S) - gamma*|S| >= 1
    edges = g.sorted_edges()
    whole = _SubproblemNetwork(edges, g.n)
    gamma = gamma_min_ratio(g).value
    ratios = [(gamma.numerator, gamma.denominator)] + ratios
    for comp in g.components():
        rank = {v: i for i, v in enumerate(comp)}
        local = _SubproblemNetwork(
            [(rank[u], rank[v]) for u, v in edges if u in rank], len(comp))
        for a, b in ratios:
            if whole.solve(a, b):
                continue
            for v in comp:
                s = frozenset(comp[i] for i in local.solve(a, b, forced=rank[v]))
                assert s == whole.solve(a, b, forced=v)


def test_each_counted_solve_is_one_max_flow_call(monkeypatch):
    calls = []
    kernel = MaxFlow.max_flow

    def counted(self, *args):
        calls.append(self)
        return kernel(self, *args)

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    rng = random.Random(7)
    perm = list(range(DELTA4_5_2.n))
    rng.shuffle(perm)
    cases = [(build_f_tilde(cycle_graph(5), clique_pad=0), 164),
             (counterexample_15_7().graph, 117),
             (relabel(DELTA4_5_2, perm), 56)]
    for g, solves in cases:
        calls.clear()
        assert gamma_min_ratio(g).nodes_explored == solves
        assert len(calls) == solves


def test_f_tilde_examples():
    assert build_f_tilde(complete_graph(3), clique_pad=0) == complete_graph(3)
    ft = build_f_tilde(path_graph(3), clique_pad=0)
    assert ft.n == 6 and ft.num_edges == 5
    assert gamma_min_ratio(build_f_tilde(cycle_graph(4), clique_pad=0)).value == Fraction(3, 4)
    with pytest.raises(CapExceededError):
        build_f_tilde(cycle_graph(4))  # default pad blows past the cap
    # a pattern with no vertex has no non-edge, so only the pad bounds it
    assert build_f_tilde(Graph(0), clique_pad=14) == complete_graph(14)


def test_f_tilde_checks_the_cap_before_building(monkeypatch):
    from wsatlab import extremal

    def refuse(*args):
        raise AssertionError("built a graph for an over-cap input")

    monkeypatch.setattr(extremal, "disjoint_union", refuse)
    monkeypatch.setattr(extremal, "complete_graph", refuse)
    # C4 has 2 non-edges, and each of its 4 vertices misses the whole pad
    with pytest.raises(CapExceededError) as exc:
        build_f_tilde(cycle_graph(4), clique_pad=10**6)
    assert str(exc.value) == (
        "4000002 non-edges would give 2^4000002 components (cap 14)"
    )
    # q is 0 for a pattern with no vertex, whatever the pad
    with pytest.raises(CapExceededError) as exc:
        build_f_tilde(Graph(0), clique_pad=15)
    assert str(exc.value) == "pad 15 exceeds the cap 14"
    # lemma23_sequence's default clique has one vertex more than its F-tilde:
    # all of C4 is a gamma minimizer, so that F-tilde pads C4 with K6, and
    # its 26 non-edges would ask for a clique on 2^26 * 10 + 1 vertices
    c4 = cycle_graph(4)
    assert gamma_of_set(c4, range(4)) == gamma_min_ratio(c4).value == Fraction(3, 4)
    for i in (0, 1):
        with pytest.raises(CapExceededError) as exc:
            lemma23_sequence(c4, range(4), i)
        assert str(exc.value) == "26 non-edges would give 2^26 components (cap 14)"


def test_f_tilde_dedup_is_smaller():
    lit = build_f_tilde(cycle_graph(4), clique_pad=0)
    dd = build_f_tilde(cycle_graph(4), clique_pad=0, dedup=True)
    assert lit.n == 16  # C4, two diagonal supergraphs, K4
    assert dd.n == 12  # the two one-chord supergraphs are isomorphic


def test_lemma23_shapes():
    p3 = path_graph(3)
    g0 = lemma23_sequence(p3, {0}, 0)
    assert g0.n == 7 and g0.is_complete()
    sizes = [lemma23_sequence(p3, {0}, i).num_edges for i in range(4)]
    for i in range(2, 4):
        assert sizes[i] - sizes[i - 1] == m_f(p3, {0}) - 1


def test_lemma23_block_arithmetic_nontrivial():
    f = disjoint_union([cycle_graph(4), complete_graph(4)])
    sizes = [
        lemma23_sequence(f, {0, 1, 2, 3}, i, clique_size=12).num_edges
        for i in range(4)
    ]
    for i in range(2, 4):
        assert sizes[i] - sizes[i - 1] == m_f(f, {0, 1, 2, 3}) - 1 == 3


def test_lemma23_padding_branch():
    # gamma-minimizer covers the whole pattern, so a clique pad is added
    f = cycle_graph(4)
    g1 = lemma23_sequence(f, {0, 1, 2, 3}, 1, clique_size=30)
    assert g1.n == 34


def test_lemma23_errors():
    with pytest.raises(ValueError):
        lemma23_sequence(path_graph(3), {1}, 1)  # middle vertex: gamma 1 > 0
    f = disjoint_union([Graph(2, [(0, 1)]), Graph(1)])
    with pytest.raises(ValueError):
        lemma23_sequence(f, {2}, 1)  # no edge incident to the isolated min set


def brute_wsat(n, pattern):
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, m):
            if is_weakly_saturated(Graph(n, combo), pattern):
                return m
    raise AssertionError


def test_wsat_small_against_unpruned_search():
    assert wsat_exact(4, complete_graph(3)).value == brute_wsat(4, complete_graph(3))
    assert wsat_exact(4, path_graph(3)).value == brute_wsat(4, path_graph(3))
    assert wsat_exact(4, cycle_graph(4)).value == brute_wsat(4, cycle_graph(4))


def test_wsat_k2():
    res = wsat_exact(5, Graph(2, [(0, 1)]))
    assert res.value == 0


def test_wsat_clique_formula_full_range():
    # Lovasz: wsat(n, K_s) = (s-2)n - C(s-1,2)
    cases = [(s, n) for s in (3, 4) for n in range(s, 9)]
    cases += [(5, n) for n in range(5, 8)]
    for s, n in cases:
        expect = (s - 2) * n - (s - 1) * (s - 2) // 2
        assert wsat_exact(n, complete_graph(s)).value == expect, (s, n)


@pytest.mark.parametrize(
    "pattern,value,classes",
    [
        (cycle_graph(4), 7, 23),
        (complete_graph(4).without_edge(0, 1), 7, 27),
        (complete_graph(4), 11, 62),
    ],
)
def test_wsat_n7_witness_classes(pattern, value, classes):
    # measured with the labelled-subset search (tests/test_wsat_oracle.py)
    res = wsat_exact(7, pattern)
    assert (res.value, len(res.witnesses)) == (value, classes)


def test_wsat_witness_is_certified():
    res = wsat_exact(5, complete_graph(3))
    assert res.value == 4
    for w in res.witnesses:
        assert w.num_edges == 4
        assert is_weakly_saturated(w, complete_graph(3))
    reps = list(res.witnesses)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not are_isomorphic(a, b)


def test_wsat_budget():
    with pytest.raises(BudgetExceededError) as ei:
        wsat_exact(6, complete_graph(3), budget=10)
    assert ei.value.partial["nodes_explored"] == 11


def test_wsat_budget_lower_bound_never_exceeds_value():
    k3 = complete_graph(3)
    full = wsat_exact(6, k3)
    assert full.value == 5
    bounds = []
    for budget in range(1, full.nodes_explored):
        with pytest.raises(BudgetExceededError) as ei:
            wsat_exact(6, k3, budget=budget)
        assert ei.value.partial["nodes_explored"] == budget + 1
        bounds.append(ei.value.partial["lower_bound"])
    assert bounds == sorted(bounds) and bounds[-1] == full.value
    assert wsat_exact(6, k3, budget=full.nodes_explored) == full


def test_gamma_slack_logged_not_asserted():
    # the gamma lower bound holds asymptotically; at finite n only the
    # observed additive slack is recorded
    k3 = complete_graph(3)
    gamma = gamma_min_ratio(k3).value
    for n in (4, 5, 6):
        value = wsat_exact(n, k3).value
        slack = max(Fraction(0), gamma * n - value)
        assert Fraction(value, n) >= gamma - slack / n
        assert slack < 1


def test_replicate_component():
    g = star_graph(5)
    assert replicate_component(g, [1, 2], [(0, 1), (0, 2)], 0) == g
    r3 = replicate_component(g, [1, 2], [(0, 1), (0, 2)], 3)
    assert r3.n == 5 + 6 and r3.num_edges == 4 + 6
    with pytest.raises(ValueError):
        replicate_component(g, [1, 2], [(3, 4)], 1)
    with pytest.raises(ValueError):
        replicate_component(g, [1, 2], [(1, 2)], 1)  # not an edge of g
    for p0, owned in [([1, 2], [(0, 1), (0, 2)]), ([], [])]:
        with pytest.raises(ValueError, match="^block count must be nonnegative$"):
            replicate_component(g, p0, owned, -1)


def test_replicate_density_limit():
    g = star_graph(5)
    p0, owned = [1, 2], [(0, 1), (0, 2)]
    # e(G_i)*|p0| - |owned|*n(G_i) is constant in i, so the density ratio
    # converges to |owned|/|p0| exactly
    base = replicate_component(g, p0, owned, 0)
    c = base.num_edges * len(p0) - len(owned) * base.n
    for i in (1, 5, 20):
        gi = replicate_component(g, p0, owned, i)
        assert gi.num_edges * len(p0) - len(owned) * gi.n == c
        assert abs(Fraction(gi.num_edges, gi.n) - Fraction(len(owned), len(p0))) == Fraction(abs(c), len(p0) * gi.n)


def test_w_f_bounds():
    lo, hi = w_f_bounds(complete_graph(4))
    assert lo == Fraction(5, 4) and hi == 2
    lo, hi = w_f_bounds(Graph(2, [(0, 1)]))
    assert lo == 0 and hi == 0


def test_out_of_range_arguments_raise_parameter_range_error():
    for call in (
        lambda: gamma_min_brute(Graph(0)),
        lambda: gamma_min_ratio(Graph(0)),
        lambda: wsat_exact(0, complete_graph(3)),
        lambda: wsat_exact(3, Graph(0)),
        lambda: wsat_exact(3, complete_graph(3), budget=0),
        lambda: wsat_exact(3, complete_graph(3), budget=-1),
        lambda: build_f_tilde(cycle_graph(4), clique_pad=-1),
    ):
        with pytest.raises(ParameterRangeError):
            call()
