import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from wsatlab.constructions import (
    build_delta3,
    build_delta4,
    counterexample_15_7,
    solve_params,
)
from wsatlab.errors import BudgetExceededError, CapExceededError
from wsatlab.extremal import (
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


def test_gamma_ratio_matches_cold_network_oracle():
    for g in oracle_cases():
        res = gamma_min_ratio(g)
        assert (res.value, res.witness, res.nodes_explored) == gamma_min_ratio_cold(g)


def test_f_tilde_examples():
    assert build_f_tilde(complete_graph(3), clique_pad=0) == complete_graph(3)
    ft = build_f_tilde(path_graph(3), clique_pad=0)
    assert ft.n == 6 and ft.num_edges == 5
    assert gamma_min_ratio(build_f_tilde(cycle_graph(4), clique_pad=0)).value == Fraction(3, 4)
    with pytest.raises(CapExceededError):
        build_f_tilde(cycle_graph(4))  # default pad blows past the cap


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
    # (s-2)n - C(s-1,2) for s in {3,4} and s <= n <= s+3; the five largest
    # pairs run in the acceptance suite, the corners here
    for s, n in [(3, 3), (3, 4), (4, 4), (4, 7)]:
        expect = (s - 2) * n - (s - 1) * (s - 2) // 2
        assert wsat_exact(n, complete_graph(s), budget=3_000_000).value == expect


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
