"""Exact extremal invariants: gamma minimization, weak saturation numbers,
the all-spanning-supergraphs pattern, and block-replication sequences.

gamma(S) = (m(S) - 1)/|S| where m(S) counts pattern edges meeting S; its
minimum over nonempty S lower-bounds the weak saturation limit. Two
independent solvers are provided: exhaustive branch-and-bound, and a
polynomial Dinkelbach iteration whose inner step is a project-selection
minimum cut, all in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import BudgetExceededError, CapExceededError
from .graphs import Graph, complete_graph, disjoint_union
from .isomorphism import IsoClassRegistry
from .mincut import MaxFlow
from .percolation import is_weakly_saturated


def m_f(g: Graph, s: Iterable[int]) -> int:
    """Number of edges of g with at least one endpoint in s."""
    smask = 0
    for v in set(s):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside graph")
        smask |= 1 << v
    degsum = 0
    internal2 = 0
    v = 0
    m = smask
    while m:
        if m & 1:
            degsum += g.degree(v)
            internal2 += (g.adj_mask(v) & smask).bit_count()
        m >>= 1
        v += 1
    return degsum - internal2 // 2


def gamma_of_set(g: Graph, s: Iterable[int]) -> Fraction:
    s = set(s)
    if not s:
        raise ValueError("gamma is undefined on the empty set")
    return Fraction(m_f(g, s) - 1, len(s))


@dataclass(frozen=True)
class GammaResult:
    """A gamma minimum with a minimizing witness set.

    ``nodes_explored`` is the work count of the method that found it: search
    nodes for ``method="brute"``, and minimum-cut solves for
    ``method="ratio"``.
    """

    value: Fraction
    witness: frozenset[int]
    method: str
    nodes_explored: int = 0

    def as_report(self) -> dict:
        return {
            "invariant": "gamma",
            "value": str(self.value),
            "witness": sorted(self.witness),
            "method": self.method,
            "nodes_explored": self.nodes_explored,
        }


def gamma_min_brute(g: Graph, cap: int = 20) -> GammaResult:
    """Exact minimum of gamma(S) over nonempty S by pruned enumeration.

    Ties broken toward smaller sets, then lexicographically smaller ones.
    """
    n = g.n
    if n == 0:
        raise ValueError("gamma of the empty graph is undefined")
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the brute-force cap {cap}")
    degs = g.degrees
    adj = g._adj
    nodes = 0
    # best = (num, den, size, sorted vertex tuple), compared as a fraction
    # with the tie-break order
    best: list = [None]

    def better(num, den, size, verts) -> bool:
        b = best[0]
        if b is None:
            return True
        cross = num * b[1] - b[0] * den
        if cross != 0:
            return cross < 0
        return (size, verts) < (b[2], b[3])

    def rec(start: int, smask: int, verts: tuple, size: int, m: int):
        nonlocal nodes
        nodes += 1
        if size:
            if better(m - 1, size, size, verts):
                best[0] = (m - 1, size, size, verts)
            if m == 0:
                # extensions either stay edgeless (worse ratio) or jump to
                # nonnegative values; nothing below -1/size is reachable
                return
        if start == n:
            return
        if size and m >= 1:
            b = best[0]
            # every extension keeps numerator >= m-1 and has size <= size+n-start
            if (m - 1) * b[1] > b[0] * (size + n - start):
                return
        for v in range(start, n):
            dm = degs[v] - (adj[v] & smask).bit_count()
            rec(v + 1, smask | 1 << v, verts + (v,), size + 1, m + dm)

    rec(0, 0, (), 0, 0)
    num, den, _, verts = best[0]
    return GammaResult(Fraction(num, den), frozenset(verts), "brute", nodes)


class _SubproblemNetwork:
    """Min over S of b*m(S) - a*|S|, S possibly empty, via project selection.

    Maximizes b*e(T) - a*|T| over complements T = V - S on a source, edge,
    vertex, sink network: source -> edge i with capacity b, edge i -> each
    endpoint with infinite capacity, vertex -> sink with capacity a. The
    arcs are built once; each solve only resets the capacity list. ``solve``
    returns the largest minimizer, the complement of the residual-reachable
    (minimal) source side, so it is the empty set exactly when that is the
    unique optimum. ``forced`` pins one vertex into S (out of T) with an
    infinite sink capacity.
    """

    def __init__(self, edges, n):
        self.edges, self.n = edges, n
        m = len(edges)
        self.net = MaxFlow(m + n + 2)
        # arc layout: edge i owns arcs 6i (from the source), 6i+2 and 6i+4
        # (to its endpoints); vertex v's sink arc is 6m+2v
        for i, (u, v) in enumerate(edges):
            self.net.add_edge(0, 1 + i, 0)
            self.net.add_edge(1 + i, 1 + m + u, 0)
            self.net.add_edge(1 + i, 1 + m + v, 0)
        for v in range(n):
            self.net.add_edge(1 + m + v, 1 + m + n, 0)

    def solve(self, a: int, b: int, forced: int | None = None) -> frozenset[int]:
        edges, n, net = self.edges, self.n, self.net
        m = len(edges)
        inf = (a + b) * (m + n) + 1
        room = [a] * n  # sink capacity left unused by the greedy flow
        if forced is not None:
            room[forced] = inf
        cap = [b, 0, inf, 0, inf, 0] * m + [a, 0] * n
        # greedy flow: each edge node sends its b, in edge order, to the
        # room left at its first endpoint and then at its second
        k = 0
        for u, v in edges:
            ru, rv = room[u], room[v]
            if ru or rv:
                x = b if ru > b else ru
                y = b - x if rv > b - x else rv
                room[u] = ru - x
                room[v] = rv - y
                cap[k:k + 6] = (b - x - y, x + y, inf - x, x, inf - y, y)
            k += 6
        for v in range(n):
            full = inf if v == forced else a
            cap[k] = room[v]
            cap[k + 1] = full - room[v]
            k += 2
        net.cap = cap
        net.max_flow(0, 1 + m + n)
        side = net.source_side(0)
        return frozenset(v for v in range(n) if (1 + m + v) not in side)


def gamma_min_ratio(g: Graph) -> GammaResult:
    """Exact minimum of gamma(S) by Dinkelbach iteration over minimum cuts.

    For a trial ratio lambda = a/b, the subproblem min over nonempty S of
    m(S) - lambda*|S| is solved by a source-edge-vertex-sink cut network
    with capacities scaled to integers by b; lambda descends through
    attained gamma values until the subproblem optimum hits zero.
    """
    n = g.n
    if n == 0:
        raise ValueError("gamma of the empty graph is undefined")
    for v in range(n):
        if g.degree(v) == 0:
            return GammaResult(Fraction(-1), frozenset({v}), "ratio", 0)
    edges = g.sorted_edges()
    lam = Fraction(len(edges) - 1, n)
    witness = frozenset(range(n))
    network = _SubproblemNetwork(edges, n)
    solves = 0

    def solve(lmb: Fraction):
        nonlocal solves
        a, b = lmb.numerator, lmb.denominator
        solves += 1
        s = network.solve(a, b)
        if s:
            return Fraction(m_f(g, s), 1) - lmb * len(s), s
        best_val, best_s = None, None
        for v in range(n):
            solves += 1
            sv = network.solve(a, b, forced=v)
            val = Fraction(m_f(g, sv), 1) - lmb * len(sv)
            if best_val is None or val < best_val:
                best_val, best_s = val, sv
        return best_val, best_s

    while True:
        val, s = solve(lam)
        h = val - 1
        if h >= 0:
            # lam is attained by the current witness and nothing beats it
            return GammaResult(lam, witness, "ratio", solves)
        lam = Fraction(m_f(g, s) - 1, len(s))
        witness = s


# -- the all-spanning-supergraphs pattern -------------------------------------


def build_f_tilde(
    f: Graph,
    clique_pad: int | None = None,
    dedup: bool = False,
    max_nonedges: int = 14,
) -> Graph:
    """Disjoint union of every spanning supergraph of f padded by a clique.

    One component per subset of the padded graph's non-edges, in subset
    order, so the literal pattern has 2^q components. With ``dedup`` one
    representative per isomorphism class is kept; that changes the
    component multiset and is labeled in CLI reports.
    """
    if clique_pad is None:
        clique_pad = f.n + 2
    fp = disjoint_union([f, complete_graph(clique_pad)]) if clique_pad else f
    nonedges = sorted(fp.non_edges())
    q = len(nonedges)
    if q > max_nonedges:
        raise CapExceededError(
            f"{q} non-edges would give 2^{q} components (cap {max_nonedges})"
        )
    base = list(fp.edges)
    comps = []
    for bits in range(1 << q):
        extra = [nonedges[i] for i in range(q) if bits >> i & 1]
        comps.append(Graph(fp.n, base + extra))
    if dedup:
        reg = IsoClassRegistry()
        comps = [c for c in comps if reg.add(c)]
    return disjoint_union(comps)


def lemma23_sequence(
    f: Graph,
    s: Iterable[int],
    i: int,
    clique_size: int | None = None,
) -> Graph:
    """Host graph with i pattern blocks wired to a base clique.

    The base clique K is complete; U inside K stands in for the pattern
    vertices outside s, and each block realizes the pattern minus one fixed
    s-incident edge, with s replaced by fresh vertices. Block j never sees
    block j'. By default K has one more vertex than the full
    all-supergraphs pattern of f, which is what the percolation argument
    needs; a smaller override is allowed for counting experiments.
    """
    s = frozenset(s)
    if not s or not s <= frozenset(range(f.n)):
        raise ValueError("s must be a nonempty vertex subset of f")
    if i < 0:
        raise ValueError("block count must be nonnegative")
    if gamma_of_set(f, s) != gamma_min_ratio(f).value:
        raise ValueError("s is not a gamma-minimizing set of f")
    smask = 0
    for v in s:
        smask |= 1 << v
    f_work = f
    if not any(
        v not in s and g_adj & smask == 0
        for v, g_adj in enumerate(f._adj)
    ):
        pad = f.n + 2
        target = gamma_of_set(f, s)
        while Fraction(pad * (pad - 1) // 2 - 1, pad) <= target:
            pad += 1
        f_work = disjoint_union([f, complete_graph(pad)])
    incident = [e for e in f.sorted_edges() if e[0] in s or e[1] in s]
    if not incident:
        raise ValueError("no edge of f is incident to s")
    estar = incident[0]
    q = sum(1 for _ in f_work.non_edges())
    if clique_size is None:
        clique_size = (1 << q) * f_work.n + 1
    outside = sorted(set(range(f_work.n)) - s)
    if clique_size < len(outside) + 1:
        raise ValueError("clique too small to hold U")
    u_of = {v: idx for idx, v in enumerate(outside)}  # outside vertex -> U slot
    s_sorted = sorted(s)
    s_rank = {v: idx for idx, v in enumerate(s_sorted)}
    edges = [
        (x, y) for x in range(clique_size) for y in range(x + 1, clique_size)
    ]
    block_edges = [
        e for e in f_work.sorted_edges()
        if e != estar and (e[0] in s or e[1] in s)
    ]
    for j in range(i):
        off = clique_size + j * len(s_sorted)

        def loc(v):
            return off + s_rank[v] if v in s else u_of[v]

        edges.extend((loc(x), loc(y)) for x, y in block_edges)
    return Graph(clique_size + i * len(s_sorted), edges)


# -- exact weak saturation numbers --------------------------------------------


@dataclass(frozen=True)
class WsatResult:
    n: int
    value: int
    witness: Graph
    witnesses: tuple[Graph, ...] = field(repr=False, default=())
    nodes_explored: int = 0

    def as_report(self) -> dict:
        from .graphs import graph_to_graph6

        return {
            "invariant": "wsat",
            "n": self.n,
            "value": self.value,
            "witness": graph_to_graph6(self.witness),
            "witness_count": len(self.witnesses),
            "nodes_explored": self.nodes_explored,
        }


def wsat_exact(n: int, f: Graph, budget: int = 2_000_000) -> WsatResult:
    """Minimum edge count of a weakly saturated host on n vertices, with a
    witness, certified by exhausting all smaller edge counts.

    Candidate edge sets are deduplicated up to isomorphism (all hosts live
    on an unlabeled vertex set), and hosts with a non-universal vertex of
    degree below min_degree(f) - 1 are pruned: such a vertex could never
    appear in its first new copy.
    """
    if n < 1:
        raise ValueError("need at least one host vertex")
    if f.n == 0:
        raise ValueError("pattern must have vertices")
    delta = f.min_degree
    pairs = list(itertools.combinations(range(n), 2))
    explored = 0
    for m in range(len(pairs) + 1):
        reg = IsoClassRegistry()
        found: list[Graph] = []
        for combo in itertools.combinations(pairs, m):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"budget {budget} exhausted at {m} edges",
                    partial={"lower_bound": m, "nodes_explored": explored},
                )
            g = Graph(n, combo)
            if any(
                d < delta - 1 and d != n - 1 for d in g.degrees
            ):
                continue
            if not reg.add(g):
                continue
            if is_weakly_saturated(g, f):
                found.append(g)
        if found:
            return WsatResult(n, m, found[0], tuple(found), explored)
    raise AssertionError("unreachable: the complete graph is always saturated")


def replicate_component(
    g: Graph, p0: Iterable[int], owned: Iterable[tuple[int, int]], i: int
) -> Graph:
    """g plus i fresh copies of the part p0 and the edges it owns.

    Owned edges with one end outside p0 attach each copy to the same
    original outside vertex; copies never see each other.
    """
    p0 = sorted(set(p0))
    pset = set(p0)
    if not pset <= set(range(g.n)):
        raise ValueError("p0 must be a vertex subset of g")
    rank = {v: idx for idx, v in enumerate(p0)}
    owned = [tuple(sorted(e)) for e in owned]
    for e in owned:
        if e not in g.edges:
            raise ValueError(f"owned edge {e} is not an edge of g")
        if e[0] not in pset and e[1] not in pset:
            raise ValueError(f"owned edge {e} has no end in p0")
    edges = list(g.edges)
    for j in range(i):
        off = g.n + j * len(p0)
        for u, v in owned:
            nu = off + rank[u] if u in pset else u
            nv = off + rank[v] if v in pset else v
            edges.append((nu, nv))
    return Graph(g.n + i * len(p0), edges)


def w_f_bounds(f: Graph) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on the weak saturation limit of f: the gamma
    lower bound sharpening delta/2 - 1/(delta+1), against delta - 1."""
    delta = f.min_degree
    gamma = gamma_min_ratio(f).value
    lower = max(gamma, Fraction(delta, 2) - Fraction(1, delta + 1))
    return lower, Fraction(delta - 1)
