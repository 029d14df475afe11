"""Exact extremal invariants: gamma minimization, weak saturation numbers,
the all-spanning-supergraphs pattern, and block-replication sequences.

gamma(S) = (m(S) - 1)/|S| where m(S) counts pattern edges meeting S; its
minimum over nonempty S lower-bounds the weak saturation limit. Two
independent solvers are provided: exhaustive branch-and-bound, and a
polynomial Dinkelbach iteration whose inner step is a project-selection
minimum cut, all in exact rational arithmetic. Each cut is taken on a
density network with one node per vertex plus a source and a sink
(Goldberg 1984), at twice the integer scale of the ratio, starting from a
greedy flow that hands each edge's weight to its endpoints in edge order.
A cut that pins one vertex into the set runs on the network of that
vertex's component alone: it is asked only where the empty set is the
unique unpinned optimum, and then every other component's share of the
objective stays uniquely empty, so the whole graph's answer is the
component's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import BudgetExceededError, CapExceededError, ParameterRangeError
from .graphs import (Graph, _bits, _mask, _vertex_subset, complete_graph,
                     disjoint_union, graph_to_graph6)
from .isomorphism import IsoClassRegistry
from .mincut import MaxFlow


def m_f(g: Graph, s: Iterable[int]) -> int:
    """Number of edges of g with at least one endpoint in s."""
    s, smask = _vertex_subset(g, s)
    adj, degs = g._adj, g.degrees
    degsum = internal2 = 0
    for v in s:
        degsum += degs[v]
        internal2 += (adj[v] & smask).bit_count()
    return degsum - internal2 // 2


def gamma_of_set(g: Graph, s: Iterable[int]) -> Fraction:
    s = set(s)
    if not s:
        raise ValueError("gamma is undefined on the empty set")
    return Fraction(m_f(g, s) - 1, len(s))


class GammaResult(NamedTuple):
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
        raise ParameterRangeError("gamma of the empty graph is undefined")
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
    """Min over S of b*m(S) - a*|S|, S possibly empty, by one minimum cut.

    The network is Goldberg's density network on the complement X = V - S:
    nodes s, the n vertices and t; one undirected arc pair of capacity b
    per edge; s -> v of capacity max(w_v, 0) and v -> t of capacity
    max(-w_v, 0), where w_v = b*deg(v) - 2a. As 2(a|X| - b*e(X)) equals b
    times the edges leaving X minus the sum of w_v over X, the cut with
    source side {s} + X costs 2(b*m(S) - a*|S|) plus a constant, so its
    minimum cuts are the minimizers. The arcs are built once; each solve
    only resets the capacity list. ``solve`` returns the largest minimizer,
    the complement of the residual-reachable (minimal) source side, so it
    is the empty set exactly when that is the unique optimum. ``forced``
    pins one vertex into S (out of X): its w is minus infinity, which gives
    it no source arc and an infinite sink arc. A ``forced`` vertex is on the
    sink side of every finite cut, so dropping its source arc takes the same
    amount off each of them.

    The start flow is a greedy one: in edge order, each edge hands its b
    units to the room left at its first endpoint and then at its second,
    every vertex having room a (the forced one unbounded). An edge that
    hands x to u and y to v carries the net shift y - x from u to v, and
    each vertex's two terminal arcs are raised by the least offset c_v >= 0
    that lets them balance what its edges carry. Raising both terminal arcs
    of v by c_v adds c_v to every cut, so the minimum cuts, and the set
    read off, do not change.

    ``solve`` hands ``max_flow`` the residual-neighbour masks of that start
    flow, so the kernel scans no arc to build them. ``__init__`` keeps each
    vertex node's edge neighbours as a node mask (``edges`` are a simple
    graph's, so each pair has one arc pair). A solve copies them, clears
    the direction an edge saturates (g = b from u to v, g = -b back), and
    writes the terminal bits: s -> v and v -> t where the arc has room
    left, v -> s where v's edges send out d > 0, and t -> v where d < 0.
    The solved set is read off the complement of the kernel's final
    reachable mask.
    """

    def __init__(self, edges, n):
        self.edges, self.n = edges, n
        deg = [0] * n
        adj = [0] * (n + 2)  # node 1 + v's edge neighbours, as node bits
        # arc layout: vertex v's source arc is 4v and its sink arc 4v+2;
        # edge i is the arc pair 4n+2i, 4n+2i+1. Each arc's head, then its
        # tail, in the order of MaxFlow.to
        to = []
        for v in range(1, n + 1):
            to += (v, 0, n + 1, v)
        for u, v in edges:
            to += (1 + v, 1 + u)
            deg[u] += 1
            deg[v] += 1
            adj[1 + u] |= 2 << v
            adj[1 + v] |= 2 << u
        self.net = MaxFlow.with_arcs(n + 2, to)
        self.deg, self.adj = deg, adj

    def solve(self, a: int, b: int, forced: int | None = None) -> frozenset[int]:
        edges, n, net = self.edges, self.n, self.net
        if forced is not None and not 0 <= forced < n:
            raise ValueError(f"forced vertex {forced} outside graph")
        # The cut with source side {s} crosses only source arcs, each of
        # capacity w+ + c_v <= 2b*deg(v): w+ <= b*deg(v) as a >= 0, and c_v
        # is at most the net shift, |d| <= b*deg(v). So it costs at most 4bm;
        # a cut through an infinite arc costs more, and no minimum cut has
        # one, even where some sink arc 2a - b*deg(v) is larger than inf.
        inf = 4 * b * len(edges) + 1
        room = [a] * n  # load that each vertex can still take
        w = [b * d - 2 * a for d in self.deg]
        if forced is not None:
            room[forced] = inf
            w[forced] = -inf
        shift = [0] * n  # net flow each vertex sends over its edges
        edge_cap = [b] * (2 * len(edges))
        res = self.adj[:]  # residual-neighbour masks for max_flow
        k = 0
        for u, v in edges:
            ru, rv = room[u], room[v]
            if ru or rv:
                x = b if ru > b else ru
                y = b - x if rv > b - x else rv
                room[u] = ru - x
                room[v] = rv - y
                g = y - x
                shift[u] += g
                shift[v] -= g
                edge_cap[k] = b - g
                edge_cap[k + 1] = b + g
                if g == b:
                    res[1 + u] ^= 2 << v
                elif g == -b:
                    res[1 + v] ^= 2 << u
            k += 2
        # a vertex whose edges send d on balances it with max(d, 0) on its
        # source arc and max(-d, 0) on its sink arc; after the least offset
        # those arcs have max(w - d, 0) and max(d - w, 0) left
        cap = []
        src = snk = 0
        sink = 1 << (n + 1)
        for v, (wv, d) in enumerate(zip(w, shift), 1):
            e = wv - d
            cap += (e if e > 0 else 0, d if d > 0 else 0,
                    -e if e < 0 else 0, -d if d < 0 else 0)
            if e > 0:
                src |= 1 << v
            elif e < 0:
                res[v] |= sink
            if d > 0:
                res[v] |= 1
            elif d < 0:
                snk |= 1 << v
        res[0], res[n + 1] = src, snk
        cap += edge_cap
        net.cap = cap
        net.max_flow(0, n + 1, res)
        # S is the vertices off the residual-reachable side
        return frozenset(_bits(~net.seen >> 1 & ((1 << n) - 1)))


def gamma_min_ratio(g: Graph) -> GammaResult:
    """Exact minimum of gamma(S) by Dinkelbach iteration over minimum cuts.

    For a trial ratio lambda = a/b, the subproblem min over nonempty S of
    m(S) - lambda*|S| is one minimum cut of the source-vertex-sink network
    of ``_SubproblemNetwork``, with integer capacities at scale 2b; when
    the empty set is the unique unforced optimum, one cut per forced
    vertex finds the best nonempty S. lambda descends through attained
    gamma values until the subproblem optimum hits zero.

    Each forced cut runs on the network of the forced vertex's component,
    its vertices relabelled by rank, and the set is mapped back. The
    objective b*m(S) - a*|S| is a sum over components, so when the empty
    set is its unique minimizer, it is also each component's. Forcing v
    then leaves every other component's optimum uniquely empty, and the
    largest minimizer is v's component's forced one: every set, value,
    witness and solve count is that of a forced cut on the whole network.
    A connected graph's one component network is the whole one. The sweep
    keeps vertex order, so ties still go to the first vertex that attains
    the minimum.
    """
    n = g.n
    if n == 0:
        raise ParameterRangeError("gamma of the empty graph is undefined")
    for v in range(n):
        if g.degree(v) == 0:
            return GammaResult(Fraction(-1), frozenset({v}), "ratio", 0)
    edges = g.sorted_edges()
    lam = Fraction(len(edges) - 1, n)
    witness = frozenset(range(n))
    network = _SubproblemNetwork(edges, n)
    comps = g.components()
    comp, rank = [0] * n, [0] * n  # v is vertex rank[v] of comp[v]
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            comp[v], rank[v] = c, i
    if len(comps) == 1:
        nets = [network]
    else:
        # rank keeps the vertex order, so each part stays in edge order
        parts = [[] for _ in comps]
        for u, v in edges:
            parts[comp[u]].append((rank[u], rank[v]))
        nets = [_SubproblemNetwork(p, len(c)) for p, c in zip(parts, comps)]
    solves = 0

    def solve(a: int, b: int):
        """(b*m(S) - a*|S|, S) for a best nonempty S at ratio a/b."""
        nonlocal solves
        solves += 1
        s = network.solve(a, b)
        if s:
            return b * m_f(g, s) - a * len(s), s
        best_val, best_s = None, None
        for v in range(n):
            solves += 1
            c = comp[v]
            sv = frozenset(map(comps[c].__getitem__,
                               nets[c].solve(a, b, forced=rank[v])))
            val = b * m_f(g, sv) - a * len(sv)
            if best_val is None or val < best_val:
                best_val, best_s = val, sv
        return best_val, best_s

    while True:
        val, s = solve(lam.numerator, lam.denominator)
        if val >= lam.denominator:
            # m(S) - lam*|S| >= 1 for every nonempty S: lam is attained by
            # the current witness and nothing beats it
            return GammaResult(lam, witness, "ratio", solves)
        lam = gamma_of_set(g, s)
        witness = s


# -- the all-spanning-supergraphs pattern -------------------------------------


MAX_NONEDGES = 14  # default cap on the q non-edges of F-tilde (2^q components)


def _padded_nonedges(f: Graph, pad: int, cap: int) -> int:
    """Non-edges q of f plus a disjoint K_pad, unbuilt; q > cap raises."""
    q = f.n * (f.n - 1) // 2 - f.num_edges + f.n * pad
    if q > cap:
        raise CapExceededError(f"{q} non-edges would give 2^{q} components (cap {cap})")
    return q


def build_f_tilde(
    f: Graph,
    clique_pad: int | None = None,
    dedup: bool = False,
    max_nonedges: int = MAX_NONEDGES,
) -> Graph:
    """Disjoint union of every spanning supergraph of f padded by a clique.

    One component per subset of the padded graph's non-edges, in subset
    order, so the literal pattern has 2^q components. With ``dedup`` one
    representative per isomorphism class is kept; that changes the
    component multiset and is labeled in CLI reports. A q or pad above
    ``max_nonedges`` raises CapExceededError before anything is built.
    """
    if clique_pad is None:
        clique_pad = f.n + 2
    if clique_pad < 0:
        raise ParameterRangeError("clique_pad must be nonnegative")
    if max_nonedges < 0:
        raise ParameterRangeError("max_nonedges must be nonnegative")
    q = _padded_nonedges(f, clique_pad, max_nonedges)
    # q >= f.n * clique_pad, so this bounds the pad only when f has no vertex
    if clique_pad > max_nonedges:
        raise CapExceededError(f"pad {clique_pad} exceeds the cap {max_nonedges}")
    fp = disjoint_union([f, complete_graph(clique_pad)]) if clique_pad else f
    nonedges = list(fp.non_edges())
    comps = [
        fp.with_edges([nonedges[i] for i in _bits(bits)]) for bits in range(1 << q)
    ]
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
    needs (CapExceededError, before building, if it has more than
    ``MAX_NONEDGES`` non-edges); a smaller override is allowed for
    counting experiments.
    """
    s = frozenset(s)
    if not s or not s <= frozenset(range(f.n)):
        raise ValueError("s must be a nonempty vertex subset of f")
    if i < 0:
        raise ValueError("block count must be nonnegative")
    if gamma_of_set(f, s) != gamma_min_ratio(f).value:
        raise ValueError("s is not a gamma-minimizing set of f")
    smask = _mask(s)
    # f_work, only counted: f plus F-tilde's default pad K_{n+2} unless a vertex
    # outside s misses s. gamma(f) <= (n-1)/2 - 1/n < (n+1)/2 - 1/(n+2),
    # which is gamma(K_{n+2}), so the pad never undercuts f's minimum
    misses = any(v not in s and a & smask == 0 for v, a in enumerate(f._adj))
    pad = 0 if misses else f.n + 2
    incident = [e for e in f.sorted_edges() if e[0] in s or e[1] in s]
    if not incident:
        raise ValueError("no edge of f is incident to s")
    if clique_size is None:
        q = _padded_nonedges(f, pad, MAX_NONEDGES)  # f_work's non-edges
        clique_size = (1 << q) * (f.n + pad) + 1
    outside = sorted(set(range(f.n + pad)) - s)
    if clique_size < len(outside) + 1:
        raise ValueError("clique too small to hold U")
    clique = complete_graph(clique_size)
    if i == 0:
        return clique
    # block 0, without the fixed edge incident[0]: s after K, the rest in U
    loc = {v: idx for idx, v in enumerate(outside)}
    loc.update((v, clique_size + idx) for idx, v in enumerate(sorted(s)))
    block = [(loc[x], loc[y]) for x, y in incident[1:]]
    g = Graph._from_adj(clique._adj + (0,) * len(s)).with_edges(block)
    return replicate_component(g, range(clique_size, g.n), block, i - 1)


# -- exact weak saturation numbers --------------------------------------------


class WsatResult(NamedTuple):
    n: int
    value: int
    # one minimum host per isomorphism class, in the order found
    witnesses: tuple[Graph, ...]
    # one-edge extensions generated (g.with_edge for a class g and a
    # non-edge of g), the unit ``budget`` is counted in
    nodes_explored: int = 0

    @property
    def witness(self) -> Graph:
        return self.witnesses[0]

    def as_report(self) -> dict:
        return {
            "invariant": "wsat",
            "n": self.n,
            "value": self.value,
            "witness": graph_to_graph6(self.witness),
            "witness_count": len(self.witnesses),
            "nodes_explored": self.nodes_explored,
        }


def wsat_exact(n: int, f: Graph, budget: int = 2_000_000) -> WsatResult:
    """Minimum edge count of a weakly saturated host on n vertices, with one
    witness per isomorphism class, certified by exhausting all smaller edge
    counts.

    Hosts are grown one edge at a time, keeping one graph per isomorphism
    class at each edge count: every m-edge graph is an (m-1)-edge graph
    plus an edge, and an isomorphism carries that edge to a non-edge of the
    class representative, so each class turns up. Classes with a
    non-universal vertex of degree below min_degree(f) - 1 are not tested,
    as such a vertex could never appear in its first new copy; they are
    still extended, since a larger host can lift every degree. ``budget``
    caps the one-edge extensions generated.
    """
    if n < 1:
        raise ParameterRangeError("need at least one host vertex")
    if f.n == 0:
        raise ParameterRangeError("pattern must have vertices")
    if budget < 1:
        raise ParameterRangeError("budget must be at least 1")
    # the only use of the percolation layer here, so gamma never loads it
    from .percolation import is_weakly_saturated

    delta = f.min_degree
    level = [Graph(n)]
    explored = 0
    for m in range(n * (n - 1) // 2 + 1):
        found = [
            g for g in level
            if all(d >= delta - 1 or d == n - 1 for d in g.degrees)
            and is_weakly_saturated(g, f)
        ]
        if found:
            return WsatResult(n, m, tuple(found), explored)
        reg = IsoClassRegistry()
        grown: list[Graph] = []
        for g in level:
            for u, v in g.non_edges():
                explored += 1
                if explored > budget:
                    raise BudgetExceededError(
                        f"budget {budget} exhausted growing {m + 1}-edge hosts",
                        partial={"lower_bound": m + 1, "nodes_explored": explored},
                    )
                h = g.with_edge(u, v)
                if reg.add(h):
                    grown.append(h)
        level = grown
    raise AssertionError("unreachable: the complete graph is always saturated")


def replicate_component(
    g: Graph, p0: Iterable[int], owned: Iterable[tuple[int, int]], i: int
) -> Graph:
    """g plus i fresh copies of the part p0 and the edges it owns.

    Owned edges with one end outside p0 attach each copy to the same
    original outside vertex; copies never see each other.
    """
    p0 = sorted(set(p0))
    if p0 and not (0 <= p0[0] and p0[-1] < g.n):
        raise ValueError("p0 must be a vertex subset of g")
    if i < 0:
        raise ValueError("block count must be nonnegative")
    rank = {v: idx for idx, v in enumerate(p0)}
    owned = [tuple(sorted(e)) for e in owned]
    for e in owned:
        if len(e) != 2 or not (0 <= e[0] and e[1] < g.n and g.has_edge(*e)):
            raise ValueError(f"owned edge {e} is not an edge of g")
        if e[0] not in rank and e[1] not in rank:
            raise ValueError(f"owned edge {e} has no end in p0")
    size = len(p0)
    # copy j of a vertex x of p0 is g.n + j * size + rank[x]
    return Graph._from_adj(g._adj + (0,) * (i * size)).with_edges(
        tuple(g.n + j * size + rank[x] if x in rank else x for x in e)
        for j in range(i)
        for e in owned
    )


def w_f_bounds(f: Graph) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on the weak saturation limit of f: the gamma
    lower bound sharpening delta/2 - 1/(delta+1), against delta - 1."""
    delta = f.min_degree
    gamma = gamma_min_ratio(f).value
    lower = max(gamma, Fraction(delta, 2) - Fraction(1, delta + 1))
    return lower, Fraction(delta - 1)
