"""Integer max-flow (Dinic on residual-neighbour bitmasks) for the exact
ratio solver.

Capacities are Python ints, so flows and cut values are exact. ``cap``
holds the residual capacity of every arc: the i-th ``add_edge`` call makes
arc 2i, and ``cap[2i]`` and ``cap[2i + 1]`` are the residuals of the arc
and of its reverse. A caller may overwrite ``cap`` with the residual of any
feasible flow, for instance to re-solve with other capacities on the same
arcs or to start from a greedy flow, and ``max_flow`` augments it to a
maximum one.

One ``add_edge`` pair may also stand for an undirected edge of capacity c,
which carries up to c units either way: write c into both residual slots,
or c - g and c + g for a flow g already on the edge from u to v
(|g| <= c). A cut then pays c for the edge whichever way it crosses.

The search never scans arcs. ``res[u]`` is a node bitmask with bit v set
exactly when some arc u -> v has positive residual; ``max_flow`` builds it
from ``cap`` in one pass, or takes it from a caller who already knows it.
Each phase's breadth-first search ORs its frontier's masks, drops the seen
nodes, and stops at the layer that reaches t, which it keeps as t alone:
layer d + 1 is every node first reached in d + 1 steps. The blocking-flow
walk steps from u at depth d to the lowest node of ``res[u] & layer[d+1]``
and finds a live arc to it through a flat index built once per network:
``first`` maps the node pair (u, v) to the last arc added from u to v, and
``nxt`` links each arc to the previous one between the same pair
(``with_arcs`` fills both in one pass where no pair repeats). A dead
end leaves its layer. An augmentation moves bits only where an arc
saturates (its pair's bit clears if no parallel arc is left) or where a
reverse arc reopens from zero.

Cuts do not depend on which maximum flow is found. The last search, which
misses t, leaves ``seen`` as the nodes reachable from the source in the
residual graph, and ``source_side`` returns them. Take any maximum flow f
and any minimum cut (A, B). By max-flow min-cut, f saturates every arc from
A to B and carries nothing from B to A, so no residual arc leaves A, and
the residual-reachable set R of f lies in A. R is itself a minimum cut: no
residual arc leaves it, so f saturates every arc out of R and its value is
the cut's capacity. So R is the intersection of all minimum-cut source
sets, the unique minimal minimum cut, for every maximum flow f. The
starting flow, the masks and the augmenting order never change a cut that
callers read off.
"""

from __future__ import annotations

from .graphs import _bits


class MaxFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.first: dict[int, int] = {}  # u * n + v -> last arc from u to v
        # the arc added before it on that pair, or None: a mask bit with no
        # live arc behind it then fails loudly instead of reading cap[-1]
        self.nxt: list[int | None] = []
        self.res: list[int] = []
        self.seen = 0

    def _node(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"node {v} outside network")
        return v

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        n, first, nxt, ei = self.n, self.first, self.nxt, len(self.to)
        if not (0 <= u < n and 0 <= v < n):  # raise, naming the bad node
            self._node(u)
            self._node(v)
        fwd, back = u * n + v, v * n + u
        self.to += (v, u)
        self.cap += (capacity, 0)
        # one key at a time, so a loop u -> u keeps both arcs on its chain
        nxt.append(first.get(fwd))
        first[fwd] = ei
        nxt.append(first.get(back))
        first[back] = ei + 1

    @classmethod
    def with_arcs(cls, num_nodes: int, to: list[int]) -> "MaxFlow":
        """A network with arc 2i from to[2i + 1] to to[2i], for each i, at
        zero capacity: what those ``add_edge`` calls build, indexed in one
        pass, for arcs that join distinct node pairs. A pair joined twice,
        either way round, or a node outside raises ValueError."""
        if len(to) % 2:
            raise ValueError("arc heads and tails must pair up")
        net = cls(num_nodes)
        n, first = num_nodes, net.first
        pairs = iter(to)
        ei = 0
        for v, u in zip(pairs, pairs):
            first[u * n + v] = ei
            first[v * n + u] = ei + 1
            ei += 2
        if len(first) < ei:
            raise ValueError("two arcs join the same pair of nodes")
        if to:  # raise, naming the lowest or highest bad node
            net._node(min(to))
            net._node(max(to))
        net.to, net.cap, net.nxt = to, [0] * ei, [None] * ei
        return net

    def max_flow(self, s: int, t: int, res: list[int] | None = None) -> int:
        """Augment the current flow to a maximum one; return the flow added.

        ``res``, when given, must be the residual-neighbour masks of ``cap``;
        it is updated in place and left as ``self.res``.
        """
        if self._node(s) == self._node(t):
            raise ValueError(f"node {s} is both source and sink")
        to, cap, n, first, nxt = self.to, self.cap, self.n, self.first, self.nxt
        if res is None:
            res = [0] * n
            for ei, c in enumerate(cap):
                if c:
                    res[to[ei ^ 1]] |= 1 << to[ei]
        self.res = res
        tbit = 1 << t
        flow = 0
        while True:
            seen = 1 << s
            layers = [seen]
            frontier = seen
            while True:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= res[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~seen
                if not frontier or frontier & tbit:
                    break
                seen |= frontier
                layers.append(frontier)
            if not frontier:
                self.seen = seen
                return flow
            layers.append(tbit)
            # blocking flow: walk forward along layer arcs from s, keeping
            # the path's arcs on a stack, and step back past dead ends
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[ei] for ei in path)
                    for ei in path:
                        c = cap[ei] - pushed
                        cap[ei] = c
                        v, w = to[ei ^ 1], to[ei]
                        if not c:
                            # the pair v -> w loses its bit unless a
                            # parallel arc still has room
                            a = first[v * n + w]
                            while a is not None and not cap[a]:
                                a = nxt[a]
                            if a is None:
                                res[v] ^= 1 << w
                        if not cap[ei ^ 1]:
                            res[w] |= 1 << v
                        cap[ei ^ 1] += pushed
                    flow += pushed
                    # resume from the tail of the first saturated arc
                    k = next(k for k, ei in enumerate(path) if not cap[ei])
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                cand = res[u] & layers[len(path) + 1]
                if cand:
                    v = (cand & -cand).bit_length() - 1
                    ei = first[u * n + v]
                    while not cap[ei]:
                        ei = nxt[ei]
                    path.append(ei)
                    u = v
                elif path:
                    # u is a dead end for this phase: take it off its layer
                    # and step back past the arc that led here
                    layers[len(path)] ^= 1 << u
                    u = to[path.pop() ^ 1]
                else:
                    break

    def source_side(self) -> set[int]:
        """Nodes reachable from s in the residual graph of the last
        ``max_flow(s, t)``: the minimal min cut."""
        return set(_bits(self.seen))
