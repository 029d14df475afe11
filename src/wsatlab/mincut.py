"""Integer max-flow (Dinic) for the exact ratio solver.

Capacities are Python ints, so flows and cut values are exact. ``cap``
holds the residual capacity of every arc: the i-th ``add_edge`` call makes
arc 2i, and ``cap[2i]`` and ``cap[2i + 1]`` are the residuals of the arc
and of its reverse. A caller may overwrite ``cap`` with the residual of any
feasible flow, for instance to re-solve with other capacities on the same
arcs or to start from a greedy flow, and ``max_flow`` augments it to a
maximum one.

Cuts do not depend on which maximum flow is found: ``source_side`` returns
the nodes reachable from the source in the residual graph, which is the
source side of the unique minimal minimum cut (the intersection of all
minimum-cut source sets) for every maximum flow. So the starting flow and
the augmenting order never change a cut that callers read off.
"""

from __future__ import annotations


class MaxFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        """Augment the current flow to a maximum one; return the flow added."""
        head, to, cap, n = self.head, self.to, self.cap, self.n
        flow = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                lv = level[u] + 1
                for ei in head[u]:
                    v = to[ei]
                    if cap[ei] > 0 and level[v] < 0:
                        level[v] = lv
                        queue.append(v)
            if level[t] < 0:
                return flow
            # blocking flow: walk forward along level arcs from s, keeping
            # the path's arcs on a stack, and step back past dead ends
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[ei] for ei in path)
                    for ei in path:
                        cap[ei] -= pushed
                        cap[ei ^ 1] += pushed
                    flow += pushed
                    # resume from the tail of the first saturated arc
                    k = next(k for k, ei in enumerate(path) if cap[ei] == 0)
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u]
                i = it[u]
                nxt = level[u] + 1
                while i < len(arcs):
                    ei = arcs[i]
                    if cap[ei] > 0 and level[to[ei]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:
                    # u is a dead end for this phase: take it off the level
                    # graph and step back past the arc that led here
                    level[u] = -1
                    ei = path.pop()
                    u = to[ei ^ 1]
                    it[u] += 1
                else:
                    break

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph: the minimal min cut."""
        head, to, cap = self.head, self.to, self.cap
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return set(queue)
