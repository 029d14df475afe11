"""Graph isomorphism tests for dedup.

Graphs are bucketed by a cheap invariant key, then tested exactly by a
backtracking search over candidate masks that does not recurse.
"""

from __future__ import annotations

from .graphs import Graph


def invariant_key(g: Graph) -> tuple:
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


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    gdeg, hdeg = g.degrees, h.degrees
    if sorted(gdeg) != sorted(hdeg):
        return False
    gadj, hadj = g._adj, h._adj
    of_degree: dict[int, int] = {}
    for x, d in enumerate(hdeg):
        of_degree[d] = of_degree.get(d, 0) | 1 << x
    # order g-vertices by scarcity of their degree class, then degree
    order = sorted(
        range(g.n), key=lambda u: (of_degree[gdeg[u]].bit_count(), -gdeg[u], u)
    )
    # images[i] is the h-image of order[i], left[i] its untried candidates:
    # h-vertices of its degree whose adjacency to the earlier images matches
    images: list[int] = []
    left: list[int] = []
    while len(images) < g.n:
        i = len(images)
        if len(left) == i:
            gu = gadj[order[i]]
            m = of_degree[gdeg[order[i]]]
            for w, x in zip(order, images):
                m &= hadj[x] if gu >> w & 1 else ~(hadj[x] | 1 << x)
            left.append(m)
        m = left[i]
        if m:
            left[i] = m & (m - 1)
            images.append((m & -m).bit_length() - 1)
        elif images:
            left.pop()
            images.pop()
        else:
            return False
    return True


class IsoClassRegistry:
    """Collects graphs up to isomorphism; ``add`` reports novelty."""

    def __init__(self):
        self._buckets: dict[tuple, list[Graph]] = {}

    def add(self, g: Graph) -> bool:
        """Register g; return True if no isomorphic copy was seen before."""
        key = invariant_key(g)
        bucket = self._buckets.setdefault(key, [])
        for rep in bucket:
            if are_isomorphic(g, rep):
                return False
        bucket.append(g)
        return True
