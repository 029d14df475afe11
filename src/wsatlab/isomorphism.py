"""Graph isomorphism tests for dedup.

Graphs are bucketed by a cheap invariant key made of integers, then tested
exactly by a backtracking search over candidate masks that does not
recurse.
"""

from __future__ import annotations

from .graphs import Graph


def _degree_masks(g: Graph) -> list[int]:
    """The mask of the vertices of degree d, for each d from 0 to n - 1."""
    masks = [0] * g.n
    for v, d in enumerate(g.degrees):
        masks[d] |= 1 << v
    return masks


def invariant_key(g: Graph) -> tuple:
    """Isomorphism-invariant fingerprint: vertex count, edge count, the
    sorted neighbor-degree codes of the vertices, and the triangle count.

    The code of v is the sum of (n+1)^deg(w) over the neighbors w of v: its
    base-(n+1) digits count the neighbors of each degree. No count exceeds
    n - 1, so no digit carries, and the code determines the multiset of
    neighbor degrees, and with it deg(v), the digit sum. Two graphs thus
    get equal keys exactly when they agree on n, the edge count, the
    multiset of (degree, sorted neighbor degrees) profiles and the
    triangle count.

    Each digit is one popcount of v's neighbors among the vertices of one
    degree, so a dense graph with few distinct degrees costs about n
    popcounts per degree, not one step per neighbor. Triangles are counted
    in one walk over the edges, once per edge, so three times each.
    """
    n = g.n
    adj = g._adj
    digits = [((n + 1) ** d, m) for d, m in enumerate(_degree_masks(g)) if m]
    codes = []
    tri = 0
    for v, row in enumerate(adj):
        code = 0
        for weight, m in digits:
            code += weight * (row & m).bit_count()
        codes.append(code)
        # the neighbors above v
        m = row >> v
        while m:
            low = m & -m
            m ^= low
            tri += (row & adj[v + low.bit_length() - 1]).bit_count()
    codes.sort()
    return (n, g.num_edges, tuple(codes), tri // 3)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    gdeg, hdeg = g.degrees, h.degrees
    if sorted(gdeg) != sorted(hdeg):
        return False
    gadj, hadj = g._adj, h._adj
    of_degree = _degree_masks(h)
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
