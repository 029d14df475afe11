"""Small-graph isomorphism tests, just strong enough for dedup.

Candidates are bucketed by a cheap invariant key; exact equivalence within a
bucket is decided by backtracking over degree-compatible assignments. Meant
for graphs with at most ~20 vertices.
"""

from __future__ import annotations

from collections import Counter

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
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    n = g.n
    gdeg, hdeg = g.degrees, h.degrees
    # order g-vertices by scarcity of their degree class, then degree
    freq = Counter(gdeg)
    order = sorted(range(n), key=lambda u: (freq[gdeg[u]], -gdeg[u], u))
    mapping = [-1] * n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        u = order[i]
        want = gdeg[u]
        nbr_imgs = [mapping[w] for w in g.neighbors(u) if mapping[w] >= 0]
        for x in range(n):
            if used >> x & 1 or hdeg[x] != want:
                continue
            hm = h.adj_mask(x)
            if any(not (hm >> y & 1) for y in nbr_imgs):
                continue
            # mapped non-neighbors must stay non-neighbors
            if (hm & used).bit_count() != len(nbr_imgs):
                continue
            mapping[u] = x
            used |= 1 << x
            if extend(i + 1):
                return True
            mapping[u] = -1
            used &= ~(1 << x)
        return False

    return extend(0)


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
