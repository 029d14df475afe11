"""Immutable simple graphs on vertices 0..n-1, generators, and I/O.

The adjacency structure is stored as one Python int bitmask per vertex,
which is what makes the embedding search and the subset enumerations fast.
Graphs are hashable values: all operations return new graphs. Edges go in
one way: ``Graph(n, edges)``, ``with_edge`` and ``with_edges`` all run
``_add_edges``, which checks each pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on labeled vertices 0..n-1.

    No self-loops; duplicate edges collapse. Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("n", "_adj", "_hash", "_edges", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._adj = tuple(_add_edges([0] * n, edges))
        self._hash = None
        self._edges = None
        self._degrees = None

    @classmethod
    def _from_adj(cls, adj: Sequence[int]) -> "Graph":
        g = object.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        g._hash = None
        g._edges = None
        g._degrees = None
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            es = []
            for u in range(self.n):
                m = self._adj[u] >> (u + 1)
                v = u + 1
                while m:
                    if m & 1:
                        es.append((u, v))
                    m >>= 1
                    v += 1
            self._edges = frozenset(es)
        return self._edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(map(int.bit_count, self._adj))
        return self._degrees

    def _vertex(self, v: int) -> int:
        """v itself; a vertex outside the graph raises ValueError (a
        negative index would otherwise read a row from the end)."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside graph")
        return v

    def degree(self, v: int) -> int:
        return self.degrees[self._vertex(v)]

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("minimum degree of the empty graph is undefined")
        return min(self.degrees)

    def adj_mask(self, v: int) -> int:
        return self._adj[self._vertex(v)]

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj_mask(v))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask(u) >> self._vertex(v) & 1)

    def is_complete(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph._from_adj(_add_edges(list(self._adj), ((u, v),)))

    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """This graph plus every listed edge; edges already present are
        kept as they are."""
        return Graph._from_adj(_add_edges(list(self._adj), edges))

    def without_edge(self, u: int, v: int) -> "Graph":
        # _add_edges checks the pair and sets both bits; xor clears them
        adj = _add_edges(list(self._adj), ((u, v),))
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph._from_adj(adj)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Yield non-edges in ascending lexicographic order."""
        for u in range(self.n):
            row = self._adj[u]
            for v in range(u + 1, self.n):
                if not (row >> v & 1):
                    yield (u, v)

    def components(self) -> list[list[int]]:
        seen = 0
        comps = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = comp
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self._adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            comps.append(_bits(comp))
        return comps

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def twin_classes(g: Graph) -> list[tuple[bool, tuple[int, ...]]]:
    """Twin classes of size >= 2 as ``(is_true_twin, members)``.

    True twins share closed neighborhoods, false twins share open ones;
    either way, swapping two members of a class is an automorphism. One
    pass finds both kinds, since no vertex u has both: a true twin y of u
    is u's neighbour, so it neighbours every false twin x of u, which puts
    x in N[y] = N[u]. Classes are ordered by their smallest member.
    """
    closed: dict[int, list[int]] = {}
    opened: dict[int, list[int]] = {}
    for v, row in enumerate(g._adj):
        closed.setdefault(row | 1 << v, []).append(v)
        opened.setdefault(row, []).append(v)
    groups = [(True, tuple(c)) for c in closed.values() if len(c) >= 2]
    groups += [(False, tuple(c)) for c in opened.values() if len(c) >= 2]
    groups.sort(key=lambda c: c[1][0])
    return groups


def _add_edges(adj: list[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """OR each edge into the adjacency rows ``adj``, in place, and return
    them; a self-loop or a pair outside 0..len(adj)-1 raises ValueError."""
    n = len(adj)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set; the inverse of ``_bits``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _root(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _vertex_subset(g: Graph, s: Iterable[int]) -> tuple[set[int], int]:
    """``s`` as a set and as a mask; a vertex outside g raises ValueError."""
    s = set(s)
    return s, _mask(map(g._vertex, s))


# -- generators -------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    full = (1 << n) - 1
    return Graph._from_adj([full ^ 1 << v for v in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def circulant(k: int, generators: Iterable[int]) -> Graph:
    """Circulant graph on Z/k with edges {i, i+s mod k} for each generator s.

    Generators are symmetrized: s and k-s describe the same edge class.
    """
    if k < 3:
        raise ValueError("circulant needs k >= 3")
    edges = []
    for s in generators:
        s %= k
        if s == 0:
            raise ValueError("generator congruent to 0 mod k")
        for i in range(k):
            edges.append(_norm_edge(i, (i + s) % k))
    return Graph(k, edges)


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex labels are offset in input order."""
    adj: list[int] = []
    off = 0
    for g in gs:
        adj.extend(m << off for m in g._adj)
        off += g.n
    return Graph._from_adj(adj)


def subdivide(
    g: Graph, schedule: dict[tuple[int, int], int]
) -> tuple[Graph, dict[tuple[int, int], list[int]]]:
    """Replace each edge {u,v} by a path of ``schedule[(u,v)]`` edges.

    Length 1 leaves the edge intact; length L >= 2 routes it through L-1
    fresh internal vertices. Original vertices keep their labels; internal
    vertices are numbered from n upward, allocated edge by edge in sorted
    edge order, each path running from the smaller endpoint to the larger.
    Returns the new graph and, per original edge, its internal vertices in
    path order.
    """
    sched = {_norm_edge(*e): length for e, length in schedule.items()}
    es = g.sorted_edges()
    missing = [e for e in es if e not in sched]
    if missing:
        raise ValueError(f"schedule missing edges, e.g. {missing[0]}")
    extra = set(sched) - set(es)
    if extra:
        raise ValueError(f"schedule covers non-edges, e.g. {sorted(extra)[0]}")
    edges = []
    groups: dict[tuple[int, int], list[int]] = {}
    nxt = g.n
    for u, v in es:
        length = sched[(u, v)]
        if length < 1:
            raise ValueError(f"path length for ({u},{v}) must be >= 1")
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        chain = [u] + inner + [v]
        edges.extend(zip(chain, chain[1:]))
        groups[(u, v)] = inner
    return Graph(nxt, edges), groups


# -- graph6 and edge-list I/O -------------------------------------------------
# graph6: 6-bit printable encoding of the upper triangle, column by column.


def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n > 68719476735:
        raise GraphFormatError("graph too large for graph6")
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:
        header = chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    else:
        header = chr(126) + chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    bits = []
    for v in range(1, n):
        col = g.adj_mask(v)
        bits.extend((col >> u) & 1 for u in range(v))
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = word << 1 | b
        body.append(chr(word + 63))
    return header + "".join(body)


def graph6_to_graph(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise GraphFormatError("invalid graph6 character")
    if not data:
        raise GraphFormatError("empty graph6 string")
    if data[0] != 63:
        n = data[0]
        body = data[1:]
    elif len(data) > 1 and data[1] != 63:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        if len(data) < 8:
            raise GraphFormatError("truncated graph6 header")
        n = 0
        for d in data[2:8]:
            n = n << 6 | d
        body = data[8:]
    need = n * (n - 1) // 2
    if len(body) != -(-need // 6):
        raise GraphFormatError(f"graph6 body length does not match n={n}")
    bits = []
    for d in body:
        bits.extend((d >> s) & 1 for s in range(5, -1, -1))
    if any(bits[need:]):
        raise GraphFormatError("nonzero graph6 padding bits")
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)


def graph_to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def edge_list_to_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list text")
    try:
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
        # the constructor rejects self-loops and vertices outside 0..n-1
        g = Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(f"bad edge list: {exc}") from exc
    if len(edges) != m or g.num_edges != m:  # a repeated pair counts once in g
        found = f"{g.num_edges} in {len(edges)} lines"
        raise GraphFormatError(f"expected {m} distinct edges, found {found}")
    return g


def read_graph_file(path: str) -> Graph:
    """Load a graph from a file holding either edge-list or graph6 text."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"non-ASCII byte at offset {exc.start}") from exc
    first = text.strip().splitlines()[0] if text.strip() else ""
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return edge_list_to_graph(text)
    return graph6_to_graph(first)


def write_graph_file(g: Graph, path: str, fmt: str = "graph6") -> None:
    with open(path, "w", encoding="ascii") as fh:
        if fmt == "graph6":
            fh.write(graph_to_graph6(g) + "\n")
        elif fmt == "edgelist":
            fh.write(graph_to_edge_list(g))
        else:
            raise ValueError(f"unknown format {fmt!r}")
