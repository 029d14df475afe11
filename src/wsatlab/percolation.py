"""Bootstrap percolation closure and the rotation machinery.

``closure`` repeatedly rescans non-edges in ascending lexicographic order
and adds the first one that completes a new copy of the pattern, recording
the witnessing embedding; traces, activation partitions, and rotations
depend on this fixed deterministic order. The closure graph itself is
order-independent (monotone process), so ``is_weakly_saturated`` runs a
faster sweep that adds whole twin orbits and records no witnesses.

A trace stores no graph per step: the host and the edge order fix each
witness's graph, ``validate`` alone rebuilds them, and ``from_json`` parses.

"New copy" is implemented as "a copy whose image contains the added edge":
a copy absent before the addition must use the new edge, and conversely any
copy through the new edge was absent, since the edge was.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .embedding import Embedding, find_new_copy
from .errors import (
    BudgetExceededError,
    EmptyOwnershipError,
    InactiveVertexError,
    TraceFormatError,
    TraceIncompleteError,
)
from .graphs import Graph, _norm_edge, _root


class PercolationTrace(NamedTuple):
    """Ordered record of restored edges, each with its witnessing copy: a
    mapping of ``pattern`` into ``host`` plus the edges up to its own."""

    host: Graph
    pattern: Graph
    steps: tuple[tuple[tuple[int, int], Embedding], ...]

    def terminal(self) -> Graph:
        return self.host.with_edges(edge for edge, _ in self.steps)

    def is_complete(self) -> bool:
        return self.terminal().is_complete()

    def validate(self) -> None:
        """Replay the trace, revalidating every step in its own graph state."""
        g = self.host
        for (u, v), emb in self.steps:
            # with_edge raises ValueError on a pair outside the host
            h = g.with_edge(u, v)
            if h == g:
                raise AssertionError(f"step adds existing edge ({u},{v})")
            g = h
            witness = Embedding(self.pattern, emb.mapping)
            if not witness.is_valid(g):
                raise AssertionError(f"invalid witness at edge ({u},{v})")
            if not witness.contains_edge((u, v)):
                raise AssertionError(f"witness misses its own edge ({u},{v})")

    def to_json(self) -> str:
        payload = [
            {"edge": list(edge), "witness": list(emb.mapping)}
            for edge, emb in self.steps
        ]
        return json.dumps(payload)

    @classmethod
    def from_json(
        cls, text: str, host: Graph, pattern: Graph
    ) -> "PercolationTrace":
        """Parse what ``to_json`` writes; anything else raises
        TraceFormatError. Whether the steps replay is ``validate``'s part."""
        try:
            items = json.loads(text)
        except ValueError as exc:
            raise TraceFormatError(f"trace is not JSON: {exc}") from exc
        if not (isinstance(items, list) and all(map(_is_step, items))):
            raise TraceFormatError(
                'not a list of {"edge": [u, v], "witness": [x, ...]}')
        steps = [(tuple(s["edge"]), Embedding(pattern, tuple(s["witness"])))
                 for s in items]
        return cls(host, pattern, tuple(steps))


def _is_step(item) -> bool:
    """Whether item is {"edge": [u, v], "witness": [x, ...]} with int
    entries; type(), not isinstance(), so a JSON true is refused."""
    return (
        isinstance(item, dict)
        and item.keys() == {"edge", "witness"}
        and all(type(v) is list for v in item.values())
        and all(type(x) is int for v in item.values() for x in v)
        and len(item["edge"]) == 2
    )


def closure(host: Graph, pattern: Graph) -> PercolationTrace:
    """Run the percolation process to its maximal graph.

    Each pass scans non-edges in ascending lexicographic order and adds the
    first that admits a new copy; the process stops when a full scan adds
    nothing.
    """
    g = host
    steps = []
    while True:
        for u, v in g.non_edges():
            g2 = g.with_edge(u, v)
            emb = find_new_copy(pattern, g2, (u, v))
            if emb is not None:
                steps.append(((u, v), emb))
                g = g2
                break
        else:  # a full scan added nothing
            return PercolationTrace(host, pattern, tuple(steps))


def _sweep(host: Graph, pattern: Graph) -> list[tuple[int, int]]:
    """The edges a closure in sweep order adds, in that order: each pass
    scans the non-edges lexicographically without stopping at a hit, and a
    hit on uv in g also adds every missing xy with x a twin of u and y a
    twin of v in g (equal open or closed neighbourhoods). A product of two
    twin swaps is an automorphism of g carrying uv to xy, so xy completes
    a new copy too.
    """
    g = host
    adj = list(host._adj)
    added: list[tuple[int, int]] = []
    grew = True
    while grew and not g.is_complete():
        grew = False
        # the pairs missing at the start of the pass; adj also holds the
        # edges this pass has added so far
        for u, v in g.non_edges():
            if adj[u] >> v & 1:
                continue
            if find_new_copy(pattern, g.with_edge(u, v), (u, v)) is None:
                continue
            grew = True
            # twins in g: once uv is in, u and v have new neighbours
            xs, ys = _twins(g, u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            added.append((u, v))
            for x in xs:
                for y in ys:
                    if x != y and not adj[x] >> y & 1:
                        adj[x] |= 1 << y
                        adj[y] |= 1 << x
                        added.append(_norm_edge(x, y))
            g = Graph._from_adj(adj)
    return added


def _twins(g: Graph, u: int, v: int) -> tuple[list[int], list[int]]:
    """The vertices with u's open or closed neighbourhood, u included, and
    those with v's."""
    adj = g._adj
    ru, rv = adj[u], adj[v]
    cu, cv = ru | 1 << u, rv | 1 << v
    xs, ys = [], []
    for x, r in enumerate(adj):
        c = r | 1 << x
        if r == ru or c == cu:
            xs.append(x)
        if r == rv or c == cv:
            ys.append(x)
    return xs, ys


def is_weakly_saturated(host: Graph, pattern: Graph) -> bool:
    """True iff the closure of host under the pattern is complete. Only the
    closure graph matters, so this runs the sweep and counts its edges."""
    return host.num_edges + len(_sweep(host, pattern)) == host.n * (host.n - 1) // 2


# -- activation partitions ----------------------------------------------------


class Part(NamedTuple):
    """One activation class: the vertices first used by ``activating_edge``'s
    new copy, together with the edges the class owns."""

    vertices: frozenset[int]
    activating_edge: tuple[int, int]
    owned: frozenset[tuple[int, int]]


class ActivationPartition(NamedTuple):
    parts: tuple[Part, ...]
    free_edges: frozenset[tuple[int, int]]
    g_hat: Graph


def activation_partition(trace: PercolationTrace) -> ActivationPartition:
    """Replay a terminal-complete trace into its activation partition.

    Each restored edge's witnessing copy activates the inactive vertices it
    uses; the activating edge's part owns host edges with an end in the part
    that the copy used, plus the activating edge itself when incident.
    """
    if not trace.is_complete():
        raise TraceIncompleteError(
            "activation partition requires a weakly saturated host"
        )
    host = trace.host
    host_edges = host.edges
    active: set[int] = set()
    parts: list[Part] = []
    for (u, v), emb in trace.steps:
        image = emb.image()
        newly = frozenset(image - active)
        if not newly:
            continue
        used_host_edges = {e for e in emb.image_edges() if e in host_edges}
        owned = {
            e for e in used_host_edges if e[0] in newly or e[1] in newly
        }
        act = _norm_edge(u, v)
        if act[0] in newly or act[1] in newly:
            owned.add(act)
        parts.append(Part(newly, act, frozenset(owned)))
        active |= newly
    missing = set(range(host.n)) - active
    if missing:
        raise InactiveVertexError(
            f"{len(missing)} vertices never activated; host is not a "
            "minimum weakly saturated graph",
            vertices=sorted(missing),
        )
    g_hat = host.with_edges(p.activating_edge for p in parts)
    all_owned: set[tuple[int, int]] = set()
    for p in parts:
        overlap = all_owned & p.owned
        if overlap:
            raise AssertionError(f"edge owned twice: {sorted(overlap)[0]}")
        all_owned |= p.owned
    free = frozenset(g_hat.edges - all_owned)
    return ActivationPartition(tuple(parts), free, g_hat)


AMatching = tuple[tuple[int, int], ...]  # one owned edge per part, in part order


def _pools(ap: ActivationPartition) -> list[list[tuple[int, int]]]:
    """Each part's owned edges, sorted; raises if some part owns none."""
    empty = [i for i, p in enumerate(ap.parts) if not p.owned]
    if empty:
        raise EmptyOwnershipError(f"parts {empty} own no edge")
    return [sorted(p.owned) for p in ap.parts]


def enumerate_a_matchings(ap: ActivationPartition) -> Iterator[AMatching]:
    """All selections of one owned edge per part, in lexicographic order."""
    yield from itertools.product(*_pools(ap))


def a_matching(ap: ActivationPartition, index: int) -> AMatching:
    """The ``index``-th A-matching of ``enumerate_a_matchings``: ``index``
    in mixed radix over the sorted owned-edge pools, last part fastest."""
    rest, m = index, []
    for pool in reversed(_pools(ap)):
        rest, j = divmod(rest, len(pool))
        m.append(pool[j])
    if rest:  # index < 0 leaves a negative quotient, index >= count a positive one
        raise IndexError(f"A-matching index {index} out of range")
    return tuple(reversed(m))


def count_a_matchings(ap: ActivationPartition) -> int:
    return math.prod(map(len, _pools(ap)))


def rotate(ap: ActivationPartition, matching: Sequence[tuple[int, int]]) -> Graph:
    """Remove an A-matching from the activated host; the result has the same
    number of edges as the original host."""
    if len(matching) != len(ap.parts):
        raise ValueError("matching must select one edge per part")
    g = ap.g_hat
    for p, e in zip(ap.parts, matching):
        e = _norm_edge(*e)
        if e not in p.owned:
            raise ValueError(f"edge {e} not owned by its part")
        g = g.without_edge(*e)
    return g


def rotation_components(
    ap: ActivationPartition, budget: int = 10**6
) -> list[list[int]]:
    """Partition part indices into rotation components by brute force.

    Two parts are equivalent iff their contracted vertices stay connected in
    the activated host minus M, for every A-matching M: the meet of the
    per-matching partitions, found by refining one label per part.
    """
    total = count_a_matchings(ap)
    if total > budget:
        raise BudgetExceededError(
            f"{total} A-matchings exceed the budget of {budget}"
        )
    k = len(ap.parts)
    part_of = {}
    for i, p in enumerate(ap.parts):
        for v in p.vertices:
            part_of[v] = i
    # an edge inside one part joins nothing, and the labels depend only on
    # which parts end up joined, so only the edges between parts are walked
    cross = [(e, part_of[e[0]], part_of[e[1]]) for e in ap.g_hat.edges]
    cross = [(e, a, b) for e, a, b in cross if a != b]
    label = [0] * k
    for matching in enumerate_a_matchings(ap):
        removed = set(matching)
        parent = list(range(k))
        for e, a, b in cross:
            if e not in removed:
                parent[_root(parent, a)] = _root(parent, b)
        ids = {}
        label = [ids.setdefault((label[i], _root(parent, i)), len(ids)) for i in range(k)]
    comps = {}
    for i in range(k):
        comps.setdefault(label[i], []).append(i)
    return list(comps.values())


def part_density(part_vertices: Iterable[int], owned_count: int) -> Fraction:
    """Owned edges per vertex, exactly."""
    size = len(set(part_vertices))
    if size == 0:
        raise ValueError("part must be nonempty")
    return Fraction(owned_count, size)
