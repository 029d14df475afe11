"""lemma23_sequence as it stood when it laid out every block with its own
loop, kept verbatim as a reference. The current routine builds block 0 and
hands it to replicate_component; both must give equal graphs, or raise the
same error with the same message.

replicate_component as it stood when it rebuilt its graph from an edge
list is kept verbatim too; the current one ORs the copies into g's
adjacency masks, and must agree with it in the same sense.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable

from wsatlab.extremal import (
    gamma_min_ratio,
    gamma_of_set,
    lemma23_sequence,
    replicate_component,
)
from wsatlab.graphs import Graph, complete_graph, disjoint_union, path_graph, star_graph


def reference_lemma23_sequence(
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


def reference_replicate_component(
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


def outcome(fn, *args, **kwargs):
    """fn's graph, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def test_block_hosts_match_reference():
    # the two block-host families the acceptance tests and the percolate
    # benchmark build, at the default clique size
    for f, s in [(path_graph(3), {0}), (star_graph(4), {1})]:
        for i in range(4):
            assert lemma23_sequence(f, s, i) == reference_lemma23_sequence(f, s, i)


def test_random_patterns_match_reference():
    # the default clique size, 2^q * |f_work| + 1, is far too large for
    # random patterns, so each case fixes one
    rng = random.Random("lemma23 oracle")
    built = errors = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        pairs = list(itertools.combinations(range(n), 2))
        f = Graph(n, [e for e in pairs if rng.random() < rng.choice([0.5, 0.7, 0.9])])
        if rng.random() < 0.5:
            s = set(gamma_min_ratio(f).witness)
        else:
            s = set(rng.sample(range(n), rng.randint(1, n)))
        clique_size = rng.choice([12, 20, 30])
        for i in range(4):
            ref = outcome(reference_lemma23_sequence, f, s, i, clique_size=clique_size)
            assert outcome(lemma23_sequence, f, s, i, clique_size=clique_size) == ref
            if isinstance(ref, Graph):
                built += 1
            else:
                errors += 1
    assert built > 600 and errors > 400


def test_replicate_component_matches_reference():
    rng = random.Random("replicate oracle")
    built = 0
    kinds = ("p0 must be", "is not an edge", "has no end")
    raised = {k: 0 for k in kinds}
    for _ in range(600):
        n = rng.randint(1, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [e for e in pairs if rng.random() < rng.choice([0.3, 0.6, 0.9])])
        p0 = rng.sample(range(n), rng.randint(0, n))
        if rng.random() < 0.05:
            p0.append(rng.choice([-1, n, n + 3]))
        edges = g.sorted_edges()
        touching = [e for e in edges if e[0] in p0 or e[1] in p0]
        owned = rng.sample(touching, rng.randint(0, len(touching)))
        if rng.random() < 0.4:
            # one bad entry, at a random place in the list
            x = rng.randrange(n)
            options = [
                [e for e in pairs if e not in edges],  # non-edges of g
                [e for e in edges if e not in touching],  # no end in p0
                # loops, vertices outside g, and tuples that are not pairs
                [(x, x), (x, n), (n, n + 1), (-1, x), (n + 2, -3), (x,), (0, x, n)],
            ]
            bad = rng.choice(rng.choice([o for o in options if o]))
            owned.insert(rng.randint(0, len(owned)), bad)
        owned = [e[::-1] if rng.random() < 0.5 else e for e in owned]
        for i in range(4):
            ref = outcome(reference_replicate_component, g, p0, owned, i)
            assert outcome(replicate_component, g, p0, owned, i) == ref
            if isinstance(ref, Graph):
                built += 1
            else:
                raised[next(k for k in kinds if k in ref[1])] += 1
    assert built > 1000 and min(raised.values()) > 50, (built, raised)
