"""build_f_tilde as it stood when it built every component from a full edge
list, kept verbatim as a reference. The current routine ORs each
component's extra edges into a copy of the padded graph's adjacency masks;
both must give equal graphs, or raise the same error with the same message.
"""

from __future__ import annotations

import itertools

import pytest

from wsatlab.errors import CapExceededError, ParameterRangeError
from wsatlab.extremal import build_f_tilde
from wsatlab.graphs import Graph, complete_graph, disjoint_union
from wsatlab.isomorphism import IsoClassRegistry


def reference_build_f_tilde(
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
    if clique_pad < 0:
        raise ParameterRangeError("clique_pad must be nonnegative")
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


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (CapExceededError, ParameterRangeError) as exc:
        return type(exc), str(exc)


def small_graphs(max_n):
    """Every labelled graph on at most max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("clique_pad", [0, None])
def test_matches_reference_on_small_patterns(clique_pad, dedup):
    built = 0
    for f in small_graphs(4):
        got = outcome(build_f_tilde, f, clique_pad, dedup)
        assert got == outcome(reference_build_f_tilde, f, clique_pad, dedup), f
        built += isinstance(got, Graph)
    # pad 0 builds all 76 graphs; the default pad stays under the cap of 14
    # non-edges only for the 1 + 1 + 2 graphs on at most two vertices
    assert built == (76 if clique_pad == 0 else 4)


def test_matches_reference_on_errors():
    f = Graph(4)  # six non-edges
    for kwargs in ({"clique_pad": -1}, {"clique_pad": 0, "max_nonedges": 5}):
        got = outcome(build_f_tilde, f, **kwargs)
        assert isinstance(got, tuple)
        assert got == outcome(reference_build_f_tilde, f, **kwargs)
