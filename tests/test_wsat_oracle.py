"""wsat_exact as it stood before it grew one host per isomorphism class edge
count by edge count, kept verbatim as a reference: it walks every labelled
edge set. The current search must find the same value, the same witness
classes and run the same closures.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab import percolation
from wsatlab.errors import BudgetExceededError, ParameterRangeError
from wsatlab.extremal import WsatResult, wsat_exact
from wsatlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from wsatlab.isomorphism import IsoClassRegistry, are_isomorphic
from wsatlab.percolation import is_weakly_saturated


def reference_wsat_exact(n: int, f: Graph, budget: int = 2_000_000) -> WsatResult:
    """Minimum edge count of a weakly saturated host on n vertices, with a
    witness, certified by exhausting all smaller edge counts.

    Candidate edge sets are deduplicated up to isomorphism (all hosts live
    on an unlabeled vertex set), and hosts with a non-universal vertex of
    degree below min_degree(f) - 1 are pruned: such a vertex could never
    appear in its first new copy.
    """
    if n < 1:
        raise ParameterRangeError("need at least one host vertex")
    if f.n == 0:
        raise ParameterRangeError("pattern must have vertices")
    if budget < 1:
        raise ParameterRangeError("budget must be at least 1")
    delta = f.min_degree
    pairs = list(itertools.combinations(range(n), 2))
    explored = 0
    for m in range(len(pairs) + 1):
        reg = IsoClassRegistry()
        found: list[Graph] = []
        for combo in itertools.combinations(pairs, m):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"budget {budget} exhausted at {m} edges",
                    partial={"lower_bound": m, "nodes_explored": explored},
                )
            g = Graph(n, combo)
            if any(
                d < delta - 1 and d != n - 1 for d in g.degrees
            ):
                continue
            if not reg.add(g):
                continue
            if is_weakly_saturated(g, f):
                found.append(g)
        if found:
            return WsatResult(n, m, tuple(found), explored)
    raise AssertionError("unreachable: the complete graph is always saturated")


def counted(monkeypatch, solve, n, f):
    """solve(n, f) and the number of closures it ran."""
    closures = 0
    real = percolation._sweep

    def sweep(*args, **kwargs):
        nonlocal closures
        closures += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(percolation, "_sweep", sweep)
        res = solve(n, f)
    return res, closures


def assert_same_as_reference(monkeypatch, n, f):
    ref, ref_closures = counted(monkeypatch, reference_wsat_exact, n, f)
    res, closures = counted(monkeypatch, wsat_exact, n, f)
    assert (res.value, len(res.witnesses), closures) == (
        ref.value, len(ref.witnesses), ref_closures
    )
    assert res.witness == res.witnesses[0]
    for w in res.witnesses:
        assert w.n == n and w.num_edges == res.value
        assert is_weakly_saturated(w, f)
        assert sum(are_isomorphic(w, r) for r in ref.witnesses) == 1


PATTERNS = {
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "P3": path_graph(3),
    "C4": cycle_graph(4),
    "K4-e": complete_graph(4).without_edge(0, 1),
    "C5": cycle_graph(5),
    "K3+K2": disjoint_union([complete_graph(3), complete_graph(2)]),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_named_patterns_match_reference(name, monkeypatch):
    for n in range(1, 7):
        assert_same_as_reference(monkeypatch, n, PATTERNS[name])


@st.composite
def small_patterns(draw):
    k = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(k), 2))
    return Graph(k, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=60, deadline=None)
@given(small_patterns(), st.integers(1, 5))
def test_random_patterns_match_reference(f, n):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_as_reference(monkeypatch, n, f)


# (n, pattern, one-edge extensions, closures); the closure counts are the
# reference search's, which takes half a minute on wsat(7, K4)
WORK_COUNTS = [
    (6, "K4", 913, 33),
    (7, "K3", 675, 27),
    (7, "K4", 6661, 195),
]


@pytest.mark.parametrize("n,name,extensions,closures", WORK_COUNTS)
def test_work_counts(n, name, extensions, closures, monkeypatch):
    res, ran = counted(monkeypatch, wsat_exact, n, PATTERNS[name])
    assert (res.nodes_explored, ran) == (extensions, closures)
