"""rotation_components as it stood when it kept a k-by-k matrix of parts
joined under every A-matching, kept verbatim as a reference. The current
routine refines one label per part instead; both must give the same
components, in the same order, and fail the same way.
"""

from __future__ import annotations

import itertools
import random

import pytest

from wsatlab.errors import BudgetExceededError, EmptyOwnershipError
from wsatlab.graphs import Graph, complete_graph, star_graph
from wsatlab.percolation import (
    ActivationPartition,
    Part,
    activation_partition,
    closure,
    count_a_matchings,
    enumerate_a_matchings,
    rotation_components,
)

from test_percolation import GADGET_PATTERN, two_gadget_host


def reference_rotation_components(
    ap: ActivationPartition, budget: int = 10**6
) -> list[list[int]]:
    """Partition part indices into rotation components by brute force.

    Two parts are equivalent iff their contracted vertices stay connected in
    the activated host minus M, for every A-matching M.
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
    hat_edges = sorted(ap.g_hat.edges)
    # connected[i][j] stays True only if i,j are joined under every matching
    connected = [[True] * k for _ in range(k)]
    for matching in enumerate_a_matchings(ap):
        removed = set(matching)
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in hat_edges:
            if (u, v) in removed:
                continue
            ru, rv = find(part_of[u]), find(part_of[v])
            if ru != rv:
                parent[ru] = rv
        roots = [find(i) for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if roots[i] != roots[j]:
                    connected[i][j] = connected[j][i] = False
    comps = []
    seen = [False] * k
    for i in range(k):
        if seen[i]:
            continue
        comp = [j for j in range(k) if connected[i][j] or j == i]
        for j in comp:
            seen[j] = True
        comps.append(comp)
    return comps


def outcome(fn, ap, **kwargs):
    """fn's components, or the type and message of what it raised."""
    try:
        return fn(ap, **kwargs)
    except (BudgetExceededError, EmptyOwnershipError) as exc:
        return type(exc), str(exc)


def synthetic_partition(rng: random.Random) -> ActivationPartition:
    """A host on at most 11 vertices split into 1-6 random parts, each
    owning 0-3 distinct host edges that touch it."""
    n = rng.randint(2, 11)
    pairs = list(itertools.combinations(range(n), 2))
    p = rng.choice([0.15, 0.25, 0.4, 0.55])
    g = Graph(n, [e for e in pairs if rng.random() < p])
    order = list(range(n))
    rng.shuffle(order)
    k = rng.randint(1, min(6, n))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    taken: set[tuple[int, int]] = set()
    parts = []
    for block in blocks:
        vs = frozenset(block)
        touching = [e for e in sorted(g.edges - taken) if e[0] in vs or e[1] in vs]
        want = rng.choices(range(4), weights=(1, 6, 6, 6))[0]
        owned = frozenset(rng.sample(touching, min(len(touching), want)))
        taken |= owned
        parts.append(Part(vs, min(owned) if owned else (0, 1), owned))
    return ActivationPartition(tuple(parts), frozenset(), g)


def test_synthetic_partitions_match_reference():
    rng = random.Random("rotation oracle")
    seen = set()  # component counts, and the exceptions raised
    for _ in range(1500):
        ap = synthetic_partition(rng)
        ref = outcome(reference_rotation_components, ap)
        assert outcome(rotation_components, ap) == ref
        seen.add(ref[0] if isinstance(ref, tuple) else len(ref))
    assert {EmptyOwnershipError, 1, 2, 3, 4, 5, 6} <= seen


@pytest.mark.parametrize(
    "host, pattern",
    [(star_graph(5), complete_graph(3)), (two_gadget_host(), GADGET_PATTERN)],
    ids=["star", "gadget"],
)
def test_closure_partitions_match_reference(host, pattern):
    ap = activation_partition(closure(host, pattern))
    assert rotation_components(ap) == reference_rotation_components(ap)
    total = count_a_matchings(ap)
    for budget in (total - 1, total):
        assert outcome(rotation_components, ap, budget=budget) == outcome(
            reference_rotation_components, ap, budget=budget
        )
