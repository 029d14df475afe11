"""Parametrized pattern families realizing prescribed gamma values.

Four regimes: 2-edge-connected regular circulants for the sparse values
delta/2 - 1/k; subdivided Moebius ladders (minimum degree 3) and subdivided
squared cycles (minimum degree 4) pinned to a clique for dense rational
targets; and regular expanders pinned to a clique for minimum degree >= 6.
Each construction carries its designated witness set and the target gamma
as exact rationals, so the identities can be re-checked by the solvers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple
from .errors import InfeasibleParamsError
from .graphs import (Graph, _norm_edge, circulant, complete_graph,
                     disjoint_union, graph_to_graph6, subdivide)


class ConstructionParams(NamedTuple):
    delta: int
    ratio: Fraction
    k: int
    p: int = 1
    t: int = 0


class Construction(NamedTuple):
    family: str
    graph: Graph
    witness: tuple[int, ...]
    predicted_gamma: Fraction
    params: dict

    def as_report(self) -> dict:
        return {
            "family": self.family,
            "params": {
                k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in self.params.items()
            },
            "witness_set": list(self.witness),
            "predicted_gamma": str(self.predicted_gamma),
            "graph": graph_to_graph6(self.graph),
        }


def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2))


def spread_indices(total: int, count: int) -> list[int]:
    """Evenly spread ``count`` indices over 0..total-1: round(i*total/count),
    half-up on exact rationals; a collision advances to the next unused
    index (cyclically)."""
    if count == 0:
        return []
    if not 0 < count <= total:
        raise InfeasibleParamsError(f"cannot spread {count} over {total}")
    used = set()
    out = []
    for i in range(count):
        idx = _round_half_up(Fraction(i * total, count)) % total
        while idx in used:
            idx = (idx + 1) % total
        used.add(idx)
        out.append(idx)
    return out


# per minimum degree: smallest k and the parity k must have
_K_SCAN = {3: (4, 0), 4: (5, 1)}


def solve_params(delta: int, ratio, k_min: int | None = None) -> ConstructionParams:
    """Smallest valid (k, p, t) for the subdivision constructions.

    Picks the unique subdivision base p whose ratio window contains the
    target, then the smallest admissible k >= k_min meeting the parity and
    congruence constraints that make t an integer in range.

    With s the denominator of delta/2, a gadget on n vertices has gamma
    a/b exactly when s*n*((delta-1)*b - a) = b*(k + s); the scan asks
    s*((delta-1)*b - a) to divide k + s.
    """
    ratio = Fraction(ratio)
    a, b = ratio.numerator, ratio.denominator
    if delta not in _K_SCAN:
        raise InfeasibleParamsError("solve_params handles delta 3 and 4 only")
    half = Fraction(delta, 2)
    if not half <= ratio < delta - 1:
        raise InfeasibleParamsError(
            f"delta={delta} needs ratio in [{half}, {delta - 1})"
        )
    s, h = half.denominator, half.numerator
    # s*n/k and s*m/k of the base-p gadget with t = 0; its gamma tends to
    # m_k/n_k as k grows, and the window of p ends where that of p+1 starts
    p, n_k, m_k = 1, s, h
    while ratio >= Fraction(m_k + (delta - 1) * h, n_k + h):
        p, n_k, m_k = p + 1, n_k + h, m_k + (delta - 1) * h
    modulus = s * ((delta - 1) * b - a)
    least, parity = _K_SCAN[delta]
    k = max(k_min or least, least)
    if k % 2 != parity:
        k += 1
    while True:
        if (k + s) % modulus == 0:
            t_num = k * (n_k * a - m_k * b) + s * b
            if t_num % modulus == 0:
                t = t_num // modulus
                if 0 <= t <= delta * k // 2:
                    return ConstructionParams(delta, ratio, k, p, t)
        k += 2


def sparse_family(delta: int, k: int) -> Construction:
    """2-edge-connected delta-regular circulant on k vertices, containing a
    Hamilton cycle; its gamma is delta/2 - 1/k."""
    if delta < 2:
        raise InfeasibleParamsError("need delta >= 2")
    if k < delta + 1:
        raise InfeasibleParamsError("need k >= delta + 1")
    if delta % 2 and k % 2:
        raise InfeasibleParamsError("odd-regular graphs need even order")
    gens = set(range(1, delta // 2 + 1))
    if delta % 2:
        gens.add(k // 2)
    g = circulant(k, gens)
    if set(g.degrees) != {delta}:
        raise InfeasibleParamsError(f"(delta={delta}, k={k}) is not realizable")
    return Construction(
        family="sparse",
        graph=g,
        witness=tuple(range(k)),
        predicted_gamma=Fraction(delta, 2) - Fraction(1, k),
        params={"delta": delta, "k": k},
    )


def _attach_pendants(
    gadget: Graph, clique_size: int, pendants: list[tuple[int, int]]
) -> Graph:
    """Disjoint union of gadget and a clique, plus pendant edges
    (gadget vertex, clique slot); slots index into the clique block."""
    if pendants and max(s for _, s in pendants) >= clique_size:
        raise InfeasibleParamsError("clique too small for distinct attachments")
    f = disjoint_union([gadget, complete_graph(clique_size)])
    return f.with_edges((v, gadget.n + slot) for v, slot in pendants)


def _pinned_subdivision(
    params: ConstructionParams, g: Graph, first: list, second: list,
    clique_size: int | None,
) -> Construction:
    """Subdivide every edge of the circulant g into p-paths, t of them into
    (p+1)-paths: spread over the first edge class, and once that is full
    over the second. Each internal subdivision vertex is pinned by delta-2
    edges to its own clique vertices."""
    delta, ratio, k, p, t = params.delta, params.ratio, params.k, params.p, params.t
    if t <= len(first):
        longer = {first[i] for i in spread_indices(len(first), t)}
    else:
        longer = set(first)
        longer |= {second[i] for i in spread_indices(len(second), t - len(first))}
    schedule = {e: (p + 1 if e in longer else p) for e in g.edges}
    gp, groups = subdivide(g, schedule)
    internal = [v for e in sorted(groups) for v in groups[e]]
    if clique_size is None:
        clique_size = 3 * gp.n + delta + 2
    pins = delta - 2
    f = _attach_pendants(gp, clique_size, [
        (v, pins * i + j) for i, v in enumerate(internal) for j in range(pins)
    ])
    n = k + (p - 1) * delta * k // 2 + t
    assert gp.n == n and len(internal) == n - k
    # the circulant's edges plus delta-1 edges per internal vertex
    gamma = Fraction(delta * k // 2 + (delta - 1) * (n - k) - 1, n)
    if gamma != ratio:
        raise InfeasibleParamsError(
            f"t={t} does not realize gamma={ratio} (got {gamma})"
        )
    return Construction(
        family=f"delta{delta}",
        graph=f,
        witness=tuple(range(n)),
        predicted_gamma=gamma,
        params={
            "delta": delta, "ratio": ratio, "k": k, "p": p, "t": t,
            "clique_size": clique_size,
        },
    )


def build_delta3(
    params: ConstructionParams, clique_size: int | None = None
) -> Construction:
    """Subdivided Moebius ladder pinned to a clique; minimum degree 3.

    The ladder's k/2 long edges are labeled 0..k/2-1 by smaller endpoint.
    For t <= k/2 the longer paths go on spread-out long edges; past that,
    all long edges and t - k/2 spread-out outer-cycle edges (labeled by
    their counterclockwise endpoint) get them. Every internal subdivision
    vertex is joined to its own clique vertex.
    """
    k, p, t = params.k, params.p, params.t
    if params.delta != 3:
        raise InfeasibleParamsError("params are not for the delta=3 family")
    if k < 4 or k % 2 or not 0 <= t <= 3 * k // 2 or p < 1:
        raise InfeasibleParamsError(f"invalid delta=3 params: k={k}, p={p}, t={t}")
    long_edges = [(i, i + k // 2) for i in range(k // 2)]
    outer_edges = [_norm_edge(i, (i + 1) % k) for i in range(k)]
    return _pinned_subdivision(
        params, circulant(k, {1, k // 2}), long_edges, outer_edges, clique_size
    )


def build_delta4(
    params: ConstructionParams, clique_size: int | None = None
) -> Construction:
    """Subdivided squared cycle pinned to a clique; minimum degree 4.

    Short edges {i, i+1} and long edges {i, i+2} are labeled by their
    counterclockwise endpoint i. For t <= k the longer paths go on
    spread-out short edges, past that on all short edges plus spread-out
    long ones. Every internal subdivision vertex gets two edges to two
    fresh clique vertices.
    """
    k, p, t = params.k, params.p, params.t
    if params.delta != 4:
        raise InfeasibleParamsError("params are not for the delta=4 family")
    if k < 5 or k % 2 == 0 or not 0 <= t <= 2 * k or p < 1:
        raise InfeasibleParamsError(f"invalid delta=4 params: k={k}, p={p}, t={t}")
    short_edges = [_norm_edge(i, (i + 1) % k) for i in range(k)]
    long_edges = [_norm_edge(i, (i + 2) % k) for i in range(k)]
    return _pinned_subdivision(
        params, circulant(k, {1, 2}), short_edges, long_edges, clique_size
    )


def build_high_delta(
    delta: int,
    ratio,
    k: int,
    seed: int,
    expander_check: bool = False,
    clique_size: int | None = None,
    max_attempts: int = 10**4,
) -> Construction:
    """Random delta-regular gadget pinned to a clique by t = k(ratio-delta/2)+1
    edges; for delta >= 6 with the expansion condition checked, its gamma is
    the target ratio.

    The gadget comes from ``sample_random_regular`` (attempt i uses seed
    seed + i, so nearby start seeds often give the same gadget): it is
    resampled until simple and, when ``expander_check`` is on, until i_alpha
    exceeds 2.01*(1-alpha) for alpha in {0.1, 0.5, t/k} (exact check, so k
    must stay enumerable).
    """
    if delta < 6:
        raise InfeasibleParamsError("this family needs delta >= 6")
    ratio = Fraction(ratio)
    a, b = ratio.numerator, ratio.denominator
    if not Fraction(delta, 2) <= ratio <= Fraction(delta, 2) + Fraction(1, 2):
        raise InfeasibleParamsError("ratio must lie in [delta/2, delta/2 + 1/2]")
    if k % 2 or k % b:
        raise InfeasibleParamsError("k must be an even multiple of the denominator")
    if k <= delta:
        raise InfeasibleParamsError("a delta-regular gadget needs k > delta")
    t_frac = k * (ratio - Fraction(delta, 2)) + 1
    if t_frac.denominator != 1:
        raise InfeasibleParamsError("t is not an integer for these parameters")
    t = int(t_frac)
    if not 0 < t <= k // 2 + 1:
        raise InfeasibleParamsError(f"t={t} outside (0, k/2+1]")
    alphas = sorted({Fraction(1, 10), Fraction(1, 2), Fraction(t, k)})
    # the only family that samples, so the others never load the expander layer
    from .expander import i_alpha_exact, sample_random_regular

    def expands(g: Graph) -> bool:
        return all(
            i_alpha_exact(g, al).value > Fraction(201, 100) * (1 - al)
            for al in alphas
        )

    g, _ = sample_random_regular(
        delta, k, seed, max_attempts, accept=expands if expander_check else None
    )
    if clique_size is None:
        clique_size = 3 * k + delta + 2
    f = _attach_pendants(g, clique_size, [(v, v) for v in range(t)])
    gamma = Fraction(delta * k // 2 + t - 1, k)
    assert gamma == ratio
    return Construction(
        family="high-delta",
        graph=f,
        witness=tuple(range(k)),
        predicted_gamma=gamma,
        params={
            "delta": delta, "ratio": ratio, "k": k, "t": t,
            "clique_size": clique_size, "seed": seed,
            "expander_check": expander_check,
        },
    )


def counterexample_15_7(clique_small: int = 7, clique_big: int = 100) -> Construction:
    """The pattern whose weak saturation limit 15/7 is not any gamma value:
    an augmented squared 7-cycle, disjoint from a small clique pinned to a
    big clique by two edges from distinct small-clique vertices."""
    if clique_big < clique_small:
        raise InfeasibleParamsError("big clique must dominate the small one")
    if clique_small < 3:
        raise InfeasibleParamsError("small clique needs at least 3 vertices")
    h = circulant(7, {1, 2}).with_edge(0, 3)
    f = disjoint_union(
        [h, complete_graph(clique_small), complete_graph(clique_big)]
    )
    # two distinct small-clique vertices, each tied to its own big-clique vertex
    s0 = 7
    b0 = 7 + clique_small
    f = f.with_edges([(s0, b0), (s0 + 1, b0 + 1)])
    return Construction(
        family="counterexample",
        graph=f,
        witness=tuple(range(7)),
        predicted_gamma=Fraction(2),
        params={
            "clique_small": clique_small,
            "clique_big": clique_big,
            "predicted_limit": Fraction(15, 7),
        },
    )


def counterexample_host(
    i: int, clique_small: int = 7, clique_big: int = 100
) -> Graph:
    """The i-th host of the companion family: a complete graph joined by
    one edge to each of i squared-7-cycle gadgets; edge density tends to
    15/7 exactly."""
    if i < 0:
        raise ValueError("need i >= 0")
    base = clique_small + clique_big
    gadget = circulant(7, {1, 2})
    g = disjoint_union([complete_graph(base)] + [gadget] * i)
    return g.with_edges((base + 7 * j, j % base) for j in range(i))
