"""Parametrized pattern families realizing prescribed gamma values.

Four regimes: 2-edge-connected regular circulants for the sparse values
delta/2 - 1/k; subdivided Moebius ladders (minimum degree 3) and subdivided
squared cycles (minimum degree 4) pinned to a clique for dense rational
targets; and regular expanders pinned to a clique for minimum degree >= 6.
Each construction carries its designated witness set and the target gamma
as exact rationals, so the identities can be re-checked by the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .errors import InfeasibleParamsError
from .expander import i_alpha_exact, sample_random_regular
from .graphs import Graph, circulant, complete_graph, disjoint_union, subdivide


@dataclass(frozen=True)
class ConstructionParams:
    delta: int
    ratio: Fraction
    k: int
    p: int = 1
    t: int = 0


@dataclass(frozen=True)
class Construction:
    family: str
    graph: Graph
    witness: tuple[int, ...]
    predicted_gamma: Fraction
    params: dict = field(default_factory=dict)

    def as_report(self) -> dict:
        from .graphs import graph_to_graph6

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


def solve_params(delta: int, ratio, k_min: int | None = None) -> ConstructionParams:
    """Smallest valid (k, p, t) for the subdivision constructions.

    Picks the unique subdivision base p whose ratio window contains the
    target, then the smallest admissible k >= k_min meeting the parity and
    congruence constraints that make t an integer in range.
    """
    ratio = Fraction(ratio)
    a, b = ratio.numerator, ratio.denominator
    if delta == 3:
        if not Fraction(3, 2) <= ratio < 2:
            raise InfeasibleParamsError("delta=3 needs ratio in [3/2, 2)")
        p = 1
        while not Fraction(6 * p - 3, 3 * p - 1) <= ratio < Fraction(6 * p + 3, 3 * p + 2):
            p += 1
        modulus = 4 * b - 2 * a
        k = max(k_min or 4, 4)
        if k % 2:
            k += 1
        while True:
            if (k + 2) % modulus == 0:
                t_num = k * ((3 * p - 1) * a - (6 * p - 3) * b) + 2 * b
                if t_num % modulus == 0:
                    t = t_num // modulus
                    if 0 <= t <= 3 * k // 2:
                        return ConstructionParams(3, ratio, k, p, t)
            k += 2
    elif delta == 4:
        if not Fraction(2) <= ratio < 3:
            raise InfeasibleParamsError("delta=4 needs ratio in [2, 3)")
        p = 1
        while not Fraction(6 * p - 4, 2 * p - 1) <= ratio < Fraction(6 * p + 2, 2 * p + 1):
            p += 1
        modulus = 3 * b - a
        k = max(k_min or 5, 5)
        while True:
            if k % 2 and (k + 1) % modulus == 0:
                t_num = k * ((2 * p - 1) * a - (6 * p - 4) * b) + b
                if t_num % modulus == 0:
                    t = t_num // modulus
                    if 0 <= t <= 2 * k:
                        return ConstructionParams(4, ratio, k, p, t)
            k += 1
    else:
        raise InfeasibleParamsError("solve_params handles delta 3 and 4 only")


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
    for v, slot in pendants:
        f = f.with_edge(v, gadget.n + slot)
    return f


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
    delta, ratio, k, p, t = params.delta, params.ratio, params.k, params.p, params.t
    if delta != 3:
        raise InfeasibleParamsError("params are not for the delta=3 family")
    if k < 4 or k % 2 or not 0 <= t <= 3 * k // 2 or p < 1:
        raise InfeasibleParamsError(f"invalid delta=3 params: k={k}, p={p}, t={t}")
    g = circulant(k, {1, k // 2})
    long_edges = [(i, i + k // 2) for i in range(k // 2)]
    outer_edges = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    if t <= k // 2:
        longer = {long_edges[i] for i in spread_indices(k // 2, t)}
    else:
        longer = set(long_edges)
        longer |= {outer_edges[i] for i in spread_indices(k, t - k // 2)}
    schedule = {e: (p + 1 if e in longer else p) for e in g.edges}
    gp, groups = subdivide(g, schedule)
    internal = [v for e in sorted(groups) for v in groups[e]]
    if clique_size is None:
        clique_size = 3 * gp.n + delta + 2
    f = _attach_pendants(gp, clique_size, [(v, i) for i, v in enumerate(internal)])
    expect_n = k * (3 * p - 1) // 2 + t
    expect_m = k * (6 * p - 3) // 2 + 2 * t
    assert gp.n == expect_n and len(internal) == expect_n - k
    gamma = Fraction(expect_m - 1, expect_n)
    if gamma != ratio:
        raise InfeasibleParamsError(
            f"t={t} does not realize gamma={ratio} (got {gamma})"
        )
    return Construction(
        family="delta3",
        graph=f,
        witness=tuple(range(gp.n)),
        predicted_gamma=gamma,
        params={
            "delta": 3, "ratio": ratio, "k": k, "p": p, "t": t,
            "clique_size": clique_size,
        },
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
    delta, ratio, k, p, t = params.delta, params.ratio, params.k, params.p, params.t
    if delta != 4:
        raise InfeasibleParamsError("params are not for the delta=4 family")
    if k < 5 or k % 2 == 0 or not 0 <= t <= 2 * k or p < 1:
        raise InfeasibleParamsError(f"invalid delta=4 params: k={k}, p={p}, t={t}")
    g = circulant(k, {1, 2})
    short_edges = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    long_edges = [tuple(sorted((i, (i + 2) % k))) for i in range(k)]
    if t <= k:
        longer = {short_edges[i] for i in spread_indices(k, t)}
    else:
        longer = set(short_edges)
        longer |= {long_edges[i] for i in spread_indices(k, t - k)}
    schedule = {e: (p + 1 if e in longer else p) for e in g.edges}
    gp, groups = subdivide(g, schedule)
    internal = [v for e in sorted(groups) for v in groups[e]]
    if clique_size is None:
        clique_size = 3 * gp.n + delta + 2
    pendants = []
    for i, v in enumerate(internal):
        pendants.append((v, 2 * i))
        pendants.append((v, 2 * i + 1))
    f = _attach_pendants(gp, clique_size, pendants)
    expect_n = k * (2 * p - 1) + t
    expect_m = k * (6 * p - 4) + 3 * t
    assert gp.n == expect_n and len(internal) == expect_n - k
    gamma = Fraction(expect_m - 1, expect_n)
    if gamma != ratio:
        raise InfeasibleParamsError(
            f"t={t} does not realize gamma={ratio} (got {gamma})"
        )
    return Construction(
        family="delta4",
        graph=f,
        witness=tuple(range(gp.n)),
        predicted_gamma=gamma,
        params={
            "delta": 4, "ratio": ratio, "k": k, "p": p, "t": t,
            "clique_size": clique_size,
        },
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
    seed + i): it is resampled until simple and, when ``expander_check`` is
    on, until i_alpha exceeds 2.01*(1-alpha) for alpha in {0.1, 0.5, t/k}
    (exact check, so k must stay enumerable).
    """
    if delta < 6:
        raise InfeasibleParamsError("this family needs delta >= 6")
    ratio = Fraction(ratio)
    a, b = ratio.numerator, ratio.denominator
    if not Fraction(delta, 2) <= ratio <= Fraction(delta, 2) + Fraction(1, 2):
        raise InfeasibleParamsError("ratio must lie in [delta/2, delta/2 + 1/2]")
    if k % 2 or k % b:
        raise InfeasibleParamsError("k must be an even multiple of the denominator")
    t_frac = k * (ratio - Fraction(delta, 2)) + 1
    if t_frac.denominator != 1:
        raise InfeasibleParamsError("t is not an integer for these parameters")
    t = int(t_frac)
    if not 0 < t <= k // 2 + 1:
        raise InfeasibleParamsError(f"t={t} outside (0, k/2+1]")
    alphas = sorted({Fraction(1, 10), Fraction(1, 2), Fraction(t, k)})

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
    f = f.with_edge(s0, b0).with_edge(s0 + 1, b0 + 1)
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
    for j in range(i):
        g = g.with_edge(base + 7 * j, j % base)
    return g
