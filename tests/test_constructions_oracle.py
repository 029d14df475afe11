"""The delta=3 and delta=4 subdivision families as they stood before both
were folded onto one shared builder and one k-scan, kept verbatim as a
reference: the current code must return the same parameters, the same
constructions and the same errors.
"""

from __future__ import annotations

from fractions import Fraction

from wsatlab import constructions
from wsatlab.constructions import (
    Construction,
    ConstructionParams,
    _attach_pendants,
    spread_indices,
)
from wsatlab.errors import InfeasibleParamsError
from wsatlab.graphs import circulant, subdivide


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


# -- the comparison ------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # errors are compared too
        return type(exc), str(exc)


def built(fn, params, clique_size):
    con = outcome(fn, params, clique_size=clique_size)
    if isinstance(con, Construction):
        return con.as_report(), con.witness
    return con


# per delta: ratios inside, at the edges of and outside each window
RATIOS = {
    3: ["3/2", "8/5", "5/3", "7/4", "9/5", "11/6", "13/7", "15/8", "2",
        "7/5", "1", "9/4"],
    4: ["2", "9/4", "7/3", "12/5", "5/2", "13/5", "8/3", "11/4", "14/5",
        "3", "19/10", "7/2"],
}
BUILDERS = {3: (build_delta3, constructions.build_delta3),
            4: (build_delta4, constructions.build_delta4)}


def test_solve_params_and_builders_match_oracle():
    cases = 0
    for delta, ratios in RATIOS.items():
        old_build, new_build = BUILDERS[delta]
        other_old, other_new = BUILDERS[7 - delta]
        for text in ratios:
            ratio = Fraction(text)
            for k_min in (None, 0, 6, 9, 20):
                old = outcome(solve_params, delta, ratio, k_min)
                assert outcome(constructions.solve_params, delta, ratio, k_min) == old
                cases += 1
                if not isinstance(old, ConstructionParams):
                    continue
                bumped = ConstructionParams(delta, ratio, old.k, old.p, old.t + 1)
                for params in (old, bumped):
                    for clique_size in (None, 0, 3, 40):
                        assert built(new_build, params, clique_size) == built(
                            old_build, params, clique_size)
                        cases += 1
                assert built(other_new, old, None) == built(other_old, old, None)
    assert cases > 500


def test_builders_match_oracle_on_hand_made_params():
    grid = [
        ConstructionParams(3, Fraction(3, 2), 8, 1, 2),
        ConstructionParams(3, Fraction(3, 2), 7, 1, 2),
        ConstructionParams(3, Fraction(3, 2), 8, 0, 2),
        ConstructionParams(3, Fraction(3, 2), 8, 1, 13),
        ConstructionParams(3, Fraction(3, 2), 2, 1, 0),
        ConstructionParams(3, Fraction(5, 3), 8, 2, 0),
        ConstructionParams(4, Fraction(2), 9, 1, 1),
        ConstructionParams(4, Fraction(2), 10, 1, 1),
        ConstructionParams(4, Fraction(2), 9, 1, -1),
        ConstructionParams(4, Fraction(2), 9, 1, 19),
        ConstructionParams(4, Fraction(8, 3), 9, 3, 0),
        ConstructionParams(5, Fraction(3), 9, 1, 0),
    ]
    for params in grid:
        for old_build, new_build in BUILDERS.values():
            for clique_size in (None, 1, 30):
                assert built(new_build, params, clique_size) == built(
                    old_build, params, clique_size)
    assert outcome(constructions.solve_params, 5, Fraction(3)) == outcome(
        solve_params, 5, Fraction(3))
