"""Random regular graph expansion: the analytic condition, rigorous
best-eta search, exact isoperimetric numbers, and the configuration model.

Transcendental evaluation happens in log domain with interval arithmetic
(mpmath.iv at 120 bits), so every satisfaction claim is a directed-rounding
bracket, not a floating-point estimate: the condition counts as satisfied
only when sup(lhs) < inf(rhs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np
from mpmath import iv

from .errors import (
    BudgetExceededError,
    CapExceededError,
    ConditionUnsatisfiableError,
    ParameterRangeError,
)
from .graphs import Graph

iv.prec = 120


def _ivf(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not Fraction(0) < alpha <= Fraction(1, 2):
        raise ParameterRangeError("alpha must lie in (0, 1/2]")
    return alpha


def condition_lhs(alpha, r: int):
    """(alpha^-alpha (1-alpha)^-(1-alpha))^(1/r) as a rigorous interval."""
    alpha = _check_alpha(alpha)
    if r < 3:
        raise ParameterRangeError("degree must be at least 3")
    a = _ivf(alpha)
    ln = (-a * iv.log(a) - (1 - a) * iv.log(1 - a)) / r
    return iv.exp(ln)


def condition_rhs(alpha, eta):
    """The product side of the expansion condition as a rigorous interval.

    At eta = 1 the vanishing factor is taken with the limit convention
    0^0 = 1 (its exponent vanishes simultaneously).
    """
    alpha = _check_alpha(alpha)
    eta = Fraction(eta)
    if not Fraction(0) <= eta <= Fraction(1):
        raise ParameterRangeError("eta must lie in [0, 1]")
    a = _ivf(alpha)
    e = _ivf(eta)
    if eta == 1:
        ln1 = iv.mpf(0)
    else:
        ln1 = (1 - e) * a * (1 - a) * iv.log(1 - e)
    ln2 = (a + (1 - a) * e) * a / 2 * iv.log(1 + (1 - a) / a * e)
    ln3 = ((1 - a) + a * e) * (1 - a) / 2 * iv.log(1 + a / (1 - a) * e)
    return iv.exp(ln1 + ln2 + ln3)


@dataclass(frozen=True)
class ConditionValue:
    """One evaluation of the condition, with outward-rounded envelopes."""

    alpha: Fraction
    r: int
    eta: Fraction
    lhs_sup: float
    lhs_inf: float
    rhs_sup: float
    rhs_inf: float
    satisfied: bool  # rigorous: sup(lhs) < inf(rhs)

    @property
    def margin_lower_bound(self) -> float:
        return self.rhs_inf - self.lhs_sup


def evaluate_condition(alpha, r: int, eta) -> ConditionValue:
    alpha, eta = Fraction(alpha), Fraction(eta)
    lhs = condition_lhs(alpha, r)
    rhs = condition_rhs(alpha, eta)
    return ConditionValue(
        alpha,
        r,
        eta,
        float(lhs.b),
        float(lhs.a),
        float(rhs.b),
        float(rhs.a),
        satisfied=bool(lhs.b < rhs.a),
    )


def best_eta(alpha, r: int, tol=Fraction(1, 10**7)) -> tuple[Fraction, Fraction]:
    """Smallest eta (within tol) rigorously satisfying the condition, with
    the guaranteed expansion (1-eta) * r * (1-alpha) as an exact rational.
    """
    alpha = Fraction(alpha)
    tol = Fraction(tol)
    if tol <= 0:
        raise ParameterRangeError("tol must be positive")
    if not evaluate_condition(alpha, r, Fraction(1)).satisfied:
        raise ConditionUnsatisfiableError(
            f"condition unsatisfiable on [0,1] for alpha={alpha}, r={r}"
        )
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if evaluate_condition(alpha, r, mid).satisfied:
            hi = mid
        else:
            lo = mid
    return hi, (1 - hi) * r * (1 - alpha)


# The twelve certified alpha-ranges for degree 6 with their rounded-down
# expansion bounds; entries were rounded down at the source, so the check
# is computed >= entry, never equality.
TABLE_R6: tuple[tuple[Fraction, Fraction, Fraction], ...] = tuple(
    (Fraction(lo), Fraction(hi), Fraction(bound))
    for lo, hi, bound in [
        ("0.481", "0.5", "1.0437"),
        ("0.461", "0.481", "1.0836"),
        ("0.44", "0.461", "1.126"),
        ("0.42", "0.44", "1.171"),
        ("0.4", "0.42", "1.215"),
        ("0.375", "0.4", "1.26"),
        ("0.345", "0.375", "1.317"),
        ("0.31", "0.345", "1.389"),
        ("0.266", "0.31", "1.4756"),
        ("0.21", "0.266", "1.591"),
        ("0.13", "0.21", "1.753"),
        ("0", "0.13", "2.033"),
    ]
)


def verify_table(r: int = 6, tol=Fraction(1, 10**7), table=None) -> dict:
    """Recompute every table row: the guaranteed expansion at the top of
    each alpha range must reach the published bound, and the bound must
    cover 2.01*(1-alpha_lo). Emits one pass/fail entry per row."""
    rows = []
    all_pass = True
    for alpha_lo, alpha_hi, bound in table if table is not None else TABLE_R6:
        _, expansion = best_eta(alpha_hi, r, tol)
        row_pass = expansion >= bound and bound >= Fraction(201, 100) * (1 - alpha_lo)
        all_pass = all_pass and row_pass
        rows.append(
            {
                "alpha_lo": str(alpha_lo),
                "alpha_hi": str(alpha_hi),
                "paper_bound": str(bound),
                "computed": str(expansion),
                "computed_float": float(expansion),
                "pass": bool(row_pass),
            }
        )
    return {"r": r, "rows": rows, "all_pass": all_pass}


# -- configuration model -------------------------------------------------------


def sample_configuration(
    r: int, n: int, seed: int
) -> tuple[tuple[tuple[int, int], ...], Graph | None]:
    """One uniform pairing of r*n half-edges (cells of r per vertex) and its
    projection, which is returned only when simple; otherwise None.

    Fixed seed gives an identical pairing.
    """
    if r < 1 or n < 1:
        raise ParameterRangeError("need r >= 1 and n >= 1")
    if (r * n) % 2:
        raise ParameterRangeError("r*n must be even")
    rng = random.Random(seed)
    half = list(range(r * n))
    rng.shuffle(half)
    pairing = tuple(
        (half[2 * i], half[2 * i + 1]) for i in range(r * n // 2)
    )
    adj = [0] * n
    simple = True
    for a, b in pairing:
        u, v = a // r, b // r
        if u == v or adj[u] >> v & 1:
            simple = False
            break
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if not simple:
        return pairing, None
    return pairing, Graph._from_adj(adj)


def sample_random_regular(
    r: int, n: int, seed: int, max_attempts: int = 10**6, accept=None
) -> tuple[Graph, int]:
    """Resample configurations until the projection is simple and, when
    ``accept`` is given, ``accept(graph)`` holds; returns (graph, attempts
    used).

    Attempt i (counting from 0) draws ``sample_configuration(r, n, seed + i)``,
    so the returned graph is the one of seed ``seed + attempts - 1``.
    Raises BudgetExceededError when ``max_attempts`` attempts all fail.
    """
    for attempt in range(max_attempts):
        _, g = sample_configuration(r, n, seed + attempt)
        if g is not None and (accept is None or accept(g)):
            return g, attempt + 1
    raise BudgetExceededError(f"no admissible sample in {max_attempts} attempts")


# -- exact isoperimetric numbers ------------------------------------------------


class IsoperimetricValue(NamedTuple):
    value: Fraction
    witness: frozenset[int]


def boundary_count(g: Graph, s: Iterable[int]) -> int:
    """x(S): edges with exactly one endpoint in S."""
    smask = 0
    for v in set(s):
        smask |= 1 << v
    x = 0
    for u, v in g.edges:
        if (smask >> u & 1) != (smask >> v & 1):
            x += 1
    return x


def i_alpha_exact(g: Graph, alpha, cap: int = 26) -> IsoperimetricValue:
    """Exact min of x(S)/|S| over nonempty S with |S| <= alpha*|V|.

    All 2^n subsets are swept with a vectorized subset-sum recurrence for
    edge counts; the winning ratio is re-verified and tie-broken with exact
    integer arithmetic (smallest ratio, then smallest set, then lowest mask).
    """
    alpha = Fraction(alpha)
    if not Fraction(0) < alpha <= 1:
        raise ParameterRangeError("alpha must lie in (0, 1]")
    n = g.n
    if n == 0:
        raise ParameterRangeError("graph must have vertices")
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the enumeration cap {cap}")
    kmax = int(alpha * n)
    if kmax < 1:
        raise ParameterRangeError("size bound alpha*n admits no nonempty subset")
    size = 1 << n
    esub = np.zeros(size, dtype=np.uint16)
    degsum = np.zeros(size, dtype=np.uint16)
    popc = np.zeros(size, dtype=np.uint8)
    degs = g.degrees
    # fill masks by descending lowest set bit, so each parent mask (the set
    # minus its lowest vertex) is already computed; masks with lowest bit b
    # form the strided slice [2^b :: 2^(b+1)]
    for b in range(n - 1, -1, -1):
        step = 1 << (b + 1)
        hi = np.arange(size >> (b + 1), dtype=np.uint32) << (b + 1)
        inter = np.bitwise_count(hi & np.uint32(g.adj_mask(b) & (size - 1)))
        esub[1 << b :: step] = esub[::step] + inter.astype(np.uint16)
        degsum[1 << b :: step] = degsum[::step] + np.uint16(degs[b])
        popc[1 << b :: step] = popc[::step] + np.uint8(1)
    x = degsum.astype(np.int32) - 2 * esub.astype(np.int32)
    valid = (popc >= 1) & (popc <= kmax)
    masks = np.nonzero(valid)[0]
    xv = x[masks]
    kv = popc[masks].astype(np.int64)
    xv64 = xv.astype(np.int64)
    j = int(np.argmin(xv / kv.astype(np.float64)))
    best = Fraction(int(xv[j]), int(kv[j]))
    while True:
        better = xv64 * best.denominator < best.numerator * kv
        if not better.any():
            break
        idx = np.nonzero(better)[0]
        jj = idx[int(np.argmin(xv64[idx] / kv[idx].astype(np.float64)))]
        best = Fraction(int(xv64[jj]), int(kv[jj]))
    ties = np.nonzero(xv64 * best.denominator == best.numerator * kv)[0]
    order = np.lexsort((masks[ties], kv[ties]))
    wmask = int(masks[ties[order[0]]])
    witness = frozenset(v for v in range(n) if wmask >> v & 1)
    return IsoperimetricValue(best, witness)
