"""Random regular graph expansion: the analytic condition, rigorous
best-eta search, exact isoperimetric numbers, and the configuration model.

Transcendental evaluation happens in log domain with interval arithmetic
(mpmath.iv at 120 bits), so every satisfaction claim is a directed-rounding
bracket, not a floating-point estimate: the condition counts as satisfied
only when sup(lhs) < inf(rhs). Each evaluation sets ``mpmath.iv.prec`` to
120 bits, so the brackets do not depend on what a caller left there.

numpy (for ``i_alpha_exact``) and mpmath (for the condition) are imported
on first use, so importing this module, or any module that imports it,
loads neither.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    BudgetExceededError,
    CapExceededError,
    ConditionUnsatisfiableError,
    ParameterRangeError,
)
from .graphs import Graph, _vertex_subset


def _iv():
    """mpmath's interval context, at 120 bits."""
    from mpmath import iv

    iv.prec = 120
    return iv


def _ivf(x: Fraction):
    iv = _iv()
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
    iv = _iv()
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
    iv = _iv()
    a = _ivf(alpha)
    e = _ivf(eta)
    if eta == 1:
        ln1 = iv.mpf(0)
    else:
        ln1 = (1 - e) * a * (1 - a) * iv.log(1 - e)
    ln2 = (a + (1 - a) * e) * a / 2 * iv.log(1 + (1 - a) / a * e)
    ln3 = ((1 - a) + a * e) * (1 - a) / 2 * iv.log(1 + a / (1 - a) * e)
    return iv.exp(ln1 + ln2 + ln3)


class ConditionValue(NamedTuple):
    """One evaluation of the condition, with outward-rounded envelopes."""

    alpha: Fraction
    r: int
    eta: Fraction
    lhs_sup: float
    lhs_inf: float
    rhs_sup: float
    rhs_inf: float
    satisfied: bool  # rigorous: sup(lhs) < inf(rhs)


def _outward(x) -> tuple[float, float]:
    """sup(x) and inf(x) as floats rounded outward, in that order."""
    from mpmath.libmp import to_rational

    lo, hi = (Fraction(*to_rational(e)) for e in x._mpi_)
    inf, sup = float(lo), float(hi)  # rounded to nearest
    return (sup if sup >= hi else math.nextafter(sup, math.inf),
            inf if inf <= lo else math.nextafter(inf, -math.inf))


def evaluate_condition(alpha, r: int, eta) -> ConditionValue:
    alpha, eta = Fraction(alpha), Fraction(eta)
    lhs = condition_lhs(alpha, r)
    rhs = condition_rhs(alpha, eta)
    return ConditionValue(
        alpha,
        r,
        eta,
        *_outward(lhs),
        *_outward(rhs),
        satisfied=bool(lhs.b < rhs.a),
    )


def best_eta(alpha, r: int, tol=Fraction(1, 10**7)) -> tuple[Fraction, Fraction]:
    """Smallest eta (within tol) rigorously satisfying the condition, with
    the guaranteed expansion (1-eta) * r * (1-alpha) as an exact rational.
    The lhs does not depend on eta, so it is evaluated once per call; each
    step tests sup(lhs) < inf(rhs), the rigorous test of evaluate_condition.
    """
    alpha = Fraction(alpha)
    tol = Fraction(tol)
    if tol <= 0:
        raise ParameterRangeError("tol must be positive")
    lhs_sup = condition_lhs(alpha, r).b
    if not lhs_sup < condition_rhs(alpha, 1).a:
        raise ConditionUnsatisfiableError(
            f"condition unsatisfiable on [0,1] for alpha={alpha}, r={r}"
        )
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if lhs_sup < condition_rhs(alpha, mid).a:
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


def verify_table(table=None) -> dict:
    """Recompute every row of the degree-6 table: the guaranteed expansion
    at the top of each alpha range must reach the published bound, and the
    bound must cover 2.01*(1-alpha_lo). Emits one pass/fail entry per row."""
    rows = []
    all_pass = True
    for alpha_lo, alpha_hi, bound in table if table is not None else TABLE_R6:
        _, expansion = best_eta(alpha_hi, 6)
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
    return {"r": 6, "rows": rows, "all_pass": all_pass}


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
    so the graph is that of seed s = ``seed + attempts - 1``, which every start
    seed from ``seed`` to s also returns; start at s + 1 for another graph.
    Raises BudgetExceededError when ``max_attempts`` attempts all fail.
    """
    if max_attempts < 1:
        raise ParameterRangeError("max_attempts must be at least 1")
    for attempt in range(max_attempts):
        _, g = sample_configuration(r, n, seed + attempt)
        if g is not None and (accept is None or accept(g)):
            return g, attempt + 1
    raise BudgetExceededError(f"no admissible sample in {max_attempts} attempts")


# -- exact isoperimetric numbers ------------------------------------------------


_CHUNK = 1 << 14  # masks per block of the i_alpha_exact sweep


class IsoperimetricValue(NamedTuple):
    value: Fraction
    witness: frozenset[int]


def boundary_count(g: Graph, s: Iterable[int]) -> int:
    """x(S): edges with exactly one endpoint in S, the sum of |N(v) - S|
    over v in S."""
    s, smask = _vertex_subset(g, s)
    adj = g._adj
    return sum((adj[v] & ~smask).bit_count() for v in s)


def i_alpha_exact(g: Graph, alpha, cap: int = 26) -> IsoperimetricValue:
    """Exact min of x(S)/|S| over nonempty S with |S| <= alpha*|V|.

    The boundary count x(S) of all 2^n subsets fills one int16 array by
    top-bit doubling, x(S + b) = x(S) + deg(b) - 2|N(b) & S| for S below b.
    With L = lcm(1..kmax), each admissible S gets the integer key
    x(S)*(L/|S|)*(n+1) + |S|, and keys order sets by ratio, then by size.
    The sweep takes the first minimal key in ascending mask order, in chunks
    of ``_CHUNK`` masks, so the tie-break is smallest ratio, then smallest
    set, then lowest mask, and all selection arithmetic is exact integer
    arithmetic. Memory is two bytes per subset plus one chunk.

    Raises CapExceededError, before allocating, when n exceeds ``cap`` or
    when a key could overflow int64.
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
    lcm = math.lcm(*range(1, kmax + 1))
    top = (1 << 63) - 1  # the int64 maximum
    # x(S) <= |E|, and the key of a set of size k is at most
    # |E|*lcm*(n+1) + k; keys must stay below the sentinel ``top``
    if g.num_edges * lcm * (n + 1) + kmax >= top:
        raise CapExceededError(
            f"isoperimetric keys overflow int64 at n={n}, |S| <= {kmax}"
        )
    import numpy as np

    x = np.zeros(1 << n, dtype=np.int16)
    for b in range(n):
        h = 1 << b
        nb = g.adj_mask(b) & (h - 1)
        for lo in range(0, h, _CHUNK):
            hi = min(lo + _CHUNK, h)
            inside = np.bitwise_count(np.arange(lo, hi) & nb)
            x[h + lo : h + hi] = x[lo:hi] + g.degree(b) - 2 * inside
    # per-size key parts: sizes outside 1..kmax get scale 0 and the sentinel
    scale = np.zeros(n + 1, dtype=np.int64)
    offset = np.full(n + 1, top, dtype=np.int64)
    for k in range(1, kmax + 1):
        scale[k] = lcm // k * (n + 1)
        offset[k] = k
    best_key, wmask = top, 0
    for lo in range(0, 1 << n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << n)
        k = np.bitwise_count(np.arange(lo, hi))
        key = scale[k] * x[lo:hi] + offset[k]
        j = int(np.argmin(key))
        if key[j] < best_key:
            best_key, wmask = int(key[j]), lo + j
    witness = frozenset(v for v in range(n) if wmask >> v & 1)
    return IsoperimetricValue(Fraction(int(x[wmask]), len(witness)), witness)
