"""best_eta and verify_table as they stood when every bisection step called
evaluate_condition, which recomputes the eta-free lhs, kept verbatim as a
reference. The current search evaluates the lhs once per call; both must
return the same eta and expansion, or raise the same error, and the same
table report.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from wsatlab import expander
from wsatlab.errors import ConditionUnsatisfiableError, ParameterRangeError
from wsatlab.expander import TABLE_R6, best_eta, evaluate_condition, verify_table


def reference_best_eta(
    alpha, r: int, tol=Fraction(1, 10**7)
) -> tuple[Fraction, Fraction]:
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


def reference_verify_table(tol=Fraction(1, 10**7), table=None) -> dict:
    """Recompute every row of the degree-6 table: the guaranteed expansion
    at the top of each alpha range must reach the published bound, and the
    bound must cover 2.01*(1-alpha_lo). Emits one pass/fail entry per row."""
    rows = []
    all_pass = True
    for alpha_lo, alpha_hi, bound in table if table is not None else TABLE_R6:
        _, expansion = reference_best_eta(alpha_hi, 6, tol)
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


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ConditionUnsatisfiableError, ParameterRangeError) as exc:
        return type(exc), str(exc)


ALPHAS = ["1/2", "2/5", "1/3", "1/4", "0.13", "0.3", "0.05", "0.481"]


@pytest.mark.parametrize("r", [3, 4, 5, 6, 8])
def test_best_eta_matches_reference(r):
    for alpha in map(Fraction, ALPHAS):
        assert outcome(best_eta, alpha, r) == outcome(reference_best_eta, alpha, r)
    # the tolerance still steers the search, and bad input fails the same way
    for args in [("1/2", r, Fraction(1, 1000)), ("1/2", r, 0), ("0", r), ("1/2", 2)]:
        assert outcome(best_eta, *args) == outcome(reference_best_eta, *args)


def test_wide_brackets_are_read_rigorously(monkeypatch):
    # at 120 bits both brackets are far narrower than the bisection step, so
    # widen them: both searches must then test sup(lhs) against inf(rhs)
    lhs, rhs = expander.condition_lhs, expander.condition_rhs

    def widen(side):
        return lambda *args: side(*args) + expander._iv().mpf([-0.01, 0.01])

    monkeypatch.setattr(expander, "condition_lhs", widen(lhs))
    monkeypatch.setattr(expander, "condition_rhs", widen(rhs))
    for alpha in map(Fraction, ALPHAS):
        assert outcome(best_eta, alpha, 6) == outcome(reference_best_eta, alpha, 6)


def test_verify_table_matches_reference():
    assert verify_table() == reference_verify_table()
    corrupted = list(TABLE_R6)
    corrupted[3] = (Fraction("0.42"), Fraction("0.44"), Fraction("1.3"))
    assert verify_table(table=corrupted) == reference_verify_table(table=corrupted)
