import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp
from mpmath.libmp import to_rational

import wsatlab
from wsatlab.errors import BudgetExceededError, CapExceededError, ParameterRangeError
from wsatlab.expander import (
    TABLE_R6,
    best_eta,
    boundary_count,
    condition_lhs,
    condition_rhs,
    evaluate_condition,
    i_alpha_exact,
    sample_configuration,
    sample_random_regular,
    verify_table,
)
from wsatlab.graphs import Graph, complete_graph, cycle_graph, disjoint_union


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports wsatlab from this
    checkout; returns its stdout."""
    src = os.path.dirname(os.path.dirname(wsatlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_lhs_values():
    l = condition_lhs(Fraction(1, 2), 6)
    ref = mp.root(2, 6)
    assert abs(float(l.a) - float(ref)) < 1e-12
    assert l.a <= l.b and float(l.b) - float(l.a) < 1e-15
    tiny = condition_lhs(Fraction(1, 10**6), 6)
    assert abs(float(tiny.a) - 1) < 1e-4
    with pytest.raises(ValueError):
        condition_lhs(Fraction(3, 5), 6)
    with pytest.raises(ValueError):
        condition_lhs(Fraction(1, 2), 2)


def test_rhs_values():
    r = condition_rhs(Fraction(1, 3), Fraction(0))
    assert abs(float(r.a) - 1) < 1e-25
    r1 = condition_rhs(Fraction(1, 3), Fraction(1))  # 0^0 -> 1 convention
    assert float(r1.a) > 1
    with pytest.raises(ValueError):
        condition_rhs(Fraction(1, 3), Fraction(3, 2))


def test_rhs_alpha_half_specialization():
    # at alpha = 1/2 the product collapses to ((1-h)^(1-h) (1+h)^(1+h))^(1/4)
    for eta in (Fraction(1, 4), Fraction(3, 5), Fraction(9, 10)):
        got = condition_rhs(Fraction(1, 2), eta)
        h = mp.mpf(eta.numerator) / eta.denominator
        want = ((1 - h) ** (1 - h) * (1 + h) ** (1 + h)) ** mp.mpf(0.25)
        assert abs(float(got.a) - float(want)) < 1e-12


def test_condition_value_is_rigorous():
    cv = evaluate_condition(Fraction(1, 2), 6, Fraction(7, 10))
    assert cv.lhs_inf <= cv.lhs_sup and cv.rhs_inf <= cv.rhs_sup
    if cv.satisfied:
        assert cv.lhs_sup < cv.rhs_inf


def exact(point):
    return Fraction(*to_rational(point._mpi_[0]))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000)
    .filter(lambda a: a > 0),
    st.integers(3, 8),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
def test_condition_floats_enclose_the_intervals(alpha, r, eta):
    # each float endpoint lies outside its 120-bit interval, and is the
    # nearest float that does
    cv = evaluate_condition(alpha, r, eta)
    for x, inf, sup in [
        (condition_lhs(alpha, r), cv.lhs_inf, cv.lhs_sup),
        (condition_rhs(alpha, eta), cv.rhs_inf, cv.rhs_sup),
    ]:
        assert inf <= exact(x.a) < math.nextafter(inf, math.inf)
        assert math.nextafter(sup, -math.inf) < exact(x.b) <= sup
    if cv.lhs_sup < cv.rhs_inf:
        assert cv.satisfied


def test_condition_verdicts_on_the_eta_oracle_grid():
    # the verdict stays the 120-bit test sup(lhs) < inf(rhs); the float
    # brackets only report it
    alphas = ["1/2", "2/5", "1/3", "1/4", "0.13", "0.3", "0.05", "0.481"]
    for alpha in map(Fraction, alphas):
        for r in (3, 4, 5, 6, 8):
            lhs = condition_lhs(alpha, r)
            for eta in (Fraction(k, 20) for k in range(21)):
                cv = evaluate_condition(alpha, r, eta)
                assert cv.satisfied == (lhs.b < condition_rhs(alpha, eta).a)
                assert cv.lhs_inf < cv.lhs_sup  # no bracket collapses to a point


def test_precision_ignores_caller_iv_prec(monkeypatch):
    before = (
        evaluate_condition(Fraction(1, 2), 6, Fraction(7, 10)),
        best_eta(Fraction(3, 10), 6),
        verify_table(table=TABLE_R6[:1]),
    )
    monkeypatch.setattr(iv, "prec", 20)
    after = (
        evaluate_condition(Fraction(1, 2), 6, Fraction(7, 10)),
        best_eta(Fraction(3, 10), 6),
        verify_table(table=TABLE_R6[:1]),
    )
    assert after == before


def test_best_eta_table_rows():
    eta, expansion = best_eta(Fraction(1, 2), 6)
    assert expansion >= Fraction("1.0437")
    assert expansion == (1 - eta) * 6 * Fraction(1, 2)
    _, expansion = best_eta(Fraction("0.13"), 6)
    assert expansion >= Fraction("2.033")
    with pytest.raises(ValueError):
        best_eta(Fraction(1, 2), 6, tol=0)


def test_expansion_monotone_in_alpha():
    _, x3 = best_eta(Fraction(3, 10), 6)
    _, x5 = best_eta(Fraction(1, 2), 6)
    assert x3 >= x5


def test_verify_table_passes():
    rep = verify_table()
    assert rep["all_pass"] and len(rep["rows"]) == 12
    for row in rep["rows"]:
        assert row["pass"]
        assert Fraction(row["computed"]) >= Fraction(row["paper_bound"])


def test_verify_table_negative_control():
    corrupted = list(TABLE_R6)
    corrupted[3] = (Fraction("0.42"), Fraction("0.44"), Fraction("1.3"))
    rep = verify_table(table=corrupted)
    assert not rep["all_pass"]
    assert [r["pass"] for r in rep["rows"]].count(False) == 1


def test_sample_configuration_determinism():
    p1, g1 = sample_configuration(3, 20, 42)
    p2, g2 = sample_configuration(3, 20, 42)
    assert p1 == p2 and g1 == g2
    with pytest.raises(ValueError):
        sample_configuration(3, 5, 0)  # odd r*n


def test_sample_projection_matches_pairing():
    pairing, g = sample_configuration(3, 8, seed=11)
    if g is not None:
        edges = {tuple(sorted((a // 3, b // 3))) for a, b in pairing}
        assert edges == set(g.edges)


def test_acceptance_rate_bounded_away_from_zero():
    accepted = 0
    for seed in range(300):
        _, g = sample_configuration(3, 20, seed)
        if g is not None:
            accepted += 1
            assert set(g.degrees) == {3}
    assert accepted >= 10


def test_sample_random_regular():
    g, attempts = sample_random_regular(6, 24, seed=7)
    assert set(g.degrees) == {6} and attempts >= 1
    g2, _ = sample_random_regular(6, 24, seed=7)
    assert g2 == g
    # attempt i draws seed + i
    assert sample_configuration(6, 24, 7 + attempts - 1)[1] == g
    with pytest.raises(BudgetExceededError):
        sample_random_regular(3, 8, seed=0, max_attempts=5, accept=lambda g: False)
    for cap in (0, -1):
        with pytest.raises(ParameterRangeError):
            sample_random_regular(3, 8, seed=0, max_attempts=cap)


def test_i_alpha_examples():
    assert i_alpha_exact(complete_graph(4), Fraction(1, 2)).value == 2
    assert i_alpha_exact(cycle_graph(6), Fraction(1, 2)).value == Fraction(2, 3)
    g = disjoint_union([complete_graph(3), complete_graph(5)])
    res = i_alpha_exact(g, Fraction(1, 2))
    assert res.value == 0 and res.witness == frozenset({0, 1, 2})
    with pytest.raises(CapExceededError):
        i_alpha_exact(complete_graph(4), Fraction(1, 2), cap=3)
    with pytest.raises(ValueError):
        i_alpha_exact(complete_graph(4), Fraction(1, 8))


def brute_i_alpha(g, alpha):
    """(value, witness) by enumeration, with the documented tie-break:
    smallest ratio, then smallest set, then lowest mask."""
    kmax = int(Fraction(alpha) * g.n)
    best = None
    for k in range(1, kmax + 1):
        for s in itertools.combinations(range(g.n), k):
            key = (Fraction(boundary_count(g, s), k), k, sum(1 << v for v in s))
            if best is None or key < best[0]:
                best = (key, frozenset(s))
    return best[0][0], best[1]


def test_i_alpha_against_brute():
    rng = random.Random(11)
    cases = []
    for _ in range(25):
        n = rng.randint(3, 9)
        cases.append((rand_graph(rng, n, 0.5), Fraction(rng.randint(1, n), n)))
    # tie-heavy inputs: many sets share the minimal ratio
    for g in (
        Graph(7, []),
        complete_graph(7),
        cycle_graph(8),
        cycle_graph(9),
        disjoint_union([complete_graph(3)] * 3),
        disjoint_union([complete_graph(2), complete_graph(4), complete_graph(2)]),
    ):
        cases += [(g, Fraction(k, g.n)) for k in range(1, g.n + 1)]
    for g, alpha in cases:
        got = i_alpha_exact(g, alpha)
        assert (got.value, got.witness) == brute_i_alpha(g, alpha)
        assert boundary_count(g, got.witness) == got.value * len(got.witness)
        assert len(got.witness) <= alpha * g.n


def test_i_alpha_memory_is_bounded():
    # two bytes per subset, 32 MB for the 2^24 sets at n=24, plus one chunk
    out = run_fresh(
        "import resource; from fractions import Fraction; "
        "from wsatlab.expander import i_alpha_exact, sample_random_regular; "
        "g, _ = sample_random_regular(6, 24, seed=3); "
        "i_alpha_exact(g, Fraction(1, 2)); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    assert int(out) < 250 * 1024  # ru_maxrss is in KiB on Linux


def test_i_alpha_errors_raise_before_numpy_loads():
    # a fresh process, so numpy is loaded only if i_alpha_exact loads it
    out = run_fresh(
        "import sys; from fractions import Fraction; "
        "from wsatlab.errors import CapExceededError, ParameterRangeError; "
        "from wsatlab.expander import i_alpha_exact; "
        "from wsatlab.graphs import Graph, complete_graph\n"
        "cases = [(complete_graph(4), Fraction(0), {}, ParameterRangeError), "
        "(Graph(0, []), Fraction(1, 2), {}, ParameterRangeError), "
        "(complete_graph(30), Fraction(1, 2), {}, CapExceededError), "
        "(complete_graph(64), Fraction(1), {'cap': 64}, CapExceededError)]\n"
        "for g, alpha, kw, error in cases:\n"
        "    try:\n"
        "        i_alpha_exact(g, alpha, **kw)\n"
        "    except error:\n"
        "        print('numpy' in sys.modules)\n"
    )
    assert out.split() == ["False"] * 4


def test_importing_wsatlab_loads_neither_numpy_nor_mpmath():
    # nor the dataclass machinery: the records are NamedTuples
    out = run_fresh(
        "import sys, wsatlab, wsatlab.cli, wsatlab.constructions, "
        "wsatlab.extremal, wsatlab.percolation; "
        "print(sorted({'numpy', 'mpmath', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_i_alpha_key_overflow_raises_before_allocating():
    # lcm(1..64) * 2016 edges * 65 > 2^63; an array of 2^64 subsets cannot
    # be made at all, so any allocation before the guard raises another error
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            i_alpha_exact(complete_graph(64), Fraction(1), cap=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_boundary_additivity():
    rng = random.Random(17)
    for _ in range(25):
        g = rand_graph(rng, rng.randint(2, 10), 0.5)
        s = [v for v in range(g.n) if rng.random() < 0.5]
        smask = set(s)
        internal = sum(1 for u, v in g.edges if u in smask and v in smask)
        assert boundary_count(g, s) == sum(g.degree(v) for v in s) - 2 * internal
        # the edge walk, over a list with repeats; a label outside g raises
        walk = sum(1 for u, v in g.edges if (u in smask) != (v in smask))
        assert boundary_count(g, s + s[:2]) == walk
        for bad in (g.n, -1):
            with pytest.raises(ValueError, match=f"^vertex {bad} outside graph$"):
                boundary_count(g, s + [bad])
