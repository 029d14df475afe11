from fractions import Fraction

import pytest

from wsatlab.constructions import (
    build_delta3,
    build_delta4,
    build_high_delta,
    counterexample_15_7,
    counterexample_host,
    solve_params,
    sparse_family,
    spread_indices,
)
from wsatlab.errors import InfeasibleParamsError, ParameterRangeError
from wsatlab.extremal import gamma_min_ratio, gamma_of_set, m_f
from wsatlab.graphs import graph6_to_graph, graph_to_graph6


def test_spread_indices():
    assert spread_indices(4, 2) == [0, 2]
    assert spread_indices(5, 2) == [0, 3]  # round(2.5) is half-up
    assert spread_indices(6, 6) == [0, 1, 2, 3, 4, 5]
    assert spread_indices(10, 0) == []
    idx = spread_indices(9, 4)
    assert len(set(idx)) == 4 and all(0 <= i < 9 for i in idx)
    with pytest.raises(InfeasibleParamsError):
        spread_indices(3, 4)


def test_solve_params_delta3():
    p = solve_params(3, Fraction(3, 2), 8)
    assert (p.k, p.p, p.t) == (8, 1, 2)
    p = solve_params(3, Fraction(7, 4), 8)
    assert p.p == 1 and p.t == p.k + 4
    p = solve_params(3, Fraction(8, 5))
    assert p.k % 2 == 0 and 0 <= p.t <= 3 * p.k // 2
    with pytest.raises(InfeasibleParamsError):
        solve_params(3, Fraction(2))
    with pytest.raises(InfeasibleParamsError):
        solve_params(3, Fraction(7, 5))
    with pytest.raises(InfeasibleParamsError):
        solve_params(5, Fraction(2))


def test_solve_params_delta4():
    p = solve_params(4, Fraction(2), 9)
    assert p.p == 1 and p.t == 1 and p.k % 2 == 1
    p = solve_params(4, Fraction(8, 3))
    assert p.p == 2  # 8/3 opens the second subdivision window
    with pytest.raises(InfeasibleParamsError):
        solve_params(4, Fraction(3))


def test_sparse_family_values():
    for delta, k in [(3, 8), (2, 5), (4, 5)]:
        con = sparse_family(delta, k)
        assert con.predicted_gamma == Fraction(delta, 2) - Fraction(1, k)
        assert set(con.graph.degrees) == {delta}
        assert gamma_min_ratio(con.graph).value == con.predicted_gamma
    with pytest.raises(InfeasibleParamsError):
        sparse_family(3, 7)
    with pytest.raises(InfeasibleParamsError):
        sparse_family(4, 4)


@pytest.mark.parametrize("ratio", [Fraction(3, 2), Fraction(8, 5), Fraction(7, 4)])
def test_delta3_construction(ratio):
    params = solve_params(3, ratio)
    con = build_delta3(params)
    f = con.graph
    assert f.min_degree == 3
    assert gamma_of_set(f, con.witness) == ratio
    gadget_n = params.k * (3 * params.p - 1) // 2 + params.t
    assert len(con.witness) == gadget_n
    assert m_f(f, con.witness) == params.k * (6 * params.p - 3) // 2 + 2 * params.t
    res = gamma_min_ratio(f)
    assert res.value == ratio
    assert res.witness == frozenset(con.witness)


@pytest.mark.parametrize("ratio", [Fraction(2), Fraction(7, 3), Fraction(5, 2)])
def test_delta4_construction(ratio):
    params = solve_params(4, ratio)
    con = build_delta4(params)
    f = con.graph
    assert f.min_degree == 4
    assert gamma_of_set(f, con.witness) == ratio
    assert len(con.witness) == params.k * (2 * params.p - 1) + params.t
    assert m_f(f, con.witness) == params.k * (6 * params.p - 4) + 3 * params.t
    res = gamma_min_ratio(f)
    assert res.value == ratio
    assert res.witness == frozenset(con.witness)


def test_delta3_spread_property():
    # with t <= k/2, any run of s consecutive long edges holds at least
    # floor(s*t/(k/2)) stretched ones
    params = solve_params(3, Fraction(14, 9), 20)
    k, t = params.k, params.t
    assert t <= k // 2
    chosen = set(spread_indices(k // 2, t))
    total = k // 2
    for s in range(1, total + 1):
        for start in range(total):
            window = {(start + j) % total for j in range(s)}
            assert len(window & chosen) >= s * t // total


def test_delta3_wrong_params_rejected():
    good = solve_params(3, Fraction(3, 2), 8)
    bad = type(good)(delta=3, ratio=Fraction(3, 2), k=good.k, p=good.p, t=good.t + 1)
    with pytest.raises(InfeasibleParamsError):
        build_delta3(bad)


def test_high_delta():
    con = build_high_delta(6, Fraction(3), 16, seed=20260808,
                           expander_check=True, max_attempts=200000)
    f = con.graph
    assert con.params["t"] == 1
    assert f.min_degree == 6
    assert gamma_of_set(f, con.witness) == 3
    res = gamma_min_ratio(f)
    assert res.value == 3
    # fixed seed reproduces the same graph
    con2 = build_high_delta(6, Fraction(3), 16, seed=20260808,
                            expander_check=True, max_attempts=200000)
    assert con2.graph == f
    with pytest.raises(InfeasibleParamsError):
        build_high_delta(6, Fraction(4), 16, seed=1)
    with pytest.raises(InfeasibleParamsError):
        build_high_delta(6, Fraction(3), 15, seed=1)
    with pytest.raises(InfeasibleParamsError):
        build_high_delta(5, Fraction(3), 16, seed=1)
    for k in (0, 6):  # no 6-regular graph on k vertices; 0 divided by zero
        with pytest.raises(InfeasibleParamsError):
            build_high_delta(6, Fraction(3), k, seed=1)
    with pytest.raises(ParameterRangeError):
        build_high_delta(6, Fraction(3), 16, seed=1, max_attempts=0)


def test_high_delta_t_range():
    con = build_high_delta(6, Fraction(13, 4), 16, seed=3, max_attempts=200000)
    t = con.params["t"]
    assert t == 16 * Fraction(13, 4) - 48 + 1
    assert 0 < t <= 16 // 2 + 1


def test_counterexample_pattern():
    con = counterexample_15_7()
    f = con.graph
    assert f.n == 114
    assert m_f(f, range(7)) == 15
    assert f.min_degree == 4
    assert con.predicted_gamma == 2
    assert con.params["predicted_limit"] == Fraction(15, 7)
    assert graph6_to_graph(graph_to_graph6(f)) == f


def test_counterexample_limit_strictly_inside_bounds():
    from wsatlab.extremal import w_f_bounds

    lo, hi = w_f_bounds(counterexample_15_7().graph)
    assert lo == 2 and hi == 3
    assert lo < Fraction(15, 7) < hi


def test_counterexample_host_counts():
    for i in (0, 1, 2, 5):
        gi = counterexample_host(i)
        assert gi.n == 107 + 7 * i
        assert gi.num_edges == 107 * 106 // 2 + 15 * i
    # density gap to 15/7 has a constant numerator, hence the exact limit
    c = 7 * (107 * 106 // 2) - 15 * 107
    for i in (1, 4, 9):
        gi = counterexample_host(i)
        assert 7 * gi.num_edges - 15 * gi.n == c
    assert c > 0


def test_construction_report_roundtrip():
    con = sparse_family(3, 8)
    rep = con.as_report()
    assert rep["predicted_gamma"] == "11/8"
    assert graph6_to_graph(rep["graph"]) == con.graph
