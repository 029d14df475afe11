"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Everything asserted here is exact (integers and rationals) except
criterion 9, which is the labeled statistical smoke test.
"""

import random
import time
from fractions import Fraction

from wsatlab.constructions import (
    build_delta3,
    build_delta4,
    counterexample_15_7,
    counterexample_host,
    solve_params,
    sparse_family,
)
from wsatlab.expander import i_alpha_exact, sample_configuration, verify_table
from wsatlab.extremal import (
    build_f_tilde,
    gamma_min_brute,
    gamma_min_ratio,
    gamma_of_set,
    wsat_exact,
)
from wsatlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from wsatlab.percolation import (
    activation_partition,
    closure,
    enumerate_a_matchings,
    is_weakly_saturated,
    rotate,
)


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_criterion_1_lovasz_oracle():
    t0 = time.time()
    for s, n in [(3, 5), (3, 6), (3, 7), (4, 5), (4, 6)]:
        expect = (s - 2) * n - (s - 1) * (s - 2) // 2
        res = wsat_exact(n, complete_graph(s))
        assert res.value == expect, (s, n, res.value, expect)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"ACCEPTANCE 1 PASS: wsat matches (s-2)n - C(s-1,2) on all five "
          f"pairs [{elapsed:.1f}s]")


def test_criterion_2_gamma_cross_validation():
    rng = random.Random(20260808)
    discrepancies = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        g = rand_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.75]))
        rb = gamma_min_brute(g)
        rr = gamma_min_ratio(g)
        ok = (
            rb.value == rr.value
            and gamma_of_set(g, rb.witness) == rb.value
            and gamma_of_set(g, rr.witness) == rr.value
        )
        if not ok:
            discrepancies += 1
    assert discrepancies == 0
    print("ACCEPTANCE 2 PASS: brute and ratio gamma agree with valid "
          "witnesses on 200 seeded graphs")


def test_criterion_3_sparse_regime_identity():
    cases = {2: [5, 6, 7], 3: [6, 8, 10], 4: [5, 6, 7]}
    for delta, ks in cases.items():
        for k in ks:
            con = sparse_family(delta, k)
            target = Fraction(delta, 2) - Fraction(1, k)
            assert con.predicted_gamma == target
            assert gamma_min_ratio(con.graph).value == target, (delta, k)
    print("ACCEPTANCE 3 PASS: sparse-family gamma equals delta/2 - 1/k for "
          "delta in {2,3,4}, three k each")


def test_criterion_4_construction_gamma_identities():
    t0 = time.time()
    for delta, ratios, builder in [
        (3, (Fraction(3, 2), Fraction(8, 5), Fraction(7, 4)), build_delta3),
        (4, (Fraction(2), Fraction(7, 3), Fraction(5, 2)), build_delta4),
    ]:
        for ratio in ratios:
            con = builder(solve_params(delta, ratio))
            assert con.graph.min_degree == delta
            res = gamma_min_ratio(con.graph)
            assert res.value == ratio, (delta, ratio, res.value)
    print(f"ACCEPTANCE 4 PASS: delta-3 and delta-4 families hit their target "
          f"gamma exactly at the smallest valid k [{time.time()-t0:.1f}s]")


def test_criterion_5_counterexample():
    t0 = time.time()
    con = counterexample_15_7()
    pattern = con.graph
    res = gamma_min_ratio(pattern)
    assert res.value == 2
    assert res.witness == frozenset(range(7))
    # the host family's density tends to 15/7 as an exact rational identity:
    # 7*e(G_i) - 15*|V(G_i)| is a positive constant
    g0 = counterexample_host(0)
    c = 7 * g0.num_edges - 15 * g0.n
    for i in (1, 3, 8):
        gi = counterexample_host(i)
        assert 7 * gi.num_edges - 15 * gi.n == c
        assert gi.n == g0.n + 7 * i and gi.num_edges == g0.num_edges + 15 * i
    assert c > 0
    assert is_weakly_saturated(counterexample_host(1), pattern)
    assert is_weakly_saturated(counterexample_host(2), pattern)
    print(f"ACCEPTANCE 5 PASS: gamma(F) = 2 while the host family attains "
          f"15/7 in the limit and G_1, G_2 percolate [{time.time()-t0:.1f}s]")


def test_criterion_6_rotation_preservation():
    t0 = time.time()
    pairs = 0
    rotations = 0
    failures = 0
    for pattern, ns in [
        (complete_graph(3), [4, 5, 6]),
        (complete_graph(4), [5, 6]),
        (path_graph(3), [4]),
    ]:
        for n in ns:
            res = wsat_exact(n, pattern)
            for host in res.witnesses:
                pairs += 1
                ap = activation_partition(closure(host, pattern))
                for matching in enumerate_a_matchings(ap):
                    rotated = rotate(ap, matching)
                    rotations += 1
                    if rotated.num_edges != host.num_edges:
                        failures += 1
                    elif not is_weakly_saturated(rotated, pattern):
                        failures += 1
    assert pairs >= 20
    assert failures == 0
    print(f"ACCEPTANCE 6 PASS: {rotations} rotations across {pairs} certified "
          f"minimum hosts all stay minimum weakly saturated "
          f"[{time.time()-t0:.1f}s]")


def test_criterion_7_f_tilde_property():
    t0 = time.time()
    k4_minus = complete_graph(4).without_edge(0, 1)
    cases = [cycle_graph(4), cycle_graph(5), k4_minus]
    for f in cases:
        base = gamma_min_ratio(f).value
        tilde = build_f_tilde(f, clique_pad=0)
        assert gamma_min_ratio(tilde).value == base, f
    # the block hosts percolate under the all-supergraphs pattern
    for f, s in [(path_graph(3), {0}), (star_graph(4), {1})]:
        tilde = build_f_tilde(f, clique_pad=0)
        from wsatlab.extremal import lemma23_sequence

        for i in (1, 2, 3):
            host = lemma23_sequence(f, s, i)
            assert is_weakly_saturated(host, tilde), (f, i)
    print(f"ACCEPTANCE 7 PASS: gamma(F~) = gamma(F) for C4, C5, K4-e and the "
          f"block hosts percolate for i <= 3 [{time.time()-t0:.1f}s]")


def test_criterion_8_table_reproduction():
    t0 = time.time()
    rep = verify_table()
    elapsed = time.time() - t0
    assert rep["all_pass"]
    assert len(rep["rows"]) == 12
    for row in rep["rows"]:
        assert Fraction(row["computed"]) >= Fraction(row["paper_bound"])
        assert Fraction(row["paper_bound"]) >= Fraction(201, 100) * (
            1 - Fraction(row["alpha_lo"])
        )
    assert elapsed < 60
    print(f"ACCEPTANCE 8 PASS: all 12 expansion table rows verified with "
          f"directed rounding [{elapsed:.1f}s]")


def test_criterion_9_statistical_smoke():
    # labeled non-rigorous: the expansion theorem is asymptotic, this just
    # checks the finite-size samples are not wildly off
    t0 = time.time()
    threshold = Fraction("1.0437")
    accepted = 0
    good = 0
    seed = 0
    while accepted < 100:
        _, g = sample_configuration(6, 24, seed)
        seed += 1
        if g is None:
            continue
        accepted += 1
        if i_alpha_exact(g, Fraction(1, 2)).value >= threshold:
            good += 1
    assert good >= 90, f"only {good}/100 samples reach the bound"
    print(f"ACCEPTANCE 9 PASS (statistical smoke): {good}/100 accepted "
          f"samples at r=6, n=24 have i_0.5 >= 1.0437 [{time.time()-t0:.1f}s]")
