import random
from fractions import Fraction

import pytest

from monomials import closure, symbolic
from monomials.core import MonomialIdeal, alexander_dual, ideal_power, ideal_product
from monomials.errors import BudgetExceededError, PreconditionError

from helpers import (
    cycle_graph,
    q6_ideal,
    random_clutter_height2,
    random_graph,
    random_squarefree_ideal,
    refuse_simplex,
)


def test_symbolic_power_examples():
    triangle = cycle_graph(3).edge_ideal()
    s2 = symbolic.symbolic_power(triangle, 2, verify=True)
    plus_center = MonomialIdeal(
        3, list(ideal_power(triangle, 2).gens) + [(1, 1, 1)]
    )
    assert s2 == plus_center
    c4 = cycle_graph(4).edge_ideal()
    assert symbolic.symbolic_power(c4, 2, verify=True) == ideal_power(c4, 2)
    q6 = q6_ideal()
    s2 = symbolic.symbolic_power(q6, 2, verify=True)
    i2 = ideal_power(q6, 2)
    assert s2.contains_ideal(i2)
    assert not i2.contains_ideal(s2)


def test_symbolic_power_routes_agree_random():
    rng = random.Random(107)
    for _ in range(15):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 5))
        n = rng.randint(1, 3)
        symbolic.symbolic_power(ideal, n, verify=True)  # raises on mismatch


def test_symbolic_power_superset_and_multiplicativity():
    rng = random.Random(109)
    for _ in range(10):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 5))
        s1 = symbolic.symbolic_power(ideal, 1)
        assert s1 == ideal
        s2 = symbolic.symbolic_power(ideal, 2)
        s3 = symbolic.symbolic_power(ideal, 3)
        assert s2.contains_ideal(ideal_power(ideal, 2))
        prod = ideal_product(s1, s2)
        assert s3.contains_ideal(prod)


def test_symbolic_powers_are_integrally_closed():
    rng = random.Random(127)
    for _ in range(8):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 5))
        for n in (2, 3):
            sym = symbolic.symbolic_power(ideal, n)
            assert closure.closure_of_power(sym, 1) == sym


def test_is_simis():
    assert symbolic.is_simis(cycle_graph(4).edge_ideal())
    assert not symbolic.is_simis(cycle_graph(3).edge_ideal())
    assert not symbolic.is_simis(q6_ideal())


def test_graph_law_simis_iff_bipartite():
    rng = random.Random(113)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7))
        assert symbolic.is_simis(g.edge_ideal()) == g.is_bipartite()


def test_mfmc():
    c4 = cycle_graph(4).edge_ideal()
    assert symbolic.is_simis(c4)
    assert symbolic.mfmc_spot_check(c4, max_entry=3)
    even6 = cycle_graph(6).edge_ideal()
    assert symbolic.is_simis(even6)
    assert symbolic.mfmc_spot_check(even6, max_entry=2)
    triangle = cycle_graph(3).edge_ideal()
    assert not symbolic.is_simis(triangle)
    assert not symbolic.mfmc_spot_check(triangle, max_entry=1)
    # Q6 fails MFMC with an integrality gap already at alpha = (1,...,1)
    assert not symbolic.is_simis(q6_ideal())
    assert not symbolic.mfmc_spot_check(q6_ideal(), max_entry=1)


def test_the_mfmc_and_closure_paths_run_no_simplex(monkeypatch):
    """The LP value of the MFMC check is read off the vertices of Q(I);
    Simis, ic-resurgence, closures and symbolic powers need no LP either.
    Only closure.membership still runs the simplex."""
    refuse_simplex(monkeypatch)
    c4 = cycle_graph(4).edge_ideal()
    c5 = cycle_graph(5).edge_ideal()
    triangle = cycle_graph(3).edge_ideal()
    assert symbolic.mfmc_spot_check(c4, max_entry=2)
    assert not symbolic.mfmc_spot_check(triangle, max_entry=1)
    assert symbolic.is_simis(c4) and not symbolic.is_simis(c5)
    assert symbolic.ic_resurgence(c5).rho == Fraction(6, 5)
    cubes = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert not closure.closure_report(cubes).normality.normal
    assert closure.normalization_index(cubes) == 2
    assert symbolic.symbolic_power(c5, 3) != ideal_power(c5, 3)
    with pytest.raises(AssertionError, match="simplex"):
        closure.membership((1, 1, 1), triangle)


def test_mfmc_implies_packing():
    from monomials.core import has_packing_property

    rng = random.Random(131)
    for _ in range(10):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 6))
        if symbolic.is_simis(ideal):
            assert has_packing_property(ideal)


def test_symbolic_rees_generators():
    triangle = cycle_graph(3).edge_ideal()
    basis = symbolic.symbolic_rees_generators(triangle)
    assert ((1, 1, 1), 2) in basis
    c4 = cycle_graph(4).edge_ideal()
    basis = symbolic.symbolic_rees_generators(c4)
    expected = {((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0),
                ((0, 0, 0, 1), 0)}
    expected |= {(g, 1) for g in c4.gens}
    assert set(basis) == expected
    prime = MonomialIdeal(2, [(1, 0), (0, 1)])
    basis = symbolic.symbolic_rees_generators(prime)
    assert set(basis) == {
        ((1, 0), 0), ((0, 1), 0), ((1, 0), 1), ((0, 1), 1)
    }


def test_ic_resurgence_examples():
    report = symbolic.ic_resurgence(cycle_graph(3).edge_ideal())
    assert report.rho == Fraction(4, 3)
    assert report.ceiling == 2
    half = (Fraction(1, 2),) * 3
    assert report.pair == (half, half)
    assert symbolic.ic_resurgence(cycle_graph(4).edge_ideal()).rho == 1
    assert symbolic.ic_resurgence(q6_ideal()).rho == 1


def test_ic_resurgence_needs_every_variable():
    """Q(I) of (x) in two variables is unbounded along y, so rho_ic is not
    read off its vertices."""
    with pytest.raises(PreconditionError, match="every variable"):
        symbolic.ic_resurgence(MonomialIdeal(2, [(1, 0)]))


def test_resurgence_duality_random():
    rng = random.Random(137)
    for _ in range(12):
        clutter = random_clutter_height2(rng, rng.randint(3, 6))
        ideal = clutter.edge_ideal()
        dual = alexander_dual(ideal)
        r1 = symbolic.ic_resurgence(ideal)
        r2 = symbolic.ic_resurgence(dual)
        assert r1.rho == r2.rho
        assert r1.q_integral == r2.q_dual_integral


def test_q_integral_iff_dual_integral():
    rng = random.Random(139)
    for _ in range(12):
        clutter = random_clutter_height2(rng, rng.randint(3, 6))
        ideal = clutter.edge_ideal()
        rep = closure.rees_representation(ideal)
        rep_dual = closure.rees_representation(alexander_dual(ideal))
        assert rep.integral == rep_dual.integral


def test_containment_function():
    q6 = q6_ideal()
    assert symbolic.containment_function(q6, 1) == 1
    for r in range(2, 7):
        assert symbolic.containment_function(q6, r) == r + 1
    c4 = cycle_graph(4).edge_ideal()
    for r in (1, 2, 3):
        assert symbolic.containment_function(c4, r) == r
    triangle = cycle_graph(3).edge_ideal()
    f2 = symbolic.containment_function(triangle, 2)
    # brute: smallest n with I^(n) inside I^2
    n = 2
    while not ideal_power(triangle, 2).contains_ideal(
        symbolic.symbolic_power(triangle, n)
    ):
        n += 1
    assert f2 == n == 3


def test_resurgence_one_and_ceiling():
    assert symbolic.resurgence_one_test(q6_ideal())
    assert symbolic.resurgence_one_test(cycle_graph(4).edge_ideal())
    assert not symbolic.resurgence_one_test(cycle_graph(3).edge_ideal())
    triangle = cycle_graph(3).edge_ideal()
    assert symbolic.uniform_containment_ceiling(triangle, spot_powers=3) == 2
    assert symbolic.uniform_containment_ceiling(
        cycle_graph(4).edge_ideal(), spot_powers=3
    ) == 1


def test_rejects_non_squarefree():
    with pytest.raises(PreconditionError):
        symbolic.symbolic_power(MonomialIdeal(2, [(2, 0), (0, 1)]), 2)


def test_symbolic_power_budget_reports_the_box_size():
    # the bull graph, at a power no other test computes, so the cache misses
    bull = MonomialIdeal(5, [
        (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0),
        (0, 0, 1, 1, 0), (0, 1, 0, 0, 1),
    ])
    with pytest.raises(BudgetExceededError) as info:
        symbolic.symbolic_power(bull, 7, budget=100)
    assert info.value.needed == 8**5
    assert info.value.budget == 100


def test_warm_symbolic_power_checks_its_budget_like_a_cold_one():
    c4 = cycle_graph(4).edge_ideal()
    with pytest.raises(BudgetExceededError) as cold:
        symbolic.symbolic_power(c4, 3, budget=10)
    assert len(symbolic.symbolic_power(c4, 3).gens) == 16
    with pytest.raises(BudgetExceededError) as warm:
        symbolic.symbolic_power(c4, 3, budget=10)
    assert warm.value.needed == cold.value.needed == 4**4
    assert warm.value.budget == 10
