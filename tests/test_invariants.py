import random

import pytest

from monomials import closure, invariants
from monomials.core import MonomialIdeal
from monomials.errors import BudgetExceededError, PreconditionError

from helpers import (
    complete_graph,
    cycle_graph,
    random_bipartite_graph,
    random_zero_dim_2var,
)


def paper_multiplicity_ideal():
    return MonomialIdeal(2, [(6, 0), (0, 5), (2, 2), (3, 1)])


def test_multiplicity_paper_example():
    ideal = paper_multiplicity_ideal()
    region = invariants.MultiplicityRegion(ideal)
    assert region.vol_delta == 15
    assert region.vol_p0 == 5
    assert invariants.multiplicity(ideal) == 20


def test_multiplicity_complete_intersection():
    assert invariants.multiplicity(MonomialIdeal(2, [(3, 0), (0, 4)])) == 12
    assert invariants.multiplicity(MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])) == 30


def test_multiplicity_of_m_squared():
    # m^2 has multiplicity 4 = 2^s; the lower Newton polytope is a segment
    # of ambient volume zero, so e = a1*a2 - 0
    m2 = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert invariants.multiplicity(m2) == 4


def test_multiplicity_length_oracle():
    """e(I) agrees with the normalized colength of a high power."""
    rng = random.Random(149)
    for _ in range(6):
        ideal = random_zero_dim_2var(rng, max_exp=4, extra=1)
        e = invariants.multiplicity(ideal)
        # l(S/closure(I^n)) ~ e n^2/2: compare the exact Ehrhart-difference
        # polynomial's leading coefficient instead of a limit
        region = invariants.MultiplicityRegion(ideal)
        f4 = invariants.normalization_hilbert_function(ideal, 4)
        f5 = invariants.normalization_hilbert_function(ideal, 5)
        f6 = invariants.normalization_hilbert_function(ideal, 6)
        # second difference of a degree-2 polynomial = 2! * leading = e
        assert f6 - 2 * f5 + f4 == e


def test_multiplicity_three_variables_mixed():
    # the mixed generator sits above the corner hyperplane, so it does not
    # enter P0 and the multiplicity is that of the pure-power part
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    assert invariants.multiplicity(ideal) == 8
    # a genuinely mixed staircase in three variables, against the
    # third-difference of the normalization Hilbert function
    ideal = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0)])
    e = invariants.multiplicity(ideal)
    f = [invariants.normalization_hilbert_function(ideal, n, verify=False)
         for n in range(4, 8)]
    assert f[3] - 3 * f[2] + 3 * f[1] - f[0] == e


def test_multiplicity_requires_zero_dimensional():
    with pytest.raises(PreconditionError):
        invariants.multiplicity(MonomialIdeal(2, [(2, 0), (1, 1)]))


def test_normalization_hilbert_function():
    mm = MonomialIdeal(2, [(1, 0), (0, 1)])
    values = [invariants.normalization_hilbert_function(mm, n) for n in range(5)]
    assert values == [0, 1, 3, 6, 10]
    ideal = paper_multiplicity_ideal()
    assert invariants.normalization_hilbert_function(ideal, 0) == 0
    # verify=True inside compares the direct count with E_Delta - E_P0
    invariants.normalization_hilbert_function(ideal, 1)
    invariants.normalization_hilbert_function(ideal, 2)


def test_normalization_hilbert_function_checks_its_box_first():
    """The staircase box of 2 * NP(I) is [0, 12] x [0, 10]."""
    ideal = paper_multiplicity_ideal()
    count = invariants.normalization_hilbert_function(ideal, 2)
    assert invariants.normalization_hilbert_function(
        ideal, 2, verify=False, budget=13 * 11
    ) == count
    with pytest.raises(BudgetExceededError) as caught:
        invariants.normalization_hilbert_function(
            ideal, 2, verify=False, budget=13 * 11 - 1
        )
    error = caught.value
    assert (error.needed, error.budget) == (13 * 11, 13 * 11 - 1)
    assert error.stage == "normalization_hilbert_function"


def test_veronese_formulas():
    v = invariants.veronese_invariants(6, 2)
    assert (v["a_squarefree"], v["reg_squarefree"]) == (-3, 3)
    v = invariants.veronese_invariants(4, 2)
    assert (v["a_squarefree"], v["reg_squarefree"]) == (-2, 2)
    v = invariants.veronese_invariants(5, 4)
    assert v["a_squarefree"] == -5
    with pytest.raises(PreconditionError):
        invariants.veronese_invariants(4, 4)


def test_veronese_ehrhart_verification_small():
    for s, k in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        expected = invariants.veronese_invariants(s, k)
        a, reg = invariants.veronese_invariants_via_ehrhart(s, k)
        assert (a, reg) == (expected["a_squarefree"], expected["reg_squarefree"])
    a, reg = invariants.veronese_invariants_via_ehrhart(4, 2, full=True)
    v = invariants.veronese_invariants(4, 2)
    assert (a, reg) == (v["a_veronese"], v["reg_veronese"])


def test_veronese_canonical_generators():
    gens = invariants.veronese_canonical_generators(4, 2, 4)
    assert (1, 1, 1, 1) in gens
    gens = invariants.veronese_canonical_generators(6, 2, 6)
    assert gens == [(1, 1, 1, 1, 1, 1)]
    assert min(sum(a) for a in gens) // 2 == 3
    gens = invariants.veronese_canonical_generators(6, 3, 6)
    assert gens and all(
        sum(1 for x in a if x >= 2) <= 2 for a in gens
    )
    with pytest.raises(PreconditionError):
        invariants.veronese_canonical_generators(4, 3, 5)


def test_subring_regularity():
    sq62 = MonomialIdeal(6, invariants.hypersimplex_vertices(6, 2))
    rep = invariants.subring_regularity(sq62)
    assert rep.regularity == 3 and rep.a_invariant == -3 and rep.dimension == 6
    c4 = cycle_graph(4).edge_ideal()
    rep = invariants.subring_regularity(c4)
    assert rep.dimension == 3
    assert rep.regularity == rep.a_invariant + rep.dimension
    principal = MonomialIdeal(3, [(1, 1, 0)])
    assert invariants.subring_regularity(principal).regularity == 0


def test_subring_regularity_refuses_bad_input():
    with pytest.raises(PreconditionError):
        invariants.subring_regularity(MonomialIdeal(2, [(2, 0), (0, 1)]))
    two_tri = MonomialIdeal(
        6,
        [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0),
         (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1)],
    )
    with pytest.raises(PreconditionError):
        invariants.subring_regularity(two_tri)  # not normal


def test_regularity_monotonicity_examples():
    c4 = cycle_graph(4).edge_ideal()
    # K_{2,2} on parts {0,2},{1,3} contains the 4-cycle
    k22 = MonomialIdeal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1),
                            (1, 0, 0, 1)])
    assert invariants.regularity_monotonicity_check(c4, k22)
    assert invariants.regularity_monotonicity_check(c4, c4)
    k5 = complete_graph(5).edge_ideal()
    c5 = cycle_graph(5).edge_ideal()
    assert invariants.regularity_monotonicity_check(c5, k5)


def test_regularity_monotonicity_random_bipartite():
    rng = random.Random(151)
    for _ in range(8):
        big = random_bipartite_graph(rng, rng.randint(4, 6), p=0.7)
        edges = list(big.edges)
        rng.shuffle(edges)
        keep = edges[: rng.randint(1, len(edges))]
        small_gens = []
        for a, b in keep:
            g = [0] * big.s
            g[a] = 1
            g[b] = 1
            small_gens.append(tuple(g))
        small = MonomialIdeal(big.s, small_gens)
        invariants.regularity_monotonicity_check(small, big.edge_ideal())


def test_a_invariant_bound_for_full_dimensional_subrings():
    """a(K[F]) <= -ceil(s/k) for normal uniform squarefree F with dim = s."""
    k5 = complete_graph(5).edge_ideal()
    rep = invariants.subring_regularity(k5)
    assert rep.dimension == 5
    # ceil(5/2) = 3, so a <= -3
    assert rep.a_invariant <= -3
    wheel = MonomialIdeal(
        6,
        [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0),
         (0, 0, 0, 1, 1, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
         (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1),
         (0, 0, 0, 0, 1, 1)],
    )
    rep = invariants.subring_regularity(wheel)
    assert rep.dimension == 6
    assert rep.a_invariant <= -3


def test_m_full_paper_example():
    ideal = MonomialIdeal(
        2, [(11, 0), (8, 1), (6, 2), (5, 3), (1, 4), (0, 10)]
    )
    assert invariants.is_m_full_2var(ideal)


def test_m_full_criterion_on_non_full_ideal():
    assert not invariants.is_m_full_2var(MonomialIdeal(2, [(3, 0), (0, 3)]))


def test_m_full_rejects_maximal_power():
    m3 = MonomialIdeal(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    with pytest.raises(PreconditionError):
        invariants.is_m_full_2var(m3)


def test_complete_ideals_are_m_full():
    rng = random.Random(157)
    count = 0
    while count < 12:
        raw = random_zero_dim_2var(rng)
        closed = closure.closure_of_power(raw, 1)
        n = closed.num_generators
        mpow = MonomialIdeal(2, [(n - 1 - i, i) for i in range(n)])
        if closed == mpow:
            continue
        count += 1
        assert invariants.is_m_full_2var(closed)
        assert invariants.mu_maximality_sweep(closed)


def test_cremona():
    assert invariants.is_cremona_monomial([(0, 1, 0), (0, 0, 1), (1, 0, 0)])
    assert invariants.is_cremona_monomial([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert not invariants.is_cremona_monomial([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(PreconditionError):
        invariants.is_cremona_monomial([(1, 1, 0), (0, 1, 1)])
    with pytest.raises(PreconditionError):
        invariants.is_cremona_monomial([(1, 1, 0), (1, 1, 0), (1, 0, 1)])
    with pytest.raises(PreconditionError):
        # common factor t1
        invariants.is_cremona_monomial([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
