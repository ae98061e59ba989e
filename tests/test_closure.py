import random
from fractions import Fraction
from math import lcm

import pytest

from monomials import closure, core, graphs, polyhedra
from monomials.core import MonomialIdeal, ideal_power, ideal_product
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    PreconditionError,
)
from monomials.linalg import solve

from helpers import (
    complete_graph,
    connected_atlas_graphs,
    cycle_graph,
    divisibility_gaps,
    power_oracle,
    q6_ideal,
    random_ideal,
    random_squarefree_ideal,
    refuse_smith_forms,
    two_disjoint_triangles,
)


def test_membership_examples():
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    ok, witness = closure.membership((1, 1), ci, 1, verify=True)
    assert ok and sum(witness) == 1
    ok, witness = closure.membership((1,), MonomialIdeal(1, [(2,)]), 1)
    assert not ok and witness is None
    triangle = cycle_graph(3).edge_ideal()
    assert closure.membership((1, 1, 1), triangle, 1, witness=False)
    assert not closure.membership((1, 1, 1), triangle, 2, witness=False)


def test_membership_refuses_a_negative_exponent():
    """Refused before the LP, whose A y <= a would be infeasible."""
    with pytest.raises(PreconditionError, match="negative exponent"):
        closure.membership((1, -1), MonomialIdeal(2, [(1, 0), (0, 1)]))


def test_membership_oracle_equivalence():
    """LP membership iff (t^a)^p lies in I^{pn} for some small p."""
    rng = random.Random(71)
    for _ in range(25):
        s = rng.randint(2, 4)
        ideal = random_ideal(rng, s, max_exp=3, max_gens=4)
        n = rng.randint(1, 3)
        a = tuple(rng.randint(0, 4) for _ in range(s))
        lp_ok, witness = closure.membership(a, ideal, n, verify=True)
        if lp_ok:
            p0 = max(
                lcm(*[Fraction(x).denominator for x in witness]) if witness else 1,
                1,
            )
            oracle_ok, p = power_oracle(a, ideal, n, max_p=p0)
            assert oracle_ok and p <= p0
        else:
            oracle_ok, _ = power_oracle(a, ideal, n, max_p=4)
            assert not oracle_ok


def test_closure_of_power_examples():
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert closure.closure_of_power(ci, 1).gens == ((0, 2), (1, 1), (2, 0))
    c4 = cycle_graph(4).edge_ideal()
    for n in (1, 2, 3):
        assert closure.closure_of_power(c4, n) == ideal_power(c4, n)
    two = two_disjoint_triangles().edge_ideal()
    gained = closure.closure_of_power(two, 3)
    assert (1, 1, 1, 1, 1, 1) in gained.gens
    assert not ideal_power(two, 3).contains_monomial((1, 1, 1, 1, 1, 1))


def test_closure_contains_power_and_is_multiplicative():
    rng = random.Random(73)
    for _ in range(10):
        ideal = random_ideal(rng, rng.randint(2, 3), max_exp=3, max_gens=3)
        c1 = closure.closure_of_power(ideal, 1)
        c2 = closure.closure_of_power(ideal, 2)
        c3 = closure.closure_of_power(ideal, 3)
        assert c1.contains_ideal(ideal)
        assert c2.contains_ideal(ideal_power(ideal, 2))
        # closure(I) * closure(I^2) inside closure(I^3)
        prod = ideal_product(c1, c2)
        assert c3.contains_ideal(prod)


def test_is_normal_examples():
    assert closure.is_normal(cycle_graph(4).edge_ideal()).normal
    rep = closure.is_normal(two_disjoint_triangles().edge_ideal())
    assert not rep.normal
    assert rep.witness_power == 3
    assert rep.witness_monomial == (1, 1, 1, 1, 1, 1)
    rep = closure.is_normal(MonomialIdeal(2, [(2, 0), (0, 2)]))
    assert not rep.normal and rep.witness_power == 1
    assert rep.witness_monomial == (1, 1)
    assert set(rep.methods) == {"hilbert", "powers"}


def test_a_closure_missing_a_generator_trips_the_witness_certificate(monkeypatch):
    """closure(I^2) of C4 with its first generator replaced by a multiple:
    I*closure(I^2) then misses a generator of closure(I^3), the false gap
    at 3 < s lies in I^3, and the certificate raises."""
    c4 = cycle_graph(4).edge_ideal()
    honest = closure.closure_of_power

    def faulty(ideal, n, budget=closure.DEFAULT_BOX_BUDGET):
        closed = honest(ideal, n, budget)
        if n != 2:
            return closed
        first = tuple(2 * x for x in closed.gens[0])
        return MonomialIdeal(ideal.s, [first, *closed.gens[1:]])

    monkeypatch.setattr(closure, "closure_of_power", faulty)
    with pytest.raises(InternalConsistencyError):
        closure.is_normal(c4, method="powers")


def test_a_false_normal_verdict_trips_the_report_invariant(monkeypatch):
    """A Hilbert route that calls (x^2, y^2) normal leaves the gap of
    closure(I) = (x^2, xy, y^2) standing against the verdict."""
    monkeypatch.setattr(closure, "_normal_by_hilbert", lambda ideal: (True, None, None))
    with pytest.raises(InternalConsistencyError, match="closure gap at power 1"):
        closure.closure_report(MonomialIdeal(2, [(2, 0), (0, 2)]), method="hilbert")


def test_a_false_normal_verdict_trips_the_report_check_at_a_reported_gap(monkeypatch):
    """Two disjoint triangles have their only gap at power 3: a Hilbert
    route that calls them normal passes while the reported closures stop
    at power 2, and trips the check once power 3 is reported."""
    ideal = two_disjoint_triangles().edge_ideal()
    monkeypatch.setattr(closure, "_normal_by_hilbert", lambda ideal: (True, None, None))
    assert closure.closure_report(ideal, up_to=2, method="hilbert").normality.normal
    with pytest.raises(InternalConsistencyError, match="closure gap at power 3"):
        closure.closure_report(ideal, up_to=3, method="hilbert")


def test_is_normal_method_agreement_random():
    rng = random.Random(79)
    for _ in range(30):
        ideal = random_ideal(rng, rng.randint(2, 4), max_exp=3, max_gens=4)
        by_h = closure.is_normal(ideal, method="hilbert")
        by_p = closure.is_normal(ideal, method="powers")
        assert by_h.normal == by_p.normal
        both = closure.is_normal(ideal, method="both")
        assert both.normal == by_h.normal


def test_gaps_agree_with_the_divisibility_scan():
    """The gaps read as generators missing from the sums I + closure(I^(n-1))
    equal those of the divisibility scan, on closures up to power s; the
    floors keep the corpus from passing with no gap to find."""
    rng = random.Random(5)
    ideals = [
        random_ideal(rng, rng.randint(3, 4), max_exp=3, max_gens=5) for _ in range(400)
    ]
    rng = random.Random(6)
    ideals += [
        random_squarefree_ideal(rng, rng.randint(4, 5), num_edges=rng.randint(4, 6))
        for _ in range(60)
    ]
    ideals += [graph.edge_ideal() for graph in connected_atlas_graphs(max_nodes=5)]
    ideals.append(two_disjoint_triangles().edge_ideal())
    seen = {}
    for ideal in ideals:
        if (ideal.s, ideal.gens) in seen:
            continue
        closures = closure._closures(ideal, ideal.s, closure.DEFAULT_BOX_BUDGET)
        gaps = closure._gaps(ideal, closures)
        assert gaps == divisibility_gaps(ideal, closures), ideal
        seen[ideal.s, ideal.gens] = gaps
    assert len(seen) >= 400
    assert sum(bool(gaps) for gaps in seen.values()) >= 120
    assert sum(any(n > 1 for n in gaps) for gaps in seen.values()) >= 12


def test_normalization_index_examples():
    assert closure.normalization_index(cycle_graph(4).edge_ideal()) == 0
    assert closure.normalization_index(MonomialIdeal(2, [(2, 0), (0, 2)])) == 1
    two = two_disjoint_triangles().edge_ideal()
    n_two = closure.normalization_index(two)
    assert n_two == 3
    assert n_two <= 6


def test_stabilization_on_random_ideals():
    """closure(I^n) = I closure(I^{n-1}) for n >= s, a bit beyond the bound."""
    rng = random.Random(83)
    for _ in range(8):
        s = rng.randint(2, 3)
        ideal = random_ideal(rng, s, max_exp=2, max_gens=3)
        closures = {
            n: closure.closure_of_power(ideal, n) for n in range(1, s + 3)
        }
        for n in range(s, s + 3):
            assert closures[n] == ideal_product(ideal, closures[n - 1])


def test_hyperplane_rank_bound():
    """Generators on a hyperplane off the origin: N(I) < rank(A)."""
    rng = random.Random(89)
    checked = 0
    while checked < 6:
        ideal = random_ideal(rng, 3, max_exp=2, max_gens=3)
        rows = [list(g) for g in ideal.gens]
        if solve(rows, [1] * len(rows)) is None:
            continue
        checked += 1
        from monomials.linalg import rank

        assert closure.normalization_index(ideal) <= rank(rows)


def test_closure_report():
    c4 = cycle_graph(4).edge_ideal()
    report = closure.closure_report(c4, up_to=2)
    assert report.normality.normal
    assert report.normalization_index == 0
    assert report.closures[2] == ideal_power(c4, 2)
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    report = closure.closure_report(ci)
    assert not report.normality.normal
    assert report.normalization_index == 1
    assert (1, 1) in report.closures[1].gens


def test_closure_report_budget_overrun_at_the_top_power():
    """closure(I^3) has a 4^3 box, above the budget; lower powers fit."""
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    with pytest.raises(BudgetExceededError) as direct:
        closure.closure_of_power(ideal, 3, budget=30)
    for method in ("hilbert", "powers", "both"):
        with pytest.raises(BudgetExceededError) as info:
            closure.closure_report(ideal, method=method, budget=30)
        assert info.value.needed == direct.value.needed == 64
        assert info.value.budget == 30
        assert info.value.stage == "closure_of_power"


def test_gr_reduced():
    assert closure.is_gr_reduced(cycle_graph(4).edge_ideal())
    assert not closure.is_gr_reduced(cycle_graph(3).edge_ideal())
    assert not closure.is_gr_reduced(q6_ideal())
    with pytest.raises(PreconditionError):
        closure.is_gr_reduced(MonomialIdeal(2, [(2, 0), (0, 2)]))
    with pytest.raises(PreconditionError):
        # height one: star graph
        closure.is_gr_reduced(
            MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)])
        )


def test_rees_cone_facets_and_hilbert_basis_are_computed_once(monkeypatch):
    """Counts computations: calls of ``cone_facets`` and misses of the
    Hilbert-basis memo, on RC(I)'s generators."""
    graph = two_disjoint_triangles()
    ideal = graph.edge_ideal()
    rc = set(polyhedra.rees_cone(ideal))
    closure.rees_representation.cache.clear()
    polyhedra._facet_description.cache.clear()
    calls = {"facets": 0, "hilbert": 0}
    cone_facets = polyhedra.cone_facets
    compute_hilbert = polyhedra._hilbert_basis.__wrapped__

    def counted_facets(generators):
        calls["facets"] += {tuple(g) for g in generators} == rc
        return cone_facets(generators)

    def counted_hilbert(generators):
        calls["hilbert"] += set(generators) == rc
        return compute_hilbert(generators)

    monkeypatch.setattr(polyhedra, "cone_facets", counted_facets)
    monkeypatch.setattr(polyhedra, "_hilbert_basis", core.memo(counted_hilbert))
    closure.rees_representation(ideal)
    assert not closure.is_normal(ideal, method="hilbert").normal
    assert graphs.rees_closure_generators(graph, cross_validate=True)
    assert graphs.ehrhart_normality_criterion(graph)[0] is False
    assert calls == {"facets": 1, "hilbert": 1}


def test_hilbert_basis_of_a_rees_cone_needs_its_facets_once(monkeypatch):
    """Below RC(I) the triangulation works on ray bitmasks, and no simplex
    needs a Smith form for its parallelepiped points."""
    gens = polyhedra.rees_cone(cycle_graph(5).edge_ideal())
    facet_calls = []
    cone_facets = polyhedra.cone_facets

    def counted_facets(generators):
        facet_calls.append(generators)
        return cone_facets(generators)

    monkeypatch.setattr(polyhedra, "cone_facets", counted_facets)
    refuse_smith_forms(monkeypatch)
    assert polyhedra.hilbert_basis(gens) == tuple(sorted(gens))
    assert len(facet_calls) == 1


def test_a_flat_hilbert_basis_needs_no_smith_form(monkeypatch):
    """The cone over K5's lifted edge vectors lies in sum(x) = 2 t; it is
    moved into its own lattice, an echelon basis of its span's integer
    points, with no Smith form."""
    cols = [g + (1,) for g in complete_graph(5).edge_ideal().gens]
    refuse_smith_forms(monkeypatch)
    assert polyhedra.hilbert_basis(cols) == tuple(sorted(cols))


def test_rees_representations_are_kept_up_to_the_memo_bound():
    """So are Hilbert bases, one per generator set."""
    keys = range(1, core.MEMO_SIZE + 6)
    for memoized, inputs in [
        (closure.rees_representation, [MonomialIdeal(1, [(k,)]) for k in keys]),
        (polyhedra._hilbert_basis, [((k,),) for k in keys]),
    ]:
        first = memoized(inputs[0])
        for value in inputs[1:]:
            memoized(value)
        assert len(memoized.cache) == core.MEMO_SIZE
        last = memoized(inputs[-1])
        assert memoized(inputs[-1]) is last
        assert memoized(inputs[0]) is not first
