"""Acceptance suite: one test per criterion, exact assertions throughout.

Each test prints a single PASS line with its wall time (run pytest with -s
to see them live); failures surface as ordinary assertion errors.  Time
limits from the criteria are recorded in the printed line but asserted only
through the exactness checks, not the clock.
"""

import random
import time
from fractions import Fraction

from monomials import closure, codes, graphs, invariants, polyhedra, symbolic
from monomials.errors import BudgetExceededError
from monomials.core import (
    Graph,
    MonomialIdeal,
    alexander_dual,
    covering_number,
    has_packing_property,
    ideal_power,
    is_konig,
    matching_number,
)

from helpers import (
    complete_graph,
    connected_atlas_graphs,
    cycle_graph,
    q6_clutter,
    q6_ideal,
    random_bipartite_graph,
    random_clutter_height2,
    random_graph,
    random_point_set,
    random_zero_dim_2var,
    triangles_joined_by_edge,
    triangles_joined_by_path,
    two_disjoint_triangles,
)


def _report(number, name, t0):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.time() - t0:.1f}s)")


def _fixed_corpus():
    """The s <= 8 graph corpus for criteria 5 and 10."""
    corpus = connected_atlas_graphs(5)
    corpus += [
        cycle_graph(6),
        cycle_graph(7),
        complete_graph(6),
        two_disjoint_triangles(),
        triangles_joined_by_edge(),
        triangles_joined_by_path(2),
        triangles_joined_by_path(3),
        Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
        Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7),
                  (3, 7)]),
        # wheel over a 5-cycle
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                  (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]),
        # triangular prism
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5)]),
    ]
    return corpus


def test_criterion_01_multiplicity_regression():
    t0 = time.time()
    ideal = MonomialIdeal(2, [(6, 0), (0, 5), (2, 2), (3, 1)])
    region = invariants.MultiplicityRegion(ideal)
    assert region.vol_region == 10
    assert invariants.multiplicity(ideal) == 20
    _report(1, "multiplicity e(I)=20, vol(P)=10 (< 1 s)", t0)


def test_criterion_02_q6_suite():
    t0 = time.time()
    clutter = q6_clutter()
    ideal = q6_ideal()
    assert covering_number(clutter) == 2
    assert matching_number(clutter) == 1
    assert not is_konig(clutter)
    assert closure.rees_representation(ideal).integral
    assert symbolic.containment_function(ideal, 1) == 1
    for r in range(2, 7):
        assert symbolic.containment_function(ideal, r) == r + 1
    assert symbolic.resurgence_one_test(ideal)
    s2 = symbolic.symbolic_power(ideal, 2)
    i2 = ideal_power(ideal, 2)
    assert s2.contains_ideal(i2) and not i2.contains_ideal(s2)
    _report(2, "Q6 suite (< 60 s)", t0)


def _six_way(graph):
    ideal = graph.edge_ideal()
    dual = alexander_dual(ideal)
    rep = closure.rees_representation(ideal)
    normal = bool(closure.is_normal(ideal, method="hilbert"))
    conditions = {
        "bipartite": graph.is_bipartite(),
        "simis": rep.integral and normal,
        "packing": has_packing_property(ideal),
        "q_integral": rep.integral,
        "gr_reduced": rep.integral and normal,
        "dual_simis": symbolic.is_simis(dual),
    }
    return conditions


def test_criterion_03_graph_six_way_equivalence():
    t0 = time.time()
    corpus = connected_atlas_graphs(6)
    rng = random.Random(2024)
    corpus += [random_graph(rng, 7, connected=True) for _ in range(12)]
    assert len(corpus) >= 143
    for graph in corpus:
        conditions = _six_way(graph)
        values = set(conditions.values())
        assert len(values) == 1, (graph, conditions)
    _report(3, f"six-way equivalence on {len(corpus)} graphs (< 10 min)", t0)


def test_criterion_04_normality_cross_method():
    t0 = time.time()
    rng = random.Random(4096)
    from helpers import random_ideal

    for _ in range(100):
        ideal = random_ideal(rng, rng.randint(2, 4), max_exp=3, max_gens=4)
        by_hilbert = closure.is_normal(ideal, method="hilbert")
        by_powers = closure.is_normal(ideal, method="powers")
        assert by_hilbert.normal == by_powers.normal, ideal
    _report(4, "normality cross-method on 100 random ideals (< 5 min)", t0)


def test_criterion_05_hochster_bowtie_correctness():
    t0 = time.time()
    for graph in _fixed_corpus():
        by_hochster = graphs.edge_ideal_normal(graph)
        # both normality routes fit the box budget up to s = 6; beyond that
        # the power route would overrun it and only the Hilbert route runs
        method = "both" if graph.s <= 6 else "hilbert"
        by_hilbert = bool(closure.is_normal(graph.edge_ideal(), method=method))
        assert by_hochster == by_hilbert, graph
        described = set(graphs.edge_subring_closure(graph))
        via_hilbert = set(graphs.edge_subring_closure_via_hilbert(graph))
        assert via_hilbert <= described, graph
        # and the described generators all lie in the closure monoid
        eqs, facets = polyhedra.cone_facets(list(graph.edge_ideal().gens))
        for monomial in described:
            assert polyhedra.cone_contains(monomial, eqs, facets)
    two = two_disjoint_triangles()
    assert graphs.edge_subring_closure_via_hilbert(two) == sorted(
        two.edge_ideal().gens
    )  # K[G] normal
    assert not closure.is_normal(two.edge_ideal(), method="hilbert").normal
    _report(5, "Hochster/bowtie vs Hilbert bases on the corpus (< 10 min)", t0)


def test_criterion_06_odd_girth_law():
    t0 = time.time()
    cases = [cycle_graph(3), cycle_graph(5), cycle_graph(7)]
    rng = random.Random(606)
    cases += [
        random_graph(rng, rng.randint(4, 7), nonbipartite=True)
        for _ in range(20)
    ]
    for graph in cases:
        girth = graphs.odd_girth(graph)
        ideal = graph.edge_ideal()
        r0 = next(
            n
            for n in range(1, (girth + 1) // 2 + 1)
            if ideal_power(ideal, n) != symbolic.symbolic_power(ideal, n)
        )
        assert 2 * r0 - 1 == girth, graph
        assert graphs.simis_failure_degree(graph) == r0
    _report(6, "odd-girth law on cycles and 20 random graphs (< 5 min)", t0)


def test_criterion_07_resurgence_duality():
    t0 = time.time()
    triangle = cycle_graph(3).edge_ideal()
    assert symbolic.ic_resurgence(triangle).rho == Fraction(4, 3)
    rng = random.Random(707)
    for _ in range(50):
        clutter = random_clutter_height2(rng, rng.randint(3, 7))
        ideal = clutter.edge_ideal()
        dual = alexander_dual(ideal)
        assert symbolic.ic_resurgence(ideal).rho == symbolic.ic_resurgence(dual).rho
    _report(7, "ic-resurgence duality on 50 random clutters (< 5 min)", t0)


def test_criterion_08_veronese_formulas():
    t0 = time.time()
    for s in range(4, 9):
        for k in range(2, s // 2 + 1):
            ceil_sk = -(-s // k)
            expected = invariants.veronese_invariants(s, k)
            a, reg = invariants.veronese_invariants_via_ehrhart(s, k)
            assert a == expected["a_squarefree"] == -ceil_sk
            assert reg == expected["reg_squarefree"] == s - ceil_sk
    _report(8, "Veronese a/reg via Ehrhart for 4 <= 2k <= s <= 8 (< 5 min)", t0)


def test_criterion_09_regularity_monotonicity():
    t0 = time.time()
    rng = random.Random(909)
    pairs = 0
    while pairs < 30:
        big = random_bipartite_graph(rng, rng.randint(4, 7), p=0.7)
        edges = list(big.edges)
        if len(edges) < 2:
            continue
        rng.shuffle(edges)
        keep = edges[: rng.randint(1, len(edges) - 1)]
        gens = []
        for a, b in keep:
            g = [0] * big.s
            g[a] = 1
            g[b] = 1
            gens.append(tuple(g))
        small = MonomialIdeal(big.s, gens)
        assert invariants.regularity_monotonicity_check(small, big.edge_ideal())
        pairs += 1
    while pairs < 50:
        big = random_graph(rng, rng.randint(4, 6), nonbipartite=True)
        if not graphs.edge_ideal_normal(big):
            continue
        edges = list(big.edges)
        if len(edges) < 2:
            continue
        rng.shuffle(edges)
        keep = edges[: rng.randint(1, len(edges) - 1)]
        gens = []
        for a, b in keep:
            g = [0] * big.s
            g[a] = 1
            g[b] = 1
            gens.append(tuple(g))
        small = MonomialIdeal(big.s, gens)
        if not closure.is_normal(small, method="hilbert").normal:
            continue
        assert invariants.regularity_monotonicity_check(small, big.edge_ideal())
        pairs += 1
    _report(9, "regularity monotonicity on 50 nested normal pairs (< 10 min)", t0)


def test_criterion_10_ehrhart_normality_criterion():
    t0 = time.time()
    for graph in _fixed_corpus():
        verdict, diagnosis = graphs.ehrhart_normality_criterion(graph)
        c1 = diagnosis["nonbipartite_components"]
        expected_delta = 2 ** (c1 - 1) if c1 else 1
        assert diagnosis["delta_r"] == expected_delta
        assert verdict == diagnosis["hilbert_route"] == diagnosis["smith_route"]
    _report(10, "Ehrhart normality criterion, three routes agree (< 10 min)", t0)


def test_criterion_11_codes():
    t0 = time.time()
    rng = random.Random(1111)
    for trial in range(30):
        q = rng.choice([2, 3])
        size = rng.randint(3, 10 if q == 3 else 7)
        points = random_point_set(rng, q, 3, size)
        v = codes.v_number_points(points)
        threshold = points.regularity_threshold()
        distances = {}
        for d in range(1, threshold + 2):
            distances[d] = codes.minimum_distance(codes.EvaluationCode(points, d))
        # strictly decreasing until it reaches 1, constant 1 afterwards
        first_one = next(d for d in sorted(distances) if distances[d] == 1)
        for d in range(1, first_one):
            assert distances[d] > distances[d + 1]
        for d in range(first_one, max(distances)):
            assert distances[d] == distances[d + 1] == 1
        assert v == first_one
        # beyond the Hilbert-stabilization degree the weights are trivial
        code = codes.EvaluationCode(points, threshold)
        for r in range(1, min(3, code.dimension) + 1):
            assert codes.generalized_weight(code, r) == r
        # three-way equality wherever the form enumeration is feasible
        for d in (1, 2):
            code = codes.EvaluationCode(points, d)
            for r in (1, 2):
                if r > code.dimension:
                    continue
                try:
                    d_i, theta = codes.gmd_and_vasconcelos(points, d, r,
                                                           budget=60_000)
                except BudgetExceededError:
                    continue
                assert d_i == theta == codes.generalized_weight(code, r)
    _report(11, "evaluation codes on 30 random point sets (< 10 min)", t0)


def test_criterion_12_m_fullness():
    t0 = time.time()
    paper = MonomialIdeal(2, [(11, 0), (8, 1), (6, 2), (5, 3), (1, 4), (0, 10)])
    assert invariants.is_m_full_2var(paper)
    assert invariants.mu_maximality_sweep(paper)
    rng = random.Random(1212)
    count = 0
    while count < 50:
        closed = closure.closure_of_power(random_zero_dim_2var(rng), 1)
        n = closed.num_generators
        mpow = MonomialIdeal(2, [(n - 1 - i, i) for i in range(n)])
        if closed == mpow:
            continue  # the criterion's excluded case
        assert invariants.is_m_full_2var(closed)
        assert invariants.mu_maximality_sweep(closed)
        count += 1
    _report(12, "m-fullness of 50 integrally closed ideals (< 2 min)", t0)
