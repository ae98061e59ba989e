import random
from math import inf

import pytest

from monomials import closure, graphs, symbolic
from monomials.core import Graph, ideal_power
from monomials.errors import PreconditionError

from helpers import (
    bowtie_figure_graph,
    complete_graph,
    connected_atlas_graphs,
    cycle_graph,
    edge_scan_odd_cycle_condition,
    loop_multigraphs,
    neighborhood_hochster_configurations,
    pair_loop_bowties,
    path_graph,
    random_graph,
    triangles_joined_by_edge,
    triangles_joined_by_path,
    two_disjoint_triangles,
)


def test_induced_cycles():
    c5 = cycle_graph(5)
    assert [c.vertices for c in graphs.induced_cycles(c5)] == [(0, 1, 2, 3, 4)]
    k4 = complete_graph(4)
    cycles = graphs.induced_cycles(k4)
    assert all(len(c) == 3 for c in cycles) and len(cycles) == 4
    # a chorded 4-cycle has no induced 4-cycle
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert all(len(c) == 3 for c in graphs.induced_cycles(g))


def test_loops_count_as_odd_cycles():
    g = Graph(3, [(0, 1), (1, 2), (0, 0)], multigraph=True)
    cycles = graphs.induced_cycles(g, parity="odd")
    assert (0,) in [c.vertices for c in cycles]
    loops_apart = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 0), (3, 3)],
                        multigraph=True)
    configs = graphs.hochster_configurations(loops_apart)
    # loops at 0 and 3 are disjoint and non-adjacent: a configuration
    assert len(configs) == 1
    assert configs[0].z_degree == 1


def test_hochster_configurations():
    assert graphs.hochster_configurations(cycle_graph(4)) == []
    two = two_disjoint_triangles()
    configs = graphs.hochster_configurations(two)
    assert len(configs) == 1
    assert configs[0].monomial == (1, 1, 1, 1, 1, 1)
    assert configs[0].z_degree == 3
    assert graphs.hochster_configurations(triangles_joined_by_edge()) == []
    assert graphs.hochster_configurations(complete_graph(5)) == []


def test_figure_bowtie_graph_has_a_configuration():
    """A joining path of length two does not block the configuration.

    Independently verified: the Rees-algebra closure really does gain the
    monomial (LP membership at power 4), so I(G) is not normal.
    """
    fig = bowtie_figure_graph()
    configs = graphs.hochster_configurations(fig)
    assert len(configs) == 1
    monomial = configs[0].monomial
    assert monomial == (1, 1, 1, 1, 1, 0, 1, 1, 1)
    assert configs[0].z_degree == 4
    ideal = fig.edge_ideal()
    ok, _ = closure.membership(monomial, ideal, 4)
    assert ok
    assert not ideal_power(ideal, 4).contains_monomial(monomial)
    assert not graphs.edge_ideal_normal(fig)


def test_edge_ideal_normal_matches_closure():
    cases = [
        cycle_graph(4),
        cycle_graph(5),
        two_disjoint_triangles(),
        triangles_joined_by_edge(),
        complete_graph(5),
        triangles_joined_by_path(2),
    ]
    for g in cases:
        assert graphs.edge_ideal_normal(g) == bool(
            closure.is_normal(g.edge_ideal(), method="hilbert")
        )


def test_rees_closure_generators():
    assert graphs.rees_closure_generators(cycle_graph(4)) == []
    two = two_disjoint_triangles()
    gens = graphs.rees_closure_generators(two, cross_validate=True)
    assert gens == [((1, 1, 1, 1, 1, 1), 3)]
    assert graphs.rees_closure_generators(
        triangles_joined_by_edge(), cross_validate=True
    ) == []


def test_bowties_and_subring_closure():
    two = two_disjoint_triangles()
    assert graphs.bowties(two) == []
    assert graphs.edge_subring_closure(two) == sorted(two.edge_ideal().gens)
    fig = bowtie_figure_graph()
    ties = graphs.bowties(fig)
    assert len(ties) == 1
    assert ties[0].monomial == (1, 1, 1, 1, 1, 0, 1, 1, 1)
    assert ties[0].path in ((4, 5, 6), (6, 5, 4))
    closure_gens = graphs.edge_subring_closure(fig)
    assert (1, 1, 1, 1, 1, 0, 1, 1, 1) in closure_gens
    shared = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert len(graphs.bowties(shared)) == 1
    assert graphs.bowties(shared)[0].monomial == (1, 1, 2, 1, 1)


def test_subring_closure_matches_hilbert_route():
    cases = [
        cycle_graph(4),
        cycle_graph(5),
        two_disjoint_triangles(),
        triangles_joined_by_edge(),
        complete_graph(5),
        bowtie_figure_graph(),
        Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
    ]
    for g in cases:
        via_hilbert = graphs.edge_subring_closure_via_hilbert(g)
        described = set(graphs.edge_subring_closure(g))
        # the Hilbert basis is the minimal generating set; the bowtie
        # description generates, so it must contain the basis
        assert set(via_hilbert) <= described


def test_odd_cycle_condition_and_subring_normality():
    assert graphs.odd_cycle_condition(complete_graph(5))
    assert graphs.edge_subring_normal(complete_graph(5))
    assert not graphs.odd_cycle_condition(two_disjoint_triangles())
    two_far = triangles_joined_by_path(2)
    assert not graphs.odd_cycle_condition(two_far)
    assert not graphs.edge_subring_normal(two_far)
    assert graphs.odd_cycle_condition(cycle_graph(4))
    with pytest.raises(PreconditionError):
        graphs.edge_subring_normal(two_disjoint_triangles())


def test_odd_cycle_pairs_match_the_pair_loops():
    """Hochster configurations, the odd cycle condition and bowties from the
    one walk over odd-cycle pairs agree with their own pair loops."""
    def configurations(configs):
        return [
            (c.cycle1.vertices, c.cycle2.vertices, c.monomial, c.z_degree)
            for c in configs
        ]

    def ties(found):
        return [
            (b.cycle1.vertices, b.cycle2.vertices, b.monomial, b.path) for b in found
        ]

    corpus = connected_atlas_graphs() + list(loop_multigraphs(random.Random(17), 150))
    for graph in corpus:
        assert configurations(graphs.hochster_configurations(graph)) == configurations(
            neighborhood_hochster_configurations(graph)
        )
        assert graphs.odd_cycle_condition(graph) == edge_scan_odd_cycle_condition(graph)
        assert ties(graphs.bowties(graph)) == ties(pair_loop_bowties(graph))


def test_subring_normal_iff_hilbert_basis_is_edges():
    """For connected graphs: odd cycle condition <=> closure adds nothing."""
    rng = random.Random(211)
    cases = [
        cycle_graph(5),
        complete_graph(5),
        triangles_joined_by_edge(),
        triangles_joined_by_path(2),
        bowtie_figure_graph(),
    ]
    cases += [random_graph(rng, rng.randint(4, 7), connected=True)
              for _ in range(8)]
    for g in cases:
        if not g.is_connected():
            continue
        normal = graphs.edge_subring_normal(g)
        hb = graphs.edge_subring_closure_via_hilbert(g)
        assert normal == (hb == sorted(g.edge_ideal().gens))


def test_odd_girth():
    assert graphs.odd_girth(cycle_graph(5)) == 5
    assert graphs.odd_girth(cycle_graph(7)) == 7
    assert graphs.odd_girth(cycle_graph(4)) == inf
    assert graphs.odd_girth(complete_graph(4)) == 3
    # 5-cycle with a chord has a triangle
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    assert graphs.odd_girth(g) == 3


def test_simis_failure_degree_vs_brute_force():
    for g in [cycle_graph(3), cycle_graph(5), cycle_graph(7)]:
        r0 = graphs.simis_failure_degree(g)
        ideal = g.edge_ideal()
        brute = next(
            n
            for n in range(1, r0 + 1)
            if ideal_power(ideal, n) != symbolic.symbolic_power(ideal, n)
        )
        assert r0 == brute
        for n in range(1, r0):
            assert ideal_power(ideal, n) == symbolic.symbolic_power(ideal, n)
    assert graphs.simis_failure_degree(cycle_graph(4)) is None


def test_simis_failure_degree_random_nonbipartite():
    rng = random.Random(97)
    for _ in range(8):
        g = random_graph(rng, rng.randint(4, 6), nonbipartite=True)
        r0 = graphs.simis_failure_degree(g)
        ideal = g.edge_ideal()
        for n in range(1, r0):
            assert ideal_power(ideal, n) == symbolic.symbolic_power(ideal, n)
        assert ideal_power(ideal, r0) != symbolic.symbolic_power(ideal, r0)


def test_edge_subring_dimension():
    assert graphs.edge_subring_dimension(cycle_graph(4)) == 3
    assert graphs.edge_subring_dimension(cycle_graph(3)) == 3
    c4_c3 = Graph(
        7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]
    )
    assert graphs.edge_subring_dimension(c4_c3) == 6


def test_ehrhart_normality_criterion():
    ok, diag = graphs.ehrhart_normality_criterion(complete_graph(5))
    assert ok and diag["delta_r"] == 1
    ok, diag = graphs.ehrhart_normality_criterion(two_disjoint_triangles())
    assert not ok and diag["delta_r"] == 2
    ok, diag = graphs.ehrhart_normality_criterion(cycle_graph(4))
    assert ok and diag["nonbipartite_components"] == 0


def test_unmixed():
    assert graphs.is_unmixed(cycle_graph(4).clutter())
    assert not graphs.is_unmixed(path_graph(3).clutter())
    assert graphs.unmixed_bipartite_check(cycle_graph(4))
    assert not graphs.unmixed_bipartite_check(path_graph(3))
    # whiskered path on three vertices is unmixed (and CM)
    wp3 = Graph(6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
    assert graphs.unmixed_bipartite_check(wp3)


def test_unmixed_bipartite_agreement_random():
    rng = random.Random(101)
    from helpers import random_bipartite_graph

    for _ in range(15):
        g = random_bipartite_graph(rng, rng.randint(3, 7))
        graphs.unmixed_bipartite_check(g)  # raises on disagreement


def test_cm_bipartite_and_trees():
    assert graphs.cm_bipartite(Graph(2, [(0, 1)]))
    assert not graphs.cm_bipartite(cycle_graph(4))
    wp3 = Graph(6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
    assert graphs.cm_bipartite(wp3)
    assert graphs.cm_tree(wp3)
    assert graphs.cm_tree(Graph(2, [(0, 1)]))
    assert not graphs.cm_tree(path_graph(3))
    assert graphs.cm_tree(path_graph(4))  # P4 = whiskered edge... P4 = K2 + whiskers
    with pytest.raises(PreconditionError):
        graphs.cm_tree(cycle_graph(4))


def test_multigraph_loops_normality_consistency():
    far_loops = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 0), (3, 3)],
                      multigraph=True)
    assert not graphs.edge_ideal_normal(far_loops)
    assert not closure.is_normal(far_loops.edge_ideal(), method="both").normal
    near_loops = Graph(2, [(0, 1), (0, 0), (1, 1)], multigraph=True)
    assert graphs.edge_ideal_normal(near_loops)
    assert closure.is_normal(near_loops.edge_ideal(), method="both").normal


def test_whisker_trees_are_cm_both_routes():
    rng = random.Random(223)
    for _ in range(6):
        k = rng.randint(1, 4)
        base_edges = [(rng.randrange(i), i) for i in range(1, k)]
        whiskers = [(i, k + i) for i in range(k)]
        tree = Graph(2 * k, base_edges + whiskers)
        assert graphs.cm_tree(tree)
        assert graphs.cm_bipartite(tree)
        assert graphs.is_unmixed(tree.clutter())


def test_cm_implies_unmixed_on_trees():
    rng = random.Random(103)
    for _ in range(10):
        # random tree via random Pruefer-ish attachment
        s = rng.randint(2, 8)
        edges = [(rng.randrange(i), i) for i in range(1, s)]
        tree = Graph(s, edges)
        if graphs.cm_tree(tree):
            assert graphs.is_unmixed(tree.clutter())
