import gc
import itertools
import random

import pytest

from monomials import codes, core, graphs, invariants, polyhedra
from monomials.core import (
    Clutter,
    Graph,
    MonomialIdeal,
    UNIT,
    ZERO,
    alexander_dual,
    colon_monomial,
    covering_number,
    divides,
    has_packing_property,
    ideal_power,
    ideal_product,
    is_konig,
    matching_number,
    minimal_generating_set,
    minor,
    staircase,
    staircase_count,
    vec_add,
)
from monomials.errors import BudgetExceededError, PreconditionError

from helpers import (
    connected_atlas_graphs,
    cycle_graph,
    loop_multigraphs,
    monoid_decompose,
    path_graph,
    q6_clutter,
    q6_ideal,
    random_bipartite_graph,
    random_ideal,
    random_squarefree_ideal,
)


def test_minimal_generating_set_examples():
    assert minimal_generating_set([(2, 0), (1, 1), (2, 1)]).gens == ((1, 1), (2, 0))
    assert minimal_generating_set([(1, 1, 0), (0, 1, 1)]).gens == (
        (0, 1, 1),
        (1, 1, 0),
    )
    assert minimal_generating_set([(1, 0), (1, 0)]).gens == ((1, 0),)


def test_minimal_generating_set_rejects_bad_input():
    with pytest.raises(PreconditionError):
        minimal_generating_set([])
    with pytest.raises(PreconditionError):
        MonomialIdeal(2, [(1, 0), (1,)])
    with pytest.raises(PreconditionError):
        MonomialIdeal(2, [(0, 0)])


def test_minimality_invariant_random():
    rng = random.Random(7)
    for _ in range(50):
        ideal = random_ideal(rng, rng.randint(1, 4))
        for g in ideal.gens:
            for h in ideal.gens:
                assert g == h or not divides(g, h)


def test_ideal_power_examples():
    principal = MonomialIdeal(2, [(1, 1)])
    assert ideal_power(principal, 3).gens == ((3, 3),)
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert ideal_power(ci, 2).gens == ((0, 4), (2, 2), (4, 0))
    triangle = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    sq = ideal_power(triangle, 2)
    assert len(sq.gens) == 6
    assert (1, 1, 2) in sq.gens
    with pytest.raises(PreconditionError):
        ideal_power(triangle, 0)


def test_ideal_power_one_is_identity():
    rng = random.Random(3)
    for _ in range(10):
        ideal = random_ideal(rng, 3)
        assert ideal_power(ideal, 1) == ideal


def test_colon_examples():
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    assert colon_monomial(ideal, (0, 1, 0)).gens == ((0, 0, 1), (1, 0, 0))
    assert colon_monomial(ideal, (0, 0, 0)) == ideal
    q6 = q6_ideal()
    expected = MonomialIdeal(
        6,
        [(0, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 0), (0, 1, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)],
    )
    assert colon_monomial(q6, (1, 0, 0, 0, 0, 0)) == expected


def test_colon_by_member_is_unit():
    ideal = MonomialIdeal(2, [(1, 1)])
    assert colon_monomial(ideal, (1, 1)) is UNIT


def test_colon_distributes_over_addition():
    rng = random.Random(11)
    for _ in range(40):
        ideal = random_ideal(rng, 3, max_exp=3)
        a = tuple(rng.randint(0, 2) for _ in range(3))
        b = tuple(rng.randint(0, 2) for _ in range(3))
        one_step = colon_monomial(ideal, vec_add(a, b))
        two = colon_monomial(ideal, a)
        two_step = two if two is UNIT else colon_monomial(two, b)
        assert one_step == two_step or (one_step is UNIT and two_step is UNIT)


def test_alexander_dual_examples():
    c4 = cycle_graph(4).edge_ideal()
    assert alexander_dual(c4).gens == ((0, 1, 0, 1), (1, 0, 1, 0))
    triangle = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert alexander_dual(triangle) == triangle
    q6 = q6_ideal()
    blocker = alexander_dual(q6)
    assert alexander_dual(blocker) == q6


def test_alexander_dual_involution_random():
    rng = random.Random(23)
    for _ in range(30):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 8))
        assert alexander_dual(alexander_dual(ideal)) == ideal


def test_edge_ideals_and_alexander_duals_match_the_minimalizing_constructor():
    """``Graph.edge_ideal`` and ``alexander_dual`` build their ideals from
    lists that are already minimal, with no minimalization; each equals
    ``MonomialIdeal(s, gens)`` on generators written out here: the edges
    and loops in the order given, and every vertex cover, not only the
    minimal ones."""
    def dual_by_every_cover(ideal):
        supports = [core.support(g) for g in ideal.gens]
        covers = [
            tuple(int(v in c) for v in range(ideal.s))
            for k in range(1, ideal.s + 1)
            for c in itertools.combinations(range(ideal.s), k)
            if all(e & set(c) for e in supports)
        ]
        return MonomialIdeal(ideal.s, covers)

    def check(expected, built):
        assert built == expected and expected == built
        assert built.gens == expected.gens and hash(built) == hash(expected)
        assert all(type(x) is int for g in built.gens for x in g)

    rng = random.Random(29)
    corpus = connected_atlas_graphs(6) + list(loop_multigraphs(rng, 150))
    assert len(corpus) == 292
    for graph in corpus:
        rows = [(e, 1) for e in graph.edges] + [((v,), 2) for v in graph.loops]
        written = [tuple(x if v in e else 0 for v in range(graph.s)) for e, x in rows]
        ideal = graph.edge_ideal()
        check(MonomialIdeal(graph.s, written[::-1]), ideal)
        if not graph.loops:
            check(dual_by_every_cover(ideal), alexander_dual(ideal))
    for _ in range(150):
        ideal = random_squarefree_ideal(rng, rng.randint(1, 7))
        check(dual_by_every_cover(ideal), alexander_dual(ideal))


def test_alexander_dual_rejects_non_squarefree():
    with pytest.raises(PreconditionError):
        alexander_dual(MonomialIdeal(2, [(2, 0), (0, 1)]))


def test_minor_examples():
    c4 = cycle_graph(4).edge_ideal()
    assert minor(c4, {0: 1}).gens == ((0, 0, 1), (1, 0, 0))
    assert minor(c4, {0: 0}).gens == ((0, 1, 1), (1, 1, 0))
    triangle = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert minor(triangle, {0: 1, 1: 1}) is UNIT
    assert minor(MonomialIdeal(2, [(1, 1)]), {0: 0}) is ZERO


def test_covering_matching_konig():
    c4 = cycle_graph(4).clutter()
    assert (covering_number(c4), matching_number(c4)) == (2, 2)
    assert is_konig(c4)
    c3 = cycle_graph(3).clutter()
    assert (covering_number(c3), matching_number(c3)) == (2, 1)
    assert not is_konig(c3)
    q6 = q6_clutter()
    assert (covering_number(q6), matching_number(q6)) == (2, 1)
    assert not is_konig(q6)


def test_covering_number_equals_blocker_minimum():
    rng = random.Random(5)
    for _ in range(25):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 7))
        cl = ideal.clutter()
        blocker = cl.blocker()
        assert covering_number(cl) == min(len(e) for e in blocker.edges)


def test_packing_property():
    assert has_packing_property(cycle_graph(4).edge_ideal())
    assert not has_packing_property(cycle_graph(3).edge_ideal())
    assert not has_packing_property(q6_ideal())


def test_packing_verdicts_beside_singleton_edges():
    """A singleton edge changes no verdict: beside a triangle the clutter
    still fails, beside a 4-cycle and an edge it still packs; a 3-uniform
    Koenig clutter fails through its contraction at 5, a triangle."""
    assert not has_packing_property(Clutter(4, [(0,), (1, 2), (2, 3), (1, 3)]).edge_ideal())
    assert has_packing_property(Clutter(5, [(0,), (1, 2), (2, 3), (3, 4), (1, 4)]).edge_ideal())
    assert has_packing_property(
        Clutter(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]).edge_ideal()
    )
    assert has_packing_property(Clutter(3, [(0,), (1,), (2,)]).edge_ideal())
    uniform = Clutter(6, [(0, 1, 5), (0, 2, 5), (1, 2, 5), (1, 3, 5), (1, 4, 5)])
    assert is_konig(uniform)
    assert not has_packing_property(uniform.edge_ideal())


def test_bipartite_graphs_pack():
    rng = random.Random(17)
    for _ in range(12):
        g = random_bipartite_graph(rng, rng.randint(3, 8))
        assert has_packing_property(g.edge_ideal())
    ten = random_bipartite_graph(rng, 10, p=0.4)
    assert has_packing_property(ten.edge_ideal())


def test_intersection():
    a = MonomialIdeal(2, [(2, 0)])
    b = MonomialIdeal(2, [(0, 3)])
    assert a.intersect(b).gens == ((2, 3),)


def test_ideal_product_refuses_ideals_of_different_rings():
    """The product of ideals in 2 and 3 variables is refused in both
    orders, as an intersection is, instead of truncating the sums."""
    a = MonomialIdeal(2, [(1, 0), (0, 1)])
    b = MonomialIdeal(3, [(1, 0, 0), (0, 0, 1)])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(PreconditionError, match="ambient mismatch"):
            ideal_product(x, y)
        with pytest.raises(PreconditionError, match="ambient mismatch"):
            x.intersect(y)


def test_ideal_product_matches_the_minimalizing_constructor():
    """The minimalized sums equal ``MonomialIdeal`` of all pairwise sums,
    in gens, equality and hash, with int entries, on seeded pairs."""
    rng = random.Random(29)
    for _ in range(200):
        s = rng.randint(1, 5)
        a = random_ideal(rng, s, max_exp=3, max_gens=5)
        b = random_ideal(rng, s, max_exp=3, max_gens=5)
        product = ideal_product(a, b)
        oracle = MonomialIdeal(s, [vec_add(g, h) for g in a.gens for h in b.gens])
        assert product == oracle and oracle == product
        assert product.gens == oracle.gens and hash(product) == hash(oracle)
        assert product.s == s
        assert all(type(x) is int for g in product.gens for x in g)


def test_cover_and_matching_searches_leave_no_reference_cycles():
    """Only the cyclic collector could free a self-recursive closure; the
    pulling triangulation, the induced-cycle search and the other recursive
    enumerations below recurse too."""
    q6 = q6_clutter()
    pyramid = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    p4 = path_graph(4)
    zigzag = Graph(4, [(0, 1), (2, 3), (0, 3)])
    gc.collect()
    gc.disable()
    try:
        assert covering_number(q6) == 2
        assert matching_number(q6) == 1
        assert not has_packing_property(q6_ideal())
        assert has_packing_property(cycle_graph(4).edge_ideal())
        _, facets = polyhedra.cone_facets(pyramid)
        rays = polyhedra.extreme_ray_generators(polyhedra.facet_values(pyramid, facets))
        assert len(polyhedra.pulling_triangulation(rays)) == 2
        assert len(graphs.induced_cycles(cycle_graph(5))) == 1
        triangle = [(0, 0), (2, 0), (0, 2)]
        assert polyhedra.lattice_points(triangle, dilation=3) == 28
        assert len(codes.monomial_basis(3, 2)) == 6
        assert monoid_decompose((2, 2), [(1, 0), (0, 1)]) == [
            (1, 0), (1, 0), (0, 1), (0, 1)
        ]
        assert p4.maximal_stable_sets() == [(0, 2), (0, 3), (1, 3)]
        assert len(q6.minimal_covers()) == 7
        assert codes.v_number_monomial(cycle_graph(5).edge_ideal()) == 2
        p1 = codes.PointSetOverFq(2, 2, [(1, 0), (0, 1), (1, 1)])
        assert codes.v_number_points(p1) == 2
        assert invariants.veronese_canonical_generators(4, 2, 6) == [(1, 1, 1, 1)]
        matchings = graphs._perfect_matchings(zigzag, (0, 2), (1, 3))
        assert list(matchings) == [((0, 1), (2, 3))]
        assert graphs.cm_bipartite(zigzag)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ideal_power_matches_the_n_fold_sums():
    rng = random.Random(13)
    for _ in range(20):
        ideal = random_ideal(rng, rng.randint(1, 4), max_exp=3, max_gens=4)
        n = rng.randint(2, 4)
        sums = set()
        for combo in itertools.combinations_with_replacement(ideal.gens, n):
            total = combo[0]
            for g in combo[1:]:
                total = vec_add(total, g)
            sums.add(total)
        assert ideal_power(ideal, n) == MonomialIdeal(ideal.s, sums)


def test_size_limits_raise_budget_errors():
    big = Clutter(25, [(i, i + 1) for i in range(24)])
    for search in (covering_number, matching_number):
        with pytest.raises(BudgetExceededError) as info:
            search(big)
        assert (info.value.needed, info.value.budget) == (25, 20)
        assert info.value.stage == search.__name__
    with pytest.raises(BudgetExceededError) as info:
        has_packing_property(path_graph(13).edge_ideal())
    assert (info.value.needed, info.value.budget) == (13, 12)
    assert info.value.stage == "has_packing_property"
    with pytest.raises(PreconditionError):
        has_packing_property(MonomialIdeal(2, [(2, 0), (0, 1)]))


def test_packing_limit_counts_only_the_variables_that_occur():
    """One edge among 13 variables walks two vertices, not 13."""
    edge = MonomialIdeal(13, [(1, 1) + (0,) * 11])
    assert has_packing_property(edge)
    with pytest.raises(BudgetExceededError) as info:
        has_packing_property(edge, limit=1)
    assert (info.value.needed, info.value.budget) == (2, 1)


def test_height_and_primes_of_a_non_squarefree_ideal_use_minimal_supports():
    """The supports {0} of x^2 and {0, 1} of xy nest; sqrt(I) = (x)."""
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert ideal.height() == 1
    assert ideal.minimal_primes() == [(0,)]
    mixed = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1), (1, 0, 1)])
    assert mixed.height() == 2
    assert mixed.minimal_primes() == [(0, 1), (0, 2)]


def test_staircase_keeps_threshold_lists_per_row_and_room():
    """At x = 0 both rows have room 0, but t >= 3 - 2x and t >= 3 - x give
    different thresholds from x = 1 on; a list shared by room alone would
    keep (1, 1)."""
    rows = [((2, 1), 3), ((1, 1), 3)]
    assert staircase((2, 3), rows) == [(0, 3), (1, 2), (2, 1)]
    assert staircase_count((2, 3), rows) == 3 + 2 + 1


def test_staircase_walks_the_box_by_bound_and_sorts_what_it_finds():
    """The walk puts the larger bound last, so it meets (2, 0) before
    (1, 1); the answer is still in lex order."""
    order, bounds, rows = core._by_bound((3, 1, 3, 0), [((1, 2, 3, 4), 5)])
    assert (order, bounds, rows) == ([3, 1, 0, 2], [0, 1, 3, 3], [((4, 2, 1, 3), 5)])
    assert staircase((2, 1), [((1, 1), 2)]) == [(1, 1), (2, 0)]
    assert staircase_count((2, 1), [((1, 1), 2)]) == 3
