import itertools
import math
import random
from fractions import Fraction

import pytest

from monomials import closure, linalg, polyhedra
from monomials.core import Graph, alexander_dual
from monomials.errors import (
    BudgetExceededError,
    NonPointedConeError,
    PreconditionError,
)
from monomials.linalg import vec_dot

from helpers import (
    bowtie_figure_graph,
    box_scan_lattice_points,
    connected_atlas_graphs,
    coordinates_in_basis,
    covering_inequalities,
    cycle_graph,
    degree_ordered_hilbert_basis,
    gcd_of_maximal_minors,
    in_cone,
    inequalities_from_v_description,
    is_pointed,
    monoid_decompose,
    nullspace,
    q6_ideal,
    random_squarefree_ideal,
    refuse_smith_forms,
    saturation_basis,
    subsystem_vertices,
    time_limit,
    triangles_joined_by_path,
    two_disjoint_triangles,
)


def test_hilbert_basis_examples():
    assert polyhedra.hilbert_basis([(1, 0), (0, 1)]) == ((0, 1), (1, 0))
    assert polyhedra.hilbert_basis([(1, 0), (1, 2)]) == ((1, 0), (1, 1), (1, 2))
    assert polyhedra.hilbert_basis([(1, 0), (1, 4)]) == (
        (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)
    )
    # non-primitive generator: the basis uses the primitive ray
    assert polyhedra.hilbert_basis([(2, 4)]) == ((1, 2),)


def _brute_force_rays(rows):
    """Extreme rays of {x : rows.x >= 0} by (n-1)-subset tight systems."""
    n = len(rows[0])
    rays = set()
    for subset in itertools.combinations(range(len(rows)), n - 1):
        sub = [rows[i] for i in subset]
        if linalg.rank(sub) != n - 1:
            continue
        for w in nullspace(sub, ncols=n):
            for cand in (w, tuple(-x for x in w)):
                if all(vec_dot(r, cand) >= 0 for r in rows):
                    rays.add(linalg.clear_denominators(cand))
    # drop non-extreme leftovers (possible when the cone is low-dimensional)
    return sorted(rays)


def test_double_description_matches_brute_force():
    rng = random.Random(271)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        m = rng.randint(n, n + 3)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)
        ]
        if linalg.rank(rows) < n:
            continue
        dd = polyhedra.extreme_rays_of_inequalities(rows)
        done += 1
        brute = _brute_force_rays(rows)
        assert set(dd) <= set(brute)
        # every brute ray must be a non-negative combination of dd rays
        for ray in brute:
            assert in_cone(ray, dd)


def test_hilbert_basis_rees_cone_of_bipartite_cycle():
    gens = polyhedra.rees_cone(cycle_graph(4).edge_ideal())
    assert set(polyhedra.hilbert_basis(gens)) == set(gens)


def test_hilbert_basis_rejects_non_pointed():
    with pytest.raises(NonPointedConeError):
        polyhedra.hilbert_basis([(1, 0), (-1, 0)])


def test_hilbert_basis_covers_lattice_points():
    """Every lattice point of the cone with small coordinate sum decomposes."""
    rng = random.Random(41)
    for trial in range(16):
        dim = rng.randint(2, 5)
        gens = set()
        for _ in range(rng.randint(2, 6)):
            g = tuple(rng.randint(0, 3) for _ in range(dim))
            if any(g):
                gens.add(g)
        gens = sorted(gens)
        basis = polyhedra.hilbert_basis(gens)
        eqs, facets = polyhedra.cone_facets(gens)
        bound = 8 if dim <= 3 else 5
        for point in itertools.product(range(bound + 1), repeat=dim):
            if sum(point) > bound or not any(point):
                continue
            if polyhedra.cone_contains(point, eqs, facets):
                assert monoid_decompose(point, basis) is not None


def test_hilbert_basis_elements_irreducible():
    gens = [(1, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 1)]
    basis = polyhedra.hilbert_basis(gens)
    eqs, facets = polyhedra.cone_facets(gens)
    # h - g never stays in the cone: no basis element is a sum of others
    for h in basis:
        for g in basis:
            if g == h:
                continue
            diff = tuple(x - y for x, y in zip(h, g))
            assert not polyhedra.cone_contains(diff, eqs, facets)


def test_parallelepiped_counts_index():
    pts = polyhedra.parallelepiped_points([(1, 0), (1, 2)])
    assert sorted(pts) == [(0, 0), (1, 1)]
    pts = polyhedra.parallelepiped_points([(2, 1), (1, 2)])
    assert len(pts) == 3  # |det| = 3
    # a flat simplex is moved into its own lattice before it gets here
    for rays in ([(1, 1, 0), (0, 1, 1)], [(1, 2), (2, 4)]):
        with pytest.raises(PreconditionError):
            polyhedra.parallelepiped_points(rays)


def test_hilbert_basis_of_a_rees_cone_builds_no_fraction(monkeypatch):
    """The cone pipeline is integral from the eliminations on: with the
    memos cleared, the Hilbert basis of RC(I) for two disjoint triangles
    constructs no Fraction and runs 5 eliminations (one for the null space,
    which both the flat-cone test and the facet description read, together
    with the double description's seed, and an adjugate for each of the 4
    simplices whose height bound exceeds 1)."""
    gens = polyhedra.rees_cone(two_disjoint_triangles().edge_ideal())
    polyhedra._span.cache.clear()
    polyhedra._facet_description.cache.clear()
    polyhedra._hilbert_basis.cache.clear()
    counts = {"fractions": 0, "eliminations": 0}
    new = Fraction.__new__
    eliminate = linalg._eliminate

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return new(cls, *args, **kwargs)

    def counted_eliminate(mat):
        counts["eliminations"] += 1
        return eliminate(mat)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    basis = polyhedra.hilbert_basis(gens)
    monkeypatch.undo()
    assert len(basis) == len(gens) + 1  # one element beyond the generators
    assert counts == {"fractions": 0, "eliminations": 5}


def count_eliminations(monkeypatch, fn, *args):
    """``fn(*args)``, with the cone memos cleared first, and the number of
    eliminations it ran."""
    for cached in (polyhedra._span, polyhedra._facet_description,
                   polyhedra._hilbert_basis, closure.rees_representation):
        cached.cache.clear()
    eliminate, count = linalg._eliminate, [0]

    def counted(mat):
        count[0] += 1
        return eliminate(mat)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    value = fn(*args)
    monkeypatch.undo()
    return value, count[0]


def test_a_fresh_rees_representation_runs_one_elimination(monkeypatch):
    """RC(I) is full-dimensional: the elimination that finds it no equation
    also seeds the double description of its facets."""
    for graph in (two_disjoint_triangles(), cycle_graph(4)):
        rep, count = count_eliminations(
            monkeypatch, closure.rees_representation, graph.edge_ideal()
        )
        assert rep.facets and count == 1


def test_the_hilbert_basis_of_a_lifted_edge_cone_runs_two_eliminations(monkeypatch):
    """The cone over the lifted edge vectors (v, 1) of C4 or C5 is flat.  One
    elimination gives its equations, back substitution its lattice
    coordinates with none, and one more elimination finds the cone
    full-dimensional in those coordinates and seeds its double description.
    No simplex there needs an adjugate."""
    for graph in (cycle_graph(4), cycle_graph(5)):
        cols = [g + (1,) for g in graph.edge_ideal().gens]
        basis, count = count_eliminations(monkeypatch, polyhedra.hilbert_basis, cols)
        assert basis == tuple(sorted(cols)) and count == 2


def test_a_candidate_whose_only_reducer_has_half_its_degree():
    """cone((1, -1), (2, 1)) has |det| 3 and facets (1, 1), (1, -2): its
    parallelepiped points are (1, 0) and (2, 0) = 2 (1, 0), of degrees 2
    and 4, and (1, 0) is the only element that reduces (2, 0).  A reducer
    bound below deg // 2 would keep (2, 0)."""
    gens = [(1, -1), (2, 1)]
    _, facets = polyhedra.cone_facets(gens)
    assert sorted(polyhedra.parallelepiped_points(gens)) == [(0, 0), (1, 0), (2, 0)]
    assert [sum(vec_dot(f, p) for f in facets) for p in [(1, 0), (2, 0)]] == [2, 4]
    assert not any(
        polyhedra.cone_contains((2 - g[0], -g[1]), [], facets) for g in gens
    )
    assert polyhedra.hilbert_basis(gens) == ((1, -1), (1, 0), (2, 1))


def test_cone_facets_lower_dimensional():
    eqs, facets = polyhedra.cone_facets([(1, 1, 0), (0, 1, 1)])
    assert len(eqs) == 1
    for g in [(1, 1, 0), (0, 1, 1), (1, 2, 1)]:
        assert polyhedra.cone_contains(g, eqs, facets)
    assert not polyhedra.cone_contains((1, 0, 0), eqs, facets)


# Linearly independent generators whose saturation and parallelepiped
# points took a naive Smith form past 20 s through coefficient growth.
MIXED_SIGN_SPAN = [
    (2, -1, 5, 14, 6, 4, -11), (0, -1, 2, 2, 10, 12, -10),
    (-1, -4, 3, 14, 6, 0, -6), (1, -4, 0, 0, 6, 0, -12),
    (3, -3, 5, 12, 4, 12, -12), (7, -1, 4, 0, 4, 0, -1),
]
NONNEGATIVE_SPAN = [
    (5, 6, 6, 10, 7, 9), (1, 0, 2, 7, 11, 16), (0, 6, 0, 7, 5, 9),
    (6, 6, 1, 3, 10, 3), (3, 0, 2, 10, 10, 9),
]


def certify_simplicial_hilbert_basis(gens, basis):
    """Check the Hilbert basis of the cone over linearly independent
    generators without the cone pipeline, on the coefficients of points in
    the generators.  Every element is a lattice point of the cone and no
    sum of two elements.  Every generator is a sum of elements, and so is
    every lattice point in the unit box of coefficients: that box holds
    one point per class of (span ∩ Z^n) / (generator lattice), as many as
    the gcd of the maximal minors, and all of them are reached by adding
    elements modulo the generators.  The sums are found in Z^n itself."""
    assert linalg.rank(gens) == len(gens)
    columns = list(zip(*gens))

    def coefficients(p):
        lam = linalg.solve(columns, p)
        assert lam is not None and min(lam) >= 0
        return lam

    def unit_box(lam):
        return tuple(c - math.floor(c) for c in lam)

    lams = [coefficients(h) for h in basis]
    assert all(any(h) for h in basis)
    zero = (Fraction(0),) * len(gens)
    box, frontier = {zero}, [zero]
    while frontier:
        lam = frontier.pop()
        for h in lams:
            step = unit_box([a + b for a, b in zip(lam, h)])
            if step not in box:
                box.add(step)
                frontier.append(step)
    assert len(box) == gcd_of_maximal_minors(gens)
    for lam in box:
        point = tuple(sum(c * x for c, x in zip(lam, col)) for col in columns)
        assert all(x.denominator == 1 for x in point)
        point = tuple(map(int, point))
        assert monoid_decompose(point, basis) is not None
    for g in gens:
        assert monoid_decompose(g, basis) is not None
    sums = {
        tuple(x + y for x, y in zip(a, b))
        for a, b in itertools.combinations_with_replacement(basis, 2)
    }
    assert not sums & set(basis)


def test_a_mixed_sign_flat_cone_needs_no_smith_form(monkeypatch):
    refuse_smith_forms(monkeypatch)
    gens = MIXED_SIGN_SPAN
    eqs, facets = polyhedra.cone_facets(gens)
    assert len(eqs) == 1 and all(vec_dot(eqs[0], g) == 0 for g in gens)
    # simplicial: each facet is positive on exactly one generator
    assert len(facets) == len(gens)
    for f in facets:
        assert f == linalg.primitive(f) and f[-1] == 0  # on the pivot columns
        assert sorted(vec_dot(f, g) > 0 for g in gens) == [False] * 5 + [True]
        assert min(vec_dot(f, g) for g in gens) == 0
    basis = saturation_basis(gens)
    assert len(basis) == len(gens)
    assert all(coordinates_in_basis(g, basis) is not None for g in gens)
    assert gcd_of_maximal_minors(basis) == 1
    hilbert = polyhedra.hilbert_basis(gens)
    assert len(hilbert) == 16
    certify_simplicial_hilbert_basis(gens, hilbert)


def test_the_mixed_sign_span_has_its_minor_gcds_without_a_smith_form(monkeypatch):
    """On this span a naive Smith form had not finished after 12 s."""
    refuse_smith_forms(monkeypatch)
    assert polyhedra.smith_invariant(MIXED_SIGN_SPAN) == (32, 6)
    assert [
        polyhedra.smith_invariant(MIXED_SIGN_SPAN, r)[0] for r in range(1, 7)
    ] == [1, 1, 1, 1, 4, 32]
    assert gcd_of_maximal_minors(MIXED_SIGN_SPAN) == 32


def test_monoid_decompose_is_bounded_on_a_mixed_sign_basis():
    """With facet pruning each Hilbert basis element of the mixed-sign
    span is its own only decomposition; an orthant-only pruning searched
    this without bound."""
    hilbert = polyhedra.hilbert_basis(MIXED_SIGN_SPAN)
    h = (7, -1, 4, 0, 4, 0, -1)
    assert h in hilbert
    with time_limit(5):
        assert monoid_decompose(h, hilbert) == [h]
        twice = tuple(2 * x for x in h)
        assert monoid_decompose(twice, hilbert) == [h, h]
        assert monoid_decompose((1,) + (0,) * 6, hilbert) is None


def test_monoid_decompose_uses_its_whole_term_budget():
    """A point that failed only for lack of terms is tried again when it is
    reached with more terms left."""
    for point, basis, terms in [
        ((14, 6), [(1, 0), (3, 2), (4, 2), (5, 2)], 3),
        ((16, 6), [(1, 0), (2, 1), (3, 0), (4, 2)], 6),
    ]:
        summands = monoid_decompose(point, basis, max_terms=terms)
        assert summands is not None and len(summands) <= terms
        assert tuple(map(sum, zip(*summands))) == point
    assert monoid_decompose((14, 6), [(1, 0), (5, 2)], max_terms=3) is None


def test_one_facet_description_per_generator_set(monkeypatch):
    """Decompositions against one basis, in any order, share one facet
    description; a polytope's volume and lattice points share the one of its
    lifted vertices."""
    cone_facets, described = polyhedra.cone_facets, []
    monkeypatch.setattr(
        polyhedra, "cone_facets", lambda gens: described.append(gens) or cone_facets(gens)
    )
    polyhedra._facet_description.cache.clear()
    basis = [(1, 0), (3, 2), (4, 2), (5, 2)]
    for point in [(14, 6), (5, 2), (9, 4)]:
        assert monoid_decompose(point, basis) is not None
        assert monoid_decompose(point, basis[::-1]) is not None
    triangle = [(0, 0), (6, 0), (0, 5)]
    assert polyhedra.polytope_volume(triangle) == 15
    assert polyhedra.lattice_points(triangle[::-1]) == 22
    assert described == [tuple(sorted(basis)), ((0, 0, 1), (0, 5, 1), (6, 0, 1))]


def test_one_facet_description_and_hilbert_basis_per_generator_set(monkeypatch):
    """Pointedness and the Hilbert basis share one facet description, and the
    Hilbert basis is computed once whatever the order of the generators or
    repeats among them."""
    counted = {"cone_facets": 0, "pulling_triangulation": 0}
    for name in counted:
        original = getattr(polyhedra, name)

        def count(*args, name=name, original=original):
            counted[name] += 1
            return original(*args)

        monkeypatch.setattr(polyhedra, name, count)
    polyhedra._facet_description.cache.clear()
    polyhedra._hilbert_basis.cache.clear()
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    assert is_pointed(square)
    basis = polyhedra.hilbert_basis(square)
    assert (0, 0, 1) in basis and len(basis) == 5
    assert polyhedra.hilbert_basis(square[::-1] + square[:2] + [(0, 0, 0)]) is basis
    assert counted == {"cone_facets": 1, "pulling_triangulation": 1}


def test_a_compressed_cone_is_not_triangulated(monkeypatch):
    """No extreme ray of the Rees cone of a bipartite graph has a facet
    value above 1, so its Hilbert basis is its extreme rays, read with no
    triangulation; one ray value of 2 on the square cone triangulates it,
    and only then is (0, 0, 1) found."""
    calls = []
    original = polyhedra.pulling_triangulation

    def count(rays):
        calls.append(rays)
        return original(rays)

    monkeypatch.setattr(polyhedra, "pulling_triangulation", count)
    polyhedra._facet_description.cache.clear()
    polyhedra._hilbert_basis.cache.clear()
    for graph in [cycle_graph(4), cycle_graph(6), Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])]:
        gens = polyhedra.rees_cone(graph.edge_ideal())
        _, facets = polyhedra.cone_facets(gens)
        rays = polyhedra.extreme_ray_generators(polyhedra.facet_values(gens, facets))
        assert max(map(max, rays.values())) == 1
        assert polyhedra.hilbert_basis(gens) == tuple(rays) == gens
    assert calls == []
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    basis = polyhedra.hilbert_basis(square)
    assert len(calls) == 1
    assert basis == tuple(sorted(square + [(0, 0, 1)]))


def test_atlas_rees_cones_match_the_degree_ordered_oracle():
    """On the 142 connected graphs on at most 6 vertices, the Hilbert bases
    of RC(I), of the lifted edge cone (v_j, 1) and of RC(I^vee) equal those
    of the oracle, which always triangulates; most of these cones are
    compressed, and the lifted edge cones are flat.  Every one of them is
    normal, so four graphs with two vertex-disjoint triangles follow, whose
    RC(I) and lifted edge cone have a Hilbert basis larger than their
    generators."""
    atlas = connected_atlas_graphs(6)
    assert len(atlas) == 142
    larger = [
        two_disjoint_triangles(),
        triangles_joined_by_path(2),
        triangles_joined_by_path(3),
        bowtie_figure_graph(),
    ]
    for graph, grows in [(g, False) for g in atlas] + [(g, True) for g in larger]:
        ideal = graph.edge_ideal()
        cones = [
            polyhedra.rees_cone(ideal),
            [g + (1,) for g in ideal.gens],
            polyhedra.rees_cone(alexander_dual(ideal)),
        ]
        bases = [polyhedra.hilbert_basis(gens) for gens in cones]
        assert bases == [degree_ordered_hilbert_basis(gens) for gens in cones]
        assert [len(b) > len(g) for b, g in zip(bases, cones)] == [grows, grows, False]


def test_a_nonnegative_flat_hilbert_basis_needs_no_smith_form(monkeypatch):
    refuse_smith_forms(monkeypatch)
    hilbert = polyhedra.hilbert_basis(NONNEGATIVE_SPAN)
    assert len(hilbert) == 22
    certify_simplicial_hilbert_basis(NONNEGATIVE_SPAN, hilbert)


def test_covering_polyhedron_vertices():
    rep = polyhedra.ReesRepresentation(cycle_graph(4).edge_ideal())
    assert rep.vertices() == [
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    ]
    assert rep.integral
    c3 = cycle_graph(3).edge_ideal()
    assert (
        Fraction(1, 2),
    ) * 3 in polyhedra.ReesRepresentation(c3).vertices()


def test_covering_vertices_match_generic_enumeration():
    rng = random.Random(47)
    for _ in range(15):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 6))
        via_rees = polyhedra.ReesRepresentation(ideal).vertices()
        generic = subsystem_vertices(ideal.s, covering_inequalities(ideal))
        assert sorted(via_rees) == sorted(generic)


def test_rees_representation_examples():
    rep = polyhedra.ReesRepresentation(cycle_graph(4).edge_ideal())
    assert all(d == 1 for _, d in rep.gamma_d)
    assert rep.integral
    rep = polyhedra.ReesRepresentation(cycle_graph(3).edge_ideal())
    assert any(d == 2 for _, d in rep.gamma_d)
    assert not rep.integral
    rep = polyhedra.ReesRepresentation(q6_ideal())
    assert rep.integral and rep.r == rep.p
    for f in rep.facets:
        assert linalg.primitive(f) == f


def test_integral_vertex_count_is_r():
    rng = random.Random(53)
    for _ in range(15):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 6))
        rep = polyhedra.ReesRepresentation(ideal)
        integral = [
            v for v in rep.vertices() if all(x.denominator == 1 for x in v)
        ]
        assert len(integral) == rep.r
        covers = {
            tuple(1 if i in set(c) else 0 for i in range(ideal.s))
            for c in ideal.minimal_primes()
        }
        assert {tuple(int(x) for x in v) for v in integral} == covers


def test_vertex_inequality_round_trip():
    rng = random.Random(59)
    for _ in range(10):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 5))
        covering = covering_inequalities(ideal)
        verts = subsystem_vertices(ideal.s, covering)
        orthant = [
            tuple(1 if i == j else 0 for j in range(ideal.s))
            for i in range(ideal.s)
        ]
        eqs, ineqs = inequalities_from_v_description(verts, orthant)
        assert not eqs
        assert subsystem_vertices(ideal.s, ineqs) == verts
        for v in verts:
            for normal, offset in ineqs + covering:
                assert vec_dot(normal, v) >= offset


def test_lattice_points_examples():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert polyhedra.lattice_points(square, 2) == 9
    # conv(0, 6e1, 5e2): row sums 6+5+4+3+2+1+1; Pick gives the same count
    tri = [(0, 0), (6, 0), (0, 5)]
    assert polyhedra.lattice_points(tri, 1) == 22
    p0 = [(6, 0), (0, 5), (2, 2), (3, 1)]
    for verts in (square, tri, p0):
        for n in range(3):
            count = len(box_scan_lattice_points(verts, n))
            assert polyhedra.lattice_points(verts, n) == count


def test_lattice_points_refuse_a_negative_dilation():
    """-P has as many lattice points as P, but its box would be swapped."""
    for verts, k, count in [
        ([(0,), (1,)], -1, 2),
        ([(0, 0), (2, 0), (0, 2)], -1, 6),
        ([(1, 0), (0, 1)], -2, 3),
    ]:
        assert polyhedra.lattice_points(verts, -k) == count
        with pytest.raises(PreconditionError, match="dilation must be non-negative"):
            polyhedra.lattice_points(verts, k)


@pytest.mark.parametrize("verts, dilation, message", [
    ([], 1, "at least one vertex"),
    ([(0, 0), (1,)], 1, "different lengths"),
    # once counted as 2 points, by the length of the first vertex
    ([(0, 1), (1, 0, 2)], 2, "different lengths"),
], ids=["empty", "shorter", "longer"])
def test_lattice_points_refuse_a_malformed_vertex_list(verts, dilation, message):
    with pytest.raises(PreconditionError, match=message):
        polyhedra.lattice_points(verts, dilation)


def test_lattice_point_budget_reports_the_visit_it_stopped_at():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(BudgetExceededError) as info:
        polyhedra.lattice_points(square, 2, budget=3)
    assert (info.value.needed, info.value.budget) == (4, 3)
    assert info.value.stage == "lattice_points_system"


def test_lattice_points_of_rational_polyhedron():
    """n * [0, 3/2]^2, with the denominators of its rows cleared, in a box
    larger than it: the rational offsets cut the box down."""
    for n, count in [(1, 4), (2, 16), (3, 25)]:
        rows = [((1, 0), 0), ((0, 1), 0), ((-2, 0), -3 * n), ((0, -2), -3 * n)]
        assert polyhedra.lattice_points_system([], rows, [-1, -1], [5, 5]) == count
        # the walk prunes by single-variable rows like any other; the
        # diagonal cut x + y <= 3n/2 cuts the square further
        cut = rows + [((-2, -2), -3 * n)]
        inside = [
            x for x in itertools.product(range(-1, 6), repeat=2)
            if all(vec_dot(normal, x) >= offset for normal, offset in cut)
        ]
        assert polyhedra.lattice_points_system([], cut, [-1, -1], [5, 5]) == len(inside)


def orbit_scan_count(verts, n):
    """The box scan of ``box_scan_lattice_points`` for vertices closed under
    permuting coordinates: one :func:`in_cone` test per orbit of box points,
    its non-increasing member, weighed by the orbit's size."""
    lifted = [v + (1,) for v in verts]
    top = n * max(map(max, verts))
    return sum(
        len(set(itertools.permutations(x)))
        for x in itertools.combinations_with_replacement(range(top, -1, -1), len(verts[0]))
        if in_cone(x + (n,), lifted)
    )


def test_special_count_agrees_with_enumeration():
    shapes = [
        sorted(set(itertools.permutations([1] * k + [0] * (s - k))))
        for s, k in [(4, 2), (5, 2), (5, 3), (6, 2)]
    ]
    shapes.append([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    for verts in shapes:
        assert polyhedra._special_count(verts, 1) == len(box_scan_lattice_points(verts))
        for n in range(1, 4):
            assert polyhedra._special_count(verts, n) == orbit_scan_count(verts, n)


def test_ehrhart_examples():
    seg = polyhedra.ehrhart_polynomial([(0,), (1,)])
    assert seg.counts == (1, 2) and seg.h_vector == (1, 0)
    tri = polyhedra.ehrhart_polynomial([(0, 0), (1, 0), (0, 1)])
    assert tri.coefficients == (1, Fraction(3, 2), Fraction(1, 2))
    assert tri.h_vector == (1, 0, 0)
    pc4 = polyhedra.ehrhart_polynomial(
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    )
    assert pc4.h_vector == (1, 1, 0)
    assert pc4.h_degree == 1
    assert pc4.normalized_volume == 2


def test_ehrhart_h_vector_nonnegative_random():
    rng = random.Random(61)
    for _ in range(12):
        dim = rng.randint(1, 3)
        pts = {
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(2, 6))
        }
        pts = sorted(pts)
        if len(pts) < 2:
            continue
        data = polyhedra.ehrhart_polynomial(pts)
        assert all(h >= 0 for h in data.h_vector)
        # self-consistency at one more dilation is checked internally;
        # also check one further dilation here
        extra = polyhedra.lattice_points(pts, data.dim + 2)
        assert data.evaluate(data.dim + 2) == extra


def test_smith_invariant_examples_and_minor_gcd():
    delta, rank = polyhedra.smith_invariant([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert (delta, rank) == (1, 3)
    with pytest.raises(PreconditionError):
        polyhedra.smith_invariant([(1, 0), (0, 1)], r=3)
    rng = random.Random(67)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)
        ]
        if not any(any(row) for row in mat):
            continue
        delta, rank = polyhedra.smith_invariant(mat)
        g = 0
        from math import gcd

        for rows in itertools.combinations(range(m), rank):
            for cols in itertools.combinations(range(n), rank):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, int(linalg.det(sub)))
        assert delta == g


def test_volume_examples():
    assert polyhedra.polytope_volume([(6, 0), (0, 5), (2, 2), (3, 1)]) == 5
    assert polyhedra.polytope_volume([(0, 0), (6, 0), (0, 5)]) == 15
    # lower-dimensional polytopes have ambient volume zero
    assert polyhedra.polytope_volume([(2, 0), (0, 2)]) == 0


def test_ehrhart_rejects_fractional_vertices():
    with pytest.raises(PreconditionError):
        polyhedra.ehrhart_polynomial([(Fraction(1, 2), 0), (1, 0), (0, 1)])
