import itertools
import random
from fractions import Fraction

import pytest

from monomials import linalg, polyhedra
from monomials.core import MonomialIdeal
from monomials.errors import (
    BudgetExceededError,
    NonPointedConeError,
    PreconditionError,
)
from monomials.linalg import vec_dot

from helpers import cycle_graph, q6_ideal, random_squarefree_ideal


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
        for w in linalg.nullspace(sub, ncols=n):
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
        from monomials import lp as lp_mod

        for ray in brute:
            assert lp_mod.in_cone(ray, dd)


def test_hilbert_basis_rees_cone_of_bipartite_cycle():
    cone = polyhedra.rees_cone(cycle_graph(4).edge_ideal())
    assert set(cone.hilbert_basis()) == set(cone.generators)


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
                assert polyhedra.monoid_decompose(point, basis) is not None


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


def test_cone_facets_lower_dimensional():
    eqs, facets = polyhedra.cone_facets([(1, 1, 0), (0, 1, 1)])
    assert len(eqs) == 1
    for g in [(1, 1, 0), (0, 1, 1), (1, 2, 1)]:
        assert polyhedra.cone_contains(g, eqs, facets)
    assert not polyhedra.cone_contains((1, 0, 0), eqs, facets)


def test_covering_polyhedron_vertices():
    c4 = cycle_graph(4).edge_ideal()
    poly = polyhedra.covering_polyhedron(c4)
    assert poly.vertices() == [
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    ]
    assert poly.is_integral()
    c3 = cycle_graph(3).edge_ideal()
    assert (
        Fraction(1, 2),
    ) * 3 in polyhedra.covering_polyhedron(c3).vertices()


def test_covering_vertices_match_generic_enumeration():
    rng = random.Random(47)
    for _ in range(15):
        ideal = random_squarefree_ideal(rng, rng.randint(3, 6))
        via_rees = polyhedra.ReesRepresentation(ideal).vertices()
        generic = polyhedra.covering_polyhedron(ideal).vertices()
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
        poly = polyhedra.covering_polyhedron(ideal)
        verts = poly.vertices()
        orthant = [
            tuple(1 if i == j else 0 for j in range(ideal.s))
            for i in range(ideal.s)
        ]
        eqs, ineqs = polyhedra.inequalities_from_v_description(verts, orthant)
        assert not eqs
        rebuilt = polyhedra.RationalPolyhedron(ideal.s, ineqs)
        assert sorted(rebuilt.vertices()) == sorted(verts)
        for v in verts:
            assert rebuilt.contains(v) and poly.contains(v)


def test_lattice_points_examples():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert polyhedra.lattice_points(square, 2, collect=False) == 9
    # conv(0, 6e1, 5e2): row sums 6+5+4+3+2+1+1; Pick gives the same count
    tri = [(0, 0), (6, 0), (0, 5)]
    assert polyhedra.lattice_points(tri, 1, collect=False) == 22
    p0 = [(6, 0), (0, 5), (2, 2), (3, 1)]
    direct = polyhedra.lattice_points(p0, 1, collect=True)
    assert len(direct) == polyhedra.lattice_points(p0, 1, collect=False)


def test_lattice_point_budget_reports_the_visit_it_stopped_at():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(BudgetExceededError) as info:
        polyhedra.lattice_points(square, 2, budget=3)
    assert (info.value.needed, info.value.budget) == (4, 3)
    assert info.value.stage == "lattice_points_system"


def test_lattice_points_of_rational_polyhedron():
    half_square = polyhedra.RationalPolyhedron(
        2,
        [((1, 0), 0), ((0, 1), 0),
         ((-1, 0), Fraction(-3, 2)), ((0, -1), Fraction(-3, 2))],
    )
    assert polyhedra.lattice_points_of_polyhedron(half_square, 1,
                                                  collect=False) == 4
    assert polyhedra.lattice_points_of_polyhedron(half_square, 2,
                                                  collect=False) == 16
    pts = polyhedra.lattice_points_of_polyhedron(half_square, 1)
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_special_count_agrees_with_enumeration():
    for s, k in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        verts = sorted(
            set(itertools.permutations([1] * k + [0] * (s - k)))
        )
        for n in range(1, 4):
            fast = polyhedra._special_count(verts, n)
            slow = len(polyhedra.lattice_points(verts, n, collect=True))
            assert fast == slow
    simplex = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    for n in range(1, 4):
        fast = polyhedra._special_count(simplex, n)
        slow = len(polyhedra.lattice_points(simplex, n, collect=True))
        assert fast == slow


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
        extra = polyhedra.lattice_points(pts, data.dim + 2, collect=False)
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


def test_zero_row_rejected():
    with pytest.raises(PreconditionError):
        polyhedra.covering_polyhedron(MonomialIdeal(2, [(1, 0)]))


def test_ehrhart_rejects_fractional_vertices():
    with pytest.raises(PreconditionError):
        polyhedra.ehrhart_polynomial([(Fraction(1, 2), 0), (1, 0), (0, 1)])
