"""Seeded property tests of the exact kernel.

Hypothesis draws the inputs; ``derandomize`` fixes them, so every run sees
the same examples, and no example database is kept.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monomials import closure, codes, core, invariants, linalg, polyhedra, symbolic
from monomials.errors import (
    BudgetExceededError,
    NonPointedConeError,
    PreconditionError,
)

from helpers import (
    all_pairs_hilbert_basis,
    berge_minimal_covers,
    codeword_minimum_distance,
    colon_v_number,
    column_drop_v_number,
    column_staircase,
    coordinates_in_basis,
    covering_inequalities,
    covering_lp,
    cycle_graph,
    degree_ordered_hilbert_basis,
    eliminated_lattice_coordinates,
    every_vertex_minor_walk,
    fraction_seeded_extreme_rays,
    gcd_of_maximal_minors,
    height_bound,
    in_cone,
    incidence_extreme_ray_generators,
    incidence_pulling_triangulation,
    inequalities_from_v_description,
    inverse_parallelepiped_points,
    invert,
    is_pointed,
    mat_mul,
    nullspace,
    packing_lp,
    q6_clutter,
    q6_ideal,
    rank_is_pointed,
    recursive_maximal_stable_sets,
    reintersecting_irreducible_components,
    room_cached_staircase,
    rowwise_staircase,
    row_echelon,
    saturation_basis,
    smith_normal_form,
    solve_coordinates,
    subset_scan_minimal_covers,
    subset_scan_weight,
    subsystem_vertices,
    two_phase_lp,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def square(n):
    return st.lists(st.tuples(*[ENTRIES] * n), min_size=n, max_size=n)


def matrices(square_only=False):
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda mn: st.lists(
            st.tuples(*[ENTRIES] * (mn[0] if square_only else mn[1])),
            min_size=mn[0], max_size=mn[0],
        )
    )


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@SEEDED
@given(matrices())
def test_property_rank_plus_nullity_is_the_column_count(mat):
    """The integer null space is the Fraction oracle's, each vector cleared
    of denominators, with the oracle's pivot columns."""
    basis, pivots = linalg.integer_nullspace(mat)
    assert linalg.rank(mat) + len(basis) == len(mat[0])
    assert all(type(x) is int for v in basis for x in v)
    assert basis == [linalg.clear_denominators(v) for v in nullspace(mat)]
    for v in basis:
        assert all(linalg.vec_dot(row, v) == 0 for row in mat)
    echelon, oracle_pivots = row_echelon(mat)
    assert pivots == oracle_pivots
    assert len(echelon) == len(pivots) == linalg.rank(mat)
    assert all_fractions(echelon)
    assert all(row[c] == 1 for row, c in zip(echelon, pivots))


@SEEDED
@given(matrices(), st.data())
def test_property_solve_satisfies_the_system(mat, data):
    x = [data.draw(ENTRIES) for _ in mat[0]]
    rhs = [linalg.vec_dot(row, x) for row in mat]
    sol = linalg.solve(mat, rhs)
    assert sol is not None and all_fractions([sol])
    assert [linalg.vec_dot(row, sol) for row in mat] == rhs


@SEEDED
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n)
))
def test_property_adjugate_times_the_matrix_is_det_times_identity(mat):
    """M * adj = adj * M = det * I in integers, and adj / det is the Fraction
    oracle's inverse; a singular matrix is refused by both."""
    n = len(mat)
    if linalg.rank(mat) < n:
        assert linalg.det(mat) == 0
        for routine in (linalg.adjugate, invert):
            with pytest.raises(PreconditionError):
                routine(mat)
        return
    det, adj = linalg.adjugate(mat)
    assert type(det) is int and det == linalg.det(mat)
    assert all(type(x) is int for row in adj for x in row)
    scaled = [tuple(det * int(i == j) for j in range(n)) for i in range(n)]
    assert mat_mul(mat, adj) == scaled == mat_mul(adj, mat)
    inv = invert(mat)
    assert all_fractions(inv)
    assert [tuple(Fraction(x, det) for x in row) for row in adj] == inv
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert mat_mul(mat, inv) == identity
    assert mat_mul(inv, mat) == identity


@SEEDED
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_property_det_is_multiplicative(pair):
    a, b = pair
    product = linalg.det(mat_mul(a, b))
    assert type(product) is Fraction
    assert product == linalg.det(a) * linalg.det(b)


def generator_sets(entry):
    return st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[entry] * n).filter(any), min_size=1, max_size=7
        )
    )


@settings(SEEDED, max_examples=100)
@given(generator_sets(st.integers(-2, 2)))
def test_property_is_pointed_matches_the_lp_oracle(gens):
    """Pointed iff the only non-negative combination giving 0 is trivial."""
    k = len(gens)
    res = two_phase_lp(
        [1] * k,
        a_ub=[[int(i == j) for j in range(k)] for i in range(k)],
        b_ub=[1] * k,
        a_eq=[list(col) for col in zip(*gens)],
        b_eq=[0] * len(gens[0]),
    )
    assert is_pointed(gens) == (res.value == 0)


def with_a_line(gens):
    """The generators and the negative of the first: the cone holds a line,
    and is full-dimensional or flat as the generators are."""
    return gens + [tuple(-x for x in gens[0])]


@settings(SEEDED, max_examples=150)
@given(st.one_of(
    generator_sets(st.integers(-2, 2)),
    generator_sets(st.integers(-2, 2)).map(with_a_line),
))
@example([(1, 0), (-1, 0), (0, 1)])
@example([(1, 1, 0), (-1, -1, 0)])
@example([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_property_degree_pointedness_matches_the_rank_test(gens):
    """Every generator has a positive degree iff the equations and facets
    have rank n; a cone with a line, full-dimensional or flat, is refused
    by ``hilbert_basis``."""
    pointed = is_pointed(gens)
    assert pointed == rank_is_pointed(gens)
    if not pointed:
        with pytest.raises(NonPointedConeError):
            polyhedra.hilbert_basis(gens)


def inequality_systems():
    """2-9 integer rows of full column rank in dimension 2-5."""
    return st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n + 4
        )
    ).filter(lambda rows: linalg.rank(rows) == len(rows[0]))


@settings(SEEDED, max_examples=150)
@given(inequality_systems(), st.data())
def test_property_double_description_matches_the_fraction_seeded_oracle(rows, data):
    """The double description seeded from the adjugate, with the counted
    adjacency test, finds the rays of the Fraction-seeded oracle; so does it
    on the rows divided by positive integers, as Fractions."""
    rays = polyhedra.extreme_rays_of_inequalities(rows)
    assert rays == fraction_seeded_extreme_rays(rows)
    divisors = [data.draw(st.integers(1, 4)) for _ in rows]
    rational = [tuple(Fraction(x, d) for x in row) for row, d in zip(rows, divisors)]
    assert polyhedra.extreme_rays_of_inequalities(rational) == rays


@settings(SEEDED, max_examples=100)
@given(
    generator_sets(st.integers(-2, 3)).map(
        lambda gs: [g[:-1] + (abs(g[-1]) + 1,) for g in gs]
    )
)
def test_property_extreme_rays_match_the_lp_oracle(gens):
    """A positive last coordinate keeps the cone pointed."""
    prim = sorted({linalg.primitive(g) for g in gens})
    expected = [
        g for g in prim if not in_cone(g, [h for h in prim if h != g])
    ]
    assert list(ray_table(gens)) == expected


def brute_staircase(bounds, member):
    """Sort the box by degree and keep members no kept point divides."""
    kept = []
    outside = 0
    box = itertools.product(*[range(b + 1) for b in bounds])
    for a in sorted(box, key=lambda p: (sum(p), p)):
        if not member(a):
            outside += 1
        elif not any(core.divides(g, a) for g in kept):
            kept.append(a)
    return sorted(kept), outside


def predicate_staircase(bounds, member):
    """The staircase by probing an upward-closed ``member`` point by point:
    each column's threshold steps down from u, the least threshold over the
    lower neighbours p - e_i (last + 1 for none), as long as the point below
    is a member; a column with no finite neighbour value is first tested at
    its top.  Returns the minimal points and the count outside."""
    *head, last = bounds
    strides = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head))]
    seen = []
    kept = []
    for p in itertools.product(*[range(b + 1) for b in head]):
        u = min([seen[-k] for x, k in zip(p, strides) if x], default=last + 1)
        t = last if u > last and member(p + (last,)) else u
        while 0 < t <= last and member(p + (t - 1,)):
            t -= 1
        seen.append(t)
        if t < u:
            kept.append(p + (t,))
    return kept, sum(seen)


def satisfies(rows):
    return lambda a: all(linalg.vec_dot(w, a) >= c for w, c in rows)


BOXES = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)


def row_systems(bounds):
    """0-5 rows (w, c) with weights 0-3, so all-zero rows occur, and
    c in [-3, 9]."""
    weights = st.tuples(*[st.integers(0, 3)] * len(bounds))
    return st.lists(st.tuples(weights, st.integers(-3, 9)), max_size=5)


def multiples(bounds):
    """Multiples of a random generator set: upward closed, but no single
    linear system."""
    points = st.tuples(*[st.integers(0, b + 1) for b in bounds])
    return st.lists(points, max_size=5).map(
        lambda gens: lambda a: any(core.divides(g, a) for g in gens)
    )


BOXED_SYSTEMS = BOXES.flatmap(lambda b: st.tuples(st.just(b), row_systems(b)))


@SEEDED
@given(BOXED_SYSTEMS)
@example(((3,), []))
@example(((2, 0, 3), [((0, 0, 0), 1)]))
@example(((2, 3), [((0, 0), -2), ((1, 0), 2)]))
@example(((4, 2), [((1, 2), -3), ((0, 1), 0)]))
# a flat row with w_inner = 0 fails at p = 0: that whole inner row is empty
@example(((2, 3, 2), [((1, 0, 0), 1), ((0, 1, 1), 2)]))
# a rising row with q0 = -3 < -w_last * last = -2: column x = 0 is empty
@example(((3, 2), [((1, 1), 3)]))
@example(((4,), [((2,), 3), ((0,), 0)]))  # s = 1
@example(((4, 3), [((1, 2), 5), ((2, 0), 3), ((3, 1), 7)]))  # s = 2
@example(((2, 0, 3), [((1, 1, 1), 2), ((0, 2, 1), 1)]))  # inner bound 0
def test_property_staircase_matches_a_sorted_box_scan(case):
    bounds, rows = case
    expected = brute_staircase(bounds, satisfies(rows))
    assert predicate_staircase(bounds, satisfies(rows)) == expected
    assert column_staircase(bounds, rows) == expected
    assert rowwise_staircase(bounds, rows) == expected
    assert core.staircase(bounds, rows) == expected[0]
    assert core.staircase_count(bounds, rows) == expected[1]


@SEEDED
@given(BOXED_SYSTEMS)
# unsorted bounds: the walk's coordinate order is (1, 0, 2)
@example(((3, 1, 4), [((1, 2, 1), 4), ((2, 0, 1), 3)]))
# tied bounds keep the given order
@example(((2, 2, 2), [((1, 1, 1), 3), ((0, 2, 1), 2)]))
# two rising rows with room 0 at p = 0 but different steps
@example(((2, 3), [((2, 1), 3), ((1, 1), 3)]))
def test_property_staircase_matches_the_rowwise_oracle(case):
    """The plane walk in bound order gives what the row-by-row walk in the
    given order gives, with and without threshold lists kept per room."""
    bounds, rows = case
    kept, count = rowwise_staircase(bounds, rows)
    assert room_cached_staircase(bounds, rows) == (kept, count)
    assert core.staircase(bounds, rows) == kept
    assert core.staircase_count(bounds, rows) == count


FIVE_COORDINATE_SYSTEMS = st.tuples(*[st.integers(0, 2)] * 5).flatmap(
    lambda b: st.tuples(st.just(b), row_systems(b))
)


@SEEDED
@given(FIVE_COORDINATE_SYSTEMS)
# at p = (0, 0) the flat first row has room -2 even at the far corner: the plane is empty
@example(((2, 2, 2, 2, 2), [((1, 1, 0, 0, 0), 2), ((0, 0, 1, 1, 1), 3)]))
# from p = (1, 0) on, the first row holds on the whole plane at t = 0
@example(((2, 2, 2, 2, 2), [((1, 0, 0, 0, 1), 1), ((0, 1, 1, 1, 1), 3)]))
# sorted bounds (0, 0, 0, 1, 2): the planes have y-bound 0
@example(((2, 0, 0, 1, 0), [((1, 1, 1, 1, 1), 3), ((2, 0, 1, 1, 0), 2)]))
@example(((2,), [((1,), 2)]))  # s = 1, padded to (0, 0, 2)
@example(((2, 1), [((1, 2), 3)]))  # s = 2, padded to (0, 1, 2)
@example(((1, 2, 2), [((1, 1, 1), 3), ((0, 2, 1), 2)]))  # s = 3, one plane
def test_property_staircase_on_five_coordinates_matches_a_sorted_box_scan(case):
    """Five coordinates put two outer coordinates above each plane, as the
    closures of edge ideals on five vertices do."""
    bounds, rows = case
    expected = brute_staircase(bounds, satisfies(rows))
    assert rowwise_staircase(bounds, rows) == expected
    assert room_cached_staircase(bounds, rows) == expected
    assert core.staircase(bounds, rows) == expected[0]
    assert core.staircase_count(bounds, rows) == expected[1]


@SEEDED
@given(BOXED_SYSTEMS, st.data())
def test_property_permuting_the_coordinates_permutes_the_staircase(case, data):
    bounds, rows = case
    perm = data.draw(st.permutations(range(len(bounds))))
    moved = tuple(bounds[i] for i in perm)
    moved_rows = [(tuple(w[i] for i in perm), c) for w, c in rows]
    kept = core.staircase(bounds, rows)
    expected = sorted(tuple(a[i] for i in perm) for a in kept)
    assert core.staircase(moved, moved_rows) == expected
    assert core.staircase_count(moved, moved_rows) == core.staircase_count(bounds, rows)
    assert rowwise_staircase(moved, moved_rows) == (
        expected, core.staircase_count(bounds, rows)
    )


@SEEDED
@given(BOXES.flatmap(lambda b: st.tuples(st.just(b), multiples(b))))
def test_property_predicate_oracle_matches_a_sorted_box_scan(case):
    bounds, member = case
    assert predicate_staircase(bounds, member) == brute_staircase(bounds, member)


@pytest.mark.parametrize("bounds", [(3,), (0,), (0, 0, 0), (2, 0, 3)])
def test_staircase_edge_cases(bounds):
    size = math.prod(b + 1 for b in bounds)
    never = [((0,) * len(bounds), 1)]
    assert core.staircase(bounds, never) == []
    assert core.staircase_count(bounds, never) == size
    assert core.staircase(bounds, []) == [(0,) * len(bounds)]
    assert core.staircase_count(bounds, []) == 0
    top = tuple(bounds)
    only_top = [
        (tuple(int(i == j) for j in range(len(bounds))), b)
        for i, b in enumerate(bounds)
    ]
    assert core.staircase(bounds, only_top) == [top]
    assert core.staircase_count(bounds, only_top) == size - 1


@pytest.mark.parametrize(
    "rows", [[((1.5, 1), 2)], [((1, 1), 2.0)], [((1, Fraction(1)), 1)], [((1, 1), Fraction(3, 2))]]
)
def test_staircase_refuses_weights_and_constants_that_are_not_ints(rows):
    """The walk is exact integer arithmetic: a float weight would come back
    as a float coordinate."""
    with pytest.raises(PreconditionError):
        core.staircase((2, 2), rows)
    with pytest.raises(PreconditionError):
        core.staircase_count((2, 2), rows)


def test_staircase_refuses_an_empty_box():
    for fn in (core.staircase, core.staircase_count):
        with pytest.raises(PreconditionError):
            fn((), [])


@pytest.mark.parametrize("bounds", [(-1, 2), (2, -1), (0, 0, -3), (2.0, 2)])
def test_staircase_refuses_negative_or_non_integer_bounds(bounds):
    for fn in (core.staircase, core.staircase_count):
        with pytest.raises(PreconditionError):
            fn(bounds, [])


def test_staircase_refuses_negative_weights():
    """A negative weight breaks upward closure, on which the closed-form
    thresholds rest; a weight vector of the wrong length is refused too."""
    for rows in ([((1, -1), 0)], [((0, 0), 0), ((-1, 2), 1)], [((1,), 0)]):
        with pytest.raises(PreconditionError):
            core.staircase((2, 2), rows)
        with pytest.raises(PreconditionError):
            core.staircase_count((2, 2), rows)


@SEEDED
@given(BOXED_SYSTEMS)
def test_property_staircase_output_needs_no_minimalization(case):
    """The staircase emits a minimal generating set in lex order, so the
    unchecked constructor agrees with the canonicalizing one."""
    bounds, rows = case
    kept = core.staircase(bounds, rows)
    assume(kept and any(kept[0]))  # the zero and unit ideals are not represented
    fast = core.MonomialIdeal._from_minimal(len(bounds), kept)
    slow = core.MonomialIdeal(len(bounds), kept)
    assert fast.gens == slow.gens
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)


def squarefree_ideals(max_s=5, max_gens=5):
    """Clutters on 2 to ``max_s`` vertices, as squarefree monomial ideals."""
    return st.integers(2, max_s).flatmap(
        lambda s: st.lists(
            st.tuples(*[st.integers(0, 1)] * s).filter(any),
            min_size=1, max_size=max_gens,
        ).map(lambda gens: core.MonomialIdeal(len(gens[0]), gens))
    )


@settings(SEEDED, max_examples=60)
@given(squarefree_ideals(), st.integers(1, 3))
def test_property_power_closure_symbolic_chain(ideal, n):
    """I^n inside closure(I^n) inside I^(n)."""
    closed = closure.closure_of_power(ideal, n)
    assert closed.contains_ideal(core.ideal_power(ideal, n))
    assert symbolic.symbolic_power(ideal, n).contains_ideal(closed)


@settings(SEEDED, max_examples=60)
@given(squarefree_ideals(), st.integers(1, 3))
def test_property_closure_generators_pass_the_lp_route(ideal, n):
    """Every generator of closure(I^n), read off the facet system, is in
    the closure by the LP optimum too, checked against the facet test."""
    for g in closure.closure_of_power(ideal, n).gens:
        assert closure.membership(g, ideal, n, witness=False, verify=True)


def chain_normal_by_powers(ideal, closures):
    """The power route by construction: closure(I^n) against I^n, n < s."""
    power = ideal
    for n in range(1, ideal.s):
        closed = closures[n]
        if n > 1:
            power = core.ideal_product(ideal, power)
        if closed != power:
            gap = [g for g in closed.gens if not power.contains_monomial(g)]
            return False, n, gap[0]
    return True, None, None


def chain_normalization_index(ideal, closures):
    """The last n < s with closure(I^{n+1}) != I * closure(I^n), plus one."""
    failing = -1
    if closures[1] != ideal:
        failing = 0
    for n in range(1, ideal.s):
        if closures[n + 1] != core.ideal_product(ideal, closures[n]):
            failing = n
    return failing + 1


def chain_closures_are_powers(ideal, closures):
    """Every closure in ``closures`` equals the plain power I^n."""
    power, k = ideal, 1
    for n, closed in sorted(closures.items()):
        while k < n:
            power, k = core.ideal_product(ideal, power), k + 1
        if closed != power:
            return False
    return True


def small_ideals():
    """1-4 generators with exponents <= 3 in s = 1..4 variables."""
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda sk: st.lists(
            st.tuples(*[st.integers(0, 3)] * sk[0]).filter(any),
            min_size=sk[1], max_size=sk[1],
        ).map(lambda gens: core.MonomialIdeal(sk[0], gens))
    )


@settings(SEEDED, max_examples=150)
@given(st.data(), st.integers(1, 3))
def test_property_membership_witness_is_feasible_and_optimal(data, n):
    """The answer is the facet test's and the two-phase oracle's; a positive
    one carries y >= 0 with A y <= a and |y| >= n, and |y| is the optimum."""
    ideal = data.draw(small_ideals())
    a = data.draw(st.tuples(*[st.integers(0, 4)] * ideal.s))
    answer, y = closure.membership(a, ideal, n)
    rows = ideal.incidence_matrix()
    optimum = two_phase_lp([1] * len(ideal.gens), a_ub=rows, b_ub=a).value
    assert answer == (optimum >= n)
    assert answer == closure.rees_representation(ideal).newton_polyhedron_contains(a, n)
    if answer:
        assert all(x >= 0 for x in y)
        assert all(linalg.vec_dot(row, y) <= b for row, b in zip(rows, a))
        assert sum(y) == optimum >= n
    else:
        assert y is None


@settings(SEEDED, max_examples=100, deadline=2000)
@given(small_ideals(), st.booleans(), st.sampled_from(["powers", "both"]))
@example(core.MonomialIdeal(2, [(2, 0), (0, 2)]), False, "powers")
@example(core.MonomialIdeal(3, [(0, 3, 1), (1, 0, 3), (3, 0, 2)]), True, "powers")
@example(
    core.MonomialIdeal(4, [(0, 0, 3, 3), (0, 3, 3, 2), (1, 1, 0, 3), (1, 1, 3, 2)]),
    True, "powers",
)
@example(
    core.MonomialIdeal(4, [(0, 3, 3, 1), (1, 0, 0, 2), (1, 2, 1, 1), (2, 1, 1, 0)]),
    False, "both",
)
def test_property_gap_walk_matches_the_product_chains(ideal, past_s, method):
    """The verdict, methods, witness and index of closure_report, is_normal
    and normalization_index, read off the gaps, equal those of the product
    chains on the same closures."""
    up_to = ideal.s + 1 if past_s else None
    report = closure.closure_report(ideal, up_to, method)
    closures = {n: closure.closure_of_power(ideal, n) for n in range(1, ideal.s + 1)}
    normal, power, witness = chain_normal_by_powers(ideal, closures)
    methods = ("powers",)
    if method == "both":
        by_hilbert = closure._normal_by_hilbert(ideal)
        assert by_hilbert[0] == normal
        if not normal:
            power, witness = by_hilbert[1:]
        methods = ("hilbert", "powers")
    for verdict in (report.normality, closure.is_normal(ideal, method)):
        assert (verdict.normal, verdict.methods) == (normal, methods)
        assert (verdict.witness_power, verdict.witness_monomial) == (power, witness)
    index = chain_normalization_index(ideal, closures)
    assert report.normalization_index == closure.normalization_index(ideal) == index
    assert not normal or chain_closures_are_powers(ideal, report.closures)


def zero_dimensional_ideals():
    """Ideals in 2-3 variables with a pure power (exponent 1-3) of every
    variable and up to three more generators with exponents <= 3."""
    def ideal(s):
        pure = st.tuples(*[st.integers(1, 3)] * s).map(
            lambda degrees: [
                tuple(d * (i == j) for j in range(s)) for i, d in enumerate(degrees)
            ]
        )
        extra = st.lists(st.tuples(*[st.integers(0, 3)] * s).filter(any), max_size=3)
        return st.tuples(pure, extra).map(
            lambda gens: core.MonomialIdeal(s, gens[0] + gens[1])
        )

    return st.integers(2, 3).flatmap(ideal)


@settings(SEEDED, max_examples=40)
@given(zero_dimensional_ideals(), st.integers(1, 3))
def test_property_staircase_count_matches_the_ehrhart_difference(ideal, n):
    """``verify`` compares the count under the staircase of n * NP(I) with
    E_Delta(n) - E_P0(n) and raises on a difference."""
    count = invariants.normalization_hilbert_function(ideal, n, verify=True)
    assert 0 < count <= math.prod(n * d for d in ideal.max_exponents())


def with_every_variable(ideal):
    """The ideal with each variable that appears in no generator added as a
    generator of its own."""
    gens = list(ideal.gens)
    for i in range(ideal.s):
        if all(g[i] == 0 for g in gens):
            gens.append(tuple(int(j == i) for j in range(ideal.s)))
    return core.MonomialIdeal(ideal.s, gens)


def covering_ideals():
    """Squarefree ideals in which every variable appears."""
    return squarefree_ideals().map(with_every_variable)


@settings(SEEDED, max_examples=60)
@given(covering_ideals())
def test_property_ic_resurgence_is_self_dual(ideal):
    dual = core.alexander_dual(ideal)
    assert symbolic.ic_resurgence(ideal).rho == symbolic.ic_resurgence(dual).rho


def full_dimensional_point_sets():
    """2-7 points in Z^d, d = 1..3, whose affine hull is all of Q^d."""
    def full(points):
        base = points[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in points[1:]]
        return linalg.rank(diffs) == len(base)

    return st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=7,
            unique=True,
        )
    ).filter(full)


@settings(SEEDED, max_examples=100)
@given(full_dimensional_point_sets())
def test_property_dd_round_trip_returns_the_extreme_points(points):
    """Facets from the V-description, then vertices from the facets."""
    lifted = [p + (1,) for p in points]
    extreme = sorted(
        p for p, g in zip(points, lifted)
        if not in_cone(g, [h for h in lifted if h != g])
    )
    eqs, ineqs = inequalities_from_v_description(points)
    assert eqs == []
    assert subsystem_vertices(len(points[0]), ineqs) == extreme


@settings(SEEDED, max_examples=100)
@given(full_dimensional_point_sets(), st.integers(2, 4))
def test_property_dd_round_trip_on_rational_vertices(points, k):
    """Facets from the V-description of conv(points / k), whose lifted
    generators are rational, then its vertices from the facets."""
    lifted = [p + (1,) for p in points]
    extreme = sorted(
        tuple(Fraction(x, k) for x in p) for p, g in zip(points, lifted)
        if not in_cone(g, [h for h in lifted if h != g])
    )
    scaled = [tuple(Fraction(x, k) for x in p) for p in points]
    eqs, ineqs = inequalities_from_v_description(scaled)
    assert eqs == []
    assert subsystem_vertices(len(points[0]), ineqs) == extreme


@settings(SEEDED, max_examples=150)
@given(small_ideals().map(with_every_variable))
def test_property_rees_cone_gives_the_covering_polyhedron(ideal):
    """On ideals that need not be squarefree, the vertices gamma_i / d_i of
    Q(I) read off the Rees cone are the vertices of {x >= 0, x.g >= 1} from
    its tight subsystems, and Q(I) is integral iff every vertex is."""
    rep = polyhedra.ReesRepresentation(ideal)
    vertices = subsystem_vertices(ideal.s, covering_inequalities(ideal))
    assert rep.vertices() == vertices
    assert rep.integral == all(x.denominator == 1 for v in vertices for x in v)


def weights(s):
    """1-3 weight vectors alpha >= 0 in s coordinates, entries at most 3."""
    return st.lists(st.tuples(*[st.integers(0, 3)] * s), min_size=1, max_size=3)


@settings(SEEDED, max_examples=800)
@given(st.one_of(squarefree_ideals(), small_ideals()), st.data())
def test_property_vertex_optimum_matches_both_simplex_programs(ideal, data):
    """min <alpha, u> over the vertices u of Q(I), read off the Rees cone,
    is the exact simplex's optimum of the packing program
    max{|y| : A y <= alpha, y >= 0} and of the covering program
    min{alpha.x : x.g >= 1 for every generator g, x >= 0}.  The 800
    examples hold over 200 distinct ideals, about half not squarefree."""
    vertices = closure.rees_representation(ideal).vertices()
    for alpha in data.draw(weights(ideal.s)):
        value = min(linalg.vec_dot(alpha, u) for u in vertices)
        assert packing_lp(ideal.incidence_matrix(), alpha).value == value
        assert covering_lp(ideal.gens, alpha).value == value


def geometric_pull(rs, done):
    """The pulling triangulation by geometry, the oracle of the bitmask
    recursion: every sub-cone gets its own facets from ``cone_facets`` and
    is a simplex when its rays have full rank."""
    if rs in done:
        return done[rs]
    if len(rs) == linalg.rank(rs):
        out = [rs]
    else:
        _, facets = polyhedra.cone_facets(rs)
        apex = rs[0]
        out = []
        for f in facets:
            if linalg.vec_dot(f, apex) != 0:
                sub = tuple(g for g in rs if linalg.vec_dot(f, g) == 0)
                out.extend((apex,) + simplex for simplex in geometric_pull(sub, done))
    done[rs] = out
    return out


def ray_table(gens):
    """The extreme rays and their rows, read off the facet-value table."""
    _, facets = polyhedra.cone_facets(gens)
    return polyhedra.extreme_ray_generators(polyhedra.facet_values(gens, facets))


def rank_extreme_rays(gens):
    """Primitive generators whose equations and tight facets have rank n - 1."""
    prim = sorted({linalg.primitive(g) for g in gens})
    eqs, facets = polyhedra.cone_facets(prim)
    return [
        g for g in prim
        if linalg.rank(eqs + [f for f in facets if linalg.vec_dot(f, g) == 0])
        == len(g) - 1
    ]


def pointed_cones():
    """Generators with a positive last coordinate, so the cone is pointed;
    half of them gain a coordinate that depends on the others, which keeps
    the cone out of full dimension."""
    full = generator_sets(st.integers(-2, 3)).map(
        lambda gs: [g[:-1] + (abs(g[-1]) + 1,) for g in gs]
    )
    flat = full.map(lambda gs: [g + (g[0] - g[-1],) for g in gs])
    return st.one_of(full, flat)


def edge_vectors():
    """The 0/1 vectors e_i + e_j of the edges of graphs on 3-6 vertices."""
    return st.integers(3, 6).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(0, s - 1), min_size=2, max_size=2, unique=True),
            min_size=1, max_size=8,
        ).map(lambda edges: [tuple(int(i in e) for i in range(s)) for e in edges])
    )


def graph_rees_cones():
    """Generators of RC(I(G)) for graphs G on 3-6 vertices."""
    return edge_vectors().map(
        lambda vs: polyhedra.rees_cone(core.MonomialIdeal(len(vs[0]), vs))
    )


def lattice_cone_facets(generators):
    """The facet description by the lattice route: a flat cone's generators
    are written in a saturated basis of their span, and each facet normal
    found there is lifted back by ``solve``.  The oracle of the facets on
    pivot coordinates in ``cone_facets``."""
    gens = [tuple(g) for g in generators if any(g)]
    equations = [
        linalg.clear_denominators(v) for v in nullspace(gens, ncols=len(gens[0]))
    ]
    if not equations:
        return [], polyhedra.extreme_rays_of_inequalities(gens)
    sat = saturation_basis(gens)
    coords = [coordinates_in_basis(g, sat) for g in gens]
    return sorted(equations), sorted(
        linalg.clear_denominators(linalg.solve(sat, f))
        for f in polyhedra.extreme_rays_of_inequalities(coords)
    )


def lifted_point_sets():
    """(p, 1) for 1-6 points p in Z^d, d = 1..4, in any position, so the
    cone is flat whenever the points lie on a hyperplane."""
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6, unique=True
        )
    ).map(lambda points: [p + (1,) for p in points])


@settings(SEEDED, max_examples=200)
@given(st.one_of(
    pointed_cones(),
    edge_vectors().map(lambda vs: [v + (1,) for v in vs]),
    lifted_point_sets(),
))
def test_property_pivot_facets_match_the_lattice_route(gens):
    assert polyhedra.cone_facets(gens) == lattice_cone_facets(gens)


def full_rank(gens):
    return linalg.rank(gens) == len(gens[0])


@settings(SEEDED, max_examples=120)
@given(st.one_of(pointed_cones(), graph_rees_cones()))
def test_property_bitmask_pulling_matches_the_geometric_oracle(gens):
    """The library triangulates full-dimensional cones; the incidence
    oracle, which the flat Hilbert bases below rely on, any pointed cone."""
    description = polyhedra.cone_facets(gens)
    rays = incidence_extreme_ray_generators(gens, description)
    expected = sorted(geometric_pull(tuple(rays), {}))
    assert sorted(incidence_pulling_triangulation(rays, description)) == expected
    if full_rank(gens):
        assert sorted(s for s, _ in polyhedra.pulling_triangulation(ray_table(gens))) == expected


@settings(SEEDED, max_examples=120)
@given(pointed_cones())
def test_property_tight_facet_extreme_rays_match_the_rank_criterion(gens):
    expected = rank_extreme_rays(gens)
    assert list(ray_table(gens)) == expected
    assert incidence_extreme_ray_generators(gens, polyhedra.cone_facets(gens)) == expected


def staircase_rees_cones(max_a=9):
    """RC(x^a, y^(a-1), z^(a-3)) for a = 4..max_a: non-unimodular simplices
    whose |det| grows with a."""
    return st.integers(4, max_a).map(
        lambda a: polyhedra.rees_cone(
            core.MonomialIdeal(3, [(a, 0, 0), (0, a - 1, 0), (0, 0, a - 3)])
        )
    )


@settings(SEEDED, max_examples=150)
@given(st.one_of(
    pointed_cones().filter(full_rank), graph_rees_cones(), staircase_rees_cones()
))
def test_property_height_bounds_certify_the_simplices(gens):
    """Every simplex has 1 <= |det| <= its height bound, which is the
    product of the least lattice heights down the pulling order; the
    simplices and the Hilbert basis are those of the incidence route, with
    a determinant per simplex and the all-pairs reduction."""
    description = polyhedra.cone_facets(gens)
    rays = ray_table(gens)
    assert list(rays) == incidence_extreme_ray_generators(gens, description)
    pairs = polyhedra.pulling_triangulation(rays)
    assert [s for s, _ in pairs] == incidence_pulling_triangulation(rays, description)
    for simplex, bound in pairs:
        assert 1 <= abs(linalg.det(list(simplex))) <= bound
        assert bound == height_bound(simplex, description[1])
    assert polyhedra.hilbert_basis(gens) == all_pairs_hilbert_basis(gens)


def unimodular(n):
    """L * U with triangular factors whose diagonals are +-1."""
    def triangle(lower):
        return st.tuples(*[
            st.tuples(*[
                st.sampled_from([-1, 1]) if i == j
                else st.integers(-2, 2) if (j < i) == lower else st.just(0)
                for j in range(n)
            ])
            for i in range(n)
        ])

    return st.tuples(triangle(True), triangle(False)).map(
        lambda lu: mat_mul(*lu)
    )


SIMPLICES = st.integers(1, 4).flatmap(
    lambda n: st.one_of(
        unimodular(n),
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n),
    )
).filter(lambda rays: linalg.det(rays) != 0)


def smith_parallelepiped_points(rays):
    """Parallelepiped points of n independent rays in Z^n, one per element
    of Z^n / (ray lattice), read off the Smith form U * A * V = D of the
    ray matrix A: the classes are U^-1 c for c in the box prod [0, d_i).
    The oracle of the echelon box of ``parallelepiped_points``."""
    n = len(rays)
    cols = [tuple(r[i] for r in rays) for i in range(n)]  # matrix with ray columns
    u, _, _, factors = smith_normal_form(cols)
    uinv = [[int(x) for x in row] for row in invert(u)]
    rinv = invert(cols)
    den = math.lcm(*(x.denominator for row in rinv for x in row))
    radj = [[int(x * den) for x in row] for row in rinv]
    pts = []
    for c in itertools.product(*[range(f) for f in factors]):
        x = [linalg.vec_dot(row, c) for row in uinv]
        lam = [linalg.vec_dot(row, x) % den for row in radj]
        pts.append(tuple(linalg.vec_dot(row, lam) // den for row in cols))
    return pts


@SEEDED
@given(SIMPLICES)
def test_property_unimodular_shortcut_matches_the_smith_path(rays):
    points = polyhedra.parallelepiped_points(rays)
    assert sorted(points) == sorted(smith_parallelepiped_points(rays))
    assert len(points) == abs(linalg.det(rays))


def negative_determinant(rays):
    """The simplex, or, when its determinant is positive, the simplex with
    its first ray negated."""
    if linalg.det(rays) > 0:
        return [tuple(-x for x in rays[0])] + [tuple(r) for r in rays[1:]]
    return [tuple(r) for r in rays]


@SEEDED
@given(SIMPLICES.map(negative_determinant))
def test_property_parallelepiped_points_match_the_inverse_oracle(rays):
    """From the adjugate, the points of the Fraction-inverse oracle, in
    its order."""
    assert linalg.det(rays) < 0
    assert polyhedra.parallelepiped_points(rays) == inverse_parallelepiped_points(rays)


def saturated_parallelepiped_points(rays):
    """Parallelepiped points of d independent rays in Z^n, d <= n, counted
    in span ∩ Z^n: the rays are written in a saturated basis of their span,
    and the points found there are mapped back.  The oracle of the move of
    flat cones into their own lattice in ``hilbert_basis``."""
    rays = [tuple(map(int, r)) for r in rays]
    d, n = len(rays), len(rays[0])
    if d == n:
        return polyhedra.parallelepiped_points(rays)
    sat = saturation_basis(rays)
    coords = [coordinates_in_basis(r, sat) for r in rays]
    return [
        tuple(sum(c[i] * sat[i][j] for i in range(d)) for j in range(n))
        for c in saturated_parallelepiped_points(coords)
    ]


def mixed_sign_spans():
    """1 to n - 1 rows in Z^n, n = 2..7, with entries of both signs up to
    14: a flat span whose equations have large coefficients."""
    return st.integers(2, 7).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-12, 14)] * n).filter(any),
            min_size=1, max_size=n - 1,
        )
    )


@settings(SEEDED, deadline=2000)
@given(mixed_sign_spans())
def test_property_saturation_basis_is_a_saturated_basis_of_the_span(rows):
    """The deadline fails a blow-up of the basis entries instead of
    stalling the suite."""
    basis = saturation_basis(rows)
    assert len(basis) == linalg.rank(rows)
    assert all(coordinates_in_basis(r, basis) is not None for r in rows)
    assert gcd_of_maximal_minors(basis) == 1


def integer_matrices(entries, max_rows, max_cols):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.tuples(*[entries] * n), min_size=1, max_size=max_rows
        )
    )


MIXED_SIGN_MATRICES = integer_matrices(st.integers(-12, 12), 6, 7)


@SEEDED
@given(integer_matrices(st.integers(-3, 3), 4, 5), st.data())
def test_property_one_elimination_matches_per_vector_solves(rows, data):
    """Coordinates in an echelon basis of the row lattice, for integer
    combinations of the rows, their halves and off-lattice neighbours, and
    arbitrary vectors, agree with one solve per vector."""
    basis = linalg.integer_row_basis(rows)
    assume(basis)
    n = len(basis[0])
    coefficients = st.tuples(*[st.integers(-3, 3)] * len(rows))
    combos = [
        tuple(sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n))
        for cs in data.draw(st.lists(coefficients, max_size=4))
    ]
    halves = [tuple(x // 2 for x in v) for v in combos]
    nudged = [v[:-1] + (v[-1] + 1,) for v in combos]
    loose = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=3))
    vectors = combos + halves + nudged + loose
    assert linalg.lattice_coordinates(vectors, basis) == [
        solve_coordinates(v, basis) for v in vectors
    ]
    assert all(c is not None for c in linalg.lattice_coordinates(rows, basis))


@SEEDED
@given(integer_matrices(st.integers(-3, 3), 4, 5), st.data())
def test_property_back_substitution_matches_the_elimination_oracle(rows, data):
    """Back substitution in the echelon bases of the row lattice and of the
    rows' integer kernel agrees with the elimination of [basis | I] and with
    one solve per vector: on lattice points, on their halves and nudged
    neighbours, and on the other basis's vectors, which lie off the span
    (a non-zero row is not orthogonal to itself)."""
    n = len(rows[0])
    row_basis = linalg.integer_row_basis(rows)
    kernel_basis = linalg.integer_kernel_basis(rows, n)
    for basis, off_span in ((row_basis, kernel_basis), (kernel_basis, row_basis)):
        if not basis:
            continue
        coefficients = st.tuples(*[st.integers(-3, 3)] * len(basis))
        combos = [
            tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
            for cs in data.draw(st.lists(coefficients, min_size=1, max_size=3))
        ]
        halves = [tuple(x // 2 for x in v) for v in combos]
        nudged = [v[:-1] + (v[-1] + 1,) for v in combos]
        vectors = combos + halves + nudged + list(off_span)
        coords = linalg.lattice_coordinates(vectors, basis)
        assert coords == eliminated_lattice_coordinates(vectors, basis)
        assert coords == [solve_coordinates(v, basis) for v in vectors]
        assert None not in coords[:len(combos)]
        assert coords[len(vectors) - len(off_span):] == [None] * len(off_span)


@SEEDED
@given(integer_matrices(st.integers(-3, 3), 6, 5))
def test_property_the_seed_elimination_gives_the_null_space(rows):
    """``independent_rows`` reads a basis of the null space off the
    elimination that seeds the double description: n - rank primitive
    vectors that annihilate every row and span the space of
    ``integer_nullspace``.  Its indices are the rows that raise the rank of
    the rows before them, and each dual is positive on its own row and 0
    on the other chosen rows."""
    indices, duals, kernel = linalg.independent_rows(rows)
    n, rank = len(rows[0]), linalg.rank(rows)
    assert len(kernel) == n - rank == linalg.rank(kernel)
    assert all(v == linalg.primitive(v) and any(v) for v in kernel)
    assert all(linalg.vec_dot(row, v) == 0 for row in rows for v in kernel)
    nullspace_basis, _ = linalg.integer_nullspace(rows)
    assert linalg.rank(kernel + nullspace_basis) == len(nullspace_basis)
    assert indices == [
        i for i in range(len(rows))
        if linalg.rank(rows[:i + 1]) > linalg.rank(rows[:i])
    ]
    for k, y in zip(indices, duals):
        for i in indices:
            value = linalg.vec_dot(rows[i], y)
            assert value > 0 if i == k else value == 0


def pivot_product(basis):
    return math.prod(next(x for x in row if x) for row in basis)


@settings(SEEDED, deadline=2000)
@given(MIXED_SIGN_MATRICES)
def test_property_invariant_factors_give_the_index_of_the_row_lattice(rows):
    """Delta_rank is the index of the row lattice in its saturation, the
    ratio of the pivot products of their echelon bases.  The deadline fails
    a blow-up of the entries instead of stalling the suite."""
    assume(any(any(row) for row in rows))
    factors = linalg.invariant_factors(rows)
    delta = math.prod(f for f in factors if f)
    lattice = pivot_product(linalg.integer_row_basis(rows))
    saturation = pivot_product(
        linalg.integer_row_basis(saturation_basis(rows))
    )
    assert lattice % saturation == 0
    assert delta == lattice // saturation


@settings(SEEDED, deadline=2000)
@given(MIXED_SIGN_MATRICES)
def test_property_invariant_factors_form_a_divisibility_chain(rows):
    factors = linalg.invariant_factors(rows)
    assert len(factors) == min(len(rows), len(rows[0]))
    nonzero = [f for f in factors if f]
    assert factors == nonzero + [0] * (len(factors) - len(nonzero))
    assert len(nonzero) == linalg.rank(rows)
    assert all(f > 0 for f in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


@settings(SEEDED, deadline=2000)
@given(integer_matrices(st.integers(-3, 3), 4, 4))
def test_property_invariant_factors_match_the_smith_oracle(rows):
    assert linalg.invariant_factors(rows) == smith_normal_form(rows)[3]


@SEEDED
@given(st.tuples(SIMPLICES, st.integers(1, 2), st.data()))
def test_property_lower_dimensional_parallelepipeds_hold_one_point_per_class(case):
    """Given dependent coordinates too, in any order, the half-open
    parallelepiped holds one point per class of (span ∩ Z^n) / (ray
    lattice): as many as the gcd of the maximal minors, each with
    coefficients in [0, 1)."""
    simplex, extra, data = case
    weights = [
        [data.draw(st.integers(-2, 2)) for _ in simplex[0]] for _ in range(extra)
    ]
    order = data.draw(st.permutations(range(len(simplex) + extra)))
    rays = [
        tuple((tuple(r) + tuple(linalg.vec_dot(w, r) for w in weights))[i] for i in order)
        for r in simplex
    ]
    points = saturated_parallelepiped_points(rays)
    assert len(set(points)) == len(points) == gcd_of_maximal_minors(rays)
    columns = list(zip(*rays))
    for p in points:
        assert all(0 <= c < 1 for c in linalg.solve(columns, p))


def ambient_hilbert_basis(gens):
    """The Hilbert basis of a pointed cone computed in Z^n, whatever its
    dimension: facets, extreme rays and pulling triangulation of the cone
    itself, parallelepiped points of its simplices counted in the lattice
    of their span, and every candidate reduced against every other."""
    gens = sorted({tuple(g) for g in gens if any(g)})
    description = polyhedra.cone_facets(gens)
    rays = incidence_extreme_ray_generators(gens, description)
    candidates = set(gens) | set(rays)
    for simplex in incidence_pulling_triangulation(rays, description):
        candidates.update(p for p in saturated_parallelepiped_points(simplex) if any(p))
    return tuple(sorted(
        h for h in candidates
        if not any(
            g != h and polyhedra.cone_contains(
                tuple(x - y for x, y in zip(h, g)), *description
            )
            for g in candidates
        )
    ))


@settings(SEEDED, max_examples=120)
@given(st.one_of(
    pointed_cones().filter(lambda gens: linalg.rank(gens) < len(gens[0])),
    edge_vectors().map(lambda vs: [v + (1,) for v in vs]),
))
def test_property_flat_hilbert_bases_match_the_ambient_pipeline(gens):
    """Moving a flat cone into its own lattice keeps its Hilbert basis; the
    lifted edge vectors (e_i + e_j, 1) lie in the hyperplane sum(x) = 2 t."""
    expected = ambient_hilbert_basis(gens)
    assert polyhedra.hilbert_basis(gens) == expected


@settings(SEEDED, max_examples=200)
@given(st.one_of(
    pointed_cones(),
    graph_rees_cones(),
    staircase_rees_cones(max_a=12),
    edge_vectors().map(lambda vs: [v + (1,) for v in vs]),
))
def test_property_half_degree_reduction_matches_the_all_kept_loop(gens):
    """Keeping the extreme rays untested and testing every other candidate
    against the kept elements of at most half its degree gives the basis of
    the loop that tests every candidate against everything kept; the flat
    cones (half of ``pointed_cones`` and the lifted edge vectors) go through
    ``hilbert_basis_in_lattice``."""
    assert polyhedra.hilbert_basis(gens) == degree_ordered_hilbert_basis(gens)


@settings(SEEDED, max_examples=60)
@given(edge_vectors())
def test_property_half_degree_reduction_in_the_lattice_of_the_generators(gens):
    """In the lattice the generators span, which need not be saturated
    (``graphs`` asks for the Hilbert basis of the edge vectors there)."""
    basis = linalg.integer_row_basis(gens)
    coords = linalg.lattice_coordinates(gens, basis)
    columns = list(zip(*basis))
    expected = tuple(sorted(
        tuple(linalg.vec_dot(h, col) for col in columns)
        for h in degree_ordered_hilbert_basis(coords)
    ))
    assert polyhedra.hilbert_basis_in_lattice(gens, basis) == expected


def mu_grows_by_construction(ideal):
    """Some one-monomial enlargement of I inside its bounding box has more
    minimal generators, found by building each enlargement."""
    box = itertools.product(*[range(b + 1) for b in ideal.max_exponents()])
    return any(
        any(m) and not ideal.contains_monomial(m)
        and core.MonomialIdeal(ideal.s, list(ideal.gens) + [m]).num_generators
        > ideal.num_generators
        for m in box
    )


def up_to_four_generator_ideals():
    """Ideals in 1-4 variables with 1-4 generators, exponents at most 3."""
    return st.integers(1, 4).flatmap(
        lambda s: st.lists(
            st.tuples(*[st.integers(0, 3)] * s).filter(any), min_size=1, max_size=4
        ).map(lambda gens: core.MonomialIdeal(s, gens))
    )


@settings(SEEDED, max_examples=300)
@given(up_to_four_generator_ideals())
def test_property_mu_sweep_matches_the_enlargement_oracle(ideal):
    assert invariants.mu_maximality_sweep(ideal) == (not mu_grows_by_construction(ideal))


@settings(SEEDED, max_examples=300)
@given(up_to_four_generator_ideals())
@example(core.MonomialIdeal(2, [(2, 0), (1, 1)]))
def test_property_minimal_components_match_the_reintersecting_oracle(ideal):
    """The inclusion-minimal components are those left by dropping, one at
    a time, a component that contains the intersection of the others; they
    intersect to the ideal."""
    components = codes.irreducible_components(ideal)
    split = codes._irreducible_split(ideal)
    assert components == reintersecting_irreducible_components(split)
    intersection = components[0]
    for comp in components[1:]:
        intersection = intersection.intersect(comp)
    assert intersection == ideal


def packs_by_every_substitution(ideal):
    """The packing property by its definition: every assignment in
    {keep, 0, 1}^s, through ``minor``, gives a Koenig clutter or no minor."""
    minors = {
        core.minor(ideal, {i: v for i, v in enumerate(p) if v is not None})
        for p in itertools.product((None, 0, 1), repeat=ideal.s)
    }
    return all(
        core.is_konig(m.clutter()) for m in minors - {core.UNIT, core.ZERO}
    )


@SEEDED
@given(squarefree_ideals(max_s=7, max_gens=8))
@example(q6_ideal())
@example(cycle_graph(3).edge_ideal())
@example(cycle_graph(5).edge_ideal())
@example(cycle_graph(7).edge_ideal())
def test_property_minor_walk_matches_every_substitution(ideal):
    assert core.has_packing_property(ideal) == packs_by_every_substitution(ideal)


@SEEDED
@given(squarefree_ideals(max_s=7, max_gens=8))
def test_property_bitmask_tau_and_nu_match_brute_force(ideal):
    clutter = ideal.clutter()
    edges = [set(e) for e in clutter.edges]
    tau = min(
        len(c)
        for k in range(ideal.s + 1)
        for c in itertools.combinations(range(ideal.s), k)
        if all(e & set(c) for e in edges)
    )
    nu = max(
        k
        for k in range(len(edges) + 1)
        for m in itertools.combinations(edges, k)
        if sum(map(len, m)) == len(set().union(*m))
    )
    assert (core.covering_number(clutter), core.matching_number(clutter)) == (tau, nu)
    family = frozenset(core._mask(e) for e in edges)
    assert core._is_konig_family(family) == (tau == nu)


def clutters(max_s=9):
    """Clutters on 0 to ``max_s`` vertices with 0 to 7 edges, singletons and
    isolated vertices included: the inclusion-minimal sets of a drawn family."""
    def minimal(s_family):
        s, family = s_family
        family = sorted(set(family), key=len)
        kept = [e for i, e in enumerate(family) if not any(f < e for f in family[:i])]
        return core.Clutter(s, kept)

    return st.integers(0, max_s).flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.lists(
                st.frozensets(st.integers(0, s - 1), min_size=1, max_size=4),
                max_size=7,
            ) if s else st.just([]),
        )
    ).map(minimal)


@settings(SEEDED, max_examples=300)
@given(clutters())
@example(core.Clutter(0, []))
@example(core.Clutter(4, []))
@example(core.Clutter(4, [(0,), (1, 2)]))
@example(core.Clutter(3, [(0,), (1,), (2,)]))
@example(q6_clutter())
def test_property_bitmask_covers_match_the_frozenset_oracle(clutter):
    covers = clutter.minimal_covers()
    assert covers == berge_minimal_covers(clutter)
    if clutter.s <= 6:
        assert covers == subset_scan_minimal_covers(clutter)
    used = set().union(*clutter.edges)
    assert clutter.has_isolated_vertex() == (len(used) < clutter.s)


@settings(SEEDED, max_examples=300)
@given(clutters(max_s=7).filter(lambda clutter: clutter.edges))
@example(core.Clutter(4, [(0,), (1, 2), (2, 3), (1, 3)]))  # an edge {0} beside a triangle
@example(core.Clutter(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]))  # C4 and an edge
@example(q6_clutter())
@example(core.Clutter(6, [(0, 1, 5), (0, 2, 5), (1, 2, 5), (1, 3, 5), (1, 4, 5)]))
@example(core.Clutter(3, [(0,), (1,), (2,)]))
@example(core.Clutter(5, [(0, 1, 2), (0, 3, 4), (1, 3), (2, 4)]))
def test_property_ordered_minor_walk_matches_the_every_vertex_walk(clutter):
    """Singleton edges, isolated vertices and disconnected clutters
    included.  The 3-uniform example is Koenig, but contracting 5 leaves a
    triangle.  In the last one, contracting 1 turns {1, 3} into {3}, which
    lies in {0, 3, 4}: a walk that kept {0, 3, 4} would strip {3} and find
    {0, 2}, {0, 3, 4}, {2, 4}, which is not Koenig."""
    ideal = clutter.edge_ideal()
    expected = every_vertex_minor_walk(ideal)
    assert core.has_packing_property(ideal) == expected
    assert packs_by_every_substitution(ideal) == expected


def graphs_with_loops(max_s=9):
    """Graphs on 0 to ``max_s`` vertices; in multigraph mode some vertices
    carry loops."""
    return st.integers(0, max_s).flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.lists(
                st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)), max_size=12
            ) if s else st.just([]),
            st.booleans(),
        )
    ).map(
        lambda case: core.Graph(
            case[0],
            [e for e in case[1] if case[2] or e[0] != e[1]],
            multigraph=case[2],
        )
    )


@settings(SEEDED, max_examples=300)
@given(graphs_with_loops())
@example(core.Graph(0, []))
@example(core.Graph(3, []))
@example(core.Graph(4, [(0, 1), (1,)], multigraph=True))
@example(core.Graph(3, [(0,), (1,), (2,)], multigraph=True))
@example(cycle_graph(5))
def test_property_stable_sets_are_the_complements_of_the_minimal_covers(graph):
    stable = graph.maximal_stable_sets()
    assert stable == recursive_maximal_stable_sets(graph)
    assert graph.is_well_covered() == (len({len(m) for m in stable}) == 1)


@settings(SEEDED, max_examples=150)
@given(squarefree_ideals(max_s=7, max_gens=8))
@example(q6_ideal())
def test_property_alexander_dual_matches_the_frozenset_covers(ideal):
    covers = berge_minimal_covers(ideal.clutter())
    gens = [tuple(int(i in c) for i in range(ideal.s)) for c in covers]
    assert core.alexander_dual(ideal) == core.MonomialIdeal(ideal.s, gens)


def point_sets():
    """2 to 12 distinct projective points over F_q, q <= 9, in 2 to 4
    coordinates."""
    def build(case):
        q, s, vectors = case
        field = codes.GF(q)
        points = []
        for v in vectors:
            if any(v):
                inv = field.inv[next(x for x in v if x)]
                point = tuple(field.mul[inv][x] for x in v)
                if point not in points:
                    points.append(point)
        assume(len(points) >= 2)
        return codes.PointSetOverFq(q, s, points[:12])

    return st.tuples(
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(2, 4)
    ).flatmap(
        lambda qs: st.tuples(
            st.just(qs[0]), st.just(qs[1]),
            st.lists(
                st.tuples(*[st.integers(0, qs[0] - 1)] * qs[1]),
                min_size=2, max_size=16,
            ),
        )
    ).map(build)


@settings(SEEDED, max_examples=200)
@given(point_sets())
@example(codes.PointSetOverFq(2, 2, [(1, 0), (0, 1)]))
@example(codes.PointSetOverFq(2, 2, [(1, 0), (0, 1), (1, 1)]))
@example(codes.PointSetOverFq(3, 3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0)]))
def test_property_weight_one_rows_match_the_column_drop_oracle(points):
    assert codes.v_number_points(points) == column_drop_v_number(points)


def evaluation_codes():
    """Degree-d codes, d <= 3, of 2 to 10 distinct projective points over
    F_q, q in {2, 3, 4}, in 2 or 3 coordinates."""
    def build(case):
        q, s, vectors, d = case
        field = codes.GF(q)
        points = []
        for v in vectors:
            if any(v):
                inv = field.inv[next(x for x in v if x)]
                point = tuple(field.mul[inv][x] for x in v)
                if point not in points:
                    points.append(point)
        assume(len(points) >= 2)
        return codes.EvaluationCode(codes.PointSetOverFq(q, s, points[:10]), d)

    return st.tuples(st.sampled_from([2, 3, 4]), st.integers(2, 3)).flatmap(
        lambda qs: st.tuples(
            st.just(qs[0]), st.just(qs[1]),
            st.lists(
                st.tuples(*[st.integers(0, qs[0] - 1)] * qs[1]),
                min_size=2, max_size=14,
            ),
            st.integers(1, 3),
        )
    ).map(build)


@settings(SEEDED, max_examples=300)
@given(evaluation_codes())
@example(codes.EvaluationCode(codes.PointSetOverFq(3, 3, [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
    (0, 1, 1), (1, 1, 1), (1, 2, 0), (1, 0, 2), (1, 2, 1),
]), 2))
@example(codes.EvaluationCode(codes.PointSetOverFq(2, 2, [(1, 0), (0, 1)]), 1))
@example(codes.EvaluationCode(codes.PointSetOverFq(2, 2, [(1, 0), (0, 1), (1, 1)]), 3))
@example(codes.EvaluationCode(
    codes.PointSetOverFq(4, 2, [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]), 1
))
def test_property_weight_walk_matches_the_subset_scan_and_codeword_oracles(code):
    k = code.dimension
    scan = [subset_scan_weight(code, r) for r in range(1, k + 1)]
    for top in range(1, k + 1):
        assert codes.weight_hierarchy(code, top) == scan[:top]
    assert codes.weight_hierarchy(code) == scan
    # one codeword per scalar class: at most 4^6 / 3 of them
    if code.field.q ** k <= 4096:
        assert codes.minimum_distance(code) == codeword_minimum_distance(code)
    for top in (0, k + 1):
        with pytest.raises(PreconditionError):
            codes.weight_hierarchy(code, top)


def v_number_outcome(fn, ideal, cap):
    try:
        return fn(ideal, cap)
    except BudgetExceededError as exc:
        return (str(exc), exc.needed, exc.budget, exc.stage)


@settings(SEEDED, max_examples=400)
@given(up_to_four_generator_ideals(), st.one_of(st.none(), st.integers(0, 6)))
@example(core.MonomialIdeal(1, [(1,)]), None)
@example(core.MonomialIdeal(2, [(1, 0), (0, 1)]), None)
@example(cycle_graph(5).edge_ideal(), 1)
@example(cycle_graph(5).edge_ideal(), None)
@example(core.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 0, 3)]), None)
def test_property_clamped_differences_match_the_colon_oracle(ideal, cap):
    assert v_number_outcome(codes.v_number_monomial, ideal, cap) == v_number_outcome(
        colon_v_number, ideal, cap
    )
