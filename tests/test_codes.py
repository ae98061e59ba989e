import random

import pytest

from monomials import codes
from monomials.core import Graph, MonomialIdeal
from monomials.errors import BudgetExceededError, PreconditionError

from helpers import (
    codeword_minimum_distance,
    complete_graph,
    cycle_graph,
    path_graph,
    random_point_set,
)


def p1_f2():
    return codes.PointSetOverFq(2, 2, [(1, 0), (0, 1), (1, 1)])


def test_field_tables():
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = codes.GF(q)
        for a in range(q):
            for b in range(q):
                assert f.add[a][b] == f.add[b][a]
                assert f.mul[a][b] == f.mul[b][a]
                for c in range(q):
                    assert (
                        f.mul[a][f.add[b][c]]
                        == f.add[f.mul[a][b]][f.mul[a][c]]
                    )
        for a in range(1, q):
            assert f.mul[a][f.inv[a]] == 1
    with pytest.raises(PreconditionError):
        codes.GF(6)


def test_build_code_examples():
    code = codes.EvaluationCode(p1_f2(), 1)
    assert (code.dimension, code.length) == (2, 3)
    assert codes.minimum_distance(code) == 2
    code = codes.EvaluationCode(p1_f2(), 2)
    assert code.dimension == 3
    assert codes.minimum_distance(code) == 1
    affine = codes.PointSetOverFq(
        2, 3, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)], normalize=False
    )
    assert codes.EvaluationCode(affine, 1).dimension == 3


def test_projective_normalization_and_duplicates():
    pts = codes.PointSetOverFq(3, 2, [(2, 1)])
    assert pts.points == ((1, 2),)
    with pytest.raises(PreconditionError):
        codes.PointSetOverFq(3, 2, [(1, 2), (2, 1)])  # same projective point


def test_weights_hierarchy():
    code = codes.EvaluationCode(p1_f2(), 2)
    assert codes.weight_hierarchy(code) == [1, 2, 3]
    code = codes.EvaluationCode(p1_f2(), 1)
    hierarchy = codes.weight_hierarchy(code)
    assert hierarchy == sorted(hierarchy)
    assert len(set(hierarchy)) == len(hierarchy)
    assert codes.weight_hierarchy(code, 1) == hierarchy[:1]
    for r in (0, 3):
        with pytest.raises(PreconditionError):
            codes.weight_hierarchy(code, r)
        with pytest.raises(PreconditionError):
            codes.generalized_weight(code, r)


def _subspace_weight_reference(code, r):
    """delta_r by direct enumeration of r-dimensional subcodes."""
    f = code.field
    best = code.length
    for mat in codes._r_subspaces(f, code.dimension, r):
        support = set()
        rows = []
        for coeffs in mat:
            word = [0] * code.length
            for c, row in zip(coeffs, code.basis):
                if c:
                    for i, x in enumerate(row):
                        word[i] = f.add[word[i]][f.mul[c][x]]
            rows.append(word)
        for i in range(code.length):
            if any(row[i] for row in rows):
                support.add(i)
        best = min(best, len(support))
    return best


def test_generalized_weight_matches_subspace_enumeration():
    rng = random.Random(163)
    for _ in range(6):
        pts = random_point_set(rng, 2, 3, rng.randint(3, 6))
        for d in (1, 2):
            code = codes.EvaluationCode(pts, d)
            for r in range(1, min(code.dimension, 3) + 1):
                assert codes.generalized_weight(code, r) == \
                    _subspace_weight_reference(code, r)


def test_minimum_distance_equals_first_weight():
    rng = random.Random(167)
    for _ in range(8):
        q = rng.choice([2, 3])
        pts = random_point_set(rng, q, 3, rng.randint(3, 7))
        code = codes.EvaluationCode(pts, rng.randint(1, 2))
        assert codes.minimum_distance(code) == codeword_minimum_distance(code) \
            == codes.generalized_weight(code, 1)


def test_gmd_and_vasconcelos():
    assert codes.gmd_and_vasconcelos(p1_f2(), 1, 1) == (2, 2)
    # at the regularity threshold everything collapses to delta = r
    code = codes.EvaluationCode(p1_f2(), 2)
    for r in (1, 2, 3):
        d_i, theta = codes.gmd_and_vasconcelos(p1_f2(), 2, r)
        assert d_i == theta == codes.generalized_weight(code, r) == r
    p1f3 = codes.PointSetOverFq(3, 2, [(1, 0), (0, 1), (1, 1), (1, 2)])
    d_i, theta = codes.gmd_and_vasconcelos(p1f3, 1, 2)
    code = codes.EvaluationCode(p1f3, 1)
    assert d_i == theta == codes.generalized_weight(code, 2)


def test_v_number_points_examples():
    assert codes.v_number_points(p1_f2()) == 2
    two = codes.PointSetOverFq(3, 2, [(1, 0), (1, 2)])
    assert codes.v_number_points(two) == 1
    collinear = codes.PointSetOverFq(
        3, 2, [(1, 0), (1, 1), (1, 2)], normalize=False
    )
    v = codes.v_number_points(collinear)
    # cross check against the delta threshold
    d = 1
    while codes.minimum_distance(codes.EvaluationCode(collinear, d)) > 1:
        d += 1
    assert v == d == 2
    with pytest.raises(PreconditionError):
        codes.v_number_points(codes.PointSetOverFq(3, 2, [(1, 1)]))


def test_v_number_monomial_examples():
    c4 = cycle_graph(4).edge_ideal()
    assert codes.v_number_monomial(c4) == 1
    assert codes.v_number_monomial(MonomialIdeal(1, [(1,)])) == 0
    c5 = cycle_graph(5).edge_ideal()
    assert codes.v_number_monomial(c5) == 2
    assert codes.v_number_monomial(MonomialIdeal(2, [(1, 0), (0, 1)])) == 0
    assert codes.v_number_monomial(cycle_graph(18).edge_ideal()) == 5
    with pytest.raises(BudgetExceededError):
        codes.v_number_monomial(c5, degree_cap=1)


def test_v_number_points_runs_one_elimination_per_degree(monkeypatch):
    """rref runs once for each degree up to the v-number, and nothing else
    eliminates (no regularity threshold first)."""
    calls = []
    rref = codes.rref
    monkeypatch.setattr(codes, "rref", lambda f, rows: calls.append(f) or rref(f, rows))
    points = random_point_set(random.Random(11), 3, 3, 10)
    v = codes.v_number_points(points)
    assert len(calls) == v


def test_v_number_monomial_cap_stops_before_the_box(monkeypatch):
    """On the 18-cycle (2^18 candidates) a cap of 1 forms only the 19
    candidates of degree at most 1, and tests each of them."""
    formed, tested = [], set()
    walk, clamp = codes._box_points_of_degree, codes.vec_sub_clamped

    def points(bounds, d, head=()):
        for m in walk(bounds, d, head):
            if not head:  # the walk recurses through this wrapper too
                formed.append(m)
            yield m

    monkeypatch.setattr(codes, "_box_points_of_degree", points)
    monkeypatch.setattr(
        codes, "vec_sub_clamped", lambda g, m: tested.add(m) or clamp(g, m)
    )
    with pytest.raises(BudgetExceededError) as err:
        codes.v_number_monomial(cycle_graph(18).edge_ideal(), degree_cap=1)
    exc = err.value
    assert (exc.needed, exc.budget, exc.stage) == (2, 1, "v_number_monomial")
    assert len(formed) == len(tested) == 19


def test_v_number_monomial_stops_the_differences_at_a_zero_one(monkeypatch):
    """On the 18-cycle (v-number 5) the 4,874 candidates tested form
    66,422 clamped differences, not 18 for each (87,732): a candidate in I
    stops at its first zero difference."""
    calls, tested = [0], set()
    clamp = codes.vec_sub_clamped

    def counted(g, m):
        calls[0] += 1
        tested.add(m)
        return clamp(g, m)

    monkeypatch.setattr(codes, "vec_sub_clamped", counted)
    assert codes.v_number_monomial(cycle_graph(18).edge_ideal()) == 5
    assert len(tested) == 4874
    assert calls[0] == 66422


def test_v_number_basic_laws():
    rng = random.Random(173)
    from helpers import random_squarefree_ideal

    for _ in range(10):
        ideal = random_squarefree_ideal(rng, rng.randint(2, 6))
        v = codes.v_number_monomial(ideal)
        prime = all(sum(g) == 1 for g in ideal.gens)
        assert (v == 0) == prime
        assert v >= 0


def test_irreducible_split_drops_the_generators_a_part_divides(monkeypatch):
    """Each part drops the generators it divides, so none of them is split
    again: this ideal's split reaches 18 leaves (it reached 64, for 48
    distinct components), 16 distinct, of which 7 are kept."""
    ideal = MonomialIdeal(
        4, [(0, 3, 0, 3), (2, 1, 3, 3), (3, 0, 0, 2), (3, 2, 2, 1)]
    )
    leaves = []
    build = codes.MonomialIdeal
    monkeypatch.setattr(
        codes, "MonomialIdeal", lambda s, gens: leaves.append(gens) or build(s, gens)
    )
    split = codes._irreducible_split(ideal)
    monkeypatch.undo()
    assert (len(leaves), len(split)) == (18, 16)
    assert len(codes.irreducible_components(ideal)) == 7


def test_irreducible_decomposition():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    comps = codes.irreducible_components(ideal)
    inter = comps[0]
    for c in comps[1:]:
        inter = inter.intersect(c)
    assert inter == ideal
    assert codes.associated_primes(ideal) == [
        frozenset({0}), frozenset({0, 1})
    ]
    # squarefree: associated primes are the minimal covers
    c5 = cycle_graph(5).edge_ideal()
    assert set(codes.associated_primes(c5)) == {
        frozenset(c) for c in c5.minimal_primes()
    }


def test_prime_power_field_code():
    # the projective line over F4 has 5 points; with d = 1 the code is MDS
    f4_points = codes.PointSetOverFq(
        4, 2, [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]
    )
    code = codes.EvaluationCode(f4_points, 1)
    assert (code.length, code.dimension) == (5, 2)
    assert codes.minimum_distance(code) == 4  # Reed-Solomon-like: n - k + 1
    # on the projective line the distance is (q+1) - d, reaching 1 at d = q
    assert codes.v_number_points(f4_points) == 4


def test_weight_report():
    report = codes.WeightReport(p1_f2())
    assert report.v_number == 2
    assert report.threshold == 2
    assert report.weights[1] == (2, 3)
    assert report.weights[2] == (1, 2, 3)
    rng = random.Random(179)
    for _ in range(5):
        pts = random_point_set(rng, rng.choice([2, 3]), 3, rng.randint(3, 7))
        codes.WeightReport(pts)  # raises if any structural law breaks


def test_weight_walk_tries_no_size_twice(monkeypatch):
    """At the regularity threshold delta_r = r, so each r hits on the first
    subset of size m - r, one below where r - 1 stopped: k rank computations
    in all."""
    points = random_point_set(random.Random(11), 3, 3, 10)
    code = codes.EvaluationCode(points, points.regularity_threshold())
    gf_rank, sizes = codes.gf_rank, []
    monkeypatch.setattr(
        codes, "gf_rank", lambda f, rows: sizes.append(len(rows)) or gf_rank(f, rows)
    )
    assert codes.weight_hierarchy(code) == list(range(1, 11))
    assert sizes == list(range(9, -1, -1))


def test_weight_report_reads_the_threshold_off_its_codes(monkeypatch):
    """The report eliminates once per code it builds and reads the v-number
    off their bases; it runs no separate regularity threshold."""
    points = random_point_set(random.Random(11), 3, 3, 10)
    threshold = points.regularity_threshold()
    rref, calls = codes.rref, []
    monkeypatch.setattr(codes, "rref", lambda f, rows: calls.append(f) or rref(f, rows))
    monkeypatch.setattr(
        codes, "gf_rank", lambda f, rows: len(rref(f, rows)[0]) if rows else 0
    )
    monkeypatch.setattr(
        codes.PointSetOverFq, "regularity_threshold",
        lambda self: pytest.fail("the threshold was computed separately"),
    )
    report = codes.WeightReport(points)
    assert report.threshold == threshold == max(report.weights)
    assert len(calls) == report.threshold == 4
    assert report.v_number == codes.v_number_points(points) == 3


def test_w2():
    assert codes.w2_test(complete_graph(3))
    assert not codes.w2_test(path_graph(3))
    assert not codes.w2_test(cycle_graph(4))
    assert codes.w2_test(cycle_graph(5))  # C5 is in W2
    with pytest.raises(PreconditionError):
        codes.w2_test(Graph(3, [(0, 1)]))  # isolated vertex
