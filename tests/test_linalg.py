import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from monomials import linalg
from monomials.errors import InternalConsistencyError, PreconditionError

from helpers import (
    coordinates_in_basis,
    eliminated_lattice_coordinates,
    mat_mul,
    saturation_basis,
    smith_normal_form,
)


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m)]


def test_rank_and_det_small():
    assert linalg.rank([(1, 0), (0, 1)]) == 2
    assert linalg.rank([(1, 2), (2, 4)]) == 1
    assert linalg.det([(1, 2), (3, 4)]) == -2
    assert linalg.det([(2, 0, 0), (0, 3, 0), (0, 0, 5)]) == 30


def test_det_vs_permanent_expansion():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        mat = random_matrix(rng, n, n)
        brute = Fraction(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            # count inversions for the sign
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
            )
            term = Fraction((-1) ** inv)
            for i in range(n):
                term *= mat[i][perm[i]]
            brute += term
        assert linalg.det(mat) == brute


def test_solve_and_nullspace():
    rng = random.Random(4)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, m, n)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        rhs = [linalg.vec_dot(row, x) for row in mat]
        sol = linalg.solve(mat, rhs)
        assert sol is not None
        assert all(linalg.vec_dot(row, sol) == b for row, b in zip(mat, rhs))
        basis, pivots = linalg.integer_nullspace(mat)
        for basis_vec in basis:
            assert all(linalg.vec_dot(row, basis_vec) == 0 for row in mat)
        assert linalg.rank(mat) + len(basis) == n == len(pivots) + len(basis)


def test_inconsistent_system():
    assert linalg.solve([(1, 1), (1, 1)], [0, 1]) is None


def test_smith_normal_form_properties():
    """The test oracle's transforms are unimodular and diagonalize, and
    ``invariant_factors`` gives its diagonal."""
    rng = random.Random(9)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, m, n)
        u, d, v, factors = smith_normal_form(mat)
        assert linalg.invariant_factors(mat) == factors
        assert abs(linalg.det(u)) == 1
        assert abs(linalg.det(v)) == 1
        prod = mat_mul(mat_mul(u, mat), v)
        for i in range(m):
            for j in range(n):
                expected = factors[i] if i == j and i < len(factors) else 0
                assert prod[i][j] == d[i][j] == expected
        for i in range(len(factors) - 1):
            if factors[i]:
                assert factors[i + 1] % factors[i] == 0


def _minor_gcd(mat, r):
    m, n = len(mat), len(mat[0])
    g = 0
    for rows in itertools.combinations(range(m), r):
        for cols in itertools.combinations(range(n), r):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, int(linalg.det(sub)))
    return g


def test_invariant_factor_products_match_minor_gcds():
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, -3, 3)
        factors = linalg.invariant_factors(mat)
        rank = sum(1 for f in factors if f)
        prod = 1
        for r in range(1, rank + 1):
            prod *= factors[r - 1]
            assert prod == _minor_gcd(mat, r)


def test_invariant_factors_of_degenerate_matrices():
    assert linalg.invariant_factors([]) == []
    assert linalg.invariant_factors([(0, 0, 0), (0, 0, 0)]) == [0, 0]
    assert linalg.invariant_factors([(6, 4)]) == [2]
    assert linalg.invariant_factors([(2, 0), (0, 3)]) == [1, 6]
    assert linalg.invariant_factors([(4, 0, 0), (0, 6, 0), (0, 0, 0)]) == [2, 12, 0]


def test_invariant_factors_fail_past_their_pass_bound(monkeypatch):
    """A diagonalization that stops making progress is an error, not a
    hang: with passes that change nothing, the bound fires."""
    monkeypatch.setattr(
        linalg, "integer_row_basis", lambda rows: [tuple(r) for r in rows if any(r)]
    )
    with pytest.raises(InternalConsistencyError, match="passes"):
        linalg.invariant_factors([(2, 1), (0, 2)])


def test_no_smith_normal_form_in_the_library():
    """Invariant factors come from echelon bases; the Smith form and its
    matrix product live only in the tests, as oracles."""
    src = Path(linalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "smith_normal_form" not in text, path.name
        assert "mat_mul" not in text, path.name


def test_integer_row_basis_spans_same_lattice():
    rng = random.Random(21)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        mat = random_matrix(rng, m, n, -3, 3)
        basis = linalg.integer_row_basis(mat)
        # each original row is an integer combination of the basis
        for row in mat:
            if not any(row):
                continue
            assert coordinates_in_basis(row, basis) is not None
        # and conversely each basis vector lies in the row lattice
        joint = linalg.integer_row_basis(list(mat) + list(basis))
        for b in joint:
            assert coordinates_in_basis(b, basis) is not None


def test_saturation_basis():
    basis = saturation_basis([(2, 0), (0, 2)])
    # saturation of the full-rank lattice is all of Z^2
    assert coordinates_in_basis((1, 0), basis) is not None
    assert coordinates_in_basis((0, 1), basis) is not None
    basis = saturation_basis([(2, 4)])
    assert coordinates_in_basis((1, 2), basis) is not None


def test_integer_kernel_basis():
    # {x in Z^3 : x1 + 2 x2 = 0 = x3}: spanned by (2, -1, 0), not by (4, -2, 0)
    basis = linalg.integer_kernel_basis([(1, 2, 0), (0, 0, 1)], 3)
    assert len(basis) == 1
    assert coordinates_in_basis((2, -1, 0), basis) is not None
    assert len(linalg.integer_kernel_basis([], 2)) == 2


def test_lattice_coordinates_refuse_dependent_rows():
    with pytest.raises(PreconditionError, match="independent"):
        linalg.lattice_coordinates([(2, 4)], [(1, 2), (2, 4)])
    assert linalg.lattice_coordinates([(3, 6), (1, 1), (1, 3)], [(1, 2), (0, 2)]) == [
        (3, 0), None, None
    ]


def test_lattice_coordinates_refuse_a_basis_not_in_echelon_form():
    """Back substitution needs increasing leading columns with positive
    entries there; rows out of order, a negative or repeated leading column
    and a zero row are refused, independent or not."""
    for basis in ([(0, 1), (1, 0)], [(-1, 0), (0, 1)], [(1, 1), (1, 0)], [(1, 2), (0, 0)]):
        with pytest.raises(PreconditionError, match="echelon"):
            linalg.lattice_coordinates([(1, 1)], basis)
    assert eliminated_lattice_coordinates([(1, 1)], [(0, 1), (1, 0)]) == [(1, 1)]
    assert linalg.lattice_coordinates([(1, 1)], [(1, 0), (0, 1)]) == [(1, 1)]


def test_primitive_and_clear_denominators():
    assert linalg.primitive((2, 4, -6)) == (1, 2, -3)
    assert linalg.clear_denominators((Fraction(1, 2), Fraction(1, 3))) == (3, 2)


def test_adjugate_rejects_a_singular_matrix():
    with pytest.raises(PreconditionError, match="singular"):
        linalg.adjugate([(1, 2), (2, 4)])
    assert linalg.adjugate([(1, 2), (3, 4)]) == (-2, [(4, -2), (-3, 1)])
