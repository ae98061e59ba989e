import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monomials import linalg, lp
from monomials.core import MonomialIdeal
from monomials.errors import PreconditionError

from helpers import (
    INFEASIBLE,
    covering_lp,
    cycle_graph,
    in_cone,
    packing_lp,
    two_phase_lp,
)


def test_spec_examples():
    assert packing_lp([[1, 0], [0, 1]], [3, 2]).value == 5
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    res = packing_lp(ci.incidence_matrix(), [1, 1])
    assert res.value == 1 and res.x == (Fraction(1, 2), Fraction(1, 2))
    triangle = cycle_graph(3).edge_ideal()
    assert packing_lp(triangle.incidence_matrix(), [1, 1, 1]).value == Fraction(3, 2)


def test_min_form_duality():
    triangle = cycle_graph(3).edge_ideal()
    vmax = packing_lp(triangle.incidence_matrix(), [1, 1, 1]).value
    res = covering_lp(triangle.gens, [1, 1, 1])
    assert vmax == res.value == Fraction(3, 2)
    assert res.x == (Fraction(1, 2),) * 3


def test_unbounded_and_infeasible():
    res = lp.exact_lp([1, 1], a_ub=[[1, -1]], b_ub=[0])
    assert res.status == lp.UNBOUNDED
    res = two_phase_lp([1], a_ub=[[1], [-1]], b_ub=[1, -2])
    assert res.status == INFEASIBLE
    # A y <= -1 with A = 0
    assert two_phase_lp([1, 1], a_ub=[[0, 0]], b_ub=[-1]).status == INFEASIBLE


def test_a_negative_right_hand_side_is_refused():
    """The library's simplex starts from the slack basis, which needs a
    feasible origin."""
    with pytest.raises(PreconditionError, match="b >= 0"):
        lp.exact_lp([1], a_ub=[[1], [-1]], b_ub=[1, -2])
    with pytest.raises(PreconditionError, match="b >= 0"):
        packing_lp([[0, 0]], [-1])


def _brute_force_max(c, a_ub, b_ub):
    """Optimum over vertices, by enumerating tight subsystems.

    Constraints: a_ub x <= b_ub and x >= 0.  Assumes a bounded feasible set.
    """
    n = len(c)
    rows = [list(map(Fraction, r)) for r in a_ub]
    rows += [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    rhs = [Fraction(b) for b in b_ub] + [Fraction(0)] * n
    best = None
    from monomials import linalg

    for subset in itertools.combinations(range(len(rows)), n):
        sub = [rows[i] for i in subset]
        if linalg.rank(sub) < n:
            continue
        x = linalg.solve(sub, [rhs[i] for i in subset])
        if x is None:
            continue
        if all(
            linalg.vec_dot(rows[i], x) <= rhs[i] for i in range(len(rows))
        ):
            val = linalg.vec_dot(c, x)
            if best is None or val > best:
                best = val
    return best


def test_simplex_matches_vertex_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [rng.randint(-3, 3) for _ in range(n)]
        a_ub = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        # cap every variable so the region is bounded and feasible
        a_ub += [[int(i == j) for j in range(n)] for i in range(n)]
        b_ub = [rng.randint(0, 5) for _ in range(m)] + [4] * n
        res = lp.exact_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert res.status == lp.OPTIMAL
        assert res.value == _brute_force_max(c, a_ub, b_ub)
        # the witness is feasible and attains the value
        from monomials.linalg import vec_dot

        assert all(x >= 0 for x in res.x)
        assert all(
            vec_dot(row, res.x) <= b for row, b in zip(a_ub, b_ub)
        )
        assert vec_dot(c, res.x) == res.value


def test_equality_constraints():
    # max x1 + x2 with x1 + x2 + x3 = 2, x1 <= 1
    res = two_phase_lp(
        [1, 1, 0], a_ub=[[1, 0, 0]], b_ub=[1], a_eq=[[1, 1, 1]], b_eq=[2]
    )
    assert res.status == lp.OPTIMAL and res.value == 2


def test_in_cone():
    assert in_cone((2, 2), [(1, 0), (1, 2)])
    assert not in_cone((0, 1), [(1, 0), (1, 2)])
    assert in_cone((0, 0), [])


def packing_programs():
    """max c.x subject to A x <= b, x >= 0 with b >= 0: 1-3 variables, 1-4
    rows of mixed signs in A and c, so some programs are unbounded."""
    return st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda nm: st.tuples(
            st.tuples(*[st.integers(-3, 3)] * nm[0]),
            st.lists(
                st.tuples(*[st.integers(-3, 3)] * nm[0]),
                min_size=nm[1], max_size=nm[1],
            ),
            st.tuples(*[st.integers(0, 5)] * nm[1]),
        )
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(packing_programs())
def test_property_one_phase_simplex_matches_both_oracles(program):
    """From the slack basis, the simplex reaches the optimum of the
    two-phase oracle and of the vertex enumeration, with a feasible witness
    that attains it, and is unbounded exactly when the oracle is."""
    c, a_ub, b_ub = program
    res = lp.exact_lp(c, a_ub, b_ub)
    oracle = two_phase_lp(c, a_ub=a_ub, b_ub=b_ub)
    assert res.status == oracle.status
    if res.status == lp.UNBOUNDED:
        return
    assert res.value == oracle.value == _brute_force_max(c, a_ub, b_ub)
    assert all(x >= 0 for x in res.x)
    assert all(linalg.vec_dot(row, res.x) <= b for row, b in zip(a_ub, b_ub))
    assert linalg.vec_dot(c, res.x) == res.value
