"""Exact simplex over the rationals for the packing program.

Membership in the closure of I^n compares n with the optimum of the
packing program max{|y| : A y <= a, y >= 0}, the LP dual of min <a, x> over
the covering polyhedron Q(I).  Its right-hand side a is non-negative, so the
origin is feasible and the slack basis starts the simplex: no first phase
runs, and the program is optimal or unbounded.  All variables are
non-negative.  Pivoting follows Bland's rule (lowest eligible index enters;
among minimum-ratio rows the one whose basic variable has the lowest index
leaves), which rules out cycling and makes every run deterministic.
"""

from fractions import Fraction

from monomials.errors import PreconditionError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _pivot(rows, b, basis, zrow, r, c):
    """Pivot the tableau on entry (r, c); returns the objective increment."""
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    b[r] = b[r] / pv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            b[i] = b[i] - f * b[r]
    gain = zrow[c] * b[r]
    f = zrow[c]
    zrow[:] = [x - f * y for x, y in zip(zrow, rows[r])]
    basis[r] = c
    return gain


def _run_simplex(rows, b, basis, zrow):
    """Maximize until all reduced costs are <= 0.  Returns the value gained."""
    total = Fraction(0)
    while True:
        enter = next((j for j, rc in enumerate(zrow) if rc > 0), None)
        if enter is None:
            return total
        leave = None
        best = None
        for i in range(len(rows)):
            if rows[i][enter] > 0:
                ratio = b[i] / rows[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unbounded
        total += _pivot(rows, b, basis, zrow, leave, enter)


def exact_lp(c, a_ub, b_ub):
    """Maximize c.x subject to a_ub x <= b_ub, x >= 0, where b_ub >= 0.

    The slack variables are the starting basis, with value 0 and reduced
    costs c; a negative entry of b_ub is refused, as the origin would not
    be feasible.
    """
    b = [Fraction(x) for x in b_ub]
    if any(x < 0 for x in b):
        raise PreconditionError("the simplex needs b >= 0, a feasible origin")
    nvar = len(c)
    m = len(b)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(a_ub)
    ]
    basis = [nvar + i for i in range(m)]
    zrow = [Fraction(x) for x in c] + [Fraction(0)] * m
    value = _run_simplex(rows, b, basis, zrow)
    if value is None:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * (nvar + m)
    for i, j in enumerate(basis):
        x[j] = b[i]
    return LPResult(OPTIMAL, value, tuple(x[:nvar]))
