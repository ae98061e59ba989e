"""Exact linear algebra over the rationals and the integers.

Matrices are lists/tuples of row tuples.  Rank, echelon forms, solving,
null spaces, inverses and determinants all run on one fraction-free integer
Gauss-Jordan elimination (after Bareiss, Math. Comp. 22 (1968), but each
changed row is divided by the gcd of its entries); rational rows are first
scaled by their own denominators, and :class:`fractions.Fraction` appears
only in the values returned.  The reduced echelon form is unique, so these
values are those of rational Gauss-Jordan.  Integer normal forms (Smith,
Hermite) use plain ints, so everything stays exact at any size.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from monomials.errors import PreconditionError


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    return primitive(_integer_row(v)[0])


def _integer_row(row):
    """The row times the lcm d of its denominators, as ints, and d."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _eliminate(mat):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Clearing a column replaces a row by p*row - a*pivot_row, which is then
    divided by the gcd of its entries.  Returns (pivots, num, den):
    mat[:len(pivots)] are the non-zero rows in pivot order, each a multiple
    of a row of the reduced echelon form, and the row operations multiplied
    the determinant by num/den.
    """
    m = len(mat)
    pivots = []
    num = den = 1
    r = 0
    for c in range(len(mat[0]) if m else 0):
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            num = -num
        prow = mat[r]
        p = prow[c]
        for i in range(m):
            a = mat[i][c]
            if a and i != r:
                row = [p * x - a * y for x, y in zip(mat[i], prow)]
                num *= p
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    den *= g
                mat[i] = row
        pivots.append(c)
        r += 1
    del mat[r:]
    return pivots, num, den


def row_echelon(rows):
    """Reduced row echelon form, with Fraction entries.

    Returns (echelon rows, pivot column indices).
    """
    mat = [_integer_row(r)[0] for r in rows]
    pivots, _, _ = _eliminate(mat)
    return [
        tuple(Fraction(x, row[c]) for x in row) for row, c in zip(mat, pivots)
    ], pivots


def rank(rows):
    return len(_eliminate([_integer_row(r)[0] for r in rows])[0])


def det(rows):
    """Exact determinant of a square matrix, as a Fraction."""
    scaled = [_integer_row(r) for r in rows]
    mat = [row for row, _ in scaled]
    pivots, num, den = _eliminate(mat)
    if len(pivots) < len(rows):
        return Fraction(0)
    # full rank: mat is now diagonal
    return Fraction(prod(row[i] for i, row in enumerate(mat)) * den,
                    prod(d for _, d in scaled) * num)


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are 0.  The solution x = xs / d is checked against every
    equation, in integers, before it is returned as Fractions.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [_integer_row(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    mat = [list(r) for r in aug]
    pivots, _, _ = _eliminate(mat)
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the rhs column: inconsistent
    d = lcm(*(row[c] for row, c in zip(mat, pivots)))
    xs = [0] * ncols
    for row, c in zip(mat, pivots):
        xs[c] = row[-1] * (d // row[c])
    for row in aug:
        if vec_dot(row[:-1], xs) != row[-1] * d:
            return None
    return tuple(Fraction(x, d) for x in xs)


def nullspace(rows, ncols=None):
    """Basis of {x : rows * x = 0}, with Fraction entries."""
    if rows:
        ncols = len(rows[0])
    mat = [_integer_row(r)[0] for r in rows]
    pivots, _, _ = _eliminate(mat)
    basis = []
    for f in range(ncols or 0):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(mat, pivots):
            x[c] = Fraction(-row[f], row[c])
        basis.append(tuple(x))
    return basis


def invert(rows):
    """Exact inverse of a square rational matrix, with Fraction entries."""
    n = len(rows)
    mat = [
        _integer_row(list(rows[i]) + [int(i == j) for j in range(n)])[0]
        for i in range(n)
    ]
    pivots, _, _ = _eliminate(mat)
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [tuple(vec_dot(ra, cb) for cb in bt) for ra in a]


def smith_normal_form(matrix):
    """Smith normal form with transforms: U * A * V = D.

    Returns (U, D, V, invariant_factors) with U, V unimodular integer
    matrices and D diagonal with d_1 | d_2 | ... >= 0.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a non-zero pivot in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    swap_rows(t, i)
                    done = False
                elif a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    swap_cols(t, j)
                    done = False
                elif a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if done:
                break
        # make every trailing entry divisible by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue  # redo the clearing with the fattened row
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [a[i][i] for i in range(min(m, n))]
    return (
        [tuple(r) for r in u],
        [tuple(r) for r in a],
        [tuple(r) for r in v],
        factors,
    )


def invariant_factors(matrix):
    return smith_normal_form(matrix)[3]


def integer_row_basis(rows):
    """Echelon basis of the integer lattice spanned by the rows.

    Gcd elimination column by column; the span over Z is preserved by the
    unimodular row operations used.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return []
    n = len(mat[0])
    basis = []
    for col in range(n):
        nz = [r for r in mat if r[col] != 0]
        zz = [r for r in mat if r[col] == 0 and any(r)]
        if not nz:
            mat = zz
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            keep = [p]
            for r in nz[1:]:
                q = r[col] // p[col]
                r2 = [x - q * y for x, y in zip(r, p)]
                if r2[col] != 0:
                    keep.append(r2)
                elif any(r2):
                    zz.append(r2)
            nz = keep
        p = nz[0]
        if p[col] < 0:
            p = [-x for x in p]
        basis.append(tuple(p))
        mat = zz
    return basis


def saturation_basis(rows):
    """Basis of (Q-row-span of rows) intersected with Z^n.

    The saturation is the integer kernel of the span's equations E: an
    echelon basis of the rows (column i of E, e_i) ends in the rows whose
    first len(E) entries are 0, and these rows without those entries are a
    basis of the kernel.
    """
    rows = [tuple(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    eqs = [clear_denominators(v) for v in nullspace(rows)]
    k = len(eqs)
    lifted = [
        tuple(e[i] for e in eqs) + tuple(int(i == j) for j in range(n))
        for i in range(n)
    ]
    return [b[k:] for b in integer_row_basis(lifted) if not any(b[:k])]


def coordinates_in_basis(vector, basis):
    """Integer coordinates of vector in the given lattice basis, or None."""
    cols = list(zip(*basis))  # len(vector) rows, len(basis) cols
    sol = solve(cols, vector)
    if sol is None:
        return None
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)
