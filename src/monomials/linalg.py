"""Exact linear algebra over the rationals and the integers.

Matrices are lists/tuples of row tuples.  Ranks, null spaces, independent
rows, adjugates, determinants and solutions run on one fraction-free integer
Gauss-Jordan elimination (after Bareiss, Math. Comp. 22 (1968), but each
changed row is divided by the gcd of its entries); rational rows are first
scaled by their own denominators.  Their results are integers read straight
off the eliminated rows: null spaces with their pivot columns, the adjugate
columns that seed a double description with a null space from the same
pass, and (det, adjugate) pairs.  Only :func:`det` and :func:`solve` return
:class:`fractions.Fraction`.  Integer lattices (echelon bases, kernel lattices,
invariant factors) use gcd row operations on plain ints, and coordinates in
an echelon basis come by back substitution, so all stays exact at any size.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from monomials.errors import InternalConsistencyError, PreconditionError


def vec_dot(a, b):
    return sum(map(mul, a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    return primitive(_integer_row(v)[0])


def _integer_row(row):
    """The row times the lcm d of its denominators, as ints, and d."""
    if all(type(x) is int for x in row):
        return list(row), 1
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


def integer_nullspace(rows):
    """(basis, pivots) from one elimination: the pivot columns of the rows'
    echelon form, and a basis of {x : rows * x = 0} of primitive integer
    vectors, one per free column f, positive at f and zero at the other
    free columns."""
    ncols = len(rows[0])
    mat = [_integer_row(r)[0] for r in rows]
    pivots, _, _ = _eliminate(mat)
    d = lcm(*(row[c] for row, c in zip(mat, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = d
        for row, c in zip(mat, pivots):
            x[c] = -row[f] * (d // row[c])
        basis.append(primitive(x))
    return basis, pivots


def independent_rows(rows):
    """(indices, duals, kernel) from one elimination of [rows^T | I].

    ``indices`` are the first rows that span the row space (the pivot
    columns of the transpose).  Each index k gets a primitive integer
    vector y_k with rows[k].y_k > 0 and rows[i].y_k = 0 for the other
    indices i: the elimination ends in [R | E] with E * rows^T = R, and row
    k of R is zero at every pivot column but its own.  With n indices, y_k
    is a positive multiple of column k of the adjugate of the chosen rows.
    The rows of [R | E] with a pivot in the identity block have R = 0, so
    (E invertible) their E parts are a basis of the null space, ``kernel``.
    """
    m = len(rows)
    n = len(rows[0])
    cols = list(zip(*(_integer_row(r)[0] for r in rows)))
    mat = [[*col, *(int(i == j) for j in range(n))] for i, col in enumerate(cols)]
    pivots, _, _ = _eliminate(mat)
    indices = [c for c in pivots if c < m]
    duals = [
        primitive(row[m:] if row[c] > 0 else [-x for x in row[m:]])
        for row, c in zip(mat, indices)
    ]
    kernel = [primitive(row[m:]) for row in mat[len(indices):]]  # pivots >= m
    return indices, duals, kernel


def adjugate(rows):
    """(det, adj) of a non-singular square integer matrix, with
    rows * adj = adj * rows = det * I, from one elimination of [rows | I]:
    its rows end as (p_i e_i | E_i) with E * rows = diag(p), so row i of
    the inverse is E_i / p_i."""
    n = len(rows)
    mat = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(rows)]
    pivots, num, den = _eliminate(mat)
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    d = prod(row[i] for i, row in enumerate(mat)) * den // num
    return d, [tuple(d * x // row[i] for x in row[n:]) for i, row in enumerate(mat)]


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


def invariant_factors(matrix):
    """Invariant factors d_1 | d_2 | ... of an integer matrix, padded with
    zeros to min(m, n) entries.

    :func:`integer_row_basis` runs on the rows, then on the columns, and so
    on (unimodular steps that drop zero lines) until the matrix is diagonal;
    a gcd/lcm pass then makes the divisibility chain.  Termination: after
    the first column pass the matrix is r x r triangular and its pivots
    multiply to Delta_r, which every pass keeps.  The first pivot p_k not
    alone in its row and column is replaced by the gcd of its row (or
    column): p_k becomes alone or drops to a proper divisor, at most
    Omega(Delta_r) < bit_length(Delta_r) times.  The last pivot is alone
    once the others are, so r + 1 + (r - 1) * bit_length(Delta_r) passes
    suffice; more is an error.
    """
    size = min(len(matrix), len(matrix[0])) if matrix else 0
    mat = integer_row_basis(list(zip(*integer_row_basis(matrix))))
    r = len(mat)
    bound = r + 1 + (r - 1) * prod(mat[k][k] for k in range(r)).bit_length()
    for _ in range(bound + 1):
        if all(sum(1 for x in row if x) == 1 for row in mat):
            break
        mat = integer_row_basis(list(zip(*mat)))
    else:
        raise InternalConsistencyError(f"invariant factors: over {bound} passes")
    d = sorted(row[k] for k, row in enumerate(mat))
    for i in range(r):
        for j in range(i + 1, r):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d + [0] * (size - r)


def integer_kernel_basis(equations, n):
    """Basis of {x in Z^n : e.x = 0 for each e in equations}.

    An echelon basis of the rows (column i of the equations, e_i) ends in
    the rows whose first len(equations) entries are 0, and these rows
    without those entries are a basis of the kernel.
    """
    k = len(equations)
    lifted = [
        tuple(e[i] for e in equations) + tuple(int(i == j) for j in range(n))
        for i in range(n)
    ]
    return [b[k:] for b in integer_row_basis(lifted) if not any(b[:k])]


def lattice_coordinates(vectors, basis):
    """Integer coordinates of each vector in an echelon lattice basis (from
    :func:`integer_row_basis` or :func:`integer_kernel_basis`: leading
    columns increase, leading entries are positive), or None for a vector
    outside the lattice, by back substitution: top down, the residue's entry
    at a row's leading column, which the rows below have 0, must be a
    multiple of the row's, and the last residue must be 0.
    """
    leads = [next((j for j, x in enumerate(b) if x), -1) for b in basis]
    if leads != sorted(set(leads)) or any(b[c] <= 0 for b, c in zip(basis, leads)):
        raise PreconditionError("lattice basis rows must be independent, in echelon form")
    coords = []
    for v in vectors:
        y = []
        for b, c in zip(basis, leads):
            q, r = divmod(v[c], b[c])
            if r:
                break
            v = [x - q * z for x, z in zip(v, b)]
            y.append(q)
        coords.append(tuple(y) if len(y) == len(basis) and not any(v) else None)
    return coords
