"""Exact rational polyhedral kernel.

Provides cone machinery (double description; pointedness from the degrees
of the generators and extreme rays from tight-facet sets; pulling
triangulation, fundamental-parallelepiped lattice points, Hilbert bases),
the irreducible representation of a Rees cone, which gives the vertices
and integrality of the covering polyhedron Q(I), lattice-point counting
with pruning (a walk over the bounding box, pruned by the facets and
equations; those on one coordinate are dropped, as they are sides of the
box), Ehrhart interpolation, and the minor gcds Delta_r.  No
linear program runs here: the covering program's optimum at alpha is
min <alpha, u> over the vertices u of Q(I).  Ranks, null spaces, the double
description's seed, adjugates, echelon lattice bases and invariant factors
come as integers from the elimination of :mod:`monomials.linalg`, so the
cone pipeline builds no Fraction.

A Hilbert basis is computed for a full-dimensional cone only: a cone that
spans less than R^n is moved once into coordinates of an echelon basis of
its span's integer points (Bruns and Ichim, J. Algebra 324 (2010)), so
every cone and simplex below :func:`hilbert_basis` has n independent rays
in Z^n; a flat cone's facets come from its pivot coordinates.  Facets are
computed for the top cone only, and each facet value f.g of a generator
once, in one facet-value table: its zeros give the extreme rays and the
ray bitmasks of the facets, on which the pulling triangulation recurses
(the facets of a face F are the maximal proper sets F & S_j, with S_j the
rays on a facet of the top cone; Ziegler, Lectures on Polytopes, Lecture
2).  Its entries are lattice heights: the product of the apex heights down
the recursion bounds each simplex's |det|, and a bound of 1 certifies a
unimodular simplex with no determinant (pulling triangulations with
heights, Bruns and Ichim, J. Algebra 324 (2010)).  A compressed cone, whose
extreme rays all have facet values 0 or 1 (Sullivant, Tohoku Math. J. 58
(2006)), is not triangulated: every apex height is 1, so every simplex is
unimodular and the Hilbert basis is the extreme rays.  In any other cone
the candidates are reduced in the order of their degree, the sum of their
facet values: the extreme rays are kept with no test, and every other
candidate is tested against the irreducibles found so far of at most half
its degree (Bruns, Ichim and Söger, J. Symb. Comp. 74 (2016)).  No Smith
normal form runs anywhere: lattices are read off echelon bases.  Null
spaces, facet descriptions and Hilbert bases are memoized per generator
set, so every caller shares them; one memoized elimination per generator
set gives the null space, which tells a flat cone from a full-dimensional
one, and the seed of its double description.

Currently everything is sequential; operations are pure, so callers may
parallelize over independent inputs if they wish.
"""

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import comb, factorial, prod

from monomials import linalg
from monomials.core import divides, memo
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    NonPointedConeError,
    PreconditionError,
)
from monomials.linalg import clear_denominators, primitive, vec_dot

DEFAULT_POINT_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def extreme_rays_of_inequalities(rows):
    """Extreme rays of the pointed cone {x : row.x >= 0 for all rows}.

    Incremental double description on integer rows (rational rows are
    scaled by their denominators), seeded with the simplex of the first
    independent rows, whose rays are the adjugate's columns, read off the
    memoized :func:`_span` of the rows.  Two rays are adjacent iff no third
    ray is tight on every row both are tight on (Fukuda and Prodon, 1996).
    Raises NonPointedConeError when rank(rows) < dim (lineality present).
    """
    rows = [tuple(r) for r in rows]
    if not all(type(x) is int for r in rows for x in r):
        rows = [clear_denominators(r) for r in rows]  # the same cone
    if not rows:
        raise NonPointedConeError("no constraints: cone is all of space")
    n = len(rows[0])
    base_idx, duals, _ = _span(tuple(rows))
    if len(base_idx) < n:
        raise NonPointedConeError("constraint matrix is rank deficient")
    base = sum(1 << i for i in base_idx)
    rays = [(ray, base ^ (1 << bi)) for ray, bi in zip(duals, base_idx)]
    for i, row in enumerate(rows):
        if base >> i & 1:
            continue
        vals = [vec_dot(row, r) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, mask | (1 << i) if v == 0 else mask)
                for v, (r, mask) in zip(vals, rays)
            ]
            continue
        masks = [mask for _, mask in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [rays[k] for k in plus]
        new_rays += [(r, mask | (1 << i)) for v, (r, mask) in zip(vals, rays) if v == 0]
        seen = {r for r, _ in new_rays}
        for kp in plus:
            rp, zp = rays[kp]
            for km in minus:
                rm, zm = rays[km]
                common = zp & zm
                # adjacent rays share n - 2 independent tight rows, and only
                # the pair itself is tight on all of their common rows
                if common.bit_count() < n - 2 or [
                    common & z for z in masks
                ].count(common) > 2:
                    continue
                a, b = vals[kp], vals[km]
                w = primitive([a * x - b * y for x, y in zip(rm, rp)])
                if w in seen:
                    continue
                seen.add(w)
                new_rays.append((w, (common | (1 << i))))
        rays = new_rays
    return sorted(r for r, _ in rays)


def cone_facets(generators):
    """Facet description of cone(generators) inside its linear span.

    Returns (equations, facets): integer vectors with
    cone = {x : e.x = 0 for e in equations, f.x >= 0 for f in facets}.
    The cone is full-dimensional iff its :func:`_span` has no null space; a
    flat cone's equations and pivots come from :func:`linalg.integer_nullspace`.
    """
    gens = tuple(tuple(g) for g in generators if any(g))
    if not gens:
        raise PreconditionError("cone has no non-zero generators")
    if not _span(gens)[2]:
        return [], extreme_rays_of_inequalities(gens)
    n = len(gens[0])
    equations, pivots = linalg.integer_nullspace(gens)
    # the span maps isomorphically onto its pivot coordinates, so each facet
    # has one primitive normal supported on them
    facets = []
    for f in extreme_rays_of_inequalities([[g[c] for c in pivots] for g in gens]):
        on_pivots = dict(zip(pivots, f))
        facets.append(tuple(on_pivots.get(c, 0) for c in range(n)))
    return sorted(equations), sorted(facets)


@memo
def _span(rows):
    """``linalg.independent_rows`` of a tuple of rows: the double
    description's seed and the equations of the rows' span, from one
    elimination shared by :func:`cone_facets`, its double description and
    the flat-cone test of :func:`_hilbert_basis`."""
    return linalg.independent_rows(rows)


def _generator_set(generators):
    """The distinct non-zero generators as a sorted tuple of integer tuples:
    the one key of a generator set, whatever their order or repeats."""
    return tuple(sorted({tuple(map(int, g)) for g in generators if any(g)}))


@memo
def _facet_description(generators):
    """``cone_facets`` of ``generators``, a :func:`_generator_set`: one
    description per generator set, shared by its callers."""
    return cone_facets(generators)


def cone_contains(point, equations, facets):
    return all(vec_dot(e, point) == 0 for e in equations) and all(
        vec_dot(f, point) >= 0 for f in facets
    )


def _pointed(table):
    """A cone is pointed iff every generator in the facet-value table has a
    positive degree, the sum of its facet values.  The sum of the facets
    lies inside the dual cone exactly when that dual cone is
    full-dimensional, that is, when the cone holds no line; a line +-v in
    the cone is a combination of generators of degree 0."""
    return all(map(sum, table.values()))  # every facet value is >= 0


def facet_values(generators, facets):
    """The facet-value table of a cone: each distinct primitive generator g,
    in sorted order, mapped to its facet values (f.g for f in facets).

    Its zeros are the incidences of generators and facets, and its rows the
    lattice heights of the generators over the facet hyperplanes; the
    extreme rays, the triangulation and its volume bounds all read it, so
    no facet value is computed twice.
    """
    prim = sorted({primitive(g) for g in generators if any(g)})
    return {g: tuple(vec_dot(f, g) for f in facets) for g in prim}


def _zeros(values):
    """Bitmask of the positions of the zeros in ``values``."""
    return sum(1 << j for j, v in enumerate(values) if v == 0)


def extreme_ray_generators(table):
    """The rows of the facet-value table of a pointed cone whose generators
    span extreme rays.

    A generator g spans an extreme ray iff no other generator is tight at
    every facet tight at g (else the face those facets cut out holds it
    too); the tight facets are the zeros of g's row.
    """
    tight = [_zeros(v) for v in table.values()]
    return {
        g: v for i, ((g, v), t) in enumerate(zip(table.items(), tight))
        if not any(u & t == t for j, u in enumerate(tight) if j != i)
    }


# ---------------------------------------------------------------------------
# triangulation and parallelepiped points
# ---------------------------------------------------------------------------

def pulling_triangulation(rays):
    """Split a full-dimensional pointed cone into simplicial cones on subsets
    of its extreme rays, each with a bound on its |det|.

    ``rays`` maps each extreme ray to its facet values (the rows of
    :func:`extreme_ray_generators`).  Recursively joins the first ray to the
    triangulated facets that do not contain it; every face is the bitmask
    of its rays, and its facets are the maximal proper sets F & S_j, with
    S_j the rays on facet j (the zeros of column j).  Simplices keep the ray
    order.

    The bound is a product of lattice heights.  Let a face F have apex a,
    let G = F & H_j be a facet of F missing a, and let sigma be a simplex of
    G.  With volumes normalized to the lattice Z^n in the span of each face,
    the simplex on a and sigma has vol_F = (f_j.a / c) vol_G(sigma), where
    c >= 1 is the index of f_j(Z^n in lin F) in Z; so f_j.a bounds the
    factor for every such j, and a primitive ray has volume 1.  The bound
    is the product of the least such heights down the recursion, and a
    bound of 1 proves |det| = 1.
    """
    points = list(rays)
    values = list(rays.values())
    masks = [_zeros(column) for column in zip(*values)]
    top = (1 << len(points)) - 1
    return [
        (tuple(r for k, r in enumerate(points) if simplex >> k & 1), bound)
        for simplex, bound in _pull(top, len(points[0]), masks, values, {})
    ]


def _pull(face, dim, masks, values, done):
    """(simplex, bound) pairs, simplices as ray bitmasks, triangulating the
    face with ray bitmask ``face`` and dimension ``dim``; ``done`` keeps
    them per face."""
    if face in done:
        return done[face]
    if dim == 1:
        out = [(face, 1)]
    else:
        apex = face & -face
        # each proper face & S_j, with the least height of the apex over
        # the facets j that cut it out
        least = {}
        for s, h in zip(masks, values[apex.bit_length() - 1]):
            sub = face & s
            if sub != face:
                least[sub] = min(h, least.get(sub, h))
        if face.bit_count() == dim:  # a simplex: its one facet missing the apex
            subs = [face ^ apex]
        else:
            subs = [
                sub for sub in least
                if not sub & apex
                and not any(sub & o == sub and sub != o for o in least)
            ]
        out = [
            (apex | simplex, least[sub] * bound)
            for sub in subs
            for simplex, bound in _pull(sub, dim - 1, masks, values, done)
        ]
    done[face] = out
    return out


def parallelepiped_points(rays):
    """Lattice points of {sum c_i r_i : 0 <= c_i < 1} for n independent rays
    in Z^n, one per element of Z^n / (ray lattice): the origin alone when the
    determinant is +-1, else one per point of the box prod [0, h_i), h the
    positive diagonal of the triangular echelon basis of the ray lattice.
    :func:`hilbert_basis` moves a flat cone into its own lattice first, so no
    caller passes fewer rays than coordinates."""
    rays = [tuple(map(int, r)) for r in rays]
    n = len(rays[0])
    if len(rays) != n:
        raise PreconditionError("parallelepiped needs n independent rays in Z^n")
    cols = list(zip(*rays))  # matrix with ray columns
    det, adj = linalg.adjugate(cols)  # PreconditionError for dependent rays
    if abs(det) == 1:
        return [(0,) * n]
    # cols^-1 = adj / det; |det| * (fractional part of a coefficient) is the
    # integral coefficient mod |det|
    if det < 0:
        det, adj = -det, [[-x for x in row] for row in adj]
    diagonal = [b[i] for i, b in enumerate(linalg.integer_row_basis(rays))]
    pts = []
    for x in itertools.product(*[range(h) for h in diagonal]):
        lam = [vec_dot(row, x) % det for row in adj]
        pts.append(tuple(vec_dot(row, lam) // det for row in cols))
    return pts


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

def hilbert_basis(generators):
    """Minimal Hilbert basis of the pointed cone spanned by the generators,
    computed once per generator set (:func:`_generator_set`)."""
    gens = _generator_set(generators)
    return _hilbert_basis(gens) if gens else ()


@memo
def _hilbert_basis(gens):
    """Normaliz-style pipeline on a :func:`_generator_set`.

    A cone that spans less than R^n is first moved into coordinates of a
    basis of its span intersected with Z^n (an echelon basis, through
    :func:`hilbert_basis_in_lattice`), so everything below sees a
    full-dimensional cone: read the facets off the memoized facet
    description, build the facet-value table of the generators, read
    pointedness off its degrees (:func:`_pointed`) and the extreme rays off
    its zeros, triangulate them (pulling order, on ray bitmasks below the
    top cone), and collect the fundamental-parallelepiped lattice points of
    each simplicial piece.  A simplex whose height bound is 1 has |det| = 1
    and only the origin there, so it is skipped with no determinant.  If
    no facet value of an extreme ray exceeds 1 (a compressed cone;
    Sullivant, Tohoku Math. J. 58 (2006)), the triangulation is not built:
    each factor of a bound is an apex height f_j.a > 0, so every bound is 1
    and the Hilbert basis is the extreme rays.  The
    candidates, the extreme rays and those points, are then taken in
    increasing degree (the sum of the facet values, positive on the pointed
    cone).  The primitive vector of an extreme ray is irreducible, so the
    rays are kept with no test.  Every other candidate h is kept unless a
    kept element reduces it: a reducer g != h has h - g in the cone, so no
    facet value of g exceeds that of h.  If h is reducible, it is a sum of
    at least two basis elements, and as the degree is additive one of them
    has degree <= deg(h) // 2; so h is tested only against the kept elements
    of that degree, which come first in degree order.  A flat cone's lattice
    is the integer kernel of any basis of its null space (:func:`_span`).
    """
    kernel = _span(gens)[2]
    if kernel:
        basis = linalg.integer_kernel_basis(kernel, len(gens[0]))
        return hilbert_basis_in_lattice(gens, basis)
    _, facets = _facet_description(gens)
    table = facet_values(gens, facets)
    if not _pointed(table):
        raise NonPointedConeError("Hilbert basis requires a pointed cone")
    rays = extreme_ray_generators(table)
    if max(map(max, rays.values())) <= 1:  # compressed: every bound is 1
        return tuple(rays)
    candidates = dict(rays)
    for simplex, bound in pulling_triangulation(rays):
        if bound == 1:  # |det| = 1: the origin is the only point
            continue
        for pt in parallelepiped_points(simplex):
            if any(pt) and pt not in candidates:
                candidates[pt] = tuple(vec_dot(f, pt) for f in facets)
    # h - g lies in the cone iff no facet value of g exceeds that of h
    kept, values, degrees = [], [], []  # in increasing degree
    for h, hv in sorted(candidates.items(), key=lambda item: sum(item[1])):
        degree = sum(hv)
        if h not in rays and any(
            divides(gv, hv)
            for gv in itertools.islice(values, bisect_right(degrees, degree // 2))
        ):
            continue
        kept.append(h)
        values.append(hv)
        degrees.append(degree)
    return tuple(sorted(kept))


def hilbert_basis_in_lattice(generators, basis):
    """Minimal Hilbert basis of the monoid of points of cone(generators) in
    the lattice L spanned by the rows of ``basis``, which must hold every
    generator.

    The generators are written once in coordinates of the basis, where
    their cone is full-dimensional when the basis has their rank; the
    Hilbert basis found there is mapped back to Z^n.
    """
    coords = linalg.lattice_coordinates(generators, basis)
    if None in coords:
        raise InternalConsistencyError("a generator lies outside the lattice")
    columns = list(zip(*basis))
    return tuple(sorted(
        tuple(vec_dot(h, col) for col in columns) for h in hilbert_basis(coords)
    ))


# ---------------------------------------------------------------------------
# covering polyhedron and Rees cone of a monomial ideal
# ---------------------------------------------------------------------------

def rees_cone(ideal):
    """The generators of RC(I), the unit vectors and the lifted generators,
    as a sorted tuple: the key of its facet description and Hilbert basis."""
    s = ideal.s
    gens = []
    for i in range(s):
        e = [0] * (s + 1)
        e[i] = 1
        gens.append(tuple(e))
    for g in ideal.gens:
        gens.append(tuple(g) + (1,))
    return _generator_set(gens)


class ReesRepresentation:
    """Irreducible representation of the Rees cone of an ideal.

    ``gamma_d`` lists the facet normals (gamma_i, -d_i) with d_i >= 1, as
    (gamma tuple, d) pairs sorted with d = 1 first; ``r`` counts those with
    d = 1, ``p`` all of them.  The remaining facets have last coordinate
    >= 0 (the unit-vector-type supports).  ``generators`` is
    :func:`rees_cone`, the key of RC(I)'s memoized Hilbert basis.
    """

    def __init__(self, ideal):
        self.ideal = ideal
        self.generators = rees_cone(ideal)
        eqs, facets = _facet_description(self.generators)
        if eqs:
            raise InternalConsistencyError("Rees cone should be full-dimensional")
        self.facets = tuple(facets)
        gd = sorted(((f[:-1], -f[-1]) for f in facets if f[-1] < 0),
                    key=lambda t: (t[1], t[0]))
        self.gamma_d = tuple(gd)
        self.r = sum(1 for _, d in gd if d == 1)
        self.p = len(gd)

    @property
    def integral(self):
        return self.r == self.p

    def vertices(self):
        """Vertices of Q(I): gamma_i / d_i."""
        return sorted(
            tuple(Fraction(x, d) for x in gamma) for gamma, d in self.gamma_d
        )

    def newton_polyhedron_contains(self, point, level=1):
        """Is point/level in NP(I)?  Tested as (point, level) in RC(I)."""
        lifted = tuple(point) + (level,)
        return all(vec_dot(f, lifted) >= 0 for f in self.facets)

    def newton_rows(self, level=1):
        """level * NP(I) as the rows (w, c) of {a : w.a >= c}: one per facet
        f, (f[:-1], -level * f[-1]).  Every w is non-negative, as RC(I)
        holds each (e_i, 0)."""
        return [(f[:-1], -level * f[-1]) for f in self.facets]


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def _count_box_sum(n, width, total):
    """Count integer x in [0, width]^n with sum(x) = total, by inclusion-
    exclusion over the j coordinates forced above width."""
    return sum(
        (-1) ** j * comb(n, j) * comb(total - j * (width + 1) + n - 1, n - 1)
        for j in range(n + 1)
        if total >= j * (width + 1)
    )


def lattice_points_system(eqs, ineqs, lo, hi, budget=DEFAULT_POINT_BUDGET):
    """The number of integer points in a box satisfying exact linear
    constraints.

    ``eqs``/``ineqs`` are (integer coefficient tuple, integer rhs) pairs for
    coeff.x = rhs resp. coeff.x >= rhs.  A recursion over coordinates counts
    with interval pruning: a prefix is dropped as soon as some constraint
    cannot be met by any completion in the box.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    # each constraint with its suffix extremes per depth
    cons = []
    for is_eq, system in ((True, eqs), (False, ineqs)):
        for coeffs, rhs in system:
            mins = [0] * (n + 1)
            maxs = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                c = coeffs[i]
                mins[i] = mins[i + 1] + min(c * lo[i], c * hi[i])
                maxs[i] = maxs[i + 1] + max(c * lo[i], c * hi[i])
            cons.append((coeffs, rhs, is_eq, mins, maxs))
    tally = [0, 0]
    _lattice_walk(cons, lo, hi, budget, tally, [0] * len(cons), 0)
    return tally[1]


def _lattice_walk(cons, lo, hi, budget, tally, partials, depth):
    """Visit the box points whose first ``depth`` coordinates give the values
    ``partials`` of ``cons`` and that can still meet them; ``tally`` holds
    the visits and the points found."""
    tally[0] += 1
    if tally[0] > budget:
        raise BudgetExceededError(
            "lattice point enumeration exceeded budget",
            needed=budget + 1,
            budget=budget,
            stage="lattice_points_system",
        )
    for p, (_, rhs, is_eq, mins, maxs) in zip(partials, cons):
        if p + maxs[depth] < rhs or (is_eq and p + mins[depth] > rhs):
            return
    if depth == len(lo):
        tally[1] += 1
        return
    for v in range(lo[depth], hi[depth] + 1):
        nxt = [p + con[0][depth] * v for p, con in zip(partials, cons)]
        _lattice_walk(cons, lo, hi, budget, tally, nxt, depth + 1)


def _special_count(verts, dilation):
    """Closed-form dilation counts for hypersimplices and dilated simplices.

    Returns None when the vertex set has neither shape; exactness of both
    formulas is covered by agreement tests against the generic enumerator.
    """
    vs = set(verts)
    n = len(next(iter(vs)))
    sums = {sum(v) for v in vs}
    if len(sums) != 1:
        return None
    k = sums.pop()
    if k <= 0:
        return None
    if all(set(v) <= {0, 1} for v in vs) and len(vs) == comb(n, k):
        # every 0/1 vector of weight k: the hypersimplex; dilated points are
        # exactly {0 <= x_i <= dilation, sum x = dilation*k}
        return _count_box_sum(n, dilation, dilation * k)
    simplex = {tuple(k if i == j else 0 for i in range(n)) for j in range(n)}
    if vs == simplex:
        return comb(dilation * k + n - 1, n - 1)
    return None


def lattice_points(polytope_vertices, dilation=1, budget=DEFAULT_POINT_BUDGET):
    """The number of lattice points of ``dilation * conv(vertices)``, for a
    dilation >= 0."""
    verts = [tuple(v) for v in polytope_vertices]
    if not verts:
        raise PreconditionError("a polytope needs at least one vertex")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise PreconditionError("vertices of different lengths")
    if any(Fraction(x).denominator != 1 for v in verts for x in v):
        raise PreconditionError("lattice polytope expected")
    verts = [tuple(int(x) for x in v) for v in verts]
    k = dilation
    if k < 0:
        raise PreconditionError("dilation must be non-negative")
    if k == 0:
        return 1
    special = _special_count(verts, k)
    if special is not None:
        return special
    eqs_h, facets_h = _facet_description(_generator_set(v + (1,) for v in verts))
    # A primitive row on one variable is +-e_i at k*min or k*max of the
    # vertices' coordinate i, a bound the box already has: drop it.
    eqs = [(e[:-1], -e[-1] * k) for e in eqs_h if sum(map(bool, e[:-1])) != 1]
    ineqs = [(f[:-1], -f[-1] * k) for f in facets_h if sum(map(bool, f[:-1])) != 1]
    lo = [k * min(v[i] for v in verts) for i in range(n)]
    hi = [k * max(v[i] for v in verts) for i in range(n)]
    return lattice_points_system(eqs, ineqs, lo, hi, budget=budget)


# ---------------------------------------------------------------------------
# Ehrhart interpolation
# ---------------------------------------------------------------------------

class EhrhartData:
    """Counts, interpolated polynomial and h-vector of a lattice polytope."""

    __slots__ = ("vertices", "dim", "counts", "coefficients", "h_vector")

    def __init__(self, vertices, dim, counts, coefficients, h_vector):
        self.vertices = vertices
        self.dim = dim
        self.counts = counts
        self.coefficients = coefficients  # low degree first
        self.h_vector = h_vector

    def evaluate(self, n):
        return sum(c * n**i for i, c in enumerate(self.coefficients))

    @property
    def leading_coefficient(self):
        return self.coefficients[-1]

    @property
    def relative_volume(self):
        return self.leading_coefficient

    @property
    def normalized_volume(self):
        return sum(self.h_vector)

    @property
    def h_degree(self):
        nz = [j for j, h in enumerate(self.h_vector) if h != 0]
        return max(nz)


def ehrhart_polynomial(polytope_vertices, budget=DEFAULT_POINT_BUDGET):
    """Interpolate the Ehrhart polynomial from d+1 exact dilation counts.

    Also computes the h-vector by the (1-x)^{d+1} transform and verifies
    the interpolation against a direct count at dilation d+1, plus Stanley
    non-negativity of the h-vector.
    """
    if any(
        Fraction(x).denominator != 1 for v in polytope_vertices for x in v
    ):
        raise PreconditionError("Ehrhart interpolation needs a lattice polytope")
    verts = [tuple(int(x) for x in v) for v in polytope_vertices]
    base = verts[0]
    diffs = [tuple(x - y for x, y in zip(v, base)) for v in verts[1:]]
    d = linalg.rank(diffs) if diffs else 0
    counts = [
        lattice_points(verts, dilation=nn, budget=budget)
        for nn in range(d + 1)
    ]
    # exact Vandermonde solve
    rows = [[Fraction(nn**j) for j in range(d + 1)] for nn in range(d + 1)]
    coeffs = linalg.solve(rows, [Fraction(c) for c in counts])
    check = lattice_points(verts, dilation=d + 1, budget=budget)
    predicted = sum(c * (d + 1) ** i for i, c in enumerate(coeffs))
    if predicted != check:
        raise InternalConsistencyError(
            f"Ehrhart interpolation failed self-check: {predicted} != {check}"
        )
    h = []
    for j in range(d + 1):
        hj = sum((-1) ** (j - i) * comb(d + 1, j - i) * counts[i]
                 for i in range(j + 1))
        h.append(int(hj))
    if any(x < 0 for x in h):
        raise InternalConsistencyError(f"negative h-vector entry: {h}")
    return EhrhartData(tuple(verts), d, tuple(counts), tuple(coeffs), tuple(h))


def polytope_volume(points):
    """Ambient-dimension volume of conv(points), by pulling triangulation of
    the cone over it; a simplex whose height bound is 1 adds 1, with no
    determinant."""
    pts = [tuple(int(x) for x in p) for p in points]
    n = len(pts[0])
    lifted = [p + (1,) for p in pts]
    description = _facet_description(_generator_set(lifted))
    if description[0]:  # an equation: conv(points) is lower-dimensional
        return Fraction(0)
    # (v, 1) is primitive
    rays = extreme_ray_generators(facet_values(lifted, description[1]))
    total = Fraction(0)
    for simplex, bound in pulling_triangulation(rays):
        total += 1 if bound == 1 else abs(linalg.det(list(simplex)))
    return total / factorial(n)


# ---------------------------------------------------------------------------
# Smith invariants
# ---------------------------------------------------------------------------

def smith_invariant(matrix, r=None):
    """Delta_r: gcd of the non-zero r x r minors, the product of the first r
    invariant factors (:func:`linalg.invariant_factors`, from alternating
    echelon bases).

    Returns (delta_r, rank).  With r omitted, uses r = rank.
    """
    rows = [tuple(map(int, row)) for row in matrix]
    if not rows or not any(any(row) for row in rows):
        raise PreconditionError("smith_invariant requires a non-zero matrix")
    factors = [f for f in linalg.invariant_factors(rows) if f]
    rk = len(factors)
    if r is None:
        r = rk
    if r < 1 or r > rk:
        raise PreconditionError(f"r={r} out of range for rank {rk}")
    return prod(factors[:r]), rk
