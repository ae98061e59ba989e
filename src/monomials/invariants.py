"""Multiplicities, normalization Hilbert functions, subring regularity,
m-fullness in two variables, and the monomial Cremona determinant test.

The multiplicity of a zero-dimensional monomial ideal is s! times the
volume of the staircase region between the corner simplex and the lower
Newton boundary; both the triangulation volume and the Ehrhart leading
coefficient compute it, and they are compared by default.
"""

import itertools
from fractions import Fraction
from math import ceil, factorial

from monomials import closure as closure_mod
from monomials import polyhedra
from monomials.core import MonomialIdeal, divides, require_box, staircase_count
from monomials.errors import (
    InternalConsistencyError,
    PreconditionError,
)
from monomials.linalg import det, rank as mat_rank, vec_dot


class MultiplicityRegion:
    """Corner simplex, lower Newton polytope, and their exact volumes."""

    __slots__ = ("ideal", "pure_degrees", "p0_vertices", "delta_vertices",
                 "vol_delta", "vol_p0")

    def __init__(self, ideal):
        s = ideal.s
        pure = {}
        for g in ideal.gens:
            support = [i for i, x in enumerate(g) if x]
            if len(support) == 1:
                pure[support[0]] = g[support[0]]
        if len(pure) != s:
            raise PreconditionError(
                "multiplicity requires a pure power of every variable"
            )
        self.ideal = ideal
        self.pure_degrees = tuple(pure[i] for i in range(s))
        alpha0 = [Fraction(1, a) for a in self.pure_degrees]
        p0 = []
        for i in range(s):
            v = [0] * s
            v[i] = self.pure_degrees[i]
            p0.append(tuple(v))
        for g in ideal.gens:
            support = [i for i, x in enumerate(g) if x]
            if len(support) == 1:
                continue
            if vec_dot(alpha0, g) < 1:
                p0.append(tuple(g))
        self.p0_vertices = tuple(sorted(p0))
        origin = tuple(0 for _ in range(s))
        self.delta_vertices = (origin,) + tuple(
            p0[i] for i in range(s)
        )
        self.vol_delta = Fraction(1, factorial(s))
        for a in self.pure_degrees:
            self.vol_delta *= a
        self.vol_p0 = polyhedra.polytope_volume(self.p0_vertices)

    @property
    def vol_region(self):
        return self.vol_delta - self.vol_p0


def multiplicity(ideal, verify=True, budget=polyhedra.DEFAULT_POINT_BUDGET):
    """e(I) = s! vol(Delta \\ P0) = prod a_i - s! vol(P0), exactly.

    With ``verify``, the volume of P0 is cross-checked against the leading
    coefficient of its Ehrhart polynomial, whose lattice-point counts may
    visit at most ``budget`` points each.
    """
    region = MultiplicityRegion(ideal)
    s = ideal.s
    value = factorial(s) * region.vol_region
    if value.denominator != 1 or value <= 0:
        raise InternalConsistencyError(f"multiplicity came out as {value}")
    if verify:
        ehr = polyhedra.ehrhart_polynomial(region.p0_vertices, budget=budget)
        lead = ehr.relative_volume if ehr.dim == s else Fraction(0)
        if lead != region.vol_p0:
            raise InternalConsistencyError(
                f"triangulation volume {region.vol_p0} != Ehrhart {lead}"
            )
    return int(value)


def normalization_hilbert_function(ideal, n, verify=True,
                                   budget=polyhedra.DEFAULT_POINT_BUDGET):
    """Length of S/closure(I^n): lattice points outside n * NP(I).

    Summed plane by plane under the staircase of the box prod [0, n a_i],
    which may hold at most ``budget`` points; with ``verify`` compared to the
    Ehrhart difference E_Delta(n) - E_P0(n).
    """
    if n < 0:
        raise PreconditionError("dilation must be non-negative")
    if n == 0:
        return 0
    region = MultiplicityRegion(ideal)
    rep = closure_mod.rees_representation(ideal)
    bounds = [n * a for a in region.pure_degrees]
    require_box(bounds, budget, "normalization_hilbert_function", "staircase")
    count = staircase_count(bounds, rep.newton_rows(n))
    if verify:
        e_delta = polyhedra.lattice_points(region.delta_vertices, n, budget=budget)
        e_p0 = polyhedra.lattice_points(region.p0_vertices, n, budget=budget)
        if count != e_delta - e_p0:
            raise InternalConsistencyError(
                f"staircase count {count} != Ehrhart difference {e_delta - e_p0}"
            )
    return count


# ---------------------------------------------------------------------------
# Veronese subrings
# ---------------------------------------------------------------------------

def veronese_invariants(s, k):
    """a-invariant and regularity of S_{s,k} and of S^(k).

    Returns a dict with the squarefree Veronese values (via the duality
    S_{s,k} ~ S_{s,s-k} when s < 2k) and the full Veronese values.
    """
    if not 1 <= k <= s - 1:
        raise PreconditionError("need 1 <= k <= s-1")
    if s >= 2 * k:
        a_sq = -ceil(Fraction(s, k))
    else:
        a_sq = -ceil(Fraction(s, s - k))
    a_full = -ceil(Fraction(s, k))
    return {
        "a_squarefree": int(a_sq),
        "reg_squarefree": int(s + a_sq),
        "a_veronese": int(a_full),
        "reg_veronese": int(s + a_full),
    }


def hypersimplex_vertices(s, k):
    out = set()
    for idx in itertools.combinations(range(s), k):
        v = [0] * s
        for i in idx:
            v[i] = 1
        out.add(tuple(v))
    return sorted(out)


def veronese_invariants_via_ehrhart(s, k, full=False):
    """(a, reg) of the (squarefree) Veronese from an Ehrhart h-vector."""
    if full:
        verts = [
            tuple(k if i == j else 0 for i in range(s)) for j in range(s)
        ]
    else:
        verts = hypersimplex_vertices(s, k)
    data = polyhedra.ehrhart_polynomial(verts)
    reg = data.h_degree
    dim = data.dim + 1
    return reg - dim, reg


def veronese_canonical_generators(s, k, degree_cap):
    """Exponent vectors generating the canonical module of S_{s,k}.

    Conditions: a_i >= 1 with (k-1) a_i <= -1 + sum of the others, total
    degree divisible by k, and at most k-1 entries >= 2.  Enumerated up to
    the total-degree cap.
    """
    if not (s >= 2 * k >= 4):
        raise PreconditionError("canonical generator description needs s >= 2k >= 4")
    out = []
    for total in range(s, degree_cap + 1):
        if total % k:
            continue
        # the compositions of total into s positive parts
        for cuts in itertools.combinations(range(1, total), s - 1):
            a = tuple(y - x for x, y in zip((0,) + cuts, cuts + (total,)))
            if sum(1 for x in a if x >= 2) <= k - 1 and all(
                (k - 1) * x <= total - 1 - x for x in a
            ):
                out.append(a)
    return sorted(out)


# ---------------------------------------------------------------------------
# subring regularity via Ehrhart h-vectors
# ---------------------------------------------------------------------------

class SubringRegularityReport:
    __slots__ = ("ideal", "h_vector", "regularity", "a_invariant", "dimension")

    def __init__(self, ideal, h_vector, regularity, a_invariant, dimension):
        self.ideal = ideal
        self.h_vector = h_vector
        self.regularity = regularity
        self.a_invariant = a_invariant
        self.dimension = dimension

    def __repr__(self):
        return (
            f"SubringRegularityReport(reg={self.regularity}, "
            f"a={self.a_invariant}, dim={self.dimension})"
        )


def subring_regularity(ideal, budget=polyhedra.DEFAULT_POINT_BUDGET):
    """reg K[I] for a normal uniform monomial ideal, via its Newton polytope.

    The generalized descent theorem identifies K[Iz] with the Ehrhart ring
    of the Newton polytope, so the regularity is the h-polynomial degree and
    the a-invariant is reg - rank(A).  Non-normal or non-uniform input is
    refused: the identification needs both hypotheses, so both are always
    checked, normality by the Hilbert basis of the Rees cone.
    """
    if not ideal.is_uniform():
        raise PreconditionError("subring regularity needs a uniform ideal")
    if not closure_mod.is_normal(ideal, method="hilbert"):
        raise PreconditionError("subring regularity needs a normal ideal")
    data = polyhedra.ehrhart_polynomial(list(ideal.gens), budget=budget)
    reg = data.h_degree
    dim = mat_rank([list(g) for g in ideal.gens])
    return SubringRegularityReport(
        ideal, data.h_vector, reg, reg - dim, dim
    )


def regularity_monotonicity_check(ideal_small, ideal_big,
                                  budget=polyhedra.DEFAULT_POINT_BUDGET):
    """reg K[I] <= reg K[J] for nested normal uniform ideals of one degree.

    Verifies all hypotheses, computes both regularities, and raises an
    internal-consistency error on any violation (it would contradict the
    monotonicity theorem).
    """
    if ideal_small.s != ideal_big.s:
        raise PreconditionError("ambient mismatch")
    if not set(ideal_small.gens) <= set(ideal_big.gens):
        raise PreconditionError("generators are not nested")
    if ideal_small.generator_degree() != ideal_big.generator_degree():
        raise PreconditionError("ideals must share the generator degree")
    small = subring_regularity(ideal_small, budget=budget)
    big = subring_regularity(ideal_big, budget=budget)
    if small.regularity > big.regularity:
        raise InternalConsistencyError(
            f"monotonicity breached: {small.regularity} > {big.regularity}"
        )
    return True


# ---------------------------------------------------------------------------
# m-fullness in two variables
# ---------------------------------------------------------------------------

def _staircase(ideal):
    """Generators of a zero-dimensional ideal in k[t1,t2], staircase order.

    Returns (a, b) with a_1 > ... > a_n = 0 and b_1 > ... > b_n = 0, where
    generator i is t1^{a_i} t2^{b_{n-i+1}}.
    """
    if ideal.s != 2:
        raise PreconditionError("two variables expected")
    gens = sorted(ideal.gens, key=lambda g: (-g[0], g[1]))
    n = len(gens)
    if gens[0][1] != 0 or gens[-1][0] != 0:
        raise PreconditionError("zero-dimensional ideal expected")
    a = [g[0] for g in gens]
    b = [gens[n - 1 - i][1] for i in range(n)]
    return a, b


def is_m_full_2var(ideal):
    """Unit-gap staircase criterion for m-fullness in two variables.

    True iff some cut index k has unit gaps in the b-column below it, a
    jump of at least 2 at it (or k = n), and unit gaps in the a-column from
    it on.  The ideal must differ from the power m^(n-1), the excluded case
    of the criterion.
    """
    a, b = _staircase(ideal)
    n = len(a)
    mpow = MonomialIdeal(
        2, [(n - 1 - i, i) for i in range(n)]
    )
    if ideal == mpow:
        raise PreconditionError(
            "the criterion excludes the maximal-ideal power itself"
        )
    for k in range(1, n + 1):
        if any(b[n - i - 1] - b[n - i] != 1 for i in range(1, k)):
            continue
        if k < n and b[n - k - 1] - b[n - k] < 2:
            continue
        if any(a[i - 1] - a[i] != 1 for i in range(k, n)):
            continue
        return True
    return False


def mu_maximality_sweep(ideal):
    """Necessary condition for m-fullness: no one-monomial enlargement of I
    inside the staircase bounding box has more minimal generators.

    For m outside I the enlargement is generated by m and the generators m
    does not divide, so it has more generators exactly when m divides none.
    """
    box = itertools.product(*[range(b + 1) for b in ideal.max_exponents()])
    return all(
        ideal.contains_monomial(m) or any(divides(m, g) for g in ideal.gens)
        for m in box
    )


# ---------------------------------------------------------------------------
# Cremona monomial maps
# ---------------------------------------------------------------------------

def is_cremona_monomial(monomials):
    """Does the uniform tuple of s monomials in s variables define a
    Cremona map?  Exactly when |det A| equals the common degree, which is
    read off the monomials."""
    gens = [tuple(int(x) for x in g) for g in monomials]
    s = len(gens)
    if any(len(g) != s for g in gens):
        raise PreconditionError("need s monomials in s variables")
    degs = {sum(g) for g in gens}
    if len(degs) != 1:
        raise PreconditionError("monomials must have a common degree")
    d = degs.pop()
    for i in range(s):
        if all(g[i] == 0 for g in gens):
            raise PreconditionError("every variable must appear")
        if all(g[i] > 0 for g in gens):
            raise PreconditionError("monomials must have no common factor")
    a = [[g[i] for g in gens] for i in range(s)]
    d_a = det(a)
    if d_a == 0:
        raise PreconditionError("incidence matrix is singular")
    return abs(d_a) == d
