"""Symbolic powers, Simis/MFMC tests, ic-resurgence and containment.

For a squarefree monomial ideal the n-th symbolic power is cut out by the
minimal vertex covers: t^a lies in I^(n) exactly when every cover collects
total degree at least n from a.  That is the linear system {m.a >= n} over
the cover indicator vectors m, whose minimal points
:func:`monomials.core.staircase` reads off over [0, n]^s, a plane of
column thresholds at a time in closed form.  That makes symbolic powers,
containments and the Schenzel function finite computations.
"""

import itertools
from fractions import Fraction
from math import ceil

from monomials import closure as closure_mod
from monomials import polyhedra
from monomials.core import MonomialIdeal, ideal_power, memo, require_box, staircase
from monomials.errors import InternalConsistencyError, PreconditionError
from monomials.linalg import vec_dot


@memo
def _covers(ideal):
    if not ideal.is_squarefree():
        raise PreconditionError("symbolic machinery requires a squarefree ideal")
    return tuple(ideal.minimal_primes())


def _masks(s, covers):
    return [tuple(int(i in c) for i in range(s)) for c in covers]


@memo
def _symbolic_staircase(ideal, n):
    rows = [(m, n) for m in _masks(ideal.s, _covers(ideal))]
    return MonomialIdeal._from_minimal(ideal.s, staircase((n,) * ideal.s, rows))


def symbolic_power(ideal, n, verify=False, budget=closure_mod.DEFAULT_BOX_BUDGET):
    """Minimal generators of I^(n), via the covering polyhedron of the dual.

    Candidates live in [0, n]^s (larger entries can be reduced).  The
    staircase of the cover system {m.a >= n} reads off each column's least
    last coordinate in closed form, a plane at a time, and a point is a
    generator when its value lies below all lower neighbours'.  The box
    budget is checked on every call, before the staircase memo is consulted.  With
    ``verify`` the result is recomputed by intersecting cover-prime powers.
    """
    if n < 1:
        raise PreconditionError("symbolic power needs n >= 1")
    _covers(ideal)  # squarefree guard
    require_box((n,) * ideal.s, budget, "symbolic_power", "symbolic power")
    result = _symbolic_staircase(ideal, n)
    if verify:
        check = symbolic_power_via_primes(ideal, n)
        if check != result:
            raise InternalConsistencyError(
                f"symbolic power routes disagree for n={n}"
            )
    return result


def symbolic_power_via_primes(ideal, n):
    """I^(n) as the intersection of the n-th powers of the minimal primes."""
    result = None
    for cover in _covers(ideal):
        prime = MonomialIdeal(ideal.s, _masks(ideal.s, [(v,) for v in cover]))
        prime_power = ideal_power(prime, n)
        result = prime_power if result is None else result.intersect(prime_power)
    return result


def is_simis(ideal):
    """I^n = I^(n) for all n, equivalently the max-flow min-cut property:
    normal Rees algebra plus integral Q(I)."""
    _covers(ideal)  # squarefree guard
    rep = closure_mod.rees_representation(ideal)
    if not rep.integral:
        return False
    return bool(closure_mod.is_normal(ideal, method="hilbert"))


def mfmc_spot_check(ideal, max_entry=3):
    """Directly verify integral optima of the LP-duality equation.

    For every non-negative alpha with entries <= max_entry, the LP optimum
    min <alpha, u> over the vertices u of Q(I), which by LP duality is the
    packing program's maximum, must be attained both by a cover (the
    covering minimum) and by an integer packing.  Weak duality, packing <=
    LP <= covering, is asserted at every alpha.  Exponential in s;
    evidence only, the equivalence test is is_simis.
    """
    gens = ideal.gens
    covers = _covers(ideal)
    vertices = closure_mod.rees_representation(ideal).vertices()
    for alpha in itertools.product(range(max_entry + 1), repeat=ideal.s):
        lp_value = min(vec_dot(alpha, u) for u in vertices)
        best_cover = min(sum(alpha[i] for i in c) for c in covers)
        best_packing = _integer_packing(gens, 0, alpha, 0, 0)
        if not best_packing <= lp_value <= best_cover:
            raise InternalConsistencyError(
                f"weak duality fails at alpha={alpha}: packing {best_packing}, "
                f"LP {lp_value}, covering {best_cover}"
            )
        if best_packing != best_cover:
            return False
    return True


def _integer_packing(gens, j, remaining, size, best):
    """max |y| over natural y with sum y_j v_j <= alpha componentwise, by
    branch and bound on y_j, y_{j+1}, ... with ``remaining`` left of alpha."""
    if size + _packing_bound(gens, j, remaining) <= best or j == len(gens):
        return max(size, best)
    g = gens[j]
    cap = min((r // x for r, x in zip(remaining, g) if x), default=0)
    for use in range(cap, -1, -1):
        nxt = tuple(r - use * x for r, x in zip(remaining, g))
        best = _integer_packing(gens, j + 1, nxt, size + use, best)
    return best


def _packing_bound(gens, j, remaining):
    left = sum(remaining)
    degs = [sum(g) for g in gens[j:]]
    if not degs:
        return 0
    return left // min(degs)


def symbolic_rees_generators(ideal):
    """Hilbert basis of the Simis cone: the symbolic Rees algebra generators.

    The Simis cone sits in R^{s+1}, cut out by non-negativity and by
    (u, -1) over the integral vertices u of Q(I) (the covers).  Every basis
    element (a, n) with n >= 1 is certified to satisfy a/n in Q(I^vee).
    """
    covers = _covers(ideal)
    s = ideal.s
    masks = _masks(s, covers)
    rows = [tuple(int(i == j) for j in range(s + 1)) for i in range(s + 1)]
    rows += [mask + (-1,) for mask in masks]
    rays = polyhedra.extreme_rays_of_inequalities(rows)
    basis = polyhedra.hilbert_basis(rays)
    for h in basis:
        a, n = h[:-1], h[-1]
        if n >= 1 and not all(vec_dot(m, a) >= n for m in masks):
            raise InternalConsistencyError(f"Simis cone element fails membership: {h}")
    return tuple((h[:-1], h[-1]) for h in basis)


class ResurgenceReport:
    """Exact ic-resurgence with the minimizing vertex pair as certificate."""

    __slots__ = ("rho", "pair", "ceiling", "q_integral", "q_dual_integral")

    def __init__(self, rho, pair, q_integral, q_dual_integral):
        self.rho = rho
        self.pair = pair
        self.ceiling = ceil(rho)
        self.q_integral = q_integral
        self.q_dual_integral = q_dual_integral

    def __repr__(self):
        return f"ResurgenceReport(rho={self.rho}, pair={self.pair})"


def ic_resurgence(ideal):
    """rho_ic(I) by the vertex-pairing duality: 1/rho = min <u, v>.

    u runs over the vertices of Q(I), v over those of Q(I^vee).  The report
    records the minimizing pair and the integrality of both polyhedra.
    Consistency guards: rho >= 1, equality iff Q(I) integral, and the
    big-height bound rho <= bight - 1/s on both sides.
    """
    from monomials.core import alexander_dual

    covers = _covers(ideal)
    if ideal.has_zero_row():
        raise PreconditionError("every variable must appear in some generator")
    dual = alexander_dual(ideal)
    rep = closure_mod.rees_representation(ideal)
    rep_dual = closure_mod.rees_representation(dual)
    best = None
    pair = None
    for u in rep.vertices():
        for v in rep_dual.vertices():
            val = vec_dot(u, v)
            if best is None or val < best:
                best = val
                pair = (u, v)
    rho = Fraction(1) / best
    if rho < 1:
        raise InternalConsistencyError(f"ic-resurgence below 1: {rho}")
    if (rho == 1) != rep.integral:
        raise InternalConsistencyError(
            "rho_ic = 1 must coincide with integrality of Q(I)"
        )
    h = ideal.big_height()
    h_dual = dual.big_height()
    if h >= 2 and h_dual >= 2:
        bound = min(
            Fraction(h) - Fraction(1, ideal.s),
            Fraction(h_dual) - Fraction(1, ideal.s),
        )
        if rho > bound:
            raise InternalConsistencyError(
                f"ic-resurgence {rho} above the big-height bound {bound}"
            )
    return ResurgenceReport(rho, pair, rep.integral, rep_dual.integral)


def containment_function(ideal, r, budget=closure_mod.DEFAULT_BOX_BUDGET):
    """Schenzel function f(r): least n with I^(n) inside I^r.

    Ascending search from n = r; bounded by r * bight by the uniform
    containment theorem.
    """
    if r < 1:
        raise PreconditionError("containment function needs r >= 1")
    power = ideal_power(ideal, r)
    bound = r * ideal.big_height()
    for n in range(r, bound + 1):
        if power.contains_ideal(symbolic_power(ideal, n, budget=budget)):
            return n
    raise InternalConsistencyError(
        f"no containment up to the uniform bound {bound}"
    )


def resurgence_one_test(ideal, budget=closure_mod.DEFAULT_BOX_BUDGET):
    """rho(I) = 1 iff Q(I) integral and I^(r+1) in I^r for r = 1..s-1."""
    rep = closure_mod.rees_representation(ideal)
    if not rep.integral:
        return False
    for r in range(1, ideal.s):
        symbolic = symbolic_power(ideal, r + 1, budget=budget)
        if not ideal_power(ideal, r).contains_ideal(symbolic):
            return False
    return True


def uniform_containment_ceiling(ideal, spot_powers=4,
                                budget=closure_mod.DEFAULT_BOX_BUDGET):
    """ceil(rho_ic): least h with I^(hn) inside closure(I^n) for all n.

    Returns the ceiling from the exact resurgence and spot-verifies the
    containment for n <= spot_powers via the Rees-cone facets.
    """
    rho = ic_resurgence(ideal).rho
    h = ceil(rho)
    rep = closure_mod.rees_representation(ideal)
    for n in range(1, spot_powers + 1):
        sym = symbolic_power(ideal, h * n, budget=budget)
        for g in sym.gens:
            if not rep.newton_polyhedron_contains(g, n):
                raise InternalConsistencyError(
                    f"I^({h}*{n}) escapes the closure of I^{n} at {g}"
                )
    return h
