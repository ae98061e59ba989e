"""Integral closures of powers of monomial ideals.

Membership in the closure of I^n is the linear condition that the lifted
exponent vector lies in the Rees cone: f[:-1].a >= -n f[-1] for every facet
f, with f[:-1] >= 0 as the cone holds each e_i.  So after computing the
Rees cone facets once per ideal, a closure's minimal generators are read
off that system by :func:`monomials.core.staircase` over a candidate box,
a plane of column thresholds at a time in closed form.  The LP membership
test is kept alongside for its rational witnesses: the packing program
max{|y| : A y <= a, y >= 0} has a feasible origin, so :mod:`monomials.lp`
starts it from the slack basis with no first phase.  Where its optimum is
not unique, the witness is one optimal y, the one Bland's rule reaches.

Normality by powers and the normalization index read the gaps, the first
generator of closure(I^n) outside I*closure(I^(n-1)), and never build I^n.
As closure(I^n) contains I*closure(I^(n-1)) and its generators are minimal,
a generator lies in that product exactly when it is a sum h + q of a
generator h of I and a generator q of closure(I^(n-1)): a gap is a generator
missing from the set of those sums.
"""

from operator import add

from monomials import lp, polyhedra
from monomials.core import (
    MonomialIdeal,
    ideal_power,
    memo,
    require_box,
    staircase,
)
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    PreconditionError,
)
DEFAULT_BOX_BUDGET = 2_000_000


@memo
def rees_representation(ideal):
    """Irreducible representation of RC(I), one per ideal: its facets, and
    its ``generators``, the key of RC(I)'s memoized Hilbert basis."""
    return polyhedra.ReesRepresentation(ideal)


def membership(a, ideal, n=1, witness=True, verify=False):
    """Is t^a in the closure of I^n?  LP route with rational witness.

    The optimum of max{|y| : A y <= a, y >= 0} is compared against n; the
    optimal y is the witness.  With ``verify`` the answer is checked against
    the Rees-cone facet test.
    """
    a = tuple(a)
    if len(a) != ideal.s:
        raise PreconditionError("exponent length mismatch")
    if any(x < 0 for x in a):
        raise PreconditionError(f"negative exponent in {a}")
    if n < 1:
        raise PreconditionError("power must be >= 1")
    result = lp.exact_lp([1] * len(ideal.gens), a_ub=ideal.incidence_matrix(), b_ub=a)
    if result.status != lp.OPTIMAL:
        raise InternalConsistencyError(f"membership LP at {a} is {result.status}")
    answer = result.value >= n
    if verify:
        facet_answer = rees_representation(ideal).newton_polyhedron_contains(a, n)
        if facet_answer != answer:
            raise InternalConsistencyError(
                f"LP and facet membership disagree at {a}, n={n}"
            )
    if witness:
        return answer, (result.x if answer else None)
    return answer


def closure_of_power(ideal, n, budget=DEFAULT_BOX_BUDGET):
    """Minimal generators of the integral closure of I^n.

    Candidates live in the box prod [0, n*max_i v_i[j]]; anything outside
    has a slack coordinate and cannot be a minimal generator.  The
    staircase of the facet system {f[:-1].a >= -n f[-1]} reads off each
    column's least last coordinate in closed form, a plane at a time, and a
    point is a generator when its value lies below all lower neighbours'.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    rep = rees_representation(ideal)
    bounds = tuple(n * m for m in ideal.max_exponents())
    require_box(bounds, budget, "closure_of_power", "closure candidate")
    kept = staircase(bounds, rep.newton_rows(n))
    if not kept:
        raise InternalConsistencyError("closure of a proper power came out empty")
    return MonomialIdeal._from_minimal(ideal.s, kept)


def _closures(ideal, top, budget):
    """closure(I^n) for n = 1..top, each computed once, in increasing n."""
    return {n: closure_of_power(ideal, n, budget=budget) for n in range(1, top + 1)}


def _gaps(ideal, closures):
    """{n: first generator of closures[n] outside I*closures[n-1]} for the n
    that have one, closure(I^0) being S.  Each sum h + q of a generator h of
    I and a generator q of closure(I^(n-1)) lies in closure(I^n), whose
    generators are minimal: such a sum divides a generator g only by
    equalling it, so g is in I*closure(I^(n-1)) iff g is one of the sums.
    As I*closure(I^(n-1)) lies inside closure(I^n), no gap at n means the
    two are equal."""
    gaps = {}
    for n, closed in closures.items():
        lower = closures.get(n - 1)
        lower_gens = ((0,) * ideal.s,) if lower is None else lower.gens
        sums = {tuple(map(add, h, q)) for h in ideal.gens for q in lower_gens}
        gap = next((g for g in closed.gens if g not in sums), None)
        if gap is not None:
            gaps[n] = gap
    return gaps


class NormalityReport:
    """Verdict of the normality test with the method(s) that produced it.

    ``witness_power``/``witness_monomial`` identify the smallest failing
    power and a monomial in the closure gap when the ideal is not normal.
    """

    __slots__ = ("normal", "methods", "witness_power", "witness_monomial")

    def __init__(self, normal, methods, witness_power=None, witness_monomial=None):
        self.normal = normal
        self.methods = methods
        self.witness_power = witness_power
        self.witness_monomial = witness_monomial

    def __bool__(self):
        return self.normal

    def __repr__(self):
        tag = "normal" if self.normal else (
            f"not normal (n={self.witness_power}, witness={self.witness_monomial})"
        )
        return f"NormalityReport({tag}, methods={self.methods})"


def _normal_by_hilbert(ideal):
    generators = rees_representation(ideal).generators
    gens = set(generators)
    extra = [h for h in polyhedra.hilbert_basis(generators) if h not in gens]
    if not extra:
        return True, None, None
    extra.sort(key=lambda h: (h[-1], h))
    worst = extra[0]
    return False, worst[-1], worst[:-1]


def _normal_by_powers(ideal, gaps):
    """Below the first gap every closure is the power, so a gap at n < s is
    a generator of closure(I^n) outside I^n; I^n certifies it."""
    n = min(gaps, default=ideal.s)
    if n >= ideal.s:
        return True, None, None
    if ideal_power(ideal, n).contains_monomial(gaps[n]):
        raise InternalConsistencyError(f"closure gap {gaps[n]} lies in I^{n}")
    return False, n, gaps[n]


def _normality(ideal, method, gaps):
    """The power route reads the closures' ``gaps``; None leaves it out."""
    if method not in ("hilbert", "powers", "both"):
        raise PreconditionError(f"unknown method {method!r}")
    ran = []
    results = []
    if method in ("hilbert", "both"):
        results.append(_normal_by_hilbert(ideal))
        ran.append("hilbert")
    if method in ("powers", "both") and gaps is not None:
        results.append(_normal_by_powers(ideal, gaps))
        ran.append("powers")
    verdicts = {r[0] for r in results}
    if len(verdicts) != 1:
        raise InternalConsistencyError(
            f"normality methods disagree on {ideal}: "
            + ", ".join(f"{m}={r[0]}" for m, r in zip(ran, results))
        )
    normal = verdicts.pop()
    witness = next((r for r in results if r[1] is not None), results[0])
    return NormalityReport(normal, tuple(ran), witness[1], witness[2])


def is_normal(ideal, method="both", budget=DEFAULT_BOX_BUDGET):
    """Is every power of I integrally closed?

    ``method`` selects the Hilbert-basis route (RC(I) Hilbert basis equal to
    its generator set), the power route (no gap for n <= s-1, i.e. I^n
    closed, which suffices by the normality descent), or both.  When
    the power route would overrun its box budget under ``method="both"`` the
    verdict is tagged with the methods that actually ran; disagreement
    between routes raises.
    """
    gaps = None
    if method in ("powers", "both"):
        try:
            gaps = _gaps(ideal, _closures(ideal, ideal.s - 1, budget))
        except BudgetExceededError:
            if method == "powers":
                raise
    return _normality(ideal, method, gaps)


def _normalization_index(ideal, gaps):
    """The last gap n <= s, or 0 when there is none."""
    index = max((n for n in gaps if n <= ideal.s), default=0)
    if index > max(ideal.s - 1, 0):
        raise InternalConsistencyError(
            f"normalization index {index} exceeds the dimension bound {ideal.s - 1}"
        )
    return index


def normalization_index(ideal, budget=DEFAULT_BOX_BUDGET):
    """Smallest N with closure(I^{n+1}) = I * closure(I^n) for all n >= N.

    Checks n = 0..s-1 directly; stabilization beyond s-1 is guaranteed for
    monomial ideals, which also caps the answer at s-1 (asserted).
    """
    return _normalization_index(ideal, _gaps(ideal, _closures(ideal, ideal.s, budget)))


class ClosureReport:
    """Closure generators per power, normality verdict, normalization index.

    The index bound is enforced on construction; :func:`closure_report`
    checks that a normal verdict leaves no gap in the reported closures.
    """

    __slots__ = ("ideal", "closures", "normality", "normalization_index")

    def __init__(self, ideal, closures, normality, index):
        self.ideal = ideal
        self.closures = closures
        self.normality = normality
        self.normalization_index = index
        if index > max(ideal.s - 1, 0):
            raise InternalConsistencyError("normalization index out of bounds")

    def __repr__(self):
        return (
            f"ClosureReport(powers={sorted(self.closures)}, "
            f"normal={self.normality.normal}, N={self.normalization_index})"
        )


def closure_report(ideal, up_to=None, method="both", budget=DEFAULT_BOX_BUDGET):
    """Bundle per-power closures, the normality verdict and N(I); each
    closure(I^n), n <= max(up_to, s), is computed once, and its gaps are
    read by the verdict, the index and the check that a normal verdict
    leaves no gap at the reported powers n <= up_to."""
    if up_to is None:
        up_to = max(ideal.s - 1, 1)
    closures = _closures(ideal, max(up_to, ideal.s), budget)
    gaps = _gaps(ideal, closures)
    verdict = _normality(ideal, method, gaps)
    index = _normalization_index(ideal, gaps)
    if verdict.normal and (reported_gaps := [n for n in gaps if n <= up_to]):
        raise InternalConsistencyError(
            f"normal verdict but closure gap at power {min(reported_gaps)}"
        )
    reported = {n: closures[n] for n in range(1, up_to + 1)}
    return ClosureReport(ideal, reported, verdict, index)


def is_gr_reduced(ideal):
    """Reducedness of the associated graded ring: normal Rees algebra and r=p."""
    if not ideal.is_squarefree():
        raise PreconditionError("gr-reducedness test requires a squarefree ideal")
    if ideal.height() < 2:
        raise PreconditionError("gr-reducedness test requires height >= 2")
    rep = rees_representation(ideal)
    if not rep.integral:
        return False
    return bool(is_normal(ideal, method="hilbert"))
