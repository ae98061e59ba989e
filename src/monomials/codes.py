"""Evaluation codes from projective point sets over small finite fields.

Fields up to q = 9 are table-driven (prime fields mod p, prime powers via a
fixed irreducible polynomial).  Codes are stored by a generator matrix whose
rows are the evaluations of the degree-d monomial basis; the weight hierarchy
comes from one walk down the column-subset sizes, v-numbers from weight-one
rows of the reduced echelon form.
"""

import itertools

from monomials.core import MonomialIdeal, covering_number, vec_sub_clamped
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    PreconditionError,
)

_IRREDUCIBLE = {
    4: (2, 2, (1, 1, 1)),   # x^2 + x + 1 over F_2
    8: (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1 over F_2
    9: (3, 2, (1, 0, 1)),   # x^2 + 1 over F_3
}

_PRIMES = {2, 3, 5, 7}


class GF:
    """Arithmetic tables for F_q, q <= 9."""

    def __init__(self, q):
        if q in _PRIMES:
            self.q = q
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        elif q in _IRREDUCIBLE:
            p, e, poly = _IRREDUCIBLE[q]
            self.q = q

            def digits(a):
                return [(a // p**i) % p for i in range(e)]

            def undigits(ds):
                return sum(d * p**i for i, d in enumerate(ds))

            def polymul(a, b):
                da, db = digits(a), digits(b)
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
                for i in range(2 * e - 2, e - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(e):
                            prod[i - e + j] = (prod[i - e + j] - c * poly[j]) % p
                return undigits(prod[:e])

            self.add = [
                [
                    undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                    for b in range(q)
                ]
                for a in range(q)
            ]
            self.mul = [[polymul(a, b) for b in range(q)] for a in range(q)]
        else:
            raise PreconditionError(f"only prime powers q <= 9 supported, got {q}")
        self.neg = [0] * q
        self.inv = [0] * q
        for a in range(q):
            for b in range(q):
                if self.add[a][b] == 0:
                    self.neg[a] = b
                if self.mul[a][b] == 1:
                    self.inv[a] = b

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def pow(self, a, n):
        out = 1
        for _ in range(n):
            out = self.mul[out][a]
        return out


def rref(field, rows):
    """Reduced row echelon form over the field; returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv[mat[r][c]]
        mat[r] = [field.mul[inv][x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [
                    field.sub(x, field.mul[f][y]) for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def gf_rank(field, rows):
    return len(rref(field, rows)[0]) if rows else 0


def monomial_basis(s, d):
    """Exponent vectors of the degree-d monomials, lexicographically
    decreasing: the order of the sorted index multisets they count."""
    if d < 0:
        return []
    return [
        tuple(c.count(i) for i in range(s))
        for c in itertools.combinations_with_replacement(range(s), d)
    ]


class PointSetOverFq:
    """Distinct projective points with cached evaluation matrices.

    Representatives are scaled so the first non-zero coordinate is 1 unless
    ``normalize=False`` (used for affine point sets embedded at height 1,
    where the given representatives are kept).
    """

    def __init__(self, q, s, points, normalize=True):
        self.field = GF(q)
        self.q = q
        self.s = s
        pts = []
        for pt in points:
            pt = tuple(int(x) % q for x in pt)
            if len(pt) != s:
                raise PreconditionError("point length mismatch")
            if not any(pt):
                raise PreconditionError("the zero vector is not a projective point")
            if normalize:
                lead = next(x for x in pt if x)
                inv = self.field.inv[lead]
                pt = tuple(self.field.mul[inv][x] for x in pt)
            pts.append(pt)
        if len(set(pts)) != len(pts):
            raise PreconditionError("points must be distinct projective points")
        self.points = tuple(pts)
        self._matrices = {}

    def __len__(self):
        return len(self.points)

    def evaluate_monomial(self, exps, point):
        f = self.field
        out = 1
        for e, x in zip(exps, point):
            out = f.mul[out][f.pow(x, e)]
        return out

    def evaluation_matrix(self, d):
        """Rows: degree-d monomials; columns: points."""
        if d not in self._matrices:
            rows = []
            for exps in monomial_basis(self.s, d):
                rows.append(
                    tuple(self.evaluate_monomial(exps, p) for p in self.points)
                )
            self._matrices[d] = tuple(rows)
        return self._matrices[d]

    def hilbert_function(self, d):
        if d == 0:
            return 1
        return gf_rank(self.field, list(self.evaluation_matrix(d)))

    def regularity_threshold(self):
        """First degree where the Hilbert function reaches |X|."""
        d = 1
        while self.hilbert_function(d) < len(self):
            d += 1
        return d


class EvaluationCode:
    """The image of the degree-d evaluation map, with a reduced basis."""

    __slots__ = ("points", "degree", "field", "matrix", "basis", "length",
                 "dimension")

    def __init__(self, points, degree):
        if degree < 1:
            raise PreconditionError("degree must be >= 1")
        if len(points) < 2:
            raise PreconditionError("weight computations need at least 2 points")
        self.points = points
        self.degree = degree
        self.field = points.field
        self.matrix = points.evaluation_matrix(degree)
        basis, _ = rref(self.field, list(self.matrix))
        self.basis = tuple(basis)
        self.length = len(points)
        self.dimension = len(basis)


def _combination(code, coeffs):
    """The codeword sum of c * row over the basis rows, as a list."""
    f = code.field
    word = [0] * code.length
    for c, row in zip(coeffs, code.basis):
        if c:
            for i, x in enumerate(row):
                word[i] = f.add[word[i]][f.mul[c][x]]
    return word


def minimum_distance(code):
    """The least weight of a non-zero codeword: delta_1 of the walk."""
    return weight_hierarchy(code, 1)[0]


def generalized_weight(code, r):
    """r-th generalized Hamming weight (1 <= r <= dim)."""
    return weight_hierarchy(code, r)[-1]


def weight_hierarchy(code, top=None):
    """Generalized Hamming weights delta_1, ..., delta_top (top = dim by
    default) from one walk down the column-subset sizes.

    delta_r = m - max{ |T| : rank of the T-columns <= k - r }: a subcode of
    dimension r vanishing on T exists iff the column rank on T drops to
    k - r.  The walk tries every subset of one size, from m - 1 down, until
    one has rank <= k - r; then delta_r = m - size.  No subset of that size
    or larger can qualify for r + 1, since delta_r < delta_(r+1) (Wei,
    IEEE Trans. Inf. Theory 37 (1991)), so r + 1 starts one size below.
    """
    k = code.dimension
    m = code.length
    top = k if top is None else top
    if not 1 <= top <= k:
        raise PreconditionError(f"need 1 <= r <= dim = {k}, got {top}")
    cols = list(zip(*code.basis))
    weights = []
    size = m - 1
    for r in range(1, top + 1):
        while not any(
            gf_rank(code.field, [cols[i] for i in subset]) <= k - r
            for subset in itertools.combinations(range(m), size)
        ):
            size -= 1
        weights.append(m - size)
        size -= 1
    return weights


def _r_subspaces(field, k, r):
    """All r-dimensional subspaces of F_q^k as RREF basis matrices."""
    q = field.q
    for pivots in itertools.combinations(range(k), r):
        free_positions = []
        for i, p in enumerate(pivots):
            for c in range(k):
                if c in pivots or c < p:
                    continue
                free_positions.append((i, c))
        for values in itertools.product(range(q), repeat=len(free_positions)):
            mat = [[0] * k for _ in range(r)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, c), v in zip(free_positions, values):
                mat[i][c] = v
            yield [tuple(row) for row in mat]


def gmd_and_vasconcelos(points, d, r, budget=200_000):
    """(delta_I(d,r), theta_I(d,r)) by enumerating r-sets of forms.

    Form sets are enumerated as r-subspaces of the evaluation image (the
    functions carry all the data); sets without a common zero fall outside
    the defining family and both functions default to |X| when none
    qualifies.  Point counts follow the colon/sum degree formulas.
    """
    code = EvaluationCode(points, d)
    f = code.field
    k = code.dimension
    m = code.length
    if r > k:
        return len(points), len(points)
    count = 1
    for i in range(r):
        count = count * (f.q**k - f.q**i) // (f.q**r - f.q**i)
    if count > budget:
        raise BudgetExceededError(
            f"subspace enumeration needs {count} subspaces (k={k}, r={r})",
            needed=count,
            budget=budget,
            stage="gmd_and_vasconcelos",
        )
    best_delta = None
    best_theta = None
    for mat in _r_subspaces(f, k, r):
        rows = [_combination(code, coeffs) for coeffs in mat]
        zero_positions = sum(
            1 for i in range(m) if all(row[i] == 0 for row in rows)
        )
        if zero_positions == 0:
            continue  # (I : F) = I, not in the defining family
        nonzero = m - zero_positions
        if best_delta is None or zero_positions > best_delta:
            best_delta = zero_positions
        if best_theta is None or nonzero < best_theta:
            best_theta = nonzero
    if best_delta is None:
        return len(points), len(points)
    return m - best_delta, best_theta


class WeightReport:
    """Per-degree weight table, v-number and regularity threshold of a set.

    The table holds δ_1..δ_3 of each degree's code, or δ_1..δ_k when its
    dimension k is below 3.

    The codes are built for d = 1, 2, ... until one has dimension |X|: that
    degree is the threshold.  The v-number is the first degree whose code's
    reduced basis has a row of weight one (see :func:`v_number_points`).
    Construction enforces the structural laws: the minimum distance strictly
    decreases with the degree until it hits 1 and stays there, the first
    degree where it equals 1 is the v-number, and beyond the threshold the
    r-th weight is r.
    """

    __slots__ = ("points", "weights", "v_number", "threshold")

    def __init__(self, points):
        self.points = points
        self.v_number = None
        table = {}
        for d in itertools.count(1):
            code = EvaluationCode(points, d)
            if self.v_number is None and _has_weight_one_row(code.basis):
                self.v_number = d
            table[d] = tuple(weight_hierarchy(code, min(3, code.dimension)))
            if code.dimension == len(points):
                break
        self.threshold = d
        self.weights = table
        firsts = [table[d][0] for d in sorted(table)]
        ones = [d for d in sorted(table) if table[d][0] == 1]
        if not ones or ones[0] != self.v_number:
            raise InternalConsistencyError(
                "v-number must be the first degree with distance one"
            )
        for a, b in zip(firsts, firsts[1:]):
            if a != 1 and not a > b:
                raise InternalConsistencyError("distance must strictly decrease")
            if a == 1 and b != 1:
                raise InternalConsistencyError("distance must stay at one")
        for r, w in enumerate(self.weights[self.threshold], start=1):
            if w != r:
                raise InternalConsistencyError(
                    "weights beyond the threshold must be trivial"
                )


def _has_weight_one_row(rows):
    """Some row has exactly one non-zero entry."""
    return any(len(row) - row.count(0) == 1 for row in rows)


def v_number_points(points):
    """Least d such that a degree-d form vanishes on every point but one.

    Its evaluation is a weight-one codeword, the indicator of one point.  That
    point's column is then a pivot of the reduced echelon form, and the
    codeword is a multiple of its pivot row, so the test is a row with exactly
    one non-zero entry.  One elimination per degree d = 1, 2, ...; by the
    regularity threshold, where the rank reaches |X|, every row has weight one.
    """
    if len(points) < 2:
        raise PreconditionError("v-number needs at least two points")
    for d in itertools.count(1):
        rows, _ = rref(points.field, points.evaluation_matrix(d))
        if _has_weight_one_row(rows):
            return d
        if len(rows) == len(points):
            raise InternalConsistencyError(
                "v-number must appear by the regularity threshold"
            )


# ---------------------------------------------------------------------------
# v-numbers of monomial ideals
# ---------------------------------------------------------------------------

def irreducible_components(ideal):
    """Irredundant irreducible decomposition of a monomial ideal.

    Keeps the inclusion-minimal ones of :func:`_irreducible_split`'s
    components.  That is exact because an irreducible monomial ideal Q is
    meet-prime: if J_1 & ... & J_k lies in Q, some J_j does, as the lcm of
    monomials outside Q stays outside Q.  So a component is redundant iff
    it contains another.  The supports of the components are the
    associated primes.
    """
    components = _irreducible_split(ideal)
    return [
        comp for comp in components
        if not any(other != comp and comp.contains_ideal(other) for other in components)
    ]


def _irreducible_split(ideal):
    """The distinct irreducible ideals, in the order found, whose
    intersection is the ideal: a mixed generator is split into its
    pure-power parts recursively.  Each part drops the generators it
    divides, so every generator list stays minimal (no other generator
    divides a part, as none divides the generator it comes from) and no
    redundant generator is split again."""
    work = [tuple(sorted(ideal.gens))]
    components = []
    while work:
        gens = work.pop()
        split = next((g for g in gens if sum(1 for x in g if x) > 1), None)
        if split is None:
            comp = MonomialIdeal(ideal.s, gens)
            if comp not in components:
                components.append(comp)
            continue
        rest = [h for h in gens if h != split]
        for i, x in enumerate(split):
            if x:
                part = tuple(x if j == i else 0 for j in range(len(split)))
                work.append(tuple(sorted([h for h in rest if h[i] < x] + [part])))
    return components


def associated_primes(ideal):
    """Supports of an irredundant irreducible decomposition."""
    if ideal.is_squarefree():
        return [frozenset(c) for c in ideal.minimal_primes()]
    return sorted(
        {frozenset(i for i, x in enumerate(c.max_exponents()) if x)
         for c in irreducible_components(ideal)},
        key=sorted,
    )


def _box_points_of_degree(bounds, d, head=()):
    """The points of degree d in the box 0 <= m <= bounds that begin with
    ``head``, lexicographically decreasing."""
    i = len(head)
    if i == len(bounds):
        if d == 0:
            yield head
        return
    for x in range(min(bounds[i], d), -1, -1):
        yield from _box_points_of_degree(bounds, d - x, head + (x,))


def v_number_monomial(ideal, degree_cap=None):
    """Least degree of a monomial f with (I : f) an associated prime.

    A prime of the form (I : f) is automatically associated, so the search
    just looks for the least-degree monomial t^m whose colon is generated by
    variables.  The colon is generated by the differences c_g = (g - m)+ of
    the generators g; with U the indices i where some c_g is the variable
    e_i, it is generated by variables iff every c_g has a positive entry in
    U.  When t^m lies in I some c_g is 0, so the test fails, and the
    differences after the first zero one are not formed.  Exponents
    beyond the generator maxima never change the colon, which bounds the
    candidate box; the witness search is restricted to monomials (the colon
    stays monomial, so the test is exact).  The box is walked degree by
    degree, and no candidate outside it or above the cap is formed.  Raises
    BudgetExceededError when the cap is passed.
    """
    bounds = ideal.max_exponents()
    if degree_cap is None:
        degree_cap = sum(bounds)
    for d in range(min(degree_cap, sum(bounds)) + 1):
        for m in _box_points_of_degree(bounds, d):
            diffs = (vec_sub_clamped(g, m) for g in ideal.gens)
            diffs = list(itertools.takewhile(any, diffs))
            if len(diffs) < len(ideal.gens):  # t^m lies in I
                continue
            variables = {c.index(1) for c in diffs if sum(c) == 1}
            if all(any(c[i] for i in variables) for c in diffs):
                return d
    raise BudgetExceededError(
        f"no v-number witness of degree <= {degree_cap}",
        needed=degree_cap + 1,
        budget=degree_cap,
        stage="v_number_monomial",
    )


def w2_test(graph, degree_cap=None):
    """Is the graph in W2?  Combinatorial and v-number routes must agree.

    Combinatorially: well-covered and still well-covered after deleting any
    single vertex.  Algebraically: v(I(G)) = dim S/I = s - cover number.
    """
    if any(graph.degree(v) == 0 for v in range(graph.s)):
        raise PreconditionError("isolated vertices are excluded from W2")
    combinatorial = graph.is_well_covered() and all(
        graph.induced([u for u in range(graph.s) if u != v]).is_well_covered()
        for v in range(graph.s)
    )
    ideal = graph.edge_ideal()
    v_num = v_number_monomial(ideal, degree_cap)
    algebraic = v_num == graph.s - covering_number(graph.clutter())
    if combinatorial != algebraic:
        raise InternalConsistencyError(
            f"W2 routes disagree: combinatorial={combinatorial}, "
            f"v-number={v_num}"
        )
    return combinatorial
