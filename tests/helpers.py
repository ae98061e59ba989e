"""Shared instance builders for the test suite.

Random generators are all seeded, so every run sees the same corpus.
"""

import contextlib
import itertools
import math
import operator
import signal
from fractions import Fraction

from monomials import closure, core, graphs, linalg, lp, polyhedra
from monomials.codes import gf_rank
from monomials.core import (
    UNIT,
    Clutter,
    Graph,
    MonomialIdeal,
    colon_monomial,
    ideal_power,
)
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    NonPointedConeError,
    PreconditionError,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def two_disjoint_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def triangles_joined_by_edge():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])


def triangles_joined_by_path(length):
    """Two triangles joined by a path with `length` edges between them."""
    # triangle 0,1,2 ... path from 2 ... triangle at the end
    path_inner = length - 1
    base = 3 + path_inner
    edges = [(0, 1), (1, 2), (0, 2)]
    prev = 2
    for i in range(path_inner):
        edges.append((prev, 3 + i))
        prev = 3 + i
    edges += [(prev, base), (base, base + 1), (base + 1, base + 2), (base, base + 2)]
    return Graph(base + 3, edges)


def bowtie_figure_graph():
    """A 5-cycle and a triangle joined by a path of length 2."""
    return Graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)],
    )


def q6_clutter():
    return Clutter(6, [(0, 1, 4), (0, 2, 3), (1, 2, 5), (3, 4, 5)])


def q6_ideal():
    return q6_clutter().edge_ideal()


def random_graph(rng, s, p=0.5, connected=False, nonbipartite=False):
    while True:
        edges = [
            (i, j)
            for i in range(s)
            for j in range(i + 1, s)
            if rng.random() < p
        ]
        if not edges:
            continue
        g = Graph(s, edges)
        if connected and not g.is_connected():
            continue
        if nonbipartite and g.is_bipartite():
            continue
        if any(g.degree(v) == 0 for v in range(s)):
            continue
        return g


def random_bipartite_graph(rng, s, p=0.5):
    while True:
        sides = [rng.randrange(2) for _ in range(s)]
        edges = [
            (i, j)
            for i in range(s)
            for j in range(i + 1, s)
            if sides[i] != sides[j] and rng.random() < p
        ]
        if edges and not any(
            all(v not in e for e in edges) for v in range(s)
        ):
            return Graph(s, edges)


def random_ideal(rng, s, max_exp=3, max_gens=5):
    while True:
        gens = set()
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(rng.randint(0, max_exp) for _ in range(s))
            if any(g):
                gens.add(g)
        if gens:
            return MonomialIdeal(s, gens)


def random_squarefree_ideal(rng, s, max_edge=3, num_edges=4):
    while True:
        edges = set()
        for _ in range(num_edges):
            size = rng.randint(1, min(max_edge, s))
            edges.add(tuple(sorted(rng.sample(range(s), size))))
        minimal = []
        for e in sorted(edges, key=len):
            if not any(set(m) <= set(e) for m in minimal):
                minimal.append(e)
        if minimal:
            try:
                cl = Clutter(s, minimal)
            except Exception:
                continue
            if cl.has_isolated_vertex():
                continue
            return cl.edge_ideal()


def random_clutter_height2(rng, s, max_edge=3, num_edges=4):
    """Clutter with no isolated vertex and covering number >= 2."""
    from monomials.core import covering_number

    while True:
        ideal = random_squarefree_ideal(rng, s, max_edge, num_edges)
        cl = ideal.clutter()
        if covering_number(cl) >= 2:
            return cl


def random_zero_dim_2var(rng, max_exp=9, extra=3):
    a = rng.randint(2, max_exp)
    b = rng.randint(2, max_exp)
    gens = {(a, 0), (0, b)}
    for _ in range(rng.randint(0, extra)):
        gens.add((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return MonomialIdeal(2, gens)


def random_point_set(rng, q, s, size):
    from monomials.codes import GF, PointSetOverFq

    field = GF(q)
    seen = set()
    pts = []
    attempts = 0
    while len(pts) < size and attempts < 2000:
        attempts += 1
        p = tuple(rng.randrange(q) for _ in range(s))
        if not any(p):
            continue
        inv = field.inv[next(x for x in p if x)]
        norm = tuple(field.mul[inv][x] for x in p)
        if norm in seen:
            continue
        seen.add(norm)
        pts.append(norm)
    return PointSetOverFq(q, s, pts)


def connected_atlas_graphs(max_nodes=6):
    """All connected graphs with at least one edge, up to isomorphism."""
    from networkx.generators.atlas import graph_atlas_g
    import networkx as nx

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if n < 2 or n > max_nodes:
            continue
        if g.number_of_edges() == 0 or not nx.is_connected(g):
            continue
        mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
        edges = [(mapping[a], mapping[b]) for a, b in g.edges()]
        out.append(Graph(n, edges))
    return out


def loop_multigraphs(rng, count):
    """Random multigraphs on 1-7 vertices with 1-3 loops."""
    for _ in range(count):
        s = rng.randint(1, 7)
        pairs = [(a, b) for a in range(s) for b in range(a + 1, s) if rng.random() < 0.4]
        loops = [(v,) for v in rng.sample(range(s), rng.randint(1, min(3, s)))]
        yield Graph(s, pairs + loops, multigraph=True)


def gcd_of_maximal_minors(rays):
    d = len(rays)
    return math.gcd(*(
        int(linalg.det([[r[c] for c in cols] for r in rays]))
        for cols in itertools.combinations(range(len(rays[0])), d)
    ))


def incidence(vector, rows):
    """Bitmask of the rows orthogonal to ``vector``."""
    return sum(1 << j for j, row in enumerate(rows) if linalg.vec_dot(row, vector) == 0)


def incidence_extreme_ray_generators(generators, description):
    """The primitive generators spanning extreme rays of a pointed cone, from
    the incidence of each generator with the facets of ``description``,
    recomputed per call.  The oracle of the facet-value table in
    ``polyhedra.extreme_ray_generators``."""
    prim = sorted({linalg.primitive(g) for g in generators if any(g)})
    _, facets = description
    tight = [incidence(g, facets) for g in prim]
    return [
        g for i, (g, t) in enumerate(zip(prim, tight))
        if not any(u & t == t for j, u in enumerate(tight) if j != i)
    ]


def incidence_pulling_triangulation(rays, description):
    """The pulling triangulation of a pointed cone of any dimension, on ray
    bitmasks from recomputed incidences, without volume bounds; a face with
    as many rays as its dimension is a simplex.  The oracle of
    ``polyhedra.pulling_triangulation``."""
    rays = tuple(tuple(r) for r in rays)
    eqs, facets = description
    masks = [incidence(f, rays) for f in facets]
    top = (1 << len(rays)) - 1
    return [
        tuple(r for k, r in enumerate(rays) if simplex >> k & 1)
        for simplex in _incidence_pull(top, len(rays[0]) - len(eqs), masks, {})
    ]


def _incidence_pull(face, dim, masks, done):
    if face in done:
        return done[face]
    if face.bit_count() == dim:
        out = [face]
    else:
        apex = face & -face
        subs = [sub for sub in dict.fromkeys(face & s for s in masks) if sub != face]
        out = []
        for sub in subs:
            if sub & apex or any(sub & o == sub and sub != o for o in subs):
                continue
            out.extend(apex | simplex for simplex in _incidence_pull(sub, dim - 1, masks, done))
    done[face] = out
    return out


def height_bound(simplex, facets):
    """The product over the rays a_i of a simplex in pulling order of the
    least f.a_i > 0 over the facets f with f.a_k = 0 for every k > i: the
    bound on |det| of ``polyhedra.pulling_triangulation``, read off the
    simplex alone."""
    bound = 1
    for i, apex in enumerate(simplex[:-1]):
        bound *= min(
            linalg.vec_dot(f, apex) for f in facets
            if linalg.vec_dot(f, apex) > 0
            and all(linalg.vec_dot(f, a) == 0 for a in simplex[i + 1:])
        )
    return bound


def all_pairs_hilbert_basis(generators):
    """The Hilbert basis of a full-dimensional pointed cone by the
    incidence route: extreme rays and pulling triangulation from recomputed
    incidences, the parallelepiped points of every simplex, and every
    candidate reduced against every other.  The oracle of the height
    certificates and the degree-ordered reduction of
    ``polyhedra.hilbert_basis``."""
    gens = sorted({tuple(g) for g in generators if any(g)})
    description = polyhedra.cone_facets(gens)
    rays = incidence_extreme_ray_generators(gens, description)
    candidates = set(gens) | set(rays)
    for simplex in incidence_pulling_triangulation(rays, description):
        candidates.update(p for p in polyhedra.parallelepiped_points(simplex) if any(p))
    _, facets = description
    values = {h: tuple(linalg.vec_dot(f, h) for f in facets) for h in candidates}
    return tuple(sorted(
        h for h in candidates
        if not any(
            g != h and all(x <= y for x, y in zip(values[g], values[h]))
            for g in candidates
        )
    ))

def degree_ordered_hilbert_basis(generators):
    """The Hilbert basis of a pointed cone from the library's candidates
    (extreme rays and parallelepiped points), each taken in increasing
    degree and tested against every element kept before it, extreme rays
    included; a flat cone is first written in a saturated basis of its
    span.  The oracle of the half-degree reduction of
    ``polyhedra.hilbert_basis``, which keeps the rays untested."""
    gens = sorted({tuple(g) for g in generators if any(g)})
    if linalg.rank(gens) < len(gens[0]):
        basis = saturation_basis(gens)
        coords = linalg.lattice_coordinates(gens, basis)
        columns = list(zip(*basis))
        return tuple(sorted(
            tuple(linalg.vec_dot(h, col) for col in columns)
            for h in degree_ordered_hilbert_basis(coords)
        ))
    _, facets = polyhedra.cone_facets(gens)
    rays = polyhedra.extreme_ray_generators(polyhedra.facet_values(gens, facets))
    candidates = dict(rays)
    for simplex, _ in polyhedra.pulling_triangulation(rays):
        for pt in polyhedra.parallelepiped_points(simplex):
            if any(pt) and pt not in candidates:
                candidates[pt] = tuple(linalg.vec_dot(f, pt) for f in facets)
    kept = {}
    for h, hv in sorted(candidates.items(), key=lambda item: sum(item[1])):
        if not any(all(x <= y for x, y in zip(gv, hv)) for gv in kept.values()):
            kept[h] = hv
    return tuple(sorted(kept))


def _minor_children(family):
    """The deletion and the contraction of each vertex of a bitmask clutter,
    except those that are no minor: a contraction turning an edge empty (the
    unit ideal) and a deletion removing every edge (the zero ideal)."""
    for bit in core._bits(core._mask_union(family)):
        deleted = frozenset(e for e in family if not e & bit)
        if deleted:
            yield deleted
        if bit not in family:
            yield core._minimal_masks(e & ~bit for e in family)


def every_vertex_minor_walk(ideal):
    """The packing property by a walk that deletes and contracts every
    vertex of every family reached, singleton edges kept, each distinct
    family tested for Koenig once.  The oracle of the ordered walk of
    ``core.has_packing_property``."""
    start = frozenset(core._mask(core.support(g)) for g in ideal.gens)
    seen = {start}
    stack = [start]
    while stack:
        family = stack.pop()
        if not core._is_konig_family(family):
            return False
        for child in _minor_children(family):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return True


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have
    passed, so a search that does not end fails the test instead of
    stalling the suite (main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def refuse_smith_forms(monkeypatch):
    """Make ``linalg.smith_normal_form`` raise, so a test fails at once
    where a Smith form would run.  The library has none; the guard also
    holds where one is added back.  The cone memos are cleared, so the
    guarded cones are computed, not read from an earlier test's result."""
    def refuse(matrix):
        raise AssertionError("a Smith normal form was computed")

    monkeypatch.setattr(linalg, "smith_normal_form", refuse, raising=False)
    polyhedra._facet_description.cache.clear()
    polyhedra._hilbert_basis.cache.clear()


def refuse_simplex(monkeypatch):
    """Make ``lp.exact_lp`` raise, so a test fails at once where the
    library's simplex would run (``feasible`` and ``in_cone`` are oracles
    here, on :func:`two_phase_lp`).  The Rees-cone memos are cleared, so the
    guarded cones are computed, not read from an earlier test's result."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exact simplex ran")

    monkeypatch.setattr(lp, "exact_lp", refuse)
    closure.rees_representation.cache.clear()
    polyhedra._facet_description.cache.clear()
    polyhedra._hilbert_basis.cache.clear()


def row_echelon(rows):
    """Reduced row echelon form by plain Fraction Gauss-Jordan: (echelon
    rows, pivot column indices).  The oracle of the integer eliminations of
    ``linalg``."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [x - row[c] * y for x, y in zip(row, mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def nullspace(rows, ncols=None):
    """Basis of {x : rows * x = 0}, with Fraction entries, one vector per
    free column f with x_f = 1.  The oracle of ``linalg.integer_nullspace``."""
    if rows:
        ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    basis = []
    for f in range(ncols or 0):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(echelon, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


def invert(rows):
    """Inverse of a square rational matrix, with Fraction entries.  The
    oracle of ``linalg.adjugate``."""
    n = len(rows)
    echelon, pivots = row_echelon(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [row[n:] for row in echelon]


def fraction_seeded_extreme_rays(rows):
    """Extreme rays of the pointed cone {x : row.x >= 0} for integer rows,
    by the double description seeded with the Fraction inverse of the first
    independent rows, and each pair's adjacency tested ray by ray.  The
    oracle of ``polyhedra.extreme_rays_of_inequalities``."""
    rows = [tuple(r) for r in rows]
    n = len(rows[0])
    _, base_idx = row_echelon(list(zip(*rows)))
    if len(base_idx) < n:
        raise NonPointedConeError("constraint matrix is rank deficient")
    inv = invert([rows[i] for i in base_idx])
    rays = []
    for j in range(n):
        mask = sum(1 << bi for k, bi in enumerate(base_idx) if k != j)
        rays.append((linalg.clear_denominators([row[j] for row in inv]), mask))
    for i, row in enumerate(rows):
        if i in base_idx:
            continue
        vals = [linalg.vec_dot(row, r) for r, _ in rays]
        new_rays = [(r, mask | (1 << i) if v == 0 else mask)
                    for v, (r, mask) in zip(vals, rays) if v >= 0]
        seen = {r for r, _ in new_rays}
        for kp, (rp, zp) in enumerate(rays):
            for km, (rm, zm) in enumerate(rays):
                if vals[kp] <= 0 or vals[km] >= 0:
                    continue
                common = zp & zm
                if any(common & zo == common for ko, (_, zo) in enumerate(rays)
                       if ko not in (kp, km)):
                    continue
                w = linalg.primitive(
                    [vals[kp] * x - vals[km] * y for x, y in zip(rm, rp)]
                )
                if w not in seen:
                    seen.add(w)
                    new_rays.append((w, common | (1 << i)))
        rays = new_rays
    return sorted(r for r, _ in rays)


def inverse_parallelepiped_points(rays):
    """Parallelepiped points of n independent rays in Z^n from the Fraction
    inverse of the ray matrix: the origin when |det| = 1, else one point
    per element of the echelon box.  The oracle of
    ``polyhedra.parallelepiped_points``."""
    n = len(rays)
    if abs(linalg.det(rays)) == 1:
        return [(0,) * n]
    cols = list(zip(*rays))
    rinv = invert(cols)
    den = math.lcm(*(x.denominator for row in rinv for x in row))
    radj = [[int(x * den) for x in row] for row in rinv]
    diagonal = [b[i] for i, b in enumerate(linalg.integer_row_basis(rays))]
    pts = []
    for x in itertools.product(*[range(h) for h in diagonal]):
        lam = [linalg.vec_dot(row, x) % den for row in radj]
        pts.append(tuple(linalg.vec_dot(row, lam) // den for row in cols))
    return pts


def is_pointed(generators):
    """No non-trivial non-negative combination of the generators is zero:
    ``polyhedra._pointed``, the degree test that ``hilbert_basis`` runs, on
    the facet-value table of the shared facet description."""
    gens = polyhedra._generator_set(generators)
    if not gens:
        return True
    _, facets = polyhedra._facet_description(gens)
    return polyhedra._pointed(polyhedra.facet_values(gens, facets))


def rank_is_pointed(generators):
    """Pointedness as rank n of the equations and facets together.  The
    oracle of the degree test of :func:`is_pointed`."""
    gens = [tuple(g) for g in generators if any(g)]
    if not gens:
        return True
    eqs, facets = polyhedra.cone_facets(gens)
    return linalg.rank(eqs + facets) == len(gens[0])


def subsystem_vertices(dim, inequalities):
    """The vertices of {x : normal.x >= offset for (normal, offset) in
    ``inequalities``}, sorted: every point that solves a dim x dim tight
    subsystem of full rank and meets all the inequalities.  The oracle of
    the vertices read off a cone's facets."""
    vertices = set()
    for subsystem in itertools.combinations(inequalities, dim):
        rows = [normal for normal, _ in subsystem]
        if linalg.rank(rows) < dim:
            continue
        x = linalg.solve(rows, [offset for _, offset in subsystem])
        if x is not None and all(
            linalg.vec_dot(normal, x) >= offset for normal, offset in inequalities
        ):
            vertices.add(x)
    return sorted(vertices)


def covering_inequalities(ideal):
    """Q(I) = {x : x >= 0, x.g >= 1 for every generator g} as (normal,
    offset) rows."""
    orthant = [(tuple(int(i == j) for j in range(ideal.s)), 0) for i in range(ideal.s)]
    return orthant + [(g, 1) for g in ideal.gens]


def box_scan_lattice_points(vertices, dilation=1):
    """The lattice points of dilation * conv(vertices): every point x of the
    bounding box with (x, dilation) in the cone over the (v, 1), by
    :func:`in_cone`.  The oracle of ``polyhedra.lattice_points``, which
    counts by the facets."""
    lifted = [tuple(v) + (1,) for v in vertices]
    box = [range(dilation * min(c), dilation * max(c) + 1) for c in zip(*vertices)]
    return [x for x in itertools.product(*box) if in_cone(x + (dilation,), lifted)]


def packing_lp(rows, alpha):
    """The library's simplex on max y_1 + ... + y_m subject to A y <= alpha,
    y >= 0, with A given by its s rows."""
    return lp.exact_lp([1] * len(rows[0]), a_ub=rows, b_ub=alpha)


def covering_lp(gens, alpha):
    """The two-phase simplex on min alpha.x subject to x.g >= 1 for every g
    in ``gens``, x >= 0."""
    return two_phase_lp(
        alpha, a_ub=[[-x for x in g] for g in gens], b_ub=[-1] * len(gens),
        maximize=False,
    )


INFEASIBLE = "infeasible"


def two_phase_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=True):
    """Optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0, by the
    two-phase simplex on ``lp._pivot`` and ``lp._run_simplex``: phase 1
    maximizes minus the sum of one artificial variable per row, whose basis
    is feasible for any right-hand side.  The oracle of ``lp.exact_lp``,
    which runs phase 2 only, from the slack basis of a program with b >= 0.
    """
    a_ub = [list(map(Fraction, r)) for r in (a_ub or [])]
    b_ub = [Fraction(x) for x in (b_ub or [])]
    a_eq = [list(map(Fraction, r)) for r in (a_eq or [])]
    b_eq = [Fraction(x) for x in (b_eq or [])]
    nvar = len(c)
    c = [Fraction(x) for x in c]
    if not maximize:
        flipped = two_phase_lp([-x for x in c], a_ub, b_ub, a_eq, b_eq)
        if flipped.status == lp.OPTIMAL:
            return lp.LPResult(lp.OPTIMAL, -flipped.value, flipped.x)
        return flipped

    nslack = len(a_ub)
    rows = []
    b = []
    for i, (row, bi) in enumerate(zip(a_ub, b_ub)):
        full = row + [Fraction(0)] * nslack
        full[nvar + i] = Fraction(1)
        rows.append(full)
        b.append(bi)
    for row, bi in zip(a_eq, b_eq):
        rows.append(row + [Fraction(0)] * nslack)
        b.append(bi)
    m = len(rows)
    if m == 0:
        if any(x > 0 for x in c):
            return lp.LPResult(lp.UNBOUNDED)
        return lp.LPResult(lp.OPTIMAL, Fraction(0), tuple(Fraction(0) for _ in range(nvar)))
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-x for x in rows[i]]
            b[i] = -b[i]

    ntot = nvar + nslack
    # phase 1: artificial variable per row, maximize minus their sum
    for i in range(m):
        for j in range(m):
            rows[i].append(Fraction(int(i == j)))
    basis = [ntot + i for i in range(m)]
    zrow = []
    for j in range(ntot + m):
        cj = Fraction(-1) if j >= ntot else Fraction(0)
        zrow.append(cj + sum(rows[i][j] for i in range(m)))
    zval = -sum(b)
    gained = lp._run_simplex(rows, b, basis, zrow)
    if gained is None:
        raise AssertionError("phase 1 cannot be unbounded")
    if zval + gained != 0:
        return lp.LPResult(INFEASIBLE)
    # drive artificials out of the basis, dropping redundant rows
    drop = []
    for i in range(m):
        if basis[i] >= ntot:
            piv = next((j for j in range(ntot) if rows[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                lp._pivot(rows, b, basis, zrow, i, piv)
    if drop:
        rows = [r for i, r in enumerate(rows) if i not in drop]
        b = [x for i, x in enumerate(b) if i not in drop]
        basis = [x for i, x in enumerate(basis) if i not in drop]
    rows = [r[:ntot] for r in rows]

    # phase 2: real objective
    cfull = c + [Fraction(0)] * nslack
    zrow = []
    for j in range(ntot):
        zrow.append(cfull[j] - sum(cfull[basis[i]] * rows[i][j] for i in range(len(rows))))
    zval = sum(cfull[basis[i]] * b[i] for i in range(len(rows)))
    gained = lp._run_simplex(rows, b, basis, zrow)
    if gained is None:
        return lp.LPResult(lp.UNBOUNDED)
    zval += gained
    x = [Fraction(0)] * ntot
    for i, bi in enumerate(basis):
        x[bi] = b[i]
    return lp.LPResult(lp.OPTIMAL, zval, tuple(x[:nvar]))


def feasible(a_ub=None, b_ub=None, a_eq=None, b_eq=None, nvar=None):
    """Is {x >= 0 : a_ub x <= b_ub, a_eq x = b_eq} non-empty?"""
    if nvar is None:
        if a_ub:
            nvar = len(a_ub[0])
        elif a_eq:
            nvar = len(a_eq[0])
        else:
            return True
    res = two_phase_lp([0] * nvar, a_ub, b_ub, a_eq, b_eq)
    return res.status == lp.OPTIMAL


def in_cone(point, generators):
    """Is point a non-negative rational combination of the generators?"""
    if not generators:
        return all(x == 0 for x in point)
    cols = list(zip(*generators))
    return feasible(a_eq=cols, b_eq=list(point), nvar=len(generators))


def monoid_decompose(point, basis, max_terms=64):
    """Express a lattice point as an N-combination of basis elements.

    Depth-first certificate search; returns the list of summands or None.
    Used to witness-check Hilbert bases.  A summand b of p leaves p - b in
    cone(basis), so b is tried only if f.b <= f.p for every facet f; on a
    pointed cone this bounds the depth by the facet sum of p.
    """
    point = tuple(point)
    basis = [tuple(b) for b in basis if any(b)]
    if not any(point):
        return []
    if not basis:
        return None
    eqs, facets = polyhedra._facet_description(polyhedra._generator_set(basis))
    if any(linalg.vec_dot(e, point) for e in eqs):
        return None
    values = [(b, tuple(linalg.vec_dot(f, b) for f in facets)) for b in basis]
    start = tuple(linalg.vec_dot(f, point) for f in facets)
    return _decompose(point, start, values, max_terms, {})


def _decompose(p, pv, values, terms_left, dead):
    """Summands of ``p`` (facet values ``pv``) from the (element, facet values)
    pairs, or None; ``dead`` maps a point to the most terms that failed."""
    if not any(p):
        return []
    if terms_left <= dead.get(p, 0):
        return None
    for b, bv in values:
        if all(x <= y for x, y in zip(bv, pv)):
            rest = tuple(x - y for x, y in zip(p, b))
            rest_values = tuple(y - x for x, y in zip(bv, pv))
            sub = _decompose(rest, rest_values, values, terms_left - 1, dead)
            if sub is not None:
                return [b] + sub
    dead[p] = terms_left
    return None


def inequalities_from_v_description(vertices, rays=()):
    """Inequality description of conv(vertices) + cone(rays).

    Homogenizes at height 1 and reads facets of the resulting cone.
    Returns (equations, inequalities) with entries (normal, offset), meaning
    normal.x = offset resp. normal.x >= offset.
    """
    lifted = [tuple(v) + (1,) for v in vertices]
    lifted += [tuple(r) + (0,) for r in rays]
    eqs, facets = polyhedra.cone_facets(lifted)
    eq_out = [(e[:-1], -e[-1]) for e in eqs]
    ineq_out = [(f[:-1], -f[-1]) for f in facets]
    return eq_out, ineq_out


def reintersecting_irreducible_components(components):
    """The irredundant decomposition by dropping, one at a time, the first
    component that contains the intersection of all the others, until none
    does: the oracle of the inclusion-minimal components that
    ``codes.irreducible_components`` keeps."""
    ideals = list(components)
    changed = True
    while changed and len(ideals) > 1:
        changed = False
        for i, comp in enumerate(ideals):
            others = [c for j, c in enumerate(ideals) if j != i]
            inter = others[0]
            for c in others[1:]:
                inter = inter.intersect(c)
            if comp.contains_ideal(inter):
                ideals.pop(i)
                changed = True
                break
    return ideals


def mat_mul(a, b):
    """The integer or rational matrix product a * b."""
    bt = list(zip(*b))
    return [tuple(linalg.vec_dot(ra, cb) for cb in bt) for ra in a]


def smith_normal_form(matrix):
    """Smith normal form with transforms: U * A * V = D.

    Returns (U, D, V, invariant_factors) with U, V unimodular integer
    matrices and D diagonal with d_1 | d_2 | ... >= 0.  The oracle of
    ``linalg.invariant_factors`` and of the parallelepiped classes; its
    entries can explode on mixed-sign input, so keep its inputs small.
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


def berge_minimal_covers(clutter):
    """All minimal transversals by Berge expansion on frozensets, pruning the
    non-minimal partial transversals after each edge.  The oracle of
    ``Clutter.minimal_covers``."""
    covers = [frozenset()]
    for e in clutter.edges:
        es = set(e)
        nxt = set()
        for c in covers:
            if c & es:
                nxt.add(c)
            else:
                for v in es:
                    nxt.add(c | {v})
        pruned = []
        for c in sorted(nxt, key=lambda c: (len(c), sorted(c))):
            if not any(k <= c for k in pruned):
                pruned.append(c)
        covers = pruned
    return sorted(tuple(sorted(c)) for c in covers)


def subset_scan_minimal_covers(clutter):
    """All minimal transversals by scanning every vertex subset: a cover is
    minimal when no vertex can be dropped."""
    edges = [set(e) for e in clutter.edges]

    def covers(c):
        return all(e & c for e in edges)

    return sorted(
        c
        for k in range(clutter.s + 1)
        for c in itertools.combinations(range(clutter.s), k)
        if covers(set(c)) and not any(covers(set(c) - {v}) for v in c)
    )


def recursive_maximal_stable_sets(graph):
    """All maximal independent sets by a take-or-skip recursion with a
    maximality filter.  The oracle of ``Graph.maximal_stable_sets``."""
    sets = []
    _extend_stable(graph, set(range(graph.s)), set(), sets)
    out = []
    for m in sets:
        if not any(m < other for other in sets):
            out.append(tuple(sorted(m)))
    return sorted(set(out))


def _extend_stable(graph, candidates, current, sets):
    if not candidates:
        if not any(current < m for m in sets):
            sets.append(set(current))
        return
    v = min(candidates)
    _extend_stable(graph, candidates - {v} - graph.neighbors(v), current | {v}, sets)
    _extend_stable(graph, candidates - {v}, current, sets)


def induced_component_bipartiteness(graph):
    """(component, bipartite) per connected component, the components found
    by a plain search and each tested on its own induced graph: no loop and
    a 2-coloring.  The oracle of ``Graph.colored_components``, which colors
    each component once, and of ``Graph.is_bipartite``."""
    seen = set()
    comps = []
    for v0 in range(graph.s):
        if v0 in seen:
            continue
        comp = {v0}
        stack = [v0]
        while stack:
            for w in graph.neighbors(stack.pop()) - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return [
        (comp, not g.loops and g.two_coloring() is not None)
        for comp, g in zip(comps, map(graph.induced, comps))
    ]


def column_drop_v_number(points):
    """The least degree where removing one point's column drops the rank of
    the evaluation matrix.  The oracle of ``codes.v_number_points``."""
    f = points.field
    for d in range(1, points.regularity_threshold() + 1):
        mat = points.evaluation_matrix(d)
        full = gf_rank(f, list(mat))
        for drop in range(len(points)):
            reduced = [
                tuple(x for i, x in enumerate(row) if i != drop) for row in mat
            ]
            if gf_rank(f, reduced) < full:
                return d
    raise InternalConsistencyError(
        "v-number must appear by the regularity threshold"
    )


def subset_scan_weight(code, r):
    """delta_r = m - max{ |T| : rank of the T-columns <= k - r }, by scanning
    the column subsets from size m - 1 down, afresh for each r.  The oracle
    of ``codes.weight_hierarchy``."""
    k, m = code.dimension, code.length
    cols = list(zip(*code.basis))
    return next(
        m - size
        for size in range(m - 1, -1, -1)
        if any(
            gf_rank(code.field, [cols[i] for i in subset]) <= k - r
            for subset in itertools.combinations(range(m), size)
        )
    )


def codeword_minimum_distance(code):
    """The least weight of a non-zero codeword, by enumerating one codeword
    per scalar class (first non-zero coefficient 1).  The oracle of
    ``codes.minimum_distance``."""
    f, k, m = code.field, code.dimension, code.length
    best = m
    for lead in range(k):
        for tail in itertools.product(range(f.q), repeat=k - lead - 1):
            word = [0] * m
            for c, row in zip((1,) + tail, code.basis[lead:]):
                for i, x in enumerate(row):
                    word[i] = f.add[word[i]][f.mul[c][x]]
            best = min(best, m - word.count(0))
    return best


def colon_v_number(ideal, degree_cap=None):
    """The least degree of a monomial outside the ideal whose colon ideal,
    built and minimalized, is generated by variables.  The oracle of
    ``codes.v_number_monomial``."""
    bounds = ideal.max_exponents()
    if degree_cap is None:
        degree_cap = sum(bounds)
    candidates = sorted(
        itertools.product(*[range(b + 1) for b in bounds]),
        key=lambda m: (sum(m), m),
    )
    for m in candidates:
        if sum(m) > degree_cap:
            break
        if ideal.contains_monomial(m):
            continue
        quot = colon_monomial(ideal, m)
        if quot is not UNIT and all(sum(g) == 1 for g in quot.gens):
            return sum(m)
    raise BudgetExceededError(
        f"no v-number witness of degree <= {degree_cap}",
        needed=degree_cap + 1,
        budget=degree_cap,
        stage="v_number_monomial",
    )


def _columns(bounds, rows):
    """The threshold t of each column p of the box of the first s-1
    coordinates, in lex order: the least last coordinate with (p, t) in
    {a : w.a >= c for (w, c) in rows}, or last + 1 for none.

    Each row keeps its slack q = w_head.p - c, one list addition per
    coordinate the odometer advances.  A row with w_last > 0 asks for
    w_last * t >= -q, i.e. t >= -(q // w_last); a row with w_last = 0 holds
    on the whole column when q >= 0 and nowhere on it otherwise.
    """
    *head, last = bounds
    rows = sorted((r for r in rows if r[1] > 0), key=lambda r: r[0][-1] == 0)
    steps = [w[-1] for w, _ in rows if w[-1]]
    rising = len(steps)
    weights = [[w[i] for w, _ in rows] for i in range(len(head))]  # by coordinate
    none = last + 1
    p = [0] * len(head)
    # level[k]: the slacks at p with the coordinates from k on set to 0
    level = [[-c for _, c in rows]] * (len(head) + 1)
    while True:
        q = level[-1]
        if min(q[rising:], default=0) < 0:
            yield none
        else:
            yield min(none, max(0, -min(map(operator.floordiv, q, steps), default=0)))
        i = len(head) - 1
        while i >= 0 and p[i] == head[i]:
            p[i] = 0
            i -= 1
        if i < 0:
            return
        p[i] += 1
        level[i + 1:] = [list(map(operator.add, level[i + 1], weights[i]))] * (
            len(head) - i
        )


def column_staircase(bounds, rows):
    """The staircase of {a : w.a >= c for (w, c) in rows}, w >= 0, one column
    at a time: every column's threshold, empty ones included, is checked
    against the least threshold u over its lower neighbours p - e_i
    (last + 1 for none), and (p, t) is kept when t < u.  Returns the minimal
    points and the count outside."""
    *head, last = bounds
    strides = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head))]
    seen = []
    kept = []
    box = itertools.product(*[range(b + 1) for b in head])
    for p, t in zip(box, _columns(bounds, rows)):
        u = min([seen[-k] for x, k in zip(p, strides) if x], default=last + 1)
        if t < u:
            kept.append(p + (t,))
        seen.append(t)
    return kept, sum(seen)


def _rowwise_inner_rows(bounds, rows):
    """The column thresholds of the box of the first s-1 coordinates, one
    inner row (the columns (p, x) that differ only in the innermost head
    coordinate x) at a time, in lex order and in the given coordinate order.
    Yields (p, x0, ts): the columns x < x0 are empty, and ts holds the
    thresholds of the columns x0..inner, every row's list built afresh.

    Each row keeps its room g = w_head.(p, 0) - c + w_last * last, which
    grows by w_inner per step along the inner row; the columns with a
    negative room in some row are empty, and from x0 on the threshold is
    max(0, last - floor((g + w_inner * x) / w_last)) over the rows with
    w_last > 0.
    """
    rows = [(tuple(w), c) for w, c in rows]
    for w, _ in rows:
        if len(w) != len(bounds) or any(x < 0 for x in w):
            raise PreconditionError(
                f"staircase weights {w} must be {len(bounds)} non-negative integers"
            )
    pad = (0,) * (len(bounds) == 1)
    *outer, inner, last = pad + tuple(bounds)
    rows = sorted(((pad + w, c) for w, c in rows if c > 0), key=lambda r: r[0][-2] > 0)
    width = inner + 1
    fixed = sum(not w[-2] for w, _ in rows)
    steps = [w[-2] for w, _ in rows[fixed:]]
    rising = [(i, w[-2], w[-1]) for i, (w, _) in enumerate(rows) if w[-1]]
    weights = [[w[i] for w, _ in rows] for i in range(len(outer))]  # by coordinate
    p = [0] * len(outer)
    # level[k]: the rooms at (p, 0) with the coordinates from k on set to 0
    level = [[w[-1] * last - c for w, c in rows]] * (len(outer) + 1)
    while True:
        g = level[-1]
        x0, ts = width, []
        if min(g[:fixed], default=0) >= 0:
            x0 = min(width, -min([0, *map(operator.floordiv, g[fixed:], steps)]))
            cols = range(x0, width)
            ts = [0] * len(cols)
            for i, step, up in rising:
                ts = list(map(max, ts, [last - (g[i] + step * x) // up for x in cols]))
        yield tuple(p), x0, ts
        i = len(outer) - 1
        while i >= 0 and p[i] == outer[i]:
            p[i] = 0
            i -= 1
        if i < 0:
            return
        p[i] += 1
        level[i + 1:] = [list(map(operator.add, level[i + 1], weights[i]))] * (
            len(outer) - i
        )


def rowwise_staircase(bounds, rows):
    """The staircase of {a : w.a >= c for (w, c) in rows}, w >= 0, one inner
    row at a time in the given coordinate order, with no threshold list kept
    from one inner row to the next: a column is kept when its threshold lies
    below the least threshold over its left neighbour and the slices of the
    earlier inner rows (p - e_i, x).  Returns the minimal points, in lex
    order with nothing sorted, and the count outside."""
    *head, last = bounds
    none = last + 1
    strides = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head) - 1)]
    seen = []
    kept = []
    for p, x0, ts in _rowwise_inner_rows(bounds, rows):
        n = len(seen) + x0
        seen += [none] * x0
        if ts:
            left = [none] + ts[:-1]
            lower = [seen[n - k : n - k + len(ts)] for y, k in zip(p, strides) if y]
            us = map(min, left, *lower) if lower else left
            kept += [p + (x, t) for (x, t), u in zip(enumerate(ts, x0), us) if t < u]
            seen += ts
    return ([a[1:] for a in kept] if len(bounds) == 1 else kept), sum(seen)


def _room_cached_inner_rows(bounds, rows):
    """The column thresholds of the box of the first s-1 coordinates, one
    inner row (the columns (p, x) that differ only in the innermost head
    coordinate x) at a time, in lex order and in the given coordinate order.
    Yields (p, x0, ts): the columns x < x0 are empty, and ts holds the
    thresholds of the columns x0..inner.

    Each row keeps its room g = w_head.(p, 0) - c + w_last * last, one list
    addition per outer coordinate the odometer advances; along the inner
    row the room grows by w_inner per step.  The empty columns are the
    x < x0 = max ceil(-g / w_inner) over the rows with g < 0, and a row with
    g < 0 and w_inner = 0 empties the whole inner row.  From x0 on, the
    threshold is the largest max(0, last - floor((g + w_inner * x) /
    w_last)) over the rows with w_last > 0; each row keeps its list of these
    over x = 0..inner by room for the length of one call, and an inner row
    slices them at x0.  With s = 1 the one column is the inner row of the
    box [0, 0] x [0, last].
    """
    pad = (0,) * (len(bounds) == 1)
    *outer, inner, last = pad + tuple(bounds)
    # a row with c <= 0 holds on the whole box; the rows with w_inner = 0 first
    rows = sorted(((pad + tuple(w), c) for w, c in rows if c > 0), key=lambda r: r[0][-2] > 0)
    width = inner + 1
    fixed = sum(not w[-2] for w, _ in rows)
    steps = [w[-2] for w, _ in rows[fixed:]]
    rising = [(i, w[-2], w[-1], {}) for i, (w, _) in enumerate(rows) if w[-1]]
    weights = [[w[i] for w, _ in rows] for i in range(len(outer))]  # by coordinate
    p = [0] * len(outer)
    # level[k]: the rooms at (p, 0) with the coordinates from k on set to 0
    level = [[w[-1] * last - c for w, c in rows]] * (len(outer) + 1)
    while True:
        g = level[-1]
        x0, ts = width, []
        if min(g[:fixed], default=0) >= 0:
            x0 = min(width, -min([0, *map(operator.floordiv, g[fixed:], steps)]))
        if x0 < width:
            lists = []
            for i, step, up, by_room in rising:
                room = g[i]
                thresholds = by_room.get(room)
                if thresholds is None:
                    thresholds = by_room[room] = [
                        max(0, last - (room + step * x) // up) for x in range(width)
                    ]
                lists.append(thresholds[x0:])
            if len(lists) > 1:
                ts = list(map(max, *lists))
            else:
                ts = lists[0] if lists else [0] * (width - x0)
        yield tuple(p), x0, ts
        i = len(outer) - 1
        while i >= 0 and p[i] == outer[i]:
            p[i] = 0
            i -= 1
        if i < 0:
            return
        p[i] += 1
        level[i + 1:] = [list(map(operator.add, level[i + 1], weights[i]))] * (
            len(outer) - i
        )


def room_cached_staircase(bounds, rows):
    """The staircase of {a : w.a >= c for (w, c) in rows}, w >= 0, one inner
    row at a time in the given coordinate order, each row's threshold lists
    kept by room for the length of the call: an inner row's x0 empty
    columns go into ``seen`` at once as last + 1, and a column from x0 on is
    kept when its threshold lies below the least threshold over its left
    neighbour and the slices of ``seen`` that hold the earlier inner rows
    (p - e_i, x).  Returns the minimal points, in lex order with nothing
    sorted, and the count outside."""
    *head, last = bounds
    none = last + 1
    strides = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head) - 1)]
    seen = []
    kept = []
    for p, x0, ts in _room_cached_inner_rows(bounds, rows):
        n = len(seen) + x0
        seen += [none] * x0
        if ts:
            left = [none] + ts[:-1]
            lower = [seen[n - k : n - k + len(ts)] for y, k in zip(p, strides) if y]
            us = map(min, left, *lower) if lower else left
            kept += [p + (x, t) for (x, t), u in zip(enumerate(ts, x0), us) if t < u]
            seen += ts
    return ([a[1:] for a in kept] if len(bounds) == 1 else kept), sum(seen)


class _Lines(dict):
    """A row's thresholds along x, built on first use for each room r at
    x = 0.  ``row`` is (step, up, last, up * last, width).  Where q = r +
    step * x >= 0, q + up * (t - last) >= 0 first holds at t = max(0, last -
    q // up), or t = 0 for a flat row (up = 0); where q < 0 no t <= last does."""

    def __missing__(self, room):
        step, up, last, full, width = self.row
        rooms = range(room, room + step * width, step) if step else [room] * width
        line = self[room] = [
            last + 1 if r < 0 else 0 if r >= full else last - r // up for r in rooms
        ]
        return line


def _planes(bounds, rows):
    """The column thresholds of the box of the first s-1 coordinates, plane
    by plane in lex order: a plane is the columns (p, y, x) that share the
    outer coordinates p, a column's threshold the least t with (p, y, x, t)
    in {a : w.a >= c for (w, c) in rows}, last + 1 for none.  Yields (p, ts),
    ts y-major or None for a plane of empty columns.  A box with s < 3 is
    padded in front by bounds 0; bounds and rows come from ``core._by_bound``.

    A row with c <= 0 holds on the whole box.  Each other row keeps its room
    r = w.(p, 0, 0, last) - c, one list addition per outer coordinate the
    odometer advances.  Where r >= w_last * last it holds on the plane at
    t = 0 and is skipped; where r is still negative at the far corner the
    plane is empty.  Otherwise its list is its lines (see :class:`_Lines`) at
    the rooms r + w_y * y chained, and ts is their element-wise max, exact
    as non-negative weights make the set upward closed."""
    pad = (0,) * (3 - len(bounds))
    *outer, ybound, xbound, last = pad + tuple(bounds)
    height, rows = ybound + 1, [(pad + w, c) for w, c in rows if c > 0]
    params = []
    for (*_, wy, wx, up), _ in rows:
        lines = _Lines()
        lines.row = (wx, up, last, up * last, xbound + 1)
        params.append((wy, wy * ybound + wx * xbound, up * last, lines))
    weights = [[w[i] for w, _ in rows] for i in range(len(outer))]  # by coordinate
    p, zeros = [0] * len(outer), [0] * (height * (xbound + 1))
    # level[k]: the rooms at (p, 0, 0) with the coordinates from k on set to 0
    level = [[w[-1] * last - c for w, c in rows]] * (len(outer) + 1)
    while True:
        lists, ts = [], None
        for r, (wy, far, full, lines) in zip(level[-1], params):
            if r + far < 0:
                break
            if r < full:
                ys = range(r, r + wy * height, wy) if wy else [r] * height
                lists.append(list(itertools.chain.from_iterable(map(lines.__getitem__, ys))))
        else:
            ts = list(map(max, *lists)) if len(lists) > 1 else lists[0] if lists else zeros
        yield tuple(p), ts
        i = len(outer) - 1
        while i >= 0 and p[i] == outer[i]:
            p[i] = 0
            i -= 1
        if i < 0:
            return
        p[i] += 1
        level[i + 1:] = [list(map(operator.add, level[i + 1], weights[i]))] * (len(outer) - i)


def plane_staircase(bounds, rows):
    """The staircase of {a : w.a >= c for (w, c) in rows}, w >= 0, one plane
    of column threshold lists at a time: the box is walked with its
    coordinates sorted by ``core._by_bound`` (see :func:`_planes`), and the
    points found are mapped back and sorted.  A column is kept at its
    threshold t when t lies below the least threshold u over its lower
    neighbours (last + 1 for none): the minimum of its left and y - 1
    neighbours and the slices of ``seen`` that hold the planes p - e_i.  An
    empty plane goes into ``seen`` with nothing tested.  Returns the minimal
    points in lex order; :func:`plane_staircase_count` gives the count."""
    order, bounds, rows = core._by_bound(bounds, rows)
    pad = max(0, 3 - len(bounds))
    *outer, ybound, xbound, last = [0] * pad + bounds
    none, width, size = last + 1, xbound + 1, (ybound + 1) * (xbound + 1)
    strides = [size * math.prod(b + 1 for b in outer[i + 1:]) for i in range(len(outer))]
    empty, edge = [none] * size, [none] * (ybound + 1)
    seen, kept = [], []
    for p, ts in _planes(bounds, rows):
        n = len(seen)
        if ts is not None:
            left = [none] + ts[:-1]
            left[::width] = edge
            lower = [seen[n - k : n - k + size] for v, k in zip(p, strides) if v]
            us = map(min, left, empty[:width] + ts[:-width], *lower)
            hits = itertools.compress(range(size), map(operator.lt, ts, us))
            kept += [(*p, *divmod(j, width), ts[j]) for j in hits]
        seen += empty if ts is None else ts
    kept = [a[pad:] for a in kept] if pad else kept
    if order != sorted(order):
        # coordinate k of the walk is coordinate order[k] of the box
        back = operator.itemgetter(*sorted(range(len(order)), key=order.__getitem__))
        kept = sorted(map(back, kept))
    return kept


def plane_staircase_count(bounds, rows):
    """Number of box points outside {a : w.a >= c for (w, c) in rows}, w >= 0:
    the sum of the column thresholds over the walk of :func:`plane_staircase`."""
    _, bounds, rows = core._by_bound(bounds, rows)
    size = math.prod(b + 1 for b in bounds[-3:])  # an empty plane's count
    return sum(size if ts is None else sum(ts) for _, ts in _planes(bounds, rows))


def solve_coordinates(vector, basis):
    """Integer coordinates of vector in the lattice basis, or None, from one
    ``linalg.solve`` of the system with the basis rows as columns.  The
    oracle of ``linalg.lattice_coordinates``."""
    sol = linalg.solve(list(zip(*basis)), vector)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def eliminated_lattice_coordinates(vectors, basis):
    """Integer coordinates of each vector in the lattice basis (independent
    rows), or None for a vector outside the lattice, from one elimination.

    The reduced echelon form of [basis | I] is [R | E] with R = E * basis,
    as the basis rows are independent.  A vector v of the row space is
    y * R with y its entries at the pivot columns, and its coordinates are
    y * E.  Both are checked in integers, with d the lcm of the pivots:
    d * (y * R) = d * v, and d divides d * (y * E).  The oracle of
    ``linalg.lattice_coordinates``, which needs an echelon basis.
    """
    if not basis:
        return [None] * len(vectors)
    n, k = len(basis[0]), len(basis)
    mat = [[*map(int, b)] + [int(i == j) for j in range(k)] for i, b in enumerate(basis)]
    pivots, _, _ = linalg._eliminate(mat)
    if len(pivots) < k or pivots[-1] >= n:
        raise PreconditionError("lattice basis rows must be independent")
    d = math.lcm(*(row[c] for row, c in zip(mat, pivots)))
    columns = list(zip(*[[x * (d // r[c]) for x in r] for r, c in zip(mat, pivots)]))
    coords = []
    for v in vectors:
        y = [v[c] for c in pivots]
        image = [linalg.vec_dot(y, col) for col in columns]
        if image[:n] != [d * x for x in v] or any(x % d for x in image[n:]):
            coords.append(None)
        else:
            coords.append(tuple(x // d for x in image[n:]))
    return coords


def saturation_basis(rows):
    """Basis of (Q-row-span of rows) intersected with Z^n: the integer
    kernel of the span's equations, ``linalg.integer_nullspace``."""
    rows = [tuple(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    return linalg.integer_kernel_basis(linalg.integer_nullspace(rows)[0], len(rows[0]))


def coordinates_in_basis(vector, basis):
    """Integer coordinates of vector in the given lattice basis, or None."""
    return linalg.lattice_coordinates([vector], basis)[0]


def power_oracle(a, ideal, n, max_p=None):
    """The (t^a)^p in I^{pn} oracle for closure membership.

    Searches p = 1..max_p; max_p defaults to a witness-denominator bound
    when a witness exists, else a small constant.  Independent of the
    polyhedral route; used to cross-examine it.
    """
    a = tuple(a)
    if max_p is None:
        ok, y = closure.membership(a, ideal, n, witness=True)
        if not ok:
            max_p = 4
        else:
            max_p = math.lcm(*[Fraction(v).denominator for v in y]) if y else 1
            max_p = max(max_p, 1)
    for p in range(1, max_p + 1):
        target = tuple(p * x for x in a)
        if ideal_power(ideal, p * n).contains_monomial(target):
            return True, p
    return False, None


def divisibility_gaps(ideal, closures):
    """The gaps of ``closure._gaps`` by divisibility scans: g is in I*J iff
    some generator h of I divides g with g - h in J, closure(I^0) being S."""
    gaps = {}
    for n, closed in closures.items():
        lower = closures.get(n - 1)
        for g in closed.gens:
            quotients = (
                core.vec_sub_clamped(g, h) for h in ideal.gens if core.divides(h, g)
            )
            if not any(lower is None or lower.contains_monomial(q) for q in quotients):
                gaps[n] = g
                break
    return gaps


def _neighborhood(graph, vertices):
    out = set()
    for v in vertices:
        out |= graph.neighbors(v)
    return out


def neighborhood_hochster_configurations(graph, budget=14):
    """Hochster configurations by the test C1 disjoint from N(C2), over
    every pair of induced odd cycles."""
    odd = graphs.induced_cycles(graph, parity="odd", budget=budget)
    out = []
    for c1, c2 in itertools.combinations(odd, 2):
        set1 = set(c1.vertices)
        set2 = set(c2.vertices)
        if set1 & set2:
            continue
        if set1 & _neighborhood(graph, set2):
            continue
        out.append(graphs.HochsterConfiguration(graph.s, c1, c2))
    return out


def edge_scan_odd_cycle_condition(graph, budget=14):
    """The odd cycle condition by scanning, for every two vertex-disjoint
    induced odd cycles, the vertex pairs between them for an edge."""
    odd = graphs.induced_cycles(graph, parity="odd", budget=budget)
    for c1, c2 in itertools.combinations(odd, 2):
        set1 = set(c1.vertices)
        set2 = set(c2.vertices)
        if set1 & set2:
            continue
        if not any(graph.adjacent(a, b) for a in set1 for b in set2):
            return False
    return True


def pair_loop_bowties(graph, budget=14):
    """Bowties by their own loop over the pairs of induced odd cycles."""
    odd = graphs.induced_cycles(graph, parity="odd", budget=budget)
    out = []
    for c1, c2 in itertools.combinations(odd, 2):
        set1 = set(c1.vertices)
        set2 = set(c2.vertices)
        common = set1 & set2
        if len(common) > 1:
            continue
        if len(common) == 1:
            out.append(graphs.Bowtie(graph.s, c1, c2, ()))
            continue
        path = graphs._connecting_path(graph, set1, set2)
        if path is not None:
            out.append(graphs.Bowtie(graph.s, c1, c2, path))
    return out
