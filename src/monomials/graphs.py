"""Graph-combinatorial criteria for edge ideals and edge subrings.

Induced odd cycles drive everything here: Hochster configurations (the
normality obstruction for the Rees algebra), bowties (the extra generators
of the edge subring closure), the odd cycle condition, and the odd-girth
description of the first symbolic/ordinary power gap.  Loops, when allowed,
count as odd cycles of length one.
"""

import itertools
from math import inf

from monomials import closure as closure_mod
from monomials import polyhedra
from monomials.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    PreconditionError,
)
from monomials.linalg import integer_row_basis, rank as mat_rank


class CycleRecord:
    """An induced cycle, stored with a canonical vertex rotation."""

    __slots__ = ("vertices", "odd")

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.odd = len(self.vertices) % 2 == 1

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, CycleRecord) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"CycleRecord{self.vertices}"


def require_cycle_budget(s, budget):
    """Cycle enumeration is refused on more than ``budget`` vertices."""
    if s > budget:
        raise BudgetExceededError(
            f"cycle enumeration limited to s <= {budget}, got {s}",
            needed=s,
            budget=budget,
            stage="require_cycle_budget",
        )


def induced_cycles(graph, parity=None, budget=14):
    """All induced (chordless) cycles, canonically rotated.

    Paths grow from their minimum vertex; a new vertex may touch only the
    path's last vertex, except the start vertex, contact with which closes
    the cycle.  ``parity`` filters to "odd"/"even"; loops come first.
    """
    require_cycle_budget(graph.s, budget)
    cycles = []
    if graph.multigraph and parity != "even":
        cycles.extend(CycleRecord((v,)) for v in graph.loops)
    for v in range(graph.s):
        _extend_path(graph, (v,), {v}, cycles)
    if parity == "odd":
        cycles = [c for c in cycles if c.odd]
    elif parity == "even":
        cycles = [c for c in cycles if not c.odd]
    return sorted(cycles, key=lambda c: (len(c), c.vertices))


def _extend_path(graph, path, members, cycles):
    """Grow an induced path, appending each cycle it closes to ``cycles``."""
    last = path[-1]
    start = path[0]
    for w in sorted(graph.neighbors(last)):
        if w in members or w < start:
            continue
        touches = graph.neighbors(w) & members
        if len(path) >= 2 and touches == {last, start}:
            if path[1] < w:  # one orientation per cycle
                cycles.append(CycleRecord(path + (w,)))
        if touches == {last}:
            _extend_path(graph, path + (w,), members | {w}, cycles)


def _odd_cycle_pairs(graph, budget):
    """Each unordered pair of induced odd cycles, in the order of
    :func:`induced_cycles`, as (c1, c2, shared vertices, whether an edge
    joins a vertex of c1 to one of c2)."""
    odd = induced_cycles(graph, parity="odd", budget=budget)
    for c1, c2 in itertools.combinations(odd, 2):
        set1 = set(c1.vertices)
        set2 = set(c2.vertices)
        joined = any(graph.neighbors(v) & set2 for v in set1)
        yield c1, c2, set1 & set2, joined


def _pair_monomial(s, cycle1, cycle2):
    """The product of the variables over both cycles' vertices."""
    exps = [0] * s
    for v in cycle1.vertices + cycle2.vertices:
        exps[v] += 1
    return tuple(exps)


class HochsterConfiguration:
    """Two induced odd cycles with C1 disjoint from N(C2).

    ``monomial`` is the product over both vertex sets and ``z_degree`` the
    half total length; together they name the Rees-closure generator the
    configuration contributes.
    """

    __slots__ = ("cycle1", "cycle2", "monomial", "z_degree")

    def __init__(self, s, cycle1, cycle2):
        self.cycle1 = cycle1
        self.cycle2 = cycle2
        self.monomial = _pair_monomial(s, cycle1, cycle2)
        self.z_degree = (len(cycle1) + len(cycle2)) // 2

    def __repr__(self):
        return (
            f"HochsterConfiguration({self.cycle1.vertices}, "
            f"{self.cycle2.vertices}, z^{self.z_degree})"
        )


def hochster_configurations(graph, budget=14):
    """All unordered Hochster configurations of the graph.

    The defining conditions: both cycles induced and odd, and C1 disjoint
    from N(C2), that is, vertex-disjoint with no joining edge (a longer
    joining path does not interfere).
    """
    return [
        HochsterConfiguration(graph.s, c1, c2)
        for c1, c2, common, joined in _odd_cycle_pairs(graph, budget)
        if not common and not joined
    ]


def edge_ideal_normal(graph, budget=14):
    """I(G) is normal iff the graph has no Hochster configurations."""
    return not hochster_configurations(graph, budget=budget)


def rees_closure_generators(graph, budget=14, cross_validate=False):
    """Monomial generators adjoined to the Rees algebra by normalization.

    Returns the set of (exponent vector, z-degree) pairs of the Hochster
    monomials.  With ``cross_validate`` the Hilbert basis of the Rees cone
    is checked to lie inside the lifted generators plus these monomials.
    """
    configs = hochster_configurations(graph, budget=budget)
    gens = sorted({(c.monomial, c.z_degree) for c in configs})
    if cross_validate:
        rees = closure_mod.rees_representation(graph.edge_ideal()).generators
        allowed = set(rees) | {m + (z,) for m, z in gens}
        stray = [h for h in polyhedra.hilbert_basis(rees) if h not in allowed]
        if stray:
            raise InternalConsistencyError(
                f"Rees closure has generators beyond the Hochster monomials: {stray}"
            )
    return gens


class Bowtie:
    """Two induced odd cycles sharing at most one vertex, connected in G.

    For vertex-disjoint cycles, ``path`` is a witness path meeting each
    cycle exactly once; for cycles sharing a vertex it is empty.
    """

    __slots__ = ("cycle1", "cycle2", "path", "monomial")

    def __init__(self, s, cycle1, cycle2, path):
        self.cycle1 = cycle1
        self.cycle2 = cycle2
        self.path = tuple(path)
        self.monomial = _pair_monomial(s, cycle1, cycle2)

    def __repr__(self):
        return f"Bowtie({self.cycle1.vertices}, {self.cycle2.vertices})"


def _connecting_path(graph, set1, set2):
    """A path from set1 to set2 meeting each set exactly once, or None."""
    blocked = set1 | set2
    for a in sorted(set1):
        parent = {a: None}
        stack = [a]
        while stack:
            v = stack.pop()
            for w in sorted(graph.neighbors(v)):
                if w in set2:
                    path = [w, v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if w not in blocked and w not in parent:
                    parent[w] = v
                    stack.append(w)
    return None


def bowties(graph, budget=14):
    """All bowties: cycle pairs sharing one vertex, or joined by a path."""
    out = []
    for c1, c2, common, _ in _odd_cycle_pairs(graph, budget):
        if len(common) == 1:
            out.append(Bowtie(graph.s, c1, c2, ()))
        elif not common:
            path = _connecting_path(graph, set(c1.vertices), set(c2.vertices))
            if path is not None:
                out.append(Bowtie(graph.s, c1, c2, path))
    return out


def edge_subring_closure(graph, budget=14):
    """Generators of the closure of the edge subring: edges plus bowties."""
    ideal = graph.edge_ideal()
    gens = set(ideal.gens)
    for b in bowties(graph, budget=budget):
        gens.add(b.monomial)
    return sorted(gens)


def edge_subring_closure_via_hilbert(graph):
    """Hilbert basis of the edge-subring closure monoid ZA meet R+A.

    Works in coordinates of the lattice generated by the edge vectors, so
    the answer is the minimal generating set of the monoid whose semigroup
    ring is the integral closure of K[G].  Cross-validates the bowtie
    description.
    """
    gens = graph.edge_ideal().gens
    return sorted(
        polyhedra.hilbert_basis_in_lattice(gens, integer_row_basis(gens))
    )


def odd_cycle_condition(graph, budget=14):
    """Every two vertex-disjoint odd cycles are joined by an edge: the graph
    has no Hochster configuration.

    Checking induced odd cycles suffices: any offending pair contains an
    offending induced pair.
    """
    return not hochster_configurations(graph, budget=budget)


def edge_subring_normal(graph, budget=14):
    """For connected graphs, K[G] is normal iff the odd cycle condition holds."""
    if not graph.is_connected():
        raise PreconditionError(
            "the odd-cycle-condition equivalence needs a connected graph"
        )
    return odd_cycle_condition(graph, budget=budget)


def odd_girth(graph):
    """Length of a shortest odd cycle (inf when bipartite).

    BFS from every vertex; an edge inside one BFS level closes an odd walk,
    and the minimum over all such walks is attained by a shortest odd cycle.
    """
    if graph.multigraph and graph.loops:
        return 1
    best = inf
    for root in range(graph.s):
        dist = {root: 0}
        order = [root]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    order.append(w)
        for a, b in graph.edges:
            if a in dist and b in dist and dist[a] == dist[b]:
                best = min(best, dist[a] + dist[b] + 1)
    return best


def simis_failure_degree(graph):
    """Least r0 with I^{r0} != I^{(r0)}: (odd girth + 1)/2; None if bipartite."""
    g = odd_girth(graph)
    if g == inf:
        return None
    return (g + 1) // 2


def number_of_bipartite_components(graph):
    return sum(bipartite for _, bipartite in graph.colored_components())


def number_of_nonbipartite_components(graph):
    return sum(not bipartite for _, bipartite in graph.colored_components())


def edge_subring_dimension(graph):
    """dim K[G] = s - (number of bipartite components) = rank of A."""
    ideal = graph.edge_ideal()
    formula = graph.s - number_of_bipartite_components(graph)
    by_rank = mat_rank([list(g) for g in ideal.gens])
    if formula != by_rank:
        raise InternalConsistencyError(
            f"dimension formula {formula} != incidence rank {by_rank}"
        )
    return formula


def ehrhart_normality_criterion(graph, budget=14):
    """Three-route test of normality of I(G) via its Ehrhart ring.

    Routes, each independent:
      * smith: Delta_r of the lifted edge matrix B, whose columns are the
        (v_i, 1) over the edge vectors, equals 1 (component count via
        2^(c1-1)) and the unique non-bipartite component, if any, has no
        Hochster configuration;
      * hochster: no Hochster configuration in the whole graph;
      * hilbert: the Rees cone Hilbert basis adds nothing (normality);
    plus the literal subring identity: the cone over the lifted edge
    vectors has Hilbert basis inside the lifted edge vectors themselves.
    Any disagreement raises.  Returns (verdict, diagnosis dict).
    """
    ideal = graph.edge_ideal()
    cols = [g + (1,) for g in ideal.gens]  # the columns of B
    delta, _ = polyhedra.smith_invariant(list(zip(*cols)))
    odd = [comp for comp, bipartite in graph.colored_components() if not bipartite]
    c1 = len(odd)
    expected_delta = 2 ** (c1 - 1) if c1 >= 1 else 1
    if delta != expected_delta:
        raise InternalConsistencyError(
            f"Delta_r = {delta} but {c1} non-bipartite components"
        )
    by_hochster = edge_ideal_normal(graph, budget=budget)
    if c1 == 0:
        by_smith = True
    elif c1 == 1:
        by_smith = delta == 1 and (
            by_hochster if len(odd[0]) == graph.s  # it induces the graph itself
            else edge_ideal_normal(graph.induced(odd[0]), budget)
        )
    else:
        by_smith = False

    by_hilbert = bool(closure_mod.is_normal(ideal, method="hilbert"))

    basis = polyhedra.hilbert_basis(cols)
    subring_identity = set(basis) <= set(cols)

    verdicts = {by_smith, by_hochster, by_hilbert, subring_identity}
    if len(verdicts) != 1:
        raise InternalConsistencyError(
            "Ehrhart normality routes disagree: "
            f"smith={by_smith}, hochster={by_hochster}, "
            f"hilbert={by_hilbert}, subring={subring_identity}"
        )
    diagnosis = {
        "delta_r": delta,
        "nonbipartite_components": c1,
        "smith_route": by_smith,
        "hochster_route": by_hochster,
        "hilbert_route": by_hilbert,
        "subring_identity": subring_identity,
    }
    return by_hochster, diagnosis


# ---------------------------------------------------------------------------
# unmixed and Cohen-Macaulay combinatorics
# ---------------------------------------------------------------------------

def is_unmixed(clutter):
    """All minimal vertex covers have the same size."""
    sizes = {len(c) for c in clutter.minimal_covers()}
    return len(sizes) == 1


def _bipartitions(graph):
    """All (left, right) bipartitions compatible with the components."""
    coloring = graph.two_coloring()
    if coloring is None:
        return
    comps = graph.components()
    for flips in itertools.product((0, 1), repeat=len(comps)):
        left = set()
        for comp, flip in zip(comps, flips):
            for v in comp:
                if coloring[v] ^ flip == 0:
                    left.add(v)
        yield tuple(sorted(left)), tuple(
            sorted(set(range(graph.s)) - left)
        )


def _perfect_matchings(graph, left, right):
    """All perfect matchings as tuples of (left vertex, right vertex)."""
    if len(left) != len(right):
        return
    yield from _match_from(graph, left, set(right), set(), [])


def _match_from(graph, left, right, used, acc):
    """Perfect matchings that extend ``acc``, which matches the first
    len(acc) left vertices to the ``used`` right ones."""
    if len(acc) == len(left):
        yield tuple(acc)
        return
    x = left[len(acc)]
    for y in graph.neighbors(x):
        if y in used or y not in right:
            continue
        acc.append((x, y))
        used.add(y)
        yield from _match_from(graph, left, right, used, acc)
        used.discard(y)
        acc.pop()


def _transitive(graph, xs, ys, triples):
    """No (i, j, k) in ``triples`` has {x_i, y_j} and {x_j, y_k} as edges
    but not {x_i, y_k}."""
    return not any(
        graph.adjacent(xs[i], ys[j])
        and graph.adjacent(xs[j], ys[k])
        and not graph.adjacent(xs[i], ys[k])
        for i, j, k in triples
    )


def unmixed_bipartite_check(graph):
    """Combinatorial unmixedness for bipartite graphs.

    Looks for a perfect matching {x_i, y_i} such that whenever {x_i, y_j}
    and {x_j, y_k} are edges with i, j, k distinct, so is {x_i, y_k}.
    Must agree with the minimal-cover count; disagreement raises.
    """
    if not graph.is_bipartite():
        raise PreconditionError("bipartite graph expected")
    if graph.clutter().has_isolated_vertex():
        raise PreconditionError("isolated vertices are excluded")
    found = any(
        _transitive(
            graph, [x for x, _ in matching], [y for _, y in matching],
            itertools.permutations(range(len(matching)), 3),
        )
        for left, right in _bipartitions(graph)
        for matching in _perfect_matchings(graph, left, right)
    )
    direct = is_unmixed(graph.clutter())
    if found != direct:
        raise InternalConsistencyError(
            f"combinatorial unmixedness {found} != cover-count {direct}"
        )
    return found


def cm_bipartite(graph):
    """Cohen-Macaulayness of a bipartite graph, by the ordered matching test.

    Searches for a perfect matching and an ordering of its pairs with
    (i) matched edges present, (ii) every edge going weakly up, and (iii)
    up-up transitivity.  Exhaustive over matchings and order extensions.
    """
    if not graph.is_bipartite():
        raise PreconditionError("bipartite graph expected")
    if graph.clutter().has_isolated_vertex():
        raise PreconditionError("isolated vertices are excluded")
    for left, right in _bipartitions(graph):
        g = len(left)
        if len(right) != g or g > 8:
            if g > 8:
                raise PreconditionError("ordering search limited to g <= 8")
            continue
        for matching in _perfect_matchings(graph, left, right):
            xs = [m[0] for m in matching]
            ys = [m[1] for m in matching]
            # (ii) forces pos(a) <= pos(b) for every edge {x_a, y_b}
            succ = [set() for _ in range(g)]
            for a in range(g):
                for b in range(g):
                    if a != b and graph.adjacent(xs[a], ys[b]):
                        succ[a].add(b)
            for order in _linear_extensions(succ, [], set()):
                ox = [xs[a] for a in order]
                oy = [ys[a] for a in order]
                if _transitive(graph, ox, oy, itertools.combinations(range(g), 3)):
                    return True
    return False


def _linear_extensions(succ, prefix, placed):
    """Orders of range(len(succ)) extending ``prefix`` (whose members are
    ``placed``) in which every a precedes each b in succ[a]."""
    g = len(succ)
    if len(prefix) == g:
        yield tuple(prefix)
        return
    for a in range(g):
        if a in placed:
            continue
        # a may be placed next if no unplaced b must precede it
        if any(b not in placed and a in succ[b] for b in range(g)):
            continue
        prefix.append(a)
        placed.add(a)
        yield from _linear_extensions(succ, prefix, placed)
        placed.discard(a)
        prefix.pop()


def is_tree(graph):
    return (
        graph.is_connected()
        and len(graph.edges) == graph.s - 1
        and not graph.loops
    )


def cm_tree(graph):
    """A tree is Cohen-Macaulay iff it is a whisker graph over a tree."""
    if not is_tree(graph):
        raise PreconditionError("tree expected")
    s = graph.s
    if s == 2:
        return True
    if s % 2:
        return False
    leaves = {v for v in range(s) if graph.degree(v) == 1}
    if len(leaves) != s // 2:
        return False
    body = sorted(set(range(s)) - leaves)
    for y in body:
        if len(graph.neighbors(y) & leaves) != 1:
            return False
    return graph.induced(body).is_connected()
