"""Monomial ideals, clutters and graphs over exact integers.

Monomials are exponent vectors: plain tuples of non-negative ints of a
fixed length ``s``.  A :class:`MonomialIdeal` stores the divisibility-minimal
generating set in a canonical sorted order, so equal ideals compare equal.
The unit and zero ideals are never represented; operations that can collapse
to them return the :data:`UNIT` / :data:`ZERO` sentinels instead.
"""

import itertools
from collections import OrderedDict
from functools import wraps
from math import prod
from operator import add, itemgetter, le, lt

from monomials.errors import BudgetExceededError, PreconditionError

#: Results kept by each :func:`memo` cache.
MEMO_SIZE = 128


def memo(fn):
    """``fn`` memoized on its positional arguments, which must be hashable
    canonical values; the MEMO_SIZE most recently used results are kept.
    The cache is the wrapper's ``cache`` attribute."""
    cache = OrderedDict()

    @wraps(fn)
    def cached(*args):
        if args in cache:
            cache.move_to_end(args)
            return cache[args]
        value = cache[args] = fn(*args)
        if len(cache) > MEMO_SIZE:
            cache.popitem(last=False)
        return value

    cached.cache = cache
    return cached


def divides(a, b):
    """Componentwise a <= b, i.e. t^a divides t^b."""
    return all(map(le, a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub_clamped(a, b):
    """Componentwise max(a - b, 0)."""
    return tuple(max(x - y, 0) for x, y in zip(a, b))


def support(a):
    """Indices of the non-zero entries."""
    return frozenset(i for i, x in enumerate(a) if x)


def _minimalize(vectors):
    """Divisibility-minimal subset of a set of exponent vectors.

    Sorting by total degree first means a vector can only be divided by an
    earlier one, so one forward pass suffices.
    """
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        if not any(divides(u, v) for u in kept):
            kept.append(v)
    return sorted(kept)


class _Sentinel:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<{self.name} ideal>"


#: Returned by :func:`minor` when a substitution turns a generator into 1.
UNIT = _Sentinel("unit")
#: Returned by :func:`minor` when every generator is sent to 0.
ZERO = _Sentinel("zero")


class MonomialIdeal:
    """A proper monomial ideal, stored by its minimal generating set.

    The constructor minimalizes and canonically sorts the generators, so
    construction is idempotent and equality is structural.
    """

    __slots__ = ("s", "gens")

    def __init__(self, s, gens):
        gens = [tuple(int(x) for x in g) for g in gens]
        if not gens:
            raise PreconditionError("a monomial ideal needs at least one generator")
        if s < 1:
            raise PreconditionError("ambient variable count must be >= 1")
        for g in gens:
            if len(g) != s:
                raise PreconditionError(
                    f"generator {g} has length {len(g)}, expected {s}"
                )
            if any(x < 0 for x in g):
                raise PreconditionError(f"negative exponent in {g}")
        if any(all(x == 0 for x in g) for g in gens):
            raise PreconditionError("the unit ideal is not represented")
        self.s = s
        self.gens = tuple(_minimalize(gens))

    @classmethod
    def _from_minimal(cls, s, gens):
        """The ideal of ``gens``, which must already be non-empty,
        divisibility-minimal and in lexicographic order, as a staircase
        emits them; nothing is checked, minimalized or sorted."""
        ideal = cls.__new__(cls)
        ideal.s = s
        ideal.gens = tuple(gens)
        return ideal

    # -- structural ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.s == other.s
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.s, self.gens))

    def __repr__(self):
        terms = []
        for g in self.gens:
            factors = [
                f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
                for i, e in enumerate(g)
                if e
            ]
            terms.append("*".join(factors))
        return "MonomialIdeal(" + ", ".join(terms) + ")"

    @property
    def num_generators(self):
        return len(self.gens)

    def incidence_matrix(self):
        """The s x m matrix A whose columns are the exponent vectors."""
        return tuple(tuple(g[i] for g in self.gens) for i in range(self.s))

    def is_squarefree(self):
        return all(all(x <= 1 for x in g) for g in self.gens)

    def is_uniform(self):
        degs = {sum(g) for g in self.gens}
        return len(degs) == 1

    def generator_degree(self):
        degs = {sum(g) for g in self.gens}
        if len(degs) != 1:
            raise PreconditionError("ideal is not uniform")
        return degs.pop()

    def max_exponents(self):
        """Componentwise maximum over the generators."""
        return tuple(max(g[i] for g in self.gens) for i in range(self.s))

    def has_zero_row(self):
        """True when some variable appears in no generator."""
        return any(all(g[i] == 0 for g in self.gens) for i in range(self.s))

    def contains_monomial(self, a):
        """t^a in I, i.e. some generator divides a."""
        return any(divides(g, a) for g in self.gens)

    def contains_ideal(self, other):
        """other subseteq self, tested generator-wise."""
        return all(self.contains_monomial(g) for g in other.gens)

    def clutter(self):
        """The clutter of supports; only meaningful for squarefree ideals."""
        if not self.is_squarefree():
            raise PreconditionError("clutter view requires a squarefree ideal")
        return self._support_clutter()

    def _support_clutter(self):
        """The inclusion-minimal supports of the generators: sqrt(I) is
        generated by them, and I has the same minimal primes."""
        masks = _minimal_masks(_mask(support(g)) for g in self.gens)
        return Clutter(self.s, [_members(m) for m in masks])

    def height(self):
        """ht(I) = covering number of the support clutter."""
        return covering_number(self._support_clutter())

    def minimal_primes(self):
        """Minimal vertex covers of the support clutter, as index tuples."""
        return self._support_clutter().minimal_covers()

    def big_height(self):
        """Largest cardinality of a minimal prime (squarefree ideals)."""
        if not self.is_squarefree():
            raise PreconditionError("big height implemented for squarefree ideals")
        return max(len(c) for c in self.minimal_primes())

    def intersect(self, other):
        """Intersection of two monomial ideals via pairwise lcms."""
        if self.s != other.s:
            raise PreconditionError("ambient mismatch")
        lcms = {
            tuple(max(x, y) for x, y in zip(g, h))
            for g in self.gens
            for h in other.gens
        }
        return MonomialIdeal(self.s, lcms)


def minimal_generating_set(gens, s=None):
    """Canonicalize a set of exponent vectors into a MonomialIdeal."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise PreconditionError("empty generating set")
    if s is None:
        s = len(gens[0])
    return MonomialIdeal(s, gens)


def ideal_product(a, b):
    """Minimal generators of the product of two monomial ideals.  The sums
    of validated generators are valid, so they are only minimalized."""
    if a.s != b.s:
        raise PreconditionError("ambient mismatch")
    sums = {vec_add(g, h) for g in a.gens for h in b.gens}
    return MonomialIdeal._from_minimal(a.s, _minimalize(sums))


def ideal_power(ideal, n):
    """I^n, built as I * I^(n-1) and minimalized at every step."""
    if n < 1:
        raise PreconditionError("ideal_power requires n >= 1 (I^0 is the unit ideal)")
    power = ideal
    for _ in range(n - 1):
        power = ideal_product(ideal, power)
    return power


def _by_bound(bounds, rows):
    """The box and the system with their coordinates sorted by bound, stably,
    and that order: the staircase walks the box in it, so the largest bound
    is the closed-form last coordinate and the next two span the planes.
    Bounds, weights and constants must be ints; only constants may be < 0."""
    bounds = list(bounds)
    if not bounds or {*map(type, bounds)} != {int} or min(bounds) < 0:
        raise PreconditionError(f"staircase bounds {bounds} must be non-negative integers")
    rows = [(tuple(w), c) for w, c in rows]
    for w, c in rows:
        if len(w) != len(bounds) or {type(c), *map(type, w)} != {int} or min(w) < 0:
            raise PreconditionError(f"staircase row {(w, c)} needs {len(bounds)} "
                                    "non-negative integer weights and an integer")
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    if order == sorted(order):
        return order, bounds, rows
    pick = itemgetter(*order)
    return order, list(pick(bounds)), [(pick(w), c) for w, c in rows]


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
    padded in front by bounds 0; bounds and rows come from :func:`_by_bound`.

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
        level[i + 1:] = [list(map(add, level[i + 1], weights[i]))] * (len(outer) - i)


def staircase(bounds, rows):
    """Minimal points, in lexicographic order, of {a : w.a >= c for (w, c) in
    rows} with every w >= 0 in the box prod [0, b_i].  The box is walked with
    its coordinates sorted by bound (see :func:`_by_bound`), one plane at a
    time (see :func:`_planes`), and the points found are mapped back and
    sorted.  A column is kept at its threshold t when t lies below the least
    threshold u over its lower neighbours (last + 1 for none): the minimum of
    its left and y - 1 neighbours and the slices of ``seen`` that hold the
    planes p - e_i.  An empty plane goes into ``seen`` with nothing tested."""
    order, bounds, rows = _by_bound(bounds, rows)
    pad = max(0, 3 - len(bounds))
    *outer, ybound, xbound, last = [0] * pad + bounds
    none, width, size = last + 1, xbound + 1, (ybound + 1) * (xbound + 1)
    strides = [size * prod(b + 1 for b in outer[i + 1:]) for i in range(len(outer))]
    empty, edge = [none] * size, [none] * (ybound + 1)
    seen, kept = [], []
    for p, ts in _planes(bounds, rows):
        n = len(seen)
        if ts is not None:
            left = [none] + ts[:-1]
            left[::width] = edge
            lower = [seen[n - k : n - k + size] for v, k in zip(p, strides) if v]
            us = map(min, left, empty[:width] + ts[:-width], *lower)
            hits = itertools.compress(range(size), map(lt, ts, us))
            kept += [(*p, *divmod(j, width), ts[j]) for j in hits]
        seen += empty if ts is None else ts
    kept = [a[pad:] for a in kept] if pad else kept
    if order != sorted(order):
        # coordinate k of the walk is coordinate order[k] of the box
        back = itemgetter(*sorted(range(len(order)), key=order.__getitem__))
        kept = sorted(map(back, kept))
    return kept


def require_box(bounds, budget, stage, label):
    """Refuse the box prod [0, b_i] before any walk when it holds more than
    ``budget`` points; ``label`` names the box in the message."""
    size = prod(b + 1 for b in bounds)
    if size > budget:
        raise BudgetExceededError(
            f"{label} box has {size} points", needed=size, budget=budget, stage=stage
        )


def staircase_count(bounds, rows):
    """Number of box points outside {a : w.a >= c for (w, c) in rows}, w >= 0:
    the sum of the column thresholds over the walk of :func:`staircase`."""
    _, bounds, rows = _by_bound(bounds, rows)
    size = prod(b + 1 for b in bounds[-3:])  # an empty plane's count
    return sum(size if ts is None else sum(ts) for _, ts in _planes(bounds, rows))


def colon_monomial(ideal, a):
    """(I : t^a); generators are max(v_i - a, 0), minimalized.

    When t^a lies in I the colon is the unit ideal; the UNIT sentinel is
    returned in that case.
    """
    a = tuple(a)
    if len(a) != ideal.s:
        raise PreconditionError("shape mismatch in colon")
    gens = [vec_sub_clamped(g, a) for g in ideal.gens]
    if any(not any(g) for g in gens):
        return UNIT
    return MonomialIdeal(ideal.s, gens)


def alexander_dual(ideal):
    """Ideal of covers I^vee: monomials of the minimal vertex covers."""
    if not ideal.is_squarefree():
        raise PreconditionError("Alexander dual requires a squarefree ideal")
    covers = ideal.clutter().minimal_covers()
    gens = [tuple(1 if i in c else 0 for i in range(ideal.s)) for c in covers]
    return MonomialIdeal._from_minimal(ideal.s, sorted(gens))  # covers are minimal


def minor(ideal, assignment):
    """Substitute variables by 0 or 1 and minimalize.

    ``assignment`` maps variable indices to 0 or 1.  Variables set to 1 are
    dropped from the ambient ring, so a proper minor lives on the unassigned
    variables.  Returns :data:`UNIT` if a generator becomes 1 and
    :data:`ZERO` if every generator vanishes; neither is a minor.
    """
    for i, val in assignment.items():
        if not 0 <= i < ideal.s or val not in (0, 1):
            raise PreconditionError(f"bad assignment {i}->{val}")
    keep = [i for i in range(ideal.s) if i not in assignment]
    new_gens = []
    for g in ideal.gens:
        if any(g[i] > 0 and assignment[i] == 0 for i in assignment):
            continue  # generator killed by a 0-substitution
        reduced = tuple(g[i] for i in keep)
        if all(x == 0 for x in reduced):
            return UNIT
        new_gens.append(reduced)
    if not new_gens or not keep:
        return ZERO
    return MonomialIdeal(len(keep), new_gens)


class Clutter:
    """A family of pairwise inclusion-incomparable non-empty vertex subsets."""

    __slots__ = ("s", "edges")

    def __init__(self, s, edges):
        edges = sorted({tuple(sorted(set(e))) for e in edges})
        if any(not e for e in edges):
            raise PreconditionError("clutter edges must be non-empty")
        if any(not 0 <= v < s for e in edges for v in e):
            raise PreconditionError("vertex index out of range")
        for e, f in itertools.combinations(edges, 2):
            if set(e) <= set(f) or set(f) <= set(e):
                raise PreconditionError(
                    f"edges {e} and {f} are inclusion-comparable"
                )
        self.s = s
        self.edges = tuple(edges)

    def __eq__(self, other):
        return (
            isinstance(other, Clutter)
            and self.s == other.s
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.s, self.edges))

    def __repr__(self):
        return f"Clutter(s={self.s}, edges={list(self.edges)})"

    def has_isolated_vertex(self):
        return _mask_union(map(_mask, self.edges)).bit_count() < self.s

    def edge_ideal(self):
        gens = [
            tuple(1 if i in set(e) else 0 for i in range(self.s)) for e in self.edges
        ]
        return MonomialIdeal(self.s, gens)

    def minimal_covers(self):
        """All minimal transversals as sorted vertex tuples, in sorted order."""
        return sorted(_members(m) for m in _cover_masks(self.edges))

    def blocker(self):
        return Clutter(self.s, self.minimal_covers())


def _mask(indices):
    """The distinct vertices ``indices`` as an int with bit v set for each v."""
    return sum(1 << v for v in indices)


def _bits(mask):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _members(mask):
    """The vertices of a bitmask, in increasing order."""
    return tuple(bit.bit_length() - 1 for bit in _bits(mask))


def _mask_union(masks):
    union = 0
    for m in masks:
        union |= m
    return union


def _minimal_masks(masks):
    """The inclusion-minimal sets among bitmasks: sorted by size, a set can
    only contain an earlier one."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return frozenset(kept)


def _cover_masks(edges):
    """The minimal transversals of ``edges`` as bitmasks, by Berge expansion:
    a cover that misses the next edge grows by one vertex of it, and only the
    inclusion-minimal covers are kept."""
    covers = {0}
    for e in map(_mask, edges):
        covers = _minimal_masks(
            [c for c in covers if c & e]
            + [c | bit for c in covers if not c & e for bit in _bits(e)]
        )
    return covers


def _require_size(stage, s, limit):
    if s > limit:
        raise BudgetExceededError(
            f"{stage} limited to s <= {limit}, got {s}",
            needed=s,
            budget=limit,
            stage=stage,
        )


def covering_number(clutter, limit=20):
    """Exact minimum vertex cover size, by branch and bound."""
    _require_size("covering_number", clutter.s, limit)
    edges = [_mask(e) for e in clutter.edges]
    if not edges:
        return 0
    return _least_cover(edges, 0, min(_mask_union(edges).bit_count(), clutter.s))


def _least_cover(remaining, size, best):
    """min(best, size + the least cover of the bitmask edges ``remaining``):
    some vertex of a smallest edge is in every cover."""
    if size >= best or not remaining:
        return min(size, best)
    for bit in _bits(min(remaining, key=int.bit_count)):
        best = _least_cover([f for f in remaining if not f & bit], size + 1, best)
    return best


def matching_number(clutter, limit=20):
    """Maximum number of pairwise disjoint edges, by branch and bound."""
    _require_size("matching_number", clutter.s, limit)
    return _largest_matching([_mask(e) for e in clutter.edges], 0, 0, 0, 0)


def _largest_matching(edges, idx, used, size, best):
    """max(best, size + the most pairwise disjoint bitmask edges among
    ``edges[idx:]`` that avoid the vertices ``used``)."""
    if size + (len(edges) - idx) <= best or idx == len(edges):
        return max(size, best)
    if not edges[idx] & used:
        best = _largest_matching(edges, idx + 1, used | edges[idx], size + 1, best)
    return _largest_matching(edges, idx + 1, used, size, best)


def is_konig(clutter, limit=20):
    return covering_number(clutter, limit) == matching_number(clutter, limit)


def _is_konig_family(family):
    """tau == nu for a family of bitmask edges.  As tau >= nu, the cover
    search need only look for a cover of size nu."""
    nu = _largest_matching(sorted(family), 0, 0, 0, 0)
    return _least_cover(list(family), 0, nu + 1) == nu


def _without_singletons(family):
    """A bitmask clutter without its one-vertex edges.  An edge {v} meets no
    other edge, so it adds 1 to both tau and nu; deleting v drops it and
    contracting v gives the unit ideal.  So the family is Koenig iff the
    rest is, and the minors of the two differ only by {v}."""
    return frozenset(e for e in family if e & (e - 1))


def has_packing_property(ideal, limit=12):
    """All minors (including the ideal itself) satisfy the Koenig property.

    The minors are walked on bitmask edges from the support clutter, with
    the singleton edges stripped from every family (:func:`_without_singletons`).
    A node is a family with the vertices not yet decided, those above a
    threshold; its children keep, delete (substitute 0: drop the edges
    through it) or contract (substitute 1: clear its bit and keep the
    minimal edges) its lowest undecided vertex that still occurs.  So the
    walk runs through the substitutions of {keep, 0, 1}^s in vertex order,
    and every distinct family is tested once.  A deletion removing every
    edge (the zero ideal) gives no minor; a stripped family has no singleton
    edge, so no contraction gives the unit ideal; and a family left empty by
    the strip has only Koenig minors.  Isolated vertices change neither tau
    nor nu.  ``limit`` caps the number of variables that occur in some
    generator, which is what the walk's cost follows.
    """
    if not ideal.is_squarefree():
        raise PreconditionError("packing property requires a squarefree ideal")
    start = frozenset(_mask(support(g)) for g in ideal.gens)
    _require_size("has_packing_property", _mask_union(start).bit_count(), limit)
    start = _without_singletons(start)
    tested = set()
    seen = {(start, 1)}
    stack = [(start, 1)] if start else []
    while stack:
        family, low = stack.pop()
        if family not in tested:
            if not _is_konig_family(family):
                return False
            tested.add(family)
        undecided = _mask_union(family) & -low  # the vertices from low up
        if not undecided:
            continue
        bit = undecided & -undecided
        deleted = frozenset(e for e in family if not e & bit)
        # the edges through bit stay incomparable without it, and none of
        # them can contain an edge that misses bit
        cut = [e ^ bit for e in family if e & bit]
        contracted = _without_singletons(
            cut + [e for e in deleted if not any(c & e == c for c in cut)]
        )
        for child in (family, deleted, contracted):
            node = (child, bit << 1)
            if child and node not in seen:
                seen.add(node)
                stack.append(node)
    return True


class Graph:
    """A simple graph given by 2-element edges; loops only in multigraph mode.

    In multigraph mode a loop at v is stored as the singleton edge (v,) and
    is treated as an odd cycle of length 1 by the cycle-based criteria.
    """

    __slots__ = ("s", "edges", "loops", "multigraph", "_adj")

    def __init__(self, s, edges, multigraph=False):
        pairs = set()
        loops = set()
        for e in edges:
            e = tuple(sorted(set(e)))
            if len(e) == 2:
                pairs.add(e)
            elif len(e) == 1:
                if not multigraph:
                    raise PreconditionError(
                        f"loop at {e[0]} only allowed in multigraph mode"
                    )
                loops.add(e[0])
            else:
                raise PreconditionError(f"not a graph edge: {e}")
        if any(not 0 <= v < s for e in pairs for v in e):
            raise PreconditionError("vertex index out of range")
        if any(not 0 <= v < s for v in loops):
            raise PreconditionError("vertex index out of range")
        self.s = s
        self.edges = tuple(sorted(pairs))
        self.loops = tuple(sorted(loops))
        self.multigraph = multigraph
        adj = [set() for _ in range(s)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = tuple(frozenset(x) for x in adj)

    def __repr__(self):
        return f"Graph(s={self.s}, edges={list(self.edges)})"

    def neighbors(self, v):
        return self._adj[v]

    def adjacent(self, a, b):
        return b in self._adj[a]

    def degree(self, v):
        return len(self._adj[v])

    def clutter(self):
        """The clutter of minimal supports of I(G): the support {v} of a
        loop's x_v^2 lies in that of every edge through v, so those drop."""
        edges = [e for e in self.edges if not set(e) & set(self.loops)]
        return Clutter(self.s, edges + [(v,) for v in self.loops])

    def edge_ideal(self):
        """x_a x_b for each edge and x_v^2 for each loop: distinct monomials
        of degree 2, so no one divides another and none is minimalized."""
        if not self.edges and not self.loops:
            raise PreconditionError("graph has no edges; edge ideal is zero")
        gens = [tuple(int(v in e) for v in range(self.s)) for e in self.edges]
        gens += [tuple(2 * (v == w) for v in range(self.s)) for w in self.loops]
        return MonomialIdeal._from_minimal(self.s, sorted(gens))

    def components(self):
        """Vertex sets of the connected components (isolated vertices count)."""
        seen = [False] * self.s
        comps = []
        for v0 in range(self.s):
            if seen[v0]:
                continue
            comp = []
            stack = [v0]
            seen[v0] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self):
        return len(self.components()) == 1

    def induced(self, vertices):
        vertices = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            (index[a], index[b]) for a, b in self.edges if a in index and b in index
        ]
        loops = [(index[v],) for v in self.loops if v in index]
        return Graph(len(vertices), edges + loops, multigraph=self.multigraph)

    def two_coloring(self):
        """A proper 2-coloring of the graph, or None."""
        color = {}
        for v0 in range(self.s):
            if v0 in color:
                continue
            color[v0] = 0
            stack = [v0]
            while stack:
                v = stack.pop()
                for w in self._adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return None
        return color

    def is_bipartite(self):
        if self.loops:
            return False
        return self.two_coloring() is not None

    def maximal_stable_sets(self):
        """All maximal independent sets: the complements of the minimal
        vertex covers.  Loops are ignored, as in the adjacency."""
        everything = (1 << self.s) - 1
        return sorted(_members(everything ^ m) for m in _cover_masks(self.edges))

    def is_well_covered(self):
        sizes = {len(m) for m in self.maximal_stable_sets()}
        return len(sizes) == 1
