"""Seeded inputs, items and output checks of the three workloads.

Each workload is a closed loop with one client: the next item starts when the
previous one has finished.  Inputs come from a ``random.Random`` seeded with
(workload, seed, batch), so the same seed gives the same inputs; the library
receives only the generated values (or, for ``cli-oneshot``, files).  Every
batch has the same composition of input classes ("slots"), which keeps the
mix of cheap and expensive items, and so the percentiles, the same from seed
to seed.  Warm-up inputs live in fewer variables than any timed input, so no
cache entry made while warming up can serve a timed item.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

WORKLOADS = ("rees-cone", "closure-staircase", "cli-oneshot")


def rng_for(workload, seed, batch, purpose):
    return random.Random(f"{workload}/{seed}/{batch}/{purpose}")


def digest(value):
    """Canonical digest of a JSON-able value (tuples as lists, keys sorted)."""
    text = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Input:
    """One generated input: its class, canonical text and plain data."""

    __slots__ = ("slot", "text", "data", "props")

    def __init__(self, slot, text, data, props):
        self.slot = slot
        self.text = text
        self.data = data
        self.props = props

    @property
    def key(self):
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generators (pure Python; nothing here calls the library)
# ---------------------------------------------------------------------------

def minimal(vectors):
    """Divisibility-minimal subset of exponent vectors, sorted."""
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return sorted(kept)


def connected_graph(rng, s, m):
    """Random connected simple graph on s vertices with m edges."""
    order = list(range(s))
    rng.shuffle(order)
    edges = set()
    for i in range(1, s):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    rest = [(i, j) for i in range(s) for j in range(i + 1, s) if (i, j) not in edges]
    edges.update(rng.sample(rest, m - (s - 1)))
    return tuple(sorted(edges))


def is_bipartite(s, edges):
    color = {}
    adjacent = {v: [] for v in range(s)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    for root in range(s):
        if root in color:
            continue
        color[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for w in adjacent[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def spanning_graph(rng, s, m):
    """Random simple graph on s vertices, m edges, no isolated vertex."""
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == s:
            return tuple(sorted(edges))


def ideal_with_profile(rng, k, profile):
    """k minimal generators whose componentwise maxima are ``profile``,
    up to a random permutation of the variables."""
    prof = list(profile)
    rng.shuffle(prof)
    while True:
        gens = [tuple(rng.randint(0, p) for p in prof) for _ in range(k)]
        if not all(any(g) for g in gens):
            continue
        kept = minimal(gens)
        if len(kept) == k and all(
            max(g[i] for g in kept) == prof[i] for i in range(len(prof))
        ):
            return tuple(kept)


def clutter(rng, s, m, sizes=(2, 3)):
    """m pairwise incomparable vertex sets covering all s vertices."""
    while True:
        edges = set()
        while len(edges) < m:
            e = tuple(sorted(rng.sample(range(s), rng.choice(sizes))))
            if not any(set(e) <= set(f) or set(f) <= set(e) for f in edges):
                edges.add(e)
        if len({v for e in edges for v in e}) == s:
            return tuple(sorted(edges))


def squarefree_rows(s, edges):
    return tuple(tuple(int(i in e) for i in range(s)) for e in edges)


def projective_points(rng, q, s, count):
    """Distinct points of P^{s-1}(F_q), first non-zero coordinate 1."""
    points = set()
    for lead in range(s):
        for tail in _tuples(q, s - lead - 1):
            points.add((0,) * lead + (1,) + tail)
    return tuple(sorted(rng.sample(sorted(points), count)))


def _tuples(q, n):
    if n == 0:
        return [()]
    return [(x,) + t for x in range(q) for t in _tuples(q, n - 1)]


def determinant(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cremona_candidate(rng, s, d):
    """s distinct monomials of degree d in s variables, as the command
    requires: every variable used, no common factor, non-singular."""
    while True:
        gens = set()
        while len(gens) < s:
            cuts = sorted(rng.randint(0, d) for _ in range(s - 1))
            gens.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))
        gens = sorted(gens)
        cols = list(zip(*gens))
        if any(not any(c) for c in cols) or any(all(c) for c in cols):
            continue
        if determinant(cols) != 0:
            return tuple(gens)


def staircase_2var(rng, n):
    """A zero-dimensional ideal of k[t1, t2] with n generators, not m^(n-1)."""
    while True:
        a = sorted(rng.sample(range(1, 9), n - 1), reverse=True) + [0]
        b = [0] + sorted(rng.sample(range(1, 9), n - 1))
        gens = tuple(sorted(zip(a, b)))
        if gens != tuple(sorted((n - 1 - i, i) for i in range(n))):
            return gens


def rows_text(rows):
    return "\n".join(" ".join(str(x) for x in r) for r in rows) + "\n"


def graph_text(s, edges):
    return f"{s}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in edges)


def points_text(q, s, points):
    return f"{q} {s}\n" + rows_text(points)


def _distinct(make, count):
    """Call ``make(i)`` until it yields an input whose text is new."""
    out, seen = [], set()
    for i in range(count):
        while True:
            inp = make(i)
            if inp.text not in seen:
                seen.add(inp.text)
                out.append(inp)
                break
    return out


def _shuffled(rng, inputs):
    inputs = list(inputs)
    rng.shuffle(inputs)
    return inputs


def _box_class(points):
    """Order-of-magnitude class of a candidate box size."""
    return f"<=10^{len(str(points - 1))}" if points > 1 else "<=10^0"


# ---------------------------------------------------------------------------
# rees-cone: the cone kernel (LP, elimination, double description, Hilbert
# bases) on edge ideals of graphs; every input distinct, so caches miss
# ---------------------------------------------------------------------------

class ReesCone:
    name = "rees-cone"
    in_process = True
    # (vertices, edges, bipartite) per item of a batch: four light, four
    # middle and four heavy items and one on seven vertices, chosen from
    # classes whose cost varies little, so that the median and the 90th
    # percentile fall inside groups of similar items
    SLOTS = (
        (5, 4, True), (5, 4, True), (5, 5, False), (5, 5, False),
        (5, 7, False), (5, 7, False), (5, 7, False), (5, 7, False),
        (6, 6, True), (6, 6, True), (6, 7, False), (6, 7, False),
        (7, 7, True),
    )

    def inputs(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "timed")
        inputs = _distinct(lambda i: self._graph(rng, *self.SLOTS[i]), len(self.SLOTS))
        return _shuffled(rng, inputs)

    def warmup(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "warmup")
        return [self._graph(rng, 4, 4, False)]

    def _graph(self, rng, s, m, bipartite):
        while True:
            edges = connected_graph(rng, s, m)
            if is_bipartite(s, edges) == bipartite:
                break
        props = {"vertices": s, "edges": m}
        return Input(f"s={s},m={m}", graph_text(s, edges), (s, edges), props)

    def run(self, inp):
        from monomials import closure, core, graphs, symbolic

        s, edges = inp.data
        graph = core.Graph(s, edges)
        ideal = graph.edge_ideal()
        rep = closure.rees_representation(ideal)
        normal = bool(closure.is_normal(ideal, method="hilbert"))
        six = {
            "bipartite": graph.is_bipartite(),
            "simis": rep.integral and normal,
            "packing": core.has_packing_property(ideal),
            "q_integral": rep.integral,
            "gr_reduced": rep.integral and normal,
            "dual_simis": symbolic.is_simis(core.alexander_dual(ideal)),
        }
        verdict, diagnosis = graphs.ehrhart_normality_criterion(graph)
        return {
            "six": six,
            "hilbert_normal": normal,
            "hochster_normal": verdict,
            "diagnosis": diagnosis,
            "facets": rep.facets,
        }

    def check(self, inp, out):
        problems = []
        if len(set(out["six"].values())) != 1:
            problems.append(f"six-way conditions disagree: {out['six']}")
        if out["hochster_normal"] != out["hilbert_normal"]:
            problems.append("Hochster verdict differs from the Hilbert verdict")
        if out["diagnosis"]["hilbert_route"] != out["hilbert_normal"]:
            problems.append("Ehrhart criterion's Hilbert route differs")
        return problems

    def canonical(self, out):
        return out

    def props(self, inp, out):
        props = dict(inp.props)
        if out is not None:
            props["q_integral"] = out["six"]["q_integral"]
            props["normal"] = out["hilbert_normal"]
        return props


# ---------------------------------------------------------------------------
# closure-staircase: closures of powers by box enumeration and the kept-list
# scan; the Rees cone of each ideal is reused many times within an item
# ---------------------------------------------------------------------------

class ClosureStaircase:
    name = "closure-staircase"
    in_process = True
    # ("ideal", generators, sorted max-exponent profile) in 4 variables, or
    # ("graph", edges) for the edge ideal of a graph on 5 vertices.  Four
    # light, four middle and four heavy items; the median falls inside the
    # middle group and the 90th percentile among the three edge ideals.
    SLOTS = (
        ("ideal", 2, (1, 1, 2, 2)), ("ideal", 2, (1, 2, 2, 3)),
        ("ideal", 3, (1, 1, 2, 3)), ("ideal", 3, (1, 2, 2, 3)),
        ("ideal", 2, (2, 2, 3, 3)), ("ideal", 5, (1, 2, 2, 2)),
        ("ideal", 5, (1, 1, 2, 3)), ("ideal", 4, (1, 2, 2, 3)),
        ("ideal", 3, (2, 2, 3, 3)), ("graph", 3), ("graph", 3), ("graph", 3),
    )

    def inputs(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "timed")
        inputs = _distinct(lambda i: self._make(rng, self.SLOTS[i]), len(self.SLOTS))
        return _shuffled(rng, inputs)

    def warmup(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "warmup")
        return [self._make(rng, ("ideal", 3, (1, 2, 2)))]

    def _make(self, rng, slot):
        if slot[0] == "graph":
            s = 5
            gens = squarefree_rows(s, spanning_graph(rng, s, slot[1]))
            name = f"graph5,m={slot[1]}"
        else:
            _, k, profile = slot
            s = len(profile)
            gens = ideal_with_profile(rng, k, profile)
            name = f"k={k},max={''.join(map(str, profile))}"
        maxima = [max(g[i] for g in gens) for i in range(s)]
        props = {
            "s": s,
            "gens": len(gens),
            "max_exponent": max(maxima),
            "box": _box_class(prod(s * m + 1 for m in maxima)),
        }
        return Input(name, rows_text(gens), (s, gens), props)

    def run(self, inp):
        from monomials import closure, core

        s, gens = inp.data
        return closure.closure_report(core.MonomialIdeal(s, gens))

    def check(self, inp, report):
        from monomials import core

        problems = []
        all_equal = True
        for n, closed in sorted(report.closures.items()):
            power = core.ideal_power(report.ideal, n)
            missing = [g for g in power.gens if not closed.contains_monomial(g)]
            if missing:
                problems.append(f"closure of I^{n} misses {missing[0]}")
            all_equal = all_equal and closed == power
        if report.normality.normal != all_equal:
            problems.append(
                f"normal={report.normality.normal} but closures equal powers: {all_equal}"
            )
        return problems

    def canonical(self, report):
        verdict = report.normality
        return {
            "closures": {n: c.gens for n, c in sorted(report.closures.items())},
            "normal": verdict.normal,
            "methods": verdict.methods,
            "witness": [verdict.witness_power, verdict.witness_monomial],
            "index": report.normalization_index,
        }

    def props(self, inp, report):
        props = dict(inp.props)
        if report is not None:
            props["normal"] = report.normality.normal
        return props


# ---------------------------------------------------------------------------
# cli-oneshot: one `monomials` request per fresh process, reading a file
# ---------------------------------------------------------------------------

class CliOneshot:
    name = "cli-oneshot"
    in_process = False
    # (subcommand, extra arguments, input kind and size); the slower half
    # is sized so that library work, not start-up, dominates its time, and
    # the three slowest requests are alike, so the 90th percentile is steady
    SLOTS = (
        ("normality", (), ("clutter", 5, 5)),
        ("normality", (), ("clutter", 5, 5)),
        ("normality", (), ("clutter", 5, 5)),
        ("normality", ("--method", "hilbert"), ("clutter", 6, 6)),
        ("closure", ("--power", "3"), ("clutter", 6, 5)),
        ("symbolic", ("--power", "4", "--verify"), ("clutter", 5, 5)),
        ("symbolic", ("--power", "3", "--verify"), ("clutter", 6, 6)),
        ("resurgence", (), ("clutter", 5, 4)),
        ("resurgence", (), ("clutter", 5, 4)),
        ("containment", ("--r", "1..3"), ("clutter", 5, 5)),
        ("containment", ("--r", "1..2"), ("clutter", 6, 5)),
        ("graph-analyze", (), ("graph",)),
        ("code-weights", ("--degree", "2"), ("points", 2, 4, 9, 10)),
        ("code-weights", ("--degree", "2"), ("points", 3, 3, 9, 10)),
        ("vnumber", ("--kind", "points"), ("points",)),
        ("invariants", (), ("artinian", 3)),
        ("mfull", (), ("staircase",)),
        ("cremona", (), ("cremona",)),
        ("vnumber", (), ("ideal", 4)),
    )

    def inputs(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "timed")
        inputs = _distinct(
            lambda i: self._make(rng, batch, *self.SLOTS[i]), len(self.SLOTS)
        )
        return _shuffled(rng, inputs)

    def warmup(self, seed, batch):
        rng = rng_for(self.name, seed, batch, "warmup")
        return [self._make(rng, batch, "normality", (), ("clutter", 4, 3))]

    def _make(self, rng, batch, command, extra, kind):
        shape = kind[0]
        props = {"command": command}
        if shape == "clutter":
            _, s, m = kind
            text = rows_text(squarefree_rows(s, clutter(rng, s, m)))
            props.update(s=s, gens=m)
        elif shape == "graph":
            s = 6 + batch % 3
            m = rng.randint(s, s + 3)
            text = graph_text(s, connected_graph(rng, s, m))
            props.update(vertices=s, edges=m)
        elif shape == "points":
            # the v-number request alternates between GF(2) and GF(3)
            q, s, lo, hi = kind[1:] if len(kind) > 1 else (
                (2, 4, 10, 12) if batch % 2 else (3, 3, 8, 10))
            count = rng.randint(lo, hi)
            text = points_text(q, s, projective_points(rng, q, s, count))
            props.update(q=q, points=count)
        elif shape == "artinian":
            s = kind[1]
            pure = [rng.randint(3, 5) for _ in range(s)]
            gens = [tuple(p if i == j else 0 for i in range(s)) for j, p in enumerate(pure)]
            gens += [tuple(rng.randint(0, p - 1) for p in pure) for _ in range(2)]
            gens = minimal(g for g in gens if any(g))
            text = rows_text(gens)
            props.update(s=s, gens=len(gens))
        elif shape == "staircase":
            gens = staircase_2var(rng, rng.randint(3, 5))
            text = rows_text(gens)
            props.update(s=2, gens=len(gens))
        elif shape == "cremona":
            s = rng.choice((3, 4))
            text = rows_text(cremona_candidate(rng, s, rng.randint(2, 3)))
            props.update(s=s, gens=s)
        else:
            s = kind[1]
            gens = ideal_with_profile(rng, rng.randint(3, 4), (1, 2, 2, 2))
            text = rows_text(gens)
            props.update(s=s, gens=len(gens))
        argv = (command, "INPUT") + tuple(extra)
        return Input(command, " ".join(argv) + "\n" + text, (argv, text), props)

    def prepare(self, inputs, workdir):
        """Write every input file before the timed loop."""
        paths = []
        for i, inp in enumerate(inputs):
            path = os.path.join(workdir, f"input-{i}.txt")
            with open(path, "w") as fh:
                fh.write(inp.data[1])
            paths.append(path)
        return paths

    def command(self, inp, path, trace_path=None):
        argv = [path if a == "INPUT" else a for a in inp.data[0]]
        if trace_path is None:
            return [sys.executable, "-m", "monomials.cli"] + argv
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clichild.py")
        return [sys.executable, child, trace_path] + argv

    def run(self, cmd, env, timeout):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=timeout
        )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, inp, out):
        if out["code"] != 0:
            tail = out["stderr"].strip().splitlines()[-1:] or [out["stdout"][-200:]]
            return [f"exit code {out['code']}: {tail[0]}"]
        try:
            doc = json.loads(out["stdout"])
        except ValueError as exc:
            return [f"report does not parse: {exc}"]
        if doc.get("command") != inp.data[0][0] or "results" not in doc:
            return ["report lacks its command or results"]
        return []

    def canonical(self, out):
        return out["stdout"]

    def props(self, inp, out):
        props = dict(inp.props)
        if out is not None and out["code"] == 0 and props["command"] == "resurgence":
            props["q_integral"] = json.loads(out["stdout"])["results"]["q_integral"]
        return props


def get(name):
    return {w.name: w for w in (ReesCone(), ClosureStaircase(), CliOneshot())}[name]
