"""Spans around calls into the layers of ``monomials``, for per-layer metrics.

The layers are the library's modules.  :meth:`Tracer.install` wraps every
public module-level function of those modules and rebinds every module
attribute that holds the original function object, so aliases such as
``graphs.mat_rank`` (``linalg.rank``) or ``cli.ideal_power`` are traced too.
:meth:`Tracer.restore` puts every original binding back.  Methods are not
wrapped: their time counts toward the calling function's self time.

A span is ``[name, start, end, parent index, item id]``.  Spans are only
recorded inside :meth:`Tracer.item`, kept in memory, and written out by the
caller when the run ends.  Counts are taken in the same wrappers, after the
wrapped call returns and before its span closes.
"""

import contextlib
import functools
import inspect
import sys
import time
from math import comb, prod

LAYERS = (
    "core", "linalg", "lp", "polyhedra", "closure", "graphs", "symbolic",
    "invariants", "codes", "cli",
)

# Hot leaf helpers are left unwrapped: a span costs about as much as one of
# their calls.  Their time counts toward the caller's self time.
UNWRAPPED = frozenset({
    "core.divides", "core.vec_add", "core.vec_sub_clamped", "core.support",
    "linalg.vec_dot", "linalg.primitive", "linalg.clear_denominators",
    "polyhedra.cone_contains",
})

# Functions whose calls and self time are also reported on their own.
GROUPS = {
    "core.ideal_power": "core.ideal_power",
    "linalg.row_echelon": "linalg.row_echelon",
    "linalg.smith_normal_form": "linalg.smith",
    "lp.in_cone": "lp.in_cone",
    "polyhedra.extreme_rays_of_inequalities": "polyhedra.dd",
    "polyhedra.cone_facets": "polyhedra.cone_facets",
    "polyhedra.pulling_triangulation": "polyhedra.triangulation",
    "polyhedra.parallelepiped_points": "polyhedra.parallelepiped",
    "polyhedra.hilbert_basis": "polyhedra.hilbert",
    "polyhedra.lattice_points": "polyhedra.lattice",
    "polyhedra.lattice_points_of_polyhedron": "polyhedra.lattice",
    "polyhedra.lattice_points_system": "polyhedra.lattice",
    "closure.closure_of_power": "closure.closure_of_power",
    "closure.rees_representation": "closure.rees",
    "symbolic.symbolic_power": "symbolic.cache",
    "codes.gf_rank": "codes.gf_rank",
}

ITEM = "item"


def self_times(spans):
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread of nested calls, so the children of a span
    never overlap and the time they cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._item = None
        self._bindings = []
        self._seen = {}
        self._candidates = {}

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer; rebind all aliases."""
        import monomials.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"monomials.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(value)] = (value, self._wrap(name, value))
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def restore(self):
        """Put back every binding :meth:`install` replaced."""
        while self._bindings:
            module, attr, value = self._bindings.pop()
            setattr(module, attr, value)

    @contextlib.contextmanager
    def item(self, item_id):
        """One root span per item; library spans are recorded only inside it."""
        if self._stack:
            raise RuntimeError("items do not nest")
        span = [ITEM, 0.0, 0.0, -1, item_id]
        self._item = item_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._item = None

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1], self._item]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    self._run_hook(hook, index, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _run_hook(self, hook, index, args, kwargs, result):
        # a count that cannot be taken must not fail the library call
        try:
            hook(self, index, args, kwargs, result)
        except Exception:  # noqa: BLE001
            self.count("trace.hook_errors")

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None

    def _repeat(self, group, key, result):
        """Count a hit of a cached function: it returned the very object an
        earlier call with an equal key returned.  Returns whether it hit."""
        seen = self._seen.setdefault(group, {})
        hit = seen.get(key) is result
        self.count(f"{group}.hits", int(hit))
        seen[key] = result
        return hit

    def _distinct(self, group, key):
        seen = self._seen.setdefault(group, set())
        if key not in seen:
            seen.add(key)
            self.count(f"{group}.distinct")

    # -- results ------------------------------------------------------------

    def raw(self):
        """Summable totals: per layer and group calls and self time, counts."""
        out = dict(self.counts)
        selfs = self_times(self.spans)
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            if name == ITEM:
                _add(out, "trace.items", 1)
                _add(out, "trace.item_s", end - start)
                _add(out, "trace.glue_s", own)
                continue
            layer = name.split(".", 1)[0]
            _add(out, f"{layer}.calls", 1)
            _add(out, f"{layer}.self_s", own)
            group = GROUPS.get(name)
            if group is not None:
                _add(out, f"{group}.calls", 1)
                _add(out, f"{group}.self_s", own)
        out["trace.spans"] = len(self.spans)
        return out


def _add(table, key, amount):
    table[key] = table.get(key, 0) + amount


def merge_raw(total, raw):
    """Add one process's :meth:`Tracer.raw` totals into ``total``."""
    for key, value in raw.items():
        _add(total, key, value)
    return total


def _library_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "monomials" or name.startswith("monomials."))
    ]


# ---------------------------------------------------------------------------
# counts taken at the wrappers, computed from arguments and results
# ---------------------------------------------------------------------------

def _ideal_power(tracer, index, args, kwargs, result):
    ideal, n = args[0], _arg(args, kwargs, 1, "n")
    if n >= 2:
        tracer.count("core.ideal_power.sums", comb(len(ideal.gens) + n - 1, n))


def _row_echelon(tracer, index, args, kwargs, result):
    tracer._distinct("linalg.row_echelon", tuple(tuple(row) for row in args[0]))


def _extreme_rays(tracer, index, args, kwargs, result):
    tracer.count("polyhedra.dd.rays", len(result))


def _cone_facets(tracer, index, args, kwargs, result):
    tracer._distinct("polyhedra.cone_facets", tuple(tuple(g) for g in args[0]))


def _triangulation(tracer, index, args, kwargs, result):
    tracer.count("polyhedra.triangulation.simplices", len(result))


def _hilbert_candidates(tracer, index, result):
    """Add a part's output to the candidate set of the enclosing Hilbert basis."""
    basis = tracer._ancestor(index, "polyhedra.hilbert_basis")
    if basis is not None:
        tracer._candidates.setdefault(basis, set()).update(p for p in result if any(p))


def _extreme_ray_generators(tracer, index, args, kwargs, result):
    _hilbert_candidates(tracer, index, result)


def _parallelepiped(tracer, index, args, kwargs, result):
    # the call on lattice coordinates inside a lower-dimensional cone is
    # counted through its outer call, which maps the points back
    if tracer.spans[tracer.spans[index][3]][0] == "polyhedra.parallelepiped_points":
        return
    tracer.count("polyhedra.parallelepiped.points", len(result))
    _hilbert_candidates(tracer, index, result)


def _hilbert(tracer, index, args, kwargs, result):
    gens = {tuple(int(x) for x in g) for g in args[0] if any(g)}
    tracer._distinct("polyhedra.hilbert", tuple(sorted(gens)))
    candidates = tracer._candidates.pop(index, set()) | gens
    tracer.count("polyhedra.hilbert.candidates", len(candidates))
    tracer.count("polyhedra.hilbert.kept", len(result))


def _lattice_system(tracer, index, args, kwargs, result):
    tracer.count(
        "polyhedra.lattice.points", result if isinstance(result, int) else len(result)
    )


def _closure_of_power(tracer, index, args, kwargs, result):
    ideal, n = args[0], _arg(args, kwargs, 1, "n")
    tracer._distinct("closure.closure_of_power", (ideal, n))
    tracer.count(
        "closure.box.points", prod(n * m + 1 for m in ideal.max_exponents())
    )
    tracer.count("closure.box.kept", len(result.gens))


def _rees(tracer, index, args, kwargs, result):
    tracer._repeat("closure.rees", args[0], result)


def _symbolic_power(tracer, index, args, kwargs, result):
    ideal, n = args[0], _arg(args, kwargs, 1, "n")
    if not tracer._repeat("symbolic.cache", (ideal, n), result):
        tracer.count("symbolic.box.points", (n + 1) ** ideal.s)
        tracer.count("symbolic.box.kept", len(result.gens))


def _induced_cycles(tracer, index, args, kwargs, result):
    tracer.count("graphs.cycles", len(result))


def _minimum_distance(tracer, index, args, kwargs, result):
    code = args[0]
    q, k = code.field.q, code.dimension
    tracer.count("codes.codewords", (q**k - 1) // (q - 1))


_HOOKS = {
    "core.ideal_power": _ideal_power,
    "linalg.row_echelon": _row_echelon,
    "polyhedra.extreme_rays_of_inequalities": _extreme_rays,
    "polyhedra.cone_facets": _cone_facets,
    "polyhedra.pulling_triangulation": _triangulation,
    "polyhedra.extreme_ray_generators": _extreme_ray_generators,
    "polyhedra.parallelepiped_points": _parallelepiped,
    "polyhedra.hilbert_basis": _hilbert,
    "polyhedra.lattice_points_system": _lattice_system,
    "closure.closure_of_power": _closure_of_power,
    "closure.rees_representation": _rees,
    "symbolic.symbolic_power": _symbolic_power,
    "graphs.induced_cycles": _induced_cycles,
    "codes.minimum_distance": _minimum_distance,
}


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better); ratios are (numerator, base)
# ---------------------------------------------------------------------------

def _layer(name, *extra):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"), *extra]


PER_LAYER_SPEC = [
    *_layer("core"),
    ("core.ideal_power.calls", "count", "lower"),
    ("core.ideal_power.self_s", "s", "lower"),
    ("core.ideal_power.sums", "count", "lower"),
    *_layer("linalg"),
    ("linalg.row_echelon.calls", "count", "lower"),
    ("linalg.row_echelon.distinct_ratio", "ratio", "higher"),
    ("linalg.smith.calls", "count", "lower"),
    ("linalg.smith.self_s", "s", "lower"),
    *_layer("lp"),
    ("lp.in_cone.calls", "count", "lower"),
    *_layer("polyhedra"),
    ("polyhedra.dd.calls", "count", "lower"),
    ("polyhedra.dd.self_s", "s", "lower"),
    ("polyhedra.dd.rays", "count", "lower"),
    ("polyhedra.cone_facets.calls", "count", "lower"),
    ("polyhedra.cone_facets.distinct_ratio", "ratio", "higher"),
    ("polyhedra.triangulation.calls", "count", "lower"),
    ("polyhedra.triangulation.self_s", "s", "lower"),
    ("polyhedra.triangulation.simplices", "count", "lower"),
    ("polyhedra.parallelepiped.calls", "count", "lower"),
    ("polyhedra.parallelepiped.self_s", "s", "lower"),
    ("polyhedra.parallelepiped.points", "count", "lower"),
    ("polyhedra.hilbert.calls", "count", "lower"),
    ("polyhedra.hilbert.self_s", "s", "lower"),
    ("polyhedra.hilbert.distinct_ratio", "ratio", "higher"),
    ("polyhedra.hilbert.candidates", "count", "lower"),
    ("polyhedra.hilbert.kept_ratio", "ratio", "higher"),
    ("polyhedra.lattice.calls", "count", "lower"),
    ("polyhedra.lattice.self_s", "s", "lower"),
    ("polyhedra.lattice.points", "count", "lower"),
    *_layer("closure"),
    ("closure.box.points", "count", "lower"),
    ("closure.box.kept_ratio", "ratio", "higher"),
    ("closure.closure_of_power.calls", "count", "lower"),
    ("closure.closure_of_power.distinct_ratio", "ratio", "higher"),
    ("closure.rees.calls", "count", "lower"),
    ("closure.rees.hit_ratio", "ratio", "higher"),
    *_layer("graphs"),
    ("graphs.cycles", "count", "lower"),
    *_layer("symbolic"),
    ("symbolic.box.points", "count", "lower"),
    ("symbolic.box.kept_ratio", "ratio", "higher"),
    ("symbolic.cache.calls", "count", "lower"),
    ("symbolic.cache.hit_ratio", "ratio", "higher"),
    *_layer("invariants"),
    *_layer("codes"),
    ("codes.gf_rank.calls", "count", "lower"),
    ("codes.codewords", "count", "lower"),
    *_layer("cli"),
    ("cli.startup_ms", "ms", "lower"),
    ("trace.items", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.item_s", "s", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("trace.hook_errors", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
PER_LAYER = [(name, unit) for name, unit, _ in PER_LAYER_SPEC]

RATIOS = {
    "linalg.row_echelon.distinct_ratio": (
        "linalg.row_echelon.distinct", "linalg.row_echelon.calls"),
    "polyhedra.cone_facets.distinct_ratio": (
        "polyhedra.cone_facets.distinct", "polyhedra.cone_facets.calls"),
    "polyhedra.hilbert.distinct_ratio": (
        "polyhedra.hilbert.distinct", "polyhedra.hilbert.calls"),
    "polyhedra.hilbert.kept_ratio": (
        "polyhedra.hilbert.kept", "polyhedra.hilbert.candidates"),
    "closure.box.kept_ratio": ("closure.box.kept", "closure.box.points"),
    "closure.closure_of_power.distinct_ratio": (
        "closure.closure_of_power.distinct", "closure.closure_of_power.calls"),
    "closure.rees.hit_ratio": ("closure.rees.hits", "closure.rees.calls"),
    "symbolic.box.kept_ratio": ("symbolic.box.kept", "symbolic.box.points"),
    "symbolic.cache.hit_ratio": ("symbolic.cache.hits", "symbolic.cache.calls"),
}


def derive(raw, startup_ms, overhead):
    """Per-layer metrics from summed :meth:`Tracer.raw` totals.

    ``startup_ms`` lists the start-up times of traced CLI processes (their
    median is reported) and ``overhead`` is traced over untraced time - 1.
    A ratio whose base is zero is reported as 0.
    """
    out = {}
    for name, _ in PER_LAYER:
        if name in RATIOS:
            num, base = RATIOS[name]
            out[name] = raw.get(num, 0) / raw[base] if raw.get(base) else 0.0
        elif name == "cli.startup_ms":
            out[name] = sorted(startup_ms)[len(startup_ms) // 2] if startup_ms else 0.0
        elif name == "trace.overhead_ratio":
            out[name] = overhead
        else:
            out[name] = raw.get(name, 0)
    return out
