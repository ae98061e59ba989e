"""Command-line front end.

Every run emits one self-describing JSON document: the command, the options
that influenced it, the canonicalized input, the results, and certificates
(witness monomials, vertex pairs, Hilbert-basis elements).  Rationals are
serialized as "p/q" strings; no floating point appears anywhere.

Exit codes: 0 success, 2 precondition violation or malformed input,
3 budget exhaustion (with partial results flagged, and the work needed and
the budget it exceeded).
"""

import argparse
import json
import sys
from fractions import Fraction

from monomials import closure as closure_mod
from monomials import codes as codes_mod
from monomials import graphs as graphs_mod
from monomials import invariants as invariants_mod
from monomials import symbolic as symbolic_mod
from monomials.core import (
    Graph,
    MonomialIdeal,
    covering_number,
    has_packing_property,
    ideal_power,
    is_konig,
    matching_number,
)
from monomials.errors import BudgetExceededError, PreconditionError


class InputError(Exception):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    return repr(value)


def _read_lines(path):
    """(line number, stripped text) of the lines that are neither blank nor
    ``#`` comments; an unreadable or undecodable file is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(enumerate(fh, 1))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}")
    return [
        (no, text)
        for no, line in lines
        if (text := line.strip()) and not text.startswith("#")
    ]


def read_ideal(path):
    rows = []
    for lineno, line in _read_lines(path):
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"bad exponent row: {line!r}", line=lineno)
    if not rows:
        raise InputError("no generators in input")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError("generator rows have mixed lengths")
    return MonomialIdeal(widths.pop(), rows)


def read_graph(path, max_vertices, multigraph=False):
    """The graph in ``path``; more than ``max_vertices`` vertices raise the
    cycle budget's error before anything of that size is built."""
    lines = _read_lines(path)
    if not lines:
        raise InputError("empty graph file")
    try:
        s = int(lines[0][1])
    except ValueError:
        raise InputError("first line must be the vertex count", line=lines[0][0])
    edges = []
    for no, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise InputError(f"expected two vertex indices: {ln!r}", line=no)
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError:
            raise InputError(f"bad vertex index in {ln!r}", line=no)
        if a == b:
            edges.append((a - 1,))
        else:
            edges.append((a - 1, b - 1))
    graphs_mod.require_cycle_budget(s, max_vertices)
    return Graph(s, edges, multigraph=multigraph)


def read_points(path):
    lines = _read_lines(path)
    if not lines:
        raise InputError("empty point file")
    head = lines[0][1].split()
    try:
        q, s = map(int, head)
    except ValueError:
        raise InputError("first line must be 'q s'", line=lines[0][0])
    pts = []
    for no, ln in lines[1:]:
        try:
            pts.append(tuple(int(x) for x in ln.split()))
        except ValueError:
            raise InputError(f"bad point {ln!r}", line=no)
    return codes_mod.PointSetOverFq(q, s, pts)


def canonical_ideal_text(ideal):
    return "\n".join(" ".join(str(x) for x in g) for g in ideal.gens)


def canonical_graph_text(graph):
    lines = [str(graph.s)]
    lines += [f"{a + 1} {b + 1}" for a, b in graph.edges]
    lines += [f"{v + 1} {v + 1}" for v in graph.loops]
    return "\n".join(lines)


def canonical_points_text(points):
    lines = [f"{points.q} {points.s}"]
    lines += [" ".join(str(x) for x in p) for p in points.points]
    return "\n".join(lines)


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise InputError(f"bad range {text!r}: expected N or LO..HI")
    if not values:
        raise InputError(f"empty range {text!r}: LO must not exceed HI")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results dict, certificates dict)
# ---------------------------------------------------------------------------

def cmd_normality(args):
    ideal = read_ideal(args.input)
    report = closure_mod.is_normal(
        ideal, method=args.method, budget=args.budget_points
    )
    results = {
        "normal": report.normal,
        "method": "+".join(report.methods),
    }
    certs = {}
    if not report.normal:
        certs["witness_power"] = report.witness_power
        certs["witness_monomial"] = report.witness_monomial
    return canonical_ideal_text(ideal), results, certs


def cmd_closure(args):
    ideal = read_ideal(args.input)
    closed = closure_mod.closure_of_power(
        ideal, args.power, budget=args.budget_points
    )
    power = ideal_power(ideal, args.power)
    gained = [g for g in closed.gens if not power.contains_monomial(g)]
    results = {
        "power": args.power,
        "closure_generators": closed.gens,
        "already_closed": not gained,
    }
    return canonical_ideal_text(ideal), results, {"new_generators": gained}


def cmd_symbolic(args):
    ideal = read_ideal(args.input)
    sym = symbolic_mod.symbolic_power(
        ideal, args.power, verify=args.verify, budget=args.budget_points
    )
    power = ideal_power(ideal, args.power)
    results = {
        "power": args.power,
        "symbolic_generators": sym.gens,
        "equals_ordinary": sym == power,
    }
    gap = [g for g in sym.gens if not power.contains_monomial(g)]
    return canonical_ideal_text(ideal), results, {"symbolic_minus_ordinary": gap}


def cmd_resurgence(args):
    ideal = read_ideal(args.input)
    report = symbolic_mod.ic_resurgence(ideal)
    rho_one = symbolic_mod.resurgence_one_test(ideal, budget=args.budget_points)
    results = {
        "rho_ic": report.rho,
        "ceiling": report.ceiling,
        "q_integral": report.q_integral,
        "q_dual_integral": report.q_dual_integral,
        "resurgence_is_one": rho_one,
    }
    certs = {"minimizing_pair": report.pair}
    return canonical_ideal_text(ideal), results, certs


def cmd_containment(args):
    ideal = read_ideal(args.input)
    table = {}
    for r in _parse_range(args.r):
        table[r] = symbolic_mod.containment_function(
            ideal, r, budget=args.budget_points
        )
    return (
        canonical_ideal_text(ideal),
        {"containment_function": table},
        {},
    )


def cmd_graph_analyze(args):
    graph = read_graph(args.input, args.budget_cycles, multigraph=args.multigraph)
    ideal = graph.edge_ideal()
    clutter = graph.clutter()
    configs = graphs_mod.hochster_configurations(graph, budget=args.budget_cycles)
    results = {
        "vertices": graph.s,
        "edges": len(graph.edges) + len(graph.loops),
        "bipartite": graph.is_bipartite(),
        "odd_girth": (
            None if graph.is_bipartite() else graphs_mod.odd_girth(graph)
        ),
        "simis_failure_degree": graphs_mod.simis_failure_degree(graph),
        "covering_number": covering_number(clutter),
        "matching_number": matching_number(clutter),
        "konig": is_konig(clutter),
        "edge_ideal_normal": not configs,
        "hochster_configurations": len(configs),
        "odd_cycle_condition": graphs_mod.odd_cycle_condition(
            graph, budget=args.budget_cycles
        ),
        "edge_subring_dimension": graphs_mod.edge_subring_dimension(graph),
        "unmixed": graphs_mod.is_unmixed(clutter),
    }
    if graph.s <= 12 and not graph.loops:
        results["packing"] = has_packing_property(ideal)
    if graph.is_connected():
        results["edge_subring_normal"] = graphs_mod.edge_subring_normal(
            graph, budget=args.budget_cycles
        )
    certs = {
        "hochster_monomials": [
            {"monomial": c.monomial, "z_degree": c.z_degree} for c in configs
        ],
        "subring_closure_generators": graphs_mod.edge_subring_closure(
            graph, budget=args.budget_cycles
        ),
    }
    return canonical_graph_text(graph), results, certs


def cmd_invariants(args):
    ideal = read_ideal(args.input)
    e = invariants_mod.multiplicity(ideal)
    results = {
        "multiplicity": e,
        "normalization_hilbert_function": {
            n: invariants_mod.normalization_hilbert_function(ideal, n)
            for n in range(0, 4)
        },
        "normalization_index": closure_mod.normalization_index(
            ideal, budget=args.budget_points
        ),
    }
    return canonical_ideal_text(ideal), results, {}


def cmd_mfull(args):
    ideal = read_ideal(args.input)
    results = {"m_full": invariants_mod.is_m_full_2var(ideal)}
    return canonical_ideal_text(ideal), results, {}


def cmd_cremona(args):
    ideal = read_ideal(args.input)
    results = {"cremona": invariants_mod.is_cremona_monomial(list(ideal.gens))}
    return canonical_ideal_text(ideal), results, {}


def cmd_code_weights(args):
    points = read_points(args.input)
    code = codes_mod.EvaluationCode(points, args.degree)
    hierarchy = {}
    top = min(args.r or code.dimension, code.dimension)
    for r in range(1, top + 1):
        hierarchy[r] = codes_mod.generalized_weight(code, r)
    results = {
        "length": code.length,
        "dimension": code.dimension,
        "minimum_distance": codes_mod.minimum_distance(code),
        "generalized_weights": hierarchy,
    }
    return canonical_points_text(points), results, {}


def cmd_vnumber(args):
    if args.kind == "points":
        points = read_points(args.input)
        v = codes_mod.v_number_points(points)
        return canonical_points_text(points), {"v_number": v}, {}
    ideal = read_ideal(args.input)
    v = codes_mod.v_number_monomial(ideal, degree_cap=args.degree_cap)
    return canonical_ideal_text(ideal), {"v_number": v}, {}


_COMMANDS = {
    "normality": cmd_normality,
    "closure": cmd_closure,
    "symbolic": cmd_symbolic,
    "resurgence": cmd_resurgence,
    "containment": cmd_containment,
    "graph-analyze": cmd_graph_analyze,
    "invariants": cmd_invariants,
    "mfull": cmd_mfull,
    "cremona": cmd_cremona,
    "code-weights": cmd_code_weights,
    "vnumber": cmd_vnumber,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monomials",
        description="Exact computations with monomial ideals and their blowup algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="input file")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument(
            "--budget-points",
            type=int,
            default=closure_mod.DEFAULT_BOX_BUDGET,
            help="cap on enumerated lattice points",
        )
        p.add_argument(
            "--budget-cycles",
            type=int,
            default=14,
            help="cap on vertices for cycle enumeration",
        )

    p = sub.add_parser("normality", help="is the ideal normal?")
    common(p)
    p.add_argument(
        "--method",
        choices=["hilbert", "powers", "both"],
        default="both",
    )
    p = sub.add_parser("closure", help="integral closure of a power")
    common(p)
    p.add_argument("--power", type=int, default=1)
    p = sub.add_parser("symbolic", help="symbolic power of a squarefree ideal")
    common(p)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the prime-power intersection")
    p = sub.add_parser("resurgence", help="ic-resurgence report")
    common(p)
    p = sub.add_parser("containment", help="Schenzel containment function")
    common(p)
    p.add_argument("--r", default="1..3", help="range of r, e.g. 1..6")
    p = sub.add_parser("graph-analyze", help="graph-theoretic criteria")
    common(p)
    p.add_argument("--multigraph", action="store_true")
    p = sub.add_parser("invariants", help="multiplicity and Hilbert data")
    common(p)
    p = sub.add_parser("mfull", help="m-fullness in two variables")
    common(p)
    p = sub.add_parser("cremona", help="monomial Cremona determinant test")
    common(p)
    p = sub.add_parser("code-weights", help="evaluation code weights")
    common(p)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--r", type=int, default=None,
                   help="compute generalized weights up to this r")
    p = sub.add_parser("vnumber", help="v-number of an ideal or point set")
    common(p)
    p.add_argument("--kind", choices=["ideal", "points"], default="ideal")
    p.add_argument("--degree-cap", type=int, default=None)
    return parser


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "input", "out") and v is not None
    }
    document = {
        "command": args.command,
        "options": _jsonable(options),
        "partial": False,
    }
    code = 0
    try:
        canonical, results, certs = _COMMANDS[args.command](args)
        document["input"] = canonical
        document["results"] = _jsonable(results)
        document["certificates"] = _jsonable(certs)
    except (InputError, PreconditionError) as exc:
        document["error"] = str(exc)
        if isinstance(exc, InputError) and exc.line is not None:
            document["error_line"] = exc.line
        code = 2
    except BudgetExceededError as exc:
        document["error"] = str(exc)
        document["needed"] = exc.needed
        document["budget"] = exc.budget
        document["partial"] = True
        code = 3
    text = json.dumps(document, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
