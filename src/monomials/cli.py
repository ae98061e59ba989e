"""Command-line front end.

Every run emits one self-describing JSON document: the command, the options
that influenced it, the canonicalized input, the results, and certificates
(witness monomials, vertex pairs, Hilbert-basis elements); an error report
carries the error instead of the input, results and certificates.
Rationals are serialized as "p/q" strings; no floating point appears
anywhere.

Exit codes: 0 success, 2 precondition violation or malformed input,
3 budget exhaustion (with partial results flagged, and the work needed and
the budget it exceeded), 141 when the reader closed standard output before
the report was written (no traceback).
"""

import argparse
import json
import os
import sys
from contextlib import suppress
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
    if value is None or isinstance(value, (int, str)):
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


def _rows_text(rows):
    return "\n".join(" ".join(str(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# readers: each takes the parsed options and returns (value, canonical text)
# ---------------------------------------------------------------------------

def read_ideal(args):
    rows = []
    for lineno, line in _read_lines(args.input):
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"bad exponent row: {line!r}", line=lineno)
    if not rows:
        raise InputError("no generators in input")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError("generator rows have mixed lengths")
    ideal = MonomialIdeal(widths.pop(), rows)
    return ideal, _rows_text(ideal.gens)


def read_graph(args):
    """The graph in ``args.input``; more than ``--budget-cycles`` vertices
    raise the cycle budget's error before anything of that size is built."""
    lines = _read_lines(args.input)
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
        edges.append((a - 1,) if a == b else (a - 1, b - 1))
    graphs_mod.require_cycle_budget(s, args.budget_cycles)
    graph = Graph(s, edges, multigraph=args.multigraph)
    pairs = [(a + 1, b + 1) for a, b in graph.edges]
    loops = [(v + 1, v + 1) for v in graph.loops]
    return graph, _rows_text([(s,)] + pairs + loops)


def read_points(args):
    lines = _read_lines(args.input)
    if not lines:
        raise InputError("empty point file")
    try:
        q, s = map(int, lines[0][1].split())
    except ValueError:
        raise InputError("first line must be 'q s'", line=lines[0][0])
    pts = []
    for no, ln in lines[1:]:
        try:
            pts.append(tuple(int(x) for x in ln.split()))
        except ValueError:
            raise InputError(f"bad point {ln!r}", line=no)
    points = codes_mod.PointSetOverFq(q, s, pts)
    return points, _rows_text([(q, s)] + list(points.points))


def _read_kind(args):
    """``--kind`` names the reader."""
    return (read_points if args.kind == "points" else read_ideal)(args)


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
# handlers: each takes the value read and the options, and returns
# (results dict, certificates dict)
# ---------------------------------------------------------------------------

def cmd_normality(ideal, args):
    report = closure_mod.is_normal(ideal, method=args.method, budget=args.budget_points)
    results = {"normal": report.normal, "method": "+".join(report.methods)}
    certs = {}
    if not report.normal:
        certs["witness_power"] = report.witness_power
        certs["witness_monomial"] = report.witness_monomial
    return results, certs


def cmd_closure(ideal, args):
    closed = closure_mod.closure_of_power(ideal, args.power, budget=args.budget_points)
    # I^n lies in closure(I^n), whose generators are minimal: one of them
    # is in I^n exactly when it is a generator of I^n.
    power = set(ideal_power(ideal, args.power).gens)
    gained = [g for g in closed.gens if g not in power]
    results = {
        "power": args.power,
        "closure_generators": closed.gens,
        "already_closed": not gained,
    }
    return results, {"new_generators": gained}


def cmd_symbolic(ideal, args):
    sym = symbolic_mod.symbolic_power(
        ideal, args.power, verify=args.verify, budget=args.budget_points
    )
    power = ideal_power(ideal, args.power)
    results = {
        "power": args.power,
        "symbolic_generators": sym.gens,
        "equals_ordinary": sym == power,
    }
    # I^n lies in I^(n), so as above a minimal generator of I^(n) is in
    # I^n exactly when it is a generator of I^n.
    ordinary = set(power.gens)
    gap = [g for g in sym.gens if g not in ordinary]
    return results, {"symbolic_minus_ordinary": gap}


def cmd_resurgence(ideal, args):
    report = symbolic_mod.ic_resurgence(ideal)
    rho_one = symbolic_mod.resurgence_one_test(ideal, budget=args.budget_points)
    results = {
        "rho_ic": report.rho,
        "ceiling": report.ceiling,
        "q_integral": report.q_integral,
        "q_dual_integral": report.q_dual_integral,
        "resurgence_is_one": rho_one,
    }
    return results, {"minimizing_pair": report.pair}


def cmd_containment(ideal, args):
    table = {
        r: symbolic_mod.containment_function(ideal, r, budget=args.budget_points)
        for r in _parse_range(args.r)
    }
    return {"containment_function": table}, {}


def cmd_graph_analyze(graph, args):
    ideal = graph.edge_ideal()
    clutter = graph.clutter()
    configs = graphs_mod.hochster_configurations(graph, budget=args.budget_cycles)
    tau, nu = covering_number(clutter), matching_number(clutter)
    results = {
        "vertices": graph.s,
        "edges": len(graph.edges) + len(graph.loops),
        "bipartite": graph.is_bipartite(),
        "odd_girth": (
            None if graph.is_bipartite() else graphs_mod.odd_girth(graph)
        ),
        "simis_failure_degree": graphs_mod.simis_failure_degree(graph),
        "covering_number": tau,
        "matching_number": nu,
        "konig": tau == nu,
        "edge_ideal_normal": not configs,
        "hochster_configurations": len(configs),
        # no Hochster configuration: the odd cycle condition
        "odd_cycle_condition": not configs,
        "edge_subring_dimension": graphs_mod.edge_subring_dimension(graph),
        "unmixed": graphs_mod.is_unmixed(clutter),
    }
    with suppress(BudgetExceededError, PreconditionError):  # loops, or too large
        results["packing"] = has_packing_property(ideal)
    if graph.is_connected():  # K[G] is normal iff the odd cycle condition holds
        results["edge_subring_normal"] = not configs
    certs = {
        "hochster_monomials": [
            {"monomial": c.monomial, "z_degree": c.z_degree} for c in configs
        ],
        "subring_closure_generators": graphs_mod.edge_subring_closure(
            graph, budget=args.budget_cycles
        ),
    }
    return results, certs


def cmd_invariants(ideal, args):
    budget = args.budget_points
    results = {
        "multiplicity": invariants_mod.multiplicity(ideal, budget=budget),
        "normalization_hilbert_function": {
            n: invariants_mod.normalization_hilbert_function(ideal, n, budget=budget)
            for n in range(0, 4)
        },
        "normalization_index": closure_mod.normalization_index(ideal, budget=budget),
    }
    return results, {}


def cmd_mfull(ideal, args):
    return {"m_full": invariants_mod.is_m_full_2var(ideal)}, {}


def cmd_cremona(ideal, args):
    return {"cremona": invariants_mod.is_cremona_monomial(list(ideal.gens))}, {}


def cmd_code_weights(points, args):
    if args.r is not None and args.r < 1:
        raise InputError(f"bad --r {args.r}: r must be at least 1")
    code = codes_mod.EvaluationCode(points, args.degree)
    weights = codes_mod.weight_hierarchy(
        code, min(args.r or code.dimension, code.dimension)
    )
    results = {
        "length": code.length,
        "dimension": code.dimension,
        "minimum_distance": weights[0],
        "generalized_weights": dict(enumerate(weights, start=1)),
    }
    return results, {}


def cmd_vnumber(value, args):
    if args.kind == "points":
        return {"v_number": codes_mod.v_number_points(value)}, {}
    v = codes_mod.v_number_monomial(value, degree_cap=args.degree_cap)
    return {"v_number": v}, {}


# ---------------------------------------------------------------------------
# the subcommands: name -> (help, reader, handler, extra options), where an
# option is (flag, keyword arguments of add_argument); every subcommand also
# takes the options in _COMMON
# ---------------------------------------------------------------------------

_COMMON = [
    ("input", {"help": "input file"}),
    ("--out", {"help": "write the JSON report here"}),
    ("--budget-points", {"type": int, "default": closure_mod.DEFAULT_BOX_BUDGET,
                         "help": "cap on enumerated lattice points"}),
    ("--budget-cycles", {"type": int, "default": 14,
                         "help": "cap on vertices for cycle enumeration"}),
]
_POWER = ("--power", {"type": int, "default": 1})

_COMMANDS = {
    "normality": ("is the ideal normal?", read_ideal, cmd_normality, [
        ("--method", {"choices": ["hilbert", "powers", "both"], "default": "both"}),
    ]),
    "closure": ("integral closure of a power", read_ideal, cmd_closure, [_POWER]),
    "symbolic": ("symbolic power of a squarefree ideal", read_ideal, cmd_symbolic, [
        _POWER,
        ("--verify", {"action": "store_true",
                      "help": "cross-check against the prime-power intersection"}),
    ]),
    "resurgence": ("ic-resurgence report", read_ideal, cmd_resurgence, []),
    "containment": ("Schenzel containment function", read_ideal, cmd_containment, [
        ("--r", {"default": "1..3", "help": "range of r, e.g. 1..6"}),
    ]),
    "graph-analyze": ("graph-theoretic criteria", read_graph, cmd_graph_analyze, [
        ("--multigraph", {"action": "store_true"}),
    ]),
    "invariants": ("multiplicity and Hilbert data", read_ideal, cmd_invariants, []),
    "mfull": ("m-fullness in two variables", read_ideal, cmd_mfull, []),
    "cremona": ("monomial Cremona determinant test", read_ideal, cmd_cremona, []),
    "code-weights": ("evaluation code weights", read_points, cmd_code_weights, [
        ("--degree", {"type": int, "default": 1}),
        ("--r", {"type": int, "help": "compute generalized weights up to this r"}),
    ]),
    "vnumber": ("v-number of an ideal or point set", _read_kind, cmd_vnumber, [
        ("--kind", {"choices": ["ideal", "points"], "default": "ideal"}),
        ("--degree-cap", {"type": int}),
    ]),
}


def build_parser(argv):
    """The parser of the command line ``argv``.  When ``argv`` opens with a
    subcommand, only that subparser is built, which parses ``argv`` as the
    full parser would; otherwise all of them are, so that help, usage and
    error text name every subcommand."""
    parser = argparse.ArgumentParser(
        prog="monomials",
        description="Exact computations with monomial ideals and their blowup algebras",
    )
    names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else list(_COMMANDS)
    # a lone subparser gets the usage metavar argparse gives the full set
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, _, extra = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + extra:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv):
    args = build_parser(argv).parse_args(argv)
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "input", "out") and v is not None
    }
    document = {
        "command": args.command, "options": _jsonable(options), "partial": False
    }
    _, reader, handler, _ = _COMMANDS[args.command]
    code = 0
    try:
        for name in ("budget_points", "budget_cycles", "degree_cap"):
            cap = getattr(args, name, None)
            if cap is not None and cap < 0:
                flag = "--" + name.replace("_", "-")
                raise InputError(f"bad {flag} {cap}: must not be negative")
        value, canonical = reader(args)
        results, certs = handler(value, args)
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
        document["stage"] = exc.stage
        document["partial"] = True
        code = 3
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


# the status of a process ended by SIGPIPE, as a shell reports it
EXIT_BROKEN_PIPE = 128 + 13


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
