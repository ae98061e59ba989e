import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from monomials import cli
from monomials.core import ideal_power

from helpers import connected_atlas_graphs, random_ideal, random_squarefree_ideal


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_bytes(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return str(path)


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_normality_report(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", "1 1 0 0\n0 1 1 0\n0 0 1 1\n1 0 0 1\n")
    code, doc = run_capture(capsys, ["normality", path])
    assert code == 0
    assert doc["results"] == {"normal": True, "method": "hilbert+powers"}
    assert doc["partial"] is False


def test_normality_report_by_powers_only(tmp_path, capsys):
    path = write(tmp_path, "ci.txt", "2 0\n0 2\n")
    code, doc = run_capture(capsys, ["normality", path, "--method", "powers"])
    assert code == 0
    assert doc["results"] == {"normal": False, "method": "powers"}
    assert doc["certificates"]["witness_power"] == 1
    assert doc["certificates"]["witness_monomial"] == [1, 1]


def test_determinism_and_round_trip(tmp_path, capsys):
    path = write(tmp_path, "c3.txt", "1 1 0\n0 1 1\n1 0 1\n")
    code1, doc1 = run_capture(capsys, ["resurgence", path])
    code2, doc2 = run_capture(capsys, ["resurgence", path])
    assert (code1, doc1) == (code2, doc2)
    assert doc1["results"]["rho_ic"] == "4/3"
    # round-trip: rerunning on the embedded canonical input reproduces it
    path2 = write(tmp_path, "echo.txt", doc1["input"] + "\n")
    code3, doc3 = run_capture(capsys, ["resurgence", path2])
    assert doc3["results"] == doc1["results"]
    assert doc3["input"] == doc1["input"]


def test_containment_q6(tmp_path, capsys):
    path = write(
        tmp_path,
        "q6.txt",
        "1 1 0 0 1 0\n1 0 1 1 0 0\n0 1 1 0 0 1\n0 0 0 1 1 1\n",
    )
    code, doc = run_capture(capsys, ["containment", path, "--r", "1..6"])
    assert code == 0
    assert doc["results"]["containment_function"] == {
        "1": 1, "2": 3, "3": 4, "4": 5, "5": 6, "6": 7
    }


def test_graph_analyze(tmp_path, capsys):
    path = write(tmp_path, "twotri.txt", "6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
    code, doc = run_capture(capsys, ["graph-analyze", path])
    assert code == 0
    res = doc["results"]
    assert res["bipartite"] is False
    assert res["edge_ideal_normal"] is False
    assert res["hochster_configurations"] == 1
    assert res["odd_cycle_condition"] is False
    assert doc["certificates"]["hochster_monomials"] == [
        {"monomial": [1, 1, 1, 1, 1, 1], "z_degree": 3}
    ]


def test_graph_analyze_enumerates_the_induced_cycles_twice(tmp_path, capsys, monkeypatch):
    """The odd cycle condition and the edge subring's normality are read off
    the Hochster configurations the command already holds; only the bowties
    walk the cycles again."""
    from monomials import graphs

    from helpers import bowtie_figure_graph

    graph = bowtie_figure_graph()
    text = f"{graph.s}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in graph.edges)
    path = write(tmp_path, "bowtie.txt", text)
    calls = []
    induced_cycles = graphs.induced_cycles

    def counted(*args, **kwargs):
        calls.append(args)
        return induced_cycles(*args, **kwargs)

    monkeypatch.setattr(graphs, "induced_cycles", counted)
    code, doc = run_capture(capsys, ["graph-analyze", path])
    assert code == 0
    assert len(calls) == 2
    monkeypatch.setattr(graphs, "induced_cycles", induced_cycles)
    res = doc["results"]
    assert res["hochster_configurations"] == 1
    assert res["odd_cycle_condition"] is graphs.odd_cycle_condition(graph) is False
    assert res["edge_subring_normal"] is graphs.edge_subring_normal(graph) is False


def test_graph_analyze_tests_packing_on_13_vertices_one_isolated(tmp_path, capsys):
    """The packing limit counts the vertices on edges: the path on 12
    vertices plus an isolated 13th gets its packing verdict."""
    edges = "".join(f"{i} {i + 1}\n" for i in range(1, 12))
    path = write(tmp_path, "path12.txt", "13\n" + edges)
    code, doc = run_capture(capsys, ["graph-analyze", path])
    assert code == 0
    assert doc["results"]["vertices"] == 13
    assert doc["results"]["packing"] is True


def test_malformed_input_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "1 1\nx y\n")
    code, doc = run_capture(capsys, ["normality", path])
    assert code == 2
    assert "error" in doc and doc["error_line"] == 2


def test_bad_point_header_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad_points.txt", "x 3\n1 0 0\n")
    code, doc = run_capture(capsys, ["vnumber", path, "--kind", "points"])
    assert code == 2
    assert doc["error_line"] == 1


def test_bad_range_exits_2(tmp_path, capsys):
    path = write(tmp_path, "c3.txt", "1 1 0\n0 1 1\n1 0 1\n")
    code, doc = run_capture(capsys, ["containment", path, "--r", "3..x"])
    assert code == 2
    assert "3..x" in doc["error"]


def test_precondition_exits_2(tmp_path, capsys):
    path = write(tmp_path, "nonsq.txt", "2 0\n0 1\n")
    code, doc = run_capture(capsys, ["symbolic", path, "--power", "2"])
    assert code == 2
    assert "squarefree" in doc["error"]


def test_resurgence_of_an_ideal_missing_a_variable_exits_2(tmp_path, capsys):
    path = write(tmp_path, "x.txt", "1 0\n")
    code, doc = run_capture(capsys, ["resurgence", path])
    assert code == 2
    assert "every variable" in doc["error"]


def test_budget_exits_3(tmp_path, capsys):
    # relabeled copy of Q6 so no earlier test has cached its powers
    path = write(
        tmp_path,
        "q6b.txt",
        "0 1 1 0 0 1\n0 1 0 1 1 0\n1 0 1 1 0 0\n1 0 0 0 1 1\n",
    )
    code, doc = run_capture(
        capsys, ["symbolic", path, "--power", "6", "--budget-points", "10"]
    )
    assert code == 3
    assert doc["partial"] is True
    assert doc["needed"] == 7**6
    assert doc["budget"] == 10
    assert doc["stage"] == "symbolic_power"


def test_invariants_honours_the_point_budget(tmp_path, capsys):
    """The Ehrhart check of the multiplicity counts lattice points under
    --budget-points, and stops at once when the cap is small."""
    path = write(
        tmp_path, "artinian.txt",
        "30 0 0 0\n0 30 0 0\n0 0 30 0\n0 0 0 30\n1 1 1 1\n",
    )
    start = time.perf_counter()
    code, doc = run_capture(capsys, ["invariants", path, "--budget-points", "10"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert doc["partial"] is True
    assert (doc["needed"], doc["budget"]) == (11, 10)
    assert doc["stage"] == "lattice_points_system"


@pytest.mark.parametrize("command, flag", [
    ("normality", "--budget-points"),
    ("graph-analyze", "--budget-cycles"),
    ("vnumber", "--degree-cap"),
])
@pytest.mark.parametrize("value", ["-1", "-5"])
def test_negative_cap_exits_2_before_reading(tmp_path, capsys, command, flag, value):
    """The input file does not exist: the cap is refused first."""
    missing = str(tmp_path / "missing.txt")
    code, doc = run_capture(capsys, [command, missing, flag, value])
    assert code == 2
    assert doc["error"] == f"bad {flag} {value}: must not be negative"
    assert doc["options"][flag[2:].replace("-", "_")] == int(value)
    assert "results" not in doc and doc["partial"] is False


def test_degree_cap_budget_reports_the_degree_needed(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", C4)
    code, doc = run_capture(capsys, ["vnumber", path, "--degree-cap", "0"])
    assert code == 3
    assert (doc["needed"], doc["budget"], doc["stage"]) == (1, 0, "v_number_monomial")
    assert doc["error"] == "no v-number witness of degree <= 0"


def test_code_weights_and_vnumber(tmp_path, capsys):
    path = write(tmp_path, "p1f2.txt", "2 2\n1 0\n0 1\n1 1\n")
    code, doc = run_capture(capsys, ["code-weights", path, "--degree", "2"])
    assert code == 0
    assert doc["results"]["minimum_distance"] == 1
    assert doc["results"]["generalized_weights"] == {"1": 1, "2": 2, "3": 3}
    code, doc = run_capture(capsys, ["vnumber", path, "--kind", "points"])
    assert doc["results"]["v_number"] == 2
    ideal_path = write(tmp_path, "c4.txt", "1 1 0 0\n0 1 1 0\n0 0 1 1\n1 0 0 1\n")
    code, doc = run_capture(capsys, ["vnumber", ideal_path])
    assert doc["results"]["v_number"] == 1


def test_code_weights_r_reports_a_prefix_of_the_full_hierarchy(tmp_path, capsys):
    path = write(tmp_path, "f3.txt", "3 3\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 0 1\n"
                 "0 1 1\n1 1 1\n1 2 0\n1 0 2\n1 2 1\n")
    code, full = run_capture(capsys, ["code-weights", path, "--degree", "2"])
    assert code == 0
    k = full["results"]["dimension"]
    weights = full["results"]["generalized_weights"]
    assert (k, list(weights.values())) == (6, [3, 5, 6, 8, 9, 10])
    for r in (1, k - 1, k, k + 3):
        code, doc = run_capture(
            capsys, ["code-weights", path, "--degree", "2", "--r", str(r)]
        )
        assert code == 0
        assert doc["results"]["minimum_distance"] == full["results"]["minimum_distance"] == 3
        assert doc["results"]["generalized_weights"] == {
            str(i): weights[str(i)] for i in range(1, min(r, k) + 1)
        }


@pytest.mark.parametrize("r", ["0", "-1"])
def test_code_weights_r_below_one_exits_2(tmp_path, capsys, r):
    path = write(tmp_path, "p1f2.txt", "2 2\n1 0\n0 1\n1 1\n")
    code, doc = run_capture(capsys, ["code-weights", path, "--r", r])
    assert code == 2
    assert doc["error"] == f"bad --r {r}: r must be at least 1"


def test_multigraph_loop_next_to_an_edge(tmp_path, capsys):
    path = write(tmp_path, "loop.txt", "3\n1 1\n1 2\n2 3\n")
    code, doc = run_capture(capsys, ["graph-analyze", path, "--multigraph"])
    assert code == 0
    res = doc["results"]
    assert (res["covering_number"], res["matching_number"]) == (2, 2)
    assert res["konig"] is True


def test_invariants_and_mfull_and_cremona(tmp_path, capsys):
    path = write(tmp_path, "paper.txt", "6 0\n0 5\n2 2\n3 1\n")
    code, doc = run_capture(capsys, ["invariants", path])
    assert code == 0
    assert doc["results"]["multiplicity"] == 20
    mf = write(tmp_path, "mfull.txt", "11 0\n8 1\n6 2\n5 3\n1 4\n0 10\n")
    code, doc = run_capture(capsys, ["mfull", mf])
    assert doc["results"]["m_full"] is True
    cm = write(tmp_path, "cremona.txt", "1 1 0\n0 1 1\n1 0 1\n")
    code, doc = run_capture(capsys, ["cremona", cm])
    assert doc["results"]["cremona"] is True


def test_certificates_agree_with_the_divisibility_filters():
    """``new_generators`` and ``symbolic_minus_ordinary`` keep the generators
    that are not generators of I^n; they equal the generators not in I^n."""
    rng = random.Random(11)
    gained = 0
    for _ in range(200):
        ideal = random_ideal(rng, rng.randint(3, 4), max_exp=3, max_gens=4)
        args = SimpleNamespace(power=rng.randint(1, 3), budget_points=2_000_000)
        results, certs = cli.cmd_closure(ideal, args)
        power = ideal_power(ideal, args.power)
        expected = [g for g in results["closure_generators"]
                    if not power.contains_monomial(g)]
        assert certs["new_generators"] == expected
        gained += bool(expected)
    assert gained >= 40
    rng = random.Random(12)
    ideals = [random_squarefree_ideal(rng, rng.randint(3, 5)) for _ in range(40)]
    ideals += [graph.edge_ideal() for graph in connected_atlas_graphs(max_nodes=5)]
    symbolic_gaps = 0
    for ideal in ideals:
        args = SimpleNamespace(power=rng.randint(2, 3), budget_points=2_000_000,
                               verify=False)
        results, certs = cli.cmd_symbolic(ideal, args)
        power = ideal_power(ideal, args.power)
        expected = [g for g in results["symbolic_generators"]
                    if not power.contains_monomial(g)]
        assert certs["symbolic_minus_ordinary"] == expected
        symbolic_gaps += bool(expected)
    assert symbolic_gaps >= 25


def test_out_file(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", "1 1 0 0\n0 1 1 0\n0 0 1 1\n1 0 0 1\n")
    out = tmp_path / "report.json"
    code = cli.run(["normality", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["normal"] is True


@pytest.mark.parametrize("make", [
    lambda tmp_path: str(tmp_path / "missing.txt"),
    lambda tmp_path: str(tmp_path),
    lambda tmp_path: write_bytes(tmp_path, b"\xff\xfe1 0\n"),
], ids=["missing", "directory", "undecodable"])
@pytest.mark.parametrize("argv", [
    ["normality"], ["graph-analyze"], ["vnumber", "--kind", "points"],
], ids=["ideal", "graph", "points"])
def test_unreadable_input_exits_2(tmp_path, capsys, make, argv):
    code, doc = run_capture(capsys, [argv[0], make(tmp_path)] + argv[1:])
    assert code == 2
    assert doc["error"].startswith("cannot read input")


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    """The read end is closed before the command starts, so its report
    meets a broken pipe whatever its size."""
    path = write(tmp_path, "c4.txt", "1 1 0 0\n0 1 1 0\n0 0 1 1\n1 0 0 1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed:
        proc = subprocess.run(
            [sys.executable, "-m", "monomials.cli", "normality", path],
            stdout=closed, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_a_fresh_import_of_the_cli_loads_every_layer():
    """Importing the CLI loads every module of the library, so that a
    tracer installed after that one import finds each layer in
    ``sys.modules``."""
    layers = [
        "core", "linalg", "lp", "polyhedra", "closure", "graphs", "symbolic",
        "invariants", "codes", "cli",
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import sys, monomials.cli; "
        f"print([m for m in {layers!r} if 'monomials.' + m not in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _every_option(name):
    """A command line of subcommand ``name`` that sets each of its options
    to a value other than its default."""
    argv = [name, "in.txt", "--out", "o.json", "--budget-points", "5",
            "--budget-cycles", "6"]
    for flag, kwargs in cli._COMMANDS[name][3]:
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in kwargs:
            argv += [flag, next(c for c in kwargs["choices"] if c != kwargs["default"])]
        else:
            argv += [flag, "2" if kwargs.get("type") is int else "1..2"]
    return argv


def _parse(parser, argv):
    """(namespace or exit status, stdout, stderr) of parsing ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_the_requested_subparser_parses_as_the_full_parser(name):
    """A parser built for ``argv`` gives the namespace, help and error text of
    the parser with every subcommand."""
    for argv in (
        [name, "in.txt"], _every_option(name), [name, "--help"], [name],
        [name, "in.txt", "--no-such-option"], [name, "in.txt", "--budget-points", "x"],
    ):
        assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser([]), argv)


def test_only_a_named_subcommand_narrows_the_parser():
    """Without a subcommand first, every subparser is built, so the
    top-level help and errors name them all; with one, the others are
    unknown to the parser."""
    for argv in ([], ["--help"], ["no-such-command", "in.txt"]):
        assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser([]), argv)
    assert "arguments are required: command\n" in _parse(cli.build_parser([]), [])[2]
    parser = cli.build_parser(["mfull", "in.txt"])
    assert _parse(parser, ["mfull", "in.txt"])[0]["command"] == "mfull"
    assert _parse(parser, ["cremona", "in.txt"])[0] == 2
    assert _parse(cli.build_parser([]), ["cremona", "in.txt"])[0]["command"] == "cremona"


def test_empty_range_exits_2(tmp_path, capsys):
    path = write(tmp_path, "c3.txt", "1 1 0\n0 1 1\n1 0 1\n")
    code, doc = run_capture(capsys, ["containment", path, "--r", "3..1"])
    assert code == 2
    assert "3..1" in doc["error"]


def test_graph_over_the_cycle_budget_is_refused_before_it_is_built(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("Graph built for an over-budget vertex count")

    monkeypatch.setattr(cli, "Graph", refuse)
    path = write(tmp_path, "big.txt", "20\n1 2\n2 3\n")
    code, doc = run_capture(capsys, ["graph-analyze", path])
    assert code == 3
    assert doc["error"] == "cycle enumeration limited to s <= 14, got 20"
    assert (doc["needed"], doc["budget"]) == (20, 14)
    assert doc["stage"] == "require_cycle_budget"


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def small_files(head, width, values):
    """Arbitrary bytes, or a header line and up to five rows of ``width``
    tokens drawn from ``values``."""
    row = st.lists(st.sampled_from(values), min_size=width, max_size=width)
    rows = st.lists(row.map(b" ".join), max_size=5)
    return st.one_of(
        st.binary(max_size=40),
        rows.map(lambda rs: b"\n".join(head + rs) + b"\n"),
    )


def tokens(low, high):
    return [str(v).encode() for v in range(low, high + 1)]


IDEAL_FILES = st.integers(1, 5).flatmap(lambda s: small_files([], s, tokens(0, 2)))
GRAPH_FILES = st.integers(1, 7).flatmap(
    lambda n: small_files([str(n).encode()], 2, tokens(1, n))
)
POINT_FILES = st.tuples(st.sampled_from([2, 3, 4]), st.integers(1, 3)).flatmap(
    lambda qs: small_files([b"%d %d" % qs], qs[1], tokens(0, qs[0] - 1))
)


def run_on_bytes(data, argv):
    """Exit code and JSON report of ``argv`` run on a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([argv[0], path] + argv[1:])
    return code, json.loads(out.getvalue())


def uniform_files():
    """One to five exponent rows of s = 1..4 entries, all of one degree d =
    1..3, so that some are Cremona candidates: s monomials of degree d."""
    def rows(s, d):
        return [
            b" ".join(b"%d" % x for x in v)
            for v in itertools.product(range(d + 1), repeat=s) if sum(v) == d
        ]
    return st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda sd: st.lists(st.sampled_from(rows(*sd)), min_size=1, max_size=5)
    ).map(lambda rs: b"\n".join(rs) + b"\n")


def fuzz_report(data, argv):
    """Run ``argv`` on ``data``: the report names the command, the exit is
    0, 2 or 3, and an exit 3 carries the stage and a need over the budget.
    Returns the exit code and the report."""
    code, doc = run_on_bytes(data, argv)
    assert code in (0, 2, 3) and doc["command"] == argv[0]
    if code == 3:
        assert doc["stage"] and doc["needed"] > doc["budget"]
    return code, doc


# every subcommand with an ideal reader, under small caps
IDEAL_COMMANDS = [
    ["normality", "--budget-points", "64"],
    ["closure", "--power", "2", "--budget-points", "64"],
    ["resurgence", "--budget-points", "64"],
    ["containment", "--r", "1..2", "--budget-points", "64"],
    ["invariants", "--budget-points", "64"],
    ["mfull"],
    ["cremona"],
    ["vnumber", "--degree-cap", "2"],
]


@FUZZ
@given(IDEAL_FILES)
def test_fuzz_ideal_reader(data):
    code, doc = fuzz_report(data, ["symbolic", "--budget-points", "64"])
    assert code != 3 or doc["stage"] == "symbolic_power"
    for argv in IDEAL_COMMANDS:
        fuzz_report(data, argv)


@FUZZ
@given(uniform_files())
def test_fuzz_uniform_ideals_reach_the_cremona_test(data):
    """Uniform inputs get past the degree check of ``cremona`` and reach
    the determinant; ``invariants`` and ``mfull`` read them too."""
    for argv in [["cremona"], ["invariants", "--budget-points", "64"], ["mfull"]]:
        fuzz_report(data, argv)


@FUZZ
@given(GRAPH_FILES)
def test_fuzz_graph_reader(data):
    code, doc = fuzz_report(data, ["graph-analyze", "--budget-cycles", "6"])
    assert code != 3 or doc["stage"] == "require_cycle_budget"


@FUZZ
@given(POINT_FILES)
def test_fuzz_points_reader(data):
    fuzz_report(data, ["vnumber", "--kind", "points"])
    fuzz_report(data, ["code-weights", "--degree", "2"])


BUDGETS = {"budget_cycles": 14, "budget_points": 2000000}
C3 = "1 1 0\n0 1 1\n1 0 1\n"
C3_TEXT = "0 1 1\n1 0 1\n1 1 0"
C4 = "1 1 0 0\n0 1 1 0\n0 0 1 1\n1 0 0 1\n"
C4_TEXT = "0 0 1 1\n0 1 1 0\n1 0 0 1\n1 1 0 0"
# the bowtie figure: a 5-cycle and a triangle joined by a path of length 2
BOWTIE = "9\n1 2\n2 3\n3 4\n4 5\n1 5\n5 6\n6 7\n7 8\n7 9\n8 9\n"
BOWTIE_TEXT = "9\n1 2\n1 5\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n7 9\n8 9"
# loops at 1 and 5, both next to a triangle on 2, 3, 4
TWO_LOOPS = "5\n1 1\n5 5\n1 2\n2 3\n3 4\n2 4\n4 5\n"
TWO_LOOPS_TEXT = "5\n1 2\n2 3\n2 4\n3 4\n4 5\n1 1\n5 5"


def report(command, options, text, results, certificates):
    return {
        "command": command, "options": {**BUDGETS, **options}, "partial": False,
        "input": text, "results": results, "certificates": certificates,
    }


WHOLE_REPORTS = [
    (["normality"], C4, 0, report(
        "normality", {"method": "both"}, C4_TEXT,
        {"method": "hilbert+powers", "normal": True}, {})),
    (["closure", "--power", "2"], "2 0\n0 2\n", 0, report(
        "closure", {"power": 2}, "0 2\n2 0",
        {"already_closed": False, "power": 2,
         "closure_generators": [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]]},
        {"new_generators": [[1, 3], [3, 1]]})),
    (["symbolic", "--power", "2"], C3, 0, report(
        "symbolic", {"power": 2, "verify": False}, C3_TEXT,
        {"equals_ordinary": False, "power": 2,
         "symbolic_generators": [[0, 2, 2], [1, 1, 1], [2, 0, 2], [2, 2, 0]]},
        {"symbolic_minus_ordinary": [[1, 1, 1]]})),
    (["resurgence"], C3, 0, report(
        "resurgence", {}, C3_TEXT,
        {"ceiling": 2, "q_dual_integral": False, "q_integral": False,
         "resurgence_is_one": False, "rho_ic": "4/3"},
        {"minimizing_pair": [["1/2"] * 3, ["1/2"] * 3]})),
    (["containment", "--r", "1..2"], C3, 0, report(
        "containment", {"r": "1..2"}, C3_TEXT,
        {"containment_function": {"1": 1, "2": 3}}, {})),
    (["graph-analyze"], "4\n1 2\n2 3\n3 4\n", 0, report(
        "graph-analyze", {"multigraph": False}, "4\n1 2\n2 3\n3 4",
        {"bipartite": True, "covering_number": 2, "edge_ideal_normal": True,
         "edge_subring_dimension": 3, "edge_subring_normal": True, "edges": 3,
         "hochster_configurations": 0, "konig": True, "matching_number": 2,
         "odd_cycle_condition": True, "odd_girth": None, "packing": True,
         "simis_failure_degree": None, "unmixed": True, "vertices": 4},
        {"hochster_monomials": [],
         "subring_closure_generators": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]]})),
    (["graph-analyze"], BOWTIE, 0, report(
        "graph-analyze", {"multigraph": False}, BOWTIE_TEXT,
        {"bipartite": False, "covering_number": 5, "edge_ideal_normal": False,
         "edge_subring_dimension": 9, "edge_subring_normal": False, "edges": 10,
         "hochster_configurations": 1, "konig": False, "matching_number": 4,
         "odd_cycle_condition": False, "odd_girth": 3, "packing": False,
         "simis_failure_degree": 2, "unmixed": False, "vertices": 9},
        {"hochster_monomials": [{"monomial": [1, 1, 1, 1, 1, 0, 1, 1, 1], "z_degree": 4}],
         "subring_closure_generators": [
             [0, 0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 1, 0, 1],
             [0, 0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1, 1, 0, 0],
             [0, 0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0],
             [0, 0, 1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0, 0],
             [1, 0, 0, 0, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0, 0],
             [1, 1, 1, 1, 1, 0, 1, 1, 1]]})),
    (["graph-analyze", "--multigraph"], TWO_LOOPS, 0, report(
        "graph-analyze", {"multigraph": True}, TWO_LOOPS_TEXT,
        {"bipartite": False, "covering_number": 4, "edge_ideal_normal": False,
         "edge_subring_dimension": 5, "edge_subring_normal": False, "edges": 7,
         "hochster_configurations": 1, "konig": False, "matching_number": 3,
         "odd_cycle_condition": False, "odd_girth": 1,
         "simis_failure_degree": 1, "unmixed": True, "vertices": 5},
        {"hochster_monomials": [{"monomial": [1, 0, 0, 0, 1], "z_degree": 1}],
         "subring_closure_generators": [
             [0, 0, 0, 0, 2], [0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 0, 1, 0],
             [0, 1, 1, 0, 0], [0, 1, 1, 1, 1], [1, 0, 0, 0, 1], [1, 1, 0, 0, 0],
             [1, 1, 1, 1, 0], [2, 0, 0, 0, 0]]})),
    (["invariants"], "2 0\n1 1\n0 3\n", 0, report(
        "invariants", {}, "0 3\n1 1\n2 0",
        {"multiplicity": 5, "normalization_index": 0,
         "normalization_hilbert_function": {"0": 0, "1": 4, "2": 13, "3": 27}},
        {})),
    (["mfull"], "3 0\n1 1\n0 3\n", 0, report(
        "mfull", {}, "0 3\n1 1\n3 0", {"m_full": True}, {})),
    (["cremona"], C3, 0, report(
        "cremona", {}, C3_TEXT, {"cremona": True}, {})),
    (["code-weights"], "2 2\n1 0\n0 1\n1 1\n", 0, report(
        "code-weights", {"degree": 1}, "2 2\n1 0\n0 1\n1 1",
        {"dimension": 2, "generalized_weights": {"1": 2, "2": 3}, "length": 3,
         "minimum_distance": 2}, {})),
    (["vnumber"], C4, 0, report(
        "vnumber", {"kind": "ideal"}, C4_TEXT, {"v_number": 1}, {})),
    (["normality"], "1 1\nx y\n", 2, {
        "command": "normality", "options": {**BUDGETS, "method": "both"},
        "partial": False, "error": "bad exponent row: 'x y'", "error_line": 2}),
    (["symbolic", "--power", "3", "--budget-points", "10"], C3, 3, {
        "command": "symbolic",
        "options": {"budget_cycles": 14, "budget_points": 10, "power": 3,
                    "verify": False},
        "partial": True, "error": "symbolic power box has 64 points",
        "needed": 64, "budget": 10, "stage": "symbolic_power"}),
]


def report_ids(rows):
    """``command-exitN``, with ``-2``, ``-3``, ... on repeats of one."""
    seen = Counter()
    for argv, _, code, _ in rows:
        name = f"{argv[0]}-exit{code}"
        seen[name] += 1
        yield name if seen[name] == 1 else f"{name}-{seen[name]}"


@pytest.mark.parametrize(
    "argv, text, code, document", WHOLE_REPORTS, ids=list(report_ids(WHOLE_REPORTS)),
)
def test_whole_report(tmp_path, capsys, argv, text, code, document):
    """Every key of the report, options and canonical input included; error
    reports carry no input, results or certificates."""
    path = write(tmp_path, "input.txt", text)
    assert run_capture(capsys, [argv[0], path] + argv[1:]) == (code, document)
