"""Batch 0 of the ``closure-staircase``, ``rees-cone`` and ``cli-oneshot``
benchmark workloads at seed 0, run in this process, against the digests
recorded in ``perfbench/reference.json``: a change that alters a closure
report, a cone check or a CLI report fails here, before any benchmark run."""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from monomials import cli  # noqa: E402
from perfbench import workloads  # noqa: E402


def check_batch_0(name, run):
    """Run every item of batch 0 through ``run(workload, items)``, which
    yields (input, report) pairs, and compare each report's digest."""
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    assert reference["seed"] == 0
    digests = reference["digests"][name]
    workload = workloads.get(name)
    items = workload.inputs(0, 0)
    assert len(items) == len(workload.SLOTS)
    for inp, report in run(workload, items):
        assert workload.check(inp, report) == [], inp.slot
        assert workloads.digest(workload.canonical(report)) == digests[inp.key], inp.slot


def in_process(workload, items):
    return ((inp, workload.run(inp)) for inp in items)


def test_closure_staircase_batch_0_matches_the_reference_digests():
    check_batch_0("closure-staircase", in_process)


def test_rees_cone_batch_0_matches_the_reference_digests():
    check_batch_0("rees-cone", in_process)


def test_cli_oneshot_batch_0_matches_the_reference_digests(tmp_path):
    """Each request goes through ``cli.run`` with the argument list the
    workload's command line would pass; its printed report is the stdout
    of the command."""

    def through_cli_run(workload, items):
        for inp, path in zip(items, workload.prepare(items, tmp_path)):
            argv = [path if a == "INPUT" else a for a in inp.data[0]]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.run(argv)
            yield inp, {"code": code, "stdout": out.getvalue(), "stderr": ""}

    check_batch_0("cli-oneshot", through_cli_run)
