"""Batch 0 of the ``closure-staircase`` and ``rees-cone`` benchmark workloads
at seed 0, run in this process, against the digests recorded in
``perfbench/reference.json``: a change that alters a closure report or a
cone check fails here, before any benchmark run."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def check_batch_0(name):
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    assert reference["seed"] == 0
    digests = reference["digests"][name]
    workload = workloads.get(name)
    items = workload.inputs(0, 0)
    assert len(items) == len(workload.SLOTS)
    for inp in items:
        report = workload.run(inp)
        assert workload.check(inp, report) == [], inp.slot
        assert workloads.digest(workload.canonical(report)) == digests[inp.key], inp.slot


def test_closure_staircase_batch_0_matches_the_reference_digests():
    check_batch_0("closure-staircase")


def test_rees_cone_batch_0_matches_the_reference_digests():
    check_batch_0("rees-cone")
