"""Tests of the benchmark itself: generators, span accounting, digests, tracer."""

import sys

import pytest

import perfbench
from perfbench import run, tracer, workloads

perfbench.use_checkout_source()

from monomials import cli, closure, core, graphs, linalg  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    workload = workloads.get(name)
    first = [inp.text for inp in workload.inputs(7, 3)]
    assert first == [inp.text for inp in workload.inputs(7, 3)]
    assert first != [inp.text for inp in workload.inputs(8, 3)]
    assert len(set(first)) == len(first) == len(workload.SLOTS)
    warm = [inp.text for inp in workload.warmup(7, 3)]
    assert warm == [inp.text for inp in workload.warmup(7, 3)]
    assert not set(warm) & set(first)


def test_warmup_ideals_cannot_share_cache_entries_with_timed_ones():
    for workload in (workloads.ReesCone(), workloads.ClosureStaircase()):
        timed = {inp.data[0] for inp in workload.inputs(0, 0)}
        warm = {inp.data[0] for inp in workload.warmup(0, 0)}
        assert max(warm) < min(timed)  # fewer variables, so unequal ideals


def test_self_times_of_a_call_tree_add_up_to_the_root():
    spans = [
        ["item", 0.0, 10.0, -1, 0],
        ["polyhedra.hilbert_basis", 1.0, 4.0, 0, 0],
        ["linalg.rank", 2.0, 3.0, 1, 0],
        ["closure.closure_of_power", 5.0, 9.0, 0, 0],
        ["core.ideal_power", 6.0, 6.5, 3, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    t = tracer.Tracer()
    t.spans.extend(spans)
    raw = t.raw()
    layers = sum(raw.get(f"{layer}.self_s", 0) for layer in tracer.LAYERS)
    assert layers + raw["trace.glue_s"] == raw["trace.item_s"] == 10.0
    assert raw["polyhedra.hilbert.calls"] == 1
    assert raw["polyhedra.hilbert.self_s"] == 2.0


def test_traced_layers_add_up_to_the_item_time():
    t = tracer.Tracer().install()
    try:
        with t.item(0):
            closure.closure_report(core.MonomialIdeal(3, [(2, 0, 1), (0, 1, 2)]))
    finally:
        t.restore()
    raw = t.raw()
    layers = sum(raw.get(f"{layer}.self_s", 0) for layer in tracer.LAYERS)
    assert layers + raw["trace.glue_s"] == pytest.approx(raw["trace.item_s"])
    assert raw["closure.closure_of_power.calls"] >= 1
    assert raw["closure.rees.hits"] >= 1


def test_digest_check_flags_an_altered_result():
    workload = workloads.ClosureStaircase()
    inp = workload.inputs(0, 0)[0]
    out = workload.canonical(workload.run(inp))
    reference = {inp.key: workloads.digest(out)}
    altered = dict(out, index=out["index"] + 1)
    items = [
        {"key": inp.key, "digest": workloads.digest(out), "problems": []},
        {"key": inp.key, "digest": workloads.digest(altered), "problems": []},
    ]
    assert run.mark_failures(items, reference) == 1
    assert items[1]["problems"] and not items[0]["problems"]


def test_tracer_wraps_aliases_and_restores_every_binding():
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("monomials")]
    before = [dict(vars(m)) for m in modules]
    original_rank = linalg.rank
    t = tracer.Tracer().install()
    try:
        assert graphs.mat_rank is linalg.rank is not original_rank
        assert cli.ideal_power is core.ideal_power
        assert core.divides.__module__ == "monomials.core"  # hot leaf, unwrapped
        with t.item(0):
            graphs.edge_subring_dimension(core.Graph(3, [(0, 1), (1, 2)]))
    finally:
        t.restore()
    assert "linalg.rank" in {span[0] for span in t.spans}
    for module, snapshot in zip(modules, before):
        current = vars(module)
        assert all(current[k] is v for k, v in snapshot.items()), module.__name__
