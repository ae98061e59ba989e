"""Run one workload of the ``monomials`` benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload rees-cone --seed 1 --seconds 40 --trace 0

Batches of items run one after another, each in a fresh interpreter
(``worker.py``), until ``--seconds`` have passed.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` every batch is run twice on the same inputs, untraced and
traced, in alternating order, and the JSON holds the per-layer metrics from
the traced batches and the tracing overhead.  Lines before the JSON describe
the run for a human reader.  ``--record-reference`` rewrites the digests the
default seed's items are checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402
from perfbench.tracer import PER_LAYER, derive, merge_raw  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
# Times are reported at a fixed host speed: the speed at which the worker's
# calibration work takes this long (about its time on the 2-core Xeon host
# the baseline was measured on).  See README.md, "Host speed".
REFERENCE_HOST_S = 0.004
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_BATCHES = 12
# a batch is not started with less time than this left in the run
MIN_BATCH_START_S = 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not perfbench.have_source():
        print(f"perfbench: no library sources under {perfbench.SRC}", file=sys.stderr)
        return 2
    perfbench.OUT.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    if args.record_reference:
        return record_reference(args.workload)

    batches, pairs = run_batches(args.workload, args.seed, args.seconds, args.trace)
    reference = load_reference().get(args.workload, {})
    items = [item for batch in batches for item in batch["items"]]
    failures = mark_failures(items, reference)
    if args.trace:
        traced = [b for b in batches if b["traced"]]
        raw = {}
        for batch in traced:
            merge_raw(raw, batch["trace"] or {})
        startup = [ms for b in traced for ms in b["startup_ms"]]
        metrics = derive(raw, startup, overhead_ratio(pairs))
        units = dict(PER_LAYER)
    else:
        untraced = [b for b in batches if not b["traced"] and b["setup_s"] is not None]
        if not untraced:
            describe(args, batches, items, failures, reference)
            raise SystemExit("perfbench: no batch finished; nothing to measure")
        metrics, units = end_to_end(untraced, items, failures)
    describe(args, batches, items, failures, reference)
    print(json.dumps({
        "correct": failures == 0,
        "attempted": len(items),
        "failed": failures,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU.

    The calibration that puts times at the reference host speed is taken in
    the worker; on the same CPU as the request processes it also tracks
    them.  Only one process works at a time, so nothing waits for the CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_batches(workload, seed, seconds, trace):
    """Start batches until the run's time is used; returns them and the
    (untraced, traced) pairs of a traced run."""
    start = time.time()
    deadline = start + seconds
    batches, pairs = [], []
    index = 0
    while index == 0 or deadline - time.time() >= MIN_BATCH_START_S:
        if trace:
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {t: launch(workload, seed, index, deadline, t) for t in order}
            batches += [pair[t] for t in order]
            pairs.append((pair[False], pair[True]))
        else:
            batches.append(launch(workload, seed, index, deadline, False))
        index += 1
    return batches, pairs


def launch(workload, seed, batch, deadline, traced):
    """Run one batch in a fresh interpreter and return its description."""
    worker = Path(__file__).resolve().parent / "worker.py"
    spans = perfbench.OUT / "trace" / f"{workload}-seed{seed}-batch{batch}.jsonl.gz"
    cmd = [
        sys.executable, str(worker), workload, str(seed), str(batch),
        repr(deadline), "1" if traced else "0",
    ]
    timeout = max(deadline - time.time(), 0) + 90
    cmd.append(repr(time.time()))
    if traced:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=perfbench.child_env(),
            cwd=perfbench.ROOT, timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1:] or proc.returncode)
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        # a batch that dies counts as one failed item and the run goes on
        result = {
            "setup_s": None, "setup_host_s": None, "peak_rss_kib": None, "trace": None,
            "startup_ms": [],
            "items": [{
                "slot": "batch", "key": None, "latency_s": None, "host_s": None,
                "digest": None,
                "props": {}, "problems": [f"batch {batch} failed: {exc}"],
            }],
        }
    result["traced"] = traced
    result["batch"] = batch
    return result


def mark_failures(items, reference):
    """Count failed items; a digest that differs from the reference fails."""
    failures = 0
    for item in items:
        expected = reference.get(item["key"])
        if expected is not None and item["digest"] is not None and item["digest"] != expected:
            item["problems"].append(f"digest {item['digest']} != reference {expected}")
        failures += bool(item["problems"])
    return failures


def reference_time(seconds, host_s):
    """A wall time re-expressed at the reference host speed."""
    return seconds * REFERENCE_HOST_S / host_s


def end_to_end(batches, items, failures):
    """End-to-end metrics of the untraced batches, at the reference host speed."""
    latencies = [
        reference_time(i["latency_s"], i["host_s"])
        for b in batches for i in b["items"]
    ]
    metrics = {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_p90_ms": percentile(latencies, 90) * 1000,
        "setup_s": statistics.median(
            reference_time(b["setup_s"], b["setup_host_s"]) for b in batches
        ),
        "peak_rss_mib": statistics.median(b["peak_rss_kib"] for b in batches) / 1024,
        "ok_ratio": (len(items) - failures) / len(items),
    }
    units = {
        "items_per_s": "items/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
        "setup_s": "s", "peak_rss_mib": "MiB", "ok_ratio": "ratio",
    }
    return metrics, units


def percentile(values, pct):
    """Linear-interpolated percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def overhead_ratio(pairs):
    """Traced time over untraced time on the items both halves ran, minus 1."""
    plain = traced = 0.0
    for untraced_batch, traced_batch in pairs:
        a = {i["key"]: reference_time(i["latency_s"], i["host_s"])
             for i in untraced_batch["items"] if i["latency_s"]}
        b = {i["key"]: reference_time(i["latency_s"], i["host_s"])
             for i in traced_batch["items"] if i["latency_s"]}
        for key in a.keys() & b.keys():
            plain += a[key]
            traced += b[key]
    return traced / plain - 1 if plain else 0.0


def describe(args, batches, items, failures, reference):
    """Human-readable lines before the JSON result."""
    timed = [b for b in batches if not b["traced"]]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(batches)} batches, {len(items)} items, {failures} failed "
          f"(failed_ratio {failures / max(len(items), 1):.4f} ratio)")
    checked = sum(1 for i in items if i["key"] in reference)
    print(f"# digests checked against the reference: {checked}")
    if timed:
        wall = [i["latency_s"] for b in timed for i in b["items"] if i["latency_s"]]
        host = [i["host_s"] for b in timed for i in b["items"] if i["latency_s"]]
        print(f"# wall clock: {len(wall) / sum(wall):.4g} items/s, item p50 "
              f"{statistics.median(wall) * 1000:.1f} ms, p90 "
              f"{percentile(wall, 90) * 1000:.1f} ms; calibration "
              f"{statistics.median(host) * 1000:.3f} ms (reference "
              f"{REFERENCE_HOST_S * 1000:.3f} ms)")
        print("# items per batch: " + ", ".join(str(len(b["items"])) for b in timed))
    by_slot = {}
    for item in items:
        if item["latency_s"] is not None:
            by_slot.setdefault(item["slot"], []).append(item["latency_s"] * 1000)
    print("# latency by input class, ms (median/max): " + ", ".join(
        f"{slot} {statistics.median(v):.0f}/{max(v):.0f}"
        for slot, v in sorted(by_slot.items())))
    shares = {}
    for item in items:
        for name, value in item["props"].items():
            shares.setdefault(name, {}).setdefault(str(value), 0)
            shares[name][str(value)] += 1
    for name, counts in sorted(shares.items()):
        total = sum(counts.values())
        parts = ", ".join(f"{v}: {100 * c / total:.0f}%" for v, c in sorted(counts.items()))
        print(f"# share by {name} ({total} items): {parts}")
    for item in items:
        for problem in item["problems"]:
            print(f"# FAILED {item['slot']} {item['key']}: {problem}")


def load_reference():
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)["digests"]


def record_reference(workload):
    """Record the digests of the first batches of the default seed."""
    data = {"seed": DEFAULT_SEED, "batches": REFERENCE_BATCHES, "digests": {}}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    table = {}
    for batch in range(REFERENCE_BATCHES):
        result = launch(workload, DEFAULT_SEED, batch, time.time() + 3600, False)
        for item in result["items"]:
            if item["problems"]:
                print(f"perfbench: not recording a failing item: {item['problems']}",
                      file=sys.stderr)
                return 1
            table[item["key"]] = item["digest"]
    data["digests"][workload] = dict(sorted(table.items()))
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
