"""One batch of a workload in a fresh interpreter.

The library's module caches live as long as the interpreter, so every timed
repetition starts here, cold: import, input generation and a warm-up on
inputs disjoint from the timed ones make up the set-up; then the timed loop
runs the batch's items one after another until they are done or the
deadline passes.  Prints one JSON line describing the batch.

Usage (started by ``run.py``)::

    python worker.py WORKLOAD SEED BATCH DEADLINE TRACE SPAWNED [SPANS_OUT]

DEADLINE and SPAWNED are ``time.time()`` values; TRACE is 0 or 1.
"""

import gzip
import itertools
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from time import perf_counter


def main(argv):
    workload_name, seed, batch = argv[0], int(argv[1]), int(argv[2])
    deadline, traced, spawned = float(argv[3]), argv[4] == "1", float(argv[5])
    spans_out = argv[6] if len(argv) > 6 else None

    import perfbench
    from perfbench import workloads
    from perfbench.tracer import Tracer

    workload = workloads.get(workload_name)
    items = workload.inputs(seed, batch)
    warm = workload.warmup(seed, batch)
    if workload.in_process:
        perfbench.use_checkout_source()
        import monomials.cli  # noqa: F401  (every layer, as a user's import)

        for inp in warm:
            workload.run(inp)
        tracer = Tracer().install() if traced else None
        setup_s = time.time() - spawned
        host = HostSpeed()
        results = timed_loop(workload, items, deadline, tracer, host)
        raw = tracer.raw() if tracer else None
        spans = [tracer.spans] if tracer else []
        if tracer:
            tracer.restore()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        startup_ms = []
    else:
        with tempfile.TemporaryDirectory(dir=perfbench.OUT) as workdir:
            env = perfbench.child_env()
            for inp, path in zip(warm, workload.prepare(warm, workdir)):
                out = workload.run(workload.command(inp, path), env, timeout=60)
                if workload.check(inp, out):
                    raise SystemExit(f"warm-up request failed: {out['stderr']}")
            paths = workload.prepare(items, workdir)
            setup_s = time.time() - spawned
            host = HostSpeed()
            results, raw, spans, startup_ms = cli_loop(
                workload, items, paths, deadline, traced, env, workdir, host
            )
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if spans_out and spans:
        write_spans(spans_out, spans)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_host_s": host.first,
        "peak_rss_kib": rss_kib,
        "items": results,
        "trace": raw,
        "startup_ms": startup_ms,
    }))


def calibration_work():
    """A fixed slice of pure-Python work of the library's kind: Fraction
    elimination and a divisibility scan over exponent tuples."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(8)]
         for i in range(6)]
    r = 0
    for c in range(8):
        p = next((i for i in range(r, 6) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(6):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    kept = []
    for a in sorted(itertools.product(range(5), repeat=4), key=lambda p: (sum(p), p)):
        if not any(all(x <= y for x, y in zip(g, a)) for g in kept):
            if (3 * a[0] + 2 * a[1] + a[2] + 5 * a[3]) % 7 == 6:
                kept.append(a)
    return r, len(kept)


def calibrate(repeats=3):
    """Time of the calibration work on the host as it runs now (best of a
    few, so a preempted repeat does not count)."""
    best = None
    for _ in range(repeats):
        start = perf_counter()
        calibration_work()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class HostSpeed:
    """Calibration times taken before the first item and after each one.

    The host this runs on is shared: its speed drifts by tens of per cent
    over minutes and jumps for seconds at a time.  Each item is reported
    with the mean calibration time measured just before and just after it,
    so that its time can be expressed at a fixed host speed.
    """

    def __init__(self):
        self.last = calibrate()
        self.first = self.last

    def around_item(self):
        now = calibrate()
        mean = (self.last + now) / 2
        self.last = now
        return mean


def timed_loop(workload, items, deadline, tracer, host):
    results = []
    for index, inp in enumerate(items):
        if results and time.time() >= deadline:
            break
        out, error = None, None
        start = perf_counter()
        try:
            if tracer is not None:
                with tracer.item(index):
                    out = workload.run(inp)
            else:
                out = workload.run(inp)
        except Exception as exc:  # noqa: BLE001  (a failing item is counted)
            error = _describe(exc)
        latency = perf_counter() - start
        results.append(_result(workload, inp, out, error, latency, host.around_item()))
    return results


def cli_loop(workload, items, paths, deadline, traced, env, workdir, host):
    from perfbench.tracer import merge_raw

    results, spans, startup_ms, raw = [], [], [], {} if traced else None
    for index, (inp, path) in enumerate(zip(items, paths)):
        if results and time.time() >= deadline:
            break
        trace_path = os.path.join(workdir, f"trace-{index}.json") if traced else None
        cmd = workload.command(inp, path, trace_path)
        out, error = None, None
        spawned = time.time()
        start = perf_counter()
        try:
            out = workload.run(cmd, env, timeout=max(deadline - time.time(), 0) + 60)
        except Exception as exc:  # noqa: BLE001  (a failing item is counted)
            error = _describe(exc)
        latency = perf_counter() - start
        if traced and out is not None and os.path.exists(trace_path):
            with open(trace_path) as fh:
                child = json.load(fh)
            merge_raw(raw, child["raw"])
            startup_ms.append((child["ready"] - spawned) * 1000)
            spans.append([[n, a, b, p, index] for n, a, b, p, _ in child["spans"]])
        results.append(_result(workload, inp, out, error, latency, host.around_item()))
    return results, raw, spans, startup_ms


def _result(workload, inp, out, error, latency, host_s):
    problems = [error] if error else _checked(workload, inp, out)
    return {
        "slot": inp.slot,
        "key": inp.key,
        "latency_s": latency,
        "host_s": host_s,
        "problems": problems,
        "digest": None if error else _digest(workload, out),
        "props": workload.props(inp, None if error else out),
    }


def _checked(workload, inp, out):
    try:
        return workload.check(inp, out)
    except Exception as exc:  # noqa: BLE001  (an unverifiable result fails)
        return [f"check raised {_describe(exc)}"]


def _digest(workload, out):
    from perfbench.workloads import digest

    return digest(workload.canonical(out))


def _describe(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {os.path.basename(frame[0].filename)}:{frame[0].lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


def write_spans(path, spans_per_process):
    """Spans as JSON lines: name, start, end, parent index, item id."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for spans in spans_per_process:
            fh.write(json.dumps(spans, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
