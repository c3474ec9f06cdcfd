"""Benchmark of orbitsamp as its users drive it: one workload, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload cyclic-design --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for their ladders and why each was chosen):
``cyclic-design``, ``lca-design``, ``shift-design`` and ``stream-apply``.

The run generates the workload's inputs from ``--seed`` with numpy alone,
then times set-up (import of ``orbitsamp`` from ``src/`` plus an untimed
warm-up op, and for ``stream-apply`` building the designs) several times and
keeps the median.  Then it runs the workload's once-per-run ops, if any, and
repeats whole cycles of ops, one at a time, until ``--seconds`` have passed
and the tail percentile has at least ten timed ops beyond it, and checks
every op's output.

Every timed op and set-up is scaled to a reference host speed, measured
by a timer with a fixed kernel (see ``hostspeed.py``); the unscaled
figures and the kernel's median time are recorded on the environment line.
Each op of the workload is timed by the median of its repeats in the run
(a once-per-run op by its one time), and the latency metrics are taken over
those per-op times: ``ops_per_s`` is the workload's ops over the sum of
their times, ``op_p50_ms`` and ``op_tail_ms`` the median and the tail
percentile of the per-op times.  So the figures do not depend on how many
cycles fitted into the run, nor on which rung a pooled median happens to
fall in.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` makes a separate run whose cycles alternate between untraced
and traced for ``--seconds``, reporting each public function's calls and
self time (unscaled) as one set-up (with the once-per-run ops) plus one
cycle of ops, three computed counts, the tracing overhead, the kernel's
median time and the share of failed ops.

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment.
``correct`` is false when an op fails other than by a known defect of the
program (see ``workloads.py``); known-defect failures still count in
``failed``.  BLAS and OpenMP run one thread, so a run uses one core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _run_op(op, ctx, failures, meter):
    """Time one op's own call, then check its output; returns its meter entry."""
    for path in op.outputs:
        _remove(path)
    begun = meter.begin()
    try:
        result, reason = op.call(ctx), None
    except (Exception, SystemExit) as exc:  # a failed op, never the run
        result, reason = None, f"{type(exc).__name__}: {exc}"
    entry = meter.end(begun)
    if reason is None:
        try:
            reason = op.check(result)
        except (OSError, ValueError, KeyError) as exc:
            reason = f"output check: {type(exc).__name__}: {exc}"
    if reason:
        failures.append((op, reason))
    return entry


def tail_position(wl):
    """Where the tail percentile falls among the workload's ops, and how many
    whole cycles leave at least ten timed ops beyond it.

    Once-per-run ops are taken to be the slowest, each one timed op.
    """
    n = len(wl.once) + len(wl.ops)
    pos = (n - 1) * wl.tail_pct / 100
    beyond = n - 1 - int(pos)
    return pos, max(1, math.ceil((10 - len(wl.once)) / (beyond - len(wl.once))))


def run_once(wl, ctx, failures, meter):
    """The workload's ops that run one time per run; returns their entries."""
    return [_run_op(op, ctx, failures, meter) for op in wl.once]


def timed_loop(wl, ctx, failures, meter, *, seconds=None, start=None, cycles=None):
    """Repeat whole cycles of ``wl.ops``; returns each op's meter entries.

    ``latencies[i]`` lists op ``i``'s entries, one per cycle.  With
    ``seconds``, stops at the first cycle boundary ``seconds`` after
    ``start`` once enough cycles ran for the tail (see ``tail_position``);
    with ``cycles``, runs exactly that many.
    """
    min_cycles = tail_position(wl)[1]
    latencies = [[] for _ in wl.ops]
    done = 0
    while True:
        if cycles is not None and done == cycles:
            break
        if cycles is None and done >= min_cycles and time.perf_counter() - start >= seconds:
            break
        for i, op in enumerate(wl.ops):
            latencies[i].append(_run_op(op, ctx, failures, meter))
        done += 1
    return latencies


def op_times(latencies, value):
    """Each op's median over its repeats."""
    return [statistics.median(value(e) for e in runs) for runs in latencies]


def end_to_end(wl, setup, once, latencies, failures, attempted, value):
    per_op = [value(e) for e in once] + op_times(latencies, value)
    lat = sorted(per_op)
    # linear interpolation between closest ranks, as numpy's default
    pos = tail_position(wl)[0]
    lo = int(pos)
    tail = lat[lo] + (lat[min(lo + 1, len(lat) - 1)] - lat[lo]) * (pos - lo)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(value(e) for e in setup), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "ok_share": (1 - len(failures) / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def plain_run(wl, args, workloads, hostspeed):
    """Returns the metrics (scaled to the reference host speed), the raw
    figures for the record, the ops attempted and failed, and the cycles."""
    meter = hostspeed.Meter()
    setup, failures = [], []
    meter.start()
    try:
        for _ in range(wl.setup_reps):
            begun = meter.begin()
            ctx = workloads.import_program(SRC)
            wl.prepare(ctx)
            setup.append(meter.end(begun))
        start = time.perf_counter()
        once = run_once(wl, ctx, failures, meter)
        latencies = timed_loop(wl, ctx, failures, meter, seconds=args.seconds, start=start)
    finally:
        meter.stop()
    cycles = len(latencies[0])
    attempted = len(once) + cycles * len(wl.ops)
    result = (setup, once, latencies, failures, attempted)
    metrics = end_to_end(wl, *result, meter.scaled)
    unscaled = {k: v["value"] for k, v in end_to_end(wl, *result, hostspeed.raw).items()}
    unscaled["kernel_ms"] = statistics.median(meter.samples) * 1e3
    return metrics, unscaled, attempted, failures, cycles


def traced_run(wl, args, workloads, spans, hostspeed):
    # no sampling timer here, so that no kernel time falls inside a span;
    # the alternation below keeps the host's drift out of the overhead
    meter = hostspeed.Meter()
    ctx = workloads.import_program(SRC)
    tracer = spans.Tracer("orbitsamp")
    failures = []
    tracer.install()
    try:
        wl.prepare(ctx)
        once = run_once(wl, ctx, failures, meter)
    finally:
        tracer.uninstall()
    setup_totals, setup_counts, setup_spans = tracer.reset()
    # untraced and traced cycles alternate, so that a change in the host's
    # speed during the run does not show up as tracing overhead
    runs = {False: [[] for _ in wl.ops], True: [[] for _ in wl.ops]}
    start = time.perf_counter()
    while not runs[True][0] or time.perf_counter() - start < args.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                result = timed_loop(wl, ctx, failures, meter, cycles=1)
            finally:
                if traced:
                    tracer.uninstall()
            for acc, part in zip(runs[traced], result):
                acc.extend(part)
        meter.sample()
    totals, counts, cycle_spans = tracer.reset()
    cycles = len(runs[True][0])
    attempted = len(once) + 2 * cycles * len(wl.ops)

    metrics = {}
    for name in spans.SPAN_NAMES:
        calls = setup_totals[name][0] + totals[name][0] / cycles
        self_s = setup_totals[name][1] + totals[name][1] / cycles
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": self_s * 1e3, "unit": "ms"}
    for name, unit in spans.COUNTS.items():
        metrics[name] = {"value": setup_counts[name] + counts[name] / cycles, "unit": unit}
    off, on = (sum(op_times(runs[t], hostspeed.raw)) for t in (False, True))
    metrics["trace.overhead_share"] = {"value": 1 - off / on, "unit": "ratio"}
    # self times above are raw seconds; this is the host's speed while they ran
    metrics["host.kernel_ms"] = {"value": statistics.median(meter.samples) * 1e3, "unit": "ms"}
    metrics["fail_share"] = {"value": len(failures) / attempted, "unit": "ratio"}
    if args.spans:
        with open(args.spans, "w") as fh:
            for phase, recorded in (("setup", setup_spans), ("cycles", cycle_spans)):
                for span_id, parent, name, t0, t1, self_s in recorded:
                    fh.write(json.dumps({"phase": phase, "id": span_id, "parent": parent,
                                         "name": name, "start": t0, "end": t1,
                                         "self_s": self_s}) + "\n")
    return metrics, None, attempted, failures, 2 * cycles


def main(argv=None):
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np

    import hostspeed
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span here as JSON lines")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitsamp", "__init__.py")):
        print(f"error: no orbitsamp sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        if args.trace:
            metrics, unscaled, attempted, failures, cycles = traced_run(
                wl, args, workloads, spans, hostspeed)
        else:
            metrics, unscaled, attempted, failures, cycles = plain_run(
                wl, args, workloads, hostspeed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    unexpected = [(op, why) for op, why in failures if not op.known_defect]
    first_reason, count = {}, {}
    for op, why in failures:
        first_reason.setdefault(op.label, why)
        count[op.label] = count.get(op.label, 0) + 1
    for op in [*wl.once, *wl.ops]:
        if op.label in count:
            tag = f"known defect: {op.known_defect}" if op.known_defect else "UNEXPECTED"
            print(f"failed x{count.pop(op.label)}: {op.label}: {first_reason[op.label]} [{tag}]",
                  file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cycles": cycles,
        "ops_per_cycle": len(wl.ops),
        "ops_once": len(wl.once),
        "tail_percentile": wl.tail_pct,
        "failed_known_defect": len(failures) - len(unexpected),
        "failed_unexpected": len(unexpected),
    }
    if unscaled is not None:
        env["unscaled"] = unscaled
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
