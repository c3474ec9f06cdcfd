"""Self-check of the benchmark: both modes of every workload, on two seeds.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 1] [--workload NAME ...]

Each workload runs in its own process (peak memory only ever rises within
one), twice untraced and twice traced, on seeds 1 and 2.  The check fails
when a run exits non-zero or reports ``correct: false``, when a result's
keys or metric names differ from ``BENCHMARK.json``, when two runs give
different metric keys, when a computed count (every ``.calls``, the
``hilbert.``/``lca.`` computed counts) differs between the two traced runs,
or when a recorded span's parent does not enclose it.  Every metric is
printed by name with its unit; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from spans import COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEEDS = (1, 2)


def is_computed(name):
    return name.endswith(".calls") or name in COUNTS


def run(workload, seed, trace, seconds, spans_path=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check_spans(path):
    """Every span's parent is recorded in the same phase and encloses it."""
    spans = {}
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans[(s["phase"], s["id"])] = s
    for (phase, _), s in spans.items():
        if s["parent"] < 0:
            continue
        parent = spans.get((phase, s["parent"]))
        if parent is None or not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            return f"span {s['id']} ({s['name']}) is not enclosed by its parent"
        if s["self_s"] < 0:
            return f"span {s['id']} ({s['name']}) has negative self time"
    return None if spans else "no spans recorded"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    work = os.path.join(ROOT, ".perfbench_work")
    spans_path = os.path.join(work, f"selfcheck-{os.getpid()}.spans.jsonl")
    try:
        for workload in args.workload or names:
            for trace in (0, 1):
                results = []
                for seed in SEEDS:
                    where = f"{workload} trace={trace} seed={seed}"
                    keep_spans = spans_path if trace and seed == SEEDS[0] else None
                    result, error = run(workload, seed, trace, args.seconds, keep_spans)
                    if error:
                        problems.append(f"{where}: {error}")
                        continue
                    if set(result) != RESULT_KEYS:
                        problems.append(f"{where}: result keys {sorted(result)}")
                    if not result["correct"]:
                        problems.append(f"{where}: an op failed its output check")
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    if got != expected[trace]:
                        problems.append(f"{where}: metrics differ from BENCHMARK.json")
                    print(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
                    for k, v in result["metrics"].items():
                        print(f"  {k} = {v['value']:.6g} {v['unit']}")
                    if keep_spans:
                        error = check_spans(spans_path)
                        if error:
                            problems.append(f"{where}: {error}")
                    results.append(result["metrics"])
                if len(results) == 2:
                    a, b = results
                    if set(a) != set(b):
                        problems.append(f"{workload} trace={trace}: metric keys differ across runs")
                    for k in a:
                        if is_computed(k) and a[k]["value"] != b.get(k, {}).get("value"):
                            problems.append(f"{workload}: computed {k} differs: "
                                            f"{a[k]['value']} vs {b[k]['value']}")
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
