"""Every span the benchmark tracer wraps names a live binding of the package,
and the library calls of the ``stream-apply`` workload run and pass their checks.

``perfbench/spans.py`` is read as text (its ``TARGETS`` literal), not
imported; the workload runs in a child interpreter started with ``-B``.  So
the tests write nothing under ``perfbench/``.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def tracer_targets():
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS list")


def resolves(mod_name, path, kind):
    """Whether the tracer's binding for this target exists, as ``Tracer.install`` reads it."""
    module = importlib.import_module(f"orbitsamp.{mod_name}")
    if kind == "func":
        return inspect.isfunction(getattr(module, path, None))
    cls_name, _, meth = path.partition(".")
    owner = vars(getattr(module, cls_name, object))
    if kind == "init":
        return "__init__" in owner
    if kind == "method":
        return inspect.isfunction(owner.get(meth))
    return kind == "classmethod" and isinstance(owner.get(meth), classmethod)


def test_every_target_resolves():
    targets = tracer_targets()
    assert targets
    assert [t for t in targets if not resolves(*t)] == []


STREAM_CALLS = """
import sys
import weakref
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
ctx = workloads.import_program(sys.argv[2])
workload = workloads.StreamWorkload(np.random.default_rng(1))
designs, build = [], ctx.cyclic.build_sample_matrix

def build_sample_matrix(spec, scheme):
    R = build(spec, scheme)
    designs.append(weakref.ref(R))
    return R

ctx.cyclic.build_sample_matrix = build_sample_matrix
workload.prepare(ctx)
assert len(designs) == 1 and designs[0]() is None, "the prepared duals keep their SampleMatrix"
for op in workload.ops[:4]:
    print(op.label, op.check(op.call(ctx)))
"""


def test_stream_workload_library_calls():
    # set-up builds both designs, keeping no SampleMatrix alive, and the first four
    # ops (a cyclic and three lca applies) each pass their own check: the calls the
    # benchmark times
    proc = subprocess.run(
        [sys.executable, "-B", "-c", STREAM_CALLS, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cyclic apply #0 None", "lca apply #0 None",
                                        "lca apply #1 None", "lca apply #2 None"]
