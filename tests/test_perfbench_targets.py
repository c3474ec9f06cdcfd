"""Every span the benchmark tracer wraps names a live binding of the package.

``perfbench/spans.py`` is read as text (its ``TARGETS`` literal), not
imported, so the test neither runs nor writes anything under ``perfbench/``.
"""

import ast
import importlib
import inspect
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench",
                     "spans.py")


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
