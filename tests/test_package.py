"""Every module of the package is reached from ``orbitsamp`` or ``orbitsamp.cli``:
code that no entry point imports lives under ``tests/`` or ``scripts/``.  Matrix
powers and inverses are formed in ``hilbert.py`` alone, and importing the package
generates no dataclass."""

import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_module_is_imported():
    modules = sorted(
        os.path.splitext(os.path.basename(path))[0]
        for path in glob.glob(os.path.join(SRC, "orbitsamp", "*.py"))
    )
    # a fresh interpreter: the test session has imported more than the entry points do
    code = ("import sys, orbitsamp, orbitsamp.cli; "
            "print(*(name for name in sys.modules if name.startswith('orbitsamp.')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".", 1)[1] for name in proc.stdout.split()} | {"__init__"}
    assert "cli" in modules and "hilbert" in modules
    assert [name for name in modules if name not in loaded] == []


def test_powers_and_inverses_only_in_hilbert():
    # the models step orbits by their operators; only hilbert.LinearOperator forms either
    found = set()
    for path in glob.glob(os.path.join(SRC, "orbitsamp", "*.py")):
        with open(path) as fh:
            text = fh.read()
        if "matrix_power" in text or "linalg.inv" in text:
            found.add(os.path.basename(path))
    assert found == {"hilbert.py"}


def test_import_generates_no_dataclass():
    # every command is its own process, so the import is paid once per command
    code = ("import inspect, sys, orbitsamp, orbitsamp.cli\n"
            "classes = [c for name, m in list(sys.modules.items()) if name.startswith('orbitsamp')\n"
            "           for _, c in inspect.getmembers(m, inspect.isclass)\n"
            "           if c.__module__.startswith('orbitsamp')]\n"
            "print(len(classes), 'dataclasses' in sys.modules,\n"
            "      [c.__name__ for c in classes if hasattr(c, '__dataclass_fields__')])")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    count, imported, generated = proc.stdout.split(" ", 2)
    assert int(count) > 17
    assert (imported, generated.strip()) == ("False", "[]")
