"""Every module of the package is reached from ``orbitsamp`` or ``orbitsamp.cli``:
code that no entry point imports lives under ``tests/`` or ``scripts/``."""

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
