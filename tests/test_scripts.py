import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("spline_support_sweep.py", ["--max-K", "5", "--max-p", "4", "--grid", "128"]),
        ("frame_bound_convergence.py", ["--max-draws", "1024"]),
    ],
)
def test_script_runs(script, args):
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


def run_parity(base_src, change_src, *flags, problems=()):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "cli_parity.py"), *flags, base_src,
         change_src, *problems],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_parity_same_tree():
    src = os.path.join(ROOT, "src")
    proc = run_parity(src, src)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" differ\n") and proc.stdout.split()[-2] == "0"


def test_cli_parity_design_seeds():
    # the design workloads' problem files at seed 1 join the shipped ones
    src = os.path.join(ROOT, "src")
    proc = run_parity(src, src, "--seeds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    problems = re.search(r" on (\d+) problems: 0 differ\n$", proc.stdout)
    assert problems and int(problems[1]) > len(os.listdir(os.path.join(ROOT, "problems")))


def changed_copy(tmp_path, old, new):
    """A copy of ``src/`` whose ``cli.py`` has its one ``old`` replaced by ``new``."""
    changed = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "orbitsamp" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    return changed


def test_cli_parity_reports_a_difference(tmp_path):
    # a copy whose verdict line reads differently must fail the comparison
    changed = changed_copy(tmp_path, "recoverable: {", "Recoverable: {")
    proc = run_parity(os.path.join(ROOT, "src"), str(changed))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DIFF analyze --input" in proc.stdout and "stdout line" in proc.stdout


def test_cli_parity_rtol(tmp_path):
    # floats written with 16 significant digits, not 17: only CSV bytes change
    changed = changed_copy(tmp_path, '"%d,%.17g,%.17g', '"%d,%.16g,%.16g')
    proc = run_parity(os.path.join(ROOT, "src"), str(changed))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "files differ: " in proc.stdout and "max relative difference" in proc.stdout
    assert "stdout line" not in proc.stdout and "NEAR" not in proc.stdout
    proc = run_parity(os.path.join(ROOT, "src"), str(changed), "--rtol", "1e-14")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "NEAR dual --input" in proc.stdout and proc.stdout.split()[-2] == "0"


def test_cli_parity_reports_every_differing_line(tmp_path):
    # the first two lines of the frame report renamed: both are reported
    changed = changed_copy(
        tmp_path,
        'print(f"alpha_G = {_fmt(fc.alpha_G)}")\n    print(f"beta_G = ',
        'print(f"alpha = {_fmt(fc.alpha_G)}")\n    print(f"beta = ',
    )
    problem = os.path.join(ROOT, "problems", "shift_spline.json")
    proc = run_parity(os.path.join(ROOT, "src"), str(changed), problems=[problem])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    report = proc.stdout.split("DIFF analyze --input")[1].split("DIFF")[0]
    assert "stdout line 2: 'alpha_G = " in report and "stdout line 3: 'beta_G = " in report


def test_line_differences_cover_endings_and_missing_lines():
    spec = importlib.util.spec_from_file_location(
        "cli_parity", os.path.join(ROOT, "scripts", "cli_parity.py")
    )
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    assert parity._line_differences("a\nb\n", "a\nb\n") == []
    assert parity._line_differences("a\nb\n", "a\nc\nd") == [
        "line 2: 'b\\n' != 'c\\n'",
        "line 3: None != 'd'",
    ]
    assert parity._line_differences("a\n", "a") == ["line 1: 'a\\n' != 'a'"]
