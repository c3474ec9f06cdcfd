import glob
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("spline_support_sweep.py", ["--max-K", "5", "--max-p", "4", "--grid", "128"]),
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


def replace_once(path, old, new):
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def changed_copy(tmp_path, old, new, module="cli.py"):
    """A copy of ``src/`` whose ``module`` has its one ``old`` replaced by ``new``."""
    changed = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    replace_once(changed / "orbitsamp" / module, old, new)
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


def test_cli_parity_rtol_covers_output_lines(tmp_path):
    # printed floats with 16 significant digits, not 17: only stdout numbers change
    changed = changed_copy(tmp_path, 'format(float(x), ".17g")', 'format(float(x), ".16g")')
    problem = os.path.join(ROOT, "problems", "shift_spline.json")
    proc = run_parity(os.path.join(ROOT, "src"), str(changed), problems=[problem])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "stdout line" in proc.stdout and "NEAR" not in proc.stdout
    proc = run_parity(os.path.join(ROOT, "src"), str(changed), "--rtol", "1e-14",
                      problems=[problem])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"NEAR analyze --input \S+: stdout line \d+ \(max relative", proc.stdout)
    assert proc.stdout.split()[-2] == "0"


def test_cli_parity_records_a_crash(tmp_path):
    # analyze raises past cli.main, and so does take_samples, which builds the
    # inputs of cyclic reconstruct: each is its command's outcome, and the run goes on
    changed = changed_copy(tmp_path, """print(f"model: {doc['model']}")""",
                           'raise OverflowError("too large")')
    replace_once(changed / "orbitsamp" / "cyclic.py", "    step = op.power(-scheme.r)\n",
                 '    raise OverflowError("no samples")\n')
    proc = run_parity(os.path.join(ROOT, "src"), str(changed))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "corpus run" not in proc.stdout + proc.stderr
    report = proc.stdout.split("DIFF analyze --input")[1].split("DIFF")[0]
    assert re.search(r"exit code \d != None", report)
    assert "raised None != 'OverflowError: too large'" in report
    report = proc.stdout.split("DIFF reconstruct --input")[1].split("DIFF")[0]
    assert "raised None != 'OverflowError: no samples'" in report
    assert re.search(r"\d+ commands, \d+ files compared on \d+ problems: \d+ differ\n$",
                     proc.stdout)


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


def test_cli_parity_compares_u_matrix_duals(tmp_path):
    # lca duals that drop U differ only where U reaches them: dual --u-matrix
    # on a problem with more samplers than the annihilator's order (s = 3, r = 2)
    changed = changed_copy(tmp_path, "family.pinv if U is None else", "family.pinv if True else",
                           "lca.py")
    e = [[[float(i == k), 0.0] for i in range(4)] for k in range(4)]
    doc = {
        "model": "lca",
        "dimension": 4,
        "operator": [e[(k - 1) % 4] for k in range(4)],
        "generators": [e[0]],
        "samplers": [e[0], e[1], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]],
        "group": {"moduli": [4], "H_gens": [[1]], "M_gens": [[2]]},
    }
    problem = tmp_path / "lca.json"
    problem.write_text(json.dumps(doc))
    proc = run_parity(os.path.join(ROOT, "src"), str(changed), problems=[str(problem)])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.count("DIFF ") == 1
    report = proc.stdout.split("DIFF dual --input")[1]
    assert report.startswith(f" {problem} --out o --u-matrix u.json\n")
    assert "files differ: o.c1.csv (max relative difference" in report


def test_cli_parity_npy(tmp_path):
    # the binary form of the shipped problems gives the JSON form's output;
    # a copy that reads .npy values scaled by 1 + 2**-20 differs in every
    # model, and only when the change side reads the binary form
    src = os.path.join(ROOT, "src")
    proc = run_parity(src, src, "--npy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[-2] == "0"
    changed = changed_copy(tmp_path, "allow_pickle=False), dtype=complex)",
                           "allow_pickle=False), dtype=complex) * (1 + 2**-20)")
    proc = run_parity(src, str(changed), "--npy")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for name in ("bank_spline", "cyclic_perm", "lca_z4", "shift_spline"):
        assert f"DIFF analyze --input {ROOT}/problems/{name}.json\n" in proc.stdout
    assert "DIFF reconstruct --input p.json" in proc.stdout
    assert run_parity(src, str(changed)).returncode == 0


def test_binary_form_refers_to_every_array(tmp_path):
    # every vector and matrix of a shipped problem, and a whole U, is one .npy
    # file beside the JSON, named relative to it, with the values of the pairs
    from orbitsamp import cli

    parity = load_parity()
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        copy = tmp_path / os.path.basename(path)
        parity.write_json(str(copy), doc, npy=True)
        binary = json.loads(copy.read_text())
        arrays = [(doc[k], binary[k]) for k in ("operator", "truth") if k in doc]
        for key in ("operators", "generators", "samplers"):
            arrays += list(zip(doc.get(key, []), binary.get(key, [])))
        for name, seq in doc.get("sequences", {}).items():
            arrays.append((seq["values"], binary["sequences"][name]["values"]))
        assert arrays
        for pairs, ref in arrays:
            assert list(ref) == ["npy"] and os.sep not in ref["npy"]
            want = cli._complex_array(pairs, "x", np.ndim(pairs) - 1, "array")
            got = np.load(tmp_path / ref["npy"])
            assert got.dtype == complex and np.array_equal(got, want)
        assert json.dumps(binary).count('"npy"') == len(arrays)
    parity.write_json(str(tmp_path / "u.json"), [[[1.0, 2.0], [3.0, 4.0]]], npy=True)
    assert json.loads((tmp_path / "u.json").read_text()) == {"npy": "u.u.npy"}
    assert np.load(tmp_path / "u.u.npy").tolist() == [[1 + 2j, 3 + 4j]]


def test_u_matrix_fits_every_shipped_problem(tmp_path, monkeypatch):
    # the U is nonzero, and dual exits with it as without it: a U of the wrong
    # shape would exit 2 on the recoverable problems; bezout takes none
    import orbitsamp
    from orbitsamp import cli

    parity = load_parity()
    monkeypatch.chdir(tmp_path)
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("method") == "bezout":
            continue
        parity._u_matrix(orbitsamp, doc)
        with open("u.json") as fh:
            U = json.load(fh)
        assert any(v != [0.0, 0.0] for row in U for v in row)
        argv = ["dual", "--input", path, "--out", "o", "--u-matrix", "u.json"]
        assert cli.main(argv) == cli.main(argv[:-2]), path


def test_transposed_u_matrix_is_seen(tmp_path, monkeypatch, capsys):
    # on the shipped problems with more samplers than the sampling period,
    # I - A pinv is not 0: U's transpose exits 2, and its rows in another
    # order change the written duals
    import orbitsamp
    from orbitsamp import cli

    parity = load_parity()
    monkeypatch.chdir(tmp_path)

    def duals(path, U):
        with open("u.json", "w") as fh:
            json.dump(U.tolist(), fh)
        for old in glob.glob("o.*.csv"):
            os.remove(old)
        rc = cli.main(["dual", "--input", path, "--out", "o", "--u-matrix", "u.json"])
        return rc, {f: open(f).read() for f in sorted(glob.glob("o.*.csv"))}

    for name in ("cyclic_oversampled.json", "lca_oversampled.json"):
        path = os.path.join(ROOT, "problems", name)
        with open(path) as fh:
            parity._u_matrix(orbitsamp, json.load(fh))
        with open("u.json") as fh:
            U = np.array(json.load(fh))
        assert U.shape[0] != U.shape[1]
        rc, written = duals(path, U)
        assert rc == 0 and written
        assert duals(path, U.transpose(1, 0, 2))[0] == 2
        assert duals(path, U[::-1]) != (rc, written)
        assert duals(path, 0 * U) != (rc, written)
    assert "error: " in capsys.readouterr().err


def load_parity():
    spec = importlib.util.spec_from_file_location(
        "cli_parity", os.path.join(ROOT, "scripts", "cli_parity.py")
    )
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_line_differences_cover_endings_and_missing_lines():
    parity = load_parity()
    assert parity._line_differences("a\nb\n", "a\nb\n") == ([], [])
    assert parity._line_differences("a\nb\n", "a\nc\nd") == ([
        "line 2: 'b\\n' != 'c\\n'",
        "line 3: None != 'd'",
    ], [])
    assert parity._line_differences("a\n", "a") == (["line 1: 'a\\n' != 'a'"], [])


def test_line_differences_within_rtol():
    parity = load_parity()
    a = "rank 9/9\nx = 2.0000000000001e3\ntiny 3e-16 -1\nr = 1.5\n"
    b = "rank 9/9\nx = 2000.0\ntiny 1.2e-15 -1\nr: 1.5\n"
    differing, near = parity._line_differences(a, b, 1e-12)
    assert differing == ["line 4: 'r = 1.5\\n' != 'r: 1.5\\n'"]
    # line 2 relative to the larger value, line 3 below 1 and so absolute
    assert near[0].startswith("line 2 (max relative difference 5.00") and len(near) == 2
    assert near[1] == "line 3 (max relative difference 9.000e-16)"
    differing, near = parity._line_differences(a, b, 1e-16)
    assert len(differing) == 3 and near == []
    assert parity._line_differences(a, b)[1] == []  # rtol 0: text only
