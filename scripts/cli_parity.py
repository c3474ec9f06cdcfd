#!/usr/bin/env python3
"""Compare the CLI of two source trees, command by command.

    python3 scripts/cli_parity.py BASE_SRC CHANGE_SRC [problem.json ...]

Each tree runs in a child interpreter of its own, which imports ``orbitsamp``
from that tree and sends one fixed corpus through ``cli.main`` in process:

- ``analyze`` and ``dual`` on every problem (the shipped ``problems/*.json``
  when none are named);
- ``reconstruct`` on the cyclic and lca problems, from the samples of a
  subspace element built through the library's public API, with that
  element as the problem's ``truth``;
- ``pr-check`` on the shift problems, filter banks among them;
- ``spline-demo`` at (K, p) = (3, 4), (9, 6) and (15, 10), runtime line masked;
- ``lca-demo`` on its built-in problem and on every lca problem.

Exit codes, stdout, stderr and the bytes of every file a command writes must
match.  The script prints each difference and a summary, and exits 1 when
there is a difference.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPLINES = ((3, 4), (9, 6), (15, 10))
INPUTS = ("p.json", "s.csv")


def _pairs(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _element_samples(o, doc):
    """A subspace element and its samples, or ``None`` when the library
    refuses the problem (its ``reconstruct`` then fails in the CLI too)."""
    try:
        samplers = [_pairs(b) for b in doc["samplers"]]
        if doc["model"] == "cyclic":
            spec = o.CyclicSubspaceSpec(
                operator=o.LinearOperator(_pairs(doc["operator"])),
                generators=[_pairs(a) for a in doc["generators"]],
                orders=doc["orders"],
            )
            scheme = o.SamplingScheme.for_spec(spec, samplers, doc["r"])
            x = spec.synthesize(np.arange(1.0, spec.total_order + 1))
            return x, o.take_samples(spec, scheme, x)
        group = o.FiniteAbelianGroup(tuple(doc["group"]["moduli"]))
        H = o.Subgroup(group, doc["group"]["H_gens"])
        M = o.Subgroup(group, doc["group"]["M_gens"])
        ops = doc["operators"] if "operators" in doc else [doc["operator"]]
        rep = o.GroupRepresentation(H, [_pairs(m) for m in ops])
        spectrum = o.build_group_G_matrix(rep, _pairs(doc["generators"][0]), samplers, H, M)
        x = spectrum.orbit_matrix() @ np.arange(1.0, H.order + 1)
        return x, o.take_group_samples(spectrum, x)
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def _write_inputs(doc, element):
    """``p.json`` with the element as truth and ``s.csv`` with its samples, in
    the working directory; the CSV is formatted here, not by the tree under test."""
    x, samples = element if element is not None else (None, [0j])
    if x is not None:
        doc = dict(doc, truth=[[v.real, v.imag] for v in x.tolist()])
    with open("p.json", "w") as fh:
        json.dump(doc, fh)
    rows = [f"{i},{v.real!r},{v.imag!r}" for i, v in enumerate(complex(v) for v in samples)]
    with open("s.csv", "w") as fh:
        fh.write("\n".join(["index,re,im", *rows]) + "\n")


def corpus(o, problems):
    """``(argv, prepare or None)`` for every command; ``prepare`` writes its inputs."""
    commands = []
    for path in problems:
        with open(path) as fh:
            doc = json.load(fh)
        model = doc.get("model") if isinstance(doc, dict) else None
        commands.append((["analyze", "--input", path], None))
        commands.append((["dual", "--input", path, "--out", "o"], None))
        if model in ("cyclic", "lca"):
            argv = ["reconstruct", "--input", "p.json", "--samples", "s.csv", "--out", "o"]
            element = _element_samples(o, doc)
            commands.append((argv, lambda doc=doc, element=element: _write_inputs(doc, element)))
        if model == "shift":  # a problem without filter pairs checks the refusal
            commands.append((["pr-check", "--input", path], None))
        if model == "lca":
            commands.append((["lca-demo", "--input", path], None))
    commands += [(["spline-demo", "--K", str(K), "--p", str(p)], None) for K, p in SPLINES]
    commands.append((["lca-demo"], None))
    return commands


def run_child(src, problems):
    """Run the corpus against the tree at ``src``; one JSON record per command."""
    sys.path.insert(0, src)
    import orbitsamp as o
    from orbitsamp import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"orbitsamp was imported from {cli.__file__}, not {src}")
    records, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for k, (argv, prepare) in enumerate(corpus(o, problems)):
            cwd = os.path.join(tmp, str(k))
            os.mkdir(cwd)
            os.chdir(cwd)
            if prepare is not None:
                prepare()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
            stdout = "".join(
                "runtime: <masked>\n" if line.startswith("runtime: ") else line
                for line in out.getvalue().splitlines(keepends=True)
            )
            files = {}
            for name in sorted(os.listdir(cwd)):
                if name not in INPUTS:
                    with open(name, "rb") as fh:
                        files[name] = hashlib.sha256(fh.read()).hexdigest()
            records.append(
                {"argv": argv, "rc": rc, "stdout": stdout, "stderr": err.getvalue(),
                 "files": files}
            )
        os.chdir(home)
    json.dump(records, sys.stdout)


def collect(src, problems):
    child = (
        f"import sys; sys.path.insert(0, {HERE!r}); import cli_parity; "
        "cli_parity.run_child(sys.argv[1], sys.argv[2:])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, src, *problems],
        capture_output=True,
        text=True,
        env=dict(os.environ, COLUMNS="80"),
    )
    if proc.returncode != 0:
        raise SystemExit(f"corpus run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _first_difference(a, b):
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} != {len(b.splitlines())} lines"


def compare(base, change):
    """Print every difference; return how many commands differ."""
    if [r["argv"] for r in base] != [r["argv"] for r in change]:
        print("the two trees ran different corpora")
        return max(len(base), len(change))
    differing = 0
    for a, b in zip(base, change):
        reasons = []
        if a["rc"] != b["rc"]:
            reasons.append(f"exit code {a['rc']} != {b['rc']}")
        for stream in ("stdout", "stderr"):
            if a[stream] != b[stream]:
                reasons.append(f"{stream} {_first_difference(a[stream], b[stream])}")
        if a["files"] != b["files"]:
            names = sorted(n for n in a["files"].keys() | b["files"].keys()
                           if a["files"].get(n) != b["files"].get(n))
            reasons.append(f"files differ: {', '.join(names)}")
        if reasons:
            differing += 1
            print(f"DIFF {' '.join(a['argv'])}")
            for reason in reasons:
                print(f"  {reason}")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", help="src/ directory of the reference tree")
    parser.add_argument("change_src", help="src/ directory of the tree to compare")
    parser.add_argument("problems", nargs="*", help="problem files (default: problems/*.json)")
    args = parser.parse_args(argv)
    problems = [os.path.abspath(p) for p in args.problems] or sorted(
        glob.glob(os.path.join(ROOT, "problems", "*.json"))
    )
    base = collect(os.path.abspath(args.base_src), problems)
    change = collect(os.path.abspath(args.change_src), problems)
    differing = compare(base, change)
    files = sum(len(r["files"]) for r in base)
    print(f"{len(base)} commands, {files} files compared on {len(problems)} problems: "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
