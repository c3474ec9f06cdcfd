#!/usr/bin/env python3
"""Compare the CLI of two source trees, command by command.

    python3 scripts/cli_parity.py [--seeds N ...] [--npy] BASE_SRC CHANGE_SRC [problem.json ...]

Each tree runs in a child interpreter of its own, which imports ``orbitsamp``
from that tree and sends one fixed corpus through ``cli.main`` in process:

- ``analyze`` and ``dual`` on every problem (the shipped ``problems/*.json``
  when none are named), and with ``--seeds`` on the problem files of the
  ``cyclic-design``, ``lca-design`` and ``shift-design`` benchmark workloads
  at each seed, which ``perfbench/workloads.py`` writes to a temporary
  directory;
- ``dual --u-matrix`` on every problem but the bezout shift ones, with a
  fixed nonzero ``U`` of the shape that the library gives the problem's
  dual matrices;
- ``reconstruct`` on the cyclic and lca problems, from the samples of a
  subspace element built through the library's public API, with that
  element as the problem's ``truth``;
- ``pr-check`` on the shift problems, filter banks among them;
- ``spline-demo`` at (K, p) = (3, 4), (9, 6) and (15, 10), runtime line masked.

With ``--npy`` the change side reads every problem, ``reconstruct`` input
and ``U`` in its binary form: each vector and matrix is written to a
complex ``.npy`` file beside the JSON, which refers to it as ``{"npy":
name}``.  Run on one tree, it checks that the two forms give the same output.

Exit codes, stdout, stderr and the bytes of every file a command writes must
match; every differing line of stdout and stderr is printed.  When a
written CSV differs in bytes, both files are parsed and their largest
relative difference is printed: ``max |a - b|`` over rows, relative to the
largest ``|a|`` of the base file.  With ``--rtol`` above 0 (default
0, a byte check), files with the same indices and a relative difference at
most ``rtol`` count as matching, and so do two lines of stdout or stderr
whose text is the same once every number is masked and whose numbers
differ pairwise by at most ``rtol * max(|a|, |b|, 1)``; each such file and
line is listed on a ``NEAR`` line.  An exception that escapes ``cli.main``,
or the library calls that build a ``reconstruct`` input, is that command's
outcome (its type and message), and the run goes on.  The script prints
each difference and a summary, and exits 1 when there is a difference.
"""

import argparse
import contextlib
import glob
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPLINES = ((3, 4), (9, 6), (15, 10))
DESIGNS = ("cyclic-design", "lca-design", "shift-design")
INPUTS = ("p.json", "s.csv", "u.json")  # and the .npy files of the binary form
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _pairs(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _cyclic(o, doc):
    """The spec and sampling scheme of a cyclic problem."""
    spec = o.CyclicSubspaceSpec(
        operator=o.LinearOperator(_pairs(doc["operator"])),
        generators=[_pairs(a) for a in doc["generators"]],
        orders=doc["orders"],
    )
    return spec, o.SamplingScheme.for_spec(spec, [_pairs(b) for b in doc["samplers"]], doc["r"])


def _lca(o, doc):
    """The representation, the generator and the spectrum of an lca problem."""
    group = o.FiniteAbelianGroup(tuple(doc["group"]["moduli"]))
    H = o.Subgroup(group, doc["group"]["H_gens"])
    M = o.Subgroup(group, doc["group"]["M_gens"])
    ops = doc["operators"] if "operators" in doc else [doc["operator"]]
    rep = o.GroupRepresentation(H, [_pairs(m) for m in ops])
    a = _pairs(doc["generators"][0])
    samplers = [_pairs(b) for b in doc["samplers"]]
    return rep, a, o.build_group_G_matrix(rep, a, samplers, H, M)


REFUSED = (ValueError, KeyError, TypeError, IndexError)


def _element_samples(o, doc):
    """A subspace element and its samples, or ``None`` when the library
    refuses the problem (its ``reconstruct`` then fails in the CLI too);
    any other exception propagates."""
    try:
        if doc["model"] == "cyclic":
            spec, scheme = _cyclic(o, doc)
            x = spec.synthesize(np.arange(1.0, spec.total_order + 1))
            return x, o.take_samples(spec, scheme, x)
        rep, a, spectrum = _lca(o, doc)
        x = rep.orbit(a) @ np.arange(1.0, rep.H.order + 1)
        return x, o.take_group_samples(spectrum, x)
    except REFUSED:
        return None


def _npy(value, path, field):
    """``{"npy": name}`` for an array saved beside ``path``, named from ``field``."""
    name = f"{os.path.splitext(os.path.basename(path))[0]}.{field}.npy"
    np.save(os.path.join(os.path.dirname(path), name), _pairs(value))
    return {"npy": name}


def write_json(path, doc, npy=False):
    """Write ``doc`` to ``path``; with ``npy`` its vectors and matrices (the
    whole of a ``U``) go to ``.npy`` files beside it, which it refers to."""
    if npy and isinstance(doc, list):
        doc = _npy(doc, path, "u")
    elif npy:
        doc = dict(doc)
        for key in ("operator", "truth"):
            if key in doc:
                doc[key] = _npy(doc[key], path, key)
        for key in ("operators", "generators", "samplers"):
            if key in doc:
                doc[key] = [_npy(v, path, f"{key}{i}") for i, v in enumerate(doc[key])]
        if "sequences" in doc:
            doc["sequences"] = {name: dict(seq, values=_npy(seq["values"], path, name))
                                for name, seq in doc["sequences"].items()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _u_matrix(o, doc, npy=False):
    """A fixed ``U`` for ``dual --u-matrix``, shaped as the library shapes the
    problem's dual matrices (``cols x rows``); entries that vary by position,
    so that a transposed or reordered ``U`` shows.  A 1 x 1 ``U`` when the
    library refuses the problem; any other exception propagates."""
    try:
        if doc["model"] == "cyclic":
            R = o.build_sample_matrix(*_cyclic(o, doc))
            shape = (R.cols, R.rows)
        elif doc["model"] == "lca":
            spectrum = _lca(o, doc)[2]
            shape = (spectrum.r, spectrum.s)
        else:
            seqs = doc["sequences"]
            names = sorted((n for n in seqs if n[:1] == "g" and n[1:].isdigit()),
                           key=lambda n: int(n[1:]))
            r = doc.get("r", 1)
            field = o.build_spectral_field(
                [o.FiniteSequence(seqs[n]["offset"], _pairs(seqs[n]["values"])) for n in names],
                r, doc.get("grid", 1024) * r,
            )
            shape = field.values.shape[:0:-1]
    except REFUSED:
        shape = (1, 1)
    # the ramp keeps rows apart when a row's length is a multiple of the period 5
    k = np.arange(math.prod(shape)).reshape(shape)
    U = (k % 5 - 2) * (0.1 + 0.05j) + 0.01 * k
    write_json("u.json", [[[v.real, v.imag] for v in row] for row in U.tolist()], npy)


def _write_inputs(doc, element, npy=False):
    """``p.json`` with the element as truth and ``s.csv`` with its samples, in
    the working directory; the CSV is formatted here, not by the tree under test."""
    x, samples = element if element is not None else (None, [0j])
    if x is not None:
        doc = dict(doc, truth=[[v.real, v.imag] for v in x.tolist()])
    write_json("p.json", doc, npy)
    rows = [f"{i},{v.real!r},{v.imag!r}" for i, v in enumerate(complex(v) for v in samples)]
    with open("s.csv", "w") as fh:
        fh.write("\n".join(["index,re,im", *rows]) + "\n")


def corpus(o, problems, npy=False):
    """``(argv, prepare or None)`` for every command; ``prepare`` writes its
    inputs, in their binary form with ``npy``."""
    commands = []
    for path in problems:
        with open(path) as fh:
            doc = json.load(fh)
        model = doc.get("model") if isinstance(doc, dict) else None
        commands.append((["analyze", "--input", path], None))
        commands.append((["dual", "--input", path, "--out", "o"], None))
        if model is not None and doc.get("method") != "bezout":  # bezout takes no U
            argv = ["dual", "--input", path, "--out", "o", "--u-matrix", "u.json"]
            commands.append((argv, lambda doc=doc: _u_matrix(o, doc, npy)))
        if model in ("cyclic", "lca"):
            argv = ["reconstruct", "--input", "p.json", "--samples", "s.csv", "--out", "o"]
            # built when the command runs, so that an exception is its outcome
            commands.append(
                (argv, lambda doc=doc: _write_inputs(doc, _element_samples(o, doc), npy))
            )
        if model == "shift":  # a problem without filter pairs checks the refusal
            commands.append((["pr-check", "--input", path], None))
    commands += [(["spline-demo", "--K", str(K), "--p", str(p)], None) for K, p in SPLINES]
    return commands


def run_child(src, problems, npy=False):
    """Run the corpus against the tree at ``src``; one JSON record per command.
    With ``npy`` each command reads the binary form of its problem, recorded
    under the problem's own path."""
    sys.path.insert(0, src)
    import orbitsamp as o
    from orbitsamp import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"orbitsamp was imported from {cli.__file__}, not {src}")
    records, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        binary = {}
        for k, path in enumerate(problems if npy else ()):
            binary[path] = os.path.join(tmp, f"problem{k}.json")
            with open(path) as fh:
                write_json(binary[path], json.load(fh), npy)
        for k, (argv, prepare) in enumerate(corpus(o, problems, npy)):
            cwd = os.path.join(tmp, str(k))
            os.mkdir(cwd)
            os.chdir(cwd)
            out, err = io.StringIO(), io.StringIO()
            rc, raised = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if prepare is not None:
                        prepare()
                    rc = cli.main([binary.get(arg, arg) for arg in argv])
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                except Exception as exc:
                    raised = f"{type(exc).__name__}: {exc}"
            stdout = "".join(
                "runtime: <masked>\n" if line.startswith("runtime: ") else line
                for line in out.getvalue().splitlines(keepends=True)
            )
            files = {}
            for name in sorted(os.listdir(cwd)):
                if name not in INPUTS and not name.endswith(".npy"):
                    with open(name, "rb") as fh:
                        files[name] = fh.read().decode("latin-1")  # byte for byte
            records.append(
                {"argv": argv, "rc": rc, "raised": raised, "stdout": stdout,
                 "stderr": err.getvalue(), "files": files}
            )
        os.chdir(home)
    json.dump(records, sys.stdout)


def design_problems(seeds, workdir):
    """Problem files of the design workloads at each seed, written under ``workdir``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    paths = []
    for seed in seeds:
        for name in DESIGNS:
            out = os.path.join(workdir, f"{name}-{seed}")
            os.mkdir(out)
            workloads.WORKLOADS[name](np.random.default_rng(seed), out)
            paths += sorted(glob.glob(os.path.join(out, "*.json")))
    return paths


def collect(src, problems, npy=False):
    child = (
        f"import sys; sys.path.insert(0, {HERE!r}); import cli_parity; "
        "cli_parity.run_child(sys.argv[2], sys.argv[3:], sys.argv[1] == 'npy')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "npy" if npy else "json", src, *problems],
        capture_output=True,
        text=True,
        env=dict(os.environ, COLUMNS="80"),
    )
    if proc.returncode != 0:
        raise SystemExit(f"corpus run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _number_difference(x, y):
    """``max |a - b| / max(|a|, |b|, 1)`` over the numbers of two lines whose
    text is the same once every number is masked; ``None`` when it is not."""
    if x is None or y is None or NUMBER.sub("#", x) != NUMBER.sub("#", y):
        return None
    pairs = zip(map(float, NUMBER.findall(x)), map(float, NUMBER.findall(y)))
    return max((abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in pairs), default=0.0)


def _line_differences(a, b, rtol=0.0):
    """``(differing, near)``: ``line n: x != y`` for every line, with its
    ending, that differs between two texts beyond ``rtol`` (a line that one
    text lacks reads ``None``), and ``line n (...)`` for those within it."""
    differing, near = [], []
    pairs = itertools.zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True))
    for n, (x, y) in enumerate(pairs, start=1):
        if x == y:
            continue
        rel = _number_difference(x, y) if rtol > 0 else None
        if rel is not None and rel <= rtol:
            near.append(f"line {n} (max relative difference {rel:.3e})")
        else:
            differing.append(f"line {n}: {x!r} != {y!r}")
    return differing, near


def _csv_rows(text):
    """``{index: complex value}`` of a written CSV, or ``None`` when it is not one."""
    lines = text.splitlines()
    if not lines or lines[0] != "index,re,im":
        return None
    try:
        rows = [line.split(",") for line in lines[1:]]
        return {int(i): complex(float(Fraction(re)), float(Fraction(im))) for i, re, im in rows}
    except ValueError:
        return None


def _relative_difference(a, b):
    """``max |a - b|`` over the rows of two CSV texts, relative to the largest
    ``|a|``; ``None`` when either is not a CSV or their indices differ."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    if rows_a is None or rows_b is None or rows_a.keys() != rows_b.keys():
        return None
    diff = max((abs(v - rows_b[k]) for k, v in rows_a.items()), default=0.0)
    scale = max(map(abs, rows_a.values()), default=0.0)
    return diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf)


def _file_differences(a, b, rtol):
    """``(differing, near)``: descriptions of the files that differ beyond
    ``rtol`` and of those that differ in bytes only within it."""
    differing, near = [], []
    for name in sorted(a.keys() | b.keys()):
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        rel = None if x is None or y is None else _relative_difference(x, y)
        if rel is None:
            differing.append(f"{name} (not comparable as CSV)")
        else:
            (near if 0 < rtol and rel <= rtol else differing).append(
                f"{name} (max relative difference {rel:.3e})"
            )
    return differing, near


def compare(base, change, rtol=0.0):
    """Print every difference; return how many commands differ."""
    if [r["argv"] for r in base] != [r["argv"] for r in change]:
        print("the two trees ran different corpora")
        return max(len(base), len(change))
    differing = 0
    for a, b in zip(base, change):
        reasons = []
        if a["rc"] != b["rc"]:
            reasons.append(f"exit code {a['rc']} != {b['rc']}")
        if a["raised"] != b["raised"]:
            reasons.append(f"raised {a['raised']!r} != {b['raised']!r}")
        near = []
        for stream in ("stdout", "stderr"):
            lines, close = _line_differences(a[stream], b[stream], rtol)
            reasons += [f"{stream} {line}" for line in lines]
            near += [f"{stream} {line}" for line in close]
        files, close = _file_differences(a["files"], b["files"], rtol)
        near += close
        if files:
            reasons.append(f"files differ: {', '.join(files)}")
        if near:
            print(f"NEAR {' '.join(a['argv'])}: {', '.join(near)}")
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
    parser.add_argument("--seeds", type=int, nargs="+", default=[],
                        help="add the design workloads' problem files at these seeds")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference of CSV values and of the numbers "
                             "in output lines that counts as matching (default 0: files "
                             "and lines must match byte for byte)")
    parser.add_argument("--npy", action="store_true",
                        help="the change side reads its arrays from .npy files")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--seeds" in argv:  # the seeds end at the first argument that is not one
        end = argv.index("--seeds") + 1
        while end < len(argv) and argv[end].isdigit():
            end += 1
        if end < len(argv) and not argv[end].startswith("-"):
            argv.insert(end, "--")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.rtol) and args.rtol >= 0):
        parser.error(f"--rtol must be a finite nonnegative number, got {args.rtol}")
    problems = [os.path.abspath(p) for p in args.problems] or sorted(
        glob.glob(os.path.join(ROOT, "problems", "*.json"))
    )
    with tempfile.TemporaryDirectory() as workdir:
        problems += design_problems(args.seeds, workdir)
        base = collect(os.path.abspath(args.base_src), problems)
        change = collect(os.path.abspath(args.change_src), problems, args.npy)
    differing = compare(base, change, args.rtol)
    files = sum(len(r["files"]) for r in base)
    print(f"{len(base)} commands, {files} files compared on {len(problems)} problems: "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
