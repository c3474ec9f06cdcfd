import contextlib
import copy
import functools
import gc
import glob
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orbitsamp as o
from orbitsamp import cli
from orbitsamp.hilbert import RANK_TOL, RESIDUAL_FLAG
from instances import (
    CyclicInstanceConfig,
    block_permutation,
    group_operators,
    operator_with_orders,
    random_cyclic_instance,
    representation_from_characters,
)
import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def cpairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


SHIFT4 = np.roll(np.eye(4), 1, axis=0)
E4 = np.eye(4)


def cyclic_problem(samplers, truth=None):
    doc = {
        "model": "cyclic",
        "dimension": 4,
        "operator": [cpairs(row) for row in SHIFT4],
        "generators": [cpairs(E4[0])],
        "orders": [4],
        "samplers": [cpairs(b) for b in samplers],
        "r": 2,
    }
    if truth is not None:
        doc["truth"] = cpairs(truth)
    return doc


def spline_shift_problem(method="bezout"):
    return {
        "model": "shift",
        "r": 1,
        "grid": 1024,
        "method": method,
        "dual_length": 9,
        "sequences": {
            "g1": {"offset": -1, "values": cpairs([4, 19, 4])},
            "g2": {"offset": -1, "values": cpairs([1, 16, 10])},
        },
    }


def lca_problem():
    return {
        "model": "lca",
        "dimension": 4,
        "operator": [cpairs(row) for row in SHIFT4],
        "generators": [cpairs(E4[0])],
        "samplers": [cpairs(E4[0]), cpairs(E4[1])],
        "group": {"moduli": [4], "H_gens": [[1]], "M_gens": [[2]]},
    }


def large_group_problem(m):
    """``Z_m`` acting on ``C^2`` through ``H = <m/2>``, which ``diag(1, -1)`` represents."""
    return {
        "model": "lca",
        "dimension": 2,
        "operator": [cpairs(row) for row in np.diag([1.0, -1.0])],
        "generators": [cpairs([1.0, 1.0])],
        "samplers": [cpairs(row) for row in np.eye(2)],
        "group": {"moduli": [m], "H_gens": [[m // 2]], "M_gens": [[0]]},
    }


def bank_problem():
    with open(os.path.join(ROOT, "problems", "bank_spline.json")) as fh:
        return json.load(fh)


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as from a shell."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "orbitsamp.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


class TestAnalyze:
    def test_recoverable_cyclic(self, tmp_path, capsys):
        path = write_problem(tmp_path, cyclic_problem([E4[0], E4[1]]))
        assert cli.main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "rank 4/4" in out
        assert "recoverable: yes" in out

    def test_rank_deficient_exit_one(self, tmp_path, capsys):
        path = write_problem(tmp_path, cyclic_problem([E4[0]]))
        assert cli.main(["analyze", "--input", path]) == 1
        assert "rank 2/4" in capsys.readouterr().out

    def test_shift_constant(self, tmp_path, capsys):
        doc = {
            "model": "shift",
            "r": 1,
            "sequences": {"g1": {"offset": 0, "values": cpairs([1])}},
        }
        path = write_problem(tmp_path, doc)
        assert cli.main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "alpha_G = 1" in out and "beta_G = 1" in out

    def test_lca_extra_generator_rejected(self, tmp_path):
        doc = lca_problem()
        doc["generators"].append(cpairs(E4[1]))
        proc = run_cli("analyze", "--input", write_problem(tmp_path, doc))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "generators" in proc.stderr

    @pytest.mark.parametrize("problem", [lambda: cyclic_problem([]), lca_problem])
    def test_no_samplers_exit_two(self, tmp_path, capsys, problem):
        doc = dict(problem(), samplers=[])
        assert cli.main(["analyze", "--input", write_problem(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samplers: need at least one sampler\n"

    def test_lca(self, tmp_path, capsys):
        path = write_problem(tmp_path, lca_problem())
        assert cli.main(["analyze", "--input", path]) == 0
        assert "r = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e-6, 1e3])
    def test_lca_verdict_scale_invariant(self, tmp_path, capsys, scale):
        doc = lca_problem()
        doc["samplers"] = [cpairs(scale * E4[0]), cpairs(scale * E4[1])]
        path = write_problem(tmp_path, doc)
        assert cli.main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "sigma_min/sigma_max" in out and "recoverable: yes" in out
        assert cli.main(["dual", "--input", path, "--out", str(tmp_path / "d")]) == 0

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"model\": \"nonsense\"}")
        assert cli.main(["analyze", "--input", str(path)]) == 2

    def test_missing_input_exit_two(self):
        assert cli.main(["analyze"]) == 2

    def test_sample_matrix_beyond_budget_exit_two(self, tmp_path):
        # s * ell * sum(N_l) = 2 * lcm(13, ..., 43) * 253 entries: refused before R is formed
        orders = [13, 17, 19, 23, 29, 31, 37, 41, 43]
        matrix, generators = block_permutation(orders)
        doc = {"model": "cyclic", "dimension": sum(orders), "orders": orders, "r": 1,
               "operator": [cpairs(row) for row in matrix],
               "generators": [cpairs(a) for a in generators],
               "samplers": [cpairs(generators[0]), cpairs(generators[1])]}
        start = time.perf_counter()
        proc = run_cli("analyze", "--input", write_problem(tmp_path, doc))
        assert time.perf_counter() - start < 30
        assert proc.returncode == 2 and proc.stdout == ""
        entries = 2 * math.lcm(*orders) * sum(orders)
        assert proc.stderr.startswith(f"error: sample matrix R would hold {entries} entries")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["analyze", "dual", "pr-check"])
    @pytest.mark.parametrize("grid, flag", [(40, None), (1024, "40"), (40, "64")])
    def test_grid_below_the_floor_named(self, tmp_path, command, grid, flag):
        # the field or the flag that is too coarse, not the grid*r it would give
        base = bank_problem() if command == "pr-check" else spline_shift_problem("pseudoinverse")
        doc = dict(base, grid=grid, r=2)
        argv = [command, "--input", write_problem(tmp_path, doc)]
        argv += ["--out", str(tmp_path / "d")] if command == "dual" else []
        rc, out, err = run_in_process(argv + (["--grid", flag] if flag else []))
        if flag == "64":  # the flag stands in for the field
            assert rc in (0, 1) and err == ""
        else:
            name = "grid" if flag is None else "--grid"
            assert (rc, out, err) == (2, "", f"error: {name} must be at least 64, got 40\n")


class TestDual:
    def test_cyclic_writes_vectors(self, tmp_path, capsys):
        path = write_problem(tmp_path, cyclic_problem([E4[0], E4[1]]))
        out_prefix = str(tmp_path / "dual")
        assert cli.main(["dual", "--input", path, "--out", out_prefix]) == 0
        text = capsys.readouterr().out
        assert "interpolation table" in text
        _, c1 = cli.read_vector_csv(out_prefix + ".c1.csv")
        assert np.allclose(c1, E4[0])

    def test_dual_on_deficient_problem(self, tmp_path):
        path = write_problem(tmp_path, cyclic_problem([E4[0]]))
        assert cli.main(["dual", "--input", path, "--out", str(tmp_path / "x")]) == 1

    def test_bezout_exact_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, spline_shift_problem())
        out_prefix = str(tmp_path / "spl")
        assert cli.main(["dual", "--input", path, "--out", out_prefix]) == 0
        text = capsys.readouterr().out
        assert "-38/243*z - 5/486*z^2" in text
        assert "79/486*z + 10/243*z^2" in text
        with open(out_prefix + ".c1.csv") as fh:
            body = fh.read()
        assert "-38/243" in body and "-5/486" in body

    def test_pseudoinverse_path(self, tmp_path):
        doc = spline_shift_problem(method="pseudoinverse")
        doc["dual_length"] = 257
        path = write_problem(tmp_path, doc)
        out_prefix = str(tmp_path / "spl")
        assert cli.main(["dual", "--input", path, "--out", out_prefix]) == 0
        idx, vals = cli.read_vector_csv(out_prefix + ".c1.csv")
        # window trimming may drop exactly-zero edge coefficients
        assert 200 <= len(vals) <= 257

    def test_short_truncation_refused(self, tmp_path, capsys):
        path = write_problem(tmp_path, spline_shift_problem(method="pseudoinverse"))
        rc = cli.main(["dual", "--input", path, "--out", str(tmp_path / "spl")])
        assert rc == 1
        assert "truncation refused" in capsys.readouterr().out

    @pytest.mark.parametrize("length", [0, -1, 1025])  # 1025 > grid*r = 1024
    def test_nonpositive_dual_length_exit_two(self, tmp_path, capsys, length):
        doc = spline_shift_problem(method="pseudoinverse")
        doc["dual_length"] = length
        path = write_problem(tmp_path, doc)
        assert cli.main(["dual", "--input", path, "--out", str(tmp_path / "spl")]) == 2
        captured = capsys.readouterr()
        assert "dual_length" in captured.err and captured.out == ""

    def test_dual_length_checked_on_the_grid_in_force(self, tmp_path, capsys):
        # analyze checks the window too, against --grid; the default window fits any grid
        doc = spline_shift_problem(method="pseudoinverse")
        doc["dual_length"] = 65
        argv = ["analyze", "--input", write_problem(tmp_path, doc), "--grid", "64"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dual_length: expected an integer in [1, grid*r = 64], got 65\n"
        del doc["dual_length"]
        argv[2] = write_problem(tmp_path, doc)
        assert cli.main(argv) == 0
        assert cli.main(["dual", *argv[1:], "--out", str(tmp_path / "spl")]) == 0

    def test_refused_before_the_field_is_built(self, tmp_path, monkeypatch):
        # a shift problem for reconstruct and a window beyond grid*r are refused
        # from the problem's own fields, with the same lines, before any field is built
        def build(*args):
            raise AssertionError("spectral field built")

        monkeypatch.setattr(o.spectral, "build_spectral_field", build)
        doc = spline_shift_problem(method="pseudoinverse")
        argv = ["reconstruct", "--input", write_problem(tmp_path, doc),
                "--samples", str(tmp_path / "absent.csv")]
        assert run_in_process(argv) == (2, "", "error: reconstruct supports the cyclic and lca "
                                               "models; use pr-check for filter banks\n")
        doc["dual_length"] = 1025
        argv = ["analyze", "--input", write_problem(tmp_path, doc)]
        assert run_in_process(argv) == (2, "", "error: dual_length: expected an integer in "
                                               "[1, grid*r = 1024], got 1025\n")

    def test_u_matrix_on_bezout_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, spline_shift_problem())
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps([[[1.0, 0.0], [0.0, 1.0]]]))  # (r*L) x s = 1 x 2
        argv = ["dual", "--input", path, "--out", str(tmp_path / "d"), "--u-matrix", str(upath)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --u-matrix applies to pseudo-inverse duals, not bezout\n"
        assert not list(tmp_path.glob("d.*"))

    def test_u_matrix_plumbing(self, tmp_path):
        path = write_problem(tmp_path, cyclic_problem([E4[0], E4[1]]))
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps([[[0.0, 0.0]] * 4] * 4))
        rc = cli.main(
            ["dual", "--input", path, "--out", str(tmp_path / "d"), "--u-matrix", str(upath)]
        )
        assert rc == 0

    def test_wrong_shape_u_exit_two(self, tmp_path):
        path = write_problem(tmp_path, cyclic_problem([E4[0], E4[1]]))
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps([[[1.0, 0.0]]]))
        rc = cli.main(
            ["dual", "--input", path, "--out", str(tmp_path / "d"), "--u-matrix", str(upath)]
        )
        assert rc == 2

    def test_shift_dual_honours_tol(self, tmp_path, capsys):
        # sigma_min/sigma_max = (1 - c)/(1 + c) = 5e-10 for c = 1 - 1e-9, between
        # 1e-10 and 1e-9; the minimum at w = 0 and the maximum at w = 1/2 are grid points
        doc = {
            "model": "shift",
            "r": 1,
            "grid": 64,
            "dual_length": 64,
            "sequences": {"g1": {"offset": 0, "values": cpairs([-0.999999999, 1])}},
        }
        path = write_problem(tmp_path, doc)
        out = ["--out", str(tmp_path / "d")]
        assert cli.main(["analyze", "--input", path]) == 0
        assert cli.main(["dual", "--input", path, *out]) == 0
        assert cli.main(["analyze", "--input", path, "--tol", "1e-9"]) == 1
        assert cli.main(["dual", "--input", path, "--tol", "1e-9", *out]) == 1
        printed = capsys.readouterr().out
        assert "not recoverable: sigma_min/sigma_max = 5.000e-10 <= 1.0e-09" in printed

    def test_lca_duals(self, tmp_path):
        path = write_problem(tmp_path, lca_problem())
        out_prefix = str(tmp_path / "g")
        assert cli.main(["dual", "--input", path, "--out", out_prefix]) == 0
        _, c1 = cli.read_vector_csv(out_prefix + ".c1.csv")
        assert c1.size == 4


def unequal_periods_problem(seed=0):
    """Periods 3 and 6 read every 2 steps by 3 samplers: a square 9 x 9 ``R``, in
    ``C^11`` so that an ambient vector can leave the orbit span; with its library objects."""
    rng = np.random.default_rng(seed)
    op, gens = operator_with_orders(rng, 11, [3, 6], distortion=0.2)
    samplers = [rng.standard_normal(11) + 1j * rng.standard_normal(11) for _ in range(3)]
    doc = {
        "model": "cyclic",
        "dimension": 11,
        "operator": [cpairs(row) for row in op.matrix],
        "generators": [cpairs(a) for a in gens],
        "orders": [3, 6],
        "samplers": [cpairs(b) for b in samplers],
        "r": 2,
    }
    spec = o.CyclicSubspaceSpec(operator=op, generators=gens, orders=[3, 6])
    return doc, spec, o.SamplingScheme.for_spec(spec, samplers, 2)


class TestOrbitSynthesis:
    """Cyclic commands form no power of ``T`` beyond the samples that ``take_samples`` reads."""

    def test_interpolation_table_is_the_samples_of_the_duals(self, tmp_path, capsys):
        doc, spec, scheme = unequal_periods_problem()
        path = write_problem(tmp_path, doc)
        out = str(tmp_path / "dual")
        assert cli.main(["dual", "--input", path, "--out", out]) == 0
        lines = capsys.readouterr().out.split("interpolation table")[1].splitlines()[1:]
        printed = np.array([[float(v) for v in line.split(": ")[1].split()] for line in lines])
        duals = [cli.read_vector_csv(f"{out}.c{j}.csv")[1] for j in (1, 2, 3)]
        table = np.column_stack([o.take_samples(spec, scheme, c) for c in duals])
        assert printed.shape == (9, 3)
        assert np.max(np.abs(printed - np.abs(table))) <= 1e-12

    def test_x_is_the_orbit_synthesis_of_alpha(self, tmp_path):
        doc, spec, scheme = unequal_periods_problem(1)
        x = np.random.default_rng(2).standard_normal(11) + 0j  # outside the orbit span
        spath = str(tmp_path / "s.csv")
        cli.write_vector_csv(spath, o.take_samples(spec, scheme, x))
        out = str(tmp_path / "rec")
        argv = ["reconstruct", "--input", write_problem(tmp_path, doc), "--samples", spath]
        assert cli.main([*argv, "--out", out]) == 0
        _, xr = cli.read_vector_csv(out + ".x.csv")
        _, alpha = cli.read_vector_csv(out + ".alpha.csv")
        assert np.array_equal(xr, spec.orbit @ alpha)

    def test_no_command_forms_a_power(self, tmp_path, monkeypatch):
        doc, spec, scheme = unequal_periods_problem(3)
        spath = str(tmp_path / "s.csv")
        cli.write_vector_csv(spath, o.take_samples(spec, scheme, spec.synthesize(np.ones(9))))
        path = write_problem(tmp_path, doc)

        def no_power(self, k):
            raise AssertionError(f"T^{k} formed")

        monkeypatch.setattr(o.LinearOperator, "power", no_power)
        out = str(tmp_path / "o")
        assert cli.main(["analyze", "--input", path]) == 0
        assert cli.main(["dual", "--input", path, "--out", out]) == 0
        argv = ["reconstruct", "--input", path, "--samples", spath, "--out", out]
        assert cli.main(argv) == 0


class TestReconstruct:
    def make_samples(self, tmp_path, x, samplers):
        op = o.LinearOperator(SHIFT4)
        spec = o.CyclicSubspaceSpec(operator=op, generators=[E4[0]], orders=[4])
        scheme = o.SamplingScheme.for_spec(spec, samplers, 2)
        samples = o.take_samples(spec, scheme, x)
        spath = tmp_path / "samples.csv"
        cli.write_vector_csv(str(spath), samples)
        return str(spath)

    def test_round_trip(self, tmp_path, capsys):
        x = np.array([0.5 - 1j, 2.25, -3.5 + 0.75j, 1.0])
        samplers = [E4[0], E4[1]]
        spath = self.make_samples(tmp_path, x, samplers)
        ppath = write_problem(tmp_path, cyclic_problem(samplers, truth=x))
        out_prefix = str(tmp_path / "rec")
        rc = cli.main(
            ["reconstruct", "--input", ppath, "--samples", spath, "--out", out_prefix]
        )
        assert rc == 0
        _, xr = cli.read_vector_csv(out_prefix + ".x.csv")
        assert np.max(np.abs(xr - x)) < 1e-8

    def test_zero_samples_zero_vector(self, tmp_path):
        samplers = [E4[0], E4[1]]
        spath = tmp_path / "zeros.csv"
        cli.write_vector_csv(str(spath), np.zeros(4, dtype=complex))
        ppath = write_problem(tmp_path, cyclic_problem(samplers))
        out_prefix = str(tmp_path / "rec")
        rc = cli.main(
            ["reconstruct", "--input", ppath, "--samples", str(spath), "--out", out_prefix]
        )
        assert rc == 0
        _, xr = cli.read_vector_csv(out_prefix + ".x.csv")
        assert np.max(np.abs(xr)) == 0

    def test_tampered_samples_flagged(self, tmp_path, capsys):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        samplers = [E4[0], E4[1]]
        op = o.LinearOperator(SHIFT4)
        spec = o.CyclicSubspaceSpec(operator=op, generators=[E4[0]], orders=[4])
        scheme = o.SamplingScheme.for_spec(spec, samplers, 2)
        samples = o.take_samples(spec, scheme, x)
        samples[1] += 0.5
        spath = tmp_path / "bad.csv"
        cli.write_vector_csv(str(spath), samples)
        ppath = write_problem(tmp_path, cyclic_problem(samplers, truth=x))
        rc = cli.main(
            [
                "reconstruct",
                "--input",
                ppath,
                "--samples",
                str(spath),
                "--out",
                str(tmp_path / "rec"),
            ]
        )
        assert rc == 1
        assert "residual exceeds" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["reconstruct", "dual"])
    def test_exit_code_follows_analyze(self, tmp_path, command):
        # --tol bounds sigma_min/sigma_max alone; the left-inverse residual has a
        # fixed bound, so a tolerance below the rounding residual refuses nothing
        rng = np.random.default_rng(0)
        inst = random_cyclic_instance(
            rng, CyclicInstanceConfig(max_dim=12, distortion=0.5)
        )
        spec, scheme = inst.spec, inst.scheme
        docs = [{
            "model": "cyclic",
            "dimension": spec.operator.dim,
            "operator": [cpairs(row) for row in spec.operator.matrix],
            "generators": [cpairs(a) for a in spec.generators],
            "orders": spec.orders,
            "samplers": [cpairs(b) for b in scheme.samplers],
            "r": scheme.r,
        }]
        for path in sorted(glob.glob(os.path.join(ROOT, "problems", "cyclic_*.json"))):
            with open(path) as fh:
                docs.append(json.load(fh))
        verdicts = set()
        for k, doc in enumerate(docs):
            op, gens, samplers = (np.array(doc[key], dtype=float) @ [1, 1j]
                                  for key in ("operator", "generators", "samplers"))
            spec = o.CyclicSubspaceSpec(o.LinearOperator(op), list(gens), doc["orders"])
            scheme = o.SamplingScheme.for_spec(spec, list(samplers), doc["r"])
            spath = str(tmp_path / f"s{k}.csv")
            x = spec.synthesize(np.arange(1.0, spec.total_order + 1))
            cli.write_vector_csv(spath, o.take_samples(spec, scheme, x))
            path = write_problem(tmp_path, doc, f"p{k}.json")
            for tol in ("0", "1e-17", "1e-10"):
                rc, _, _ = run_in_process(["analyze", "--input", path, "--tol", tol])
                argv = [command, "--input", path, "--tol", tol, "--out", str(tmp_path / "o")]
                if command == "reconstruct":
                    argv += ["--samples", spath]
                assert run_in_process(argv)[0] == rc, (k, tol)
                verdicts.add(rc)
        assert verdicts == {0, 1}  # cyclic_rank2.json is not recoverable

    @pytest.mark.parametrize(
        "indices", [[100, 93, 86, 79], [3, 2, 1, 0], [0, 1, 3, 2], [0, 1, 2, 4], [1, 2, 3, 4]]
    )
    def test_indices_out_of_order_exit_two(self, tmp_path, indices):
        x = np.array([0.5 - 1j, 2.25, -3.5 + 0.75j, 1.0])
        samplers = [E4[0], E4[1]]
        spath = self.make_samples(tmp_path, x, samplers)
        _, samples = cli.read_vector_csv(spath)
        cli.write_vector_csv(spath, samples, indices=indices)
        ppath = write_problem(tmp_path, cyclic_problem(samplers, truth=x))
        out_prefix = str(tmp_path / "rec")
        argv = ["reconstruct", "--input", ppath, "--samples", spath, "--out", out_prefix]
        rc, out, err = run_in_process(argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {spath}: indices must run 0..3 in order\n"
        assert not os.path.exists(out_prefix + ".x.csv")

    def test_length_mismatch_exit_two(self, tmp_path):
        samplers = [E4[0], E4[1]]
        spath = tmp_path / "short.csv"
        cli.write_vector_csv(str(spath), np.zeros(3, dtype=complex))
        ppath = write_problem(tmp_path, cyclic_problem(samplers))
        rc = cli.main(
            [
                "reconstruct",
                "--input",
                ppath,
                "--samples",
                str(spath),
                "--out",
                str(tmp_path / "rec"),
            ]
        )
        assert rc == 2

    def test_lca_round_trip(self, tmp_path):
        doc = lca_problem()
        x = np.array([1.0 + 1j, -2.0, 0.5j, 3.0])
        doc["truth"] = cpairs(x)
        ppath = write_problem(tmp_path, doc)
        # samples via the library
        import orbitsamp.lca as lca

        g = lca.FiniteAbelianGroup((4,))
        h = lca.Subgroup(g, [(1,)])
        m = lca.Subgroup(g, [(2,)])
        rep = lca.GroupRepresentation(h, [SHIFT4])
        spectrum = lca.build_group_G_matrix(rep, E4[0], [E4[0], E4[1]], h, m)
        samples = lca.take_group_samples(spectrum, x)
        spath = tmp_path / "ls.csv"
        cli.write_vector_csv(str(spath), samples)
        rc = cli.main(
            [
                "reconstruct",
                "--input",
                ppath,
                "--samples",
                str(spath),
                "--out",
                str(tmp_path / "rec"),
            ]
        )
        assert rc == 0


def test_no_dense_svd_of_sample_matrix(tmp_path, monkeypatch):
    # orders [4, 2], r = 2, s = 4: R is 8 x 6 (ell = 2), the orbit matrix 10 x 6
    rng = np.random.default_rng(3)
    op, gens = operator_with_orders(rng, 10, [4, 2])
    samplers = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(4)]
    spec = o.CyclicSubspaceSpec(operator=op, generators=gens, orders=[4, 2])
    scheme = o.SamplingScheme.for_spec(spec, samplers, 2)
    doc = {
        "model": "cyclic",
        "dimension": 10,
        "operator": [cpairs(row) for row in op.matrix],
        "generators": [cpairs(a) for a in gens],
        "orders": [4, 2],
        "samplers": [cpairs(b) for b in samplers],
        "r": 2,
    }
    path = write_problem(tmp_path, doc)
    samples = str(tmp_path / "samples.csv")
    cli.write_vector_csv(samples, o.take_samples(spec, scheme, gens[0]))
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    out = ["--out", str(tmp_path / "o")]
    assert cli.main(["analyze", "--input", path]) == 0
    assert cli.main(["dual", "--input", path, *out]) == 0
    assert cli.main(["reconstruct", "--input", path, "--samples", samples, *out]) == 0
    assert shapes and (8, 6) not in shapes


class TestInputOutputErrors:
    """Unreadable or non-finite inputs and unwritable outputs exit 2 with one line."""

    def problem_files(self, tmp_path, truth=E4[0]):
        doc = cyclic_problem([E4[0], E4[1]], truth=truth)
        samples = tmp_path / "samples.csv"
        samples.write_text("index,re,im\n0,1,0\n1,0,0\n2,0,0\n3,0,0\n")
        return write_problem(tmp_path, doc), samples

    def run(self, command, problem, samples, out):
        argv = [command, "--input", problem, "--out", out]
        if command == "reconstruct":
            argv += ["--samples", str(samples)]
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        return proc

    def test_missing_samples_file(self, tmp_path):
        problem, _ = self.problem_files(tmp_path)
        proc = self.run("reconstruct", problem, tmp_path / "absent.csv", str(tmp_path / "r"))
        assert "absent.csv" in proc.stderr

    def test_non_integer_index(self, tmp_path):
        problem, samples = self.problem_files(tmp_path)
        samples.write_text(samples.read_text().replace("\n0,", "\nx0,"))
        proc = self.run("reconstruct", problem, samples, str(tmp_path / "r"))
        assert "'x0'" in proc.stderr

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_sample(self, tmp_path, cell):
        problem, samples = self.problem_files(tmp_path)
        samples.write_text(samples.read_text().replace("\n1,0,0", f"\n1,{cell},0"))
        proc = self.run("reconstruct", problem, samples, str(tmp_path / "r"))
        assert "finite" in proc.stderr

    def test_non_finite_truth(self, tmp_path):
        problem, samples = self.problem_files(tmp_path, truth=[np.nan, 0, 0, 0])
        proc = self.run("reconstruct", problem, samples, str(tmp_path / "r"))
        assert "truth" in proc.stderr and "nan" not in proc.stdout

    @pytest.mark.parametrize("short", ["truth", "sample count"])
    def test_wrong_length_before_any_output(self, tmp_path, short):
        truth = E4[:3, 0] if short == "truth" else E4[0]
        problem, samples = self.problem_files(tmp_path, truth=truth)
        if short == "sample count":
            samples.write_text(samples.read_text().replace("3,0,0\n", ""))
        proc = self.run("reconstruct", problem, samples, str(tmp_path / "r"))
        assert short in proc.stderr and not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("command", ["dual", "reconstruct"])
    def test_out_into_missing_directory(self, tmp_path, command):
        problem, samples = self.problem_files(tmp_path)
        proc = self.run(command, problem, samples, str(tmp_path / "absent" / "o"))
        assert "cannot write" in proc.stderr

    UNREADABLE_JSON = {
        "integer literal too long": ("[[[" + "4" * 5000 + ", 0]]]").encode(),
        "not UTF-8": b"\xff\xfe[[[1, 0]]]",
        "nested too deep": b"[" * 100_000,
    }

    @pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
    def test_unreadable_u_matrix(self, tmp_path, content):
        problem, _ = self.problem_files(tmp_path)
        u_matrix = tmp_path / "u.json"
        u_matrix.write_bytes(self.UNREADABLE_JSON[content])
        proc = run_cli("dual", "--input", problem, "--u-matrix", str(u_matrix),
                       "--out", str(tmp_path / "d"))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: invalid JSON in U matrix: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""

    def test_problem_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(self.UNREADABLE_JSON["nested too deep"])
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: invalid JSON in problem file: ")


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the collector ``enabled`` or not; yield a list that
    receives the state the body left, then restore the state found."""
    was, after = gc.isenabled(), []
    (gc.enable if enabled else gc.disable)()
    try:
        yield after
        after.append(gc.isenabled())
    finally:
        (gc.enable if was else gc.disable)()


def recording(monkeypatch, during, owner, name):
    """Patch ``owner.name`` to append the collector state to ``during`` on each call."""
    func = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: during.append(gc.isenabled())
                        or func(*a, **k))


class TestDecodeCollector:
    """``main`` holds the collector off for the whole command, from the problem's
    decoding on, and leaves it as it found it on every way out."""

    CONTENTS = {"valid": json.dumps(cyclic_problem([E4[0], E4[1]])).encode(),
                "invalid JSON": b'{"model": ', "nested too deep": b"[" * 100_000,
                "unreadable": None}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", sorted(CONTENTS))
    def test_state_restored(self, tmp_path, monkeypatch, case, enabled):
        path = tmp_path / "p.json"  # absent in the unreadable case
        if self.CONTENTS[case] is not None:
            path.write_bytes(self.CONTENTS[case])
        during = []
        recording(monkeypatch, during, json, "load")
        with collector(enabled) as after:
            rc, _, err = run_in_process(["analyze", "--input", str(path)])
        assert after == [enabled]
        assert rc == (0 if case == "valid" else 2), err
        assert during == ([] if case == "unreadable" else [False])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_off_in_every_read(self, tmp_path, monkeypatch, enabled):
        # the problem's and --u-matrix's json.load, the samples CSV and the model build
        doc = cyclic_problem([E4[0], E4[1]], truth=E4[0])
        path = write_problem(tmp_path, doc)
        u_matrix = write_problem(tmp_path, [cpairs(row) for row in np.zeros((4, 4))], "u.json")
        samples = tmp_path / "s.csv"
        samples.write_text("index,re,im\n0,1,0\n1,0,0\n2,0,0\n3,0,0\n")
        during = {name: [] for name in ("load", "read_vector_csv", "_load_model")}
        recording(monkeypatch, during["load"], json, "load")
        for name in ("read_vector_csv", "_load_model"):
            recording(monkeypatch, during[name], cli, name)
        out = str(tmp_path / "o")
        with collector(enabled) as after:
            runs = [run_in_process(["dual", "--input", path, "--u-matrix", u_matrix,
                                    "--out", out]),
                    run_in_process(["reconstruct", "--input", path, "--samples", str(samples),
                                    "--out", out])]
        assert after == [enabled] and [rc for rc, *_ in runs] == [0, 0], runs
        assert during == {"load": [False] * 3, "read_vector_csv": [False],
                          "_load_model": [False] * 2}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("way_out", ["exit 0", "exit 1", "exit 2", "exception"])
    def test_restored_on_every_way_out(self, tmp_path, monkeypatch, way_out, enabled):
        doc = cyclic_problem([E4[0], E4[1]] if way_out != "exit 1" else [E4[0], E4[2]])
        if way_out == "exit 2":
            doc["r"] = 2.5
        path = write_problem(tmp_path, doc)
        if way_out == "exception":
            def verdict(self, tol):
                raise RuntimeError("raised by the model")
            monkeypatch.setattr(cli._Cyclic, "verdict", verdict)
        with collector(enabled) as after:
            if way_out == "exception":
                with pytest.raises(RuntimeError, match="raised by the model"):
                    cli.main(["analyze", "--input", path])
            else:
                rc, _, err = run_in_process(["analyze", "--input", path])
                assert rc == int(way_out[-1]), err
        assert after == [enabled]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_after_a_closed_stdout(self, enabled):
        # main in a child whose stdout is a pipe without a reader, which then
        # reports main's exit code and the collector state on stderr
        code = (f"import gc, sys; from orbitsamp import cli; gc.{'en' if enabled else 'dis'}able()"
                "; rc = cli.main(['analyze', '--input', 'problems/cyclic_perm.json'])"
                "; print(rc, gc.isenabled(), file=sys.stderr)")
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr.splitlines() == ["error: cannot write standard output: Broken pipe",
                                            f"2 {enabled}"]

    # the model build of every loading command, through main:
    # r = 2.5 fails in the model build, and r = 3 (shift r = 0) in the library
    LOAD_CASES = ("valid", "unreadable", "invalid JSON", "schema error in the model build",
                  "library ValueError")

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct", "pr-check"])
    @pytest.mark.parametrize("case", LOAD_CASES)
    def test_load_scope_restores_state(self, tmp_path, monkeypatch, case, command, enabled):
        shift = command == "pr-check"
        doc = bank_problem() if shift else cyclic_problem([E4[0], E4[1]], truth=E4[0])
        doc.update({"schema error in the model build": {"r": 2.5},
                    "library ValueError": {"r": 0 if shift else 3}}.get(case, {}))
        path = tmp_path / "p.json"  # absent in the unreadable case
        if case == "invalid JSON":
            path.write_bytes(b'{"model": ')
        elif case != "unreadable":
            path.write_text(json.dumps(doc))
        samples = tmp_path / "s.csv"
        samples.write_text("index,re,im\n0,1,0\n1,0,0\n2,0,0\n3,0,0\n")
        argv = [command, "--input", str(path)]
        argv += {"dual": ["--out", str(tmp_path / "d")], "reconstruct":
                 ["--samples", str(samples), "--out", str(tmp_path / "r")]}.get(command, [])
        during = []
        recording(monkeypatch, during, cli, "_load_model")
        with collector(enabled) as after:
            rc, _, err = run_in_process(argv)
        assert after == [enabled]
        assert rc == (0 if case == "valid" else 2), err
        assert during == ([] if case in ("unreadable", "invalid JSON") else [False])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_decoded_problem_is_gone_before_the_collector_is_back(self, tmp_path, monkeypatch,
                                                                  enabled):
        # d = 64: the decoded pair lists alone are some 4,300 tracked objects, which
        # ``del doc`` frees before the verdict; no collection runs in the command
        rng = np.random.default_rng(64)
        op, gens = operator_with_orders(rng, 64, [32, 16])
        samplers = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
        doc = {"model": "cyclic", "dimension": 64, "operator": [cpairs(row) for row in op.matrix],
               "generators": [cpairs(a) for a in gens], "orders": [32, 16],
               "samplers": [cpairs(b) for b in samplers], "r": 4}
        path = write_problem(tmp_path, doc)
        counts, collections, verdict = [], [], cli._Cyclic.verdict
        monkeypatch.setattr(cli._Cyclic, "verdict", lambda self, tol:
                            counts.append(gc.get_count()[0]) or verdict(self, tol))

        def record(phase, info):
            if phase == "start" and not counts:
                collections.append(info["generation"])

        cli._build_parser()  # built once per process, before the count starts
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        gc.collect()
        gc.callbacks.append(record)
        try:
            rc, _, err = run_in_process(["analyze", "--input", path])
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was else gc.disable)()
        assert rc == 0, err
        assert counts[0] < gc.get_threshold()[0] and collections == []


def test_no_command_leaves_cyclic_garbage(tmp_path):
    # main holds the collector off, so all that a command allocates must go by reference counts
    commands = [["spline-demo", "--K", "3", "--p", "4"], ["spline-demo", "--K", "3", "--p", "20"],
                ["analyze", "--input", str(tmp_path / "absent.json")]]
    for k, (doc, rows) in enumerate(fuzz_bases().values()):
        path = write_problem(tmp_path, doc, f"p{k}.json")
        samples, out = tmp_path / f"s{k}.csv", str(tmp_path / f"o{k}")
        samples.write_text("\n".join(rows) + "\n")
        commands += [["analyze", "--input", path], ["dual", "--input", path, "--out", out],
                     ["reconstruct", "--input", path, "--samples", str(samples), "--out", out],
                     ["pr-check", "--input", path]]
    codes = set()
    for argv in commands:
        gc.collect()
        rc, _, err = run_in_process(argv)
        codes.add(rc)
        assert gc.collect() == 0, (argv, rc, err)
    assert codes == {0, 1, 2}


def test_dual_reasons_in_order(tmp_path):
    # the problem file, then --u-matrix, then the problem's fields: the first failing one
    problem = write_problem(tmp_path, dict(cyclic_problem([E4[0], E4[1]]), extra=1))
    broken = tmp_path / "broken.json"
    broken.write_bytes(b'{"model": ')
    u_matrix = tmp_path / "u.json"
    u_matrix.write_text(json.dumps([cpairs(row) for row in np.zeros((4, 4))]))
    absent, out = str(tmp_path / "absent.json"), str(tmp_path / "d")
    for given, u, reason in [(str(broken), absent, "invalid JSON in problem file: "),
                             (problem, absent, "cannot read U matrix: "),
                             (problem, str(u_matrix), "cyclic problem: unknown field 'extra'")]:
        rc, stdout, stderr = run_in_process(["dual", "--input", given, "--u-matrix", u,
                                             "--out", out])
        assert (rc, stdout) == (2, "") and stderr.startswith(f"error: {reason}")
        assert stderr.count("\n") == 1


def save_npy(directory, name, values):
    np.save(os.path.join(directory, name), values, allow_pickle=values.dtype == object)
    return {"npy": name}


def pair_values(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def json_pairs(values):
    """The JSON form of an array: number pairs, or ``[true, false]`` and
    ``[text, "0"]`` pairs for boolean and object or string entries."""
    if values.ndim > 1:
        return [json_pairs(row) for row in values]
    kind = values.dtype.kind
    return [[bool(v), False] if kind == "b" else [str(v), "0"] if kind in "OU"
            else [float(v.real), float(v.imag)] for v in values]


class TestNpyInput:
    """``{"npy": name}`` stands for a vector or matrix, read from a ``.npy``
    file named relative to the file that refers to it."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.complex128, ">c16"])
    def test_dtypes_give_the_json_output(self, tmp_path, capsys, dtype):
        doc = cyclic_problem([E4[0], E4[1]], truth=E4[0])
        outputs = []
        for name, form in (("json", doc), ("npy", dict(doc))):
            if name == "npy":
                form["operator"] = save_npy(tmp_path, "op.npy", SHIFT4.astype(dtype))
                form["samplers"] = [save_npy(tmp_path, f"b{j}.npy", E4[j].astype(dtype))
                                    for j in range(2)]
            path = write_problem(tmp_path, form, f"{name}.json")
            out = ["--out", str(tmp_path / "d")]
            codes = [cli.main(["analyze", "--input", path]),
                     cli.main(["dual", "--input", path, *out])]
            files = [(tmp_path / f"d.c{j}.csv").read_bytes() for j in (1, 2)]
            outputs.append((codes, capsys.readouterr(), files))
        assert outputs[0] == outputs[1] and outputs[0][0] == [0, 0]

    def test_names_resolve_against_the_referring_file(self, tmp_path):
        (tmp_path / "problems").mkdir()
        (tmp_path / "arrays").mkdir()
        doc = cyclic_problem([E4[0], E4[1]])
        doc["operator"] = save_npy(tmp_path / "arrays", "op.npy", SHIFT4)
        doc["operator"]["npy"] = os.path.join("..", "arrays", "op.npy")
        problem = write_problem(tmp_path / "problems", doc)
        u_doc = save_npy(tmp_path / "arrays", "u.npy", np.full((4, 4), 0.1 + 0.2j))
        u_matrix = write_problem(tmp_path / "arrays", u_doc, "u.json")
        json_u = write_problem(tmp_path, [[[0.1, 0.2]] * 4] * 4, "u.json")
        outputs = []
        for u in (u_matrix, json_u):
            proc = run_cli("dual", "--input", problem, "--u-matrix", u,
                           "--out", str(tmp_path / "d"))  # from the repository root
            outputs.append((proc.returncode, proc.stdout, proc.stderr,
                            (tmp_path / "d.c1.csv").read_bytes()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("kind", ["bool", "nan", "shorter"])
    def test_u_matrix_gives_the_json_reason(self, tmp_path, kind):
        problem = write_problem(tmp_path, cyclic_problem([E4[0], E4[1]]))
        U = npy_mutated(np.full((4, 4), 0.1 + 0.2j), kind)
        reasons = []
        for name, doc in (("npy", save_npy(tmp_path, "u.npy", U)), ("json", json_pairs(U))):
            u = write_problem(tmp_path, doc, f"{name}.json")
            reasons.append(run_in_process(["dual", "--input", problem, "--u-matrix", u,
                                           "--out", str(tmp_path / "d")]))
        assert reasons[0] == reasons[1] and reasons[0][0] == 2

    @pytest.mark.parametrize("shape, reason", [
        (None, "the magic string is not correct"),
        ((4, 4), "could only read 15 elements"),
        ((10**9,), "the file is shorter than its header declares"),  # refused unallocated
    ], ids=["not npy", "truncated", "truncated by 16 GB"])
    def test_unreadable_file_one_line(self, tmp_path, shape, reason):
        with open(tmp_path / "op.npy", "wb") as fh:
            if shape is None:
                fh.write(b"not an array")
            else:
                header = {"descr": "<c16", "fortran_order": False, "shape": shape}
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(np.zeros(15, complex).tobytes())
        doc = dict(cyclic_problem([E4[0], E4[1]]), operator={"npy": "op.npy"})
        rc, out, err = run_in_process(["analyze", "--input", write_problem(tmp_path, doc)])
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: operator: cannot read {tmp_path / 'op.npy'}: ")
        assert reason in err


def array_fields(doc):
    """Paths of the vectors and matrices of a problem, and the ``where`` its errors name."""
    for key in ("operator", "truth"):
        if key in doc:
            yield (key,), key
    for key in ("operators", "generators", "samplers"):
        for i in range(len(doc.get(key, []))):
            yield (key, i), key
    for name in doc.get("sequences", {}):
        yield ("sequences", name, "values"), f"sequences.{name}"


# each has a JSON form but the last two, which name the file or the reference
NPY_MUTATIONS = ("shorter", "extra axis", "nan", "inf", "bool", "object", "string",
                 "missing file", "extra key")


def npy_mutated(values, kind):
    values = values.copy()
    if kind in ("nan", "inf"):  # an infinite imaginary part, which 1j * inf turns to nan
        values.flat[0] = complex(0, math.inf) if kind == "inf" else math.nan
    return {"shorter": values[:-1], "extra axis": values[..., None],
            "bool": np.ones(values.shape, bool), "object": values.astype(object),
            "string": values.astype(str)}.get(kind, values)


@functools.cache
def fuzz_bases():
    """Each shipped problem as ``(doc, lines of a samples CSV)``, and two
    variants that use the ``dual_length`` and ``operators`` fields.

    Cyclic and lca problems gain the truth of a subspace element whose
    samples the CSV holds; shift problems get a placeholder CSV.
    """
    bases = {}
    for name in sorted(os.listdir(os.path.join(ROOT, "problems"))):
        with open(os.path.join(ROOT, "problems", name)) as fh:
            doc = json.load(fh)
        samples = np.zeros(4)
        if doc["model"] == "cyclic":
            model = cli._Cyclic(doc)
            spec, scheme = model.spec, model.scheme
            x = spec.synthesize(np.arange(1.0, spec.total_order + 1))
            samples = o.take_samples(spec, scheme, x)
        elif doc["model"] == "lca":
            spectrum = cli._Lca(doc).spectrum
            x = spectrum.orbit @ np.arange(1.0, spectrum.rep.H.order + 1)
            samples = o.lca.take_group_samples(spectrum, x)
        if doc["model"] != "shift":
            doc["truth"] = cpairs(x)
        rows = ["index,re,im"] + [f"{i},{z.real!r},{z.imag!r}" for i, z in enumerate(samples)]
        bases[name] = (doc, rows)
    # fields that no shipped problem has
    doc, rows = copy.deepcopy(bases["shift_spline.json"])
    doc.update(method="pseudoinverse", dual_length=257)
    bases["shift_spline.json, pseudoinverse"] = (doc, rows)
    doc, rows = copy.deepcopy(bases["lca_z4.json"])
    doc["operators"] = [doc.pop("operator")]
    bases["lca_z4.json, operators"] = (doc, rows)
    return bases


def field_paths(doc, prefix=()):
    """Paths to the fields of a JSON document: every object member, and the
    first and last entries of every list."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        for i in sorted({0, len(doc) - 1}):
            yield from field_paths(doc[i], prefix + (i,))


# "nudged" moves a number by 0.5: in an operator entry it breaks the orbit law
MUTATIONS = ("wrong type", "empty", "zero", "negative", "nan", "inf", "shorter", "longer",
             "nudged", "true")


def mutated_field(value, kind):
    return {
        "wrong type": [value] if isinstance(value, str) else "x",
        "empty": [] if isinstance(value, list) else {} if isinstance(value, dict) else "",
        "zero": 0,
        "negative": -1,
        "nan": math.nan,
        "inf": math.inf,
        "shorter": value[:-1] if isinstance(value, list) else [],
        "longer": value + value[-1:] if isinstance(value, list) else [value, value],
        "nudged": value + 0.5 if type(value) in (int, float) else [value],
        "true": True,
    }[kind]


def mutated_rows(rows, row, col, kind):
    """``rows`` with one cell replaced, or for a length mutation a row dropped or repeated."""
    if kind in ("shorter", "longer"):
        return rows[:row] + rows[row:row + 1] * (2 if kind == "longer" else 0) + rows[row + 1 :]
    cells = rows[row].split(",")
    text = {"wrong type": "x" + cells[col], "empty": "", "zero": "0", "negative": "-1"}
    cells[col] = text.get(kind, kind)
    return rows[:row] + [",".join(cells)] + rows[row + 1 :]


@st.composite
def fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(fuzz_bases())))
    doc, rows = fuzz_bases()[name]
    command = draw(st.sampled_from(("analyze", "dual", "reconstruct")))
    kind = draw(st.sampled_from(MUTATIONS))
    if draw(st.booleans()):
        edit = ("field", draw(st.sampled_from(list(field_paths(doc)))), kind)
    else:
        edit = ("cell", draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2)), kind)
    return name, command, edit


class TestFuzz:
    """One field of a shipped problem or one cell of its samples mutated:
    ``analyze``/``dual``/``reconstruct`` return 0, 1 or 2 and raise nothing."""

    @settings(max_examples=150, deadline=None)
    @given(case=fuzz_cases())
    @example(case=("cyclic_perm.json", "reconstruct", ("no samples file",)))
    @example(case=("cyclic_perm.json", "reconstruct", ("cell", 1, 0, "wrong type")))
    @example(case=("cyclic_perm.json", "reconstruct", ("cell", 2, 1, "nan")))
    @example(case=("cyclic_perm.json", "reconstruct", ("cell", 2, 2, "inf")))
    @example(case=("cyclic_perm.json", "reconstruct", ("field", ("truth", 0, 0), "nan")))
    @example(case=("cyclic_perm.json", "dual", ("no output directory",)))
    @example(case=("lca_z4.json", "reconstruct", ("no output directory",)))
    @example(case=("cyclic_perm.json", "analyze", ("field", ("operator", 0, 0, 0), "nudged")))
    @example(case=("lca_z4.json", "dual", ("field", ("operator", 1, 0, 0), "nudged")))
    @example(case=("lca_oversampled.json", "reconstruct",
                   ("field", ("operators", 1, 0, 0, 0), "nudged")))
    @example(case=("cyclic_perm.json", "reconstruct", ("field", ("samplers", 0, 0, 0), "true")))
    def test_exit_code_without_exception(self, case):
        name, command, edit = case
        doc, rows = fuzz_bases()[name]
        doc = copy.deepcopy(doc)
        if edit[0] == "field" and not edit[1]:
            doc = mutated_field(doc, edit[2])
        elif edit[0] == "field":
            *parents, last = edit[1]
            owner = functools.reduce(lambda d, k: d[k], parents, doc)
            owner[last] = mutated_field(owner[last], edit[2])
        elif edit[0] == "cell":
            rows = mutated_rows(rows, *edit[1:])
        with tempfile.TemporaryDirectory() as tmp:
            problem, samples = os.path.join(tmp, "p.json"), os.path.join(tmp, "s.csv")
            with open(problem, "w") as fh:
                json.dump(doc, fh)
            if edit[0] != "no samples file":
                with open(samples, "w") as fh:
                    fh.write("\n".join(rows) + "\n")
            out = os.path.join(tmp, "absent" if edit[0] == "no output directory" else "", "o")
            argv = [command, "--input", problem]
            if command != "analyze":
                argv += ["--out", out]
            if command == "reconstruct":
                argv += ["--samples", samples]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        assert rc in (0, 1, 2)


@st.composite
def npy_cases(draw):
    name = draw(st.sampled_from(sorted(fuzz_bases())))
    field = draw(st.sampled_from(list(array_fields(fuzz_bases()[name][0]))))
    command = draw(st.sampled_from(("analyze", "dual", "reconstruct")))
    return name, field, draw(st.sampled_from(NPY_MUTATIONS)), command


class TestNpyFuzz:
    """One array of a shipped problem in a mutated ``.npy`` file: the command
    exits as the JSON form of that array makes it, with the same output and
    reason; a missing file or an extra key in the reference exits 2 with one
    line that names the field."""

    @settings(max_examples=80, deadline=None)
    @given(case=npy_cases())
    @example(case=("cyclic_perm.json", (("operator",), "operator"), "object", "analyze"))
    @example(case=("cyclic_perm.json", (("truth",), "truth"), "inf", "reconstruct"))
    @example(case=("lca_oversampled.json", (("operators", 1), "operators"), "extra axis",
                   "dual"))
    @example(case=("shift_spline.json", (("sequences", "g2", "values"), "sequences.g2"),
                   "bool", "dual"))
    @example(case=("cyclic_rank2.json", (("truth",), "truth"), "missing file", "reconstruct"))
    @example(case=("lca_z4.json", (("samplers", 0), "samplers"), "extra key", "analyze"))
    def test_exit_as_the_json_form(self, case):
        name, ((*parents, last), where), kind, command = case
        doc, rows = fuzz_bases()[name]
        with tempfile.TemporaryDirectory() as tmp:
            forms = {}
            for form in ("json", "npy"):
                forms[form] = copy.deepcopy(doc)
                owner = functools.reduce(lambda d, k: d[k], parents, forms[form])
                values = npy_mutated(pair_values(owner[last]), kind)
                owner[last] = (json_pairs(values) if form == "json"
                               else save_npy(tmp, "a.npy", values))
            ref = owner[last]
            if kind == "missing file":
                ref["npy"] = "absent.npy"
            elif kind == "extra key":
                ref["shape"] = list(values.shape)
            samples = os.path.join(tmp, "s.csv")
            with open(samples, "w") as fh:
                fh.write("\n".join(rows) + "\n")
            outcomes = []
            for form, problem in forms.items():
                argv = [command, "--input", write_problem(pathlib.Path(tmp), problem, "p.json")]
                if command != "analyze":
                    argv += ["--out", os.path.join(tmp, "o")]
                if command == "reconstruct":
                    argv += ["--samples", samples]
                outcomes.append(run_in_process(argv))
        if kind == "missing file":
            reason = f"error: {where}: cannot read {os.path.join(tmp, 'absent.npy')}: "
        elif kind == "extra key":
            reason = f"error: {where}: an array reference is {{\"npy\": file name}}, got {{'npy"
        else:
            assert outcomes[1] == outcomes[0]
            return
        rc, out, err = outcomes[1]
        assert rc == 2 and out == "" and err.startswith(reason) and err.count("\n") == 1


def not_recoverable_cases():
    """``(command and options, document, samples or None, reason prefix, stdout line count)``."""
    deficient = cyclic_problem([E4[0]])
    common_zero = spline_shift_problem("pseudoinverse")
    common_zero["sequences"] = {
        "g1": {"offset": 0, "values": cpairs([1, 1])},
        "g2": {"offset": 0, "values": cpairs([2, 2])},
    }
    shared_factor = spline_shift_problem()
    shared_factor["sequences"] = {
        "g1": {"offset": 0, "values": cpairs([1, 2, 1])},
        "g2": {"offset": 0, "values": cpairs([1, 3, 2])},
    }
    one_sampler = lca_problem()
    one_sampler["samplers"] = one_sampler["samplers"][:1]
    deltas = spline_shift_problem("pseudoinverse")  # sigma_min/sigma_max 1 at every point
    deltas["sequences"] = {g: {"offset": 0, "values": cpairs([1])} for g in ("g1", "g2")}
    return {
        "cyclic dual rank": ("dual", deficient, None, "not recoverable: rank 2/4", 1),
        "cyclic reconstruct rank": ("reconstruct", deficient, [1, 2], "not recoverable: rank", 1),
        "shift frame": ("dual", common_zero, None, "not recoverable: sigma_min/sigma_max", 1),
        # a tolerance whose square overflows a float
        "shift huge tol": ("dual --tol 1e160", deltas, None,
                           "not recoverable: sigma_min/sigma_max = 1.000e+00 <= 1.0e+160", 1),
        # the dual residual is reported before the truncation is refused
        "shift truncation": ("dual", spline_shift_problem("pseudoinverse"), None,
                             "truncation refused", 2),
        "bezout coprimality": ("dual", shared_factor, None, "coprimality failure", 1),
        "lca sigma ratio": ("dual", one_sampler, None, "not recoverable: sigma_min/sigma_max", 1),
    }


@pytest.mark.parametrize("case", sorted(not_recoverable_cases()))
def test_not_recoverable_one_line(tmp_path, case):
    command, doc, samples, reason, lines = not_recoverable_cases()[case]
    argv = [*command.split(), "--input", write_problem(tmp_path, doc), "--out",
            str(tmp_path / "o")]
    if samples is not None:
        path = tmp_path / "s.csv"
        cli.write_vector_csv(str(path), samples)
        argv += ["--samples", str(path)]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr == ""
    out = proc.stdout.splitlines()
    assert len(out) == lines and out[-1].startswith(reason)


class TestSplineDemo:
    def test_worked_example(self, capsys):
        assert cli.main(["spline-demo", "--K", "3", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "G1(z) = 4*z^-1 + 19 + 4*z" in out
        assert "G2(z) = 10*z^-1 + 16 + z" in out
        assert "H1(z) = -38/243*z - 5/486*z^2" in out
        assert "H2(z) = 79/486*z + 10/243*z^2" in out
        assert "bezout residual polynomial: 0 (exact)" in out
        assert "perfect reconstruction: pass" in out

    def test_trivial_order(self, capsys):
        assert cli.main(["spline-demo", "--K", "3", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "G1(z) = 1" in out
        assert "H1(z) = 1" in out
        assert "H2(z) = 0" in out

    def test_k5_internally_consistent(self, capsys):
        rc = cli.main(["spline-demo", "--K", "5", "--p", "2"])
        out = capsys.readouterr().out
        if rc == 0:
            assert "perfect reconstruction: pass" in out
        else:
            assert "coprimality failure" in out

    def test_even_k_rejected(self):
        assert cli.main(["spline-demo", "--K", "4", "--p", "2"]) == 2


class TestPrCheck:
    def bank_doc(self, K=3, p=4):
        sb = o.bspline_filter_bank(K, p)
        seqs = {}
        for j, (h, g) in enumerate(zip(sb.bank.analysis, sb.bank.synthesis), start=1):
            seqs[f"h{j}"] = {"offset": h.offset, "values": cpairs(h.values)}
            seqs[f"g{j}"] = {"offset": g.offset, "values": cpairs(g.values)}
        return {"model": "shift", "r": 1, "sequences": seqs}

    def test_spline_bank_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path, self.bank_doc())
        assert cli.main(["pr-check", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "perfect reconstruction: pass" in out
        assert "polyphase matrix" in out

    def test_broken_bank_fails(self, tmp_path):
        doc = self.bank_doc()
        doc["sequences"]["g1"]["values"][0][0] += 0.25
        path = write_problem(tmp_path, doc)
        assert cli.main(["pr-check", "--input", path]) == 1

    def test_exact_bank_with_large_taps_passes(self, tmp_path, capsys):
        # synthesis taps near 1.7e10 put the absolute torus residual near 6e-7,
        # while the Bezout identity is exact
        path = write_problem(tmp_path, self.bank_doc(15, 10))
        assert cli.main(["pr-check", "--input", path]) == 0
        out = capsys.readouterr().out
        absolute = float(out.split("PR torus residual on 1024 points: ")[1].split()[0])
        relative = float(out.split("relative to max |G||H|: ")[1].split()[0])
        assert absolute > 1e-9 and relative <= 1e-9
        assert cli.main(["spline-demo", "--K", "15", "--p", "10"]) == 0
        assert "perfect reconstruction: pass" in capsys.readouterr().out

    def test_round_trip_far_off_fails(self, tmp_path, capsys):
        # K = 3, p = 20: cancellation inflates max |G||H| with the torus residual, whose
        # ratio stays near 3e-16, while the round trip is off by some 5e-3
        path = write_problem(tmp_path, self.bank_doc(3, 20))
        for argv in (["pr-check", "--input", path], ["spline-demo", "--K", "3", "--p", "20"]):
            assert cli.main(argv) == 1
            out = capsys.readouterr().out
            relative = float(out.split("relative to max |G||H|: ")[1].split()[0])
            roundtrip = float(out.split("round-trip max relative error: ")[1].split()[0])
            assert relative <= 1e-9 and roundtrip > RESIDUAL_FLAG
            assert "perfect reconstruction: fail" in out

    def test_relative_perturbation_fails(self, tmp_path):
        doc = self.bank_doc()
        doc["sequences"]["g1"]["values"][1][0] *= 1 + 1e-6
        path = write_problem(tmp_path, doc)
        assert cli.main(["pr-check", "--input", path]) == 1

    def test_grid_field_sets_the_torus(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(bank_problem(), grid=64))
        for extra, points in (([], 64), (["--grid", "128"], 128)):
            assert cli.main(["pr-check", "--input", path, *extra]) == 0
            assert f"PR torus residual on {points} points: " in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("grid", 8), ("grid", "x"), ("dual_length", 0),
                                            ("method", "bogus")])
    def test_shift_field_checked(self, tmp_path, key, value):
        # pr-check loads the file as every shift command does
        path = write_problem(tmp_path, {**bank_problem(), key: value})
        proc = run_cli("pr-check", "--input", path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @staticmethod
    def report_lines(out):
        return [line for line in out.splitlines() if line.startswith(("PR ", "time-", "perfect"))]

    def test_bank_rescaled_as_hc_g_over_c_gives_one_verdict(self, tmp_path):
        # h1 = c(1 + z), h2 = c, g1 = 0, g2 = 1/c: at c = 2**1023 the unbalanced
        # torus spectra overflowed to nan residuals and a fail
        runs = []
        for c in (2.0**-1000, 1.0, 2.0**1023):
            seqs = {"h1": [c, c], "h2": [c], "g1": [0.0], "g2": [1 / c]}
            doc = {"model": "shift", "r": 1, "sequences": {
                name: {"offset": 0, "values": cpairs(v)} for name, v in seqs.items()}}
            proc = run_cli("pr-check", "--input", write_problem(tmp_path, doc))
            runs.append((proc.returncode, proc.stderr, self.report_lines(proc.stdout)))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][:2] == (0, "") and runs[0][2][-1] == "perfect reconstruction: pass"

    @pytest.mark.parametrize("exponent", [-1000, 900])
    def test_power_of_two_balance_changes_no_report_line(self, tmp_path, capsys, exponent):
        doc = bank_problem()
        path = write_problem(tmp_path, doc, "plain.json")
        assert cli.main(["pr-check", "--input", path]) == 0
        plain = self.report_lines(capsys.readouterr().out)
        for name, seq in doc["sequences"].items():
            scale = 2.0 ** (exponent if name[0] == "h" else -exponent)
            seq["values"] = [[re * scale, im * scale] for re, im in seq["values"]]
        path = write_problem(tmp_path, doc, "scaled.json")
        assert cli.main(["pr-check", "--input", path]) == 0
        assert self.report_lines(capsys.readouterr().out) == plain


class TestClosedStdout:
    """A reader that has gone away ends the command with one line, not a traceback."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["analyze", "--input", "problems/cyclic_perm.json"],
                                      ["pr-check", "--input", "problems/bank_spline.json"]])
    def test_exits_2_with_one_line(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "orbitsamp.cli", *argv], cwd=ROOT,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


class TestLcaDemo:
    """The Z_4 demo problem, written as a problem file, runs through ``analyze``."""

    def test_problem_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, lca_problem())
        assert cli.main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "r = 2" in out
        assert "recoverable: yes" in out


class TestShippedProblems:
    """The repository's example problem files stay loadable and consistent."""

    ROOT = __file__.rsplit("/", 2)[0]

    def test_cyclic_perm(self, capsys):
        assert cli.main(["analyze", "--input", f"{self.ROOT}/problems/cyclic_perm.json"]) == 0
        assert "rank 4/4" in capsys.readouterr().out

    def test_cyclic_rank2(self):
        assert cli.main(["analyze", "--input", f"{self.ROOT}/problems/cyclic_rank2.json"]) == 1

    def test_shift_spline(self, tmp_path, capsys):
        path = f"{self.ROOT}/problems/shift_spline.json"
        assert cli.main(["analyze", "--input", path]) == 0
        assert cli.main(["dual", "--input", path, "--out", str(tmp_path / "d")]) == 0
        assert "-38/243" in capsys.readouterr().out

    def test_shift_doubtful_analyze_and_dual_agree_at_the_ratio(self, tmp_path):
        # doubtful grid points take their own SVDs in dual: at the ratio that analyze
        # prints and at the doubles on either side of it, both give one exit code
        path = f"{self.ROOT}/problems/shift_doubtful.json"
        rc, out, _ = run_in_process(["analyze", "--input", path])
        ratio = float(out.split("sigma_min/sigma_max = ")[1].split()[0])
        assert rc == 0 and ratio < 1e-2
        for tol, code in ((np.nextafter(ratio, 0), 0), (ratio, 1), (np.nextafter(ratio, 1), 1),
                          (0.006353264651051832, 1)):
            argv = ["--input", path, "--tol", repr(float(tol))]
            codes = [run_in_process(["analyze", *argv])[0],
                     run_in_process(["dual", *argv, "--out", str(tmp_path / "d")])[0]]
            assert codes == [code, code], tol

    def test_shift_borderline_takes_svds_analyze_does_not(self, tmp_path, monkeypatch):
        # grid points that the Gram certificate refuses, sound by their Gram
        # eigenvalues: analyze takes no SVD, dual takes one for them and no
        # eigenvalues, and the two agree at the ratio that analyze prints
        path = f"{self.ROOT}/problems/shift_borderline.json"
        calls = []

        def recording(name, func):
            def call(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return call

        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        rc, out, _ = run_in_process(["analyze", "--input", path])
        ratio = float(out.split("sigma_min/sigma_max = ")[1].split()[0])
        assert rc == 0 and calls == ["eigvalsh"] and ratio**2 > o.spectral.GRAM_DOUBT
        calls.clear()
        assert run_in_process(["dual", "--input", path, "--out", str(tmp_path / "d")])[0] == 0
        assert calls == ["svd"]
        for tol, code in ((np.nextafter(ratio, 0), 0), (ratio, 1), (np.nextafter(ratio, 1), 1)):
            argv = ["--input", path, "--tol", repr(float(tol))]
            codes = [run_in_process(["analyze", *argv])[0],
                     run_in_process(["dual", *argv, "--out", str(tmp_path / "d")])[0]]
            assert codes == [code, code], tol

    def test_bank_spline(self, capsys):
        path = f"{self.ROOT}/problems/bank_spline.json"
        assert cli.main(["pr-check", "--input", path]) == 0
        assert "perfect reconstruction: pass" in capsys.readouterr().out

    def test_lca_z4(self, tmp_path, capsys):
        # analyze names the annihilator of M and the section; reconstruct inverts the samples
        path = f"{self.ROOT}/problems/lca_z4.json"
        assert cli.main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("|H| = 4, |M| = 2, r = 2,")
        assert out[2:4] == ["annihilator labels: [(0,), (2,)]", "section labels: [(0,), (1,)]"]
        assert out[-1] == "recoverable: yes"
        with open(path) as fh:
            spectrum = cli._Lca(json.load(fh)).spectrum
        x = spectrum.orbit @ np.array([1 + 2j, -0.5, 3j, 0.25])
        samples = str(tmp_path / "s.csv")
        cli.write_vector_csv(samples, o.take_group_samples(spectrum, x))
        argv = ["reconstruct", "--input", path, "--samples", samples, "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 0
        _, x_hat = cli.read_vector_csv(str(tmp_path / "r.x.csv"))
        assert np.linalg.norm(x_hat - x) <= 1e-12 * np.linalg.norm(x)


class TestUndeclaredInput:
    """Problem fields and flags that a model does not read exit 2 with one line."""

    @pytest.mark.parametrize(
        "model, key",
        [
            ("cyclic", "dual_lenght"),
            ("cyclic", "operators"),
            ("cyclic", "grid"),
            ("shift", "truht"),
            ("shift", "samplers"),
            ("lca", "orders"),
            ("lca", "r"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "dual"])
    def test_unknown_field_named(self, tmp_path, capsys, model, key, command):
        doc = {"cyclic": cyclic_problem([E4[0], E4[1]]), "shift": spline_shift_problem(),
               "lca": lca_problem()}[model]
        doc[key] = 1
        argv = [command, "--input", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert cli.main(argv[: 3 if command == "analyze" else 5]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {model} problem: unknown field {key!r}\n"

    @pytest.mark.parametrize("key", ["H_gen", "truth"])
    def test_unknown_group_field_named(self, tmp_path, capsys, key):
        doc = lca_problem()
        doc["group"][key] = [[1]]
        assert cli.main(["analyze", "--input", write_problem(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: group: unknown field {key!r}\n"

    def test_bank_file_analyzed_on_its_gs(self, capsys):
        # h<n> names are admitted in every shift command: analyze reads the g's of a bank file
        path = os.path.join(ROOT, "problems", "bank_spline.json")
        assert cli.main(["analyze", "--input", path]) == 0
        assert "recoverable: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "dual"])
    def test_bank_h_sequence_parsed(self, tmp_path, command):
        # analyze and dual read only the g's, yet a malformed h exits 2 as in pr-check
        doc = bank_problem()
        doc["sequences"]["h1"] = {"offset": "x", "values": 5}
        proc = run_cli(*self.shift_argv(command, doc, tmp_path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: sequences.h1.offset: expected an integer, got 'x'\n"

    @staticmethod
    def shift_argv(command, doc, tmp_path):
        """``command`` on the problem ``doc``, its outputs under ``tmp_path``."""
        extra = {"dual": ["--out", str(tmp_path / "o")],
                 "reconstruct": ["--samples", str(tmp_path / "s.csv")]}
        return [command, "--input", write_problem(tmp_path, doc), *extra.get(command, [])]

    @pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct", "pr-check"])
    def test_unknown_field_of_a_bank_named(self, tmp_path, capsys, command):
        doc = bank_problem()
        doc["bogus"] = 1
        assert cli.main(self.shift_argv(command, doc, tmp_path)) == 2
        assert capsys.readouterr() == ("", "error: shift problem: unknown field 'bogus'\n")

    @pytest.mark.parametrize("name", ["x9", "g", "h1a", "G1"])
    @pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct", "pr-check"])
    def test_unknown_sequence_name_named(self, tmp_path, capsys, command, name):
        doc = bank_problem()
        doc["sequences"][name] = doc["sequences"]["g1"]
        assert cli.main(self.shift_argv(command, doc, tmp_path)) == 2
        line = f"error: sequences: unknown sequence name {name!r} (expected g<n> or h<n>)\n"
        assert capsys.readouterr() == ("", line)
        assert os.listdir(tmp_path) == ["problem.json"]

    @pytest.mark.parametrize("command", ["analyze", "dual"])
    @pytest.mark.parametrize("name", ["cyclic_perm.json", "cyclic_rank2.json", "lca_z4.json"])
    def test_grid_on_orbit_model_exit_two(self, tmp_path, command, name):
        out = ["--out", str(tmp_path / "o")] if command == "dual" else []
        proc = run_cli(command, "--input", os.path.join(ROOT, "problems", name), *out,
                       "--grid", "128")
        model = name.split("_")[0]
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: --grid applies to shift problems, not {model}\n"
        assert os.listdir(tmp_path) == []


class TestCsvRoundTrip:
    def test_floats_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(32) * 10.0 ** rng.integers(-8, 8, 32) + (
            1j * rng.standard_normal(32)
        )
        path = tmp_path / "v.csv"
        cli.write_vector_csv(str(path), vals)
        _, back = cli.read_vector_csv(str(path))
        assert np.array_equal(back, vals)

    def test_rationals_exact(self, tmp_path):
        from fractions import Fraction

        exact = [(Fraction(-38, 243), Fraction(0)), (Fraction(5, 486), Fraction(1, 3))]
        path = tmp_path / "r.csv"
        cli.write_vector_csv(str(path), None, indices=[1, 2], exact=exact)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[1] == "1,-38/243,0"
        assert lines[2] == "2,5/486,1/3"
        _, back = cli.read_vector_csv(str(path))
        assert back[0] == complex(float(Fraction(-38, 243)), 0.0)


    FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.0**53, -3.0, 1e22, 0.1]
    )

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=12),
        start=st.none() | st.integers(-5, 5),
    )
    def test_float_rows_match_csv_module(self, pairs, start):
        values = [complex(re, im) for re, im in pairs]
        indices = None if start is None else range(start, start + len(values))
        assert self.written(values, indices, None) == self.written(values, indices, None, oracles)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.fractions(), st.fractions()), min_size=1, max_size=8))
    def test_exact_rows_match_csv_module(self, pairs):
        indices = range(-len(pairs) // 2, len(pairs) - len(pairs) // 2)
        got = self.written(None, indices, pairs)
        assert got == self.written(None, indices, pairs, oracles)

    @staticmethod
    def written(values, indices, exact, writer=cli):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.csv")
            writer.write_vector_csv(path, values, indices=indices, exact=exact)
            with open(path, "rb") as fh:
                return fh.read()


class TestMalformedNumbers:
    """Malformed numbers and fields in problem files exit 2 with a one-line reason.

    An entry of ``EDITS`` runs ``analyze`` unless it names another command.
    """

    EDITS = {
        "operator-int-beyond-float": (
            lambda: cyclic_problem([E4[0], E4[1]]),
            lambda d: d["operator"][0].__setitem__(0, [10**400, 0]),
        ),
        "cyclic-dimension": (
            lambda: cyclic_problem([E4[0], E4[1]]),
            lambda d: d.__setitem__("dimension", "four"),
        ),
        "lca-dimension-wrong": (lca_problem, lambda d: d.__setitem__("dimension", 7)),
        "lca-dimension-word": (lca_problem, lambda d: d.__setitem__("dimension", "seven")),
        "shift-r": (spline_shift_problem, lambda d: d.__setitem__("r", "one")),
        "shift-grid": (spline_shift_problem, lambda d: d.__setitem__("grid", "fine")),
        "sequence-offset": (
            spline_shift_problem,
            lambda d: d["sequences"]["g1"].__setitem__("offset", "zero"),
        ),
        "shift-method-misspelt": (
            spline_shift_problem,
            lambda d: d.__setitem__("method", "bezuot"),
        ),
        "lca-operator-and-operators": (
            lca_problem,
            lambda d: d.__setitem__("operators", [d["operator"]]),
        ),
        "cyclic-truth-short": (
            lambda: cyclic_problem([E4[0], E4[1]], truth=E4[0, :3]),
            lambda d: None,
        ),
        "shift-dual_length-word": (
            spline_shift_problem,
            lambda d: d.__setitem__("dual_length", "long"),
        ),
        # refused before the group is enumerated: memory, int64 and time
        "lca-group-order-2**40": (lambda: large_group_problem(2**40), lambda d: None),
        "lca-group-order-10**30": (lambda: large_group_problem(10**30), lambda d: None),
        "lca-group-order-2**23": (lambda: large_group_problem(2**23), lambda d: None),
        "bank-r-zero": (bank_problem, lambda d: d.__setitem__("r", 0), "pr-check"),
        "bank-r-negative": (bank_problem, lambda d: d.__setitem__("r", -2), "pr-check"),
        "bank-sequences-not-object": (
            bank_problem,
            lambda d: d.__setitem__("sequences", "h1"),
            "pr-check",
        ),
        # one tap of 1e6 in a synthesis filter without an analysis partner
        "bank-unpaired-g3": (
            bank_problem,
            lambda d: d["sequences"].__setitem__("g3", {"offset": 0, "values": [[1e6, 0]]}),
            "pr-check",
        ),
        "bank-unpaired-h3": (
            bank_problem,
            lambda d: d["sequences"].__setitem__("h3", {"offset": 0, "values": [[1, 0]]}),
            "pr-check",
        ),
        "bank-pair-numbering-gap": (
            bank_problem,
            lambda d: d.__setitem__(
                "sequences", {k.replace("2", "3"): v for k, v in d["sequences"].items()}
            ),
            "pr-check",
        ),
    }

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_exit_two_without_traceback(self, tmp_path, case):
        make, edit, *command = self.EDITS[case]
        doc = make()
        edit(doc)
        proc = run_cli(*command or ["analyze"], "--input", write_problem(tmp_path, doc))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    # int() would truncate a fraction and read a boolean as 0 or 1
    INEXACT = {
        "dimension-fraction": ("analyze", lambda: cyclic_problem([E4[0], E4[1]]),
                               lambda d: d.__setitem__("dimension", 4.5)),
        "dimension-bool": ("analyze", lambda: cyclic_problem([E4[0], E4[1]]),
                           lambda d: d.__setitem__("dimension", True)),
        "orders-fraction": ("analyze", lambda: cyclic_problem([E4[0], E4[1]]),
                            lambda d: d.__setitem__("orders", [4.5])),
        "cyclic-r-fraction": ("analyze", lambda: cyclic_problem([E4[0], E4[1]]),
                              lambda d: d.__setitem__("r", 2.5)),
        "shift-r-bool": ("analyze", spline_shift_problem, lambda d: d.__setitem__("r", True)),
        "grid-fraction": ("analyze", spline_shift_problem,
                          lambda d: d.__setitem__("grid", 1024.5)),
        "offset-fraction": ("analyze", spline_shift_problem,
                            lambda d: d["sequences"]["g1"].__setitem__("offset", -1.5)),
        "dual_length-fraction": ("dual", lambda: spline_shift_problem("pseudoinverse"),
                                 lambda d: d.__setitem__("dual_length", 9.5)),
        "dual_length-bool": ("dual", lambda: spline_shift_problem("pseudoinverse"),
                             lambda d: d.__setitem__("dual_length", True)),
    }

    @pytest.mark.parametrize("case", sorted(INEXACT))
    def test_fraction_or_boolean_exit_two(self, tmp_path, capsys, case):
        command, make, edit = self.INEXACT[case]
        doc = make()
        edit(doc)
        path = write_problem(tmp_path, doc)
        out = ["--out", str(tmp_path / "d")] if command == "dual" else []
        assert cli.main([command, "--input", path, *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expected an integer" in err

    def test_integral_numbers_accepted(self):
        assert [cli._int(v, "r") for v in (4, 4.0, "4", -3)] == [4, 4, 4, -3]

    def test_integer_literal_too_long_exit_two(self, tmp_path):
        text = json.dumps(cyclic_problem([E4[0], E4[1]]))
        path = tmp_path / "long.json"
        path.write_text(text.replace('"dimension": 4', '"dimension": ' + "4" * 5000))
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "entry", [["1", 0], [None, 0], [1], [1, 2, 3], "x", [[1], 0]], ids=repr
    )
    def test_non_pairs_rejected(self, entry):
        with pytest.raises(cli.SchemaError):
            cli._vector([[1, 0], entry], "samplers")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(cli.SchemaError):
            cli._matrix([[[1, 0], [0, 0]], [[1, 0]]], "operator")

    @pytest.mark.parametrize(
        "argv",
        [
            ["spline-demo", "--K", "3", "--p", "0"],
            ["spline-demo", "--K", "-3", "--p", "2"],
            ["spline-demo", "--K", "1", "--p", "2"],
            ["spline-demo", "--K", "3", "--p", "4", "--grid", "0"],
            ["spline-demo", "--K", "3", "--p", "4", "--grid", "-5"],
            ["spline-demo", "--K", "3", "--p", "4", "--grid", "1"],
            ["pr-check", "--input", os.path.join(ROOT, "problems", "bank_spline.json"),
             "--grid", "0"],
            ["pr-check", "--input", os.path.join(ROOT, "problems", "bank_spline.json"),
             "--grid", "1"],
            ["analyze", "--input", os.path.join(ROOT, "problems", "shift_spline.json"),
             "--grid", "63"],
            ["analyze", "--input", os.path.join(ROOT, "problems", "cyclic_perm.json"),
             "--tol", "nan"],
            ["analyze", "--input", os.path.join(ROOT, "problems", "cyclic_rank2.json"),
             "--tol", "-1"],
            ["analyze", "--input", os.path.join(ROOT, "problems", "lca_z4.json"),
             "--tol", "inf"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
    )
    def test_out_of_range_flag_exit_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: --") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", os.path.join(ROOT, "problems", "shift_spline.json"),
             "--grid", "3000000000"],
            ["dual", "--input", os.path.join(ROOT, "problems", "shift_spline.json"),
             "--grid", str((o.spectral.MAX_GRID_ENTRIES >> 1) + 1)],
            ["pr-check", "--input", os.path.join(ROOT, "problems", "bank_spline.json"),
             "--grid", str((o.spectral.MAX_GRID_ENTRIES >> 1) + 1)],
            ["spline-demo", "--K", "3", "--p", "4", "--grid", "3000000000"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
    )
    def test_grid_beyond_budget_exit_two(self, argv):
        # two sequences: the grid just past half the budget is refused unallocated
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "too fine" in proc.stderr and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", os.path.join(ROOT, "problems", "cyclic_perm.json"),
             "--out", "x"],
            ["spline-demo", "--K", "3", "--p", "4", "--tol", "1e-3"],
            ["reconstruct", "--input", os.path.join(ROOT, "problems", "lca_z4.json"),
             "--samples", "s.csv", "--grid", "64"],
            ["pr-check", "--input", os.path.join(ROOT, "problems", "bank_spline.json"),
             "--tol", "1e-3"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
    )
    def test_undeclared_flag_rejected(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr and proc.stdout == ""

    def test_numbers_accepted(self):
        v = cli._vector([[1, 2.5], [1, 0.0], [2**70, -3]], "samplers")
        assert v.tolist() == [1 + 2.5j, 1 + 0j, complex(2**70, -3)]
        m = cli._matrix([[[1, 0], [0, 1]], [[0.5, 0], [2, 0]]], "operator")
        assert m.tolist() == [[1, 1j], [0.5, 2]]

    @pytest.mark.parametrize("pairs", [[[True, False]], [[2**70, 0], [1, True]]], ids=repr)
    def test_booleans_are_not_numbers(self, pairs):
        # an all-boolean array and an object array (an int beyond int64) holding one
        with pytest.raises(cli.SchemaError, match="number pairs"):
            cli._vector(pairs, "samplers")

    BOOLEANS = {
        # every sampler written as true/false pairs: an all-boolean array
        "samplers all boolean": ("cyclic_perm.json", "analyze", lambda d: d.__setitem__(
            "samplers", [[[bool(re), bool(im)] for re, im in b] for b in d["samplers"]]),
            "samplers: expected a nonempty list of [re, im] number pairs"),
        # one false among floats, which np.array would read as 0.0
        "operator entry": ("cyclic_perm.json", "analyze",
                           lambda d: d["operator"][1][0].__setitem__(1, False),
                           "operator: expected a nonempty row-major matrix of [re, im] "
                           "number pairs"),
        "lca generator entry": ("lca_z4.json", "dual",
                                lambda d: d["generators"][0][2].__setitem__(0, True),
                                "generators: expected a nonempty list of [re, im] number pairs"),
        "group generator": ("lca_z4.json", "analyze",
                            lambda d: d["group"]["M_gens"][0].__setitem__(0, True),
                            "group.M_gens: expected an integer, got True"),
        "u-matrix entry": ("cyclic_perm.json", "dual", None,
                           "u-matrix: expected a nonempty row-major matrix of [re, im] "
                           "number pairs"),
    }

    @pytest.mark.parametrize("case", sorted(BOOLEANS))
    def test_boolean_number_exit_two(self, tmp_path, case):
        name, command, edit, reason = self.BOOLEANS[case]
        with open(os.path.join(ROOT, "problems", name)) as fh:
            doc = json.load(fh)
        argv = [command, "--input", None]
        if command == "dual":
            argv += ["--out", str(tmp_path / "d")]
        if edit is None:
            U = [[[0.0, 0.0]] * 4 for _ in range(4)]
            U[0][1] = [False, 0.0]
            argv += ["--u-matrix", write_problem(tmp_path, U, "u.json")]
        else:
            edit(doc)
        argv[2] = write_problem(tmp_path, doc)
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {reason}\n")


ORBIT_DEFECTS = ("none", "repeated generator", "short period", "scaled direction")


def orbit_instance(orders, defect, seed, s, extra, r_pick):
    """A cyclic problem document, its samples, its orbit matrix and ``R``.

    ``defect`` makes the orbit dependent: a generator repeated, a period
    declared twice its true length, or one eigendirection of the first
    generator scaled by 1e-12.  The orbit matrix is formed from the parsed
    file one step at a time, as an SVD-first orbit check forms it, and ``R``
    entry by entry.
    """
    rng = np.random.default_rng(seed)
    dim = sum(orders) + extra
    op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
    gens, orders = list(gens), list(orders)
    if defect == "repeated generator":
        gens.append(gens[0])
        orders.append(orders[0])
    elif defect == "short period":
        orders[0] *= 2
    elif defect == "scaled direction":
        n0 = orders[0]
        phase = np.exp(-2j * np.pi * int(rng.integers(n0)) * np.arange(n0) / n0)
        component = sum(w * op.power(n) @ gens[0] for n, w in enumerate(phase)) / n0
        gens[0] = gens[0] - (1 - 1e-12) * component
    lcm = math.lcm(*orders)
    divisors = [d for d in range(1, lcm + 1) if lcm % d == 0]
    r = divisors[r_pick % len(divisors)]
    samplers = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)]
    spec = types.SimpleNamespace(operator=op, generators=gens, orders=orders)
    scheme = types.SimpleNamespace(samplers=samplers, r=r, ell=lcm // r)
    R = oracles.sample_matrix(spec, scheme)
    coeffs = rng.standard_normal(R.shape[1]) + 1j * rng.standard_normal(R.shape[1])
    doc = {
        "model": "cyclic",
        "dimension": dim,
        "operator": [cpairs(row) for row in op.matrix],
        "generators": [cpairs(a) for a in gens],
        "orders": orders,
        "samplers": [cpairs(b) for b in samplers],
        "r": r,
    }
    m = cli._matrix(doc["operator"], "operator")
    cols = []
    for a, n in zip(doc["generators"], orders):
        v = cli._vector(a, "generators")
        for _ in range(n):
            cols.append(v)
            v = m @ v
    return doc, R @ coeffs, np.column_stack(cols), R


def sigma_ratio(m):
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[-1] / sv[0] if sv[0] > 0 else 0.0


def run_in_process(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main`` in this process; each
    warning adds a line to stderr, as it would from a shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    lines = [f"{w.category.__name__}: {w.message}\n" for w in caught]
    return rc, out.getvalue(), err.getvalue() + "".join(lines)


class TestOrbitCertificate:
    """A full-rank ``R`` certifies the orbit; a dependent one exits 2.

    The oracle is an up-front SVD of the orbit matrix, which is blind to the
    directions a wide orbit matrix lacks.  Outcomes match it exactly except
    in two documented classes: (1) an orbit with sigma ratio at or below
    ``RANK_TOL`` whose ``R`` still clears ``RANK_TOL`` is accepted, since
    ``R`` certifies it; (2) more orbit vectors than the dimension exit 2
    with a count (the up-front SVD let some through to exit 1 on a
    rank-deficient ``R``).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        orders=st.sampled_from([[4], [6], [4, 2], [6, 3], [4, 4]]),
        defect=st.sampled_from(ORBIT_DEFECTS),
        seed=st.integers(0, 2**32 - 1),
        s=st.integers(1, 4),
        extra=st.integers(0, 8),
        r_pick=st.integers(0, 5),
        command=st.sampled_from(("analyze", "dual", "reconstruct")),
    )
    @example(orders=[4], defect="repeated generator", seed=0, s=4, extra=4, r_pick=0,
             command="analyze")
    @example(orders=[6], defect="short period", seed=1, s=2, extra=0, r_pick=0,
             command="dual")
    @example(orders=[4, 2], defect="scaled direction", seed=2, s=3, extra=1, r_pick=0,
             command="reconstruct")
    def test_exit_code_matches_orbit_svd_oracle(self, orders, defect, seed, s, extra,
                                                r_pick, command):
        doc, samples, orbit, R = orbit_instance(orders, defect, seed, s, extra, r_pick)
        with tempfile.TemporaryDirectory() as tmp:
            problem = os.path.join(tmp, "p.json")
            with open(problem, "w") as fh:
                json.dump(doc, fh)
            argv = [command, "--input", problem]
            if command != "analyze":
                argv += ["--out", os.path.join(tmp, "o")]
            if command == "reconstruct":
                cli.write_vector_csv(os.path.join(tmp, "s.csv"), samples)
                argv += ["--samples", os.path.join(tmp, "s.csv")]
            rc, _, err = run_in_process(argv)
        rows, cols = orbit.shape
        if cols > rows:  # class (2)
            assert rc == 2
            assert err == (f"error: orbit vectors are linearly dependent "
                           f"({cols} of them in dimension {rows})\n")
            return
        ratio = sigma_ratio(orbit)
        if ratio <= RANK_TOL:
            if R.shape[0] >= R.shape[1] and sigma_ratio(R) > RANK_TOL:  # class (1)
                assert rc in (0, 1)
                return
            assert rc == 2
            assert err == (f"error: orbit vectors are linearly dependent "
                           f"(sigma ratio {ratio:.3e})\n")
            return
        # an independent orbit leaves the verdict to R alone
        assert rc in (0, 1) and err == ""
        if command == "analyze":
            sv = np.linalg.svd(R, compute_uv=False)
            assert (rc == 0) == (R.shape[0] >= R.shape[1] and sv[-1] > RANK_TOL * sv[0])


def orbit_law_violations():
    """``(document, stderr line)`` of a cyclic and an lca problem whose operator
    ``2 T`` (``T`` the shift on C^4) doubles each orbit step, so that
    ``(2 T)^4 a = 16 a``: no period and no orbit law hold."""
    cyc = cyclic_problem([E4[0], E4[1]])
    group = lca_problem()
    for doc in (cyc, group):
        doc["operator"] = [cpairs(row) for row in 2 * SHIFT4]
    return {
        "cyclic": (cyc, "error: generator 0 is not fixed by T^4 (relative drift 1.500e+01)\n"),
        # T O against O read at h + 1: the gap 16 - 1 over the largest entry 16
        "lca": (group, "error: operator 0 breaks the orbit law: T_0 Pi(h) a differs from "
                       "Pi(h + (1,)) a (relative gap 9.375e-01)\n"),
    }


def padded(m, corner):
    """``m`` on the first coordinates and ``corner`` on the last ones."""
    out = np.zeros((len(m) + len(corner),) * 2, dtype=complex)
    out[: len(m), : len(m)], out[len(m):, len(m):] = m, corner
    return out


class TestOrbitLaw:
    """The operators are certified on the orbit, which is all that the
    verdict, the duals and the reconstruction read."""

    @pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct"])
    @pytest.mark.parametrize("model", ["cyclic", "lca"])
    def test_violation_exits_two_naming_the_generator(self, tmp_path, model, command):
        doc, line = orbit_law_violations()[model]
        argv = [command, "--input", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]
        if command == "reconstruct":
            cli.write_vector_csv(str(tmp_path / "s.csv"), np.ones(4))
            argv += ["--samples", str(tmp_path / "s.csv")]
        proc = run_cli(*argv[: 3 if command == "analyze" else None])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)

    @pytest.mark.parametrize("model", ["cyclic", "lca"])
    def test_singular_off_the_orbit_as_invertible(self, tmp_path, model):
        # on C^6 the shift acts on the first four coordinates, the orbit of
        # e_0; off it the operator is 0 (singular) or the identity
        doc = cyclic_problem([E4[0], E4[1]]) if model == "cyclic" else lca_problem()
        doc["dimension"] = 6
        doc["generators"] = [cpairs(np.eye(6)[0])]
        doc["samplers"] = [cpairs(np.eye(6)[0]), cpairs(np.eye(6)[1] + 0.5 * np.eye(6)[5])]
        x = np.concatenate([[1.0, 2.0 - 1j, -0.5, 3.0], np.zeros(2)])
        doc["truth"] = cpairs(x)
        singular, invertible = (padded(SHIFT4, c) for c in (np.zeros((2, 2)), np.eye(2)))
        with pytest.raises(ValueError, match="numerically singular"):
            o.LinearOperator(singular).inv_matrix
        # the samples of x, by the library, under the invertible operator
        doc["operator"] = [cpairs(row) for row in invertible]
        if model == "cyclic":
            problem = cli._Cyclic(doc)
            samples = o.take_samples(problem.spec, problem.scheme, x)
        else:
            samples = o.take_group_samples(cli._Lca(doc).spectrum, x)
        spath, out = str(tmp_path / "s.csv"), str(tmp_path / "o")
        cli.write_vector_csv(spath, samples)
        results = []
        for T in (singular, invertible):
            path = write_problem(tmp_path, dict(doc, operator=[cpairs(row) for row in T]))
            runs = [run_in_process(["analyze", "--input", path]),
                    run_in_process(["dual", "--input", path, "--out", out]),
                    run_in_process(["reconstruct", "--input", path, "--samples", spath,
                                    "--out", out])]
            files = {f: pathlib.Path(f).read_bytes()
                     for f in sorted(glob.glob(glob.escape(out) + ".*.csv"))}
            results.append((runs, files))
        assert [rc for rc, *_ in results[0][0]] == [0, 0, 0]
        assert results[0] == results[1]


LCA_DESIGN_RUNGS = [  # (moduli of H, generators of M), as the lca-design workload ships them
    ((8, 16), [(2, 0), (0, 4)]),
    ((8, 8), [(2, 0), (0, 2)]),
    ((4, 16), [(2, 0), (0, 4)]),
    ((16,), [(4,)]),
    ((16,), [(8,)]),
]


def design_rung_problem(rng, moduli, M_gens):
    """An lca problem shaped like a design rung: ``H`` the whole group on its
    unit generators, ``s = |H : M| + 2`` samplers, the truth of a subspace
    element, and that element's samples."""
    group = o.FiniteAbelianGroup(moduli)
    H_gens = np.eye(len(moduli), dtype=int).tolist()
    H, M = o.Subgroup(group, H_gens), o.Subgroup(group, M_gens)
    rep, a = representation_from_characters(rng, H, distortion=0.2)
    n = H.order
    samplers = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(n // M.order + 2)]
    spectrum = o.build_group_G_matrix(rep, a, samplers, H, M)
    x = spectrum.orbit @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    doc = {
        "model": "lca",
        "dimension": n,
        "operators": [[cpairs(row) for row in T] for T in group_operators(rep, H_gens)],
        "generators": [cpairs(a)],
        "samplers": [cpairs(b) for b in samplers],
        "group": {"moduli": list(moduli), "H_gens": H_gens, "M_gens": [list(g) for g in M_gens]},
        "truth": cpairs(x),
    }
    return doc, o.take_group_samples(spectrum, x)


def test_no_command_forms_an_inverse_or_a_matrix_power(tmp_path, monkeypatch):
    # analyze, dual and reconstruct on every shipped cyclic and lca problem
    # and on one problem per lca design rung, and take_group_samples on every
    # lca problem: the same outcomes without them
    problems = []
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if doc["model"] == "cyclic":
            model = cli._Cyclic(doc)
            x = model.spec.synthesize(np.arange(1.0, model.spec.total_order + 1))
            problems.append((doc, x, o.take_samples(model.spec, model.scheme, x)))
        elif doc["model"] == "lca":
            spectrum = cli._Lca(doc).spectrum
            x = spectrum.orbit @ np.arange(1.0, spectrum.rep.H.order + 1)
            problems.append((doc, x, o.take_group_samples(spectrum, x)))
    assert {doc["model"] for doc, *_ in problems} == {"cyclic", "lca"}
    rng = np.random.default_rng(16)
    for moduli, M_gens in LCA_DESIGN_RUNGS:
        doc, samples = design_rung_problem(rng, moduli, M_gens)
        problems.append((doc, None, samples))
    commands = []
    for k, (doc, x, samples) in enumerate(problems):
        if x is not None:
            doc = dict(doc, truth=cpairs(x))
        path = write_problem(tmp_path, doc, f"p{k}.json")
        spath, out = str(tmp_path / f"s{k}.csv"), str(tmp_path / f"o{k}")
        cli.write_vector_csv(spath, samples)
        commands += [["analyze", "--input", path], ["dual", "--input", path, "--out", out],
                     ["reconstruct", "--input", path, "--samples", spath, "--out", out]]
    before = [run_in_process(argv) for argv in commands]
    # cyclic_rank2.json is not recoverable; every other problem is
    assert sorted({rc for rc, *_ in before}) == [0, 1]
    assert {rc for rc, *_ in before[-3 * len(LCA_DESIGN_RUNGS):]} == {0}
    # the analyzers are formed on first read, by a fresh spectrum each time
    lca_docs = [dict(doc, truth=cpairs(x)) if x is not None else doc
                for doc, x, _ in problems if doc["model"] == "lca"]

    def group_samples():
        return [o.take_group_samples(cli._Lca(doc).spectrum, [complex(*v) for v in doc["truth"]])
                for doc in lca_docs]

    samples_before = group_samples()

    def refuse(*args, **kwargs):
        raise AssertionError("an inverse or a matrix power was formed")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    assert [run_in_process(argv) for argv in commands] == before
    assert all(map(np.array_equal, group_samples(), samples_before))


def test_analyze_forms_only_what_it_reads(tmp_path, monkeypatch):
    # analyze on every shipped problem and on one problem per lca design rung
    # reads no full R, no pseudo-inverse and no coefficient map; cyclic and lca
    # dual read no coefficient map: the same outcomes and files with each refused
    paths = sorted(glob.glob(os.path.join(ROOT, "problems", "*.json")))
    rng = np.random.default_rng(21)
    for k, (moduli, M_gens) in enumerate(LCA_DESIGN_RUNGS):
        paths.append(write_problem(tmp_path, design_rung_problem(rng, moduli, M_gens)[0],
                                   f"rung{k}.json"))
    models = [json.loads(pathlib.Path(p).read_text())["model"] for p in paths]
    lca_paths = [p for p, m in zip(paths, models) if m == "lca"]
    cyclic_paths = [p for p, m in zip(paths, models) if m == "cyclic"]
    assert len(lca_paths) > len(LCA_DESIGN_RUNGS) and cyclic_paths
    commands = [["analyze", "--input", p] for p in paths]
    commands += [["dual", "--input", p, "--out", str(tmp_path / f"d{k}")]
                 for k, p in enumerate(lca_paths + cyclic_paths)]

    def outcomes(argvs):
        runs = [run_in_process(argv) for argv in argvs]
        files = {f.name: f.read_bytes() for f in sorted(tmp_path.glob("d*.csv"))}
        return runs, files

    before = outcomes(commands)
    assert before[1] and {rc for rc, *_ in before[0]} == {0, 1}

    def refuse(name):
        def formed(self):
            raise AssertionError(f"{name} formed")
        return property(formed)

    monkeypatch.setattr(o.duals.OrbitDual, "coefficients", refuse("coefficient map"))
    assert outcomes(commands) == before
    monkeypatch.setattr(o.cyclic.SampleMatrix, "matrix", refuse("R"))
    monkeypatch.setattr(o.duals.DualFamily, "pinv", refuse("pseudo-inverse"))
    assert [run_in_process(argv) for argv in commands[: len(paths)]] == before[0][: len(paths)]


def test_in_process_sequence_matches_fresh_processes(tmp_path, monkeypatch):
    # one parser serves every call of the process; a fresh interpreter builds its own
    monkeypatch.setenv("COLUMNS", "80")
    doc, rows = fuzz_bases()["cyclic_perm.json"]
    cyc = write_problem(tmp_path, doc)
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(rows) + "\n")
    problem = functools.partial(os.path.join, ROOT, "problems")
    out = str(tmp_path / "o")
    sequence = [
        ["analyze", "--input", cyc],
        ["dual", "--input", cyc, "--out", out],
        ["analyze", "--input", cyc, "--bogus"],
        ["reconstruct", "--input", cyc, "--samples", str(samples), "--out", out],
        ["analyze", "--input", problem("cyclic_rank2.json")],
        [],
        ["dual", "--input", problem("shift_spline.json"), "--out", out],
        ["analyze", "--input", problem("shift_spline.json"), "--grid", "8"],
        ["pr-check", "--input", problem("bank_spline.json")],
        ["analyze", "--input", problem("lca_z4.json")],
        ["reconstruct", "--input", cyc, "--out", out],
        ["analyze", "--input", cyc],
    ]

    def written(result):
        files = {p.name: p.read_bytes() for p in tmp_path.glob("o.*")}
        for name in files:
            (tmp_path / name).unlink()
        return (*result, files)

    in_process = [written(run_in_process(argv)) for argv in sequence]
    assert {rc for rc, *_ in in_process} == {0, 1, 2}
    for argv, expected in zip(sequence, in_process):
        proc = run_cli(*argv)
        assert written((proc.returncode, proc.stdout, proc.stderr)) == expected, argv



def test_readme_command_table_matches_the_parser():
    # a removed command or flag cannot linger in the docs, nor a new one go unlisted
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().split("| command | flags |\n|---|---|\n", 1)[1].splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("| `"), lines)
    table = {}
    for row in rows:
        name, flags = row.strip("|").split("|")
        table[name.strip(" `")] = sorted(re.findall(r"`--([\w-]+)`", flags))
    assert table == {name: sorted(flags.split()) for name, (_, _, flags) in cli._COMMANDS.items()}


class TestScaleInvariance:
    """``--tol`` bounds sigma_min/sigma_max: scaling the shift or lca samplers by
    any of ``SCALES`` changes no verdict or exit code, scales the duals by its
    inverse and writes nothing to stderr, also where ``G*G`` leaves the float range."""

    SCALES = (1e-6, 1.0, 1e3, 1e-200, 1e160, 1e200)

    @classmethod
    def runs(cls, doc, tmp):
        """Per scale ``c``: the ``analyze`` and ``dual`` exit codes, the analyze
        lines, and each dual CSV as ``{index: c * value}``."""
        runs = []
        for c in cls.SCALES:
            scaled = copy.deepcopy(doc)
            if doc["model"] == "lca":
                scaled["samplers"] = [[[c * re, c * im] for re, im in b] for b in doc["samplers"]]
            for seq in scaled.get("sequences", {}).values():
                seq["values"] = [[c * re, c * im] for re, im in seq["values"]]
            problem, prefix = os.path.join(tmp, f"p{c:g}.json"), os.path.join(tmp, f"d{c:g}")
            with open(problem, "w") as fh:
                json.dump(scaled, fh)
            rc_a, out_a, err_a = run_in_process(["analyze", "--input", problem])
            rc_d, _, err_d = run_in_process(["dual", "--input", problem, "--out", prefix])
            assert err_a == err_d == "", (c, err_a, err_d)
            lines = dict(line.split(" = ", 1) for line in out_a.splitlines() if " = " in line)
            duals = [{k: c * v for k, v in zip(*cli.read_vector_csv(path))}
                     for path in sorted(glob.glob(glob.escape(prefix) + ".*.csv"))]
            runs.append((rc_a, rc_d, lines, duals))
        return runs

    @staticmethod
    def shift_doc(width, extra, seed, common_zero):
        """A random shift problem and its sequences; every spectrum vanishes at
        ``w = 0`` when ``common_zero``."""
        rng = np.random.default_rng(seed)
        seqs = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for n in rng.integers(1, 6, size=max(1, width + extra))]
        if common_zero:
            seqs = [np.convolve(v, [-1, 1]) for v in seqs]
        doc = {
            "model": "shift",
            "r": width,
            "grid": 64,
            "method": "pseudoinverse",
            "dual_length": 64 * width,  # the whole grid: no truncation to refuse
            "sequences": {f"g{j}": {"offset": -1, "values": cpairs(v)}
                          for j, v in enumerate(seqs, start=1)},
        }
        return doc, seqs

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(-1, 2),
        seed=st.integers(0, 2**32 - 1),
        common_zero=st.booleans(),
    )
    @example(width=1, extra=0, seed=0, common_zero=False)
    @example(width=2, extra=1, seed=1, common_zero=True)
    @example(width=4, extra=-1, seed=2, common_zero=False)
    @example(width=4, extra=2, seed=3, common_zero=False)
    @example(width=4, extra=0, seed=109050, common_zero=False)
    def test_shift(self, width, extra, seed, common_zero):
        doc, seqs = self.shift_doc(width, extra, seed, common_zero)
        with tempfile.TemporaryDirectory() as tmp:
            (rc_a, rc_d, lines, duals), *others = self.runs(doc, tmp)
        assert rc_a in (0, 1) and rc_d in (0, 1)
        assert not (len(seqs) < width or common_zero) or (rc_a, rc_d) == (1, 1)
        ratio = float(lines["sigma_min/sigma_max"])
        for rc_a2, rc_d2, lines2, duals2 in others:
            assert (rc_a2, rc_d2) == (rc_a, rc_d)
            if ratio > 1e-6:
                assert abs(float(lines2["sigma_min/sigma_max"]) - ratio) <= 1e-12 * ratio
            assert len(duals2) == len(duals)
            for got, want in zip(duals2, duals):
                # a coefficient rounded to 0 at an end of the window is trimmed from the file
                diff = [got.get(k, 0) - want.get(k, 0) for k in got.keys() | want.keys()]
                scale = max(map(abs, want.values()))
                assert max(map(abs, diff)) <= max(1e-10, 1e-13 / ratio) * scale

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(-1, 2),
        seed=st.integers(0, 2**32 - 1),
        common_zero=st.booleans(),
    )
    @example(width=1, extra=0, seed=0, common_zero=False)
    @example(width=2, extra=1, seed=1, common_zero=True)
    def test_shift_dual_refuses_iff_analyze_does(self, width, extra, seed, common_zero):
        # at --tol just below and just above the field's own ratio
        doc, _ = self.shift_doc(width, extra, seed, common_zero)
        with tempfile.TemporaryDirectory() as tmp:
            problem, prefix = os.path.join(tmp, "p.json"), os.path.join(tmp, "d")
            with open(problem, "w") as fh:
                json.dump(doc, fh)
            _, out, _ = run_in_process(["analyze", "--input", problem])
            ratio = float(out.split("sigma_min/sigma_max = ")[1].split()[0])
            for tol in (ratio * (1 - 1e-9), ratio * (1 + 1e-9)):
                tol_flag = ["--tol", repr(tol)]
                rc_a, out_a, _ = run_in_process(["analyze", "--input", problem, *tol_flag])
                rc_d, out_d, _ = run_in_process(
                    ["dual", "--input", problem, "--out", prefix, *tol_flag]
                )
                assert (rc_a, rc_d) in ((0, 0), (1, 1))
                assert ("recoverable: no" in out_a) == ("not recoverable" in out_d)
                assert rc_a == (0 if 0 < tol < ratio else 1)

    @pytest.mark.parametrize("name", ["lca_z4.json", "lca_z4.json, one sampler"])
    def test_lca(self, tmp_path, name):
        # one sampler for r = 2: not recoverable at every scale
        with open(os.path.join(ROOT, "problems", "lca_z4.json")) as fh:
            doc = json.load(fh)
        if name.endswith("one sampler"):
            doc["samplers"] = doc["samplers"][:1]
        (rc_a, rc_d, lines, duals), *others = self.runs(doc, str(tmp_path))
        assert (rc_a, rc_d) == ((1, 1) if len(doc["samplers"]) == 1 else (0, 0))
        ratio = float(lines["sigma_min/sigma_max"])
        for rc_a2, rc_d2, lines2, duals2 in others:
            assert (rc_a2, rc_d2) == (rc_a, rc_d)
            assert abs(float(lines2["sigma_min/sigma_max"]) - ratio) <= 1e-12 * max(ratio, 1e-300)
            for got, want in zip(duals2, duals, strict=True):
                scale = max(map(abs, want.values()))
                assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * scale


    @staticmethod
    def violation_doc(model, seed, size):
        """A random cyclic or lca problem whose operator moves by ``10**size``
        relative, off its orbit law."""
        rng = np.random.default_rng(seed)
        if model == "cyclic":
            op, gens = operator_with_orders(rng, 6, [4, 2], distortion=0.2)
            T, doc = op.matrix, {"model": "cyclic", "orders": [4, 2], "r": 2}
        else:
            H = o.Subgroup(o.FiniteAbelianGroup((6,)), [(1,)])
            rep, a = representation_from_characters(rng, H, distortion=0.2)
            (T,), gens = group_operators(rep, [(1,)]), [a]
            doc = {"model": "lca", "group": {"moduli": [6], "H_gens": [[1]], "M_gens": [[2]]}}
        T = T + 10.0**size * np.max(np.abs(T)) * rng.standard_normal(T.shape)
        samplers = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
        return dict(doc, dimension=6, operator=[cpairs(row) for row in T],
                    generators=[cpairs(a) for a in gens], samplers=[cpairs(b) for b in samplers])

    @settings(max_examples=10, deadline=None)
    @given(model=st.sampled_from(["cyclic", "lca"]), seed=st.integers(0, 2**32 - 1),
           size=st.floats(-6, 0))
    @example(model="cyclic", seed=0, size=-6)
    @example(model="lca", seed=1, size=-6)
    def test_orbit_law_violation(self, model, seed, size):
        # the generator and the samplers scaled together: the same one line,
        # its relative gap equal up to its last printed digit
        doc = self.violation_doc(model, seed, size)
        with tempfile.TemporaryDirectory() as tmp:
            lines = []
            for c in self.SCALES:
                scaled = copy.deepcopy(doc)
                for key in ("generators", "samplers"):
                    scaled[key] = [[[c * re, c * im] for re, im in v] for v in doc[key]]
                problem = os.path.join(tmp, "p.json")
                with open(problem, "w") as fh:
                    json.dump(scaled, fh)
                for argv in (["analyze", "--input", problem],
                             ["dual", "--input", problem, "--out", os.path.join(tmp, "d")]):
                    rc, out, err = run_in_process(argv)
                    assert (rc, out, err.count("\n")) == (2, "", 1), (c, err)
                    lines.append(err)
        head, gap = lines[0].rsplit(" ", 1)
        assert head.endswith("(relative gap" if model == "lca" else "(relative drift")
        for line in lines:
            got_head, got_gap = line.rsplit(" ", 1)
            assert got_head == head
            assert abs(float(got_gap[:-2]) / float(gap[:-2]) - 1) <= 1e-3


def scaled_problem(name, c):
    """The shipped problem ``name`` with its samplers, or its shift sequences, times ``c``."""
    with open(os.path.join(ROOT, "problems", name)) as fh:
        doc = json.load(fh)
    if "samplers" in doc:
        doc["samplers"] = [[[c * re, c * im] for re, im in b] for b in doc["samplers"]]
    for seq in doc.get("sequences", {}).values():
        seq["values"] = [[c * re, c * im] for re, im in seq["values"]]
    return doc


class TestBeyondTheFloatRange:
    """Samplers times 1e-310: every verdict is the scale-1 one, with nothing on
    stderr, and duals of entries near 1e310 are refused in one line, not
    written as ``nan``."""

    SHIPPED = sorted(os.listdir(os.path.join(ROOT, "problems")))
    PSEUDO_INVERSE = ("bank_spline.json", "cyclic_oversampled.json", "cyclic_perm.json",
                      "lca_oversampled.json", "lca_z4.json", "shift_borderline.json",
                      "shift_doubtful.json")

    @pytest.mark.parametrize("name", SHIPPED)
    def test_analyze_keeps_its_verdict(self, tmp_path, name):
        runs = []
        for c in (1.0, 1e-310):
            problem = write_problem(tmp_path, scaled_problem(name, c), f"p{c:g}.json")
            rc, out, err = run_in_process(["analyze", "--input", problem])
            runs.append((rc, out.splitlines()[-1], err))
        assert runs[1] == runs[0] and runs[0][2] == ""

    @pytest.mark.parametrize("name", PSEUDO_INVERSE)
    def test_duals_refused_in_one_line(self, tmp_path, name):
        doc = scaled_problem(name, 1e-310)
        commands = [["dual", "--out", str(tmp_path / "d")]]
        if doc["model"] == "cyclic":  # the samples of a subspace element, which is the truth
            model = cli._Cyclic(doc)
            x = model.spec.synthesize(np.arange(1.0, model.spec.total_order + 1))
            samples = o.take_samples(model.spec, model.scheme, x)
        elif doc["model"] == "lca":
            spectrum = cli._Lca(doc).spectrum
            x = spectrum.orbit @ np.arange(1.0, spectrum.rep.H.order + 1)
            samples = o.lca.take_group_samples(spectrum, x)
        if doc["model"] != "shift":
            doc["truth"] = cpairs(x)
            cli.write_vector_csv(str(tmp_path / "y.csv"), samples)
            commands.append(["reconstruct", "--samples", str(tmp_path / "y.csv"),
                             "--out", str(tmp_path / "r")])
        problem = write_problem(tmp_path, doc)
        assert run_in_process(["analyze", "--input", problem])[::2] == (0, "")
        written = sorted(os.listdir(tmp_path))
        for command, *flags in commands:
            got = run_in_process([command, "--input", problem, *flags])
            assert got == (1, "not recoverable: the duals leave the float range\n", ""), command
        assert sorted(os.listdir(tmp_path)) == written

    @staticmethod
    def wide_orbit(name):
        """The shipped orbit problem ``name``, generators times 1e300 and samplers
        times 1e-310: finite dual matrices near 1e10, whose vectors are near 1e310."""
        doc = scaled_problem(name, 1e-310)
        doc.pop("truth", None)
        doc["generators"] = [[[1e300 * re, 1e300 * im] for re, im in a] for a in doc["generators"]]
        return doc

    @pytest.mark.parametrize("name", ["cyclic_perm.json", "lca_z4.json"])
    def test_synthesised_duals_refused_in_one_line(self, tmp_path, name):
        problem = write_problem(tmp_path, self.wide_orbit(name))
        assert run_in_process(["analyze", "--input", problem])[::2] == (0, "")
        written = sorted(os.listdir(tmp_path))
        got = run_in_process(["dual", "--input", problem, "--out", str(tmp_path / "d")])
        assert got == (1, "not recoverable: the duals leave the float range\n", "")
        assert sorted(os.listdir(tmp_path)) == written

    @pytest.mark.parametrize("name", ["cyclic_perm.json", "lca_z4.json"])
    def test_truth_residual_of_entries_near_1e300(self, tmp_path, name):
        # the truth O (1, 2, ..., n) and its samples: the residual is taken at the truth's scale
        doc = self.wide_orbit(name)
        if doc["model"] == "cyclic":
            model = cli._Cyclic(doc)
            x = model.spec.synthesize(np.arange(1.0, model.spec.total_order + 1))
            samples = o.take_samples(model.spec, model.scheme, x)
        else:
            spectrum = cli._Lca(doc).spectrum
            x = spectrum.orbit @ np.arange(1.0, spectrum.rep.H.order + 1)
            samples = o.lca.take_group_samples(spectrum, x)
        doc["truth"] = cpairs(x)
        cli.write_vector_csv(str(tmp_path / "y.csv"), samples)
        rc, out, err = run_in_process(["reconstruct", "--input", write_problem(tmp_path, doc),
                                       "--samples", str(tmp_path / "y.csv"),
                                       "--out", str(tmp_path / "r")])
        assert (rc, err) == (0, "")
        assert float(out.splitlines()[-1].removeprefix("relative residual vs truth: ")) < 1e-12

    def test_group_reconstruct_of_entries_near_1e300(self):
        # the library's lca reconstruction takes the CLI's path: O (A y), whose
        # two factors stay in range where the product O A overflows
        spectrum = cli._Lca(self.wide_orbit("lca_z4.json")).spectrum
        x = spectrum.orbit @ np.arange(1.0, spectrum.rep.H.order + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = o.lca.group_reconstruct(o.lca.group_duals(spectrum),
                                          o.lca.take_group_samples(spectrum, x))
        scale = 2.0 ** o.duals.scale_exponent(x)
        assert np.isfinite(got).all()
        assert np.linalg.norm((got - x) * scale) <= 1e-12 * np.linalg.norm(x * scale)


class TestOffsetsBeyondInt64:
    """Sequence offsets are Python ints of any size: the spectra reduce them
    modulo the grid, and ``pr-check`` refuses a round trip it cannot span."""

    OFFSETS = [2**63, -(2**63) - 1, 10**30]
    COMMANDS = {
        "analyze": ["analyze"],
        "dual-pseudoinverse": ["dual", "pseudoinverse"],
        "dual-bezout": ["dual", "bezout"],
        "pr-check": ["pr-check"],
    }

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("problem, name", [("bank", "h1"), ("bank", "g1"), ("shift", "g1")])
    def test_exit_code_and_one_line(self, tmp_path, problem, name, command, offset):
        doc = bank_problem() if problem == "bank" else spline_shift_problem()
        doc["sequences"][name]["offset"] = offset
        command, *method = self.COMMANDS[command]
        if method:
            doc["method"] = method[0]
        out = ["--out", str(tmp_path / "d")] if command == "dual" else []
        path = write_problem(tmp_path, doc)
        rc, stdout, stderr = run_in_process([command, "--input", path, *out])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        else:
            assert stderr == "" and stdout.endswith("\n")
        if problem == "bank" and command == "pr-check":  # the reason names the pair
            h, g = (doc["sequences"][f"{p}1"]["offset"] for p in "hg")
            assert rc == 2 and stderr.startswith(f"error: h1/g1: offsets {h} and {g} move ")

    @pytest.mark.parametrize("width", [1, 2])
    def test_moving_an_offset_by_a_grid_multiple_changes_nothing(self, tmp_path, width):
        doc, _ = TestScaleInvariance.shift_doc(width, 1, 7, False)
        Q = doc["grid"] * doc["r"]
        runs = []
        for shift in (0, Q * 2**64, -Q * 2**64):
            moved = copy.deepcopy(doc)
            moved["sequences"]["g1"]["offset"] += shift
            path, prefix = write_problem(tmp_path, moved, f"p{len(runs)}.json"), tmp_path / "d"
            outputs = [run_in_process(["analyze", "--input", path])]
            outputs.append(run_in_process(["dual", "--input", path, "--out", str(prefix)]))
            files = sorted(glob.glob(glob.escape(str(prefix)) + ".*.csv"))
            outputs.append([pathlib.Path(f).read_bytes() for f in files])
            for f in files:
                os.remove(f)
            runs.append(outputs)
        assert runs[0][0][0] == 0 and runs[0][1][0] == 0 and runs[0][2]
        assert runs[1] == runs[0] and runs[2] == runs[0]
