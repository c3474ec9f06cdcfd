"""The four benchmark workloads: their inputs, their ops and each op's oracle.

Each workload is a closed loop with one client: a fixed *cycle* of ops that
the runner repeats, one op at a time, after the workload's *once* ops (the
``lca-design`` rung whose commands take seconds each), which run one time
per run.  The seed changes every number in the inputs but never the
cycle's shape (sizes, rung weights, sampler scales), so run-to-run
differences come from timing alone.

``cyclic-design``, ``lca-design`` and ``shift-design`` feed generated
problem files to ``orbitsamp.cli.main`` in process; an op is one CLI
command.  ``stream-apply`` builds one cyclic and one group design through
the library at set-up, and an op takes one subspace element through
sampling and reconstruction.

Which layer should move which end-to-end metric, and where (layer metrics
come from ``run.py --trace 1``):

- ``cli.main``/``load_problem``/``*_csv`` self time: ``op_p50_ms`` on the
  three ``*-design`` workloads (small rungs hold the median), not on
  ``stream-apply``;
- ``hilbert.LinearOperator.power``, ``hilbert.power_cache.computed_mb``,
  ``hilbert.cross_correlation``: ``ops_per_s`` and ``peak_rss_mb`` on
  ``cyclic-design``, not on ``lca-design`` or ``shift-design``;
- ``cyclic.build_sample_matrix``/``structurize_left_inverse``/
  ``CyclicSubspaceSpec``: ``ops_per_s`` and ``op_tail_ms`` on
  ``cyclic-design``; ``cyclic.take_samples.calls`` (768 per ``dual`` of the
  square rung) its ``op_tail_ms``; ``take_samples``/``reconstruct``/
  ``filter_bank_coefficients`` self time: ``stream-apply``;
- ``lca.GroupRepresentation``/``DualGroup``/``build_group_G_matrix``/
  ``group_duals`` and the pair-check and table counts: ``ops_per_s``,
  ``op_tail_ms``, ``peak_rss_mb`` on ``lca-design`` and ``setup_s`` of
  ``stream-apply``; ``take_group_samples``/``group_reconstruct``:
  ``stream-apply``;
- ``spectral.*``, ``laurent.*``: ``ops_per_s`` and ``op_tail_ms`` on
  ``shift-design`` only.

Sampler scales cycle through ``SCALES``: the true verdict does not depend
on scale.  At the parent commit the ``lca`` and ``shift`` verdicts compare
an absolute ``alpha_G`` with ``--tol``, so their ops at scale 1e-6 fail; so
does ``spline-demo --K 15 --p 10``, whose Bezout identity is exact but whose
torus residual exceeds the absolute 1e-9 of ``pr-check``.  Those ops are
counted as failed and are marked ``known_defect``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import types
from dataclasses import dataclass

import numpy as np

import gen

SCALES = (1.0, 1e-6, 1e3)

# (d, orders, r, s, problems per cycle); d=256 is the ROADMAP's largest rung
# and d=96 with orders [48, 48], r=4, s=8 makes R square, which makes
# ``dual`` print the interpolation table.  Many small problems put the median
# op on the d=24 rung, as users of small problems see it.
CYCLIC_LADDER = [
    (256, (128, 96), 16, 32, 1),
    (96, (48, 48), 4, 8, 1),
    (96, (48, 32), 4, 8, 2),
    (24, (12, 8), 2, 4, 7),
]

# (moduli of H, generators of M, problems per cycle), M of index 4 or 8 and
# s = index + 2 samplers.  Z8 x Z16 costs seconds per command at the parent
# commit, so its one problem (at scale 1) runs once per run, outside the
# cycle, and the cycle repeats the smaller rungs.
LCA_ONCE = ((8, 16), [(2, 0), (0, 4)])
LCA_LADDER = [
    ((8, 8), [(2, 0), (0, 2)], 1),
    ((4, 16), [(2, 0), (0, 4)], 1),
    ((16,), [(4,)], 5),
    ((16,), [(8,)], 5),
]
LCA_EXTRA_SAMPLERS = 2

# (r, grid, s): every rung at every scale.
SHIFT_LADDER = [(1, 1024, 2), (1, 4096, 2), (4, 1024, 6), (4, 4096, 6)]
SHIFT_TAPS = 6
SHIFT_DUAL_LENGTH = 129
# the written duals are truncated to SHIFT_DUAL_LENGTH coefficients, whose
# dropped energy the generator keeps below 1e-9 of the total
SHIFT_DUAL_BOUND = 1e-3
BEZOUT_TAPS = (6, 8)
BANKS = [(2, 3), (4, 4)]  # (r, unimodular factors)
SPLINES = [(3, 4), (9, 6), (15, 10)]

# stream-apply designs and the op mix of one cycle: an lca op costs about a
# tenth of a cyclic op, so three of them per cyclic op put the median on the
# lca path and the tail on the cyclic path.
STREAM_CYCLIC = (256, (128, 96), 16, 32)
STREAM_GROUP = ((8, 8), [(2, 0), (0, 2)])
STREAM_POOL = 16  # cyclic ops per cycle, each on its own element
STREAM_LCA_PER_CYCLIC = 3

SCALE_DEFECT = "absolute alpha_G threshold: verdict flips when samplers are scaled"
SPLINE_DEFECT = "pr-check's absolute 1e-9 torus residual rejects an exact Bezout bank"


@dataclass(eq=False)
class Op:
    """One timed call and the check of its output (``None`` when correct)."""

    label: str
    call: object  # ctx -> result
    check: object  # result -> failure reason or None
    known_defect: str | None = None
    outputs: tuple = ()  # files the op writes; removed before it runs


def import_program(src):
    """Import ``orbitsamp`` from ``src`` afresh; returns its modules by name."""
    for name in [n for n in sys.modules if n == "orbitsamp" or n.startswith("orbitsamp.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.import_module("orbitsamp")
    mods = {m: importlib.import_module(f"orbitsamp.{m}") for m in
            ("cli", "hilbert", "cyclic", "spectral", "laurent", "lca")}
    if not os.path.abspath(mods["cli"].__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"orbitsamp was imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


def _expect_rc(expected):
    def check(result):
        rc, output = result
        if rc == expected:
            return None
        last = output.strip().splitlines()[-1] if output.strip() else ""
        return f"exit code {rc}, expected {expected}: {last}"

    return check


def _cli(label, argv, check, known_defect=None, outputs=()):
    """One CLI command; its report goes to a buffer, not the benchmark's output."""

    def call(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = ctx.cli.main(argv)
        return rc, out.getvalue()

    return Op(label, call, check, known_defect, tuple(outputs))


def _then(first, second):
    """Run ``second`` only when ``first`` found nothing wrong."""

    def check(result):
        return first(result) or second(result)

    return check


def _within(name, value, bound=gen.RESIDUAL_BOUND):
    return None if value <= bound else f"{name} relative error {value:.3e} > {bound:.0e}"


class DesignWorkload:
    """Problem files through ``analyze``/``dual``/``reconstruct`` and friends.

    ``tail_pct`` is the percentile of the per-op times reported as
    ``op_tail_ms``; the runner repeats the cycle until at least ten timed ops
    lie beyond it.  ``once`` ops run one time per run, before the cycles.
    """

    setup_reps = 9

    def __init__(self, ops, warmup, tail_pct, once=()):
        self.ops = ops
        self.warmup = warmup
        self.tail_pct = tail_pct
        self.once = list(once)

    def prepare(self, ctx):
        rc = self.warmup.call(ctx)
        reason = self.warmup.check(rc)
        if reason:
            raise RuntimeError(f"warm-up op {self.warmup.label} failed: {reason}")


def _problem_ops(tag, p, path, known_defect=None):
    """``analyze``, ``dual`` and ``reconstruct`` on one cyclic or group problem.

    ``dual`` passes when its vectors rebuild the truth from its exact samples;
    ``reconstruct`` when its ``x`` (and, for cyclic problems, the orbit
    coefficients) match the truth.
    """
    json_path, csv_path = f"{path}.json", f"{path}.samples.csv"
    gen.write_json(json_path, p.document())
    gen.write_csv(csv_path, p.samples)
    dual, rec = f"{path}.dual", f"{path}.rec"
    dual_files = [f"{dual}.c{j}.csv" for j in range(1, p.s + 1)]

    def check_dual(_):
        duals = [gen.read_vector(f) for f in dual_files]
        return _within("dual expansion", gen.relative_error(p.apply_duals(duals, p.samples), p.truth_x))

    def check_rec(_):
        reason = _within("x", gen.relative_error(gen.read_vector(f"{rec}.x.csv"), p.truth_x))
        if reason or p.truth_alpha is None:
            return reason
        alpha = gen.read_vector(f"{rec}.alpha.csv")
        return _within("alpha", gen.relative_error(alpha, np.concatenate(p.truth_alpha)))

    ok = _expect_rc(0)
    return [
        _cli(f"{tag} analyze", ["analyze", "--input", json_path], ok, known_defect),
        _cli(f"{tag} dual", ["dual", "--input", json_path, "--out", dual],
             _then(ok, check_dual), known_defect, dual_files),
        _cli(f"{tag} reconstruct",
             ["reconstruct", "--input", json_path, "--samples", csv_path, "--out", rec],
             _then(ok, check_rec), known_defect, [f"{rec}.x.csv", f"{rec}.alpha.csv"]),
    ]


def _spread(problems):
    """One cycle: the first (largest) problem's commands, each followed by an
    equal share of the other problems, dealt round-robin.

    A cheap op then samples the host's speed at several points of the cycle,
    not in one burst after the largest problem, which matters when a run
    holds only one or a few cycles.
    """
    heavy, rest = problems[0], problems[1:]
    ops = []
    for k, op in enumerate(heavy):
        ops.append(op)
        for problem in rest[k :: len(heavy)]:
            ops += problem
    return ops


def cyclic_design(rng, workdir):
    problems, i = [], 0
    for d, orders, r, s, copies in CYCLIC_LADDER:
        for _ in range(copies):
            scale = SCALES[i % len(SCALES)]
            p = gen.cyclic_problem(rng, d, orders, r, s, scale)
            tag = f"cyclic d={d} N={list(orders)} r={r} s={s} scale={scale:g} #{i}"
            problems.append(_problem_ops(tag, p, os.path.join(workdir, f"c{i}")))
            i += 1
    warm = gen.cyclic_problem(rng, 24, (12, 8), 2, 4, 1.0)
    warmup = _problem_ops("warm-up", warm, os.path.join(workdir, "warm"))[0]
    return DesignWorkload(_spread(problems), warmup, 93)


def lca_design(rng, workdir):
    def problem(i, moduli, M_gens, scale):
        p = gen.group_problem(rng, moduli, M_gens, LCA_EXTRA_SAMPLERS, scale)
        tag = f"lca H=Z{'xZ'.join(map(str, moduli))} M={M_gens} scale={scale:g} #{i}"
        defect = SCALE_DEFECT if scale < 1e-3 else None
        return _problem_ops(tag, p, os.path.join(workdir, f"g{i}"), defect)

    once = problem(0, *LCA_ONCE, 1.0)
    problems, i = [], 1
    for moduli, M_gens, copies in LCA_LADDER:
        for _ in range(copies):
            problems.append(problem(i, moduli, M_gens, SCALES[i % len(SCALES)]))
            i += 1
    warm = gen.group_problem(rng, (16,), [(4,)], LCA_EXTRA_SAMPLERS, 1.0)
    warmup = _problem_ops("warm-up", warm, os.path.join(workdir, "warm"))[0]
    return DesignWorkload(_spread(problems), warmup, 80, once)


def shift_design(rng, workdir):
    ops, i = [], 0
    ok = _expect_rc(0)
    for r, grid, s in SHIFT_LADDER:
        for scale in SCALES:
            doc, seqs = gen.shift_problem(rng, r, grid, s, SHIFT_TAPS, scale, SHIFT_DUAL_LENGTH)
            path = os.path.join(workdir, f"s{i}")
            gen.write_json(f"{path}.json", doc)
            defect = SCALE_DEFECT if scale < 1e-3 else None
            tag = f"shift r={r} grid={grid} s={s} scale={scale:g} #{i}"

            def check_dual(_, path=path, seqs=seqs, r=r, Q=grid * r):
                duals = [gen.read_indexed(f"{path}.dual.c{j}.csv") for j in range(1, len(seqs) + 1)]
                return _within("dual row condition",
                               gen.dual_row_residual(seqs, r, Q, duals), SHIFT_DUAL_BOUND)

            ops.append(_cli(f"{tag} analyze", ["analyze", "--input", f"{path}.json"], ok, defect))
            ops.append(_cli(f"{tag} dual", ["dual", "--input", f"{path}.json", "--out",
                                            f"{path}.dual"], _then(ok, check_dual), defect,
                            [f"{path}.dual.c{j}.csv" for j in range(1, s + 1)]))
            i += 1
    for taps in BEZOUT_TAPS:
        doc, pairs = gen.bezout_problem(rng, taps)
        path = os.path.join(workdir, f"b{i}")
        gen.write_json(f"{path}.json", doc)

        def check_bezout(_, path=path, pairs=pairs):
            cof = [gen.read_exact(f"{path}.dual.c{j}.csv") for j in (1, 2)]
            return None if gen.bezout_identity_holds(pairs, cof) else "Bezout identity fails"

        tag = f"bezout taps={taps} #{i}"
        ops.append(_cli(f"{tag} analyze", ["analyze", "--input", f"{path}.json"], ok))
        ops.append(_cli(f"{tag} dual", ["dual", "--input", f"{path}.json", "--out",
                                        f"{path}.dual"], _then(ok, check_bezout),
                        outputs=[f"{path}.dual.c1.csv", f"{path}.dual.c2.csv"]))
        i += 1
    for r, factors in BANKS:
        path = os.path.join(workdir, f"k{i}.json")
        gen.write_json(path, gen.bank_problem(rng, r, factors))
        ops.append(_cli(f"bank r={r} #{i} pr-check", ["pr-check", "--input", path], ok))
        i += 1
    for K, p in SPLINES:
        defect = SPLINE_DEFECT if (K, p) == (15, 10) else None
        ops.append(_cli(f"spline-demo K={K} p={p}",
                        ["spline-demo", "--K", str(K), "--p", str(p)], ok, defect))
    warmup = _cli("warm-up", ["spline-demo", "--K", "3", "--p", "4"], ok)
    return DesignWorkload(ops, warmup, 97)


class StreamWorkload:
    """Designs built once through the library; ops sample and reconstruct."""

    tail_pct = 95
    setup_reps = 3
    once = ()

    def __init__(self, rng):
        d, orders, r, s = STREAM_CYCLIC
        self.cp = gen.cyclic_problem(rng, d, orders, r, s, 1.0)
        self.gp = gen.group_problem(rng, *STREAM_GROUP, LCA_EXTRA_SAMPLERS, 1.0)
        self.c_pool = []
        for _ in range(STREAM_POOL):
            x, alphas = self.cp.element(rng)
            self.c_pool.append((x, np.concatenate(alphas), self.cp.sample(x)))
        self.g_pool = []
        for _ in range(STREAM_POOL * STREAM_LCA_PER_CYCLIC):
            x = self.gp.element(rng)
            self.g_pool.append((x, self.gp.sample(x)))
        self.ops = []
        for k in range(STREAM_POOL):
            self.ops.append(self._cyclic_op(k))
            for i in range(STREAM_LCA_PER_CYCLIC):
                self.ops.append(self._group_op(k * STREAM_LCA_PER_CYCLIC + i))
        self.design = None

    def prepare(self, ctx):
        self.design = None  # a rebuilt design must not coexist with the old one
        cp, gp = self.cp, self.gp
        spec = ctx.cyclic.CyclicSubspaceSpec(
            operator=ctx.hilbert.LinearOperator(cp.operator()),
            generators=cp.generators(),
            orders=list(cp.orders),
        )
        scheme = ctx.cyclic.SamplingScheme.for_spec(spec, cp.samplers, cp.r)
        R = ctx.cyclic.build_sample_matrix(spec, scheme)
        if not ctx.cyclic.check_rank(R).full_rank:
            raise RuntimeError("stream-apply cyclic design is not recoverable")
        hs = ctx.cyclic.structurize_left_inverse(R)
        basis = ctx.cyclic.reconstruction_vectors(spec, hs)

        group = ctx.lca.FiniteAbelianGroup(gp.moduli)
        H = ctx.lca.Subgroup(group, gp.unit_generators())
        M = ctx.lca.Subgroup(group, gp.M_gens)
        rep = ctx.lca.GroupRepresentation(H, gp.operators())
        spectrum = ctx.lca.build_group_G_matrix(rep, gp.generator(), gp.samplers, H, M)
        gdual = ctx.lca.group_duals(spectrum)
        self.design = types.SimpleNamespace(
            spec=spec, scheme=scheme, hs=hs, basis=basis, spectrum=spectrum, gdual=gdual
        )
        for op in (self.ops[0], self.ops[1]):
            reason = op.check(op.call(ctx))
            if reason:
                raise RuntimeError(f"warm-up op {op.label} failed: {reason}")

    def _cyclic_op(self, k):
        x, alpha, samples = self.c_pool[k]

        def call(ctx):
            d = self.design
            y = ctx.cyclic.take_samples(d.spec, d.scheme, x)
            x_hat = ctx.cyclic.reconstruct(d.spec, d.scheme, d.basis, y)
            coeffs = ctx.cyclic.filter_bank_coefficients(d.hs, y, d.spec)
            return y, x_hat, np.concatenate(coeffs)

        def check(result):
            y, x_hat, coeffs = result
            return (_within("samples", gen.relative_error(y, samples))
                    or _within("x", gen.relative_error(x_hat, x))
                    or _within("alpha", gen.relative_error(coeffs, alpha)))

        return Op(f"cyclic apply #{k}", call, check)

    def _group_op(self, k):
        x, samples = self.g_pool[k]

        def call(ctx):
            y = ctx.lca.take_group_samples(self.design.spectrum, x)
            return y, ctx.lca.group_reconstruct(self.design.gdual, y)

        def check(result):
            y, x_hat = result
            return (_within("samples", gen.relative_error(y, samples))
                    or _within("x", gen.relative_error(x_hat, x)))

        return Op(f"lca apply #{k}", call, check)


WORKLOADS = {
    "cyclic-design": cyclic_design,
    "lca-design": lca_design,
    "shift-design": shift_design,
    "stream-apply": lambda rng, workdir: StreamWorkload(rng),
}
