"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orbitsamp as o
from instances import CyclicInstanceConfig, random_cyclic_instance
from orbitsamp.laurent import LaurentPoly
from orbitsamp.lca import (
    FiniteAbelianGroup,
    Subgroup,
    build_group_G_matrix,
    group_duals,
    group_reconstruct,
    take_group_samples,
)
from instances import group_operators, representation_from_characters
from oracles import is_r_circulant


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cyclic_instances():
    """50 random well-conditioned full-rank instances within the stated bounds."""
    instances = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        cfg = CyclicInstanceConfig(
            max_dim=24,
            max_generators=3,
            max_order=12,
            distortion=0.25 if i % 2 else 0.0,
        )
        instances.append((rng, random_cyclic_instance(rng, cfg)))
    return instances


def test_criterion_1_spline_example_exact():
    t0 = time.perf_counter()
    sb = o.bspline_filter_bank(3, 4)
    g1, g2 = sb.g_polys
    h1, h2 = sb.h_polys
    ok = (
        g1 == LaurentPoly(-1, [4, 19, 4])
        and g2 == LaurentPoly(-1, [10, 16, 1])
        and h1 == LaurentPoly(1, [Fraction(-38, 243), Fraction(-5, 486)])
        and h2 == LaurentPoly(1, [Fraction(79, 486), Fraction(10, 243)])
        and (g1 * h1 + g2 * h2 - 1).is_zero
        and str(g1) == "4*z^-1 + 19 + 4*z"
        and str(g2) == "10*z^-1 + 16 + z"
        and str(h1) == "-38/243*z - 5/486*z^2"
        and str(h2) == "79/486*z + 10/243*z^2"
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (spline example, exact rationals)",
        ok and elapsed < 1.0,
        f"exact match={ok}, runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_perfect_reconstruction():
    t0 = time.perf_counter()
    sb = o.bspline_filter_bank(3, 4)
    pr = o.perfect_reconstruction_check(sb.bank, torus_grid=1024)
    # the time-domain round trip on 100 sequences of its own, beyond the check's
    rng = np.random.default_rng(2024)
    worst = pr.roundtrip_error
    for _ in range(100):
        n = int(rng.integers(1, 65))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha = o.FiniteSequence(offset=int(rng.integers(-16, 16)), values=vals)
        diff = o.synthesis(sb.bank, o.analysis(sb.bank, alpha)) + (-1.0) * alpha
        worst = max(worst, float(np.max(np.abs(diff.values))) / float(np.max(np.abs(vals))))
    elapsed = time.perf_counter() - t0
    ok = pr.max_residual <= 1e-12 and worst <= 1e-10 and elapsed < 5.0
    report(
        "criterion 2 (perfect reconstruction)",
        ok,
        f"torus residual {pr.max_residual:.2e} <= 1e-12, "
        f"round-trip {worst:.2e} <= 1e-10 on 116 sequences, "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_3_cyclic_round_trip(cyclic_instances):
    t0 = time.perf_counter()
    worst = 0.0
    for rng, inst in cyclic_instances:
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        hs = o.structurize_left_inverse(R)
        basis = o.reconstruction_vectors(spec, hs)
        alpha = rng.standard_normal(spec.total_order) + 1j * rng.standard_normal(
            spec.total_order
        )
        x = spec.synthesize(alpha)
        xr = o.reconstruct(spec, scheme, basis, o.take_samples(spec, scheme, x))
        worst = max(worst, np.linalg.norm(xr - x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        "criterion 3 (cyclic round trip, 50 instances)",
        ok,
        f"worst relative error {worst:.2e} <= 1e-8, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_4_structured_inverse_invariants(cyclic_instances):
    worst_resid = 0.0
    all_exact = True
    all_circ = True
    for _, inst in cyclic_instances:
        R = inst.sample_matrix
        hs = o.structurize_left_inverse(R)
        worst_resid = max(worst_resid, hs.certified_residual)
        offs = R.offsets
        for j in range(R.s):
            base = hs.first[:, j]
            for n in range(R.ell):
                col = hs.coefficients[:, j * R.ell + n]
                for l, Nl in enumerate(R.orders):
                    seg = np.roll(base[offs[l] : offs[l + 1]], (R.r * n) % Nl)
                    if not np.array_equal(col[offs[l] : offs[l + 1]], seg):
                        all_exact = False
        pt = np.linalg.pinv(R.matrix).T
        if not is_r_circulant(pt, R.ell, R.r, col_periods=list(R.orders), tol=1e-10):
            all_circ = False
    ok = worst_resid <= 1e-10 and all_exact and all_circ
    report(
        "criterion 4 (structured-inverse invariants)",
        ok,
        f"worst |HR - I| {worst_resid:.2e} <= 1e-10, "
        f"column shifts exact={all_exact}, pinv-transpose circulant={all_circ}",
    )


def test_criterion_5_interpolation_property():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        cfg = CyclicInstanceConfig(
            max_dim=24,
            max_generators=3,
            max_order=12,
            square=True,
            distortion=0.2 if i % 2 else 0.0,
        )
        inst = random_cyclic_instance(rng, cfg)
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        assert R.rows == R.cols
        basis = o.reconstruction_vectors(spec, o.structurize_left_inverse(R))
        for j, c in enumerate(basis.vectors):
            samples = o.take_samples(spec, scheme, c)
            target = np.zeros(scheme.s * scheme.ell)
            target[j * scheme.ell] = 1.0
            worst = max(worst, float(np.max(np.abs(samples - target))))
    ok = worst <= 1e-10
    report(
        "criterion 5 (interpolation property, 20 square instances)",
        ok,
        f"worst deviation from delta {worst:.2e} <= 1e-10",
    )


def test_criterion_6_frame_bound_identity():
    rng = np.random.default_rng(7)
    P = np.roll(np.eye(4), 1, axis=0)
    op = o.LinearOperator(P)
    e = np.eye(4)
    perturb = lambda: 0.06 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    spec = o.CyclicSubspaceSpec(operator=op, generators=[e[0]], orders=[4])
    scheme = o.SamplingScheme.for_spec(spec, [e[0] + perturb(), e[1] + perturb()], 2)
    R = o.build_sample_matrix(spec, scheme)
    sv = o.check_rank(R).singular_values
    lo, hi = sv[-1] ** 2, sv[0] ** 2
    draws = rng.standard_normal((10_000, R.cols)) + 1j * rng.standard_normal(
        (10_000, R.cols)
    )
    quot = (
        np.linalg.norm(draws @ R.matrix.T, axis=1) ** 2
        / np.linalg.norm(draws, axis=1) ** 2
    )
    err_lo = (quot.min() - lo) / lo
    err_hi = (hi - quot.max()) / hi
    inside = lo - 1e-12 <= quot.min() and quot.max() <= hi + 1e-12
    ok = inside and err_lo <= 0.02 and err_hi <= 0.02
    report(
        "criterion 6 (frame bounds vs Rayleigh sampling)",
        ok,
        f"sigma_min^2 reached within {err_lo:.2%}, sigma_max^2 within {err_hi:.2%} "
        f"(<= 2%) over 10^4 draws",
    )


def test_criterion_7_spectral_dual_residual():
    rng = np.random.default_rng(77)
    worst = 0.0
    kept = 0
    while kept < 20:
        L = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        s = r * L + int(rng.integers(0, 2))
        seqs = []
        for _ in range(s):
            row = []
            for _ in range(L):
                n = int(rng.integers(1, 6))
                off = int(rng.integers(-3, 3))
                row.append(
                    o.FiniteSequence(
                        off, rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    )
                )
            seqs.append(row)
        field = o.build_spectral_field(seqs, r, 1024 * r)
        if o.frame_constants(field).alpha_G <= 1e-4:
            continue
        kept += 1
        dual = o.dual_field(field)
        worst = max(worst, dual.residual_max)
    ok = worst <= 1e-9
    report(
        "criterion 7 (dual residual on 20 spectral problems)",
        ok,
        f"worst |hG - (I,0)| {worst:.2e} <= 1e-9 on Q = 1024*r grids",
    )


def test_criterion_8_lca_specialization_coherence():
    rng = np.random.default_rng(88)
    group = FiniteAbelianGroup((12,))
    H = Subgroup(group, [(1,)])
    M = Subgroup(group, [(3,)])
    rep, a = representation_from_characters(rng, H, distortion=0.2)
    samplers = [
        rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(3)
    ]
    spectrum = build_group_G_matrix(rep, a, samplers, H, M)
    duals = group_duals(spectrum)

    T = o.LinearOperator(group_operators(rep, [(1,)])[0])
    spec = o.CyclicSubspaceSpec(operator=T, generators=[a], orders=[12])
    scheme = o.SamplingScheme.for_spec(spec, samplers, 3)
    R = o.build_sample_matrix(spec, scheme)
    basis = o.reconstruction_vectors(spec, o.structurize_left_inverse(R))

    worst = 0.0
    for _ in range(10):
        coeff = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x = spec.synthesize(coeff)
        x_lca = group_reconstruct(duals, take_group_samples(spectrum, x))
        x_cyc = o.reconstruct(spec, scheme, basis, o.take_samples(spec, scheme, x))
        worst = max(worst, float(np.max(np.abs(x_lca - x_cyc))))
    ok = worst <= 1e-10
    report(
        "criterion 8 (LCA vs cyclic coherence on Z_12, M = 3Z_12)",
        ok,
        f"worst reconstruction difference {worst:.2e} <= 1e-10 over 10 elements",
    )


@st.composite
def specializations(draw):
    """``N``, a divisor ``r`` of it, ``s`` from ``r`` to ``r + 2`` and a seed."""
    N = draw(st.integers(2, 16))
    r = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    return N, r, draw(st.integers(r, r + 2)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(case=specializations())
@example(case=(12, 3, 3, 88))
@example(case=(16, 16, 16, 0))
def test_criterion_8_holds_on_random_specializations(case):
    """Cyclic with ``T = Pi(1)`` and ``H = Z_N``, ``M = rZ_N``: same margin, same
    coefficient map, same x."""
    N, r, s, seed = case
    rng = np.random.default_rng(seed)
    group = FiniteAbelianGroup((N,))
    H, M = Subgroup(group, [(1,)]), Subgroup(group, [(r,)])
    rep, a = representation_from_characters(rng, H, distortion=0.2)
    samplers = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(s)]
    spectrum = build_group_G_matrix(rep, a, samplers, H, M)

    T = o.LinearOperator(group_operators(rep, [(1,)])[0])
    spec = o.CyclicSubspaceSpec(operator=T, generators=[a], orders=[N])
    scheme = o.SamplingScheme.for_spec(spec, samplers, r)
    R = o.build_sample_matrix(spec, scheme)
    sv = o.check_rank(R).singular_values
    ratio = spectrum.frame.sigma_ratio
    assert abs(sv[-1] / sv[0] - ratio) <= 1e-12 * ratio

    # the coefficient maps agree: column (j, n) of each maps samples to orbit coefficients
    hs = o.structurize_left_inverse(R)
    duals = group_duals(spectrum)
    assert (np.linalg.norm(duals.coefficients - hs.coefficients)
            <= 1e-10 * np.linalg.norm(hs.coefficients))

    x = spec.synthesize(rng.standard_normal(N) + 1j * rng.standard_normal(N))
    basis = o.reconstruction_vectors(spec, hs)
    x_cyc = o.reconstruct(spec, scheme, basis, o.take_samples(spec, scheme, x))
    x_lca = group_reconstruct(duals, take_group_samples(spectrum, x))
    assert np.linalg.norm(x_cyc - x_lca) <= 1e-10 * np.linalg.norm(x)


def test_criterion_9_positivity_certificate():
    mp = o.bspline(3, 4)
    g = o.polyphase_sample(mp, 3, 0)
    cert = o.positivity_certificate(g, 4096)
    ok = (
        abs(cert.min_value - 11.0) <= 1e-9
        and abs(cert.argmin - 0.5) <= 1e-12
        and cert.positive
    )
    report(
        "criterion 9 (positivity certificate)",
        ok,
        f"min over 4096-point grid {cert.min_value!r} at w = {cert.argmin} "
        f"(target 11 at 1/2 within 1e-9), strictly positive={cert.positive}",
    )
