import re
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitsamp import spectral
from orbitsamp.duals import FrameError
from orbitsamp.hilbert import RANK_TOL
from orbitsamp.laurent import LaurentPoly, eval_torus
from orbitsamp.spectral import (
    GRAM_DOUBT,
    MAX_GRID_ENTRIES,
    MIN_GRID_FACTOR,
    DualField,
    FilterBank,
    FiniteSequence,
    SpectralField,
    TailEnergyError,
    analysis,
    bspline_filter_bank,
    build_spectral_field,
    dual_field,
    frame_constants,
    perfect_reconstruction_check,
    polyphase,
    reconstruction_coefficients,
    sequence_from_laurent,
    synthesis,
)


def rand_seq(rng, max_support=5, span=3):
    n = int(rng.integers(1, max_support + 1))
    off = int(rng.integers(-span, span))
    return FiniteSequence(off, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def spline_spectra():
    sb = bspline_filter_bank(3, 4)
    return sb, [oracles.conj_reversed(seq) for seq in sb.bank.analysis]


class TestFiniteSequence:
    def test_trimming(self):
        s = FiniteSequence(-2, [0, 0, 3, 0, 1, 0])
        assert s.offset == 0
        assert np.array_equal(s.values, [3, 0, 1])

    def test_zero_canonical(self):
        s = FiniteSequence(7, [0, 0])
        assert s.offset == 0 and s.values.size == 1 and s.values[0] == 0

    def test_convolution_offsets(self):
        a = FiniteSequence(-1, [1, 1])
        b = FiniteSequence(2, [1, -1])
        c = a.conv(b)
        assert c.offset == 1
        assert np.array_equal(c.values, [1, 0, -1])

    def test_upsample(self):
        s = FiniteSequence(1, [1, 2])
        u = s.upsample(3)
        assert u.offset == 3
        assert np.array_equal(u.values, [1, 0, 0, 2])

    def test_conj_reversed(self):
        s = FiniteSequence(-1, [1 + 1j, 2, 3])
        r = oracles.conj_reversed(s)
        assert oracles.at(r, -1) == 3 and oracles.at(r, 1) == 1 - 1j


class TestSpectrum:
    def test_delta_constant(self):
        assert oracles.delta(0).spectrum(0.3) == 1

    def test_monomial_phase(self):
        val = oracles.delta(3).spectrum(0.2)
        assert abs(val - np.exp(2j * np.pi * 3 * 0.2)) < 1e-14

    def test_cosine_polynomial(self):
        c = FiniteSequence(-1, [4, 19, 4])
        w = np.linspace(0, 1, 11)
        assert np.max(np.abs(c.spectrum(w) - (19 + 8 * np.cos(2 * np.pi * w)))) < 1e-12


class TestSpectralField:
    def test_constant_spectrum(self):
        field = build_spectral_field([oracles.delta(0)], 1, 64)
        assert np.allclose(field.values, 1.0)

    def test_spline_pair_matches_torus_oracle(self):
        sb, spectra = spline_spectra()
        field = build_spectral_field(spectra, 1, 128)
        w = np.arange(len(field.values)) / field.Q
        for j, gp in enumerate(sb.g_polys):
            assert np.max(np.abs(field.values[:, j, 0] - eval_torus(gp, w))) < 1e-12

    def test_downsampled_columns_phase(self):
        # g(w) = exp(2 pi i w): the two columns differ by exp(pi i) = -1
        field = build_spectral_field([oracles.delta(1)], 2, 256)
        ratio = field.values[:, 0, 1] / field.values[:, 0, 0]
        assert np.max(np.abs(ratio + 1.0)) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            build_spectral_field([oracles.delta(0)], 2, 129)
        with pytest.raises(ValueError):
            build_spectral_field([oracles.delta(0)], 2, 64)

    def test_grid_budget_counts_every_sequence(self):
        # three samplers, two generators: six sequences share the budget
        seqs = [[oracles.delta(0)] * 2] * 3
        with pytest.raises(ValueError, match="too fine"):
            build_spectral_field(seqs, 2, 2 * (MAX_GRID_ENTRIES // 12 + 1))
        with pytest.raises(ValueError, match="too fine"):
            build_spectral_field([oracles.delta(0)], 1, MAX_GRID_ENTRIES + 1)

    def test_multi_generator_layout_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        seqs = [[rand_seq(rng) for _ in range(2)] for _ in range(3)]
        field = build_spectral_field(seqs, 2, 128)
        w = np.arange(len(field.values)) / field.Q
        for j in range(3):
            for k in range(2):
                for l in range(2):
                    direct = seqs[j][l].spectrum(w + k / 2)
                    assert np.allclose(field.values[:, j, k * 2 + l], direct)


class TestGridSpectra:
    """The FFT grid evaluation against the direct sum of ``FiniteSequence.spectrum``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(1, 4),
        L=st.integers(1, 3),
        s=st.integers(1, 3),
        long_support=st.booleans(),
    )
    def test_field_matches_direct_evaluation(self, seed, r, L, s, long_support):
        rng = np.random.default_rng(seed)
        Q = 64 * r
        # offsets reach -Q, and long supports exceed Q, so the scatter aliases
        max_support = 2 * Q if long_support else 8
        seqs = [[rand_seq(rng, max_support, Q) for _ in range(L)] for _ in range(s)]
        field = build_spectral_field(seqs, r, Q)
        dual = oracles.dual_field_from_sequences(field, seqs)
        w = np.arange(len(field.values)) / field.Q
        for j in range(s):
            for l in range(L):
                bound = 1e-12 * np.sum(np.abs(seqs[j][l].values))
                for k in range(r):
                    direct = seqs[j][l].spectrum(w + k / r)
                    assert np.max(np.abs(field.values[:, j, k * L + l] - direct)) <= bound
                    assert np.max(np.abs(dual.h_values[:, k * L + l, j] - direct)) <= bound


class TestFrameConstants:
    def test_constant_one(self):
        field = build_spectral_field([oracles.delta(0)], 1, 64)
        fc = frame_constants(field)
        assert fc.alpha_G == fc.beta_G == 1.0

    def test_spline_pair_positive(self):
        sb, spectra = spline_spectra()
        fc = frame_constants(build_spectral_field(spectra, 1, 256))
        assert fc.alpha_G > 0
        assert fc.det_min > 0
        # root-check oracle: no common zero of the two components on the
        # torus means |g1|^2 + |g2|^2 stays away from zero
        g1, g2 = sb.g_polys
        roots = np.roots([float(c) for c in reversed(g1.coeffs)])
        for z in roots:
            if abs(abs(z) - 1.0) < 1e-6:
                assert abs(g2.eval(z)) > 1e-6

    def test_vanishing_spectrum_fails(self):
        # g(w) = exp(2 pi i w) - 1 vanishes at w = 0 (grid point 0)
        g = FiniteSequence(0, [-1, 1])
        fc = frame_constants(build_spectral_field([g], 1, 64))
        assert fc.alpha_G < 1e-12

    @staticmethod
    def stack_ratio(values):
        """``sigma_min/sigma_max`` from one SVD of the whole stack; 0 when wide."""
        sv = np.linalg.svd(values, compute_uv=False)
        return sv[:, -1].min() / sv[:, 0].max() if values.shape[1] >= values.shape[2] else 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(-1, 3),
        log_ratio=st.floats(-14, 0),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ratio_matches_svd_of_stack(self, width, extra, log_ratio, scale, seed):
        # one grid point with singular values from 1 down to 10**log_ratio
        rng = np.random.default_rng(seed)
        s = max(1, width + extra)
        values = rng.standard_normal((32, s, width)) + 1j * rng.standard_normal((32, s, width))
        u, _, vh = np.linalg.svd(values[7], full_matrices=False)
        values[7] = (u * np.geomspace(1, 10**log_ratio, u.shape[1])) @ vh
        values *= scale
        got = frame_constants(SpectralField(r=1, L=width, Q=32, values=values)).sigma_ratio
        want = self.stack_ratio(values)
        assert abs(got - want) <= 1e-10 * want

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(0, 2),
        tied=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=4, extra=0, tied=False, scale=1.0, seed=0)
    def test_sound_minimum_within_1e_12_of_svd(self, width, extra, tied, scale, seed):
        # every point sound, sigma ratios log-uniform in [1e-2, 1] (or all alike):
        # the point holding sigma_min is refined, not read off its Gram eigenvalue
        rng = np.random.default_rng(seed)
        s = width + extra
        values = rng.standard_normal((32, s, width)) + 1j * rng.standard_normal((32, s, width))
        u, _, vh = np.linalg.svd(values, full_matrices=False)
        ratios = np.full(32, 0.0101) if tied else 10 ** rng.uniform(-2, 0, 32)
        values = scale * (u * (ratios[:, None] ** np.linspace(0, 1, width))[:, None, :]) @ vh
        got = frame_constants(SpectralField(r=1, L=width, Q=32, values=values)).sigma_ratio
        want = self.stack_ratio(values)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("c", [0.5, 0.99, 1 - 1e-6, 1 - 2e-14])
    def test_ratio_of_a_near_root(self, c):
        # |exp(2 pi i w) - c| runs from 1 - c at w = 0 to 1 + c at w = 1/2
        field = build_spectral_field([FiniteSequence(0, [-c, 1])], 1, 64)
        got = frame_constants(field).sigma_ratio
        for want in ((1 - c) / (1 + c), self.stack_ratio(field.values)):
            assert abs(got - want) <= 1e-10 * want

    def test_svd_only_where_gram_is_doubtful(self, monkeypatch):
        rng = np.random.default_rng(4)
        # complex, as the doubtful points' one DualFamily takes its SVD
        draw = rng.standard_normal((64, 3, 2)) + 1j * rng.standard_normal((64, 3, 2))
        u, _, vh = np.linalg.svd(draw, full_matrices=False)
        values = (u * [1.0, 0.1]) @ vh  # sigma ratio 0.1 at every point
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        fc = frame_constants(SpectralField(r=1, L=2, Q=64, values=values))
        assert shapes == [] and abs(fc.sigma_ratio - 0.1) <= 1e-12
        values[[5, 9]] = (u[[5, 9]] * [1.0, 1e-9]) @ vh[[5, 9]]
        fc = frame_constants(SpectralField(r=1, L=2, Q=64, values=values))
        want = self.stack_ratio(values)
        assert shapes[:2] == [(2, 3, 2), (64, 3, 2)] and abs(fc.sigma_ratio - want) <= 1e-19
        frame_constants(SpectralField(r=1, L=2, Q=64, values=values[:, :1]))  # wide
        assert shapes[2:] == [(64, 1, 2)]

    def test_refinement_monotone(self):
        rng = np.random.default_rng(1)
        seqs = [rand_seq(rng) for _ in range(2)]
        f1 = frame_constants(build_spectral_field(seqs, 2, 256))
        f2 = frame_constants(build_spectral_field(seqs, 2, 512))
        assert f2.alpha_G <= f1.alpha_G + 1e-15
        assert f2.beta_G >= f1.beta_G - 1e-15


class TestDualField:
    def test_reciprocal_for_single_channel(self):
        c = FiniteSequence(-1, [4, 19, 4])
        field = build_spectral_field([c], 1, 256)
        dual = dual_field(field)
        w = np.arange(len(field.values)) / field.Q
        expected = 1.0 / (19 + 8 * np.cos(2 * np.pi * w))
        assert np.max(np.abs(dual.h_values[:, 0, 0] - expected)) < 1e-14
        assert dual.residual_max <= 1e-9

    def test_identity_field(self):
        field = build_spectral_field([oracles.delta(0)], 1, 64)
        dual = dual_field(field)
        assert np.allclose(dual.h_values, 1.0)

    def test_bezout_and_pinv_both_dual(self):
        sb, spectra = spline_spectra()
        field = build_spectral_field(spectra, 1, 256)
        d_pinv = dual_field(field)
        hs = [oracles.conj_reversed(sequence_from_laurent(h)) for h in sb.h_polys]
        d_bez = oracles.dual_field_from_sequences(field, hs)
        assert d_pinv.residual_max <= 1e-9
        assert d_bez.residual_max <= 1e-9

    def test_singular_field_rejected(self):
        g = FiniteSequence(0, [-1, 1])
        field = build_spectral_field([g], 1, 64)
        with pytest.raises(FrameError):
            dual_field(field)

    def test_u_perturbation_keeps_duality(self):
        rng = np.random.default_rng(2)
        seqs = [rand_seq(rng) for _ in range(3)]
        field = build_spectral_field(seqs, 2, 256)
        if frame_constants(field).alpha_G <= 1e-8:
            pytest.skip("degenerate draw")
        U = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        dual = dual_field(field, U=U)
        assert dual.residual_max <= 1e-9

    @staticmethod
    def conditioned_stack(rng, width, extra, ratios):
        """Random ``(points, width + extra, width)`` stack whose point ``q`` has
        singular values from ``ratios[q]`` up to 1 (just ``ratios[q]`` at width 1)."""
        s, n = width + extra, len(ratios)
        values = rng.standard_normal((n, s, width)) + 1j * rng.standard_normal((n, s, width))
        u, _, vh = np.linalg.svd(values, full_matrices=False)
        sv = np.asarray(ratios)[:, None] ** np.linspace(1, 0, width)
        return (u * sv[:, None, :]) @ vh

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(0, 2),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        per_point=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_route_matches_numpy_pinv(self, width, extra, scale, per_point, seed):
        # per-point sigma ratios log-uniform in [1e-6, 1]: sound and doubtful points
        rng = np.random.default_rng(seed)
        ratios = 10 ** rng.uniform(-6, 0, 48)
        values = scale * self.conditioned_stack(rng, width, extra, ratios)
        field = SpectralField(r=1, L=width, Q=48, values=values)
        s = values.shape[1]
        pinv = np.linalg.pinv(values)
        bound = 1e-12 * np.max(np.abs(pinv))
        U = 0.1 / scale * (rng.standard_normal((width, s)) + 1j * rng.standard_normal((width, s)))
        if per_point:
            U = U * rng.standard_normal((48, 1, 1))
        assert np.max(np.abs(dual_field(field).h_values - pinv)) <= bound
        want = pinv + U @ (np.eye(s) - values @ pinv)
        assert np.max(np.abs(dual_field(field, U=U).h_values - want)) <= bound

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4]),
        extra=st.integers(-1, 2),
        log_low=st.floats(-14, 0),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        with_u=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=4, extra=0, log_low=-0.5, scale=1.0, with_u=False, seed=0)
    @example(width=4, extra=-1, log_low=0.0, scale=1.0, with_u=True, seed=8)
    def test_matches_exact_route(self, width, extra, log_low, scale, with_u, seed):
        rng = np.random.default_rng(seed)
        s = max(1, width + extra)
        if s < width:  # sigma_min = 0, yet solve often returns a finite X
            values = rng.standard_normal((32, s, width)) + 1j * rng.standard_normal((32, s, width))
        else:  # per-point sigma ratios log-uniform in [10**log_low, 1]
            ratios = 10 ** rng.uniform(log_low, 0, 32)
            values = self.conditioned_stack(rng, width, s - width, ratios)
        field = SpectralField(r=1, L=width, Q=32, values=scale * values)
        U = None
        if with_u:
            U = rng.standard_normal((width, s)) + 1j * rng.standard_normal((width, s))
            U *= 0.1 / scale
        ratio = frame_constants(field).sigma_ratio
        for threshold in (1e-10, ratio / 2, ratio * (1 - 1e-9), ratio * (1 + 1e-9)):
            try:
                h, residual = oracles.exact_dual_field(field, U, threshold)
            except FrameError as exc:
                with pytest.raises(FrameError) as got:
                    dual_field(field, U=U, threshold=threshold)
                assert str(got.value) == str(exc)
                continue
            dual = dual_field(field, U=U, threshold=threshold)
            assert np.array_equal(dual.h_values, h) and dual.residual_max == residual

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_change_no_bit(self, monkeypatch, block):
        # ragged blocks, one-point blocks among them: every member and refusal is
        # the whole-grid oracle's, bit for bit
        rng = np.random.default_rng(block)
        sizes = []
        solve = spectral._gram_solve

        def recording_solve(G, A):
            sizes.append(len(G))
            return solve(G, A)

        monkeypatch.setattr(spectral, "_gram_solve", recording_solve)
        for points, width, extra in ((32, 2, 1), (45, 1, 2), (64, 4, 0)):
            s = width + extra
            monkeypatch.setattr(spectral, "DUAL_BLOCK_ENTRIES", block * s * width)
            ratios = 10 ** rng.uniform(-1, 0, points)
            sound = self.conditioned_stack(rng, width, extra, ratios)
            ratios[-2] = 1e-3  # Gram eigenvalue ratio 1e-6: doubtful, in a late block
            doubtful = self.conditioned_stack(rng, width, extra, ratios)
            singular = sound.copy()
            singular[-1] = 0.0  # an exactly singular Gram matrix in the last block
            rounded = sound.copy()  # one whose G*G rounds to singular, sigma ratio 5e-10
            if width > 1:  # columns e1 and e1 + 1e-9 e2
                rounded[-3] = np.eye(s, width)
                rounded[-3, :2, 1] = 1.0, 1e-9
            U = rng.standard_normal((width, s)) + 1j * rng.standard_normal((width, s))
            members = (None, U, U[None], U * rng.standard_normal((points, 1, 1)))
            for values in (sound, doubtful, singular, rounded):
                field = SpectralField(r=1, L=width, Q=points, values=values)
                ratio = frame_constants(field).sigma_ratio
                for member in members:
                    for threshold in (1e-10, ratio * (1 - 1e-9), ratio * (1 + 1e-9)):
                        try:
                            h, residual = oracles.exact_dual_field(field, member, threshold)
                        except FrameError as exc:
                            with pytest.raises(FrameError) as got:
                                dual_field(field, U=member, threshold=threshold)
                            assert str(got.value) == str(exc)
                            continue
                        dual = dual_field(field, U=member, threshold=threshold)
                        assert np.array_equal(dual.h_values, h)
                        assert dual.residual_max == residual
            sizes.clear()
            dual_field(SpectralField(r=1, L=width, Q=points, values=sound))
            assert sizes == [block] * (points // block) + [points % block] * (points % block > 0)

    def test_eigenvalues_only_when_uncertified(self, monkeypatch):
        # a point the certificate refuses takes its own SVD; frame_constants, and
        # so eigvalsh, runs only when the bounds do not settle the verdict
        rng = np.random.default_rng(5)
        ratios = np.full(64, 0.5)
        sound = self.conditioned_stack(rng, 2, 1, ratios)
        ratios[7] = 1e-3  # Gram eigenvalue ratio 1e-6, doubtful
        doubtful = self.conditioned_stack(rng, 2, 1, ratios)
        zero = sound.copy()
        zero[9] = 0.0  # an exactly singular Gram matrix
        calls = []

        def recording(name, func):
            def call(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return call

        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        open_ = ["svd", "eigvalsh", "svd"]
        cases = ((sound, RANK_TOL, False, []), (doubtful, RANK_TOL, False, ["svd"]),
                 # bounds 1e-3 / sqrt(1.25), within sqrt(2) of 8e-4: open, and recoverable
                 (doubtful, 8e-4, False, open_),
                 # a wide field is refused from its shape, with no decomposition
                 (sound[:, :1], RANK_TOL, True, []), (zero, RANK_TOL, True, open_))
        for values, threshold, refused, want in cases:
            field = SpectralField(r=1, L=2, Q=64, values=values)
            if refused:
                with pytest.raises(FrameError):
                    dual_field(field, threshold=threshold)
            else:
                dual_field(field, threshold=threshold)
            assert calls == want
            calls.clear()

    @pytest.mark.parametrize("tiny,threshold", [(1e-90, 1e-170), (1e-90, 1e-140),
                                                (1e-90, 1e200), (1e-90, 1e300),
                                                (1e-150, 1e-170), (1e-150, 1e-250)])
    def test_bounds_settle_without_overflow_or_underflow(self, tiny, threshold):
        # sigma 1e60 at one point and ``tiny`` at the other, unscaled (within
        # 2**200); threshold**2 underflows at 1e-170 and overflows at 1e200.  At
        # tiny = 1e-150 the squared ratio 1e-420 is below the float range, but
        # the ratio 1e-210 is not: frame_constants reads it, and dual refuses
        # with it at 1e-170 and returns inv(values) at 1e-250
        values = np.zeros((2, 2, 2), dtype=complex)
        values[0], values[1] = 1e60 * np.eye(2), tiny * np.eye(2)
        field = SpectralField(r=1, L=2, Q=2, values=values)
        ratio = frame_constants(field).sigma_ratio
        assert ratio == pytest.approx(tiny * 1e-60, rel=1e-12, abs=0)
        if ratio > threshold:
            h = dual_field(field, threshold=threshold).h_values
            np.testing.assert_allclose(h, np.linalg.inv(values), rtol=1e-15, atol=0)
            return
        with pytest.raises(FrameError, match=re.escape(f"= {ratio:.3e} <= {threshold:.1e}")):
            dual_field(field, threshold=threshold)

    def test_uncertified_points_within_half_a_field(self):
        # r = 4, s = 6: sigma ratio 0.012 at every 97th point fails the certificate
        # (its Gram ratio 1.44e-4 is sound); those points take their own SVDs
        # within the blocks, and dual_field holds one block beyond its output
        rng = np.random.default_rng(0)
        ratios = 10 ** rng.uniform(-1, 0, 16384)
        ratios[::97] = 0.012
        values = self.conditioned_stack(rng, 4, 2, ratios)
        field = SpectralField(r=4, L=1, Q=4 * 16384, values=values)
        tracemalloc.start()
        try:
            dual = dual_field(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - dual.h_values.nbytes <= 0.5 * field.values.nbytes

    def test_svd_only_at_doubtful_points(self, monkeypatch):
        rng = np.random.default_rng(3)
        ratios = np.full(64, 0.1)  # sound: Gram eigenvalue ratio 1e-2 > GRAM_DOUBT
        sound = self.conditioned_stack(rng, 2, 1, ratios)
        ratios[[5, 9, 40]] = 1e-3
        assert np.sum(ratios**2 <= GRAM_DOUBT) == 3
        mixed = self.conditioned_stack(rng, 2, 1, ratios)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        for values, want in ((sound, []), (mixed, [(3, 3, 2)])):
            pinv = np.linalg.pinv(values)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", recording_svd)
                dual = dual_field(SpectralField(r=1, L=2, Q=64, values=values))
            # one thin SVD gives the frame test's values and the pseudo-inverse
            assert shapes == want
            assert np.max(np.abs(dual.h_values - pinv)) <= 1e-12 * np.max(np.abs(pinv))
            shapes.clear()

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([2, 4]),
        extra=st.integers(0, 2),
        planted=st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True),
        log_ratio=st.floats(-7, -1.5),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refused_exactly_at_the_ratio_of_frame_constants(self, width, extra, planted,
                                                             log_ratio, scale, seed):
        # planted points with sigma ratio at most 10**-1.5 fail the certificate and
        # take their own SVD, doubtful or sound by their Gram eigenvalues: refused
        # exactly at frame_constants' ratio, which the bounds leave open there
        rng = np.random.default_rng(seed)
        ratios = 10 ** rng.uniform(-1, 0, 64)
        ratios[planted] = 10**log_ratio
        values = scale * self.conditioned_stack(rng, width, extra, ratios)
        field = SpectralField(r=1, L=width, Q=64, values=values)
        ratio = frame_constants(field).sigma_ratio
        with pytest.raises(FrameError):
            dual_field(field, threshold=ratio)
        dual_field(field, threshold=np.nextafter(ratio, 0))


class TestReconstructionCoefficients:
    def test_constant_dual_gives_delta(self):
        field = build_spectral_field([oracles.delta(0)], 1, 64)
        coeffs = reconstruction_coefficients(dual_field(field), 5)
        assert oracles.isclose(coeffs[0][0], oracles.delta(0), 1e-12)

    def test_bezout_duals_recover_exact_taps(self):
        sb, spectra = spline_spectra()
        field = build_spectral_field(spectra, 1, 256)
        hs = [oracles.conj_reversed(sequence_from_laurent(h)) for h in sb.h_polys]
        dual = oracles.dual_field_from_sequences(field, hs)
        coeffs = reconstruction_coefficients(dual, 9)
        for j, hp in enumerate(sb.h_polys):
            assert oracles.isclose(coeffs[j][0], sequence_from_laurent(hp), 1e-13)

    def test_geometric_decay_matches_dense_solve(self):
        c = FiniteSequence(-1, [4, 19, 4])
        field = build_spectral_field([c], 1, 1024)
        got = reconstruction_coefficients(dual_field(field), 41)[0][0]
        # oracle: solve the banded Toeplitz system (beta * g) = delta
        W = 141
        T = (
            19 * np.eye(W)
            + 4 * np.eye(W, k=1)
            + 4 * np.eye(W, k=-1)
        )
        rhs = np.zeros(W)
        rhs[W // 2] = 1.0
        beta = np.linalg.solve(T, rhs)
        oracle = FiniteSequence(-(W // 2), beta)
        err = max(abs(oracles.at(got, k) - oracles.at(oracle, k)) for k in range(-20, 21))
        assert err < 1e-12

    def test_tail_refusal(self):
        c = FiniteSequence(-1, [4, 19, 4])
        field = build_spectral_field([c], 1, 1024)
        dual = dual_field(field)
        with pytest.raises(TailEnergyError):
            reconstruction_coefficients(dual, 3)


    @staticmethod
    def assert_batched(dual, length):
        """``reconstruction_coefficients`` is the batched oracle's, refusal and all,
        and leaves the dual matrices as they were."""
        before = dual.h_values.copy()
        try:
            want = oracles.batched_reconstruction_coefficients(dual, length)
        except TailEnergyError as exc:
            with pytest.raises(TailEnergyError) as got:
                reconstruction_coefficients(dual, length)
            assert str(got.value) == str(exc)
        else:
            got = reconstruction_coefficients(dual, length)
            for got_row, want_row in zip(got, want, strict=True):
                for g, w in zip(got_row, want_row, strict=True):
                    assert g.offset == w.offset and np.array_equal(g.values, w.values)
        assert np.array_equal(dual.h_values, before)

    @pytest.mark.parametrize("r, L, s", [(1, 1, 1), (1, 2, 3), (2, 1, 3), (4, 1, 6), (3, 2, 4)])
    def test_rows_match_batched_transform(self, r, L, s):
        rng = np.random.default_rng(100 * r + 10 * L + s)
        Q = 64 * r
        values = np.zeros((Q // r, s, r * L), dtype=complex)
        field = SpectralField(r=r, L=L, Q=Q, values=values)
        shape = (Q // r, r * L, s)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        smooth = dual_field(build_spectral_field(
            [[rand_seq(rng) for _ in range(L)] for _ in range(max(s, r * L))], r, Q))
        for scale in (1.0, 2.0**-1000, 2.0**900):
            for length in (1, 5, 33, Q // 2 + 1, Q):
                self.assert_batched(DualField(field, noise * scale, 0.0), length)
                self.assert_batched(DualField(smooth.field, smooth.h_values * scale, 0.0), length)

    @pytest.mark.parametrize("points", [4096, 16384])
    def test_dual_within_two_and_a_half_fields(self, points):
        # r = 4, s = 6: the duals and their coefficients hold the output, one
        # transposed copy and one block or row of temporaries beyond the field
        rng = np.random.default_rng(0)
        field = build_spectral_field([rand_seq(rng) for _ in range(6)], 4, 4 * points)
        tracemalloc.start()
        try:
            reconstruction_coefficients(dual_field(field), 65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * field.values.nbytes


class TestFilterBank:
    def test_delta_bank_identity(self):
        fb = FilterBank([oracles.delta(0)], [oracles.delta(0)], 1)
        rng = np.random.default_rng(3)
        alpha = rand_seq(rng, 9)
        assert oracles.isclose(analysis(fb, alpha)[0], alpha)
        assert oracles.isclose(synthesis(fb, analysis(fb, alpha)), alpha)

    def test_delta_downsample_by_two(self):
        fb = FilterBank([oracles.delta(0)], [oracles.delta(0)], 2)
        alpha = FiniteSequence(-2, np.arange(1, 8, dtype=float))
        y = analysis(fb, alpha)[0]
        for m in range(-3, 4):
            assert oracles.at(y, m) == oracles.at(alpha, 2 * m)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), r=st.integers(1, 4))
    def test_analysis_matches_brute_force(self, seed, r):
        rng = np.random.default_rng(seed)
        alpha, h = rand_seq(rng, 9), rand_seq(rng, 7)
        fb = FilterBank([h], [h], r)
        y = analysis(fb, alpha)[0]
        conv_lo = alpha.offset + h.offset
        conv_hi = alpha.end + h.end - 2
        for m in range(conv_lo // r - 2, conv_hi // r + 3):
            n = r * m
            oracle = sum(
                oracles.at(alpha, k) * oracles.at(h, n - k)
                for k in range(alpha.offset, alpha.end)
            )
            assert abs(oracles.at(y, m) - oracle) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), r=st.integers(1, 3))
    def test_synthesis_matches_brute_force(self, seed, r):
        rng = np.random.default_rng(seed)
        ys = [rand_seq(rng, 5) for _ in range(2)]
        gs = [rand_seq(rng, 5) for _ in range(2)]
        fb = FilterBank(gs, gs, r)
        out = synthesis(fb, ys)
        for n in range(-20, 21):
            oracle = sum(
                oracles.at(y, m) * oracles.at(g, n - m * r)
                for y, g in zip(ys, gs)
                for m in range(y.offset, y.end)
            )
            assert abs(oracles.at(out, n) - oracle) < 1e-12


class TestPolyphase:
    def test_delta_bank(self):
        fb = FilterBank([oracles.delta(0)], [oracles.delta(0)], 1)
        H, G = polyphase(fb)
        assert H[0][0] == LaurentPoly.constant(1 + 0j)
        assert G[0][0] == LaurentPoly.constant(1 + 0j)

    def test_delta_r2_single_component(self):
        fb = FilterBank([oracles.delta(0)], [oracles.delta(0)], 2)
        H, _ = polyphase(fb)
        assert H[0][0] == LaurentPoly.constant(1 + 0j)
        assert H[0][1].is_zero

    def test_polyphase_reassembles_transform(self):
        # recombination for the rm - k indexing: sum_k z^k H[j][k](z^r)
        # equals the plain transform sum_n h(n) z^{-n} on the torus
        rng = np.random.default_rng(4)
        h = rand_seq(rng, 7)
        r = 3
        fb = FilterBank([h], [h], r)
        H, _ = polyphase(fb)
        for w in np.linspace(0.05, 0.95, 7):
            z = np.exp(-2j * np.pi * w)
            direct = sum(oracles.at(h, n) * z ** (-n) for n in range(h.offset, h.end))
            recomb = sum(z**k * H[0][k].eval(z**r) for k in range(r))
            assert abs(direct - recomb) < 1e-12


class TestPerfectReconstruction:
    def test_identity_bank(self):
        fb = FilterBank([oracles.delta(0)], [oracles.delta(0)], 1)
        report = perfect_reconstruction_check(fb, 128)
        assert report.passed
        assert report.max_residual == 0.0

    def test_spline_bank_passes(self):
        sb = bspline_filter_bank(3, 4)
        report = perfect_reconstruction_check(sb.bank, 512)
        assert report.passed
        assert report.max_residual <= 1e-12
        assert report.roundtrip_error <= 1e-10

    def test_mismatched_bank_fails(self):
        rng = np.random.default_rng(5)
        sb = bspline_filter_bank(3, 4)
        bad = FilterBank(
            analysis=sb.bank.analysis,
            synthesis=[rand_seq(rng, 4), rand_seq(rng, 4)],
            r=1,
        )
        report = perfect_reconstruction_check(bad, 128)
        assert not report.passed
        assert report.roundtrip_error > 1e-3

    def test_two_channel_haar_with_downsampling(self):
        # orthogonal 2-band bank: exact PR with r = 2
        h0 = FiniteSequence(0, np.array([1.0, 1.0]) / 2)
        h1 = FiniteSequence(0, np.array([1.0, -1.0]) / 2)
        g0 = FiniteSequence(-1, np.array([1.0, 1.0]))
        g1 = FiniteSequence(-1, np.array([-1.0, 1.0]))
        fb = FilterBank([h0, h1], [g0, g1], 2)
        report = perfect_reconstruction_check(fb, 128)
        assert report.passed
        assert report.roundtrip_error <= 1e-12


    def test_torus_grid_floor_and_budget(self):
        fb = FilterBank([oracles.delta(0)] * 2, [oracles.delta(0)] * 2, 1)
        assert perfect_reconstruction_check(fb, MIN_GRID_FACTOR).torus_grid == MIN_GRID_FACTOR
        with pytest.raises(ValueError, match="too coarse"):
            perfect_reconstruction_check(fb, MIN_GRID_FACTOR - 1)
        with pytest.raises(ValueError, match="too fine"):
            perfect_reconstruction_check(fb, MAX_GRID_ENTRIES // 2 + 1)


class TestParsevalConsistency:
    def test_convolution_equals_quadrature(self):
        # samples via convolution equal the grid quadrature of
        # <F, g_j exp(2 pi i r m w)> for trig-polynomial data
        rng = np.random.default_rng(6)
        r, Q = 2, 256
        h = rand_seq(rng, 5)
        alpha = rand_seq(rng, 8)
        fb = FilterBank([h], [h], r)
        y = analysis(fb, alpha)[0]
        wfull = np.arange(Q) / Q
        F = alpha.spectrum(wfull)
        g = oracles.conj_reversed(h).spectrum(wfull)
        for m in range(y.offset, y.end):
            quad = np.mean(F * np.conj(g * np.exp(2j * np.pi * r * m * wfull)))
            assert abs(oracles.at(y, m) - quad) < 1e-8


class TestMultiGeneratorRoundTrip:
    def test_two_generator_coefficient_recovery(self):
        # s = 2, L = 2, r = 1 with unit-determinant spectral matrix, so the
        # dual rows are trigonometric polynomials and recovery is exact:
        #   G(w) = [[1, e^{2 pi i w}], [e^{-2 pi i w}, 2]]
        c = {
            (0, 0): oracles.delta(0),
            (0, 1): oracles.delta(1),
            (1, 0): oracles.delta(-1),
            (1, 1): oracles.delta(0, 2.0),
        }
        seqs = [[c[(j, l)] for l in range(2)] for j in range(2)]
        field = build_spectral_field(seqs, 1, 128)
        dual = dual_field(field)
        assert dual.residual_max < 1e-12
        gammas = reconstruction_coefficients(dual, 5)

        rng = np.random.default_rng(8)
        alphas = [rand_seq(rng, 6), rand_seq(rng, 6)]
        # analysis: samples_j = sum_l alpha_l conv h_{j,l}, h_{j,l}(n) = conj(c_{j,l}(-n))
        samples = []
        for j in range(2):
            acc = FiniteSequence(0, np.zeros(1))
            for l in range(2):
                acc = acc + alphas[l].conv(oracles.conj_reversed(c[(j, l)]))
            samples.append(acc)
        # synthesis: alpha_l = sum_j samples_j conv gamma_{j,l}
        for l in range(2):
            acc = FiniteSequence(0, np.zeros(1))
            for j in range(2):
                acc = acc + samples[j].conv(gammas[j][l])
            assert oracles.isclose(acc, alphas[l], 1e-10)


class TestDownsampledDualBank:
    def test_r2_duals_feed_a_perfect_bank(self):
        # polyphase-split pair: g1 = 1, g2(w) = e^{2 pi i w} with r = 2 has a
        # monomial determinant, so the computed reconstruction coefficients
        # are single taps and the induced bank reconstructs exactly
        seqs = [oracles.delta(0), oracles.delta(1)]
        field = build_spectral_field(seqs, 2, 256)
        dual = dual_field(field)
        gammas = reconstruction_coefficients(dual, 5)
        assert oracles.isclose(gammas[0][0], oracles.delta(0), 1e-12)
        assert oracles.isclose(gammas[1][0], oracles.delta(1), 1e-12)
        bank = FilterBank(
            analysis=[oracles.conj_reversed(s) for s in seqs],
            synthesis=[g[0] for g in gammas],
            r=2,
        )
        report = perfect_reconstruction_check(bank, 128)
        assert report.passed
        assert report.roundtrip_error <= 1e-12


class TestMultiGeneratorReduction:
    def test_single_generator_path_identical(self):
        rng = np.random.default_rng(7)
        seqs = [rand_seq(rng) for _ in range(3)]
        flat = build_spectral_field(seqs, 2, 128)
        nested = build_spectral_field([[s] for s in seqs], 2, 128)
        assert np.array_equal(flat.values, nested.values)
        d1 = dual_field(flat)
        d2 = dual_field(nested)
        assert np.array_equal(d1.h_values, d2.h_values)
