import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitsamp.cyclic import (SamplingScheme, build_sample_matrix, structurize_left_inverse,
                              take_samples)
from orbitsamp.duals import (DualFamily, family_member, frame_bounds, scale_exponent,
                             shifted_columns)
from orbitsamp.hilbert import DimensionMismatch
from orbitsamp.lca import (FiniteAbelianGroup, Subgroup, build_group_G_matrix, group_duals,
                           take_group_samples)
from orbitsamp.spectral import FiniteSequence, build_spectral_field, dual_field, frame_constants
import oracles
from instances import CyclicInstanceConfig, random_cyclic_instance, representation_from_characters


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_field(rng, s, r, L, Q):
    seqs = [
        [FiniteSequence(int(rng.integers(-3, 3)), crandn(rng, int(rng.integers(1, 6))))
         for _ in range(L)]
        for _ in range(s)
    ]
    return build_spectral_field(seqs, r, Q)


class TestDualFamily:
    def test_single_matrix_matches_numpy(self):
        rng = np.random.default_rng(0)
        A = crandn(rng, 7, 4)
        U = crandn(rng, 4, 7)
        family = DualFamily(A)
        assert np.allclose(family.singular_values, np.linalg.svd(A, compute_uv=False))
        pinv = np.linalg.pinv(A)
        assert np.max(np.abs(family.pinv - pinv)) <= 1e-12
        member = family_member(A, family.pinv, U)
        assert np.max(np.abs(member - (pinv + U @ (np.eye(7) - A @ pinv)))) <= 1e-12
        assert np.max(np.abs(member @ A - np.eye(4))) <= 1e-12

    def test_wide_matrix_and_dropped_singular_values(self):
        # a rank-one wide matrix: pinv keeps one singular value, as numpy's does
        A = np.outer([1.0, 2.0], [1.0, 0.0, 1.0]).astype(complex)
        assert np.max(np.abs(DualFamily(A).pinv - np.linalg.pinv(A))) <= 1e-15

    def test_wrong_shape_member_rejected(self):
        family = DualFamily(np.eye(3, 2))
        with pytest.raises(DimensionMismatch):
            family_member(family.matrices, family.pinv, np.zeros((3, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        points=st.integers(1, 4),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
    )
    def test_record_of_one_svd(self, seed, points, rows, cols, scale):
        # tall and wide stacks, two scales beyond 2**±200 among them, where the
        # SVD is of A 2**exponent: the factors rebuild it, pinv is numpy's, and
        # the Gram eigenvalues descend, a wide stack's trailing ones zero
        rng = np.random.default_rng(seed)
        A = scale * crandn(rng, points, rows, cols)
        exponent = scale_exponent(A)
        family = DualFamily(A, exponent)
        sv = family.singular_values
        assume(sv[:, -1].min() > 1e-3 * sv[:, 0].max())
        B = A * 2.0**exponent
        rebuilt = (family.u * sv[:, None, :]) @ family.vh
        assert np.max(np.abs(rebuilt - B)) <= 1e-13 * np.max(np.abs(B))
        pinv = np.linalg.pinv(A)
        assert np.max(np.abs(family.pinv - pinv)) <= 1e-12 * np.max(np.abs(pinv))
        eigs = family.gram_eigenvalues
        assert eigs.shape == (points, cols)
        assert np.all(eigs[:, rows:] == 0)
        want = np.linalg.eigvalsh(np.conj(np.swapaxes(B, 1, 2)) @ B)[:, ::-1]
        assert np.max(np.abs(eigs - want)) <= 1e-12 * np.max(want)


def test_scale_exponent():
    assert scale_exponent(np.zeros((2, 3), dtype=complex)) == 0
    assert scale_exponent([1e60, -1j]) == scale_exponent([[1e-60j]]) == 0  # within 2**±200
    for peak in (1e-200, 1e160, 5e-324, 1.7e308):
        # the largest |entry| is imaginary and in a strided view
        A = np.array([[peak / 3, 0], [-1j * peak, 7]])[:, 0]
        k = scale_exponent(A)
        assert 0.5 <= peak * 2.0**k < 1 or abs(k) == 1022  # clamped: 2.0**k stays normal


class TestSpectralDuals:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(1, 3),
        L=st.integers(1, 2),
        extra=st.integers(0, 2),
        per_point=st.booleans(),
    )
    def test_dual_field_matches_numpy_pinv(self, seed, r, L, extra, per_point):
        rng = np.random.default_rng(seed)
        s = r * L + extra
        field = random_field(rng, s, r, L, 64 * r)
        sv = np.linalg.svd(field.values, compute_uv=False)
        assume(sv[:, -1].min() > 1e-3 * sv[:, 0].max())
        pinv = np.linalg.pinv(field.values)
        shape = (len(field.values), r * L, s) if per_point else (r * L, s)
        U = 0.1 * crandn(rng, *shape)
        assert np.max(np.abs(dual_field(field).h_values - pinv)) <= 1e-12
        want = pinv + U @ (np.eye(s) - field.values @ pinv)
        assert np.max(np.abs(dual_field(field, U=U).h_values - want)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(1, 3),
        L=st.integers(1, 2),
        s=st.integers(1, 5),
    )
    def test_bounds_from_singular_values_match_gram_eigenvalues(self, seed, r, L, s):
        # s < r*L included: the wide matrices' missing eigenvalues are zero
        rng = np.random.default_rng(seed)
        field = random_field(rng, s, r, L, 64 * r)
        gram = frame_constants(field)
        fc = frame_bounds(DualFamily(field.values).gram_eigenvalues)
        assert abs(fc.alpha_G - gram.alpha_G) <= 1e-12 * gram.beta_G
        assert abs(fc.beta_G - gram.beta_G) <= 1e-12 * gram.beta_G


GROUP_CASES = [
    ((6,), [(1,)], [(2,)]),
    ((6,), [(1,)], [(3,)]),
    ((2, 4), [(1, 0), (0, 1)], [(0, 2)]),
    ((4, 6), [(2, 0), (1, 3)], [(2, 0)]),
    ((4, 4), [(1, 0), (0, 1)], [(2, 0), (0, 2)]),
]


def orbit_design(rng, model):
    """The samplers of a recoverable cyclic or lca instance, and the function that
    takes samplers to the instance sampled by them: its ``OrbitDual``, and the
    function that takes an ambient vector to its samples."""
    if model == "cyclic":
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(max_dim=16, distortion=0.2))
        spec, r = inst.spec, inst.scheme.r

        def design(samplers):
            scheme = SamplingScheme.for_spec(spec, samplers, r)
            return (structurize_left_inverse(build_sample_matrix(spec, scheme)),
                    lambda x: take_samples(spec, scheme, x))

        return inst.scheme.samplers, design
    moduli, H_gens, M_gens = GROUP_CASES[rng.integers(len(GROUP_CASES))]
    group = FiniteAbelianGroup(moduli)
    H, M = Subgroup(group, H_gens), Subgroup(group, M_gens)
    rep, a = representation_from_characters(rng, H, distortion=0.2)
    samplers = list(crandn(rng, H.order // M.order + int(rng.integers(2)), rep.dim))
    assume(build_group_G_matrix(rep, a, samplers, H, M).frame.sigma_ratio > 1e-3)

    def design(samplers):
        spectrum = build_group_G_matrix(rep, a, samplers, H, M)
        return group_duals(spectrum), lambda x: take_group_samples(spectrum, x)

    return samplers, design


def orbit_instance(rng, model):
    """An ``OrbitDual`` from the cyclic or lca instance builders, and the
    function that takes an ambient vector to its samples."""
    samplers, design = orbit_design(rng, model)
    return design(samplers)


class TestOrbitDual:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9),
           s=st.integers(1, 4), m=st.integers(1, 6))
    def test_gather_matches_two_loops(self, seed, rows, cols, s, m):
        # any table, not only a group's: the gather is bit for bit the two loops
        rng = np.random.default_rng(seed)
        first = crandn(rng, cols, s)
        shifts = rng.integers(0, cols, size=(rows, m))
        got, want = shifted_columns(first, shifts), oracles.shifted_columns(first, shifts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["cyclic", "lca"]))
    def test_reconstructs_the_orbit_element(self, seed, model):
        # the samples of O alpha give back (O alpha, alpha), and column (j, 0)
        # of the coefficient map is column j of ``first`` itself
        rng = np.random.default_rng(seed)
        dual, sample = orbit_instance(rng, model)
        orbit, first = dual.orbit, dual.first
        alpha = crandn(rng, orbit.shape[1])
        x = orbit @ alpha
        got_x, got_alpha = dual.reconstruct(sample(x))
        assert np.linalg.norm(got_x - x) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(got_alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)
        m = dual.shifts.shape[1]
        assert np.array_equal(dual.coefficients[:, ::m], first)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["cyclic", "lca"]))
    def test_sampler_order_permutes_the_duals(self, seed, model):
        # the dual vector of sampler j stays the dual vector of sampler j, wherever it is listed
        rng = np.random.default_rng(seed)
        samplers, design = orbit_design(rng, model)
        perm = rng.permutation(len(samplers))
        want = design(samplers)[0].vectors[perm]
        got = design([samplers[k] for k in perm])[0].vectors
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("model", ["cyclic", "lca"])
    def test_keeps_nothing_of_its_design(self, model):
        # the dual holds its orbit and shift table, not the SampleMatrix or GroupSpectrum
        rng = np.random.default_rng(3)
        if model == "cyclic":
            inst = random_cyclic_instance(rng, CyclicInstanceConfig(max_dim=16, distortion=0.2))
            design = inst.sample_matrix
            del inst
            dual = structurize_left_inverse(design)
        else:
            group = FiniteAbelianGroup((4, 4))
            H, M = Subgroup(group, [(1, 0), (0, 1)]), Subgroup(group, [(2, 0), (0, 2)])
            rep, a = representation_from_characters(rng, H)
            design = build_group_G_matrix(rep, a, list(crandn(rng, 4, rep.dim)), H, M)
            dual = group_duals(design)
        y = crandn(rng, dual.coefficients.shape[1])
        assert np.isfinite(dual.vectors).all()
        x = dual.reconstruct(y)[0]
        ref = weakref.ref(design)
        del design
        gc.collect()
        assert ref() is None
        assert dual.reconstruct(y)[0].tobytes() == x.tobytes()

    def test_sample_count_checked(self):
        dual, _ = orbit_instance(np.random.default_rng(0), "cyclic")
        count = dual.coefficients.shape[1]
        with pytest.raises(DimensionMismatch, match=f"sample count {count - 1} does not match"):
            dual.reconstruct(np.zeros(count - 1))
