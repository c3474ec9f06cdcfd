import functools
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbitsamp import cyclic
from orbitsamp.cyclic import (
    CyclicSubspaceSpec,
    RankDeficiencyError,
    LeftInverseError,
    SamplingScheme,
    build_sample_matrix,
    check_rank,
    filter_bank_coefficients,
    reconstruct,
    reconstruction_vectors,
    structurize_left_inverse,
    take_samples,
)
from orbitsamp.duals import FrameError
from orbitsamp.hilbert import LinearOperator
from orbitsamp.spectral import MAX_GRID_ENTRIES
from instances import (
    CyclicInstanceConfig,
    block_permutation,
    operator_with_orders,
    random_cyclic_instance,
)
from oracles import (
    horner_reconstruct,
    inner,
    is_r_circulant,
    project_onto_subspace,
    sample_matrix,
)


def shift_spec(n):
    op = LinearOperator(np.roll(np.eye(n), 1, axis=0))
    return CyclicSubspaceSpec(operator=op, generators=[np.eye(n)[0]], orders=[n])


def periodic_convolution(R, hs, samples):
    """Independent path: ``alpha_l(m) = sum_{j,n} samples(j, n) beta_j^l(m - r*n)``."""
    offs = R.offsets
    out = []
    for l, Nl in enumerate(R.orders):
        alpha = np.zeros(Nl, dtype=complex)
        for j in range(R.s):
            beta = hs.first[:, j][offs[l] : offs[l + 1]]
            for n in range(R.ell):
                alpha += samples[j * R.ell + n] * np.roll(beta, (R.r * n) % Nl)
        out.append(alpha)
    return np.concatenate(out)


class TestOrbitCertificate:
    """A full-rank ``R`` certifies the orbit; otherwise the orbit is decomposed."""

    def instance(self, rng, orders, s):
        dim = 2 * sum(orders)
        op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
        samplers = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)]
        return op, gens, samplers

    def test_full_rank_R_takes_no_orbit_svd(self, monkeypatch):
        op, gens, samplers = self.instance(np.random.default_rng(1), [6, 4], 4)
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[6, 4])
        scheme = SamplingScheme.for_spec(spec, samplers, 2)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        R = build_sample_matrix(spec, scheme)
        assert check_rank(R).full_rank and (20, 10) not in shapes

    def test_dependent_orbit_raises_from_sample_matrix(self):
        op, gens, samplers = self.instance(np.random.default_rng(2), [4], 4)
        spec = CyclicSubspaceSpec(operator=op, generators=[gens[0]] * 2, orders=[4, 4])
        scheme = SamplingScheme.for_spec(spec, samplers, 2)
        with pytest.raises(RankDeficiencyError, match="orbit vectors are linearly dependent"):
            build_sample_matrix(spec, scheme)

    def test_independent_orbit_with_deficient_R_is_returned(self):
        # one sampler read every 2 steps: R is 2 x 4, rank 2
        spec = shift_spec(4)
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, [np.eye(4)[0]], 2))
        assert check_rank(R).rank == 2

    def test_more_orbit_vectors_than_dimension_rejected(self):
        # a declared period of 8 for a period-4 orbit in C^4; no orbit is formed
        op = LinearOperator(np.roll(np.eye(4), 1, axis=0))
        with pytest.raises(RankDeficiencyError, match="8 of them in dimension 4"):
            CyclicSubspaceSpec(operator=op, generators=[np.eye(4)[0]], orders=[8])
        with pytest.raises(RankDeficiencyError, match="1000000000 of them in dimension 4"):
            CyclicSubspaceSpec(operator=op, generators=[np.eye(4)[0]], orders=[10**9])


class TestBuildSampleMatrix:
    def test_undersampled_shift(self):
        # s = 1 < r = 2 cannot reach full rank
        spec = shift_spec(4)
        scheme = SamplingScheme.for_spec(spec, [np.eye(4)[0]], 2)
        R = build_sample_matrix(spec, scheme)
        expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex)
        assert np.allclose(R.matrix, expected)
        assert not check_rank(R).full_rank
        assert check_rank(R).rank == 2

    def test_two_sampler_permutation(self):
        spec = shift_spec(4)
        e = np.eye(4)
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        R = build_sample_matrix(spec, scheme)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 2] = expected[2, 1] = expected[3, 3] = 1
        assert np.allclose(R.matrix, expected)
        assert check_rank(R).full_rank

    def test_orthonormal_orbit_identity(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        R = build_sample_matrix(spec, scheme)
        assert np.allclose(R.matrix, np.eye(5))

    @pytest.mark.parametrize(
        "seed, orders, r",
        [
            (0, None, None),
            (1, None, None),
            (2, None, None),
            # multi-generator, r not dividing every N_l (and r > N_l)
            (3, [6, 4], 3),
            (4, [6, 4, 3], 2),
            (5, [8, 2], 4),
        ],
        ids=["0", "1", "2", "orders6,4-r3", "orders6,4,3-r2", "orders8,2-r4"],
    )
    def test_matches_inner_product_oracle(self, seed, orders, r):
        rng = np.random.default_rng(seed)
        if orders is None:
            inst = random_cyclic_instance(
                rng, CyclicInstanceConfig(max_dim=14, distortion=0.2)
            )
            spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        else:
            dim = sum(orders) + 2
            op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
            spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=orders)
            samplers = [
                rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                for _ in range(3)
            ]
            scheme = SamplingScheme.for_spec(spec, samplers, r)
            R = build_sample_matrix(spec, scheme)
        oracle = sample_matrix(spec, scheme)
        assert np.max(np.abs(R.matrix - oracle)) < 1e-9

    def test_r_must_divide(self):
        spec = shift_spec(4)
        with pytest.raises(ValueError):
            SamplingScheme.for_spec(spec, [np.eye(4)[0]], 3)

    def test_sample_matrix_beyond_budget_refused(self):
        # ell = lcm(13, ..., 43) = 5.66e12 rows per sampler: refused before R is allocated
        orders = [13, 17, 19, 23, 29, 31, 37, 41, 43]
        matrix, generators = block_permutation(orders)
        spec = CyclicSubspaceSpec(LinearOperator(matrix), generators, orders)
        entries = 2 * math.lcm(*orders) * sum(orders)
        with pytest.raises(ValueError, match=f"R would hold {entries} entries"):
            SamplingScheme.for_spec(spec, [generators[0], generators[1]], 1)

    def test_sample_matrix_budget_is_inclusive(self):
        # s * ell * sum(N_l) against MAX_GRID_ENTRIES, read from the spec's orders alone
        side = math.isqrt(MAX_GRID_ENTRIES)
        spec = types.SimpleNamespace(lcm_order=side, total_order=side,
                                     operator=types.SimpleNamespace(dim=1))
        assert SamplingScheme.for_spec(spec, [[1.0]], 1).ell == side
        with pytest.raises(ValueError, match="R would hold"):
            SamplingScheme.for_spec(spec, [[1.0], [1.0]], 1)


class TestTakeSamples:
    def test_generator_sample(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        samples = take_samples(spec, scheme, spec.generators[0])
        expected = np.zeros(5)
        expected[0] = 1
        assert np.allclose(samples, expected)

    def test_shifted_generator_sample(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        a = spec.generators[0]
        x = spec.operator.matrix @ a
        samples = take_samples(spec, scheme, x)
        R = build_sample_matrix(spec, scheme)
        alpha = np.zeros(5)
        alpha[1] = 1
        assert np.allclose(samples, R.matrix @ alpha)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_equals_matrix_action(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(distortion=0.2))
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        alpha = rng.standard_normal(spec.total_order) + 1j * rng.standard_normal(
            spec.total_order
        )
        x = spec.synthesize(alpha)
        samples = take_samples(spec, scheme, x)
        assert np.max(np.abs(samples - R.matrix @ alpha)) < 1e-10 * np.linalg.norm(alpha)

    def test_sampler_rows_formed_once(self, monkeypatch):
        # S^H is formed on the scheme's first read and kept; the samples are those
        # of the conjugated samplers formed afresh on every call
        rng = np.random.default_rng(20)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(distortion=0.2))
        spec = inst.spec
        formed, adjoint = [], SamplingScheme.adjoint.func
        counted = functools.cached_property(lambda self: formed.append(1) or adjoint(self))
        counted.__set_name__(SamplingScheme, "adjoint")
        monkeypatch.setattr(SamplingScheme, "adjoint", counted)
        scheme = SamplingScheme.for_spec(spec, inst.scheme.samplers, inst.scheme.r)
        build_sample_matrix(spec, scheme)
        step = spec.operator.power(-scheme.r)
        for _ in range(3):
            x = rng.standard_normal(spec.operator.dim) + 1j * rng.standard_normal(spec.operator.dim)
            expected, z = [], x
            for _ in range(scheme.ell):
                expected.append(np.array(scheme.samplers).conj() @ z)
                z = step @ z
            assert np.array_equal(take_samples(spec, scheme, x), np.column_stack(expected).ravel())
        assert formed == [1]


class TestCheckRank:
    def test_permutation_singular_values(self):
        spec = shift_spec(4)
        e = np.eye(4)
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        report = check_rank(build_sample_matrix(spec, scheme))
        assert report.full_rank
        assert np.allclose(report.singular_values, 1.0)

    def test_frame_bound_sandwich(self):
        rng = np.random.default_rng(6)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig())
        R = inst.sample_matrix
        sv = check_rank(R).singular_values
        lo, hi = sv[-1] ** 2, sv[0] ** 2
        for _ in range(200):
            alpha = rng.standard_normal(R.cols) + 1j * rng.standard_normal(R.cols)
            q = np.linalg.norm(R.matrix @ alpha) ** 2 / np.linalg.norm(alpha) ** 2
            assert lo - 1e-9 <= q <= hi + 1e-9


class TestStructurizeLeftInverse:
    def test_identity_matrix(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        R = build_sample_matrix(spec, scheme)
        hs = structurize_left_inverse(R)
        assert np.allclose(hs.coefficients, np.eye(5))

    def test_square_equals_inverse(self):
        spec = shift_spec(4)
        e = np.eye(4)
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        R = build_sample_matrix(spec, scheme)
        hs = structurize_left_inverse(R)
        assert np.max(np.abs(hs.coefficients - np.linalg.inv(R.matrix))) < 1e-12

    def test_oversampled_single_generator(self):
        # N=12, r=3, s=5, ell=4: residual and exact column structure
        rng = np.random.default_rng(7)
        op, gens = operator_with_orders(rng, 12, [12])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[12])
        samplers = [
            rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(5)
        ]
        scheme = SamplingScheme.for_spec(spec, samplers, 3)
        R = build_sample_matrix(spec, scheme)
        hs = structurize_left_inverse(R)
        assert hs.certified_residual <= 1e-10
        assert np.max(np.abs(hs.coefficients @ R.matrix - np.eye(R.cols))) <= 1e-10
        offs = R.offsets
        for j in range(R.s):
            base = hs.first[:, j]
            for n in range(R.ell):
                col = hs.coefficients[:, j * R.ell + n]
                for l, Nl in enumerate(R.orders):
                    seg = np.roll(base[offs[l] : offs[l + 1]], (R.r * n) % Nl)
                    assert np.array_equal(col[offs[l] : offs[l + 1]], seg)

    def test_moore_penrose_axioms(self):
        rng = np.random.default_rng(8)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig())
        Rm = inst.sample_matrix.matrix
        pinv = np.linalg.pinv(Rm)
        assert np.max(np.abs(Rm @ pinv @ Rm - Rm)) < 1e-10
        assert np.max(np.abs(pinv @ Rm @ pinv - pinv)) < 1e-10

    def test_bad_seed_rejected(self):
        # U (I - R pinv) is rounding; times 1e20 it is no longer a left inverse
        rng = np.random.default_rng(11)
        op, gens = operator_with_orders(rng, 12, [12])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[12])
        samplers = [rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(5)]
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, samplers, 3))
        with pytest.raises(LeftInverseError, match="seed is not a left inverse"):
            structurize_left_inverse(R, U=1e20 * np.ones((12, 20)))

    def test_rank_deficient_rejected(self):
        spec = shift_spec(4)
        scheme = SamplingScheme.for_spec(spec, [np.eye(4)[0]], 2)
        R = build_sample_matrix(spec, scheme)
        with pytest.raises(RankDeficiencyError):
            structurize_left_inverse(R)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), square=st.booleans(),
           exponent=st.floats(-12, 2), at_ratio=st.booleans())
    def test_one_rank_gate(self, seed, square, exponent, at_ratio):
        # the inverse refuses at its tol exactly when check_rank does, in check_rank's
        # counts; tol runs log-uniformly across sigma_min/sigma_max (>= 1e-3 > RANK_TOL)
        config = CyclicInstanceConfig(max_dim=12, square=square, distortion=0.2)
        R = random_cyclic_instance(np.random.default_rng(seed), config).sample_matrix
        sv = check_rank(R).singular_values
        tol = sv[-1] / sv[0] * (1.0 if at_ratio else 10.0**exponent)
        report = check_rank(R, tol)
        try:
            structurize_left_inverse(R, tol=tol)
        except RankDeficiencyError as exc:
            assert isinstance(exc, FrameError) and not report.full_rank
            assert str(exc) == f"not recoverable: rank {report.rank}/{report.cols}"
        else:
            assert report.full_rank

    def test_u_family_member_still_left_inverse(self):
        rng = np.random.default_rng(9)
        op, gens = operator_with_orders(rng, 12, [12])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[12])
        samplers = [
            rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(5)
        ]
        scheme = SamplingScheme.for_spec(spec, samplers, 3)
        R = build_sample_matrix(spec, scheme)
        U = 0.1 * (rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20)))
        hs = structurize_left_inverse(R, U=U)
        assert np.max(np.abs(hs.coefficients @ R.matrix - np.eye(R.cols))) <= 1e-10


    def test_default_seed_matches_numpy_pinv(self):
        # the seed comes from the rank test's own SVD; numpy's pinv is the reference.
        # Any left inverse H is the family member with U = H, so the member
        # formed from numpy's pinv is restructured alike as U = that member
        rng = np.random.default_rng(10)
        op, gens = operator_with_orders(rng, 12, [12])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[12])
        samplers = [
            rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(5)
        ]
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, samplers, 3))
        U = 0.1 * (rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20)))
        pinv = np.linalg.pinv(R.matrix)
        got = structurize_left_inverse(R).coefficients
        assert np.max(np.abs(got - pinv)) <= 1e-12 * np.max(np.abs(pinv))
        seed = pinv + U @ (np.eye(20) - R.matrix @ pinv)
        got = structurize_left_inverse(R, U=U).coefficients
        want = structurize_left_inverse(R, U=seed).coefficients
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def block_cases(draw):
    """Orders with lcm at most 24, any divisor ``r`` of it and ``s`` from 1 to 6."""
    orders = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda o: math.lcm(*o) <= 24
        )
    )
    r = draw(st.sampled_from(divisors(math.lcm(*orders))))
    return orders, r, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


class TestDFTBlocks:
    """The block path against a dense SVD and ``np.linalg.pinv`` of ``R``."""

    @settings(max_examples=80, deadline=None)
    @given(case=block_cases())
    @example(case=([12, 8], 1, 2, 0))  # ell = 24: empty blocks, blocks wider than s
    @example(case=([12, 8], 4, 4, 1))  # ell = 6, R 24 x 20
    @example(case=([12, 8], 24, 5, 2))  # ell = 1: one block, R wide
    @example(case=([12, 8], 2, 2, 3))  # ell = 12, R 24 x 20 with s = r
    @example(case=([12, 8], 12, 10, 5))  # square R, 20 x 20
    @example(case=([4, 2], 2, 3, 6))  # structurally deficient
    @example(case=([6, 4, 3], 2, 4, 7))  # three generators, r dividing only two
    def test_matches_dense(self, case):
        orders, r, s, seed = case
        rng = np.random.default_rng(seed)
        dim = sum(orders) + 2
        op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=orders)
        samplers = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)]
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, samplers, r))
        dense = np.linalg.svd(R.matrix, compute_uv=False)
        report = check_rank(R)
        assert report.singular_values.shape == dense.shape
        assert np.max(np.abs(report.singular_values - dense)) <= 1e-12 * dense[0]
        dense_rank = int(np.sum(dense > 1e-10 * dense[0]))
        assert report.rank == dense_rank
        if dense_rank < R.cols:
            with pytest.raises(RankDeficiencyError):
                structurize_left_inverse(R)
            return
        hs = structurize_left_inverse(R)
        if dense[-1] >= 1e-6 * dense[0]:
            pinv = np.linalg.pinv(R.matrix)
            assert np.max(np.abs(hs.coefficients - pinv)) <= 1e-11 * np.max(np.abs(pinv))


class TestReconstruction:
    def test_orthonormal_case_returns_generator(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        R = build_sample_matrix(spec, scheme)
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))
        assert np.allclose(basis.vectors[0], spec.generators[0])

    def test_interpolation_property_square(self):
        rng = np.random.default_rng(10)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(square=True))
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        assert R.rows == R.cols
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))
        for j, c in enumerate(basis.vectors):
            samples = take_samples(spec, scheme, c)
            target = np.zeros(scheme.s * scheme.ell)
            target[j * scheme.ell] = 1.0
            assert np.max(np.abs(samples - target)) < 1e-10

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_cyclic_instance(
            rng, CyclicInstanceConfig(distortion=0.2 if seed % 2 else 0.0)
        )
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))
        alpha = rng.standard_normal(spec.total_order) + 1j * rng.standard_normal(
            spec.total_order
        )
        x = spec.synthesize(alpha)
        xr = reconstruct(spec, scheme, basis, take_samples(spec, scheme, x))
        assert np.linalg.norm(xr - x) <= 1e-8 * np.linalg.norm(x)

    def test_sample_length_checked(self):
        spec = shift_spec(4)
        e = np.eye(4)
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        R = build_sample_matrix(spec, scheme)
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))
        with pytest.raises(ValueError):
            reconstruct(spec, scheme, basis, np.zeros(3))


@st.composite
def orbit_problems(draw):
    """1 to 3 generators of unequal periods (lcm at most 24), any divisor ``r``
    of the lcm, at least as many samplers as the widest DFT block of ``R``
    and up to 3 ambient dimensions outside the orbit span."""
    orders = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).filter(
            lambda o: math.lcm(*o) <= 24
        )
    )
    lcm = math.lcm(*orders)
    r = draw(st.sampled_from(divisors(lcm)))
    freq = np.concatenate([np.arange(N) * (lcm // N) % (lcm // r) for N in orders])
    s = int(np.bincount(freq).max()) + draw(st.integers(0, 1))
    return orders, r, s, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


class TestOrbitSynthesis:
    """``reconstruct`` is ``O (H y)``: the Horner walk's sum, in the orbit span."""

    @settings(max_examples=60, deadline=None)
    @given(case=orbit_problems())
    @example(case=([3, 6], 2, 3, 2, 0))  # square R, 9 x 9
    @example(case=([4, 2], 2, 4, 2, 1))  # the short block wraps around
    @example(case=([12, 8], 4, 4, 0, 2))  # ell = 6, R 24 x 20, no room outside the orbit
    @example(case=([6, 4, 3], 2, 4, 3, 3))  # three generators, r dividing only two
    @example(case=([5], 5, 5, 1, 4))  # ell = 1
    def test_matches_horner_walk(self, case):
        orders, r, s, extra, seed = case
        rng = np.random.default_rng(seed)
        dim = sum(orders) + extra
        op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=orders)
        samplers = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)]
        scheme = SamplingScheme.for_spec(spec, samplers, r)
        R = build_sample_matrix(spec, scheme)
        assume(check_rank(R).full_rank)
        hs = structurize_left_inverse(R)
        basis = reconstruction_vectors(spec, hs)
        # an arbitrary ambient vector, not only a subspace element
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = take_samples(spec, scheme, x)
        got = reconstruct(spec, scheme, basis, y)
        want = horner_reconstruct(spec, scheme, basis, y)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(project_onto_subspace(spec, got) - got) <= 1e-10 * np.linalg.norm(got)
        table = np.column_stack([take_samples(spec, scheme, c) for c in basis.vectors])
        got_table = R.matrix @ hs.first
        assert np.max(np.abs(got_table - table)) <= 1e-12 * max(1.0, np.max(np.abs(table)))


def structured_oracle(H, R):
    """Column ``(j, 0)`` from rows ``p mod r`` of the seed's columns ``(j, -(p // r))``
    in each generator block, and column ``(j, n)`` that column rolled by ``r n``."""
    offs, out = R.offsets, np.empty((R.cols, R.rows), dtype=complex)
    for j in range(R.s):
        for o, Nl in zip(offs, R.orders):
            first = [H[o + p % R.r, j * R.ell + (-(p // R.r)) % R.ell] for p in range(Nl)]
            for n in range(R.ell):
                out[o : o + Nl, j * R.ell + n] = np.roll(first, R.r * n)
    return out


def dense_residual(H, R):
    return np.max(np.abs(H @ R.matrix - np.eye(R.cols)))


class TestShiftClassResidual:
    """``certified_residual``, taken on the rows ``k < gcd(N_l, r)`` of each
    generator block, is the dense ``max |H R - I|``: shifting both indices by
    ``r`` permutes the ``s*ell`` terms of an entry's sum, so the two differ by
    at most ``2 (s*ell + 1) eps max(|H| |R|)``, twice the rounding bound of a sum."""

    @settings(max_examples=80, deadline=None)
    @given(case=orbit_problems(), seeded=st.booleans())
    @example(case=([4, 6], 4, 4, 1, 0), seeded=False)  # r divides only one period
    @example(case=([2, 3], 6, 3, 1, 1), seeded=True)  # r above every period
    @example(case=([4, 2], 2, 4, 1, 0), seeded=True)  # a seed without the cyclic structure
    @example(case=([5], 5, 5, 1, 4), seeded=True)  # ell = 1
    def test_equals_dense(self, case, seeded):
        orders, r, s, extra, seed = case
        rng = np.random.default_rng(seed)
        dim = sum(orders) + extra
        op, gens = operator_with_orders(rng, dim, orders, distortion=0.2)
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=orders)
        samplers = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)]
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, samplers, r))
        assume(check_rank(R).full_rank)
        U = None
        if seeded:
            U = rng.standard_normal((R.cols, R.rows)) + 1j * rng.standard_normal((R.cols, R.rows))
            pinv = np.linalg.pinv(R.matrix)
            member = pinv + U @ (np.eye(R.rows) - R.matrix @ pinv)
            oracle = dense_residual(structured_oracle(member, R), R)
        try:
            hs = structurize_left_inverse(R, U=U)
        except LeftInverseError as exc:
            # refused by the class rows exactly when the dense check refuses
            assert seeded and oracle > 1e-6
            assert str(exc).startswith("structured inverse failed: structured columns are not "
                                       "a left inverse (residual ")
            assert str(exc).endswith("; the seed's blocks lack the cyclic structure")
            return
        H = hs.coefficients
        bound = 2 * (R.rows + 1) * np.finfo(float).eps * np.max(np.abs(H) @ np.abs(R.matrix))
        assert abs(hs.certified_residual - dense_residual(H, R)) <= bound
        assert not seeded or oracle <= 1e-8

    def test_unstructured_seed_refused(self):
        # two generators whose U-seeded member is a left inverse, but not its structured columns
        rng = np.random.default_rng(0)
        op, gens = operator_with_orders(rng, 7, [4, 2], distortion=0.2)
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[4, 2])
        samplers = [rng.standard_normal(7) + 1j * rng.standard_normal(7) for _ in range(4)]
        R = build_sample_matrix(spec, SamplingScheme.for_spec(spec, samplers, 2))
        U = rng.standard_normal((R.cols, R.rows)) + 1j * rng.standard_normal((R.cols, R.rows))
        message = (r"structured columns are not a left inverse \(residual \S+\); "
                   "the seed's blocks lack the cyclic structure")
        with pytest.raises(LeftInverseError, match=message):
            structurize_left_inverse(R, U=U)

    def test_seed_checked_on_every_row(self, monkeypatch):
        # the seeded member is not structured, so its own check reads all of H R
        spec = shift_spec(4)
        scheme = SamplingScheme.for_spec(spec, [np.eye(4)[0], np.eye(4)[1]], 2)
        R = build_sample_matrix(spec, scheme)
        rows = []
        real = cyclic._left_inverse_residual
        monkeypatch.setattr(cyclic, "_left_inverse_residual",
                            lambda H, R, r: rows.append(len(r)) or real(H, R, r))
        structurize_left_inverse(R, U=np.ones((4, 4)))
        assert rows == [4, 2]


class TestFilterBankCoefficients:
    def test_identity_case(self):
        spec = shift_spec(5)
        scheme = SamplingScheme.for_spec(spec, [np.eye(5)[0]], 1)
        R = build_sample_matrix(spec, scheme)
        hs = structurize_left_inverse(R)
        samples = np.arange(5) + 1j
        out = filter_bank_coefficients(hs, samples, spec)
        assert np.allclose(out[0], samples)

    @pytest.mark.parametrize("seed", [15, 16])
    def test_matches_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig())
        hs = structurize_left_inverse(inst.sample_matrix)
        samples = rng.standard_normal(inst.sample_matrix.rows) + 1j * rng.standard_normal(
            inst.sample_matrix.rows
        )
        out = np.concatenate(filter_bank_coefficients(hs, samples, inst.spec))
        assert np.max(np.abs(out - hs.coefficients @ samples)) < 1e-12 * max(
            1.0, np.linalg.norm(samples)
        )

    def test_mixed_orders_wraparound(self):
        # N = (4, 2), r = 2 exercises the short-block periodic wraparound;
        # s = 4 because fewer samplers cannot reach full rank here
        rng = np.random.default_rng(17)
        op, gens = operator_with_orders(rng, 8, [4, 2])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[4, 2])
        samplers = [
            rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(4)
        ]
        scheme = SamplingScheme.for_spec(spec, samplers, 2)
        R = build_sample_matrix(spec, scheme)
        assert check_rank(R).full_rank
        hs = structurize_left_inverse(R)
        samples = rng.standard_normal(R.rows) + 1j * rng.standard_normal(R.rows)
        out = np.concatenate(filter_bank_coefficients(hs, samples, spec))
        ref = periodic_convolution(R, hs, samples)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.linalg.norm(samples)

    def test_structurally_deficient_config_detected(self):
        # N = (4, 2), r = 2 with square s = 3: the short block repeats rows,
        # so rank <= 5 < 6 for every sampler choice
        rng = np.random.default_rng(18)
        op, gens = operator_with_orders(rng, 8, [4, 2])
        spec = CyclicSubspaceSpec(operator=op, generators=gens, orders=[4, 2])
        samplers = [
            rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)
        ]
        scheme = SamplingScheme.for_spec(spec, samplers, 2)
        R = build_sample_matrix(spec, scheme)
        assert check_rank(R).rank <= 5
        with pytest.raises(RankDeficiencyError):
            structurize_left_inverse(R)


class TestRCirculant:
    @pytest.mark.parametrize("seed", [19, 24, 25])
    def test_built_matrix_is_circulant(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig())
        R = inst.sample_matrix
        assert is_r_circulant(R.matrix, R.ell, R.r, col_periods=list(R.orders))

    def test_identity(self):
        assert is_r_circulant(np.eye(6), 6, 1)

    def test_random_dense_fails(self):
        rng = np.random.default_rng(20)
        C = rng.standard_normal((6, 6))
        assert not is_r_circulant(C, 3, 2)

    def test_pseudo_inverse_transpose_inherits(self):
        rng = np.random.default_rng(21)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig())
        R = inst.sample_matrix
        pt = np.linalg.pinv(R.matrix).T
        assert is_r_circulant(pt, R.ell, R.r, col_periods=list(R.orders), tol=1e-10)


class TestProjection:
    def test_member_fixed(self):
        rng = np.random.default_rng(22)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(max_dim=12))
        spec = inst.spec
        alpha = rng.standard_normal(spec.total_order)
        x = spec.synthesize(alpha)
        assert np.allclose(project_onto_subspace(spec, x), x, atol=1e-10)

    def test_orthogonal_complement_killed(self):
        # period-2 generator spans a proper sub-orbit of C^4
        op = shift_spec(4).operator
        a = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
        sub = CyclicSubspaceSpec(operator=op, generators=[a], orders=[2])
        v = np.array([1.0, 0.0, -1.0, 0.0])
        proj = project_onto_subspace(sub, v)
        assert np.linalg.norm(proj) < 1e-12

    def test_projected_analyzers_reproduce_expansion(self):
        rng = np.random.default_rng(23)
        inst = random_cyclic_instance(rng, CyclicInstanceConfig(max_dim=12))
        spec, scheme, R = inst.spec, inst.scheme, inst.sample_matrix
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))
        alpha = rng.standard_normal(spec.total_order) + 1j * rng.standard_normal(
            spec.total_order
        )
        x = spec.synthesize(alpha)
        # samples against projected analyzers coincide for subspace members
        op = spec.operator
        adj_inv = np.linalg.inv(op.matrix.conj().T)
        samples = np.empty(scheme.s * scheme.ell, dtype=complex)
        for j, b in enumerate(scheme.samplers):
            for n in range(scheme.ell):
                analyzer = np.linalg.matrix_power(adj_inv, scheme.r * n) @ b
                samples[j * scheme.ell + n] = inner(x, project_onto_subspace(spec, analyzer))
        xr = reconstruct(spec, scheme, basis, samples)
        assert np.linalg.norm(xr - x) <= 1e-8 * np.linalg.norm(x)
