import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitsamp import cli, cyclic, hilbert
from orbitsamp.hilbert import DimensionMismatch, LinearOperator, cross_correlation
from oracles import gram_matrix, inner, operator_inverse


def cyclic_shift(n):
    return LinearOperator(np.roll(np.eye(n), 1, axis=0))


def random_well_conditioned(rng, n, scale=0.3):
    m = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return LinearOperator(m)


class TestLinearOperator:
    def test_rejects_singular(self):
        # construction takes any finite square matrix; T^{-1} is refused when asked for
        op = LinearOperator(np.zeros((3, 3)))
        assert np.array_equal(op.power(2), np.zeros((3, 3)))
        message = r"matrix is numerically singular \(sigma_min/sigma_max = 0\.000e\+00\)"
        with pytest.raises(ValueError, match=message):
            op.power(-1)
        with pytest.raises(ValueError, match=message):
            op.inv_matrix

    def test_construction_forms_no_inverse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inverse or SVD formed")

        for name in ("inv", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        op = LinearOperator(np.diag([1.0, 0.0]))
        assert np.array_equal(op.power(3), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="operator entries must be finite"):
            LinearOperator(np.diag([1.0, bad]))

    def test_complex_matrix_held_as_given(self):
        m = np.diag([1.0, 1j])
        assert LinearOperator(m).matrix is m
        assert np.array_equal(LinearOperator(m.real).matrix, m.real)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LinearOperator(np.ones((2, 3)))

    def test_inverse_cached(self):
        rng = np.random.default_rng(0)
        op = random_well_conditioned(rng, 4)
        assert np.max(np.abs(op.inv_matrix @ op.matrix - np.eye(4))) < 1e-10

    def test_one_name_per_tolerance(self, monkeypatch):
        # the CLI's --tol default is RANK_TOL, and the operator and the cyclic
        # structured inverse read one left-inverse bound
        args = cli._build_parser().parse_args(["analyze", "--input", "p.json"])
        assert args.tol is hilbert.RANK_TOL
        assert cyclic.LEFT_INVERSE_TOL is hilbert.LEFT_INVERSE_TOL
        op = random_well_conditioned(np.random.default_rng(0), 4)
        assert 0 < np.max(np.abs(np.linalg.inv(op.matrix) @ op.matrix - np.eye(4)))
        monkeypatch.setattr(hilbert, "LEFT_INVERSE_TOL", 0.0)
        with pytest.raises(ValueError, match="inverse verification failed"):
            op.inv_matrix

    def test_far_powers_of_permutation(self):
        # T^k of a cyclic shift is the shift by k mod n, however large k is
        op = cyclic_shift(5)
        k = 100_003
        assert np.array_equal(op.power(k), np.roll(np.eye(5), k % 5, axis=0))
        assert np.array_equal(op.power(-k), np.roll(np.eye(5), -k % 5, axis=0))


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def square_matrices(draw):
    """Matrices ``U diag(sigma) V^H`` with ``sigma_min/sigma_max`` drawn
    log-uniform in [1e-17, 1] or in the band 1e-10..1e-6 where the inverse
    residual decides, and zero and exactly singular integer matrices."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ratio", "residual band", "zero", "singular"]))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "singular":
        m = rng.integers(-3, 4, (n, n)).astype(float)
        m[-1] = m[0] if n > 1 else 0.0
        return m
    log_ratio = draw(st.floats(-17, 0) if kind == "ratio" else st.floats(-10, -6))
    sigma = np.geomspace(1.0, 10.0**log_ratio, n)
    scale = 10.0 ** draw(st.floats(-3, 3))
    return scale * (unitary(rng, n) * sigma) @ unitary(rng, n).conj().T


def outcome(build, m):
    """``("accepts", inverse)`` or the raised exception's ``(type, text)``."""
    try:
        return "accepts", build(m)
    except Exception as exc:
        return type(exc), str(exc)


class TestOperatorCertificate:
    """The inverse and its residual certify T; the SVD is only a fallback."""

    @settings(max_examples=300, deadline=None)
    @given(m=square_matrices())
    @example(m=np.zeros((3, 3)))
    @example(m=np.array([[1.0, 2.0], [2.0, 4.0]]))
    @example(m=np.diag([1.0, 1e-8]) @ np.array([[1.0, 1.0], [0.0, 1.0]]))
    def test_matches_svd_first_oracle(self, m):
        # construction accepts every finite square matrix; the inverse is
        # certified when a negative power asks for it
        op = LinearOperator(m)
        want = outcome(operator_inverse, m)
        for got in (outcome(lambda _: op.power(-1), m), outcome(lambda _: op.inv_matrix, m)):
            assert got[0] == want[0]
            if got[0] == "accepts":
                assert np.array_equal(got[1], want[1])
            else:
                assert got[1] == want[1]

    def test_overflowing_inverse_rejected(self):
        # sigma ratio 1, but the inverse of 1e-310 * I overflows to nan
        op = LinearOperator(1e-310 * np.eye(2))
        for read in (lambda: op.power(-1), lambda: op.inv_matrix):
            with pytest.raises(ValueError, match=r"inverse verification failed \(residual nan\)"):
                read()

    def test_well_conditioned_takes_no_svd(self, monkeypatch):
        rng = np.random.default_rng(7)
        m = np.eye(32) + 0.1 * rng.standard_normal((32, 32))

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.allclose(LinearOperator(m).inv_matrix @ m, np.eye(32))


class TestApplyPower:
    """``power(k) @ v`` applies ``T^k``; negative ``k`` applies powers of the inverse."""

    def test_identity_any_power(self):
        op = LinearOperator(np.eye(4))
        v = np.arange(4) + 1j
        assert np.allclose(op.power(5) @ v, v)
        assert np.array_equal(op.power(0), np.eye(4))

    def test_shift_full_cycle(self):
        op = cyclic_shift(3)
        d0 = np.eye(3)[0]
        assert np.allclose(op.power(3) @ d0, d0)
        assert np.allclose(op.power(1) @ d0, np.eye(3)[1])

    def test_negative_power_matches_solve(self):
        rng = np.random.default_rng(1)
        op = random_well_conditioned(rng, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = op.power(-2) @ v
        # oracle: solve T^2 w = v directly
        w = np.linalg.solve(op.matrix @ op.matrix, v)
        assert np.max(np.abs(got - w)) < 1e-10

    def test_dimension_mismatch(self):
        op = cyclic_shift(3)
        with pytest.raises(DimensionMismatch):
            cross_correlation(op, np.ones(4), np.ones(3), range(2))
        with pytest.raises(DimensionMismatch):
            cross_correlation(op, np.ones(3), np.ones(4), range(2))


class TestCrossCorrelation:
    """``cross_correlation`` returns ``<T^k a, b>`` for each ``k`` of the range, in order."""

    def test_orthonormal_shift_orbit(self):
        op = cyclic_shift(3)
        d0 = np.eye(3)[0]
        cc = cross_correlation(op, d0, d0, range(-3, 7))
        assert cc.shape == (10,)
        for k in range(-3, 7):
            expected = 1.0 if k % 3 == 0 else 0.0
            assert abs(cc[k + 3] - expected) < 1e-12

    def test_shifted_sampler(self):
        op = cyclic_shift(4)
        e = np.eye(4)
        cc = cross_correlation(op, e[0], e[1], range(0, 8))
        for k in range(8):
            assert abs(cc[k] - (1.0 if k % 4 == 1 else 0.0)) < 1e-12

    def test_matches_double_application(self):
        rng = np.random.default_rng(2)
        op = random_well_conditioned(rng, 3)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cc = cross_correlation(op, a, b, range(0, 3))
        oracle = inner(op.matrix @ (op.matrix @ a), b)
        assert abs(cc[2] - oracle) < 1e-12


class TestGramMatrix:
    def test_orthonormal_basis(self):
        assert np.allclose(gram_matrix(list(np.eye(3))), np.eye(3))

    def test_repeated_vector_singular(self):
        d0 = np.eye(2)[0]
        g = gram_matrix([d0, d0])
        assert np.allclose(g, np.ones((2, 2)))
        assert abs(np.linalg.det(g)) < 1e-14

    def test_rank_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        op = random_well_conditioned(rng, 4)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        orbit = [op.power(k) @ a for k in range(4)]
        g = gram_matrix(orbit)
        sv = np.linalg.svd(np.column_stack(orbit), compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        eig = np.linalg.eigvalsh(g)
        gram_rank = int(np.sum(eig > 1e-20 * eig[-1]))
        assert gram_rank == rank

    def test_convention_conjugate_linear_second(self):
        v = np.array([1.0 + 1j, 0])
        w = np.array([2.0, 0])
        g = gram_matrix([v, w])
        # entry (0, 1) = <w, v>
        assert g[0, 1] == inner(w, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 5))
def test_adjoint_consistency(seed, dim):
    # <T^k v, w> = <v, (T^H)^k w>: the correlations of T and of its adjoint agree
    rng = np.random.default_rng(seed)
    op = random_well_conditioned(rng, dim)
    adjoint = LinearOperator(op.matrix.conj().T)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lhs = cross_correlation(op, v, w, range(-1, 3))
    rhs = np.conj(cross_correlation(adjoint, w, v, range(-1, 3)))
    scale = np.linalg.norm(v) * np.linalg.norm(w) * max(
        np.linalg.norm(op.matrix, 2), np.linalg.norm(op.inv_matrix, 2)
    ) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k1=st.integers(-8, 8),
    k2=st.integers(-8, 8),
)
def test_power_group_law(seed, k1, k2):
    rng = np.random.default_rng(seed)
    op = random_well_conditioned(rng, 3, scale=0.2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = op.power(k1) @ (op.power(k2) @ v)
    rhs = op.power(k1 + k2) @ v
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.linalg.norm(rhs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_periodicity_detection(seed, n):
    # T^n a = a forces an n-periodic correlation sequence
    rng = np.random.default_rng(seed)
    op = cyclic_shift(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cc = cross_correlation(op, a, b, range(0, 2 * n))
    assert np.max(np.abs(cc[:n] - cc[n:])) < 1e-10
