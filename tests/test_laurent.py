from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitsamp.laurent import (
    CoprimalityError,
    LaurentPoly,
    SymmetryError,
    bezout,
    bspline,
    eval_torus,
    polyphase_sample,
    positivity_certificate,
)

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def laurent_polys(max_len=5):
    return st.builds(
        LaurentPoly,
        st.integers(-4, 4),
        st.lists(small_fractions, min_size=0, max_size=max_len),
    )


class TestLaurentPoly:
    def test_normalization_trims_zeros(self):
        p = LaurentPoly(-2, [0, 1, 2, 0])
        assert p.min_deg == -1
        assert p.coeffs == (1, 2)

    def test_zero_canonical(self):
        assert LaurentPoly(5, [0, 0]) == LaurentPoly.zero()
        assert LaurentPoly.zero().is_zero

    def test_from_terms(self):
        p = LaurentPoly.from_terms({-1: 4, 0: 19, 1: 4})
        assert p == LaurentPoly(-1, [4, 19, 4])

    def test_rendering(self):
        p = LaurentPoly(-1, [4, 19, 4])
        assert str(p) == "4*z^-1 + 19 + 4*z"
        q = LaurentPoly(1, [Fraction(-38, 243), Fraction(-5, 486)])
        assert str(q) == "-38/243*z - 5/486*z^2"
        assert str(LaurentPoly(-1, [10, 16, 1])) == "10*z^-1 + 16 + z"
        assert str(LaurentPoly.zero()) == "0"

    def test_shift_is_unit(self):
        p = LaurentPoly(-1, [4, 19, 4])
        assert p.shifted(3).shifted(-3) == p


class TestBSpline:
    def test_order_one(self):
        m = bspline(3, 1)
        assert m == LaurentPoly(-1, [1, 1, 1])

    def test_order_two_by_convolution_oracle(self):
        m = bspline(3, 2)
        oracle = np.convolve([1, 1, 1], [1, 1, 1])
        assert m.coeffs == tuple(oracle)
        assert m == LaurentPoly(-2, [1, 2, 3, 2, 1])

    def test_cubic(self):
        m = bspline(3, 4)
        assert m == LaurentPoly(-4, [1, 4, 10, 16, 19, 16, 10, 4, 1])

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            bspline(4, 2)

    @settings(max_examples=20, deadline=None)
    @given(K=st.sampled_from([1, 3, 5, 7]), p=st.integers(1, 4))
    def test_symmetry_and_support(self, K, p):
        m = bspline(K, p)
        radius = p * (K - 1) // 2
        assert (m.min_deg, m.max_deg) == (-radius, radius)
        assert m.has_exact_coeffs()
        for n in m.exponents():
            assert m.coeff(n) == m.coeff(-n)
            assert m.coeff(n) > 0
        assert m.coeff(radius + 1) == 0
        assert m.coeff(-radius - 1) == 0


class TestPolyphaseSample:
    def test_cubic_components(self):
        m = bspline(3, 4)
        assert polyphase_sample(m, 3, 0) == LaurentPoly(-1, [4, 19, 4])
        assert polyphase_sample(m, 3, 1) == LaurentPoly(-1, [10, 16, 1])

    def test_order_one_component(self):
        m = bspline(3, 1)
        assert polyphase_sample(m, 3, 0) == LaurentPoly.one()

    def test_index_out_of_range(self):
        m = bspline(3, 1)
        with pytest.raises(ValueError):
            polyphase_sample(m, 3, 3)

    def test_components_reassemble(self):
        # stride decimation partitions the support
        m = bspline(5, 3)
        total = sum(
            sum(polyphase_sample(m, 5, i).coeffs) for i in range(5)
        )
        assert total == sum(m.coeffs)

    def test_uncentred_polynomial_reassembles(self):
        # m(z) = sum_i z^i c_i(z^K) for any window of exponents
        m = LaurentPoly(-7, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
        for K in (1, 2, 3, 4, 13):
            parts = [polyphase_sample(m, K, i) for i in range(K)]
            back = LaurentPoly.from_terms(
                {n * K + i: c.coeff(n) for i, c in enumerate(parts) for n in c.exponents()}
            )
            assert back == m


class TestBezout:
    def test_worked_pair(self):
        g1 = LaurentPoly(-1, [4, 19, 4])
        g2 = LaurentPoly(-1, [10, 16, 1])
        h1, h2 = bezout(g1, g2)
        assert h1 == LaurentPoly(1, [Fraction(-38, 243), Fraction(-5, 486)])
        assert h2 == LaurentPoly(1, [Fraction(79, 486), Fraction(10, 243)])
        assert (g1 * h1 + g2 * h2 - 1).is_zero

    def test_unit_first_argument(self):
        h1, h2 = bezout(LaurentPoly.one(), LaurentPoly(-1, [10, 16, 1]))
        assert h1 == LaurentPoly.one()
        assert h2.is_zero

    def test_unit_second_argument(self):
        h1, h2 = bezout(LaurentPoly(-1, [10, 16, 1]), LaurentPoly.monomial(2, 4))
        assert h1.is_zero
        assert (LaurentPoly.monomial(2, 4) * h2) == LaurentPoly.one()

    def test_common_factor_reported(self):
        z_minus_1 = LaurentPoly(0, [-1, 1])
        g1 = z_minus_1 * LaurentPoly(0, [1, 1])
        g2 = z_minus_1 * LaurentPoly(0, [2, 1])
        with pytest.raises(CoprimalityError) as err:
            bezout(g1, g2)
        assert err.value.common_factor is not None
        # the reported factor divides both inputs: check it vanishes at z = 1
        assert abs(err.value.common_factor.eval(1.0)) < 1e-12

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            bezout(LaurentPoly(0, [1.5, 1.0]), LaurentPoly.one())

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        b=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        s1=st.integers(-3, 3),
        s2=st.integers(-3, 3),
    )
    def test_random_pairs_exact_identity(self, a, b, s1, s2):
        g1 = LaurentPoly(s1, a)
        g2 = LaurentPoly(s2, b)
        try:
            h1, h2 = bezout(g1, g2)
        except CoprimalityError:
            return
        assert g1 * h1 + g2 * h2 == LaurentPoly.one()
        if len(g2.coeffs) > 1:
            # degree-minimal: h1 is reduced modulo the ordinary part of g2
            u = h1.shifted(g1.min_deg)
            assert u.is_zero or (u.min_deg >= 0 and u.max_deg < g2.max_deg - g2.min_deg)


class TestEvalTorus:
    def test_constant(self):
        assert eval_torus(LaurentPoly.one(), 0.37) == 1

    def test_sign_convention(self):
        z = eval_torus(LaurentPoly.monomial(1), 0.25)
        assert abs(z - (-1j)) < 1e-14

    def test_symmetric_polynomial_is_cosine(self):
        g1 = LaurentPoly(-1, [4, 19, 4])
        w = np.linspace(0, 1, 13)
        vals = eval_torus(g1, w)
        assert np.max(np.abs(vals - (19 + 8 * np.cos(2 * np.pi * w)))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(p=laurent_polys(), q=laurent_polys(), w=st.floats(0, 1, exclude_max=True))
    def test_ring_homomorphism(self, p, q, w):
        lhs = eval_torus(p * q, w)
        rhs = eval_torus(p, w) * eval_torus(q, w)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestPositivity:
    def test_cubic_component_min(self):
        g1 = LaurentPoly(-1, [4, 19, 4])
        cert = positivity_certificate(g1, 4096)
        assert abs(cert.min_value - 11.0) < 1e-9
        assert abs(cert.argmin - 0.5) < 1e-12
        assert cert.positive

    def test_constant(self):
        cert = positivity_certificate(LaurentPoly.constant(5), 16)
        assert cert.min_value == 5
        assert cert.positive

    def test_failure_reported(self):
        p = LaurentPoly(-1, [1, 0, 1])  # z + 1/z
        cert = positivity_certificate(p, 64)
        assert abs(cert.min_value + 2.0) < 1e-12
        assert abs(cert.argmin - 0.5) < 1e-12
        assert not cert.positive

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            positivity_certificate(LaurentPoly(0, [1, 1]), 16)


@settings(max_examples=60, deadline=None)
@given(p=laurent_polys(), q=laurent_polys(), r=laurent_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly.zero() == p
    assert p * LaurentPoly.one() == p
