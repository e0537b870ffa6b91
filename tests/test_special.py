"""Tests for the polynomial layer: recurrences, norms, orthogonality."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy import integrate, special as sp

from trapspec import DomainError
from trapspec.special import (
    hermite,
    laguerre_gen,
    laguerre_gen_derivative,
    radial_norm_3d,
)


def laguerre_series(n, alpha, x):
    """Explicit finite-series oracle: sum_k (-1)^k C(n+alpha, n-k) x^k / k!.

    Test-only reference path; summed in extended precision because the
    alternating series cancels badly at large x (the reason the production
    code uses the recurrence instead).
    """
    with mp.workdps(50):
        total = mp.mpf(0)
        a = mp.mpf(alpha)
        xx = mp.mpf(x)
        for k in range(n + 1):
            binom = mp.gamma(n + a + 1) / (mp.gamma(n - k + 1) * mp.gamma(a + k + 1))
            total += (-1) ** k * binom * xx**k / mp.factorial(k)
        return float(total)


def hermite_series(k, x):
    """Explicit series oracle for physicists' Hermite polynomials."""
    total = 0.0
    for m in range(k // 2 + 1):
        total += (
            (-1) ** m
            * math.factorial(k)
            / (math.factorial(m) * math.factorial(k - 2 * m))
            * (2 * x) ** (k - 2 * m)
        )
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_gen(0, 0.5, 3.7) == 1.0

    def test_degree_one_closed_form(self):
        # L_1^alpha(x) = 1 + alpha - x
        assert laguerre_gen(1, 0.5, 2.0) == pytest.approx(-0.5, rel=1e-14)

    def test_against_series_oracle(self):
        assert laguerre_gen(4, 1.5, 0.8) == pytest.approx(
            laguerre_series(4, 1.5, 0.8), rel=1e-12
        )

    def test_recurrence_matches_series_broadly(self):
        rng = np.random.default_rng(7)
        for n in range(16):
            for x in rng.uniform(0.0, 50.0, size=4):
                alpha = rng.uniform(-0.9, 3.0)
                got = laguerre_gen(n, alpha, float(x))
                want = laguerre_series(n, alpha, float(x))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_scipy(self):
        x = np.linspace(0.0, 30.0, 13)
        for n in (0, 1, 2, 5, 9, 12):
            for alpha in (0.5, 1.5, 2.3):
                got = laguerre_gen(n, alpha, x)
                want = sp.eval_genlaguerre(n, alpha, x)
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_vectorized_input(self):
        x = np.array([0.0, 1.0, 2.5])
        out = laguerre_gen(3, 0.5, x)
        assert out.shape == x.shape
        for xi, oi in zip(x, out):
            assert oi == pytest.approx(laguerre_gen(3, 0.5, float(xi)), rel=1e-14)

    def test_orthogonality_quadrature(self):
        # integral_0^inf x^alpha e^-x L_n L_m dx = 0 for n != m.
        for alpha in (0.5, 1.5, 2.3):
            for n in range(0, 13, 3):
                for m in range(n + 1, 13, 4):
                    val, _ = integrate.quad(
                        lambda x: x**alpha
                        * math.exp(-x)
                        * laguerre_gen(n, alpha, x)
                        * laguerre_gen(m, alpha, x),
                        0.0,
                        np.inf,
                        limit=200,
                    )
                    assert abs(val) < 1e-10

    def test_weighted_norm_closed_form(self):
        # integral of the squared polynomial against the weight equals
        # Gamma(n+alpha+1)/n!.
        for n, alpha in ((2, 0.5), (5, 1.5), (8, 2.3)):
            val, _ = integrate.quad(
                lambda x: x**alpha * math.exp(-x) * laguerre_gen(n, alpha, x) ** 2,
                0.0,
                np.inf,
                limit=200,
            )
            want = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(n + 1))
            assert val == pytest.approx(want, rel=1e-10)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            laguerre_gen(-1, 0.5, 1.0)

    def test_alpha_at_or_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            laguerre_gen(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_gen(2, -1.7, 1.0)


class TestLaguerreDerivative:
    def test_identity_against_lower_order(self):
        # d/dx L_n^alpha = -L_{n-1}^{alpha+1}
        x = np.linspace(0.1, 20.0, 9)
        for n in (1, 3, 7):
            got = laguerre_gen_derivative(n, 0.8, x)
            want = -laguerre_gen(n - 1, 1.8, x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_degree_zero_derivative_vanishes(self):
        assert laguerre_gen_derivative(0, 1.5, 4.2) == 0.0

    def test_finite_difference(self):
        h = 1e-6
        for n, alpha, x in ((4, 0.5, 2.0), (6, 2.3, 7.5)):
            fd = (laguerre_gen(n, alpha, x + h) - laguerre_gen(n, alpha, x - h)) / (
                2 * h
            )
            assert laguerre_gen_derivative(n, alpha, x) == pytest.approx(fd, rel=1e-8)


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 1.9) == 1.0

    def test_degree_one_closed_form(self):
        assert hermite(1, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_against_series_oracle(self):
        assert hermite(5, 1.3) == pytest.approx(hermite_series(5, 1.3), rel=1e-12)

    def test_matches_scipy(self):
        x = np.linspace(-4.0, 4.0, 17)
        for k in (0, 1, 2, 3, 6, 10, 13):
            np.testing.assert_allclose(
                hermite(k, x), sp.eval_hermite(k, x), rtol=1e-11, atol=1e-9
            )

    def test_parity(self):
        for k in range(14):
            for x in (0.3, 1.1, 2.7):
                left = hermite(k, -x)
                right = (-1) ** k * hermite(k, x)
                assert left == pytest.approx(right, rel=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            hermite(-2, 0.0)


class TestRadialNorm3d:
    def test_ground_state_closed_form(self):
        # C = 2 / (pi^{1/4} sqrt(r0)) from the Gaussian moment
        # integral (r/r0)^2 exp(-r^2/r0^2) dr = sqrt(pi) r0 / 4.
        for r0 in (1.0, 0.37, 2.9e-5):
            want = 2.0 / (math.pi**0.25 * math.sqrt(r0))
            assert radial_norm_3d(0, 0, r0) == pytest.approx(want, rel=1e-13)

    def test_unit_norm_by_quadrature(self):
        r0 = 1.0
        for n, l in ((0, 0), (2, 0), (4, 2), (6, 6), (9, 3), (12, 4)):
            c = radial_norm_3d(n, l, r0)
            k = (n - l) // 2

            def w(r):
                u = (r / r0) ** 2
                return (
                    c
                    * (r / r0) ** (l + 1)
                    * math.exp(-u / 2)
                    * laguerre_gen(k, l + 0.5, u)
                )

            val, _ = integrate.quad(lambda r: w(r) ** 2, 0.0, np.inf, limit=200)
            assert abs(val - 1.0) < 1e-10

    def test_non_integer_angular_order(self):
        # Real angular order with integer degree (n - l)/2 must normalize too.
        r0 = 1.0
        l = 1.7
        n = l + 4.0
        c = radial_norm_3d(n, l, r0)
        k = 2

        def w(r):
            u = (r / r0) ** 2
            return c * (r / r0) ** (l + 1) * math.exp(-u / 2) * laguerre_gen(
                k, l + 0.5, u
            )

        val, _ = integrate.quad(lambda r: w(r) ** 2, 0.0, np.inf, limit=200)
        assert abs(val - 1.0) < 1e-10

    def test_scale_dependence(self):
        for r0 in (0.2, 5.0):
            assert radial_norm_3d(6, 2, r0) == pytest.approx(
                radial_norm_3d(6, 2, 1.0) / math.sqrt(r0), rel=1e-13
            )

    def test_bad_parity_rejected(self):
        with pytest.raises(DomainError):
            radial_norm_3d(3, 0, 1.0)
        with pytest.raises(DomainError):
            radial_norm_3d(2, 1, 1.0)

    def test_degree_below_zero_rejected(self):
        with pytest.raises(DomainError):
            radial_norm_3d(0, 2, 1.0)


class TestRadialNorm2d:
    # The planar profile X_{N,M} is the tower profile at lam = |M| - 1/2 with
    # label N - 1/2, so its constant is radial_norm_3d(N - 1/2, |M| - 1/2, s).

    @staticmethod
    def norm_2d(n, abs_m, scale):
        return radial_norm_3d(n - 0.5, abs_m - 0.5, scale)

    def test_ground_state_closed_form(self):
        # integral C^2 (rho/s) exp(-rho^2/s^2) drho = C^2 s/2, so C = sqrt(2/s).
        for scale in (1.0, 0.62):
            want = math.sqrt(2.0 / scale)
            assert self.norm_2d(0, 0, scale) == pytest.approx(want, rel=1e-13)

    def test_unit_norm_by_quadrature(self):
        scale = 1.0
        for n, m in ((0, 0), (2, 2), (4, 0), (6, 4), (8, 2)):
            c = self.norm_2d(n, m, scale)
            k = (n - m) // 2

            def x_profile(rho):
                u = (rho / scale) ** 2
                return (
                    c
                    * (rho / scale) ** (m + 0.5)
                    * math.exp(-u / 2)
                    * laguerre_gen(k, float(m), u)
                )

            val, _ = integrate.quad(
                lambda rho: x_profile(rho) ** 2, 0.0, np.inf, limit=200
            )
            assert abs(val - 1.0) < 1e-10

    def test_scale_dependence(self):
        assert self.norm_2d(4, 2, 3.0) == pytest.approx(
            self.norm_2d(4, 2, 1.0) / math.sqrt(3.0), rel=1e-13
        )

    def test_bad_parity_rejected(self):
        with pytest.raises(DomainError):
            self.norm_2d(3, 0, 1.0)
