"""Tests for the polynomial layer: recurrences, norms, orthogonality."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy import special as sp

from exact_rules import half_line_rule, laguerre_rule
from trapspec import DomainError, special
from trapspec.special import (
    hermite,
    laguerre_gen,
    laguerre_march,
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

    @pytest.mark.parametrize("x", [-1.0, [1.0, -0.5], -5e-324])
    def test_negative_argument_rejected(self, x):
        with pytest.raises(DomainError, match="^Laguerre argument must be nonnegative$"):
            laguerre_gen(2, 0.5, x)

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
            x, w = laguerre_rule(alpha)
            for n in range(0, 13, 3):
                for m in range(n + 1, 13, 4):
                    assert abs(w @ (laguerre_gen(n, alpha, x) * laguerre_gen(m, alpha, x))) < 1e-10

    def test_weighted_norm_closed_form(self):
        # integral of the squared polynomial against the weight equals
        # Gamma(n+alpha+1)/n!.
        for n, alpha in ((2, 0.5), (5, 1.5), (8, 2.3)):
            x, w = laguerre_rule(alpha)
            val = w @ laguerre_gen(n, alpha, x) ** 2
            want = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(n + 1))
            assert val == pytest.approx(want, rel=1e-10)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            laguerre_gen(-1, 0.5, 1.0)

    @pytest.mark.parametrize("n, x, want", [
        (2, 1e200, math.inf), (3, 1e200, -math.inf), (4, 1e160, math.inf),
        (1, 1e200, 1.5 - 1e200), (0, 1e300, 1.0), (2, 1.5e154, 0.5 * 1.5e154 * 1.5e154),
    ])
    def test_value_beyond_the_float_range_is_inf_of_its_sign(self, n, x, want):
        # Under pytest's RuntimeWarning filter an overflow warning would fail here.
        assert laguerre_gen(n, 0.5, x) == want
        assert laguerre_gen(n, 0.5, np.array([x, 1.0]))[0] == want

    @pytest.mark.parametrize("n, alpha", [(2, 1e300), (2, 1e160), (3, 1e90)])
    def test_huge_order(self, n, alpha):
        # (3 + alpha - x)(1 + alpha - x) overflows past alpha = 1e154 unless L_1 is rescaled.
        with mp.workdps(320):
            want = float(mp.laguerre(n, alpha, 0.5))
        assert laguerre_gen(n, alpha, 0.5) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError, match="Laguerre argument must be finite"):
            laguerre_gen(3, 0.5, x)

    def test_alpha_at_or_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            laguerre_gen(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_gen(2, -1.7, 1.0)


class TestLaguerreDerivative:
    """d/dx L_n^alpha = -L_{n-1}^{alpha+1}, the identity tower derivatives use."""

    def test_identity_against_lower_order(self):
        for n, x in ((1, 0.1), (3, 2.5), (7, 11.0), (7, 20.0)):
            with mp.workdps(30):
                want = float(mp.diff(lambda t: mp.laguerre(n, mp.mpf("0.8"), t), x))
            assert -laguerre_gen(n - 1, 1.8, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_finite_difference(self):
        h = 1e-6
        for n, alpha, x in ((4, 0.5, 2.0), (6, 2.3, 7.5)):
            fd = (laguerre_gen(n, alpha, x + h) - laguerre_gen(n, alpha, x - h)) / (
                2 * h
            )
            assert -laguerre_gen(n - 1, alpha + 1.0, x) == pytest.approx(fd, rel=1e-8)


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


class TestRecurrenceLimit:
    """Degree times points (at least MIN_STEP_POINTS) above RECURRENCE_LIMIT is refused
    before any step."""

    @pytest.mark.parametrize("recurrence", [
        lambda n, x: laguerre_gen(n, 0.5, x),
        lambda n, x: laguerre_march([0, n], 0.5, x),
        hermite,
    ])
    def test_runaway_degree_is_refused(self, recurrence):
        for n, x in ((10**15, np.ones(501)), (10**8 + 1, 1.0), (10**8 + 1, np.empty(0))):
            with pytest.raises(DomainError, match=r"more than 1e\+08 recurrence steps"):
                recurrence(n, x)

    @pytest.mark.parametrize("recurrence", [lambda n, x: laguerre_gen(n, 0.5, x), hermite])
    def test_limit_counts_degree_times_points(self, recurrence, monkeypatch):
        floor = special.MIN_STEP_POINTS
        monkeypatch.setattr(special, "RECURRENCE_LIMIT", 10 * (floor + 1))
        assert np.all(np.isfinite(recurrence(10, np.ones(floor + 1))))
        with pytest.raises(DomainError, match=f"degree 10 at {floor + 2} points"):
            recurrence(10, np.ones(floor + 2))
        # Fewer points are charged as MIN_STEP_POINTS, the fixed cost of a step.
        for x in (1.0, np.ones(1), np.ones(floor)):
            assert np.all(np.isfinite(recurrence(10, x)))
            with pytest.raises(DomainError, match="degree 11 at"):
                recurrence(11, x)


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
            r, q = half_line_rule(l + 0.5, r0)
            u = r / r0
            w = c * u ** (l + 1) * np.exp(-0.5 * u**2) * laguerre_gen((n - l) // 2, l + 0.5, u**2)
            assert abs(q @ w**2 - 1.0) < 1e-10

    def test_non_integer_angular_order(self):
        # Real angular order with integer degree (n - l)/2 must normalize too.
        r0 = 1.0
        l = 1.7
        n = l + 4.0
        c = radial_norm_3d(n, l, r0)
        r, q = half_line_rule(l + 0.5, r0)
        u = r / r0
        w = c * u ** (l + 1) * np.exp(-0.5 * u**2) * laguerre_gen(2, l + 0.5, u**2)
        assert abs(q @ w**2 - 1.0) < 1e-10

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

    @pytest.mark.parametrize("l_angular", [-2, -3, -10])
    def test_angular_index_of_minus_two_or_below_rejected(self, l_angular):
        message = f"^angular parameter must exceed -3/2, got {l_angular}$"
        with pytest.raises(DomainError, match=message):
            radial_norm_3d(l_angular + 2, l_angular, 1.0)


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
            rho, w = half_line_rule(float(m), scale)
            u = rho / scale
            x_profile = c * u ** (m + 0.5) * np.exp(-u**2 / 2) * laguerre_gen((n - m) // 2, m, u**2)
            assert abs(w @ x_profile**2 - 1.0) < 1e-10

    def test_scale_dependence(self):
        assert self.norm_2d(4, 2, 3.0) == pytest.approx(
            self.norm_2d(4, 2, 1.0) / math.sqrt(3.0), rel=1e-13
        )

    def test_bad_parity_rejected(self):
        with pytest.raises(DomainError):
            self.norm_2d(3, 0, 1.0)
