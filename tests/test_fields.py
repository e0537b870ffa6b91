"""Tests for trap fields: series expansions, conductor oracle, tuning."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import special as sp

from trapspec import AccuracyError, ConfinementError, DomainError, SingularityError
from trapspec import fields
from trapspec.constants import MU0
from trapspec.fields import (
    CircularLoop,
    DipoleParticle,
    IoffePritchardGeometry,
    StraightWire,
    TopGeometry,
    TrapAssembly,
    biot_savart_field,
    ip_field_cartesian,
    ip_potential,
    ip_scales,
    isotropy_residual,
    oscillator_scales,
    solve_bar_current,
    solve_quad_current,
    top_field_series,
    top_scales,
    top_time_average_numeric,
    top_time_avg_potential,
)

PARTICLE = DipoleParticle(magnetic_moment=4.6e-24, mass=1.44e-25)


def tuned_ip_geometry():
    base = IoffePritchardGeometry(
        coil_radius=0.02,
        coil_halfspacing=0.02,
        coil_current=100.0,
        bar_distance=0.01,
        bar_current=1.0,
    )
    return IoffePritchardGeometry(
        coil_radius=base.coil_radius,
        coil_halfspacing=base.coil_halfspacing,
        coil_current=base.coil_current,
        bar_distance=base.bar_distance,
        bar_current=solve_bar_current(base),
    )


def tuned_top_geometry():
    base = TopGeometry(
        quad_radius=0.02,
        quad_halfspacing=0.02,
        quad_current=1.0,
        bias_radius=0.03,
        bias_halfspacing=0.03,
        bias_current=20.0,
        bias_frequency=2.0 * math.pi * 1.0e4,
    )
    return TopGeometry(
        quad_radius=base.quad_radius,
        quad_halfspacing=base.quad_halfspacing,
        quad_current=solve_quad_current(base),
        bias_radius=base.bias_radius,
        bias_halfspacing=base.bias_halfspacing,
        bias_current=base.bias_current,
        bias_frequency=base.bias_frequency,
    )


def loop_field_elliptic(radius, current, rho, z):
    """Field of a z-axis loop by the elliptic-integral closed form.

    Independent of the quadrature path in the library; returns (B_rho, B_z).
    """
    if rho == 0.0:
        bz = MU0 * current * radius**2 / (2.0 * (z * z + radius * radius) ** 1.5)
        return 0.0, bz
    m = 4.0 * radius * rho / ((radius + rho) ** 2 + z * z)
    kk, ee = sp.ellipk(m), sp.ellipe(m)
    front = MU0 * current / (2.0 * math.pi * math.sqrt((radius + rho) ** 2 + z * z))
    denom = (radius - rho) ** 2 + z * z
    bz = front * (kk + (radius**2 - rho**2 - z * z) / denom * ee)
    brho = (
        front
        * (z / rho)
        * (-kk + (radius**2 + rho**2 + z * z) / denom * ee)
    )
    return brho, bz


class TestGeometryValidation:
    def test_positive_lengths_required(self):
        with pytest.raises(DomainError):
            IoffePritchardGeometry(-0.02, 0.02, 100.0, 0.01, 25.0)
        with pytest.raises(DomainError):
            TopGeometry(0.02, 0.0, 8.0, 0.03, 0.03, 20.0, 1e4)

    def test_nonzero_currents_required(self):
        with pytest.raises(DomainError):
            IoffePritchardGeometry(0.02, 0.02, 0.0, 0.01, 25.0)

    def test_negative_current_allowed(self):
        g = IoffePritchardGeometry(0.02, 0.02, -100.0, 0.01, 25.0)
        assert ip_scales(g).field < 0.0

    def test_aligned_dipole_untrappable(self):
        with pytest.raises(DomainError):
            DipoleParticle(magnetic_moment=-4.6e-24, mass=1.44e-25)
        with pytest.raises(DomainError):
            DipoleParticle(magnetic_moment=4.6e-24, mass=0.0)


class TestIpScales:
    def test_curvature_area_example(self):
        g = IoffePritchardGeometry(0.05, 0.05, 10.0, 0.01, 5.0)
        s = ip_scales(g)
        assert s.area == pytest.approx(3.0 * (4.0 - 1.0) * 0.0025 / 2.0, rel=1e-14)
        assert s.length == pytest.approx(math.sqrt(2.0) * 0.05, rel=1e-14)

    def test_flat_pair_does_not_confine(self):
        g = IoffePritchardGeometry(0.05, 0.02, 10.0, 0.01, 5.0)  # 2A < R
        s = ip_scales(g)
        assert s.area < 0.0
        assert not s.confining
        with pytest.raises(ConfinementError):
            _ = s.isotropic_radius

    def test_center_field_matches_conductor_oracle(self):
        g = tuned_ip_geometry()
        s = ip_scales(g)
        b = biot_savart_field(TrapAssembly.ioffe_pritchard(g), (0.0, 0.0, 0.0))
        assert b[0] == pytest.approx(0.0, abs=1e-18)
        assert b[1] == pytest.approx(0.0, abs=1e-18)
        assert b[2] == pytest.approx(s.field, rel=1e-12)

    def test_bar_gradient_matches_conductor_oracle(self):
        g = tuned_ip_geometry()
        s = ip_scales(g)
        asm = TrapAssembly.ioffe_pritchard(g)
        h = 1e-6 * g.bar_distance
        bx_plus = biot_savart_field(asm, (h, 0.0, 0.0))[0]
        bx_minus = biot_savart_field(asm, (-h, 0.0, 0.0))[0]
        grad = (bx_plus - bx_minus) / (2.0 * h)
        assert grad == pytest.approx(s.gradient, rel=1e-9)


class TestIpSeries:
    def test_origin_is_pure_bias(self):
        s = ip_scales(tuned_ip_geometry())
        b = ip_field_cartesian(s, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(b, [0.0, 0.0, s.field], rtol=0, atol=1e-20)

    def test_on_axis_curvature(self):
        s = ip_scales(tuned_ip_geometry())
        for z in (1e-4, 3e-3):
            b = ip_field_cartesian(s, 0.0, 0.0, z)
            want = s.field * (1.0 + s.area * z * z / s.length**4)
            assert b[2] == pytest.approx(want, rel=1e-14)
            assert b[0] == 0.0 and b[1] == 0.0

    def test_divergence_free(self):
        s = ip_scales(tuned_ip_geometry())
        rng = np.random.default_rng(3)
        h = 1e-7 * s.length
        for point in rng.uniform(-0.05, 0.05, size=(8, 3)) * s.length:
            div = 0.0
            jac_scale = 0.0
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                bp = ip_field_cartesian(s, *(point + step))
                bm = ip_field_cartesian(s, *(point - step))
                grad = (bp - bm) / (2.0 * h)
                div += grad[k]
                jac_scale = max(jac_scale, float(np.max(np.abs(grad))))
            assert abs(div) < 1e-9 * jac_scale

    def test_truncation_error_is_quartic(self):
        g = tuned_ip_geometry()
        s = ip_scales(g)
        asm = TrapAssembly.ioffe_pritchard(g)
        direction = np.array([0.36, 0.48, 0.8])

        def err(fraction):
            p = fraction * s.length * direction
            exact = biot_savart_field(asm, p)
            series = ip_field_cartesian(s, *p)
            return float(np.linalg.norm(series - exact))

        # Halving the distance should cut the residual by about 2^4.
        ratio = err(2e-2) / err(1e-2)
        assert ratio > 2.0**3.5

    @staticmethod
    def assert_exact_series(s, points):
        # Each component within 2 ulp of the series evaluated exactly at the
        # float inputs and scales, and an exact zero (Bx at x = 0, By at
        # y = 0) is +0.0, which prints as 0.
        g, b0 = Fraction(s.gradient), Fraction(s.field)
        curv = Fraction(s.field * s.area / s.length**4)
        for point, got in zip(points, np.atleast_2d(ip_field_cartesian(s, *points.T))):
            x, y, z = map(Fraction, point)
            want = ((g - curv * z) * x, -(g + curv * z) * y,
                    b0 + curv * (z * z - (x * x + y * y) / 2))
            for value, exact in zip(got.tolist(), want):
                if exact == 0:
                    assert math.copysign(1.0, value) == 1.0 and value == 0.0, (point, got)
                else:
                    assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_default_grids_match_the_exact_series(self):
        # Reversed bars make g - c z negative, so (g - c z) x alone is -0.0 at x = 0.
        tuned = tuned_ip_geometry()
        for g in (tuned, dataclasses.replace(tuned, bar_current=-tuned.bar_current)):
            s = ip_scales(g)
            for n in (2, 3, 5, 9, 15):  # field-map's default extent, 0.05 coil lengths
                self.assert_exact_series(s, cube_grid(0.05 * s.length, n))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(-0.1, 0.1)] * 3))
    def test_points_near_the_center_match_the_exact_series(self, point):
        s = ip_scales(tuned_ip_geometry())
        self.assert_exact_series(s, np.array([point]) * s.length)

    def test_top_scales_are_refused(self):
        s = top_scales(tuned_top_geometry())
        with pytest.raises(DomainError, match="^scales were derived for a 'top' trap, need 'ip'$"):
            ip_field_cartesian(s, 0.0, 0.0, 0.0)


class TestIpPotential:
    def test_origin_value(self):
        s = ip_scales(tuned_ip_geometry())
        assert ip_potential(PARTICLE, s, 0.0, 0.0) == pytest.approx(
            PARTICLE.magnetic_moment * s.field, rel=1e-14
        )

    def test_tuned_isotropy(self):
        s = ip_scales(tuned_ip_geometry())
        u0 = ip_potential(PARTICLE, s, 0.0, 0.0)
        probe = 0.3 * s.isotropic_radius
        gap = ip_potential(PARTICLE, s, probe, 0.0) - ip_potential(
            PARTICLE, s, 0.0, probe
        )
        assert abs(gap) < 1e-12 * u0

    def test_transverse_coefficient_matches_field_magnitude(self):
        # The quadratic rho coefficient must agree with a direct expansion
        # of mu |B_series| for an untuned geometry.
        g = IoffePritchardGeometry(0.02, 0.02, 100.0, 0.01, 40.0)
        s = ip_scales(g)
        rho = 1e-4 * s.length
        direct = PARTICLE.magnetic_moment * float(
            np.linalg.norm(ip_field_cartesian(s, rho, 0.0, 0.0))
        )
        assert ip_potential(PARTICLE, s, rho, 0.0) == pytest.approx(direct, rel=1e-7)

    def test_axial_coefficient_matches_field_magnitude(self):
        g = IoffePritchardGeometry(0.02, 0.02, 100.0, 0.01, 40.0)
        s = ip_scales(g)
        z = 1e-4 * s.length
        direct = PARTICLE.magnetic_moment * float(
            np.linalg.norm(ip_field_cartesian(s, 0.0, 0.0, z))
        )
        assert ip_potential(PARTICLE, s, 0.0, z) == pytest.approx(direct, rel=1e-12)


class TestIpTuning:
    def test_solved_current_zeroes_residual(self):
        assert abs(isotropy_residual(ip_scales(tuned_ip_geometry()))) < 1e-12

    def test_doubled_current_residual_three(self):
        g = tuned_ip_geometry()
        doubled = IoffePritchardGeometry(
            g.coil_radius,
            g.coil_halfspacing,
            g.coil_current,
            g.bar_distance,
            2.0 * g.bar_current,
        )
        assert isotropy_residual(ip_scales(doubled)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_unconfining_geometry_rejected(self):
        g = IoffePritchardGeometry(0.05, 0.02, 10.0, 0.01, 5.0)
        with pytest.raises(ConfinementError):
            isotropy_residual(ip_scales(g))
        with pytest.raises(ConfinementError):
            solve_bar_current(g)


class TestTopScales:
    def test_equal_radius_spacing_area(self):
        g = tuned_top_geometry()
        s = top_scales(g)
        assert s.area == pytest.approx(4.5 * g.bias_halfspacing**2, rel=1e-14)
        assert s.length == pytest.approx(
            math.hypot(g.bias_radius, g.bias_halfspacing), rel=1e-14
        )

    def test_quad_gradient_matches_conductor_oracle(self):
        # On the axis of an anti-aligned pair dBz/dz = -2 * gradient.
        g = tuned_top_geometry()
        s = top_scales(g)
        loops = (
            CircularLoop(
                (0.0, 0.0, g.quad_halfspacing), (0.0, 0.0, 1.0), g.quad_radius,
                -g.quad_current,
            ),
            CircularLoop(
                (0.0, 0.0, -g.quad_halfspacing), (0.0, 0.0, 1.0), g.quad_radius,
                g.quad_current,
            ),
        )
        asm = TrapAssembly(loops=loops)
        h = 1e-4 * g.quad_halfspacing

        def bz(z):
            return biot_savart_field(asm, (0.0, 0.0, z))[2]

        # fourth-order five-point stencil keeps truncation below 1e-12
        ddz = (8.0 * (bz(h) - bz(-h)) - (bz(2 * h) - bz(-2 * h))) / (12.0 * h)
        assert ddz == pytest.approx(-2.0 * s.gradient, rel=1e-10)


class TestTopSeries:
    def test_rotating_bias_at_origin(self):
        s = top_scales(tuned_top_geometry())
        b0 = top_field_series(s, 0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(b0, [s.field, 0.0, 0.0], rtol=0, atol=1e-20)
        quarter = 0.5 * math.pi / s.bias_frequency
        b1 = top_field_series(s, 0.0, 0.0, 0.0, quarter)
        assert b1[1] == pytest.approx(s.field, rel=1e-12)
        assert abs(b1[0]) < 1e-12 * s.field

    def test_axial_component_on_axis(self):
        s = top_scales(tuned_top_geometry())
        for t in (0.0, 1.3e-5, 7.7e-5):
            for z in (1e-4, -2e-3):
                b = top_field_series(s, 0.0, 0.0, z, t)
                assert b[2] == pytest.approx(-2.0 * s.gradient * z, rel=1e-13)

    def test_divergence_free(self):
        s = top_scales(tuned_top_geometry())
        rng = np.random.default_rng(5)
        h = 1e-7 * s.length
        t = 2.3e-5
        for point in rng.uniform(-0.05, 0.05, size=(8, 3)) * s.length:
            div = 0.0
            jac_scale = 0.0
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                bp = top_field_series(s, *(point + step), t)
                bm = top_field_series(s, *(point - step), t)
                grad = (bp - bm) / (2.0 * h)
                div += grad[k]
                jac_scale = max(jac_scale, float(np.max(np.abs(grad))))
            assert abs(div) < 1e-9 * jac_scale


class TestTopPotential:
    def test_origin_value(self):
        s = top_scales(tuned_top_geometry())
        assert top_time_avg_potential(PARTICLE, s, 0.0, 0.0) == pytest.approx(
            PARTICLE.magnetic_moment * s.field, rel=1e-14
        )

    def test_tuned_isotropy(self):
        s = top_scales(tuned_top_geometry())
        u0 = top_time_avg_potential(PARTICLE, s, 0.0, 0.0)
        probe = 0.2 * s.isotropic_radius
        gap = top_time_avg_potential(PARTICLE, s, probe, 0.0) - top_time_avg_potential(
            PARTICLE, s, 0.0, probe
        )
        assert abs(gap) < 1e-12 * u0

    def test_matches_numeric_time_average(self):
        s = top_scales(tuned_top_geometry())
        x = 1e-2 * s.length
        closed = top_time_avg_potential(PARTICLE, s, x, 0.0)
        numeric = top_time_average_numeric(PARTICLE, s, x, 0.0, 0.0)
        assert abs(numeric - closed) / closed < 1e-8


class TestTopTuning:
    def test_solved_current_zeroes_residual(self):
        assert abs(isotropy_residual(top_scales(tuned_top_geometry()))) < 1e-12

    def test_doubled_current_residual_three(self):
        g = tuned_top_geometry()
        doubled = TopGeometry(
            g.quad_radius,
            g.quad_halfspacing,
            2.0 * g.quad_current,
            g.bias_radius,
            g.bias_halfspacing,
            g.bias_current,
            g.bias_frequency,
        )
        assert isotropy_residual(top_scales(doubled)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_flat_bias_pair_rejected(self):
        g = TopGeometry(0.02, 0.02, 8.0, 0.03, 0.01, 20.0, 1e4)  # 2A_b < R_b
        with pytest.raises(ConfinementError):
            isotropy_residual(top_scales(g))


class TestConductorOracle:
    def test_loop_on_axis_closed_form(self):
        loop = CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.05, 3.0)
        asm = TrapAssembly(loops=(loop,))
        for z in (0.0, 0.02, -0.11):
            want = MU0 * 3.0 * 0.05**2 / (2.0 * (z * z + 0.05**2) ** 1.5)
            b = biot_savart_field(asm, (0.0, 0.0, z))
            assert b[2] == pytest.approx(want, rel=1e-12)
            assert abs(b[0]) < 1e-16 and abs(b[1]) < 1e-16

    def test_loop_off_axis_elliptic_oracle(self):
        radius, current = 0.04, 2.5
        loop = CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), radius, current)
        asm = TrapAssembly(loops=(loop,))
        for rho, z in ((0.01, 0.005), (0.03, -0.02), (0.08, 0.03)):
            brho, bz = loop_field_elliptic(radius, current, rho, z)
            b = biot_savart_field(asm, (rho, 0.0, z))
            assert b[0] == pytest.approx(brho, rel=1e-10)
            assert b[2] == pytest.approx(bz, rel=1e-10)

    def test_tilted_loop_frame(self):
        # A loop with axis x-hat evaluated on its own axis.
        loop = CircularLoop((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.05, 3.0)
        b = biot_savart_field(TrapAssembly(loops=(loop,)), (0.02, 0.0, 0.0))
        want = MU0 * 3.0 * 0.05**2 / (2.0 * (0.02**2 + 0.05**2) ** 1.5)
        assert b[0] == pytest.approx(want, rel=1e-12)

    def test_wire_field_direction_and_magnitude(self):
        wire = StraightWire((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 4.0)
        b = wire.field((0.03, 0.0, 0.0))
        want = MU0 * 4.0 / (2.0 * math.pi * 0.03)
        np.testing.assert_allclose(b, [0.0, want, 0.0], atol=1e-18)

    def test_bar_quartet_gradient(self):
        g = tuned_ip_geometry()
        wires = TrapAssembly.ioffe_pritchard(g).wires
        asm = TrapAssembly(wires=wires)
        h = 1e-6 * g.bar_distance
        grad = (
            biot_savart_field(asm, (h, 0.0, 0.0))[0]
            - biot_savart_field(asm, (-h, 0.0, 0.0))[0]
        ) / (2.0 * h)
        want = 2.0 * MU0 * g.bar_current / (math.pi * g.bar_distance**2)
        assert grad == pytest.approx(want, rel=1e-9)

    def test_point_on_conductor_rejected(self):
        loop = CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.05, 3.0)
        with pytest.raises(SingularityError):
            biot_savart_field(TrapAssembly(loops=(loop,)), (0.05, 0.0, 0.0))
        wire = StraightWire((0.01, 0.0, 0.0), (0.0, 0.0, 1.0), 4.0)
        with pytest.raises(SingularityError):
            biot_savart_field(TrapAssembly(wires=(wire,)), (0.01, 0.0, 5.0))

    def test_degenerate_axis_rejected(self):
        with pytest.raises(DomainError):
            CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.05, 3.0)
        with pytest.raises(DomainError):
            StraightWire((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)


# Scalar reference for the batched oracle: the loop integrand, wire and sum
# for one point at a time, operation for operation.


def scalar_loop_field(loop, point):
    n = np.asarray(loop.axis)
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    rel = np.asarray(point, dtype=float) - np.asarray(loop.center)
    local = np.array([np.vecdot(rel, e1), np.vecdot(rel, e2), np.vecdot(rel, n), loop.radius])
    _, k = np.frexp(np.max(np.abs(local)))
    x1, x2, x3, a = np.ldexp(local, -k)
    pref = MU0 * loop.current / (4.0 * math.pi)

    def integral(n_panels):
        theta = np.linspace(0.0, 2.0 * math.pi, n_panels, endpoint=False)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        s1 = x1 - a * cos_t
        s2 = x2 - a * sin_t
        s_sq = s1 * s1 + s2 * s2 + x3 * x3
        r_sq = x1 * x1 + x2 * x2 + x3 * x3 + a * a
        s, r = np.sqrt(s_sq), np.sqrt(r_sq)
        g = 2.0 * (x1 * cos_t + x2 * sin_t) * (r_sq + r * s + s_sq) / (
            (r + s) * (r_sq * r) * (s_sq * s))
        return np.array([
            x3 * (cos_t * g).mean(),
            x3 * (sin_t * g).mean(),
            1.0 / (r_sq * r) - ((cos_t * s1 + sin_t * s2) * g).mean(),
        ])

    # The stop test reads this loop's own current-scaled mean.
    prev, n_panels = pref * integral(64), 128
    while n_panels <= 1 << 20:
        mean = integral(n_panels)
        cur = pref * mean
        scale = float(np.max(np.abs(cur))) + 1e-300
        if float(np.max(np.abs(cur - prev))) / scale <= 1e-13:
            b = np.ldexp(np.square(a) * mean, -k)
            return pref * (b[0] * e1 + b[1] * e2 + b[2] * n) * 2.0 * math.pi, n_panels
        prev, n_panels = cur, n_panels * 2
    raise AssertionError("reference loop quadrature did not converge")


def scalar_wire_field(wire, point):
    d = np.asarray(wire.direction)
    rel = np.asarray(point, float) - np.asarray(wire.point_on)
    s = rel - (rel @ d) * d
    d_sq = float(s @ s)
    return MU0 * wire.current / (2.0 * math.pi * d_sq) * np.cross(wire.direction, s)


def scalar_biot_savart(assembly, point):
    total = np.zeros(3)
    for loop in assembly.loops:
        total += scalar_loop_field(loop, point)[0]
    for wire in assembly.wires:
        total += scalar_wire_field(wire, point)
    return total


def cube_grid(half, n):
    axis = np.linspace(-half, half, n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


def points_near_wire(loop, angles, log_distances, tilts):
    """Points at 10**log_distance loop radii from the wire, around it by tilt."""
    e1, e2, n = loop._frame
    radial = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
    on_wire = np.asarray(loop.center) + loop.radius * radial
    offset = np.cos(tilts)[:, None] * radial + np.sin(tilts)[:, None] * n
    return on_wire + (loop.radius * 10.0 ** np.asarray(log_distances))[:, None] * offset


TILTED = CircularLoop((0.01, -0.004, 0.02), (0.3, -0.5, 0.8), 0.05, 3.0)


class TestBatchedOracle:
    """Every row of a batched evaluation is bit-identical to that point alone."""

    def test_ip_grid_matches_scalar_reference(self):
        g = tuned_ip_geometry()
        asm = TrapAssembly.ioffe_pritchard(g)
        points = cube_grid(0.05 * ip_scales(g).length, 9)
        want = np.array([scalar_biot_savart(asm, p) for p in points])
        np.testing.assert_array_equal(biot_savart_field(asm, points), want)

    def test_top_grid_matches_scalar_reference_at_each_drive_time(self):
        g = tuned_top_geometry()
        points = cube_grid(0.05 * top_scales(g).length, 5)
        period = 2.0 * math.pi / g.bias_frequency
        for t in np.arange(8) * period / 8:
            asm = TrapAssembly.top(g, t)
            want = np.array([scalar_biot_savart(asm, p) for p in points])
            np.testing.assert_array_equal(biot_savart_field(asm, points), want)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda a: math.hypot(*a) > 0.1),
        radius=st.floats(0.01, 0.1),
        near=st.lists(
            st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-3.5, -1.0),
                      st.floats(0.0, 2.0 * math.pi)),
            min_size=1, max_size=6),
    )
    def test_tilted_loop_mixed_stop_levels(self, axis, radius, near):
        loop = CircularLoop((0.002, 0.0, -0.001), axis, radius, -2.0)
        points = points_near_wire(loop, *np.array(near).T)
        want = np.array([scalar_loop_field(loop, p)[0] for p in points])
        np.testing.assert_array_equal(loop.field(points), want)

    def test_stop_levels_differ_within_one_batch(self):
        # The batch the chunk tests below rely on really mixes stop levels.
        points = points_near_wire(TILTED, [0.3, 1.9, 4.0, 5.5], [-1.0, -2.0, -2.8, -3.4],
                                  [0.0, 1.0, 2.0, 3.0])
        levels = {scalar_loop_field(TILTED, p)[1] for p in points}
        assert len(levels) == 4

    def test_batch_larger_than_one_block(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.03, 0.03, (1200, 3))
        assert len(points) * 128 > fields._BLOCK_PAIRS
        want = np.array([scalar_loop_field(TILTED, p)[0] for p in points])
        np.testing.assert_array_equal(TILTED.field(points), want)

    def test_small_blocks_cross_chunk_edges_at_every_level(self, monkeypatch):
        monkeypatch.setattr(fields, "_BLOCK_PAIRS", 300)
        points = points_near_wire(TILTED, np.linspace(0.0, 6.0, 7),
                                  np.linspace(-3.0, -1.0, 7), np.linspace(0.0, 3.0, 7))
        want = np.array([scalar_loop_field(TILTED, p)[0] for p in points])
        np.testing.assert_array_equal(TILTED.field(points), want)

    def test_wires_match_scalar_reference(self):
        wire = StraightWire((0.01, 0.02, 0.0), (0.2, 0.1, 1.0), 4.0)
        points = np.random.default_rng(6).normal(0.0, 0.05, (300, 3))
        want = np.array([scalar_wire_field(wire, p) for p in points])
        np.testing.assert_array_equal(wire.field(points), want)

    def test_one_point_inside_clearance_rejects_the_batch(self):
        loop = CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.05, 3.0)
        asm = TrapAssembly(loops=(loop,))
        points = np.array([[0.01, 0.0, 0.0], [0.0, 0.05, 2e-10], [0.0, 0.0, 0.02],
                           [0.05, 0.0, 0.0]])
        with pytest.raises(SingularityError, match=r"point \[0\.0, 0\.05, 2e-10\]"):
            biot_savart_field(asm, points)

    def test_one_non_converging_point_fails_the_batch(self):
        # 1e-8 m from the wire: outside the clearance, but the trapezoid sum
        # would need far more than 2**20 panels there.
        points = np.vstack([
            [[0.0, 0.0, 0.03], [0.01, 0.02, 0.0]],
            points_near_wire(TILTED, [1.0], [math.log10(1e-8 / TILTED.radius)], [0.5]),
        ])
        with pytest.raises(AccuracyError, match="by 1048576 panels"):
            biot_savart_field(TrapAssembly(loops=(TILTED,)), points)

    def test_shapes(self):
        g = tuned_ip_geometry()
        asm = TrapAssembly.ioffe_pritchard(g)
        point = (0.001, -0.002, 0.0005)
        one = biot_savart_field(asm, point)
        assert one.shape == (3,)
        many = biot_savart_field(asm, [point] * 4)
        assert many.shape == (4, 3)
        np.testing.assert_array_equal(many, np.tile(one, (4, 1)))
        assert biot_savart_field(asm, np.empty((0, 3))).shape == (0, 3)
        wire = asm.wires[0]
        assert wire.field(point).shape == (3,)
        assert np.ndim(TILTED.min_distance(point)) == 0
        assert TILTED.min_distance(np.zeros((5, 3))).shape == (5,)
        for bad in ((1.0, 2.0), np.zeros((2, 4)), np.zeros((2, 2, 3))):
            with pytest.raises(DomainError):
                biot_savart_field(asm, bad)


class TestSnapshotOracle:
    """A tuple of assemblies gives, slice by slice, each snapshot's own call."""

    @staticmethod
    def top_snapshots(samples):
        g = tuned_top_geometry()
        period = 2.0 * math.pi / g.bias_frequency
        return g, tuple(TrapAssembly.top(g, t) for t in np.arange(samples) * period / samples)

    def test_top_drive_matches_one_snapshot_calls(self):
        g, snapshots = self.top_snapshots(8)
        quad, bias = snapshots[1].loops[0], snapshots[1].loops[2]
        points = np.vstack([
            cube_grid(0.05 * top_scales(g).length, 3),
            points_near_wire(quad, [0.4, 2.0], [-1.5, -3.0], [0.5, 2.5]),
            points_near_wire(bias, [1.0, 3.0], [-2.0, -3.2], [1.0, 2.0]),
        ])
        # Near a coil, its loop needs far more panels than the others.
        assert len({scalar_loop_field(loop, points[-1])[1] for loop in snapshots[1].loops}) > 1
        b = biot_savart_field(snapshots, points)
        assert b.shape == (8, len(points), 3)
        assert np.array_equal(b, np.stack([biot_savart_field(s, points) for s in snapshots]))

    def test_zero_time_snapshot_skips_the_idle_bias_pair(self):
        _, snapshots = self.top_snapshots(4)
        assert [len(s.loops) for s in snapshots] == [4, 6, 6, 6]
        points = cube_grid(0.004, 3)
        for pair in (snapshots[:2], snapshots[1::-1]):
            want = np.stack([biot_savart_field(s, points) for s in pair])
            assert np.array_equal(biot_savart_field(pair, points), want)

    def test_one_loop_fields_of_mixed_stop_levels(self):
        # One geometry, three currents.  Alone, the 1e-300 A loop's field is
        # near the 1e-300 scale floor, so a per-loop stop test would end it
        # earlier than the 3 A one; the stop test reads the current-free
        # panel mean instead, so all three loops stop at the geometry's level
        # and each field is that mean scaled by the loop's current.
        log_distances = np.random.default_rng(3).permutation(np.linspace(-3.4, -1.0, 12))
        points = points_near_wire(TILTED, np.linspace(0.0, 6.0, 12), log_distances,
                                  np.linspace(0.0, 3.0, 12))
        loops = [dataclasses.replace(TILTED, current=c) for c in (3.0, 1e-300, 0.0)]
        levels = [[scalar_loop_field(loop, p)[1] for p in points] for loop in loops[:2]]
        assert levels[0] != levels[1]
        want = np.stack([loop.field(points) for loop in loops])
        assert np.array_equal(want[0], np.array([scalar_loop_field(TILTED, p)[0] for p in points]))
        snapshots = tuple(TrapAssembly(loops=(loop,)) for loop in loops)
        assert np.array_equal(biot_savart_field(snapshots, points), want)
        assert np.array_equal(biot_savart_field(snapshots, points[2]), want[:, 2])

    def test_small_chunks_match_one_chunk(self, monkeypatch):
        _, snapshots = self.top_snapshots(3)
        points = cube_grid(0.004, 4)
        want = biot_savart_field(snapshots, points)
        monkeypatch.setattr(fields, "_CHUNK_ROWS", 7)
        assert np.array_equal(biot_savart_field(snapshots, points), want)

    def test_singularity_names_the_first_point_of_the_first_snapshot(self, monkeypatch):
        # At t = 0 the y bias pair is idle, so only the point on an x bias
        # wire is too close; a quarter period later both are.
        _, snapshots = self.top_snapshots(4)
        x_bias, y_bias = snapshots[1].loops[2], snapshots[1].loops[4]
        points = np.vstack([
            [[0.001, 0.0, 0.0]],
            points_near_wire(y_bias, [1.0], [-12.0], [0.0]),
            points_near_wire(x_bias, [2.0], [-12.0], [0.0]),
        ])

        def message(assembly):
            with pytest.raises(SingularityError) as caught:
                biot_savart_field(assembly, points)
            return str(caught.value)

        assert f"point {points[2].tolist()} " in message(snapshots[0])
        assert f"point {points[1].tolist()} " in message(snapshots[1])
        # Every snapshot is checked, in order, before any field is computed.
        monkeypatch.setattr(fields, "_loop_fields", None)
        assert message(snapshots) == message(snapshots[0])
        assert message(snapshots[1:]) == message(snapshots[1])
        assert message(snapshots[:1] + snapshots[2:]) == message(snapshots[0])


def loop_field_mp(loop, point):
    """Field of ``loop`` at ``point`` from the elliptic-integral closed form at 50 digits.

    The point, center and axis are taken as the exact binary values they hold.
    """
    with mp.workdps(50):
        x = [mp.mpf(float(p)) - mp.mpf(c) for p, c in zip(point, loop.center)]
        n = [mp.mpf(c) for c in loop.axis]
        z = sum(a * b for a, b in zip(x, n))
        radial = [a - z * b for a, b in zip(x, n)]
        rho, a = mp.sqrt(sum(c * c for c in radial)), mp.mpf(loop.radius)
        front = 4 * mp.pi * mp.mpf("1e-7") * loop.current / (2 * mp.pi)
        if rho == 0:
            b_rho, b_z = 0, front * mp.pi * a * a / (z * z + a * a) ** 1.5
        else:
            q, gap = (a + rho) ** 2 + z * z, (a - rho) ** 2 + z * z
            kk, ee = mp.ellipk(4 * a * rho / q), mp.ellipe(4 * a * rho / q)
            b_z = front / mp.sqrt(q) * (kk + (a * a - rho * rho - z * z) / gap * ee)
            b_rho = front * z / (rho * mp.sqrt(q)) * (-kk + (a * a + rho * rho + z * z) / gap * ee)
        return np.array([float((b_rho * r / rho if rho else 0) + b_z * c)
                         for r, c in zip(radial, n)])


class TestLoopAccuracy:
    """Every loop field is within 1e-13 of its largest component, near or far."""

    LOOPS = [CircularLoop((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.02, 1.0), TILTED]

    @pytest.mark.parametrize("loop", LOOPS, ids=["axis-aligned", "tilted"])
    def test_center_out_to_1e12_radii(self, loop):
        direction = np.array([0.7, 0.3, 0.5]) / math.sqrt(0.83)
        distances = np.concatenate([[0.0], 10.0 ** np.arange(-2.0, 13.0)]) * loop.radius
        points = np.asarray(loop.center) + distances[:, None] * direction
        for got, point in zip(loop.field(points), points):
            want = loop_field_mp(loop, point)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("loop", LOOPS, ids=["axis-aligned", "tilted"])
    def test_near_the_wire(self, loop):
        # 1e-3 radii from the wire the field is conditioned to about eps a/s = 2e-13.
        points = points_near_wire(loop, [0.3, 1.9, 4.0, 5.5], [-3.0, -3.0, -2.0, -1.0],
                                  [0.0, 1.0, 2.0, -1.2])
        for got, point in zip(loop.field(points), points):
            want = loop_field_mp(loop, point)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestOscillatorScalesFromTrap:
    def test_offset_and_frequency(self):
        s = ip_scales(tuned_ip_geometry())
        osc = oscillator_scales(PARTICLE, s.field, s.isotropic_radius)
        assert osc.energy_offset == pytest.approx(
            PARTICLE.magnetic_moment * s.field, rel=1e-14
        )
        want = math.sqrt(
            2.0
            * PARTICLE.magnetic_moment
            * s.field
            / (PARTICLE.mass * s.isotropic_radius**2)
        )
        assert osc.omega0 == pytest.approx(want, rel=1e-14)

    def test_doubling_trap_depth(self):
        s = ip_scales(tuned_ip_geometry())
        one = oscillator_scales(PARTICLE, s.field, s.isotropic_radius)
        two = oscillator_scales(PARTICLE, 2.0 * s.field, s.isotropic_radius)
        assert two.omega0 == pytest.approx(one.omega0 * math.sqrt(2.0), rel=1e-14)

    def test_length_frequency_identity(self):
        s = ip_scales(tuned_ip_geometry())
        osc = oscillator_scales(PARTICLE, s.field, s.isotropic_radius)
        assert osc.r0**2 * osc.omega0 == pytest.approx(
            osc.hbar / osc.mass, rel=1e-12
        )

    def test_reference_trap_frequency_band(self):
        # Alkali-scale inputs land in the tens-to-hundreds rad/s band.
        s = ip_scales(tuned_ip_geometry())
        osc = oscillator_scales(PARTICLE, s.field, s.isotropic_radius)
        assert 10.0 < osc.omega0 < 1000.0
        assert osc.omega0 == pytest.approx(19.97912070075072, rel=1e-12)
        assert s.isotropic_radius == pytest.approx(0.018856180831641266, rel=1e-12)
