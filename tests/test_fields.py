"""Tests for trap fields: series expansions, conductor oracle, tuning."""

import math

import numpy as np
import pytest
from scipy import special as sp

from trapspec import ConfinementError, DomainError, SingularityError
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
    ip_field_series,
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
        b = ip_field_series(s, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(b, [0.0, 0.0, s.field], rtol=0, atol=1e-20)

    def test_on_axis_curvature(self):
        s = ip_scales(tuned_ip_geometry())
        for z in (1e-4, 3e-3):
            b = ip_field_series(s, 0.0, 0.0, z)
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
            np.linalg.norm(ip_field_series(s, rho, 0.0, 0.0))
        )
        assert ip_potential(PARTICLE, s, rho, 0.0) == pytest.approx(direct, rel=1e-7)

    def test_axial_coefficient_matches_field_magnitude(self):
        g = IoffePritchardGeometry(0.02, 0.02, 100.0, 0.01, 40.0)
        s = ip_scales(g)
        z = 1e-4 * s.length
        direct = PARTICLE.magnetic_moment * float(
            np.linalg.norm(ip_field_series(s, 0.0, 0.0, z))
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
        numeric = top_time_average_numeric(PARTICLE, s, x, 0.0, 0.0, tol=1e-13)
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
