"""Tests for the fixed-L partner construction: potentials, spectra, maps."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import simpson

from trapspec import DomainError, ExcludedLevelError
from trapspec.numerov import RadialProblem, overlap, solve_eigen, solve_eigens
from trapspec.oscillator3d import (
    OscillatorScales,
    radial_wavefunction_3d,
    shell_capacity,
)
from trapspec.susy import (
    input_potential,
    partner_pair,
    partner_wavefunction,
    related_systems_3d,
    superpotential,
)

NAT = OscillatorScales.natural()
SI = OscillatorScales(mass=1.44e-25, omega0=19.97912070075072)


def regular_problem(full_potential, centrifugal, scales):
    """Radial problem with the singular 1/r^2 part split off."""
    pref = scales.hbar**2 / (2.0 * scales.mass)

    def regular(r):
        return full_potential(r) - pref * centrifugal / (r * r)

    return RadialProblem(
        potential=regular,
        centrifugal=centrifugal,
        mass=scales.mass,
        r_min=1e-6 * scales.r0,
        r_max=12.0 * scales.r0,
    )


def solve_ground(full_potential, centrifugal, scales, nodes=0):
    """Shooting-solver eigenvalue with the singular 1/r^2 part split off."""
    return solve_eigen(regular_problem(full_potential, centrifugal, scales), nodes).energy


class TestSuperpotential:
    def test_stationary_point(self):
        for l in (0, 1, 4):
            u = superpotential(l, 1.0)
            assert u.derivative(math.sqrt(l + 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_derivatives_by_richardson_fd(self):
        # mpmath differentiates U(r) = r^2/2 - 3 ln r (the L = 2 tower, r0 = 1)
        # at 30 digits.
        u = superpotential(2, 1.0)
        with mp.workdps(30):
            for r in np.linspace(0.1, 10.0, 23):
                x = mp.mpf(float(r))
                first, second = (float(mp.diff(lambda t: t * t / 2 - 3 * mp.log(t), x, k))
                                 for k in (1, 2))
                assert u.derivative(r) == pytest.approx(first, rel=1e-13)
                assert u.second_derivative(r) == pytest.approx(second, rel=1e-13)

    def test_generates_input_potential(self):
        # (hbar^2/2m)(U'^2 - U'') must reproduce the tower potential; both
        # routes are kept live so the identity is checked, not assumed.
        for l in (0, 1, 3):
            u = superpotential(l, NAT.r0)
            v = input_potential(l, NAT)
            for r in np.linspace(0.05, 8.0, 40):
                combo = 0.5 * (u.derivative(r) ** 2 - u.second_derivative(r))
                assert combo == pytest.approx(v(r), rel=1e-12, abs=1e-12)

    def test_exp_minus_u_is_nodeless_ground(self):
        l = 2
        u = superpotential(l, 1.0)
        w = radial_wavefunction_3d(NAT, l, l)
        r = np.linspace(0.2, 5.0, 17)
        ratios = np.exp(-u.value(r)) / w(r)
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_rejects_nonpositive_radius(self):
        u = superpotential(0, 1.0)
        with pytest.raises(DomainError):
            u.value(0.0)
        with pytest.raises(DomainError):
            u.derivative(-1.0)

    def test_rejects_bad_construction(self):
        # Any real tower index above -3/2 is valid (planar towers use |M| - 1/2).
        with pytest.raises(DomainError):
            superpotential(-1.5, 1.0)
        with pytest.raises(DomainError):
            superpotential(0, 0.0)


class TestInputPotential:
    def test_pointwise_value_at_l0(self):
        v = input_potential(0, NAT)
        r = math.sqrt(1.5)
        assert v(r) == pytest.approx(0.5 * 1.5 - 1.5, rel=1e-14)

    def test_ground_energy_is_zero(self):
        problems = [regular_problem(input_potential(l, NAT), float(l * (l + 1)), NAT)
                    for l in (0, 2)]
        for res in solve_eigens(problems, [0, 0]):
            assert abs(res.energy) < 1e-8

    def test_si_scaling(self):
        v = input_potential(1, SI)
        r = 1.7 * SI.r0
        want = (
            SI.hbar**2 / (2.0 * SI.mass) * 2.0 / r**2
            + 0.5 * SI.mass * SI.omega0**2 * r**2
            - SI.quantum * 2.5
        )
        assert v(r) == pytest.approx(want, rel=1e-13)


class TestPartnerPair:
    def test_minus_matches_closed_form(self):
        # V- must equal (hbar^2/2m)(L+1)(L+2)/r^2 + m w0^2 r^2 / 2
        # - hbar w0 (L + 1/2) pointwise.
        for scales in (NAT, SI):
            for l in (0, 1, 3):
                pair = partner_pair(l, scales)
                pref = scales.hbar**2 / (2.0 * scales.mass)
                for u in np.linspace(0.08, 6.0, 25):
                    r = u * scales.r0
                    want = (
                        pref * (l + 1.0) * (l + 2.0) / r**2
                        + 0.5 * scales.mass * scales.omega0**2 * r**2
                        - scales.quantum * (l + 0.5)
                    )
                    assert pair.minus_potential(r) == pytest.approx(want, rel=1e-12)

    def test_plus_side_equals_input_potential(self):
        pair = partner_pair(1, NAT)
        v = input_potential(1, NAT)
        for r in np.linspace(0.1, 7.0, 20):
            assert pair.plus_potential(r) == pytest.approx(v(r), rel=1e-12, abs=1e-12)

    def test_repulsive_gap_at_l0(self):
        # V- - V+ = hbar^2 / (m r^2) + hbar w0 for the L = 0 pair.
        for scales in (NAT, SI):
            pair = partner_pair(0, scales)
            for u in (0.11, 0.9, 2.4):
                r = u * scales.r0
                gap = pair.minus_potential(r) - pair.plus_potential(r)
                want = scales.hbar**2 / (scales.mass * r**2) + scales.quantum
                assert gap == pytest.approx(want, rel=1e-12)

    def test_minus_ground_is_first_plus_excited(self):
        pair = partner_pair(0, NAT)
        e_minus = solve_ground(pair.minus_potential, 2.0, NAT)
        assert e_minus == pytest.approx(2.0, abs=1e-8)


class TestPartnerSpectrum:
    def test_first_minus_level(self):
        assert partner_pair(0, NAT).minus_spectrum(2) == pytest.approx(2.0, rel=1e-14)

    def test_degenerate_with_plus_tower(self):
        # Plus-side eigenvalues referenced to the removed ground are
        # hbar w0 (N_s - L) as well; identity holds for every valid label.
        for l in range(5):
            for n_s in range(l + 2, l + 13, 2):
                assert partner_pair(l, NAT).minus_spectrum(n_s) == pytest.approx(
                    float(n_s - l), rel=1e-14
                )

    def test_near_tower_label_is_its_level(self):
        # A label within 1e-9 of the tower stands for the tower label itself.
        pair = partner_pair(0, NAT)
        assert pair.minus_spectrum(2 + 1e-10) == 2.0
        assert pair.plus_spectrum(1e-10) == 0.0
        assert pair.partner_wavefunction(2 + 1e-10).n_principal == 1.0
        with pytest.raises(ExcludedLevelError):
            pair.minus_spectrum(1e-10)

    def test_removed_ground_raises(self):
        with pytest.raises(ExcludedLevelError):
            partner_pair(0, NAT).minus_spectrum(0)
        with pytest.raises(ExcludedLevelError):
            partner_pair(3, NAT).minus_spectrum(3)

    def test_bad_labels(self):
        with pytest.raises(DomainError):
            partner_pair(0, NAT).minus_spectrum(1)
        with pytest.raises(DomainError):
            partner_pair(2, NAT).minus_spectrum(0)
        with pytest.raises(DomainError):
            partner_wavefunction(2 + 1e-10, 0, NAT)


class TestPartnerWavefunctions:
    def test_index_map(self):
        # W-_{N_s, L} is the (N_s - 1, L + 1) oscillator profile.
        w_minus = partner_wavefunction(2, 0, NAT)
        w_mapped = radial_wavefunction_3d(NAT, 1, 1)
        r = np.linspace(0.05, 8.0, 50)
        np.testing.assert_allclose(w_minus(r), w_mapped(r), rtol=1e-13)

    def test_node_counts(self):
        r = np.linspace(1e-3, 12.0, 8001)
        first = partner_wavefunction(2, 0, NAT)(r)
        assert np.all(first > 0.0)
        second = partner_wavefunction(4, 0, NAT)(r)
        signs = np.sign(second)
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1

    def test_orthonormality(self):
        states = [partner_wavefunction(n_s, 0, NAT) for n_s in (2, 4, 6, 8)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                val = overlap(a, b, 0.0, np.inf)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-10

    def test_annihilation_of_removed_ground(self):
        # (d/dr + U') applied to W_{L,L} must vanish: the removed level has
        # no minus-side image.
        for l in (0, 2):
            u = superpotential(l, 1.0)
            w = radial_wavefunction_3d(NAT, l, l)
            r = np.linspace(0.05, 10.0, 20001)
            lowered = w.derivative(r) + u.derivative(r) * w(r)
            norm = math.sqrt(simpson(lowered**2, x=r))
            assert norm < 1e-8

    def test_numeric_minus_state_matches_map(self):
        # Shooting-solver eigenfunction of V- agrees with the index-mapped
        # analytic profile.
        pair = partner_pair(0, NAT)
        res = solve_eigen(
            RadialProblem(
                potential=lambda r: pair.minus_potential(r) - 1.0 / (r * r),
                centrifugal=2.0,
                mass=1.0,
                r_min=1e-6,
                r_max=12.0,
            ),
            0,
        )
        exact = partner_wavefunction(2, 0, NAT)(res.radii)
        i = int(np.argmax(np.abs(exact)))
        ratio = res.samples[i] / exact[i]
        np.testing.assert_allclose(res.samples, ratio * exact, atol=5e-7 * abs(ratio))


class TestRelatedSystems:
    def test_lone_particle_tower(self):
        assert related_systems_3d(0, 4) == [1, 5, 21, 57]

    def test_filled_s_shell_tower(self):
        assert related_systems_3d(1, 4) == [2, 11, 36, 85]

    def test_terms_are_shell_capacities_plus_one(self):
        for l in (0, 1):
            start = -1 if l == 0 else 0
            seq = related_systems_3d(l, 7)
            assert seq == [1 + shell_capacity(start + 2 * k) for k in range(7)]

    def test_unsupported_tower(self):
        with pytest.raises(DomainError):
            related_systems_3d(2, 4)
        with pytest.raises(DomainError):
            related_systems_3d(0, 0)
