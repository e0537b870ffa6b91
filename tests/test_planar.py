"""Tests for the driven-quadrupole and crossed-field planar trap models."""

import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import eval_genlaguerre, eval_hermite

from exact_rules import exact_gram, half_line_rule, whole_line_rule
from trapspec import DomainError, ExcludedLevelError, StabilityError
from trapspec.numerov import RadialProblem, solve_eigen, solve_eigens
from trapspec.planar import (
    MAGNETRON_CAP,
    PaulFrequencies,
    PaulParams,
    PenningFrequencies,
    PenningParams,
    paul_effective_potential,
    paul_energy,
    paul_frequencies,
    paul_related_systems,
    paul_shell_count,
    paul_wavefunctions,
    penning_energy,
    penning_frequencies,
    penning_state_count,
    penning_wavefunction,
    planar_partner,
    spectrum,
    spectrum_lists,
    static_quadrupole_potential,
    validate_planar_numbers,
)

# Natural-unit fixtures: unit secular frequency for the driven trap
# (80^2 / (4 * 1600) = 1) and an irrational frequency triple for the static
# one (hybrid sqrt(7 - 2) = sqrt(5)).
PAUL = PaulFrequencies(quadrupole=80.0, drive=1600.0, mass=1.0, hbar=1.0)
PENNING = PenningFrequencies(axial=1.0, cyclotron=math.sqrt(7.0), mass=1.0, hbar=1.0)

E_CHARGE = 1.602176634e-19


def si_paul_params():
    return PaulParams(
        voltage=5.0,
        size=1.0e-3,
        drive=2.0 * math.pi * 20.0e6,
        charge=E_CHARGE,
        mass=6.642156e-26,
    )


def radial_problem(omega, abs_m, mass=1.0):
    """The 2D radial equation with the M^2-1/4 barrier."""
    return RadialProblem(
        potential=lambda r: 0.5 * mass * omega**2 * r * r,
        centrifugal=abs_m * abs_m - 0.25,
        mass=mass,
        r_min=1e-6 / math.sqrt(mass * omega),
        r_max=12.0 / math.sqrt(mass * omega),
        origin_exponent=abs_m + 0.5,
    )


def radial_oracle(omega, abs_m, n_nodes, mass=1.0):
    """Shooting eigenvalue of the 2D radial equation with the M^2-1/4 barrier."""
    return solve_eigen(radial_problem(omega, abs_m, mass), n_nodes).energy


def radial_oracles(omega, cases):
    """Shooting eigenvalues for (N, M, K) cases, from one batched solve."""
    results = solve_eigens([radial_problem(omega, abs(m)) for _, m, _ in cases],
                           [(n - abs(m)) // 2 for n, m, _ in cases])
    return [res.energy for res in results]


class TestPaulFrequencies:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            PaulParams(5.0, 0.0, 1e8, E_CHARGE, 1e-25)
        with pytest.raises(DomainError):
            PaulParams(0.0, 1e-3, 1e8, E_CHARGE, 1e-25)
        with pytest.raises(DomainError):
            PaulParams(5.0, 1e-3, 1e8, 0.0, 1e-25)

    def test_quadrupole_frequency_scaling(self):
        p = si_paul_params()
        quad = PaulParams(4.0 * p.voltage, p.size, p.drive, p.charge, p.mass)
        f1 = paul_frequencies(p)
        f4 = paul_frequencies(quad)
        assert f4.quadrupole == pytest.approx(2.0 * f1.quadrupole, rel=1e-14)

    def test_secular_frequency_drive_scaling(self):
        p = si_paul_params()
        slow = PaulParams(p.voltage, p.size, p.drive / 2.0, p.charge, p.mass)
        f_fast = paul_frequencies(p)
        f_slow = paul_frequencies(slow)
        assert f_slow.secular == pytest.approx(2.0 * f_fast.secular, rel=1e-14)

    def test_length_frequency_identity(self):
        f = paul_frequencies(si_paul_params())
        assert f.radial_scales.r0**2 * f.secular == pytest.approx(
            f.hbar / f.mass, rel=1e-12
        )

    def test_slow_drive_warns(self):
        p = si_paul_params()
        f = paul_frequencies(p)
        slow = PaulParams(p.voltage, p.size, 9.0 * f.quadrupole, p.charge, p.mass)
        with pytest.warns(UserWarning, match="ratio"):
            paul_frequencies(slow)

    def test_reference_numbers(self):
        f = paul_frequencies(si_paul_params())
        assert f.secular == pytest.approx(33932.54777128917, rel=1e-12)
        assert f.drive_ratio > 10.0


class TestPaulPotentials:
    def test_static_quadrupole_value_and_laplace(self):
        p = si_paul_params()
        assert static_quadrupole_potential(p, 0.0, 1e-4) == pytest.approx(
            p.voltage / (2.0 * p.size**2) * 1e-8, rel=1e-14
        )
        # axisymmetric Laplacian d2/dz2 + (1/rho) d/drho (rho d/drho) = 0
        h = 1e-6
        rho, z = 3e-4, 2e-4
        d2z = (
            static_quadrupole_potential(p, rho, z + h)
            - 2.0 * static_quadrupole_potential(p, rho, z)
            + static_quadrupole_potential(p, rho, z - h)
        ) / h**2
        dr = lambda r: (
            static_quadrupole_potential(p, r + h, z)
            - static_quadrupole_potential(p, r - h, z)
        ) / (2.0 * h)
        radial = (dr(rho) + rho * (dr(rho + h) - dr(rho - h)) / (2.0 * h)) / rho
        scale = abs(d2z)
        assert abs(d2z + radial) < 1e-6 * scale

    def test_effective_potential_shape(self):
        f = paul_frequencies(si_paul_params())
        assert paul_effective_potential(f, 0.0, 0.0) == 0.0
        s = 1e-5
        ratio = paul_effective_potential(f, 0.0, s) / paul_effective_potential(
            f, s, 0.0
        )
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_effective_potential_from_gradient_identity(self):
        # (q^2 / 4 m drive^2) |grad Phi|^2 with the static quadrupole Phi
        # must reproduce the closed-form well pointwise.
        p = si_paul_params()
        f = paul_frequencies(p)
        front = p.charge**2 / (4.0 * p.mass * p.drive**2)
        for rho, z in ((1e-4, 0.0), (2e-4, 1e-4), (0.0, 3e-4)):
            gr = -p.voltage / (2.0 * p.size**2) * rho
            gz = p.voltage / p.size**2 * z
            want = front * (gr * gr + gz * gz)
            assert paul_effective_potential(f, rho, z) == pytest.approx(
                want, rel=1e-12
            )


class TestPaulEnergies:
    def test_ground_level(self):
        assert paul_energy(PAUL, 0, 0) == pytest.approx(2.0, rel=1e-14)

    def test_level_formula(self):
        for n, k in ((2, 0), (1, 3), (4, 2)):
            assert paul_energy(PAUL, n, k) == pytest.approx(
                float(n + 2 * k + 2), rel=1e-14
            )

    def test_invalid_numbers(self):
        with pytest.raises(DomainError):
            paul_energy(PAUL, -1, 0)
        with pytest.raises(DomainError):
            paul_energy(PAUL, 0, -1)
        with pytest.raises(DomainError):
            validate_planar_numbers(2, 1, 0)  # parity
        with pytest.raises(DomainError):
            validate_planar_numbers(1, 2, 0)  # N < |M|

    def test_separation_against_radial_oracle(self):
        # 2D radial eigenvalue + hbar w_p (2K + 1) axial offset = E_{N,K}.
        cases = ((0, 0, 0), (2, 2, 1), (3, 1, 0))
        for (n, m, k), e2d in zip(cases, radial_oracles(PAUL.secular, cases)):
            total = e2d + PAUL.quantum * (2 * k + 1)
            assert total == pytest.approx(paul_energy(PAUL, n, k), rel=1e-6)


class TestPaulWavefunctions:
    def test_ground_radial_nodeless(self):
        x = paul_wavefunctions(PAUL, 0, 0, 0).radial
        rho = np.linspace(1e-3, 8.0, 3001)
        assert np.all(x(rho) > 0.0)

    def test_axial_norm(self):
        for k in (0, 1, 5, 12):
            axial = paul_wavefunctions(PAUL, 0, 0, k).axial
            assert abs(exact_gram([axial], whole_line=True)[0, 0] - 1.0) < 1e-10

    def test_even_axial_derivative_vanishes_at_center(self):
        # Even K sits at tower index -1, where u**-1 meets a bracket that is 0 at u = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 2, 4, 10):
                assert paul_wavefunctions(PAUL, 0, 0, k).axial.derivative(0.0) == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 10, 11])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_axial_derivative_matches_central_difference(self, k, sign):
        axial = paul_wavefunctions(PAUL, 0, 0, k).axial
        z, h = sign * 1e-3 * axial.r0, 1e-6 * axial.r0
        difference = (axial(z + h) - axial(z - h)) / (2.0 * h)
        assert axial.derivative(z) == pytest.approx(difference, rel=1e-6, abs=1e-12 / axial.r0)

    def test_axial_scale_is_double_frequency(self):
        axial = paul_wavefunctions(PAUL, 0, 0, 0).axial
        assert axial.r0 == pytest.approx(PAUL.radial_scales.r0 / math.sqrt(2.0), rel=1e-14)

    def test_radial_orthonormality(self):
        for m in (0, 2):
            states = [
                paul_wavefunctions(PAUL, m + 2 * j, m, 0).radial for j in range(4)
            ]
            assert np.max(np.abs(exact_gram(states) - np.eye(4))) < 1e-10

    def test_node_count(self):
        rho = np.linspace(1e-3, 10.0, 8001)
        for n, m in ((4, 0), (6, 2), (5, 1)):
            vals = paul_wavefunctions(PAUL, n, m, 0).radial(rho)
            signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))])
            assert int(np.sum(signs[:-1] * signs[1:] < 0)) == (n - m) // 2


class TestPlanarPartner:
    # The pairs are the 3D PartnerPair at lam = |M| - 1/2; their labels are
    # tower labels N - 1/2.

    def test_minus_is_shifted_next_tower(self):
        pair = planar_partner(PAUL, 1)
        upper = planar_partner(PAUL, 2)
        for rho in (0.2, 0.9, 2.5):
            assert pair.minus_potential(rho) == pytest.approx(
                upper.plus_potential(rho) + 2.0 * PAUL.quantum, rel=1e-13
            )

    def test_gap_is_repulsive(self):
        pair = planar_partner(PAUL, 0)
        for rho in (0.1, 0.7, 2.0):
            gap = pair.minus_potential(rho) - pair.plus_potential(rho)
            want = 0.5 / rho**2 + 1.0  # (hbar^2/2m)(2|M|+1)/rho^2 + hbar w
            assert gap == pytest.approx(want, rel=1e-12)
            assert gap > 0.0

    def test_tower_spectra(self):
        pair = planar_partner(PAUL, 2)
        assert pair.plus_spectrum(2 - 0.5) == 0.0
        assert pair.plus_spectrum(6 - 0.5) == pytest.approx(4.0)
        assert pair.minus_spectrum(4 - 0.5) == pytest.approx(2.0)
        with pytest.raises(ExcludedLevelError):
            pair.minus_spectrum(2 - 0.5)
        with pytest.raises(DomainError):
            pair.minus_spectrum(3 - 0.5)

    def test_minus_ground_energy_numeric(self):
        # Lowest minus-side level (two quanta above the removed ground).
        pair = planar_partner(PAUL, 0)
        m_up = 1
        e = radial_oracle(PAUL.secular, m_up, 0)  # inner tower |M|+1
        # V- = V+(|M|+1) + 2 hbar w; ground-referencing shifts cancel:
        e_minus = e - PAUL.quantum * (m_up + 1) + 2.0 * PAUL.quantum
        assert e_minus == pytest.approx(pair.minus_spectrum(2 - 0.5), rel=1e-6)

    def test_wavefunction_index_map(self):
        pair = planar_partner(PAUL, 1)
        mapped = pair.partner_wavefunction(3 - 0.5)
        direct = paul_wavefunctions(PAUL, 2, 2, 0).radial
        rho = np.linspace(0.05, 7.0, 40)
        np.testing.assert_allclose(mapped(rho), direct(rho), rtol=1e-12)

    def test_lowest_partner_state_nodeless(self):
        pair = planar_partner(PAUL, 2)
        rho = np.linspace(1e-3, 9.0, 4001)
        assert np.all(pair.partner_wavefunction(4 - 0.5)(rho) > 0.0)

    def test_annihilation_of_ground(self):
        pair = planar_partner(PAUL, 1)
        ground = paul_wavefunctions(PAUL, 1, 1, 0).radial
        rho = np.linspace(0.02, 9.0, 20001)
        lowered = ground.derivative(rho) + pair.generator.derivative(rho) * ground(rho)
        norm = math.sqrt(integrate.simpson(lowered**2, x=rho))
        assert norm < 1e-8

    def test_superpotential_stationary_at_ground_peak(self):
        pair = planar_partner(PAUL, 3)
        peak = pair.generator.r0 * math.sqrt(3.5)
        assert pair.generator.derivative(peak) == pytest.approx(0.0, abs=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            planar_partner(PAUL, -1)
        pair = planar_partner(PAUL, 0)
        with pytest.raises(DomainError):
            pair.generator.derivative(0.0)


def planar_profile_reference(n_radial, abs_m, length, rho):
    """X = sqrt(2 n!/(s Gamma(n+|M|+1))) u^{|M|+1/2} e^{-u^2/2} L_n^{|M|}(u^2), n = (N-|M|)/2."""
    n = (n_radial - abs_m) // 2
    log_c2 = math.log(2.0) + math.lgamma(n + 1.0) - math.log(length) - math.lgamma(n + abs_m + 1.0)
    u = rho / length
    return (
        math.exp(0.5 * log_c2) * u ** (abs_m + 0.5) * np.exp(-0.5 * u * u)
        * eval_genlaguerre(n, abs_m, u * u)
    )


class TestRadialFactorProperty:
    # The Paul and Penning radial factors are the 3D tower at lam = |M| - 1/2;
    # an inline planar formula evaluated through scipy is the independent route.

    @settings(max_examples=150, deadline=None)
    @given(
        abs_m=st.integers(0, 30),
        degree=st.integers(0, 30),
        length=st.floats(1e-7, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_paul_and_penning_match_planar_formula(self, abs_m, degree, length):
        n = abs_m + 2 * degree
        # Out to the classical turning point s sqrt(2N + 2), plus six lengths.
        rho = np.linspace(0.0, length * (math.sqrt(2.0 * n + 2.0) + 6.0), 400)
        want = planar_profile_reference(n, abs_m, length, rho)
        tol = 1e-12 * np.max(np.abs(want))

        secular = 1.0 / length**2  # length = sqrt(hbar/(m w)) with hbar = m = 1
        # (40 w)^2 / (4 * 400 w) = w
        paul = PaulFrequencies(quadrupole=40.0 * secular, drive=400.0 * secular, mass=1.0, hbar=1.0)
        hybrid = 2.0 * secular  # the Penning radial frequency is hybrid / 2
        penning = PenningFrequencies(
            axial=secular, cyclotron=math.sqrt(hybrid**2 + 2.0 * secular**2), mass=1.0, hbar=1.0,
        )
        factors = (
            paul_wavefunctions(paul, n, abs_m, 0).radial,
            penning_wavefunction(penning, n, 0, -abs_m).radial,
        )
        for got in factors:
            assert np.max(np.abs(got(rho) - want)) <= tol


def axial_reference(k_axial, length, z):
    """Z_K = (s 2^K K! sqrt(pi))^{-1/2} e^{-u^2/2} H_K(u), u = z/s, through scipy's H_K."""
    log_norm = -0.5 * (
        math.log(length) + k_axial * math.log(2.0) + math.lgamma(k_axial + 1.0)
        + 0.5 * math.log(math.pi)
    )
    u = z / length
    return math.exp(log_norm) * np.exp(-0.5 * u * u) * eval_hermite(k_axial, u)


class TestAxialFactorProperty:
    # The axial factor is the tower at lam = K mod 2 - 1 with a sign and a
    # whole-line norm; the textbook Hermite form through scipy is the
    # independent route.

    @settings(max_examples=150, deadline=None)
    @given(
        k_axial=st.integers(0, 120),
        length=st.floats(1e-7, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_paul_and_penning_match_hermite_formula(self, k_axial, length):
        # Out to the classical turning point s sqrt(2K + 1), plus six lengths.
        half = length * (math.sqrt(2.0 * k_axial + 1.0) + 6.0)
        z = np.linspace(-half, half, 801)
        want = axial_reference(k_axial, length, z)
        tol = 1e-12 * np.max(np.abs(want))

        omega = 1.0 / length**2  # length = sqrt(hbar/(m w)) with hbar = m = 1
        # Paul: axial frequency 2 w_p, and (40 w)^2 / (4 * 400 w) = w.
        w_p = 0.5 * omega
        paul = PaulFrequencies(quadrupole=40.0 * w_p, drive=400.0 * w_p, mass=1.0, hbar=1.0)
        penning = PenningFrequencies(axial=omega, cyclotron=2.0 * omega, mass=1.0, hbar=1.0)
        factors = (
            paul_wavefunctions(paul, 0, 0, k_axial).axial,
            penning_wavefunction(penning, 0, k_axial, 0).axial,
        )
        for got in factors:
            assert np.max(np.abs(got(z) - want)) <= tol


class TestPlanarState:
    def test_azimuthal_phase(self):
        # psi = X(rho)/sqrt(rho) Z(z) e^{iM phi}/sqrt(2 pi) for both traps.
        rho, phi, z = 0.7, math.pi / 4.0, 0.3
        for state in (paul_wavefunctions(PAUL, 2, 2, 1), penning_wavefunction(PENNING, 2, 1, -2)):
            base = state.radial(rho) / math.sqrt(rho) * state.axial(z) / math.sqrt(2.0 * math.pi)
            assert state(rho, 0.0, z) == pytest.approx(base, rel=1e-14)
            assert state(rho, phi, z) == pytest.approx(
                base * np.exp(1j * state.m_azimuthal * phi), rel=1e-14
            )

    def test_high_axial_level_is_finite_and_normalized(self):
        axial = paul_wavefunctions(PAUL, 0, 0, 300).axial
        # The support ends a few lengths past the turning point sqrt(601).
        half = axial.r0 * (math.sqrt(601.0) + 10.0)
        z = np.linspace(-half, half, 40001)
        values = axial(z)
        assert np.all(np.isfinite(values))
        assert abs(np.trapezoid(values**2, z) - 1.0) < 1e-8


class TestPaulShellCounts:
    def test_first_values(self):
        assert paul_shell_count(2) == 2
        assert paul_shell_count(3) == 6

    def test_matches_enumeration(self):
        # Count (N, M, K) triples with N + 2K + 2 <= E_tilde, two spins each.
        for e_tilde in range(2, 31):
            count = 0
            for m in range(-e_tilde, e_tilde + 1):
                for n in range(abs(m), e_tilde + 1, 2):
                    for k in range(0, e_tilde):
                        if n + 2 * k + 2 <= e_tilde:
                            count += 2
            assert paul_shell_count(e_tilde) == count

    def test_domain(self):
        with pytest.raises(DomainError):
            paul_shell_count(1)
        with pytest.raises(DomainError):
            paul_shell_count(2.5)

    def test_related_systems(self):
        assert paul_related_systems(7) == [1, 3, 7, 15, 27, 45, 69]
        seq = paul_related_systems(5)
        assert seq[1:] == [paul_shell_count(e) + 1 for e in range(2, 6)]
        with pytest.raises(DomainError):
            paul_related_systems(0)


class TestPenningFrequencies:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            PenningParams(10.0, 3e-3, 5.0, -E_CHARGE, 1e-25)
        with pytest.raises(DomainError):
            PenningParams(10.0, 3e-3, 0.0, E_CHARGE, 1e-25)

    def test_hybrid_frequency_algebra(self):
        # With w_z = 1 and w_c = 2 the hybrid frequency is sqrt(2).
        params = PenningParams(
            voltage=1.0, size=1.0, axial_field=2.0, charge=1.0, mass=1.0
        )
        f = penning_frequencies(params)
        assert f.axial == pytest.approx(1.0, rel=1e-14)
        assert f.cyclotron == pytest.approx(2.0, rel=1e-14)
        assert f.hybrid == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_boundary_tuning_rejected(self):
        # w_z^2 = 2 and w_c^2 = 4 put the discriminant at exactly zero.
        params = PenningParams(
            voltage=2.0, size=1.0, axial_field=2.0, charge=1.0, mass=1.0
        )
        with pytest.raises(StabilityError):
            penning_frequencies(params)
        weak = PenningParams(
            voltage=1.0, size=1.0, axial_field=1.0, charge=1.0, mass=1.0
        )
        with pytest.raises(StabilityError):
            penning_frequencies(weak)

    def test_tuning_in_unit_interval(self):
        for b in (1.5, 2.0, 40.0):
            params = PenningParams(
                voltage=1.0, size=1.0, axial_field=b, charge=1.0, mass=1.0
            )
            f = penning_frequencies(params)
            assert 0.0 < f.tuning < 1.0

    def test_unstable_record_rejected(self):
        with pytest.raises(StabilityError):
            PenningFrequencies(axial=1.0, cyclotron=1.0, mass=1.0)

    def test_characteristic_lengths(self):
        f = PENNING
        assert f.axial_scales.r0 == pytest.approx(1.0, rel=1e-13)
        assert f.radial_scales.r0 == pytest.approx(
            math.sqrt(2.0) * 5.0**-0.25, rel=1e-13
        )


class TestPenningEnergies:
    def test_ground_level(self):
        want = 0.5 * (PENNING.hybrid + PENNING.axial)
        assert penning_energy(PENNING, 0, 0, 0) == pytest.approx(want, rel=1e-14)

    def test_magnetron_descent(self):
        # At fixed N and K the energy falls linearly with M.
        levels = [penning_energy(PENNING, 4, 0, m) for m in (-4, -2, 0, 2, 4)]
        gaps = np.diff(levels)
        np.testing.assert_allclose(gaps, -PENNING.cyclotron, rtol=1e-12)

    def test_matches_radial_oracle(self):
        cases = ((0, 0, 0), (2, -2, 1), (3, 1, 2))
        for (n, m, k), e_radial in zip(cases, radial_oracles(0.5 * PENNING.hybrid, cases)):
            want = (
                e_radial
                - 0.5 * PENNING.cyclotron * m
                + PENNING.axial * (k + 0.5)
            )
            assert penning_energy(PENNING, n, k, m) == pytest.approx(want, rel=1e-6)

    def test_magnetron_cap(self):
        with pytest.raises(DomainError):
            penning_energy(PENNING, 102, 0, 102)

    def test_level_injectivity(self):
        energies = []
        for m in range(-6, 7):
            for n in range(abs(m), 7):
                if (n - abs(m)) % 2:
                    continue
                for k in range(7):
                    energies.append(penning_energy(PENNING, n, k, m))
        energies.sort()
        gaps = np.diff(energies)
        assert np.min(gaps) > 1e-9


def per_row_levels(energy, max_n, max_k):
    """Arrays (N, M, K, E) from one ``energy(n, m, k)`` call a row, sorted by (E, N, K, M)."""
    rows = sorted(
        ((n, m, k, energy(n, m, k))
         for n in range(max_n + 1) for m in range(-n, n + 1, 2) for k in range(max_k + 1)),
        key=lambda row: (row[3], row[0], row[2], row[1]),
    )
    return [np.array(column) for column in zip(*rows)]


class TestSpectrumArrays:
    # w_c = 2 w_z: levels at one N tie whenever K - M does, so the key's order counts.
    TIED = PenningFrequencies(axial=1.0, cyclotron=2.0, mass=1.0, hbar=1.0)

    @staticmethod
    def assert_same_rows(got, want):
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        assert got[3].view(np.int64).tolist() == want[3].view(np.int64).tolist()  # every bit

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["PENNING", "TIED"]), st.integers(0, 12), st.integers(0, 5))
    def test_penning_matches_the_per_row_loop(self, which, max_n, max_k):
        freqs = {"PENNING": PENNING, "TIED": self.TIED}[which]
        self.assert_same_rows(
            spectrum(freqs, max_n, max_k),
            per_row_levels(lambda n, m, k: penning_energy(freqs, n, k, m), max_n, max_k),
        )

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 12), st.integers(0, 5))
    def test_paul_matches_the_per_row_loop(self, max_n, max_k):
        self.assert_same_rows(
            spectrum(PAUL, max_n, max_k),
            per_row_levels(lambda n, m, k: paul_energy(PAUL, n, k), max_n, max_k),
        )

    @pytest.mark.parametrize("max_n", [MAGNETRON_CAP + 1, 2 * MAGNETRON_CAP])
    def test_cap_error_names_the_first_label_past_it(self, max_n):
        with pytest.raises(DomainError, match=r"^\(N\+M\)/2 = 51 exceeds the magnetron cap 50"):
            spectrum(PENNING, max_n, 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["PAUL", "PENNING", "TIED"]), st.integers(0, 12), st.integers(0, 5))
    def test_lists_hold_the_arrays_rows(self, which, max_n, max_k):
        freqs = {"PAUL": PAUL, "PENNING": PENNING, "TIED": self.TIED}[which]
        arrays = spectrum(freqs, max_n, max_k)
        lists = spectrum_lists(freqs, max_n, max_k)
        assert [type(c) for c in lists] == [list] * 4
        assert {type(v) for c in lists[:3] for v in c} == {int}
        assert lists[:3] == tuple(a.tolist() for a in arrays[:3])
        assert np.array(lists[3]).view(np.int64).tolist() == arrays[3].view(np.int64).tolist()

    @pytest.mark.parametrize("max_n", [MAGNETRON_CAP + 1, 2 * MAGNETRON_CAP])
    def test_lists_check_the_cap_as_the_arrays(self, max_n):
        with pytest.raises(DomainError, match=r"^\(N\+M\)/2 = 51 exceeds the magnetron cap 50"):
            spectrum_lists(PENNING, max_n, 0)

    def test_at_the_cap_every_row_is_present(self):
        n, m, k, _ = spectrum(PENNING, MAGNETRON_CAP, 1)
        assert len(n) == (MAGNETRON_CAP + 1) * (MAGNETRON_CAP + 2) // 2 * 2
        assert ((n + m) // 2).max() == MAGNETRON_CAP


class TestPenningStates:
    def test_ground_state_nodeless(self):
        psi = penning_wavefunction(PENNING, 0, 0, 0)
        rho = np.linspace(1e-3, 6.0, 500)
        vals = psi(rho, 0.0, 0.4).real
        assert np.all(vals > 0.0)
        z = np.linspace(-5.0, 5.0, 401)
        assert np.all(psi(1.0, 0.0, z).real > 0.0)

    def test_three_dimensional_norm(self):
        # The product of the exact rules of |X|^2 (half line) and |Z|^2 (whole line).
        psi = penning_wavefunction(PENNING, 2, 1, -2)
        rho, w_rho = half_line_rule(psi.radial.l_angular + 0.5, psi.radial.r0)
        z, w_z = whole_line_rule(psi.axial.r0)
        density = 2.0 * math.pi * rho[:, None] * abs(psi(rho[:, None], 0.0, z)) ** 2
        assert abs(w_rho @ density @ w_z - 1.0) < 1e-8

    def test_energy_attached(self):
        psi = penning_wavefunction(PENNING, 2, 0, 2)
        assert psi.energy == pytest.approx(penning_energy(PENNING, 2, 0, 2), rel=1e-14)

    def test_radial_factor_matches_partner_map(self):
        pair = planar_partner(PENNING, 1)
        mapped = pair.partner_wavefunction(3 - 0.5)
        direct = penning_wavefunction(PENNING, 2, 0, 2).radial
        rho = np.linspace(0.05, 6.0, 30)
        np.testing.assert_allclose(mapped(rho), direct(rho), rtol=1e-12)

    def test_partner_tower_spacing(self):
        # Penning partner towers step by hbar Omega (twice the radial quantum).
        pair = planar_partner(PENNING, 0)
        assert pair.scales.omega0 == pytest.approx(0.5 * PENNING.hybrid, rel=1e-14)
        step = pair.minus_spectrum(4 - 0.5) - pair.minus_spectrum(2 - 0.5)
        assert step == pytest.approx(PENNING.hybrid, rel=1e-13)


class TestPenningCounting:
    def brute_count(self, freqs, energy_cap, magnetron_cap):
        """Triple loop over (K, M, N) with generous hard ranges."""
        count = 0
        for k in range(0, 200):
            for m in range(-200, magnetron_cap + 1):
                for n in range(abs(m), abs(m) + 400, 2):
                    if (n + m) // 2 > magnetron_cap:
                        break
                    e = 0.5 * (
                        freqs.hybrid * n
                        - freqs.cyclotron * m
                        + freqs.hybrid
                        + freqs.axial
                    ) + freqs.axial * k
                    if e > energy_cap:
                        break  # energy increases with N at fixed (M, K)
                    count += 2
        return count

    def test_matches_enumeration(self):
        # w_c = 2 w_z: each cap ground + k hbar w_z sits exactly on the level (0, k, 0).
        tied = TestSpectrumArrays.TIED
        ground = penning_energy(tied, 0, 0, 0)
        cases = [(PENNING, cap) for cap in (3.0, 5.5, 8.2)]
        cases += [(tied, ground + k * tied.hbar * tied.axial) for k in (0, 1, 4, 9)]
        for freqs, cap in cases:
            got = penning_state_count(freqs, cap)
            assert type(got) is int and got == self.brute_count(freqs, cap, MAGNETRON_CAP)

    def test_count_grows_with_cap(self):
        counts = [penning_state_count(PENNING, cap) for cap in (2.0, 4.0, 6.0, 8.0)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    @pytest.mark.parametrize("freqs, energy_cap", [
        (PENNING, 1e6),
        (PENNING, 1e300),
        (PENNING, sys.float_info.max),
        (PenningFrequencies(axial=1e-9, cyclotron=1.0, mass=1.0, hbar=1.0), 2.0),
    ], ids=["1e6", "1e300", "float-max", "slow-axial"])
    def test_cap_too_large_to_enumerate(self, freqs, energy_cap):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"^energy_cap "):
            penning_state_count(freqs, energy_cap)
        assert time.perf_counter() - start < 1.0

    def test_cap_below_every_level(self):
        assert penning_state_count(PENNING, -sys.float_info.max) == 0

    def test_array_of_caps_matches_one_cap_calls(self):
        rng = np.random.default_rng(11)
        for freqs in (PENNING, TestSpectrumArrays.TIED):
            ground = penning_energy(freqs, 0, 0, 0)
            caps = ground + np.arange(41) * freqs.hbar * freqs.axial  # as the shells command
            caps = np.concatenate([caps, rng.uniform(ground - 1.0, caps[-1], 8), [-1e300]])
            got = penning_state_count(freqs, caps)
            assert got.dtype == np.int64
            assert got.tolist() == [penning_state_count(freqs, float(cap)) for cap in caps]
        assert penning_state_count(PENNING, np.empty(0)).shape == (0,)

    def test_array_of_caps_checks_every_cap(self):
        with pytest.raises(DomainError, match=r"^energy_cap must be finite, got nan$"):
            penning_state_count(PENNING, [3.0, math.nan, 4.0])
        with pytest.raises(DomainError, match=r"^energy_cap 1e\+300 is too large"):
            penning_state_count(PENNING, [3.0, 1e300])
        with pytest.raises(DomainError, match=r"^energy_cap must be one cap or a 1-D array"):
            penning_state_count(PENNING, [[3.0]])
