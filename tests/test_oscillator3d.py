"""Tests for the 3D isotropic-trap spectrum, eigenfunctions, and shell counts."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from exact_rules import exact_gram, half_line_rule
from trapspec import DomainError
from trapspec.oscillator3d import (
    OscillatorScales,
    allowed_angular,
    degeneracy,
    energy_3d,
    radial_wavefunction_3d,
    shell_capacity,
    valence_total,
    validate_quantum_numbers_3d,
)

NAT = OscillatorScales.natural()


def brute_degeneracy(n):
    """Cartesian enumeration: states (nx, ny, nz) with nx+ny+nz = n."""
    return sum(
        1
        for nx, ny, nz in itertools.product(range(n + 1), repeat=3)
        if nx + ny + nz == n
    )


class TestScales:
    def test_r0_and_quantum(self):
        s = OscillatorScales(mass=2.0, omega0=5.0, hbar=3.0)
        assert s.r0 == pytest.approx(math.sqrt(3.0 / 10.0), rel=1e-14)
        assert s.quantum == pytest.approx(15.0, rel=1e-14)

    def test_natural_mode(self):
        assert NAT.r0 == 1.0
        assert NAT.quantum == 1.0
        assert NAT.energy_offset == 0.0

    def test_invalid_scales_rejected(self):
        with pytest.raises(DomainError):
            OscillatorScales(mass=0.0, omega0=1.0)
        with pytest.raises(DomainError):
            OscillatorScales(mass=1.0, omega0=-2.0)


class TestEnergies:
    def test_ground_level(self):
        s = OscillatorScales(mass=1.0, omega0=2.0, energy_offset=7.0, hbar=1.0)
        assert energy_3d(s, 0) == pytest.approx(7.0 + 1.5 * 2.0, rel=1e-14)

    def test_even_ladder_spacing(self):
        s = OscillatorScales(mass=1.44e-25, omega0=20.0, energy_offset=1e-28)
        for n in range(0, 14, 2):
            gap = energy_3d(s, n + 2) - energy_3d(s, n)
            assert gap == pytest.approx(2.0 * s.quantum, rel=1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            energy_3d(NAT, -1)


class TestQuantumNumberValidation:
    def test_allowed_angular_parity(self):
        assert allowed_angular(0) == [0]
        assert allowed_angular(1) == [1]
        assert allowed_angular(5) == [1, 3, 5]
        assert allowed_angular(6) == [0, 2, 4, 6]

    def test_angular_multiplicities_recover_degeneracy(self):
        # sum over allowed L of (2L+1) must reproduce the Cartesian count.
        for n in range(11):
            total = sum(2 * l + 1 for l in allowed_angular(n))
            assert total == brute_degeneracy(n)

    def test_rejects_bad_combinations(self):
        with pytest.raises(DomainError):
            validate_quantum_numbers_3d(2, 1)  # parity mismatch
        with pytest.raises(DomainError):
            validate_quantum_numbers_3d(2, 4)  # L > N
        with pytest.raises(DomainError):
            validate_quantum_numbers_3d(4, 2, 3)  # |M| > L
        with pytest.raises(DomainError):
            validate_quantum_numbers_3d(-2, 0)

    def test_accepts_valid_combinations(self):
        validate_quantum_numbers_3d(6, 4, -3)
        validate_quantum_numbers_3d(0, 0, 0)


class TestRadialEigenstates:
    def test_ground_state_has_no_nodes(self):
        w = radial_wavefunction_3d(NAT, 0, 0)
        r = np.linspace(1e-4, 10.0, 5001)
        assert np.all(w(r) > 0.0)

    def test_node_counts(self):
        r = np.linspace(1e-4, 12.0, 20001)
        for n in range(0, 13):
            for l in allowed_angular(n):
                vals = radial_wavefunction_3d(NAT, n, l)(r)
                signs = np.sign(vals)
                flips = int(np.sum(signs[:-1] * signs[1:] < 0))
                assert flips == (n - l) // 2, (n, l)

    def test_orthonormality_by_quadrature(self):
        for l in (0, 1, 3):
            states = [radial_wavefunction_3d(NAT, l + 2 * k, l) for k in range(5)]
            assert np.max(np.abs(exact_gram(states) - np.eye(5))) < 1e-10

    def test_virial_balance(self):
        # For every eigenstate the potential expectation is half the
        # oscillator energy: <r^2>/2 = (N + 3/2)/2 in natural units.
        for n, l in ((0, 0), (4, 2), (9, 3), (12, 0)):
            r, w = half_line_rule(l + 0.5, NAT.r0)
            val = w @ (0.5 * r * r * radial_wavefunction_3d(NAT, n, l)(r) ** 2)
            assert val == pytest.approx(0.5 * (n + 1.5), rel=1e-8)

    def test_kinetic_energy_by_quadrature(self):
        # <T> = E - <V> with the centrifugal term included in T; checked
        # directly from the analytic derivative and the L(L+1)/2r^2 weight.
        n, l = 6, 2
        state = radial_wavefunction_3d(NAT, n, l)
        r, w = half_line_rule(l - 0.5, NAT.r0)  # W'^2 and W^2 / r^2 carry t^(l - 1/2)
        t_density = 0.5 * state.derivative(r) ** 2 + 0.5 * l * (l + 1) / r**2 * state(r) ** 2
        assert w @ t_density == pytest.approx(0.5 * (n + 1.5), rel=1e-8)

    def test_derivative_finite_difference(self):
        w = radial_wavefunction_3d(NAT, 8, 2)
        h = 1e-6
        for r in (0.3, 1.0, 2.2, 3.7):
            fd = (w(r + h) - w(r - h)) / (2 * h)
            assert w.derivative(r) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_energy_field(self):
        s = OscillatorScales(mass=1.44e-25, omega0=20.0, energy_offset=9.2e-24)
        w = radial_wavefunction_3d(s, 4, 2)
        assert w.energy == pytest.approx(energy_3d(s, 4), rel=1e-14)

    def test_scaled_profile_matches_natural(self):
        s = OscillatorScales(mass=1.44e-25, omega0=20.0)
        wn = radial_wavefunction_3d(NAT, 5, 1)
        ws = radial_wavefunction_3d(s, 5, 1)
        for u in (0.2, 0.9, 1.8, 3.0):
            # W scales as 1/sqrt(r0) at fixed r/r0.
            assert ws(u * s.r0) == pytest.approx(
                wn(u) / math.sqrt(s.r0), rel=1e-12
            )

    def test_completeness_at_fixed_angular(self):
        # A Gaussian bump expanded over the L=0 tower with N <= 30 must
        # reconstruct itself to small L2 error.  The displacement is
        # symmetrized so the odd extension through r = 0 stays smooth.
        def target(r):
            return r * (np.exp(-((r - 1.2) ** 2)) + np.exp(-((r + 1.2) ** 2)))

        norm2, _ = integrate.quad(lambda r: target(r) ** 2, 0.0, np.inf, limit=200)
        states = [radial_wavefunction_3d(NAT, n, 0) for n in range(0, 31, 2)]
        coeffs = []
        for w in states:
            c, _ = integrate.quad(lambda r: target(r) * w(r), 0.0, np.inf, limit=200)
            coeffs.append(c)
        residual = norm2 - sum(c * c for c in coeffs)
        assert residual / norm2 < 1e-6

    def test_invalid_pair_rejected(self):
        with pytest.raises(DomainError):
            radial_wavefunction_3d(NAT, 3, 0)


class TestShellCombinatorics:
    def test_degeneracy_small_values(self):
        assert degeneracy(0) == 1
        assert degeneracy(1) == 3
        assert degeneracy(7) == 36

    def test_degeneracy_matches_cartesian_enumeration(self):
        for n in range(11):
            assert degeneracy(n) == brute_degeneracy(n)

    def test_capacity_values(self):
        assert shell_capacity(-1) == 0
        assert shell_capacity(1) == 4
        assert shell_capacity(3) == 20
        assert shell_capacity(10) == sum(degeneracy(k) for k in range(11))

    def test_capacity_is_cumulative_degeneracy(self):
        for n in range(31):
            assert shell_capacity(n) == sum(degeneracy(k) for k in range(n + 1))

    def test_valence_total_values(self):
        assert valence_total(1, 1) == 5
        assert valence_total(-1, 1) == 1
        assert valence_total(3, 1) == 21

    def test_valence_occupancy_range(self):
        # d may run up to the degeneracy of the next shell.
        assert valence_total(1, degeneracy(2)) == 4 + 6
        with pytest.raises(DomainError):
            valence_total(1, 0)
        with pytest.raises(DomainError):
            valence_total(1, degeneracy(2) + 1)

    def test_capacity_negative_below_minus_one(self):
        with pytest.raises(DomainError):
            shell_capacity(-2)
