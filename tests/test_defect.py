"""Tests for the shifted-tower model and the partner-hamiltonian recovery."""

import numpy as np
import pytest
from scipy import integrate

from trapspec import DomainError, ExcludedLevelError, NormalizabilityError
from trapspec.defect import (
    EffectiveModel,
    defect_energy,
    defect_wavefunction,
    effective_potential,
    recover_partner,
)
from trapspec.numerov import RadialProblem, overlap, solve_eigen, solve_eigens
from trapspec.oscillator3d import OscillatorScales, energy_3d, radial_wavefunction_3d
from trapspec.special import radial_norm_3d
from trapspec.susy import input_potential, partner_pair, partner_spectrum

NAT = OscillatorScales.natural()
SI = OscillatorScales(
    mass=1.44e-25, omega0=19.97912070075072, energy_offset=9.2165958823e-24
)


def model(l=0, i=0, s=0, delta=0.0, scales=NAT):
    return EffectiveModel(
        l_angular=l, iterations=i, selector=s, delta=delta, scales=scales
    )


def tower_problem(m):
    """Trap + shifted centrifugal term, trap-referenced.

    The inverse-square part of the effective potential merges with the trap
    centrifugal term into the single coefficient L*(L*+1).
    """
    ls = m.l_star
    scales = m.scales
    spring = 0.5 * scales.mass * scales.omega0**2
    return RadialProblem(
        potential=lambda r: spring * r * r,
        centrifugal=ls * (ls + 1.0),
        mass=scales.mass,
        r_min=1e-6 * scales.r0,
        r_max=12.0 * scales.r0,
        hbar=scales.hbar,
        origin_exponent=ls + 1.0,
    )


def solve_tower_level(m, k_nodes):
    """Shooting eigenvalue of the shifted tower ``m`` with ``k_nodes`` nodes."""
    return solve_eigen(tower_problem(m), k_nodes).energy


class TestModelValidation:
    def test_l_star(self):
        assert model(l=2, i=1, delta=0.3).l_star == pytest.approx(2.7)

    def test_bad_integers(self):
        with pytest.raises(DomainError):
            model(l=-1)
        with pytest.raises(DomainError):
            model(i=-2)
        with pytest.raises(DomainError):
            model(s=2)

    def test_delta_bound(self):
        with pytest.raises(NormalizabilityError):
            model(l=0, i=0, delta=1.5)
        with pytest.raises(NormalizabilityError):
            model(l=1, i=1, delta=4.2)
        # Just below the bound is allowed.
        model(l=0, i=0, delta=1.4999)

    def test_tower_membership(self):
        m = model(l=1, i=1)
        m.tower_check(3)
        m.tower_check(7)
        with pytest.raises(DomainError):
            m.tower_check(1)  # below the tower start L + 2I
        with pytest.raises(DomainError):
            m.tower_check(4)  # parity


class TestEffectivePotential:
    def test_trivial_model_vanishes(self):
        v = effective_potential(model(l=2, i=0, delta=0.0))
        for r in (0.1, 1.0, 4.0):
            assert v(r) == 0.0

    def test_one_iteration_matches_repulsive_gap(self):
        # I=1, delta=0 adds (hbar^2/2m)[(L+1)(L+2) - L(L+1)]/r^2 - hbar w0;
        # the inverse-square part is the partner gap, the constant is this
        # model's energy-zero convention.
        for scales in (NAT, SI):
            for l in (0, 2):
                v = effective_potential(model(l=l, i=1, scales=scales))
                pref = scales.hbar**2 / (2.0 * scales.mass)
                for u in (0.2, 1.1, 3.0):
                    r = u * scales.r0
                    want = pref * 2.0 * (l + 1.0) / r**2 - scales.quantum
                    assert v(r) == pytest.approx(want, rel=1e-13)

    def test_shifted_centrifugal_coefficient(self):
        m = model(l=0, i=0, delta=0.3)
        v = effective_potential(m)
        const = v(1e8)  # inverse-square part is negligible here
        r = 0.37
        coeff = (v(r) - const) * r * r / (NAT.hbar**2 / (2.0 * NAT.mass))
        assert coeff == pytest.approx(-0.3 * 0.7, rel=1e-9)

    def test_constant_term_convention(self):
        # The additive constant is hbar w0 (delta - I), independent of N.
        m = model(l=1, i=2, delta=0.45, scales=SI)
        v = effective_potential(m)
        assert v(1e6 * SI.r0) == pytest.approx(
            SI.quantum * (0.45 - 2.0), rel=1e-9
        )


class TestDefectEnergies:
    def test_zero_defect_recovers_trap_levels(self):
        m = model(l=1, i=0, delta=0.0, scales=SI)
        for n in (1, 3, 7):
            assert defect_energy(m, n) == pytest.approx(energy_3d(SI, n), rel=1e-14)

    def test_uniform_downshift(self):
        base = model(l=0, i=0, delta=0.0)
        shifted = model(l=0, i=0, delta=0.3)
        for n in (0, 2, 6):
            gap = defect_energy(base, n) - defect_energy(shifted, n)
            assert gap == pytest.approx(0.3, rel=1e-12)

    def test_out_of_tower_rejected(self):
        m = model(l=0, i=1)
        with pytest.raises(DomainError):
            defect_energy(m, 0)
        with pytest.raises(DomainError):
            defect_energy(m, 3)
        with pytest.raises(DomainError):
            defect_energy(m, 2 + 1e-10)

    def test_matches_shooting_solver(self):
        m = model(l=0, i=0, delta=0.3)
        for k, res in enumerate(solve_eigens([tower_problem(m)] * 3, range(3))):
            n_s = 2 * k
            want = defect_energy(m, n_s) - NAT.energy_offset
            assert res.energy == pytest.approx(want, rel=1e-6)

    def test_attractive_inverse_square_solver(self):
        # L* = -0.3 makes the centrifugal term attractive; the regular
        # r^{L*+1} start still pins the right eigenvalue.
        m = model(l=0, i=0, delta=0.3)
        assert m.l_star < 0.0
        e0 = solve_tower_level(m, 0)
        assert e0 == pytest.approx(m.l_star + 1.5, rel=1e-7)


class TestDefectWavefunctions:
    def test_zero_defect_is_index_shift(self):
        # delta = 0, I iterations: the tower state N_s maps to the plain
        # oscillator profile W_{N_s - I, L + I}.
        m = model(l=1, i=2, delta=0.0)
        w = defect_wavefunction(m, 7)
        plain = radial_wavefunction_3d(NAT, 5, 3)
        r = np.linspace(0.05, 9.0, 41)
        np.testing.assert_allclose(w(r), plain(r), rtol=1e-12)

    def test_degree_is_exact_integer(self):
        for delta in (0.3, 0.1 + 0.2, -0.7, 1.2):
            m = model(l=1, i=1, delta=delta)
            for k in range(4):
                w = defect_wavefunction(m, 3 + 2 * k)
                assert w.degree == k

    def test_orthonormality_with_constant_shift(self):
        m = model(l=0, i=0, delta=0.3)
        states = [defect_wavefunction(m, 2 * k) for k in range(5)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                val = overlap(a, b, 0.0, np.inf)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-10

    def test_orthogonality_breaks_for_level_dependent_shift(self):
        # A shift that varies with N leaves the states normalized but no
        # longer mutually orthogonal.
        states = []
        for k in range(4):
            delta = 0.3 + 0.1 * (2 * k % 4)
            states.append(defect_wavefunction(model(delta=delta), 2 * k))
        worst = 0.0
        for i in range(4):
            for j in range(i):
                worst = max(worst, abs(overlap(states[i], states[j], 0.0, np.inf)))
        assert worst > 1e-3

    def test_node_counts_stable_in_delta(self):
        r = np.linspace(1e-4, 12.0, 15001)
        for delta in (-0.45, -0.2, 0.0, 0.2, 0.45):
            m = model(l=0, i=0, delta=delta)
            for k in (0, 2, 4):
                vals = defect_wavefunction(m, 2 * k)(r)
                signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))])
                assert int(np.sum(signs[:-1] * signs[1:] < 0)) == k

    def test_norm_constant_collapses_at_the_bound(self):
        # Approaching delta = L + I + 3/2 the unnormalized profile's norm
        # integral grows without bound, so the normalization constant must
        # shrink monotonically toward zero.
        bound = 1.5
        consts = []
        for k in (1, 2, 3, 4):
            delta = bound - 10.0**-k
            consts.append(radial_norm_3d(-delta, -delta, 1.0))
        assert all(b < a for a, b in zip(consts, consts[1:]))
        assert consts[-1] < 0.2 * consts[0]

    def test_unit_norm_near_the_bound(self):
        # Even with the integrable r^{2 L* + 2} origin singularity the
        # states stay unit-normalized.
        for k in (1, 2):
            m = model(delta=1.5 - 10.0**-k)
            w = defect_wavefunction(m, 0)
            head, _ = integrate.quad(lambda r: w(r) ** 2, 0.0, 0.5, limit=400)
            tail, _ = integrate.quad(lambda r: w(r) ** 2, 0.5, np.inf, limit=400)
            assert head + tail == pytest.approx(1.0, abs=1e-8)


class TestRecovery:
    def test_plus_member_is_input_potential(self):
        for l in (0, 1, 3):
            rec = recover_partner(0, 0, l, NAT)
            v = input_potential(l, NAT)
            for r in np.linspace(0.07, 7.0, 30):
                assert rec.potential(r) == pytest.approx(v(r), rel=1e-12, abs=1e-12)

    def test_minus_member_is_partner_potential(self):
        for l in (0, 2):
            rec = recover_partner(1, 0, l, NAT)
            pair = partner_pair(l, NAT)
            for r in np.linspace(0.07, 7.0, 30):
                assert rec.potential(r) == pytest.approx(
                    pair.minus_potential(r), rel=1e-12, abs=1e-12
                )

    def test_iterated_ground_energy_is_zero(self):
        rec = recover_partner(0, 2, 0, NAT)
        ls = rec.model.l_star
        problem = RadialProblem(
            potential=lambda r: rec.potential(r)
            - 0.5 * ls * (ls + 1.0) / (r * r),
            centrifugal=ls * (ls + 1.0),
            mass=1.0,
            r_min=1e-6,
            r_max=12.0,
        )
        assert abs(solve_eigen(problem, 0).energy) < 1e-8

    def test_iteration_closure(self):
        # The plus member after one completed iteration is the minus member
        # of the previous pair shifted down by its 2 hbar w0 ground energy.
        for l in (0, 1):
            plus_next = recover_partner(0, 1, l, NAT)
            minus_prev = recover_partner(1, 0, l, NAT)
            for r in np.linspace(0.1, 6.0, 20):
                assert plus_next.potential(r) == pytest.approx(
                    minus_prev.potential(r) - 2.0, rel=1e-12, abs=1e-12
                )

    def test_zero_referenced_spectrum(self):
        rec = recover_partner(0, 0, 0, NAT)
        assert rec.tower_start == 0
        assert rec.spectrum(0) == 0.0
        assert rec.spectrum(4) == pytest.approx(4.0, rel=1e-14)

    def test_minus_spectrum_matches_partner_module(self):
        rec = recover_partner(1, 0, 1, NAT)
        for n_s in (3, 5, 9):
            assert rec.spectrum(n_s) == pytest.approx(
                partner_spectrum(1, n_s, NAT), rel=1e-14
            )
        with pytest.raises(ExcludedLevelError):
            rec.spectrum(1)

    def test_spectrum_label_errors(self):
        rec = recover_partner(0, 1, 0, NAT)
        assert rec.tower_start == 2
        with pytest.raises(ExcludedLevelError):
            rec.spectrum(0)
        with pytest.raises(DomainError):
            rec.spectrum(3)
        with pytest.raises(DomainError):
            rec.spectrum(2 + 1e-10)

    def test_bookkeeping_constants(self):
        rec = recover_partner(1, 1, 0, SI)
        m = rec.model
        for n_s in (m.l_angular + 2 * m.iterations, m.l_angular + 2 * m.iterations + 4):
            absolute = rec.spectrum(n_s) + rec.subtracted_constant
            assert absolute == pytest.approx(defect_energy(m, n_s), rel=1e-12)
            original = rec.spectrum(n_s) + rec.level_offset
            assert original == pytest.approx(
                SI.energy_offset + SI.quantum * (n_s + 1.5), rel=1e-12
            )
