"""Tests for the shooting eigen-solver, node counter and quadrature."""

import functools
import json
import math
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_rules import exact_gram
from trapspec import AccuracyError, BracketError, ConvergenceError, DomainError, numerov
from trapspec.defect import EffectiveModel, defect_wavefunction, recover_partner
from trapspec.numerov import (
    EigenResult,
    RadialProblem,
    count_nodes,
    gram,
    overlap,
    solve_eigen,
    solve_eigens,
)
from trapspec.oscillator3d import OscillatorScales, radial_wavefunction_3d, tower_rows
from trapspec.susy import input_potential, partner_pair
from trapspec.verification import node_count_profiles, orthonormality_families

NAT = OscillatorScales.natural()


def half_r_squared(r):
    return 0.5 * r * r


def oscillator_problem(centrifugal, r_max=12.0, n_points=8000, origin_exponent=None):
    return RadialProblem(
        potential=half_r_squared,
        centrifugal=centrifugal,
        mass=1.0,
        r_min=1e-6,
        r_max=r_max,
        n_points=n_points,
        origin_exponent=origin_exponent,
    )


class TestProblemValidation:
    def test_grid_floor(self):
        with pytest.raises(DomainError):
            RadialProblem(half_r_squared, 0.0, 1.0, 1e-6, 12.0, n_points=1999)

    def test_domain_ordering(self):
        with pytest.raises(DomainError):
            RadialProblem(half_r_squared, 0.0, 1.0, 0.0, 12.0)
        with pytest.raises(DomainError):
            RadialProblem(half_r_squared, 0.0, 1.0, 5.0, 2.0)

    def test_positive_scales(self):
        with pytest.raises(DomainError):
            RadialProblem(half_r_squared, 0.0, -1.0, 1e-6, 12.0)

    @pytest.mark.parametrize("field", ["mass", "r_min", "r_max", "centrifugal",
                                       "origin_exponent"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        kwargs = dict(potential=half_r_squared, centrifugal=0.0, mass=1.0, r_min=1e-6,
                      r_max=12.0)
        kwargs[field] = value
        with pytest.raises(DomainError, match=field):
            RadialProblem(**kwargs)

    @pytest.mark.parametrize("n_points", [3000.5, 3000.0, math.nan, "3000"])
    def test_non_integer_grid_rejected(self, n_points):
        with pytest.raises(DomainError, match="n_points"):
            RadialProblem(half_r_squared, 0.0, 1.0, 1e-6, 12.0, n_points=n_points)

    def test_strongly_attractive_centrifugal_needs_exponent(self):
        with pytest.raises(DomainError):
            RadialProblem(half_r_squared, -0.3, 1.0, 1e-6, 12.0)
        # Explicit exponent makes the same coefficient acceptable.
        RadialProblem(half_r_squared, -0.3, 1.0, 1e-6, 12.0, origin_exponent=0.7)

    def test_negative_node_target(self):
        with pytest.raises(DomainError):
            solve_eigen(oscillator_problem(0.0), -1)

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_non_finite_solver_inputs_rejected(self, target):
        # Rejected before any sweep, not an OverflowError from int(inf).
        with pytest.raises(DomainError, match="node_target of state 1"):
            solve_eigens([oscillator_problem(0.0)] * 2, [0, target])

    def test_overflowing_window_rejected(self):
        # [min V_eff, V_eff(r_max)] of 1e300 r^2, widened to its last
        # doubling, overflows the march's first ratio: refused before any
        # sweep, with no numpy warning (RuntimeWarnings are errors here).
        steep = RadialProblem(lambda r: 1e300 * r * r, 0.0, 1.0, 1e-6, 12.0, n_points=2000)
        with pytest.raises(DomainError, match=r"^energy window .* of state 1 .* is too wide"):
            solve_eigens([oscillator_problem(0.0, n_points=2000), steep], [0, 1])

    def test_origin_exponent_past_the_start_growth_rejected(self):
        # s = 1e6 on the step h = 2e-3 makes the start's one-step growth
        # e^((s - 1/2) h) = e^2038, past the float range: refused with the
        # state named, not a bare OverflowError.
        with pytest.raises(DomainError, match=r"^origin exponent 1e\+06 of state 0 is too large"):
            solve_eigen(oscillator_problem(1e12), 0)
        high = oscillator_problem(2.0, origin_exponent=1e6)
        with pytest.raises(DomainError, match=r"^origin exponent 1e\+06 of state 1 is too large"):
            solve_eigens([oscillator_problem(0.0), high], [0, 0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_potential_names_state_and_radius(self, bad):
        problem = RadialProblem(lambda r: np.where(r > 11, bad, 0.5 * r * r), 0.0, 1.0, 1e-6, 12.0)
        with pytest.raises(DomainError, match=r"^potential of state 1 is not finite at r = 11\.0"):
            solve_eigens([oscillator_problem(0.0), problem], [0, 0])

    def test_scalar_only_potential_raises(self):
        # math.log takes no array: the potential must take the whole mesh.
        def scalar_only(r):
            return 0.5 * math.exp(2.0 * math.log(r))

        with pytest.raises(DomainError, match=r"^potential of state 0 .*np\.vectorize"):
            solve_eigen(RadialProblem(scalar_only, 0.0, 1.0, 1e-6, 12.0), 0)

    def test_constant_potential_is_broadcast(self):
        # V = 2 in a box of radius 6: E = 2 + pi^2 / (2 * 6^2) for L = 0, the
        # same bit for bit as from an array of twos.
        def box(potential):
            return RadialProblem(potential, 0.0, 1.0, 1e-6, 6.0)

        const, array = solve_eigens([box(lambda r: 2.0), box(lambda r: np.full_like(r, 2.0))],
                                    [0, 0])
        assert const.energy == array.energy
        assert const.energy == pytest.approx(2.0 + math.pi**2 / 72.0, rel=1e-8)

    def test_batch_lengths_must_agree(self):
        with pytest.raises(DomainError):
            solve_eigens([oscillator_problem(0.0)] * 2, [0])

    def test_exponent_from_centrifugal(self):
        assert oscillator_problem(0.0).exponent() == pytest.approx(1.0)
        assert oscillator_problem(6.0).exponent() == pytest.approx(3.0)  # L = 2
        assert oscillator_problem(-0.25).exponent() == pytest.approx(0.5)  # |M| = 0
        assert oscillator_problem(2.0, origin_exponent=0.4).exponent() == 0.4


class TestOscillatorEigenvalues:
    def test_ground_state_3d(self):
        res = solve_eigen(oscillator_problem(0.0), 0)
        assert res.energy == pytest.approx(1.5, rel=1e-8)
        assert res.node_count == 0

    def test_excited_ladder_3d(self):
        # E = 2k + L + 3/2 for the isotropic oscillator.
        cases = ((0, 1), (0, 3), (2, 2), (5, 1))
        results = solve_eigens([oscillator_problem(l * (l + 1.0)) for l, _ in cases],
                               [k for _, k in cases])
        for (l, k), res in zip(cases, results):
            assert res.energy == pytest.approx(2 * k + l + 1.5, rel=1e-8)
            assert res.node_count == k

    def test_planar_ladder(self):
        # c = M^2 - 1/4 gives the 2D radial series E = 2k + |M| + 1.
        cases = ((0, 0), (0, 2), (3, 1))
        results = solve_eigens([oscillator_problem(m * m - 0.25) for m, _ in cases],
                               [k for _, k in cases])
        for (m, k), res in zip(cases, results):
            assert res.energy == pytest.approx(2 * k + m + 1.0, rel=1e-8)

    def test_non_integer_angular_order(self):
        # L* = 0.7 tower: E = 2k + L* + 3/2.
        l_star = 0.7
        res = solve_eigen(oscillator_problem(l_star * (l_star + 1.0)), 1)
        assert res.energy == pytest.approx(2 + l_star + 1.5, rel=1e-8)

    def test_eigenfunction_matches_analytic_profile(self):
        res = solve_eigen(oscillator_problem(2.0), 1)  # N=3, L=1
        w = radial_wavefunction_3d(NAT, 3, 1)
        exact = w(res.radii)
        # Discrete samples are simpson-normalized; compare shapes after
        # aligning sign and scale at the peak.
        i = int(np.argmax(np.abs(exact)))
        ratio = res.samples[i] / exact[i]
        np.testing.assert_allclose(res.samples, ratio * exact, atol=5e-7 * abs(ratio))

    def test_boundary_decay(self):
        # W ~ r at the inner edge, so the r_min sample sits near 1e-6 of
        # the profile scale; the outer tail is Gaussian-suppressed.
        res = solve_eigen(oscillator_problem(0.0), 2)
        peak = float(np.max(np.abs(res.samples)))
        assert abs(res.samples[0]) < 1e-4 * peak
        assert abs(res.samples[-1]) < 1e-6 * peak

    def test_node_theorem_monotonicity(self):
        def anharmonic(r):
            return 0.5 * r * r + 0.3 * r**4

        problem = RadialProblem(anharmonic, 2.0, 1.0, 1e-6, 8.0)
        energies = [res.energy for res in solve_eigens([problem] * 6, range(6))]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("l, r_min, r_max", [(16, 1e-20, 14.0), (8, 1e-40, 14.0),
                                                 (60, 1e-6, 20.0)])
    def test_start_at_tiny_r_min_and_high_l(self, l, r_min, r_max):
        # r_min^(s - 1/2), s = L + 1, is 0 in doubles for each of these: the
        # march starts from the ratio e^((s - 1/2) h), which never forms it.
        problem = RadialProblem(half_r_squared, l * (l + 1.0), 1.0, r_min, r_max)
        for n, res in enumerate(solve_eigens([problem] * 2, [0, 1])):
            assert res.energy == pytest.approx(2 * n + l + 1.5, rel=1e-6)

    def test_grid_doubling_convergence(self):
        # Hard case: N=7 (L=1, three nodes); relative change < 1e-9 on doubling.
        coarse = solve_eigen(oscillator_problem(2.0, n_points=8000), 3).energy
        fine = solve_eigen(oscillator_problem(2.0, n_points=16000), 3).energy
        assert abs(fine - coarse) / abs(fine) < 1e-9

    def test_window_is_widened(self):
        # In a box of 3 r0, [min V_eff, V_eff(r_max)] = [0, 4.5] holds no
        # two-node level (the wall lifts it to ~6.5) until the first widening.
        res = solve_eigen(oscillator_problem(0.0, r_max=3.0), 2)
        assert res.energy > 4.5
        assert res.diagnostics["widenings"] >= 1

    def test_diagnostics_contents(self):
        res = solve_eigen(oscillator_problem(0.0), 1)
        d = res.diagnostics
        assert res.node_count == 1
        assert res.residual < 1e-6
        assert d["widenings"] >= 0
        assert d["count_evaluations"] > 0
        assert len(d["final_window"]) == 2
        assert res.radii[0] == pytest.approx(1e-6)

    def test_mismatch_without_sign_change_raises(self, monkeypatch):
        # A matching mismatch of one sign everywhere leaves no root to polish;
        # the solver must say so instead of returning the window midpoint.
        shoot = numerov._Batch.shoot

        def one_signed(self, *args, **kwargs):
            return np.abs(shoot(self, *args, **kwargs)) + 1.0

        monkeypatch.setattr(numerov._Batch, "shoot", one_signed)
        with pytest.raises(ConvergenceError, match=r"never changes sign for state 0 .*window"):
            solve_eigen(oscillator_problem(0.0), 1)

    def test_unreachable_node_count_raises(self):
        # In a box this small the 50-node level sits far above any window
        # the bounded widening schedule can reach.
        with pytest.raises(BracketError):
            solve_eigen(oscillator_problem(0.0, r_max=1.0, n_points=2000), 50)

    def test_mass_scaling(self):
        # E scales as 1/sqrt(m) for V = r^2/2 at fixed hbar.
        heavy = RadialProblem(half_r_squared, 0.0, 4.0, 1e-6, 12.0)
        res = solve_eigen(heavy, 0)
        assert res.energy == pytest.approx(1.5 / 2.0, rel=1e-8)


def _opposite(a, b):
    return a != 0.0 and b != 0.0 and (a < 0.0) != (b < 0.0)


def scalar_count(f, w0, w1):
    """Reference: a one-column three-term loop counting the sign changes of
    ``w`` between mesh rows where ``f > 0`` on both, rescaled to stay finite."""
    nodes, prev, cur = 0, w0, w1
    for i in range(1, len(f) - 1):
        nxt = ((12.0 - 10.0 * f[i]) * cur - f[i - 1] * prev) / f[i + 1]
        if f[i] > 0.0 and f[i + 1] > 0.0 and _opposite(nxt, cur if cur != 0.0 else prev):
            nodes += 1
        prev, cur = cur, nxt
        if abs(cur) > 1e150:
            prev, cur = prev / 1e200, cur / 1e200
    return nodes


def levels_below(energy, first, spacing):
    """How many levels of the ladder ``first + k spacing`` lie below ``energy``."""
    return max(0, math.ceil((energy - first) / spacing))


def three_term_outward(f, c, w0, w1, m):
    """Reference: ``w[0..m]`` from the outward three-term loop; ``c`` is ``12 - 10 f``."""
    out = [w0, w1]
    for i in range(1, m):
        out.append((c[i] * out[i] - f[i - 1] * out[i - 1]) / f[i + 1])
    return out


def scalar_mismatch(f, w0, w1, m, number=float):
    """Reference: outward and inward three-term loops matched at ``m``.

    The loops run in ``number`` arithmetic (``Decimal`` for an
    extended-precision reference) over ``f`` and ``12 - 10 f`` as doubles, the
    coefficients a double-precision march works with.
    """
    n = len(f)
    c = [number(12.0 - 10.0 * x) for x in f]
    f = [number(x) for x in f]
    out = three_term_outward(f, c, number(w0), number(w1), m)
    inner = {n - 1: number(0.0), n - 2: number(1e-30)}
    for i in range(n - 2, m, -1):
        inner[i - 1] = (c[i] * inner[i] - f[i + 1] * inner[i + 1]) / f[i - 1]
    sigma = out[m] / inner[m]
    t_in = f[m + 1] * inner[m + 1] * sigma
    t_out = f[m - 1] * out[m - 1]
    t_mid = c[m] * out[m]
    return float((t_in + t_out - t_mid) / (abs(t_in) + abs(t_out) + abs(t_mid)))


def ratio_mismatch(f, w0, w1, m):
    """Reference: Johnson's ratio loops ``R[k] = U[k] - 1 / R[k-1]``,
    ``U = (12 - 10 f) / f``, over ``y = f w``, outward from the Frobenius start
    and inward from the wall, where ``y = 0``, matched at ``m``.  The sign of
    ``y[m]`` is that of ``y[0]``, flipped at each negative outward ratio."""
    n = len(f)
    ratio = f[1] * w1 / (f[0] * w0)  # y[1] / y[0]
    negative = (f[0] * w0 < 0.0) != (ratio < 0.0)
    for i in range(1, m):
        ratio = (12.0 - 10.0 * f[i]) / f[i] - 1.0 / ratio
        negative ^= ratio < 0.0
    inverse = 0.0  # y[n-1] / y[n-2]
    for i in range(n - 2, m, -1):
        inverse = 1.0 / ((12.0 - 10.0 * f[i]) / f[i] - inverse)
    t_out = 1.0 / ratio
    u = (12.0 - 10.0 * f[m]) / f[m]
    mismatch = (inverse + t_out - u) / (abs(inverse) + abs(t_out) + abs(u))
    return -mismatch if negative else mismatch


def scalar_inputs(problem, energy):
    """The f list and Frobenius start the scalar loops were given."""
    r = problem.grid()
    x = np.log(r)
    h2_12 = (x[1] - x[0]) ** 2 / 12.0
    pref = 2.0 * problem.mass
    v = problem.potential(r)
    f = (1.0 + h2_12 * (pref * r * r * (energy - v) - (problem.centrifugal + 0.25))).tolist()
    s = problem.exponent()
    beta = pref * (v[0] - energy) / (4.0 * s + 2.0)
    w0 = r[0] ** (s - 0.5) * (1.0 + beta * r[0] ** 2)
    w1 = r[1] ** (s - 0.5) * (1.0 + beta * r[1] ** 2)
    return f, w0, w1


def sweep(problem, energies, m):
    """Node counts and mismatches of one problem's columns from the batched sweep.

    The counts, ratios and signs must be the same bit for bit whether the
    march steps in Python floats or by ufunc calls, and the counts those of a
    sweep that records no ratio.  The mismatch from a count sweep's recorded
    outward ratio must be, bit for bit, the one a shoot that marches outward
    itself (a Brent round, which stops at the matching point) gives.
    """
    batch = numerov._Batch([problem], [0])
    states = np.zeros(len(energies), dtype=np.intp)
    matching = np.full(len(energies), m)
    marched = []
    for width in (0, 10**6):  # every column by ufunc calls, then in floats
        with mock.patch.object(numerov, "_FLOAT_COLUMNS", width):
            marched.append(batch._march(states, energies, batch.n - 1, record=matching - 1))
    for by_ufunc, in_floats in zip(*marched):
        assert by_ufunc.tobytes() == in_floats.tobytes()
    counts, *outward = marched[0]
    assert np.array_equal(batch._march(states, energies, batch.n - 1)[0], counts)
    mismatch = batch.shoot(states, energies, matching, outward)
    assert np.array_equal(mismatch, batch.shoot(states, energies, matching))
    return counts, mismatch


def tall_barrier(r):
    return 0.5 * r * r + 1e6 * np.exp(-(((r - 1.0) / 0.3) ** 2))


@functools.cache
def tall_barrier_reference():
    """Ground level of ``tall_barrier`` with c = 2 on [0, 12]: second-order finite
    differences on uniform meshes of 20000 and 40000 intervals, Richardson-extrapolated."""
    from scipy.linalg import eigh_tridiagonal

    def level(intervals):
        h = 12.0 / intervals
        r = h * np.arange(1, intervals)
        diagonal = 1.0 / (h * h) + 1.0 / (r * r) + tall_barrier(r)  # c / (2 r^2) = 1 / r^2
        off = np.full(len(r) - 1, -0.5 / (h * h))
        return eigh_tridiagonal(diagonal, off, select="i", select_range=(0, 0))[0][0]

    return (4.0 * level(40000) - level(20000)) / 3.0


def ufunc_steps(ratio, u):
    """Reference: the march's ufunc loop, ``R[k] = U[k] - 1 / R[k-1]`` a row at a time."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(u)):
            np.subtract(u[k], np.reciprocal(ratio[k]), out=ratio[k + 1])


class TestFloatSteps:
    def test_random_rows_match_ufunc_steps_bit_for_bit(self):
        # Starts: the inward march's inf, -inf, a subnormal whose reciprocal
        # overflows, a nan, ordinary ratios; U rows with nan, +-inf and U < 2,
        # where ratios change sign.
        rng = np.random.default_rng(12)
        u = rng.normal(2.0, 1.5, (256, 8))
        u[7, 5], u[30, 6], u[31, 7] = math.nan, math.inf, -math.inf
        start = np.array([math.inf, -math.inf, 1e-310, math.nan, 1.5, -0.3, 2.0, 0.7])
        floats, ufuncs = (np.vstack([start, np.zeros_like(u)]) for _ in range(2))
        assert numerov._float_steps(floats, u)
        ufunc_steps(ufuncs, u)
        assert floats.tobytes() == ufuncs.tobytes()
        assert np.isnan(floats[1:, 3]).all() and np.isnan(floats[8:, 5]).all()

    @pytest.mark.parametrize("start, first_u", [(0.0, 2.0), (-0.0, 2.0), (0.5, 2.0)])
    def test_exact_zero_ratio_leaves_the_block_to_ufuncs(self, start, first_u):
        # A ratio of +-0.0, at the start or reached in the block (2 - 1 / 0.5),
        # makes Python raise where numpy gives +-inf: the block falls back.
        u = np.array([[first_u, 1.0], [3.0, 1.0], [2.5, 1.0]])
        ratio = np.array([[start, 1.0]] + [[7.0, 7.0]] * 3)
        assert not numerov._float_steps(ratio, u)
        assert ratio[0].tobytes() == np.array([start, 1.0]).tobytes()
        ufunc_steps(ratio, u)
        assert np.isinf(ratio[1 if start == 0.0 else 2, 0])


class TestSweepKernel:
    def test_columns_match_scalar_loops_exactly(self):
        # Node counts are the reference loop's exactly, and the mismatch is
        # the ratio-form loops' operation for operation; it agrees to
        # round-off with the three-term loops run in decimal arithmetic.
        problem = oscillator_problem(6.0, n_points=2000)
        energies = np.linspace(2.0, 30.0, 9)
        for e, count, mismatch in zip(energies, *sweep(problem, energies, 1700)):
            f, w0, w1 = scalar_inputs(problem, e)
            assert count == scalar_count(f, w0, w1)
            assert mismatch == ratio_mismatch(f, w0, w1, 1700)
            three_term = scalar_mismatch(f, w0, w1, 1700, Decimal)
            assert mismatch == pytest.approx(three_term, rel=1e-12, abs=1e-15)

    def test_rescaled_columns_match_scalar_loops(self):
        # A stiff trap in a wide box drives w far past 1e150 (f < 0 at the
        # wall): the rescaled reference loop counts no sign change where
        # f <= 0, so each count is the number of levels 4n + 5 below E, and
        # the ratio loop, which never rescales, agrees to round-off.
        problem = RadialProblem(lambda r: 2.0 * r * r, 2.0, 1.0, 1e-6, 20.0, n_points=2000)
        energies = np.linspace(1.0, 60.0, 12)
        for e, count, mismatch in zip(energies, *sweep(problem, energies, 1800)):
            f, w0, w1 = scalar_inputs(problem, e)
            assert min(f) < 0.0
            assert count == scalar_count(f, w0, w1) == levels_below(e, 5.0, 4.0)
            assert mismatch == ratio_mismatch(f, w0, w1, 1800)
            assert mismatch == pytest.approx(scalar_mismatch(f, w0, w1, 1800, Decimal),
                                             rel=1e-12, abs=1e-15)

    def test_steep_wall_counts_only_faithful_steps(self):
        # On a fine mesh |w| passes 1e150 long before the wall, so the
        # reference loop rescales; a steep wall past r = 28 then turns f
        # negative, where steps alias into sign changes that are no nodes.
        # The counts are the L = 1 levels 2.5, 4.5, ... below each energy.
        potential = lambda r: 0.5 * r * r + 1e5 * np.maximum(r - 28.0, 0.0) ** 2
        problem = RadialProblem(potential, 2.0, 1.0, 1e-6, 30.0, n_points=20000)
        energies = np.array([1.0, 6.0, 11.0])
        counts, mismatches = sweep(problem, energies, 15000)
        assert counts.tolist() == [0, 2, 5]
        for e, count, mismatch in zip(energies, counts, mismatches):
            f, w0, w1 = scalar_inputs(problem, e)
            assert min(f) < 0.0
            assert count == scalar_count(f, w0, w1)
            assert mismatch == ratio_mismatch(f, w0, w1, 15000)

    def test_sign_of_w_across_negative_f(self):
        # A tall narrow barrier at r = 1 turns f negative for a few mesh rows
        # before m, where w = y / f changes sign with f: the count and the
        # sign of the mismatch must still be the three-term loops'.
        potential = lambda r: 0.5 * r * r + 1e6 * np.exp(-(((r - 1.0) / 0.1) ** 2))
        problem = RadialProblem(potential, 2.0, 1.0, 1e-6, 12.0, n_points=2000)
        energies = np.array([3.0, 7.5, 20.0])
        for e, count, mismatch in zip(energies, *sweep(problem, energies, 1790)):
            f, w0, w1 = scalar_inputs(problem, e)
            assert min(f[:1790]) < 0.0
            assert count == scalar_count(f, w0, w1)
            assert mismatch == ratio_mismatch(f, w0, w1, 1790)
            assert mismatch == pytest.approx(scalar_mismatch(f, w0, w1, 1790, Decimal),
                                             rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n_points", [2000, 8000])
    def test_tall_barrier_level_matches_finite_differences(self, n_points):
        # A barrier of 1e6 turns f negative over many mesh rows (to -11 at
        # 2000 points), where steps alias into sign changes; counted as
        # nodes, they leave no window with a node-count jump through 0.
        problem = RadialProblem(tall_barrier, 2.0, 1.0, 1e-6, 12.0, n_points=n_points)
        res = solve_eigen(problem, 0)
        assert res.energy == pytest.approx(tall_barrier_reference(), abs=1e-6)

    @pytest.mark.parametrize("centrifugal, nodes", [(2.0, 1), (30.0, 4)])
    def test_rebuilt_outward_piece_matches_three_term_loop(self, centrifugal, nodes):
        # The eigenfunction up to the matching point is rebuilt from the
        # outward ratios; it is the three-term loop's w up to one factor.
        problem = oscillator_problem(centrifugal)
        res = solve_eigen(problem, nodes)
        m = res.diagnostics["matching_index"]
        f, w0, w1 = scalar_inputs(problem, res.energy)
        c = [12.0 - 10.0 * x for x in f]
        w = np.array(three_term_outward(f, c, w0, w1, m)) * np.sqrt(res.radii[: m + 1])
        peak = int(np.argmax(np.abs(w)))
        w *= res.samples[peak] / w[peak]
        assert np.max(np.abs(res.samples[: m + 1] - w)) <= 1e-12 * np.max(np.abs(w))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        coef=st.floats(0.05, 3.0),
        centrifugal=st.floats(-0.25, 30.0),
        r_max=st.floats(6.0, 30.0),
        n_points=st.integers(2000, 6000),
        energies=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=4),
        where=st.floats(0.5, 0.95),
    )
    def test_random_columns_match_scalar_loops(self, coef, centrifugal, r_max, n_points,
                                               energies, where):
        # Counts over random traps, from gentle to stiff enough that f < 0.
        problem = RadialProblem(lambda r: coef * r * r, centrifugal, 1.0, 1e-6, r_max,
                                n_points=n_points)
        m = int(where * n_points)
        for e, count, mismatch in zip(energies, *sweep(problem, np.array(energies), m)):
            f, w0, w1 = scalar_inputs(problem, e)
            assert count == scalar_count(f, w0, w1)
            assert mismatch == ratio_mismatch(f, w0, w1, m)


class TestBrent:
    def test_matches_scipy_brentq_step_for_step(self):
        # The batched root search replays scipy.optimize.brentq exactly: same
        # trial points in the same order, same root, for every bracket at once.
        from scipy.optimize import brentq

        shapes = (
            lambda x, a, b: math.tanh(x - a) + 0.3 * b * (x - a) ** 3,
            lambda x, a, b: (x - a) * math.exp(b * x) + 1e-3 * (x - a) ** 2,
            lambda x, a, b: math.sin(3.0 * (x - a)) + 0.1 * b,
            lambda x, a, b: (x - a) ** 5,
            lambda x, a, b: math.atan(50.0 * (x - a)) + 1e-9 * b,
        )
        rng = np.random.default_rng(1)
        functions = []
        for i in range(100):
            a, b = rng.uniform(-3.0, 3.0, 2)
            lo, hi = a - rng.uniform(0.1, 4.0), a + rng.uniform(0.1, 4.0)
            g = functools.partial(shapes[i % len(shapes)], a=a, b=b)
            if g(lo) * g(hi) < 0.0:
                functions.append((g, lo, hi))
        xtol = [1e-14 * (abs(a) + abs(b) + 1e-300) + 5e-324 for _, a, b in functions]
        expected_roots, expected_trials = [], []
        for (g, a, b), tol in zip(functions, xtol):
            seen = []
            expected_roots.append(brentq(lambda x: seen.append(x) or g(x), a, b,
                                         xtol=tol, rtol=1e-12, maxiter=200))
            expected_trials.append(seen[2:])  # brentq starts by evaluating both ends

        trials = [[] for _ in functions]

        def evaluate(x, k):
            for xi, ki in zip(x, k):
                trials[ki].append(float(xi))
            return np.array([functions[ki][0](xi) for xi, ki in zip(x, k)])

        lo, hi, f_lo, f_hi = (np.array(col) for col in
                              zip(*[(a, b, g(a), g(b)) for g, a, b in functions]))
        roots, converged = numerov._brent(evaluate, lo, hi, f_lo, f_hi, np.array(xtol), 1e-12, 200)
        assert converged.all()
        assert list(roots) == expected_roots
        assert trials == expected_trials

    def test_exact_zero_ends_are_roots_without_evaluation(self):
        # Brackets [2, 4] with f(2) = 0 and [-1, 3] with f(3) = 0 return that
        # end in the first round; the ordinary bracket beside them takes the
        # same trial points as when searched alone.
        def g(x):
            return math.tanh(x - 0.7) + 0.1 * (x - 0.7) ** 3

        lo, hi = np.array([2.0, -1.0, 0.0]), np.array([4.0, 3.0, 2.0])
        f_lo, f_hi = np.array([0.0, -1.0, g(0.0)]), np.array([5.0, 0.0, g(2.0)])
        xtol = 1e-14 * (np.abs(lo) + np.abs(hi)) + 5e-324
        trials = [[] for _ in lo]

        def evaluate(x, k):
            for xi, ki in zip(x, k):
                trials[ki].append(float(xi))
            return np.array([g(xi) for xi in x])

        roots, converged = numerov._brent(evaluate, lo, hi, f_lo, f_hi, xtol, 1e-12, 200)
        assert converged.all()
        assert roots[:2].tolist() == [2.0, 3.0]
        assert trials[:2] == [[], []]
        alone = []
        root, _ = numerov._brent(lambda x, k: alone.extend(x.tolist()) or np.array([g(x[0])]),
                                 lo[2:], hi[2:], f_lo[2:], f_hi[2:], xtol[2:], 1e-12, 200)
        assert roots[2] == root[0] and trials[2] == alone
        assert abs(g(roots[2])) < 1e-12


SEED_ENERGIES = Path(__file__).parent / "data" / "numerov_seed_energies.json"


def seed_potential(spec):
    """Regular part of the potential a recorded state was solved with."""
    kind = spec["potential"]
    if kind == "harmonic":
        coef = spec["coef"]
        return lambda r: coef * r * r
    if kind == "anharmonic":
        return lambda r: 0.5 * r * r + 0.3 * r**4
    if kind == "susy-plus":
        full = partner_pair(spec["l"], NAT).plus_potential
    elif kind == "susy-minus":
        full = partner_pair(spec["l"], NAT).minus_potential
    elif kind == "input":
        full = input_potential(spec["l"], NAT)
    elif kind == "recovered":
        full = recover_partner(0, 2, 0, NAT).potential
    else:
        raise ValueError(f"unknown potential {kind!r}")
    c = spec["centrifugal"]
    return lambda r: full(r) - 0.5 * c / (r * r)


def seed_problem(entry):
    return RadialProblem(
        potential=seed_potential(entry), centrifugal=entry["centrifugal"], mass=entry["mass"],
        r_min=entry["r_min"], r_max=entry["r_max"], n_points=entry["n_points"],
        origin_exponent=entry["origin_exponent"],
    )


class TestSeedEnergies:
    """Energies recorded with the scalar solver that the batched one replaced.

    ``numerov_seed_energies.json`` holds every state the verify suites solve
    and every state the tests solved when it was recorded, each with the
    problem, the node target and the energy (repr floats) that the
    one-state-at-a-time solver (node bisection, then Brent's method) returned.  The entries whose
    indicial roots nearly coincide (``c + 1/4 <= 0.04``) that moved by more
    than 1e-12 under the ratio-form outward march hold its energies instead.
    """

    def test_batched_solver_matches_recorded_energies(self):
        entries = json.loads(SEED_ENERGIES.read_text())["entries"]
        results = solve_eigens([seed_problem(e) for e in entries],
                               [e["node_target"] for e in entries])
        for e, res in zip(entries, results):
            # 1e-12 relative, or 1e-12 absolute for the levels near zero.
            assert abs(res.energy - e["energy"]) <= 1e-12 * max(abs(e["energy"]), 1.0), e["source"]

    def test_near_degenerate_levels_bracket_the_extended_precision_level(self):
        # Where c + 1/4 is near 0 (planar |M| = 0, L* = -0.3) a level moves by
        # up to ~1e-10 with the last bits of the coefficients (12 - 10 f formed
        # in double or in extended precision), so the recorded digits past
        # that pin round-off.  Each such energy must still lie within 2e-10
        # (relative) of the level of the three-term loops run in decimal
        # arithmetic: their mismatch changes sign between E (1 -+ 2e-10).
        entries = [e for e in json.loads(SEED_ENERGIES.read_text())["entries"]
                   if e["centrifugal"] + 0.25 <= 0.04 + 1e-12]
        assert len(entries) == 14
        for e in entries:
            problem = seed_problem(e)
            f, _, _ = scalar_inputs(problem, e["energy"])
            m = int(np.flatnonzero(np.array(f) >= 1.0)[-1])  # the outer turning point
            below, above = (scalar_mismatch(*scalar_inputs(problem, e["energy"] * t), m, Decimal)
                            for t in (1.0 - 2e-10, 1.0 + 2e-10))
            assert (below < 0.0) != (above < 0.0), e["source"]


def coarse_problem(l):
    # The coarsest mesh allowed keeps these solves cheap; batching does not
    # depend on the mesh size.
    return oscillator_problem(l * (l + 1.0), n_points=2000)


@pytest.fixture(scope="module")
def lone():
    cache = {}

    def result(l, k):
        if (l, k) not in cache:
            cache[l, k] = solve_eigen(coarse_problem(l), k)
        return cache[l, k]

    return result


def same_result(res, alone):
    """Bit for bit the lone solve's result; only the evaluation counts, which
    follow the sweep width, may differ."""
    def kept(d):
        return {key: value for key, value in d.items() if not key.endswith("_evaluations")}

    return (res.energy == alone.energy and np.array_equal(res.samples, alone.samples)
            and res.node_count == alone.node_count and res.residual == alone.residual
            and kept(res.diagnostics) == kept(alone.diagnostics))


class TestBatching:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_batch_energy_equals_lone_energy(self, lone, data):
        # Each state takes the same bisection and Brent steps in any batch,
        # so its energy and eigenfunction are the lone ones exactly, not just
        # to the tolerance.
        states = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)),
                                    min_size=1, max_size=4))
        batch = data.draw(st.permutations(states + states[:1]))  # one duplicate at least
        results = solve_eigens([coarse_problem(l) for l, _ in batch], [k for _, k in batch])
        for (l, k), res in zip(batch, results):
            assert res.energy == lone(l, k).energy, (l, k, batch)
            assert np.array_equal(res.samples, lone(l, k).samples), (l, k, batch)

    def test_shared_problem_and_repeats_equal_lone_solves(self, lone):
        # Node counts of one problem are marched once for all its states (one
        # problem object with several targets, and equal problems built apart).
        shared = coarse_problem(1)
        cases = [(1, 0), (1, 3), (1, 1), (1, 3), (1, 2), (4, 0), (4, 0), (4, 5)]
        problems = [shared] * 5 + [coarse_problem(4) for _ in range(3)]
        results = solve_eigens(problems, [k for _, k in cases])
        for (l, k), res in zip(cases, results):
            assert same_result(res, lone(l, k)), (l, k)

    @pytest.mark.parametrize("min_columns", [8, 512])
    def test_sweep_width_moves_no_result(self, monkeypatch, min_columns):
        # The tree depth sets how many bisection levels a sweep samples, never
        # which window bisection keeps.
        problems = [coarse_problem(l) for l in (0, 0, 0, 2, 5)]
        targets = [0, 4, 2, 1, 2]

        def solve():
            return [(r.energy.hex(), [x.hex() for x in r.diagnostics["final_window"]],
                     r.diagnostics["widenings"]) for r in solve_eigens(problems, targets)]

        expected = solve()
        monkeypatch.setattr(numerov, "_MIN_COLUMNS", min_columns)
        assert solve() == expected


def reference_count_nodes(samples) -> int:
    """Sign changes of one profile among its samples above the tail fraction,
    one profile at a time: the reference for ``count_nodes``."""
    w = np.asarray(samples, dtype=float).ravel()
    if w.size < 2:
        return 0
    amax = float(np.max(np.abs(w)))
    if amax == 0.0:
        return 0
    signs = np.sign(w[np.abs(w) > numerov._TAIL_FRACTION * amax])
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


class TestCountNodes:
    def test_clean_sign_changes(self):
        x = np.linspace(0.0, 1.0, 1001)
        w = np.sin(3 * math.pi * x) * np.exp(-((x - 0.5) ** 2))
        assert count_nodes(w) == 2

    def test_tail_noise_ignored(self):
        x = np.linspace(0.0, 10.0, 2001)
        w = np.where(x < 5.0, np.sin(math.pi * x / 5.0), 1e-12 * np.cos(40 * x))
        assert count_nodes(w) == 0

    def test_empty_and_flat(self):
        assert count_nodes(np.array([])) == 0
        assert count_nodes(np.zeros(50)) == 0

    def test_analytic_profiles(self):
        r = np.linspace(1e-4, 12.0, 12001)
        for n, l in ((0, 0), (6, 2), (10, 0)):
            w = radial_wavefunction_3d(NAT, n, l)
            assert count_nodes(w(r)) == (n - l) // 2

    def test_rows_count_as_each_row_alone(self):
        # The node-counts suite counts its 54 profiles as one array.
        checks, profiles = node_count_profiles()
        assert profiles.shape == (54, 12001)
        counts = count_nodes(profiles)
        assert counts.dtype == np.int64
        assert counts.tolist() == [count_nodes(row) for row in profiles]
        assert counts.tolist() == [reference_count_nodes(row) for row in profiles]
        assert counts.tolist() == [want for _, want in checks]

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (3, 1)])
    def test_rows_too_short_to_flip(self, shape):
        assert count_nodes(np.ones(shape)).tolist() == [0] * shape[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-9, -1e-9,
                                              1e-300, -5e-324, math.inf, -math.inf, math.nan]),
                             min_size=6, max_size=6), min_size=1, max_size=6))
    def test_rows_match_one_row_at_a_time(self, rows):
        # Flat, tail-only and non-finite rows, and rows whose last kept sample
        # has the other sign from the next row's first: that is no flip.
        rows = np.array(rows)
        want = [reference_count_nodes(row) for row in rows]
        assert count_nodes(rows).tolist() == want
        assert [count_nodes(row) for row in rows] == want
        assert count_nodes(rows.ravel()) == reference_count_nodes(rows)


# (lo, hi, the bound named in the error)
NON_FINITE_BOUNDS = [
    (0.0, np.inf, "hi"), (-np.inf, 0.0, "lo"), (np.nan, 1.0, "lo"), (0.0, np.nan, "hi"),
]


class TestOverlap:
    # overlap is one entry of gram: finite bounds, array callables. The tails
    # past 14 (L = 0 states) and 12 (the planar measure) are below 1e-60.
    def test_unit_norm(self):
        w = radial_wavefunction_3d(NAT, 0, 0)
        assert overlap(w, w, 0.0, 14.0) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        a = radial_wavefunction_3d(NAT, 0, 0)
        b = radial_wavefunction_3d(NAT, 2, 0)
        assert abs(overlap(a, b, 0.0, 14.0)) < 1e-10

    def test_weighted_inner_product(self):
        # Planar measure: int 2 e^{-rho^2} rho drho = 1.
        f = lambda rho: np.sqrt(2.0) * np.exp(-0.5 * rho * rho)
        val = overlap(f, f, 0.0, 12.0, weight=lambda rho: rho)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergent_refinement_raises(self):
        wild = lambda x: np.sin(1e7 * x * x)
        with pytest.raises(AccuracyError):
            overlap(wild, wild, 0.0, 50.0)

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_unnormalized_pair_converges(self, scale):
        # The bounds are relative, so a pair scaled to entries of 1e8 or 1e12
        # converges as the pair does, within 1e-14 of its largest entry.
        a, b = (radial_wavefunction_3d(NAT, n, 0) for n in (0, 2))
        value = overlap(lambda r: scale * a(r), lambda r: scale * b(r), 0.0, 14.0)
        assert abs(value) <= 1e-14 * scale**2

    def test_reversed_and_empty_intervals(self):
        a, b = (radial_wavefunction_3d(NAT, n, 0) for n in (0, 2))
        assert overlap(a, b, 14.0, 0.0) == pytest.approx(-overlap(a, b, 0.0, 14.0), abs=1e-16)
        assert overlap(a, b, 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("lo, hi, bound", NON_FINITE_BOUNDS)
    def test_non_finite_bound_refused(self, lo, hi, bound):
        w = radial_wavefunction_3d(NAT, 0, 0)
        with pytest.raises(DomainError, match=f"^{bound} must be finite"):
            overlap(w, w, lo, hi)


FAMILIES = orthonormality_families()
AXIAL = [label for label, _, _ in FAMILIES].index("axial")
AXIAL_SIZE = len(FAMILIES[AXIAL][1])


def stacked(functions):
    """A family callable from separate functions: one row per function."""
    return lambda x: np.array([f(x) for f in functions])


@functools.cache
def full_gram(index):
    _, states, (lo, hi) = FAMILIES[index]
    return gram(functools.partial(tower_rows, states), lo, hi)


class TestGram:
    @pytest.mark.parametrize("index", range(len(FAMILIES)), ids=[f[0] for f in FAMILIES])
    def test_matches_pairwise_overlap(self, index):
        # Each pair's overlap by the exact Gauss rule; the tails past lo, hi are below 1e-30.
        _, states, (lo, hi) = FAMILIES[index]
        exact = exact_gram(states, whole_line=lo < 0)
        assert np.max(np.abs(full_gram(index) - exact)) <= 1e-13

    @pytest.mark.parametrize("index", range(len(FAMILIES)), ids=[f[0] for f in FAMILIES])
    def test_family_rows_give_the_per_state_matrix(self, index):
        # One march per tower index moves no entry: separate per-state callables
        # give the same matrix, bit for bit.
        _, states, (lo, hi) = FAMILIES[index]
        assert np.array_equal(gram(stacked(states), lo, hi), full_gram(index))

    def test_family_must_return_one_row_per_state(self):
        for family in (lambda x: x, lambda x: np.ones((2, x.size + 1))):
            with pytest.raises(DomainError, match="one row per state"):
                gram(family, 0.0, 1.0)

    def test_symmetric(self):
        for index in range(len(FAMILIES)):
            matrix = full_gram(index)
            assert np.array_equal(matrix, matrix.T)

    def test_one_state_is_its_norm(self):
        matrix = gram(stacked([radial_wavefunction_3d(NAT, 0, 0)]), 0.0, 14.0)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            gram(stacked([]), 0.0, 1.0)

    def test_nonconvergent_refinement_raises(self):
        wild = lambda x: np.sin(1e7 * x * x)
        with pytest.raises(AccuracyError, match="not_converged"):
            gram(stacked([wild, wild]), 0.0, 50.0)

    @pytest.mark.parametrize("lo, hi, bound", NON_FINITE_BOUNDS)
    def test_non_finite_bound_refused(self, lo, hi, bound):
        # Refused before the family is evaluated, so no RuntimeWarning is raised.
        family = mock.Mock(side_effect=lambda x: np.array([np.exp(-x * x)]))
        with pytest.raises(DomainError, match=f"^{bound} must be finite"):
            gram(family, lo, hi)
        family.assert_not_called()

    def test_reversed_bounds_negate_and_equal_bounds_vanish(self):
        forward = full_gram(0)
        _, states, (lo, hi) = FAMILIES[0]
        family = functools.partial(tower_rows, states)
        assert np.max(np.abs(gram(family, hi, lo) + forward)) <= 1e-15
        assert np.array_equal(gram(family, lo, lo), np.zeros_like(forward))

    def test_unnormalized_pair_converges_as_the_pair(self):
        # Entries ~1e8 give error estimates ~2e-7, well within 1e-10 of the largest.
        pair = [radial_wavefunction_3d(NAT, n, 0) for n in (0, 2)]
        plain = gram(functools.partial(tower_rows, pair), 0.0, 14.0)
        matrix = gram(stacked([lambda r, f=f: 1e4 * f(r) for f in pair]), 0.0, 14.0)
        assert np.max(np.abs(matrix / 1e8 - plain)) <= 1e-14

    def test_scaled_family_converges_as_the_family(self):
        # The absolute floor is 1e-14 of the largest entry, so a family scaled by 100
        # meets it despite its larger round-off, with entries 1e4 times as large.
        _, states, (lo, hi) = FAMILIES[0]
        scaled = gram(stacked([lambda r, f=f: 100.0 * f(r) for f in states]), lo, hi)
        assert np.max(np.abs(scaled / 1e4 - full_gram(0))) <= 1e-13

    @pytest.mark.parametrize("delta", [0.9, 1.2, 1.4])
    def test_shifted_tower_converges_at_its_singular_start(self, delta):
        # W ~ r^(1 - delta) at the origin, so each product goes as r^(2 - 2 delta): not
        # smooth, and unbounded past delta = 1, where a panel's error shrinks more slowly
        # than its width.
        model = EffectiveModel(l_angular=0, iterations=0, selector=0, delta=delta, scales=NAT)
        tower = [defect_wavefunction(model, n_s) for n_s in range(0, 13, 2)]
        matrix = gram(functools.partial(tower_rows, tower), 0.0, 14.0)
        assert np.max(np.abs(matrix - np.eye(len(tower)))) <= 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(order=st.permutations(range(AXIAL_SIZE)), size=st.integers(1, AXIAL_SIZE))
    def test_subfamily_entries_match_full_family(self, order, size):
        # The axial family (signed interval): any subset in any order gives
        # the same entries as the whole family.
        _, states, (lo, hi) = FAMILIES[AXIAL]
        chosen = order[:size]
        sub = gram(functools.partial(tower_rows, [states[k] for k in chosen]), lo, hi)
        full = full_gram(AXIAL)
        assert np.max(np.abs(sub - full[np.ix_(chosen, chosen)])) <= 1e-13


class TestEigenResultShape:
    def test_samples_are_discretely_normalized(self):
        # The trapezoid rule on the uniform log mesh: dr = r dx, h = ln(r[1] / r[0]).
        res = solve_eigen(oscillator_problem(0.0), 0)
        h = math.log(res.radii[1] / res.radii[0])
        norm = h * np.trapezoid(res.samples**2 * res.radii)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_result_type(self):
        res = solve_eigen(oscillator_problem(0.0), 0)
        assert isinstance(res, EigenResult)
        assert res.radii.shape == res.samples.shape
