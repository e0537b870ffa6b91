"""Built-in verification suites: closed forms cross-checked against oracles.

Each suite runs one self-contained consistency check and reports a
:class:`CheckResult`; the ``verify`` command prints one line per suite.
Numeric tolerances are scaled globally by the ``TRAPSPEC_TOL_SCALE``
environment variable so slower hardware can loosen them consistently
(structural thresholds such as convergence slopes are not scaled).
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .defect import EffectiveModel, defect_energy, defect_wavefunction, recover_partner
from .errors import ConfigError
from .fields import (
    DipoleParticle,
    IoffePritchardGeometry,
    TopGeometry,
    TrapAssembly,
    biot_savart_field,
    ip_field_cartesian,
    ip_potential,
    ip_scales,
    solve_bar_current,
    solve_quad_current,
    top_scales,
    top_time_average_numeric,
    top_time_avg_potential,
)
from .numerov import RadialProblem, count_nodes, gram, solve_eigens
from .oscillator3d import (
    OscillatorScales,
    allowed_angular,
    degeneracy,
    energy_3d,
    radial_wavefunction_3d,
    shell_capacity,
    tower_rows,
)
from .planar import (
    PaulFrequencies,
    PenningFrequencies,
    paul_energy,
    paul_related_systems,
    paul_shell_count,
    paul_susy_partner,
    paul_wavefunctions,
    penning_energy,
    penning_wavefunction,
)
from .susy import (
    input_potential,
    partner_pair,
    partner_wavefunction,
    related_systems_3d,
)

__all__ = ["CheckResult", "run_suite"]

TOLERANCES = {
    "spectrum_relative": 1e-6,
    "degeneracy_relative": 1e-6,
    "ground_zero_quanta": 1e-8,
    "pauli_gap_relative": 1e-12,
    "isotropy_relative": 1e-12,
    "recovery_pointwise": 1e-12,
    "defect_spectrum_relative": 1e-6,
    "planar_energy_relative": 1e-6,
    "susy_map_pointwise": 1e-10,
    "orthonormality": 1e-10,
}

# Structural thresholds, deliberately not scaled by TRAPSPEC_TOL_SCALE.
SLOPE_FLOOR = 3.5
MIXING_FLOOR = 1e-3
SPECTRUM_BUDGET_SECONDS = 60.0


def tolerance_scale() -> float:
    raw = os.environ.get("TRAPSPEC_TOL_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigError(f"TRAPSPEC_TOL_SCALE must be a number, got {raw!r}") from exc
    if not math.isfinite(scale) or scale <= 0.0:
        raise ConfigError(f"TRAPSPEC_TOL_SCALE must be finite and positive, got {raw!r}")
    return scale


def tolerance(key: str) -> float:
    return TOLERANCES[key] * tolerance_scale()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def reference_ip_geometry() -> IoffePritchardGeometry:
    """Centimeter-scale coil pair with bars tuned for isotropy."""
    geo = IoffePritchardGeometry(
        coil_radius=0.02, coil_halfspacing=0.02, coil_current=100.0,
        bar_distance=0.01, bar_current=1.0,
    )
    return replace(geo, bar_current=solve_bar_current(geo))


def reference_top_geometry() -> TopGeometry:
    """Bias pair plus quadrupole pair, quadrupole tuned for isotropy."""
    geo = TopGeometry(
        quad_radius=0.02, quad_halfspacing=0.02, quad_current=1.0,
        bias_radius=0.03, bias_halfspacing=0.03, bias_current=20.0,
        bias_frequency=2.0 * math.pi * 1.0e4,
    )
    return replace(geo, quad_current=solve_quad_current(geo))


def reference_particle() -> DipoleParticle:
    """Alkali-scale dipole: mu ~ half a Bohr magneton, m ~ 87 u."""
    return DipoleParticle(magnetic_moment=4.6e-24, mass=1.44e-25)


def _problem(potential, centrifugal, r_max=12.0, origin_exponent=None) -> RadialProblem:
    return RadialProblem(
        potential=potential, centrifugal=centrifugal, mass=1.0,
        r_min=1e-6, r_max=r_max, origin_exponent=origin_exponent,
    )


def _well(omega: float):
    """Harmonic well ``w^2 r^2 / 2``."""
    return lambda r: 0.5 * omega**2 * np.asarray(r, float) ** 2


def _tower_problem(lam: float, omega: float, well) -> RadialProblem:
    """Radial problem of tower ``lam``, ``lam(lam+1)/r^2 + well``, in natural units.

    ``well`` is :func:`_well` at ``omega``; a suite builds one per frequency
    and shares it, so a batched solve samples it once.  The origin exponent
    ``lam + 1`` is the closed forms' ``r^(lam+1)``: the principal indicial
    root for every ``lam >= -1/2`` (all 3D and planar towers), the other,
    still regular, root for shifted towers below that.
    """
    return _problem(
        well, lam * (lam + 1.0),
        r_max=12.0 / math.sqrt(omega), origin_exponent=lam + 1.0,
    )


def _solve_energies(problems, node_targets) -> list[float]:
    """Eigenvalues of all states of a suite from one batched solve."""
    return [res.energy for res in solve_eigens(problems, node_targets)]


# --------------------------------------------------------------------------
# 1. Closed-form isotropic-trap spectrum against the radial solver.


def check_spectrum_oracle(max_n: int = 16, max_l: int = 6) -> CheckResult:
    scales = OscillatorScales.natural()
    start = time.perf_counter()
    worst, worst_label, n_states = 0.0, "", 0
    states = [(n, l) for n in range(max_n + 1) for l in allowed_angular(n) if l <= max_l]
    well = _well(1.0)
    numeric = _solve_energies(
        [_tower_problem(l, 1.0, well) for _, l in states],
        [(n - l) // 2 for n, l in states],
    )
    for (n, l), energy in zip(states, numeric):
        exact = energy_3d(scales, n)
        rel = abs(energy - exact) / exact
        n_states += 1
        if rel > worst:
            worst, worst_label = rel, f"(N={n}, L={l})"
    elapsed = time.perf_counter() - start
    thr = tolerance("spectrum_relative")
    passed = worst <= thr and elapsed <= SPECTRUM_BUDGET_SECONDS
    return CheckResult(
        name="spectrum-oracle",
        passed=passed,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst relative error {worst:.3e} at {worst_label} over {n_states} "
            f"states (tol {thr:.1e}), {elapsed:.1f} s of {SPECTRUM_BUDGET_SECONDS:.0f} s"
        ),
    )


# --------------------------------------------------------------------------
# 2. Partner-potential degeneracy from independent numeric solves.


def check_partner_degeneracy(l_values=(0, 1, 2, 3, 4), levels: int = 6) -> CheckResult:
    scales = OscillatorScales.natural()
    pref = scales.hbar**2 / (2.0 * scales.mass)
    thr = tolerance("degeneracy_relative")
    ground_thr = tolerance("ground_zero_quanta") * scales.quantum
    worst, worst_label = 0.0, ""
    worst_ground = 0.0

    problems, targets = [], []
    for l in l_values:
        pair = partner_pair(l, scales)
        c_plus = l * (l + 1.0)
        c_minus = (l + 1.0) * (l + 2.0)

        def plus_reg(r, _pair=pair, _c=c_plus):
            return _pair.plus_potential(r) - pref * _c / (np.asarray(r, float) ** 2)

        def minus_reg(r, _pair=pair, _c=c_minus):
            return _pair.minus_potential(r) - pref * _c / (np.asarray(r, float) ** 2)

        problems += [_problem(plus_reg, c_plus)] * (levels + 1)
        problems += [_problem(minus_reg, c_minus)] * levels
        targets += list(range(levels + 1)) + list(range(levels))
    energies = _solve_energies(problems, targets)

    for i, l in enumerate(l_values):
        block = energies[i * (2 * levels + 1) : (i + 1) * (2 * levels + 1)]
        plus, minus = block[: levels + 1], block[levels + 1 :]
        worst_ground = max(worst_ground, abs(plus[0]))
        for k in range(levels):
            rel = abs(plus[k + 1] - minus[k]) / abs(minus[k])
            if rel > worst:
                worst, worst_label = rel, f"(L={l}, level {k})"

    passed = worst <= thr and worst_ground <= ground_thr
    return CheckResult(
        name="susy-degeneracy",
        passed=passed,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst partner-level mismatch {worst:.3e} at {worst_label} "
            f"(tol {thr:.1e}); unpaired ground at {worst_ground:.3e} quanta "
            f"(tol {ground_thr / scales.quantum:.1e})"
        ),
    )


# --------------------------------------------------------------------------
# 3. Inverse-square gap between the L=0 partners.


def check_pauli_gap(n_radii: int = 100, seed: int = 20260825) -> CheckResult:
    scales = OscillatorScales.natural()
    pair = partner_pair(0, scales)
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n_radii)) * scales.r0
    gap = pair.minus_potential(radii) - pair.plus_potential(radii)
    target = scales.hbar**2 / (scales.mass * radii**2) + scales.quantum
    worst = float(np.max(np.abs(gap - target) / target))
    thr = tolerance("pauli_gap_relative")
    return CheckResult(
        name="pauli-gap",
        passed=worst <= thr,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst relative gap deviation {worst:.3e} over {n_radii} radii "
            f"in [1e-2, 1e2] r0 (tol {thr:.1e})"
        ),
    )


# --------------------------------------------------------------------------
# 4. Node counts of the analytic radial profiles.


def check_node_counts(max_l_partner: int = 4, max_n: int = 12) -> CheckResult:
    scales = OscillatorScales.natural()
    grid = np.linspace(1e-4, 12.0, 12001) * scales.r0
    # Each partner W_{N_s-1, L+1} is nodeless; it shares its tower with the L+1 states.
    checks = [
        (f"partner (N_s={l + 2}, L={l})", partner_wavefunction(l + 2, l, scales), 0)
        for l in range(max_l_partner + 1)
    ] + [
        (f"(N={n}, L={l})", radial_wavefunction_3d(scales, n, l), (n - l) // 2)
        for n in range(max_n + 1)
        for l in allowed_angular(n)
    ]
    profiles = tower_rows([state for _, state, _ in checks], grid)
    mismatches = []
    for (label, _, want), profile in zip(checks, profiles):
        found = count_nodes(profile)
        if found != want:
            mismatches.append(f"{label}: {found} != {want}")
    n_checked = len(checks)

    return CheckResult(
        name="node-counts",
        passed=not mismatches,
        measured=float(len(mismatches)),
        threshold=0.0,
        detail=(
            f"{len(mismatches)} node-count mismatches over {n_checked} profiles"
            + (f"; first: {mismatches[0]}" if mismatches else "")
        ),
    )


# --------------------------------------------------------------------------
# 5. Counting formulas against brute-force enumeration.


def _brute_degeneracy_3d(n: int) -> int:
    return sum(n - nx + 1 for nx in range(n + 1))


def _brute_paul_count(e_tilde: int) -> int:
    total = 0
    for k in range(e_tilde // 2):
        budget = e_tilde - 2 - 2 * k  # remaining quanta for N = 2n_r + |M|
        for m in range(-budget, budget + 1):
            total += (budget - abs(m)) // 2 + 1
    return 2 * total  # both spin projections


def check_combinatorics(max_n: int = 30) -> CheckResult:
    failures = []
    running = 0
    for n in range(max_n + 1):
        brute = _brute_degeneracy_3d(n)
        running += brute
        if degeneracy(n) != brute:
            failures.append(f"degeneracy({n}) = {degeneracy(n)} != {brute}")
        if shell_capacity(n) != running:
            failures.append(f"shell_capacity({n}) = {shell_capacity(n)} != {running}")

    sequences = (
        (related_systems_3d(0, 4), [1, 5, 21, 57]),
        (related_systems_3d(1, 4), [2, 11, 36, 85]),
        (paul_related_systems(7), [1, 3, 7, 15, 27, 45, 69]),
    )
    for got, expected in sequences:
        if got != expected:
            failures.append(f"sequence {got} != {expected}")

    for e in range(2, max_n + 1):
        brute = _brute_paul_count(e)
        if paul_shell_count(e) != brute:
            failures.append(f"paul_shell_count({e}) = {paul_shell_count(e)} != {brute}")

    return CheckResult(
        name="combinatorics",
        passed=not failures,
        measured=float(len(failures)),
        threshold=0.0,
        detail=(
            f"{len(failures)} mismatches over degeneracies, capacities, "
            f"three printed sequences, and planar counts to {max_n} quanta"
            + (f"; first: {failures[0]}" if failures else "")
        ),
    )


# --------------------------------------------------------------------------
# 6. Isotropy tuning: equal stiffness in every direction.


def _quadratic_coefficient(values_h, value_0, h: float) -> float:
    return (values_h - value_0) / (h * h)


def check_isotropy_tuning() -> CheckResult:
    particle = reference_particle()
    thr = tolerance("isotropy_relative")
    worst, worst_label = 0.0, ""

    for label, scales, potential in (
        ("ip", ip_scales(reference_ip_geometry()), ip_potential),
        ("top", top_scales(reference_top_geometry()), top_time_avg_potential),
    ):
        r_s = scales.isotropic_radius
        h = 0.3 * r_s
        u0 = potential(particle, scales, 0.0, 0.0)
        lam_rho = _quadratic_coefficient(potential(particle, scales, h, 0.0), u0, h)
        lam_z = _quadratic_coefficient(potential(particle, scales, 0.0, h), u0, h)
        rel_stiff = abs(lam_rho - lam_z) / abs(lam_z)
        # U = mu B0 (1 + r^2/r_s^2) pins the stiffness to mu B0 / r_s^2.
        rel_radius = abs(lam_z * r_s**2 / u0 - 1.0)
        for rel, tag in ((rel_stiff, f"{label} stiffness"), (rel_radius, f"{label} radius")):
            if rel > worst:
                worst, worst_label = rel, tag

    return CheckResult(
        name="isotropy-tuning",
        passed=worst <= thr,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst relative deviation {worst:.3e} ({worst_label}) across "
            f"stiffness equality and trap-radius identities (tol {thr:.1e})"
        ),
    )


# --------------------------------------------------------------------------
# 7. Series fields against conductor-level oracles: truncation-order slopes.


def _fitted_slope(radii, errors) -> float:
    return float(np.polyfit(np.log(radii), np.log(errors), 1)[0])


def check_field_oracle(n_points: int = 9) -> CheckResult:
    particle = reference_particle()
    fractions = np.geomspace(1e-3, 1e-1, n_points)
    direction = np.array([0.36, 0.48, 0.8])

    ip_geo = reference_ip_geometry()
    scales = ip_scales(ip_geo)
    points = direction * fractions[:, None] * scales.length
    series = ip_field_cartesian(scales, *points.T)
    exact = biot_savart_field(TrapAssembly.ioffe_pritchard(ip_geo), points)
    ip_slope = _fitted_slope(fractions, np.linalg.norm(series - exact, axis=1) / scales.field)

    top_geo = reference_top_geometry()
    tscales = top_scales(top_geo)
    errs = []
    for frac in fractions:
        point = direction * frac * tscales.length
        numeric = top_time_average_numeric(particle, tscales, *point)
        closed = top_time_avg_potential(particle, tscales, math.hypot(point[0], point[1]),
                                        point[2])
        errs.append(abs(numeric - closed) / (particle.magnetic_moment * tscales.field))
    top_slope = _fitted_slope(fractions, np.asarray(errs))

    measured = min(ip_slope, top_slope)
    return CheckResult(
        name="field-oracle",
        passed=measured >= SLOPE_FLOOR,
        measured=measured,
        threshold=SLOPE_FLOOR,
        detail=(
            f"truncation-error slopes {ip_slope:.2f} (coil assembly) and "
            f"{top_slope:.2f} (drive-period average) over r/l in [1e-3, 1e-1], "
            f"{n_points} points (floor {SLOPE_FLOOR:.1f})"
        ),
    )


# --------------------------------------------------------------------------
# 8. Quantum-defect model: recovery at zero shift, solver agreement, mixing.


def check_defect_model() -> CheckResult:
    scales = OscillatorScales.natural()
    radii = np.geomspace(0.05, 8.0, 40) * scales.r0
    thr_point = tolerance("recovery_pointwise")
    thr_spec = tolerance("defect_spectrum_relative")
    floor = scales.quantum
    worst_point = 0.0

    for l in range(3):
        pair = partner_pair(l, scales)
        plus_rec = recover_partner(0, 0, l, scales)
        minus_rec = recover_partner(1, 0, l, scales)
        for got, want in (
            (plus_rec.potential(radii), input_potential(l, scales)(radii)),
            (minus_rec.potential(radii), pair.minus_potential(radii)),
        ):
            dev = np.max(np.abs(got - want) / np.maximum(np.abs(want), floor))
            worst_point = max(worst_point, float(dev))

    model = EffectiveModel(l_angular=0, iterations=0, selector=0, delta=0.3, scales=scales)
    tower = _tower_problem(model.l_star, 1.0, _well(1.0))
    worst_spec = 0.0
    for k, numeric in enumerate(_solve_energies([tower] * 5, range(5))):
        exact = defect_energy(model, 2 * k)
        worst_spec = max(worst_spec, abs(numeric - exact) / exact)

    # The tower's orthonormality is the orthonormality suite's "shifted tower".
    # A label-dependent shift moves each level onto a different effective
    # centrifugal index, so the tower stops being orthogonal.
    mixed = [
        defect_wavefunction(
            EffectiveModel(l_angular=0, iterations=0, selector=0,
                           delta=0.3 + 0.15 * (k % 2), scales=scales),
            2 * k,
        )
        for k in range(4)
    ]
    matrix = gram(functools.partial(tower_rows, mixed), 0.0, 14.0 * scales.r0)
    mixing = float(np.max(np.abs(matrix[np.triu_indices(4, 1)])))

    passed = worst_point <= thr_point and worst_spec <= thr_spec and mixing > MIXING_FLOOR
    return CheckResult(
        name="defect-model",
        passed=passed,
        measured=worst_spec,
        threshold=thr_spec,
        detail=(
            f"zero-shift recovery {worst_point:.3e} (tol {thr_point:.1e}); "
            f"shifted-tower solver mismatch {worst_spec:.3e} (tol {thr_spec:.1e}); "
            f"label-dependent shift mixing {mixing:.3e} (must exceed {MIXING_FLOOR:.0e})"
        ),
    )


# --------------------------------------------------------------------------
# 9. Planar traps: separated closed forms against 2D radial solves.


def _planar_reference() -> tuple[PaulFrequencies, PenningFrequencies]:
    paul = PaulFrequencies(quadrupole=80.0, drive=1600.0, mass=1.0, hbar=1.0)  # w_p = 1
    penning = PenningFrequencies(axial=1.0, cyclotron=math.sqrt(7.0), mass=1.0, hbar=1.0)
    return paul, penning


def check_planar_traps(max_n: int = 4, max_k: int = 4, max_abs_m: int = 3) -> CheckResult:
    paul, penning = _planar_reference()
    thr = tolerance("planar_energy_relative")
    worst, worst_label = 0.0, ""

    levels = [(n, m) for m in range(max_abs_m + 1) for n in range(m, max_n + 1, 2)]
    wells = [(omega, _well(omega)) for omega in (paul.secular, penning.hybrid / 2.0)]
    energies = _solve_energies(
        [_tower_problem(m - 0.5, omega, well) for omega, well in wells for _, m in levels],
        [(n - m) // 2 for n, m in levels] * len(wells),
    )
    radial_paul = dict(zip(levels, energies[: len(levels)]))
    radial_penning = dict(zip(levels, energies[len(levels) :]))

    for (n, m), e_radial in radial_paul.items():
        for k in range(max_k + 1):
            exact = paul_energy(paul, n, k)
            numeric = e_radial + paul.quantum * (2 * k + 1)
            rel = abs(numeric - exact) / exact
            if rel > worst:
                worst, worst_label = rel, f"paul (N={n}, M={m}, K={k})"

    for (n, m_abs), e_radial in radial_penning.items():
        for m in {m_abs, -m_abs}:
            for k in range(max_k + 1):
                exact = penning_energy(penning, n, k, m)
                numeric = (
                    e_radial
                    - 0.5 * penning.hbar * penning.cyclotron * m
                    + penning.hbar * penning.axial * (k + 0.5)
                )
                rel = abs(numeric - exact) / abs(exact)
                if rel > worst:
                    worst, worst_label = rel, f"penning (N={n}, M={m}, K={k})"

    # Partner map: applying the ladder operator d/drho + U' to a tower state
    # must land on the index-shifted profile of the next tower.
    thr_map = tolerance("susy_map_pointwise")
    grid = np.linspace(1e-3, 12.0, 4001)
    worst_map = 0.0
    for m in range(3):
        pair = paul_susy_partner(paul, m)
        for n_s in (m + 2, m + 4):
            state = paul_wavefunctions(paul, n_s, m, 0).radial
            lowered = state.derivative(grid) + pair.generator.derivative(grid) * state(grid)
            target = pair.partner_wavefunction(n_s - 0.5)(grid)
            lowered /= math.sqrt(np.trapezoid(lowered**2, grid))
            target /= math.sqrt(np.trapezoid(target**2, grid))
            if float(lowered @ target) < 0.0:
                lowered = -lowered
            worst_map = max(worst_map, float(np.max(np.abs(lowered - target))))

    passed = worst <= thr and worst_map <= thr_map
    return CheckResult(
        name="planar-traps",
        passed=passed,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst level mismatch {worst:.3e} at {worst_label} (tol {thr:.1e}); "
            f"ladder-map pointwise deviation {worst_map:.3e} (tol {thr_map:.1e})"
        ),
    )


# --------------------------------------------------------------------------
# 10. Orthonormality of every analytic family by quadrature.


def orthonormality_families(max_n: int = 12) -> list[tuple[str, list, tuple[float, float]]]:
    """The families the orthonormality suite checks: (label, states, interval)."""
    scales = OscillatorScales.natural()
    paul, penning = _planar_reference()
    families = []
    for l in range(3):
        families.append((
            f"radial L={l}",
            [radial_wavefunction_3d(scales, n, l) for n in range(l, max_n + 1, 2)],
            (0.0, 14.0),
        ))
    for l in range(2):
        families.append((
            f"partner L={l}",
            [partner_wavefunction(n_s, l, scales) for n_s in range(l + 2, max_n + 1, 2)],
            (0.0, 14.0),
        ))
    for m in range(3):
        families.append((
            f"planar |M|={m}",
            [paul_wavefunctions(paul, n, m, 0).radial for n in range(m, max_n + 1, 2)],
            (0.0, 12.0),
        ))
    z0 = paul.axial_scales.r0
    families.append((
        "axial",
        [paul_wavefunctions(paul, 0, 0, k).axial for k in range(max_n + 1)],
        (-15.0 * z0, 15.0 * z0),
    ))
    for m in (0, 1):
        families.append((
            f"hybrid |M|={m}",
            [penning_wavefunction(penning, n, 0, m).radial for n in range(m, max_n + 1, 2)],
            (0.0, 12.0 * penning.radial_scales.r0),
        ))
    model = EffectiveModel(l_angular=0, iterations=0, selector=0, delta=0.3, scales=scales)
    families.append((
        "shifted tower",
        [defect_wavefunction(model, n_s) for n_s in range(0, max_n + 1, 2)],
        (0.0, 14.0),
    ))
    return families


def check_orthonormality(max_n: int = 12) -> CheckResult:
    thr = tolerance("orthonormality")
    worst, worst_label = 0.0, ""
    families = orthonormality_families(max_n)
    n_pairs = 0
    for label, states, (lo, hi) in families:
        # Upper triangle only: the first worst pair in row order, as a
        # pair-by-pair scan would name it.
        matrix = gram(functools.partial(tower_rows, states), lo, hi)
        deviation = np.triu(np.abs(matrix - np.eye(len(states))))
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        n_pairs += len(states) * (len(states) + 1) // 2
        if deviation[i, j] > worst:
            worst, worst_label = float(deviation[i, j]), f"{label} pair ({i},{j})"

    return CheckResult(
        name="orthonormality",
        passed=worst <= thr,
        measured=worst,
        threshold=thr,
        detail=(
            f"worst Gram deviation {worst:.3e} at {worst_label} over "
            f"{n_pairs} quadrature pairs in {len(families)} families (tol {thr:.1e})"
        ),
    )


SUITES = {
    "spectrum": check_spectrum_oracle,
    "susy": check_partner_degeneracy,
    "pauli-gap": check_pauli_gap,
    "nodes": check_node_counts,
    "combinatorics": check_combinatorics,
    "isotropy": check_isotropy_tuning,
    "field-oracle": check_field_oracle,
    "defect": check_defect_model,
    "planar": check_planar_traps,
    "orthonormality": check_orthonormality,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    """Run one named suite, or all of them in criterion order."""
    if name == "all":
        return [SUITES[key]() for key in SUITE_ORDER]
    if name not in SUITES:
        raise ConfigError(
            f"unknown verification suite {name!r}; expected 'all' or one of "
            + ", ".join(SUITE_ORDER)
        )
    return [SUITES[name](**kwargs)]
