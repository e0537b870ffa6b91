"""Input contract: every public function and record rejects a bad label or scale with DomainError.

Each row of ``CASES`` names a callable, a valid base call and, for each
argument under test, the start of the message it must raise and the values
to feed it one at a time. A probe must raise ``DomainError`` itself (not a
subclass, nor the ``ValueError``/``OverflowError`` of ``int(nan)`` or
``int(inf)``), and the base call must return finite numbers.
"""

import dataclasses
import math

import numpy as np
import pytest

from trapspec.defect import EffectiveModel, defect_energy, defect_wavefunction, recover_partner
from trapspec.errors import DomainError
from trapspec.fields import (
    CircularLoop,
    DipoleParticle,
    IoffePritchardGeometry,
    TopGeometry,
    oscillator_scales,
)
from trapspec.numerov import RadialProblem, solve_eigens
from trapspec.oscillator3d import (
    OscillatorScales,
    allowed_angular,
    degeneracy,
    energy_3d,
    radial_wavefunction_3d,
    shell_capacity,
    shell_table,
    valence_total,
    validate_quantum_numbers_3d,
)
from trapspec.planar import (
    PaulFrequencies,
    PaulParams,
    PenningFrequencies,
    PenningParams,
    paul_energy,
    paul_related_systems,
    paul_shell_count,
    paul_spectrum,
    paul_susy_partner,
    paul_wavefunctions,
    penning_energy,
    penning_spectrum,
    penning_state_count,
    penning_susy_partner,
    penning_wavefunction,
    validate_planar_numbers,
)
from trapspec.special import hermite, laguerre_gen, radial_norm_3d
from trapspec.susy import (
    input_potential,
    partner_spectrum,
    partner_wavefunction,
    related_systems_3d,
    superpotential,
)

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an integer no float can hold
NON_FINITE = (NAN, INF, -INF)
INTEGRAL = (*NON_FINITE, 2.5, HUGE)  # labels that may be negative
LABEL = (*INTEGRAL, -1)  # labels and counts that must be nonnegative
SCALE = (*NON_FINITE, 0.0, -1.0)  # masses, frequencies, lengths, hbar
SIGNED = (*NON_FINITE, 0.0)  # voltages, currents, charges, fields

OSC = OscillatorScales.natural()
PAUL = PaulFrequencies(quadrupole=80.0, drive=1600.0, mass=1.0, hbar=1.0)
PENNING = PenningFrequencies(axial=1.0, cyclotron=math.sqrt(7.0), mass=1.0, hbar=1.0)
MODEL = EffectiveModel(l_angular=1, iterations=1, selector=0, delta=0.25, scales=OSC)
PARTICLE = DipoleParticle(magnetic_moment=4.6e-24, mass=1.44e-25)
PROBLEM = RadialProblem(lambda r: 0.5 * r * r, 0.0, 1.0, 1e-6, 12.0, n_points=2000)


def solve_one(node_target):
    """Energy of one oscillator level, through the batch solver's target check."""
    return solve_eigens([PROBLEM], [node_target])[0].energy


# (callable, valid keyword arguments, {argument: (message start, probes)})
CASES = [
    (OscillatorScales, dict(mass=2.0, omega0=3.0, energy_offset=0.5, hbar=1.0),
     {"mass": ("mass", SCALE), "omega0": ("omega0", SCALE), "hbar": ("hbar", SCALE),
      "energy_offset": ("energy_offset", NON_FINITE)}),
    (validate_quantum_numbers_3d, dict(n_principal=4, l_angular=2, m_angular=-1),
     {"n_principal": ("N", LABEL), "l_angular": ("L", LABEL), "m_angular": ("M", INTEGRAL)}),
    (radial_wavefunction_3d, dict(scales=OSC, n_principal=4, l_angular=2),
     {"n_principal": ("N", LABEL), "l_angular": ("L", LABEL)}),
    (allowed_angular, dict(n_principal=5), {"n_principal": ("N", LABEL)}),
    (energy_3d, dict(scales=OSC, n_principal=3), {"n_principal": ("N", LABEL)}),
    (degeneracy, dict(n_principal=3), {"n_principal": ("N", LABEL)}),
    (shell_capacity, dict(n_principal=3), {"n_principal": ("N", (*INTEGRAL, -2))}),
    (shell_table, dict(max_n=3), {"max_n": ("max_n", LABEL)}),
    (valence_total, dict(n_valence=1, d_occupancy=4),
     {"n_valence": ("N", (*INTEGRAL, -2)), "d_occupancy": ("occupancy", (*LABEL, 0, 7))}),
    (laguerre_gen, dict(n=3, alpha=0.5, x=1.0),
     {"n": ("Laguerre degree", LABEL), "alpha": ("Laguerre order", (*NON_FINITE, -1.0))}),
    (hermite, dict(k=3, x=0.5), {"k": ("Hermite index", LABEL)}),
    (radial_norm_3d, dict(n_principal=4.0, l_angular=2.0, r0=1.5),
     {"n_principal": ("N", LABEL), "r0": ("r0", SCALE)}),
    (validate_planar_numbers, dict(n_radial=3, m_azimuthal=-1, k_axial=2),
     {"n_radial": ("N", LABEL), "m_azimuthal": ("M", INTEGRAL), "k_axial": ("K", LABEL)}),
    (paul_energy, dict(freqs=PAUL, n_radial=3, k_axial=2),
     {"n_radial": ("N", LABEL), "k_axial": ("K", LABEL)}),
    (paul_wavefunctions, dict(freqs=PAUL, n_radial=3, m_azimuthal=-1, k_axial=2),
     {"n_radial": ("N", LABEL), "m_azimuthal": ("M", INTEGRAL), "k_axial": ("K", LABEL)}),
    (penning_energy, dict(freqs=PENNING, n_radial=3, k_axial=2, m_azimuthal=-1),
     {"n_radial": ("N", LABEL), "m_azimuthal": ("M", INTEGRAL), "k_axial": ("K", LABEL),
      "magnetron_cap": ("magnetron_cap", LABEL)}),
    (penning_wavefunction, dict(freqs=PENNING, n_radial=3, k_axial=2, m_azimuthal=-1),
     {"n_radial": ("N", LABEL), "m_azimuthal": ("M", INTEGRAL), "k_axial": ("K", LABEL),
      "magnetron_cap": ("magnetron_cap", LABEL)}),
    (paul_spectrum, dict(freqs=PAUL, max_n=3, max_k=2),
     {"max_n": ("max_n", LABEL), "max_k": ("max_k", LABEL)}),
    (penning_spectrum, dict(freqs=PENNING, max_n=3, max_k=2),
     {"max_n": ("max_n", LABEL), "max_k": ("max_k", LABEL)}),
    (paul_susy_partner, dict(freqs=PAUL, abs_m=1), {"abs_m": ("|M|", LABEL)}),
    (penning_susy_partner, dict(freqs=PENNING, abs_m=1), {"abs_m": ("|M|", LABEL)}),
    (paul_shell_count, dict(e_tilde=6), {"e_tilde": ("scaled energy", (*LABEL, 1))}),
    (paul_related_systems, dict(count=4), {"count": ("count", (*LABEL, 0))}),
    (penning_state_count, dict(freqs=PENNING, energy_cap=6.0, magnetron_cap=3),
     {"magnetron_cap": ("magnetron_cap", LABEL), "energy_cap": ("energy_cap", NON_FINITE)}),
    (PaulParams, dict(voltage=5.0, size=1e-3, drive=1.2e8, charge=1.6e-19, mass=6.6e-26),
     {"voltage": ("voltage", SIGNED), "size": ("size", SCALE), "drive": ("drive", SCALE),
      "charge": ("charge", SIGNED), "mass": ("mass", SCALE)}),
    (PaulFrequencies, dict(quadrupole=80.0, drive=1600.0, mass=1.0, hbar=1.0),
     {name: (name, SCALE) for name in ("quadrupole", "drive", "mass", "hbar")}),
    (PenningParams, dict(voltage=10.0, size=1e-3, axial_field=5.0, charge=1.6e-19, mass=1e-25),
     {"voltage": ("voltage", SIGNED), "size": ("size", SCALE),
      "axial_field": ("axial_field", SIGNED), "charge": ("charge", SCALE),
      "mass": ("mass", SCALE)}),
    (PenningFrequencies, dict(axial=1.0, cyclotron=3.0, mass=1.0, hbar=1.0),
     {name: (name, SCALE) for name in ("axial", "cyclotron", "mass", "hbar")}),
    (superpotential, dict(l_angular=0.5, r0=1.0),
     {"l_angular": ("tower index", NON_FINITE), "r0": ("r0", SCALE)}),
    (input_potential, dict(l_angular=1, scales=OSC), {"l_angular": ("L", LABEL)}),
    (partner_spectrum, dict(l_angular=1, n_spectroscopic=3, scales=OSC),
     {"l_angular": ("L", LABEL), "n_spectroscopic": ("N_s", INTEGRAL)}),
    (partner_wavefunction, dict(n_spectroscopic=3, l_angular=1, scales=OSC),
     {"l_angular": ("L", LABEL), "n_spectroscopic": ("N_s", INTEGRAL)}),
    (related_systems_3d, dict(l_angular=1, count=4), {"count": ("count", (*LABEL, 0))}),
    (EffectiveModel, dict(l_angular=1, iterations=1, selector=0, delta=0.25, scales=OSC),
     {"l_angular": ("l_angular", LABEL), "iterations": ("iterations", LABEL),
      "selector": ("selector", (*LABEL, 2)), "delta": ("delta", NON_FINITE)}),
    (defect_energy, dict(model=MODEL, n_spectroscopic=5), {"n_spectroscopic": ("N_s", LABEL)}),
    (defect_wavefunction, dict(model=MODEL, n_spectroscopic=5),
     {"n_spectroscopic": ("N_s", LABEL)}),
    (recover_partner, dict(selector=1, iterations=1, l_angular=1, scales=OSC),
     {"selector": ("selector", (*LABEL, 2)), "iterations": ("iterations", LABEL),
      "l_angular": ("l_angular", LABEL)}),
    (recover_partner(0, 1, 1, OSC).spectrum, dict(n_spectroscopic=5),
     {"n_spectroscopic": ("N_s", LABEL)}),
    (RadialProblem, dict(potential=PROBLEM.potential, centrifugal=2.0, mass=1.0, r_min=1e-6,
                         r_max=12.0, hbar=1.0, origin_exponent=2.0),
     {"mass": ("mass", SCALE), "hbar": ("hbar", SCALE),
      **{name: (name, NON_FINITE)
         for name in ("r_min", "r_max", "centrifugal", "origin_exponent")}}),
    (solve_one, dict(node_target=1), {"node_target": ("node_target of state 0", LABEL)}),
    (IoffePritchardGeometry, dict(coil_radius=0.02, coil_halfspacing=0.02, coil_current=100.0,
                                  bar_distance=0.01, bar_current=25.0),
     {"coil_radius": ("coil_radius", SCALE), "coil_halfspacing": ("coil_halfspacing", SCALE),
      "coil_current": ("coil_current", SIGNED), "bar_distance": ("bar_distance", SCALE),
      "bar_current": ("bar_current", SIGNED)}),
    (TopGeometry, dict(quad_radius=0.02, quad_halfspacing=0.02, quad_current=100.0,
                       bias_radius=0.05, bias_halfspacing=0.05, bias_current=10.0,
                       bias_frequency=6e4),
     {**{name: (name, SCALE) for name in ("quad_radius", "quad_halfspacing", "bias_radius",
                                          "bias_halfspacing", "bias_frequency")},
      **{name: (name, SIGNED) for name in ("quad_current", "bias_current")}}),
    (DipoleParticle, dict(magnetic_moment=4.6e-24, mass=1.44e-25),
     {"magnetic_moment": ("only dipoles anti-aligned", SCALE), "mass": ("mass", SCALE)}),
    (oscillator_scales, dict(particle=PARTICLE, field_at_center=2e-3, isotropic_radius=0.02),
     {"field_at_center": ("field_at_center", SCALE),
      "isotropic_radius": ("isotropic_radius", SCALE)}),
    (CircularLoop, dict(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0), radius=0.02, current=1.0),
     {"radius": ("radius", SCALE)}),
]


def _name(func) -> str:
    return getattr(func, "__qualname__", func.__name__)


def _show(value) -> str:
    return "10**400" if value == HUGE else repr(value)


PROBES = [
    pytest.param(func, base, arg, start, value, id=f"{_name(func)}-{arg}={_show(value)}")
    for func, base, checked in CASES
    for arg, (start, values) in checked.items()
    for value in values
]


@pytest.mark.parametrize("func, base, arg, start, value", PROBES)
def test_bad_input_raises_domain_error(func, base, arg, start, value):
    with pytest.raises(DomainError) as caught:
        func(**{**base, arg: value})
    assert type(caught.value) is DomainError
    assert str(caught.value).startswith(f"{start} ")


def _numbers(value):
    """Every number ``value`` holds: its items, record fields and properties."""
    if isinstance(value, (int, float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
        for name, attr in vars(type(value)).items():
            if isinstance(attr, property):
                yield from _numbers(getattr(value, name))
    elif callable(value):
        yield from _numbers(value(1.0))


@pytest.mark.parametrize("func, base", [pytest.param(f, b, id=_name(f)) for f, b, _ in CASES])
def test_valid_base_call_is_finite(func, base):
    assert all(math.isfinite(x) for x in _numbers(func(**base)))


# Finite scales whose products, quotients or squares leave the float range.
EXTREMES = [
    (PenningFrequencies, dict(axial=1.0, cyclotron=1e200, mass=1.0)),
    (PenningFrequencies, dict(axial=1e200, cyclotron=1.0, mass=1.0)),
    (PenningFrequencies, dict(axial=1.0, cyclotron=1e150, mass=1.0)),
    (PaulFrequencies, dict(quadrupole=1e200, drive=1.0, mass=1.0)),
    (PaulFrequencies, dict(quadrupole=1e150, drive=1e-100, mass=1.0)),
    (PaulFrequencies, dict(quadrupole=1e-200, drive=1.0, mass=1.0)),
    (OscillatorScales, dict(mass=1e-200, omega0=1e-200)),
    (OscillatorScales, dict(mass=1e200, omega0=1e200)),
    (OscillatorScales, dict(mass=1e-300, omega0=1e-10, hbar=1.0)),
]


@pytest.mark.parametrize("func, kwargs", [
    pytest.param(f, k, id=f"{_name(f)}-" + ",".join(f"{a}={v:g}" for a, v in k.items()))
    for f, k in EXTREMES
])
def test_extreme_scale_gives_a_typed_error_or_finite_numbers(func, kwargs):
    try:
        numbers = list(_numbers(func(**kwargs)))
    except DomainError:
        return
    assert all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize("label, start, message", [
    (HUGE, 2, "N is too large for a float"),
    (HUGE, 2.0, "N is too large for a float"),
    (4, HUGE, "the start of the N tower is too large for a float"),
    (4.0, HUGE, "the start of the N tower is too large for a float"),
], ids=["int-over-int", "int-over-float", "int-under-int", "float-under-int"])
def test_label_or_start_beyond_the_float_range(label, start, message):
    with pytest.raises(DomainError) as caught:
        radial_norm_3d(n_principal=label, l_angular=start, r0=1.5)
    assert type(caught.value) is DomainError
    assert str(caught.value).startswith(message)
