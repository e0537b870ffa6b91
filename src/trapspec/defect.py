"""Quantum-defect towers of the isotropic oscillator.

By analogy with alkali Rydberg spectroscopy, interactions between a valence
particle and the closed shells below it are modeled by a constant downward
shift ``delta`` of the principal quantum number within one angular-momentum
tower: levels sit at ``E = E0 + hbar w0 (N* + 3/2)`` with shifted indices

    N* = N_s - I - delta ,    L* = L + I - delta ,

where ``N_s = N + 2I`` is the spectroscopic label after ``I`` partner-ladder
iterations.  The eigenfunctions are the analytic oscillator profiles
``W_{N*,L*}`` continued to non-integer indices; the gap ``N* - L* = N - L``
stays an even integer, so Laguerre degrees remain integral for any
``delta``.  The shifted tower is produced by adding an inverse-square
effective potential to the trap, and it stays orthonormalizable exactly as
long as ``delta`` is the same for every level of the tower and
``delta < L + I + 3/2``.

Setting ``delta = 0`` and choosing the partner selector recovers the
supersymmetric partner hamiltonians of any iteration order in closed form;
:func:`recover_partner` packages that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ExcludedLevelError, NormalizabilityError, finite, integer
from .oscillator3d import OscillatorScales, RadialEigenstate, _tower_level, tower_state
from .special import tower_degree
from .susy import tower_potential

__all__ = [
    "EffectiveModel",
    "effective_potential",
    "defect_energy",
    "defect_wavefunction",
    "RecoveredPartner",
    "recover_partner",
]


@dataclass(frozen=True)
class EffectiveModel:
    """One quantum-defect tower: fixed ``L``, iteration count, selector, shift.

    ``iterations`` is the number of partner-ladder steps already applied
    (``I``), ``selector`` picks the plus (0) or minus (1) member when the
    model is used to reconstruct a partner hamiltonian, and ``delta`` is the
    tower's level shift, one real parameter per ``L``.
    """

    l_angular: int
    iterations: int
    selector: int
    delta: float
    scales: OscillatorScales

    def __post_init__(self):
        integer("l_angular", self.l_angular, 0)
        integer("iterations", self.iterations, 0)
        if self.selector not in (0, 1):
            raise DomainError(f"selector must be 0 or 1, got {self.selector!r}")
        finite("delta", self.delta)
        bound = self.l_angular + self.iterations + 1.5
        if not self.delta < bound:
            raise NormalizabilityError(
                f"delta = {self.delta!r} reaches the normalizability bound "
                f"L + I + 3/2 = {bound}: the radial norm integral diverges"
            )

    @property
    def l_star(self) -> float:
        """Shifted angular index ``L* = L + I - delta`` (always > -3/2)."""
        return self.l_angular + self.iterations - self.delta

    def tower_check(self, n_spectroscopic) -> None:
        """Reject labels outside the tower ``{L + 2I, L + 2I + 2, ...}``."""
        integer("N_s", n_spectroscopic)
        tower_degree(n_spectroscopic, self.l_angular + 2 * self.iterations, "N_s")


def effective_potential(model: EffectiveModel) -> Callable[[float], float]:
    """Interaction surrogate added to the trap to produce the shifted tower.

    An inverse-square term replaces the centrifugal coefficient ``L(L+1)``
    by ``L*(L*+1)`` plus the constant ``hbar w0 (delta - I)``; the constant
    is the same for every level of the tower.
    """
    scales = model.scales
    ls = model.l_star
    coeff = (ls * (ls + 1.0) - model.l_angular * (model.l_angular + 1.0)) * (
        scales.hbar**2 / (2.0 * scales.mass)
    )
    const = scales.quantum * (model.delta - model.iterations)
    import numpy as np

    def v_eff(r):
        r = np.asarray(r, dtype=float)
        value = coeff / (r * r) + const
        return float(value) if value.ndim == 0 else value

    return v_eff


def defect_energy(model: EffectiveModel, n_spectroscopic: int) -> float:
    """Level energy ``E0 + hbar w0 (N* + 3/2)`` with ``N* = N_s - I - delta``."""
    model.tower_check(n_spectroscopic)
    return _tower_level(model.scales, n_spectroscopic - model.iterations - model.delta)


def defect_wavefunction(model: EffectiveModel, n_spectroscopic: int) -> RadialEigenstate:
    """Shifted-tower eigenfunction ``W_{N*,L*}``, unit-normalized.

    The exponent is ``L* + 1`` and the Laguerre order ``L* + 1/2``; the
    degree ``(N* - L*)/2 = (N - L)/2`` is an exact integer for any delta.
    """
    model.tower_check(n_spectroscopic)
    n_star = n_spectroscopic - model.iterations - model.delta
    return tower_state(model.scales, n_star, model.l_star)


@dataclass(frozen=True)
class RecoveredPartner:
    """A partner hamiltonian reconstructed from the ``delta = 0`` model.

    ``potential`` is the zero-referenced radial potential (its lowest
    eigenvalue is 0 for selector 0, and the incoming ground level is absent
    for selector 1).  Two bookkeeping constants relate the zero-referenced
    spectrum back to absolute energies:

    * ``subtracted_constant`` restores the shifted-tower eigenvalues,
      ``E0 + hbar w0 (N* + 3/2) = spectrum(N_s) + subtracted_constant``;
    * ``level_offset`` restores the original trap levels,
      ``E0 + hbar w0 (N_s + 3/2) = spectrum(N_s) + level_offset``,
      accumulating the ground energies removed by earlier iterations.
    """

    model: EffectiveModel
    potential: Callable[[float], float]
    subtracted_constant: float
    level_offset: float

    @property
    def tower_start(self) -> int:
        """Lowest spectroscopic label present in this partner's spectrum."""
        return self.model.l_angular + 2 * self.model.iterations

    def spectrum(self, n_spectroscopic: int) -> float:
        """Zero-referenced eigenvalue ``hbar w0 (N_s - L - 2 I0)``.

        Labels from the original tower that earlier iterations (or the
        minus-selector step) removed raise :class:`ExcludedLevelError`;
        labels outside the original tower raise :class:`DomainError`.
        """
        n, l = n_spectroscopic, self.model.l_angular
        integer("N_s", n)
        tower_degree(n, l, "N_s")
        if n < self.tower_start:
            raise ExcludedLevelError(
                f"level N_s = {n} was removed by the partner construction "
                f"(this spectrum starts at {self.tower_start})"
            )
        i0 = self.model.iterations - self.model.selector
        return self.model.scales.quantum * (n - l - 2 * i0)


def recover_partner(
    selector: int, iterations: int, l_angular: int, scales: OscillatorScales
) -> RecoveredPartner:
    """Partner hamiltonian of any iteration order, in closed form.

    ``iterations`` counts completed ladder steps (``I0``); ``selector`` 0/1
    picks the plus or minus member of the next pair.  The underlying model is
    the ``delta = 0`` tower with ``I = I0 + selector``, minus the constant
    ``E0 + hbar w0 (L* + 3/2 - 2 selector)``; selector 0 with no iterations
    gives back the plain centrifugal-plus-harmonic tower referenced to its
    ground level.
    """
    model = EffectiveModel(
        l_angular=l_angular,
        iterations=integer("iterations", iterations, 0) + (1 if selector else 0),
        selector=selector,
        delta=0.0,
        scales=scales,
    )
    ls = model.l_star  # integer-valued here: L + I0 + S
    shift = scales.quantum * (ls + 1.5 - 2.0 * model.selector)
    return RecoveredPartner(
        model=model,
        potential=tower_potential(ls, scales, shift),
        subtracted_constant=scales.energy_offset + shift,
        level_offset=scales.energy_offset + scales.quantum * (l_angular + 2 * iterations + 1.5),
    )
