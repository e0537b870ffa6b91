"""Supersymmetric partner construction for the oscillator tower.

Every radial family here is one centrifugal-plus-harmonic tower at a real
index ``lam > -3/2``: ``L`` for the isotropic 3D traps, ``|M| - 1/2`` for the
planar (Paul, Penning) radial problems.  Referenced to its ground level, the
tower hamiltonian factorizes through a superpotential ``U``:

    H+ = A† A ,   H- = A A† ,   A = d/dr + U'(r) ,

    V± = (hbar^2/2m) (U'^2 ∓ U'') ,   U = r^2/2r0^2 - (lam+1) ln(r/r0) .

The two hamiltonians share their spectrum except for the ground state of
``H+``, which ``A`` annihilates and which is absent from ``H-``.  This is
the shape invariance of the oscillator: ``H-`` is again the tower, at
``lam + 1``; the spectra are ``E+ = hbar w0 (n - lam)`` over the tower labels
``n = lam, lam+2, ...`` and the same values for ``H-`` from ``n = lam + 2``,
and the partner eigenfunctions are index maps of the conventional ones,
``W-_{n,lam} = W_{n-1,lam+1}``.  In 3D the labels are ``N_s``; a planar
level ``N`` has tower label ``N - 1/2``.

Removing the lowest tower level models a closed shell plus one valence
particle; iterating the construction steps through the magic filling
sequence.  Iterated partners are produced in closed form through the
quantum-defect recovery path (:func:`trapspec.defect.recover_partner` with
``delta = 0``) rather than by re-factorizing each rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ExcludedLevelError, integer, positive
from .oscillator3d import OscillatorScales, RadialEigenstate, shell_capacity, tower_state
from .special import tower_degree

__all__ = [
    "Superpotential",
    "PartnerPair",
    "superpotential",
    "input_potential",
    "partner_pair",
    "partner_wavefunction",
    "related_systems_3d",
]


def _positive_radii(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("superpotential evaluators need r > 0")
    return arr


@dataclass(frozen=True)
class Superpotential:
    """Generating function ``U(r) = r^2/2r0^2 - (lam+1) ln(r/r0)``.

    ``l_angular`` is the tower index ``lam``.  The derivative vanishes only
    at ``r = r0 sqrt(lam+1)`` (the ground-state probability peak), and
    ``exp(-U)`` is the unnormalized nodeless ground profile of the tower.
    """

    l_angular: float
    r0: float

    def value(self, r):
        arr = _positive_radii(r)
        u = arr / self.r0
        out = 0.5 * u * u - (self.l_angular + 1.0) * np.log(u)
        return float(out) if out.ndim == 0 else out

    __call__ = value

    def derivative(self, r):
        arr = _positive_radii(r)
        out = arr / self.r0**2 - (self.l_angular + 1.0) / arr
        return float(out) if out.ndim == 0 else out

    def second_derivative(self, r):
        arr = _positive_radii(r)
        out = 1.0 / self.r0**2 + (self.l_angular + 1.0) / (arr * arr)
        return float(out) if out.ndim == 0 else out


def superpotential(l_angular: float, r0: float) -> Superpotential:
    """Superpotential of the tower ``lam = l_angular > -3/2`` with length ``r0``."""
    if not (l_angular > -1.5 and math.isfinite(l_angular)):
        raise DomainError(f"tower index must be finite and exceed -3/2, got {l_angular!r}")
    positive("r0", r0)
    return Superpotential(l_angular=float(l_angular), r0=r0)


def input_potential(l_angular: int, scales: OscillatorScales) -> Callable[[float], float]:
    """Ground-referenced radial potential of the ``L`` tower.

    ``V+(r) = (hbar^2/2m) L(L+1)/r^2 + (1/2) m w0^2 r^2 - hbar w0 (L + 3/2)``,
    whose lowest eigenvalue is exactly zero.  Written out here rather than
    through :func:`tower_potential`, so that comparing the two checks the
    recovery path.
    """
    integer("L", l_angular, 0)
    pref = scales.hbar**2 / (2.0 * scales.mass)
    spring = 0.5 * scales.mass * scales.omega0**2
    shift = scales.quantum * (l_angular + 1.5)
    ll = float(l_angular * (l_angular + 1))

    def v_plus(r):
        arr = np.asarray(r, dtype=float)
        out = pref * ll / (arr * arr) + spring * arr * arr - shift
        return float(out) if out.ndim == 0 else out

    return v_plus


def tower_potential(
    l_angular: float, scales: OscillatorScales, shift: float
) -> Callable[[float], float]:
    """Closed-form tower ``(hbar^2/2m) lam(lam+1)/r^2 + (1/2) m w0^2 r^2 - shift``.

    ``l_angular`` is the tower index ``lam``; the zero-referenced members
    of the pair at ``lam`` subtract ``hbar w0 (lam + 3/2)`` (plus side) and,
    at index ``lam + 1``, ``hbar w0 (lam + 1/2)`` (minus side).
    """
    pref = scales.hbar**2 / (2.0 * scales.mass)
    spring = 0.5 * scales.mass * scales.omega0**2

    def potential(r):
        r = np.asarray(r, dtype=float)
        value = pref * l_angular * (l_angular + 1.0) / (r * r) + spring * r * r - shift
        return float(value) if value.ndim == 0 else value

    return potential


@dataclass(frozen=True)
class PartnerPair:
    """The two partner potentials generated by one superpotential.

    Both evaluators are computed through the derivative combinations
    ``(hbar^2/2m)(U'^2 ∓ U'')`` — not from the simplified closed forms — so
    algebraic identities about them are genuine checks.  The pair shares all
    eigenvalues except the zero ground level, present only on the plus side.
    Spectra and partner states take tower labels ``n = lam, lam+2, ...``; a
    label within 1e-9 of one is taken as that label.
    """

    generator: Superpotential
    scales: OscillatorScales

    @property
    def l_angular(self) -> float:
        return self.generator.l_angular

    def _combo(self, r, sign: float):
        pref = self.scales.hbar**2 / (2.0 * self.scales.mass)
        du = self.generator.derivative(r)
        d2u = self.generator.second_derivative(r)
        out = pref * (np.asarray(du) ** 2 + sign * np.asarray(d2u))
        return float(out) if out.ndim == 0 else out

    def plus_potential(self, r):
        return self._combo(r, -1.0)

    def minus_potential(self, r):
        return self._combo(r, +1.0)

    def _degree(self, n_label: float, partner: bool) -> int:
        """Degree ``k`` of the tower label ``lam + 2k`` within 1e-9 of ``n_label``.

        ``partner`` refuses the ground label, which the minus side lacks.
        """
        degree = tower_degree(n_label, self.l_angular, "n")
        if partner and degree == 0:
            raise ExcludedLevelError(
                f"n = {n_label!r} is the tower ground level the partner construction removes"
            )
        return degree

    def plus_spectrum(self, n_label: float) -> float:
        """Ground-referenced tower energies ``hbar w0 (n - lam)``, n = lam, lam+2, ..."""
        return self.scales.quantum * (2 * self._degree(n_label, partner=False))

    def minus_spectrum(self, n_label: float) -> float:
        """Partner energies, identical except the absent ground label ``n = lam``."""
        return self.scales.quantum * (2 * self._degree(n_label, partner=True))

    def partner_wavefunction(self, n_label: float) -> RadialEigenstate:
        """Minus-side eigenfunction: the index-mapped profile ``W_{n-1, lam+1}``.

        This is *not* the conventional ``W_{n,lam}`` state: the ladder
        operator shifts both indices, which lowers the node count by one.
        The returned state's ``energy`` is its absolute trap energy; the
        zero-referenced partner eigenvalue is :meth:`minus_spectrum`.
        """
        label = self.l_angular + 2 * self._degree(n_label, partner=True)
        return tower_state(self.scales, label - 1.0, self.l_angular + 1.0)


def partner_pair(l_angular: float, scales: OscillatorScales) -> PartnerPair:
    """Pair ``(V+, V-)`` of the tower ``lam = l_angular``, generated by ``U`` on ``scales.r0``.

    ``V-`` carries ``(lam+1)(lam+2)``.
    """
    return PartnerPair(generator=superpotential(l_angular, scales.r0), scales=scales)


def partner_wavefunction(
    n_spectroscopic: int, l_angular: int, scales: OscillatorScales
) -> RadialEigenstate:
    """Minus-side eigenfunction of the 3D ``L`` tower: ``W_{N_s-1, L+1}``."""
    integer("L", l_angular, 0)
    integer("N_s", n_spectroscopic)
    return partner_pair(l_angular, scales).partner_wavefunction(n_spectroscopic)


def related_systems_3d(l_angular: int, count: int) -> list[int]:
    """Particle numbers of the systems reached by iterating the construction.

    Each iterate describes one valence particle above a closed shell, so the
    n-th entry is ``1 + shell_capacity(N)`` with the filled level ``N``
    stepping by two.  The towers start differently: ``L = 0`` begins with a
    lone particle (empty core, ``N = -1``), ``L = 1`` with a filled s shell
    (``N = 0``), giving 1, 5, 21, 57, ... and 2, 11, 36, 85, ...
    """
    if l_angular not in (0, 1):
        raise DomainError(
            f"filling sequences are defined for towers L = 0 and L = 1, got {l_angular!r}"
        )
    start = -1 if l_angular == 0 else 0
    return [1 + shell_capacity(start + 2 * k) for k in range(integer("count", count, 1))]
