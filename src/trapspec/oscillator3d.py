"""Isotropic 3D oscillator spectrum, radial eigenfunctions, and shell filling.

A magnetically trapped dipole near the minimum of an isotropic trap sees
``U = E0 + (1/2) m w0^2 r^2`` (the constant offset ``E0`` is the potential
value at the trap center).  States are labeled ``(N, L, M)`` with
``L <= N``, ``N - L`` even; the energy ``E_N = E0 + hbar w0 (N + 3/2)``
depends on ``N`` only.  There is no spin degeneracy: the trap holds one
spin orientation, so each level holds ``(N+1)(N+2)/2`` particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DomainError, finite, integer, positive
from .special import laguerre_gen, laguerre_gen_derivative, radial_norm_3d, tower_degree

__all__ = [
    "OscillatorScales",
    "RadialEigenstate",
    "validate_quantum_numbers_3d",
    "allowed_angular",
    "energy_3d",
    "radial_wavefunction_3d",
    "degeneracy",
    "shell_capacity",
    "valence_total",
]


@dataclass(frozen=True)
class OscillatorScales:
    """Quantum scales of an isotropic oscillator.

    ``energy_offset`` is the rest energy of the dipole at the trap center
    (``mu * B0`` for a magnetic trap); it is zero in natural units.
    """

    mass: float
    omega0: float
    energy_offset: float = 0.0
    hbar: float = HBAR

    def __post_init__(self):
        positive("mass", self.mass)
        positive("omega0", self.omega0)
        positive("hbar", self.hbar)
        finite("energy_offset", self.energy_offset)
        try:
            r0 = self.r0
        except ZeroDivisionError:  # mass * omega0 underflows
            r0 = math.inf
        if not 0.0 < r0 < math.inf:
            raise DomainError(
                f"mass {self.mass!r}, omega0 {self.omega0!r} and hbar {self.hbar!r} put the "
                "oscillator length beyond the float range"
            )

    @property
    def r0(self) -> float:
        """Oscillator length ``sqrt(hbar / (m w0))``."""
        return math.sqrt(self.hbar / (self.mass * self.omega0))

    @property
    def quantum(self) -> float:
        """Level spacing ``hbar w0``."""
        return self.hbar * self.omega0

    @classmethod
    def natural(cls) -> "OscillatorScales":
        """Dimensionless scales ``hbar = m = w0 = 1``, zero offset."""
        return cls(mass=1.0, omega0=1.0, energy_offset=0.0, hbar=1.0)


def validate_quantum_numbers_3d(n_principal: int, l_angular: int, m_angular: int = 0) -> None:
    """Reject invalid ``(N, L, M)`` triples.

    Valid states have integer ``N >= 0``, ``0 <= L <= N`` with ``N - L``
    even, and ``|M| <= L``.
    """
    integer("N", n_principal, 0)
    integer("L", l_angular, 0)
    integer("M", m_angular)
    tower_degree(n_principal, l_angular, "N")
    if abs(m_angular) > l_angular:
        raise DomainError(f"|M| must not exceed L; got L={l_angular}, M={m_angular}")


def allowed_angular(n_principal: int) -> list[int]:
    """Angular momenta present in level ``N``: ``N, N-2, ..., 1 or 0``."""
    n = integer("N", n_principal, 0)
    return list(range(n % 2, n + 1, 2))


def energy_3d(scales: OscillatorScales, n_principal: int) -> float:
    """Level energy ``E_N = E0 + hbar w0 (N + 3/2)``."""
    integer("N", n_principal, 0)
    return _tower_level(scales, n_principal)


def _tower_level(scales: OscillatorScales, n_principal):
    """Tower level ``E0 + hbar w0 (n + 3/2)`` at any real label ``n`` or array of labels.

    The label is not checked; :func:`energy_3d` is the checked form.
    """
    return scales.energy_offset + scales.quantum * (n_principal + 1.5)


@dataclass(frozen=True)
class RadialEigenstate:
    """Radial profile ``W_{N,L}(r) = C (r/r0)^{L+1} e^{-r^2/2r0^2} L_n^{L+1/2}(r^2/r0^2)``.

    ``n = (N - L)/2`` is the Laguerre degree.  ``l_angular`` is the tower
    index: ``L`` for the 3D oscillator, ``|M| - 1/2`` for the planar radial
    factor ``X = sqrt(rho) R(rho)`` (with ``n_principal = N - 1/2``),
    ``K mod 2 - 1`` for the planar axial factor (with ``n_principal = K - 1``)
    and the non-integer ``L*`` of a quantum-defect tower; ``n_principal -
    l_angular`` must be a nonnegative even integer.  The full 3D state is
    ``psi = (r0/r) W(r) Y_{LM}``; with the normalization constant used here
    ``int_0^inf W^2 dr = 1``.  The axial factor is called at signed ``z``.
    """

    n_principal: float
    l_angular: float
    r0: float
    norm: float
    energy: float

    @property
    def degree(self) -> int:
        return int(round((self.n_principal - self.l_angular) / 2.0))

    def __call__(self, r):
        u = np.asarray(r, dtype=float) / self.r0
        x = u * u
        poly = laguerre_gen(self.degree, self.l_angular + 0.5, x)
        with np.errstate(divide="ignore"):
            val = self.norm * u ** (self.l_angular + 1.0) * np.exp(-0.5 * x) * poly
        return val if np.asarray(r).ndim else float(val)

    def derivative(self, r):
        """Analytic ``dW/dr`` (Laguerre derivative identity, stable in u = r/r0)."""
        u = np.asarray(r, dtype=float) / self.r0
        x = u * u
        a = self.l_angular + 1.0
        poly = laguerre_gen(self.degree, self.l_angular + 0.5, x)
        dpoly = laguerre_gen_derivative(self.degree, self.l_angular + 0.5, x)
        with np.errstate(divide="ignore"):
            if a == 0.0:
                # The bracket is x (2L' - L) here; u**-1 times it would be 0 * inf at u = 0.
                power, bracket = u, 2.0 * dpoly - poly
            else:
                power, bracket = u ** (self.l_angular), a * poly - x * poly + 2.0 * x * dpoly
            val = self.norm / self.r0 * power * np.exp(-0.5 * x) * bracket
        return val if np.asarray(r).ndim else float(val)


def tower_state(scales: OscillatorScales, n_principal: float, l_angular: float) -> RadialEigenstate:
    """Unit-normalized tower profile ``W_{n, lam}`` of the oscillator ``scales``.

    Every radial family and the planar axial factor are built here, on the
    length ``scales.r0`` and at the tower level ``E0 + hbar w0 (n + 3/2)``
    (for the axial factor, label ``K - 1``, that is ``hbar w (K + 1/2)``).
    """
    return RadialEigenstate(
        n_principal=n_principal,
        l_angular=l_angular,
        r0=scales.r0,
        norm=radial_norm_3d(n_principal, l_angular, scales.r0),
        energy=_tower_level(scales, n_principal),
    )


def radial_wavefunction_3d(scales: OscillatorScales, n_principal: int, l_angular: int) -> RadialEigenstate:
    """Unit-normalized radial profile of the ``(N, L)`` oscillator state."""
    validate_quantum_numbers_3d(n_principal, l_angular)
    return tower_state(scales, float(n_principal), float(l_angular))


def degeneracy(n_principal: int) -> int:
    """Orbital count of level ``N``: ``(N+1)(N+2)/2``."""
    n = integer("N", n_principal, 0)
    return (n + 1) * (n + 2) // 2


def shell_capacity(n_principal: int) -> int:
    """Total capacity through level ``N``: ``(N+1)(N+2)(N+3)/6``; zero for N = -1."""
    n = integer("N", n_principal, -1)
    if n == -1:
        return 0
    return (n + 1) * (n + 2) * (n + 3) // 6


def valence_total(n_valence: int, d_occupancy: int) -> int:
    """Total particle number with ``d`` particles in the open level ``N+1``.

    With levels through ``N`` filled, adding ``1 <= d <= degeneracy(N+1)``
    particles gives ``n = d + (N+1)(N+2)(N+3)/6``.
    """
    cap_below = shell_capacity(n_valence)
    d_max = degeneracy(n_valence + 1)
    d = integer("occupancy", d_occupancy)
    if not 1 <= d <= d_max:
        raise DomainError(
            f"occupancy must lie in 1..{d_max} for the level above N={n_valence}, got {d_occupancy!r}"
        )
    return d + cap_below
