"""Isotropic 3D oscillator spectrum, radial eigenfunctions, and shell filling.

A magnetically trapped dipole near the minimum of an isotropic trap sees
``U = E0 + (1/2) m w0^2 r^2`` (the constant offset ``E0`` is the potential
value at the trap center).  States are labeled ``(N, L, M)`` with
``L <= N``, ``N - L`` even; the energy ``E_N = E0 + hbar w0 (N + 3/2)``
depends on ``N`` only.  There is no spin degeneracy: the trap holds one
spin orientation, so each level holds ``(N+1)(N+2)/2`` particles.

Every radial family is the tower :class:`RadialEigenstate`.  A state, or a
family of them at once (:func:`tower_rows`), is evaluated by one scaled
Laguerre march per tower index and node vector, which gives every degree from
a single pass and stays finite at any level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DomainError, finite, integer, positive
from .special import laguerre_march, log_radial_norm, radial_norm_3d, tower_degree

_LN2 = math.log(2.0)

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
    Calling a state, or its :meth:`derivative`, is :func:`tower_rows` for that
    one state, so values are finite at any degree and tower index.
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
        val = tower_rows([self], r)[0]
        return val if np.asarray(r).ndim else float(val)

    def derivative(self, r):
        """Analytic ``dW/dr`` (Laguerre derivative identity, stable in u = r/r0)."""
        val = tower_rows([self], r, derivative=True)[0]
        return val if np.asarray(r).ndim else float(val)


def tower_rows(states, r, derivative: bool = False) -> np.ndarray:
    """Values (or ``dW/dr``) of a family of tower states at ``r``, one row per state.

    States that share a tower index and length share one scaled Laguerre march for
    all their degrees (:func:`~trapspec.special.laguerre_march`; the derivative adds
    one march at order ``lam + 3/2``).  Each value is the product
    ``C u^(lam+1) e^(-u^2/2) L`` of a lone state, with the same factors in the same
    order and ``L`` the plain recurrence's value, wherever that product is finite and
    ``C`` is a normal float.  Elsewhere (a large degree or tower index, where ``L``
    or ``u^(lam+1)`` overflows, or ``C`` underflows) it is
    ``sign * exp(log|C| + (lam+1) log|u| - u^2/2 + log|L|)``, the march's power of
    two inside the log, so it stays finite and accurate where the product would be
    ``0 * inf``.
    """
    arr = np.asarray(r, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty((len(states), flat.size))
    groups = {}
    for i, state in enumerate(states):
        groups.setdefault(state.r0, {}).setdefault(state.l_angular, []).append(i)
    for r0, towers in groups.items():
        u = flat / r0
        x = u * u
        ex = np.exp(-0.5 * x)
        for lam, rows in towers.items():
            members = [states[i] for i in rows]
            out[rows] = _tower_group(members, lam, r0, u, x, ex, derivative)
    return out.reshape((len(states),) + arr.shape)


def _tower_group(states, lam, r0, u, x, ex, derivative: bool) -> np.ndarray:
    """:func:`tower_rows` for the states of one tower index ``lam`` and length ``r0``.

    ``u`` is ``r/r0``, ``x`` is ``u * u`` and ``ex`` is ``exp(-x/2)``.
    """
    degrees = [state.degree for state in states]
    norms = np.array([state.norm for state in states])[:, None]
    a = lam + 1.0
    # (mantissas, power-of-two scale or None) of L, and for dW/dr of dL/dx.
    terms = [laguerre_march(degrees, lam + 0.5, x)]
    if derivative:
        # dL_n^alpha/dx = -L_{n-1}^{alpha+1}, and 0 at n = 0.
        dpoly, dscale = laguerre_march([max(n - 1, 0) for n in degrees], lam + 0.5 + 1.0, x)
        dpoly = np.negative(dpoly, out=dpoly)
        dpoly[np.array(degrees) == 0] = 0.0
        terms.append((dpoly, dscale))

    def combine(poly, dpoly=None):  # L itself, or the bracket of dW/dr
        if not derivative:
            return poly
        if a == 0.0:
            # The bracket is x (2L' - L) here; u**-1 times it would be 0 * inf at u = 0.
            return 2.0 * dpoly - poly
        return a * poly - x * poly + 2.0 * x * dpoly

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not derivative:
            power, log_r0 = a, 0.0
            val = norms * u ** a
        else:
            power, log_r0 = (1.0 if a == 0.0 else lam), math.log(r0)
            val = norms / r0 * (u if a == 0.0 else u ** lam)
        val *= ex
        val *= combine(*(m if k is None else np.ldexp(m, k) for m, k in terms))
        lost = np.abs(norms[:, 0]) < sys.float_info.min  # C underflowed
        finite = np.isfinite(val)
        if finite.all() and not lost.any():
            return val
        redo = ~finite
        redo[lost] = True
        # The log form, on mantissas brought to one scale per point.
        shifts = [np.zeros(m.shape, np.int32) if k is None else k for m, k in terms]
        shift = np.maximum(*shifts) if derivative else shifts[0]
        mantissa = combine(*(np.ldexp(m, k - shift) for (m, _), k in zip(terms, shifts)))
        # log|C|, from the degree where C underflowed (only a plain tower state's can).
        log_norm = np.array([
            log_radial_norm(state.degree, lam, r0) if gone else math.log(abs(state.norm))
            for state, gone in zip(states, lost)
        ])
        i, j = np.nonzero(redo)
        m = mantissa[i, j]
        log_mag = log_norm[i] - log_r0 + np.log(np.abs(m)) - 0.5 * x[j] + shift[i, j] * _LN2
        sign = np.sign(m) * np.where(lost[i], 1.0, np.sign(norms[i, 0]))
        if power != 0.0:
            log_mag += power * np.log(np.abs(u[j]))
            sign *= np.sign(u[j]) ** power  # nan for a negative u at a fractional power
        val[i, j] = sign * np.exp(log_mag)
    return val


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
