"""Paul and Penning traps: planar radial towers, axial modes, shell counts.

Both traps reduce to a two-dimensional radial oscillator after separation in
cylindrical coordinates, with the half-integer-shifted barrier
``(M^2 - 1/4)/rho^2`` characteristic of writing the planar problem for
``X(rho) = sqrt(rho) R(rho)``:

* Paul: the rapidly driven quadrupole ``phi = (V_p/2 d_p^2)(z^2 - rho^2/2)``
  averages to the static potential ``(1/2) m w_p^2 (rho^2 + 4 z^2)`` with
  secular frequency ``w_p = Omega_p^2 / 4 drive``; levels sit at
  ``E = hbar w_p (N + 2K + 2)``.
* Penning: the same electrostatic quadrupole plus an axial magnetic field;
  the radial spring is ``(1/8) m Omega^2`` with
  ``Omega = sqrt(w_c^2 - 2 w_z^2)`` (real only on the stable side), and
  ``E = hbar (Omega N + 2 w_z K - w_c M + Omega + w_z)/2``.

The planar radial problem is the 3D oscillator tower at index
``lam = |M| - 1/2``: the barrier ``(M^2 - 1/4)/rho^2`` is ``lam(lam+1)/rho^2``
and ``X_{N,M}`` is the tower profile ``W_{N-1/2, |M|-1/2}``, so the radial
factors are :class:`~trapspec.oscillator3d.RadialEigenstate` objects and the
fixed-``(M, K)`` partner step is the 3D :class:`~trapspec.susy.PartnerPair`
(radial frequency ``w_p`` for Paul, ``Omega/2`` for Penning), whose labels
are the tower labels ``N - 1/2``.  The axial factor ``e^{-u^2/2} H_K(u)`` is
the same tower at ``lam = K mod 2 - 1`` (DLMF 18.7.19-20) on the axial
oscillator (``2 w_p`` for Paul, ``w_z`` for Penning), evaluated at signed z.
Shell counts double for spin, unlike the magnetic traps (charged particles
of either spin are held).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import DomainError, StabilityError, finite, integer, nonzero, positive
from .oscillator3d import OscillatorScales, RadialEigenstate, tower_state
from .special import tower_degree
from .susy import PartnerPair, partner_pair, superpotential

__all__ = [
    "PaulParams",
    "PaulFrequencies",
    "PenningParams",
    "PenningFrequencies",
    "PlanarState",
    "validate_planar_numbers",
    "paul_frequencies",
    "static_quadrupole_potential",
    "paul_effective_potential",
    "paul_energy",
    "paul_wavefunctions",
    "paul_susy_partner",
    "paul_shell_count",
    "paul_related_systems",
    "penning_frequencies",
    "penning_energy",
    "penning_wavefunction",
    "penning_susy_partner",
    "penning_state_count",
]

DRIVE_RATIO_FLOOR = 10.0


@dataclass(frozen=True)
class PaulParams:
    """Driven-quadrupole trap: voltage, size, drive frequency, charge, mass."""

    voltage: float
    size: float
    drive: float
    charge: float
    mass: float

    def __post_init__(self):
        positive("size", self.size)
        positive("drive", self.drive)
        positive("mass", self.mass)
        nonzero("voltage", self.voltage)
        nonzero("charge", self.charge)


@dataclass(frozen=True)
class PaulFrequencies:
    """Paul-trap scales from the static quadrupole and the drive.

    ``quadrupole`` is the intrinsic frequency sqrt(sqrt(2)|qV|/m d^2) of the
    static quadrupole and ``drive`` the drive frequency; every other scale
    follows from these two.
    """

    quadrupole: float
    drive: float
    mass: float
    hbar: float = HBAR

    def __post_init__(self):
        for name in ("quadrupole", "drive", "mass", "hbar"):
            positive(name, getattr(self, name))

    @property
    def secular(self) -> float:
        """Effective-well frequency ``w_p = quadrupole^2 / (4 drive)``."""
        return self.quadrupole**2 / (4.0 * self.drive)

    @property
    def drive_ratio(self) -> float:
        """``drive/quadrupole``: validity figure of the time-averaged well (questionable below ~10)."""
        return self.drive / self.quadrupole

    @property
    def quantum(self) -> float:
        """Radial level spacing ``hbar w_p``."""
        return self.hbar * self.secular

    @property
    def radial_scales(self) -> OscillatorScales:
        """The radial oscillator: frequency ``w_p``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=self.secular, hbar=self.hbar)

    @property
    def axial_scales(self) -> OscillatorScales:
        """The axial oscillator: frequency ``2 w_p``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=2.0 * self.secular, hbar=self.hbar)


def paul_frequencies(params: PaulParams, hbar: float = HBAR) -> PaulFrequencies:
    """Secular-approximation scales; warns when the drive is not fast enough."""
    quadrupole = math.sqrt(
        math.sqrt(2.0) * abs(params.charge * params.voltage) / (params.mass * params.size**2)
    )
    freqs = PaulFrequencies(quadrupole=quadrupole, drive=params.drive, mass=params.mass, hbar=hbar)
    if freqs.drive_ratio < DRIVE_RATIO_FLOOR:
        warnings.warn(
            f"drive/quadrupole frequency ratio {freqs.drive_ratio:.3g} is below "
            f"{DRIVE_RATIO_FLOOR:g}; the time-averaged potential is unreliable this slow",
            stacklevel=2,
        )
    return freqs


def static_quadrupole_potential(params: PaulParams, rho, z):
    """Electrostatic quadrupole ``(V/2d^2)(z^2 - rho^2/2)`` in volts.

    The Paul trap drives this spatial profile at the drive frequency; the
    Penning trap applies it statically.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    out = params.voltage / (2.0 * params.size**2) * (z * z - 0.5 * rho * rho)
    return float(out) if out.ndim == 0 else out


def paul_effective_potential(freqs: PaulFrequencies, rho, z):
    """Time-averaged well ``(1/2) m w_p^2 (rho^2 + 4 z^2)``."""
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    out = 0.5 * freqs.mass * freqs.secular**2 * (rho * rho + 4.0 * z * z)
    return float(out) if out.ndim == 0 else out


def validate_planar_numbers(n_radial: int, m_azimuthal: int, k_axial: int) -> None:
    """Reject invalid ``(N, M, K)``: need ``N in {|M|, |M|+2, ...}`` and ``K >= 0``."""
    integer("N", n_radial)
    integer("M", m_azimuthal)
    integer("K", k_axial, 0)
    tower_degree(n_radial, abs(m_azimuthal), "N")


def paul_energy(freqs: PaulFrequencies, n_radial: int, k_axial: int) -> float:
    """Level energy ``hbar w_p (N + 2K + 2)``; the azimuthal M drops out."""
    integer("N", n_radial, 0)
    integer("K", k_axial, 0)
    return freqs.quantum * (n_radial + 2 * k_axial + 2)


@dataclass(frozen=True)
class PlanarState:
    """Separated Paul or Penning eigenfunction ``psi(rho, phi, z)``, unit 3D norm.

    ``psi = X(rho)/sqrt(rho) * Z(z) * e^{iM phi}/sqrt(2 pi)``, complex-valued.
    ``radial`` is ``X``, the tower at ``|M| - 1/2`` on the radial oscillator
    (``int X^2 drho = 1``); ``axial`` is ``Z``, the tower at ``K mod 2 - 1``
    on the axial oscillator, called at signed ``z`` (``int Z^2 dz = 1`` over
    the whole line).  ``energy`` is the level energy of the full state.
    """

    radial: RadialEigenstate
    axial: RadialEigenstate
    m_azimuthal: int
    energy: float

    def __call__(self, rho, phi, z):
        rho_arr = np.asarray(rho, dtype=float)
        with np.errstate(divide="ignore"):
            r_part = self.radial(rho_arr) / np.sqrt(rho_arr)
        out = (
            r_part
            * self.axial(z)
            * np.exp(1j * self.m_azimuthal * np.asarray(phi, dtype=float))
            / math.sqrt(2.0 * math.pi)
        )
        scalars = not (np.asarray(rho).ndim or np.asarray(phi).ndim or np.asarray(z).ndim)
        return complex(out) if scalars else out


def _planar_state(freqs, n_radial: int, m_azimuthal: int, k_axial: int, energy: float) -> PlanarState:
    """The ``(N, M, K)`` state on ``freqs.radial_scales`` and ``freqs.axial_scales``."""
    k = int(k_axial)
    tower = tower_state(freqs.axial_scales, k - 1.0, k % 2 - 1.0)
    # e^{-u^2/2} H_K(u) is (-1)^{floor(K/2)} times a positive multiple of the
    # tower profile; the sign keeps H_K's and 1/sqrt(2) takes the half-line
    # norm of the tower to the whole line.
    axial = replace(tower, norm=(-1) ** (k // 2) * tower.norm / math.sqrt(2.0))
    return PlanarState(
        radial=tower_state(freqs.radial_scales, n_radial - 0.5, abs(int(m_azimuthal)) - 0.5),
        axial=axial,
        m_azimuthal=int(m_azimuthal),
        energy=energy,
    )


def paul_wavefunctions(
    freqs: PaulFrequencies, n_radial: int, m_azimuthal: int, k_axial: int
) -> PlanarState:
    """The ``(N, M, K)`` Paul eigenstate.

    The radial factor carries the radial energy ``hbar w_p (N + 1)``, the
    axial factor ``hbar w_p (2K + 1)`` and the state ``hbar w_p (N + 2K + 2)``.
    """
    validate_planar_numbers(n_radial, m_azimuthal, k_axial)
    energy = paul_energy(freqs, n_radial, k_axial)
    return _planar_state(freqs, n_radial, m_azimuthal, k_axial, energy)


def _tower_pair(abs_m: int, scales: OscillatorScales) -> PartnerPair:
    integer("|M|", abs_m, 0)
    return partner_pair(superpotential(abs_m - 0.5, scales.r0), scales)


def paul_susy_partner(freqs: PaulFrequencies, abs_m: int) -> PartnerPair:
    """Partner pair of the Paul ``|M|`` tower (radial frequency ``w_p``).

    Labels are tower labels ``N - 1/2``; the partner is the ``|M| + 1``
    tower shifted up by ``2 hbar w_p``.
    """
    return _tower_pair(abs_m, freqs.radial_scales)


def paul_shell_count(e_tilde: int) -> int:
    """Spin-1/2 states with ``E <= e_tilde * hbar w_p`` (closed form).

    ``e_tilde(e_tilde+2)(2e_tilde-1)/12`` for even arguments,
    ``(e_tilde^2-1)(2e_tilde+3)/12`` for odd; defined for ``e_tilde >= 2``
    (the ground level).
    """
    e = integer("scaled energy", e_tilde, 2)
    if e % 2 == 0:
        return e * (e + 2) * (2 * e - 1) // 12
    return (e * e - 1) * (2 * e + 3) // 12


def paul_related_systems(count: int) -> list[int]:
    """Fermion numbers of the Paul systems linked by valence models.

    A lone particle, then every closed shell plus one: 1, 3, 7, 15, 27, ...
    """
    count = integer("count", count, 1)
    out = [1]
    e = 2
    while len(out) < count:
        out.append(paul_shell_count(e) + 1)
        e += 1
    return out


@dataclass(frozen=True)
class PenningParams:
    """Static-quadrupole trap with axial magnetic field; requires ``q > 0``."""

    voltage: float
    size: float
    axial_field: float
    charge: float
    mass: float

    def __post_init__(self):
        positive("size", self.size)
        positive("mass", self.mass)
        positive("charge", self.charge)
        nonzero("voltage", self.voltage)
        nonzero("axial_field", self.axial_field)


@dataclass(frozen=True)
class PenningFrequencies:
    """Penning mode frequencies: axial ``w_z``, cyclotron ``w_c``, hybrid ``Omega``.

    ``hybrid = sqrt(w_c^2 - 2 w_z^2)`` is twice the radial oscillator
    frequency and is real only for the stable tuning ``w_c^2 > 2 w_z^2``,
    which construction enforces; ``tuning`` is ``k = hybrid/cyclotron`` in
    (0, 1).
    """

    axial: float
    cyclotron: float
    mass: float
    hbar: float = HBAR

    def __post_init__(self):
        for name in ("axial", "cyclotron", "mass", "hbar"):
            positive(name, getattr(self, name))
        if self.cyclotron**2 - 2.0 * self.axial**2 <= 0.0:
            raise StabilityError(
                f"unstable tuning: cyclotron^2 = {self.cyclotron**2:.6g} must exceed "
                f"2 axial^2 = {2.0 * self.axial**2:.6g} for bound radial motion"
            )

    @property
    def hybrid(self) -> float:
        return math.sqrt(self.cyclotron**2 - 2.0 * self.axial**2)

    @property
    def tuning(self) -> float:
        return self.hybrid / self.cyclotron

    @property
    def radial_scales(self) -> OscillatorScales:
        """The radial oscillator: frequency ``Omega/2``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=0.5 * self.hybrid, hbar=self.hbar)

    @property
    def axial_scales(self) -> OscillatorScales:
        """The axial oscillator: frequency ``w_z``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=self.axial, hbar=self.hbar)


def penning_frequencies(params: PenningParams, hbar: float = HBAR) -> PenningFrequencies:
    """Mode frequencies; rejects tunings where the radial motion is unbound."""
    return PenningFrequencies(
        axial=math.sqrt(abs(params.charge * params.voltage) / (params.mass * params.size**2)),
        cyclotron=abs(params.charge * params.axial_field) / params.mass,
        mass=params.mass,
        hbar=hbar,
    )


def _check_magnetron(n_radial: int, m_azimuthal: int, cap: int) -> None:
    if (n_radial + m_azimuthal) // 2 > cap:
        raise DomainError(
            f"(N+M)/2 = {(n_radial + m_azimuthal) // 2} exceeds the magnetron cap {cap}: "
            "such states ride the unstable drift mode too hard to be meaningful"
        )


def penning_energy(
    freqs: PenningFrequencies,
    n_radial: int,
    k_axial: int,
    m_azimuthal: int,
    magnetron_cap: int = 50,
) -> float:
    """Level energy ``hbar (Omega N + 2 w_z K - w_c M + Omega + w_z)/2``.

    Energies decrease without bound as M grows at fixed N - |M| (magnetron
    drift), so labels beyond the cap are rejected rather than reported.
    """
    validate_planar_numbers(n_radial, m_azimuthal, k_axial)
    _check_magnetron(n_radial, m_azimuthal, magnetron_cap)
    return 0.5 * freqs.hbar * (
        freqs.hybrid * n_radial
        + 2.0 * freqs.axial * k_axial
        - freqs.cyclotron * m_azimuthal
        + freqs.hybrid
        + freqs.axial
    )


def penning_wavefunction(
    freqs: PenningFrequencies,
    n_radial: int,
    k_axial: int,
    m_azimuthal: int,
    magnetron_cap: int = 50,
) -> PlanarState:
    """Eigenstate ``(N, K, M)`` of the stable Penning hamiltonian."""
    energy = penning_energy(freqs, n_radial, k_axial, m_azimuthal, magnetron_cap)
    return _planar_state(freqs, n_radial, m_azimuthal, k_axial, energy)


def penning_susy_partner(freqs: PenningFrequencies, abs_m: int) -> PartnerPair:
    """Partner pair of the Penning ``|M|`` tower.

    The radial problem is an oscillator of frequency ``Omega/2``, so the
    Paul-trap partner structure carries over with ``Omega`` in place of
    ``2 w_p``; the level spacing within a tower is ``hbar Omega``.  Labels
    are tower labels ``N - 1/2``.
    """
    return _tower_pair(abs_m, freqs.radial_scales)


def penning_state_count(
    freqs: PenningFrequencies, energy_cap: float, magnetron_cap: int = 50
) -> int:
    """Spin-1/2 Penning states with ``E <= energy_cap``, by enumeration.

    No closed shell formula exists — the count depends on the frequency
    tuning — and the magnetron cap is what keeps the count finite at all,
    since energies decrease without bound along the drift ladder.
    """
    integer("magnetron_cap", magnetron_cap, 0)
    finite("energy_cap", energy_cap)
    base = 0.5 * freqs.hbar * (freqs.hybrid + freqs.axial)
    axial_step = freqs.hbar * freqs.axial
    count = 0
    k = 0
    while True:
        # cheapest state at this K sits at the magnetron cap (N = M = cap)
        cheapest = base + axial_step * k + 0.5 * freqs.hbar * magnetron_cap * (
            freqs.hybrid - freqs.cyclotron
        )
        if cheapest > energy_cap:
            break
        for m in range(-_m_floor(freqs, energy_cap, k), int(magnetron_cap) + 1):
            n = abs(m)
            # energy is strictly increasing in N at fixed (M, K)
            while (n + m) // 2 <= magnetron_cap:
                if penning_energy(freqs, n, k, m, magnetron_cap) > energy_cap:
                    break
                count += 2
                n += 2
        k += 1
    return count


def _m_floor(freqs: PenningFrequencies, energy_cap: float, k_axial: int) -> int:
    """Most negative M worth scanning: E(N=|M|) grows like (Omega+w_c)|M|/2."""
    base = 0.5 * freqs.hbar * (freqs.hybrid + freqs.axial) + freqs.hbar * freqs.axial * k_axial
    slope = 0.5 * freqs.hbar * (freqs.hybrid + freqs.cyclotron)
    if energy_cap <= base:
        return 0
    return int(math.ceil((energy_cap - base) / slope)) + 1
