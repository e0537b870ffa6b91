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
are the tower labels ``N - 1/2``.  Shell counts double for spin, unlike the
magnetic traps (charged particles of either spin are held).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DomainError, StabilityError
from .oscillator3d import OscillatorScales, RadialEigenstate, tower_state
from .special import hermite, tower_degree
from .susy import PartnerPair, partner_pair, superpotential

__all__ = [
    "PaulParams",
    "PaulFrequencies",
    "PenningParams",
    "PenningFrequencies",
    "AxialState",
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
    "PenningState",
    "penning_susy_partner",
    "penning_state_count",
]

DRIVE_RATIO_FLOOR = 10.0


def _positive(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PaulParams:
    """Driven-quadrupole trap: voltage, size, drive frequency, charge, mass."""

    voltage: float
    size: float
    drive: float
    charge: float
    mass: float

    def __post_init__(self):
        _positive("size", self.size)
        _positive("drive", self.drive)
        _positive("mass", self.mass)
        if self.voltage == 0.0 or not math.isfinite(self.voltage):
            raise DomainError(f"voltage must be finite and nonzero, got {self.voltage!r}")
        if self.charge == 0.0 or not math.isfinite(self.charge):
            raise DomainError(f"charge must be finite and nonzero, got {self.charge!r}")


@dataclass(frozen=True)
class PaulFrequencies:
    """Derived Paul-trap scales.

    ``quadrupole`` is the intrinsic frequency sqrt(sqrt(2)|qV|/m d^2) of the
    static quadrupole, ``secular`` the effective-well frequency
    quadrupole^2/(4 drive), ``length`` the radial oscillator length, and
    ``drive_ratio`` = drive/quadrupole the validity figure of the
    time-averaged description (questionable below ~10).
    """

    quadrupole: float
    secular: float
    length: float
    drive: float
    drive_ratio: float
    mass: float
    hbar: float = HBAR

    @property
    def quantum(self) -> float:
        """Radial level spacing ``hbar w_p``."""
        return self.hbar * self.secular

    @property
    def radial_scales(self) -> OscillatorScales:
        """The radial oscillator: frequency ``w_p``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=self.secular, hbar=self.hbar)


def paul_frequencies(params: PaulParams, hbar: float = HBAR) -> PaulFrequencies:
    """Secular-approximation scales; warns when the drive is not fast enough."""
    quadrupole = math.sqrt(
        math.sqrt(2.0) * abs(params.charge * params.voltage) / (params.mass * params.size**2)
    )
    secular = quadrupole**2 / (4.0 * params.drive)
    ratio = params.drive / quadrupole
    if ratio < DRIVE_RATIO_FLOOR:
        warnings.warn(
            f"drive/quadrupole frequency ratio {ratio:.3g} is below {DRIVE_RATIO_FLOOR:g}; "
            "the time-averaged potential is unreliable this slow",
            stacklevel=2,
        )
    return PaulFrequencies(
        quadrupole=quadrupole,
        secular=secular,
        length=math.sqrt(hbar / (params.mass * secular)),
        drive=params.drive,
        drive_ratio=ratio,
        mass=params.mass,
        hbar=hbar,
    )


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
    for name, value in (("N", n_radial), ("M", m_azimuthal), ("K", k_axial)):
        if int(value) != value:
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if k_axial < 0:
        raise DomainError(f"K must be nonnegative, got {k_axial}")
    tower_degree(n_radial, abs(m_azimuthal), "N")


def paul_energy(freqs: PaulFrequencies, n_radial: int, k_axial: int) -> float:
    """Level energy ``hbar w_p (N + 2K + 2)``; the azimuthal M drops out."""
    validate_planar_numbers(n_radial, n_radial % 2, k_axial)
    return freqs.quantum * (n_radial + 2 * k_axial + 2)


@dataclass(frozen=True)
class AxialState:
    """Axial factor ``Z_K(z) = (z0 2^K K! sqrt(pi))^{-1/2} e^{-z^2/2z0^2} H_K(z/z0)``.

    Unit-normalized along z.  For the Paul trap the axial frequency is twice
    the radial one, so ``z0 = length/sqrt(2)``; may carry an azimuthal phase
    factor ``exp(i M phi)`` when called with two arguments.
    """

    k_axial: int
    m_azimuthal: int
    z_scale: float
    norm: float

    def __call__(self, z, phi=None):
        u = np.asarray(z, dtype=float) / self.z_scale
        val = self.norm * np.exp(-0.5 * u * u) * hermite(self.k_axial, u)
        if phi is not None:
            val = val * np.exp(1j * self.m_azimuthal * np.asarray(phi, dtype=float))
        if np.asarray(z).ndim or (phi is not None and np.asarray(phi).ndim):
            return val
        return complex(val) if phi is not None else float(val)


def _axial_norm(z_scale: float, k_axial: int) -> float:
    log_n = -0.5 * (
        math.log(z_scale) + k_axial * math.log(2.0) + math.lgamma(k_axial + 1.0)
        + 0.5 * math.log(math.pi)
    )
    return math.exp(log_n)


def paul_wavefunctions(
    freqs: PaulFrequencies, n_radial: int, m_azimuthal: int, k_axial: int
) -> tuple[AxialState, RadialEigenstate]:
    """Axial/azimuthal factor and radial factor of the ``(N, M, K)`` state.

    The axial factor is unit-normalized along z (call with ``(z, phi)`` to
    include the azimuthal phase); the radial factor satisfies
    ``int X^2 drho = 1`` and carries the radial energy ``hbar w_p (N + 1)``.
    """
    validate_planar_numbers(n_radial, m_azimuthal, k_axial)
    z0 = freqs.length / math.sqrt(2.0)
    axial = AxialState(
        k_axial=int(k_axial),
        m_azimuthal=int(m_azimuthal),
        z_scale=z0,
        norm=_axial_norm(z0, int(k_axial)),
    )
    lam = abs(int(m_azimuthal)) - 0.5
    return axial, tower_state(freqs.radial_scales, n_radial - 0.5, lam)


def _tower_pair(abs_m: int, scales: OscillatorScales) -> PartnerPair:
    if int(abs_m) != abs_m or abs_m < 0:
        raise DomainError(f"|M| must be a nonnegative integer, got {abs_m!r}")
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
    if int(e_tilde) != e_tilde or e_tilde < 2:
        raise DomainError(f"scaled energy must be an integer >= 2, got {e_tilde!r}")
    e = int(e_tilde)
    if e % 2 == 0:
        return e * (e + 2) * (2 * e - 1) // 12
    return (e * e - 1) * (2 * e + 3) // 12


def paul_related_systems(count: int) -> list[int]:
    """Fermion numbers of the Paul systems linked by valence models.

    A lone particle, then every closed shell plus one: 1, 3, 7, 15, 27, ...
    """
    if int(count) != count or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
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
        _positive("size", self.size)
        _positive("mass", self.mass)
        _positive("charge", self.charge)
        if self.voltage == 0.0 or not math.isfinite(self.voltage):
            raise DomainError(f"voltage must be finite and nonzero, got {self.voltage!r}")
        if self.axial_field == 0.0 or not math.isfinite(self.axial_field):
            raise DomainError(f"axial_field must be finite and nonzero, got {self.axial_field!r}")


@dataclass(frozen=True)
class PenningFrequencies:
    """Penning mode frequencies: axial ``w_z``, cyclotron ``w_c``, hybrid ``Omega``.

    ``hybrid = sqrt(w_c^2 - 2 w_z^2)`` is twice the radial oscillator
    frequency and is real only for the stable tuning ``w_c^2 > 2 w_z^2``;
    ``tuning`` is ``k = hybrid/cyclotron`` in (0, 1).
    """

    axial: float
    cyclotron: float
    hybrid: float
    mass: float
    hbar: float = HBAR

    @property
    def tuning(self) -> float:
        return self.hybrid / self.cyclotron

    @property
    def cyclotron_length(self) -> float:
        """``rho_0 = sqrt(hbar/m w_c)``."""
        return math.sqrt(self.hbar / (self.mass * self.cyclotron))

    @property
    def axial_length(self) -> float:
        """``z_0 = sqrt(hbar/m w_z)``."""
        return math.sqrt(self.hbar / (self.mass * self.axial))

    @property
    def radial_length(self) -> float:
        """Radial oscillator length ``rho_0 sqrt(2/k) = sqrt(hbar/(m Omega/2))``."""
        return math.sqrt(2.0 * self.hbar / (self.mass * self.hybrid))

    @property
    def radial_scales(self) -> OscillatorScales:
        """The radial oscillator: frequency ``Omega/2``, zero energy offset."""
        return OscillatorScales(mass=self.mass, omega0=0.5 * self.hybrid, hbar=self.hbar)


def penning_frequencies(params: PenningParams, hbar: float = HBAR) -> PenningFrequencies:
    """Mode frequencies; rejects tunings where the radial motion is unbound."""
    axial = math.sqrt(abs(params.charge * params.voltage) / (params.mass * params.size**2))
    cyclotron = abs(params.charge * params.axial_field) / params.mass
    discriminant = cyclotron**2 - 2.0 * axial**2
    if discriminant <= 0.0:
        raise StabilityError(
            f"unstable tuning: cyclotron^2 = {cyclotron**2:.6g} must exceed "
            f"2 axial^2 = {2.0 * axial**2:.6g} for bound radial motion"
        )
    return PenningFrequencies(
        axial=axial, cyclotron=cyclotron, hybrid=math.sqrt(discriminant),
        mass=params.mass, hbar=hbar,
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


@dataclass(frozen=True)
class PenningState:
    """Full Penning eigenfunction ``psi(rho, phi, z)``, unit 3D norm.

    Built as ``X(rho)/sqrt(rho) * Z(z) * e^{iM phi}/sqrt(2 pi)`` with the
    radial factor on the ``Omega/2`` oscillator length; complex-valued.
    """

    radial: RadialEigenstate
    axial: AxialState
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


def penning_wavefunction(
    freqs: PenningFrequencies,
    n_radial: int,
    k_axial: int,
    m_azimuthal: int,
    magnetron_cap: int = 50,
) -> PenningState:
    """Eigenstate ``(N, K, M)`` of the stable Penning hamiltonian."""
    validate_planar_numbers(n_radial, m_azimuthal, k_axial)
    _check_magnetron(n_radial, m_azimuthal, magnetron_cap)
    z0 = freqs.axial_length
    return PenningState(
        radial=tower_state(freqs.radial_scales, n_radial - 0.5, abs(int(m_azimuthal)) - 0.5),
        axial=AxialState(
            k_axial=int(k_axial), m_azimuthal=int(m_azimuthal),
            z_scale=z0, norm=_axial_norm(z0, int(k_axial)),
        ),
        m_azimuthal=int(m_azimuthal),
        energy=penning_energy(freqs, n_radial, k_axial, m_azimuthal, magnetron_cap),
    )


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
    if int(magnetron_cap) != magnetron_cap or magnetron_cap < 0:
        raise DomainError(f"magnetron_cap must be a nonnegative integer, got {magnetron_cap!r}")
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
