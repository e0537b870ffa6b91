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

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import DomainError, StabilityError, finite, integer, nonzero, positive
from .oscillator3d import OscillatorScales, RadialEigenstate, tower_state
from .special import tower_degree
from .susy import PartnerPair, partner_pair

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
MAGNETRON_CAP = 50  # cap on (N+M)/2, the magnetron quantum number
COUNT_LIMIT = 10**8  # most label-by-K level comparisons one Penning state count may make


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
        try:
            secular = self.secular
        except OverflowError:  # quadrupole**2
            secular = math.inf
        if secular == math.inf:
            raise DomainError(
                f"quadrupole {self.quadrupole!r} and drive {self.drive!r} put the secular "
                "frequency beyond the float range"
            )

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
    return _paul_level(freqs, n_radial, k_axial)


def _paul_level(freqs: PaulFrequencies, n_radial, k_axial):
    """``hbar w_p (N + 2K + 2)`` at unchecked labels, numbers or int64 arrays alike."""
    return freqs.quantum * (n_radial + 2 * k_axial + 2)


def _planar_labels(max_n: int, max_k: int, max_j: int | None = None):
    """Every ``(N, M, K)`` with ``N <= max_n`` and ``K <= max_k``, as int64 arrays.

    ``N`` ascends, ``M`` runs ``-N, -N + 2, ..., N`` within it and each
    ``(N, M)`` pair is repeated over ``K = 0 .. max_k``.  Given ``max_j``,
    only the pairs with ``(N+M)/2 <= max_j`` are built: ``M`` then stops at
    ``2 max_j - N``.
    """
    counts = np.minimum(np.arange(max_n + 1), max_n if max_j is None else max_j) + 1  # Ms at each N
    n = np.repeat(np.arange(max_n + 1), counts)
    m = 2 * (np.arange(len(n)) - np.repeat(np.cumsum(counts) - counts, counts)) - n
    return np.repeat(n, max_k + 1), np.repeat(m, max_k + 1), np.tile(np.arange(max_k + 1), len(n))


def _by_energy(n, m, k, energy):
    """The table's rows sorted by ``(E, N, K, M)``, as arrays ``(N, M, K, E)``."""
    order = np.lexsort((m, k, n, energy))
    return n[order], m[order], k[order], energy[order]


def paul_spectrum(freqs: PaulFrequencies, max_n: int, max_k: int):
    """Every Paul state with ``N <= max_n`` and ``K <= max_k``, lowest level first.

    Returns arrays ``(N, M, K, E)`` sorted by ``(E, N, K, M)``; each energy
    is bit for bit :func:`paul_energy` of its labels.
    """
    n, m, k = _planar_labels(integer("max_n", max_n, 0), integer("max_k", max_k, 0))
    with np.errstate(over="ignore"):  # as in floats: an overflow is an inf level
        return _by_energy(n, m, k, _paul_level(freqs, n, k))


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
    return partner_pair(abs_m - 0.5, scales)


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
        try:
            spring = self.cyclotron**2 - 2.0 * self.axial**2
        except OverflowError:
            # The hybrid frequency and every level are built from these
            # squares; an unsquared form would change their last bits.
            raise DomainError(
                f"cyclotron {self.cyclotron!r} and axial {self.axial!r} frequencies are too "
                "large to square as floats"
            ) from None
        if spring <= 0.0:
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


def _check_magnetron(n_radial: int, m_azimuthal: int) -> None:
    if (n_radial + m_azimuthal) // 2 > MAGNETRON_CAP:
        raise DomainError(
            f"(N+M)/2 = {(n_radial + m_azimuthal) // 2} exceeds the magnetron cap "
            f"{MAGNETRON_CAP}: such states ride the unstable drift mode too hard to be meaningful"
        )


def penning_energy(
    freqs: PenningFrequencies, n_radial: int, k_axial: int, m_azimuthal: int
) -> float:
    """Level energy ``hbar (Omega N + 2 w_z K - w_c M + Omega + w_z)/2``.

    Energies decrease without bound as M grows at fixed N - |M| (magnetron
    drift), so a label with ``(N+M)/2`` above :data:`MAGNETRON_CAP` (50)
    raises :class:`DomainError` rather than report a level.
    """
    validate_planar_numbers(n_radial, m_azimuthal, k_axial)
    _check_magnetron(n_radial, m_azimuthal)
    return _penning_level(freqs, n_radial, k_axial, m_azimuthal)


def _penning_level(freqs: PenningFrequencies, n_radial, k_axial, m_azimuthal):
    """``hbar (Omega N + 2 w_z K - w_c M + Omega + w_z)/2`` at unchecked labels or int64 arrays."""
    return 0.5 * freqs.hbar * (
        freqs.hybrid * n_radial
        + 2.0 * freqs.axial * k_axial
        - freqs.cyclotron * m_azimuthal
        + freqs.hybrid
        + freqs.axial
    )


def penning_wavefunction(
    freqs: PenningFrequencies, n_radial: int, k_axial: int, m_azimuthal: int
) -> PlanarState:
    """Eigenstate ``(N, K, M)`` of the stable Penning hamiltonian."""
    energy = penning_energy(freqs, n_radial, k_axial, m_azimuthal)
    return _planar_state(freqs, n_radial, m_azimuthal, k_axial, energy)


def penning_spectrum(freqs: PenningFrequencies, max_n: int, max_k: int):
    """Every Penning state with ``N <= max_n`` and ``K <= max_k``, lowest level first.

    Returns arrays ``(N, M, K, E)`` sorted by ``(E, N, K, M)``; each energy
    is bit for bit :func:`penning_energy` of its labels.  A ``max_n`` past
    the magnetron cap raises its error for the first label past it in
    ``(N, M)`` order, ``N = M = cap + 1``, before any array is built.
    """
    max_n = integer("max_n", max_n, 0)
    top = min(max_n, MAGNETRON_CAP + 1)
    _check_magnetron(top, top)
    n, m, k = _planar_labels(max_n, integer("max_k", max_k, 0))
    with np.errstate(over="ignore", invalid="ignore"):  # as in floats: inf or nan levels
        return _by_energy(n, m, k, _penning_level(freqs, n, k, m))


def penning_susy_partner(freqs: PenningFrequencies, abs_m: int) -> PartnerPair:
    """Partner pair of the Penning ``|M|`` tower.

    The radial problem is an oscillator of frequency ``Omega/2``, so the
    Paul-trap partner structure carries over with ``Omega`` in place of
    ``2 w_p``; the level spacing within a tower is ``hbar Omega``.  Labels
    are tower labels ``N - 1/2``.
    """
    return _tower_pair(abs_m, freqs.radial_scales)


def penning_state_count(
    freqs: PenningFrequencies, energy_cap: float | np.ndarray
) -> int | np.ndarray:
    """Spin-1/2 Penning states with ``E <= energy_cap`` and ``(N+M)/2 <= 50``, by enumeration.

    No closed shell formula exists — the count depends on the frequency
    tuning — and the magnetron cap :data:`MAGNETRON_CAP` is what keeps the
    count finite at all, since energies decrease without bound along the
    drift ladder.  Each label is compared at the level :func:`penning_energy`
    returns.  ``energy_cap`` is one cap, counted as an ``int``, or a 1-D
    array of caps, counted in one pass as an int64 array.  A largest cap
    that would take more than :data:`COUNT_LIMIT` label-by-K comparisons
    raises :class:`DomainError` before any array is built.
    """
    caps = np.asarray(energy_cap, dtype=float)
    if caps.ndim > 1:
        raise DomainError(
            f"energy_cap must be one cap or a 1-D array of caps, got shape {caps.shape}"
        )
    for value in caps.ravel().tolist():
        finite("energy_cap", value)
    top = float(caps.max(initial=-math.inf))
    cap = MAGNETRON_CAP
    ground = _penning_level(freqs, 0, 0, 0)
    cheapest = _penning_level(freqs, cap, 0, cap)  # N = M = cap, K = 0
    # N <= 2 cap where M >= 0; where M < 0 every level is at least ground + hbar Omega N/2.
    max_n = max(2.0 * cap, (top - ground) / (0.5 * freqs.hbar * freqs.hybrid) + 1.0)
    labels = (cap + 1) * (max_n + 1.0 - 0.5 * cap)  # pairs with N <= max_n, (N+M)/2 <= cap
    k_values = (top - cheapest) / (freqs.hbar * freqs.axial) + 1.0
    if not labels * k_values <= COUNT_LIMIT:  # also catches inf and nan
        raise DomainError(
            f"energy_cap {top!r} is too large to count under: it takes more than "
            f"{COUNT_LIMIT:.0e} level comparisons"
        )
    n, m, _ = _planar_labels(int(max_n), 0, cap)
    counts = np.zeros(caps.shape, dtype=np.int64)
    for k in itertools.count():  # levels rise with K, so stop at the first K with none
        levels = np.sort(_penning_level(freqs, n, k, m))
        if not levels[0] <= top:
            return 2 * counts if caps.ndim else 2 * int(counts)
        counts += np.searchsorted(levels, caps, side="right")
