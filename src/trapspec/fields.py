"""Magnetic trap fields from coil/bar geometry.

Two families are covered, both built from circular coils and straight bars:

* Ioffe-Pritchard (IP): a coaxial coil pair plus four alternating-current
  bars.  Near the axis the field is a constant bias, a transverse quadrupole
  from the bars, and the coil curvature, giving a static harmonic potential
  for anti-aligned dipoles.
* Time-orbiting (TOP): an anti-aligned quadrupole coil pair plus two bias
  coil pairs on the x and y axes driven in quadrature, producing a bias
  field that rotates in the xy plane.  Averaged over one drive period the
  potential is again harmonic.

Both potentials become isotropic at one tunable current; the derived scales
carry everything needed to express the tuning condition and the isotropic
trap radius.  Series expressions are truncated forms (quadratic potentials,
field error growing as the fourth power of distance over the coil scale),
and this module also provides the two slow-but-independent checks used to
certify them: direct Biot-Savart summation of the conductors (at one point
or over a whole (n, 3) array of points) and direct time averaging of the
rotating-field magnitude.

Everything is SI.  Potentials are for dipoles anti-aligned with the local
field (the trappable orientation), so U = mu |B| with mu > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU0
from .errors import AccuracyError, ConfinementError, DomainError, SingularityError
from .oscillator3d import OscillatorScales

__all__ = [
    "IoffePritchardGeometry",
    "TopGeometry",
    "DipoleParticle",
    "DerivedScales",
    "ip_scales",
    "ip_field_series",
    "ip_field_cartesian",
    "ip_potential",
    "isotropy_residual",
    "solve_bar_current",
    "top_scales",
    "top_field_series",
    "top_time_avg_potential",
    "solve_quad_current",
    "top_time_average_numeric",
    "oscillator_scales",
    "CircularLoop",
    "StraightWire",
    "TrapAssembly",
    "biot_savart_field",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_current(name: str, value: float) -> None:
    if value == 0.0 or not math.isfinite(value):
        raise DomainError(f"{name} must be finite and nonzero, got {value!r}")


@dataclass(frozen=True)
class IoffePritchardGeometry:
    """Coil pair (radius, half-spacing, current) plus four bars.

    The coils sit at z = +-coil_halfspacing carrying coil_current in the same
    sense; the bars run parallel to z at distance bar_distance from the axis,
    azimuths 45, 135, 225, 315 degrees, with bar_current alternating in sign
    from one bar to the next.
    """

    coil_radius: float
    coil_halfspacing: float
    coil_current: float
    bar_distance: float
    bar_current: float

    def __post_init__(self):
        _require_positive("coil_radius", self.coil_radius)
        _require_positive("coil_halfspacing", self.coil_halfspacing)
        _require_positive("bar_distance", self.bar_distance)
        _require_current("coil_current", self.coil_current)
        _require_current("bar_current", self.bar_current)


@dataclass(frozen=True)
class TopGeometry:
    """Anti-aligned quadrupole coil pair plus rotating-bias coil pairs.

    The quadrupole pair sits on the z axis at +-quad_halfspacing with
    opposite current senses.  The bias pairs sit on the x and y axes at
    +-bias_halfspacing, driven by bias_current * cos(w t) and sin(w t)
    respectively with w = bias_frequency.
    """

    quad_radius: float
    quad_halfspacing: float
    quad_current: float
    bias_radius: float
    bias_halfspacing: float
    bias_current: float
    bias_frequency: float

    def __post_init__(self):
        _require_positive("quad_radius", self.quad_radius)
        _require_positive("quad_halfspacing", self.quad_halfspacing)
        _require_positive("bias_radius", self.bias_radius)
        _require_positive("bias_halfspacing", self.bias_halfspacing)
        _require_positive("bias_frequency", self.bias_frequency)
        _require_current("quad_current", self.quad_current)
        _require_current("bias_current", self.bias_current)


@dataclass(frozen=True)
class DipoleParticle:
    """Magnetic dipole with moment anti-aligned to the local field.

    Only the anti-aligned orientation is trappable (potential mu|B| with a
    minimum at the field minimum), so the moment magnitude must be positive;
    aligned dipoles are rejected as untrappable.
    """

    magnetic_moment: float
    mass: float

    def __post_init__(self):
        if not (self.magnetic_moment > 0.0 and math.isfinite(self.magnetic_moment)):
            raise DomainError(
                "only dipoles anti-aligned with the field are trapped: "
                f"magnetic_moment must be > 0, got {self.magnetic_moment!r}"
            )
        _require_positive("mass", self.mass)


@dataclass(frozen=True, kw_only=True)
class DerivedScales:
    """Characteristic length, curvature area, field, and gradient of a trap.

    ``kind`` is "ip" or "top".  ``length`` is the coil scale sqrt(A^2+R^2) of
    the pair that provides the bias field, ``area`` the curvature combination
    3(4A^2-R^2)/2 of the same pair (negative when the pair is too flat to
    confine axially), ``field`` the bias magnitude at the center, and
    ``gradient`` the transverse quadrupole gradient (bars for IP, quadrupole
    coils for TOP).  ``bias_frequency`` is zero for static traps.
    """

    kind: str
    length: float
    area: float
    field: float
    gradient: float
    bias_frequency: float = 0.0

    @property
    def confining(self) -> bool:
        """Whether the bias pair curvature confines along its axis."""
        return self.area > 0.0

    def _need_confinement(self) -> None:
        if not self.confining:
            raise ConfinementError(
                f"curvature area {self.area:.6g} m^2 is not positive: the coil pair "
                "does not confine along its axis (needs half-spacing > radius/2)"
            )

    @property
    def isotropy_target(self) -> float:
        """Value of gradient^2/field^2 at which the trap is isotropic."""
        self._need_confinement()
        ratio = 3.0 * self.area / self.length**4
        return ratio if self.kind == "ip" else ratio / 7.0

    @property
    def isotropic_radius(self) -> float:
        """Trap radius r_s at the isotropic tuning: U = mu B0 (1 + r^2/r_s^2)."""
        self._need_confinement()
        r_sq = self.length**4 / self.area
        if self.kind == "top":
            r_sq *= 14.0 / 5.0
        return math.sqrt(r_sq)


def ip_scales(geometry: IoffePritchardGeometry) -> DerivedScales:
    """Derived scales of an Ioffe-Pritchard assembly."""
    r, a = geometry.coil_radius, geometry.coil_halfspacing
    length = math.hypot(a, r)
    area = 1.5 * (4.0 * a * a - r * r)
    field = MU0 * geometry.coil_current * r * r / length**3
    gradient = 2.0 * MU0 * geometry.bar_current / (math.pi * geometry.bar_distance**2)
    return DerivedScales(kind="ip", length=length, area=area, field=field, gradient=gradient)


def top_scales(geometry: TopGeometry) -> DerivedScales:
    """Derived scales of a TOP assembly (bias pair sets length/area/field)."""
    rb, ab = geometry.bias_radius, geometry.bias_halfspacing
    rq, aq = geometry.quad_radius, geometry.quad_halfspacing
    length = math.hypot(ab, rb)
    area = 1.5 * (4.0 * ab * ab - rb * rb)
    field = MU0 * geometry.bias_current * rb * rb / length**3
    gradient = 3.0 * MU0 * geometry.quad_current * rq * rq * aq / (2.0 * (aq * aq + rq * rq) ** 2.5)
    return DerivedScales(
        kind="top", length=length, area=area, field=field, gradient=gradient,
        bias_frequency=geometry.bias_frequency,
    )


def _check_kind(scales: DerivedScales, kind: str) -> None:
    if scales.kind != kind:
        raise DomainError(f"scales were derived for a {scales.kind!r} trap, need {kind!r}")


def ip_field_series(scales: DerivedScales, rho, phi, z) -> np.ndarray:
    """IP field near the axis, cylindrical components, stacked on the last axis.

    Constant bias + bar quadrupole + coil curvature; the omitted terms are
    fourth order in distance over the coil scale.  Inputs broadcast.
    """
    _check_kind(scales, "ip")
    rho, phi, z = np.broadcast_arrays(*np.atleast_1d(rho, phi, z))
    curv = scales.field * scales.area / scales.length**4
    b_rho = scales.gradient * rho * np.cos(2.0 * phi) - curv * z * rho
    b_phi = -scales.gradient * rho * np.sin(2.0 * phi)
    b_z = scales.field + curv * (z * z - 0.5 * rho * rho)
    out = np.stack([b_rho, b_phi, b_z], axis=-1)
    return out[0] if out.shape == (1, 3) else out


def ip_field_cartesian(scales: DerivedScales, x, y, z) -> np.ndarray:
    """Same field as :func:`ip_field_series` in Cartesian components."""
    x, y, z = np.broadcast_arrays(*np.atleast_1d(x, y, z))
    rho = np.hypot(x, y)
    phi = np.arctan2(y, x)
    cyl = np.atleast_2d(ip_field_series(scales, rho, phi, z))
    c, s = np.cos(phi).ravel(), np.sin(phi).ravel()
    flat = cyl.reshape(-1, 3)
    bx = flat[:, 0] * c - flat[:, 1] * s
    by = flat[:, 0] * s + flat[:, 1] * c
    out = np.stack([bx, by, flat[:, 2]], axis=-1).reshape(cyl.shape)
    return out[0] if out.shape == (1, 3) else out


def ip_potential(particle: DipoleParticle, scales: DerivedScales, rho, z):
    """Quadratic-order IP trapping potential mu|B| for anti-aligned dipoles."""
    _check_kind(scales, "ip")
    alpha = scales.area / scales.length**4
    ratio = (scales.gradient / scales.field) ** 2
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    u = particle.magnetic_moment * scales.field * (
        1.0 + alpha * z * z + 0.5 * (ratio - alpha) * rho * rho
    )
    return float(u) if u.ndim == 0 else u


def top_field_series(scales: DerivedScales, x, y, z, t) -> np.ndarray:
    """TOP field at drive phase w*t, Cartesian components on the last axis.

    Rotating bias + quadrupole gradient + bias-pair curvature, truncated at
    second order in the coordinates.  All four inputs broadcast.
    """
    _check_kind(scales, "top")
    x, y, z, t = np.broadcast_arrays(*np.atleast_1d(x, y, z, t))
    c = np.cos(scales.bias_frequency * t)
    s = np.sin(scales.bias_frequency * t)
    curv = 0.5 * scales.field * scales.area / scales.length**4
    r_sq = x * x + y * y + z * z
    bx = scales.field * c + scales.gradient * x + curv * ((3.0 * x * x - r_sq) * c - 2.0 * x * y * s)
    by = scales.field * s + scales.gradient * y + curv * ((3.0 * y * y - r_sq) * s - 2.0 * x * y * c)
    bz = -(2.0 * scales.gradient + 2.0 * curv * (x * c + y * s)) * z
    out = np.stack([bx, by, bz], axis=-1)
    return out[0] if out.shape == (1, 3) else out


def top_time_avg_potential(particle: DipoleParticle, scales: DerivedScales, rho, z):
    """Drive-period average of mu|B| for the TOP field, quadratic order.

    Valid when the drive is fast compared to the motion but slow compared to
    the Larmor precession (not enforced here).
    """
    _check_kind(scales, "top")
    alpha = scales.area / scales.length**4
    ratio = (scales.gradient / scales.field) ** 2
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    u = particle.magnetic_moment * scales.field * (
        1.0
        + 0.25 * (ratio + alpha) * rho * rho
        + (2.0 * ratio - 0.5 * alpha) * z * z
    )
    return float(u) if u.ndim == 0 else u


def isotropy_residual(scales: DerivedScales) -> float:
    """Relative distance of gradient^2/field^2 from the isotropic tuning of its trap kind."""
    target = scales.isotropy_target
    return ((scales.gradient / scales.field) ** 2 - target) / target


def solve_bar_current(geometry: IoffePritchardGeometry) -> float:
    """Bar current that makes the IP potential isotropic (closed form)."""
    scales = ip_scales(geometry)
    scales._need_confinement()
    gradient = scales.field * math.sqrt(3.0 * scales.area) / scales.length**2
    return math.pi * geometry.bar_distance**2 * gradient / (2.0 * MU0)


def solve_quad_current(geometry: TopGeometry) -> float:
    """Quadrupole current that makes the TOP potential isotropic (closed form)."""
    scales = top_scales(geometry)
    scales._need_confinement()
    gradient = scales.field * math.sqrt(3.0 * scales.area / 7.0) / scales.length**2
    rq, aq = geometry.quad_radius, geometry.quad_halfspacing
    return gradient * 2.0 * (aq * aq + rq * rq) ** 2.5 / (3.0 * MU0 * rq * rq * aq)


def oscillator_scales(
    particle: DipoleParticle, field_at_center: float, isotropic_radius: float
) -> OscillatorScales:
    """Harmonic scales of an isotropic trap U = mu B0 (1 + r^2/r_s^2).

    The returned scales carry the trap bottom mu B0 as the energy offset, so
    absolute level energies include it.
    """
    _require_positive("field_at_center", field_at_center)
    _require_positive("isotropic_radius", isotropic_radius)
    bottom = particle.magnetic_moment * field_at_center
    omega0 = math.sqrt(2.0 * bottom / (particle.mass * isotropic_radius**2))
    return OscillatorScales(mass=particle.mass, omega0=omega0, energy_offset=bottom)


# --------------------------------------------------------------------------
# Conductor-level oracle: direct Biot-Savart summation.


# Periodic-trapezoid panels double until a point's field changes by at most
# this much relative to its largest component.
_LOOP_RTOL = 1e-13
# A point closer than this (meters) to any conductor, where the line-current
# model diverges, is rejected.
_CLEARANCE = 1e-9
# Largest number of (point, panel) pairs a loop evaluates in one numpy block.
# Points are taken in chunks of this many pairs, so a (pairs, 3) temporary
# stays near 1.5 MB whatever the batch size.  One point's panels are never
# split (its panel sum stays one numpy mean, as when it is evaluated alone),
# so above this many panels a block holds a single point.
_BLOCK_PAIRS = 1 << 16


def _rows(points) -> np.ndarray:
    """``points`` as an (n, 3) float array; one point of shape (3,) is one row."""
    p = np.asarray(points, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise DomainError(f"points must have shape (3,) or (n, 3), got {p.shape}")
    return p.reshape(-1, 3)


@dataclass(frozen=True)
class CircularLoop:
    """Circular current loop: center point, unit axis, radius, current (SI).

    The current sense is right-handed about the axis, so a positive current
    produces field along +axis at the center.  Every method takes one point
    of shape (3,) or an (n, 3) array of points and returns the matching shape.
    """

    center: tuple[float, float, float]
    axis: tuple[float, float, float]
    radius: float
    current: float

    def __post_init__(self):
        _require_positive("radius", self.radius)
        norm = math.sqrt(sum(c * c for c in self.axis))
        if norm == 0.0:
            raise DomainError("loop axis must be a nonzero vector")
        object.__setattr__(self, "axis", tuple(c / norm for c in self.axis))
        n = np.asarray(self.axis)
        seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(n, seed)
        e1 /= np.linalg.norm(e1)
        # Orthonormal frame (e1, e2, axis) of the loop plane, built once.
        object.__setattr__(self, "_frame", (e1, np.cross(n, e1), n))

    def min_distance(self, points):
        """Distance from each point to the loop wire."""
        p = _rows(points) - np.asarray(self.center)
        e1, e2, n = self._frame
        radial = np.hypot(np.vecdot(p, e1), np.vecdot(p, e2))
        dist = np.hypot(radial - self.radius, np.vecdot(p, n))
        return dist.reshape(np.shape(points)[:-1])[()]

    def _integral(self, p: np.ndarray, n_panels: int) -> np.ndarray:
        # Trapezoid sum of the Biot-Savart integrand over n_panels, for every
        # row of p, in blocks of at most _BLOCK_PAIRS (point, panel) pairs.
        e1, e2, _ = self._frame
        theta = np.linspace(0.0, 2.0 * math.pi, n_panels, endpoint=False)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        pts = np.asarray(self.center) + self.radius * (np.outer(cos_t, e1) + np.outer(sin_t, e2))
        dl = self.radius * (np.outer(-sin_t, e1) + np.outer(cos_t, e2))
        mean = np.empty_like(p)
        step = max(1, _BLOCK_PAIRS // n_panels)
        for lo in range(0, len(p), step):
            sep = p[lo:lo + step, None, :] - pts
            dist = np.linalg.norm(sep, axis=2)
            mean[lo:lo + step] = (np.cross(dl, sep) / dist[..., None] ** 3).mean(axis=1)
        pref = MU0 * self.current / (4.0 * math.pi)
        return pref * mean * 2.0 * math.pi

    def field(self, points) -> np.ndarray:
        """Biot-Savart line integral by periodic-trapezoid panel doubling.

        The integrand is smooth and periodic, so the trapezoid rule converges
        geometrically.  Each point stops at the first doubling whose change
        is within ``_LOOP_RTOL`` (or stalls below 1e-10); only the points
        still moving go on to the next doubling.  A point still moving at
        2**20 panels raises AccuracyError.
        """
        p = _rows(points)
        out = np.empty_like(p)
        floor = max(_LOOP_RTOL, 5e-16)
        active = np.arange(len(p))
        prev = self._integral(p, 64)
        prev_diff = np.full(len(p), math.inf)
        n_panels = 128
        while n_panels <= 1 << 20:
            cur = self._integral(p[active], n_panels)
            scale = np.max(np.abs(cur), axis=1) + 1e-300
            diff = np.max(np.abs(cur - prev), axis=1) / scale
            done = (diff <= floor) | ((diff >= prev_diff) & (diff <= 1e-10))
            out[active[done]] = cur[done]
            moving = ~done
            active, prev, prev_diff = active[moving], cur[moving], diff[moving]
            if active.size == 0:
                return out.reshape(np.shape(points))
            n_panels *= 2
        raise AccuracyError(
            f"loop field quadrature did not reach rtol {_LOOP_RTOL:g} by {1 << 20} panels"
        )


@dataclass(frozen=True)
class StraightWire:
    """Infinite straight wire through a point, along a unit direction.

    Methods take one point (3,) or an (n, 3) array, like :class:`CircularLoop`.
    """

    point_on: tuple[float, float, float]
    direction: tuple[float, float, float]
    current: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.direction))
        if norm == 0.0:
            raise DomainError("wire direction must be a nonzero vector")
        object.__setattr__(self, "direction", tuple(c / norm for c in self.direction))

    def _perp(self, p: np.ndarray) -> np.ndarray:
        d = np.asarray(self.direction)
        rel = p - np.asarray(self.point_on)
        return rel - np.vecdot(rel, d)[:, None] * d

    def min_distance(self, points):
        """Distance from each point to the wire."""
        s = self._perp(_rows(points))
        return np.sqrt(np.vecdot(s, s)).reshape(np.shape(points)[:-1])[()]

    def field(self, points) -> np.ndarray:
        s = self._perp(_rows(points))
        d_sq = np.vecdot(s, s)
        b = (MU0 * self.current / (2.0 * math.pi * d_sq))[:, None] * np.cross(self.direction, s)
        return b.reshape(np.shape(points))


@dataclass(frozen=True)
class TrapAssembly:
    """Collection of loops and wires, summed by :func:`biot_savart_field`."""

    loops: tuple[CircularLoop, ...] = ()
    wires: tuple[StraightWire, ...] = ()

    @classmethod
    def ioffe_pritchard(cls, geometry: IoffePritchardGeometry) -> "TrapAssembly":
        """Two co-aligned coils on the z axis plus four alternating bars."""
        a = geometry.coil_halfspacing
        loops = tuple(
            CircularLoop((0.0, 0.0, sz * a), (0.0, 0.0, 1.0), geometry.coil_radius,
                         geometry.coil_current)
            for sz in (+1.0, -1.0)
        )
        wires = []
        for k in range(4):
            angle = math.pi / 4.0 + k * math.pi / 2.0
            pos = (geometry.bar_distance * math.cos(angle),
                   geometry.bar_distance * math.sin(angle), 0.0)
            wires.append(StraightWire(pos, (0.0, 0.0, 1.0), (-1.0) ** k * geometry.bar_current))
        return cls(loops=loops, wires=tuple(wires))

    @classmethod
    def top(cls, geometry: TopGeometry, t: float) -> "TrapAssembly":
        """Snapshot of the TOP conductors with the drive frozen at time t.

        The quadrupole pair is anti-aligned (field -2 gradient z on axis near
        the center); the bias pairs carry the instantaneous quadrature
        currents.
        """
        loops = [
            CircularLoop((0.0, 0.0, geometry.quad_halfspacing), (0.0, 0.0, 1.0),
                         geometry.quad_radius, -geometry.quad_current),
            CircularLoop((0.0, 0.0, -geometry.quad_halfspacing), (0.0, 0.0, 1.0),
                         geometry.quad_radius, geometry.quad_current),
        ]
        phase = geometry.bias_frequency * t
        drives = (
            ((1.0, 0.0, 0.0), geometry.bias_current * math.cos(phase)),
            ((0.0, 1.0, 0.0), geometry.bias_current * math.sin(phase)),
        )
        for axis, current in drives:
            if current == 0.0:
                continue  # a zero-current conductor contributes nothing
            for sign in (+1.0, -1.0):
                center = tuple(sign * geometry.bias_halfspacing * c for c in axis)
                loops.append(CircularLoop(center, axis, geometry.bias_radius, current))
        return cls(loops=tuple(loops))


def biot_savart_field(assembly: TrapAssembly, points) -> np.ndarray:
    """Total field of the assembly by direct summation, at one point or many.

    ``points`` is one point of shape (3,) or an (n, 3) array; the result has
    the same shape.  Each conductor handles all the points at once, and the
    conductors are summed in order (loops, then wires), so every row equals
    the field of that point evaluated alone.

    Raises SingularityError, naming the first such point, when a point lies
    within ``_CLEARANCE`` (1e-9 m) of any conductor, where the line-current
    model diverges.
    """
    p = _rows(points)
    conductors = (*assembly.loops, *assembly.wires)
    near = np.zeros(len(p), dtype=bool)
    for conductor in conductors:
        near |= conductor.min_distance(p) < _CLEARANCE
    if near.any():
        raise SingularityError(
            f"evaluation point {p[np.argmax(near)].tolist()} is within {_CLEARANCE:g} m "
            "of a conductor"
        )
    total = np.zeros_like(p)
    for conductor in conductors:
        total += conductor.field(p)
    return total.reshape(np.shape(points))


def top_time_average_numeric(
    particle: DipoleParticle,
    scales: DerivedScales,
    x: float,
    y: float,
    z: float,
    tol: float = 1e-11,
) -> float:
    """Drive-period average of mu|B| for the TOP series field, by quadrature.

    Composite Simpson over one period, starting at 256 panels and doubling
    until the average changes by less than ``tol`` relative.  Serves as the
    independent check of :func:`top_time_avg_potential`.
    """
    _check_kind(scales, "top")
    period = 2.0 * math.pi / scales.bias_frequency

    def average(n_panels: int) -> float:
        ts = np.linspace(0.0, period, n_panels + 1)
        mags = np.linalg.norm(top_field_series(scales, x, y, z, ts), axis=-1)
        weights = np.ones(n_panels + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(weights @ mags) * (period / n_panels) / 3.0 / period

    n_panels = 256
    prev = average(n_panels)
    while n_panels <= 1 << 16:
        n_panels *= 2
        cur = average(n_panels)
        if abs(cur - prev) <= tol * abs(cur):
            return particle.magnetic_moment * cur
        prev = cur
    raise AccuracyError(f"time average did not converge to {tol:g} by {1 << 16} panels")
