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

from .constants import MU0
from .errors import (
    AccuracyError, ConfinementError, DomainError, SingularityError, in_range, nonzero, positive,
)
from .oscillator3d import OscillatorScales

__all__ = [
    "IoffePritchardGeometry",
    "TopGeometry",
    "DipoleParticle",
    "DerivedScales",
    "ip_scales",
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
        positive("coil_radius", self.coil_radius)
        positive("coil_halfspacing", self.coil_halfspacing)
        positive("bar_distance", self.bar_distance)
        nonzero("coil_current", self.coil_current)
        nonzero("bar_current", self.bar_current)


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
        positive("quad_radius", self.quad_radius)
        positive("quad_halfspacing", self.quad_halfspacing)
        positive("bias_radius", self.bias_radius)
        positive("bias_halfspacing", self.bias_halfspacing)
        positive("bias_frequency", self.bias_frequency)
        nonzero("quad_current", self.quad_current)
        nonzero("bias_current", self.bias_current)


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
        positive("mass", self.mass)


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
    """Derived scales of an Ioffe-Pritchard assembly; see :func:`_scale`."""
    r, a = geometry.coil_radius, geometry.coil_halfspacing
    length = math.hypot(a, r)
    _scale("ip", "length_m^4", lambda: length**4)
    area = 1.5 * (4.0 * a * a - r * r)
    field = _scale("ip", "field_T", lambda: MU0 * geometry.coil_current * r * r / length**3)
    gradient = _scale("ip", "gradient_T_per_m", lambda: (
        2.0 * MU0 * geometry.bar_current / (math.pi * geometry.bar_distance**2)
    ))
    return DerivedScales(kind="ip", length=length, area=area, field=field, gradient=gradient)


def top_scales(geometry: TopGeometry) -> DerivedScales:
    """Derived scales of a TOP assembly (bias pair sets length/area/field); see :func:`_scale`."""
    rb, ab = geometry.bias_radius, geometry.bias_halfspacing
    rq, aq = geometry.quad_radius, geometry.quad_halfspacing
    length = math.hypot(ab, rb)
    _scale("top", "length_m^4", lambda: length**4)
    area = 1.5 * (4.0 * ab * ab - rb * rb)
    field = _scale("top", "field_T", lambda: MU0 * geometry.bias_current * rb * rb / length**3)
    gradient = _scale("top", "gradient_T_per_m", lambda: (
        3.0 * MU0 * geometry.quad_current * rq * rq * aq / (2.0 * (aq * aq + rq * rq) ** 2.5)
    ))
    return DerivedScales(
        kind="top", length=length, area=area, field=field, gradient=gradient,
        bias_frequency=geometry.bias_frequency,
    )


def _scale(kind: str, name: str, compute) -> float:
    """``compute()``, a derived scale; :class:`DomainError` names it beyond the float range.

    Neither the field, the gradient, a tuned current nor the fourth power of
    the length (which sets the curvature) may overflow or underflow to 0.
    """
    return in_range(compute, f"{kind} {name} is beyond the float range")


def _check_kind(scales: DerivedScales, kind: str) -> None:
    if scales.kind != kind:
        raise DomainError(f"scales were derived for a {scales.kind!r} trap, need {kind!r}")


def ip_field_cartesian(scales: DerivedScales, x, y, z) -> np.ndarray:
    """IP field near the axis, Cartesian components, stacked on the last axis.

    Constant bias + bar quadrupole + coil curvature; the omitted terms are
    fourth order in distance over the coil scale.  Inputs broadcast.
    """
    import numpy as np
    _check_kind(scales, "ip")
    x, y, z = np.broadcast_arrays(*np.atleast_1d(x, y, z))
    g, curv = scales.gradient, scales.field * scales.area / scales.length**4
    # 0.0 + v is v, but +0.0 where v is -0.0: an exact zero prints as 0.
    b_x = 0.0 + (g - curv * z) * x
    b_y = 0.0 - (g + curv * z) * y
    b_z = scales.field + curv * (z * z - 0.5 * (x * x + y * y))
    out = np.stack([b_x, b_y, b_z], axis=-1)
    return out[0] if out.shape == (1, 3) else out


def ip_potential(particle: DipoleParticle, scales: DerivedScales, rho, z):
    """Quadratic-order IP trapping potential mu|B| for anti-aligned dipoles."""
    import numpy as np
    _check_kind(scales, "ip")
    alpha = scales.area / scales.length**4
    ratio = _gradient_ratio(scales)
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
    import numpy as np
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
    import numpy as np
    _check_kind(scales, "top")
    alpha = scales.area / scales.length**4
    ratio = _gradient_ratio(scales)
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    u = particle.magnetic_moment * scales.field * (
        1.0
        + 0.25 * (ratio + alpha) * rho * rho
        + (2.0 * ratio - 0.5 * alpha) * z * z
    )
    return float(u) if u.ndim == 0 else u


def _gradient_ratio(scales: DerivedScales) -> float:
    """gradient^2/field^2, or :class:`DomainError` where it leaves the float range."""
    return in_range(lambda: (scales.gradient / scales.field) ** 2,
                    f"{scales.kind} gradient^2/field^2 is beyond the float range", allow_zero=True)


def isotropy_residual(scales: DerivedScales) -> float:
    """Relative distance of gradient^2/field^2 from the isotropic tuning of its trap kind."""
    target = scales.isotropy_target
    return (_gradient_ratio(scales) - target) / target


def solve_bar_current(geometry: IoffePritchardGeometry) -> float:
    """Bar current that makes the IP potential isotropic (closed form)."""
    scales = ip_scales(geometry)
    scales._need_confinement()
    gradient = scales.field * math.sqrt(3.0 * scales.area) / scales.length**2
    return _scale("ip", "tuned_bar_current_A",
                  lambda: math.pi * geometry.bar_distance**2 * gradient / (2.0 * MU0))


def solve_quad_current(geometry: TopGeometry) -> float:
    """Quadrupole current that makes the TOP potential isotropic (closed form)."""
    scales = top_scales(geometry)
    scales._need_confinement()
    gradient = scales.field * math.sqrt(3.0 * scales.area / 7.0) / scales.length**2
    rq, aq = geometry.quad_radius, geometry.quad_halfspacing
    return _scale("top", "tuned_quad_current_A",
                  lambda: gradient * 2.0 * (aq * aq + rq * rq) ** 2.5 / (3.0 * MU0 * rq * rq * aq))


def oscillator_scales(
    particle: DipoleParticle, field_at_center: float, isotropic_radius: float
) -> OscillatorScales:
    """Harmonic scales of an isotropic trap U = mu B0 (1 + r^2/r_s^2).

    The returned scales carry the trap bottom mu B0 as the energy offset, so
    absolute level energies include it.
    """
    positive("field_at_center", field_at_center)
    positive("isotropic_radius", isotropic_radius)
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
# Rows per chunk of points, which bounds the loop fields held for the sums.
_CHUNK_ROWS = 4096


def _rows(points) -> np.ndarray:
    """``points`` as an (n, 3) float array; one point of shape (3,) is one row."""
    import numpy as np
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
        positive("radius", self.radius)
        norm = math.sqrt(sum(c * c for c in self.axis))
        if norm == 0.0:
            raise DomainError("loop axis must be a nonzero vector")
        object.__setattr__(self, "axis", tuple(c / norm for c in self.axis))
        import numpy as np
        n = np.asarray(self.axis)
        seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(n, seed)
        e1 /= np.linalg.norm(e1)
        # Orthonormal frame (e1, e2, axis) of the loop plane, built once.
        object.__setattr__(self, "_frame", (e1, np.cross(n, e1), n))

    def min_distance(self, points):
        """Distance from each point to the loop wire."""
        import numpy as np
        p = _rows(points) - np.asarray(self.center)
        e1, e2, n = self._frame
        radial = np.hypot(np.vecdot(p, e1), np.vecdot(p, e2))
        dist = np.hypot(radial - self.radius, np.vecdot(p, n))
        return dist.reshape(np.shape(points)[:-1])[()]

    def _mean(self, local: np.ndarray, n_panels: int) -> np.ndarray:
        # Panel mean of the unit-current integrand over a**2, in the loop frame,
        # for each column (x1, x2, x3, a) of local.  With q the wire point,
        # s = x - q and R**2 = |x|**2 + a**2, a panel's term is cross(dl, s)
        # (1/|s|**3 - 1/R**3) + a**2 n/R**3: the dropped cross(dl, x)/R**3 sum to 0
        # with the dl, and the bracket is built from R**2 - |s|**2 = 2 x.q, so no
        # term cancels another.  Blocks hold at most _BLOCK_PAIRS (point, panel) pairs.
        import numpy as np
        theta = np.linspace(0.0, 2.0 * math.pi, n_panels, endpoint=False)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        mean = np.empty((local.shape[1], 3))
        step = max(1, _BLOCK_PAIRS // n_panels)
        for lo in range(0, len(mean), step):
            x1, x2, x3, a = local[:, lo:lo + step, None]
            s1, s2 = x1 - a * cos_t, x2 - a * sin_t
            s_sq = s1 * s1 + s2 * s2 + x3 * x3
            r_sq = x1 * x1 + x2 * x2 + x3 * x3 + a * a
            s, r = np.sqrt(s_sq), np.sqrt(r_sq)
            g = 2.0 * (x1 * cos_t + x2 * sin_t) * (r_sq + r * s + s_sq) / (  # the bracket / a
                (r + s) * (r_sq * r) * (s_sq * s))
            mean[lo:lo + step] = np.column_stack([
                x3[:, 0] * (cos_t * g).mean(axis=1), x3[:, 0] * (sin_t * g).mean(axis=1),
                1.0 / (r_sq * r)[:, 0] - ((cos_t * s1 + sin_t * s2) * g).mean(axis=1)])
        return mean

    def field(self, points) -> np.ndarray:
        """Biot-Savart line integral by periodic-trapezoid panel doubling.

        The integrand is smooth and periodic, so the trapezoid rule converges
        geometrically, and no panel term cancels another at any distance.
        Each point stops at the first doubling whose change is within
        ``_LOOP_RTOL`` of its largest component; only the points still moving
        go on.  A point still moving at 2**20 panels raises AccuracyError.
        """
        import numpy as np
        return _loop_fields((self,), _rows(points))[0].reshape(np.shape(points))


def _loop_fields(loops, p: np.ndarray) -> list[np.ndarray]:
    """Each loop's field at every row of ``p``, as :meth:`CircularLoop.field` describes.

    The stop test reads the relative change of the current-free panel mean,
    so loops with one center, axis and radius share its doublings; each loop
    then scales the converged mean by its own current.
    """
    import numpy as np
    groups = {}
    for i, loop in enumerate(loops):
        groups.setdefault((tuple(loop.center), loop.axis, loop.radius), []).append(i)
    out = [None] * len(loops)
    for members in groups.values():
        coil = loops[members[0]]
        # Loop-frame coordinates and the radius, in units of a power of two 2**k
        # above all four: exact, and no square in _mean overflows.
        local = np.stack([*(np.vecdot(p - np.asarray(coil.center), e) for e in coil._frame),
                          np.full(len(p), coil.radius)])
        _, k = np.frexp(np.max(np.abs(local), axis=0))
        local = np.ldexp(local, -k)
        mean, prev = np.empty((len(p), 3)), coil._mean(local, 64)
        active, n_panels = np.arange(len(p)), 128
        while active.size:
            if n_panels > 1 << 20:
                raise AccuracyError(
                    f"loop field quadrature did not reach rtol {_LOOP_RTOL:g} by {1 << 20} panels"
                )
            cur = coil._mean(local[:, active], n_panels)
            change = np.max(np.abs(cur - prev), axis=1)
            done = change <= _LOOP_RTOL * np.max(np.abs(cur), axis=1)
            mean[active[done]] = cur[done]
            active, prev = active[~done], cur[~done]
            n_panels *= 2
        b = np.ldexp(np.square(local[3, :, None]) * mean, -k[:, None])  # per meter, loop frame
        e1, e2, n = coil._frame
        mean = b[:, :1] * e1 + b[:, 1:2] * e2 + b[:, 2:] * n
        for i in members:
            out[i] = MU0 * loops[i].current / (4.0 * math.pi) * mean * 2.0 * math.pi
    return out


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
        import numpy as np
        d = np.asarray(self.direction)
        rel = p - np.asarray(self.point_on)
        return rel - np.vecdot(rel, d)[:, None] * d

    def min_distance(self, points):
        """Distance from each point to the wire."""
        import numpy as np
        s = self._perp(_rows(points))
        return np.sqrt(np.vecdot(s, s)).reshape(np.shape(points)[:-1])[()]

    def field(self, points) -> np.ndarray:
        import numpy as np
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


def biot_savart_field(assembly: TrapAssembly | tuple[TrapAssembly, ...], points) -> np.ndarray:
    """Total field of the assembly by direct summation, at one point or many.

    ``points`` is one point of shape (3,) or an (n, 3) array; the result has
    the same shape.  Each conductor handles all the points at once, and the
    conductors are summed in order (loops, then wires), so every row equals
    the field of that point evaluated alone.  A tuple of assemblies (say,
    the snapshots of a TOP drive) gives a result with a leading snapshot
    axis, each slice equal to that snapshot's own call; loops of one
    geometry share their panel means across the snapshots.

    Raises SingularityError, naming the first such point, when a point lies
    within ``_CLEARANCE`` (1e-9 m) of any conductor, where the line-current
    model diverges.  Every snapshot is checked, in order, before any field
    is computed.
    """
    import numpy as np
    stacked = isinstance(assembly, tuple)
    snapshots = assembly if stacked else (assembly,)
    p = _rows(points)
    for snapshot in snapshots:
        near = np.zeros(len(p), dtype=bool)
        for conductor in (*snapshot.loops, *snapshot.wires):
            near |= conductor.min_distance(p) < _CLEARANCE
        if near.any():
            raise SingularityError(
                f"evaluation point {p[np.argmax(near)].tolist()} is within {_CLEARANCE:g} m "
                "of a conductor"
            )
    loops = [loop for snapshot in snapshots for loop in snapshot.loops]
    totals = np.zeros((len(snapshots), *p.shape))
    for lo in range(0, len(p), _CHUNK_ROWS):
        rows = p[lo:lo + _CHUNK_ROWS]
        loop_fields = iter(_loop_fields(loops, rows))
        for snapshot, total in zip(snapshots, totals[:, lo:lo + _CHUNK_ROWS]):
            for _ in snapshot.loops:
                total += next(loop_fields)
            for wire in snapshot.wires:
                total += wire.field(rows)
    shape = np.shape(points)
    return totals.reshape((len(snapshots), *shape) if stacked else shape)


_AVERAGE_RTOL = 1e-13  # relative change at which top_time_average_numeric stops doubling


def top_time_average_numeric(
    particle: DipoleParticle,
    scales: DerivedScales,
    x: float,
    y: float,
    z: float,
) -> float:
    """Drive-period average of mu|B| for the TOP series field, by quadrature.

    Periodic trapezoid rule (the mean of evenly spaced samples over one
    period), from 256 panels, doubling until the average changes by less
    than ``_AVERAGE_RTOL`` relative.  Serves as the independent check of
    :func:`top_time_avg_potential`.  It calls :func:`top_field_series` by
    design, because what it checks is the drive-period average, not the field.
    """
    import numpy as np
    _check_kind(scales, "top")
    period = 2.0 * math.pi / scales.bias_frequency

    def average(n_panels: int) -> float:
        ts = np.linspace(0.0, period, n_panels, endpoint=False)
        return float(np.linalg.norm(top_field_series(scales, x, y, z, ts), axis=-1).mean())

    n_panels, prev = 256, average(256)
    while n_panels <= 1 << 16:
        n_panels *= 2
        cur = average(n_panels)
        if abs(cur - prev) <= _AVERAGE_RTOL * abs(cur):
            return particle.magnetic_moment * cur
        prev = cur
    raise AccuracyError(f"time average did not converge to {_AVERAGE_RTOL:g} by {1 << 16} panels")
