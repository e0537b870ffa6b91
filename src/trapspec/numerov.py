"""Independent radial eigen-solver plus quadrature checks.

This module is the numerical cross-check for every analytic spectrum in the
package, so it deliberately avoids the analytic results: eigenvalues come
from node-counted shooting (Numerov propagation from both ends, matched at
the outermost classical turning point), and overlaps from adaptive
quadrature: ``gram`` integrates a whole family on Gauss-Legendre panels in
numpy, and ``overlap`` one pair by scipy's ``quad``, imported when called.

The radial problem solved, in units with ``hbar = 1``, is

    [-1/2m d^2/dr^2 + c /(2 m r^2) + V(r)] W = E W

on ``r in [r_min, r_max]`` with ``W ~ r^s`` near the origin and ``W = 0`` at
the outer wall.  The centrifugal strength ``c`` is a free real parameter so
the same solver covers 3D towers (``c = L(L+1)``, possibly non-integer
``L``) and planar ones (``c = M^2 - 1/4``).  ``V`` is called once, on the
whole mesh array, and must be finite there.  Each level's search starts from
``[min V_eff, V_eff(r_max)]`` of its effective potential and is widened until
it brackets the level's node count.

Notes
-----
Propagation runs on a logarithmic mesh: with ``x = ln r`` and
``W = sqrt(r) Phi(x)`` the equation becomes

    Phi'' = [ (c + 1/4) + 2m r^2 (V(r) - E) ] Phi ,

which has no singular coefficient, so ``Phi`` is smooth down to the origin
even for non-integer power behavior ``W ~ r^s`` (then ``Phi ~ e^{(s-1/2)x}``).
A uniform mesh in ``r`` loses several orders of accuracy for attractive
centrifugal terms (``c < 0``); the log mesh keeps the full Numerov order for
every tower handled here.

One numpy sweep advances every (state, trial energy) pair as a column, by
Johnson's renormalized Numerov form: the ratio of successive values, outward
from the origin and inward from the wall, which cannot overflow.  One outward
march gives a column's node count (sign changes where ``f > 0``, the steps
that follow the solution faithfully) and its ratio at the matching point, and
the mismatch there is a scale-free difference of ratios.  Node-count
bisection samples several tree levels per sweep, marching a tree that states
of one problem share once, and a sweep of a few columns steps in Python
floats rather than by two ufunc calls a step.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AccuracyError, BracketError, ConvergenceError, DomainError, finite, integer, positive,
)

__all__ = [
    "RadialProblem", "EigenResult", "solve_eigen", "solve_eigens", "count_nodes", "overlap",
    "gram",
]

_CHUNK = 256  # mesh rows whose f and U are built, and whose ratios are tallied, at once
_MIN_COLUMNS = 64  # trial energies per sweep, summed over its distinct trees
_FLOAT_COLUMNS = 8  # sweeps this narrow step each column in Python floats
_MAX_ROUNDS = 200
_TAIL_FRACTION = 1e-8  # count_nodes treats smaller samples, relative to the largest, as zero


@dataclass(frozen=True)
class RadialProblem:
    """Radial Schroedinger problem description.

    ``potential`` is the regular (non-centrifugal) part of the potential and
    must be finite as ``r -> 0``; the ``centrifugal`` coefficient supplies the
    ``c / (2 m r^2)`` term (``hbar = 1``).  ``origin_exponent`` optionally overrides
    the near-origin behavior ``W ~ r^s`` (default: principal indicial root
    ``s = 1/2 + sqrt(1/4 + c)``); towers with attractive non-integer
    centrifugal terms pass the exponent of the regular member explicitly.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    centrifugal: float
    mass: float
    r_min: float
    r_max: float
    n_points: int = 8000
    origin_exponent: Optional[float] = None

    def __post_init__(self):
        positive("mass", self.mass)
        for name in ("r_min", "r_max", "centrifugal", "origin_exponent"):
            if getattr(self, name) is not None:
                finite(name, getattr(self, name))
        try:
            operator.index(self.n_points)
        except TypeError:
            raise DomainError(f"n_points must be an integer, got {self.n_points!r}") from None
        if not 0.0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        if self.n_points < 2000:
            raise DomainError(f"grid must keep at least 2000 points, got {self.n_points}")
        if self.origin_exponent is None and 0.25 + self.centrifugal < 0.0:
            raise DomainError(
                "centrifugal coefficient below -1/4 has no regular power solution; "
                "pass origin_exponent explicitly"
            )

    def grid(self) -> np.ndarray:
        """Logarithmically spaced radial mesh from ``r_min`` to ``r_max``."""
        return np.exp(np.linspace(math.log(self.r_min), math.log(self.r_max), self.n_points))

    def exponent(self) -> float:
        if self.origin_exponent is not None:
            return float(self.origin_exponent)
        return 0.5 + math.sqrt(0.25 + self.centrifugal)


@dataclass
class EigenResult:
    """Converged eigenvalue with the sampled, unit-normalized eigenfunction.

    ``samples`` ``w`` have ``h * trapezoid(w * w * r) = 1``, ``h = ln(r[1] / r[0])``: the
    trapezoid rule on the uniform log mesh.  ``residual``: the Numerov recurrence at
    the matching point, the outward solution continued by the inward one, over the
    sum of its terms' magnitudes (0 to 1).  ``diagnostics`` holds the matching point
    (``matching_index`` on the mesh, ``turning_radius``), the ``widenings`` of the
    search window, its ``final_window`` before the root search, and the trial energies
    evaluated: ``count_evaluations`` on the state's bisection trees, whether marched
    for it or shared with a state of its problem, and ``mismatch_evaluations``.
    """

    energy: float
    radii: np.ndarray
    samples: np.ndarray
    node_count: int
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _sample_potential(potential, r: np.ndarray, state) -> np.ndarray:
    """The potential of ``state`` from one call on the mesh ``r``, broadcast to its shape."""
    try:
        values = np.broadcast_to(np.asarray(potential(r), dtype=float), r.shape)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"potential of state {state} must take the mesh array and return values that "
            f"broadcast to it ({exc}); wrap scalar-only code in np.vectorize"
        ) from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"potential of state {state} is not finite at r = {r[bad[0]]:.6g}")
    return values


def _tree(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Each window's ends and the midpoints bisection would visit, ``depth`` levels deep.

    Row ``i`` holds ``2**depth + 1`` ascending points; every midpoint is
    ``0.5 * (a + b)`` of its parent interval, as in a bisection loop.
    """
    x = np.stack([lo, hi], axis=1)
    for _ in range(depth):
        y = np.empty((len(x), 2 * x.shape[1] - 1))
        y[:, ::2] = x
        y[:, 1::2] = 0.5 * (x[:, :-1] + x[:, 1:])
        x = y
    return x


def _float_steps(ratio, u) -> bool:
    """The ufunc loop's steps ``R[k] = U[k] - 1 / R[k-1]``, ``ratio[0]`` on, in
    Python floats: the same IEEE divides and subtracts at a fraction of the
    per-call cost.  False where a ratio is +-0.0 (Python raises, numpy gives +-inf).
    """
    steps, columns = len(u), np.ascontiguousarray(u.T)
    try:
        for j, x in enumerate(ratio[0].tolist()):  # memoryview items are Python floats
            ratio[1 : steps + 1, j] = np.fromiter(
                (x := u_k - 1.0 / x for u_k in memoryview(columns[j])), float, steps)
    except ZeroDivisionError:
        return False
    return True


def _root_between(d, rows, ia, ib):
    """Whether the mismatch samples ``d`` vanish or change sign between columns ``ia`` and ``ib``."""
    d_a, d_b = d[rows, ia], d[rows, ib]
    return (d_a == 0.0) | (d_b == 0.0) | ((d_a < 0.0) != (d_b < 0.0))


def _brent(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Brent's root search on many brackets at once, step for step as in
    ``scipy.optimize.brentq`` (bisection, secant and inverse quadratic steps).

    ``f(x, k)`` evaluates the functions of brackets ``k`` at ``x``; ``fa`` and
    ``fb`` the known values at the ends, of opposite signs or exactly zero (such
    an end is the root, returned in the first round with no evaluation), and
    ``xtol`` holds one tolerance per bracket.  Returns the roots and whether
    each search converged within ``maxiter`` steps.
    """
    xpre, xcur, fpre, fcur = xa.copy(), xb.copy(), fa.copy(), fb.copy()
    xblk, fblk = xa.copy(), fa.copy()
    spre, scur = np.zeros_like(xa), np.zeros_like(xa)
    root = np.full_like(xa, np.nan)
    live = np.ones(len(xa), dtype=bool)
    for _ in range(maxiter):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk[flip], fblk[flip] = xpre[flip], fpre[flip]
        spre[flip] = scur[flip] = xcur[flip] - xpre[flip]
        swap = np.abs(fblk) < np.abs(fcur)
        xpre[swap], xcur[swap], xblk[swap] = xcur[swap], xblk[swap], xcur[swap]
        fpre[swap], fcur[swap], fblk[swap] = fcur[swap], fblk[swap], fcur[swap]
        delta = (xtol + rtol * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
        root[done] = xcur[done]
        live &= ~done
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quadratic)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur.copy(), fcur.copy()
        xcur += np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
        k = np.flatnonzero(live)
        fcur[k] = f(xcur[k], k)
    return root, ~live


class _Batch:
    """Problems of one mesh size, laid out for column sweeps.

    A column is one (state, trial energy) pair, and one sweep advances every
    column at once.  Meshes, potential samples and ``(pref r) r`` are stored
    once per distinct mesh, potential and prefactor; ``f`` is rebuilt for one
    block of mesh rows at a time, so no ``(n_points x columns)`` matrix is held
    except the eigenfunctions themselves.
    """

    def __init__(self, problems: Sequence[RadialProblem], index: Sequence[int]):
        """``index`` gives each problem's position in the caller's list, for error messages."""
        self.problems, self.index = problems, index
        self.n = problems[0].n_points
        meshes, potentials, prefactors = {}, {}, {}
        v_columns, r2p_columns = [], []
        self.radii = []
        scalars = []
        for p, state in zip(problems, index):
            mesh_key = (p.r_min, p.r_max)
            if mesh_key not in meshes:
                r = p.grid()
                x = np.log(r)
                meshes[mesh_key] = (r, x[1] - x[0])
            r, h = meshes[mesh_key]
            # One sample set per potential object: all problems of a call are
            # alive, so their ids cannot be reused while this runs.
            pot_key = (id(p.potential), mesh_key)
            if pot_key not in potentials:
                potentials[pot_key] = len(v_columns)
                v_columns.append(_sample_potential(p.potential, r, state))
            vcol = potentials[pot_key]
            pref = 2.0 * p.mass
            if (pref, mesh_key) not in prefactors:
                prefactors[pref, mesh_key] = len(r2p_columns)
                r2p_columns.append(pref * r * r)
            s = p.exponent()
            r0, r1 = float(r[0]), float(r[1])
            scalars.append((
                vcol, prefactors[pref, mesh_key], p.centrifugal + 0.25, h * h / 12.0, pref,
                float(v_columns[vcol][0]), 4.0 * s + 2.0,
                r0 ** (s - 0.5), r0**2, r1 ** (s - 0.5), r1**2,
            ))
            self.radii.append(r)
        # Problems with one scalar row march alike, so states of one share columns.
        rows = {}
        self.group = np.array([rows.setdefault(row, len(rows)) for row in scalars])
        self.v = np.column_stack(v_columns)
        self.r2p = np.column_stack(r2p_columns)
        table = np.array(scalars)
        self.vcol = table[:, 0].astype(np.intp)
        self.rcol = table[:, 1].astype(np.intp)
        (self.langer, self.h2_12, self.pref, self.v0, self.beta_den,
         self.p0, self.q0, self.p1, self.q1) = table[:, 2:].T.copy()

    # ---- columns ------------------------------------------------------------

    def veff(self, i: int) -> np.ndarray:
        """Effective potential of state ``i``; its turning points bound the oscillatory region."""
        r = self.radii[i]
        return self.v[:, self.vcol[i]] + self.langer[i] / (self.pref[i] * r * r)

    def turning_index(self, i: int, energy: float) -> int:
        inside = np.nonzero(self.veff(i) <= energy)[0]
        if inside.size == 0:
            raise BracketError("trial energy lies below the whole effective potential")
        return min(max(int(inside[-1]), 2), self.n - 3)

    def _columns(self, states, shared=False):
        """What ``_f`` reads of each column of ``states``, gathered once.

        The potential and ``(pref r) r`` column indices, ``c + 1/4`` and
        ``h^2/12``.  With ``shared``, an index that every column has is a
        one-column slice instead, which a block of mesh rows broadcasts.
        """
        def index(of):
            of = of[states]
            return slice(of[0], of[0] + 1) if shared and (of == of[0]).all() else of
        return index(self.vcol), index(self.rcol), self.langer[states], self.h2_12[states]

    def _f(self, columns, energies, rows, out=None):
        """``f = 1 + h^2/12 [(pref r) r (E - V) - (c + 1/4)]`` on mesh ``rows``.

        ``columns`` is ``_columns(states)``; ``rows`` is a slice (one row per
        mesh point) or, where ``columns`` is not shared, one index per column.
        ``out``, if given, receives the result.
        """
        vcol, rcol, langer, h2_12 = columns
        g = np.subtract(energies, self.v[rows, vcol], out=out)
        g *= self.r2p[rows, rcol]
        g -= langer
        g *= h2_12
        g += 1.0
        return g

    def _march(self, states, energies, last, inward=False, record=None, store=None):
        """Advance the ratio ``R[k] = y[k+1] / y[k]``, ``y = f w``, to march index ``last``.

        The recurrence ``f[k+1] w[k+1] = (12 - 10 f[k]) w[k] - f[k-1] w[k-1]``
        is ``y[k+1] = U[k] y[k] - y[k-1]``, ``U = (12 - 10 f) / f``, so
        ``R[k] = U[k] - 1 / R[k-1]`` (Johnson's renormalized Numerov method):
        two ufunc calls a step, and nothing to overflow.  Outward the march
        starts from the Frobenius ``w[0], w[1]``; inward from ``y = 0`` at the
        wall, step ``k`` at mesh row ``n - 1 - k``.  ``record`` (one march index
        per column) picks the ratio each column reports; with ``store`` each
        column's ``R[0..record]`` is also written into its row of that array,
        indexed in march order.

        Inward the march returns the recorded ratios.  Outward it returns each
        column's node count from march index 1 on, the recorded ratios, and
        whether ``w`` is negative at march index ``record + 1``.  A node is a
        sign change of ``w`` between two mesh rows where ``f > 0`` on both:
        where ``f <= 0`` the step aliases the growing exponential into
        spurious sign changes.  The sign of ``w`` is that of ``w[1]``, flipped
        at every sign change up to there, also where ``w = y / f`` changes
        sign with ``f``.
        """
        n, columns, gathered = self.n, len(states), self._columns(states, shared=True)
        f_buf, u_buf = np.empty((_CHUNK + 1, columns)), np.empty((_CHUNK, columns))
        ratio, t = np.empty((_CHUNK + 1, columns)), np.empty(columns)
        rows, u_rows = list(ratio), list(u_buf)
        rec, sub = np.reciprocal, np.subtract
        recorded = np.full(columns, np.nan)
        if inward:
            ratio[0] = np.inf
        else:
            nodes, odd = np.zeros(columns, dtype=np.int64), np.zeros(columns, dtype=bool)
            w0, w1 = self._outward_start(states, energies)
            ratio[0] = self._f(gathered, energies, 1) * w1 / (self._f(gathered, energies, 0) * w0)
            negative = w1 < 0.0
        if store is not None:
            store[:, 0] = ratio[0]
        with np.errstate(divide="ignore", over="ignore"):
            for c0 in range(1, last, _CHUNK):
                steps = min(_CHUNK, last - c0)
                # f rows c0 .. c0+steps in march order; ratio row j+1 is R[c0+j]
                f = f_buf[: steps + 1]
                if inward:
                    self._f(gathered, energies, slice(n - 1 - c0 - steps, n - c0), f[::-1])
                else:
                    self._f(gathered, energies, slice(c0, c0 + steps + 1), f)
                u = np.multiply(f[:-1], -10.0, out=u_buf[:steps])
                u += 12.0
                u /= f[:-1]
                if columns > _FLOAT_COLUMNS or not _float_steps(ratio, u):
                    for k in range(steps):
                        # Positional out arguments: at a few dozen columns the
                        # call overhead is most of the cost of a step.
                        rec(rows[k], t)
                        sub(u_rows[k], t, rows[k + 1])
                r = ratio[1 : steps + 1]
                ratio[0] = ratio[steps]
                if record is not None:
                    at = record - c0
                    sel = np.flatnonzero((at >= 0) & (at < steps))
                    recorded[sel] = r[at[sel], sel]
                if store is not None:
                    np.copyto(store[:, c0 : c0 + steps], r.T,
                              where=np.arange(c0, c0 + steps) <= record[:, None])
                if inward:
                    continue
                flips = r < 0.0  # sign changes of y, and of w where f > 0
                if f.min() > 0.0:  # every flip is a node
                    changes = np.count_nonzero(flips, axis=0)
                    nodes += changes
                else:  # no node where f <= 0; w = y / f also changes sign with f
                    positive = f > 0.0
                    nodes += np.count_nonzero(flips & positive[:-1] & positive[1:], axis=0)
                    f_negative = f < 0.0
                    flips = flips ^ f_negative[:-1] ^ f_negative[1:]
                    changes = None if record is None else np.count_nonzero(flips, axis=0)
                if record is not None:
                    if sel.size:
                        upto = flips[:, sel] & (np.arange(steps)[:, None] <= at[sel])
                        negative[sel] ^= odd[sel] ^ (np.count_nonzero(upto, axis=0) % 2 == 1)
                    odd ^= changes % 2 == 1
        if inward:
            return recorded
        return nodes, recorded, negative

    def _outward_start(self, states, energies):
        # Two-term Frobenius start W = r^s (1 + beta r^2), i.e.
        # Phi = r^(s-1/2) (1 + beta r^2), at the first two mesh points.
        beta = self.pref[states] * (self.v0[states] - energies) / self.beta_den[states]
        return (self.p0[states] * (1.0 + beta * self.q0[states]),
                self.p1[states] * (1.0 + beta * self.q1[states]))

    def shoot(self, states, energies, m, outward=None, phi=None):
        """Matching mismatches at ``m`` of each column.

        The outward solution meets the inward one (Dirichlet at the wall) in
        the recurrence at ``m``, ``y[m+1] + y[m-1] - U[m] y[m]``.  Over
        ``y[m]`` its terms are the inward ratio ``y[m+1] / y[m]``, the outward
        ``y[m-1] / y[m]`` and ``U[m]``, so the mismatch, that sum over its
        terms' magnitudes, needs no values of ``w``.  It carries the sign of
        ``y[m]``, which keeps it continuous in the energy, and is 0 where
        either solution vanishes at ``m``.

        ``outward`` holds each column's ``R[m-1]`` and whether ``w[m] < 0``,
        as a count sweep with ``record = m - 1`` returns them; without it the
        outward march stops at ``m``, as the inward one does.  With ``phi``
        (one row per column) each row receives the ratios toward ``m``,
        ``y[k+1] / y[k]`` for ``k < m`` and ``y[k-1] / y[k]`` for ``k > m``,
        and the sign of ``y[m]`` at ``m``.
        """
        n = self.n
        if outward is None:
            _, ratio, negative = self._march(states, energies, int(m.max()), record=m - 1,
                                             store=phi)
        else:
            ratio, negative = outward
        back = None if phi is None else phi[:, ::-1]
        in_m = self._march(states, energies, n - 1 - int(m.min()), True, n - 2 - m, back)
        f_m = self._f(self._columns(states), energies, m)
        negative = negative != (f_m < 0.0)  # now the sign of y[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_in, t_out = 1.0 / in_m, 1.0 / ratio
            u_m = (12.0 - 10.0 * f_m) / f_m
            mismatch = (t_in + t_out - u_m) / (np.abs(t_in) + np.abs(t_out) + np.abs(u_m))
        mismatch[(in_m == 0.0) | (ratio == 0.0)] = 0.0
        np.negative(mismatch, out=mismatch, where=negative)
        if phi is not None:
            phi[np.arange(len(states)), m] = np.where(negative, -1.0, 1.0)
        return mismatch

    # ---- the solve ----------------------------------------------------------

    def solve(self, targets) -> list[EigenResult]:
        """Solve every problem of the batch for its node target."""
        problems, index = self.problems, self.index
        size = len(problems)
        states = np.arange(size)
        targets = np.asarray(targets, dtype=np.int64)

        def levels(trees):
            # Bisection levels per sweep of that many trees: enough for at
            # least _MIN_COLUMNS columns, so a lone tree descends six levels.
            depth = 1
            while (2**depth + 1) * trees < _MIN_COLUMNS:
                depth += 1
            return depth

        depth = levels(size)  # of the matching sweeps, which march every state's tree
        counted = np.zeros(size, dtype=np.int64)
        matched = np.zeros(size, dtype=np.int64)

        def label(i):
            return (f"state {index[i]} (node target {targets[i]}, centrifugal "
                    f"{problems[i].centrifugal:.6g})")

        # --- establish windows bracketing the node-count jump ----------------
        lo, hi = np.empty(size), np.empty(size)
        for i in states:
            veff = self.veff(i)
            lo[i], hi[i] = float(veff.min()), float(veff[-1])
            if not hi[i] > lo[i]:
                hi[i] = lo[i] + abs(lo[i]) + 1.0
        # The last doubling reaches 16 spans either side of the center; a
        # window whose march cannot even start there is refused up front.
        with np.errstate(over="ignore", invalid="ignore"):
            span0 = hi - lo
            center, reach = 0.5 * (lo + hi), 16.0 * span0
            ends = np.concatenate([center - reach, center + reach])
            both = np.concatenate([states, states])
            w0, w1 = self._outward_start(both, ends)
            gathered = self._columns(both)
            first = self._f(gathered, ends, 1) * w1 / (self._f(gathered, ends, 0) * w0)
        wide = np.flatnonzero(~np.isfinite(first).reshape(2, size).all(axis=0))
        if wide.size:
            i = wide[0]
            raise DomainError(
                f"energy window [{lo[i]:.6g}, {hi[i]:.6g}] of {label(i)} is too wide: "
                f"widened to [{ends[i]:.6g}, {ends[size + i]:.6g}] it overflows the Numerov start"
            )
        widenings = np.zeros(size, dtype=np.int64)
        c_lo = np.empty(size, dtype=np.int64)
        c_hi = np.empty(size, dtype=np.int64)
        # matching points and mismatches at the window ends, set once isolated
        m = np.zeros(size, dtype=np.intp)
        d_lo, d_hi = np.empty(size), np.empty(size)

        def sample(todo, ends, shoot=False):
            """Counts (and mismatches) on the bisection tree of each window.

            With ``ends`` the window ends are evaluated too; otherwise their
            known values fill the first and last columns.  Each distinct (problem,
            window, matching point) tree is marched once, for all states that have it.
            """
            key = np.column_stack([self.group[todo], lo[todo], hi[todo], m[todo]])
            _, first, share = np.unique(key, axis=0, return_index=True, return_inverse=True)
            trees = todo[first]
            x = _tree(lo[trees], hi[trees], depth if shoot else levels(len(trees)))
            cols = slice(None) if ends else slice(1, -1)
            idx = np.repeat(trees, x[:, cols].shape[1])
            energies = x[:, cols].ravel()
            counts, d = np.empty(x.shape, dtype=np.int64), np.empty(x.shape)
            # One outward march gives the counts and, for the mismatch, R[m-1].
            nodes, *outward = self._march(idx, energies, self.n - 1,
                                          record=m[idx] - 1 if shoot else None)
            counts[:, cols] = nodes.reshape(len(trees), -1)
            if shoot:
                d[:, cols] = self.shoot(idx, energies, m[idx], outward).reshape(len(trees), -1)
                matched[todo] += x[:, cols].shape[1]
            counted[todo] += x[:, cols].shape[1]
            x, counts, d = (a[share.reshape(-1)] for a in (x, counts, d))
            if not ends:  # (d of a count-only sweep is never read)
                counts[:, 0], counts[:, -1] = c_lo[todo], c_hi[todo]
                d[:, 0], d[:, -1] = d_lo[todo], d_hi[todo]
            return x, counts, d

        def descend(todo, counts, stop):
            """Replay node-count bisection over the sampled tree.

            Each step halves the window of every row not yet ``stop``-ped,
            keeping the half whose lower end has at most ``target`` nodes.
            Returns the final tree indices of the window ends.
            """
            rows = np.arange(len(todo))
            ia = np.zeros(len(todo), dtype=np.intp)
            ib = np.full(len(todo), counts.shape[1] - 1)
            while True:
                go = ~stop(rows, ia, ib) & (ib - ia > 1)
                if not go.any():
                    return ia, ib
                mid = (ia + ib) // 2
                up = go & (counts[rows, mid] <= targets[todo])
                ia[up], ib[go & ~up] = mid[up], mid[go & ~up]

        def isolated(todo, x, counts):
            def stop(rows, ia, ib):
                return ((counts[rows, ia] == targets[todo])
                        & (counts[rows, ib] == targets[todo] + 1))

            rows = np.arange(len(todo))
            ia, ib = descend(todo, counts, stop)
            lo[todo], hi[todo] = x[rows, ia], x[rows, ib]
            c_lo[todo], c_hi[todo] = counts[rows, ia], counts[rows, ib]
            return todo[~stop(rows, ia, ib)]

        # The first sweep also samples inside each window, so a level is often
        # isolated by the same sweep that checks its window.
        todo, pending = states, []
        for attempt in range(6):
            x, counts, _ = sample(todo, ends=True)
            ok = (counts[:, 0] <= targets[todo]) & (counts[:, -1] >= targets[todo] + 1)
            pending.append(isolated(todo[ok], x[ok], counts[ok]))
            todo, counts = todo[~ok], counts[~ok]
            if not todo.size:
                break
            if attempt == 5:
                i = todo[0]
                raise BracketError(
                    f"no window with a node-count jump through {targets[i]} for {label(i)} "
                    f"(last window [{lo[i]:.6g}, {hi[i]:.6g}], counts "
                    f"{counts[0, 0]}..{counts[0, -1]})"
                )
            widenings[todo] = attempt + 1
            center = 0.5 * (lo[todo] + hi[todo])
            span = span0[todo] * 2.0 ** (attempt + 1)
            lo[todo], hi[todo] = center - 0.5 * span, center + 0.5 * span

        # --- node-count bisection, several levels per sweep -----------------
        todo = np.concatenate(pending)
        for _ in range(-(-_MAX_ROUNDS // depth)):
            if not todo.size:
                break
            todo = isolated(todo, *sample(todo, ends=False)[:2])
        if todo.size:
            i = todo[0]
            raise ConvergenceError(
                f"node bisection failed to isolate target {targets[i]} for {label(i)}: "
                f"window [{lo[i]:.6g}, {hi[i]:.6g}] counts ({c_lo[i]}, {c_hi[i]})"
            )

        # --- matching residual at the outermost classical turning point -----
        # The mismatch must change sign across the window; where it does not,
        # bisection by node count goes on shrinking the window.
        m[:] = [self.turning_index(i, 0.5 * (lo[i] + hi[i])) for i in states]
        energy = np.empty(size)
        brackets = []
        todo, ends = states, True
        for _ in range(-(-_MAX_ROUNDS // depth)):
            if not todo.size:
                break
            x, counts, d = sample(todo, ends, shoot=True)
            ends = False
            settled = functools.partial(_root_between, d)
            rows = np.arange(len(todo))
            ia, ib = descend(todo, counts, settled)
            lo[todo], hi[todo] = x[rows, ia], x[rows, ib]
            c_lo[todo], c_hi[todo] = counts[rows, ia], counts[rows, ib]
            d_lo[todo], d_hi[todo] = d[rows, ia], d[rows, ib]
            done = settled(rows, ia, ib)
            brackets.append(todo[done])
            todo = todo[~done]
            tight = hi[todo] - lo[todo] <= 1e-13 * (np.abs(lo[todo]) + np.abs(hi[todo]) + 1e-300)
            if tight.any():
                i = todo[tight][0]
                raise ConvergenceError(
                    f"matching mismatch never changes sign for {label(i)}: "
                    f"window [{lo[i]:.17g}, {hi[i]:.17g}] shrank to round-off"
                )
        if todo.size:
            raise ConvergenceError(f"no mismatch sign change found for {label(todo[0])}")

        done = np.concatenate(brackets)

        def mismatch(x, k):
            matched[done[k]] += 1
            return self.shoot(done[k], x, m[done[k]])

        scale = np.abs(lo[done]) + np.abs(hi[done]) + 1e-300
        energy[done], converged = _brent(mismatch, lo[done], hi[done], d_lo[done], d_hi[done],
                                         1e-14 * scale + 5e-324, 1e-12, _MAX_ROUNDS)
        if not converged.all():
            i = done[~converged][0]
            raise ConvergenceError(
                f"matching root search did not converge for {label(i)} in window "
                f"[{lo[i]:.17g}, {hi[i]:.17g}]"
            )

        # --- assemble, normalize, verify ----------------------------------------
        phi = np.empty((size, self.n))
        residual = self.shoot(states, energy, m, phi=phi)
        matched += 1
        results = []
        for i in states:
            r = self.radii[i]
            w = phi[i]
            # y on each side of m from its ratios toward m: cumulative
            # log-ratios and signs, continuing y[m] = +-1.
            j = m[i]
            if w[j - 1] == 0.0 or w[j + 1] == 0.0:
                raise ConvergenceError(
                    f"matching point fell on a node for {label(i)}; re-run with a different grid")
            for ratios in (w[j - 1 :: -1], w[j + 1 :]):
                with np.errstate(divide="ignore"):
                    y = np.exp(-np.cumsum(np.log(np.abs(ratios))))
                np.negative(y, out=y, where=np.logical_xor.accumulate(ratios < 0.0))
                ratios[:] = y * w[j]
            w /= self._f(self._columns(i), energy[i], slice(None))
            w *= np.sqrt(r)
            norm = math.sqrt(math.log(r[1] / r[0]) * np.trapezoid(w * w * r))
            if not (norm > 0.0 and math.isfinite(norm)):
                raise ConvergenceError(f"assembled eigenfunction of {label(i)} could not be normalized")
            w /= norm
            nodes_found = count_nodes(w)
            diagnostics = {
                "matching_index": int(m[i]),
                "turning_radius": float(r[m[i]]),
                "widenings": int(widenings[i]),
                "count_evaluations": int(counted[i]),
                "mismatch_evaluations": int(matched[i]),
                "final_window": [float(lo[i]), float(hi[i])],
            }
            if nodes_found != targets[i]:
                raise ConvergenceError(
                    f"converged state has {nodes_found} nodes, wanted {targets[i]}: {diagnostics}"
                )
            results.append(EigenResult(
                energy=float(energy[i]),
                radii=r,
                samples=w,
                node_count=nodes_found,
                residual=float(abs(residual[i])),
                diagnostics=diagnostics,
            ))
        return results


def solve_eigens(
    problems: Sequence[RadialProblem],
    node_targets: Sequence[int],
) -> list[EigenResult]:
    """Solve many radial problems at once, one eigenvalue per problem.

    ``problems[i]`` is solved for the level with ``node_targets[i]`` interior
    nodes.  Problems of equal ``n_points`` advance together: each Numerov
    sweep carries one column per (problem, trial energy), shared by the
    states of that problem.  Each search starts from ``[min V_eff,
    V_eff(r_max)]`` and is doubled about its center, up to five times, until
    it brackets the node target.  Node counts isolate every level by
    bisection, several tree levels per sweep, then Brent's method drives all
    matching residuals to zero together.  Each state takes the same steps it
    would take alone, so its result does not depend on what else is in the batch.

    Raises
    ------
    DomainError
        If the lists differ in length, a node target is not a nonnegative
        integer, a potential does not give finite values on its mesh from one
        array call, or a search window is so wide that, widened five times, the
        march overflows at its first step; the message names the state.
    BracketError
        If no valid search window can be established for some state.
    ConvergenceError
        If isolation, root search or the final node verification fails for
        some state; the message names the state.
    """
    problems = list(problems)
    targets = list(node_targets)
    if len(problems) != len(targets):
        raise DomainError("problems and node_targets must have equal lengths")
    for i, target in enumerate(targets):
        targets[i] = integer(f"node_target of state {i}", target, 0)
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(p.n_points, []).append(i)
    results: list[Optional[EigenResult]] = [None] * len(problems)
    for members in groups.values():
        solved = _Batch([problems[i] for i in members], members).solve(
            [targets[i] for i in members])
        for i, res in zip(members, solved):
            results[i] = res
    return results


def solve_eigen(problem: RadialProblem, node_target: int) -> EigenResult:
    """Find the eigenvalue whose eigenfunction has ``node_target`` interior nodes.

    This is :func:`solve_eigens` for one problem.  Node-count bisection
    isolates the level, then Brent's method drives the Numerov matching
    residual at the outermost classical turning point to zero (relative
    tolerance 1e-12).

    Raises
    ------
    DomainError
        If ``node_target`` is not a nonnegative integer, the potential is not
        finite on the mesh or takes no array, or the search window is too wide
        to widen.
    BracketError
        If no valid search window can be established.
    ConvergenceError
        If isolation, root search or the final node verification fails.
    """
    return solve_eigens([problem], [node_target])[0]


def count_nodes(samples: np.ndarray) -> int:
    """Count strict sign changes, ignoring samples in the decaying tails.

    Samples with ``|W| <= _TAIL_FRACTION * max|W|`` are treated as zero so that
    round-off wiggle in the classically forbidden regions does not register.
    """
    w = np.asarray(samples, dtype=float)
    if w.size < 2:
        return 0
    amax = float(np.max(np.abs(w)))
    if amax == 0.0:
        return 0
    kept = w[np.abs(w) > _TAIL_FRACTION * amax]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


def overlap(
    f: Callable[[float], float],
    g: Callable[[float], float],
    lo: float,
    hi: float,
    weight: Optional[Callable[[float], float]] = None,
    tol: float = 1e-12,
) -> float:
    """Adaptive-quadrature inner product ``int f g (weight) dr``.

    Raises :class:`AccuracyError` when the quadrature error estimate stays
    above ``1e-8`` (non-convergent refinement).
    """
    from scipy.integrate import quad

    if weight is None:
        integrand = lambda x: f(x) * g(x)
    else:
        integrand = lambda x: f(x) * g(x) * weight(x)
    value, err = quad(integrand, lo, hi, epsabs=tol, epsrel=1e-10, limit=400)
    if err > 1e-8:
        raise AccuracyError(f"overlap quadrature error estimate {err:.3g} exceeds 1e-8")
    return value


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    from numpy.polynomial.legendre import leggauss  # not loaded with numpy; only gram needs it

    return leggauss(20)


def gram(
    family: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> np.ndarray:
    """Symmetric Gram matrix ``G[i, j] = int f_i f_j dr`` of a family.

    ``family(x)`` returns one row ``f_i(x)`` per state, an ``(n, len(x))`` array.
    Globally adaptive 20-point Gauss-Legendre quadrature of all upper-triangle products.
    A panel's estimate is the rule on its halves, its error the change from the rule on
    the whole.  Each round halves every panel whose error, over its entry's tolerance, is
    at least half the worst, evaluating the family once on all new nodes, until each
    entry's summed error is within ``1e-14`` of the largest entry or ``1e-10`` of its own,
    so every error estimate is within ``1e-10`` of the largest entry, whatever the
    family's scale.  Raises :class:`AccuracyError` past 400 subdivisions.
    """
    nodes, weights = _gauss_legendre()
    triangle = None  # (rows, cols) of the upper triangle, once the family's size is known

    def rule(a, b, parts):  # the rule on each panel [a[k], b[k]], in ``parts`` equal blocks
        half = 0.5 * (b - a)
        x = ((a + half)[:, None] + half[:, None] * nodes).ravel()
        values = np.asarray(family(x), dtype=float)
        if values.ndim != 2 or values.shape[1] != x.size or len(values) == 0:
            raise DomainError(
                f"gram needs a family of at least one state, one row per state of "
                f"{x.size} values; got shape {values.shape}"
            )
        nonlocal triangle
        if triangle is None:
            triangle = np.triu_indices(len(values))
        rows, cols = triangle
        values = values.reshape(len(values), len(a), -1)
        sums = (values[rows] * values[cols]) @ weights * half
        k = len(a) // parts
        return [sums[:, i * k:(i + 1) * k] for i in range(parts)]

    a, b, mid = np.array([lo], dtype=float), np.array([hi], dtype=float), 0.5 * (lo + hi)
    ends = np.array([lo, lo, mid], dtype=float), np.array([hi, mid, hi], dtype=float)
    whole, left, right = rule(*ends, 3)
    while True:
        error = np.abs(whole - left - right)
        value, total = (left + right).sum(axis=1), error.sum(axis=1)
        tol = np.maximum(1e-14 * (np.abs(value).max() or 1.0), 1e-10 * np.abs(value))
        score = (error / tol[:, None]).max(axis=0)
        split = score >= 0.5 * score.max()
        # Each subdivision adds one panel; an error of nan splits none.
        if np.all(total <= tol) or len(a) + np.count_nonzero(split) > 401 or not split.any():
            break
        a0, b0, keep = a[split], b[split], ~split
        mid = (a0 + b0) / 2
        q1, q3 = (a0 + mid) / 2, (mid + b0) / 2
        quarters = np.concatenate([a0, q1, mid, q3]), np.concatenate([q1, mid, q3, b0])
        ll, lr, rl, rr = rule(*quarters, 4)
        a, b = np.concatenate([a[keep], a0, mid]), np.concatenate([b[keep], mid, b0])
        whole = np.concatenate([whole[:, keep], left[:, split], right[:, split]], axis=1)
        left = np.concatenate([left[:, keep], ll, rl], axis=1)
        right = np.concatenate([right[:, keep], lr, rr], axis=1)
    if not np.all(total <= tol):
        raise AccuracyError(
            f"Gram quadrature not_converged with error estimate {float(np.max(total)):.3g}"
        )
    rows, cols = triangle
    n = int(rows.max()) + 1
    matrix = np.empty((n, n))
    matrix[rows, cols] = matrix[cols, rows] = value
    return matrix
