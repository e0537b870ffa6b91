"""Independent radial eigen-solver plus quadrature and derivative checks.

This module is the numerical cross-check for every analytic spectrum in the
package, so it deliberately avoids the analytic results: eigenvalues come
from node-counted shooting (Numerov propagation from both ends, matched at
the outermost classical turning point), overlaps from adaptive quadrature
(``overlap`` for one pair; ``gram`` for a whole family, in one vectorized
Gauss-Kronrod call over every upper-triangle product), and derivative claims
from Richardson-extrapolated central differences.

The radial problem solved is

    [-hbar^2/2m d^2/dr^2 + hbar^2 c /(2 m r^2) + V(r)] W = E W

on ``r in [r_min, r_max]`` with ``W ~ r^s`` near the origin and ``W = 0`` at
the outer wall.  The centrifugal strength ``c`` is a free real parameter so
the same solver covers 3D towers (``c = L(L+1)``, possibly non-integer
``L``) and planar ones (``c = M^2 - 1/4``).

Notes
-----
Propagation runs on a logarithmic mesh: with ``x = ln r`` and
``W = sqrt(r) Phi(x)`` the equation becomes

    Phi'' = [ (c + 1/4) + r^2 (2m/hbar^2) (V(r) - E) ] Phi ,

which has no singular coefficient, so ``Phi`` is smooth down to the origin
even for non-integer power behavior ``W ~ r^s`` (then ``Phi ~ e^{(s-1/2)x}``).
A uniform mesh in ``r`` loses several orders of accuracy for attractive
centrifugal terms (``c < 0``); the log mesh keeps the full Numerov order for
every tower handled here.

Propagation is vectorized across states and trial energies: one numpy sweep
advances a matrix whose columns are (state, trial energy) pairs, with the
same per-column arithmetic a scalar loop would do.  Node-count bisection
samples several levels of its tree per sweep, so a batch of many states, or
a lone state with many trial energies, costs one to two dozen sweeps in all.

scipy is imported inside the functions that use it, so importing this module
(and the command-line interface) does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AccuracyError, BracketError, ConvergenceError, DomainError

__all__ = [
    "RadialProblem", "EigenResult", "solve_eigen", "solve_eigens", "count_nodes", "overlap",
    "gram", "fd_check",
]

_RENORM = 1e200
_BLOWUP = 1e150
# Steps between overflow checks.  Between checks a column can grow from
# _BLOWUP by a factor of up to 1e158 before it overflows; where f > 0.95 a
# step multiplies it by at most ~2.2.
_CHECK = 16
_CHUNK = 16 * _CHECK  # mesh rows of f built, and node signs tallied, at once
_MIN_COLUMNS = 64  # trial energies per sweep, summed over the batch
_MAX_ROUNDS = 200
_GRAM_ATOL = 1e-12  # absolute accuracy asked of every Gram entry, as overlap's default
_TAIL_FRACTION = 1e-8  # count_nodes treats smaller samples, relative to the largest, as zero


@dataclass(frozen=True)
class RadialProblem:
    """Radial Schroedinger problem description.

    ``potential`` is the regular (non-centrifugal) part of the potential and
    must be finite as ``r -> 0``; the ``centrifugal`` coefficient supplies the
    ``hbar^2 c / (2 m r^2)`` term.  ``origin_exponent`` optionally overrides
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
    hbar: float = 1.0
    origin_exponent: Optional[float] = None

    def __post_init__(self):
        if self.mass <= 0.0 or self.hbar <= 0.0:
            raise DomainError("mass and hbar must be positive")
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
    """Converged eigenvalue with the sampled, unit-normalized eigenfunction."""

    energy: float
    radii: np.ndarray
    samples: np.ndarray
    node_count: int
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _sample_potential(potential, r: np.ndarray) -> tuple[np.ndarray, str]:
    """Potential on the mesh, and whether it took one array call or one call per point."""
    try:
        values = np.asarray(potential(r), dtype=float)
        if values.shape == r.shape:
            return values, "vectorized"
    except (TypeError, ValueError):
        pass
    return np.array([float(potential(x)) for x in r]), "scalar"


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


def _root_between(d, rows, ia, ib):
    """Whether the mismatch samples ``d`` vanish or change sign between columns ``ia`` and ``ib``."""
    d_a, d_b = d[rows, ia], d[rows, ib]
    return (d_a == 0.0) | (d_b == 0.0) | ((d_a < 0.0) != (d_b < 0.0))


def _brent(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Brent's root search on many brackets at once, step for step as in
    ``scipy.optimize.brentq`` (bisection, secant and inverse quadratic steps).

    ``f(x, k)`` evaluates the functions of brackets ``k`` at ``x``; ``fa`` and
    ``fb`` are the known values at the (nonzero, opposite-signed) ends and
    ``xtol`` holds one tolerance per bracket.  Returns the roots and whether
    each search converged within ``maxiter`` steps.
    """
    xpre, xcur, fpre, fcur = xa.copy(), xb.copy(), fa.copy(), fb.copy()
    xblk, fblk = np.zeros_like(xa), np.zeros_like(xa)
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

    def __init__(self, problems: Sequence[RadialProblem]):
        self.problems = problems
        self.n = problems[0].n_points
        meshes, potentials, prefactors = {}, {}, {}
        v_columns, r2p_columns = [], []
        self.radii, self.sampling = [], []
        scalars = []
        for p in problems:
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
                values, mode = _sample_potential(p.potential, r)
                potentials[pot_key] = (len(v_columns), mode)
                v_columns.append(values)
            vcol, mode = potentials[pot_key]
            pref = 2.0 * p.mass / p.hbar**2
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
            self.sampling.append(mode)
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

    def _f(self, states, energies, rows):
        """``f = 1 + h^2/12 [(pref r) r (E - V) - (c + 1/4)]`` on mesh ``rows``.

        ``rows`` is a slice (one row per mesh point) or one index per column.
        """
        g = energies - self.v[rows, self.vcol[states]]
        g *= self.r2p[rows, self.rcol[states]]
        g -= self.langer[states]
        g *= self.h2_12[states]
        g += 1.0
        return g

    def _march(self, states, energies, w0, w1, inward, last, record=None, store=None):
        """Advance every column across the mesh and count its nodes.

        The recurrence is ``w[i+1] = ((12 - 10 f[i]) w[i] - f[i-1] w[i-1]) / f[i+1]``.
        An inward march starts at the wall, so its step ``j`` is mesh row
        ``n - 1 - j``.  The march stops once march index ``last`` is reached.
        Returns the node counts and, if ``record`` is given, the pair
        ``(w[k-1], w[k])`` of each column at its march index ``k = record``.  With
        ``store = (dest, keep)`` the march also writes ``w[0..keep]`` of each
        column into its row of ``dest`` (indexed in march order).

        Every ``_CHECK`` steps a column past ``_BLOWUP`` is rescaled.  Its node
        count freezes if that happens deep in a classically forbidden stretch:
        past that point the growing exponential dominates and produces no
        further sign changes (discrete steps there can alias into spurious ones).
        """
        n = self.n
        columns = len(states)
        w = np.empty((_CHUNK + 2, columns))
        w[0], w[1] = w0, w1
        rows = list(w)
        t, u = np.empty(columns), np.empty(columns)
        mul, sub, div = np.multiply, np.subtract, np.divide
        nodes = np.zeros(columns, dtype=np.int64)
        live = np.ones(columns, dtype=bool)
        rec_prev, rec_cur = np.full(columns, np.nan), np.full(columns, np.nan)
        # A chunk starting at step c0 holds w[c0-1 .. c0+_CHUNK].
        due = {}
        if record is not None:
            chunk_of = (record - 2) // _CHUNK
            due = {int(q): np.flatnonzero(chunk_of == q) for q in np.unique(chunk_of)}
        if store is not None:
            dest, keep = store
            dest[:, 0], dest[:, 1] = w0, w1
        for c0 in range(1, last, _CHUNK):
            steps = min(_CHUNK, last - c0)
            # f rows c0-1 .. c0+steps in march order, aligned with the rows of w
            if inward:
                f = self._f(states, energies, slice(n - 1 - c0 - steps, n - c0 + 1))[::-1]
            else:
                f = self._f(states, energies, slice(c0 - 1, c0 + steps + 1))
            a = 12.0 - 10.0 * f
            fr, ar = list(f), list(a)
            stored = 1
            for b in range(1, steps + 1, _CHECK):
                e = min(b + _CHECK, steps + 1)
                for k in range(b, e):
                    # Positional out arguments: at a few columns the call
                    # overhead is the whole cost of a step.
                    mul(ar[k], rows[k], t)
                    mul(fr[k - 1], rows[k - 1], u)
                    sub(t, u, t)
                    div(t, fr[k + 1], rows[k + 1])
                # rows 0..e hold w[c0-1 .. c0-1+e]
                if store is not None:
                    np.copyto(dest[:, c0 + stored : c0 + e], w[stored + 1 : e + 1].T,
                              where=np.arange(c0 + stored, c0 + e) <= keep[:, None])
                    stored = e
                if np.abs(w[e]).max() > _BLOWUP:
                    big = np.abs(w[e]) > _BLOWUP
                    # The count freezes at the first step past _BLOWUP, as a
                    # step-by-step check would have it.
                    first = b + 1 + np.argmax(np.abs(w[b + 1 : e + 1]) > _BLOWUP, axis=0)
                    frozen = big & live & (f[first - 1, np.arange(columns)] < 0.95)
                    if frozen.any():
                        neg = w[1 : e + 1, frozen] < 0.0
                        upto = np.arange(2, e + 1)[:, None] <= first[frozen]
                        nodes[frozen] += np.count_nonzero((neg[1:] != neg[:-1]) & upto, axis=0)
                        live &= ~frozen
                    w[: e + 1, big] /= _RENORM
                    if store is not None:
                        for col in np.flatnonzero(big & (c0 - 1 + e <= keep)):
                            dest[col, : c0 + e] /= _RENORM
            neg = w[1 : steps + 2] < 0.0
            flips = np.count_nonzero(neg[1:] != neg[:-1], axis=0)
            np.add(nodes, flips, out=nodes, where=live)
            sel = due.get((c0 - 1) // _CHUNK)
            if sel is not None:
                at = record[sel] - c0
                rec_prev[sel] = w[at, sel]
                rec_cur[sel] = w[at + 1, sel]
            w[0], w[1] = w[steps], w[steps + 1]
        return nodes, rec_prev, rec_cur

    def _outward_start(self, states, energies):
        # Two-term Frobenius start W = r^s (1 + beta r^2), i.e.
        # Phi = r^(s-1/2) (1 + beta r^2), at the first two mesh points.
        beta = self.pref[states] * (self.v0[states] - energies) / self.beta_den[states]
        return (self.p0[states] * (1.0 + beta * self.q0[states]),
                self.p1[states] * (1.0 + beta * self.q1[states]))

    def count(self, states, energies) -> np.ndarray:
        """Sturm node count of the outward solution of each column."""
        w0, w1 = self._outward_start(states, energies)
        return self._march(states, energies, w0, w1, False, self.n - 1)[0]

    def shoot(self, states, energies, m, phi=None, count=False):
        """Matching mismatches at ``m`` of each column, and node counts if ``count``.

        The outward solution is matched at ``m`` to the inward one (Dirichlet
        at the wall).  Each march stops at ``m`` unless the outward one must
        count nodes over the whole mesh.  With ``phi`` (one row per column) the
        two pieces are written into it: ``w[0..m]`` outward and ``w[m+1..]``
        inward, unscaled.  Also returns ``sigma`` and the inward value at ``m``.
        """
        n = self.n
        w0, w1 = self._outward_start(states, energies)
        store_out = store_in = None
        if phi is not None:
            store_out, store_in = (phi, m), (phi[:, ::-1], n - 2 - m)
        last = n - 1 if count else int(m.max())
        nodes, out_prev, out_m = self._march(states, energies, w0, w1, False, last, m, store_out)
        _, in_next, in_m = self._march(states, energies, np.zeros(len(states)), 1e-30, True,
                                       n - 1 - int(m.min()), n - 1 - m, store_in)
        f_lo = self._f(states, energies, m - 1)
        f_m = self._f(states, energies, m)
        f_hi = self._f(states, energies, m + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = out_m / in_m
            t_in = f_hi * in_next * sigma
            t_out = f_lo * out_prev
            t_mid = (12.0 - 10.0 * f_m) * out_m
            scale = np.abs(t_in) + np.abs(t_out) + np.abs(t_mid)
            mismatch = (t_in + t_out - t_mid) / scale
        mismatch[(out_m == 0.0) | (in_m == 0.0) | (scale == 0.0)] = 0.0
        return nodes, mismatch, sigma, in_m

    # ---- the solve ----------------------------------------------------------

    def solve(self, targets, windows, index) -> list[EigenResult]:
        """Solve every problem of the batch for its node target.

        ``index`` gives each problem's position in the caller's list, for
        error messages.
        """
        from scipy.integrate import simpson

        problems = self.problems
        size = len(problems)
        states = np.arange(size)
        targets = np.asarray(targets, dtype=np.int64)
        # Bisection levels sampled per sweep: enough that every sweep carries
        # at least _MIN_COLUMNS columns, so a lone state descends six levels.
        depth = 1
        while (2**depth + 1) * size < _MIN_COLUMNS:
            depth += 1
        counted = np.zeros(size, dtype=np.int64)
        matched = np.zeros(size, dtype=np.int64)
        history = [[] for _ in range(size)]

        def label(i):
            return (f"state {index[i]} (node target {targets[i]}, centrifugal "
                    f"{problems[i].centrifugal:.6g})")

        # --- establish windows bracketing the node-count jump ----------------
        lo, hi = np.empty(size), np.empty(size)
        for i, window in enumerate(windows):
            veff = self.veff(i)
            if window is not None:
                lo[i], hi[i] = float(window[0]), float(window[1])
            else:
                lo[i], hi[i] = float(veff.min()), float(veff[-1])
            if not hi[i] > lo[i]:
                lo[i] = float(veff.min())
                hi[i] = lo[i] + abs(lo[i]) + 1.0
        span0 = hi - lo
        widenings = np.zeros(size, dtype=np.int64)
        c_lo = np.empty(size, dtype=np.int64)
        c_hi = np.empty(size, dtype=np.int64)
        # matching points and mismatches at the window ends, set once isolated
        m = np.empty(size, dtype=np.intp)
        d_lo, d_hi = np.empty(size), np.empty(size)

        def sample(todo, ends, shoot=False):
            """Counts (and mismatches) on the bisection tree of each window.

            With ``ends`` the window ends are evaluated too; otherwise their
            known values fill the first and last columns.
            """
            x = _tree(lo[todo], hi[todo], depth)
            cols = slice(None) if ends else slice(1, -1)
            idx = np.repeat(todo, x[:, cols].shape[1])
            counts = np.empty(x.shape, dtype=np.int64)
            d = np.empty(x.shape)
            if not ends:
                counts[:, 0], counts[:, -1] = c_lo[todo], c_hi[todo]
            if shoot:
                if not ends:
                    d[:, 0], d[:, -1] = d_lo[todo], d_hi[todo]
                nodes, mis = self.shoot(idx, x[:, cols].ravel(), m[idx], count=True)[:2]
                d[:, cols] = mis.reshape(len(todo), -1)
                matched[todo] += x[:, cols].shape[1]
            else:
                nodes = self.count(idx, x[:, cols].ravel())
            counts[:, cols] = nodes.reshape(len(todo), -1)
            counted[todo] += x[:, cols].shape[1]
            return x, counts, d

        def descend(todo, x, counts, stop, log=False):
            """Replay node-count bisection over the sampled tree.

            Each step halves the window of every row not yet ``stop``-ped,
            keeping the half whose lower end has at most ``target`` nodes.
            Returns the final tree indices of the window ends; with ``log``
            each step goes into the state's bracket history.
            """
            rows = np.arange(len(todo))
            ia = np.zeros(len(todo), dtype=np.intp)
            ib = np.full(len(todo), x.shape[1] - 1)
            while True:
                go = ~stop(rows, ia, ib) & (ib - ia > 1)
                if not go.any():
                    return ia, ib
                mid = (ia + ib) // 2
                up = go & (counts[rows, mid] <= targets[todo])
                ia[up], ib[go & ~up] = mid[up], mid[go & ~up]
                for r in np.flatnonzero(go) if log else ():
                    history[todo[r]].append((float(x[r, ia[r]]), float(x[r, ib[r]]),
                                             int(counts[r, ia[r]]), int(counts[r, ib[r]])))

        def isolated(todo, x, counts):
            def stop(rows, ia, ib):
                return ((counts[rows, ia] == targets[todo])
                        & (counts[rows, ib] == targets[todo] + 1))

            rows = np.arange(len(todo))
            ia, ib = descend(todo, x, counts, stop, log=True)
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
            ia, ib = descend(todo, x, counts, settled)
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
        at_lo = d_lo[done] == 0.0
        at_hi = (d_hi[done] == 0.0) & ~at_lo
        hi[done[at_lo]] = energy[done[at_lo]] = lo[done[at_lo]]
        lo[done[at_hi]] = energy[done[at_hi]] = hi[done[at_hi]]
        done = done[~(at_lo | at_hi)]

        def mismatch(x, k):
            matched[done[k]] += 1
            return self.shoot(done[k], x, m[done[k]])[1]

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
        _, residual, sigma, in_m = self.shoot(states, energy, m, phi)
        matched += 1
        results = []
        for i in states:
            if in_m[i] == 0.0:
                raise ConvergenceError(
                    f"matching point fell on a node for {label(i)}; re-run with a different grid")
            r = self.radii[i]
            w = phi[i]
            w[m[i] + 1 :] *= sigma[i]
            w *= np.sqrt(r)
            norm = math.sqrt(simpson(w * w, x=r))
            if not (norm > 0.0 and math.isfinite(norm)):
                raise ConvergenceError(f"assembled eigenfunction of {label(i)} could not be normalized")
            w /= norm
            nodes_found = count_nodes(w)
            diagnostics = {
                "node_target": int(targets[i]),
                "nodes_found": int(nodes_found),
                "matching_index": int(m[i]),
                "turning_radius": float(r[m[i]]),
                "widenings": int(widenings[i]),
                "count_evaluations": int(counted[i]),
                "mismatch_evaluations": int(matched[i]),
                "final_window": [float(lo[i]), float(hi[i])],
                "residual": float(abs(residual[i])),
                "boundary_samples": [float(w[0]), float(w[-1])],
                "bracket_history_tail": history[i][-3:],
                "potential_sampling": self.sampling[i],
            }
            if nodes_found != targets[i]:
                raise ConvergenceError(
                    f"converged state has {nodes_found} nodes, wanted {targets[i]}: {diagnostics}"
                )
            results.append(EigenResult(
                energy=float(energy[i]),
                radii=r,
                samples=w,
                node_count=int(nodes_found),
                residual=float(abs(residual[i])),
                diagnostics=diagnostics,
            ))
        return results


def solve_eigens(
    problems: Sequence[RadialProblem],
    node_targets: Sequence[int],
    energy_windows: Optional[Sequence[Optional[tuple[float, float]]]] = None,
) -> list[EigenResult]:
    """Solve many radial problems at once, one eigenvalue per problem.

    ``problems[i]`` is solved for the level with ``node_targets[i]`` interior
    nodes; ``energy_windows[i]`` (or ``None``) is a search hint as in
    :func:`solve_eigen`.  Problems of equal ``n_points`` advance together:
    each Numerov sweep carries one column per (state, trial energy).  Node
    counts isolate every level by bisection, several tree levels per sweep,
    then Brent's method drives all matching residuals to zero together.
    Each state takes the same steps it would take alone, so its result does
    not depend on what else is in the batch.

    Raises
    ------
    BracketError
        If no valid search window can be established for some state.
    ConvergenceError
        If isolation, root search or the final node verification fails for
        some state; the message names the state.
    """
    problems = list(problems)
    targets = list(node_targets)
    windows = [None] * len(problems) if energy_windows is None else list(energy_windows)
    if not len(problems) == len(targets) == len(windows):
        raise DomainError("problems, node_targets and energy_windows must have equal lengths")
    for t in targets:
        if int(t) != t or t < 0:
            raise DomainError(f"node_target must be a nonnegative integer, got {t!r}")
    targets = [int(t) for t in targets]
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(p.n_points, []).append(i)
    results: list[Optional[EigenResult]] = [None] * len(problems)
    for members in groups.values():
        group = [problems[i] for i in members]
        solved = _Batch(group).solve([targets[i] for i in members],
                                     [windows[i] for i in members], members)
        for i, res in zip(members, solved):
            results[i] = res
    return results


def solve_eigen(
    problem: RadialProblem,
    node_target: int,
    energy_window: Optional[tuple[float, float]] = None,
) -> EigenResult:
    """Find the eigenvalue whose eigenfunction has ``node_target`` interior nodes.

    This is :func:`solve_eigens` for one problem.  Node-count bisection
    isolates the level, then Brent's method drives the Numerov matching
    residual at the outermost classical turning point to zero (relative
    tolerance 1e-12).
    ``energy_window`` is only a hint: it is widened (doubled, up to five
    times) whenever it fails to bracket the requested node count.

    Raises
    ------
    BracketError
        If no valid search window can be established.
    ConvergenceError
        If isolation, root search or the final node verification fails.
    """
    windows = None if energy_window is None else [energy_window]
    return solve_eigens([problem], [node_target], windows)[0]


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


def gram(
    states: Sequence[Callable[[np.ndarray], np.ndarray]],
    lo: float,
    hi: float,
) -> np.ndarray:
    """Symmetric Gram matrix ``G[i, j] = int f_i f_j dr`` of a family.

    One adaptive Gauss-Kronrod (21-point) integration covers every
    upper-triangle product at once: each state is evaluated once on the whole
    vector of nodes of a subinterval, and refinement goes on until every
    entry meets ``1e-12`` absolute or ``1e-10`` relative accuracy.  Raises
    :class:`AccuracyError` when refinement does not converge or an entry's
    error estimate stays above ``1e-8``, the gate of :func:`overlap`.
    """
    from scipy.integrate import cubature

    n = len(states)
    if n == 0:
        raise DomainError("gram needs at least one state")
    rows, cols = np.triu_indices(n)

    def products(x):
        values = np.array([np.asarray(f(x[:, 0]), dtype=float) for f in states])
        return (values[rows] * values[cols]).T

    result = cubature(products, [lo], [hi], rule="gk21", atol=_GRAM_ATOL, rtol=1e-10,
                      max_subdivisions=400)
    err = float(np.max(result.error))
    if result.status != "converged" or err > 1e-8:
        raise AccuracyError(
            f"Gram quadrature {result.status} with error estimate {err:.3g} (gate 1e-8)")
    matrix = np.empty((n, n))
    matrix[rows, cols] = result.estimate
    matrix[cols, rows] = result.estimate
    return matrix


def fd_check(
    func: Callable[[float], float],
    first: Callable[[float], float],
    second: Callable[[float], float],
    points: Sequence[float],
    step_fraction: float = 1e-3,
) -> float:
    """Maximum relative error of claimed derivatives against Richardson FD.

    Central differences at steps ``h`` and ``h/2`` are Richardson-combined to
    fourth order and compared with the claimed first and second derivatives.
    """
    points = list(points)
    if not points:
        raise DomainError("fd_check needs at least one probe point")
    floor = max(1e-30, max(abs(first(x)) for x in points) * 1e-12,
                max(abs(second(x)) for x in points) * 1e-12)
    worst = 0.0
    for x in points:
        h = step_fraction * max(abs(x), 1e-6)
        d_h = (func(x + h) - func(x - h)) / (2.0 * h)
        d_h2 = (func(x + h / 2) - func(x - h / 2)) / h
        d_rich = (4.0 * d_h2 - d_h) / 3.0
        s_h = (func(x + h) - 2.0 * func(x) + func(x - h)) / (h * h)
        s_h2 = (func(x + h / 2) - 2.0 * func(x) + func(x - h / 2)) / (h * h / 4.0)
        s_rich = (4.0 * s_h2 - s_h) / 3.0
        worst = max(worst, abs(d_rich - first(x)) / max(abs(first(x)), floor))
        worst = max(worst, abs(s_rich - second(x)) / max(abs(second(x)), floor))
    return worst
