"""Generalized Laguerre / Hermite polynomials and radial normalization constants.

One Laguerre three-term march, :func:`laguerre_march`, is the production
evaluation path; the test suite checks it against explicit series summation and
quadrature.  It returns every degree a caller asks for from one pass, and it
rescales by exact powers of two as it goes, so no degree overflows.  Orders may
be non-integer, so everything is written for real ``alpha > -1``: every radial
family is the one tower ``u^{lam+1} e^{-u^2/2} L_n^{lam+1/2}(u^2)`` at an index
``lam`` that is ``L`` in 3D, ``|M| - 1/2`` in the planar traps and a
non-integer ``L*`` in the quantum-defect towers (and ``K mod 2 - 1`` for the
planar axial factor, so :func:`hermite` is only a public helper), so
:func:`radial_norm_3d` normalizes all of them.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, integer, positive

__all__ = ["laguerre_gen", "hermite", "radial_norm_3d"]

RECURRENCE_LIMIT = 10**8  # most degree-by-point steps one recurrence may take
MIN_STEP_POINTS = 1024  # points each step is charged at least, for its fixed cost
_RESCALE_ABOVE = 1e100  # a Laguerre march rescales each |L| past this


def _check_steps(name: str, degree: int, arr: np.ndarray) -> None:
    """Refuse a recurrence of more than :data:`RECURRENCE_LIMIT` degree-by-point steps.

    A step costs about 4 us of call overhead plus 8 ns a point (measured on a 2-core
    x86-64 host), so each is charged at least :data:`MIN_STEP_POINTS` points: the
    slowest call admitted, at about that many points, takes about 1 s there.
    """
    if degree * max(arr.size, MIN_STEP_POINTS) > RECURRENCE_LIMIT:
        raise DomainError(
            f"{name} degree {degree} at {arr.size} points takes more than "
            f"{RECURRENCE_LIMIT:.0e} recurrence steps"
        )


def laguerre_march(degrees, alpha: float, x):
    """``L_n^alpha(x)`` for every ``n`` in ``degrees``, from one scaled three-term march.

    Returns ``(rows, exponents)``: ``rows[i] * 2**exponents[i]`` is the value at
    ``degrees[i]``, each row of ``x``'s shape, and ``exponents`` is None when no
    rescale fired.  Wherever ``|L|`` passes 1e100 the march divides both of its terms
    by a power of two and adds that power to the point's exponent (a scaled
    recurrence: Gil, Segura & Temme, *Numerical Methods for Special Functions*, SIAM
    2007, section 4), so no degree overflows.  Scaling by a power of two is exact, so
    every row is the plain recurrence's value, or its mantissa where a rescale fired.
    A scalar bound on ``|L|`` from the range of ``x`` decides which steps look at their
    values: a march that stays far below 1e100 never does.

    The march runs to the largest degree asked for; its steps fall under the limit of
    :func:`laguerre_gen`, and degrees and order are checked as there.
    """
    import numpy as np
    degrees = [integer("Laguerre degree", n, 0) for n in degrees]
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"Laguerre order must be finite and exceed -1, got {alpha!r}")
    arr = np.asarray(x, dtype=float)
    top = max(degrees, default=0)
    _check_steps("Laguerre", top, arr)
    if np.any(arr < 0.0):
        raise DomainError("Laguerre argument must be nonnegative")
    at = {}
    for i, n in enumerate(degrees):
        at.setdefault(n, []).append(i)
    flat = arr.reshape(-1)  # a 0-d x would make each step a numpy scalar
    rows = np.empty((len(degrees), flat.size))
    exponents = power = None

    def keep(k, value):
        for i in at.get(k, ()):
            rows[i] = value
            if power is not None:
                exponents[i] = power

    def rescale():  # bring each |L_k| past 1e100 to its mantissa; returns the new bound
        nonlocal power, exponents
        big = np.abs(cur) > _RESCALE_ABOVE
        if big.any():
            if power is None:
                power = np.zeros(flat.size, dtype=np.int32)
                exponents = np.zeros(rows.shape, dtype=np.int32)
            mantissa, shift = np.frexp(cur[big])
            cur[big], prev[big] = mantissa, np.ldexp(prev[big], -shift)
            power[big] += shift
        both = np.fmax(np.abs(cur), np.abs(prev))
        return float(np.max(both, initial=1.0, where=np.isfinite(both)))

    prev = np.ones_like(flat)
    keep(0, prev)
    cur = 1.0 + alpha - flat
    keep(1, cur)
    lo, hi = (float(flat.min()), float(flat.max())) if flat.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):  # bound the finite points only
        span = flat[np.isfinite(flat)]
        lo, hi = (float(span.min()), float(span.max())) if span.size else (0.0, 0.0)
    bound = max(1.0, abs(1.0 + alpha - lo), abs(1.0 + alpha - hi))  # >= |L_0|, |L_1|
    if top > 1 and bound > _RESCALE_ABOVE:  # a huge order: (c - x) L_1 could overflow
        bound = rescale()
    step, term = np.empty_like(flat), np.empty_like(flat)  # three buffers take turns
    for k in range(1, top):
        # L_{k+1} = ((c - x) L_k - (k + alpha) L_{k-1}) / (k + 1), in that order.
        c = 2.0 * k + 1.0 + alpha
        np.subtract(c, flat, out=step)
        step *= cur
        step -= np.multiply(k + alpha, prev, out=term)
        step /= k + 1.0
        prev, cur, step = cur, step, prev
        # |L_{k+1}| <= (max|c - x| |L_k| + |k + alpha| |L_{k-1}|) / (k + 1)
        growth = (max(c - lo, hi - c) + abs(k + alpha)) / (k + 1.0)
        if growth > 1.0:
            bound *= growth
        if bound > _RESCALE_ABOVE:
            bound = rescale()
        keep(k + 1, cur)
    shape = (len(degrees),) + arr.shape
    return rows.reshape(shape), None if exponents is None else exponents.reshape(shape)


def laguerre_gen(n: int, alpha: float, x):
    """Generalized Laguerre polynomial ``L_n^alpha(x)``.

    Parameters
    ----------
    n : int
        Degree, ``n >= 0``.
    alpha : float
        Order, finite and ``alpha > -1``; non-integer values allowed.
    x : float or array_like
        Argument(s), finite and ``x >= 0``; nan or inf raises :class:`DomainError`.

    Returns
    -------
    float or ndarray
        Polynomial value(s), from :func:`laguerre_march`; scalar in, scalar out.  The
        march rescales before any step could overflow, so every finite ``x`` takes it,
        and a value beyond the float range is ``inf`` of its sign.  A degree times
        point count (at least :data:`MIN_STEP_POINTS`) above :data:`RECURRENCE_LIMIT`
        raises :class:`DomainError` before any step.
    """
    import numpy as np
    n = integer("Laguerre degree", n, 0)
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("Laguerre argument must be finite")
    rows, exponents = laguerre_march([n], alpha, arr)
    out = rows[0]
    if exponents is not None:
        with np.errstate(over="ignore"):
            out = np.ldexp(out, exponents[0])
    return out if out.ndim else float(out)


def hermite(k: int, x):
    """Physicists' Hermite polynomial ``H_k(x)`` by recurrence.

    ``H_0 = 1``, ``H_1 = 2x``, ``H_{k+1} = 2 x H_k - 2 k H_{k-1}``, under the
    step limit of :func:`laguerre_gen`.
    """
    import numpy as np
    k = integer("Hermite index", k, 0)
    arr = np.asarray(x, dtype=float)
    _check_steps("Hermite", k, arr)
    prev = np.ones_like(arr)
    if k == 0:
        return prev if arr.ndim else float(prev)
    cur = 2.0 * arr
    for j in range(1, k):
        cur, prev = 2.0 * arr * cur - 2.0 * j * prev, cur
    return cur if arr.ndim else float(cur)


def tower_degree(label: float, start: float, name: str) -> int:
    """Laguerre degree ``(label - start)/2`` of a label in the tower ``{start, start+2, ...}``.

    Labels and starts may be non-integer (shifted towers); their difference
    must be a nonnegative even integer to within 1e-9, otherwise
    :class:`DomainError` names the tower.  ``name`` is the label's symbol in
    the message.
    """
    for value, what in ((label, name), (start, f"the start of the {name} tower")):
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise DomainError(
                f"{what} is too large for a float, got an integer of {value.bit_length()} bits"
            )
    gap = float(label) - float(start)  # inf or nan when too far apart for a float
    degree = round(gap / 2.0) if math.isfinite(gap) else -1
    if degree < 0 or abs(gap - 2.0 * degree) > 1e-9:
        raise DomainError(
            f"{name} must lie in {{{start:g}, {start + 2:g}, ...}}, got {label!r}"
        )
    return degree


def radial_norm_3d(n_principal: float, l_angular: float, r0: float) -> float:
    """Normalization constant for the 3D radial profile.

    The profile ``W(r) = C (r/r0)^{L+1} exp(-r^2/2 r0^2) L_n^{L+1/2}(r^2/r0^2)``
    with degree ``n = (N - L)/2`` satisfies ``int_0^inf W^2 dr = 1`` when

        ``C = sqrt(2 n! / (r0 Gamma(n + L + 3/2)))``

    which follows from Laguerre orthogonality under the weight
    ``x^{L+1/2} e^{-x}``.  ``L`` may be non-integer (``L > -3/2``); ``N - L``
    must be a nonnegative even integer.
    """
    positive("r0", r0)
    if not l_angular > -1.5:
        raise DomainError(f"angular parameter must exceed -3/2, got {l_angular!r}")
    deg = tower_degree(n_principal, l_angular, "N")
    return math.exp(log_radial_norm(deg, l_angular, r0))


def log_radial_norm(degree: int, l_angular: float, r0: float) -> float:
    """``log C`` of :func:`radial_norm_3d` at Laguerre degree ``degree``, unchecked.

    Finite where ``C`` itself underflows, as it does for a tower index of a few hundred.
    """
    log_c2 = (
        math.log(2.0)
        + math.lgamma(degree + 1.0)
        - math.lgamma(degree + l_angular + 1.5)
        - math.log(r0)
    )
    return 0.5 * log_c2
