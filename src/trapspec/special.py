"""Generalized Laguerre / Hermite polynomials and radial normalization constants.

The Laguerre recurrence is the production evaluation path; the test suite
checks it against explicit series summation and quadrature.  Orders may be
non-integer, so everything is written for real ``alpha > -1``: every radial
family is the one tower ``u^{lam+1} e^{-u^2/2} L_n^{lam+1/2}(u^2)`` at an index
``lam`` that is ``L`` in 3D, ``|M| - 1/2`` in the planar traps and a
non-integer ``L*`` in the quantum-defect towers (and ``K mod 2 - 1`` for the
planar axial factor, so :func:`hermite` is only a public helper), so
:func:`radial_norm_3d` normalizes all of them.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, integer, positive

__all__ = ["laguerre_gen", "hermite", "tower_degree", "radial_norm_3d"]


def laguerre_gen(n: int, alpha: float, x):
    """Generalized Laguerre polynomial ``L_n^alpha(x)``.

    Parameters
    ----------
    n : int
        Degree, ``n >= 0``.
    alpha : float
        Order, finite and ``alpha > -1``; non-integer values allowed.
    x : float or array_like
        Argument(s), ``x >= 0``.

    Returns
    -------
    float or ndarray
        Polynomial value(s); scalar in, scalar out.
    """
    n = integer("Laguerre degree", n, 0)
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"Laguerre order must be finite and exceed -1, got {alpha!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("Laguerre argument must be nonnegative")
    prev = np.ones_like(arr)
    if n == 0:
        return prev if arr.ndim else float(prev)
    cur = 1.0 + alpha - arr
    for k in range(1, n):
        cur, prev = ((2.0 * k + 1.0 + alpha - arr) * cur - (k + alpha) * prev) / (k + 1.0), cur
    return cur if arr.ndim else float(cur)


def laguerre_gen_derivative(n: int, alpha: float, x):
    """d/dx of ``L_n^alpha(x)``, via ``-L_{n-1}^{alpha+1}(x)``."""
    if n == 0:
        arr = np.asarray(x, dtype=float)
        zero = np.zeros_like(arr)
        return zero if arr.ndim else 0.0
    out = laguerre_gen(n - 1, alpha + 1.0, x)
    return -out


def hermite(k: int, x):
    """Physicists' Hermite polynomial ``H_k(x)`` by recurrence.

    ``H_0 = 1``, ``H_1 = 2x``, ``H_{k+1} = 2 x H_k - 2 k H_{k-1}``.
    """
    k = integer("Hermite index", k, 0)
    arr = np.asarray(x, dtype=float)
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
    log_c2 = (
        math.log(2.0)
        + math.lgamma(deg + 1.0)
        - math.lgamma(deg + l_angular + 1.5)
        - math.log(r0)
    )
    return math.exp(0.5 * log_c2)
