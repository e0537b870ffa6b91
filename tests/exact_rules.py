"""Exact Gauss rules for tower states ``W = C u^(lam+1) e^(-u^2/2) L_n^(lam+1/2)(u^2)``.

``W_i W_j`` is ``t^((lam_i + lam_j + 1)/2) e^-t`` in ``t = (r/r0)^2``, or ``e^(-u^2)`` for
axial factors, times a polynomial, so 40-node Gauss rules integrate it exactly (Golub &
Welsch, Math. Comp. 23, 221 (1969)).  Nothing here comes from ``trapspec.numerov``.
"""

import functools

import numpy as np
from scipy.special import roots_genlaguerre, roots_hermite

NODES = 40  # exact for polynomials of degree below 80


@functools.cache
def laguerre_rule(alpha):
    """Nodes ``t``, weights ``w``: ``w @ p(t)`` is ``int_0^inf t^alpha e^-t p(t) dt``."""
    return roots_genlaguerre(NODES, alpha)


@functools.cache
def half_line_rule(alpha, r0):
    """Nodes ``r``, weights ``w``: ``w @ f(r)`` is ``int_0^inf f dr``, ``f = t^alpha e^-t p(t)``."""
    t, w = laguerre_rule(alpha)
    return r0 * np.sqrt(t), 0.5 * r0 * w * np.exp(t - (alpha + 0.5) * np.log(t))


@functools.cache
def whole_line_rule(r0):
    """Nodes ``z``, weights ``w``: ``w @ f(z)`` is ``int f dz`` for ``f = e^(-u^2) p(u)``."""
    u, w = roots_hermite(NODES)
    return r0 * u, r0 * w * np.exp(u * u)


def exact_gram(states, whole_line=False):
    """``G[i, j] = int W_i W_j``, over the whole line for axial factors, for states of one r0."""
    (r0,) = {state.r0 for state in states}
    if whole_line:
        z, w = whole_line_rule(r0)
        values = np.array([state(z) for state in states])
        return (values * w) @ values.T
    matrix = np.empty((len(states), len(states)))
    for i, j in zip(*np.triu_indices(len(states))):
        r, w = half_line_rule((states[i].l_angular + states[j].l_angular + 1.0) / 2.0, r0)
        matrix[i, j] = matrix[j, i] = w @ (states[i](r) * states[j](r))
    return matrix
