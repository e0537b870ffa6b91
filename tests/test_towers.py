"""Tower families evaluated together: the scaled Laguerre march, bit-identity with
the plain recurrence, and finite, normalized states up to N and K of about 2000, out
to 1e300 lengths."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from numpy.polynomial.legendre import leggauss

from trapspec import DomainError, special
from trapspec.numerov import count_nodes
from trapspec.oscillator3d import OscillatorScales, radial_wavefunction_3d, tower_rows
from trapspec.planar import PaulFrequencies, paul_wavefunctions
from trapspec.special import laguerre_gen, laguerre_march
from trapspec.verification import orthonormality_families

NAT = OscillatorScales.natural()
PAUL = PaulFrequencies(quadrupole=80.0, drive=1600.0, mass=1.0, hbar=1.0)
FAMILIES = orthonormality_families()


def plain_laguerre(n, alpha, x):
    """The plain three-term recurrence, with no rescaling."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, n):
        cur, prev = ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0), cur
    return cur


def plain_value(state, r):
    """A lone state's profile as the product C u^(lam+1) e^(-u^2/2) L, in that order."""
    u = np.asarray(r, dtype=float) / state.r0
    x = u * u
    poly = plain_laguerre(state.degree, state.l_angular + 0.5, x)
    with np.errstate(divide="ignore"):
        return state.norm * u ** (state.l_angular + 1.0) * np.exp(-0.5 * x) * poly


def plain_derivative(state, r):
    """A lone state's dW/dr from the plain recurrence, in the same order of operations."""
    u = np.asarray(r, dtype=float) / state.r0
    x = u * u
    a = state.l_angular + 1.0
    poly = plain_laguerre(state.degree, state.l_angular + 0.5, x)
    if state.degree == 0:
        dpoly = np.zeros_like(x)
    else:
        dpoly = -plain_laguerre(state.degree - 1, state.l_angular + 0.5 + 1.0, x)
    with np.errstate(divide="ignore"):
        if a == 0.0:
            power, bracket = u, 2.0 * dpoly - poly
        else:
            power, bracket = u ** state.l_angular, a * poly - x * poly + 2.0 * x * dpoly
        return state.norm / state.r0 * power * np.exp(-0.5 * x) * bracket


def hexes(values):
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


class TestLaguerreMarch:
    def test_every_degree_is_the_lone_recurrence(self):
        x = np.linspace(0.0, 40.0, 301)
        degrees = [7, 0, 3, 3, 12, 1]
        rows, scale = laguerre_march(degrees, 0.7, x)
        assert scale is None
        for n, row in zip(degrees, rows):
            assert hexes(row) == hexes(plain_laguerre(n, 0.7, x))

    def test_rescaled_mantissas_are_the_plain_values(self):
        # Scaling by a power of two is exact: where the plain recurrence stays in
        # range, mantissa * 2**exponent is its value, bit for bit.
        x = np.array([0.0, 1.0, 50.0, 300.0, 2000.0])
        rows, scale = laguerre_march([60], 2.5, x)
        assert scale is not None and scale[0, -1] > 0
        with np.errstate(over="ignore"):
            assert hexes(np.ldexp(rows[0], scale[0])) == hexes(plain_laguerre(60, 2.5, x))

    def test_large_degree_stays_finite(self):
        x = np.append(np.linspace(0.0, 3600.0, 2001), 1e8)
        rows, scale = laguerre_march([2000], 0.5, x)
        assert np.all(np.isfinite(rows)) and scale is not None
        # Far past every zero, L_n^a(x) = (x^n / n!) (1 + O(n^2 / x)) for even n.
        lead = 2000 * math.log(1e8) - math.lgamma(2001.0)
        got = math.log(rows[0, -1]) + scale[0, -1] * math.log(2.0)
        assert got == pytest.approx(lead, abs=0.1)

    def test_laguerre_gen_saturates_instead_of_nan(self):
        assert laguerre_gen(400, 0.5, 4000.0) == math.inf
        assert laguerre_gen(401, 0.5, 4000.0) == -math.inf

    def test_checks_and_limit(self):
        with pytest.raises(DomainError):
            laguerre_march([2, -1], 0.5, 1.0)
        with pytest.raises(DomainError):
            laguerre_march([2], -1.0, 1.0)
        with pytest.raises(DomainError, match="degree 100000001 at 1 points"):
            laguerre_march([0, special.RECURRENCE_LIMIT + 1], 0.5, 1.0)


class TestFamilyRowsAreTheLoneProducts:
    """At today's finite inputs each row is the plain product, bit for bit."""

    @pytest.mark.parametrize("index", range(len(FAMILIES)), ids=[f[0] for f in FAMILIES])
    def test_values_and_derivatives(self, index):
        _, states, (lo, hi) = FAMILIES[index]
        nodes = leggauss(20)[0]
        r = np.concatenate([np.linspace(lo, hi, 1201), 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes])
        rows = tower_rows(states, r)
        slopes = tower_rows(states, r, derivative=True)
        for state, row, slope in zip(states, rows, slopes):
            assert hexes(row) == hexes(plain_value(state, r))
            assert hexes(state(r)) == hexes(row)
            assert hexes(slope) == hexes(plain_derivative(state, r))
            assert hexes(state.derivative(r)) == hexes(slope)

    def test_node_count_profiles(self):
        grid = np.linspace(1e-4, 12.0, 12001)
        states = [radial_wavefunction_3d(NAT, n, l) for n in range(13) for l in range(n % 2, n + 1, 2)]
        for state, row in zip(states, tower_rows(states, grid)):
            assert hexes(row) == hexes(plain_value(state, grid))

    def test_shape_and_scalars(self):
        state = radial_wavefunction_3d(NAT, 4, 2)
        r = np.linspace(0.1, 3.0, 12).reshape(3, 4)
        assert tower_rows([state, state], r).shape == (2, 3, 4)
        assert isinstance(state(1.5), float) and isinstance(state.derivative(1.5), float)
        assert state(1.5) == plain_value(state, 1.5)


def check_tower(state, lo, hi, nodes):
    """Finite values and slopes, unit norm, ``nodes`` sign changes and slopes that
    match a central difference, on [lo, hi] in units of the state's length."""
    length = state.r0
    panels = 40 + nodes
    x, w = leggauss(20)
    edges = np.linspace(lo, hi, panels + 1) * length
    half = 0.5 * np.diff(edges)[:, None]
    r = ((edges[:-1, None] + half) + half * x).ravel()
    values = state(r)
    assert np.all(np.isfinite(values))
    assert float(np.sum((values**2).reshape(panels, -1) @ w * half[:, 0])) == pytest.approx(
        1.0, abs=1e-9)
    assert count_nodes(values) == nodes
    probe = np.linspace(lo, hi, 41)[1:-1] * length
    slopes = state.derivative(probe)
    assert np.all(np.isfinite(slopes)) and np.all(np.isfinite(state.derivative(r[::7])))
    h = 1e-6 * length
    central = (state(probe + h) - state(probe - h)) / (2.0 * h)
    scale = float(np.max(np.abs(state.derivative(r[::3]))))
    assert np.max(np.abs(central - slopes)) <= 1e-6 * scale


def extent(label):
    """Past the outer turning point sqrt(2 label + 3) by ten lengths."""
    return math.sqrt(2.0 * label + 3.0) + 10.0


@settings(max_examples=5, deadline=None, derandomize=True)
@given(n=st.integers(0, 2000), data=st.data())
@example(n=2000, data=None).via("the largest level, in the s wave")
def test_radial_3d_tower(n, data):
    l = n % 2 if data is None else data.draw(st.sampled_from(range(n % 2, n + 1, 2)))
    state = radial_wavefunction_3d(NAT, n, l)
    check_tower(state, 0.0, extent(n), (n - l) // 2)
    assert np.all(np.isfinite(state(np.linspace(0.0, 60.0, 501))))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(n=st.integers(0, 2000), data=st.data())
@example(n=2000, data=None).via("the largest level at M = 0")
def test_planar_radial_tower(n, data):
    m = n % 2 if data is None else data.draw(st.sampled_from(range(n % 2, n + 1, 2)))
    state = paul_wavefunctions(PAUL, n, m, 0).radial
    check_tower(state, 0.0, extent(n), (n - m) // 2)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(k=st.integers(0, 2000))
@example(k=2000).via("the largest axial number")
@example(k=1999).via("an odd one, which vanishes at z = 0")
def test_axial_tower(k):
    # The Hermite function Z_K over the whole line: K zeros.
    state = paul_wavefunctions(PAUL, 0, 0, k).axial
    check_tower(state, -extent(k), extent(k), k)


# log10 of radii in lengths: past about 1.2e77 a plain march overflows, past 1.3e154 u^2.
EDGES = [-3.0, 76.9, 77.1, 78.0, 153.9, 154.2, 155.0, 200.0, 300.0]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(label=st.integers(0, 2000), data=st.data())
@example(label=2000, data=None).via("the largest level")
@example(label=40, data=None).via("the radial level whose march overflowed at 1e78")
@pytest.mark.parametrize("family", ["radial", "planar", "axial"])
def test_far_field_is_finite_and_zero(family, label, data):
    # Values and slopes at radii log-uniform out to 1e300 lengths (either sign for the
    # axial factor) are finite, and 0 past 1e4 lengths, where e^(-u^2/2) < 1e-21714723
    # outweighs every power of u.
    if family == "axial":
        state, signs = paul_wavefunctions(PAUL, 0, 0, label).axial, (1.0, -1.0)
    else:
        lowest = label % 2
        m = lowest if data is None else data.draw(st.sampled_from(range(lowest, label + 1, 2)))
        state, signs = (radial_wavefunction_3d(NAT, label, m) if family == "radial"
                        else paul_wavefunctions(PAUL, label, m, 0).radial), (1.0,)
    exponents = EDGES if data is None else data.draw(
        st.lists(st.floats(-3.0, 300.0), min_size=1, max_size=40))
    u = np.concatenate([sign * 10.0 ** np.array(exponents) for sign in signs])
    for values in (state(u * state.r0), state.derivative(u * state.r0)):
        assert np.all(np.isfinite(values))
        assert np.all(values[np.abs(u) > 1e4] == 0.0)


def mp_tower(n_level, l_angular, u, derivative=False):
    """The 3D tower W_{N,L} at u lengths (r0 = 1), or its dW/dr, from mpmath at 60 digits."""
    with mp.workdps(60):
        n = (n_level - l_angular) // 2
        alpha, x = mp.mpf(l_angular) + 0.5, mp.mpf(u) ** 2
        front = (mp.sqrt(2 * mp.factorial(n) / mp.gamma(n + alpha + 1))
                 * mp.mpf(u) ** l_angular * mp.exp(-x / 2))
        poly = mp.laguerre(n, alpha, x)
        if not derivative:
            return float(front * u * poly)
        slope = -mp.laguerre(n - 1, alpha + 1, x) if n else 0
        return float(front * ((l_angular + 1) * poly - x * poly + 2 * x * slope))


@pytest.mark.parametrize("n_level, l_angular, u", [
    (701, 37, np.linspace(36.0, 46.0, 41)),
    (200, 100, np.array([39.0, 40.0, 45.0])),
])
def test_values_where_the_gaussian_is_subnormal(n_level, l_angular, u):
    # e^(-u^2/2) is subnormal from u = 37.6 and 0 from u = 38.6, yet the values stay
    # normal floats: the product kept few or none of the Gaussian's bits there.
    state = radial_wavefunction_3d(NAT, n_level, l_angular)
    want = np.array([mp_tower(n_level, l_angular, v) for v in u])
    assert np.all(np.abs(want) >= sys.float_info.min)
    np.testing.assert_allclose(state(u), want, rtol=5e-13, atol=0.0)
    faint = u[np.exp(-0.5 * u * u) < sys.float_info.min]
    want = np.array([mp_tower(n_level, l_angular, v, derivative=True) for v in faint])
    np.testing.assert_allclose(state.derivative(faint), want, rtol=5e-13, atol=0.0)
