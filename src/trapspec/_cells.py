"""Exact ``%.17g`` and ``%d`` cells for ``exports.csv_text``, computed as numpy arrays.

Every float cell is byte for byte the ``"%.17g" % float(v)`` of its value, and
every integer cell the ``"%d"`` of its value.

Floats.  A cell's decimal exponent X, estimated as floor(log10|v|), makes
|v|·10^(16−X) the 17-digit mantissa N once it is rounded half to even.
Inside the window 1e-29 < |v| < 9.99e16, s = 16 − X runs from 0 to 45, and
10^s = 2^s·5^s with 5^s < 2^105 is the exact sum of two doubles.  Dekker's
error-free product by the first gives |v|·10^s as an even integer plus a
rest that one more product and sum give to within 2^-48, which rint rounds
half to even.  Within 2^-40 of a tie the rest is summed exactly, by a
second error-free product, two error-free sums and sign tests.  Where N
falls outside [10^16, 10^17), the estimate of X was one off and is stepped
once; so is a cell whose N rounds up to 10^16 from below, since its
exponent is that of the decade under.  A cell whose N still misses is left
to the caller's per-cell formatter, as are cells outside the window.  N's
digits come from a table of 4-digit groups and are laid out in four 8-byte
words per cell, with the sign, the ``0.000`` prefix of a small number, the
decimal point, the ``e-05`` to ``e-29`` suffix and the separator at fixed
byte places and every unused byte NUL, so that dropping the NULs of a block
of cells gives its text.  Zeros share that layout.

Integers.  An int64 or uint64 magnitude has at most 20 digits: five 4-digit
groups from the same table, right-aligned before the separator, with the
leading zeros NUL and a ``-`` just before the first digit.

``exports`` imports this module on its first table, so commands that print
none do not compile it or build its tables.
"""

from __future__ import annotations

import numpy as np

# A cell is four little-endian 8-byte words.  For a float with 17-digit
# mantissa N = d_0 d_1 .. d_16 and exponent X:
#   byte 0         '-' or NUL
#   bytes 1 .. 6   "0.", "0.0", "0.00" or "0.000" (-4 <= X < 0), right-aligned
#   bytes 7 .. 23  d_i at byte 7 + i; a point after d_P goes in at byte 8 + P
#                  and moves the digits behind it one byte on
#   bytes 24 .. 30 d_16 once moved on, then "e-05" .. "e-29" (X < -4)
#   byte 31        the separator, ',' or '\n', which the caller sets
# An integer's digits end at byte 30, at most 20 of them from byte 11 on,
# and its '-' is just before the first.  Every other byte is NUL.
_U = np.uint64

# The exponents X = -29 .. 16 of the window, index X + 29.
_EXPONENTS = range(-29, 17)


def _split(v):
    """Veltkamp's split of doubles into two 26-bit halves, for the error-free product."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


def _two_product(a, ah, al, p, ph, pl):
    """Dekker's a * p = hi + lo exactly, from the splits a = ah + al and p = ph + pl."""
    hi = a * p
    t = ((hi - ah * ph) - al * ph) - ah * pl
    return hi, al * pl - t


def _two_sum(a, b):
    """Knuth's a + b = s + e exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


# 10^s for s = 16 - X = 45 .. 0 as the exact sum of two doubles: 10^s =
# 2^s 5^s and 5^s < 2^105, so 10^s less its nearest double is one too (0
# for s <= 22, where 10^s is a double).
_TEN = [10 ** (16 - x) for x in _EXPONENTS]
_TEN_1 = np.array([float(p) for p in _TEN])
_TEN_2 = np.array([float(p - int(float(p))) for p in _TEN])
_TEN_1_HI, _TEN_1_LO = _split(_TEN_1)
_TEN_2_HI, _TEN_2_LO = _split(_TEN_2)

# Over the digit groups g = 100 i + j < 10^4, from the 100 digit pairs: the
# four ASCII digits of g, first digit in the lowest byte; and, for g as
# digits 4k + 1 .. 4k + 4 of N, the cell byte just past its last nonzero
# digit (8, just past d_0, for g = 0).
_pairs = np.array([48 + p // 10 | (48 + p % 10) << 8 for p in range(100)], dtype=_U)
_DIGITS = (_pairs[:, None] | _pairs[None, :] << _U(16)).ravel()
_pair_last = np.array([2 if p % 10 else 1 if p else 0 for p in range(100)], dtype=np.int8)
_last = np.where(_pair_last > 0, _pair_last + 2, _pair_last[:, None]).ravel()
_ENDS = [np.where(_last > 0, _last + 4 * k + 8, 8).astype(np.int8) for k in range(4)]
# For g as digits 4k + 1 .. 4k + 4 of a 20-digit integer at bytes 11 .. 30:
# the byte of its first nonzero digit (30, the last digit's, for g = 0).
_g = np.arange(10**4)
_zeros = (_g < 1000).astype(np.int8) + (_g < 100) + (_g < 10)  # leading zeros of g's 4 digits
_FIRST = [np.where(_g > 0, _zeros + np.int8(11 + 4 * k), np.int8(30)) for k in range(5)]

# For words j = 1, 2, 3 and a cell byte b: _BEFORE[j][b] masks the bytes of
# word j that come before byte b, _FROM[j][b] the others; _POINT_AT[j][b] is
# a '.' at byte b if it is in word j, _MINUS_AT[j][b] a '-'.
_BEFORE = {j: np.array([(1 << 8 * min(max(b - 8 * j, 0), 8)) - 1 for b in range(33)],
                       dtype=_U) for j in (1, 2, 3)}
_FROM = {j: ~mask for j, mask in _BEFORE.items()}


def _at(char: str) -> dict:
    return {j: np.array([ord(char) << 8 * (b - 8 * j) if 0 <= b - 8 * j < 8 else 0
                         for b in range(33)], dtype=_U) for j in (1, 2, 3)}


_POINT_AT, _MINUS_AT = _at("."), _at("-")


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# Per exponent X: the byte of the point (24: none can come), the end of the
# digits kept even when zero, word 0's prefix and word 3's suffix.
_POINT = np.array([8 if x < -4 else 24 if x < 0 else x + 8 for x in _EXPONENTS])
_KEEP = np.array([max(x, 0) + 8 for x in _EXPONENTS])
_PREFIX = np.array([_word((b"0." + b"0" * (-x - 1)).rjust(7, b"\0")) if -4 <= x < 0 else 0
                    for x in _EXPONENTS], dtype=_U)
_SUFFIX = np.array([_word(b"\0e-%02d" % -x) if x < -4 else 0 for x in _EXPONENTS], dtype=_U)


def _mantissa(a, e):
    """round(a * 10^s), half to even, for s = 16 - X and exponent index e = X + 29,
    and whether the exact product lies below that rounding.

    With 10^s = p1 + p2 in two doubles, an error-free product gives a p1 =
    h1 + l1.  Where the result lies in [10^16, 10^17), h1 >= 2^53 is an even
    integer, and the rest l1 + a p2 is within 2^-48 of q = l1 + fl(a p2)
    (exactly q where p2 = 0, s <= 22).  So rint(q) rounds the rest, except
    within 2^-40 of a half-integer: those cells are left to
    ``_exact_mantissa``.  Where N = 10^16, the rest has the sign of
    q - rint(q): the doubles nearest 10^X for X <= -7 have a rest at least
    0.01 from 0 (1e-14's, -0.0118, is the least).
    """
    ah, al = _split(a)
    h1, l1 = _two_product(a, ah, al, _TEN_1[e], _TEN_1_HI[e], _TEN_1_LO[e])
    q = l1 + a * _TEN_2[e]
    r = np.rint(q)
    d = np.abs(q - r)
    n, below = h1.astype(np.int64) + r.astype(np.int64), q < r
    near = np.flatnonzero(d > 0.5 - 2**-40)
    if near.size:
        n[near], below[near] = _exact_mantissa(a[near], e[near])
    return n, below


def _exact_mantissa(a, e):
    """``_mantissa`` with the rest summed exactly.

    Two error-free products give a 10^s = h1 + l1 + h2 + l2, and the rest
    is r + d + y + ey exactly: l1 + h2 = q + t by an error-free sum, r =
    rint(q), d = q - r with |d| <= 1/2, and t + l2 = y + ey by another,
    with |y + ey| < 2^-40.  For c = 0 and +-1/2, the floating-point
    ((d - c) + y) + ey has the sign of the exact d - c + y + ey: where d - c
    or its sum with y is inexact, that term outweighs the ones after it, and
    an exact sum is 0 only where it is.
    """
    ah, al = _split(a)
    h1, l1 = _two_product(a, ah, al, _TEN_1[e], _TEN_1_HI[e], _TEN_1_LO[e])
    h2, l2 = _two_product(a, ah, al, _TEN_2[e], _TEN_2_HI[e], _TEN_2_LO[e])
    q, t = _two_sum(l1, h2)
    r = np.rint(q)
    d = q - r
    y, ey = _two_sum(t, l2)
    up, down, mid = ((d - 0.5) + y) + ey, ((d + 0.5) + y) + ey, (d + y) + ey
    # A tie has every term a multiple of 1/2, so y = ey = 0, and rint has
    # already rounded q to even: only a sum past +-1/2 steps r on.
    step = (up > 0.0).astype(np.int64) - (down < 0.0)
    n = h1.astype(np.int64) + r.astype(np.int64) + step
    return n, (step > 0) | (step == 0) & (mid < 0.0)


def _groups(n):
    """``n // 10^16`` and the four 4-digit groups of ``n % 10^16``, first group first."""
    head = n // 10**16
    groups = [(n - head * 10**16).astype(np.int64, copy=False)]  # int64 indexes faster
    for unit in (10**12, 10**8, 10**4):
        top = groups[-1] // unit
        groups[-1:] = [top, groups[-1] - top * unit]
    return head.astype(np.int64, copy=False), groups


def float_cells(x, cells):
    """Write ``%.17g`` of float64 ``x`` into the 4-word rows of ``cells``.

    Returns the rows left to the per-cell formatter, whose words are unset.
    """
    ax = np.abs(x)
    fast = (ax > 1e-29) & (ax < 9.99e16)
    a = np.where(fast, ax, 1.0)
    top = len(_EXPONENTS) - 1
    e = np.clip((np.log10(a) + 29.0).astype(np.intp), 0, top)
    n, below = _mantissa(a, e)
    # Where the estimate of X was one off, N misses [10^16, 10^17); and a
    # double can lie so close under its decade 10^X that N rounds up to
    # 10^16 at X, while its exponent is X - 1.  Step X once, and leave any
    # cell still missing to the per-cell formatter.
    step = (n >= 10**17).astype(np.intp) - ((n < 10**16) | (n == 10**16) & below)
    off = np.flatnonzero(step)
    if off.size:
        e[off] = np.clip(e[off] + step[off], 0, top)
        n[off], below[off] = _mantissa(a[off], e[off])
        # A step down whose N rounds up to 10^17 was not needed: %.17g carries
        # that into the 10^16 of X, as for 1e-14 (9.99999999999999988e-15).
        back = off[(n[off] == 10**17) & (step[off] < 0)]
        e[back] += 1
        n[back], below[back] = 10**16, False
        fast[off] &= (n[off] >= 10**16) & (n[off] < 10**17) & ~((n[off] == 10**16) & below[off])
    n[ax == 0.0] = 0  # prints as "0" (X = 0, one digit)
    lead, groups = _groups(n)
    end = np.maximum(np.maximum(_ENDS[0][groups[0]], _ENDS[1][groups[1]]),
                     np.maximum(_ENDS[2][groups[2]], _ENDS[3][groups[3]]))
    end = np.maximum(end, _KEEP[e])
    point = _POINT[e]
    at = np.where(end > point, point, 32)  # no point before trailing zeros
    w1 = (_DIGITS[groups[0]] | _DIGITS[groups[1]] << _U(32)) & _BEFORE[1][end]
    w2 = (_DIGITS[groups[2]] | _DIGITS[groups[3]] << _U(32)) & _BEFORE[2][end]
    before1, before2 = _BEFORE[1][at], _BEFORE[2][at]
    moved1, moved2 = w1 & ~before1, w2 & ~before2
    cells[:, 0] = _PREFIX[e] | np.signbit(x) * _U(ord("-")) | (lead.astype(_U) + _U(48)) << _U(56)
    cells[:, 1] = w1 & before1 | moved1 << _U(8) | _POINT_AT[1][at]
    cells[:, 2] = w2 & before2 | moved2 << _U(8) | moved1 >> _U(56) | _POINT_AT[2][at]
    cells[:, 3] = moved2 >> _U(56) | _SUFFIX[e]
    return np.flatnonzero(~fast & (ax != 0.0))


def int_cells(x, cells):
    """Write ``%d`` of int64 or uint64 ``x`` into the 4-word rows of ``cells``."""
    # np.abs keeps -2^63 as it is, whose bits as a uint64 are its magnitude.
    head, groups = _groups(np.abs(x).astype(_U, copy=False))
    first = np.minimum(np.minimum(_FIRST[0][head], _FIRST[1][groups[0]]),
                       np.minimum(_FIRST[2][groups[1]], _FIRST[3][groups[2]]))
    first = np.minimum(first, _FIRST[4][groups[3]])
    sign = np.where(x < 0, first - 1, 32)
    # Digits 1 .. 8, 9 .. 16 and 17 .. 20, moved on to start at byte 11.
    d1 = _DIGITS[head] | _DIGITS[groups[0]] << _U(32)
    d2 = _DIGITS[groups[1]] | _DIGITS[groups[2]] << _U(32)
    d3 = _DIGITS[groups[3]]
    cells[:, 0] = 0
    cells[:, 1] = d1 << _U(24) & _FROM[1][first] | _MINUS_AT[1][sign]
    cells[:, 2] = (d1 >> _U(40) | d2 << _U(24)) & _FROM[2][first] | _MINUS_AT[2][sign]
    cells[:, 3] = (d2 >> _U(40) | d3 << _U(24)) & _FROM[3][first] | _MINUS_AT[3][sign]
