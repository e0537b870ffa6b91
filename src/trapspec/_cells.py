"""Exact ``%.17g`` cells for ``exports.csv_text``, computed as numpy arrays.

Every cell is byte for byte the ``"%.17g" % float(v)`` of its value.  Inside
the window 1e-6 < |v| < 9.99e16 the cell's decimal exponent X, estimated as
floor(log10|v|), makes |v|·10^(16−X) a product by an exact power of ten
(10^s with 0 ≤ s ≤ 22 is a double), and Dekker's error-free product splits
it into hi + lo exactly.  There hi ≥ 2^53 is an even integer, so
hi + rint(lo) is the half-even, correctly rounded 17-digit mantissa N.
Where N falls outside [10^16, 10^17), the estimate of X was one off and is
stepped once; a cell whose N still misses is left to the caller's per-cell
formatter, as are cells outside the window.  N's digits come from a table of
4-digit groups and are laid out in four 8-byte words per cell, with the
sign, the ``0.000`` prefix of a small number, the decimal point, the
``e-05`` suffix and the separator at fixed byte places and every unused
byte NUL, so that dropping the NULs of a block of cells gives its text.
Zeros share that layout.

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
#   bytes 24 .. 30 d_16 once moved on, then "e-05" or "e-06" (X < -4)
#   byte 31        the separator, ',' or '\n', which the caller sets
# Every other byte is NUL.
_U = np.uint64

# 10^s for s = 16 - X, X = -6 .. 16 (index X + 6): exact doubles, with
# Veltkamp's split into two 26-bit halves for the error-free product.
_POW10 = np.array([float(10**s) for s in range(22, -1, -1)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# Over the digit groups g = 100 i + j < 10^4, from the 100 digit pairs: the
# four ASCII digits of g, first digit in the lowest byte; and, for g as
# digits 4k + 1 .. 4k + 4 of N, the cell byte just past its last nonzero
# digit (8, just past d_0, for g = 0).
_pairs = np.array([48 + p // 10 | (48 + p % 10) << 8 for p in range(100)], dtype=_U)
_DIGITS = (_pairs[:, None] | _pairs[None, :] << _U(16)).ravel()
_pair_last = np.array([2 if p % 10 else 1 if p else 0 for p in range(100)], dtype=np.int8)
_last = np.where(_pair_last > 0, _pair_last + 2, _pair_last[:, None]).ravel()
_ENDS = [np.where(_last > 0, _last + 4 * k + 8, 8).astype(np.int8) for k in range(4)]

# For words j = 1, 2 and a cell byte b: _BEFORE[j][b] masks the bytes of word j
# that come before byte b; _POINT_AT[j][b] is a '.' at byte b if it is in word j.
_BEFORE = {j: np.array([(1 << 8 * min(max(b - 8 * j, 0), 8)) - 1 for b in range(33)],
                       dtype=_U) for j in (1, 2)}
_POINT_AT = {j: np.array([ord(".") << 8 * (b - 8 * j) if 0 <= b - 8 * j < 8 else 0
                          for b in range(33)], dtype=_U) for j in (1, 2)}


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# Per exponent X (index X + 6): the byte of the point (24: none can come),
# the end of the digits kept even when zero, word 0's prefix and word 3's
# suffix.
_EXPONENTS = range(-6, 17)
_POINT = np.array([8 if x < -4 else 24 if x < 0 else x + 8 for x in _EXPONENTS])
_KEEP = np.array([max(x, 0) + 8 for x in _EXPONENTS])
_PREFIX = np.array([_word((b"0." + b"0" * (-x - 1)).rjust(7, b"\0")) if -4 <= x < 0 else 0
                    for x in _EXPONENTS], dtype=_U)
_SUFFIX = np.array([_word(b"\0e-0%d" % -x) if x < -4 else 0 for x in _EXPONENTS], dtype=_U)


def _mantissa(a, e):
    """round(a * 10^(16 - X)), half to even, for exponent index e = X + 6.

    Dekker's two-product gives the product exactly as hi + lo; where the
    result lies in [10^16, 10^17), hi >= 2^53 is an even integer and the
    rounding is rint(lo)'s.
    """
    hi = a * _POW10[e]
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    ph, pl = _POW10_HI[e], _POW10_LO[e]
    t = ((hi - ah * ph) - al * ph) - ah * pl
    return hi.astype(np.int64) + np.rint(al * pl - t).astype(np.int64)


def float_cells(x, cells):
    """Write ``%.17g`` of float64 ``x`` into the 4-word rows of ``cells``.

    Returns the rows left to the per-cell formatter, whose words are unset.
    """
    ax = np.abs(x)
    fast = (ax > 1e-6) & (ax < 9.99e16)
    a = np.where(fast, ax, 1.0)
    e = np.clip((np.log10(a) + 6.0).astype(np.intp), 0, 22)
    n = _mantissa(a, e)
    # Where the estimate of X was one off, N misses [10^16, 10^17): step X
    # once, and leave any cell still missing to the per-cell formatter.
    step = (n >= 10**17).astype(np.intp) - (n < 10**16)
    off = np.flatnonzero(step)
    if off.size:
        e[off] = np.clip(e[off] + step[off], 0, 22)
        n[off] = _mantissa(a[off], e[off])
        fast[off] &= (n[off] >= 10**16) & (n[off] < 10**17)
    n[ax == 0.0] = 0  # prints as "0" (X = 0, one digit)
    lead = n // 10**16
    groups = [n - lead * 10**16]
    for unit in (10**12, 10**8, 10**4):  # d_1 .. d_16 in four groups
        head = groups[-1] // unit
        groups[-1:] = [head, groups[-1] - head * unit]
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
