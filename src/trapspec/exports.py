"""Deterministic text output: CSV/JSON formatting and atomic file writes.

Identical inputs must produce byte-identical files.  A table is a header
plus its columns.  CSV always carries a header row, uses '.' for decimals
and ',' as separator; integer columns print as ``%d`` and every other
column as ``%.17g`` (enough to round-trip IEEE doubles).  JSON is byte for
byte what ``json.dumps`` prints with sorted keys and a two-space indent, but
written here: there the indent selects the standard library's pure-Python
encoder, and here a list of flat float records (a sampled curve) goes a
column at a time, one ``float.__repr__`` map per key and one template per
row.  Numpy scalars and arrays become their Python values, and a non-finite
number is refused.  Files are written to a temp name and renamed into place;
a new one gets the mode the umask gives it, one that replaces another keeps
that one's mode.

``csv_text`` prints a float column as a whole array (``_cells``), byte for
byte as the per-cell ``%.17g``, and an integer column, as int64 or uint64,
byte for byte as ``%d``.  Float cells outside the float kernel's window
1e-29 < |v| < 9.99e16 (tinier, subnormal or huge values) and columns of
Python objects keep the per-cell ``%``.  Each cell is four 8-byte words
with its unused bytes NUL; rows go through in blocks of ``_BLOCK_ROWS``
(8192), so the scratch arrays stay about 0.26 MB a column whatever the
table's length.  A non-finite cell raises ``DomainError``, naming its column
and row: no table prints ``nan``.
"""

from __future__ import annotations

import os
import stat
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DomainError

_BLOCK_ROWS = 8192

_NON_FINITE = {"nan", "inf", "-inf"}


def fmt17(value: float) -> str:
    """Fixed float formatting: 17 significant digits, round-trip exact."""
    return format(float(value), ".17g")


def csv_text(header, *columns) -> str:
    """Render a table from its header and one sequence per column.

    Integer columns print bare, every other column as ``%.17g``.  A boolean
    column is ambiguous and raises TypeError; columns of unequal length, or a
    column count that differs from the header's, raise ValueError; a ``nan``
    or infinite cell raises DomainError naming its column and row.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} names")
    arrays = [np.asarray(c) for c in columns]
    for name, a in zip(header, arrays):
        if a.dtype.kind == "b":
            raise TypeError(f"boolean column {name!r} is ambiguous; use 0/1 integers")
        if len(a) != len(arrays[0]):
            raise ValueError(
                f"column {name!r} has {len(a)} values; column {header[0]!r} has {len(arrays[0])}"
            )
    # Imported here, so commands that print no table never compile it.
    from ._cells import float_cells, int_cells

    rows = len(arrays[0]) if arrays else 0
    text = [",".join(header) + "\n"]
    for start in range(0, rows, _BLOCK_ROWS):
        block = np.empty((min(_BLOCK_ROWS, rows - start), 4 * len(arrays)), dtype=np.uint64)
        bad = []
        for j, a in enumerate(arrays):
            a = a[start:start + len(block)]
            cells = block[:, 4 * j:4 * j + 4]
            if a.dtype.kind in "iu":
                int_cells(a.astype(np.int64 if a.dtype.kind == "i" else np.uint64, copy=False),
                          cells)
            else:
                if a.dtype.kind == "f" and a.dtype.itemsize <= 8:
                    a = a.astype(np.float64, copy=False)
                    slow = float_cells(a, cells)
                else:
                    slow = np.arange(len(a))
                values = a[slow]
                printed = ["%.17g" % (v,) for v in values.tolist()]
                cells[slow] = _words(np.array(printed, dtype="S32"))
                # "%g" prints float(v): a cell prints nan or inf where that is non-finite.
                with np.errstate(over="ignore"):
                    off = np.flatnonzero(~np.isfinite(values.astype(np.float64)))
                if off.size:
                    bad.append((slow[off[0]], j, printed[off[0]]))
            cells[:, 3] |= np.uint64(ord("\n" if j == len(arrays) - 1 else ",") << 56)
        if bad:
            i, j, s = min(bad)
            raise DomainError(f"non-finite value {s} in column {header[j]!r}, "
                              f"row {start + i + 1} of {rows}")
        text.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def _words(cells):
    """Fixed 32-byte strings as rows of four 8-byte words."""
    return cells.view(np.uint64).reshape(-1, 4)


def json_text(doc) -> str:
    """Sorted-key JSON with a two-space indent, and a newline at the end.

    Byte for byte ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` for string-keyed documents; numpy scalars and
    arrays print as their Python values.  A non-finite float raises
    DomainError (a ValueError, as from ``json.dumps``), an unknown type or a
    key that is not a string TypeError.
    """
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as indented JSON, its nested lines starting with ``newline``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        if text in _NON_FINITE:
            raise DomainError(f"Out of range float values are not JSON compliant: {value!r}")
        return text
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _float_records(value, inner) or [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (np.generic, np.ndarray)):
        return _json(value.tolist(), newline)
    raise TypeError(f"cannot export {type(value).__name__} value {value!r}")


def _float_records(items, newline: str):
    """A list of flat records with one key set and finite float values, a column at a time.

    Returns each record's text, its lines starting with ``newline``, or
    None for any other list.  Each column's floats print by one map of
    ``float.__repr__`` and the rows by one template.
    """
    first = items[0]
    if not (type(first) is dict and first):
        return None
    keys = first.keys()
    if set(map(type, items)) != {dict} or not all(map(keys.__eq__, map(dict.keys, items))):
        return None
    names, columns = sorted(keys), []
    for key in names:
        column = [row[key] for row in items]
        if set(map(type, column)) != {float}:
            return None
        column = list(map(float.__repr__, column))
        if not _NON_FINITE.isdisjoint(column):
            return None  # the caller raises for the first one, in document order
        columns.append(column)
    inner = newline + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in names
    ) + newline + "}"
    return [template % row for row in zip(*columns)]


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials.

    A file that replaces another keeps that one's mode; a new file gets the
    mode a newly created one gets, ``0o666`` less the umask.  Neither keeps
    the ``0o600`` of the temporary file.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o077)  # read it by setting it, then put it back
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

