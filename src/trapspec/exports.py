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

A column may also be given as ``Shared(values, index)``, the cells of
``values[index]``, for a column that repeats few values (a field map's
coordinates and drive times).  Numeric ``values`` are formatted once, by the
same kernels and per-cell ``%``, into a table of 4-word cells, and each
block gathers its rows from it.  The text is byte for byte that of the
column ``values[index]``, and so is any error: the same ``TypeError`` or
``ValueError``, and the same ``DomainError`` naming the first row that takes
a non-finite value.  A value no row takes is never checked.

A table given as Python lists or tuples of one length, each holding only
ints within int64 or only finite floats, prints each cell with the same
``%d`` or ``%.17g`` without loading numpy: a small table (a spectrum of a
few thousand levels) takes less time to print so than numpy takes to load.
Any other table goes through the arrays, errors included.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from json.encoder import encode_basestring_ascii

from .errors import DomainError

_BLOCK_ROWS = 8192

_NON_FINITE = {"nan", "inf", "-inf"}


def fmt17(value: float) -> str:
    """Fixed float formatting: 17 significant digits, round-trip exact."""
    return format(float(value), ".17g")


class Shared:
    """A ``csv_text`` column whose cells are ``values[index]``.

    ``index`` is an integer array, and its length is the column's.  A type of
    its own, since a plain tuple is already a column of its items.
    """

    __slots__ = ("values", "index")

    def __init__(self, values, index):
        self.values, self.index = values, index

    def __len__(self) -> int:
        return len(self.index)


def csv_text(header, *columns) -> str:
    """Render a table from its header and one sequence per column.

    Integer columns print bare, every other column as ``%.17g``.  A column
    may be a :class:`Shared` ``(values, index)``: numeric ``values`` are
    formatted once and each row copies its cell, and the text and any error
    are byte for byte those of the column ``values[index]``, which is what
    values of any other type print as.  A boolean column is ambiguous and
    raises TypeError; columns of unequal length, or a column count that
    differs from the header's, raise ValueError; a ``nan`` or infinite cell
    raises DomainError naming its column and row.  Lists or tuples of ints
    within int64 or of finite floats print cell by cell, without numpy.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} names")
    formats = _plain_formats(columns)
    if formats:
        row = ",".join(formats) + "\n"
        return ",".join(header) + "\n" + "".join(map(row.__mod__, zip(*columns)))
    import numpy as np
    arrays, tables = [], {}
    for j, c in enumerate(columns):
        if isinstance(c, Shared):
            values, index = np.asarray(c.values), np.asarray(c.index)
            if values.dtype.kind in "fiu":
                # Each value's cell, and which values are non-finite.
                table = np.empty(len(values), dtype="V32")
                found = _format(values, table.view(np.uint64).reshape(-1, 4))
                flags = np.zeros(len(values), dtype=bool)
                flags[list(found)] = True
                tables[j] = table, found, flags
                c = index
            else:  # cells that are not numbers print one at a time in any case
                c = values[index]
        arrays.append(np.asarray(c))
    for name, a in zip(header, arrays):
        if a.dtype.kind == "b":
            raise TypeError(f"boolean column {name!r} is ambiguous; use 0/1 integers")
        if len(a) != len(arrays[0]):
            raise ValueError(
                f"column {name!r} has {len(a)} values; column {header[0]!r} has {len(arrays[0])}"
            )

    rows = len(arrays[0]) if arrays else 0
    # The separator in each cell's last byte: ',' after every column but the last.
    ends = np.array([ord(",") << 56] * (len(arrays) - 1) + [ord("\n") << 56], dtype=np.uint64)
    text = [",".join(header) + "\n"]
    for start in range(0, rows, _BLOCK_ROWS):
        block = np.empty((min(_BLOCK_ROWS, rows - start), 4 * len(arrays)), dtype=np.uint64)
        bad = []  # (row in the block, column, text) of each column's first non-finite cell
        for j, a in enumerate(arrays):
            a = a[start:start + len(block)]
            if j in tables:
                table, found, flags = tables[j]
                block.view("V32")[:, j] = table[a]
                hit = np.flatnonzero(flags[a]) if found else ()
                if len(hit):  # index may count from the end
                    bad.append((hit[0], j, found[int(a[hit[0]]) % len(table)]))
            else:
                found = _format(a, block[:, 4 * j:4 * j + 4])
                if found:
                    i = min(found)
                    bad.append((i, j, found[i]))
        if bad:
            i, j, s = min(bad)
            raise DomainError(f"non-finite value {s} in column {header[j]!r}, "
                              f"row {start + i + 1} of {rows}")
        block.reshape(len(block), -1, 4)[:, :, 3] |= ends
        text.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def _plain_formats(columns):
    """``%d`` or ``%.17g`` for each column, where every column is a list or
    tuple of one length that holds only ints within int64 or only finite
    floats: the cells its array would print.  None for any other table."""
    formats = []
    for c in columns:
        if type(c) not in (list, tuple) or not c or len(c) != len(columns[0]):
            return None
        kinds = set(map(type, c))
        if kinds == {int} and -2**63 <= min(c) and max(c) < 2**63:
            formats.append("%d")
        elif kinds == {float} and all(map(math.isfinite, c)):
            formats.append("%.17g")
        else:
            return None
    return formats or None


def _format(a, cells) -> dict:
    """Write the cells of column ``a`` into the 4-word rows of ``cells``, each
    without its separator; return the position and text of each non-finite one."""
    import numpy as np
    # Imported here, so commands that print no table never compile it.
    from ._cells import float_cells, int_cells

    if a.dtype.kind in "iu":
        int_cells(a.astype(np.int64 if a.dtype.kind == "i" else np.uint64, copy=False), cells)
        return {}
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
    return {int(slow[k]): printed[k] for k in off}


def _words(cells):
    """Fixed 32-byte strings as rows of four 8-byte words."""
    return cells.view("u8").reshape(-1, 4)


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
    import numpy as np  # only here: a document of plain values never loads numpy
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

