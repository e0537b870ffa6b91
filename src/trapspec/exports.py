"""Deterministic text output: CSV/JSON formatting and atomic file writes.

Identical inputs must produce byte-identical files.  A table is a header
plus its columns.  ``csv_text`` picks one printf format per column from the
column's dtype, ``%d`` for integers and ``%.17g`` (enough to round-trip IEEE
doubles) for everything else, joins them into one row template, and applies
that template to each row; no cell is inspected on its own.  CSV always
carries a header row, uses '.' for decimals and ',' as separator.  JSON goes
straight through ``json.dumps`` with sorted keys; numpy scalars and arrays
become their Python values, and a non-finite number is refused.  Files are
written to a temp name and renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np


def fmt17(value: float) -> str:
    """Fixed float formatting: 17 significant digits, round-trip exact."""
    return format(float(value), ".17g")


def csv_text(header, *columns) -> str:
    """Render a table from its header and one sequence per column.

    Integer columns print bare, every other column as ``%.17g``.  A boolean
    column is ambiguous and raises TypeError; columns of unequal length, or a
    column count that differs from the header's, raise ValueError.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} names")
    arrays = [np.asarray(c) for c in columns]
    formats = []
    for name, a in zip(header, arrays):
        if a.dtype.kind == "b":
            raise TypeError(f"boolean column {name!r} is ambiguous; use 0/1 integers")
        if len(a) != len(arrays[0]):
            raise ValueError(
                f"column {name!r} has {len(a)} values; column {header[0]!r} has {len(arrays[0])}"
            )
        formats.append("%d" if a.dtype.kind in "iu" else "%.17g")
    template = ",".join(formats)
    rows = map(template.__mod__, zip(*[a.tolist() for a in arrays]))
    return "\n".join([",".join(header), *rows]) + "\n"


def json_text(doc) -> str:
    """Sorted-key JSON; numpy values print as their Python equivalents."""

    def plain(value):
        if isinstance(value, (np.generic, np.ndarray)):
            return value.tolist()
        raise TypeError(f"cannot export {type(value).__name__} value {value!r}")

    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=plain) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def susy_report_doc(l_angular, sequence_index, removed_level, radii,
                    plus_samples, minus_samples, spectrum_rows) -> dict:
    """Partner-hierarchy report: sampled potentials plus paired spectra.

    ``spectrum_rows`` holds (label, plus_energy, minus_energy_or_None); the
    missing minus entry marks the level the hierarchy removed.
    """
    return {
        "L": int(l_angular),
        "sequence_index": int(sequence_index),
        "removed_level": removed_level,
        "potential_samples": [
            {"r": float(r), "plus": float(p), "minus": float(m)}
            for r, p, m in zip(radii, plus_samples, minus_samples)
        ],
        "spectrum": [
            {
                "level": int(n),
                "plus": float(ep),
                "minus": None if em is None else float(em),
            }
            for n, ep, em in spectrum_rows
        ],
    }


def defect_model_doc(scales, l_angular, iterations, selector, delta,
                     spectrum_rows=None) -> dict:
    """Effective-model file: trap scales plus the four model parameters."""
    doc = {
        "trap_scales": {
            "mass": float(scales.mass),
            "omega0": float(scales.omega0),
            "energy_offset": float(scales.energy_offset),
            "hbar": float(scales.hbar),
        },
        "L": int(l_angular),
        "I": int(iterations),
        "S": int(selector),
        "delta": float(delta),
    }
    if spectrum_rows is not None:
        doc["spectrum"] = [
            {"level": int(n), "energy": float(e)} for n, e in spectrum_rows
        ]
    return doc


def eigen_diagnostics_doc(result) -> dict:
    """Solver provenance for one converged eigenvalue."""
    diag = dict(result.diagnostics)
    diag.pop("boundary_samples", None)
    return {
        "energy": float(result.energy),
        "node_count": int(result.node_count),
        "residual": float(result.residual),
        "n_points": int(result.radii.size),
        "r_min": float(result.radii[0]),
        "r_max": float(result.radii[-1]),
        "diagnostics": diag,
    }
