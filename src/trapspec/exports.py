"""Deterministic text output: CSV/JSON formatting and atomic file writes.

Identical inputs must produce byte-identical files, so floats are printed
with 17 significant digits (enough to round-trip IEEE doubles), CSV always
carries a header row, uses '.' for decimals and ',' as separator, and JSON
keys are sorted.  Files are written to a temp name and renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


def fmt17(value: float) -> str:
    """Fixed float formatting: 17 significant digits, round-trip exact."""
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are ambiguous; use 0/1 integers")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt17(value)


def csv_text(header, rows) -> str:
    """Render a table; integer cells print bare, float cells via fmt17.

    A plain Python float is formatted in place (what fmt17 does to it);
    every other cell goes through the type checks of ``_cell``.
    """
    width = len(header)
    lines = [",".join(header)]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(",".join([format(v, ".17g") if type(v) is float else _cell(v)
                               for v in row]))
    return "\n".join(lines) + "\n"


def _rounded(obj):
    # Pass floats through fmt17 so emitted JSON numbers never carry more
    # than 17 significant digits regardless of how they were computed.
    if isinstance(obj, dict):
        return {k: _rounded(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        out = float(fmt17(obj))
        if not math.isfinite(out):
            raise ValueError(f"non-finite value {obj!r} cannot be exported as JSON")
        return out
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_rounded(v) for v in obj.tolist()]
    raise TypeError(f"cannot export {type(obj).__name__} value {obj!r}")


def json_text(doc) -> str:
    return json.dumps(_rounded(doc), indent=2, sort_keys=True) + "\n"


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


FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T")


def field_map_table(points, times, fields) -> str:
    """CSV for sampled field values: one row per (point, time)."""
    points = np.asarray(points, dtype=float)
    times = np.asarray(times, dtype=float)
    fields = np.asarray(fields, dtype=float)
    if fields.shape != points.shape or points.shape[0] != times.shape[0]:
        raise ValueError("points, times and fields must align row-for-row")
    rows = np.column_stack([points, times, fields]).tolist()
    return csv_text(FIELD_MAP_HEADER, rows)


def spectrum_table_3d(rows) -> str:
    """CSV of isotropic-trap levels: N, L, degeneracy, E, E/(hbar*omega0)."""
    header = ("N", "L", "degeneracy", "E_joules", "E_over_hbar_omega0")
    return csv_text(header, rows)


def spectrum_table_planar(rows) -> str:
    """CSV of planar-trap levels keyed by the three mode quantum numbers."""
    header = ("N", "M", "K", "E_joules")
    return csv_text(header, rows)


def wavefunction_table(abscissa_name, column_names, abscissa, columns) -> str:
    header = (abscissa_name,) + tuple(column_names)
    # Float arrays enter as Python floats, which csv_text formats directly.
    columns = [c.tolist() if isinstance(c, np.ndarray) and c.dtype.kind == "f" else c
               for c in (abscissa, *columns)]
    try:
        rows = list(zip(*columns, strict=True))
    except ValueError as exc:
        raise ValueError(f"columns must match the abscissa length: {exc}") from None
    return csv_text(header, rows)


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
        "diagnostics": _rounded(diag),
    }
