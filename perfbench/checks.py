"""Output checkers and the percentile rule used by the benchmark.

Every checker returns the number of output records it verified (CSV data
rows, JSON samples, ``key = value`` lines, verdict lines) and raises
:class:`CheckFailed` with a one-line reason when the output is wrong, so a
fast wrong answer counts as a failed operation, never as a fast one.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Documented exit codes of the trapspec CLI and the stderr prefix each one
# must carry (one line, no traceback).
ERROR_PREFIX = {2: "config error:", 3: "validation error:", 4: "oracle failure:"}


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expects."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of a non-empty sample.

    The rank ``q * (n - 1)`` is interpolated between its two neighbours, as in
    ``numpy.percentile``'s default, so the median of an even sample is the
    mean of the middle pair.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile rank must lie in [0, 1], got {q!r}")
    pos = q * (len(data) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def finite_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"cell {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def check_exit(expected: int, returncode: int, stderr: str) -> None:
    """The exit code is the expected one; an error exit prints one typed line."""
    if returncode != expected:
        first = stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"exit code {returncode}, expected {expected}: {first[0][:160]}")
    if expected == 0:
        return
    lines = stderr.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith(ERROR_PREFIX[expected]):
        raise CheckFailed(
            f"exit {expected} must print one line starting {ERROR_PREFIX[expected]!r}, "
            f"got {len(lines)} line(s)"
        )


def check_documented_error(returncode: int, stderr: str) -> None:
    """Any documented error exit (2, 3 or 4) with its one-line message."""
    if returncode not in ERROR_PREFIX:
        raise CheckFailed(f"exit code {returncode} is not a documented error code")
    check_exit(returncode, returncode, stderr)


def parse_csv(text: str, header=None, rows=None):
    """Header plus a float array; every cell finite, every row full width."""
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("empty table")
    head = lines[0].split(",")
    if header is not None and tuple(head) != tuple(header):
        raise CheckFailed(f"header {head} != {list(header)}")
    body = lines[1:]
    if rows is not None and len(body) != rows:
        raise CheckFailed(f"{len(body)} rows, expected {rows}")
    if any(line.count(",") != len(head) - 1 for line in body):
        raise CheckFailed(f"a row's width differs from the header width {len(head)}")
    try:
        table = np.array(",".join(body).split(",") if body else [], dtype=float)
    except ValueError:
        raise CheckFailed("a cell is not a number") from None
    if not np.all(np.isfinite(table)):
        raise CheckFailed("non-finite value in table")
    return head, table.reshape(len(body), len(head))


def parse_pairs(text: str) -> dict:
    """``name = value`` report; numeric values must be finite."""
    pairs = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if not sep:
            raise CheckFailed(f"malformed report line {line!r}")
        pairs[name] = value if name == "trap" else finite_number(value)
    if not pairs:
        raise CheckFailed("empty report")
    return pairs


def _require_finite(obj) -> None:
    """Reject a JSON document holding a non-finite number anywhere."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            _require_finite(value)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise CheckFailed(f"non-finite JSON number {obj!r}")


def parse_json(text: str) -> dict:
    def reject(token):
        raise CheckFailed(f"non-finite JSON token {token}")

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"malformed JSON: {exc}") from None
    _require_finite(doc)
    return doc


def trapezoid_norm(x, f) -> float:
    """``int f^2 dx`` over the tabulated grid, by the trapezoid rule."""
    return float(np.sum(0.5 * np.diff(x) * (f[1:] ** 2 + f[:-1] ** 2)))


def brute_shell_capacity(n: int) -> int:
    """States of the 3D isotropic oscillator with nx + ny + nz <= n."""
    return sum(
        1
        for nx in range(n + 1)
        for ny in range(n + 1 - nx)
        for nz in range(n + 1 - nx - ny)
    )


def brute_paul_count(e_tilde: int) -> int:
    """Paul states (N, M, K, spin) with N + 2K + 2 <= e_tilde, |M| <= N, N = |M| mod 2."""
    count = 0
    for n in range(e_tilde + 1):
        for m in range(-n, n + 1):
            if (n - abs(m)) % 2:
                continue
            count += sum(2 for k in range(e_tilde + 1) if n + 2 * k + 2 <= e_tilde)
    return count


def planar_level_count(max_n: int, max_k: int) -> int:
    """Rows of a planar spectrum: every (N, M) with |M| <= N, N = |M| mod 2, times K."""
    return sum(n + 1 for n in range(max_n + 1)) * (max_k + 1)


def spectrum_rows_3d(max_n: int) -> list[tuple[int, int]]:
    """(N, L) pairs of the isotropic oscillator, L = N, N-2, ..., >= 0."""
    return [(n, l) for n in range(max_n + 1) for l in range(n % 2, n + 1, 2)]
