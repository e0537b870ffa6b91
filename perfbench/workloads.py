"""The three workloads: their inputs (drawn from the seed), runners and checks.

Each workload is a closed loop with a single caller: the next operation
starts only when the previous one has returned.

* ``verify-all``: every verification suite in-process, at its defaults.
* ``cli-session``: one fresh ``python -m trapspec.cli`` process per operation.
* ``bulk-tables``: large tables written in-process through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from checks import (
    CheckFailed,
    brute_paul_count,
    brute_shell_capacity,
    check_documented_error,
    check_exit,
    parse_csv,
    parse_json,
    parse_pairs,
    planar_level_count,
    spectrum_rows_3d,
    trapezoid_norm,
)

E_CHARGE = 1.602176634e-19
PARTICLE = {"magnetic_moment_J_per_T": 4.6e-24, "mass_kg": 1.44e-25}
# Bar and quadrupole currents that make the reference magnetic traps isotropic.
IP_BAR_TUNED = 25.50655355954369
TOP_QUAD_TUNED = 8.229511997978241

CONFIGS = {
    "ip": {
        "trap": "ioffe_pritchard", "units": "si", "particle": PARTICLE,
        "geometry": {
            "coil_radius_m": 0.02, "coil_halfspacing_m": 0.02, "coil_current_A": 100.0,
            "bar_distance_m": 0.01, "bar_current_A": IP_BAR_TUNED,
        },
    },
    "top": {
        "trap": "top", "units": "si", "particle": PARTICLE,
        "geometry": {
            "quad_radius_m": 0.02, "quad_halfspacing_m": 0.02, "quad_current_A": TOP_QUAD_TUNED,
            "bias_radius_m": 0.03, "bias_halfspacing_m": 0.03, "bias_current_A": 20.0,
            "bias_frequency_rad_per_s": 2.0 * math.pi * 1.0e4,
        },
    },
    "paul": {
        "trap": "paul", "units": "si",
        "geometry": {
            "voltage_V": 5.0, "size_m": 1.0e-3, "drive_rad_per_s": 2.0 * math.pi * 20.0e6,
            "charge_C": E_CHARGE, "mass_kg": 6.642156e-26,
        },
    },
    "penning": {
        "trap": "penning", "units": "si",
        "geometry": {
            "voltage_V": 10.0, "size_m": 3.0e-3, "axial_field_T": 5.0,
            "charge_C": E_CHARGE, "mass_kg": 6.642156e-26,
        },
    },
}
# The Ioffe-Pritchard trap with its bar current off the isotropy point.
CONFIGS["ip-untuned"] = {
    **CONFIGS["ip"], "geometry": {**CONFIGS["ip"]["geometry"], "bar_current_A": 20.0},
}
TRAP_KIND = {name: doc["trap"] for name, doc in CONFIGS.items()}
TUNED_CURRENT = {"ip": ("tuned_bar_current_A", IP_BAR_TUNED),
                 "top": ("tuned_quad_current_A", TOP_QUAD_TUNED)}
MAGNETIC = ("ip", "top")
PLANAR = ("paul", "penning")
TRAPS = MAGNETIC + PLANAR
CHEAP_SUITES = ("pauli-gap", "nodes", "combinatorics", "isotropy", "field-oracle")
FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T")
# Normalization of a tabulated state by the trapezoid rule; catches a wrong
# norm constant or a broken recurrence, far above the quadrature error.
NORM_TOL = 1e-4


@dataclass
class Op:
    """One operation: a CLI argument vector (or a suite name) and its check."""

    command: str
    argv: tuple
    check: Callable
    params: dict = field(default_factory=dict)
    known_defect: bool = False
    out: Optional[str] = None


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    value: object = None  # what an in-process call returned


# --------------------------------------------------------------------------
# Checks.  Each returns the number of records it verified.


def _table_text(op: Op, outcome: Outcome) -> str:
    if op.out is None:
        return outcome.stdout
    if outcome.stdout != f"wrote {op.out}\n":
        raise CheckFailed(f"expected 'wrote {op.out}', got {outcome.stdout[:80]!r}")
    return Path(op.out).read_text(encoding="utf-8")


def check_scales(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    pairs = parse_pairs(outcome.stdout)
    if pairs["trap"] != TRAP_KIND[op.params["config"]]:
        raise CheckFailed(f"trap {pairs['trap']!r} for config {op.params['config']}")
    if op.params["config"] in MAGNETIC:
        if abs(pairs["isotropy_residual"]) > 1e-6 or "omega0_rad_per_s" not in pairs:
            raise CheckFailed("tuned magnetic trap reported as anisotropic")
    return len(pairs)


def check_isotropy(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    pairs = parse_pairs(outcome.stdout)
    key, tuned = TUNED_CURRENT[op.params["config"]]
    if abs(pairs[key] - tuned) > 1e-9 * tuned or abs(pairs["isotropy_residual"]) > 1e-6:
        raise CheckFailed(f"{key} = {pairs[key]!r}, expected {tuned!r}")
    return len(pairs)


def check_field_map(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    p = op.params
    rows = p["points"] ** 3 * p["times"]
    _, table = parse_csv(_table_text(op, outcome), FIELD_MAP_HEADER, rows)
    if not np.all(np.linalg.norm(table[:, 4:7], axis=1) > 0.0):
        raise CheckFailed("field vanishes inside a trap that has a bias field")
    return rows


def check_spectrum(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    p = op.params
    text = _table_text(op, outcome)
    if p["config"] in MAGNETIC:
        labels = spectrum_rows_3d(p["max_n"])
        _, table = parse_csv(text, ("N", "L", "degeneracy", "E_over_hbar_omega0"), len(labels))
        n, l = table[:, 0], table[:, 1]
        if [tuple(map(int, row)) for row in table[:, :2]] != labels:
            raise CheckFailed("level labels differ from the (N, L) enumeration")
        if not np.array_equal(table[:, 2], 2 * l + 1) or not np.array_equal(table[:, 3], n + 1.5):
            raise CheckFailed("natural-unit levels are not exactly N + 3/2 with 2L+1 states")
        return len(table)
    rows = planar_level_count(p["max_n"], p["max_k"])
    _, table = parse_csv(text, ("N", "M", "K", "E_over_quantum"), rows)
    energy = table[:, 3]
    if np.any(np.diff(energy) < 0.0):
        raise CheckFailed("planar levels are not sorted by energy")
    if p["config"] == "paul":
        exact = table[:, 0] + 2.0 * table[:, 2] + 2.0
        if np.max(np.abs(energy - exact) / exact) > 1e-12:
            raise CheckFailed("Paul levels differ from N + 2K + 2 quanta")
    return rows


def check_out_to_missing_dir(op, outcome):
    """Writing into a missing directory is a documented error, or a valid table."""
    if outcome.returncode == 0:
        if not Path(op.out).is_file():
            raise CheckFailed("exit 0 but no file written")
        return check_spectrum(op, outcome)
    check_documented_error(outcome.returncode, outcome.stderr)
    return 0


def check_wavefunction(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    _, table = parse_csv(_table_text(op, outcome), rows=op.params["points"])
    if op.params.get("normalized", True):
        norm = trapezoid_norm(table[:, 0], table[:, 1])
        if abs(norm - 1.0) > NORM_TOL:
            raise CheckFailed(f"tabulated state integrates to {norm!r}, not 1")
    return len(table)


def check_susy(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    doc = parse_json(_table_text(op, outcome))
    samples, levels = doc["potential_samples"], doc["spectrum"]
    if doc["units"] != "natural" or len(samples) != op.params["samples"]:
        raise CheckFailed(f"{len(samples)} potential samples, expected {op.params['samples']}")
    if len(levels) != op.params["levels"] or levels[0]["minus"] is not None:
        raise CheckFailed("partner spectrum must list the removed level first")
    for row in levels[1:]:
        if abs(row["plus"] - row["minus"]) > 1e-9 * max(1.0, abs(row["plus"])):
            raise CheckFailed(f"partner levels differ at {row['level']}")
    return len(samples) + len(levels)


def check_defect(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    p = op.params
    doc = parse_json(outcome.stdout)
    levels = doc["spectrum"]
    if len(levels) != p["levels"]:
        raise CheckFailed(f"{len(levels)} levels, expected {p['levels']}")
    for j, row in enumerate(levels):
        n_s = p["l"] + 2 * p["iterations"] + 2 * j
        exact = n_s - p["iterations"] - p["delta"] + 1.5
        if row["level"] != n_s or abs(row["energy"] - exact) > 1e-12 * abs(exact):
            raise CheckFailed(f"shifted level {row} differs from {exact!r}")
    return len(levels)


def check_shells(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    p = op.params
    try:
        counts = [int(c) for c in outcome.stdout.strip().split(",")]
    except ValueError:
        raise CheckFailed(f"shell counts are not integers: {outcome.stdout[:80]!r}") from None
    if len(counts) != p["max_n"] + 1:
        raise CheckFailed(f"{len(counts)} shells, expected {p['max_n'] + 1}")
    if p["config"] in MAGNETIC:
        expected = [brute_shell_capacity(n) for n in range(p["max_n"] + 1)]
    elif p["config"] == "paul":
        expected = [brute_paul_count(e) for e in range(2, p["max_n"] + 3)]
    else:
        expected = sorted(counts)
        if counts[0] < 1:
            raise CheckFailed("the Penning ground shell holds no state")
    if counts != expected:
        raise CheckFailed(f"shell counts differ from enumeration: {counts[:6]} ...")
    return len(counts)


def check_verify_cli(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    lines = outcome.stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith(f"PASS {op.params['suite_name']}:") \
            or lines[1] != "1/1 suites passed":
        raise CheckFailed(f"suite did not pass: {outcome.stdout[:120]!r}")
    return 1


def check_error(op, outcome):
    check_exit(op.params["exit"], outcome.returncode, outcome.stderr)
    return 0


def check_suite(op, outcome):
    check_exit(0, outcome.returncode, outcome.stderr)
    results = outcome.value
    if len(results) != 1 or not results[0].passed:
        raise CheckFailed(f"suite {op.command} failed: {results[0].line() if results else '-'}")
    return 1


# --------------------------------------------------------------------------
# Operation lists.

SUITE_NAMES = {  # CLI suite argument -> name printed on its verdict line
    "pauli-gap": "pauli-gap", "nodes": "node-counts", "combinatorics": "combinatorics",
    "isotropy": "isotropy-tuning", "field-oracle": "field-oracle",
}


def write_configs(work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in CONFIGS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def verify_all_ops(rng: random.Random, work: Path) -> list[Op]:
    """The ten suites in criterion order; they have no inputs to draw."""
    from trapspec.verification import SUITE_ORDER

    return [Op(name, (name,), check_suite) for name in SUITE_ORDER]


# Small instances of the four costliest suites (the rest run whole): they
# touch every code path (Numerov, quadrature, root finding) in a few seconds,
# where a full warm-up pass would double the run.
VERIFY_WARM_UP = {
    "spectrum": {"max_n": 4, "max_l": 2}, "susy": {"l_values": (0,), "levels": 2},
    "planar": {"max_n": 1, "max_k": 1, "max_abs_m": 1}, "orthonormality": {"max_n": 4},
}


def verify_all_warm_up(ops: list[Op]) -> list[Op]:
    return [Op(op.command, op.argv, op.check, {"kwargs": VERIFY_WARM_UP.get(op.command, {})})
            for op in ops]


def cli_session_ops(rng: random.Random, work: Path) -> list[Op]:
    """One op per command (two for spectrum: 3D and planar), plus the two
    documented error paths and the three known defects.  Table sizes are
    fixed and the seed draws only configs, quantum numbers and the order, so
    every seed's session costs about the same and writes the same rows."""
    cfg = write_configs(work)
    ops = []

    c = rng.choice(TRAPS)
    ops.append(Op("scales", ("scales", "--config", cfg[c]), check_scales, {"config": c}))

    # 9^3 points at one time (IP) or 5^3 points at six times (TOP): ~740 rows.
    c = rng.choice(MAGNETIC)
    points, times = (9, 1) if c == "ip" else (5, 6)
    argv = ("field-map", "--config", cfg[c], "--points", str(points))
    if c == "top":
        argv += ("--time-samples", str(times))
    ops.append(Op("field-map", argv, check_field_map,
                  {"config": c, "points": points, "times": times}))

    c = rng.choice(MAGNETIC)
    ops.append(Op("isotropy", ("isotropy", "--config", cfg[c]), check_isotropy, {"config": c}))

    c = rng.choice(MAGNETIC)
    ops.append(Op("spectrum", ("spectrum", "--config", cfg[c], "--max-n", "40",
                               "--natural-units"),
                  check_spectrum, {"config": c, "max_n": 40}))
    c = rng.choice(PLANAR)
    ops.append(Op("spectrum", ("spectrum", "--config", cfg[c], "--max-n", "30",
                               "--max-k", "12", "--natural-units"),
                  check_spectrum, {"config": c, "max_n": 30, "max_k": 12}))

    c = rng.choice(TRAPS)
    argv = ("wavefunction", "--config", cfg[c], "--points", "20001", "--r-max", "12",
            "--natural-units")
    if c in MAGNETIC:
        l = rng.randint(0, 4)
        argv += ("--n-level", str(l + 2 * rng.randint(0, 10)), "--l-angular", str(l))
    elif rng.random() < 0.5:
        m = rng.randint(0, 3)
        argv += ("--n-level", str(m + 2 * rng.randint(0, 8)), "--m-azimuthal", str(m))
    else:
        argv += ("--n-level", "0", "--k-axial", str(rng.randint(0, 30)), "--axis", "axial")
    ops.append(Op("wavefunction", argv, check_wavefunction, {"points": 20001}))

    c = rng.choice(TRAPS)
    ops.append(Op("susy", ("susy", "--config", cfg[c], "--l-angular", str(rng.randint(0, 3)),
                           "--iterations", str(rng.randint(0, 2)), "--levels", "6",
                           "--samples", "2000", "--natural-units"),
                  check_susy, {"samples": 2000, "levels": 6}))

    c = rng.choice(MAGNETIC)
    p = {"l": rng.randint(0, 3), "iterations": rng.randint(0, 2),
         "delta": round(rng.uniform(-0.5, 0.9), 3), "levels": 20}
    ops.append(Op("defect", ("defect", "--config", cfg[c], "--l-angular", str(p["l"]),
                             "--iterations", str(p["iterations"]), "--delta", str(p["delta"]),
                             "--levels", "20", "--natural-units"),
                  check_defect, p))

    # Penning shell counts cost several times the others, so they are left out.
    c = rng.choice(("ip", "top", "paul"))
    ops.append(Op("shells", ("shells", "--trap", TRAP_KIND[c], "--max-N", "40"),
                  check_shells, {"config": c, "max_n": 40}))

    suite = rng.choice(CHEAP_SUITES)
    ops.append(Op("verify", ("verify", "--suite", suite), check_verify_cli,
                  {"suite_name": SUITE_NAMES[suite]}))

    # Documented error paths: they must fail the documented way.
    ops.append(Op("scales", ("scales", "--config", str(work / "missing.json")),
                  check_error, {"exit": 2}))
    ops.append(Op("spectrum", ("spectrum", "--config", cfg["ip-untuned"]),
                  check_error, {"exit": 3}))

    # Known defects at the time the benchmark was written: valid inputs that
    # print nan, and an unwritable --out that escapes as a traceback.  The
    # default 501 points cannot resolve N = 400 or K = 300, so only
    # finiteness is checked on the first two.
    ops.append(Op("wavefunction", ("wavefunction", "--config", cfg["ip"], "--n-level", "400",
                                   "--r-max", "60", "--natural-units"),
                  check_wavefunction, {"points": 501, "normalized": False}, known_defect=True))
    ops.append(Op("wavefunction", ("wavefunction", "--config", cfg["paul"], "--n-level", "0",
                                   "--k-axial", "300", "--axis", "axial", "--natural-units"),
                  check_wavefunction, {"points": 501, "normalized": False}, known_defect=True))
    missing = str(work / "missing-dir" / "x.csv")
    ops.append(Op("spectrum", ("spectrum", "--config", cfg["ip"], "--natural-units",
                               "--out", missing),
                  check_out_to_missing_dir, {"config": "ip", "max_n": 8},
                  known_defect=True, out=missing))
    rng.shuffle(ops)
    return ops


def bulk_tables_ops(rng: random.Random, work: Path) -> list[Op]:
    """One large table of each kind, written with --out."""
    cfg = write_configs(work)
    ops = []

    def add(command, argv, check, params, suffix):
        out = str(work / f"table-{len(ops)}.{suffix}")
        ops.append(Op(command, argv + ("--out", out), check, params, out=out))

    add("field-map", ("field-map", "--config", cfg["ip"], "--points", "9", "--oracle"),
        check_field_map, {"points": 9, "times": 1}, "csv")
    add("field-map", ("field-map", "--config", cfg["top"], "--points", "5",
                      "--time-samples", "8", "--oracle"),
        check_field_map, {"points": 5, "times": 8}, "csv")
    add("field-map", ("field-map", "--config", cfg["top"], "--points", "15",
                      "--time-samples", "16"),
        check_field_map, {"points": 15, "times": 16}, "csv")

    c, l = rng.choice(MAGNETIC), rng.randint(0, 6)
    n = l + 2 * rng.randint((40 - l) // 2, (60 - l) // 2)
    add("wavefunction", ("wavefunction", "--config", cfg[c], "--n-level", str(n),
                         "--l-angular", str(l), "--points", "100000", "--r-max", "16",
                         "--natural-units"),
        check_wavefunction, {"points": 100000}, "csv")
    c = rng.choice(PLANAR)
    add("wavefunction", ("wavefunction", "--config", cfg[c], "--n-level", "0",
                         "--k-axial", str(rng.randint(60, 80)), "--axis", "axial",
                         "--points", "100000", "--r-max", "16", "--natural-units"),
        check_wavefunction, {"points": 100000}, "csv")

    c = rng.choice(PLANAR)
    add("spectrum", ("spectrum", "--config", cfg[c], "--max-n", "40", "--max-k", "20",
                     "--natural-units"),
        check_spectrum, {"config": c, "max_n": 40, "max_k": 20}, "csv")

    c = rng.choice(TRAPS)
    add("susy", ("susy", "--config", cfg[c], "--l-angular", str(rng.randint(0, 3)),
                 "--levels", "6", "--samples", "5000", "--natural-units"),
        check_susy, {"samples": 5000, "levels": 6}, "json")
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# Runners.


def subprocess_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_subprocess(op: Op, env: dict, cwd: Path) -> Outcome:
    """One fresh interpreter running the CLI; the next starts after it ends."""
    proc = subprocess.run(
        [sys.executable, "-m", "trapspec.cli", *op.argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return Outcome(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(op: Op, tracer=None) -> Outcome:
    """``cli.main`` in this process; an escaping exception is exit code 1."""
    from trapspec import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{op.command}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span:
                code = cli.main(list(op.argv))
        except Exception:  # the CLI's contract is a typed exit code, not a traceback
            code = 1
            traceback.print_exc()
    return Outcome(code, out.getvalue(), err.getvalue())


def run_suite_op(op: Op, tracer=None) -> Outcome:
    from trapspec import verification

    try:
        value = verification.run_suite(op.command, **op.params.get("kwargs", {}))
        code, err = 0, ""
    except Exception:  # a suite that raises is a failed op
        value, code, err = None, 1, traceback.format_exc()
    return Outcome(code, "", err, value)


@dataclass(frozen=True)
class Workload:
    build_ops: Callable
    warm_up: Callable  # ops -> the ops run, untimed, before timing starts
    runner: Callable  # in-process runner; the traced run always uses it
    in_process: bool  # False: the untraced run starts a fresh CLI process per op


WORKLOADS = {
    "verify-all": Workload(verify_all_ops, verify_all_warm_up, run_suite_op, True),
    "cli-session": Workload(cli_session_ops, lambda ops: ops[:1], run_in_process, False),
    "bulk-tables": Workload(bulk_tables_ops, lambda ops: ops, run_in_process, True),
}
