"""Command-line interface: trap design, spectra, wavefunctions, verification.

Every command reads a JSON run configuration (where one is needed), prints
a deterministic report to stdout, and optionally writes CSV/JSON artifacts
atomically.  Exit codes: 0 success, 1 stdout closed by its reader, 2
configuration error, 3 validation failure (or a table too large to
allocate), 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

# The modules only some commands use are read as attributes at call time, and
# numpy is imported only where an array is built, so a command runs only the
# modules on its own path (see the package docstring).
from . import defect, exports, fields, planar, susy, verification
from .config import MAGNETIC_TRAPS, TRAP_KINDS, RunConfig, load_config
from .errors import ConfigError, DomainError, OracleError
from .oscillator3d import (
    OscillatorScales,
    _tower_level,
    radial_wavefunction_3d,
    shell_capacity,
)

# An Ioffe-Pritchard or TOP potential is only a single isotropic oscillator
# when the currents are tuned; beyond this residual the level structure the
# spectrum/susy/defect commands tabulate does not apply.
ISOTROPY_WINDOW = 1e-6
# Most shells one `shells` call tabulates: 1e6 comma-separated counts are ~17 MB.
MAX_SHELLS = 10**6
# Most levels one `susy` or `defect` report lists: 1e5 susy levels are ~8.5 MB of JSON.
MAX_LEVELS = 10**5
# Most potential samples one `susy` report lists: 1e6 samples are ~112 MB of JSON.
MAX_SAMPLES = 10**6
# Most grid points one `wavefunction` table holds: 1e6 rows are ~42 MB of CSV.
MAX_POINTS = 10**6
# Most rows one `field-map` table holds: 1e6 rows are ~160 MB of CSV.
MAX_FIELD_MAP_ROWS = 10**6
# Largest tower label a table of several levels may reach: past 2^53 a float
# no longer holds every integer, so levels two labels apart can round to one.
MAX_EXACT_LABEL = 2**53
# Most rows a spectrum table builds from Python numbers, without numpy: this
# many take at most 14 ms to build and print that way, against 45 ms to load
# numpy (one pinned CPU of a 2-core x86-64 host).  A larger table is built as
# arrays, and so is one with a non-finite number, whose error and warnings
# the arrays give.
SMALL_TABLE_ROWS = 10**4


class _SuiteHelpFormatter(argparse.HelpFormatter):
    """Names the verification suites in ``--suite``'s help only when help is
    printed, so that building the parser does not run the verification module."""

    def _get_help_string(self, action):
        if action.dest == "suite":
            return action.help + ", ".join(verification.SUITE_ORDER)
        return action.help


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapspec",
        description="Analytic trapped-particle models with numerical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def with_config(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        return p

    def with_units(p):
        p.add_argument(
            "--natural-units", action="store_true",
            help="report dimensionless values (lengths per r0, energies per quantum)",
        )
        return p

    with_config(sub.add_parser("scales", help="derived trap scales"))

    p = with_config(sub.add_parser("field-map", help="sample the series field on a grid"))
    p.add_argument("--out", help="CSV destination (stdout when omitted)")
    p.add_argument("--extent-fraction", type=float, default=0.05,
                   help="half-width of the cube in units of the coil scale")
    p.add_argument("--points", type=int, default=5, help="grid points per axis")
    p.add_argument("--time-samples", type=int, default=8,
                   help="samples over one drive period (rotating-bias trap only)")
    p.add_argument("--oracle", action="store_true",
                   help="use conductor-level summation instead of the series")

    with_config(sub.add_parser("isotropy", help="isotropy residual and tuned current"))

    p = with_units(with_config(sub.add_parser("spectrum", help="level table")))
    p.add_argument("--out", help="CSV destination (stdout when omitted)")
    p.add_argument("--max-n", type=int, default=8, help="largest principal level")
    p.add_argument("--max-k", type=int, default=3, help="largest axial level (planar)")

    p = with_units(with_config(sub.add_parser("wavefunction", help="tabulate one eigenfunction")))
    p.add_argument("--out", help="CSV destination (stdout when omitted)")
    p.add_argument("--n-level", type=int, required=True, help="principal level N")
    p.add_argument("--l-angular", type=int, default=0, help="angular momentum L (3D traps)")
    p.add_argument("--m-azimuthal", type=int, default=0, help="azimuthal M (planar traps)")
    p.add_argument("--k-axial", type=int, default=0, help="axial K (planar traps)")
    p.add_argument("--axis", choices=("radial", "axial"), default="radial",
                   help="which planar factor to tabulate")
    p.add_argument("--r-max", type=float, default=10.0,
                   help="grid end in units of the oscillator length")
    p.add_argument("--points", type=int, default=501, help="number of grid points")

    p = with_units(with_config(sub.add_parser("susy", help="partner-hierarchy report")))
    p.add_argument("--out", help="JSON destination (stdout when omitted)")
    p.add_argument("--l-angular", type=int, default=0,
                   help="tower index: L for 3D traps, |M| for planar traps")
    p.add_argument("--iterations", type=int, default=0,
                   help="completed ladder steps before this pair")
    p.add_argument("--levels", type=int, default=6, help="levels per spectrum column")
    p.add_argument("--samples", type=int, default=25, help="potential sample count")

    p = with_units(with_config(sub.add_parser("defect", help="quantum-defect model file")))
    p.add_argument("--out", help="JSON destination (stdout when omitted)")
    p.add_argument("--l-angular", type=int, default=0, help="angular momentum L")
    p.add_argument("--delta", type=float, required=True, help="level shift of the tower")
    p.add_argument("--iterations", type=int, default=0, help="ladder steps already applied")
    p.add_argument("--selector", type=int, default=0, choices=(0, 1),
                   help="partner member used on reconstruction")
    p.add_argument("--levels", type=int, default=6, help="tower levels to tabulate")

    p = sub.add_parser("shells", help="cumulative state counts")
    p.add_argument("--trap", required=True,
                   choices=TRAP_KINDS)
    p.add_argument("--max-n", "--max-N", dest="max_n", type=int, required=True,
                   help="largest shell index")
    p.add_argument("--config",
                   help="run configuration, checked against --trap (needed for penning counts)")

    p = sub.add_parser("verify", help="run built-in verification suites",
                       formatter_class=_SuiteHelpFormatter)
    p.add_argument("--suite", default="all", help="'all' or one of: ")
    p.add_argument("--L", "--l-angular", dest="l_angular", type=int, default=None,
                   help="restrict the partner-degeneracy suite to one L")

    return parser


# --------------------------------------------------------------------------
# Shared helpers.


def _check_destination(args) -> None:
    """Refuse an ``--out`` whose directory does not exist, before the command
    computes anything; any other fault of the destination shows as it is written."""
    if getattr(args, "out", None):
        try:
            os.stat(os.path.dirname(os.path.abspath(args.out)))
        except FileNotFoundError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from exc
        except OSError:
            pass


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            exports.write_text_atomic(args.out, text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _print_pairs(pairs) -> None:
    for name, value in pairs:
        if isinstance(value, str):
            print(f"{name} = {value}")
        else:
            print(f"{name} = {exports.fmt17(value)}")


def _natural_mode(cfg: RunConfig, args) -> bool:
    return cfg.units == "natural" or getattr(args, "natural_units", False)


def _check_labels(tower: int, first: int, levels: int) -> None:
    """Refuse a table of several levels, labels ``first + 2j``, past :data:`MAX_EXACT_LABEL`."""
    if levels > 1 and first + 2 * (levels - 1) > MAX_EXACT_LABEL:
        raise DomainError(
            f"tower index {tower:.3g} with {levels} levels reaches labels past 2^53, "
            "where a float cannot tell levels apart"
        )


def _check_most(option: str, value: int, least: int, most: int) -> None:
    """Refuse ``value`` above ``most``; ``least`` is the smallest value the option admits."""
    if value > most:
        raise DomainError(f"{option} must lie in [{least}, {most}], got {value}")


def _require_trap(cfg: RunConfig, kinds, command: str) -> None:
    if cfg.trap not in kinds:
        raise DomainError(
            f"command '{command}' supports trap kinds {', '.join(kinds)}; "
            f"config declares '{cfg.trap}'"
        )


# --------------------------------------------------------------------------
# Trap objects: what the commands need from a configured trap, in one shape
# for the magnetic traps and one for the planar traps.


class _Magnetic:
    """An Ioffe-Pritchard or TOP trap, tuned or not."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.geometry = cfg.build_geometry()
        self.scales = self.derive(self.geometry)
        # A coil pair too flat to confine raises.
        self.residual = fields.isotropy_residual(self.scales)

    @property
    def oscillator(self) -> OscillatorScales:
        """Isotropic-oscillator scales; only a tuned trap has them."""
        if abs(self.residual) > ISOTROPY_WINDOW:
            raise DomainError(
                f"trap is anisotropic (isotropy residual {self.residual:.3e}); solve the "
                "tuning current first (see the isotropy command)"
            )
        return fields.oscillator_scales(
            self.cfg.build_particle(), self.scales.field, self.scales.isotropic_radius
        )

    def scale_rows(self):
        scales, residual = self.scales, self.residual
        rows = [
            ("length_m", scales.length),
            ("curvature_area_m2", scales.area),
            ("field_T", scales.field),
            ("gradient_T_per_m", scales.gradient),
            ("isotropy_residual", residual),
            ("isotropic_radius_m", scales.isotropic_radius),
        ]
        if scales.bias_frequency:  # a rotating bias only
            rows.append(("bias_frequency_rad_per_s", scales.bias_frequency))
        if abs(residual) <= ISOTROPY_WINDOW:
            osc = self.oscillator
            rows += [
                ("omega0_rad_per_s", osc.omega0),
                ("oscillator_length_m", osc.r0),
                ("energy_offset_J", osc.energy_offset),
            ]
        return rows

    def spectrum_table(self, max_n: int, max_k: int, natural: bool) -> str:
        osc = self.oscillator  # an untuned trap raises here, before numpy loads
        # The trap-referenced level (E - mu B0) in quanta is exactly N + 3/2;
        # recomputing it from the joule value would shed seven digits to
        # cancellation.
        header = ["N", "L", "degeneracy", "E_over_hbar_omega0"]
        if not natural:
            header.insert(3, "E_joules")
        # Level N holds L = N % 2, N % 2 + 2, ..., N.
        half = max_n // 2 + 1
        if half * (half + max_n % 2) <= SMALL_TABLE_ROWS:
            n = [N for N in range(max_n + 1) for _ in range(N // 2 + 1)]
            l = [L for N in range(max_n + 1) for L in range(N % 2, N + 1, 2)]
            columns = [n, l, [2 * L + 1 for L in l], [N + 1.5 for N in n]]
            if not natural:
                columns.insert(3, [_tower_level(osc, N) for N in n])
            if all(map(math.isfinite, columns[3])):
                return exports.csv_text(header, *columns)
        import numpy as np
        # int64 arrays, so a table too large to allocate raises MemoryError.
        counts = np.arange(max_n + 1) // 2 + 1
        n = np.repeat(np.arange(max_n + 1), counts)
        l = n % 2 + 2 * (np.arange(len(n)) - np.repeat(np.cumsum(counts) - counts, counts))
        columns = [n, l, 2 * l + 1, n + 1.5]
        if not natural:
            columns.insert(3, _tower_level(osc, n))
        return exports.csv_text(header, *columns)

    def wavefunction(self, args):
        if args.axis == "axial":
            raise DomainError("--axis axial applies to Paul and Penning traps")
        factor = radial_wavefunction_3d(self.oscillator, args.n_level, args.l_angular)
        return factor, 0.0, "r", "W", "r0"

    def partner(self, tower: int):
        osc = self.oscillator
        return susy.partner_pair(tower, osc)


class _IoffePritchard(_Magnetic):
    tuned_row = "tuned_bar_current_A"

    def derive(self, geometry):
        return fields.ip_scales(geometry)

    def solve(self, geometry):
        return fields.solve_bar_current(geometry)

    def series(self, x, y, z, t):
        return fields.ip_field_cartesian(self.scales, x, y, z)

    def assembly(self, t):
        return fields.TrapAssembly.ioffe_pritchard(self.geometry)


class _Top(_Magnetic):
    tuned_row = "tuned_quad_current_A"

    def derive(self, geometry):
        return fields.top_scales(geometry)

    def solve(self, geometry):
        return fields.solve_quad_current(geometry)

    def series(self, x, y, z, t):
        return fields.top_field_series(self.scales, x, y, z, t)

    def assembly(self, t):
        return fields.TrapAssembly.top(self.geometry, t)


class _Planar:
    """A Paul or Penning trap; its states are labeled (N, M, K) in that order."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.freqs = self.frequencies(cfg.build_geometry())

    def spectrum_table(self, max_n: int, max_k: int, natural: bool) -> str:
        if max_k < 0:
            raise DomainError("--max-k must be nonnegative")
        header = ("N", "M", "K", "E_over_quantum" if natural else "E_joules")
        unit = self.quantum if natural else 1.0  # x / 1.0 is x exactly
        if (max_n + 1) * (max_n + 2) // 2 * (max_k + 1) <= SMALL_TABLE_ROWS and unit:
            n, m, k, e = planar.spectrum_lists(self.freqs, max_n, max_k)
            e = [x / unit for x in e]
            if all(map(math.isfinite, e)):
                return exports.csv_text(header, n, m, k, e)
        n, m, k, e = planar.spectrum(self.freqs, max_n, max_k)
        return exports.csv_text(header, n, m, k, e / self.quantum if natural else e)

    def wavefunction(self, args):
        state = self.state(args.n_level, args.m_azimuthal, args.k_axial)
        if args.axis == "axial":
            return state.axial, -args.r_max, "z", "X", "scale"
        return state.radial, 0.0, "rho", "X", "scale"

    def partner(self, abs_m: int):
        return planar.planar_partner(self.freqs, abs_m)


class _Paul(_Planar):
    def frequencies(self, geometry):
        return planar.paul_frequencies(geometry)

    @property
    def quantum(self) -> float:
        return self.freqs.quantum

    def state(self, n: int, m: int, k: int):
        return planar.paul_wavefunctions(self.freqs, n, m, k)

    def scale_rows(self):
        f = self.freqs
        return [
            ("quadrupole_rad_per_s", f.quadrupole),
            ("secular_rad_per_s", f.secular),
            ("drive_rad_per_s", f.drive),
            ("drive_ratio", f.drive_ratio),
            ("radial_length_m", f.radial_scales.r0),
            ("quantum_J", f.quantum),
        ]


class _Penning(_Planar):
    def frequencies(self, geometry):
        return planar.penning_frequencies(geometry)

    @property
    def quantum(self) -> float:
        return self.freqs.hbar * self.freqs.hybrid

    def state(self, n: int, m: int, k: int):
        return planar.penning_wavefunction(self.freqs, n, k, m)

    def scale_rows(self):
        f = self.freqs
        return [
            ("axial_rad_per_s", f.axial),
            ("cyclotron_rad_per_s", f.cyclotron),
            ("hybrid_rad_per_s", f.hybrid),
            ("tuning_k", f.tuning),
            ("radial_length_m", f.radial_scales.r0),
            ("axial_length_m", f.axial_scales.r0),
        ]


# The trap object of each kind.
_TRAP_OBJECTS = {
    "ioffe_pritchard": _IoffePritchard,
    "top": _Top,
    "paul": _Paul,
    "penning": _Penning,
}


# Commands that only apply to a magnetic trap.
MAGNETIC_COMMANDS = ("field-map", "isotropy", "defect")


def _load_trap(args):
    """Load ``--config`` and build the trap object of its kind."""
    cfg = load_config(args.config)
    if args.command in MAGNETIC_COMMANDS:
        _require_trap(cfg, MAGNETIC_TRAPS, args.command)
    return _TRAP_OBJECTS[cfg.trap](cfg)


# --------------------------------------------------------------------------
# Command handlers.


def _cmd_scales(args) -> int:
    trap = _load_trap(args)
    _print_pairs([("trap", trap.cfg.trap), *trap.scale_rows()])
    return 0


def _cmd_field_map(args) -> int:
    trap = _load_trap(args)
    if args.points < 2 or args.extent_fraction <= 0.0:
        raise DomainError("field-map needs at least 2 points per axis and a positive extent")
    # One row per grid point and drive time; only a rotating bias has more than one time.
    omega = trap.scales.bias_frequency
    samples = args.time_samples if omega else 1
    if args.points ** 3 * samples > MAX_FIELD_MAP_ROWS:
        raise DomainError(f"field-map of {args.points}^3 points at {samples} times exceeds "
                          f"{MAX_FIELD_MAP_ROWS} rows")
    if samples < 1:
        raise DomainError("field-map needs at least one time sample")
    import numpy as np
    times = np.arange(samples) * (2.0 * math.pi / omega) / samples if omega else np.array([0.0])
    # A huge extent overflows the coordinates or the field; say so instead
    # of printing inf and nan.
    with np.errstate(over="ignore", invalid="ignore"):
        half = args.extent_fraction * trap.scales.length
        axis = np.linspace(-half, half, args.points)
        xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
        points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        # Rows run over the points of the first time, then of the next.
        if args.oracle:
            assemblies = tuple(trap.assembly(t) for t in times)
            field = fields.biot_savart_field(assemblies, points).reshape(-1, 3)
        else:
            field = np.vstack([trap.series(*points.T, t) for t in times])
    if not (np.isfinite(points).all() and np.isfinite(field).all()):
        raise DomainError(f"--extent-fraction {args.extent_fraction:g} gives non-finite "
                          "field-map coordinates or fields")
    # Rows run over x, then y, then z, then time, slowest first; the
    # coordinates and times take few values, so each is formatted once.
    it, ix, iy, iz = np.indices((len(times), *[args.points] * 3)).reshape(4, -1)
    _emit(args, exports.csv_text(
        ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T"),
        *(exports.Shared(axis, i) for i in (ix, iy, iz)), exports.Shared(times, it), *field.T,
    ))
    return 0


def _cmd_isotropy(args) -> int:
    trap = _load_trap(args)
    scales = trap.scales
    _print_pairs([
        ("trap", trap.cfg.trap),
        ("isotropy_residual", trap.residual),
        ("gradient_target_T_per_m", scales.field * math.sqrt(scales.isotropy_target)),
        ("isotropic_radius_m", scales.isotropic_radius),
        (trap.tuned_row, trap.solve(trap.geometry)),
    ])
    return 0


def _cmd_spectrum(args) -> int:
    trap = _load_trap(args)
    natural = _natural_mode(trap.cfg, args)
    if args.max_n < 0:
        raise DomainError("--max-n must be nonnegative")
    _emit(args, trap.spectrum_table(args.max_n, args.max_k, natural))
    return 0


def _cmd_wavefunction(args) -> int:
    trap = _load_trap(args)
    natural = _natural_mode(trap.cfg, args)
    if args.points < 2 or args.r_max <= 0.0:
        raise DomainError("wavefunction needs at least 2 points and a positive --r-max")
    _check_most("--points", args.points, 2, MAX_POINTS)

    # One table for every factor, W(r), X(rho) or Z(z), on the factor's own r0.
    factor, start, name, column, scale = trap.wavefunction(args)
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as one error
        grid = np.linspace(start, args.r_max, args.points) * factor.r0
    if not np.isfinite(grid).all():
        raise DomainError(f"--r-max {args.r_max:g} gives non-finite wavefunction grid points")
    values = factor(grid)
    if natural:
        text = exports.csv_text((f"{name}_over_{scale}", f"{column}_times_sqrt_{scale}"),
                                grid / factor.r0, values * math.sqrt(factor.r0))
    else:
        text = exports.csv_text((f"{name}_m", f"{column}_per_sqrt_m"), grid, values)
    _emit(args, text)
    return 0


def _cmd_susy(args) -> int:
    trap = _load_trap(args)
    natural = _natural_mode(trap.cfg, args)
    tower = args.l_angular
    i0 = args.iterations
    if tower < 0 or i0 < 0:
        raise DomainError("tower index and iteration count must be nonnegative")
    if args.levels < 1 or args.samples < 2:
        raise DomainError("susy needs at least one level and two potential samples")
    _check_most("--levels", args.levels, 1, MAX_LEVELS)
    _check_most("--samples", args.samples, 2, MAX_SAMPLES)
    _check_labels(tower, tower + 2 * i0, args.levels)

    # The pair after i0 ladder steps sits at tower index L + i0 (3D) or
    # |M| + i0 - 1/2 (planar); its tower label lam + 2j is the base-tower
    # label removed + 2j.
    pair = trap.partner(tower + i0)
    lam, length, quantum = pair.l_angular, pair.scales.r0, pair.scales.quantum
    plus_pot = susy.tower_potential(lam, pair.scales, quantum * (lam + 1.5))
    minus_pot = susy.tower_potential(lam + 1.0, pair.scales, quantum * (lam + 0.5))
    removed = tower + 2 * i0
    unit = quantum if natural else 1.0  # x / 1.0 is x exactly
    spectrum = [
        {
            "level": removed + 2 * j,
            "plus": pair.plus_spectrum(lam + 2 * j) / unit,
            "minus": None if j == 0 else pair.minus_spectrum(lam + 2 * j) / unit,
        }
        for j in range(args.levels)
    ]

    import numpy as np
    radii = np.geomspace(0.1, 6.0, args.samples) * length
    plus_samples = np.asarray(plus_pot(radii), dtype=float)
    minus_samples = np.asarray(minus_pot(radii), dtype=float)
    if natural:
        radii = radii / length
        with np.errstate(over="ignore"):  # an overflow is reported below, as one error
            plus_samples = plus_samples / quantum
            minus_samples = minus_samples / quantum
    if not (np.isfinite(plus_samples).all() and np.isfinite(minus_samples).all()):
        raise DomainError(f"tower index {tower:.3g} overflows the partner potentials")
    _emit(args, exports.json_text({
        "L": tower,
        "sequence_index": i0,
        "removed_level": removed,
        "units": "natural" if natural else "si",
        "potential_samples": [
            {"r": r, "plus": plus, "minus": minus}
            for r, plus, minus in zip(radii.tolist(), plus_samples.tolist(),
                                      minus_samples.tolist())
        ],
        "spectrum": spectrum,
    }))
    return 0


def _cmd_defect(args) -> int:
    trap = _load_trap(args)
    natural = _natural_mode(trap.cfg, args)
    if args.levels < 1:
        raise DomainError("--levels must be positive")
    _check_most("--levels", args.levels, 1, MAX_LEVELS)
    _check_labels(args.l_angular, args.l_angular + 2 * args.iterations, args.levels)
    osc = trap.oscillator
    model = defect.EffectiveModel(
        l_angular=args.l_angular, iterations=args.iterations,
        selector=args.selector, delta=args.delta, scales=osc,
    )
    start = args.l_angular + 2 * args.iterations
    spectrum = []
    for n_s in range(start, start + 2 * args.levels, 2):
        if natural:  # exactly N* + 3/2 in quanta; avoids cancellation against mu B0
            energy = n_s - model.iterations - model.delta + 1.5
        else:
            energy = defect.defect_energy(model, n_s)
        spectrum.append({"level": n_s, "energy": energy})
    _emit(args, exports.json_text({
        "trap_scales": {
            "mass": float(osc.mass),  # a config may give an integer mass_kg
            "omega0": osc.omega0,
            "energy_offset": osc.energy_offset,
            "hbar": osc.hbar,
        },
        "L": model.l_angular,
        "I": model.iterations,
        "S": model.selector,
        "delta": model.delta,
        "units": "natural" if natural else "si",
        "spectrum": spectrum,
    }))
    return 0


def _cmd_shells(args) -> int:
    if not 0 <= args.max_n <= MAX_SHELLS:
        raise DomainError(f"--max-n must lie in [0, {MAX_SHELLS}], got {args.max_n}")
    if args.config:
        cfg = load_config(args.config)
        _require_trap(cfg, (args.trap,), f"shells --trap {args.trap}")
    elif args.trap == "penning":
        raise ConfigError("penning shell counts depend on the frequency tuning; pass --config")
    if args.trap in MAGNETIC_TRAPS:
        counts = [shell_capacity(n) for n in range(args.max_n + 1)]
    elif args.trap == "paul":
        counts = [planar.paul_shell_count(e) for e in range(2, args.max_n + 3)]
    else:
        import numpy as np
        freqs = planar.penning_frequencies(cfg.build_geometry())
        ground = planar.penning_energy(freqs, 0, 0, 0)
        caps = ground + np.arange(args.max_n + 1) * freqs.hbar * freqs.axial
        counts = planar.penning_state_count(freqs, caps).tolist()
    print(",".join(str(c) for c in counts))
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.l_angular is not None:
        if args.suite != "susy":
            raise ConfigError("--l-angular only applies to the susy suite")
        kwargs["l_values"] = (args.l_angular,)
    scale = verification.tolerance_scale()
    if scale != 1.0:
        warnings.warn(f"TRAPSPEC_TOL_SCALE={scale:g} scales every numeric tolerance")
    results = verification.run_suite(args.suite, **kwargs)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 3 if failed else 0


HANDLERS = {
    "scales": _cmd_scales,
    "field-map": _cmd_field_map,
    "isotropy": _cmd_isotropy,
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "susy": _cmd_susy,
    "defect": _cmd_defect,
    "shells": _cmd_shells,
    "verify": _cmd_verify,
}


def _print_warning(message, *_) -> None:
    """Show a warning as one ``warning:`` line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            for dest, value in vars(args).items():  # the models compute in floats
                option = f"--{dest.replace('_', '-')}"
                if type(value) is int and abs(value) > sys.float_info.max:
                    raise DomainError(f"option {option} is too large for a float")
                if type(value) is float and not math.isfinite(value):
                    raise DomainError(f"option {option} must be finite")
            _check_destination(args)
            code = HANDLERS[args.command](args)
            sys.stdout.flush()  # a reader of stdout that has gone shows here, not at exit
            return code
    except BrokenPipeError:
        # As the Python docs' "Note on SIGPIPE" does: stdout goes to os.devnull,
        # so that the flush at exit cannot raise again, and the exit code is 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MemoryError) as exc:  # MemoryError: a table too large to allocate
        # A bare MemoryError() has no message of its own.
        print(f"validation error: {str(exc) or 'not enough memory for this request'}",
              file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
