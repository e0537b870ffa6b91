"""Command-line interface: trap design, spectra, wavefunctions, verification.

Every command reads a JSON run configuration (where one is needed), prints
a deterministic report to stdout, and optionally writes CSV/JSON artifacts
atomically.  Exit codes: 0 success, 2 configuration error, 3 validation
failure (or a table too large to allocate), 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import exports
from .config import MAGNETIC_TRAPS, TRAP_KINDS, TRAPS, RunConfig, load_config
from .defect import EffectiveModel, defect_energy
from .errors import ConfigError, DomainError, OracleError
from .fields import (
    biot_savart_field,
    ip_field_cartesian,
    ip_scales,
    isotropy_residual,
    oscillator_scales,
    solve_bar_current,
    solve_quad_current,
    top_field_series,
    top_scales,
    IoffePritchardGeometry,
    TopGeometry,
    TrapAssembly,
)
from .oscillator3d import (
    OscillatorScales,
    _tower_level,
    allowed_angular,
    radial_wavefunction_3d,
    shell_capacity,
)
from .planar import (
    PaulParams,
    PenningParams,
    paul_frequencies,
    paul_shell_count,
    paul_spectrum,
    paul_susy_partner,
    paul_wavefunctions,
    penning_energy,
    penning_frequencies,
    penning_spectrum,
    penning_state_count,
    penning_susy_partner,
    penning_wavefunction,
)
from .susy import partner_pair, tower_potential
from .verification import SUITE_ORDER, run_suite, tolerance_scale

# An Ioffe-Pritchard or TOP potential is only a single isotropic oscillator
# when the currents are tuned; beyond this residual the level structure the
# spectrum/susy/defect commands tabulate does not apply.
ISOTROPY_WINDOW = 1e-6


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

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", default="all",
                   help="'all' or one of: " + ", ".join(SUITE_ORDER))
    p.add_argument("--L", "--l-angular", dest="l_angular", type=int, default=None,
                   help="restrict the partner-degeneracy suite to one L")

    return parser


# --------------------------------------------------------------------------
# Shared helpers.


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
        self.residual = isotropy_residual(self.scales)  # a coil pair too flat to confine raises

    @property
    def oscillator(self) -> OscillatorScales:
        """Isotropic-oscillator scales; only a tuned trap has them."""
        if abs(self.residual) > ISOTROPY_WINDOW:
            raise DomainError(
                f"trap is anisotropic (isotropy residual {self.residual:.3e}); solve the "
                "tuning current first (see the isotropy command)"
            )
        return oscillator_scales(
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

    def fields(self, points, times, oracle: bool):
        """The series field at ``points`` for each of ``times``, or the conductor-level sum.

        Rows run over the points of the first time, then of the next.
        """
        if not oracle:
            return np.vstack([self.series(*points.T, t) for t in times])
        return biot_savart_field(tuple(self.assembly(t) for t in times), points).reshape(-1, 3)

    def spectrum_table(self, max_n: int, max_k: int, natural: bool) -> str:
        osc = self.oscillator
        n, l = np.array([(n, l) for n in range(max_n + 1) for l in allowed_angular(n)]).T
        # The trap-referenced level (E - mu B0) in quanta is exactly N + 3/2;
        # recomputing it from the joule value would shed seven digits to
        # cancellation.
        if natural:
            return exports.csv_text(("N", "L", "degeneracy", "E_over_hbar_omega0"),
                                    n, l, 2 * l + 1, n + 1.5)
        return exports.csv_text(("N", "L", "degeneracy", "E_joules", "E_over_hbar_omega0"),
                                n, l, 2 * l + 1, _tower_level(osc, n), n + 1.5)

    def wavefunction(self, args):
        if args.axis == "axial":
            raise DomainError("--axis axial applies to Paul and Penning traps")
        factor = radial_wavefunction_3d(self.oscillator, args.n_level, args.l_angular)
        return factor, 0.0, "r", "W", "r0"

    def partner(self, tower: int):
        osc = self.oscillator
        return partner_pair(tower, osc)


class _IoffePritchard(_Magnetic):
    derive = staticmethod(ip_scales)
    solve = staticmethod(solve_bar_current)
    tuned_row = "tuned_bar_current_A"

    def drive_times(self, samples: int):
        return np.array([0.0])

    def series(self, x, y, z, t):
        return ip_field_cartesian(self.scales, x, y, z)

    def assembly(self, t):
        return TrapAssembly.ioffe_pritchard(self.geometry)


class _Top(_Magnetic):
    derive = staticmethod(top_scales)
    solve = staticmethod(solve_quad_current)
    tuned_row = "tuned_quad_current_A"

    def drive_times(self, samples: int):
        if samples < 1:
            raise DomainError("field-map needs at least one time sample")
        period = 2.0 * math.pi / self.scales.bias_frequency
        return np.arange(samples) * period / samples

    def series(self, x, y, z, t):
        return top_field_series(self.scales, x, y, z, t)

    def assembly(self, t):
        return TrapAssembly.top(self.geometry, t)


class _Planar:
    """A Paul or Penning trap; its states are labeled (N, M, K) in that order."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.freqs = self.frequencies(cfg.build_geometry())

    def spectrum_table(self, max_n: int, max_k: int, natural: bool) -> str:
        if max_k < 0:
            raise DomainError("--max-k must be nonnegative")
        n, m, k, e = self.spectrum(self.freqs, max_n, max_k)
        if natural:
            return exports.csv_text(("N", "M", "K", "E_over_quantum"),
                                    n, m, k, np.divide(e, self.quantum))
        return exports.csv_text(("N", "M", "K", "E_joules"), n, m, k, e)

    def wavefunction(self, args):
        state = self.state(args.n_level, args.m_azimuthal, args.k_axial)
        if args.axis == "axial":
            return state.axial, -args.r_max, "z", "X", "scale"
        return state.radial, 0.0, "rho", "X", "scale"


class _Paul(_Planar):
    frequencies = staticmethod(paul_frequencies)
    spectrum = staticmethod(paul_spectrum)

    @property
    def quantum(self) -> float:
        return self.freqs.quantum

    def state(self, n: int, m: int, k: int):
        return paul_wavefunctions(self.freqs, n, m, k)

    def partner(self, abs_m: int):
        return paul_susy_partner(self.freqs, abs_m)

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
    frequencies = staticmethod(penning_frequencies)
    spectrum = staticmethod(penning_spectrum)

    @property
    def quantum(self) -> float:
        return self.freqs.hbar * self.freqs.hybrid

    def state(self, n: int, m: int, k: int):
        return penning_wavefunction(self.freqs, n, k, m)

    def partner(self, abs_m: int):
        return penning_susy_partner(self.freqs, abs_m)

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


# The trap object of each kind, by its geometry record.
_TRAP_OBJECTS = {
    IoffePritchardGeometry: _IoffePritchard,
    TopGeometry: _Top,
    PaulParams: _Paul,
    PenningParams: _Penning,
}


# Commands that only apply to a magnetic trap.
MAGNETIC_COMMANDS = ("field-map", "isotropy", "defect")


def _load_trap(args):
    """Load ``--config`` and build the trap object of its kind."""
    cfg = load_config(args.config)
    if args.command in MAGNETIC_COMMANDS:
        _require_trap(cfg, MAGNETIC_TRAPS, args.command)
    return _TRAP_OBJECTS[TRAPS[cfg.trap][0]](cfg)


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
    times = trap.drive_times(args.time_samples)
    # A huge extent overflows the coordinates or the field; say so instead
    # of printing inf and nan.
    with np.errstate(over="ignore", invalid="ignore"):
        half = args.extent_fraction * trap.scales.length
        axis = np.linspace(-half, half, args.points)
        xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
        points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        fields = trap.fields(points, times, args.oracle)
    if not (np.isfinite(points).all() and np.isfinite(fields).all()):
        raise DomainError(f"--extent-fraction {args.extent_fraction:g} gives non-finite "
                          "field-map coordinates or fields")
    _emit(args, exports.csv_text(
        ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T"),
        *np.tile(points, (len(times), 1)).T, np.repeat(times, len(points)), *fields.T,
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

    # One table for every factor, W(r), X(rho) or Z(z), on the factor's own r0.
    factor, start, name, column, scale = trap.wavefunction(args)
    grid = np.linspace(start, args.r_max, args.points) * factor.r0
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

    # The pair after i0 ladder steps sits at tower index L + i0 (3D) or
    # |M| + i0 - 1/2 (planar); its tower label lam + 2j is the base-tower
    # label removed + 2j.
    pair = trap.partner(tower + i0)
    lam, length, quantum = pair.l_angular, pair.scales.r0, pair.scales.quantum
    plus_pot = tower_potential(lam, pair.scales, quantum * (lam + 1.5))
    minus_pot = tower_potential(lam + 1.0, pair.scales, quantum * (lam + 0.5))
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
    osc = trap.oscillator
    model = EffectiveModel(
        l_angular=args.l_angular, iterations=args.iterations,
        selector=args.selector, delta=args.delta, scales=osc,
    )
    start = args.l_angular + 2 * args.iterations
    spectrum = []
    for n_s in range(start, start + 2 * args.levels, 2):
        if natural:  # exactly N* + 3/2 in quanta; avoids cancellation against mu B0
            energy = n_s - model.iterations - model.delta + 1.5
        else:
            energy = defect_energy(model, n_s)
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
    if args.max_n < 0:
        raise DomainError("--max-n must be nonnegative")
    if args.config:
        cfg = load_config(args.config)
        _require_trap(cfg, (args.trap,), f"shells --trap {args.trap}")
    elif args.trap == "penning":
        raise ConfigError("penning shell counts depend on the frequency tuning; pass --config")
    if args.trap in MAGNETIC_TRAPS:
        counts = [shell_capacity(n) for n in range(args.max_n + 1)]
    elif args.trap == "paul":
        counts = [paul_shell_count(e) for e in range(2, args.max_n + 3)]
    else:
        freqs = penning_frequencies(cfg.build_geometry())
        ground = penning_energy(freqs, 0, 0, 0)
        caps = ground + np.arange(args.max_n + 1) * freqs.hbar * freqs.axial
        counts = penning_state_count(freqs, caps).tolist()
    print(",".join(str(c) for c in counts))
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.l_angular is not None:
        if args.suite != "susy":
            raise ConfigError("--l-angular only applies to the susy suite")
        kwargs["l_values"] = (args.l_angular,)
    scale = tolerance_scale()
    if scale != 1.0:
        warnings.warn(f"TRAPSPEC_TOL_SCALE={scale:g} scales every numeric tolerance")
    results = run_suite(args.suite, **kwargs)
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
            return HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MemoryError) as exc:  # MemoryError: a table too large to allocate
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
