"""Command-line interface: trap design, spectra, wavefunctions, verification.

Every command reads a JSON run configuration (where one is needed), prints
a deterministic report to stdout, and optionally writes CSV/JSON artifacts
atomically.  Exit codes: 0 success, 2 configuration error, 3 validation
failure, 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import exports
from .config import RunConfig, load_config
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
    TrapAssembly,
)
from .oscillator3d import (
    OscillatorScales,
    allowed_angular,
    energy_3d,
    radial_wavefunction_3d,
    shell_capacity,
)
from .planar import (
    paul_energy,
    paul_frequencies,
    paul_shell_count,
    paul_susy_partner,
    paul_wavefunctions,
    penning_energy,
    penning_frequencies,
    penning_state_count,
    penning_susy_partner,
    penning_wavefunction,
)
from .susy import partner_pair, superpotential, tower_potential
from .verification import SUITE_ORDER, run_suite

# An Ioffe-Pritchard or TOP potential is only a single isotropic oscillator
# when the currents are tuned; beyond this residual the level structure the
# spectrum/susy/defect commands tabulate does not apply.
ISOTROPY_WINDOW = 1e-6

MAGNETIC = ("ioffe_pritchard", "top")
PLANAR = ("paul", "penning")


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
                   choices=("ioffe_pritchard", "top", "paul", "penning"))
    p.add_argument("--max-n", "--max-N", dest="max_n", type=int, required=True,
                   help="largest shell index")
    p.add_argument("--config", help="run configuration (needed for penning counts)")

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


def _magnetic_scales(cfg: RunConfig):
    """Derived field scales plus residual for an ip/top configuration."""
    derive = ip_scales if cfg.trap == "ioffe_pritchard" else top_scales
    scales = derive(cfg.build_geometry())
    return scales, isotropy_residual(scales)


def _oscillator(cfg: RunConfig) -> OscillatorScales:
    """Isotropic-oscillator scales of a tuned magnetic trap."""
    scales, residual = _magnetic_scales(cfg)
    if abs(residual) > ISOTROPY_WINDOW:
        raise DomainError(
            f"trap is anisotropic (isotropy residual {residual:.3e}); solve the "
            "tuning current first (see the isotropy command)"
        )
    return oscillator_scales(cfg.build_particle(), scales.field, scales.isotropic_radius)


def _require_trap(cfg: RunConfig, kinds, command: str) -> None:
    if cfg.trap not in kinds:
        raise DomainError(
            f"command '{command}' supports trap kinds {', '.join(kinds)}; "
            f"config declares '{cfg.trap}'"
        )


def _planar_frequencies(cfg: RunConfig):
    if cfg.trap == "paul":
        return paul_frequencies(cfg.build_geometry())
    return penning_frequencies(cfg.build_geometry())


# --------------------------------------------------------------------------
# Command handlers.


def _cmd_scales(args) -> int:
    cfg = load_config(args.config)
    pairs = [("trap", cfg.trap)]
    if cfg.trap in MAGNETIC:
        scales, residual = _magnetic_scales(cfg)
        pairs += [
            ("length_m", scales.length),
            ("curvature_area_m2", scales.area),
            ("field_T", scales.field),
            ("gradient_T_per_m", scales.gradient),
            ("isotropy_residual", residual),
            ("isotropic_radius_m", scales.isotropic_radius),
        ]
        if cfg.trap == "top":
            pairs.append(("bias_frequency_rad_per_s", scales.bias_frequency))
        if abs(residual) <= ISOTROPY_WINDOW:
            osc = oscillator_scales(
                cfg.build_particle(), scales.field, scales.isotropic_radius
            )
            pairs += [
                ("omega0_rad_per_s", osc.omega0),
                ("oscillator_length_m", osc.r0),
                ("energy_offset_J", osc.energy_offset),
            ]
    elif cfg.trap == "paul":
        freqs = _planar_frequencies(cfg)
        pairs += [
            ("quadrupole_rad_per_s", freqs.quadrupole),
            ("secular_rad_per_s", freqs.secular),
            ("drive_rad_per_s", freqs.drive),
            ("drive_ratio", freqs.drive_ratio),
            ("radial_length_m", freqs.length),
            ("quantum_J", freqs.quantum),
        ]
    else:
        freqs = _planar_frequencies(cfg)
        pairs += [
            ("axial_rad_per_s", freqs.axial),
            ("cyclotron_rad_per_s", freqs.cyclotron),
            ("hybrid_rad_per_s", freqs.hybrid),
            ("tuning_k", freqs.tuning),
            ("radial_length_m", freqs.radial_length),
            ("axial_length_m", freqs.axial_length),
        ]
    _print_pairs(pairs)
    return 0


def _cmd_field_map(args) -> int:
    cfg = load_config(args.config)
    _require_trap(cfg, MAGNETIC, "field-map")
    if args.points < 2 or args.extent_fraction <= 0.0:
        raise DomainError("field-map needs at least 2 points per axis and a positive extent")
    scales, _ = _magnetic_scales(cfg)
    half = args.extent_fraction * scales.length
    axis = np.linspace(-half, half, args.points)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])

    if cfg.trap == "top":
        if args.time_samples < 1:
            raise DomainError("field-map needs at least one time sample")
        period = 2.0 * math.pi / scales.bias_frequency
        times = np.arange(args.time_samples) * period / args.time_samples
    else:
        times = np.array([0.0])

    all_points, all_times, all_fields = [], [], []
    geometry = cfg.build_geometry()
    for t in times:
        if args.oracle:
            assembly = (
                TrapAssembly.ioffe_pritchard(geometry)
                if cfg.trap == "ioffe_pritchard"
                else TrapAssembly.top(geometry, t)
            )
            fields = np.array([biot_savart_field(assembly, p) for p in points])
        elif cfg.trap == "ioffe_pritchard":
            fields = ip_field_cartesian(scales, points[:, 0], points[:, 1], points[:, 2])
        else:
            fields = top_field_series(scales, points[:, 0], points[:, 1], points[:, 2], t)
        all_points.append(points)
        all_times.append(np.full(len(points), t))
        all_fields.append(fields)

    text = exports.field_map_table(
        np.vstack(all_points), np.concatenate(all_times), np.vstack(all_fields)
    )
    _emit(args, text)
    return 0


def _cmd_isotropy(args) -> int:
    cfg = load_config(args.config)
    _require_trap(cfg, MAGNETIC, "isotropy")
    scales, residual = _magnetic_scales(cfg)
    geometry = cfg.build_geometry()
    pairs = [
        ("trap", cfg.trap),
        ("isotropy_residual", residual),
        ("gradient_target_T_per_m", scales.field * math.sqrt(scales.isotropy_target)),
        ("isotropic_radius_m", scales.isotropic_radius),
    ]
    if cfg.trap == "ioffe_pritchard":
        pairs.append(("tuned_bar_current_A", solve_bar_current(geometry)))
    else:
        pairs.append(("tuned_quad_current_A", solve_quad_current(geometry)))
    _print_pairs(pairs)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    natural = _natural_mode(cfg, args)
    if args.max_n < 0:
        raise DomainError("--max-n must be nonnegative")

    if cfg.trap in MAGNETIC:
        osc = _oscillator(cfg)
        rows = []
        for n in range(args.max_n + 1):
            for l in allowed_angular(n):
                # The last column is the trap-referenced level (E - mu B0) in
                # quanta, which is exactly N + 3/2; recomputing it from the
                # joule value would shed seven digits to cancellation.
                rows.append((n, l, 2 * l + 1, energy_3d(osc, n), n + 1.5))
        if natural:
            header = ("N", "L", "degeneracy", "E_over_hbar_omega0")
            text = exports.csv_text(header, [(n, l, g, e_nat) for n, l, g, _, e_nat in rows])
        else:
            text = exports.spectrum_table_3d(rows)
        _emit(args, text)
        return 0

    freqs = _planar_frequencies(cfg)
    if args.max_k < 0:
        raise DomainError("--max-k must be nonnegative")
    rows = []
    for n in range(args.max_n + 1):
        for m in range(-n, n + 1):
            if (n - abs(m)) % 2 != 0:
                continue
            for k in range(args.max_k + 1):
                if cfg.trap == "paul":
                    energy = paul_energy(freqs, n, k)
                else:
                    energy = penning_energy(freqs, n, k, m)
                rows.append((n, m, k, energy))
    rows.sort(key=lambda row: (row[3], row[0], row[2], row[1]))
    if natural:
        quantum = freqs.quantum if cfg.trap == "paul" else freqs.hbar * freqs.hybrid
        header = ("N", "M", "K", "E_over_quantum")
        text = exports.csv_text(header, [(n, m, k, e / quantum) for n, m, k, e in rows])
    else:
        text = exports.spectrum_table_planar(rows)
    _emit(args, text)
    return 0


def _cmd_wavefunction(args) -> int:
    cfg = load_config(args.config)
    natural = _natural_mode(cfg, args)
    if args.points < 2 or args.r_max <= 0.0:
        raise DomainError("wavefunction needs at least 2 points and a positive --r-max")

    if cfg.trap in MAGNETIC:
        osc = _oscillator(cfg)
        state = radial_wavefunction_3d(osc, args.n_level, args.l_angular)
        grid = np.linspace(0.0, args.r_max, args.points) * osc.r0
        values = state(grid)
        if natural:
            text = exports.wavefunction_table(
                "r_over_r0", ("W_times_sqrt_r0",),
                grid / osc.r0, (values * math.sqrt(osc.r0),),
            )
        else:
            text = exports.wavefunction_table("r_m", ("W_per_sqrt_m",), grid, (values,))
        _emit(args, text)
        return 0

    freqs = _planar_frequencies(cfg)
    if cfg.trap == "paul":
        axial, radial = paul_wavefunctions(freqs, args.n_level, args.m_azimuthal, args.k_axial)
        radial_scale, axial_scale = freqs.length, freqs.length / math.sqrt(2.0)
    else:
        state = penning_wavefunction(freqs, args.n_level, args.k_axial, args.m_azimuthal)
        axial, radial = state.axial, state.radial
        radial_scale, axial_scale = freqs.radial_length, freqs.axial_length
    if args.axis == "radial":
        grid = np.linspace(0.0, args.r_max, args.points) * radial_scale
        values, name, unit = radial(grid), "rho", radial_scale
    else:
        grid = np.linspace(-args.r_max, args.r_max, args.points) * axial_scale
        values, name, unit = axial(grid), "z", axial_scale
    if natural:
        text = exports.wavefunction_table(
            f"{name}_over_scale", ("X_times_sqrt_scale",),
            grid / unit, (values * math.sqrt(unit),),
        )
    else:
        text = exports.wavefunction_table(f"{name}_m", ("X_per_sqrt_m",), grid, (values,))
    _emit(args, text)
    return 0


def _cmd_susy(args) -> int:
    cfg = load_config(args.config)
    natural = _natural_mode(cfg, args)
    tower = args.l_angular
    i0 = args.iterations
    if tower < 0 or i0 < 0:
        raise DomainError("tower index and iteration count must be nonnegative")
    if args.levels < 1 or args.samples < 2:
        raise DomainError("susy needs at least one level and two potential samples")

    # The pair after i0 ladder steps sits at tower index L + i0 (3D) or
    # |M| + i0 - 1/2 (planar); its tower label lam + 2j is the base-tower
    # label removed + 2j.
    if cfg.trap in MAGNETIC:
        osc = _oscillator(cfg)
        pair = partner_pair(superpotential(tower + i0, osc.r0), osc)
    elif cfg.trap == "paul":
        pair = paul_susy_partner(_planar_frequencies(cfg), tower + i0)
    else:
        pair = penning_susy_partner(_planar_frequencies(cfg), tower + i0)
    lam, length, quantum = pair.l_angular, pair.scales.r0, pair.scales.quantum
    plus_pot = tower_potential(lam, pair.scales, quantum * (lam + 1.5))
    minus_pot = tower_potential(lam + 1.0, pair.scales, quantum * (lam + 0.5))
    removed = tower + 2 * i0
    spectrum_rows = [
        (
            removed + 2 * j,
            pair.plus_spectrum(lam + 2 * j),
            None if j == 0 else pair.minus_spectrum(lam + 2 * j),
        )
        for j in range(args.levels)
    ]

    radii = np.geomspace(0.1, 6.0, args.samples) * length
    plus_samples = np.asarray(plus_pot(radii), dtype=float)
    minus_samples = np.asarray(minus_pot(radii), dtype=float)
    if natural:
        radii = radii / length
        plus_samples = plus_samples / quantum
        minus_samples = minus_samples / quantum
        spectrum_rows = [
            (n, ep / quantum, None if em is None else em / quantum)
            for n, ep, em in spectrum_rows
        ]
    doc = exports.susy_report_doc(
        tower, i0, removed, radii, plus_samples, minus_samples, spectrum_rows
    )
    doc["units"] = "natural" if natural else "si"
    _emit(args, exports.json_text(doc))
    return 0


def _cmd_defect(args) -> int:
    cfg = load_config(args.config)
    _require_trap(cfg, MAGNETIC, "defect")
    natural = _natural_mode(cfg, args)
    if args.levels < 1:
        raise DomainError("--levels must be positive")
    osc = _oscillator(cfg)
    model = EffectiveModel(
        l_angular=args.l_angular, iterations=args.iterations,
        selector=args.selector, delta=args.delta, scales=osc,
    )
    start = args.l_angular + 2 * args.iterations
    rows = []
    for j in range(args.levels):
        n_s = start + 2 * j
        if natural:
            # Exactly N* + 3/2 in quanta; avoids cancellation against mu B0.
            rows.append((n_s, n_s - model.iterations - model.delta + 1.5))
        else:
            rows.append((n_s, defect_energy(model, n_s)))
    doc = exports.defect_model_doc(
        osc, args.l_angular, model.iterations, model.selector, model.delta, rows
    )
    doc["units"] = "natural" if natural else "si"
    _emit(args, exports.json_text(doc))
    return 0


def _cmd_shells(args) -> int:
    if args.max_n < 0:
        raise DomainError("--max-n must be nonnegative")
    if args.trap in MAGNETIC:
        counts = [shell_capacity(n) for n in range(args.max_n + 1)]
    elif args.trap == "paul":
        counts = [paul_shell_count(e) for e in range(2, args.max_n + 3)]
    else:
        if not args.config:
            raise ConfigError(
                "penning shell counts depend on the frequency tuning; pass --config"
            )
        cfg = load_config(args.config)
        _require_trap(cfg, ("penning",), "shells --trap penning")
        freqs = _planar_frequencies(cfg)
        ground = 0.5 * freqs.hbar * (freqs.hybrid + freqs.axial)
        counts = [
            penning_state_count(freqs, ground + k * freqs.hbar * freqs.axial)
            for k in range(args.max_n + 1)
        ]
    print(",".join(str(c) for c in counts))
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.l_angular is not None:
        if args.suite != "susy":
            raise ConfigError("--l-angular only applies to the susy suite")
        kwargs["l_values"] = (args.l_angular,)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
