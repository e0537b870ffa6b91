"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspec import cli
from trapspec.errors import DomainError, OracleError
from trapspec.exports import csv_text
from trapspec.oscillator3d import allowed_angular, energy_3d
from trapspec.planar import paul_energy, penning_energy

E_CHARGE = 1.602176634e-19

# Reference currents that make each magnetic trap isotropic, and the derived
# scales they produce (frozen from the tuning solver; asserted to 1e-12).
IP_BAR_TUNED = 25.50655355954369
TOP_QUAD_TUNED = 8.229511997978241
R_C = 0.018856180831641266
OMEGA0 = 19.97912070075072
PAUL_SECULAR = 33932.54777128917

IP_GEOMETRY = {
    "coil_radius_m": 0.02,
    "coil_halfspacing_m": 0.02,
    "coil_current_A": 100.0,
    "bar_distance_m": 0.01,
    "bar_current_A": IP_BAR_TUNED,
}
TOP_GEOMETRY = {
    "quad_radius_m": 0.02,
    "quad_halfspacing_m": 0.02,
    "quad_current_A": TOP_QUAD_TUNED,
    "bias_radius_m": 0.03,
    "bias_halfspacing_m": 0.03,
    "bias_current_A": 20.0,
    "bias_frequency_rad_per_s": 2.0 * math.pi * 1.0e4,
}
PAUL_GEOMETRY = {
    "voltage_V": 5.0,
    "size_m": 1.0e-3,
    "drive_rad_per_s": 2.0 * math.pi * 20.0e6,
    "charge_C": E_CHARGE,
    "mass_kg": 6.642156e-26,
}
PENNING_GEOMETRY = {
    "voltage_V": 10.0,
    "size_m": 3.0e-3,
    "axial_field_T": 5.0,
    "charge_C": E_CHARGE,
    "mass_kg": 6.642156e-26,
}
PARTICLE = {"magnetic_moment_J_per_T": 4.6e-24, "mass_kg": 1.44e-25}


def write_config(tmp_path, name, trap, geometry, particle=None, units="si"):
    doc = {"trap": trap, "units": units, "geometry": geometry}
    if particle is not None:
        doc["particle"] = particle
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def ip_config(tmp_path, bar_current=IP_BAR_TUNED, units="si"):
    geometry = dict(IP_GEOMETRY, bar_current_A=bar_current)
    return write_config(tmp_path, "ip.json", "ioffe_pritchard", geometry, PARTICLE, units)


def top_config(tmp_path, quad_current=TOP_QUAD_TUNED):
    geometry = dict(TOP_GEOMETRY, quad_current_A=quad_current)
    return write_config(tmp_path, "top.json", "top", geometry, PARTICLE)


def paul_config(tmp_path, units="si"):
    return write_config(tmp_path, "paul.json", "paul", PAUL_GEOMETRY, units=units)


def penning_config(tmp_path):
    return write_config(tmp_path, "penning.json", "penning", PENNING_GEOMETRY)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(out):
    pairs = {}
    for line in out.strip().splitlines():
        name, value = line.split(" = ", 1)
        try:
            pairs[name] = float(value)
        except ValueError:
            pairs[name] = value
    return pairs


def parse_csv(out):
    lines = out.strip().splitlines()
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return lines[0], rows


class TestScales:
    def test_tuned_ip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "scales", "--config", ip_config(tmp_path))
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["trap"] == "ioffe_pritchard"
        assert abs(pairs["isotropy_residual"]) < 1e-6
        assert pairs["isotropic_radius_m"] == pytest.approx(R_C, rel=1e-12)
        assert pairs["omega0_rad_per_s"] == pytest.approx(OMEGA0, rel=1e-12)
        assert pairs["oscillator_length_m"] > 0.0

    def test_untuned_ip_omits_oscillator_block(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "scales", "--config", ip_config(tmp_path, bar_current=20.0)
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert abs(pairs["isotropy_residual"]) > 1e-6
        assert "omega0_rad_per_s" not in pairs

    def test_tuned_top(self, tmp_path, capsys):
        code, out, _ = run(capsys, "scales", "--config", top_config(tmp_path))
        assert code == 0
        pairs = parse_pairs(out)
        assert abs(pairs["isotropy_residual"]) < 1e-6
        assert pairs["bias_frequency_rad_per_s"] == pytest.approx(
            TOP_GEOMETRY["bias_frequency_rad_per_s"]
        )
        assert "omega0_rad_per_s" in pairs

    def test_paul(self, tmp_path, capsys):
        code, out, _ = run(capsys, "scales", "--config", paul_config(tmp_path))
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["secular_rad_per_s"] == pytest.approx(PAUL_SECULAR, rel=1e-12)
        assert pairs["drive_ratio"] > 10.0
        assert pairs["quantum_J"] > 0.0

    def test_slow_drive_warning_is_one_line(self, tmp_path, capsys):
        geometry = dict(PAUL_GEOMETRY, drive_rad_per_s=2e5)
        path = write_config(tmp_path, "paul-slow.json", "paul", geometry)
        code, out, err = run(capsys, "scales", "--config", path)
        assert code == 0
        assert parse_pairs(out)["drive_ratio"] < 10.0
        assert err == (
            "warning: drive/quadrupole frequency ratio 0.0484 is below 10; "
            "the time-averaged potential is unreliable this slow\n"
        )

    def test_penning(self, tmp_path, capsys):
        code, out, _ = run(capsys, "scales", "--config", penning_config(tmp_path))
        assert code == 0
        pairs = parse_pairs(out)
        hybrid = math.sqrt(pairs["cyclotron_rad_per_s"] ** 2 - 2.0 * pairs["axial_rad_per_s"] ** 2)
        assert pairs["hybrid_rad_per_s"] == pytest.approx(hybrid, rel=1e-12)
        assert 0.0 < pairs["tuning_k"] < 1.0


class TestIsotropyCommand:
    def test_reports_tuned_bar_current(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "isotropy", "--config", ip_config(tmp_path, bar_current=20.0)
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["tuned_bar_current_A"] == pytest.approx(IP_BAR_TUNED, rel=1e-12)
        assert abs(pairs["isotropy_residual"]) > 1e-6

    def test_reports_tuned_quad_current(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "isotropy", "--config", top_config(tmp_path, quad_current=5.0)
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["tuned_quad_current_A"] == pytest.approx(TOP_QUAD_TUNED, rel=1e-12)

    def test_rejects_planar_trap(self, tmp_path, capsys):
        code, _, err = run(capsys, "isotropy", "--config", paul_config(tmp_path))
        assert code == 3
        assert err.startswith("validation error:")
        assert "isotropy" in err


class TestSpectrumCommand:
    def test_si_table(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--config", ip_config(tmp_path), "--max-n", "3"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "N,L,degeneracy,E_joules,E_over_hbar_omega0"
        # N <= 3 with N-L even: (0,0) (1,1) (2,0) (2,2) (3,1) (3,3).
        assert [(int(n), int(l)) for n, l, *_ in rows] == [
            (0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3),
        ]
        assert rows[-1][2] == 7  # degeneracy 2L+1 at L=3
        for n, _, _, e_j, e_nat in rows:
            assert e_nat == n + 1.5  # emitted exactly, not recomputed
            assert e_j > 0.0

    def test_natural_units_flag(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--config", ip_config(tmp_path),
            "--max-n", "2", "--natural-units",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "N,L,degeneracy,E_over_hbar_omega0"
        assert [row[3] for row in rows] == [1.5, 2.5, 3.5, 3.5]

    def test_planar_si_sorted_by_energy(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--config", paul_config(tmp_path),
            "--max-n", "2", "--max-k", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "N,M,K,E_joules"
        assert len(rows) == 12
        energies = [row[3] for row in rows]
        assert energies == sorted(energies)

    def test_natural_mode_from_config_units(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--config", paul_config(tmp_path, units="natural"),
            "--max-n", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "N,M,K,E_over_quantum"
        # Planar levels are (N + 2K + 2) quanta; the ground state sits at 2.
        assert rows[0][:3] == (0.0, 0.0, 0.0)
        assert rows[0][3] == pytest.approx(2.0, rel=1e-12)

    def test_untuned_trap_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "spectrum", "--config", ip_config(tmp_path, bar_current=20.0)
        )
        assert code == 3
        assert "anisotropic" in err

    def test_out_file_deterministic(self, tmp_path, capsys):
        config = ip_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, out, _ = run(
            capsys, "spectrum", "--config", config, "--max-n", "6", "--out", str(out_a)
        )
        assert code == 0
        assert f"wrote {out_a}" in out
        run(capsys, "spectrum", "--config", config, "--max-n", "6", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "levels.csv"
        code, out, err = run(
            capsys, "spectrum", "--config", ip_config(tmp_path), "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write {target}: ")
        assert len(err.strip().splitlines()) == 1
        assert not target.parent.exists()


def per_row_spectrum(config, max_n, max_k, natural):
    """The spectrum table built one energy call per row, as the command once did.

    Returns the CSV text, or raises the DomainError of the first bad row.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a slow Paul drive warns; the command prints it
        trap = cli._load_trap(argparse.Namespace(config=config, command="spectrum"))
    if isinstance(trap, cli._Magnetic):
        osc = trap.oscillator
        n, l = np.array([(n, l) for n in range(max_n + 1) for l in allowed_angular(n)]).T
        if natural:
            return csv_text(("N", "L", "degeneracy", "E_over_hbar_omega0"),
                            n, l, 2 * l + 1, n + 1.5)
        return csv_text(("N", "L", "degeneracy", "E_joules", "E_over_hbar_omega0"),
                        n, l, 2 * l + 1, [energy_3d(osc, k) for k in n.tolist()], n + 1.5)
    if isinstance(trap, cli._Paul):
        quantum = trap.freqs.quantum
        rows = [(n, m, k, paul_energy(trap.freqs, n, k))
                for n in range(max_n + 1) for m in range(-n, n + 1, 2) for k in range(max_k + 1)]
    else:
        quantum = trap.freqs.hbar * trap.freqs.hybrid
        rows = [(n, m, k, penning_energy(trap.freqs, n, k, m))
                for n in range(max_n + 1) for m in range(-n, n + 1, 2) for k in range(max_k + 1)]
    rows.sort(key=lambda row: (row[3], row[0], row[2], row[1]))
    n, m, k, e = zip(*rows)
    if natural:
        return csv_text(("N", "M", "K", "E_over_quantum"), n, m, k, np.divide(e, quantum))
    return csv_text(("N", "M", "K", "E_joules"), n, m, k, e)


def _scaled(geometry, names, factor):
    return {name: value * factor if name in names else value
            for name, value in geometry.items()}


class TestSpectrumTableMatchesThePerRowLoop:
    """The array-built tables print every byte of the per-row loop, errors included."""

    @staticmethod
    def check(config, max_n, max_k, natural):
        argv = ["spectrum", "--config", config, "--max-n", str(max_n), "--max-k", str(max_k)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--natural-units"] * natural)
        try:
            expected = per_row_spectrum(config, max_n, max_k, natural)
        except DomainError as exc:
            assert (code, out.getvalue()) == (3, "")
            assert err.getvalue().splitlines()[-1] == f"validation error: {exc}"
        else:
            assert (code, out.getvalue()) == (0, expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_drawn_tables(self, tmp_path_factory, data):
        kind = data.draw(st.sampled_from(["ip", "top", "paul", "penning"]), label="kind")
        decade = st.floats(-1.0, 1.0).map(lambda x: 10.0**x)
        if kind in ("ip", "top"):
            # Scaling every current keeps the trap tuned; the particle sets w0 and mu B0.
            geometry, currents = {
                "ip": (IP_GEOMETRY, ("coil_current_A", "bar_current_A")),
                "top": (TOP_GEOMETRY, ("quad_current_A", "bias_current_A")),
            }[kind]
            geometry = _scaled(geometry, currents, data.draw(st.floats(0.5, 2.0)))
            particle = {"magnetic_moment_J_per_T": 4.6e-24 * data.draw(decade),
                        "mass_kg": 1.44e-25 * data.draw(decade)}
            trap = {"ip": "ioffe_pritchard", "top": "top"}[kind]
        elif kind == "paul":
            geometry, particle, trap = dict(PAUL_GEOMETRY), None, "paul"
            for name in ("voltage_V", "size_m", "drive_rad_per_s", "mass_kg"):
                geometry = _scaled(geometry, (name,), data.draw(decade))
        else:
            # Within these factors w_c^2 stays above 2 w_z^2.
            geometry, particle, trap = dict(PENNING_GEOMETRY), None, "penning"
            for name in ("voltage_V", "size_m", "axial_field_T", "mass_kg"):
                geometry = _scaled(geometry, (name,), data.draw(st.floats(0.7, 1.4)))
        config = write_config(tmp_path_factory.mktemp(kind), "trap.json", trap, geometry,
                              particle)
        max_n = data.draw(st.integers(0, 60 if kind == "penning" else 30), label="max_n")
        max_k = data.draw(st.integers(0, 6), label="max_k")
        self.check(config, max_n, max_k, data.draw(st.booleans(), label="natural"))

    @pytest.mark.parametrize("max_n", [50, 51, 60])
    @pytest.mark.parametrize("natural", [False, True])
    def test_magnetron_cap_row(self, tmp_path, max_n, natural):
        self.check(penning_config(tmp_path), max_n, 2, natural)


class TestWavefunctionCommand:
    def test_natural_radial_table(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "wavefunction", "--config", ip_config(tmp_path),
            "--n-level", "2", "--l-angular", "0",
            "--natural-units", "--points", "51",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "r_over_r0,W_times_sqrt_r0"
        assert len(rows) == 51
        assert rows[0] == (0.0, 0.0)  # W ~ r^(L+1) at the origin
        assert rows[-1][0] == 10.0

    def test_si_radial_table(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "wavefunction", "--config", ip_config(tmp_path),
            "--n-level", "0", "--points", "11",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "r_m,W_per_sqrt_m"
        assert max(abs(w) for _, w in rows) > 0.0

    def test_planar_axial_node_at_center(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "wavefunction", "--config", paul_config(tmp_path),
            "--n-level", "0", "--k-axial", "1", "--axis", "axial", "--points", "51",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "z_m,X_per_sqrt_m"
        peak = max(abs(w) for _, w in rows)
        assert abs(rows[25][1]) < 1e-12 * peak  # odd axial state vanishes at z=0
        assert rows[0][0] == -rows[-1][0]

    def test_penning_radial_natural(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "wavefunction", "--config", penning_config(tmp_path),
            "--n-level", "1", "--m-azimuthal", "1", "--natural-units", "--points", "21",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "rho_over_scale,X_times_sqrt_scale"
        assert rows[0][1] == 0.0

    def test_bad_parity_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "wavefunction", "--config", ip_config(tmp_path),
            "--n-level", "1", "--l-angular", "0",
        )
        assert code == 3
        assert err.startswith("validation error:")

    # A numpy warning would be printed as a "warning:" line, even where a run
    # turns RuntimeWarning into an error.
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("config,argv", [
        (ip_config, ("--n-level", "400")),
        (paul_config, ("--n-level", "0", "--k-axial", "600", "--axis", "axial")),
    ])
    def test_high_level_table_is_finite(self, tmp_path, capsys, config, argv):
        # The Laguerre march rescales instead of overflowing, so far past the
        # level's turning point every cell is finite.
        code, out, err = run(capsys, "wavefunction", "--config", config(tmp_path), *argv,
                             "--r-max", "60", "--natural-units")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 501
        assert np.all(np.isfinite(rows))
        assert max(abs(w) for _, w in rows) > 0.1

    @pytest.mark.parametrize("config,argv", [
        (ip_config, ("--n-level", "1000000000000000")),
        (paul_config, ("--n-level", "0", "--k-axial", "1000000000000", "--axis", "axial")),
    ])
    def test_runaway_level_is_refused(self, tmp_path, capsys, config, argv):
        code, out, err = run(capsys, "wavefunction", "--config", config(tmp_path), *argv)
        assert (code, out) == (3, "")
        assert err.startswith("validation error: Laguerre degree ")
        assert err.endswith(" at 501 points takes more than 1e+08 recurrence steps\n")


class TestSusyCommand:
    def test_magnetic_report_structure(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "susy", "--config", ip_config(tmp_path),
            "--l-angular", "1", "--levels", "3", "--samples", "5", "--natural-units",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["units"] == "natural"
        assert doc["L"] == 1
        assert doc["sequence_index"] == 0
        assert doc["removed_level"] == 1
        assert len(doc["potential_samples"]) == 5
        levels = [row["level"] for row in doc["spectrum"]]
        assert levels == [1, 3, 5]
        assert doc["spectrum"][0]["minus"] is None
        for row in doc["spectrum"][1:]:
            assert row["minus"] == pytest.approx(row["plus"], rel=1e-9)
        plus = [row["plus"] for row in doc["spectrum"]]
        assert plus[1] - plus[0] == pytest.approx(2.0, rel=1e-9)

    def test_planar_report(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "susy", "--config", paul_config(tmp_path),
            "--l-angular", "0", "--levels", "2", "--natural-units",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["removed_level"] == 0
        assert doc["spectrum"][0]["minus"] is None
        # Tower energies are ground-referenced, two quanta per rung.
        assert doc["spectrum"][0]["plus"] == 0.0
        assert doc["spectrum"][1]["plus"] == pytest.approx(2.0, rel=1e-12)
        assert doc["spectrum"][1]["minus"] == pytest.approx(
            doc["spectrum"][1]["plus"], rel=1e-12
        )
        # The partner potential dominates its input near the axis.
        first = doc["potential_samples"][0]
        assert first["minus"] > first["plus"]

    def test_out_file_deterministic(self, tmp_path, capsys):
        config = ip_config(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (out_a, out_b):
            code, _, _ = run(
                capsys, "susy", "--config", config, "--l-angular", "0",
                "--out", str(path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestDefectCommand:
    def test_natural_tower_values(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "defect", "--config", ip_config(tmp_path),
            "--delta", "0.3", "--levels", "3", "--natural-units",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == 0.3
        assert doc["units"] == "natural"
        assert [row["level"] for row in doc["spectrum"]] == [0, 2, 4]
        for row in doc["spectrum"]:
            assert row["energy"] == pytest.approx(row["level"] + 1.2, rel=1e-15)

    def test_si_scales_block(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "defect", "--config", ip_config(tmp_path),
            "--delta", "0.25", "--l-angular", "1", "--levels", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trap_scales"]["omega0"] == pytest.approx(OMEGA0, rel=1e-12)
        assert doc["L"] == 1
        energies = [row["energy"] for row in doc["spectrum"]]
        assert energies[1] > energies[0] > 0.0

    def test_integer_mass_prints_as_float(self, tmp_path, capsys):
        particle = {"magnetic_moment_J_per_T": 1, "mass_kg": 1}
        path = write_config(tmp_path, "ip.json", "ioffe_pritchard", IP_GEOMETRY, particle)
        code, out, _ = run(capsys, "defect", "--config", path, "--delta", "0.3")
        assert code == 0
        assert '    "mass": 1.0,' in out.splitlines()

    def test_requires_magnetic_trap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "defect", "--config", paul_config(tmp_path), "--delta", "0.1"
        )
        assert code == 3
        assert "supports trap kinds" in err


CONFIG_COMMANDS = [
    ("scales",),
    ("field-map",),
    ("isotropy",),
    ("spectrum",),
    ("wavefunction", "--n-level", "0"),
    ("susy",),
    ("defect", "--delta", "0.3"),
]
MAGNETIC_ONLY = ("field-map", "isotropy", "defect")
CONFIG_OF_KIND = {
    "ioffe_pritchard": ip_config,
    "top": top_config,
    "paul": paul_config,
    "penning": penning_config,
}


@pytest.mark.parametrize("kind", CONFIG_OF_KIND)
@pytest.mark.parametrize("argv", CONFIG_COMMANDS, ids=lambda a: a[0])
def test_every_command_on_every_trap_kind(tmp_path, capsys, kind, argv):
    path = CONFIG_OF_KIND[kind](tmp_path)
    code, out, err = run(capsys, argv[0], "--config", path, *argv[1:])
    if argv[0] in MAGNETIC_ONLY and kind in ("paul", "penning"):
        assert (code, out) == (3, "")
        assert err == (
            f"validation error: command '{argv[0]}' supports trap kinds "
            f"ioffe_pritchard, top; config declares '{kind}'\n"
        )
    else:
        assert (code, err) == (0, "")
        assert out


class TestShellsCommand:
    def test_magnetic_counts(self, capsys):
        code, out, _ = run(capsys, "shells", "--trap", "top", "--max-N", "5")
        assert code == 0
        assert out.strip() == "1,4,10,20,35,56"

    def test_flag_spelling_equivalent(self, capsys):
        _, upper, _ = run(capsys, "shells", "--trap", "ioffe_pritchard", "--max-N", "3")
        _, lower, _ = run(capsys, "shells", "--trap", "ioffe_pritchard", "--max-n", "3")
        assert upper == lower == "1,4,10,20\n"

    def test_paul_counts(self, capsys):
        code, out, _ = run(capsys, "shells", "--trap", "paul", "--max-n", "6")
        assert code == 0
        # Spin-resolved cumulative counts, two per orbital.
        assert out.strip() == "2,6,14,26,44,68,100"

    def test_penning_needs_config(self, capsys):
        code, _, err = run(capsys, "shells", "--trap", "penning", "--max-n", "3")
        assert code == 2
        assert err.startswith("config error:")

    def test_penning_counts(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "shells", "--trap", "penning", "--max-n", "4",
            "--config", penning_config(tmp_path),
        )
        assert code == 0
        counts = [int(v) for v in out.strip().split(",")]
        assert len(counts) == 5
        assert counts[0] >= 1
        assert counts == sorted(counts)

    def test_negative_max_n(self, capsys):
        code, _, err = run(capsys, "shells", "--trap", "top", "--max-n", "-1")
        assert code == 3
        assert err.startswith("validation error:")

    @pytest.mark.parametrize("kind", ["top", "paul", "penning"])
    def test_runaway_max_n_is_refused_before_any_work(self, tmp_path, capsys, kind):
        # The limit comes before the config is read, so a missing file is not reached.
        code, out, err = run(capsys, "shells", "--trap", kind, "--max-N", "1000000000",
                             "--config", str(tmp_path / "missing.json"))
        assert (code, out) == (3, "")
        assert err == "validation error: --max-n must lie in [0, 1000000], got 1000000000\n"

    def test_limit_admits_max_shells(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SHELLS", 3)
        assert run(capsys, "shells", "--trap", "top", "--max-N", "3")[:2] == (0, "1,4,10,20\n")
        assert run(capsys, "shells", "--trap", "top", "--max-N", "4")[0] == 3

    @pytest.mark.parametrize("kind", ["ioffe_pritchard", "top", "paul"])
    def test_missing_config_is_read(self, tmp_path, capsys, kind):
        code, out, err = run(
            capsys, "shells", "--trap", kind, "--max-N", "2",
            "--config", str(tmp_path / "missing.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("config error:")

    @pytest.mark.parametrize("kind,config", [
        ("ioffe_pritchard", top_config),
        ("top", paul_config),
        ("paul", ip_config),
        ("penning", paul_config),
    ])
    def test_config_kind_must_match_trap(self, tmp_path, capsys, kind, config):
        code, out, err = run(
            capsys, "shells", "--trap", kind, "--max-N", "2", "--config", config(tmp_path)
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"validation error: command 'shells --trap {kind}' supports")

    @pytest.mark.parametrize("kind,config", [
        ("ioffe_pritchard", ip_config),
        ("top", top_config),
        ("paul", paul_config),
    ])
    def test_matching_config_leaves_counts_unchanged(self, tmp_path, capsys, kind, config):
        _, bare, _ = run(capsys, "shells", "--trap", kind, "--max-N", "4")
        code, out, err = run(
            capsys, "shells", "--trap", kind, "--max-N", "4", "--config", config(tmp_path)
        )
        assert (code, out, err) == (0, bare, "")


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pauli-gap")
        assert code == 0
        assert "PASS pauli-gap:" in out
        assert "1/1 suites passed" in out

    def test_susy_suite_restricted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "susy", "--L", "0")
        assert code == 0
        assert "PASS susy-degeneracy:" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown verification suite" in err

    def test_l_flag_needs_susy_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "pauli-gap", "--L", "1")
        assert code == 2
        assert "--l-angular only applies" in err

    def test_tight_tolerance_scale_fails(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAPSPEC_TOL_SCALE", "1e-30")
        code, out, _ = run(capsys, "verify", "--suite", "pauli-gap")
        assert code == 3
        assert "FAIL pauli-gap:" in out
        assert "0/1 suites passed" in out

    def test_loose_tolerance_scale_warns_once(self, monkeypatch, capsys):
        _, plain, plain_err = run(capsys, "verify", "--suite", "pauli-gap")
        monkeypatch.setenv("TRAPSPEC_TOL_SCALE", "1e6")
        code, out, err = run(capsys, "verify", "--suite", "pauli-gap")
        assert (code, plain_err) == (0, "")
        assert err == "warning: TRAPSPEC_TOL_SCALE=1e+06 scales every numeric tolerance\n"
        assert "PASS pauli-gap:" in out
        assert out.replace("(tol 1.0e-06)", "(tol 1.0e-12)") == plain  # only the tol moves

    def test_bad_tolerance_scale(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAPSPEC_TOL_SCALE", "banana")
        code, _, err = run(capsys, "verify", "--suite", "pauli-gap")
        assert code == 2
        assert "TRAPSPEC_TOL_SCALE" in err

    def test_nonpositive_tolerance_scale(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAPSPEC_TOL_SCALE", "0")
        code, _, err = run(capsys, "verify", "--suite", "pauli-gap")
        assert code == 2
        assert "finite and positive" in err


class TestFieldMapCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        config = ip_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run(
                capsys, "field-map", "--config", config,
                "--points", "3", "--extent-fraction", "0.02", "--out", str(path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "x_m,y_m,z_m,t_s,Bx_T,By_T,Bz_T"
        assert len(lines) == 27 + 1

    def test_series_matches_conductor_oracle(self, tmp_path, capsys):
        config = ip_config(tmp_path)
        _, series_out, _ = run(
            capsys, "field-map", "--config", config,
            "--points", "2", "--extent-fraction", "0.02",
        )
        _, oracle_out, _ = run(
            capsys, "field-map", "--config", config,
            "--points", "2", "--extent-fraction", "0.02", "--oracle",
        )
        _, series_rows = parse_csv(series_out)
        _, oracle_rows = parse_csv(oracle_out)
        scale = max(abs(v) for row in oracle_rows for v in row[4:])
        worst = max(
            abs(a - b)
            for ra, rb in zip(series_rows, oracle_rows)
            for a, b in zip(ra[4:], rb[4:])
        )
        # Truncation enters at fourth order, so 2% of the coil scale is deep
        # inside the series' region of validity.
        assert worst < 1e-5 * scale

    def test_rotating_bias_samples_drive_period(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "field-map", "--config", top_config(tmp_path),
            "--points", "2", "--time-samples", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8 * 2
        times = sorted({row[3] for row in rows})
        assert len(times) == 2
        assert times[0] == 0.0

    def test_grid_validation(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "field-map", "--config", ip_config(tmp_path), "--points", "1"
        )
        assert code == 3
        assert err.startswith("validation error:")

    @pytest.mark.parametrize("units", ["si", "natural"])
    @pytest.mark.parametrize("extent", ["1e300", "1e200"])
    def test_huge_extent_overflowing_series_exits_3(self, tmp_path, capsys, extent, units):
        # The series squares coordinates near 1e298 (1e198): no inf or nan
        # table and no floating-point warnings, one validation error instead.
        code, out, err = run(
            capsys, "field-map", "--config", ip_config(tmp_path, units=units),
            "--points", "2", "--extent-fraction", extent,
        )
        assert (code, out) == (3, "")
        assert err == (f"validation error: --extent-fraction {float(extent):g} gives non-finite "
                       "field-map coordinates or fields\n")

    @pytest.mark.parametrize("units", ["si", "natural"])
    @pytest.mark.parametrize("extent", ["1e300", "1e200"])
    def test_huge_extent_oracle_is_finite_and_quiet(self, tmp_path, capsys, extent, units):
        # Far from every conductor the Biot-Savart sum underflows to zero: a
        # finite table, printed without floating-point warnings.
        code, out, err = run(
            capsys, "field-map", "--config", ip_config(tmp_path, units=units),
            "--points", "2", "--extent-fraction", extent, "--oracle",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 8
        assert all(math.isfinite(v) for row in rows for v in row)
        assert all(row[4:] == (0.0, 0.0, 0.0) for row in rows)


class TestErrorWiring:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "scales", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert err.startswith("config error: cannot read config file")

    def test_table_too_large_to_allocate_exits_3(self, tmp_path, capsys):
        # 100000**3 points need 7.11 PiB a coordinate, beyond any 64-bit user
        # address space; the labels N = 0 .. 1e12 of a spectrum alone need 7.28 TiB.
        for argv, size in [(("field-map", "--points", "100000"), "7.11 PiB"),
                           (("spectrum", "--max-n", "1000000000000"), "7.28 TiB")]:
            code, out, err = run(capsys, argv[0], "--config", ip_config(tmp_path), *argv[1:])
            assert (code, out) == (3, ""), argv
            assert err.startswith(f"validation error: Unable to allocate {size}")
            assert err.count("\n") == 1

    def test_oversized_config_number_exits_2(self, tmp_path, capsys):
        geometry = dict(IP_GEOMETRY, coil_current_A=10**400)
        path = write_config(tmp_path, "big.json", "ioffe_pritchard", geometry, PARTICLE)
        code, out, err = run(capsys, "scales", "--config", path)
        assert code == 2
        assert out == ""
        assert err == (
            "config error: field 'coil_current_A' in geometry record is too large for a float\n"
        )

    @pytest.mark.parametrize(
        "config, argv, option",
        [
            (ip_config, ("wavefunction", "--n-level", "B"), "--n-level"),
            (paul_config, ("susy", "--l-angular", "B"), "--l-angular"),
            (ip_config, ("defect", "--l-angular", "B", "--delta", "0.1"), "--l-angular"),
            (paul_config, ("wavefunction", "--n-level", "0", "--k-axial", "B", "--axis", "axial"),
             "--k-axial"),
        ],
    )
    def test_oversized_integer_option_exits_3(self, tmp_path, capsys, config, argv, option):
        # B is 1 followed by 400 zeros: a valid int that no float can hold.
        argv = [str(10**400) if a == "B" else a for a in argv]
        code, out, err = run(capsys, argv[0], "--config", config(tmp_path), *argv[1:])
        assert code == 3
        assert out == ""
        assert err == f"validation error: option {option} is too large for a float\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("field-map", "--points", "2"), "--extent-fraction"),
            (("wavefunction", "--n-level", "0"), "--r-max"),
            (("defect",), "--delta"),
        ],
    )
    def test_non_finite_float_option_exits_3(self, tmp_path, capsys, argv, option, value):
        code, out, err = run(
            capsys, argv[0], "--config", ip_config(tmp_path), *argv[1:], f"{option}={value}"
        )
        assert (code, out) == (3, "")
        assert err == f"validation error: option {option} must be finite\n"

    @pytest.mark.parametrize(
        "config, exponent, units",
        [(ip_config, 200, ()), (paul_config, 200, ()), (ip_config, 160, ("--natural-units",))],
    )
    def test_overflowing_partner_exits_3(self, tmp_path, capsys, config, exponent, units):
        # An integer tower index a float holds, whose lam(lam+1) does not (in
        # joules at 1e200, in quanta at 1e160).
        code, out, err = run(
            capsys, "susy", "--config", config(tmp_path), "--l-angular", str(10**exponent),
            "--levels", "1", "--samples", "2", *units,
        )
        assert (code, out) == (3, "")
        assert err == (
            f"validation error: tower index 1e+{exponent} overflows the partner potentials\n"
        )

    # The overflow's numpy warnings are printed as "warning:" lines, even where
    # a run turns RuntimeWarning into an error.
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_non_finite_table_exits_3(self, tmp_path, capsys):
        # Past r = 1e154 r0, u^2 overflows and the tower reads nan there (a known
        # defect: the profile is 0); the table must refuse its nan cells rather
        # than print them and exit 0.
        code, out, err = run(capsys, "wavefunction", "--config", ip_config(tmp_path),
                             "--n-level", "2", "--r-max", "1e200", "--natural-units")
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "validation error: non-finite value nan in column 'W_times_sqrt_r0', row 2 of 501")
        assert sum(line.startswith("validation error:") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("config", [ip_config, top_config])
    def test_axial_axis_needs_planar_trap(self, tmp_path, capsys, config):
        code, out, err = run(
            capsys, "wavefunction", "--config", config(tmp_path), "--n-level", "2",
            "--axis", "axial",
        )
        assert (code, out) == (3, "")
        assert err == "validation error: --axis axial applies to Paul and Penning traps\n"

    def test_oracle_failures_exit_4(self, monkeypatch, capsys):
        def boom(args):
            raise OracleError("integrator stalled")

        monkeypatch.setitem(cli.HANDLERS, "shells", boom)
        code, _, err = run(capsys, "shells", "--trap", "top", "--max-n", "1")
        assert code == 4
        assert err.startswith("oracle failure: integrator stalled")


# Frozen stdout of small commands on the four reference configs, in SI and
# natural units; a refactor of the output path must reproduce every byte.
GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_golden_stdout(tmp_path, capsys, monkeypatch, case):
    for name, doc in GOLDEN["configs"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]
