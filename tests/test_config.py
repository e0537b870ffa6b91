"""Tests for run-configuration parsing, validation, and round-tripping."""

import dataclasses
import json

import pytest

from trapspec import ConfigError, RunConfig, load_config
from trapspec.config import MAGNETIC_TRAPS, TRAP_KINDS, TRAPS
from trapspec.fields import IoffePritchardGeometry, TopGeometry
from trapspec.planar import PaulParams, PenningParams

IP_GEOMETRY = {
    "coil_radius_m": 0.02,
    "coil_halfspacing_m": 0.02,
    "coil_current_A": 100.0,
    "bar_distance_m": 0.01,
    "bar_current_A": 25.50655355954369,
}
TOP_GEOMETRY = {
    "quad_radius_m": 0.02,
    "quad_halfspacing_m": 0.02,
    "quad_current_A": 8.229511997978241,
    "bias_radius_m": 0.03,
    "bias_halfspacing_m": 0.03,
    "bias_current_A": 20.0,
    "bias_frequency_rad_per_s": 62831.853071795865,
}
PAUL_GEOMETRY = {
    "voltage_V": 5.0,
    "size_m": 1.0e-3,
    "drive_rad_per_s": 125663706.14359173,
    "charge_C": 1.602176634e-19,
    "mass_kg": 6.642156e-26,
}
PENNING_GEOMETRY = {
    "voltage_V": 10.0,
    "size_m": 3.0e-3,
    "axial_field_T": 5.0,
    "charge_C": 1.602176634e-19,
    "mass_kg": 6.642156e-26,
}
PARTICLE = {"magnetic_moment_J_per_T": 4.6e-24, "mass_kg": 1.44e-25}


def make(trap, geometry, particle=None, units="si"):
    return RunConfig(
        trap=trap, units=units, geometry=dict(geometry),
        particle=dict(particle) if particle else {},
    )


class TestValidation:
    def test_unknown_trap(self):
        with pytest.raises(ConfigError, match="unknown trap kind"):
            make("hexapole", IP_GEOMETRY, PARTICLE)

    def test_unknown_units(self):
        with pytest.raises(ConfigError, match="unknown unit mode"):
            make("ioffe_pritchard", IP_GEOMETRY, PARTICLE, units="cgs")

    def test_missing_geometry_field(self):
        geom = dict(IP_GEOMETRY)
        del geom["coil_current_A"]
        with pytest.raises(
            ConfigError,
            match="missing required field 'coil_current_A' in geometry record",
        ):
            make("ioffe_pritchard", geom, PARTICLE)

    def test_unknown_geometry_field(self):
        geom = dict(PAUL_GEOMETRY, extra_knob=1.0)
        with pytest.raises(ConfigError, match="unknown field.*extra_knob"):
            make("paul", geom)

    def test_boolean_rejected(self):
        geom = dict(PAUL_GEOMETRY, voltage_V=True)
        with pytest.raises(ConfigError, match="must be a number"):
            make("paul", geom)

    def test_non_finite_rejected(self):
        geom = dict(PAUL_GEOMETRY, voltage_V=float("inf"))
        with pytest.raises(ConfigError, match="must be finite"):
            make("paul", geom)

    def test_oversized_integer_rejected(self):
        # A JSON integer past the float range must not escape as OverflowError.
        geom = dict(PAUL_GEOMETRY, voltage_V=10**400)
        with pytest.raises(ConfigError, match="voltage_V.*too large for a float"):
            make("paul", geom)

    def test_magnetic_trap_needs_particle(self):
        with pytest.raises(ConfigError, match="missing required field"):
            make("top", TOP_GEOMETRY)

    def test_planar_trap_rejects_particle(self):
        with pytest.raises(ConfigError, match="only for magnetic traps"):
            make("penning", PENNING_GEOMETRY, PARTICLE)

    def test_natural_units_accepted(self):
        cfg = make("paul", PAUL_GEOMETRY, units="natural")
        assert cfg.units == "natural"


class TestBuilders:
    def test_ip_objects(self):
        cfg = make("ioffe_pritchard", IP_GEOMETRY, PARTICLE)
        g = cfg.build_geometry()
        assert isinstance(g, IoffePritchardGeometry)
        assert g.bar_current == IP_GEOMETRY["bar_current_A"]
        p = cfg.build_particle()
        assert p.mass == PARTICLE["mass_kg"]

    def test_top_objects(self):
        cfg = make("top", TOP_GEOMETRY, PARTICLE)
        g = cfg.build_geometry()
        assert isinstance(g, TopGeometry)
        assert g.bias_frequency == TOP_GEOMETRY["bias_frequency_rad_per_s"]

    def test_paul_objects(self):
        cfg = make("paul", PAUL_GEOMETRY)
        g = cfg.build_geometry()
        assert isinstance(g, PaulParams)
        assert g.drive == PAUL_GEOMETRY["drive_rad_per_s"]
        with pytest.raises(ConfigError):
            cfg.build_particle()

    def test_penning_objects(self):
        cfg = make("penning", PENNING_GEOMETRY)
        g = cfg.build_geometry()
        assert isinstance(g, PenningParams)
        assert g.axial_field == 5.0

    @pytest.mark.parametrize("kind", TRAP_KINDS)
    def test_table_lists_fields_in_record_order(self, kind):
        module, name, names = TRAPS[kind]
        record = getattr(module, name)
        fields = [f.name for f in dataclasses.fields(record)]
        assert len(names) == len(fields)
        for name, field in zip(names, fields):
            assert name.startswith(field + "_"), (name, field)
        geometry = {name: float(i + 1) for i, name in enumerate(names)}
        cfg = make(kind, geometry, PARTICLE if kind in MAGNETIC_TRAPS else None)
        g = cfg.build_geometry()
        assert [getattr(g, f) for f in fields] == [float(i + 1) for i in range(len(names))]


class TestFileRoundTrip:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"trap": "paul", "geometry": PAUL_GEOMETRY})
        )
        cfg = load_config(str(path))
        assert cfg.trap == "paul"
        assert cfg.units == "si"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_integer_past_digit_limit(self, tmp_path):
        # json.load raises a plain ValueError beyond the interpreter's digit limit.
        path = tmp_path / "run.json"
        path.write_text('{"trap": "paul", "geometry": {"voltage_V": ' + "9" * 5000 + "}}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="JSON object at top level"):
            load_config(str(path))

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {"trap": "paul", "geometry": PAUL_GEOMETRY, "color": "red"}
            )
        )
        with pytest.raises(ConfigError, match="unknown top-level key.*color"):
            load_config(str(path))

    def test_missing_trap_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"geometry": PAUL_GEOMETRY}))
        with pytest.raises(ConfigError, match="missing required top-level field 'trap'"):
            load_config(str(path))
