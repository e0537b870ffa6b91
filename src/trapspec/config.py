"""Run configuration: JSON loading and construction of trap objects.

A run configuration names the trap kind, the unit mode, the geometry record
for that trap, and (for magnetic traps) the particle record.  All geometry
fields carry SI-unit suffixes so a config file is self-describing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import fields, planar
from .errors import ConfigError

__all__ = ["RunConfig", "load_config"]

UNIT_MODES = ("si", "natural")

# One row per trap kind: the module and name of the record it builds, and its
# JSON geometry fields, listed in the record's field order.  The record is
# looked up only when a geometry is built, so reading a config runs neither
# module.
TRAPS = {
    "ioffe_pritchard": (fields, "IoffePritchardGeometry", (
        "coil_radius_m", "coil_halfspacing_m", "coil_current_A", "bar_distance_m",
        "bar_current_A",
    )),
    "top": (fields, "TopGeometry", (
        "quad_radius_m", "quad_halfspacing_m", "quad_current_A", "bias_radius_m",
        "bias_halfspacing_m", "bias_current_A", "bias_frequency_rad_per_s",
    )),
    "paul": (planar, "PaulParams", (
        "voltage_V", "size_m", "drive_rad_per_s", "charge_C", "mass_kg",
    )),
    "penning": (planar, "PenningParams", (
        "voltage_V", "size_m", "axial_field_T", "charge_C", "mass_kg",
    )),
}
TRAP_KINDS = tuple(TRAPS)
GEOMETRY_FIELDS = {kind: names for kind, (_, _, names) in TRAPS.items()}

PARTICLE_FIELDS = ("magnetic_moment_J_per_T", "mass_kg")

# Magnetic traps need a dipole particle record; the planar traps carry the
# charge and mass inside the geometry record instead.
MAGNETIC_TRAPS = tuple(kind for kind, names in GEOMETRY_FIELDS.items() if "mass_kg" not in names)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one trap run."""

    trap: str
    units: str = "si"
    geometry: dict = field(default_factory=dict)
    particle: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trap not in TRAP_KINDS:
            raise ConfigError(
                f"unknown trap kind {self.trap!r}; expected one of {', '.join(TRAP_KINDS)}"
            )
        if self.units not in UNIT_MODES:
            raise ConfigError(
                f"unknown unit mode {self.units!r}; expected one of {', '.join(UNIT_MODES)}"
            )
        _check_record(self.geometry, GEOMETRY_FIELDS[self.trap], "geometry", self.trap)
        if self.trap in MAGNETIC_TRAPS:
            _check_record(self.particle, PARTICLE_FIELDS, "particle", self.trap)
        elif self.particle:
            raise ConfigError(
                f"trap '{self.trap}' takes charge_C/mass_kg in the geometry record; "
                "the separate particle record is only for magnetic traps"
            )

    def build_geometry(self):
        """Construct the geometry record of this trap kind."""
        module, record, names = TRAPS[self.trap]
        return getattr(module, record)(*(self.geometry[name] for name in names))

    def build_particle(self) -> fields.DipoleParticle:
        if self.trap not in MAGNETIC_TRAPS:
            raise ConfigError(f"trap '{self.trap}' has no dipole particle record")
        return fields.DipoleParticle(
            magnetic_moment=self.particle["magnetic_moment_J_per_T"],
            mass=self.particle["mass_kg"],
        )


def _check_record(record, required, record_name, trap):
    if not isinstance(record, dict):
        raise ConfigError(f"{record_name} record for trap '{trap}' must be a JSON object")
    for name in required:
        if name not in record:
            raise ConfigError(
                f"missing required field '{name}' in {record_name} record for trap '{trap}'"
            )
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"field '{name}' in {record_name} record must be a number, got {value!r}"
            )
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(
                f"field '{name}' in {record_name} record is too large for a float"
            ) from None
        if not finite:
            raise ConfigError(f"field '{name}' in {record_name} record must be finite")
    extra = sorted(set(record) - set(required))
    if extra:
        raise ConfigError(
            f"unknown field(s) {', '.join(repr(e) for e in extra)} in {record_name} "
            f"record for trap '{trap}'"
        )


def load_config(path: str) -> RunConfig:
    """Read a JSON run configuration; errors name the offending field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object at top level")
    allowed = {"trap", "units", "geometry", "particle"}
    extra = sorted(set(doc) - allowed)
    if extra:
        raise ConfigError(f"unknown top-level key(s): {', '.join(repr(e) for e in extra)}")
    if "trap" not in doc:
        raise ConfigError("missing required top-level field 'trap'")
    return RunConfig(
        trap=doc["trap"],
        units=doc.get("units", "si"),
        geometry=doc.get("geometry", {}),
        particle=doc.get("particle", {}),
    )
