"""Exception hierarchy and the input checks every module shares.

Domain errors subclass ValueError so callers that only know the standard
library can still catch them; the CLI maps the three branches onto distinct
exit codes (config -> 2, domain/validation -> 3, solver -> 4).

Four checks raise :class:`DomainError` naming the argument, so each rule and
its message is written once: :func:`integer` for quantum numbers and counts
(it returns the ``int``), :func:`positive` for physical scales,
:func:`nonzero` for signed drives (voltages, currents, charges, fields) and
:func:`finite` for real parameters such as an energy offset or a shift.
"""

import math
import sys


class TrapspecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TrapspecError):
    """A configuration document could not be parsed or validated."""


class DomainError(TrapspecError, ValueError):
    """An input lies outside the physical or mathematical domain of an operation."""


class ConfinementError(DomainError):
    """Geometry does not confine along z (curvature parameter a <= 0)."""


class StabilityError(DomainError):
    """Trap parameters violate a stability bound (e.g. omega_c^2 <= 2 omega_z^2)."""


class ExcludedLevelError(DomainError):
    """The requested level is absent from the partner tower (removed ground state)."""


class NormalizabilityError(DomainError):
    """Requested state is not normalizable (defect too large for the tower)."""


class SingularityError(DomainError):
    """Field evaluation requested on (or too close to) a conductor."""


class OracleError(TrapspecError):
    """Base class for numerical-solver failures."""


class BracketError(OracleError):
    """No energy bracket with the requested node count could be established."""


class ConvergenceError(OracleError):
    """Iteration limit reached before the convergence target."""


class AccuracyError(OracleError):
    """A quadrature or refinement loop could not reach the requested tolerance."""


_INTEGER_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; it must be integral and at least ``minimum``.

    nan, inf and non-numbers raise :class:`DomainError` too, not the
    ``ValueError``/``OverflowError`` of ``int()``; so does an integer beyond
    the float range, since the models compute in floats.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is not None and abs(n) > sys.float_info.max:  # its repr may be too long to print
        raise DomainError(f"{name} is too large for a float, got an integer of {n.bit_length()} bits")
    if n is None or n != value or (minimum is not None and n < minimum):
        kind = _INTEGER_KINDS.get(minimum) or f"an integer >= {minimum}"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return n


def positive(name: str, value: float) -> None:
    """Reject a scale that is not positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def nonzero(name: str, value: float) -> None:
    """Reject a signed quantity that is zero or not finite."""
    if value == 0.0 or not math.isfinite(value):
        raise DomainError(f"{name} must be finite and nonzero, got {value!r}")


def finite(name: str, value: float) -> None:
    """Reject nan and infinities."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
