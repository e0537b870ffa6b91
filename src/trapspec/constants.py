"""Physical constants used throughout the package (SI units)."""

import math

__all__ = ["HBAR", "MU0"]

# Planck constant (exact, SI definition) and hbar derived from it.
PLANCK = 6.62607015e-34  # J s
HBAR = PLANCK / (2.0 * math.pi)  # J s

# Vacuum permeability.  The coil/bar field expressions in this package are
# classical magnetostatics; we adopt the exact pre-2019 value.
MU0 = 4.0e-7 * math.pi  # T m / A
