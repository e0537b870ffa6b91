"""Analytic valence-particle models for magnetic and electric traps.

Closed-form spectra, eigenfunctions, partner-potential hierarchies, and
quantum-defect towers for four trap families (Ioffe-Pritchard, rotating-bias,
driven-quadrupole, and static-quadrupole-with-field), each cross-checked
against independent numerical oracles: a log-mesh radial eigensolver,
conductor-level field summation, and direct quadrature.
"""

# The package publishes each module's __all__, the one list of its public names.
from .constants import *
from .errors import *
from .special import *
from .oscillator3d import *
from .numerov import *
from .fields import *
from .susy import *
from .defect import *
from .planar import *
from .config import *
from .verification import *

__version__ = "0.1.0"
