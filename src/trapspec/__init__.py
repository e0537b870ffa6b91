"""Analytic valence-particle models for magnetic and electric traps.

Closed-form spectra, eigenfunctions, partner-potential hierarchies, and
quantum-defect towers for four trap families (Ioffe-Pritchard, rotating-bias,
driven-quadrupole, and static-quadrupole-with-field), each cross-checked
against independent numerical oracles: a log-mesh radial eigensolver,
conductor-level field summation, and direct quadrature.
"""

from .constants import HBAR, MU0
from .errors import (
    AccuracyError,
    BracketError,
    ConfigError,
    ConfinementError,
    ConvergenceError,
    DomainError,
    ExcludedLevelError,
    NormalizabilityError,
    OracleError,
    SingularityError,
    StabilityError,
    TrapspecError,
)
from .special import (
    hermite,
    laguerre_gen,
    laguerre_gen_derivative,
    radial_norm_3d,
)
from .oscillator3d import (
    OscillatorScales,
    RadialEigenstate,
    ShellRow,
    allowed_angular,
    degeneracy,
    energy_3d,
    radial_wavefunction_3d,
    shell_capacity,
    shell_table,
    valence_total,
    validate_quantum_numbers_3d,
)
from .numerov import (
    EigenResult,
    RadialProblem,
    count_nodes,
    fd_check,
    overlap,
    solve_eigen,
    solve_eigens,
)
from .fields import (
    CircularLoop,
    DerivedScales,
    DipoleParticle,
    IoffePritchardGeometry,
    StraightWire,
    TopGeometry,
    TrapAssembly,
    biot_savart_field,
    ip_field_cartesian,
    ip_field_series,
    ip_potential,
    ip_scales,
    isotropy_residual,
    oscillator_scales,
    solve_bar_current,
    solve_quad_current,
    top_field_series,
    top_scales,
    top_time_average_numeric,
    top_time_avg_potential,
)
from .susy import (
    PartnerPair,
    Superpotential,
    input_potential,
    partner_pair,
    partner_spectrum,
    partner_wavefunction,
    related_systems_3d,
    superpotential,
)
from .defect import (
    EffectiveModel,
    RecoveredPartner,
    defect_energy,
    defect_wavefunction,
    effective_potential,
    recover_partner,
)
from .planar import (
    AxialState,
    PaulFrequencies,
    PaulParams,
    PenningFrequencies,
    PenningParams,
    PenningState,
    paul_effective_potential,
    paul_energy,
    paul_frequencies,
    paul_related_systems,
    paul_shell_count,
    paul_susy_partner,
    paul_wavefunctions,
    penning_energy,
    penning_frequencies,
    penning_state_count,
    penning_susy_partner,
    penning_wavefunction,
    static_quadrupole_potential,
    validate_planar_numbers,
)
from .config import RunConfig, load_config, save_config
from .verification import CheckResult, run_suite

__version__ = "0.1.0"
