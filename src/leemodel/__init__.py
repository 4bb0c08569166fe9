"""One-V-particle sector of the Lee model.

Physical V mass from the self-energy fixed point, wavefunction
renormalization in its bare and renormalized presentations, bare/renormalized
coupling maps, ghost-regime classification with the regularized
(semi-positive) norm, and an exact discretized-Hamiltonian arrowhead oracle
that cross-checks the continuum pipeline.
"""

from .core import (
    DIPOLE,
    EXPONENTIAL,
    FORM_FACTOR_KINDS,
    SHARP,
    BareCoupling,
    FormFactor,
    ModelParams,
    Regime,
    RenCoupling,
    dressing_amplitude,
    ensure_stable,
    omega,
    vertex_weight,
)
from .errors import (
    ConfigError,
    DegenerateModel,
    GhostRegime,
    LeeModelError,
    NoBoundState,
    NoConvergence,
    PoleHit,
    StabilityViolation,
)
from .oracle import (
    GAUSS_LEGENDRE_K,
    UNIFORM_K,
    ArrowheadMatrix,
    EigenPair,
    RadialGrid,
    all_eigenvalues,
    build_arrowhead,
    build_grid,
    convergence_study,
    dense_cross_check,
    lowest_eigenpair,
    secular_value,
)
from .quadrature import (
    QuadSpec,
    default_spec,
    mass_shift_integral,
    norm_integral,
    spectral_moments,
    upper_momentum,
    z_factor_integral,
)
from .renorm import (
    TWO_PI_CUBED,
    RenormReport,
    bare_from_renormalized,
    classify_regime,
    critical_coupling,
    dressing_strength,
    full_report,
    full_reports,
    geometric_partial_sum,
    mass_shift,
    regularized_z,
    renormalize_coupling,
    solve_physical_mass,
    standard_z,
    z_from_bare,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowheadMatrix", "BareCoupling", "ConfigError", "DegenerateModel",
    "DIPOLE", "EigenPair", "EXPONENTIAL", "FORM_FACTOR_KINDS", "FormFactor",
    "GAUSS_LEGENDRE_K", "GhostRegime", "LeeModelError", "ModelParams",
    "NoBoundState", "NoConvergence", "PoleHit", "QuadSpec", "RadialGrid",
    "Regime", "RenCoupling", "RenormReport", "SHARP", "StabilityViolation",
    "TWO_PI_CUBED", "UNIFORM_K", "all_eigenvalues", "bare_from_renormalized",
    "build_arrowhead", "build_grid", "classify_regime", "convergence_study",
    "critical_coupling", "default_spec", "dense_cross_check",
    "dressing_amplitude", "dressing_strength", "ensure_stable",
    "full_report", "full_reports", "geometric_partial_sum",
    "lowest_eigenpair", "mass_shift", "mass_shift_integral",
    "norm_integral", "omega", "regularized_z",
    "renormalize_coupling", "secular_value", "solve_physical_mass",
    "spectral_moments", "standard_z", "upper_momentum", "vertex_weight",
    "z_factor_integral", "z_from_bare",
]
