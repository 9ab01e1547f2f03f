"""Thermal-equilibrium quantum statistics of a dense, dipole-dipole coupled
two-level ensemble in the Dicke limit.

The package computes the Gibbs steady state over the symmetric subspace,
the scattered-light intensity and zero-delay second-order correlation
g2(0), closed-form limiting expressions with a validator, and full
master-equation time evolution, plus a CSV/JSON command-line front end.

Code units: omega0 = hbar = k_B = 1 and Gamma(omega0) = 1.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticReport,
    BathRegime,
    FormulaCheck,
    default_validation_grid,
    eta_threshold,
    g1_weak_bath,
    g2_limit_eta0,
    g2_strong_bath,
    g2_weak_bath,
    intensity_ratio_strong_bath,
    strong_bath_coefficient,
    validate_asymptotics,
)
from .core import (
    DickeSpectrum,
    EnsembleParams,
    LadderCoeffs,
    ThermalState,
    build_spectrum,
    ladder_coefficients,
    thermal_state,
    validate_params,
)
from .correlators import (
    CorrelatorResult,
    FarFieldGeometry,
    PhotonStatistics,
    classify_statistics,
    far_field_prefactor,
    g2_zero,
    intensity_ratio,
    steady_state_correlators,
)
from .dynamics import (
    MAX_DYNAMICS_ATOMS,
    RateModel,
    StepControl,
    ThermalLiouvillian,
    Trajectory,
    default_step,
    initial_state,
    integrate,
    steady_state_residual,
    trace_distance,
)
from .exceptions import (
    DickeError,
    DimensionMismatch,
    EtaOutOfRange,
    IntegrationError,
    NonFiniteState,
    NonPositiveFrequency,
    NonPositiveX,
    ParameterError,
    SingleAtomWithCoupling,
    StepTooLarge,
    ZeroAtoms,
    ZeroIntensity,
)

__all__ = [
    "__version__",
    # core
    "EnsembleParams",
    "DickeSpectrum",
    "LadderCoeffs",
    "ThermalState",
    "validate_params",
    "build_spectrum",
    "ladder_coefficients",
    "thermal_state",
    # correlators
    "CorrelatorResult",
    "FarFieldGeometry",
    "PhotonStatistics",
    "g2_zero",
    "intensity_ratio",
    "classify_statistics",
    "far_field_prefactor",
    "steady_state_correlators",
    # asymptotics
    "AsymptoticReport",
    "BathRegime",
    "FormulaCheck",
    "g2_limit_eta0",
    "strong_bath_coefficient",
    "g2_strong_bath",
    "g2_weak_bath",
    "g1_weak_bath",
    "eta_threshold",
    "intensity_ratio_strong_bath",
    "validate_asymptotics",
    "default_validation_grid",
    # dynamics
    "MAX_DYNAMICS_ATOMS",
    "RateModel",
    "StepControl",
    "ThermalLiouvillian",
    "Trajectory",
    "integrate",
    "steady_state_residual",
    "initial_state",
    "trace_distance",
    "default_step",
    # exceptions
    "DickeError",
    "ParameterError",
    "ZeroAtoms",
    "NonPositiveX",
    "EtaOutOfRange",
    "SingleAtomWithCoupling",
    "ZeroIntensity",
    "DimensionMismatch",
    "NonPositiveFrequency",
    "IntegrationError",
    "StepTooLarge",
    "NonFiniteState",
]
