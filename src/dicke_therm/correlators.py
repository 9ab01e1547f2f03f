"""Steady-state photon correlation functions of the scattered field.

On the symmetric subspace the detected intensity and the zero-delay
second-order correlation reduce to single sums over the Dicke ladder:

    G1/Psi   = sum_{n>=1} p_n * n*(N-n+1) * omega_{n-1}^4
    G2/Psi^2 = sum_{n>=2} p_n * n*(N-n+1)*(n-1)*(N-n+2)
                          * omega_{n-1}^4 * omega_{n-2}^4
    g2(0)    = (G2/Psi^2) / (G1/Psi)^2

The geometric far-field prefactor Psi cancels in g2(0), so all primary
outputs are Psi-normalized; Psi itself is a separate multiplicative factor.
In cold regimes the populations span hundreds of orders of magnitude, so
G1 and g2(0) are assembled from log-domain partial sums over the stored
log weights instead of ratios of underflowing floats: log G1 = log S1 -
log Z and log g2 = log S2 + log Z - 2 log S1, with the shared weight shift
cancelling exactly and log Z taken from the thermal state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DickeSpectrum,
    EnsembleParams,
    LadderCoeffs,
    ThermalState,
    build_spectrum,
    ladder_coefficients,
    thermal_state,
)
from .exceptions import DimensionMismatch, ZeroIntensity

__all__ = [
    "PhotonStatistics",
    "CorrelatorResult",
    "FarFieldGeometry",
    "g1_intensity",
    "g2_zero",
    "intensity_ratio",
    "classify_statistics",
    "far_field_prefactor",
    "steady_state_correlators",
]

# exp() overflows just above this; beyond it the ratio is reported as inf
_EXP_MAX = 709.0


class PhotonStatistics(enum.Enum):
    SUB_POISSONIAN = "SubPoissonian"
    POISSONIAN = "Poissonian"
    SUPER_POISSONIAN = "SuperPoissonian"


@dataclass(frozen=True)
class CorrelatorResult:
    """Psi-normalized intensity, raw and normalized g2(0), and the verdict."""

    g1: float
    g2_raw: float
    g2_norm: float
    classification: PhotonStatistics


@dataclass(frozen=True)
class FarFieldGeometry:
    """Detector geometry for the absolute intensity scale.

    distance must be far outside the emission wavelength for the reduced
    correlators to apply; angle is measured between the line of sight and
    the dipole axis.
    """

    distance: float
    angle: float
    dipole: float = 1.0
    light_speed: float = 1.0

    def __post_init__(self) -> None:
        if not self.distance > 0.0:
            raise ValueError(f"detector distance must be positive, got {self.distance}")
        if not 0.0 <= self.angle <= math.pi:
            raise ValueError(f"angle must lie in [0, pi], got {self.angle}")


def _check_dimensions(state: ThermalState, spectrum: DickeSpectrum, coeffs: LadderCoeffs) -> None:
    sizes = {state.log_weights.size, spectrum.frequencies.size, coeffs.lowering.size}
    if len(sizes) != 1:
        raise DimensionMismatch(
            "state, spectrum and ladder coefficients must come from the same ensemble; "
            f"got lengths {state.log_weights.size}, {spectrum.frequencies.size}, "
            f"{coeffs.lowering.size}"
        )


def _logsumexp(terms: np.ndarray) -> float:
    if terms.size == 0:
        return -math.inf
    m = float(np.max(terms))
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(np.exp(terms - m)))


def _exp(v: float) -> float:
    if v > _EXP_MAX:
        return math.inf
    return math.exp(v)


def _ensemble(params: EnsembleParams) -> tuple[ThermalState, DickeSpectrum, LadderCoeffs]:
    spectrum = build_spectrum(params)
    return thermal_state(params, spectrum), spectrum, ladder_coefficients(params.n_atoms)


def _log_sums(
    state: ThermalState, spectrum: DickeSpectrum, coeffs: LadderCoeffs, pairs: bool
) -> tuple[float, float]:
    """Log of the unnormalized G1 sum and, when pairs is set, of the G2 sum.

    The G2 sum is -inf when not requested and for N = 1.  Both sums use the
    shifted weights, so the normalization is the stored state.log_z.
    """
    _check_dimensions(state, spectrum, coeffs)
    lw = state.log_weights
    log_w4 = 4.0 * np.log(spectrum.frequencies)
    c2 = coeffs.lowering**2
    log_s1 = _logsumexp(lw[1:] + np.log(c2[1:]) + log_w4[:-1])
    log_s2 = -math.inf
    if pairs and lw.size >= 3:
        log_s2 = _logsumexp(lw[2:] + np.log(c2[2:] * c2[1:-1]) + log_w4[1:-1] + log_w4[:-2])
    return log_s1, log_s2


def g1_intensity(state: ThermalState, spectrum: DickeSpectrum, coeffs: LadderCoeffs) -> float:
    """Psi-normalized mean intensity <S+ omega^4 S->.

    The same log-domain ladder sum as g2_zero, so the two agree bitwise;
    returns 0.0 where the intensity underflows at double precision.
    """
    log_s1, _ = _log_sums(state, spectrum, coeffs, pairs=False)
    return _exp(log_s1 - state.log_z)


def classify_statistics(g2_norm: float, tol: float = 1e-9) -> PhotonStatistics:
    """Photon statistics verdict: g2(0) below 1 is sub-Poissonian, above
    super-Poissonian, equal (within tol) Poissonian."""
    if tol < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    if not g2_norm >= 0.0:
        raise ValueError(f"g2(0) must be non-negative, got {g2_norm}")
    if g2_norm < 1.0 - tol:
        return PhotonStatistics.SUB_POISSONIAN
    if g2_norm > 1.0 + tol:
        return PhotonStatistics.SUPER_POISSONIAN
    return PhotonStatistics.POISSONIAN


def g2_zero(
    state: ThermalState,
    spectrum: DickeSpectrum,
    coeffs: LadderCoeffs,
    tol: float = 1e-9,
) -> CorrelatorResult:
    """Zero-delay second-order correlation of the scattered field.

    Raises ZeroIntensity when the intensity underflows to zero at double
    precision; for N = 1 the result is exactly 0 (a single emitter never
    yields a photon pair).
    """
    log_s1, log_s2 = _log_sums(state, spectrum, coeffs, pairs=True)
    log_z = state.log_z
    g1 = _exp(log_s1 - log_z)
    if g1 == 0.0:
        raise ZeroIntensity(
            "intensity underflows at double precision; the exact sums carry no "
            "information here, use the closed-form asymptotics"
        )
    if log_s2 == -math.inf:
        g2_raw = 0.0
        g2_norm = 0.0
    else:
        g2_raw = _exp(log_s2 - log_z)
        g2_norm = _exp(log_s2 + log_z - 2.0 * log_s1)
    return CorrelatorResult(
        g1=g1,
        g2_raw=g2_raw,
        g2_norm=g2_norm,
        classification=classify_statistics(g2_norm, tol),
    )


def steady_state_correlators(params: EnsembleParams, tol: float = 1e-9) -> CorrelatorResult:
    """Convenience wrapper: build the Gibbs state and evaluate g2_zero."""
    return g2_zero(*_ensemble(params), tol)


def _log_g1(params: EnsembleParams) -> float:
    state, spectrum, coeffs = _ensemble(params)
    log_s1, _ = _log_sums(state, spectrum, coeffs, pairs=False)
    log_g1 = log_s1 - state.log_z
    if _exp(log_g1) == 0.0:
        raise ZeroIntensity(
            f"intensity underflows at double precision for N={params.n_atoms}, "
            f"eta={params.eta}, x={params.x}"
        )
    return log_g1


def intensity_ratio(params: EnsembleParams) -> float:
    """Intensity ratio G1(eta)/G1(eta=0) at equal N and x.

    Evaluated as a difference of log intensities, so the ratio stays
    accurate deep into the cold regime where both intensities are tiny.
    """
    if params.eta == 0.0:
        raise ValueError("intensity_ratio requires eta != 0 (the reference is eta = 0)")
    log_num = _log_g1(params)
    log_den = _log_g1(replace(params, eta=0.0))
    return _exp(log_num - log_den)


def far_field_prefactor(geometry: FarFieldGeometry) -> float:
    """Geometric prefactor d^2*(1 - cos^2 angle)/(c^4 R^2) of the detected
    intensity; vanishes exactly along the dipole axis."""
    cos_xi = math.cos(geometry.angle)
    return (
        geometry.dipole**2
        * (1.0 - cos_xi**2)
        / (geometry.light_speed**4 * geometry.distance**2)
    )
