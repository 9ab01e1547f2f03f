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
cancelling exactly.  One kernel, ladder_log_sums, takes these sums for a
whole x grid at fixed (N, eta); every single-point function is its one-x
case, and log Z is the same row sum as ThermalState.log_z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DickeSpectrum,
    EnsembleParams,
    LadderCoeffs,
    ThermalState,
    build_spectrum,
    ladder_coefficients,
    logsumexp_rows,
    validate_params,
)
from .exceptions import DimensionMismatch, ZeroIntensity

__all__ = [
    "PhotonStatistics",
    "CorrelatorResult",
    "FarFieldGeometry",
    "LadderLogSums",
    "ladder_log_sums",
    "correlators_from_log_sums",
    "ratio_from_log_g1",
    "g2_zero",
    "intensity_ratio",
    "classify_statistics",
    "far_field_prefactor",
    "steady_state_correlators",
]

# exp() overflows just above this; beyond it the ratio is reported as inf
_EXP_MAX = 709.0
# ladder terms summed per block of x rows: one row at N = 1e5, about 1 MB
# per temporary
_BLOCK_TERMS = 1 << 17


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


def _exp(v: float) -> float:
    if v > _EXP_MAX:
        return math.inf
    return math.exp(v)


class LadderLogSums(NamedTuple):
    """log Z, log S1 and log S2 of one (N, eta) at each x of a grid.

    All three use the shifted log weights, so log G1 = log S1 - log Z.
    log S2 is -inf where it was not requested and for N = 1.
    """

    log_z: list[float]
    log_s1: list[float]
    log_s2: list[float]


def _ladder_logs(
    spectrum: DickeSpectrum, coeffs: LadderCoeffs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x-independent parts of the ladder terms: 4 log omega_n and the
    log ladder products of the G1 and G2 sums."""
    log_w4 = 4.0 * np.log(spectrum.frequencies)
    c2 = coeffs.lowering**2
    return log_w4, np.log(c2[1:]), np.log(c2[2:] * c2[1:-1])


def _log_sums(
    log_weights: np.ndarray, ladder_logs: tuple, pairs: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized G1 sum and, when pairs is set, of the G2 sum,
    for every row of log weights (one row per x)."""
    log_w4, log_c1, log_c2 = ladder_logs
    terms = log_weights[:, 1:] + log_c1
    terms += log_w4[:-1]
    log_s1 = logsumexp_rows(terms)
    if not pairs:
        return log_s1, np.full(log_s1.size, -math.inf)
    terms = log_weights[:, 2:] + log_c2
    terms += log_w4[1:-1]
    terms += log_w4[:-2]
    return log_s1, logsumexp_rows(terms)


def ladder_log_sums(n_atoms: int, eta: float, xs, pairs: bool = True) -> LadderLogSums:
    """log Z, log S1 and (with pairs) log S2 at every x in xs.

    The spectrum and ladder coefficients are built once; the log-weight
    rows -x*(E - min E) are summed in blocks of at most _BLOCK_TERMS
    ladder terms, so memory stays bounded at any N.  Every single-point
    function of this module is the one-x case of this kernel, so all
    paths agree bitwise.
    """
    params = validate_params(n_atoms, eta)
    xs = np.asarray(xs, dtype=float).ravel()
    for x in xs[~(np.isfinite(xs) & (xs > 0.0))]:
        validate_params(n_atoms, eta, x)
    spectrum = build_spectrum(params)
    logs = _ladder_logs(spectrum, ladder_coefficients(params.n_atoms))
    gaps = spectrum.energies - spectrum.energies.min()
    sums: list[np.ndarray] = [np.empty(xs.size) for _ in range(3)]
    rows = max(1, _BLOCK_TERMS // gaps.size)
    for lo in range(0, xs.size, rows):
        block = slice(lo, lo + rows)
        log_weights = -xs[block, None] * gaps
        sums[0][block] = logsumexp_rows(log_weights)
        sums[1][block], sums[2][block] = _log_sums(log_weights, logs, pairs)
    return LadderLogSums(*(s.tolist() for s in sums))


def correlators_from_log_sums(
    log_z: float, log_s1: float, log_s2: float, tol: float = 1e-9
) -> CorrelatorResult:
    """G1, G2 and g2(0) from one x of the ladder log sums.

    Raises ZeroIntensity when the intensity underflows to zero at double
    precision; for N = 1 the result is exactly 0 (a single emitter never
    yields a photon pair).
    """
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


def ratio_from_log_g1(log_g1: float, log_g1_ref: float) -> float:
    """G1/G1_ref from the two log intensities (log S1 - log Z of each).

    Raises ZeroIntensity when either intensity underflows; a quotient
    beyond the double range is inf.
    """
    if _exp(log_g1) == 0.0 or _exp(log_g1_ref) == 0.0:
        raise ZeroIntensity(
            "intensity underflows at double precision; the ratio carries no "
            "information here, use the closed-form asymptotics"
        )
    return _exp(log_g1 - log_g1_ref)


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
    _check_dimensions(state, spectrum, coeffs)
    log_s1, log_s2 = _log_sums(state.log_weights[None, :], _ladder_logs(spectrum, coeffs), True)
    return correlators_from_log_sums(state.log_z, float(log_s1[0]), float(log_s2[0]), tol)


def steady_state_correlators(params: EnsembleParams, tol: float = 1e-9) -> CorrelatorResult:
    """Correlators at one point: the one-x case of ladder_log_sums."""
    sums = ladder_log_sums(params.n_atoms, params.eta, [params.x])
    return correlators_from_log_sums(*(s[0] for s in sums), tol)


def intensity_ratio(params: EnsembleParams) -> float:
    """Intensity ratio G1(eta)/G1(eta=0) at equal N and x.

    Evaluated as a difference of log intensities, so the ratio stays
    accurate deep into the cold regime where both intensities are tiny.
    """
    if params.eta == 0.0:
        raise ValueError("intensity_ratio requires eta != 0 (the reference is eta = 0)")
    log_g1 = []
    for eta in (params.eta, 0.0):
        sums = ladder_log_sums(params.n_atoms, eta, [params.x], pairs=False)
        log_g1.append(sums.log_s1[0] - sums.log_z[0])
        if _exp(log_g1[-1]) == 0.0:
            raise ZeroIntensity(
                f"intensity underflows at double precision for N={params.n_atoms}, "
                f"eta={eta}, x={params.x}"
            )
    return ratio_from_log_g1(*log_g1)


def far_field_prefactor(geometry: FarFieldGeometry) -> float:
    """Geometric prefactor d^2*(1 - cos^2 angle)/(c^4 R^2) of the detected
    intensity; vanishes exactly along the dipole axis."""
    cos_xi = math.cos(geometry.angle)
    return (
        geometry.dipole**2
        * (1.0 - cos_xi**2)
        / (geometry.light_speed**4 * geometry.distance**2)
    )
