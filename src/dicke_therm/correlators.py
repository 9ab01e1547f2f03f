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
cancelling exactly.  One kernel, ladder_log_sums(N, xs, etas), takes all
three sums for a whole x grid at every eta of one N, and builds the N-only
ladder logs log n(N-n+1) once for all of them.  Every single-point
function is its one-x case, a sweep and the asymptotic validator call it
once per N, and log Z is the same row sum as ThermalState.log_z.

In a cold bath most of a row is dead weight: the gaps E_n - E_0 grow with
n (every omega_n > 0), so beyond some level every term lies more than
about 746 below the row's maximum, and np.exp of the shifted term is
exactly 0.0.  The kernel exponentiates only the live prefix of each row,
min(N+1, ~(746 + spread)/(x*omega_0)) terms, where the spread bounds the
x-independent ladder logs log n(N-n+1) and 4 log omega_n; one searchsorted
over the very gaps the kernel multiplies by x gives the widths of the whole
x grid.  The rest of the row is filled with the zeros np.exp would have
returned and summed at full length, so every result is bit-identical to
exponentiating the whole row.  A block of rows is cut at the width of its
widest row, so rows whose widths differ by more than a factor of 2 (above
256 levels) never share one.  The kernel shifts and exponentiates its own
term arrays in place, and one zero padding per (N, eta) serves all of its
cut rows.
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
    ThermalState,
    build_spectrum,
    ladder_coefficients,
    logsumexp_rows,
)
from .exceptions import DimensionMismatch, ZeroIntensity

__all__ = [
    "PhotonStatistics",
    "CorrelatorResult",
    "FarFieldGeometry",
    "LadderLogSums",
    "ladder_log_sums",
    "correlators_from_log_sums",
    "g2_zero",
    "intensity_ratio",
    "classify_statistics",
    "far_field_prefactor",
    "steady_state_correlators",
]

# half-width of the band around g2(0) = 1 classified as Poissonian
_POISSONIAN_TOL = 1e-9
# ladder terms summed per block of x rows, counted at the full row length
# N + 1 of the zero padding; a block is never smaller than one row, so a
# temporary takes max(1 MB, 8*(N+1) bytes)
_BLOCK_TERMS = 1 << 17
# rows whose live widths are at most this many levels may share a block;
# wider rows share one only with rows at least half as wide
_SHARED_WIDTH = 256
# np.exp(t) is exactly 0.0 for t < -745.14; a term this far below another
# of its row adds an exact zero, with one unit left for the rounding of
# the ladder logs
_DEAD_DROP = 747.0
# relative rounding of the products x*gap, with a wide margin
_REL_SLACK = 1e-9


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


def _check_dimensions(state: ThermalState, spectrum: DickeSpectrum, lowering: np.ndarray) -> None:
    sizes = {state.log_weights.size, spectrum.frequencies.size, lowering.size}
    if len(sizes) != 1:
        raise DimensionMismatch(
            "state, spectrum and ladder coefficients must come from the same ensemble; "
            f"got lengths {state.log_weights.size}, {spectrum.frequencies.size}, {lowering.size}"
        )


def _exp(v: float) -> float:
    """exp(v), or inf beyond the double range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class LadderLogSums(NamedTuple):
    """log Z, log S1 and log S2 of one (N, eta) at each x of a grid.

    All three use the shifted log weights, so log G1 = log S1 - log Z.
    log S2 is -inf for N = 1.
    """

    log_z: list[float]
    log_s1: list[float]
    log_s2: list[float]


def _c_logs(lowering: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The N-only parts of the ladder terms: the log ladder products of the
    G1 and G2 sums, log c_n^2 and log c_n^2 c_{n-1}^2 with c = lowering."""
    c2 = lowering**2
    return np.log(c2[1:]), np.log(c2[2:] * c2[1:-1])


def _log_sums(
    log_weights: np.ndarray,
    ladder_logs: tuple,
    levels: int,
    zeros: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized G1 and G2 sums for every row of log weights
    (one row per x) of a ladder of `levels` levels.  The rows may hold only
    its leading levels when the terms of the others exponentiate to exactly
    0.0 (see _live_widths); zeros is then the zero padding of
    logsumexp_rows.  The term arrays are this function's own, which
    logsumexp_rows spends; log_weights is only read.
    """
    log_w4, log_c1, log_c2 = ladder_logs
    live = log_weights.shape[1]
    terms = log_weights[:, 1:] + log_c1[: live - 1]
    terms += log_w4[: live - 1]
    log_s1 = logsumexp_rows(terms, levels - 1, zeros=zeros)
    terms = log_weights[:, 2:] + log_c2[: live - 2]
    terms += log_w4[1 : live - 1]
    terms += log_w4[: live - 2]
    return log_s1, logsumexp_rows(terms, levels - 2, zeros=zeros)


def _live_widths(gaps: np.ndarray, frequencies: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """How many leading levels of the ladder can add a nonzero term to the
    Z, S1 or S2 row at each inverse temperature x in xs: N + 1, or the
    first level beyond which every term lies more than _DEAD_DROP + spread
    below the row's term at level 2, so np.exp of its shifted value is 0.0.

    gaps are the stored gaps E_n - min E that the kernel multiplies by x;
    they increase with n because every omega_n > 0, so one searchsorted
    finds each width.  The spread bounds how far the x-independent logs can
    lift a later term over the level-2 one: log n(N-n+1) lies in
    [0, 2 log(N+1)], 4 log omega_n between its values at the ends of the
    ladder, and an S2 term holds two of each.  Every level n >= width has
    gaps[n] > need = ((_DEAD_DROP + spread)/x + gaps[2]*(1 + _REL_SLACK))
    / (1 - _REL_SLACK), so fl(x*gaps[n]) - fl(x*gaps[2]) > _DEAD_DROP +
    spread, _REL_SLACK covering the rounding of the products and of need:
    the shifted term lies below -745.14 and np.exp returns exactly 0.0.
    A subnormal x overflows need to inf and keeps the full width.
    """
    n = gaps.size - 1
    if n < 3:
        return np.full(xs.size, n + 1)
    spread = 4.0 * math.log(n + 1.0) + 8.0 * abs(
        math.log(frequencies[-1]) - math.log(frequencies[0])
    )
    with np.errstate(over="ignore"):
        need = ((_DEAD_DROP + spread) / xs + gaps[2] * (1.0 + _REL_SLACK)) / (1.0 - _REL_SLACK)
    return np.maximum(3, np.searchsorted(gaps, need, side="right"))


def _blocks(widths: np.ndarray, size: int) -> list[tuple[np.ndarray, int]]:
    """The blocks of x rows that ladder_log_sums sums together, each with
    its width, that of its widest row: (rows, width) pairs, rows an index
    array into widths.

    The rows run widest first, in grid order among equal widths, at most
    _BLOCK_TERMS // size of them to a block, or one.  A row joins a block
    while its width is at least half the block's, or while the block is at
    most _SHARED_WIDTH wide; the last block is the narrowest.
    """
    cap = max(1, _BLOCK_TERMS // size)
    order = np.argsort(-widths, kind="stable")
    negated = -widths[order]  # ascending, for searchsorted
    blocks = []
    start = 0
    while start < order.size:
        width = -int(negated[start])
        stop = min(start + cap, order.size)
        if width > _SHARED_WIDTH:
            # the rows at least half as wide: -w <= -ceil(width/2)
            stop = min(stop, int(np.searchsorted(negated, -((width + 1) // 2), side="right")))
        blocks.append((order[start:stop], width))
        start = stop
    return blocks


def _eta_log_sums(params: EnsembleParams, xs: np.ndarray, c_logs: tuple) -> LadderLogSums:
    """ladder_log_sums at one (N, eta), given the N-only ladder logs: the
    live widths of all rows from one _live_widths call, then one pass per
    block of _blocks, its S1 and S2 sums before the Z sum spends its log
    weights."""
    spectrum = build_spectrum(params)
    logs = (4.0 * np.log(spectrum.frequencies), *c_logs)
    gaps = spectrum.energies - spectrum.energies.min()
    sums: list[np.ndarray] = [np.empty(xs.size) for _ in range(3)]
    blocks = _blocks(_live_widths(gaps, spectrum.frequencies, xs), gaps.size)
    # one zero padding, room for a block of full rows, serves every cut row
    cut = blocks and blocks[-1][1] < gaps.size
    zeros = np.zeros(max(_BLOCK_TERMS, gaps.size)) if cut else None
    for block, live in blocks:
        with np.errstate(over="ignore"):  # a weight beyond the double range is -inf
            log_weights = -xs[block, None] * gaps[:live]
        sums[1][block], sums[2][block] = _log_sums(log_weights, logs, gaps.size, zeros)
        sums[0][block] = logsumexp_rows(log_weights, gaps.size, zeros=zeros)
    return LadderLogSums(*(s.tolist() for s in sums))


def ladder_log_sums(n_atoms: int, xs, etas) -> dict[float, LadderLogSums]:
    """log Z, log S1 and log S2 at every x in xs, for each eta of the
    iterable etas, keyed by eta in first-seen order; a repeated eta is
    summed once.

    The x grid is checked and converted once, and the N-only ladder logs
    are built once for all eta.  Each eta's log-weight rows -x*(E - min E)
    are summed in blocks of at most _BLOCK_TERMS ladder terms, or of one
    row of N + 1 terms when N + 1 exceeds that.  Each block computes only
    the live prefix of its widest row (_live_widths), and rows of very
    different widths never share a block (_blocks).  The rest of each row
    is padded with the exact zeros np.exp would return; a block whose every
    level is live runs the full rows with no padding.  Every single-point
    function of this module, a sweep and the asymptotic validator all read
    this kernel, so all paths agree bitwise.
    """
    etas = list(dict.fromkeys(etas))
    params = [EnsembleParams(n_atoms, eta) for eta in etas]
    xs = np.asarray(xs, dtype=float).ravel()
    for x in xs[~(np.isfinite(xs) & (xs > 0.0))]:
        EnsembleParams(n_atoms, 0.0, x)
    c_logs = _c_logs(ladder_coefficients(n_atoms))
    return {eta: _eta_log_sums(p, xs, c_logs) for eta, p in zip(etas, params)}


def _g1_g2(log_z: float, log_s1: float, log_s2: float) -> tuple[float, float] | None:
    """G1 and g2(0) from one x of the ladder log sums, or None when the
    intensity underflows to zero at double precision.  g2(0) is 0 for
    N = 1, where log S2 is -inf."""
    g1 = _exp(log_s1 - log_z)
    if g1 == 0.0:
        return None
    return g1, _exp(log_s2 + log_z - 2.0 * log_s1)


def correlators_from_log_sums(log_z: float, log_s1: float, log_s2: float) -> CorrelatorResult:
    """G1, G2 and g2(0) from one x of the ladder log sums.

    Raises ZeroIntensity when the intensity underflows to zero at double
    precision; for N = 1 the result is exactly 0 (a single emitter never
    yields a photon pair).
    """
    cells = _g1_g2(log_z, log_s1, log_s2)
    if cells is None:
        raise ZeroIntensity(
            "intensity underflows at double precision; the exact sums carry no "
            "information here, use the closed-form asymptotics"
        )
    g1, g2_norm = cells
    g2_raw = _exp(log_s2 - log_z)
    return CorrelatorResult(
        g1=g1,
        g2_raw=g2_raw,
        g2_norm=g2_norm,
        classification=classify_statistics(g2_norm),
    )


def _ratio(log_g1: float, log_g1_ref: float) -> float | None:
    """G1/G1_ref from the two log intensities (log S1 - log Z of each), or
    None when either intensity underflows to zero at double precision; a
    quotient beyond the double range is inf."""
    if _exp(log_g1) == 0.0 or _exp(log_g1_ref) == 0.0:
        return None
    return _exp(log_g1 - log_g1_ref)


def classify_statistics(g2_norm: float) -> PhotonStatistics:
    """Photon statistics verdict: g2(0) below 1 is sub-Poissonian, above
    super-Poissonian, equal (within _POISSONIAN_TOL = 1e-9) Poissonian."""
    if not g2_norm >= 0.0:
        raise ValueError(f"g2(0) must be non-negative, got {g2_norm}")
    if g2_norm < 1.0 - _POISSONIAN_TOL:
        return PhotonStatistics.SUB_POISSONIAN
    if g2_norm > 1.0 + _POISSONIAN_TOL:
        return PhotonStatistics.SUPER_POISSONIAN
    return PhotonStatistics.POISSONIAN


def g2_zero(
    state: ThermalState, spectrum: DickeSpectrum, lowering: np.ndarray
) -> CorrelatorResult:
    """Zero-delay second-order correlation of the scattered field from a
    state, spectrum and ladder_coefficients array of one ensemble.

    Raises ZeroIntensity when the intensity underflows to zero at double
    precision; for N = 1 the result is exactly 0 (a single emitter never
    yields a photon pair).
    """
    _check_dimensions(state, spectrum, lowering)
    logs = (4.0 * np.log(spectrum.frequencies), *_c_logs(lowering))
    log_s1, log_s2 = _log_sums(state.log_weights[None, :], logs, state.dim)
    return correlators_from_log_sums(state.log_z, float(log_s1[0]), float(log_s2[0]))


def steady_state_correlators(params: EnsembleParams) -> CorrelatorResult:
    """Correlators at one point: the one-x case of ladder_log_sums."""
    sums = ladder_log_sums(params.n_atoms, [params.x], [params.eta])[params.eta]
    return correlators_from_log_sums(*(s[0] for s in sums))


def _ratio_at(params: EnsembleParams, cell, ref_cell) -> float:
    """intensity_ratio at params from its (log Z, log S1, ...) cell and the
    cell of the eta = 0 reference at the same N and x.

    Where an intensity underflows, ZeroIntensity names the point of the
    side that did: the eta side if both did.
    """
    log_g1, log_g1_ref = (log_s1 - log_z for log_z, log_s1, *_ in (cell, ref_cell))
    ratio = _ratio(log_g1, log_g1_ref)
    if ratio is None:
        eta = params.eta if _exp(log_g1) == 0.0 else 0.0
        raise ZeroIntensity(
            f"intensity underflows at double precision for N={params.n_atoms}, "
            f"eta={eta}, x={params.x}"
        )
    return ratio


def intensity_ratio(params: EnsembleParams) -> float:
    """Intensity ratio G1(eta)/G1(eta=0) at equal N and x.

    Evaluated as a difference of log intensities, so the ratio stays
    accurate deep into the cold regime where both intensities are tiny.
    Both come from one ladder_log_sums call, as in a sweep, and _ratio_at
    reads them, as the asymptotic validator does.
    """
    if params.eta == 0.0:
        raise ValueError("intensity_ratio requires eta != 0 (the reference is eta = 0)")
    sums = ladder_log_sums(params.n_atoms, [params.x], [params.eta, 0.0])
    return _ratio_at(params, *[(s.log_z[0], s.log_s1[0]) for s in sums.values()])


def far_field_prefactor(geometry: FarFieldGeometry) -> float:
    """Geometric prefactor d^2*(1 - cos^2 angle)/(c^4 R^2) of the detected
    intensity; vanishes exactly along the dipole axis."""
    cos_xi = math.cos(geometry.angle)
    return (
        geometry.dipole**2
        * (1.0 - cos_xi**2)
        / (geometry.light_speed**4 * geometry.distance**2)
    )
