"""Steady-state photon correlation functions of the scattered field.

On the symmetric subspace the detected intensity and the zero-delay
second-order correlation reduce to single sums over the Dicke ladder:

    G1/Psi   = sum_{n>=1} p_n * n*(N-n+1) * omega_{n-1}^4
    G2/Psi^2 = sum_{n>=2} p_n * n*(N-n+1)*(n-1)*(N-n+2)
                          * omega_{n-1}^4 * omega_{n-2}^4
    g2(0)    = (G2/Psi^2) / (G1/Psi)^2

The detector's geometric far-field prefactor Psi is a plain
multiplicative factor of G1 that the library does not compute: it cancels
in g2(0) and in intensity_ratio, so every output is Psi-normalized.
In cold regimes the populations span hundreds of orders of magnitude, so
G1 and g2(0) are assembled from log-domain partial sums over the stored
log weights instead of ratios of underflowing floats: log G1 = log S1 -
log Z and log g2 = log S2 + log Z - 2 log S1, with the shared weight shift
cancelling exactly.  One kernel, ladder_log_sums(N, xs, etas), takes all
three sums for a whole x grid at every eta of one N, and builds the N-only
ladder logs log n(N-n+1) once for all of them.  Every single-point
function is its one-x case, a sweep and the asymptotic validator call it
once per N, and log Z is the same row sum as ThermalState.log_z.  One
column step, _column, turns the sums of one (N, eta) into G1, g2(0) and
the ratio to the eta = 0 reference at every x, None where an intensity
underflows; every path reads it.

In a cold bath most of a row is dead weight: the gaps E_n - E_0 grow with
n (every omega_n > 0), so beyond some level every term lies more than
about 746 below the row's maximum, and np.exp of the shifted term is
exactly 0.0.  The kernel exponentiates only the live prefix of each row,
min(N+1, ~(746 + spread)/(x*omega_0)) terms, where the spread bounds the
x-independent ladder logs log n(N-n+1) and 4 log omega_n; one searchsorted
over the very gaps the kernel multiplies by x gives the widths of the whole
x grid.  np.sum adds a row pairwise, so the rest of the row, the zeros
np.exp would have returned, pads the live terms only up to the node of
the full row's pairwise split that holds them (core._pairwise_length):
every other node would add an exact +0.0, so every result is
bit-identical to exponentiating the whole row.  A block of rows is cut
at the width of its widest row, so rows whose widths differ by more than
a factor of 2 (above 256 levels) never share one.  Every O(N) array of a
call lies in one workspace that the call owns, so a long-lived process
reuses its freed pages.
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
    _lowering,
    _pairwise_length,
    _ramp,
    _spectrum,
    logsumexp_rows,
)
from .exceptions import DimensionMismatch, ZeroIntensity

__all__ = [
    "PhotonStatistics",
    "CorrelatorResult",
    "LadderLogSums",
    "ladder_log_sums",
    "correlators_from_log_sums",
    "g2_zero",
    "intensity_ratio",
    "classify_statistics",
    "steady_state_correlators",
]

# half-width of the band around g2(0) = 1 classified as Poissonian
_POISSONIAN_TOL = 1e-9
# ladder terms summed per block of x rows, counted at the full row length
# N + 1, which bounds the pairwise node a cut row is padded to; a block is
# never smaller than one row, so a call's rows, terms and padding buffers
# take at most max(1 MB, 8*(N+1) bytes) each
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
    """log Z, log S1 and log S2 of one (N, eta) at each x of a grid, as
    float64 arrays in grid order.

    All three use the shifted log weights, so log G1 = log S1 - log Z.
    log S2 is -inf for N = 1.
    """

    log_z: np.ndarray
    log_s1: np.ndarray
    log_s2: np.ndarray


class _Cells(NamedTuple):
    """The correlator cells of one (N, eta) at each x of a grid (_column)."""

    g1: list[float]
    log_g1: np.ndarray
    g2: list[float | None]
    ratio: list[float | None] | None


def _c_logs(lowering: np.ndarray, c2=None, log_c2=None) -> tuple[np.ndarray, np.ndarray]:
    """The N-only parts of the ladder terms: the log ladder products of the
    G1 and G2 sums, log c_n^2 and log c_n^2 c_{n-1}^2 with c = lowering,
    for n >= 1 and n >= 2 (c_0 = 0), in c2 (N + 1 values, lowering itself
    allowed) and log_c2 (N - 1) when given."""
    c2 = np.square(lowering, out=c2)
    log_c2 = np.multiply(c2[2:], c2[1:-1], out=log_c2)
    np.log(log_c2, out=log_c2)
    return np.log(c2[1:], out=c2[1:]), log_c2


def _ladder_logs(frequencies: np.ndarray, c_logs: tuple, out: np.ndarray | None = None) -> tuple:
    """The x-independent logs of the ladder terms of one (N, eta):
    4 log omega_n, in out when given, then the two _c_logs."""
    log_w4 = np.log(frequencies, out=out)
    log_w4 *= 4.0
    return (log_w4, *c_logs)


def _log_sums(
    log_weights: np.ndarray,
    ladder_logs: tuple,
    levels: int,
    terms: np.ndarray,
    zeros: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized G1 and G2 sums for every row of log weights
    (one row per x) of a ladder of `levels` levels.  The rows may hold only
    its leading levels when the terms of the others exponentiate to exactly
    0.0 (see _live_widths); zeros is then the zero padding of
    logsumexp_rows.  The S1 and then the S2 terms are built in terms, the
    caller's flat buffer of at least log_weights.size values, which
    logsumexp_rows spends; log_weights is only read.
    """
    log_w4, log_c1, log_c2 = ladder_logs
    rows, live = log_weights.shape
    s1 = terms[: rows * (live - 1)].reshape(rows, live - 1)
    np.add(log_weights[:, 1:], log_c1[: live - 1], out=s1)
    s1 += log_w4[: live - 1]
    log_s1 = logsumexp_rows(s1, levels - 1, zeros=zeros)
    s2 = terms[: rows * (live - 2)].reshape(rows, live - 2)
    np.add(log_weights[:, 2:], log_c2[: live - 2], out=s2)
    s2 += log_w4[1 : live - 1]
    s2 += log_w4[: live - 2]
    return log_s1, logsumexp_rows(s2, levels - 2, zeros=zeros)


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
    A subnormal x overflows need to inf and keeps the full width.  So does
    a ladder that np.sum adds in one leaf (at most 128 levels): its
    _pairwise_length is the full row, so logsumexp_rows would pad every
    cut row back to it.
    """
    n = gaps.size - 1
    if _pairwise_length(n + 1, 3) == n + 1:
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


def _eta_log_sums(params: EnsembleParams, xs: np.ndarray, c_logs: tuple, slots) -> LadderLogSums:
    """ladder_log_sums at one (N, eta), given the N-only ladder logs and
    the call's slots (rows, terms, zeros, gaps, log_w4): the spectrum from a
    ramp in terms, then one pass per block of _blocks, its log weights
    built in rows and its S1 and S2 sums taken before the Z sum spends them."""
    rows, terms, zeros, gaps, log_w4 = slots
    _spectrum(params, _ramp(terms[: gaps.size]), gaps, log_w4)
    gaps -= gaps.min()
    blocks = _blocks(_live_widths(gaps, log_w4, xs), gaps.size)
    logs = _ladder_logs(log_w4, c_logs, out=log_w4)
    sums: list[np.ndarray] = [np.empty(xs.size) for _ in range(3)]
    for block, live in blocks:
        log_weights = rows[: block.size * live].reshape(block.size, live)
        with np.errstate(over="ignore"):  # a weight beyond the double range is -inf
            np.multiply(-xs[block, None], gaps[:live], out=log_weights)
        sums[1][block], sums[2][block] = _log_sums(log_weights, logs, gaps.size, terms, zeros)
        sums[0][block] = logsumexp_rows(log_weights, gaps.size, zeros=zeros)
    return LadderLogSums(*sums)


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
    is padded, up to the pairwise node of its live terms, with the exact
    zeros np.exp would return; a block whose every level is live runs the
    full rows with no padding.  Every O(N) array of the call lies in one
    workspace: rows, terms and zero padding slots of max(N + 1,
    min(_BLOCK_TERMS, len(xs)*(N + 1))) values, log c1, log c2, and one
    gaps and one 4 log omega slot that every eta reuses.  Every single-point
    function of this module, a sweep and the validator read this kernel.
    """
    etas = list(dict.fromkeys(etas))
    params = [EnsembleParams(n_atoms, eta) for eta in etas]
    xs = np.asarray(xs, dtype=float).ravel()
    for x in xs[~(np.isfinite(xs) & (xs > 0.0))]:
        EnsembleParams(n_atoms, 0.0, x)
    levels = EnsembleParams(n_atoms).n_atoms + 1
    size = max(levels, min(_BLOCK_TERMS, xs.size * levels))
    work = np.empty(3 * size + 4 * levels)
    rows, terms, zeros = work[: 3 * size].reshape(3, size)
    c, log_c2, gaps, log_w4 = work[3 * size :].reshape(4, levels)
    zeros.fill(0.0)
    _lowering(_ramp(terms[:levels]), c)
    c_logs = _c_logs(c, c, log_c2[: levels - 2])
    slots = (rows, terms, zeros, gaps, log_w4)
    return {eta: _eta_log_sums(p, xs, c_logs, slots) for eta, p in zip(etas, params)}


def _column(sums: LadderLogSums, ref: _Cells | None = None) -> _Cells:
    """G1, log G1, g2(0) and, given the cells of the eta = 0 reference over
    the same x grid, the ratio G1/G1_ref at each x of one (N, eta)'s ladder
    log sums.

    log G1 = log S1 - log Z and log g2(0) = (log S2 + log Z) - 2 log S1
    are one numpy pass over the arrays, whose +, - and * round as Python's
    floats do, and so is the log ratio log G1 - log G1_ref.  Each cell is
    exponentiated by _exp (math.exp), never np.exp, which can differ in
    the last bit.  G1 is 0.0, and g2(0) None, where the intensity
    underflows at double precision; the ratio is None where either
    intensity does, and inf beyond the double range.  g2(0) is 0 for
    N = 1, where log S2 is -inf.
    """
    log_z, log_s1, log_s2 = sums
    with np.errstate(invalid="ignore", over="ignore"):
        log_g1 = log_s1 - log_z
        log_g2 = ((log_s2 + log_z) - 2.0 * log_s1).tolist()
        log_ratio = None if ref is None else (log_g1 - ref.log_g1).tolist()
    g1 = list(map(_exp, log_g1.tolist()))
    g2 = [None if v == 0.0 else _exp(w) for v, w in zip(g1, log_g2)]
    ratio = None if ref is None else [
        None if v == 0.0 or r == 0.0 else _exp(d) for v, r, d in zip(g1, ref.g1, log_ratio)]
    return _Cells(g1, log_g1, g2, ratio)


def _g2_at(cells: _Cells, i: int) -> float:
    """g2(0) at the i-th x of cells; ZeroIntensity where the intensity
    underflowed."""
    if cells.g2[i] is None:
        raise ZeroIntensity(
            "intensity underflows at double precision; the exact sums carry no "
            "information here, use the closed-form asymptotics"
        )
    return cells.g2[i]


def _ratio_at(params: EnsembleParams, cells: _Cells, i: int) -> float:
    """intensity_ratio at params from the cells of its coupling, taken
    against the eta = 0 reference, at its x, the i-th of their grid.

    Where an intensity underflows, ZeroIntensity names the point of the
    side that did: the eta side if both did.
    """
    if cells.ratio[i] is None:
        eta = params.eta if cells.g1[i] == 0.0 else 0.0
        raise ZeroIntensity(
            f"intensity underflows at double precision for N={params.n_atoms}, "
            f"eta={eta}, x={params.x}"
        )
    return cells.ratio[i]


def correlators_from_log_sums(log_z: float, log_s1: float, log_s2: float) -> CorrelatorResult:
    """G1, G2 and g2(0) from one x of the ladder log sums.

    Raises ZeroIntensity when the intensity underflows to zero at double
    precision; for N = 1 the result is exactly 0 (a single emitter never
    yields a photon pair).
    """
    # a product refuses text (TypeError) as float arithmetic does, where
    # np.array(..., dtype=float) would parse it
    cells = _column(LadderLogSums(*np.multiply([[log_z], [log_s1], [log_s2]], 1.0)))
    g2_norm = _g2_at(cells, 0)
    return CorrelatorResult(
        g1=cells.g1[0],
        g2_raw=_exp(log_s2 - log_z),
        g2_norm=g2_norm,
        classification=classify_statistics(g2_norm),
    )


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
    logs = _ladder_logs(spectrum.frequencies, _c_logs(lowering))
    log_s1, log_s2 = _log_sums(state.log_weights[None, :], logs, state.dim, np.empty(state.dim))
    return correlators_from_log_sums(state.log_z, float(log_s1[0]), float(log_s2[0]))


def steady_state_correlators(params: EnsembleParams) -> CorrelatorResult:
    """Correlators at one point: the one-x case of ladder_log_sums."""
    sums = ladder_log_sums(params.n_atoms, [params.x], [params.eta])[params.eta]
    return correlators_from_log_sums(*(float(s[0]) for s in sums))


def intensity_ratio(params: EnsembleParams) -> float:
    """Intensity ratio G1(eta)/G1(eta=0) at equal N and x.

    Evaluated as a difference of log intensities, so the ratio stays
    accurate deep into the cold regime where both intensities are tiny.
    Both come from one ladder_log_sums call and one _column step each, as
    in a sweep and the asymptotic validator.
    """
    if params.eta == 0.0:
        raise ValueError("intensity_ratio requires eta != 0 (the reference is eta = 0)")
    sums = ladder_log_sums(params.n_atoms, [params.x], [params.eta, 0.0])
    return _ratio_at(params, _column(sums[params.eta], _column(sums[0.0])), 0)
