"""Master-equation dynamics on the symmetric-subspace density matrix.

The dissipator couples the collective ladder operators to a thermal bath
through level-dependent rates: with the cubic decay rate Gamma(w) = w^3
(Gamma(omega0) = 1 in code units), the Bose-Einstein occupation
nbar(w) = 1/(exp(x*w) - 1) at the ensemble's own inverse temperature x,
and D1 = Gamma(w)/2*(1+nbar(w)) and D2 = Gamma(w)/2*nbar(w) diagonal in the
Dicke basis,

    drho/dt = -[S+, D1 S- rho] - [S-, S+ D2 rho] + h.c.

The operator ordering is implemented exactly as written (rate operators
adjacent to rho in the stated positions); the hermitian conjugate closes
hermiticity.  The Gibbs state is annihilated by construction: the downward
and upward fluxes between neighbouring levels balance because the level
spacing E_{n+1}-E_n equals the transition frequency omega_n.

The generator never mixes coherence bands: rho_{i,i+k} is fed only by
rho_{i+1,i+k+1} and rho_{i-1,i+k-1}, so each band k evolves under its own
real tridiagonal matrix, the populations (k = 0) as a birth-death chain.
The integrator advances each band with an exact RK4 step map; a band that
starts at zero stays exactly zero, so it is skipped.  Every initial-state
kind is diagonal, so these trajectories build the population map alone and
take their diagnostics from the populations in O(N) per sample.  Dense
density matrices are assembled only on request (`Trajectory.states`).

Complete positivity is not assumed anywhere: the minimum eigenvalue is
recorded as a diagnostic along every trajectory rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import EnsembleParams, build_spectrum, ladder_coefficients, thermal_state
from .exceptions import DimensionMismatch, NonFiniteState, StepTooLarge

__all__ = [
    "StepControl",
    "Trajectory",
    "ThermalLiouvillian",
    "MAX_DYNAMICS_ATOMS",
    "INITIAL_STATE_KINDS",
    "integrate",
    "steady_state_residual",
    "initial_state",
    "trace_distance",
    "default_step",
]

# a diagonal start builds and guards one (N+1)^2 step map, O(N^3 log(steps));
# a start with coherences does so for each nonzero band, up to
# O(N^4 log(steps)), and its dense per-sample diagnostics cost O(N^3) each.
# The correlator engine covers larger ensembles.
MAX_DYNAMICS_ATOMS = 200

INITIAL_STATE_KINDS = ("ground", "inverted", "equal", "gibbs")

# largest trace change one RK4 step may make, checked before the first step
# and over every sample interval
_MAX_TRACE_DRIFT = 1e-8


@dataclass(frozen=True)
class StepControl:
    """Fixed-step integrator settings.

    h is the RK4 step in the time unit 1/Gamma(omega0); None picks the
    conservative `default_step`.  The trace is never renormalized, so trace
    drift stays visible as a diagnostic.
    """

    h: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled populations and nonzero coherence bands, with per-sample
    health diagnostics.

    populations[i] is the diagonal of the state at times[i];
    coherences[k][i] is its band rho_{j,j+k}, j = 0..N-k, kept only for the
    bands k >= 1 that start nonzero (the others stay exactly zero).
    """

    times: np.ndarray
    populations: np.ndarray  # (n_samples, dim) real
    coherences: dict[int, np.ndarray]  # k -> (n_samples, dim - k) complex
    rho0: np.ndarray
    trace_drift: np.ndarray
    herm_defect: np.ndarray
    min_eigenvalue: np.ndarray
    trace_dist_to_gibbs: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        """Dense density matrices (n_samples, dim, dim), states[0] = rho0,
        assembled on first access."""
        n_samples, dim = self.populations.shape
        states = np.zeros((n_samples, dim, dim), dtype=complex)
        states[0] = self.rho0
        idx = np.arange(dim)
        states[1:, idx, idx] = self.populations[1:]
        for k, band in self.coherences.items():
            rows, cols = idx[: dim - k], idx[k:]
            states[1:, cols, rows] = band[1:].conj()
            states[1:, rows, cols] = band[1:]
        return states

    @property
    def final_trace_distance(self) -> float:
        return float(self.trace_dist_to_gibbs[-1])


class ThermalLiouvillian:
    """Right-hand side of the thermal master equation, precomputed once.

    With l_n the lowering coefficients (l_0 = l_{N+1} = 0), d1_n and d2_n
    the rates of the n <-> n+1 transition and
    r_i = d1_{i-1} l_i^2 + d2_i l_{i+1}^2, the equation reads, for hermitian
    rho,

        L(rho)_ij = -(r_i + r_j) rho_ij
                    + (d1_i + d1_j) l_{i+1} l_{j+1} rho_{i+1,j+1}
                    + (d2_{i-1} + d2_{j-1}) l_i l_j rho_{i-1,j-1}.

    The three coefficient arrays are symmetric, so the result is hermitian
    exactly when rho is, and each coherence band rho_{i,i+k} evolves on its
    own under a real tridiagonal generator (see `band`).
    """

    def __init__(self, params: EnsembleParams):
        self.params = params
        self.dim = params.n_atoms + 1
        r, d1, d2, lo = _level_rates(params)
        ll = np.outer(lo, lo)
        self._loss = -(r[:, None] + r[None, :])
        # _gain_down[i, j] feeds rho_ij from rho_{i+1,j+1}; _gain_up[i, j]
        # feeds rho_{i+1,j+1} from rho_ij
        self._gain_down = (d1[:, None] + d1[None, :]) * ll
        self._gain_up = (d2[:, None] + d2[None, :]) * ll

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for hermitian rho: traceless and hermitian."""
        _check_shape(rho, self.dim)
        out = self._loss * rho
        out[:-1, :-1] += self._gain_down * rho[1:, 1:]
        out[1:, 1:] += self._gain_up * rho[:-1, :-1]
        return out

    def band(self, k: int) -> np.ndarray:
        """Generator of the coherence band v_i = rho_{i,i+k}, i = 0..N-k:
        dv/dt = A_k v with A_k real tridiagonal."""
        return (
            np.diag(np.diagonal(self._loss, k))
            + np.diag(np.diagonal(self._gain_down, k), 1)
            + np.diag(np.diagonal(self._gain_up, k), -1)
        )


def _level_rates(params: EnsembleParams) -> tuple[np.ndarray, ...]:
    """The O(N) vectors of ThermalLiouvillian: r_i, d1_n, d2_n and
    l_{n+1}, n = 0..N-1 (omega_n drives the n <-> n+1 transition)."""
    gamma, nbar = _bath_rates(build_spectrum(params).frequencies[:-1], params.x)
    d1 = 0.5 * gamma * (1.0 + nbar)
    d2 = 0.5 * gamma * nbar
    lo = ladder_coefficients(params.n_atoms).lowering[1:]
    r = np.zeros(params.n_atoms + 1)
    r[1:] += d1 * lo**2
    r[:-1] += d2 * lo**2
    return r, d1, d2, lo


def _bath_rates(omega: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic decay rate Gamma = omega^3 and Bose-Einstein occupation
    nbar = 1/(exp(x*omega) - 1) at the frequencies omega; expm1 keeps nbar
    accurate for small x*omega, and its overflow at a cold bath gives the
    right limit nbar = 0."""
    with np.errstate(over="ignore"):
        return omega**3, 1.0 / np.expm1(x * omega)


def default_step(params: EnsembleParams) -> float:
    """Conservative fixed step: 0.01/((1+nbar_max)*N^2), nbar_max over
    every transition frequency."""
    nbar_max = float(np.max(_bath_rates(build_spectrum(params).frequencies, params.x)[1]))
    return 0.01 / ((1.0 + nbar_max) * params.n_atoms**2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance 0.5*||a - b||_1 of the hermitian parts."""
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _check_atom_cap(params: EnsembleParams) -> None:
    if params.n_atoms > MAX_DYNAMICS_ATOMS:
        raise ValueError(
            f"dynamics is capped at N <= {MAX_DYNAMICS_ATOMS}, got N={params.n_atoms}"
        )


def initial_state(params: EnsembleParams, kind: str) -> np.ndarray:
    """Standard initial density matrices in the Dicke basis.

    ground   : all emitters in the lower state, |0><0|
    inverted : all emitters excited, |N><N|
    equal    : uniform diagonal mixture over the ladder
    gibbs    : thermal steady state for the given parameters

    Raises ValueError above MAX_DYNAMICS_ATOMS, before the matrix is
    allocated.
    """
    _check_atom_cap(params)
    dim = params.n_atoms + 1
    rho = np.zeros((dim, dim), dtype=complex)
    if kind == "ground":
        rho[0, 0] = 1.0
    elif kind == "inverted":
        rho[-1, -1] = 1.0
    elif kind == "equal":
        np.fill_diagonal(rho, 1.0 / dim)
    elif kind == "gibbs":
        np.fill_diagonal(rho, thermal_state(params).populations)
    else:
        raise ValueError(f"unknown initial state {kind!r}; choose from {INITIAL_STATE_KINDS}")
    return rho


def _check_shape(rho: np.ndarray, dim: int) -> None:
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")


def _check_density_matrix(rho: np.ndarray, dim: int) -> None:
    _check_shape(rho, dim)
    if not np.all(np.isfinite(rho)):
        raise NonFiniteState("initial state contains non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("initial state is not hermitian within 1e-12")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("initial state trace differs from 1 by more than 1e-12")


def _rk4_gain(z):
    """RK4 stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _rk4_increment(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dv/dt = a v as the increment R(ha) - I."""
    x = h * a
    eye = np.eye(len(a))
    t = eye + x / 4.0
    t = eye + (x / 3.0) @ t
    t = eye + (x / 2.0) @ t
    return x @ t


def _power_increment(e: np.ndarray, steps: int) -> np.ndarray:
    """(I + e)^steps - I by binary powering.

    I + e is never formed: near a fixed point it would round the increment
    away, so the composition rules E_2m = 2E_m + E_m^2 and
    E_a o E_b = E_a + E_b + E_a E_b act on increments only.
    """
    out = None
    while True:
        if steps & 1:
            out = e if out is None else out + e + out @ e
        steps >>= 1
        if not steps:
            return out
        e = 2.0 * e + e @ e


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real tridiagonal matrix whose off-diagonal products
    are nonnegative: the characteristic polynomial depends only on those
    products, so they are those of the symmetric matrix with off-diagonals
    sqrt(super_i * sub_{i+1})."""
    off = np.sqrt(np.diag(a, 1) * np.diag(a, -1))
    return np.linalg.eigvalsh(np.diag(np.diag(a)) + np.diag(off, 1) + np.diag(off, -1))


def _check_step(generators: list[np.ndarray], h: float) -> None:
    """Raise StepTooLarge before any step if RK4 amplifies an eigenmode
    of the advanced bands' generators, band 0 first (|R(h*lambda)| > 1),
    or drifts the trace by more than _MAX_TRACE_DRIFT per step."""
    # the generator is dissipative: a positive eigenvalue is rounding of
    # the conserved trace mode
    lam = np.minimum(np.concatenate([_eigenvalues(a) for a in generators]), 0.0)
    gain = float(np.max(np.abs(_rk4_gain(h * lam))))
    if gain > 1.0:
        raise StepTooLarge(
            f"RK4 is unstable at h={h:g}: |R(h*lambda)| reaches {gain:.3e} > 1; "
            "reduce the step"
        )
    # trace change of one step from unit populations: column sums
    drift = float(np.max(np.abs(_rk4_increment(generators[0], h).sum(axis=0))))
    if drift > _MAX_TRACE_DRIFT:
        raise StepTooLarge(
            f"trace drift {drift:.3e} per step exceeds {_MAX_TRACE_DRIFT:.3e}; "
            f"reduce the step below h={h:g}"
        )


def _band_history(
    a: np.ndarray, v0: np.ndarray, h: float, steps: int, intervals: int
) -> np.ndarray:
    """Band vector at every sample: each of the equal sample intervals is
    `steps` RK4 steps of size h, applied as one exact map."""
    hist = np.empty((intervals + 1, v0.size), dtype=complex)
    hist[0] = v0
    # cast once: the loop's complex products are those of the real map
    step_map = _power_increment(_rk4_increment(a, h), steps).astype(complex)
    for i in range(intervals):
        hist[i + 1] = hist[i] + step_map @ hist[i]
    return hist


def integrate(
    rho0: np.ndarray,
    t_end: float,
    params: EnsembleParams,
    ctrl: StepControl | None = None,
    n_samples: int = 101,
) -> Trajectory:
    """Classical fixed-step RK4 evolution of the master equation.

    Samples (with diagnostics) are recorded at n_samples evenly spaced
    times from 0 to t_end.  The step is shortened to h = dt/steps, with
    dt = t_end/(n_samples - 1), so every interval is the same whole number
    of steps.  Each coherence band rho_{i,i+k} evolves under its own
    generator A_k (`ThermalLiouvillian.band`), so the RK4 steps of an
    interval collapse into one map R(hA_k)^steps, built once per band by
    binary powering: the work grows with log(steps), not steps.  A band
    that starts at zero stays zero and gets no map.

    When every coherence band starts at zero, the samples after the first
    take their diagnostics from the populations p: min_eig = min(p),
    trace_dist_to_gibbs = sum|p - pi|/2 and herm_defect = 0.  Otherwise,
    and always for the first sample, they come from the dense state.

    Raises ValueError for a step that is not positive and finite, and
    StepTooLarge before any step when RK4 at the step is unstable for the
    A_k of some band it advances or its one-step trace drift exceeds 1e-8,
    and when an interval's trace changes by more than steps times that
    bound; raises NonFiniteState when the state blows up.
    """
    _check_atom_cap(params)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    ctrl = ctrl or StepControl()
    liou = ThermalLiouvillian(params)
    _check_density_matrix(rho0, liou.dim)

    h_max = ctrl.h if ctrl.h is not None else default_step(params)
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"step must be positive and finite, got {h_max}")

    times = np.linspace(0.0, t_end, n_samples)
    # every sample interval is the same span, so one (h, steps) pair and one
    # map per band serve the whole trajectory
    span = t_end / (n_samples - 1)
    steps = max(1, math.ceil(span / h_max))
    h = span / steps
    # a band that starts at zero stays zero: it gets no map and no guard
    herm = 0.5 * (rho0 + rho0.conj().T)
    starts = {k: np.diagonal(herm, k) for k in range(liou.dim)}
    generators = {k: liou.band(k) for k, v0 in starts.items() if k == 0 or v0.any()}
    _check_step(list(generators.values()), h)

    bands = {}
    for k, a in generators.items():
        hist = _band_history(a, starts[k], h, steps, n_samples - 1)
        blown = ~np.all(np.isfinite(hist), axis=1)
        if blown.any():
            raise NonFiniteState(f"state became non-finite near t={times[np.argmax(blown)]:g}")
        if k == 0:
            change = np.abs(np.diff(hist.sum(axis=1).real))
            if np.max(change) > _MAX_TRACE_DRIFT * steps:
                raise StepTooLarge(
                    f"trace drift {np.max(change):.3e} over {steps} steps exceeds "
                    f"{_MAX_TRACE_DRIFT:.3e} per step; reduce the step below h={h:g}"
                )
        bands[k] = hist

    diag = {k: np.empty(n_samples) for k in ("drift", "herm", "mineig", "dist")}
    traj = Trajectory(
        times=times,
        populations=bands.pop(0).real.copy(),
        coherences=bands,
        rho0=np.array(rho0, dtype=complex),
        trace_drift=diag["drift"],
        herm_defect=diag["herm"],
        min_eigenvalue=diag["mineig"],
        trace_dist_to_gibbs=diag["dist"],
    )
    pi = thermal_state(params).populations
    gibbs = np.diag(pi).astype(complex)
    if bands:
        for i, rho in enumerate(traj.states):
            _record(diag, i, rho, gibbs)
    else:
        _record(diag, 0, traj.rho0, gibbs)
        p = traj.populations[1:]
        diag["drift"][1:] = np.abs(p.sum(axis=1) - 1.0)
        diag["herm"][1:] = 0.0
        diag["mineig"][1:] = p.min(axis=1)
        diag["dist"][1:] = 0.5 * np.abs(p - pi).sum(axis=1)
    return traj


def _record(diag, i, rho, gibbs) -> None:
    diag["drift"][i] = abs(np.trace(rho).real - 1.0)
    diag["herm"][i] = float(np.max(np.abs(rho - rho.conj().T)))
    herm = 0.5 * (rho + rho.conj().T)
    diag["mineig"][i] = float(np.min(np.linalg.eigvalsh(herm)))
    diag["dist"][i] = trace_distance(rho, gibbs)


def steady_state_residual(params: EnsembleParams) -> float:
    """Max-norm of the master equation applied to the Gibbs state, in units
    of Gamma(omega0) = 1.  The headline stationarity check: should sit at
    rounding level.

    The Gibbs state is diagonal, and so is its image: band 0 of the
    equation, applied to the populations from the O(N) rate vectors with
    the products of ThermalLiouvillian.apply in the same order, gives the
    same value in O(N) time and memory at any N.
    """
    p = thermal_state(params).populations
    r, d1, d2, lo = _level_rates(params)
    ll = lo * lo
    out = -(r + r) * p
    out[:-1] += (d1 + d1) * ll * p[1:]
    out[1:] += (d2 + d2) * ll * p[:-1]
    return float(np.max(np.abs(out)))
