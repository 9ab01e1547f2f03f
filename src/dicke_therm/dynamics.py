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
The integrator powers one RK4 increment per band into an exact step map;
a band that starts at zero stays exactly zero, so it is skipped.  Every
initial-state kind is diagonal, so these trajectories build the population
map alone and take their diagnostics from the populations in O(N) per
sample; a start with coherences takes them from the dense density
matrices (`Trajectory.states`), which are otherwise built only on request.

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

# largest trace change of one sample interval, checked after band 0's history
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
    """Right-hand side of the thermal master equation, from O(N) vectors.

    With l_n the lowering coefficients (l_0 = l_{N+1} = 0), d1_n and d2_n
    the rates of the n <-> n+1 transition and
    r_i = d1_{i-1} l_i^2 + d2_i l_{i+1}^2, the equation reads, for hermitian
    rho,

        L(rho)_ij = -(r_i + r_j) rho_ij
                    + (d1_i + d1_j) l_{i+1} l_{j+1} rho_{i+1,j+1}
                    + (d2_{i-1} + d2_{j-1}) l_i l_j rho_{i-1,j-1}.

    The three coefficients are symmetric in i and j, so the result is
    hermitian exactly when rho is, and each coherence band rho_{i,i+k}
    evolves on its own under a real tridiagonal generator (see `band`)
    whose diagonals are slices of the vectors r, d1, d2 and l.
    """

    def __init__(self, params: EnsembleParams):
        self.params = params
        self.dim = params.n_atoms + 1
        # omega_n drives the n <-> n+1 transition, n = 0..N-1
        gamma, nbar = _bath_rates(build_spectrum(params).frequencies[:-1], params.x)
        self._d1 = 0.5 * gamma * (1.0 + nbar)
        self._d2 = 0.5 * gamma * nbar
        self._lo = ladder_coefficients(params.n_atoms)[1:]  # l_{n+1}
        self._r = np.zeros(self.dim)
        self._r[1:] += self._d1 * self._lo**2
        self._r[:-1] += self._d2 * self._lo**2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for hermitian rho: traceless and hermitian."""
        _check_shape(rho, self.dim)
        r, d1, d2, lo = self._r, self._d1, self._d2, self._lo
        ll = lo[:, None] * lo[None, :]
        out = -(r[:, None] + r[None, :]) * rho
        out[:-1, :-1] += (d1[:, None] + d1[None, :]) * ll * rho[1:, 1:]
        out[1:, 1:] += (d2[:, None] + d2[None, :]) * ll * rho[:-1, :-1]
        return out

    def _band_diagonals(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Band k's diagonal, superdiagonal (feeding v_i from v_{i+1}) and
        subdiagonal (feeding v_{i+1} from v_i)."""
        n = self.dim - 1
        ll = self._lo[: n - k] * self._lo[k:]
        return (
            -(self._r[: n + 1 - k] + self._r[k:]),
            (self._d1[: n - k] + self._d1[k:]) * ll,
            (self._d2[: n - k] + self._d2[k:]) * ll,
        )

    def band(self, k: int) -> np.ndarray:
        """Generator of the coherence band v_i = rho_{i,i+k}, i = 0..N-k:
        dv/dt = A_k v with A_k real tridiagonal."""
        loss, down, up = self._band_diagonals(k)
        return np.diag(loss) + np.diag(down, 1) + np.diag(up, -1)


def _bath_rates(omega: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic decay rate Gamma = omega^3 and Bose-Einstein occupation
    nbar = 1/(exp(x*omega) - 1) at the frequencies omega; expm1 keeps nbar
    accurate for small x*omega, and its overflow at a cold bath gives the
    right limit nbar = 0."""
    with np.errstate(over="ignore"):
        return omega**3, 1.0 / np.expm1(x * omega)


def default_step(params: EnsembleParams) -> float:
    """Conservative fixed step: 0.01/((1+nbar_max)*N^2), nbar_max over
    all N+1 frequencies omega_0..omega_N, omega_N included although it
    drives no transition."""
    nbar_max = float(np.max(_bath_rates(build_spectrum(params).frequencies, params.x)[1]))
    return 0.01 / ((1.0 + nbar_max) * params.n_atoms**2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """0.5*(m + m^H) of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Trace distance 0.5*||a - b||_1 of the hermitian parts: a float for
    two matrices, an array with one distance per matrix for a stack."""
    d = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(a - b))), axis=-1)
    return float(d) if d.ndim == 0 else d


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


def _check_density_matrix(rho: np.ndarray, dim: int) -> float:
    """Refuse an invalid start; return its hermiticity defect max|rho - rho^H|."""
    _check_shape(rho, dim)
    if not np.all(np.isfinite(rho)):
        raise NonFiniteState("initial state contains non-finite entries")
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > 1e-12:
        raise ValueError("initial state is not hermitian within 1e-12")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("initial state trace differs from 1 by more than 1e-12")
    return defect


def _rk4_increment(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dv/dt = a v as the increment R(ha) - I."""
    x = h * a
    eye = np.eye(len(a))
    t = eye + x / 4.0
    t = eye + (x / 3.0) @ t
    t = eye + (x / 2.0) @ t
    return x @ t


def _power_increment(e: np.ndarray, steps: int, conserve: bool = False) -> np.ndarray:
    """(I + e)^steps - I by binary powering.

    I + e is never formed: near a fixed point it would round the increment
    away, so the composition rules E_2m = 2E_m + E_m^2 and
    E_a o E_b = E_a + E_b + E_a E_b act on increments only.  With conserve
    (band 0, whose generator's columns sum to zero), each composition and
    each doubling moves its columns' sums onto the diagonal, so rounding
    in the conserved trace does not double with every squaring.
    """
    def kept(m: np.ndarray) -> np.ndarray:
        if conserve:
            m.ravel()[:: len(m) + 1] -= m.sum(axis=0)
        return m

    out = None
    while True:
        if steps & 1:
            out = e if out is None else kept(out + e + out @ e)
        steps >>= 1
        if not steps:
            return out
        e = kept(2.0 * e + e @ e)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real tridiagonal matrix whose off-diagonal products
    are nonnegative: the characteristic polynomial depends only on those
    products, so they are those of the symmetric matrix with off-diagonals
    sqrt(super_i * sub_{i+1})."""
    off = np.sqrt(np.diag(a, 1) * np.diag(a, -1))
    return np.linalg.eigvalsh(np.diag(np.diag(a)) + np.diag(off, 1) + np.diag(off, -1))


def _check_step(generators: list[np.ndarray], h: float) -> None:
    """Raise StepTooLarge before any step if RK4 amplifies an eigenmode
    of the advanced bands' generators, band 0 first (|R(h*lambda)| > 1)."""
    # the generator is dissipative: a positive eigenvalue is rounding of
    # the conserved trace mode
    z = h * np.minimum(np.concatenate([_eigenvalues(a) for a in generators]), 0.0)
    # RK4 stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    gain = float(np.max(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))))
    if gain > 1.0:
        raise StepTooLarge(
            f"RK4 is unstable at h={h:g}: |R(h*lambda)| reaches {gain:.3e} > 1; "
            "reduce the step"
        )


def _band_history(
    e: np.ndarray, v0: np.ndarray, steps: int, times: np.ndarray, conserve: bool = False
) -> np.ndarray:
    """Band vector at the sample times from any start v0 (complex, not
    normalised), each interval `steps` RK4 steps I + e = R(hA) as one exact
    map, powered with conserve for band 0 (_power_increment); raises
    NonFiniteState at the first blown sample."""
    hist = np.empty((len(times), v0.size), dtype=complex)
    hist[0] = v0
    with np.errstate(over="ignore", invalid="ignore"):
        # cast once: the loop's complex products are those of the real map
        step_map = _power_increment(e, steps, conserve).astype(complex)
        for i in range(len(times) - 1):
            hist[i + 1] = hist[i] + step_map @ hist[i]
    blown = ~np.all(np.isfinite(hist), axis=1)
    if blown.any():
        raise NonFiniteState(f"state became non-finite near t={times[np.argmax(blown)]:g}")
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
    interval collapse into one map R(hA_k)^steps, powered from the band's
    one RK4 increment (`_band_history`): the work grows with log(steps),
    not steps.  A band that starts at zero stays zero and gets no map.

    Each state after rho0 is hermitian by construction with trace sum(p),
    so herm_defect is 0 past the first sample (max|rho0 - rho0^H|) and
    trace_drift = |sum(p) - 1| at every sample.  A diagonal start takes
    min_eig = min(p) and trace_dist_to_gibbs = sum|p - pi|/2; a start with
    coherences takes both from eigvalsh over `states`, ~1 MB at a time.

    Raises ValueError for a step that is not positive and finite or whose
    step count over one sample interval overflows a float, and
    StepTooLarge before any step when RK4 at the step is unstable for the
    A_k of some band it advances, and when the trace changes by more than
    1e-8 over a sample interval; raises NonFiniteState when the state
    blows up.
    """
    _check_atom_cap(params)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    liou = ThermalLiouvillian(params)
    rho0 = np.array(rho0, dtype=complex)  # a copy: the caller's array is never written
    defect0 = _check_density_matrix(rho0, liou.dim)

    h_max = default_step(params) if ctrl is None or ctrl.h is None else ctrl.h
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"step must be positive and finite, got {h_max}")

    times = np.linspace(0.0, t_end, n_samples)
    # every sample interval is the same span, so one (h, steps) pair and one
    # map per band serve the whole trajectory
    span = t_end / (n_samples - 1)
    if not span / h_max < math.inf:
        raise ValueError(
            f"a sample interval of {span:g} takes more steps of h={h_max:g} than a float holds"
        )
    steps = max(1, math.ceil(span / h_max))
    h = span / steps
    # a band that starts at zero stays zero: it gets no map and no guard
    herm = _hermitian_part(rho0)
    starts = {k: np.diagonal(herm, k) for k in range(liou.dim)}
    generators = {k: liou.band(k) for k, v0 in starts.items() if k == 0 or v0.any()}
    _check_step(list(generators.values()), h)
    increments = {k: _rk4_increment(a, h) for k, a in generators.items()}
    hist = _band_history(increments.pop(0), starts[0], steps, times, conserve=True)
    change = float(np.max(np.abs(np.diff(hist.sum(axis=1).real))))
    if change > _MAX_TRACE_DRIFT:
        raise StepTooLarge(
            f"trace drift {change:.3e} over one sample interval of {steps} steps exceeds "
            f"{_MAX_TRACE_DRIFT:.3e}; reduce the step below h={h:g}"
        )
    bands = {k: _band_history(e, starts[k], steps, times) for k, e in increments.items()}
    p = hist.real.copy()
    pi = thermal_state(params).populations
    traj = Trajectory(
        times=times,
        populations=p,
        coherences=bands,
        rho0=rho0,
        trace_drift=np.abs(p.sum(axis=1) - 1.0),
        herm_defect=np.concatenate(([defect0], np.zeros(n_samples - 1))),
        min_eigenvalue=np.empty(n_samples) if bands else p.min(axis=1),
        trace_dist_to_gibbs=np.empty(n_samples) if bands else 0.5 * np.abs(p - pi).sum(axis=1),
    )
    if bands:  # the spectral formulas over stacks of states, ~1 MB at a time
        chunk = max(1, 2**16 // liou.dim**2)
        for i in range(0, n_samples, chunk):
            block = _hermitian_part(traj.states[i : i + chunk])
            traj.min_eigenvalue[i : i + chunk] = np.linalg.eigvalsh(block).min(axis=1)
            traj.trace_dist_to_gibbs[i : i + chunk] = trace_distance(block, np.diag(pi))
    return traj


def steady_state_residual(params: EnsembleParams) -> float:
    """Max-norm of the master equation applied to the Gibbs state, in units
    of Gamma(omega0) = 1.  The headline stationarity check: should sit at
    rounding level.

    The Gibbs state is diagonal, and so is its image: band 0 of the
    generator applied to the populations, in O(N) time and memory at any N.
    """
    p = thermal_state(params).populations
    loss, down, up = ThermalLiouvillian(params)._band_diagonals(0)
    out = loss * p
    out[:-1] += down * p[1:]
    out[1:] += up * p[:-1]
    return float(np.max(np.abs(out)))
