"""Master-equation dynamics of the Dicke-level populations.

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

The generator is this dissipator alone, without the Hamiltonian term
-i[H, rho].  H is diagonal in the Dicke basis, so the term vanishes on a
diagonal state, which the dissipator keeps diagonal: the populations
(band 0, a birth-death chain) are exact in any picture.  A coherence
rho_{i,i+k} would also turn under i(E_{i+k} - E_i), so `integrate` refuses
a start with coherences and advances band 0 alone, with O(N) diagnostics
per sample.  Its default path is exact: one interval map e^{A_0 dt} by
uniformization, whose terms are all nonnegative, so every population keeps
its relative accuracy however small it is.  Classical RK4 runs only when a
step is given.

Complete positivity is not assumed anywhere: the minimum eigenvalue is
recorded as a diagnostic along every trajectory rather than enforced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import EnsembleParams, build_spectrum, ladder_coefficients, thermal_state
from .exceptions import DimensionMismatch, IntegrationError, NonFiniteState, StepTooLarge

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

# a trajectory builds one dense (N+1)^2 interval map, O(N^3) per Horner term
# and squaring, and the squarings grow with log(max|A_0| t_end); the
# correlator engine covers larger ensembles.
MAX_DYNAMICS_ATOMS = 200

INITIAL_STATE_KINDS = ("ground", "inverted", "equal", "gibbs")

# largest trace change of one sample interval, checked after band 0's history
_MAX_TRACE_DRIFT = 1e-8

# Horner terms of the uniformized series on one interval's 2^-s part
_SERIES_TERMS = 16


@dataclass(frozen=True)
class StepControl:
    """Fixed-step integrator settings.

    h is the RK4 step in the time unit 1/Gamma(omega0); None, the default,
    takes the exact interval map and no RK4 step at all.  The trace is never
    renormalized, so trace drift stays visible as a diagnostic.
    """

    h: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled populations with per-sample health diagnostics.

    populations[i] is the diagonal of the state at times[i]; every state
    after rho0 is diagonal.
    """

    times: np.ndarray
    populations: np.ndarray  # (n_samples, dim) real
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
        states.reshape(n_samples, -1)[1:, :: dim + 1] = self.populations[1:]
        return states

    @property
    def final_trace_distance(self) -> float:
        return float(self.trace_dist_to_gibbs[-1])


class ThermalLiouvillian:
    """The thermal dissipator, from O(N) vectors: the right-hand side of
    the master equation without its Hamiltonian term -i[H, rho].

    With l_n the lowering coefficients (l_0 = l_{N+1} = 0), d1_n and d2_n
    the rates of the n <-> n+1 transition and
    r_i = d1_{i-1} l_i^2 + d2_i l_{i+1}^2, the equation reads, for hermitian
    rho,

        L(rho)_ij = -(r_i + r_j) rho_ij
                    + (d1_i + d1_j) l_{i+1} l_{j+1} rho_{i+1,j+1}
                    + (d2_{i-1} + d2_{j-1}) l_i l_j rho_{i-1,j-1}.

    The three coefficients are symmetric in i and j, so the result is
    hermitian exactly when rho is, and the populations rho_ii evolve on
    their own under a real tridiagonal generator A_0.  The constructor
    builds A_0's three diagonals (`_band_diagonals`) from r, d1, d2 and l
    once, and every reader takes that one tuple.  A bath hot enough that
    band 0 overflows a float is refused with ValueError.
    """

    def __init__(self, params: EnsembleParams):
        self.params = params
        self.dim = params.n_atoms + 1
        # omega_n drives the n <-> n+1 transition, n = 0..N-1
        omega = build_spectrum(params).frequencies[:-1]
        self._lo = ladder_coefficients(params.n_atoms)[1:]  # l_{n+1}
        self._r = np.zeros(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            gamma, nbar = _bath_rates(omega, params.x)
            self._d1 = 0.5 * gamma * (1.0 + nbar)
            self._d2 = 0.5 * gamma * nbar
            self._r[1:] += self._d1 * self._lo**2
            self._r[:-1] += self._d2 * self._lo**2
        # every entry of band 0 is at most 2 r_i in size; NaN fails the test too
        if not self._r.max() <= 0.5 * np.finfo(float).max:
            raise ValueError(f"the bath rates at x={params.x:g} overflow a float; use a larger x")
        ll = self._lo * self._lo
        self._diagonals = (
            -(self._r + self._r), (self._d1 + self._d1) * ll, (self._d2 + self._d2) * ll
        )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The dissipator's drho/dt for hermitian rho: traceless and
        hermitian.  `integrate` uses `band()`; apply stays as the dense
        form that the tests hold against the operator products."""
        _check_shape(rho, self.dim)
        r, d1, d2, lo = self._r, self._d1, self._d2, self._lo
        ll = lo[:, None] * lo[None, :]
        out = -(r[:, None] + r[None, :]) * rho
        out[:-1, :-1] += (d1[:, None] + d1[None, :]) * ll * rho[1:, 1:]
        out[1:, 1:] += (d2[:, None] + d2[None, :]) * ll * rho[:-1, :-1]
        return out

    def _band_diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A_0's diagonal (loss), superdiagonal (down, feeding p_n from
        p_{n+1}) and subdiagonal (up, feeding p_{n+1} from p_n), O(N),
        as the constructor built them."""
        return self._diagonals

    def band(self) -> np.ndarray:
        """The populations' generator A_0 (dp/dt = A_0 p) as a dense
        tridiagonal matrix (`_tridiagonal`), from which `integrate` builds
        its RK4 step map."""
        return _tridiagonal(*self._diagonals)


def _tridiagonal(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The dense matrix with the three diagonals, each added into zeros
    through a strided view, so that a -0.0 entry turns +0.0 as in a sum."""
    dim = len(diag)
    flat = np.zeros(dim * dim)
    flat[:: dim + 1] += diag
    flat[1 :: dim + 1] += upper
    flat[dim :: dim + 1] += lower
    return flat.reshape(dim, dim)


def _bath_rates(omega: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic decay rate Gamma = omega^3 and Bose-Einstein occupation
    nbar = 1/(exp(x*omega) - 1) at the frequencies omega; expm1 keeps nbar
    accurate for small x*omega, and its overflow at a cold bath gives the
    right limit nbar = 0, so callers ignore overflow around the call."""
    return omega**3, 1.0 / np.expm1(x * omega)


def default_step(params: EnsembleParams) -> float:
    """Conservative fixed RK4 step: 0.01/((1+nbar_max)*N^2), nbar_max over
    all N+1 frequencies omega_0..omega_N, omega_N included although it
    drives no transition.  Raises ValueError where the step rounds to 0.
    `integrate` takes the exact map when no step is given, so it never
    calls this; pass StepControl(h=default_step(params)) for RK4 at it."""
    with np.errstate(over="ignore"):
        nbar_max = float(_bath_rates(build_spectrum(params).frequencies, params.x)[1].max())
    h = 0.01 / ((1.0 + nbar_max) * params.n_atoms**2)
    if not h:
        raise ValueError(f"the default step at x={params.x:g} rounds to 0; use a larger x")
    return h


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Trace distance 0.5*||a - b||_1 of the hermitian parts: a float for
    two matrices, an array with one distance per matrix for a stack."""
    m = a - b
    d = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))), axis=-1)
    return float(d) if d.ndim == 0 else d


def _check_positive(name: str, value) -> None:
    """Refuse, with ValueError, a text or complex value and one that is
    not positive and finite."""
    if isinstance(value, (str, bytes, bytearray, complex)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
    """Refuse an invalid start and a start whose hermitian part has
    coherences; return its hermiticity defect max|rho - rho^H|."""
    _check_shape(rho, dim)
    if not np.isfinite(rho).all():
        raise NonFiniteState("initial state contains non-finite entries")
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > 1e-12:
        raise ValueError("initial state is not hermitian within 1e-12")
    if abs(rho.trace() - 1.0) > 1e-12:
        raise ValueError("initial state trace differs from 1 by more than 1e-12")
    herm = rho + rho.conj().T  # twice the hermitian part
    herm.reshape(-1)[:: dim + 1] = 0.0
    if herm.any():
        raise ValueError(
            "initial state has coherences: integrate takes diagonal starts only, because its "
            "generator lacks the Hamiltonian term -i[H, rho] that turns them"
        )
    return defect


def _rk4_increment(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dv/dt = a v as the increment R(ha) - I."""
    x = h * a
    eye = np.eye(len(a))
    t = eye + x / 4.0
    t = eye + (x / 3.0) @ t
    t = eye + (x / 2.0) @ t
    return x @ t


def _power_increment(e: np.ndarray, steps: int) -> np.ndarray:
    """(I + e)^steps - I by binary powering, for band 0's increment e.

    I + e is never formed: near a fixed point it would round the increment
    away, so the composition rules E_2m = 2E_m + E_m^2 and
    E_a o E_b = E_a + E_b + E_a E_b act on increments only.  Band 0's
    generator has columns summing to zero, so each composition and each
    doubling moves its columns' sums onto the diagonal, and rounding in
    the conserved trace does not double with every squaring.
    Doublings and products reuse two work buffers in place, in the order
    2E + E E and (E_a + E_b) + E_a E_b, so every bit is that of forming
    each sum anew; e is not written.
    """
    sq, prod = np.empty_like(e), np.empty_like(e)
    out = None
    while True:
        if steps & 1 and out is None:
            out = e.copy()
        elif steps & 1:
            np.matmul(out, e, out=prod)
            out += e
            out += prod
            out.reshape(-1)[:: len(e) + 1] -= np.add.reduce(out)
        steps >>= 1
        if not steps:
            return out
        np.matmul(e, e, out=prod)
        e = np.multiply(2.0, e, out=sq)
        e += prod
        e.reshape(-1)[:: len(e) + 1] -= np.add.reduce(e)


def _eigenvalues(loss: np.ndarray, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Eigenvalues of the real tridiagonal matrix with diagonals (loss,
    down, up) whose off-diagonal products are nonnegative: they depend
    only on those products, so they are those of the symmetric matrix with
    off-diagonals sqrt(down) * sqrt(up), a product that cannot overflow."""
    off = np.sqrt(down) * np.sqrt(up)
    return np.linalg.eigvalsh(_tridiagonal(loss, off, off))


def _check_step(diagonals: tuple[np.ndarray, np.ndarray, np.ndarray], h: float) -> None:
    """Raise StepTooLarge before any step if RK4 amplifies an eigenmode
    of band 0's generator, given by its `_band_diagonals` (|R(h*lambda)| > 1)."""
    # the generator is dissipative: a positive eigenvalue is rounding of
    # the conserved trace mode
    z = h * np.minimum(_eigenvalues(*diagonals), 0.0)
    # RK4 stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, inf at a far too large h
    with np.errstate(over="ignore"):
        gain = float(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))).max())
    if gain > 1.0:
        raise StepTooLarge(
            f"RK4 is unstable at h={h:g}: |R(h*lambda)| reaches {gain:.3e} > 1; "
            "reduce the step"
        )


def _band_history(e: np.ndarray, v0: np.ndarray, steps: int, times: np.ndarray) -> np.ndarray:
    """Band 0's vector at the sample times from any start v0 (complex, not
    normalised), each interval `steps` RK4 steps I + e = R(hA) as one exact
    map (_power_increment), prev + map @ prev formed in the next row; raises
    NonFiniteState at the first blown sample.
    The history is complex even for real populations: numpy's real and
    complex matvecs of the same data can differ in the last bit."""
    hist = np.empty((len(times), v0.size), dtype=complex)
    hist[0] = v0
    with np.errstate(over="ignore", invalid="ignore"):
        # cast once: the loop's complex products are those of the real map
        step_map = _power_increment(e, steps).astype(complex)
        for prev, row in zip(hist, hist[1:]):
            np.matmul(step_map, prev, out=row)
            np.add(prev, row, out=row)
    _check_finite(hist, times)
    return hist


def _column_stochastic(m: np.ndarray) -> np.ndarray:
    """m with each column divided by its sum, in place: band 0's maps keep
    the trace, so rounding in it cannot build up over the squarings."""
    m /= m.sum(axis=0)
    return m


def _interval_map(diagonals: tuple[np.ndarray, np.ndarray, np.ndarray], span: float) -> np.ndarray:
    """The exact map e^{A_0 span} of band 0's generator, given by its
    `_band_diagonals`, by uniformization.

    With lam = max|loss|, P = I + A_0/lam is nonnegative with columns that
    sum to 1, and e^{A_0 tau} = e^{-lam tau} e^{lam tau P}.  On
    tau = span/2^s, with 2^s >= lam*span and 2^s >= 4(N+1), the series of
    e^{lam tau P} is summed to _SERIES_TERMS terms by Horner's rule, each
    column is divided by its sum in place of e^{-lam tau}, and s squarings
    reach span.  Every term and product is nonnegative, so nothing cancels
    and each entry keeps its relative accuracy, however small it is.
    lam*span is bounded by the sum of the two binary exponents, never
    formed, so no span overflows it, and a span that rounds to 0 maps to I.
    """
    loss, down, up = diagonals
    dim = len(loss)
    lam = -float(loss.min())
    s = max(math.frexp(lam)[1] + math.frexp(span)[1], math.ceil(math.log2(4 * dim)))
    c = lam * math.ldexp(span, -s)
    p = _tridiagonal(1.0 + loss / lam, down / lam, up / lam)
    m = np.eye(dim)
    for j in range(_SERIES_TERMS, 0, -1):
        m = p @ m
        m *= c / j
        m.reshape(-1)[:: dim + 1] += 1.0
    m = _column_stochastic(m)
    for _ in range(s):
        m = _column_stochastic(m @ m)
    return m


def _doubling_history(m: np.ndarray, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Band 0's vector at the sample times, one interval map m apart, from
    v0: rows [k, 2k) are rows [0, k) times (m^k)^T, with m^k squared like
    m, so the work grows with log(samples); raises NonFiniteState at the
    first blown sample."""
    samples = len(times)
    hist = np.empty((samples, len(v0)))
    hist[0] = v0
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < samples:
            np.matmul(hist[: min(k, samples - k)], m.T, out=hist[k : 2 * k])
            k *= 2
            if k < samples:
                m = _column_stochastic(m @ m)
    _check_finite(hist, times)
    return hist


def _check_finite(hist: np.ndarray, times: np.ndarray) -> None:
    """Raise NonFiniteState at the first sample of hist that is not finite."""
    blown = ~np.isfinite(hist).all(axis=1)
    if blown.any():
        raise NonFiniteState(f"state became non-finite near t={times[blown.argmax()]:g}")


def integrate(
    rho0: np.ndarray,
    t_end: float,
    params: EnsembleParams,
    ctrl: StepControl | None = None,
    n_samples: int = 101,
) -> Trajectory:
    """Evolution of the populations of a diagonal start rho0 (its
    hermitian part diagonal, as every `initial_state` is).

    Samples (with diagnostics) are recorded at n_samples evenly spaced
    times from 0 to t_end, dt = t_end/(n_samples - 1) apart.  The
    populations evolve under band 0's generator A_0 alone.  Without a
    step (ctrl None or ctrl.h None), every interval is the exact map
    e^{A_0 dt} (`_interval_map`, by uniformization), and the samples are
    filled by doubling (`_doubling_history`).  With a step h, every
    interval is the same whole number of classical RK4 steps, the step
    shortened to dt/steps, collapsed into one map R(hA_0)^steps powered
    from one RK4 increment (`_band_history`); either way the work grows
    with log(t_end).

    Each state after rho0 is diagonal with trace sum(p), so herm_defect is
    0 past the first sample (max|rho0 - rho0^H|), trace_drift =
    |sum(p) - 1|, min_eig = min(p) and trace_dist_to_gibbs = sum|p - pi|/2
    at every sample.

    Raises ValueError, before the Liouvillian is built, for a text or
    complex t_end or step, one that is not positive and finite, and a
    non-integer n_samples; ValueError for a start with coherences (the
    generator lacks -i[H, rho]); NonFiniteState when the state blows up;
    IntegrationError when the trace changes by more than 1e-8 over a
    sample interval.  With a step, ValueError for a step whose step count
    over one sample interval overflows a float, and StepTooLarge, a
    subclass of IntegrationError, before any step when RK4 at the step
    is unstable for A_0, and in place of IntegrationError for the trace.
    """
    _check_atom_cap(params)
    _check_positive("t_end", t_end)
    try:
        samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    h_max = None if ctrl is None else ctrl.h
    if h_max is not None:
        _check_positive("step", h_max)
    liou = ThermalLiouvillian(params)
    rho0 = np.array(rho0, dtype=complex)  # a copy: the caller's array is never written
    defect0 = _check_density_matrix(rho0, liou.dim)

    times = np.linspace(0.0, t_end, samples)
    # every sample interval is the same span, so one map serves the whole
    # trajectory
    span = t_end / (samples - 1)
    if h_max is None:
        step_map = _interval_map(liou._band_diagonals(), span)
        hist = _doubling_history(step_map, np.diagonal(rho0).real, times)
    else:
        if not span / h_max < math.inf:
            raise ValueError(
                f"a sample interval of {span:g} takes more steps of h={h_max:g} than a float "
                "holds"
            )
        steps = max(1, math.ceil(span / h_max))
        h = span / steps
        _check_step(liou._band_diagonals(), h)
        hist = _band_history(_rk4_increment(liou.band(), h), np.diagonal(rho0).real, steps,
                             times)
    trace = hist.sum(axis=1).real
    change = float(np.abs(trace[1:] - trace[:-1]).max())
    if change > _MAX_TRACE_DRIFT:
        drift = f"trace drift {change:.3e} over one sample interval of"
        if h_max is None:
            raise IntegrationError(f"{drift} {span:g} exceeds {_MAX_TRACE_DRIFT:.3e}")
        raise StepTooLarge(
            f"{drift} {steps} steps exceeds {_MAX_TRACE_DRIFT:.3e}; reduce the step below h={h:g}"
        )
    p = np.ascontiguousarray(hist.real)
    herm_defect = np.zeros(samples)
    herm_defect[0] = defect0
    return Trajectory(
        times=times,
        populations=p,
        rho0=rho0,
        trace_drift=np.abs(p.sum(axis=1) - 1.0),
        herm_defect=herm_defect,
        min_eigenvalue=p.min(axis=1),
        trace_dist_to_gibbs=0.5 * np.abs(p - thermal_state(params).populations).sum(axis=1),
    )


def steady_state_residual(params: EnsembleParams) -> float:
    """Max-norm of the master equation applied to the Gibbs state, in units
    of Gamma(omega0) = 1.  The headline stationarity check: should sit at
    rounding level.

    The Gibbs state is diagonal, and so is its image: band 0 of the
    generator applied to the populations, in O(N) time and memory at any N.
    """
    p = thermal_state(params).populations
    loss, down, up = ThermalLiouvillian(params)._band_diagonals()
    out = loss * p
    out[:-1] += down * p[1:]
    out[1:] += up * p[:-1]
    return float(np.max(np.abs(out)))
