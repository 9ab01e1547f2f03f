"""Master-equation dynamics on the symmetric-subspace density matrix.

The dissipator couples the collective ladder operators to a thermal bath
through level-dependent rates: with D1 = Gamma(w)/2*(1+nbar(w)) and
D2 = Gamma(w)/2*nbar(w) diagonal in the Dicke basis,

    drho/dt = -[S+, D1 S- rho] - [S-, S+ D2 rho] + h.c.

The operator ordering is implemented exactly as written (rate operators
adjacent to rho in the stated positions); the hermitian conjugate closes
hermiticity.  The Gibbs state is annihilated by construction: the downward
and upward fluxes between neighbouring levels balance because the level
spacing E_{n+1}-E_n equals the transition frequency omega_n.

Complete positivity is not assumed anywhere: the minimum eigenvalue is
recorded as a diagnostic along every trajectory rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnsembleParams, build_spectrum, ladder_coefficients, thermal_state
from .exceptions import (
    DimensionMismatch,
    NonFiniteState,
    NonPositiveFrequency,
    StepTooLarge,
)

__all__ = [
    "RateModel",
    "StepControl",
    "Trajectory",
    "ThermalLiouvillian",
    "MAX_DYNAMICS_ATOMS",
    "INITIAL_STATE_KINDS",
    "liouvillian_apply",
    "integrate",
    "steady_state_residual",
    "initial_state",
    "trace_distance",
    "default_step",
]

# dense (N+1)^2 states; the correlator engine covers larger ensembles
MAX_DYNAMICS_ATOMS = 200

INITIAL_STATE_KINDS = ("ground", "inverted", "equal", "gibbs")


@dataclass(frozen=True)
class RateModel:
    """Bath coupling: cubic decay rate and Bose-Einstein occupation.

    gamma0 scales the spontaneous decay so that Gamma(omega0=1) = gamma0;
    x is the inverse temperature entering the occupation.
    """

    x: float
    gamma0: float = 1.0

    @classmethod
    def for_params(cls, params: EnsembleParams, gamma0: float = 1.0) -> "RateModel":
        return cls(x=params.x, gamma0=gamma0)

    def decay_rate(self, omega):
        """Gamma(omega) = gamma0 * omega^3."""
        self._require_positive(omega)
        return self.gamma0 * np.asarray(omega, dtype=float) ** 3

    def thermal_occupation(self, omega):
        """nbar(omega) = 1/(exp(x*omega) - 1), via expm1 for small x*omega."""
        self._require_positive(omega)
        return 1.0 / np.expm1(self.x * np.asarray(omega, dtype=float))

    @staticmethod
    def _require_positive(omega) -> None:
        if np.any(np.asarray(omega) <= 0.0):
            raise NonPositiveFrequency(f"omega must be positive, got {omega}")


@dataclass(frozen=True)
class StepControl:
    """Fixed-step integrator settings.

    h = None picks the conservative default step.  The trace is never
    renormalized, so trace drift stays visible as a diagnostic.
    """

    h: float | None = None
    max_trace_drift: float = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Sampled density matrices with per-sample health diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, dim, dim) complex
    trace_drift: np.ndarray
    herm_defect: np.ndarray
    min_eigenvalue: np.ndarray
    trace_dist_to_gibbs: np.ndarray

    @property
    def final_trace_distance(self) -> float:
        return float(self.trace_dist_to_gibbs[-1])


def _ladder_matrices(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    lowering = ladder_coefficients(n_atoms).lowering
    sm = np.zeros((n_atoms + 1, n_atoms + 1))
    for k in range(1, n_atoms + 1):
        sm[k - 1, k] = lowering[k]
    return sm, sm.T.copy()


class ThermalLiouvillian:
    """Right-hand side of the thermal master equation, precomputed once."""

    def __init__(self, params: EnsembleParams, rates: RateModel | None = None):
        self.params = params
        self.rates = RateModel.for_params(params) if rates is None else rates
        self.dim = params.n_atoms + 1
        spectrum = build_spectrum(params)
        omega = spectrum.frequencies
        gamma = self.rates.decay_rate(omega)
        nbar = self.rates.thermal_occupation(omega)
        self._d1 = (0.5 * gamma * (1.0 + nbar))[:, None]
        self._d2 = (0.5 * gamma * nbar)[:, None]
        self._sm, self._sp = _ladder_matrices(params.n_atoms)

    def _check(self, rho: np.ndarray) -> None:
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected a {self.dim}x{self.dim} density matrix, got shape {rho.shape}"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt; exactly traceless, hermitian for hermitian input."""
        self._check(rho)
        a = self._d1 * (self._sm @ rho)
        t1 = self._sp @ a - a @ self._sp
        b = self._sp @ (self._d2 * rho)
        t2 = self._sm @ b - b @ self._sm
        m = -(t1 + t2)
        return m + m.conj().T


def liouvillian_apply(
    rho: np.ndarray, params: EnsembleParams, rates: RateModel | None = None
) -> np.ndarray:
    """Apply the full level-resolved master equation to rho."""
    return ThermalLiouvillian(params, rates).apply(rho)


def default_step(params: EnsembleParams, rates: RateModel) -> float:
    """Conservative fixed step: 0.01/(gamma0*(1+nbar_max)*N^2)."""
    omega = build_spectrum(params).frequencies
    nbar_max = float(np.max(rates.thermal_occupation(omega)))
    return 0.01 / (rates.gamma0 * (1.0 + nbar_max) * params.n_atoms**2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance 0.5*||a - b||_1 of the hermitian parts."""
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def initial_state(params: EnsembleParams, kind: str) -> np.ndarray:
    """Standard initial density matrices in the Dicke basis.

    ground   : all emitters in the lower state, |0><0|
    inverted : all emitters excited, |N><N|
    equal    : uniform diagonal mixture over the ladder
    gibbs    : thermal steady state for the given parameters
    """
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


def _check_density_matrix(rho: np.ndarray, dim: int) -> None:
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise NonFiniteState("initial state contains non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("initial state is not hermitian within 1e-12")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("initial state trace differs from 1 by more than 1e-12")


def _rk4_step(apply_rhs, rho: np.ndarray, h: float) -> np.ndarray:
    k1 = apply_rhs(rho)
    k2 = apply_rhs(rho + (0.5 * h) * k1)
    k3 = apply_rhs(rho + (0.5 * h) * k2)
    k4 = apply_rhs(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate(
    rho0: np.ndarray,
    t_end: float,
    params: EnsembleParams,
    rates: RateModel | None = None,
    ctrl: StepControl | None = None,
    n_samples: int = 101,
) -> Trajectory:
    """Classical fixed-step RK4 evolution of the master equation.

    Samples (with diagnostics) are recorded at n_samples evenly spaced
    times from 0 to t_end; every sample time is hit exactly by shortening
    the step inside each interval.  Raises StepTooLarge when the per-step
    trace drift exceeds the configured bound and NonFiniteState when the
    state blows up.
    """
    if params.n_atoms > MAX_DYNAMICS_ATOMS:
        raise ValueError(
            f"dynamics is capped at N <= {MAX_DYNAMICS_ATOMS}, got N={params.n_atoms}"
        )
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    ctrl = ctrl or StepControl()
    rates = RateModel.for_params(params) if rates is None else rates
    liou = ThermalLiouvillian(params, rates)
    _check_density_matrix(rho0, liou.dim)

    h_max = ctrl.h if ctrl.h is not None else default_step(params, rates)
    if not h_max > 0.0:
        raise ValueError(f"step must be positive, got {h_max}")

    gibbs = np.diag(thermal_state(params).populations).astype(complex)
    times = np.linspace(0.0, t_end, n_samples)
    states = np.empty((n_samples, liou.dim, liou.dim), dtype=complex)
    diag = {k: np.empty(n_samples) for k in ("drift", "herm", "mineig", "dist")}

    rho = np.array(rho0, dtype=complex)
    _record(states, diag, 0, rho, gibbs)
    for i in range(1, n_samples):
        span = times[i] - times[i - 1]
        steps = max(1, math.ceil(span / h_max))
        h = span / steps
        for _ in range(steps):
            trace_before = np.trace(rho).real
            rho = _rk4_step(liou.apply, rho, h)
            if not np.all(np.isfinite(rho)):
                raise NonFiniteState(f"state became non-finite near t={times[i]:g}")
            drift = abs(np.trace(rho).real - trace_before)
            if drift > ctrl.max_trace_drift:
                raise StepTooLarge(
                    f"trace drift {drift:.3e} per step exceeds {ctrl.max_trace_drift:.3e}; "
                    f"reduce the step below h={h:g}"
                )
        _record(states, diag, i, rho, gibbs)

    return Trajectory(
        times=times,
        states=states,
        trace_drift=diag["drift"],
        herm_defect=diag["herm"],
        min_eigenvalue=diag["mineig"],
        trace_dist_to_gibbs=diag["dist"],
    )


def _record(states, diag, i, rho, gibbs) -> None:
    states[i] = rho
    diag["drift"][i] = abs(np.trace(rho).real - 1.0)
    diag["herm"][i] = float(np.max(np.abs(rho - rho.conj().T)))
    herm = 0.5 * (rho + rho.conj().T)
    diag["mineig"][i] = float(np.min(np.linalg.eigvalsh(herm)))
    diag["dist"][i] = trace_distance(rho, gibbs)


def steady_state_residual(params: EnsembleParams, rates: RateModel | None = None) -> float:
    """Max-norm of the master equation applied to the Gibbs state, per
    gamma0.  The headline stationarity check: should sit at rounding level.
    """
    rates = RateModel.for_params(params) if rates is None else rates
    rho_s = np.diag(thermal_state(params).populations).astype(complex)
    out = liouvillian_apply(rho_s, params, rates)
    return float(np.max(np.abs(out))) / rates.gamma0
