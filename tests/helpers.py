"""Shared test helpers: brute-force matrix-product correlator oracle, a
log-domain ladder-sum oracle added with math.fsum, the dense master
equation with its step-by-step RK4 integrator, and the scalar-rate
Dicke-limit master equation.

Deliberately independent of the indexed-sum and banded paths in the
package: ladder operators are materialized as dense matrices, the
correlators come out of explicit operator products traced against the
Gibbs state, and the master equation is applied as the operator products
it is written in.  The Dicke-limit equation uses scalar rates at
omega0 = 1 instead of the package's level-resolved rate operators.
"""

import math

import numpy as np

from dicke_therm import DimensionMismatch, RateModel, build_spectrum, thermal_state


def ladder_matrices(n_atoms):
    dim = n_atoms + 1
    sm = np.zeros((dim, dim))
    for k in range(1, dim):
        sm[k - 1, k] = np.sqrt(k * (n_atoms - k + 1.0))
    return sm, sm.T.copy()


def matrix_correlators(params):
    """(G1/Psi, G2/Psi^2) from dense operator products."""
    sm, sp = ladder_matrices(params.n_atoms)
    w = np.diag(build_spectrum(params).frequencies)
    w2 = w @ w
    w4 = w2 @ w2
    rho = np.diag(thermal_state(params).populations)
    g1 = float(np.trace(rho @ sp @ w4 @ sm))
    g2 = float(np.trace(rho @ sp @ w2 @ sp @ w4 @ sm @ w2 @ sm))
    return g1, g2


def _fsum_logsumexp(terms):
    if terms.size == 0:
        return -math.inf
    top = float(np.max(terms))
    return top + math.log(math.fsum(np.exp(terms - top)))


def fsum_log_sums(params):
    """(log Z, log S1, log S2) of the shifted Gibbs weights, each a
    max-shifted sum added with correctly rounded math.fsum.  The ladder
    products n*(N-n+1) are exact integers here, not squared square roots."""
    spec = build_spectrum(params)
    n = np.arange(params.n_atoms + 1, dtype=float)
    c2 = n * (params.n_atoms - n + 1.0)
    lw = -params.x * (spec.energies - spec.energies.min())
    log_w4 = 4.0 * np.log(spec.frequencies)
    return (
        _fsum_logsumexp(lw),
        _fsum_logsumexp(lw[1:] + np.log(c2[1:]) + log_w4[:-1]),
        _fsum_logsumexp(lw[2:] + np.log(c2[2:] * c2[1:-1]) + log_w4[1:-1] + log_w4[:-2]),
    )


def dicke_limit_liouvillian(rho, params):
    """Reference equation for vanishing coupling: scalar rates at omega0 = 1.

        drho/dt = -g1*[S+, S- rho] - g2*[S-, S+ rho] + h.c.

    with g1 = Gamma(1)/2*(1+nbar(1)) and g2 = Gamma(1)/2*nbar(1).  Equals
    the full equation evaluated at eta = 0; params.eta is ignored.
    """
    rates = RateModel(params.x)
    dim = params.n_atoms + 1
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    g1 = 0.5 * float(rates.decay_rate(1.0)) * (1.0 + float(rates.thermal_occupation(1.0)))
    g2 = 0.5 * float(rates.decay_rate(1.0)) * float(rates.thermal_occupation(1.0))
    sm, sp = ladder_matrices(params.n_atoms)
    sr = sm @ rho
    t1 = g1 * (sp @ sr - sr @ sp)
    pr = sp @ rho
    t2 = g2 * (sm @ pr - pr @ sm)
    m = -(t1 + t2)
    return m + m.conj().T


def dense_liouvillian_apply(rho, params, rates=None):
    """Reference master equation as dense operator products:

        drho/dt = -[S+, D1 S- rho] - [S-, S+ D2 rho] + h.c.
    """
    rates = RateModel(params.x) if rates is None else rates
    dim = params.n_atoms + 1
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    omega = build_spectrum(params).frequencies
    gamma = rates.decay_rate(omega)
    nbar = rates.thermal_occupation(omega)
    d1 = (0.5 * gamma * (1.0 + nbar))[:, None]
    d2 = (0.5 * gamma * nbar)[:, None]
    sm, sp = ladder_matrices(params.n_atoms)
    a = d1 * (sm @ rho)
    t1 = sp @ a - a @ sp
    b = sp @ (d2 * rho)
    t2 = sm @ b - b @ sm
    m = -(t1 + t2)
    return m + m.conj().T


def rk4_step(apply_rhs, rho, h):
    k1 = apply_rhs(rho)
    k2 = apply_rhs(rho + (0.5 * h) * k1)
    k3 = apply_rhs(rho + (0.5 * h) * k2)
    k4 = apply_rhs(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_trajectory(rho0, t_end, params, h_max, n_samples):
    """States at n_samples evenly spaced times, stepping the dense equation
    one RK4 step at a time with the step shortened to hit every sample."""
    times = np.linspace(0.0, t_end, n_samples)
    states = [np.array(rho0, dtype=complex)]
    for span in np.diff(times):
        steps = max(1, math.ceil(span / h_max))
        rho = states[-1]
        for _ in range(steps):
            rho = rk4_step(lambda r: dense_liouvillian_apply(r, params), rho, span / steps)
        states.append(rho)
    return np.array(states)


def random_valid_params(rng, n_max=6, x_lo=1e-4, x_hi=50.0):
    """Seeded random ensemble parameters inside the admissible window."""
    from dicke_therm import EnsembleParams

    n = int(rng.integers(1, n_max + 1))
    if n == 1:
        eta = 0.0
    else:
        lower = -(n - 1) / (n + 1)
        eta = float(rng.uniform(0.9 * lower, 0.9))
    x = float(np.exp(rng.uniform(np.log(x_lo), np.log(x_hi))))
    return EnsembleParams(n, eta, x)
