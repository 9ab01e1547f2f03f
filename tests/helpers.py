"""Shared test helpers: brute-force matrix-product correlator oracle and
the scalar-rate Dicke-limit master equation.

Deliberately independent of the indexed-sum path in the package: ladder
operators are materialized as dense matrices and the correlators come out
of explicit operator products traced against the Gibbs state.  The
Dicke-limit equation uses scalar rates at omega0 = 1 instead of the
package's level-resolved rate operators.
"""

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


def dicke_limit_liouvillian(rho, params):
    """Reference equation for vanishing coupling: scalar rates at omega0 = 1.

        drho/dt = -g1*[S+, S- rho] - g2*[S-, S+ rho] + h.c.

    with g1 = Gamma(1)/2*(1+nbar(1)) and g2 = Gamma(1)/2*nbar(1).  Equals
    the full equation evaluated at eta = 0; params.eta is ignored.
    """
    rates = RateModel.for_params(params)
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
