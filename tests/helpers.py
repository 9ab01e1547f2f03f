"""Shared test helpers: brute-force matrix-product correlator oracle, a
log-domain ladder-sum oracle added with math.fsum, the dense master
equation with its step-by-step RK4 integrator, and the scalar-rate
Dicke-limit master equation, a frozen copy of the full-row ladder
kernel, a frozen copy of the all-band RK4 step guard, and a frozen copy
of the dense (N+1)^2 coefficient arrays of the master equation.

Deliberately independent of the indexed-sum and banded paths in the
package: ladder operators are materialized as dense matrices, the
correlators come out of explicit operator products traced against the
Gibbs state, and the master equation is applied as the operator products
it is written in.  The Dicke-limit equation uses scalar rates at
omega0 = 1 instead of the package's level-resolved rate operators.  The
kernel copy (`full_row_ladder_log_sums`) exponentiates every ladder term
of every row; the package's kernel must return the same bits.  The guard
copy (`all_band_step_verdict`) checks every coherence band, zero bands
included; the integrator's guard, which checks the bands it advances,
must never refuse a step that copy accepts.  The coefficient copy
(`dense_band`, `dense_coefficient_apply`) builds the arrays that
ThermalLiouvillian held before it kept only O(N) vectors; its bands and
apply must return the same bits.  `per_point_exact` takes the exact side
of a validator row from the per-point public functions.  `read_sweep_csv`
parses the CLI's sweep CSV back into typed rows.
"""

import csv
import math

import numpy as np

from dicke_therm import (
    DimensionMismatch,
    EnsembleParams,
    StepControl,
    StepTooLarge,
    ThermalLiouvillian,
    ZeroIntensity,
    build_spectrum,
    integrate,
    intensity_ratio,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
)
from dicke_therm.sweep import SWEEP_HEADER


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

    with g1 = Gamma(1)/2*(1+nbar(1)) and g2 = Gamma(1)/2*nbar(1), where
    Gamma(1) = 1 and nbar(1) = 1/(exp(x) - 1).  Equals the full equation
    evaluated at eta = 0; params.eta is ignored.
    """
    dim = params.n_atoms + 1
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    nbar = 1.0 / np.expm1(params.x)
    g1 = 0.5 * (1.0 + nbar)
    g2 = 0.5 * nbar
    sm, sp = ladder_matrices(params.n_atoms)
    sr = sm @ rho
    t1 = g1 * (sp @ sr - sr @ sp)
    pr = sp @ rho
    t2 = g2 * (sm @ pr - pr @ sm)
    m = -(t1 + t2)
    return m + m.conj().T


def dense_liouvillian_apply(rho, params):
    """Reference master equation as dense operator products:

        drho/dt = -[S+, D1 S- rho] - [S-, S+ D2 rho] + h.c.

    with D1 = Gamma/2*(1+nbar) and D2 = Gamma/2*nbar at each omega_n,
    Gamma = omega^3 and nbar = 1/(exp(x*omega) - 1).
    """
    dim = params.n_atoms + 1
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    omega = build_spectrum(params).frequencies
    gamma = omega**3
    nbar = 1.0 / np.expm1(params.x * omega)
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


# The full-row ladder kernel as it stood before the cold-tail cut, kept
# verbatim (names prefixed) as the bit-identity oracle of
# correlators.ladder_log_sums.

_FULL_BLOCK_TERMS = 1 << 17


def _full_logsumexp_rows(terms):
    if terms.shape[1] == 0:
        return np.full(terms.shape[0], -math.inf)
    top = terms.max(axis=1)
    top[top == -math.inf] = 0.0  # such a row sums to 0, whose log is -inf
    shifted = terms - top[:, None]
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        return top + np.log(shifted.sum(axis=1))


def _full_ladder_logs(spectrum, lowering):
    log_w4 = 4.0 * np.log(spectrum.frequencies)
    c2 = lowering**2
    return log_w4, np.log(c2[1:]), np.log(c2[2:] * c2[1:-1])


def _full_log_sums(log_weights, ladder_logs):
    log_w4, log_c1, log_c2 = ladder_logs
    terms = log_weights[:, 1:] + log_c1
    terms += log_w4[:-1]
    log_s1 = _full_logsumexp_rows(terms)
    terms = log_weights[:, 2:] + log_c2
    terms += log_w4[1:-1]
    terms += log_w4[:-2]
    return log_s1, _full_logsumexp_rows(terms)


def full_row_ladder_log_sums(n_atoms, eta, xs):
    """(log_z, log_s1, log_s2) lists at every x in xs, every ladder term
    exponentiated."""
    params = EnsembleParams(n_atoms, eta)
    xs = np.asarray(xs, dtype=float).ravel()
    for x in xs[~(np.isfinite(xs) & (xs > 0.0))]:
        EnsembleParams(n_atoms, eta, x)
    spectrum = build_spectrum(params)
    logs = _full_ladder_logs(spectrum, ladder_coefficients(params.n_atoms))
    gaps = spectrum.energies - spectrum.energies.min()
    sums = [np.empty(xs.size) for _ in range(3)]
    rows = max(1, _FULL_BLOCK_TERMS // gaps.size)
    for lo in range(0, xs.size, rows):
        block = slice(lo, lo + rows)
        with np.errstate(over="ignore"):  # a weight beyond the double range is -inf
            log_weights = -xs[block, None] * gaps
        sums[0][block] = _full_logsumexp_rows(log_weights)
        sums[1][block], sums[2][block] = _full_log_sums(log_weights, logs)
    return tuple(s.tolist() for s in sums)


# The RK4 step guard as it stood before zero bands were skipped: every
# band generator's spectrum and band 0's one-step trace drift.

ALL_BAND_MAX_TRACE_DRIFT = 1e-8

# nonzero real root of R(z) = 1: RK4 is stable on the negative axis down
# to it (-2.785...)
RK4_EDGE = next(r.real for r in np.roots([1 / 24, 1 / 6, 1 / 2, 1]) if abs(r.imag) < 1e-9)


def _band_spectrum(a):
    """Eigenvalues of a real tridiagonal band generator, whose off-diagonal
    products are nonnegative, from its symmetric form."""
    off = np.sqrt(np.diag(a, 1) * np.diag(a, -1))
    return np.linalg.eigvalsh(np.diag(np.diag(a)) + np.diag(off, 1) + np.diag(off, -1))


def band0_step_limit(params):
    """The largest RK4 step at which band 0 amplifies no eigenmode."""
    return RK4_EDGE / float(np.min(_band_spectrum(ThermalLiouvillian(params).band(0))))


def all_band_step_verdict(params, h):
    """True when RK4 at step h amplifies no eigenmode of any coherence
    band's generator, zero bands included (|R(h*lambda)| <= 1), and one
    step changes the trace of unit populations by at most 1e-8."""
    liou = ThermalLiouvillian(params)
    generators = [liou.band(k) for k in range(liou.dim)]
    z = h * np.minimum(np.concatenate([_band_spectrum(a) for a in generators]), 0.0)
    gain = np.max(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))))
    x = h * generators[0]
    eye = np.eye(len(x))
    increment = x @ (eye + (x / 2.0) @ (eye + (x / 3.0) @ (eye + x / 4.0)))
    drift = np.max(np.abs(increment.sum(axis=0)))
    return bool(gain <= 1.0 and drift <= ALL_BAND_MAX_TRACE_DRIFT)


def guard_accepts(rho0, params, h):
    """Whether integrate takes one RK4 step of exactly h from rho0."""
    try:
        integrate(rho0, h, params, ctrl=StepControl(h=h), n_samples=2)
    except StepTooLarge:
        return False
    return True


# The master equation's coefficient arrays as ThermalLiouvillian built them
# before its band diagonals were sliced from O(N) vectors, kept verbatim
# (names prefixed) as the bit-identity oracle of `band` and `apply`.

def _dense_level_rates(params):
    omega = build_spectrum(params).frequencies[:-1]
    with np.errstate(over="ignore"):
        gamma, nbar = omega**3, 1.0 / np.expm1(params.x * omega)
    d1 = 0.5 * gamma * (1.0 + nbar)
    d2 = 0.5 * gamma * nbar
    lo = ladder_coefficients(params.n_atoms)[1:]
    r = np.zeros(params.n_atoms + 1)
    r[1:] += d1 * lo**2
    r[:-1] += d2 * lo**2
    return r, d1, d2, lo


def _dense_coefficients(params):
    """(loss, gain_down, gain_up): gain_down[i, j] feeds rho_ij from
    rho_{i+1,j+1}; gain_up[i, j] feeds rho_{i+1,j+1} from rho_ij."""
    r, d1, d2, lo = _dense_level_rates(params)
    ll = np.outer(lo, lo)
    loss = -(r[:, None] + r[None, :])
    gain_down = (d1[:, None] + d1[None, :]) * ll
    gain_up = (d2[:, None] + d2[None, :]) * ll
    return loss, gain_down, gain_up


def dense_band(params, k):
    """Band k's tridiagonal generator read off the dense arrays."""
    loss, gain_down, gain_up = _dense_coefficients(params)
    return (
        np.diag(np.diagonal(loss, k))
        + np.diag(np.diagonal(gain_down, k), 1)
        + np.diag(np.diagonal(gain_up, k), -1)
    )


def dense_coefficient_apply(rho, params):
    """drho/dt from the dense arrays."""
    loss, gain_down, gain_up = _dense_coefficients(params)
    out = loss * rho
    out[:-1, :-1] += gain_down * rho[1:, 1:]
    out[1:, 1:] += gain_up * rho[:-1, :-1]
    return out


def per_point_exact(check):
    """The exact side of a report row from the per-point public path:
    (value, None), or (None, the ZeroIntensity note)."""
    def g2(eta):
        return steady_state_correlators(EnsembleParams(check.n_atoms, eta, check.x)).g2_norm

    try:
        if check.formula in ("eq18_ratio", "eq20"):
            return intensity_ratio(EnsembleParams(check.n_atoms, check.eta, check.x)), None
        if check.formula == "eq16_coeff":
            return (g2(check.eta) - g2(0.0)) / check.eta**2, None
        return g2(check.eta), None
    except ZeroIntensity as exc:
        return None, str(exc)


def read_sweep_csv(path):
    """Parse a sweep CSV back into typed rows.

    Empty cells come back as None and NA sentinels as the string 'NA', so a
    re-emission at the same precision reproduces the file byte for byte.
    """
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        for raw in reader:
            rec = {"N": int(raw[0]), "eta": float(raw[1]), "x": float(raw[2])}
            for key, cell in zip(SWEEP_HEADER[3:7], raw[3:7]):
                if cell == "":
                    rec[key] = None
                elif cell == "NA" or key == "classification":
                    rec[key] = cell
                else:
                    rec[key] = float(cell)
            rec["reason"] = raw[7]
            rows.append(rec)
    return rows
