"""Shared test helpers: brute-force matrix-product correlator oracle, a
log-domain ladder-sum oracle added with math.fsum, the dense master
equation with its step-by-step RK4 integrator, and the scalar-rate
Dicke-limit master equation, the closed-form spectrum and ladder
coefficients as written, a frozen copy of the full-row ladder kernel, a
frozen copy of the all-band RK4 step guard, a frozen copy of the dense
band-0 step guard, and a frozen copy of the dense (N+1)^2 coefficient
arrays of the master equation.

Deliberately independent of the indexed-sum and banded paths in the
package: ladder operators are materialized as dense matrices, the
correlators come out of explicit operator products traced against the
Gibbs state, and the master equation is applied as the operator products
it is written in.  The Dicke-limit equation uses scalar rates at
omega0 = 1 instead of the package's level-resolved rate operators.  The
closed forms (`closed_form_spectrum`, `closed_form_lowering`) are the
one-expression numpy forms that build_spectrum and ladder_coefficients
must match bit for bit, since the kernel copy below reads those two.  The
kernel copy (`full_row_ladder_log_sums`) exponentiates every ladder term
of every row; the package's kernel must return the same bits.  The guard
copy (`all_band_step_verdict`) checks every band of rho, each built by
`dense_band`; the integrator's guard, which checks band 0 alone, must
never refuse a step that copy accepts.  The dense guard copy
(`dense_eigenvalues`, `dense_check_step`) reads band 0's diagonals back
out of its (N+1)^2 matrix; the guard that takes the three diagonals must
give the same eigenvalue bits, verdict and message.  The coefficient copy
(`dense_band`, `dense_coefficient_apply`) builds the arrays that
ThermalLiouvillian held before it kept only O(N) vectors; its band 0 and
apply must return the same bits.  The per-row writer copy
(`per_row_csv_text`) renders a table one printf per row; the package's
writer must give the same text.  `per_cell_trajectory_csv` writes
evolve's CSV of a trajectory one format_number cell at a time.
`rk4_trajectory` steps the dense equation one RK4 step at a time, the
oracle of the step path's Taylor map powered over each interval.
`mp_interval_map` is the exact map e^{A_0 span} of band 0's float
generator in 50-digit mpmath, every entry to its own relative accuracy,
the oracle of the default path's interval map and trajectories.
`point_row` builds a sweep row and `per_point_exact` the exact side of a
validator row from the per-point public functions.  `read_sweep_csv`
parses the CLI's sweep CSV back into typed rows, `read_fifo` collects
what a writer sends into a FIFO, and `spy_open` records every `os.open`.
"""

import csv
import math
import os
import threading
from pathlib import Path

import mpmath
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
from dicke_therm.sweep import SWEEP_HEADER, format_number


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


def closed_form_spectrum(params):
    """(E_n, omega_n), n = 0..N, each the closed form as one numpy
    expression: wb*(n - N/2) - dt*n*(N - n + 1) and wb + 2*dt*(n - N/2)."""
    big_n, dt, wb = params.n_atoms, params.delta_tilde, params.omega_bar
    n = np.arange(big_n + 1, dtype=float)
    energies = wb * (n - big_n / 2.0) - dt * n * (big_n - n + 1.0)
    frequencies = wb + 2.0 * dt * (n - big_n / 2.0)
    return energies, frequencies


def closed_form_lowering(n_atoms):
    """l_n = sqrt(n*(N - n + 1)), n = 0..N, as one numpy expression."""
    n = np.arange(n_atoms + 1, dtype=float)
    return np.sqrt(n * (n_atoms - n + 1.0))


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
    return RK4_EDGE / float(np.min(_band_spectrum(ThermalLiouvillian(params).band())))


def all_band_step_verdict(params, h):
    """True when RK4 at step h amplifies no eigenmode of any coherence
    band's generator, zero bands included (|R(h*lambda)| <= 1), and one
    step changes the trace of unit populations by at most 1e-8."""
    generators = [dense_band(params, k) for k in range(params.n_atoms + 1)]
    z = h * np.minimum(np.concatenate([_band_spectrum(a) for a in generators]), 0.0)
    gain = np.max(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))))
    x = h * generators[0]
    eye = np.eye(len(x))
    increment = x @ (eye + (x / 2.0) @ (eye + (x / 3.0) @ (eye + x / 4.0)))
    drift = np.max(np.abs(increment.sum(axis=0)))
    return bool(gain <= 1.0 and drift <= ALL_BAND_MAX_TRACE_DRIFT)


# dynamics._eigenvalues and dynamics._check_step as they were while the
# guard took band 0's dense generator, kept verbatim (names changed) as the
# oracle of the guard that reads its three diagonals.

def dense_eigenvalues(a):
    off = np.sqrt(np.diag(a, 1)) * np.sqrt(np.diag(a, -1))
    return np.linalg.eigvalsh(np.diag(np.diag(a)) + np.diag(off, 1) + np.diag(off, -1))


def dense_check_step(a, h):
    z = h * np.minimum(dense_eigenvalues(a), 0.0)
    with np.errstate(over="ignore"):
        gain = float(np.max(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))))
    if gain > 1.0:
        raise StepTooLarge(
            f"RK4 is unstable at h={h:g}: |R(h*lambda)| reaches {gain:.3e} > 1; "
            "reduce the step"
        )


def guard_accepts(rho0, params, h):
    """Whether integrate takes one RK4 step of exactly h from rho0."""
    try:
        integrate(rho0, h, params, ctrl=StepControl(h=h), n_samples=2)
    except StepTooLarge:
        return False
    return True


# The master equation's coefficient arrays as ThermalLiouvillian built them
# before its band diagonals were sliced from O(N) vectors, kept verbatim
# (names prefixed) as the bit-identity oracle of `band` and `apply`;
# `dense_band` reads off every band k, the coherence bands included.

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


# csv_text as it was before the writer took a run of like-typed rows per
# printf, kept verbatim (name changed) as its oracle.

def per_row_csv_text(header, rows, precision):
    # "%.0s" prints None as an empty cell
    cell = {float: f"%.{precision}g", int: "%d", str: "%s", type(None): "%.0s"}
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(map(cell.get, kinds)) if cell.keys() >= set(kinds) else None
        fmt = formats[kinds]
        line = None if fmt is None else fmt % tuple(row)
        if line is None or "nan" in line:
            line = ",".join([format_number(v, precision) for v in row])
        lines.append(line)
    return "\n".join(lines) + "\n"


def per_cell_trajectory_csv(traj, precision):
    """evolve's CSV of a Trajectory, every cell through format_number, one
    row per sample: t, trace, herm_defect, min_eig, trace_dist_to_gibbs
    and the populations."""
    lines = [",".join(["t", "trace", "herm_defect", "min_eig", "trace_dist_to_gibbs",
                       *(f"p_{k}" for k in range(traj.populations.shape[1]))])]
    for i, p in enumerate(traj.populations):
        row = [traj.times[i], p.sum(), traj.herm_defect[i], traj.min_eigenvalue[i],
               traj.trace_dist_to_gibbs[i], *p]
        lines.append(",".join([format_number(v, precision) for v in row]))
    return "\n".join(lines) + "\n"


def mp_interval_map(diagonals, span, dps=50):
    """e^{A_0 span} of band 0's generator, given as its float diagonals
    (loss, down, up), at dps digits: rows of mpf.

    The diagonals enter exactly, so the map is that of the package's float
    generator.  With lam = max|loss|, P = I + A_0/lam is nonnegative and
    e^{A_0 tau} = e^{-lam tau} e^{lam tau P}, so no term cancels and every
    entry, however small, keeps dps digits.  On tau = span/2^s with
    lam*tau <= 1/32 the series runs N + 17 terms, past every level pair an
    entry needs, so each entry's truncation stays below 1e-30 relative;
    s squarings, each entry one mpmath.fdot, reach span.
    """
    with mpmath.workdps(dps):
        loss, down, up = ([mpmath.mpf(float(v)) for v in d] for d in diagonals)
        dim = len(loss)
        lam = -min(loss)
        span = mpmath.mpf(span)
        s = max(0, int(mpmath.ceil(mpmath.log(lam * span, 2))) + 5)
        c = lam * mpmath.ldexp(span, -s)
        main, above, below = (np.array([v / lam for v in d], dtype=object)[:, None]
                              for d in (loss, down, up))
        main += 1
        eye = np.array([[mpmath.mpf(i == j) for j in range(dim)] for i in range(dim)],
                       dtype=object)
        m = eye
        for j in range(dim + 16, 0, -1):
            pm = main * m
            pm[:-1] += above * m[1:]
            pm[1:] += below * m[:-1]
            m = eye + (c / j) * pm
        m = (mpmath.exp(-c) * m).tolist()
        for _ in range(s):
            cols = list(zip(*m))
            m = [[mpmath.fdot(row, col) for col in cols] for row in m]
        return m


def mp_trajectory(params, v0, span, n_samples):
    """The populations at n_samples times span apart from the float start
    v0, each sample the mpmath map of the one before, rounded to floats."""
    m = mp_interval_map(ThermalLiouvillian(params)._band_diagonals(), span)
    with mpmath.workdps(50):
        v = [mpmath.mpf(float(a)) for a in v0]
        rows = []
        for _ in range(n_samples):
            rows.append([float(a) for a in v])
            v = [mpmath.fdot(row, v) for row in m]
    return np.array(rows)


def point_row(n, eta, x):
    """The sweep row at one point, in SWEEP_HEADER order, from the
    per-point library functions."""
    params = EnsembleParams(n, eta, x)
    reason = ""
    try:
        res = steady_state_correlators(params)
        g1, g2, classification = res.g1, res.g2_norm, res.classification.value
    except ZeroIntensity:
        reason = "ZeroIntensity"
        g1 = g2 = classification = "NA"
    if eta == 0.0:
        ratio = 1.0
    else:
        try:
            ratio = intensity_ratio(params)
        except ZeroIntensity:
            reason = "ZeroIntensity"
            ratio = "NA"
    return (n, eta, x, g1, g2, ratio, classification, reason)


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


def spy_open(monkeypatch):
    """The (path, flags) of every os.open call from now on."""
    opened = []
    real_open = os.open

    def spy(path, flags, *args):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", spy)
    return opened


def read_fifo(path, write):
    """Make a FIFO at path and call write() while a thread reads the FIFO
    to its end; returns write's result and the bytes read.  A write that
    fails before it opens the FIFO leaves no reader blocked in open."""
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(Path(path).read_bytes()), daemon=True)
    reader.start()
    try:
        result = write()
    finally:
        try:  # a reader still waiting in open gets an empty write end
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # ENXIO: the reader has closed the FIFO
            pass
        reader.join(timeout=10)
    assert not reader.is_alive()
    return result, got[0]
