"""Reference values that the benchmark checks the program's outputs against.

Nothing here imports the package.  The sweep oracle rebuilds the Dicke
ladder from the closed forms

    E_k - E_0 = k + eta*k*(k-N)/(N-1)      (sum of the omegas below level k)
    omega_k   = 1 + eta*(2k+1-N)/(N-1)     (transition k -> k+1)

and takes max-shifted log-sum-exp ladder sums with numpy's pairwise
summation, so it shares neither the energy formula nor the summation with
the package.  The dynamics oracle builds the dense superoperator of

    drho/dt = -[S+, D1 S- rho] - [S-, S+ D2 rho] + h.c.,
    D1 = Gamma(w)/2*(1+nbar(w)),  D2 = Gamma(w)/2*nbar(w),  Gamma = w^3,

from Kronecker products and propagates with scipy.linalg.expm.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
# exp(v) rounds to 0.0 below this (half the smallest subnormal)
LOG_UNDERFLOW = math.log(2.0) * -1075.0
# the program reports a ratio beyond exp(709) as inf
LOG_RATIO_INF = 709.0
# classify_statistics' default tolerance around g2 = 1
CLASSIFY_TOL = 1e-9
SUBNORMAL_SLACK = 4.0 * math.ulp(0.0)


def sweep_tolerance(n: int, x: float) -> float:
    """Relative tolerance for g1, g2 and the ratio at (N, x).

    1e-10 covers 12-digit CSV rounding; the second term covers the rounding
    of x*E_n, which the log weights inherit and which grows like x*N.
    """
    return 1e-10 + 64.0 * EPS * x * n


def levels(n: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Energies above the ground level and transition frequencies, k = 0..N."""
    k = np.arange(n + 1, dtype=float)
    if n == 1:
        return k, np.ones(2)
    energy = k + eta * k * (k - n) / (n - 1)
    omega = 1.0 + eta * (2.0 * k + 1.0 - n) / (n - 1)
    return energy, omega


def _logsumexp(terms: np.ndarray) -> float:
    if terms.size == 0:
        return -math.inf
    m = float(terms.max())
    return m + math.log(float(np.sum(np.exp(terms - m))))


def ladder_logs(n: int, eta: float, x: float) -> tuple[float, float]:
    """(log G1, log G2), Psi-normalised Gibbs expectation values.

    G1 = <S+ w^4 S->, G2 = <S+ w^2 S+ w^4 S- w^2 S->; log G2 is -inf for N = 1.
    """
    energy, omega = levels(n, eta)
    k = np.arange(n + 1, dtype=float)
    log_w = -x * energy
    log_c = np.log(np.maximum(k * (n - k + 1.0), 1.0))  # |<k-1|S-|k>|^2, k >= 1
    log_w4 = 4.0 * np.log(omega)
    log_z = _logsumexp(log_w)
    log_s1 = _logsumexp(log_w[1:] + log_c[1:] + log_w4[:-1])
    log_s2 = -math.inf
    if n >= 2:
        log_s2 = _logsumexp(log_w[2:] + log_c[2:] + log_c[1:-1] + log_w4[1:-1] + log_w4[:-2])
    return log_s1 - log_z, log_s2 - log_z


class Expect:
    """Expected cell: a number with a relative tolerance or a token, plus the
    other answers acceptable when the reference sits on a decision boundary."""

    def __init__(self, value, tol: float = 0.0, alts: tuple = ()):
        self.value = value
        self.tol = tol
        self.alts = alts

    def accepts(self, cell: str) -> bool:
        return any(_accepts(v, self.tol, cell) for v in (self.value, *self.alts))

    def __repr__(self) -> str:
        return f"Expect({self.value!r}, tol={self.tol:g}, alts={self.alts!r})"


def _accepts(value, tol: float, cell: str) -> bool:
    if isinstance(value, str):
        return cell == value
    try:
        got = float(cell)
    except ValueError:
        return False
    if math.isinf(value):
        return got == value
    return abs(got - value) <= tol * abs(value) + SUBNORMAL_SLACK


def _underflow_choices(log_v: float, tol: float) -> tuple[bool, ...]:
    """Whether exp(log_v) underflows; both answers within tol of the threshold."""
    lost = log_v < LOG_UNDERFLOW
    if abs(log_v - LOG_UNDERFLOW) <= tol * abs(log_v):
        return (lost, not lost)
    return (lost,)


def _classification(g2: float, tol: float) -> Expect:
    def verdict(v: float) -> str:
        if v < 1.0 - CLASSIFY_TOL:
            return "SubPoissonian"
        if v > 1.0 + CLASSIFY_TOL:
            return "SuperPoissonian"
        return "Poissonian"

    near = {verdict(g2 * (1.0 - tol)), verdict(g2 * (1.0 + tol))} - {verdict(g2)}
    return Expect(verdict(g2), 0.0, tuple(sorted(near)))


def sweep_row_choices(n: int, eta: float, x: float,
                      outputs: tuple[str, ...]) -> list[dict[str, Expect]]:
    """Acceptable g1, g2, ratio, classification and reason cells of one row.

    Columns not in `outputs` are empty.  Underflow of an intensity at double
    precision gives NA cells and the reason ZeroIntensity.  There is one
    choice, or two or four where a reference intensity sits within the
    tolerance of the underflow threshold.
    """
    tol = sweep_tolerance(n, x)
    log_g1, log_g2 = ladder_logs(n, eta, x)
    with_ratio = "ratio" in outputs and eta != 0.0
    log_ref = ladder_logs(n, 0.0, x)[0] if with_ratio else 0.0
    return [
        _row(n, outputs, tol, log_g1, log_g2, log_g1 - log_ref, lost, ref_lost, with_ratio)
        for lost in _underflow_choices(log_g1, tol)
        for ref_lost in _underflow_choices(log_ref, tol)
    ]


def _row(n, outputs, tol, log_g1, log_g2, log_ratio, lost, ref_lost, with_ratio):
    row = {key: Expect("") for key in ("g1", "g2", "ratio", "classification")}
    na = False
    if {"g1", "g2", "classification"} & set(outputs):
        na = lost
        g2 = 0.0 if n == 1 else math.exp(log_g2 - 2.0 * log_g1)
        cells = {
            "g1": Expect(math.exp(log_g1), tol),
            "g2": Expect(g2, tol),
            "classification": _classification(g2, tol),
        }
        for key in cells.keys() & set(outputs):
            row[key] = Expect("NA") if lost else cells[key]
    if "ratio" in outputs:
        if not with_ratio:
            row["ratio"] = Expect(1.0)
        elif lost or ref_lost:
            row["ratio"] = Expect("NA")
            na = True
        else:
            big = log_ratio > LOG_RATIO_INF
            row["ratio"] = Expect(math.inf if big else math.exp(log_ratio), tol)
    row["reason"] = Expect("ZeroIntensity" if na else "")
    return row


def g2_value(n: int, eta: float, x: float) -> float:
    """Normalised g2(0); raises ArithmeticError where the intensity underflows."""
    log_g1, log_g2 = ladder_logs(n, eta, x)
    if log_g1 < LOG_UNDERFLOW:
        raise ArithmeticError("intensity underflows")
    return 0.0 if n == 1 else math.exp(log_g2 - 2.0 * log_g1)


def ratio_value(n: int, eta: float, x: float) -> float:
    """G1(eta)/G1(0); raises ArithmeticError where either intensity underflows."""
    log_g1, _ = ladder_logs(n, eta, x)
    log_ref, _ = ladder_logs(n, 0.0, x)
    if min(log_g1, log_ref) < LOG_UNDERFLOW:
        raise ArithmeticError("intensity underflows")
    return math.exp(log_g1 - log_ref)


# ---------------------------------------------------------------------------
# master-equation dynamics
# ---------------------------------------------------------------------------


def gibbs_populations(n: int, eta: float, x: float) -> np.ndarray:
    energy, _ = levels(n, eta)
    w = np.exp(-x * energy)
    return w / np.sum(w)


def superoperator(n: int, eta: float, x: float) -> np.ndarray:
    """Dense generator acting on the row-major vectorisation of rho.

    rho -> A rho B is kron(A, B.T); the h.c. of A rho B, for hermitian rho,
    is B^H rho A^H.
    """
    d = n + 1
    _, omega = levels(n, eta)
    gamma = omega**3
    nbar = 1.0 / np.expm1(x * omega)
    d1 = np.diag(0.5 * gamma * (1.0 + nbar))
    d2 = np.diag(0.5 * gamma * nbar)
    k = np.arange(1, d, dtype=float)
    sm = np.diag(np.sqrt(k * (n - k + 1.0)), 1)  # <k-1|S-|k>
    sp = sm.T
    eye = np.eye(d)
    terms = [(-sp @ d1 @ sm, eye), (d1 @ sm, sp), (-sm @ sp @ d2, eye), (sp @ d2, sm)]
    gen = np.zeros((d * d, d * d))
    for a, b in terms:
        gen += np.kron(a, b.T) + np.kron(b.conj().T, a.conj())
    return gen


def trajectory(rho0: np.ndarray, n: int, eta: float, x: float,
               t_end: float, n_samples: int) -> np.ndarray:
    """Exact states at n_samples evenly spaced times in [0, t_end]."""
    from scipy.linalg import expm

    d = n + 1
    step = expm(superoperator(n, eta, x) * (t_end / (n_samples - 1)))
    out = np.empty((n_samples, d, d), dtype=complex)
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    for i in range(n_samples):
        out[i] = v.reshape(d, d)
        v = step @ v
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
