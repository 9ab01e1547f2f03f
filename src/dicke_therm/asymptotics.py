"""Closed-form limiting expressions for the photon statistics and the
scattered intensity, plus a validator comparing them against the exact
steady-state engine.

Validity windows used by the validator (the limits themselves are exact
only as x -> 0 or x -> infinity):

    strong bath   x <= 1e-3      g2 limit, quadratic coupling correction,
                                 strong-bath intensity ratio
    weak bath     x >= 30        g2 limit at eta = 0
                  x >= 10        g2 and intensity formulas at eta != 0

The strong-bath intensity ratio formula carries no N dependence while the
exact ratio is N-dependent, so the validator reports it side by side with
the exact value as an informational row and never asserts agreement.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .core import EnsembleParams
from .correlators import _column, _exp, _g2_at, _ratio_at, ladder_log_sums
from .exceptions import ZeroAtoms, ZeroIntensity

__all__ = [
    "BathRegime",
    "FormulaCheck",
    "AsymptoticReport",
    "DEFAULT_TOLERANCES",
    "LN_SQRT_2",
    "g2_limit_eta0",
    "strong_bath_coefficient",
    "g2_strong_bath",
    "g2_weak_bath",
    "g1_weak_bath",
    "eta_threshold",
    "intensity_ratio_strong_bath",
    "validate_asymptotics",
    "default_validation_grid",
]

LN_SQRT_2 = 0.5 * math.log(2.0)

# applicability windows for the validator
STRONG_BATH_X = 1e-3
WEAK_BATH_X = 10.0
WEAK_BATH_X_ETA0 = 30.0
QUADRATIC_ETA_MAX = 0.2
VALIDITY_WINDOWS = (f"x <= {STRONG_BATH_X:g}, or N >= 2 with x >= {WEAK_BATH_X_ETA0:g} at eta = 0"
                    f" or x >= {WEAK_BATH_X:g} at 0 < |eta| <= {QUADRATIC_ETA_MAX:g}")
# finite-difference probe for the quadratic-coefficient check
PROBE_ETA = 1e-3

# axes of the default validation grid
DEFAULT_VALIDATION_N = (2, 3, 7)
DEFAULT_VALIDATION_ETA = (0.0, 0.1)
DEFAULT_VALIDATION_X = (1e-6, 10.0, 15.0, 20.0, 25.0, 30.0)

DEFAULT_TOLERANCES: dict[str, float] = {
    "eq15_strong": 1e-3,
    "eq15_weak": 1e-3,
    "eq16_coeff": 1e-2,
    "eq17": 1e-2,
    "eq18_ratio": 1e-2,
}


class BathRegime(Enum):
    STRONG = "strong"  # x -> 0, hot bath
    WEAK = "weak"  # x >> 1, cold bath


def _require_atoms(n_atoms: int, minimum: int) -> None:
    if n_atoms < minimum:
        raise ZeroAtoms(f"atom count must be at least {minimum}, got {n_atoms}")


def g2_limit_eta0(n_atoms: int, regime: BathRegime) -> float:
    """g2(0) limits for uncoupled emitters.

    Strong bath: 6(N+3)(N-1) / (5N(N+2)); weak bath: 2 - 2/N.
    """
    _require_atoms(n_atoms, 1)
    n = n_atoms
    if regime is BathRegime.STRONG:
        return 6.0 * (n + 3) * (n - 1) / (5.0 * n * (n + 2))
    return 2.0 - 2.0 / n


def strong_bath_coefficient(n_atoms: int) -> float:
    """Quadratic coupling coefficient of g2(0) in the strong-bath limit:
    48(N+3)(N^2+2N-18) / (25N(N-1)(N+2))."""
    _require_atoms(n_atoms, 2)
    n = n_atoms
    return 48.0 * (n + 3) * (n * n + 2 * n - 18) / (25.0 * n * (n - 1) * (n + 2))


def g2_strong_bath(n_atoms: int, eta: float) -> float:
    """g2(0) in the strong-bath limit to second order in the coupling.

    Quadratic truncation; quantitatively useful for |eta| <= 0.2.
    """
    return g2_limit_eta0(n_atoms, BathRegime.STRONG) + strong_bath_coefficient(n_atoms) * eta**2


def g2_weak_bath(n_atoms: int, eta: float, x: float) -> float:
    """g2(0) for a weak (cold) bath:

        2*(1 - 1/N) * ((N-1-(N-3)*eta) / ((N-1)*(1-eta)))^4 * exp(-2*eta*x/(N-1))

    Reduces to 2 - 2/N at eta = 0.  Accurate to better than a percent for
    x >= 10 with |eta| <= 0.2; the residual error shrinks like the
    next-order Boltzmann weight as x grows.  Returns inf where the value
    exceeds the double range (cold baths at eta < 0).
    """
    _require_atoms(n_atoms, 2)
    n = n_atoms
    quartic = ((n - 1 - (n - 3) * eta) / ((n - 1) * (1.0 - eta))) ** 4
    return 2.0 * (1.0 - 1.0 / n) * quartic * _exp(-2.0 * eta * x / (n - 1))


def g1_weak_bath(n_atoms: int, eta: float, x: float) -> float:
    """Psi-normalized intensity for a weak bath: N*(1-eta)^4*exp(-x*(1-eta))."""
    _require_atoms(n_atoms, 1)
    return n_atoms * (1.0 - eta) ** 4 * math.exp(-x * (1.0 - eta))


def eta_threshold(n_atoms: int, x: float) -> float:
    """Coupling above which the scattered light turns sub-Poissonian:
    (N/x)*ln(sqrt(2)).  Derived for N >> 1 and x >> 1 from the reduced
    weak-bath form 2*exp(-2*eta*x/N)."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    return n_atoms / x * LN_SQRT_2


def intensity_ratio_strong_bath(eta: float) -> float:
    """Strong-bath intensity ratio formula 1 + 72*eta^2 + 2064*eta^4/7.

    Informational only: it carries no N dependence, while the exact
    strong-bath ratio does (e.g. 1 + 6*eta^2 + eta^4 at N = 2).  Reports
    always label this value accordingly.
    """
    if not abs(eta) < 1.0:
        raise ValueError(f"|eta| must be below 1, got {eta}")
    return 1.0 + 72.0 * eta**2 + 2064.0 * eta**4 / 7.0


# ---------------------------------------------------------------------------
# validator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaCheck:
    """One exact-vs-closed-form comparison at a grid point."""

    formula: str
    n_atoms: int
    eta: float
    x: float
    exact: float | None
    approx: float | None
    rel_dev: float | None
    status: str  # ok | fail | info | skipped
    note: str = ""


@dataclass(frozen=True)
class AsymptoticReport:
    """All comparisons for a parameter grid plus per-formula worst cases."""

    grid: tuple[tuple[int, float, float], ...]
    checks: tuple[FormulaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def worst(self) -> dict[str, FormulaCheck]:
        """Largest relative deviation per formula (skipped rows excluded)."""
        out: dict[str, FormulaCheck] = {}
        for c in self.checks:
            if c.rel_dev is None:
                continue
            if c.formula not in out or c.rel_dev > out[c.formula].rel_dev:
                out[c.formula] = c
        return out


def _row(formula: str, params: EnsembleParams, exact, approx: float, note: str = "") -> FormulaCheck:
    """One report row: the exact quantity exact() against its closed form
    approx.

    The row is graded against DEFAULT_TOLERANCES, read at call time; a
    formula without an entry there is informational.  An exact side that
    underflows (ZeroIntensity) gives a skipped row carrying the reason.
    """
    point = (params.n_atoms, params.eta, params.x)
    try:
        value = exact()
    except ZeroIntensity as exc:
        return FormulaCheck(formula, *point, None, None, None, "skipped", str(exc))
    dev = abs(approx - value) / max(abs(value), 1e-300)
    tol = DEFAULT_TOLERANCES.get(formula)
    status = "info" if tol is None else "ok" if dev <= tol else "fail"
    return FormulaCheck(formula, *point, value, approx, dev, status, note)


def _check_distinct(**axes) -> None:
    """Refuse an axis that repeats a value: each copy would be computed
    and written again."""
    for name, values in axes.items():
        repeated = [v for v, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValueError(f"the {name} axis repeats {repeated}; each value may appear once")


def default_validation_grid(
    *,
    n_values=DEFAULT_VALIDATION_N,
    eta_values=DEFAULT_VALIDATION_ETA,
    x_values=DEFAULT_VALIDATION_X,
) -> list[tuple[int, float, float]]:
    """Sorted (N, eta, x) product of the axes; the default axes cover both
    bath regimes for a few ensemble sizes.  An axis that repeats a value
    is refused (ValueError)."""
    _check_distinct(N=n_values, eta=eta_values, x=x_values)
    return [(n, eta, x) for n in sorted(n_values) for eta in sorted(eta_values)
            for x in sorted(x_values)]


def validate_asymptotics(grid: list[tuple[int, float, float]]) -> AsymptoticReport:
    """Compare every applicable closed form against the exact engine.

    Each grid point contributes rows for the formulas whose validity
    window it falls in; the quadratic-coefficient check is evaluated once
    per (N, x) via a finite difference at the probe coupling.  Points
    whose exact correlators underflow become skipped rows.  The
    strong-bath intensity ratio rows are informational and never graded.

    The exact side comes from one ladder_log_sums call per N, as in a
    sweep: the distinct x of that N's points at each grid eta of that N,
    at the eta = 0 reference and at PROBE_ETA.  Each coupling's sums take
    one correlators._column step against the reference, and a row reads
    its cell at its x's position through _g2_at and _ratio_at, so every
    value and skipped note equals that of steady_state_correlators and
    intensity_ratio.
    """
    points = [EnsembleParams(*pt) for pt in grid]
    # N -> (each x of its grid, first-seen order, to its position; its couplings)
    by_n: dict[int, tuple[dict[float, int], set[float]]] = {}
    for prm in points:
        xs, etas = by_n.setdefault(prm.n_atoms, ({}, set()))
        xs.setdefault(prm.x, len(xs))
        etas.add(prm.eta)
    # N -> eta -> the cells over that N's x grid
    columns = {}
    for n, (xs, etas) in by_n.items():
        etas.update((0.0, PROBE_ETA) if n >= 2 else (0.0,))
        sums = ladder_log_sums(n, list(xs), etas)
        ref = _column(sums[0.0])
        columns[n] = {eta: ref if eta == 0.0 else _column(s, ref) for eta, s in sums.items()}

    def g2(prm, eta):
        return _g2_at(columns[prm.n_atoms][eta], by_n[prm.n_atoms][0][prm.x])

    def ratio(prm):
        return _ratio_at(prm, columns[prm.n_atoms][prm.eta], by_n[prm.n_atoms][0][prm.x])

    checks = []
    coeff_done: set[tuple[int, float]] = set()
    for prm in points:
        n, eta, x = prm.n_atoms, prm.eta, prm.x
        if eta == 0.0:
            if x <= STRONG_BATH_X:
                checks.append(_row("eq15_strong", prm, lambda: g2(prm, 0.0),
                                   g2_limit_eta0(n, BathRegime.STRONG)))
            if x >= WEAK_BATH_X_ETA0 and n >= 2:
                checks.append(_row("eq15_weak", prm, lambda: g2(prm, 0.0),
                                   g2_limit_eta0(n, BathRegime.WEAK)))
            continue
        if x <= STRONG_BATH_X:
            if n >= 2 and (n, x) not in coeff_done:
                coeff_done.add((n, x))
                probe = EnsembleParams(n, PROBE_ETA, x)
                checks.append(_row(
                    "eq16_coeff", probe,
                    lambda: (g2(probe, PROBE_ETA) - g2(probe, 0.0)) / PROBE_ETA**2,
                    strong_bath_coefficient(n), f"finite-difference probe at eta={PROBE_ETA:g}"))
            checks.append(_row("eq20", prm, lambda: ratio(prm), intensity_ratio_strong_bath(eta),
                               "informational: the exact strong-bath ratio is N-dependent"))
        if x >= WEAK_BATH_X and n >= 2 and abs(eta) <= QUADRATIC_ETA_MAX:
            checks.append(_row("eq17", prm, lambda: g2(prm, eta), g2_weak_bath(n, eta, x)))
            # g1_weak_bath(n, eta, x) / g1_weak_bath(n, 0, x), cancelled: the
            # denominator N*exp(-x) underflows from x ~ 708
            checks.append(_row("eq18_ratio", prm, lambda: ratio(prm),
                               (1.0 - eta) ** 4 * _exp(eta * x)))
    return AsymptoticReport(grid=tuple((p.n_atoms, p.eta, p.x) for p in points),
                            checks=tuple(checks))
