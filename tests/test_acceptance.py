"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts at the stated tolerance.  Criterion 7 is asserted over the full
stated range N = 2..10 even though the sub-Poissonian window provably
closes at N = 10 for x = 30, eta = 0.1 (the coupling threshold
(N/x)*ln(sqrt 2) ~ 0.116 exceeds 0.1 there, and the exact engine agrees
with the closed form to ten digits), so that single case reports FAIL.
"""

import math

import numpy as np

from dicke_therm import (
    BathRegime,
    EnsembleParams,
    PhotonStatistics,
    StepControl,
    eta_threshold,
    g1_weak_bath,
    g2_limit_eta0,
    g2_weak_bath,
    initial_state,
    integrate,
    intensity_ratio,
    steady_state_correlators,
    steady_state_residual,
    strong_bath_coefficient,
    validate_asymptotics,
)
from dicke_therm.asymptotics import DEFAULT_TOLERANCES, default_validation_grid
from dicke_therm.cli import FIGURE_PRESETS
from dicke_therm.sweep import run_sweep
from helpers import matrix_correlators, random_valid_params, read_sweep_csv


def report(label, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {label}: {description}")
    return ok


def bisect(f, lo, hi, tol=1e-12, itmax=200):
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0
    for _ in range(itmax):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def exact_g2(n, eta, x):
    return steady_state_correlators(EnsembleParams(n, eta, x)).g2_norm


def test_criterion_01_strong_bath_limits():
    targets = {2: 0.75, 3: 0.96, 7: 1.142857}
    failures = []
    for n, stated in targets.items():
        exact = exact_g2(n, 0.0, 1e-6)
        formula = g2_limit_eta0(n, BathRegime.STRONG)
        if abs(exact - formula) > 1e-4 or abs(formula - stated) > 1e-6:
            failures.append((n, exact, formula))
    ok = report("01", "strong-bath g2 limits at x=1e-6 within 1e-4 for N in {2,3,7}", not failures)
    assert ok, failures


def test_criterion_02_weak_bath_limits():
    failures = []
    for n in range(2, 11):
        exact = exact_g2(n, 0.0, 30.0)
        if abs(exact - (2.0 - 2.0 / n)) > 1e-3:
            failures.append((n, exact))
    ok = report("02", "weak-bath g2 limits at x=30 within 1e-3 for N in {2..10}", not failures)
    assert ok, failures


def test_criterion_03_weak_bath_formula_agreement():
    devs = []
    for x in (10.0, 15.0, 20.0, 25.0):
        exact = exact_g2(2, 0.1, x)
        devs.append(abs(g2_weak_bath(2, 0.1, x) - exact) / exact)
    ok = devs[0] <= 1e-3 and all(a > b for a, b in zip(devs, devs[1:]))
    report("03", "weak-bath closed form within 1e-3 at (2,0.1,10), deviation monotone in x", ok)
    assert ok, devs


def test_criterion_04_strong_bath_quadratic_coefficient():
    probe = 1e-3
    failures = []
    for n in range(2, 7):
        fd = (exact_g2(n, probe, 1e-6) - exact_g2(n, 0.0, 1e-6)) / probe**2
        coeff = strong_bath_coefficient(n)
        if abs(fd - coeff) > 0.01 * abs(coeff):
            failures.append((n, fd, coeff))
    ok = report("04", "quadratic coupling coefficient within 1% for N in {2..6}", not failures)
    assert ok, failures


def test_criterion_05_intensity_ratio_pattern():
    ratio_cold = intensity_ratio(EnsembleParams(2, 0.1, 10.0))
    closed = g1_weak_bath(2, 0.1, 10.0) / g1_weak_bath(2, 0.0, 10.0)  # = 0.9^4 * e
    ratio_mid = intensity_ratio(EnsembleParams(2, 0.1, 1.0))
    ratio_hot = intensity_ratio(EnsembleParams(2, 0.1, 1e-6))
    ok = (
        abs(ratio_cold - closed) / ratio_cold <= 1e-3
        and abs(closed - 0.9**4 * math.e) < 1e-12
        and ratio_mid < 1.0
        and abs(ratio_mid - 0.9007) < 1e-4
        and ratio_hot > 1.0
        and abs(ratio_hot - 1.0601) < 1e-4
    )
    report("05", "intensity ratio: 1.7833 vs 1.7835 at x=10; <1 at x=1; >1 at x->0", ok)
    assert ok, (ratio_cold, closed, ratio_mid, ratio_hot)


def test_criterion_06_threshold():
    n, x = 20, 100.0
    star = eta_threshold(n, x)
    root = bisect(lambda eta: 2.0 * math.exp(-2.0 * eta * x / n) - 1.0, 1e-6, 0.5)
    below = steady_state_correlators(EnsembleParams(n, 0.8 * star, x)).classification
    above = steady_state_correlators(EnsembleParams(n, 1.2 * star, x)).classification
    ok = (
        abs(root - star) <= 1e-6
        and abs(star - 0.0693147) < 1e-7
        and below is PhotonStatistics.SUPER_POISSONIAN
        and above is PhotonStatistics.SUB_POISSONIAN
    )
    report("06", "closed-form threshold at (N/x)ln sqrt(2); exact engine flips across it", ok)
    assert ok, (root, star, below, above)


def test_criterion_07_sign_flip():
    failures = []
    for n in range(2, 11):
        plus = exact_g2(n, 0.1, 30.0)
        minus = exact_g2(n, -0.1, 30.0)
        if not plus < 1.0:
            failures.append(f"N={n}: g2(+0.1)={plus:.6f} not < 1")
        if not minus > 1.0:
            failures.append(f"N={n}: g2(-0.1)={minus:.6f} not > 1")
    ok = report("07", "sign flip at x=30: eta=+0.1 sub-, eta=-0.1 super-Poissonian, N in {2..10}",
                not failures)
    assert ok, "; ".join(failures)


def test_criterion_08_steady_state_verification():
    grid = [(1, 0.0, 0.1), (1, 0.0, 10.0)]
    for n in range(2, 8):
        grid += [(n, 0.1, 10.0), (n, -0.1, 1.0), (n, 0.0, 0.1)]
    assert len(grid) == 20
    failures = []
    for n, eta, x in grid:
        resid = steady_state_residual(EnsembleParams(n, eta, x))
        if resid > 1e-12:
            failures.append((n, eta, x, resid))
    for n in range(1, 6):
        params = EnsembleParams(n, 0.1 if n > 1 else 0.0, 10.0)
        traj = integrate(
            initial_state(params, "inverted"),
            200.0,
            params,
            ctrl=StepControl(h=0.02),
            n_samples=11,
        )
        if traj.final_trace_distance > 1e-8:
            failures.append((n, "relaxation", traj.final_trace_distance))
    ok = report("08", "Gibbs state stationary (<=1e-12) on 20-point grid; RK4 relaxes to it "
                   "(<=1e-8) for N<=5", not failures)
    assert ok, failures


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(2024)
    failures = []
    for _ in range(50):
        params = random_valid_params(rng, n_max=6)
        res = steady_state_correlators(params)
        g1_ref, g2_ref = matrix_correlators(params)
        if abs(res.g1 - g1_ref) > 1e-12 * abs(g1_ref):
            failures.append((params, "g1", res.g1, g1_ref))
        if g2_ref == 0.0:
            if res.g2_raw != 0.0:
                failures.append((params, "g2", res.g2_raw, g2_ref))
        elif abs(res.g2_raw - g2_ref) > 1e-12 * abs(g2_ref):
            failures.append((params, "g2", res.g2_raw, g2_ref))
    ok = report("09", "indexed sums equal matrix-trace correlators within 1e-12, 50 random points",
                not failures)
    assert ok, failures


def test_criterion_10_strong_bath_ratio_reported_not_asserted():
    report_obj = validate_asymptotics(default_validation_grid())
    rows = [c for c in report_obj.checks
            if c.formula == "eq20" and c.n_atoms == 2 and c.x <= 1e-3]
    ok = (
        len(rows) == 1
        and rows[0].status == "info"
        and abs(rows[0].exact - 1.06010) < 1e-4
        and abs(rows[0].approx - 1.74949) < 1e-4
        and "eq20" not in DEFAULT_TOLERANCES
        and report_obj.passed
    )
    report("10", "strong-bath ratio: exact 1.06010 vs formula 1.74949 side by side, INFO only", ok)
    assert ok, rows


def test_figure_presets_reproduce_endpoints(tmp_path):
    for name, preset in FIGURE_PRESETS.items():
        run_sweep(preset, tmp_path / f"{name}.csv")

    def curve(name, n, eta):
        rows = [r for r in read_sweep_csv(tmp_path / f"{name}.csv")
                if r["N"] == n and r["eta"] == eta]
        return sorted(rows, key=lambda r: r["x"])

    failures = []
    # g2(x) endpoints: strong-bath value on the left, weak-bath on the right
    for name, n in (("fig1", 2), ("fig2", 3), ("fig3", 7)):
        rows = curve(name, n, 0.0)
        if abs(rows[0]["g2"] - g2_limit_eta0(n, BathRegime.STRONG)) > 1e-3:
            failures.append((name, "left edge", rows[0]["g2"]))
        if abs(rows[-1]["g2"] - g2_limit_eta0(n, BathRegime.WEAK)) > 1e-3:
            failures.append((name, "right edge", rows[-1]["g2"]))
    # coupled curves cross into the quantum regime at large x
    fig1_coupled = curve("fig1", 2, 0.1)
    if not fig1_coupled[-1]["g2"] < 1.0:
        failures.append(("fig1", "coupled right edge", fig1_coupled[-1]["g2"]))
    asymptote = (1.1 / 0.9) ** 4 * math.exp(-0.2 * fig1_coupled[-1]["x"])
    if abs(fig1_coupled[-1]["g2"] - asymptote) / asymptote > 1e-3:
        failures.append(("fig1", "asymptote", fig1_coupled[-1]["g2"], asymptote))
    fig3_coupled = curve("fig3", 7, 0.1)
    if not (fig3_coupled[0]["classification"] == "SuperPoissonian"
            and fig3_coupled[-1]["classification"] == "SubPoissonian"):
        failures.append(("fig3", "no crossing"))
    # intensity ratio: enhanced cold, suppressed at moderate x, enhanced hot
    fig4 = curve("fig4", 2, 0.1)
    hot = fig4[0]
    mid = min(fig4, key=lambda r: abs(r["x"] - 1.0))
    cold = min(fig4, key=lambda r: abs(r["x"] - 10.0))
    if not (hot["ratio"] > 1.0 and abs(hot["ratio"] - 1.0601) < 1e-2):
        failures.append(("fig4", "hot edge", hot["ratio"]))
    if not mid["ratio"] < 1.0:
        failures.append(("fig4", "moderate x", mid["ratio"]))
    if not cold["ratio"] > 1.0:
        failures.append(("fig4", "cold side", cold["ratio"]))
    ok = report("figures", "presets reproduce the limit endpoints and crossings", not failures)
    assert ok, failures
