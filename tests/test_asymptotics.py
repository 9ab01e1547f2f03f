"""Closed-form limits and the exact-vs-approximate validator."""

import math

import pytest

from dicke_therm import (
    BathRegime,
    EnsembleParams,
    ZeroAtoms,
    asymptotics,
    correlators,
    default_validation_grid,
    eta_threshold,
    g1_weak_bath,
    g2_limit_eta0,
    g2_strong_bath,
    g2_weak_bath,
    intensity_ratio_strong_bath,
    steady_state_correlators,
    strong_bath_coefficient,
    validate_asymptotics,
)
from dicke_therm.asymptotics import DEFAULT_TOLERANCES

from helpers import per_point_exact

# frozen against a 50-digit evaluation
EQ17_2_01_10 = 0.302003335142089
EQ17_DEV_2_01_10 = 4.88641009178939e-5
EQ18_2_01_10 = 1.61938344922541e-4
EQ18_2_0_10 = 9.07998595249697e-5
EQ19_10_50 = 0.0693147180559945
EQ20_01 = 1.74948571428571
EQ20_005 = 1.18184285714286
COEFFS = {2: -12.0, 3: -1.152, 4: 1.12, 5: 1.86514285714286, 6: 2.16}
EQ16_COEFF_FD_2 = -11.9973770564272  # finite difference at eta=1e-3, x=1e-6
EXACT_RATIO_2_01_HOT = 1.06009979546836

# both bath regimes, both underflow notes and the eq16 probe at several N
WIDE_GRID = default_validation_grid(
    n_values=(2, 3, 7, 40, 300), eta_values=(-0.2, -0.1, 0.0, 0.1),
    x_values=(1e-6, 1e-3, 10.0, 30.0, 745.25, 1500.0, 4000.0),
)
# not a product, unsorted, with a repeated point, N = 1, and a reference
# that underflows where its eta side does not (eta = 0.2 at x = 800)
PATCHY_GRID = [
    (7, 0.1, 30.0), (2, 0.0, 1e-6), (300, -0.1, 1e-3), (2, 0.2, 800.0), (1, 0.0, 1e-6),
    (7, 0.1, 30.0), (3, -0.2, 10.0), (2, 0.1, 1e-6), (1, 0.0, 50.0), (40, 0.0, 30.0),
    (2, -0.1, 745.25), (3, 0.0, 1500.0),
]


class TestLimits:
    @pytest.mark.parametrize(
        "n,expected", [(1, 0.0), (2, 0.75), (3, 0.96), (7, 8.0 / 7.0)]
    )
    def test_strong_bath_limit(self, n, expected):
        assert g2_limit_eta0(n, BathRegime.STRONG) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n,expected", [(1, 0.0), (2, 1.0), (10, 1.8)])
    def test_weak_bath_limit(self, n, expected):
        assert g2_limit_eta0(n, BathRegime.WEAK) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", sorted(COEFFS))
    def test_quadratic_coefficient(self, n):
        assert strong_bath_coefficient(n) == pytest.approx(COEFFS[n], rel=1e-12)

    def test_strong_bath_quadratic_form(self):
        # N = 2 reduces to 0.75 - 12*eta^2
        for eta in (0.0, 0.05, 0.2):
            assert g2_strong_bath(2, eta) == pytest.approx(0.75 - 12 * eta**2, rel=1e-12)
        assert g2_strong_bath(4, 0.1) == pytest.approx(1.0612, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_corrections_reduce_to_limits_at_zero_coupling(self, n):
        assert g2_strong_bath(n, 0.0) == g2_limit_eta0(n, BathRegime.STRONG)
        for x in (5.0, 50.0):
            assert g2_weak_bath(n, 0.0, x) == g2_limit_eta0(n, BathRegime.WEAK)

    def test_weak_bath_value(self):
        assert g2_weak_bath(2, 0.1, 10.0) == pytest.approx(EQ17_2_01_10, rel=1e-12)

    def test_weak_bath_intensity(self):
        assert g1_weak_bath(2, 0.1, 10.0) == pytest.approx(EQ18_2_01_10, rel=1e-12)
        assert g1_weak_bath(2, 0.0, 10.0) == pytest.approx(EQ18_2_0_10, rel=1e-12)

    def test_small_ensembles_rejected(self):
        with pytest.raises(ZeroAtoms):
            g2_weak_bath(1, 0.1, 10.0)
        with pytest.raises(ZeroAtoms):
            strong_bath_coefficient(1)
        with pytest.raises(ZeroAtoms):
            g2_limit_eta0(0, BathRegime.STRONG)


class TestThreshold:
    def test_value(self):
        assert eta_threshold(10, 50.0) == pytest.approx(EQ19_10_50, rel=1e-14)

    def test_inversion(self):
        x_star = 7 / 0.1 * (0.5 * math.log(2.0))
        assert eta_threshold(7, x_star) == pytest.approx(0.1, rel=1e-12)

    def test_vanishes_at_zero_temperature(self):
        assert eta_threshold(10, 1e12) < 1e-10

    def test_requires_positive_x(self):
        with pytest.raises(ValueError):
            eta_threshold(5, 0.0)

    def test_weak_bath_form_straddles_unity(self):
        star = eta_threshold(20, 100.0)
        assert g2_weak_bath(20, 0.9 * star, 100.0) > 1.0
        assert g2_weak_bath(20, 1.1 * star, 100.0) < 1.0

    def test_weak_bath_crossing_sits_near_inverted_threshold(self):
        # solve g2_weak_bath(7, 0.1, x) = 1 for x; the crossing lands within
        # 20% of the threshold inversion x* = (N/eta)*ln(sqrt 2) = 24.26
        lo, hi = 10.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g2_weak_bath(7, 0.1, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(20.5340123224856, rel=1e-9)
        x_star = 7 / 0.1 * (0.5 * math.log(2.0))
        assert abs(root - x_star) / x_star < 0.2
        exact = steady_state_correlators(EnsembleParams(7, 0.1, root)).g2_norm
        assert exact == pytest.approx(1.0, abs=1e-6)


class TestStrongBathRatio:
    def test_values(self):
        assert intensity_ratio_strong_bath(0.0) == 1.0
        assert intensity_ratio_strong_bath(0.1) == pytest.approx(EQ20_01, rel=1e-12)
        assert intensity_ratio_strong_bath(0.05) == pytest.approx(EQ20_005, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            intensity_ratio_strong_bath(1.0)


class TestAgreementWithExactEngine:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_weak_bath_deviation_shrinks_with_x(self, n):
        devs = []
        for x in (10.0, 15.0, 20.0, 25.0):
            exact = steady_state_correlators(EnsembleParams(n, 0.1, x)).g2_norm
            devs.append(abs(g2_weak_bath(n, 0.1, x) - exact) / exact)
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[0] < 1e-3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_quadratic_coefficient_from_finite_difference(self, n):
        probe = 1e-3
        hot = steady_state_correlators(EnsembleParams(n, probe, 1e-6)).g2_norm
        base = steady_state_correlators(EnsembleParams(n, 0.0, 1e-6)).g2_norm
        fd = (hot - base) / probe**2
        assert fd == pytest.approx(strong_bath_coefficient(n), rel=1e-2)

    def test_finite_difference_frozen_value(self):
        hot = steady_state_correlators(EnsembleParams(2, 1e-3, 1e-6)).g2_norm
        base = steady_state_correlators(EnsembleParams(2, 0.0, 1e-6)).g2_norm
        assert (hot - base) / 1e-6 == pytest.approx(EQ16_COEFF_FD_2, rel=1e-6)


class TestValidator:
    def test_single_weak_bath_point(self):
        report = validate_asymptotics([(2, 0.1, 10.0)])
        assert report.passed
        assert report.grid == ((2, 0.1, 10.0),)
        formulas = sorted(c.formula for c in report.checks)
        assert formulas == ["eq17", "eq18_ratio"]
        eq17 = next(c for c in report.checks if c.formula == "eq17")
        assert eq17.status == "ok"
        assert eq17.rel_dev == pytest.approx(EQ17_DEV_2_01_10, rel=1e-6)

    def test_uncoupled_strong_bath_point(self):
        report = validate_asymptotics([(2, 0.0, 1e-6)])
        assert [c.formula for c in report.checks] == ["eq15_strong"]
        row = report.checks[0]
        assert row.status == "ok"
        assert row.rel_dev < 1e-5

    def test_single_strong_bath_point(self):
        report = validate_asymptotics([(2, 0.1, 1e-6)])
        assert report.passed
        formulas = sorted(c.formula for c in report.checks)
        assert formulas == ["eq16_coeff", "eq20"]
        eq20 = next(c for c in report.checks if c.formula == "eq20")
        assert eq20.status == "info"
        assert eq20.exact == pytest.approx(EXACT_RATIO_2_01_HOT, rel=1e-10)
        assert eq20.approx == pytest.approx(EQ20_01, rel=1e-12)
        coeff = next(c for c in report.checks if c.formula == "eq16_coeff")
        assert coeff.status == "ok"
        assert coeff.exact == pytest.approx(EQ16_COEFF_FD_2, rel=1e-6)

    def test_default_grid_passes(self):
        report = validate_asymptotics(default_validation_grid())
        assert report.passed
        worst = report.worst()
        assert {"eq15_strong", "eq15_weak", "eq16_coeff", "eq17", "eq18_ratio", "eq20"} <= set(
            worst
        )
        w17 = worst["eq17"]
        assert (w17.n_atoms, w17.eta, w17.x) == (2, 0.1, 10.0)
        assert w17.rel_dev == pytest.approx(EQ17_DEV_2_01_10, rel=1e-6)

    def test_underflow_points_become_skipped_rows(self):
        report = validate_asymptotics([(2, 0.1, 1500.0)])
        assert report.passed
        assert {c.status for c in report.checks} == {"skipped"}
        assert all("underflow" in c.note for c in report.checks)

    def test_invalid_grid_point_raises(self):
        with pytest.raises(ValueError):
            validate_asymptotics([(1, 0.1, 10.0)])

    def test_tolerance_override_can_fail(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_TOLERANCES, "eq17", 1e-9)
        report = validate_asymptotics([(2, 0.1, 10.0)])
        assert not report.passed
        eq17 = next(c for c in report.checks if c.formula == "eq17")
        assert eq17.status == "fail"

    def test_info_rows_never_fail(self, monkeypatch):
        # the strong-bath ratio formula disagrees with the exact N-dependent
        # ratio by construction; the report must stay green regardless
        monkeypatch.setitem(DEFAULT_TOLERANCES, "eq17", 1e-15)
        report = validate_asymptotics([(2, 0.1, 1e-6)])
        eq20 = next(c for c in report.checks if c.formula == "eq20")
        assert eq20.rel_dev > 0.5
        assert eq20.status == "info"
        assert report.passed

    def test_grid_is_the_sorted_product_of_the_axes(self):
        grid = default_validation_grid(n_values=(7, 2), eta_values=(0.1, -0.1), x_values=(30.0,))
        assert grid == [(2, -0.1, 30.0), (2, 0.1, 30.0), (7, -0.1, 30.0), (7, 0.1, 30.0)]
        assert default_validation_grid(n_values=(3,))[0] == (3, 0.0, 1e-6)
        assert len(default_validation_grid()) == 36

    @pytest.mark.parametrize(
        "n,eta,x",
        [(2, -0.1, 4000.0), (2, 0.1, 745.25), (2, 0.1, 741.25), (2, -0.2, 618.25)],
    )
    def test_cold_bath_rows_pass_or_skip(self, n, eta, x):
        # the closed forms stay finite, or inf, where exp(-x) and
        # exp(-2*eta*x/(N-1)) leave the double range
        report = validate_asymptotics([(n, eta, x)])
        assert [c.formula for c in report.checks] == ["eq17", "eq18_ratio"]
        assert {c.status for c in report.checks} <= {"ok", "skipped"}
        # the cancelled eq18 ratio matches the exact one to rounding
        assert all(c.rel_dev < 1e-12 for c in report.checks if c.status == "ok")


class TestValidatorAgainstPerPointPath:
    @pytest.mark.parametrize("grid", [WIDE_GRID, PATCHY_GRID], ids=["wide", "patchy"])
    def test_every_row_equals_the_per_point_path(self, grid):
        report = validate_asymptotics(grid)
        notes = set()
        for check in report.checks:
            value, note = per_point_exact(check)
            if note is None:
                assert check.exact == value, check
                assert check.rel_dev == abs(check.approx - value) / max(abs(value), 1e-300)
                assert check.status in ("ok", "fail", "info")
            else:
                assert (check.exact, check.status, check.note) == (None, "skipped", note), check
                notes.add(note.partition(" for ")[0])
        # both underflow notes: the correlators' and the ratio's
        assert len(notes) == 2

    def test_patchy_grid_rows(self):
        formulas = [(c.formula, c.n_atoms, c.eta, c.x) for c in validate_asymptotics(
            PATCHY_GRID).checks]
        assert formulas == [
            ("eq17", 7, 0.1, 30.0), ("eq18_ratio", 7, 0.1, 30.0),
            ("eq15_strong", 2, 0.0, 1e-6),
            ("eq16_coeff", 300, 1e-3, 1e-3), ("eq20", 300, -0.1, 1e-3),
            ("eq17", 2, 0.2, 800.0), ("eq18_ratio", 2, 0.2, 800.0),
            ("eq15_strong", 1, 0.0, 1e-6),
            ("eq17", 7, 0.1, 30.0), ("eq18_ratio", 7, 0.1, 30.0),
            ("eq17", 3, -0.2, 10.0), ("eq18_ratio", 3, -0.2, 10.0),
            ("eq16_coeff", 2, 1e-3, 1e-6), ("eq20", 2, 0.1, 1e-6),
            ("eq15_weak", 40, 0.0, 30.0),
            ("eq17", 2, -0.1, 745.25), ("eq18_ratio", 2, -0.1, 745.25),
            ("eq15_weak", 3, 0.0, 1500.0),
        ]
        ratio = validate_asymptotics([(2, 0.2, 800.0)]).checks[1]
        assert ratio.note.endswith("for N=2, eta=0.0, x=800.0")

    @staticmethod
    def spy_kernel(monkeypatch):
        """Record (N, xs, {eta: pairs}) of every kernel call, wherever
        the validator looks the kernel up."""
        seen = []
        kernel = correlators.ladder_log_sums

        def spy(n, *args):
            seen.append((n, *args))
            return kernel(n, *args)

        monkeypatch.setattr(correlators, "ladder_log_sums", spy)
        monkeypatch.setattr(asymptotics, "ladder_log_sums", spy, raising=False)
        return seen

    def test_default_grid_makes_one_kernel_call_per_n(self, monkeypatch):
        seen = self.spy_kernel(monkeypatch)
        validate_asymptotics(default_validation_grid())
        assert [call[0] for call in seen] == [2, 3, 7]

    def test_each_n_sums_its_x_grid_at_every_eta_read_there(self, monkeypatch):
        seen = self.spy_kernel(monkeypatch)
        validate_asymptotics([(2, 0.1, 10.0), (2, 0.0, 30.0), (2, 0.1, 1e-6), (7, -0.1, 20.0),
                              (7, 0.0, 15.0), (1, 0.0, 1e-6)])
        assert [(n, list(xs), list(calls.items())) for n, xs, calls in seen] == [
            # the grid eta, then the eta = 0 reference and the probe, each
            # over the distinct x of that N in first-seen order
            (2, [10.0, 30.0, 1e-6], [(0.1, True), (0.0, True), (1e-3, True)]),
            (7, [20.0, 15.0], [(-0.1, True), (0.0, True), (1e-3, True)]),
            # a single emitter has no probe coupling
            (1, [1e-6], [(0.0, True)]),
        ]


class TestColdBathClosedForms:
    def test_weak_bath_g2_overflows_to_inf(self):
        assert g2_weak_bath(2, -0.3, 2000.0) == math.inf
        assert g2_weak_bath(2, 0.3, 2000.0) == 0.0
