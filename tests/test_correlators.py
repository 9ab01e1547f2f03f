"""Intensity, g2(0) and classification."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from dicke_therm import (
    DickeSpectrum,
    DimensionMismatch,
    EnsembleParams,
    PhotonStatistics,
    NonPositiveX,
    ZeroIntensity,
    build_spectrum,
    classify_statistics,
    g2_zero,
    intensity_ratio,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
)
from dicke_therm import correlators
from dicke_therm.correlators import LadderLogSums, _column, _ratio_at, correlators_from_log_sums
from dicke_therm.sweep import VALID_OUTPUTS, evaluate_rows
from helpers import full_row_ladder_log_sums, matrix_correlators, random_valid_params

# frozen against a 50-digit evaluation of the closed-form sums
G1_2_01_1E6 = 1.41346568722449
G1_2_01_10 = 1.61924397000716e-4
G1_2_0_10 = 9.07998593378257e-5
G2_2_0_1E6 = 0.750000000000062
G2_2_0_1 = 0.803388066758518
G2_2_01_10 = 0.302018092984664
G2RAW_2_01_10 = 7.91876651310032e-9
RATIO_2_01_1E6 = 1.06009979546836
RATIO_2_01_1 = 0.900667961523311
RATIO_2_01_10 = 1.783311099616
RATIO_3_01_1E6 = 1.03605976548004


def tables(n, eta, x):
    p = EnsembleParams(n, eta, x)
    spec = build_spectrum(p)
    return thermal_state(p), spec, ladder_coefficients(n)


def g1(n, eta, x):
    return steady_state_correlators(EnsembleParams(n, eta, x)).g1


class TestIntensity:
    def test_hot_uncoupled_pair(self):
        assert g1(2, 0.0, 1e-9) == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_hot_coupled_pair(self):
        assert g1(2, 0.1, 1e-6) == pytest.approx(G1_2_01_1E6, rel=1e-12)
        # equal-population limit (2*0.9^4 + 2*1.1^4)/3
        limit = (2 * 0.9**4 + 2 * 1.1**4) / 3
        assert g1(2, 0.1, 1e-6) == pytest.approx(limit, abs=2e-6)

    def test_cold_coupled_pair(self):
        assert g1(2, 0.1, 10.0) == pytest.approx(G1_2_01_10, rel=1e-12)

    def test_matches_log_domain_path(self):
        for (n, eta, x) in [(2, 0.1, 10.0), (5, -0.2, 3.0), (9, 0.3, 0.2)]:
            g1_ref, _ = matrix_correlators(EnsembleParams(n, eta, x))
            assert g1(n, eta, x) == pytest.approx(g1_ref, rel=1e-12)

    def test_dimension_mismatch(self):
        st, spec, _ = tables(2, 0.0, 1.0)
        with pytest.raises(DimensionMismatch):
            g2_zero(st, spec, ladder_coefficients(3))


class TestG2:
    def test_strong_bath_pair(self):
        st, spec, c = tables(2, 0.0, 1e-6)
        res = g2_zero(st, spec, c)
        assert res.g2_norm == pytest.approx(0.75, abs=1e-5)
        assert res.g2_norm == pytest.approx(G2_2_0_1E6, rel=1e-10)
        assert res.classification is PhotonStatistics.SUB_POISSONIAN

    def test_moderate_bath_pair(self):
        res = steady_state_correlators(EnsembleParams(2, 0.0, 1.0))
        assert res.g2_norm == pytest.approx(G2_2_0_1, rel=1e-12)

    def test_cold_coupled_pair(self):
        res = steady_state_correlators(EnsembleParams(2, 0.1, 10.0))
        assert res.g2_norm == pytest.approx(G2_2_01_10, rel=1e-12)
        assert res.g2_raw == pytest.approx(G2RAW_2_01_10, rel=1e-12)
        assert res.classification is PhotonStatistics.SUB_POISSONIAN

    @pytest.mark.parametrize("x", [1e-6, 1.0, 30.0])
    def test_single_atom_never_pairs(self, x):
        log_s2 = correlators.ladder_log_sums(1, [x], [0.0])[0.0].log_s2
        assert log_s2.tobytes() == np.array([-math.inf]).tobytes()
        res = steady_state_correlators(EnsembleParams(1, 0.0, x))
        assert res.g2_raw == 0.0
        assert res.g2_norm == 0.0
        assert res.classification is PhotonStatistics.SUB_POISSONIAN

    @pytest.mark.parametrize("sums", [("0", 0.0, 0.0), (0.0, "0.5", 0.0), (0.0, 0.0, b"1")])
    def test_log_sums_refuse_text(self, sums):
        # as float arithmetic on them does; numpy's float conversion would
        # parse the text
        with pytest.raises(TypeError):
            correlators_from_log_sums(*sums)

    def test_zero_intensity_raised_in_empty_regime(self):
        with pytest.raises(ZeroIntensity):
            steady_state_correlators(EnsembleParams(2, 0.0, 2000.0))

    def test_scale_invariance_of_g2(self):
        # multiplying every transition frequency by a constant cancels in g2
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_valid_params(rng, n_max=8)
            if p.n_atoms < 2:
                continue
            st, spec, c = tables(p.n_atoms, p.eta, p.x)
            base = g2_zero(st, spec, c).g2_norm
            for scale in (0.5, 3.0, 17.0):
                scaled = DickeSpectrum(
                    energies=spec.energies, frequencies=spec.frequencies * scale
                )
                assert g2_zero(st, scaled, c).g2_norm == pytest.approx(base, rel=1e-12)

    def test_deep_cold_regime_stays_finite(self):
        # populations underflow long before the log-domain ratio does
        res = steady_state_correlators(EnsembleParams(2, 0.1, 400.0))
        assert math.isfinite(res.g2_norm)
        assert res.g2_norm == pytest.approx(
            (1.1 / 0.9) ** 4 * math.exp(-2 * 0.1 * 400.0), rel=1e-9
        )


def live_widths(n, eta, xs):
    """The kernel's live widths of the rows at xs for one (N, eta)."""
    spectrum = build_spectrum(EnsembleParams(n, eta))
    gaps = spectrum.energies - spectrum.energies.min()
    return correlators._live_widths(gaps, spectrum.frequencies, np.asarray(xs, dtype=float))


class TestColdTailCut:
    """A cold row exponentiates only its live prefix; the bits of the sums
    are pinned against the full-row kernel in test_properties."""

    N = 100_000

    @pytest.mark.parametrize("eta", [-0.1, 0.0, 0.1])
    def test_live_prefix_is_short_in_a_cold_bath(self, eta):
        widths = live_widths(self.N, eta, [2.0, 10.0, 1e3, 1e308, 1e-3]).tolist()
        assert all(w < 0.01 * (self.N + 1) for w in widths[:4])
        assert widths[4] == self.N + 1

    def test_kernel_exponentiates_the_live_prefix_only(self, monkeypatch):
        widths = []
        logsumexp_rows = correlators.logsumexp_rows

        def recording(terms, length=None, **kwargs):
            widths.append((terms.shape[1], length))
            return logsumexp_rows(terms, length, **kwargs)

        monkeypatch.setattr(correlators, "logsumexp_rows", recording)
        correlators.ladder_log_sums(self.N, [2.0], [0.1])
        # S1 and S2 first, then Z on the very log weights they were built from
        assert [length for _, length in widths] == [self.N, self.N - 1, self.N + 1]
        assert all(width < 0.01 * self.N for width, _ in widths)
        widths.clear()
        correlators.ladder_log_sums(self.N, [1e-3], [0.1])
        assert widths == [(self.N,) * 2, (self.N - 1,) * 2, (self.N + 1,) * 2]


# the benchmark's large-N grid plus two more cut rows, x = 2 (444 live
# levels at N = 1e5) and x = 900 (3), so full and cut rows share a call
STALE_GRID = [*np.geomspace(1e-3, 1e3, 10).tolist(), 2.0, 900.0]


class TestWidthGroups:
    """Rows of very different live widths get blocks of their own, a
    sweep builds the N-only ladder logs once per N, and one call's blocks
    share its buffers."""

    N = 10_000

    @pytest.mark.parametrize("eta", [-0.1, 0.0, 0.1])
    def test_no_row_is_exponentiated_far_beyond_its_live_width(self, eta, monkeypatch):
        xs = np.geomspace(1e-3, 1e3, 10)
        spectrum = build_spectrum(EnsembleParams(self.N, eta))
        gaps = spectrum.energies - spectrum.energies.min()
        # a Z row -x*gaps[:width] is known by its level-1 term
        row_of = {v: i for i, v in enumerate((-xs * gaps[1]).tolist())}
        widths = {}
        logsumexp_rows = correlators.logsumexp_rows

        def recording(terms, length=None, **kwargs):
            if length == self.N + 1:
                for v in terms[:, 1].tolist():
                    widths[row_of[v]] = terms.shape[1]
            return logsumexp_rows(terms, length, **kwargs)

        monkeypatch.setattr(correlators, "logsumexp_rows", recording)
        correlators.ladder_log_sums(self.N, xs, [eta])
        assert sorted(widths) == list(range(xs.size))
        for i, own in enumerate(live_widths(self.N, eta, xs).tolist()):
            assert own <= widths[i] <= max(2 * own, 256)
        assert sum(widths.values()) <= 0.45 * xs.size * (self.N + 1)

    def test_sweep_builds_the_n_only_ladder_logs_once_per_n(self, monkeypatch):
        built = []
        c_logs = correlators._c_logs

        def recording(lowering, *args):
            built.append(lowering.size - 1)
            return c_logs(lowering, *args)

        monkeypatch.setattr(correlators, "_c_logs", recording)
        axes = ([20, 300], [-0.1, 0.0, 0.1], [0.01, 1.0, 30.0])
        rows = evaluate_rows(*axes, VALID_OUTPUTS)
        assert [row[:3] for row in rows] == list(itertools.product(*axes))
        assert built == [20, 300]

    def test_one_call_keys_every_eta_in_calls_order(self):
        xs = [1e-3, 2.0, 30.0]
        sums = correlators.ladder_log_sums(20, xs, [0.1, -0.1, 0.0])
        assert list(sums) == [0.1, -0.1, 0.0]
        for eta in sums:
            one = correlators.ladder_log_sums(20, xs, [eta])[eta]
            assert np.array(sums[eta]).tobytes() == np.array(one).tobytes()
            assert np.isfinite(sums[eta].log_s2).all()

    @pytest.mark.parametrize("kind", [list, tuple, lambda etas: (eta for eta in etas)],
                             ids=["list", "tuple", "generator"])
    @pytest.mark.parametrize("n", [20, 10_000])
    def test_a_repeated_eta_is_summed_once(self, kind, n):
        # keyed by each distinct eta in first-seen order, each row bitwise
        # that of its one-coupling call
        xs = [1e-3, 2.0, 30.0, 900.0]
        sums = correlators.ladder_log_sums(n, xs, kind([0.1, 0.0, 0.1]))
        assert list(sums) == [0.1, 0.0]
        for eta, rows in sums.items():
            one = correlators.ladder_log_sums(n, xs, [eta])[eta]
            assert np.array(rows).tobytes() == np.array(one).tobytes()

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_one_call_reuses_its_scratch_buffers(self, n, monkeypatch):
        # every array logsumexp_rows receives, the log weights, the S1/S2
        # terms and the zero padding, lies in the call's one workspace of
        # 3*size + 4*(N+1) values, and the padding, one slot that serves
        # the cut rows of every coupling, is all zero again on return
        xs = np.geomspace(1e-3, 1e3, 10)
        received, paddings = [], []
        logsumexp_rows = correlators.logsumexp_rows

        def recording(terms, length=None, zeros=None):
            received.append(terms)
            if zeros is not None:
                received.append(zeros)
                paddings.append(zeros)
            return logsumexp_rows(terms, length, zeros=zeros)

        monkeypatch.setattr(correlators, "logsumexp_rows", recording)
        correlators.ladder_log_sums(n, xs, [-0.1, 0.0, 0.1])
        size = max(n + 1, min(correlators._BLOCK_TERMS, xs.size * (n + 1)))
        (workspace,) = {id(a.base): a.base for a in received}.values()
        assert workspace.shape == (3 * size + 4 * (n + 1),)
        assert paddings and all(zeros is paddings[0] for zeros in paddings)
        assert not paddings[0].any()

    def test_one_call_allocates_its_workspace_and_little_else(self):
        # the tracemalloc peak of a benchmark-sized call: the workspace,
        # 6.05 MiB here, plus 64 KiB for everything O(len(xs))
        n, xs = 100_000, np.geomspace(1e-3, 1e3, 10)
        size = max(n + 1, min(correlators._BLOCK_TERMS, xs.size * (n + 1)))
        tracemalloc.start()
        try:
            correlators.ladder_log_sums(n, xs, [-0.1, 0.0, 0.1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * size + 4 * (n + 1)) + 64 * 1024

    @pytest.fixture(scope="class")
    def wanted_at_n_1e5(self):
        """Each coupling's rows on the stale-buffer grid: its one-coupling
        call and the full-row oracle."""
        return {
            eta: [
                np.array(correlators.ladder_log_sums(100_000, STALE_GRID, [eta])[eta]).tobytes(),
                np.array(full_row_ladder_log_sums(100_000, eta, STALE_GRID)).tobytes(),
            ]
            for eta in (-0.1, 0.0, 0.1)
        }

    @pytest.mark.parametrize("order", list(itertools.permutations([-0.1, 0.0, 0.1])))
    def test_no_coupling_reads_another_ones_scratch(self, order, wanted_at_n_1e5):
        # cut and full rows share each coupling's pass, and the buffers
        # pass from coupling to coupling in every order
        sums = correlators.ladder_log_sums(100_000, STALE_GRID, order)
        for eta in order:
            assert [np.array(sums[eta]).tobytes()] * 2 == wanted_at_n_1e5[eta], eta

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_kernel_refuses_a_nonpositive_or_nonfinite_x(self, x):
        with pytest.raises(NonPositiveX, match="x must be positive and finite"):
            correlators.ladder_log_sums(3, [1.0, x], [0.1])


class TestMatrixOracle:
    def test_indexed_sums_match_operator_products(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            p = random_valid_params(rng, n_max=6)
            st, spec, c = tables(p.n_atoms, p.eta, p.x)
            res = g2_zero(st, spec, c)
            g1_ref, g2_ref = matrix_correlators(p)
            assert res.g1 == pytest.approx(g1_ref, rel=1e-12)
            if g2_ref == 0.0:
                assert res.g2_raw == 0.0
            else:
                assert res.g2_raw == pytest.approx(g2_ref, rel=1e-12)

    def test_result_fields_are_consistent(self):
        # g2_norm is exactly the normalized ratio whenever g1 > 0
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_valid_params(rng, n_max=8)
            res = steady_state_correlators(p)
            assert res.g1 > 0.0
            assert res.g2_raw >= 0.0
            assert res.g2_norm == pytest.approx(res.g2_raw / res.g1**2, rel=1e-12)


class TestLimitAgreement:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 35, 50])
    def test_strong_bath_limit_up_to_fifty(self, n):
        exact = steady_state_correlators(EnsembleParams(n, 0.0, 1e-6)).g2_norm
        limit = 6.0 * (n + 3) * (n - 1) / (5.0 * n * (n + 2))
        assert exact == pytest.approx(limit, abs=1e-4)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_weak_bath_limit(self, n):
        exact = steady_state_correlators(EnsembleParams(n, 0.0, 30.0)).g2_norm
        assert exact == pytest.approx(2.0 - 2.0 / n, abs=1e-3)


def log_g1_sums(log_g1):
    """Ladder log sums with log Z = 0 and the given log G1 = log S1."""
    log_s1 = np.array(log_g1)
    return LadderLogSums(np.zeros_like(log_s1), log_s1, np.zeros_like(log_s1))


class TestIntensityRatio:
    def test_frozen_values(self):
        assert intensity_ratio(EnsembleParams(2, 0.1, 1e-6)) == pytest.approx(
            RATIO_2_01_1E6, rel=1e-12
        )
        assert intensity_ratio(EnsembleParams(2, 0.1, 1.0)) == pytest.approx(
            RATIO_2_01_1, rel=1e-12
        )
        assert intensity_ratio(EnsembleParams(2, 0.1, 10.0)) == pytest.approx(
            RATIO_2_01_10, rel=1e-12
        )
        assert intensity_ratio(EnsembleParams(3, 0.1, 1e-6)) == pytest.approx(
            RATIO_3_01_1E6, rel=1e-12
        )

    def test_suppress_then_enhance_pattern(self):
        # >1 for hot baths, <1 at moderate x, >1 again for cold baths
        assert intensity_ratio(EnsembleParams(2, 0.1, 1e-6)) > 1.0
        assert intensity_ratio(EnsembleParams(2, 0.1, 1.0)) < 1.0
        assert intensity_ratio(EnsembleParams(2, 0.1, 10.0)) > 1.0

    def test_requires_coupling(self):
        with pytest.raises(ValueError):
            intensity_ratio(EnsembleParams(2, 0.0, 1.0))

    def test_propagates_zero_intensity(self):
        with pytest.raises(ZeroIntensity):
            intensity_ratio(EnsembleParams(2, 0.1, 2000.0))

    def test_finite_up_to_the_double_limit(self):
        # exp overflows only above log(DBL_MAX) = 709.78
        ref = _column(log_g1_sums([0.0, 0.0]))
        assert _column(log_g1_sums([709.5, 710.0]), ref).ratio == [math.exp(709.5), math.inf]
        assert correlators_from_log_sums(0.0, 0.0, 709.5).g2_norm == math.exp(709.5)

    @pytest.mark.parametrize("log_g1, log_g1_ref", [(-800.0, 0.0), (0.0, -800.0), (-800.0, -800.0)])
    def test_underflow_on_either_side(self, log_g1, log_g1_ref):
        # the sweep's NA cell and _ratio_at share one column step; the error
        # names the eta side if it underflowed, else the eta = 0 reference
        cells = _column(log_g1_sums([log_g1]), _column(log_g1_sums([log_g1_ref])))
        assert cells.ratio == [None]
        side = 0.1 if log_g1 == -800.0 else 0.0
        with pytest.raises(ZeroIntensity, match=re.escape(f"eta={side}, x=10.0")):
            _ratio_at(EnsembleParams(2, 0.1, 10.0), cells, 0)


class TestSignFlip:
    # at x = 30, eta = 0.1 the sub-Poissonian window closes at N = 10: the
    # coupling threshold crosses 0.1 between N = 9 and N = 10
    @pytest.mark.parametrize("n", range(2, 10))
    def test_positive_coupling_subpoissonian_up_to_nine(self, n):
        res = steady_state_correlators(EnsembleParams(n, 0.1, 30.0))
        assert res.g2_norm < 1.0
        assert res.classification is PhotonStatistics.SUB_POISSONIAN

    @pytest.mark.parametrize("n", range(2, 11))
    def test_negative_coupling_superpoissonian(self, n):
        res = steady_state_correlators(EnsembleParams(n, -0.1, 30.0))
        assert res.g2_norm > 1.0
        assert res.classification is PhotonStatistics.SUPER_POISSONIAN

    def test_window_closes_at_ten(self):
        from dicke_therm import g2_weak_bath

        res = steady_state_correlators(EnsembleParams(10, 0.1, 30.0))
        assert res.g2_norm > 1.0
        assert res.g2_norm == pytest.approx(g2_weak_bath(10, 0.1, 30.0), rel=1e-9)


class TestClassification:
    def test_verdicts(self):
        assert classify_statistics(0.75) is PhotonStatistics.SUB_POISSONIAN
        assert classify_statistics(1.0) is PhotonStatistics.POISSONIAN
        assert classify_statistics(1.0 + 5e-10) is PhotonStatistics.POISSONIAN
        assert classify_statistics(2 - 2 / 3) is PhotonStatistics.SUPER_POISSONIAN

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_statistics(-0.1)
        with pytest.raises(ValueError):
            classify_statistics(float("nan"))
