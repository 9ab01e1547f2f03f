"""Master-equation right-hand side, integration, and diagnostics."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dicke_therm import (
    DimensionMismatch,
    EnsembleParams,
    EtaOutOfRange,
    IntegrationError,
    NonFiniteState,
    StepControl,
    StepTooLarge,
    ThermalLiouvillian,
    build_spectrum,
    default_step,
    initial_state,
    integrate,
    ladder_log_sums,
    steady_state_residual,
    thermal_state,
    trace_distance,
)
from dicke_therm import dynamics
from dicke_therm.dynamics import INITIAL_STATE_KINDS
from helpers import (
    RK4_EDGE,
    all_band_step_verdict,
    band0_step_limit,
    dense_band,
    dense_check_step,
    dense_coefficient_apply,
    dense_eigenvalues,
    dense_liouvillian_apply,
    dicke_limit_liouvillian,
    guard_accepts,
    mp_interval_map,
    mp_trajectory,
    per_sample_band_history,
    plain_power_increment,
    rk4_trajectory,
)


def count_maps(monkeypatch):
    """Record the step count of every band map `integrate` builds."""
    calls = []
    power_increment = dynamics._power_increment

    def counting(e, steps):
        calls.append(steps)
        return power_increment(e, steps)

    monkeypatch.setattr(dynamics, "_power_increment", counting)
    return calls


def count_interval_maps(monkeypatch):
    """Record the span of every exact interval map `integrate` builds."""
    spans = []
    interval_map = dynamics._interval_map
    monkeypatch.setattr(dynamics, "_interval_map",
                        lambda diagonals, span: spans.append(span) or interval_map(diagonals, span))
    return spans


def count_increments(monkeypatch):
    """Record the size of every RK4 increment `integrate` builds."""
    sizes = []
    rk4_increment = dynamics._rk4_increment
    monkeypatch.setattr(dynamics, "_rk4_increment",
                        lambda a, h: sizes.append(len(a)) or rk4_increment(a, h))
    return sizes


def random_diagonal_start(rng, dim):
    """A diagonal start: uniform random weights on every level, unit trace."""
    p = rng.uniform(size=dim)
    return np.diag(p / p.sum()).astype(complex)


def random_hermitian_unit_trace(rng, dim):
    # positive construction keeps entries O(1) after trace normalization
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


class TestBathRates:
    """The rates read off the population generator A = band():
    A[n, n+1] = Gamma(1+nbar)*l_{n+1}^2 feeds level n from n+1 and
    A[n+1, n] = Gamma*nbar*l_{n+1}^2 the reverse, at omega_n.  For N = 1,
    l_1 = 1 and omega_0 = 1."""

    def test_cubic_decay(self):
        # a cold bath (nbar ~ 1e-22) leaves the bare decay rate downward
        a = ThermalLiouvillian(EnsembleParams(1, 0.0, 50.0)).band()
        assert a[0, 1] == 1.0
        # N = 2, eta = 0.5: omega_0 = 0.5, omega_1 = 1.5 and l_1^2 = l_2^2 = 2
        a = ThermalLiouvillian(EnsembleParams(2, 0.5, 200.0)).band()
        assert a[1, 2] == pytest.approx(2 * 1.5**3, rel=1e-15)
        assert a[1, 2] / a[0, 1] == pytest.approx(27.0, rel=1e-15)

    def test_occupation_small_argument(self):
        # expm1 keeps nbar accurate where exp(x*w) - 1 would cancel
        a = ThermalLiouvillian(EnsembleParams(1, 0.0, 1e-8)).band()
        assert a[1, 0] == pytest.approx(1e8 - 0.5, rel=1e-6)

    def test_cold_bath_occupation_is_zero_without_warning(self):
        # expm1(x*omega) overflows above x*omega ~ 709.78; the suite turns
        # the RuntimeWarning numpy would print into an error
        params = EnsembleParams(2, 0.1, 800.0)
        assert ThermalLiouvillian(params).band()[1, 0] == 0.0
        assert steady_state_residual(params) < 1e-15
        traj = integrate(initial_state(params, "inverted"), 1.0, params,
                         ctrl=StepControl(h=0.01), n_samples=3)
        assert np.all(np.isfinite(traj.populations))

    @pytest.mark.parametrize("x", [1e-200, 1e-300])
    def test_hot_bath_relaxes_to_the_gibbs_state(self, x):
        # the stability check's sqrt(down * up) would overflow here; the
        # product of the two square roots does not
        for n in (2, 5):
            params = EnsembleParams(n, 0.0, x)
            traj = integrate(initial_state(params, "inverted"), 1.0, params, n_samples=3)
            assert traj.trace_dist_to_gibbs[-1] <= 1e-15

    @pytest.mark.parametrize("x", [2e-308, 1e-308, 1e-320])
    def test_overflowing_rates_are_refused_before_any_step(self, monkeypatch, x):
        # at 2e-308 the rates r_n are finite, but band 0's 2 r_n are not
        maps = count_maps(monkeypatch)
        params = EnsembleParams(2, 0.0, x)
        with pytest.raises(ValueError, match=f"rates at x={x:g} overflow"):
            integrate(initial_state(params, "inverted"), 1.0, params,
                      ctrl=StepControl(h=1e-300), n_samples=3)
        assert maps == []

    def test_default_step_rounding_to_zero_is_refused(self):
        # the rates carry omega_0^3 = 1/8 and stay finite; nbar_max * N^2 does not
        params = EnsembleParams(2, 0.5, 3e-308)
        ThermalLiouvillian(params)
        with pytest.raises(ValueError, match="default step at x=3e-308 rounds to 0"):
            default_step(params)

    @pytest.mark.parametrize("n, eta, x", [(2, 0.0, 1e-306), (2, 0.5, 3e-308)])
    def test_hot_bath_without_a_step_ends_at_the_gibbs_state(self, n, eta, x):
        # no step to round to 0 or to count past the float range: the
        # exact map runs where the default RK4 step was refused
        params = EnsembleParams(n, eta, x)
        for kind in ("inverted", "ground"):
            traj = integrate(initial_state(params, kind), 1.0, params, n_samples=3)
            assert traj.trace_dist_to_gibbs[1:].max() <= 1e-15, kind

    def test_occupation_decreases_with_x(self):
        values = [
            ThermalLiouvillian(EnsembleParams(1, 0.0, x)).band()[1, 0]
            for x in (0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLiouvillian:
    @pytest.mark.parametrize(
        "n,eta,x", [(2, 0.1, 10.0), (7, 0.1, 1.0), (7, -0.1, 0.1), (1, 0.0, 2.0)]
    )
    def test_gibbs_state_is_stationary(self, n, eta, x):
        assert steady_state_residual(EnsembleParams(n, eta, x)) <= 1e-12

    @pytest.mark.parametrize(
        "n,eta,x",
        [(1, 0.0, 2.0), (2, 0.1, 10.0), (7, -0.1, 0.1), (30, 0.5, 1e-3), (60, -0.9, 3.0)],
    )
    def test_residual_is_the_dense_apply_of_the_gibbs_state(self, n, eta, x):
        params = EnsembleParams(n, eta, x)
        gibbs = np.diag(thermal_state(params).populations).astype(complex)
        dense = np.max(np.abs(ThermalLiouvillian(params).apply(gibbs)))
        assert steady_state_residual(params) == dense

    @pytest.mark.parametrize("eta", [-0.1, 0.0, 0.1])
    @pytest.mark.parametrize("x", [1e-3, 1.0, 1e3])
    def test_residual_at_n_1e5_is_rounding_of_the_largest_rate(self, eta, x):
        # the dense (N+1)^2 arrays would take about 700 GB here
        params = EnsembleParams(100_000, eta, x)
        start = time.perf_counter()
        residual = steady_state_residual(params)
        assert time.perf_counter() - start < 1.0
        # each entry sums three products of at most max|2 r_n| * p_n
        r = ThermalLiouvillian(params)._r
        assert residual <= 8 * np.finfo(float).eps * np.max(np.abs(2.0 * r))

    def test_dicke_limit_gibbs_stationary(self):
        params = EnsembleParams(3, 0.0, 0.5)
        gibbs = np.diag(thermal_state(params).populations).astype(complex)
        assert np.max(np.abs(dicke_limit_liouvillian(gibbs, params))) <= 1e-12

    def test_single_atom_rate_equations(self):
        # dp_e/dt = -(1+nbar)*p_e + nbar*p_g and the opposite for p_g
        params = EnsembleParams(1, 0.0, 1.3)
        nbar = 1.0 / math.expm1(1.3)
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = ThermalLiouvillian(params).apply(rho)
        assert out[1, 1].real == pytest.approx(-(1 + nbar) * 0.7 + nbar * 0.3, rel=1e-12)
        assert out[0, 0].real == pytest.approx((1 + nbar) * 0.7 - nbar * 0.3, rel=1e-12)
        assert abs(np.trace(out)) < 1e-16

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            params = EnsembleParams(n, 0.1 if n > 1 else 0.0, 0.7)
            liou = ThermalLiouvillian(params)
            for _ in range(10):
                rho = random_hermitian_unit_trace(rng, n + 1)
                out = liou.apply(rho)
                norm = np.linalg.norm(out)
                assert abs(np.trace(out)) <= 1e-14 * norm
                assert np.max(np.abs(out - out.conj().T)) <= 1e-13 * norm

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for n in range(1, 11):
            params = EnsembleParams(n, -0.2 if n > 1 else 0.0, 0.3)
            liou = ThermalLiouvillian(params)
            for _ in range(5):
                rho = random_hermitian_unit_trace(rng, n + 1)
                ref = dense_liouvillian_apply(rho, params)
                assert np.max(np.abs(liou.apply(rho) - ref)) <= 1e-13 * np.linalg.norm(ref)

    def test_matches_dicke_limit_at_zero_coupling(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 9):
            params = EnsembleParams(n, 0.0, 1.4)
            for _ in range(5):
                rho = random_hermitian_unit_trace(rng, n + 1)
                a = ThermalLiouvillian(params).apply(rho)
                b = dicke_limit_liouvillian(rho, params)
                assert np.max(np.abs(a - b)) <= 1e-13

    def test_continuity_in_eta(self):
        rng = np.random.default_rng(9)
        rho = random_hermitian_unit_trace(rng, 3)
        a = ThermalLiouvillian(EnsembleParams(2, 1e-14, 1.0)).apply(rho)
        b = dicke_limit_liouvillian(rho, EnsembleParams(2, 0.0, 1.0))
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_inverted_state_decays_when_cold(self):
        params = EnsembleParams(3, 0.0, 40.0)
        rho = initial_state(params, "inverted")
        out = dicke_limit_liouvillian(rho, params)
        sz = np.diag(np.arange(4) - 1.5)
        assert np.trace(sz @ out).real < 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ThermalLiouvillian(EnsembleParams(2, 0.0, 1.0)).apply(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DimensionMismatch):
            dicke_limit_liouvillian(np.eye(4, dtype=complex) / 4, EnsembleParams(2, 0.0, 1.0))


def window_edge_etas(n):
    """The admissible couplings closest to either end of the window."""
    etas = []
    for eta in (-(n - 1) / (n + 1), 1.0):
        while True:
            eta = math.nextafter(eta, 0.0)
            try:
                EnsembleParams(n, eta)
            except EtaOutOfRange:
                continue
            etas.append(eta)
            break
    return etas


class TestDenseOracle:
    """Band 0 and apply from the O(N) vectors equal, bit for bit, those of
    the dense (N+1)^2 coefficient arrays they replace."""

    @pytest.mark.parametrize("edge", [0, 1])
    @pytest.mark.parametrize("x", [1e-3, 1.0, 800.0])
    def test_every_band_at_the_window_edges(self, edge, x):
        # band 0 is the one band the generator builds; bytes, not values,
        # so a signed zero counts: in a cold bath at N = 1 the loss of the
        # ground level is -0.0 and only the sum of the diagonals makes it +0.0
        for n in range(1, 51):
            eta = window_edge_etas(n)[edge] if n > 1 else 0.0
            params = EnsembleParams(n, eta, x)
            got = ThermalLiouvillian(params).band()
            assert got.tobytes() == dense_band(params, 0).tobytes(), (n, eta, x)

    def test_apply_on_random_hermitian_states(self):
        rng = np.random.default_rng(14)
        for n in range(1, 21):
            for eta in ([0.0] if n == 1 else [*window_edge_etas(n), 0.2]):
                params = EnsembleParams(n, eta, float(rng.uniform(0.1, 5.0)))
                rho = random_hermitian_unit_trace(rng, n + 1)
                got = ThermalLiouvillian(params).apply(rho)
                assert np.array_equal(got, dense_coefficient_apply(rho, params)), (n, eta)

    def test_band_memory_is_linear_in_n(self):
        # the dense arrays peaked at 122 MB here
        tracemalloc.start()
        try:
            ThermalLiouvillian(EnsembleParams(2000, 0.1, 1.0))._band_diagonals()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_ladder_kernel_memory_at_n_1e5():
    # 7.96 MB: the call's rows, terms and padding buffers and the O(N)
    # arrays of one coupling; 8.26 MB with arrays of each block's own
    tracemalloc.start()
    try:
        ladder_log_sums(100_000, np.geomspace(1e-3, 1e3, 10), [-0.1, 0.0, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000


class TestInitialStates:
    def test_kinds(self):
        params = EnsembleParams(2, 0.1, 10.0)
        assert initial_state(params, "ground")[0, 0] == 1.0
        assert initial_state(params, "inverted")[2, 2] == 1.0
        assert_allclose(np.diag(initial_state(params, "equal")).real, [1 / 3] * 3)
        assert_allclose(
            np.diag(initial_state(params, "gibbs")).real,
            thermal_state(params).populations,
            rtol=1e-15,
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            initial_state(EnsembleParams(2, 0.0, 1.0), "cat")


class TestIntegration:
    def test_gibbs_start_stays_put(self):
        params = EnsembleParams(2, 0.1, 10.0)
        traj = integrate(
            initial_state(params, "gibbs"),
            100.0,
            params,
            ctrl=StepControl(h=0.01),
            n_samples=11,
        )
        assert np.all(traj.trace_dist_to_gibbs <= 1e-10)
        assert np.all(traj.trace_drift <= 1e-12)

    def test_inverted_state_relaxes_to_gibbs(self):
        params = EnsembleParams(2, 0.1, 10.0)
        traj = integrate(
            initial_state(params, "inverted"),
            200.0,
            params,
            ctrl=StepControl(h=0.01),
            n_samples=21,
        )
        assert traj.final_trace_distance <= 1e-8
        assert np.all(np.isfinite(traj.min_eigenvalue))
        # monotone approach to equilibrium for this relaxation
        dists = traj.trace_dist_to_gibbs
        assert dists[0] > dists[-1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_long_time_populations_obey_detailed_balance(self, n):
        params = EnsembleParams(n, 0.1, 1.0)
        traj = integrate(
            initial_state(params, "equal"),
            60.0,
            params,
            ctrl=StepControl(h=0.01),
            n_samples=7,
        )
        pops = np.diag(traj.states[-1]).real
        gaps = np.diff(build_spectrum(params).energies)
        for k in range(n):
            ratio = pops[k + 1] / pops[k]
            assert ratio == pytest.approx(math.exp(-params.x * gaps[k]), abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_step_by_step_dense_rk4(self, n):
        # a random population vector puts weight on every level
        rng = np.random.default_rng(40 + n)
        params = EnsembleParams(n, 0.15 if n > 1 else 0.0, 2.0)
        rho0 = random_diagonal_start(rng, n + 1)
        traj = integrate(rho0, 1.0, params, ctrl=StepControl(h=0.013), n_samples=7)
        ref = rk4_trajectory(rho0, 1.0, params, 0.013, 7)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12
        assert np.all(traj.herm_defect[1:] == 0.0)

    def test_large_cold_ensemble_stays_finite(self):
        # the regime where a sqrt(population) similarity transform underflows
        params = EnsembleParams(200, 0.0, 50.0)
        traj = integrate(
            initial_state(params, "inverted"),
            0.01,
            params,
            ctrl=StepControl(h=1e-4),
            n_samples=3,
        )
        assert np.all(np.isfinite(traj.states))
        assert np.all(traj.trace_drift <= 1e-12)

    def test_unstable_step_is_refused_before_stepping(self):
        # h = 0.35 lies outside the RK4 stability interval of the fastest
        # mode, yet the trace stays put: stepping on would return a
        # trajectory with min_eig near -400 and no error
        params = EnsembleParams(5, 0.1, 10.0)
        with pytest.raises(StepTooLarge):
            integrate(
                initial_state(params, "inverted"),
                3.5,
                params,
                ctrl=StepControl(h=0.35),
                n_samples=11,
            )

    def test_tiny_default_step_completes(self):
        # a hot bath whose default RK4 step would be 4e-7; the default path
        # takes no step, and its squarings grow with log(max|A_0| t_end)
        params = EnsembleParams(5, 0.0, 1e-3)
        traj = integrate(initial_state(params, "inverted"), 10.0, params, n_samples=201)
        assert traj.final_trace_distance <= 1e-8

    @pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
    def test_diagonal_start_builds_one_map(self, monkeypatch, kind):
        # the linspace sample spans differ in their last bits; all intervals
        # must still share one (h, steps) pair, so one map is built
        calls = count_maps(monkeypatch)
        params = EnsembleParams(20, 0.1, 1.0)
        integrate(initial_state(params, kind), 0.2, params,
                  ctrl=StepControl(h=default_step(params)), n_samples=201)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
    def test_diagonal_start_builds_one_interval_map(self, monkeypatch, kind):
        # without a step: one exact map of the whole interval, and no RK4
        spans = count_interval_maps(monkeypatch)
        steps = count_maps(monkeypatch)
        params = EnsembleParams(20, 0.1, 1.0)
        integrate(initial_state(params, kind), 0.2, params, n_samples=201)
        assert spans == [0.2 / 200]
        assert steps == []
        integrate(initial_state(params, kind), 0.2, params,
                  ctrl=StepControl(h=default_step(params)), n_samples=201)
        assert spans == [0.2 / 200]

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -0.01])
    def test_rejects_bad_step(self, h):
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="step"):
            integrate(initial_state(params, "ground"), 1.0, params,
                      ctrl=StepControl(h=h), n_samples=3)

    def test_default_step_heuristic(self):
        params = EnsembleParams(2, 0.1, 10.0)
        nbar_max = float(np.max(1.0 / np.expm1(params.x * build_spectrum(params).frequencies)))
        assert default_step(params) == pytest.approx(
            0.01 / (4 * (1 + nbar_max)), rel=1e-12
        )

    def test_default_step_used_when_ctrl_omits_h(self):
        params = EnsembleParams(2, 0.1, 10.0)
        traj = integrate(initial_state(params, "gibbs"), 0.1, params, n_samples=3)
        assert traj.times[-1] == pytest.approx(0.1)

    def test_unstable_step_raises(self):
        params = EnsembleParams(3, 0.1, 1.0)
        with pytest.raises(IntegrationError):
            integrate(
                initial_state(params, "inverted"),
                10.0,
                params,
                ctrl=StepControl(h=1000.0),
                n_samples=3,
            )

    def test_nonfinite_initial_state(self):
        params = EnsembleParams(2, 0.0, 1.0)
        bad = initial_state(params, "ground")
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteState):
            integrate(bad, 1.0, params, n_samples=3)

    def test_invalid_initial_states(self):
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(DimensionMismatch):
            integrate(np.eye(5, dtype=complex) / 5, 1.0, params, n_samples=3)
        skew = initial_state(params, "equal")
        skew[0, 1] = 0.5  # not hermitian
        with pytest.raises(ValueError):
            integrate(skew, 1.0, params, n_samples=3)
        off = 2.0 * initial_state(params, "equal")  # trace 2
        with pytest.raises(ValueError):
            integrate(off, 1.0, params, n_samples=3)

    @pytest.mark.parametrize("i, j, c", [(0, 1, 1e-3 + 1e-3j), (2, 4, -1e-3), (0, 5, 1e-3j),
                                         (3, 4, 1e-300)])
    def test_coherent_start_is_refused_before_any_map(self, monkeypatch, i, j, c):
        # one hermitian coherence, however small, would need -i[H, rho]
        sizes = count_increments(monkeypatch)
        spans = count_interval_maps(monkeypatch)
        params = EnsembleParams(5, 0.1, 1.0)
        rho0 = initial_state(params, "equal")
        rho0[i, j], rho0[j, i] = c, np.conj(c)
        with pytest.raises(ValueError, match=r"coherences: .* -i\[H, rho\]"):
            integrate(rho0, 0.2, params, n_samples=11)
        with pytest.raises(ValueError, match=r"coherences: .* -i\[H, rho\]"):
            integrate(rho0, 0.2, params, ctrl=StepControl(h=0.01), n_samples=11)
        assert sizes == spans == []

    def test_atom_cap(self):
        params = EnsembleParams(300, 0.0, 1.0)
        with pytest.raises(ValueError, match="capped"):
            initial_state(params, "ground")
        rho0 = np.zeros((301, 301), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(ValueError, match="capped"):
            integrate(rho0, 1.0, params, n_samples=3)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="t_end"):
            integrate(initial_state(params, "ground"), t_end, params, n_samples=3)

    def test_rejects_a_single_sample(self):
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="^need at least 2 samples, got 1$"):
            integrate(initial_state(params, "ground"), 1.0, params, n_samples=1)

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, "5", None, np.float64(4.0)],
                             ids=["2.5", "3.0", "text", "None", "float64"])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, monkeypatch, n_samples):
        # refused before the Liouvillian is built, as numpy would refuse it
        # later with a bare TypeError
        built = []
        monkeypatch.setattr(dynamics, "ThermalLiouvillian", lambda p: built.append(p))
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="^n_samples must be an integer, got "):
            integrate(initial_state(params, "ground"), 1.0, params, n_samples=n_samples)
        assert built == []

    @pytest.mark.parametrize("t_end", ["1", b"1", bytearray(b"1")],
                             ids=["str", "bytes", "bytearray"])
    def test_rejects_a_text_t_end(self, monkeypatch, t_end):
        built = []
        monkeypatch.setattr(dynamics, "ThermalLiouvillian", lambda p: built.append(p))
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="^t_end must be a number, got "):
            integrate(initial_state(params, "ground"), t_end, params, n_samples=3)
        assert built == []

    @pytest.mark.parametrize("t_end, h, message", [
        (1.0, "0.1", "step must be a number"),
        (1.0, 2 + 0j, "step must be a number"),
        (1.0, np.complex128(0.1), "step must be a number"),
        (1.0, b"1", "step must be a number"),
        (1.0, math.nan, "step must be positive and finite"),
        (1.0, -0.01, "step must be positive and finite"),
        (2 + 0j, None, "t_end must be a number"),
    ], ids=["str", "complex", "complex128", "bytes", "nan", "negative", "complex-t_end"])
    def test_rejects_a_text_complex_or_nonpositive_step_before_building(
        self, monkeypatch, t_end, h, message
    ):
        # the step is checked where t_end is; a text or complex one would
        # reach the comparison with 0.0 and raise a bare TypeError
        built = []
        monkeypatch.setattr(dynamics, "ThermalLiouvillian", lambda p: built.append(p))
        params = EnsembleParams(2, 0.0, 1.0)
        with pytest.raises(ValueError, match=f"^{message}, got "):
            integrate(initial_state(params, "ground"), t_end, params, ctrl=StepControl(h=h),
                      n_samples=3)
        assert built == []

    @pytest.mark.parametrize("n_samples", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_sample_counts_run_as_ints(self, n_samples):
        params = EnsembleParams(2, 0.1, 1.0)
        rho0 = initial_state(params, "inverted")
        got = integrate(rho0, 1.0, params, n_samples=n_samples)
        want = integrate(rho0, 1.0, params, n_samples=5)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.populations.tobytes() == want.populations.tobytes()

    @pytest.mark.parametrize("t_end, h, n_samples", [(1e308, 1e-3, 2), (1.0, 1e-320, 3)])
    def test_rejects_a_step_count_beyond_the_float_range(self, monkeypatch, t_end, h, n_samples):
        # span/h overflows to inf, which has no whole step count
        built = []
        diagonals = dynamics.ThermalLiouvillian._band_diagonals
        monkeypatch.setattr(dynamics.ThermalLiouvillian, "_band_diagonals",
                            lambda self: built.append(self) or diagonals(self))
        params = EnsembleParams(2, 0.1, 1.0)
        with pytest.raises(ValueError, match="steps"):
            integrate(initial_state(params, "inverted"), t_end, params,
                      ctrl=StepControl(h=h), n_samples=n_samples)
        assert built == []

    @pytest.mark.parametrize("n", [2, 20])
    @pytest.mark.parametrize("t_end", [1e308, np.finfo(float).max])
    def test_a_span_past_the_float_range_of_its_rates_ends_at_the_gibbs_state(self, n, t_end):
        # max|A_0| * span overflows a float, so the default path bounds it
        # by the two binary exponents; it counts no steps
        params = EnsembleParams(n, 0.1, 1.0)
        for kind in ("inverted", "ground"):
            traj = integrate(initial_state(params, kind), t_end, params, n_samples=2)
            assert traj.trace_dist_to_gibbs[-1] <= 1e-12, kind
            assert abs(traj.populations[-1].sum() - 1.0) <= 1e-13, kind

    def test_a_span_that_rounds_to_0_maps_to_the_start(self):
        # t_end = 5e-324 over two intervals: each span rounds to 0
        params = EnsembleParams(2, 0.1, 1.0)
        rho0 = initial_state(params, "equal")
        traj = integrate(rho0, 5e-324, params, n_samples=3)
        assert np.array_equal(traj.populations, np.tile(np.diagonal(rho0).real, (3, 1)))

    def test_nested_list_start_runs_as_its_array(self):
        params = EnsembleParams(3, 0.1, 1.0)
        rho0 = random_diagonal_start(np.random.default_rng(6), 4)
        from_list = integrate(rho0.tolist(), 1.0, params, n_samples=5)
        from_array = integrate(rho0, 1.0, params, n_samples=5)
        for name in ("rho0", "populations", "states", "trace_drift", "herm_defect",
                     "min_eigenvalue", "trace_dist_to_gibbs"):
            assert np.array_equal(getattr(from_list, name), getattr(from_array, name)), name
        with pytest.raises(DimensionMismatch):
            integrate((np.eye(5) / 5).tolist(), 1.0, params, n_samples=3)

    def test_trace_distance_basics(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, a) == 0.0
        assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-15)
        assert type(trace_distance(a, b)) is float

    def test_trace_distance_of_a_stack_is_the_per_matrix_distance(self):
        rng = np.random.default_rng(11)
        stack = np.array([random_hermitian_unit_trace(rng, 4) for _ in range(5)])
        b = random_hermitian_unit_trace(rng, 4)
        got = trace_distance(stack, b)
        assert got.shape == (5,)
        assert all(got[i] == trace_distance(a, b) for i, a in enumerate(stack))


class TestPopulationOnly:
    """A diagonal start advances the populations alone; its diagnostics come
    from the populations and `states` is assembled on request."""

    CASES = [(n, kind) for n in range(1, 11) for kind in INITIAL_STATE_KINDS]

    @staticmethod
    def _run(rho0, params):
        return integrate(rho0, 2.0, params, n_samples=11)

    @pytest.mark.parametrize("n,kind", CASES)
    def test_diagnostics_match_dense_formulas(self, n, kind):
        params = EnsembleParams(n, 0.1 if n > 1 else 0.0, 1.0)
        rho0 = initial_state(params, kind)
        traj = self._run(rho0, params)
        states = traj.states
        gibbs = np.diag(thermal_state(params).populations).astype(complex)
        assert states.shape == (11, n + 1, n + 1)
        assert np.array_equal(states[0], rho0)
        assert np.array_equal(states, np.array([np.diag(p) for p in traj.populations]))
        for i, rho in enumerate(states):
            assert traj.min_eigenvalue[i] == np.min(np.linalg.eigvalsh(rho))
            assert abs(traj.trace_dist_to_gibbs[i] - trace_distance(rho, gibbs)) <= 1e-15
            assert traj.trace_drift[i] == pytest.approx(abs(np.trace(rho).real - 1.0),
                                                        abs=1e-15)
            assert traj.herm_defect[i] == 0.0

    @pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 200])
    def test_first_sample_diagnostics_match_dense_formulas(self, n, kind):
        lower = -(n - 1) / (n + 1)
        for eta in ([0.0] if n == 1 else [0.9 * lower, 0.0, 0.5]):
            for x in (1e-2, 1.0, 100.0):
                params = EnsembleParams(n, eta, x)
                rho0 = initial_state(params, kind)
                traj = integrate(rho0, 1e-3, params, n_samples=2)
                gibbs = np.diag(thermal_state(params).populations).astype(complex)
                assert traj.min_eigenvalue[0] == np.min(np.linalg.eigvalsh(rho0))
                assert abs(traj.trace_dist_to_gibbs[0] - trace_distance(rho0, gibbs)) <= 1e-15
                assert traj.herm_defect[0] == 0.0

    def test_first_sample_herm_defect_of_an_anti_hermitian_pair(self):
        # the pair cancels in the hermitian part, so the start is diagonal,
        # yet rho0 itself is not hermitian
        params = EnsembleParams(5, 0.1, 1.0)
        rho0 = initial_state(params, "equal")
        rho0[0, 1], rho0[1, 0] = 1e-13, -1e-13
        traj = self._run(rho0, params)
        assert traj.herm_defect[0] == np.max(np.abs(rho0 - rho0.conj().T)) == 2e-13
        assert np.all(traj.herm_defect[1:] == 0.0)

    @pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
    def test_diagonal_start_skips_the_dense_diagnostics(self, monkeypatch, kind):
        calls = []
        trace_dist, eigvalsh = dynamics.trace_distance, np.linalg.eigvalsh
        monkeypatch.setattr(dynamics, "trace_distance", lambda *a: calls.append(
            ("trace_distance", a[0].shape)) or trace_dist(*a))
        # the step guard's band spectra are 2-D: record the stacked calls only
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (
            a.ndim == 3 and calls.append(("eigvalsh", a.shape))) or eigvalsh(a))
        params = EnsembleParams(5, 0.1, 1.0)
        traj = self._run(initial_state(params, kind), params)
        assert calls == []
        assert "states" not in vars(traj)

    def test_real_read_only_start_is_left_as_given(self):
        # a real start, off hermitian within the tolerance by a pair that
        # cancels in its hermitian part, runs as its complex copy and is
        # never written
        params = EnsembleParams(5, 0.1, 1.0)
        rho0 = random_diagonal_start(np.random.default_rng(4), 6).real
        rho0[0, 1], rho0[1, 0] = 2.5e-13, -2.5e-13
        given = rho0.copy()
        rho0.flags.writeable = False
        traj = self._run(rho0, params)
        assert np.array_equal(rho0, given)
        assert traj.herm_defect[0] == np.max(np.abs(given - given.T)) > 0.0
        as_complex = self._run(given.astype(complex), params)
        for name in ("populations", "states", "trace_drift", "herm_defect", "min_eigenvalue",
                     "trace_dist_to_gibbs"):
            assert np.array_equal(getattr(traj, name), getattr(as_complex, name)), name


def refusal(check_step, generator, h):
    """The StepTooLarge message of a step guard, None where it accepts h."""
    try:
        check_step(generator, h)
    except StepTooLarge as err:
        return str(err)
    return None


# N x 6 couplings across the admissible window x 5 baths from 1e-3 to 100
GUARD_N = (2, 3, 5, 10, 30, 60)


def guard_grid(n):
    lower = -(n - 1) / (n + 1)
    etas = (0.99 * lower, 0.5 * lower, 0.0, 0.1, 0.5, 0.99)
    return [EnsembleParams(n, eta, x) for eta in etas for x in np.geomspace(1e-3, 100.0, 5)]


class TestStepGuard:
    """The RK4 guard checks the band integrate advances, band 0."""

    @pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
    def test_diagonal_start_checks_band_0_only(self, monkeypatch, kind):
        checked = []
        check_step = dynamics._check_step
        monkeypatch.setattr(dynamics, "_check_step",
                            lambda diags, h: checked.append(diags) or check_step(diags, h))
        params = EnsembleParams(20, 0.1, 1.0)
        integrate(initial_state(params, kind), 0.2, params,
                  ctrl=StepControl(h=default_step(params)), n_samples=11)
        assert len(checked) == 1
        want = ThermalLiouvillian(params)._band_diagonals()
        assert len(checked[0]) == 3
        assert all(map(np.array_equal, checked[0], want))

    def test_one_rk4_increment_per_advanced_band(self, monkeypatch):
        sizes = count_increments(monkeypatch)
        params = EnsembleParams(10, 0.1, 1.0)
        integrate(initial_state(params, "equal"), 0.2, params,
                  ctrl=StepControl(h=default_step(params)), n_samples=11)
        assert sizes == [11]

    def test_step_too_large_before_any_map(self, monkeypatch):
        # refused by the gain check
        maps = count_maps(monkeypatch)
        params = EnsembleParams(3, 0.1, 1.0)
        with pytest.raises(StepTooLarge, match="unstable"):
            integrate(initial_state(params, "inverted"), 10.0, params,
                      ctrl=StepControl(h=1000.0), n_samples=3)
        assert maps == []

    @pytest.mark.parametrize("n", GUARD_N)
    def test_same_verdict_as_the_all_band_guard(self, n):
        # at the default step and 1e-6 on either side of band 0's stability
        # limit; below it the step is accepted, so a stiffer zero band
        # would show as a verdict the all-band guard does not share
        below, above = [], []
        for params in guard_grid(n):
            rho0 = initial_state(params, "inverted")
            limit = band0_step_limit(params)
            steps = {"default": default_step(params),
                     "below": limit * (1 - 1e-6), "above": limit * (1 + 1e-6)}
            got = {k: guard_accepts(rho0, params, h) for k, h in steps.items()}
            assert got == {k: all_band_step_verdict(params, h) for k, h in steps.items()}, params
            below.append(got["below"])
            above.append(got["above"])
        assert all(below) and not any(above)

    @pytest.mark.parametrize("cases", ["guard_grid", "window_edges", "hot_baths"])
    def test_same_bits_as_the_dense_guard(self, cases):
        # the guard on the three diagonals against the frozen one that read
        # them out of the dense band, at the default step and 1e-6 on
        # either side of band 0's stability limit
        grid = {
            "guard_grid": [params for n in GUARD_N for params in guard_grid(n)],
            "window_edges": [EnsembleParams(n, eta, x) for x in (1e-3, 1.0, 800.0)
                             for n in range(1, 51)
                             for eta in (window_edge_etas(n) if n > 1 else [0.0])],
            "hot_baths": [EnsembleParams(n, 0.0, x) for x in (1e-300, 1e-200) for n in (2, 5)],
        }[cases]
        for params in grid:
            diagonals = ThermalLiouvillian(params)._band_diagonals()
            a = dense_band(params, 0)
            want = dense_eigenvalues(a)
            assert dynamics._eigenvalues(*diagonals).tobytes() == want.tobytes(), params
            limit = RK4_EDGE / float(np.min(want))
            for h in (default_step(params), limit * (1 - 1e-6), limit * (1 + 1e-6)):
                got = refusal(dynamics._check_step, diagonals, h)
                assert got == refusal(dense_check_step, a, h), (params, h)


class TestBandPropagator:
    """`_band_history` advances any start vector of band 0, complex and
    unnormalised, and checks its own samples."""

    @staticmethod
    def _setup(seed):
        params = EnsembleParams(8, 0.1, 1.0)
        a = ThermalLiouvillian(params).band()
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=len(a)) + 1j * rng.normal(size=len(a))
        return dynamics._rk4_increment(a, 0.01), v0, np.linspace(0.0, 2.0, 11)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_linear_in_an_unnormalised_start(self, seed):
        e, v0, times = self._setup(seed)
        scale = 2.0**-40
        hist = dynamics._band_history(e, v0, 20, times)
        assert np.array_equal(dynamics._band_history(e, scale * v0, 20, times), scale * hist)
        assert np.array_equal(hist[0], v0)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
    @pytest.mark.parametrize("kind", [*INITIAL_STATE_KINDS, "random"])
    def test_same_bits_as_the_per_sample_loop(self, monkeypatch, n, kind):
        # the populations integrate advances, against the frozen per-sample loop
        params = EnsembleParams(n, 0.1 if n > 1 else 0.0, 1.0)
        if kind == "random":
            rho0 = random_diagonal_start(np.random.default_rng(n), n + 1)
        else:
            rho0 = initial_state(params, kind)
        ctrl = StepControl(h=default_step(params))
        got = integrate(rho0, 0.05, params, ctrl=ctrl, n_samples=21)
        monkeypatch.setattr(dynamics, "_band_history", per_sample_band_history)
        want = integrate(rho0, 0.05, params, ctrl=ctrl, n_samples=21)
        assert np.array_equal(got.populations, want.populations)

    def test_nonfinite_start_raises(self):
        e, v0, times = self._setup(1)
        v0[2] = np.inf
        with pytest.raises(NonFiniteState, match="t=0"):
            dynamics._band_history(e, v0, 20, times)


class TestLongSpans:
    """Band 0's maps keep the trace, the exact one by its column sums and
    the powered RK4 one by its column-sum rule, so a diagonal start ends at
    the Gibbs state over any span; the interval guard catches a map that
    does not."""

    @pytest.mark.parametrize("n", [2, 5, 20, 200])
    def test_any_span_ends_at_the_gibbs_state(self, n):
        params = EnsembleParams(n, 0.1, 1.0)
        for t_end in (1e10, 1e15, 1e100, 1e300):
            for kind in ("inverted", "ground"):
                traj = integrate(initial_state(params, kind), t_end, params, n_samples=11)
                assert traj.trace_dist_to_gibbs[1:].max() <= 1e-12, (t_end, kind)
                assert np.abs(traj.populations.sum(axis=1) - 1.0).max() <= 1e-13, (t_end, kind)

    def test_interval_guard_catches_a_map_that_drifts(self, monkeypatch):
        # powered without the column-sum rule, band 0's map changes the
        # trace by up to 8.8e-7 per interval here
        monkeypatch.setattr(dynamics, "_power_increment", plain_power_increment)
        params = EnsembleParams(20, 0.1, 1.0)
        with pytest.raises(StepTooLarge, match="over one sample interval"):
            integrate(initial_state(params, "inverted"), 1e10, params,
                      ctrl=StepControl(h=default_step(params)), n_samples=11)

    def test_interval_guard_catches_an_exact_map_that_drifts(self, monkeypatch):
        # an interval map whose columns sum to 1 + 1e-7; there is no step
        # to reduce, so the refusal names the interval alone
        interval_map = dynamics._interval_map
        monkeypatch.setattr(dynamics, "_interval_map",
                            lambda diagonals, span: interval_map(diagonals, span) * (1 + 1e-7))
        params = EnsembleParams(20, 0.1, 1.0)
        with pytest.raises(IntegrationError) as err:
            integrate(initial_state(params, "inverted"), 1e10, params, n_samples=11)
        assert type(err.value) is IntegrationError
        assert str(err.value) == (
            "trace drift 1.000e-07 over one sample interval of 1e+09 exceeds 1.000e-08")

    def test_non_finite_guard_catches_an_exact_map_that_blows_up(self, monkeypatch):
        interval_map = dynamics._interval_map

        def blown(diagonals, span):
            m = interval_map(diagonals, span)
            m[3, 0] = np.inf
            return m

        monkeypatch.setattr(dynamics, "_interval_map", blown)
        params = EnsembleParams(5, 0.1, 1.0)
        with pytest.raises(NonFiniteState, match="near t=0.1$"):
            integrate(initial_state(params, "ground"), 1.0, params, n_samples=11)


def exact_map_grid():
    """(N, eta, x, span) over the coupling window, hot to cold baths and
    short to long spans; the full product at N <= 10, corners beyond."""
    grid = []
    for n in (1, 3, 10):
        lower = -(n - 1) / (n + 1)
        etas = [0.0] if n == 1 else [0.99 * lower, 0.1, 0.99]
        if n == 10:
            etas = etas[::2]
        xs = (1e-2, 1.0, 10.0, 100.0) if n < 10 else (1e-2, 10.0)
        grid += [(n, eta, x, span) for eta in etas for x in xs for span in (1e-3, 1.0)]
    return grid + [(20, -0.99 * 19 / 21, 1e-2, 1.0), (20, 0.9, 1e-2, 1.0), (20, 0.99, 10.0, 1e-3),
                   (40, 0.1, 1.0, 1e-2)]


class TestExactMap:
    """The default path against the 50-digit mpmath map of the same float
    generator (`mp_interval_map`): entry by entry, not in norm, because a
    population can be 1e-38 beside one of order 1."""

    @pytest.mark.parametrize("n, eta, x, span", exact_map_grid())
    def test_interval_map_matches_mpmath_entry_by_entry(self, n, eta, x, span):
        diagonals = ThermalLiouvillian(EnsembleParams(n, eta, x))._band_diagonals()
        got = dynamics._interval_map(diagonals, span)
        want = np.array(mp_interval_map(diagonals, span), dtype=float)
        normal = want >= np.finfo(float).tiny
        assert normal.any()
        assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
        assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-15

    def test_evolve_n20_trajectory_matches_mpmath(self):
        # the benchmark's evolve: the RK4 default step put p_0 at t = 1e-3
        # 5.8e-4 off, at 1.8514997397e-38
        params = EnsembleParams(20, 0.1, 1.0)
        rho0 = initial_state(params, "inverted")
        traj = integrate(rho0, 0.2, params, n_samples=201)
        want = mp_trajectory(params, np.diagonal(rho0).real, 0.2 / 200, 201)
        assert traj.populations[1, 0] == pytest.approx(1.85256513775e-38, rel=1e-12, abs=0.0)
        normal = want >= np.finfo(float).tiny
        assert_allclose(traj.populations[normal], want[normal], rtol=1e-12, atol=0.0)
        assert np.array_equal(traj.populations == 0.0, want == 0.0)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_single_atom_decays_at_coth_half_x(self, x):
        # N = 1: p_1' = nbar - (1 + 2 nbar) p_1, a decay at 1 + 2 nbar =
        # coth(x/2) to pi_1 = 1/(e^x + 1)
        params = EnsembleParams(1, 0.0, x)
        traj = integrate(initial_state(params, "inverted"), 5.0, params, n_samples=51)
        rate, pi_1 = 1.0 / math.tanh(x / 2), 1.0 / (math.exp(x) + 1.0)
        decay = np.exp(-rate * traj.times)
        assert_allclose(traj.populations[:, 1], pi_1 + (1.0 - pi_1) * decay, rtol=1e-12, atol=0.0)
        assert_allclose(traj.populations[1:, 0],
                        -(1.0 - pi_1) * np.expm1(-rate * traj.times[1:]), rtol=1e-12, atol=0.0)
