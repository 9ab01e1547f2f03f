"""Master-equation right-hand side, integration, and diagnostics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dicke_therm import (
    DimensionMismatch,
    EnsembleParams,
    IntegrationError,
    NonFiniteState,
    NonPositiveFrequency,
    RateModel,
    StepControl,
    StepTooLarge,
    ThermalLiouvillian,
    build_spectrum,
    default_step,
    initial_state,
    integrate,
    steady_state_residual,
    thermal_state,
    trace_distance,
)
from dicke_therm import dynamics
from helpers import dense_liouvillian_apply, dicke_limit_liouvillian, rk4_trajectory


def random_hermitian_unit_trace(rng, dim):
    # positive construction keeps entries O(1) after trace normalization
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


class TestRateModel:
    def test_cubic_decay(self):
        rm = RateModel(x=1.0, gamma0=1.0)
        assert float(rm.decay_rate(1.0)) == 1.0
        assert float(rm.decay_rate(2.0)) == pytest.approx(8.0, rel=1e-15)

    def test_occupation_small_argument(self):
        # expm1 keeps nbar accurate where exp(x*w) - 1 would cancel
        rm = RateModel(x=1e-8)
        assert float(rm.thermal_occupation(1.0)) == pytest.approx(1e8 - 0.5, rel=1e-6)

    def test_occupation_decreases_with_x(self):
        values = [float(RateModel(x=x).thermal_occupation(1.0)) for x in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_frequency(self):
        rm = RateModel(x=1.0)
        with pytest.raises(NonPositiveFrequency):
            rm.decay_rate(0.0)
        with pytest.raises(NonPositiveFrequency):
            rm.thermal_occupation(np.array([1.0, -0.3]))


class TestLiouvillian:
    @pytest.mark.parametrize(
        "n,eta,x", [(2, 0.1, 10.0), (7, 0.1, 1.0), (7, -0.1, 0.1), (1, 0.0, 2.0)]
    )
    def test_gibbs_state_is_stationary(self, n, eta, x):
        assert steady_state_residual(EnsembleParams(n, eta, x)) <= 1e-12

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

    def test_coherences_die_out(self):
        params = EnsembleParams(2, 0.1, 10.0)
        psi = np.zeros(3, dtype=complex)
        psi[0] = psi[2] = 1 / math.sqrt(2)
        rho0 = 0.5 * np.outer(psi, psi.conj()) + 0.5 * initial_state(params, "gibbs")
        traj = integrate(rho0, 40.0, params, ctrl=StepControl(h=0.01), n_samples=21)
        def offdiag(m):
            return float(np.max(np.abs(m - np.diag(np.diag(m)))))
        envelope = [offdiag(s) for s in traj.states]
        assert envelope[-1] < 1e-10
        assert all(a >= b - 1e-12 for a, b in zip(envelope, envelope[1:]))

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
        # a random full-rank start puts weight on every coherence band
        rng = np.random.default_rng(40 + n)
        params = EnsembleParams(n, 0.15 if n > 1 else 0.0, 2.0)
        rho0 = random_hermitian_unit_trace(rng, n + 1)
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
        # default step 4e-7: 2.5e7 RK4 steps, collapsed into one map per
        # band
        params = EnsembleParams(5, 0.0, 1e-3)
        traj = integrate(initial_state(params, "inverted"), 10.0, params, n_samples=201)
        assert traj.final_trace_distance <= 1e-8

    def test_one_step_map_per_band(self, monkeypatch):
        # the linspace sample spans differ in their last bits; all intervals
        # must still share one (h, steps) pair, so one map per band is built
        calls = []

        def counting(e, steps):
            calls.append(steps)
            return power_increment(e, steps)

        power_increment = dynamics._power_increment
        monkeypatch.setattr(dynamics, "_power_increment", counting)
        params = EnsembleParams(20, 0.1, 1.0)
        integrate(initial_state(params, "inverted"), 0.2, params, n_samples=201)
        assert len(calls) == params.n_atoms + 1

    def test_default_step_heuristic(self):
        params = EnsembleParams(2, 0.1, 10.0)
        rates = RateModel(params.x)
        nbar_max = float(np.max(rates.thermal_occupation(build_spectrum(params).frequencies)))
        assert default_step(params, rates) == pytest.approx(
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

    def test_absurd_drift_bound_trips_step_too_large(self):
        params = EnsembleParams(3, 0.1, 1.0)
        with pytest.raises(StepTooLarge):
            integrate(
                initial_state(params, "inverted"),
                1.0,
                params,
                ctrl=StepControl(h=0.01, max_trace_drift=1e-18),
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

    def test_trace_distance_basics(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, a) == 0.0
        assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-15)
