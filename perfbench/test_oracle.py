"""Tests of the benchmark's oracle against closed forms and brute force.

    python3 -m pytest perfbench/test_oracle.py -q

They use neither the package nor its tests, so a defect shared by the
package and the oracle cannot hide here.
"""

import math

import numpy as np
import pytest

import oracle


def ladder(n):
    sm = np.diag(np.sqrt([k * (n - k + 1.0) for k in range(1, n + 1)]), 1)
    return sm, sm.T


@pytest.mark.parametrize("n,eta,x", [(1, 0.0, 0.3), (2, 0.1, 10.0), (3, -0.4, 2.0),
                                     (5, 0.7, 0.05), (6, -0.2, 40.0)])
def test_ladder_sums_equal_dense_operator_traces(n, eta, x):
    sm, sp = ladder(n)
    _, omega = oracle.levels(n, eta)
    w2 = np.diag(omega**2)
    w4 = w2 @ w2
    rho = np.diag(oracle.gibbs_populations(n, eta, x))
    g1 = np.trace(rho @ sp @ w4 @ sm)
    g2 = np.trace(rho @ sp @ w2 @ sp @ w4 @ sm @ w2 @ sm)
    log_g1, log_g2 = oracle.ladder_logs(n, eta, x)
    assert math.exp(log_g1) == pytest.approx(g1, rel=1e-13)
    if n == 1:
        assert log_g2 == -math.inf and g2 == 0.0
    else:
        assert math.exp(log_g2) == pytest.approx(g2, rel=1e-13)


def test_level_spacing_is_the_transition_frequency():
    energy, omega = oracle.levels(9, 0.3)
    assert np.allclose(np.diff(energy), omega[:-1], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 7, 50])
def test_uncoupled_limits(n):
    assert oracle.g2_value(n, 0.0, 1e-8) == pytest.approx(
        6.0 * (n + 3) * (n - 1) / (5.0 * n * (n + 2)), rel=1e-6)
    assert oracle.g2_value(n, 0.0, 60.0) == pytest.approx(2.0 - 2.0 / n, rel=1e-12)


def test_weak_bath_intensity_ratio():
    # cold bath: G1 is dominated by the first rung, N (1-eta)^4 exp(-x(1-eta))
    assert oracle.ratio_value(4, 0.1, 60.0) == pytest.approx(
        0.9**4 * math.exp(6.0), rel=1e-9)


def test_underflow_gives_na_cells():
    outputs = ("g1", "g2", "ratio", "classification")
    (row,) = oracle.sweep_row_choices(10_000, 0.1, 1e3, outputs)
    assert [row[k].value for k in (*outputs, "reason")] == ["NA"] * 4 + ["ZeroIntensity"]
    (row,) = oracle.sweep_row_choices(10_000, 0.0, 1e3, outputs)
    assert row["ratio"].value == 1.0 and row["reason"].value == "ZeroIntensity"
    (row,) = oracle.sweep_row_choices(10_000, 0.1, 1.0, outputs)
    assert row["reason"].value == "" and row["g1"].value > 0.0
    with pytest.raises(ArithmeticError):
        oracle.g2_value(10_000, 0.1, 1e3)


def test_expectations_accept_rounding_and_reject_errors():
    (row,) = oracle.sweep_row_choices(3, 0.1, 5.0, ("g1", "g2", "classification"))
    g2 = row["g2"].value
    assert row["g2"].accepts(format(g2, ".12g"))
    assert not row["g2"].accepts(format(g2 * (1 + 1e-8), ".12g"))
    assert not row["g2"].accepts("NA")
    assert row["ratio"].accepts("") and not row["ratio"].accepts("1")
    assert row["classification"].accepts("SubPoissonian" if g2 < 1 else "SuperPoissonian")


def test_classification_boundary_accepts_both_verdicts():
    expect = oracle._classification(1.0 + 1.05e-9, 1e-10)
    assert (expect.value, expect.alts) == ("SuperPoissonian", ("Poissonian",))
    expect = oracle._classification(1.0, 1e-6)
    assert (expect.value, expect.alts) == ("Poissonian", ("SubPoissonian", "SuperPoissonian"))


@pytest.mark.parametrize("n,eta,x", [(1, 0.0, 10.0), (3, 0.1, 1.0), (5, -0.3, 0.2)])
def test_superoperator_fixes_gibbs_and_preserves_trace(n, eta, x):
    gen = oracle.superoperator(n, eta, x)
    gibbs = np.diag(oracle.gibbs_populations(n, eta, x)).reshape(-1)
    assert np.max(np.abs(gen @ gibbs)) < 1e-13
    assert np.max(np.abs(np.eye(n + 1).reshape(-1) @ gen)) < 1e-13


def test_superoperator_matches_commutator_form():
    # apply the master equation directly to a random hermitian matrix
    n, eta, x = 3, 0.2, 0.7
    rng = np.random.default_rng(7)
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    rho = a + a.conj().T
    sm, sp = ladder(n)
    _, omega = oracle.levels(n, eta)
    nbar = 1.0 / np.expm1(x * omega)
    d1 = np.diag(0.5 * omega**3 * (1 + nbar))
    d2 = np.diag(0.5 * omega**3 * nbar)
    m = -(sp @ d1 @ sm @ rho - d1 @ sm @ rho @ sp) - (sm @ sp @ d2 @ rho - sp @ d2 @ rho @ sm)
    want = m + m.conj().T
    got = (oracle.superoperator(n, eta, x) @ rho.reshape(-1)).reshape(n + 1, n + 1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_trajectory_relaxes_to_gibbs():
    n, eta, x = 4, 0.1, 10.0
    rho0 = np.zeros((n + 1, n + 1), dtype=complex)
    rho0[-1, -1] = 1.0
    states = oracle.trajectory(rho0, n, eta, x, 200.0, 11)
    gibbs = np.diag(oracle.gibbs_populations(n, eta, x))
    assert np.allclose(states[0], rho0)
    assert np.allclose(np.trace(states, axis1=1, axis2=2), 1.0, atol=1e-12)
    assert oracle.trace_distance(states[-1], gibbs) < 1e-12
