"""Parameter validation, spectrum, ladder coefficients, and Gibbs state."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dicke_therm import (
    EnsembleParams,
    EtaOutOfRange,
    NonPositiveX,
    SingleAtomWithCoupling,
    ZeroAtoms,
    build_spectrum,
    ladder_coefficients,
    thermal_state,
)
from dicke_therm import correlators
from dicke_therm.core import _lowering, _pairwise_length, _ramp, _spectrum, logsumexp_rows
from helpers import closed_form_lowering, closed_form_spectrum

# frozen against a 50-digit evaluation of the closed forms
P_2_01_10 = (0.999876603363369, 1.23394575731928e-4, 2.06089928301397e-9)
Z_TRUE_2_0_1 = 4.08616126963049
# atom counts of the bitwise closed-form checks, small to benchmark-sized
CLOSED_FORM_N = [1, 2, 3, 7, 20, 10_000, 100_000]


def window_edge_etas(n):
    """Couplings across the window of N = n, its last floats included."""
    if n == 1:
        return [0.0]
    lower = -(n - 1) / (n + 1)
    return [math.nextafter(lower, 1.0), 0.5 * lower, -1e-12, 0.0, 1e-12, 0.1, 0.5,
            math.nextafter(1.0, 0.0)]


def raw_params(n, eta):
    """The fields build_spectrum reads, unchecked: a last float of the
    window may round an end frequency to zero, which EnsembleParams refuses."""
    dt = eta / (n - 1) if n > 1 else 0.0
    return SimpleNamespace(n_atoms=n, delta_tilde=dt, omega_bar=1.0 + dt)


class TestValidation:
    @pytest.mark.parametrize(
        "n,eta,x",
        [
            (2, 0.1, 10.0),
            (1, 0.0, 5.0),
            (2, -0.33, 1.0),  # just inside -(N-1)/(N+1) = -1/3
            (50, 0.99, 1e-6),
            (3, -0.49, 700.0),
        ],
    )
    def test_accepts(self, n, eta, x):
        p = EnsembleParams(n, eta, x)
        assert (p.n_atoms, p.eta, p.x) == (n, eta, x)

    @pytest.mark.parametrize(
        "n,eta,x,exc",
        [
            (0, 0.0, 1.0, ZeroAtoms),
            (-3, 0.0, 1.0, ZeroAtoms),
            (1, 0.1, 1.0, SingleAtomWithCoupling),
            (2, 1.0, 1.0, EtaOutOfRange),
            (2, -1.0, 1.0, EtaOutOfRange),
            (2, -0.4, 1.0, EtaOutOfRange),  # omega_N = 1 + 3*eta would be negative
            (2, -1.0 / 3.0, 1.0, EtaOutOfRange),  # boundary excluded
            (2, float("nan"), 1.0, EtaOutOfRange),
            (2, 0.1, 0.0, NonPositiveX),
            (2, 0.1, -5.0, NonPositiveX),
            (2, 0.1, float("inf"), NonPositiveX),
            (2, 0.1, float("nan"), NonPositiveX),
        ],
    )
    def test_rejects(self, n, eta, x, exc):
        with pytest.raises(exc):
            EnsembleParams(n, eta, x)

    def test_window_edges_keep_every_frequency_positive(self):
        # at the last floats inside the window, build_spectrum's rounding can
        # still make omega_0 or omega_N zero; exactly those eta are refused
        refused = 0
        for n in range(2, 3001):
            for eta in (math.nextafter(-(n - 1) / (n + 1), 1.0), math.nextafter(1.0, 0.0)):
                dt = eta / (n - 1)
                raw = SimpleNamespace(n_atoms=n, delta_tilde=dt, omega_bar=1.0 + dt)
                positive = bool(np.all(build_spectrum(raw).frequencies > 0.0))
                try:
                    EnsembleParams(n, eta, 1.0)
                except EtaOutOfRange:
                    refused += 1
                    assert not positive, (n, eta)
                else:
                    assert positive, (n, eta)
        assert refused == 2188

    @pytest.mark.parametrize("n", [2.0, np.int64(3), np.float64(4.0)])
    def test_coerces_an_integral_atom_count(self, n):
        p = EnsembleParams(n, 0.1, 1.0)
        assert type(p.n_atoms) is int and p.n_atoms == n
        assert build_spectrum(p).energies.size == n + 1

    def test_coerces_eta_and_x_to_float(self):
        p = EnsembleParams(2, np.float32(0.25), 3)
        assert (type(p.eta), type(p.x)) == (float, float)
        assert (p.eta, p.x) == (0.25, 3.0)

    def test_rejects_fractional_atom_count(self):
        with pytest.raises(ValueError, match="^atom count must be an integer, got 2.5$"):
            EnsembleParams(2.5, 0.1, 1.0)

    @pytest.mark.parametrize("n", ["3", np.float64(2.5), float("nan"), float("inf"), None])
    def test_rejects_a_non_integral_atom_count(self, n):
        message = f"atom count must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnsembleParams(n, 0.0, 1.0)

    @pytest.mark.parametrize("eta, x, name, value", [
        ("0.1", "10", "eta", "0.1"),
        (b"0.1", 10, "eta", b"0.1"),
        (0.1, bytearray(b"10"), "x", bytearray(b"10")),
        (0.1, "10", "x", "10"),
        (np.str_("0.1"), 1.0, "eta", np.str_("0.1")),
    ], ids=["str-eta", "bytes-eta", "bytearray-x", "str-x", "numpy-str-eta"])
    def test_rejects_text_for_eta_and_x(self, eta, x, name, value):
        message = f"{name} must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnsembleParams(2, eta, x)

    def test_derived_fields(self):
        p = EnsembleParams(2, 0.1, 1.0)
        assert p.delta_tilde == pytest.approx(0.1, rel=1e-15)
        assert p.omega_bar == pytest.approx(1.1, rel=1e-15)
        assert EnsembleParams(1, 0.0, 1.0).delta_tilde == 0.0
        assert EnsembleParams(5, 0.2, 1.0).delta_tilde == pytest.approx(0.05, rel=1e-15)


class TestSpectrum:
    def test_uncoupled_ladder_is_uniform(self):
        spec = build_spectrum(EnsembleParams(2, 0.0, 1.0))
        assert_allclose(spec.energies, [-1.0, 0.0, 1.0], rtol=0, atol=0)
        assert_allclose(spec.frequencies, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_coupled_two_atom_values(self):
        spec = build_spectrum(EnsembleParams(2, 0.1, 1.0))
        assert_allclose(spec.energies, [-1.1, -0.2, 0.9], atol=1e-14)
        assert_allclose(spec.frequencies, [0.9, 1.1, 1.3], atol=1e-14)

    def test_three_atom_frequencies(self):
        spec = build_spectrum(EnsembleParams(3, 0.1, 1.0))
        assert_allclose(spec.frequencies, [0.9, 1.0, 1.1, 1.2], atol=1e-14)

    @pytest.mark.parametrize("n,eta", [(2, 0.1), (5, -0.3), (17, 0.45), (50, -0.6)])
    def test_spacing_equals_transition_frequency(self, n, eta):
        # E_{n+1} - E_n = omega_n links Gibbs weights to the rates
        spec = build_spectrum(EnsembleParams(n, eta, 1.0))
        assert_allclose(np.diff(spec.energies), spec.frequencies[:-1], rtol=1e-12)

    def test_frequencies_positive_and_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            lower = -(n - 1) / (n + 1)
            eta = float(rng.uniform(0.99 * lower, 0.99))
            spec = build_spectrum(EnsembleParams(n, eta, 1.0))
            assert np.all(spec.frequencies > 0)
            if eta > 0:
                assert np.all(np.diff(spec.frequencies) > 0)

    @pytest.mark.parametrize("n", CLOSED_FORM_N)
    def test_matches_the_closed_forms_bitwise(self, n):
        for eta in window_edge_etas(n):
            raw = raw_params(n, eta)
            spec = build_spectrum(raw)
            want = closed_form_spectrum(raw)
            assert spec.energies.tobytes() == want[0].tobytes(), eta
            assert spec.frequencies.tobytes() == want[1].tobytes(), eta

    def test_eta_continuity_at_zero(self):
        for n in (2, 5, 20):
            a = build_spectrum(EnsembleParams(n, 1e-12, 1.0))
            b = build_spectrum(EnsembleParams(n, 0.0, 1.0))
            assert_allclose(a.energies, b.energies, atol=1e-10)
            assert_allclose(a.frequencies, b.frequencies, atol=1e-10)


class TestLadder:
    def test_two_atoms(self):
        lowering = ladder_coefficients(2)
        assert_allclose(lowering, [0.0, math.sqrt(2), math.sqrt(2)], rtol=1e-15)
        assert_allclose(lowering[1:], [math.sqrt(2), math.sqrt(2)], rtol=1e-15)

    def test_single_atom(self):
        lowering = ladder_coefficients(1)
        assert_allclose(lowering, [0.0, 1.0], rtol=0)
        assert_allclose(lowering[1:], [1.0], rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 137])
    def test_raising_matches_shifted_lowering(self, n):
        # the raising coefficient of |n> is l_{n+1}: the closed form
        # sqrt((N-n)*(n+1)) below the top level, bit for bit
        lowering = ladder_coefficients(n)
        assert lowering.shape == (n + 1,)
        assert lowering[0] == 0.0
        k = np.arange(n + 1, dtype=float)
        assert np.array_equal(lowering[1:], np.sqrt((n - k) * (k + 1.0))[:-1])

    @pytest.mark.parametrize("n", CLOSED_FORM_N)
    def test_matches_the_closed_form_bitwise(self, n):
        assert ladder_coefficients(n).tobytes() == closed_form_lowering(n).tobytes()

    def test_returns_a_read_only_array(self):
        lowering = ladder_coefficients(137)
        assert type(lowering) is np.ndarray
        assert not lowering.flags.writeable

    def test_rejects_zero_atoms(self):
        with pytest.raises(ZeroAtoms, match="^atom count must be at least 1, got 0$"):
            ladder_coefficients(0)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_rejects_a_non_integral_atom_count(self, n):
        # the EnsembleParams rule: no ladder for a fractional or string N
        with pytest.raises(ValueError, match="^atom count must be an integer"):
            ladder_coefficients(n)

    def test_coerces_an_integral_atom_count(self):
        assert np.array_equal(ladder_coefficients(np.float64(3.0)), ladder_coefficients(3))


class TestKernelSlots:
    """The spectrum and ladder that the kernel writes into its workspace
    slots, from its own level ramp, are the bytes of build_spectrum and
    ladder_coefficients."""

    @pytest.mark.parametrize("n", CLOSED_FORM_N)
    def test_kernel_slots_hold_the_allocating_results(self, n, monkeypatch):
        # each spy copies its slots as soon as they are written, before the
        # kernel turns them into gaps or logs; the last floats of the window
        # that EnsembleParams refuses are covered by the next test
        etas = []
        for eta in window_edge_etas(n):
            try:
                etas.append(EnsembleParams(n, eta).eta)
            except EtaOutOfRange:
                pass
        written = {}
        spectrum, lowering = correlators._spectrum, correlators._lowering

        def spectrum_spy(params, ramp, energies, frequencies):
            spectrum(params, ramp, energies, frequencies)
            written[params.eta] = (energies.copy(), frequencies.copy(),
                                   energies.base, frequencies.base)

        def lowering_spy(ramp, out):
            lowering(ramp, out)
            written["lowering"] = (out.copy(), out.base)

        monkeypatch.setattr(correlators, "_spectrum", spectrum_spy)
        monkeypatch.setattr(correlators, "_lowering", lowering_spy)
        correlators.ladder_log_sums(n, [1.0], etas)
        coefficients, workspace = written.pop("lowering")
        assert coefficients.tobytes() == ladder_coefficients(n).tobytes()
        assert etas and sorted(written) == sorted(etas)
        for eta, (energies, frequencies, *bases) in written.items():
            assert all(base is workspace for base in bases), eta
            want = build_spectrum(EnsembleParams(n, eta))
            assert energies.tobytes() == want.energies.tobytes(), eta
            assert frequencies.tobytes() == want.frequencies.tobytes(), eta

    @pytest.mark.parametrize("n", CLOSED_FORM_N)
    def test_helpers_overwrite_every_slot_value(self, n):
        # every window-edge coupling, refused ones included, into slots
        # that hold NaN, from the kernel's ramp
        ramp, energies, frequencies, lowering = np.full((4, n + 1), math.nan)
        for eta in window_edge_etas(n):
            _ramp(ramp)
            assert ramp.tobytes() == np.arange(n + 1, dtype=float).tobytes()
            raw = raw_params(n, eta)
            _spectrum(raw, ramp, energies, frequencies)
            want = build_spectrum(raw)
            assert energies.tobytes() == want.energies.tobytes(), eta
            assert frequencies.tobytes() == want.frequencies.tobytes(), eta
        _ramp(ramp)
        _lowering(ramp, lowering)
        assert lowering.tobytes() == ladder_coefficients(n).tobytes()


def _pairwise_widths(length):
    """Row widths at the edges of numpy's pairwise leaves and halves."""
    half = length // 2 - (length // 2) % 8
    widths = {1, 7, 8, 9, 127, 128, 129, half - 1, half, half + 1, length}
    return sorted(w for w in widths if 1 <= w <= length)


def _full_length_sum(terms, length):
    """logsumexp_rows of rows of `length` terms whose first are `terms`
    and whose other exponentials are 0.0: zero-padded to the full length
    and summed by np.sum."""
    top = terms.max(axis=1)
    padded = np.zeros((terms.shape[0], length))
    padded[:, : terms.shape[1]] = np.exp(terms - top[:, None])
    return top + np.log(padded.sum(axis=1))


class TestPairwisePadding:
    """A cut row padded only to the pairwise node of its live terms sums
    to the bits of the full-length row: numpy's split rule, pinned."""

    @pytest.mark.parametrize(
        "lengths",
        [range(1, 301), [4095, 4096, 4097], [10_001], [99_999, 100_000, 100_001]],
        ids=["1-300", "4096", "10001", "100000"],
    )
    def test_short_padding_sums_the_full_length_bits(self, lengths):
        rng = np.random.default_rng(28)
        for length in lengths:
            zeros = np.zeros(3 * length)
            for width in _pairwise_widths(length):
                # magnitudes spread over 17 decades, so any other order of
                # the additions would move the last bits of most rows
                terms = rng.uniform(-40.0, 0.0, (3, width))
                want = _full_length_sum(terms, length)
                got = logsumexp_rows(terms.copy(), length, zeros=zeros)
                assert got.tobytes() == want.tobytes(), (length, width)
                assert not zeros.any()

    @pytest.mark.parametrize("width, node", [
        (39_272, 50_000), (8_747, 12_496), (1_901, 3_120), (412, 776),
        (91, 96), (22, 96), (7, 96), (3, 96), (100_001, 100_001), (50_001, 100_001),
    ])
    def test_nodes_of_a_row_of_100001_terms(self, width, node):
        assert _pairwise_length(100_001, width) == node

    def test_padding_needs_room_for_the_node_only(self):
        # two rows of 412 live terms out of 100,001 take 2 x 776 zeros
        terms = np.random.default_rng(5).uniform(-40.0, 0.0, (2, 412))
        zeros = np.zeros(2 * 776)
        got = logsumexp_rows(terms.copy(), 100_001, zeros=zeros)
        assert got.tobytes() == _full_length_sum(terms, 100_001).tobytes()
        assert not zeros.any()


class TestThermalState:
    def test_infinite_temperature_limit(self):
        st = thermal_state(EnsembleParams(2, 0.0, 1e-9))
        assert_allclose(st.populations, [1 / 3] * 3, atol=1e-8)

    def test_cold_two_atom_populations(self):
        st = thermal_state(EnsembleParams(2, 0.1, 10.0))
        assert_allclose(st.populations, P_2_01_10, rtol=1e-12)

    def test_partition_function(self):
        # recover the unshifted partition sum: Z = exp(log_z - x*E_min)
        p = EnsembleParams(2, 0.0, 1.0)
        st = thermal_state(p)
        e_min = build_spectrum(p).energies.min()
        assert math.exp(st.log_z - p.x * e_min) == pytest.approx(Z_TRUE_2_0_1, rel=1e-12)

    def test_log_weights_shifted_to_zero(self):
        st = thermal_state(EnsembleParams(5, 0.2, 3.0))
        assert st.log_weights.max() == 0.0

    def test_normalization_and_detailed_balance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            lower = -(n - 1) / (n + 1) if n > 1 else 0.0
            eta = float(rng.uniform(0.95 * lower, 0.95)) if n > 1 else 0.0
            x = float(np.exp(rng.uniform(np.log(1e-6), np.log(700.0 * n))))
            p = EnsembleParams(n, eta, x)
            spec = build_spectrum(p)
            st = thermal_state(p)
            assert abs(math.fsum(st.populations) - 1.0) <= 1e-14
            assert np.all(st.populations >= 0.0)
            pops = st.populations
            gaps = np.diff(spec.energies)
            for k in range(n):
                if pops[k] > 1e-300 and pops[k + 1] > 1e-300:
                    assert pops[k + 1] / pops[k] == pytest.approx(
                        math.exp(-x * gaps[k]), rel=1e-12
                    )

    def test_weights_beyond_the_double_range_are_zero_without_warning(self):
        # -x*gap overflows to -inf at x = 1e308; the suite turns warnings into errors
        st = thermal_state(EnsembleParams(2, 0.2, 1e308))
        assert st.log_z == 0.0
        assert list(st.populations) == [1.0, 0.0, 0.0]

    def test_ground_state_dominates_when_cold(self):
        for n in (2, 5, 30):
            for eta in (0.0, 0.1, 0.4):
                st = thermal_state(EnsembleParams(n, eta, 50.0))
                assert int(np.argmax(st.populations)) == 0

    def test_populations_continuous_in_eta(self):
        a = thermal_state(EnsembleParams(4, 1e-12, 2.0))
        b = thermal_state(EnsembleParams(4, 0.0, 2.0))
        assert_allclose(a.populations, b.populations, atol=1e-10)

    def test_extreme_x_saturates_but_stays_normalized(self):
        st = thermal_state(EnsembleParams(3, 0.1, 700.0 * 3))
        assert abs(math.fsum(st.populations) - 1.0) <= 1e-14
        assert st.populations[0] == pytest.approx(1.0, rel=1e-12)

    def test_large_ensemble_smoke(self):
        # correlator-engine scale target: arrays of length N+1 only
        from dicke_therm import steady_state_correlators

        p = EnsembleParams(100_000, 0.5, 2.0)
        st = thermal_state(p)
        assert abs(math.fsum(st.populations) - 1.0) <= 1e-14
        res = steady_state_correlators(p)
        assert math.isfinite(res.g1) and res.g1 > 0.0
        assert math.isfinite(res.g2_norm)
