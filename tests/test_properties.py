"""Property tests of the correlator engine over the whole admissible window.

Points cover eta up to 1e-12 from either bound of -(N-1)/(N+1) < eta < 1,
x log-distributed over [1e-8, 1e6] and N log-distributed over [1, 1e5].
Numpy's floating-point warnings are raised as errors, so an overflow, a
log of zero or an invalid operation anywhere on the path fails the point.
"""

import math
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from dicke_therm import (
    EnsembleParams,
    ZeroIntensity,
    build_spectrum,
    g2_zero,
    intensity_ratio,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
)

from helpers import fsum_log_sums

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# each example sums ladders of up to 1e5 levels; this keeps the module
# to a few seconds
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def ensembles(draw):
    n = round(10.0 ** (draw(st.integers(0, 500)) / 100))
    x = 10.0 ** draw(st.floats(-8.0, 6.0))
    if n == 1:
        return EnsembleParams(1, 0.0, x)
    lower = -(n - 1) / (n + 1)
    offset = draw(st.floats(1e-15, 1e-12))
    eta = draw(st.one_of(
        st.just(lower + offset),
        st.just(1.0 - offset),
        st.floats(lower, 1.0, exclude_min=True, exclude_max=True),
    ))
    return EnsembleParams(n, eta, x)


def tables(params):
    spec = build_spectrum(params)
    return thermal_state(params), spec, ladder_coefficients(params.n_atoms)


@PROPERTY_SETTINGS
@given(ensembles())
def test_every_path_returns_the_same_g1(params):
    try:
        res = g2_zero(*tables(params))
    except ZeroIntensity:
        with pytest.raises(ZeroIntensity):
            steady_state_correlators(params)
        return
    assert steady_state_correlators(params).g1 == res.g1


@PROPERTY_SETTINGS
@given(ensembles())
def test_g2_is_finite_and_non_negative(params):
    try:
        res = steady_state_correlators(params)
    except ZeroIntensity:
        return
    assert math.isfinite(res.g2_norm)
    assert res.g2_norm >= 0.0


@PROPERTY_SETTINGS
@given(ensembles())
def test_intensity_ratio_matches_g1_quotient(params):
    assume(params.eta != 0.0)
    try:
        g1 = steady_state_correlators(params).g1
        g1_ref = steady_state_correlators(replace(params, eta=0.0)).g1
    except ZeroIntensity:
        reject()
    # a subnormal G1 or quotient has lost relative precision
    assume(g1 >= sys.float_info.min and g1_ref >= sys.float_info.min)
    assume(sys.float_info.min <= g1 / g1_ref < math.inf)
    assert intensity_ratio(params) == pytest.approx(g1 / g1_ref, rel=1e-12)


def _normal(v):
    """exp(v) when it is a normal double, else None (no relative precision)."""
    if v > 709.0:
        return None
    e = math.exp(v)
    return e if e >= sys.float_info.min else None


@PROPERTY_SETTINGS
@given(ensembles())
def test_pairwise_sums_match_fsum_oracle(params):
    log_z, log_s1, log_s2 = fsum_log_sums(params)
    g1 = _normal(log_s1 - log_z)
    assume(g1 is not None)
    res = steady_state_correlators(params)
    assert res.g1 == pytest.approx(g1, rel=1e-13)
    if params.n_atoms == 1:
        assert res.g2_raw == res.g2_norm == 0.0
    g2s = ((res.g2_raw, log_s2 - log_z), (res.g2_norm, log_s2 + log_z - 2.0 * log_s1))
    for got, log_want in g2s:
        want = _normal(log_want) if params.n_atoms > 1 else None
        if want is not None:
            assert got == pytest.approx(want, rel=1e-13)
    if params.eta != 0.0:
        ref_z, ref_s1, _ = fsum_log_sums(replace(params, eta=0.0))
        ratio = _normal((log_s1 - log_z) - (ref_s1 - ref_z))
        if _normal(ref_s1 - ref_z) is not None and ratio is not None:
            assert intensity_ratio(params) == pytest.approx(ratio, rel=1e-13)
