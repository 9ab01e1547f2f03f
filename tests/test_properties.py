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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicke_therm import (
    EnsembleParams,
    ZeroIntensity,
    build_spectrum,
    g1_intensity,
    g2_zero,
    intensity_ratio,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
)

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
    return thermal_state(params, spec), spec, ladder_coefficients(params.n_atoms)


@PROPERTY_SETTINGS
@given(ensembles())
def test_every_path_returns_the_same_g1(params):
    g1 = g1_intensity(*tables(params))
    try:
        res = g2_zero(*tables(params))
    except ZeroIntensity:
        assert g1 == 0.0
        with pytest.raises(ZeroIntensity):
            steady_state_correlators(params)
        return
    assert res.g1 == g1
    assert steady_state_correlators(params).g1 == g1


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
    g1 = g1_intensity(*tables(params))
    g1_ref = g1_intensity(*tables(replace(params, eta=0.0)))
    # a subnormal G1 or quotient has lost relative precision
    assume(g1 >= sys.float_info.min and g1_ref >= sys.float_info.min)
    assume(sys.float_info.min <= g1 / g1_ref < math.inf)
    assert intensity_ratio(params) == pytest.approx(g1 / g1_ref, rel=1e-12)
