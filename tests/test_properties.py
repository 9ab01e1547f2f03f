"""Property tests of the correlator engine over the whole admissible window,
of the CSV writer and of the integrator's step guard.

Points cover eta up to 1e-12 from either bound of -(N-1)/(N+1) < eta < 1,
x log-distributed over [1e-8, 1e6] and N log-distributed over [1, 1e5].
The batched kernel, which exponentiates only the live prefix of a cold
row, returns the same bits as a frozen copy of the full-row kernel; each
live width holds every level whose term exponentiates to a nonzero, and
the blocks take every row once, widest first.
Numpy's floating-point warnings are raised as errors, so an overflow, a
log of zero or an invalid operation anywhere on the path fails the point.
Every row of the asymptotic validator, on random grids that are not a
product, takes the exact value or skipped note of the per-point path, and
on product grids that cross the underflow edge so does every sweep row.  The
CSV writer renders every table as the per-cell format_number join, a
table of runs of like-typed rows as a frozen copy of the per-row writer,
and a float at any precision past 767 digits as at 767; a sweep file is
the csv_text of its evaluate_rows, and the step guard never refuses a
step that the all-band guard accepts.
A diagonal start relaxes on the default path with a trace distance to the
Gibbs state that never rises beyond rounding, and ends on the Gibbs
populations; over any span and sample count that path keeps every
population nonnegative and the trace at 1 within 1e-13.  Band 0's RK4
map, powered and propagated in reused work buffers, has the bits of a
frozen copy that allocated every intermediate.
"""

import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from dicke_therm import (
    INITIAL_STATE_KINDS,
    EnsembleParams,
    EtaOutOfRange,
    ThermalLiouvillian,
    ZeroIntensity,
    build_spectrum,
    g2_zero,
    initial_state,
    integrate,
    intensity_ratio,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
    validate_asymptotics,
)
from dicke_therm.correlators import (
    _BLOCK_TERMS,
    _SHARED_WIDTH,
    _blocks,
    _live_widths,
    ladder_log_sums,
)
from dicke_therm.dynamics import _band_history, _eigenvalues, _power_increment, _rk4_increment
from dicke_therm.sweep import (
    SWEEP_HEADER,
    VALID_OUTPUTS,
    SweepConfig,
    csv_text,
    evaluate_rows,
    format_number,
    render_json,
    run_sweep,
    x_grid,
)

from helpers import (
    all_band_step_verdict,
    allocating_band_history,
    allocating_power_increment,
    band0_step_limit,
    fsum_log_sums,
    full_row_ladder_log_sums,
    guard_accepts,
    per_point_exact,
    per_row_csv_text,
    point_row,
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


@st.composite
def x_grids(draw):
    """N, eta and an x list for the batched kernel: eta within 1e-9 of a
    window edge or anywhere in it; xs unsorted, possibly empty or repeated,
    with the double-range extremes among log-uniform values."""
    n = round(10.0 ** (draw(st.integers(0, 348)) / 100))  # 1 .. 3000
    eta = 0.0
    if n > 1:
        lower = -(n - 1) / (n + 1)
        offset = draw(st.floats(1e-13, 1e-9))
        eta = draw(st.one_of(
            st.just(lower + offset),
            st.just(1.0 - offset),
            st.floats(lower, 1.0, exclude_min=True, exclude_max=True),
        ))
    # 1e-2..10 is where a cut row's live prefix holds many comparable terms
    x = st.one_of(
        st.sampled_from([5e-324, 1e308]),
        st.floats(-4.0, 300.0).map(lambda e: 10.0**e),
        st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    )
    xs = draw(st.lists(x, max_size=6))
    xs += draw(st.lists(st.sampled_from(xs), max_size=2)) if xs else []
    return n, eta, xs


def assert_same_bits(got, want):
    got, want = np.array(got), np.array(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def validation_grids(draw):
    """A non-product validator grid: unsorted points, repeats allowed, N
    from 1..12, 40 and 300, eta inside the window (0 at N = 1), x from the
    validity windows, between them and beyond the underflow edge."""
    points = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.one_of(st.integers(1, 12), st.sampled_from([40, 300])))
        eta = 0.0 if n == 1 else draw(st.one_of(
            st.sampled_from([0.0, -0.1, 0.2]),
            st.floats(-0.99 * (n - 1) / (n + 1), 0.99),
        ))
        x = draw(st.sampled_from([1e-6, 1e-3, 0.5, 10.0, 30.0, 745.25, 2000.0]))
        points.append((n, eta, x))
    return points


@PROPERTY_SETTINGS
@given(validation_grids())
def test_validator_rows_equal_the_per_point_path(grid):
    for check in validate_asymptotics(grid).checks:
        value, note = per_point_exact(check)
        if note is None:
            assert check.exact == value, check
            assert check.rel_dev == abs(check.approx - value) / max(abs(value), 1e-300)
        else:
            assert (check.exact, check.status, check.note) == (None, "skipped", note), check


@st.composite
def underflow_grids(draw):
    """Product axes at N <= 40: up to three N, couplings anywhere inside
    the window of the smallest N (0 alone with N = 1) and up to eight x
    log-distributed over [1e-3, 1e3].  A third of the x come from
    [10**2.85, 1e3], where the intensity of a coupling below about 0.25
    underflows, so a grid crosses the underflow edge; 1e-3, 10 and 30 lie
    in the validator's strong- and weak-bath windows."""
    n_values = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    lower = -(min(n_values) - 1) / (min(n_values) + 1)
    coupled = st.floats(lower, 1.0, exclude_min=True, exclude_max=True)
    eta_values = [0.0] if 1 in n_values else draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.1, -0.1]), coupled), min_size=1, max_size=3,
        unique=True))
    x = st.one_of(
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        st.floats(2.85, 3.0).map(lambda e: 10.0**e),
        st.sampled_from([1e-3, 10.0, 30.0]),
    )
    xs = draw(st.lists(x, min_size=1, max_size=8, unique=True))
    try:
        for n in n_values:
            for eta in eta_values:
                EnsembleParams(n, eta)
    except EtaOutOfRange:
        reject()
    return n_values, eta_values, xs


@PROPERTY_SETTINGS
@example(([2, 40], [0.1, -0.1], [1e-3, 10.0, 30.0, 700.0, 760.0, 1e3]))
@given(underflow_grids())
def test_rows_across_the_underflow_edge_equal_the_per_point_path(axes):
    # the sweep's columns and the validator's rows take one column step per
    # coupling of an N; each cell is the one-point call's, and an
    # underflowed one its ZeroIntensity
    n_values, eta_values, xs = axes
    grid = [(n, eta, x) for n in n_values for eta in eta_values for x in xs]
    assert evaluate_rows(n_values, eta_values, xs, VALID_OUTPUTS) == [point_row(*p) for p in grid]
    for check in validate_asymptotics(grid).checks:
        value, note = per_point_exact(check)
        if note is None:
            assert check.exact == value, check
        else:
            assert (check.exact, check.status, check.note) == (None, "skipped", note), check


@PROPERTY_SETTINGS
@given(x_grids())
def test_kernel_matches_the_full_row_kernel_bitwise(grid):
    n, eta, xs = grid
    try:
        want = full_row_ladder_log_sums(n, eta, xs)
    except EtaOutOfRange:
        reject()
    assert_same_bits(ladder_log_sums(n, xs, [eta])[eta], want)
    # one x per call: each row is a block of its own, cut at its own x
    for i, x in enumerate(xs):
        assert_same_bits(ladder_log_sums(n, [x], [eta])[eta], tuple([s[i]] for s in want))


@PROPERTY_SETTINGS
@given(x_grids())
def test_live_width_holds_every_nonzero_term(grid):
    n, eta, xs = grid
    try:
        spectrum = build_spectrum(EnsembleParams(n, eta))
    except EtaOutOfRange:
        reject()
    gaps = spectrum.energies - spectrum.energies.min()
    log_w4 = 4.0 * np.log(spectrum.frequencies)
    c2 = ladder_coefficients(n) ** 2
    widths = _live_widths(gaps, spectrum.frequencies, np.array(xs, dtype=float))
    for x, width in zip(xs, widths.tolist()):
        with np.errstate(over="ignore"):
            z = -x * gaps
        # the full Z, S1 and S2 rows, each with the level of its first term
        rows = [
            (z, 0),
            (z[1:] + np.log(c2[1:]) + log_w4[:-1], 1),
            (z[2:] + np.log(c2[2:] * c2[1:-1]) + log_w4[1:-1] + log_w4[:-2], 2),
        ]
        for row, first in rows:
            if row.size and row.max() > -math.inf:
                last = first + np.flatnonzero(np.exp(row - row.max()))[-1]
                assert last < width


@PROPERTY_SETTINGS
@given(
    st.lists(st.one_of(st.integers(1, 2000), st.sampled_from([3, 256, 257, 512, 513])),
             max_size=40),
    st.integers(0, 300_000),
)
def test_blocks_order_rows_widest_first(widths, extra):
    widths = np.array(widths, dtype=int)
    size = max(widths.tolist(), default=1) + extra
    cap = max(1, _BLOCK_TERMS // size)
    blocks = _blocks(widths, size)
    rows = [r.tolist() for r, _ in blocks]
    flat = [i for r in rows for i in r]
    assert sorted(flat) == list(range(widths.size))
    assert all(i < j for i, j in zip(flat, flat[1:]) if widths[i] == widths[j])
    block_widths = [w for _, w in blocks]
    assert block_widths == sorted(block_widths, reverse=True)
    for r, w in zip(rows, block_widths):
        assert 1 <= len(r) <= cap
        assert w == max(widths[r].tolist())
        if w > _SHARED_WIDTH:
            assert all(2 * v >= w for v in widths[r].tolist())


# the benchmark's couplings; with shared, each is summed in one kernel call
# with all of them, as a sweep does, else in a call of its own
ETAS = [-0.1, 0.0, 0.1]


# the benchmark's large-N grid, and a dense grid over the x whose live
# prefixes hold many comparable terms: there a prefix summed without its
# zero tail would differ in the last bit
@pytest.mark.parametrize(
    "xs", [np.geomspace(1e-3, 1e3, 10), np.geomspace(1e-2, 10.0, 40)], ids=["sweep", "dense"]
)
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("eta", ETAS)
def test_kernel_matches_the_full_row_kernel_at_n_1e5(eta, shared, xs):
    want = full_row_ladder_log_sums(100_000, eta, xs)
    assert_same_bits(ladder_log_sums(100_000, xs, ETAS if shared else [eta])[eta], want)


# N = 1e4 spans widths from 3 to N + 1 in one call, so rows are regrouped
# by live width; the unsorted grid puts hot and cold x side by side
@pytest.mark.parametrize(
    "xs",
    [np.geomspace(1e-3, 1e3, 10), [10.0, 1e-3, 1e3, 0.05, 2.0, 1e-2, 300.0, 0.3]],
    ids=["sweep", "unsorted"],
)
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("eta", ETAS)
def test_kernel_matches_the_full_row_kernel_at_n_1e4(eta, shared, xs):
    want = full_row_ladder_log_sums(10_000, eta, xs)
    assert_same_bits(ladder_log_sums(10_000, xs, ETAS if shared else [eta])[eta], want)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]

CELLS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.integers(),
    st.booleans(),
    st.text(),
    st.sampled_from(["nan", "NA", ""]),
    st.none(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@PROPERTY_SETTINGS
@given(
    rows=st.lists(st.lists(CELLS, max_size=6), max_size=8),
    precision=st.integers(0, 25),
    data=st.data(),
)
def test_csv_text_is_the_per_cell_join(rows, precision, data):
    # rows of several kinds in one table, each kind more than once, so the
    # writer reuses a row format with other values
    floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
    table = rows + data.draw(st.permutations(rows)) + [
        [data.draw(floats) if type(v) is float else v for v in row] for row in rows
    ]
    want = ["a,b"] + [",".join([format_number(v, precision) for v in row]) for row in table]
    assert csv_text(["a", "b"], table, precision) == "\n".join(want) + "\n"


# the double with the longest exact decimal expansion, 767 significant digits
LARGEST_SUBNORMAL = 2.2250738585072009e-308


@PROPERTY_SETTINGS
@given(value=st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)))
@example(value=LARGEST_SUBNORMAL)
def test_a_precision_past_767_digits_prints_the_same_text(value):
    # %g drops trailing zeros, so the writers' 767-digit cap moves no byte
    want = "%.*g" % (10**6, value) if value == value else "NA"
    assert {format_number(value, p) for p in (767, 768, 10**6)} == {want}
    if math.isfinite(value):
        want = format(value, ".1000000g")
        assert {render_json(value, p) for p in (767, 768, 10**6)} == {want}


# one strategy per cell type; a run of rows shares one tuple of them
RUN_FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
RUN_CELLS = {
    float: RUN_FLOATS,
    np.float64: RUN_FLOATS.map(np.float64),
    int: st.integers(),
    str: st.one_of(st.text(), st.sampled_from(["NA", "nan", ""])),
    type(None): st.none(),
}


@st.composite
def typed_runs(draw):
    """A table of up to five runs, each of up to six rows of one drawn tuple
    of up to four cell types; runs of equal tuples that meet join into one."""
    table = []
    for kinds in draw(st.lists(st.lists(st.sampled_from(list(RUN_CELLS)), max_size=4),
                               min_size=1, max_size=5)):
        table += [[draw(RUN_CELLS[k]) for k in kinds] for _ in range(draw(st.integers(1, 6)))]
    return table


EDGE_RUNS = [
    *[[v, 2, None, "NA", "nan", v] for v in EDGE_FLOATS],
    *[[v, 2, None, "NA", "nan", np.float64(v)] for v in EDGE_FLOATS],
    *[[5e-324, -1, None, "x", "", math.inf]] * 3,
]


@PROPERTY_SETTINGS
@given(table=typed_runs(), precision=st.integers(0, 25))
@example(table=EDGE_RUNS, precision=0)
@example(table=EDGE_RUNS, precision=25)
def test_csv_text_of_typed_runs_is_the_per_row_text(table, precision):
    want = ["a,b"] + [",".join([format_number(v, precision) for v in row]) for row in table]
    got = csv_text(["a", "b"], table, precision)
    assert got == "\n".join(want) + "\n"
    assert got == per_row_csv_text(["a", "b"], table, precision)


@st.composite
def sweep_configs(draw):
    """A sweep over N in 1..12 and 1e4, eta across the window of its
    smallest N with eta = 0 in the grid or not, a log or linear x grid
    that may run into intensity underflow (x up to 2,000), any subset of
    the outputs in any order and any precision."""
    n_values = draw(st.lists(st.sampled_from([*range(1, 13), 10_000]),
                             min_size=1, max_size=3, unique=True))
    if 1 in n_values:
        eta_values = [0.0]  # a lone emitter admits eta = 0 only
    else:
        lower = -(min(n_values) - 1) / (min(n_values) + 1)
        coupled = st.floats(lower, 1.0, exclude_min=True, exclude_max=True).filter(bool)
        with_zero = draw(st.booleans())
        eta_values = draw(st.lists(coupled, min_size=0 if with_zero else 1, max_size=3,
                                   unique=True)) + [0.0] * with_zero
    start = draw(st.floats(-3.0, 2.5))
    count = draw(st.integers(1, 20))
    # 10**3.3 is just below 2,000, where most intensities underflow
    stop = start if count == 1 else draw(st.one_of(st.just(3.3), st.floats(start + 0.1, 3.3)))
    return SweepConfig(
        tuple(n_values), tuple(draw(st.permutations(eta_values))), 10.0**start, 10.0**stop,
        count, draw(st.sampled_from(["log", "linear"])),
        tuple(draw(st.lists(st.sampled_from(VALID_OUTPUTS), min_size=1, max_size=4,
                            unique=True))),
        draw(st.integers(0, 25)),
    )


@PROPERTY_SETTINGS
@given(sweep_configs())
def test_sweep_file_is_the_csv_text_of_its_rows(config):
    # run_sweep writes a group at a time; csv_text writes the rows of
    # evaluate_rows a row at a time under format_number's cell rule
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        count = run_sweep(config, out)
        got = out.read_bytes()
    rows = evaluate_rows(sorted(config.n_values), sorted(config.eta_values),
                         x_grid(config).tolist(), config.outputs)
    assert count == len(rows)
    assert got == csv_text(SWEEP_HEADER, rows, config.precision).encode("ascii")


@st.composite
def guarded_starts(draw):
    """Ensemble parameters and a drawn diagonal start."""
    n = draw(st.integers(1, 12))
    x = 10.0 ** draw(st.floats(-3.0, 2.0))
    lower = -(n - 1) / (n + 1)
    eta = draw(st.floats(0.99 * lower, 0.99)) if n > 1 else 0.0
    params = EnsembleParams(n, eta, x)
    return params, initial_state(params, draw(st.sampled_from(INITIAL_STATE_KINDS)))


@PROPERTY_SETTINGS
@given(guarded_starts(), st.floats(0.5, 1.5))
def test_step_guard_never_refuses_what_the_all_band_guard_accepts(start, factor):
    params, rho0 = start
    h = factor * band0_step_limit(params)
    if all_band_step_verdict(params, h):
        assert guard_accepts(rho0, params, h)


@st.composite
def relaxations(draw):
    """Ensemble parameters at N <= 20, x in [1e-2, 30] and eta 1% inside
    its window, and a diagonal start; as eta nears 1 the slowest decay
    rate sinks below the rounding of the eigenvalue solver."""
    n = draw(st.integers(1, 20))
    x = 10.0 ** draw(st.floats(-2.0, math.log10(30.0)))
    lower = -(n - 1) / (n + 1)
    eta = draw(st.floats(0.99 * lower, 0.99)) if n > 1 else 0.0
    return EnsembleParams(n, eta, x), draw(st.sampled_from(INITIAL_STATE_KINDS))


@PROPERTY_SETTINGS
@given(relaxations())
def test_diagonal_starts_relax_monotonically_to_the_gibbs_state(case):
    # total-variation distance contracts under a Markov semigroup; by
    # t = 60/lambda_1, lambda_1 the slowest decay rate of band 0 (its
    # largest eigenvalue is the conserved trace's 0), the start's weight
    # off the Gibbs state is below exp(-60)
    params, kind = case
    rate = -_eigenvalues(*ThermalLiouvillian(params)._band_diagonals())[-2]
    traj = integrate(initial_state(params, kind), 60.0 / rate, params, n_samples=61)
    assert np.max(np.diff(traj.trace_dist_to_gibbs)) <= 1e-14
    assert np.max(np.abs(traj.populations[-1] - thermal_state(params).populations)) <= 1e-13


@st.composite
def exact_runs(draw):
    """Ensemble parameters at N <= 40, x in [1e-3, 1e3] and eta 1% inside
    its window, a diagonal start, t_end in [1e-4, 1e4] and 2 to 300
    samples."""
    n = draw(st.integers(1, 40))
    lower = -(n - 1) / (n + 1)
    eta = draw(st.floats(0.99 * lower, 0.99)) if n > 1 else 0.0
    params = EnsembleParams(n, eta, 10.0 ** draw(st.floats(-3.0, 3.0)))
    kind = draw(st.sampled_from(INITIAL_STATE_KINDS))
    return params, kind, 10.0 ** draw(st.floats(-4.0, 4.0)), draw(st.integers(2, 300))


@PROPERTY_SETTINGS
@given(exact_runs())
def test_the_default_path_keeps_populations_nonnegative_and_the_trace(case):
    # every term of the uniformized series is nonnegative, and each
    # column of every map is divided by its sum; the distance to the
    # Gibbs state contracts under the semigroup, up to rounding
    params, kind, t_end, samples = case
    traj = integrate(initial_state(params, kind), t_end, params, n_samples=samples)
    assert traj.populations.min() >= 0.0
    assert np.abs(traj.populations.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.max(np.diff(traj.trace_dist_to_gibbs)) <= 1e-14


@st.composite
def band_increments(draw):
    """Band 0's RK4 increment at N <= 30, eta anywhere inside its window,
    x in [1e-3, 1e3] and a step up to band 0's stability limit, with a
    drawn step count and a complex start vector."""
    n = draw(st.integers(1, 30))
    lower = -(n - 1) / (n + 1)
    eta = draw(st.floats(lower, 1.0, exclude_min=True, exclude_max=True)) if n > 1 else 0.0
    params = EnsembleParams(n, eta, 10.0 ** draw(st.floats(-3.0, 3.0)))
    h = draw(st.floats(1e-3, 1.0)) * band0_step_limit(params)
    e = _rk4_increment(ThermalLiouvillian(params).band(), h)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v0 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return e, v0, draw(st.integers(1, 2**20))


@PROPERTY_SETTINGS
@given(band_increments())
def test_buffered_powering_has_the_bits_of_the_allocating_one(case):
    e, v0, drawn = case
    start = e.tobytes()
    times = np.linspace(0.0, 1.0, 6)
    for steps in (drawn, 1, 2, 7, 68, 1000, 12345):
        want = allocating_power_increment(e, steps)
        assert _power_increment(e, steps).tobytes() == want.tobytes(), steps
        want = allocating_band_history(e, v0, steps, times)
        assert _band_history(e, v0, steps, times).tobytes() == want.tobytes(), steps
    # the increment is read, never written
    assert e.tobytes() == start
