"""Group evaluation of sweeps: one ladder kernel call per N over its x grid
must give the per-point library values bit for bit, each row its own
(N, eta, x) in the order of the axes given, any subset of the outputs the
matching cells of the full rows, the writer formats each coordinate once
per sweep or group, and the worker pool never outnumbers the CPUs.  The
file writer rewrites in place: a file ends at the new bytes, links are
written through and a FIFO gets the bytes without being truncated."""

import collections
import concurrent.futures
import errno
import itertools
import json
import math
import os

import numpy as np
import pytest

from dicke_therm import (
    EnsembleParams,
    NonPositiveX,
    ZeroAtoms,
    ZeroIntensity,
    build_spectrum,
    correlators,
    g2_zero,
    ladder_coefficients,
    steady_state_correlators,
    thermal_state,
)
from dicke_therm import sweep
from dicke_therm.cli import main, point_document
from dicke_therm.correlators import ladder_log_sums
from dicke_therm.sweep import (
    SWEEP_HEADER,
    VALID_OUTPUTS,
    SweepConfig,
    csv_text,
    evaluate_point,
    evaluate_rows,
    format_number,
    run_sweep,
    x_grid,
)
from helpers import point_row, read_fifo, read_sweep_csv, spy_open

# N = 50,000 with 5 x values spans several kernel blocks
BIG_N = 50_000
GROUPS = [
    (1, 0.0, np.geomspace(1e-3, 3e3, 25)),
    (2, 0.1, np.geomspace(1e-3, 3e3, 40)),
    (7, -0.5, np.linspace(0.01, 60.0, 30)),
    (300, 0.9, np.geomspace(1e-8, 1e6, 20)),
    (BIG_N, 0.3, np.geomspace(1e-4, 1e4, 5)),
]

SUBSETS = [s for r in range(1, 5) for s in itertools.combinations(VALID_OUTPUTS, r)]
CORRELATOR_CELLS = ("g1", "g2", "classification")
# N = 1 takes eta = 0 only; the x grid runs into intensity underflow
SUBSET_GROUPS = [([1], [0.0]), ([2, 7, 300], [-0.1, 0.0, 0.1])]
SUBSET_XS = np.geomspace(1e-3, 900.0, 20).tolist()


@pytest.mark.parametrize("precision", [-1, 1.5, 2**31])
def test_config_rejects_bad_precision(precision):
    with pytest.raises(ValueError, match="precision"):
        SweepConfig((2,), (0.0,), 1.0, 2.0, 2, precision=precision)


def test_config_rejects_a_one_point_grid_with_unequal_ends():
    with pytest.raises(ValueError, match="one x point needs start == stop"):
        SweepConfig((2,), (0.1,), 1.0, 5.0, 1)
    assert x_grid(SweepConfig((2,), (0.1,), 5.0, 5.0, 1)).tolist() == [5.0]


@pytest.mark.parametrize("changes, message", [
    ({"n_values": ()}, "N and eta lists must be non-empty"),
    ({"eta_values": ()}, "N and eta lists must be non-empty"),
    ({"x_scale": "cubic"}, "x scale must be 'linear' or 'log', got 'cubic'"),
    ({"x_count": 0}, "x grid needs at least one point, got 0"),
    ({"x_count": 2.5}, "x_count must be an integer, got 2.5"),
    ({"x_count": "3"}, "x_count must be an integer, got '3'"),
    ({"x_start": 0.0}, r"x grid must satisfy 0 < start <= stop, got \[0.0, 5.0\]"),
    ({"x_start": -1.0}, r"x grid must satisfy 0 < start <= stop, got \[-1.0, 5.0\]"),
    ({"x_start": 6.0}, r"x grid must satisfy 0 < start <= stop, got \[6.0, 5.0\]"),
], ids=["no-N", "no-eta", "scale", "no-x", "float-count", "text-count", "zero-start",
        "negative-start", "start-past-stop"])
def test_config_refuses_a_bad_grid(changes, message):
    fields = {"n_values": (2,), "eta_values": (0.1,), "x_start": 1.0, "x_stop": 5.0,
              "x_count": 3, **changes}
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepConfig(**fields)


def test_config_rejects_a_repeated_output():
    with pytest.raises(ValueError, match=r"outputs axis repeats \['g2'\]"):
        SweepConfig((2,), (0.1,), 1.0, 5.0, 3, outputs=("g2", "g1", "g2"))


@pytest.mark.parametrize("axes, name", [
    (([2, 2], [0.1], [1.0]), "N"),
    (([2, 7], [0.1, -0.1, 0.1], [1.0]), "eta"),
    (([2], [0.1], [1.0, 2.0, 1.0]), "x"),
])
def test_evaluate_rows_refuses_a_repeated_axis(axes, name):
    # a repeated value would compute and return the same rows again
    with pytest.raises(ValueError, match=rf"the {name} axis repeats"):
        evaluate_rows(*axes, ("g2",))


def test_big_group_spans_several_blocks():
    rows_per_block = correlators._BLOCK_TERMS // (BIG_N + 1)
    assert 1 < rows_per_block < 5


@pytest.mark.parametrize("n, eta, xs", GROUPS, ids=[f"N{g[0]}" for g in GROUPS])
def test_group_rows_equal_point_values(n, eta, xs):
    rows = evaluate_rows([n], [eta], xs.tolist(), VALID_OUTPUTS)
    assert len(rows) == len(xs)
    for x, row in zip(xs.tolist(), rows):
        assert row == point_row(n, eta, x)
    if n in (2, BIG_N):
        assert any(row[-1] == "ZeroIntensity" for row in rows)


def test_rows_carry_their_point_in_the_order_given(tmp_path):
    n_values, eta_values, xs = [7, 2], [0.1, -0.1, 0.0], [30.0, 0.5, 2.0]
    points = list(itertools.product(n_values, eta_values, xs))
    rows = evaluate_rows(n_values, eta_values, xs, VALID_OUTPUTS)
    assert [row[:3] for row in rows] == points
    assert rows == [point_row(*point) for point in points]
    # run_sweep writes the rows of the sorted axes, unchanged
    config = SweepConfig(tuple(n_values), tuple(eta_values), 0.5, 30.0, 3, "log")
    out = tmp_path / "s.csv"
    assert run_sweep(config, out) == len(points)
    want = evaluate_rows(sorted(n_values), sorted(eta_values), x_grid(config).tolist(),
                         VALID_OUTPUTS)
    assert out.read_text(encoding="ascii") == csv_text(SWEEP_HEADER, want, 12)


@pytest.mark.parametrize("n, eta, xs", GROUPS, ids=[f"N{g[0]}" for g in GROUPS])
def test_state_and_tables_share_the_kernel(n, eta, xs):
    sums = ladder_log_sums(n, xs, [eta])[eta]
    coeffs = ladder_coefficients(n)
    for i, x in enumerate(xs.tolist()):
        params = EnsembleParams(n, eta, x)
        spec = build_spectrum(params)
        state = thermal_state(params)
        assert state.log_z == sums.log_z[i]
        try:
            res = g2_zero(state, spec, coeffs)
        except ZeroIntensity:
            with pytest.raises(ZeroIntensity):
                steady_state_correlators(params)
            continue
        assert res == steady_state_correlators(params)


def test_ratio_stays_finite_to_the_double_limit(tmp_path):
    # log ratio 709.23 lies between 709 and the overflow of exp at 709.78
    out = tmp_path / "ratio.csv"
    argv = ["sweep", "--n", "2", "--eta", "0.99", "--x-start", "735", "--x-stop", "735",
            "--x-count", "1", "--outputs", "ratio", "--precision", "17", "--out", str(out)]
    assert main(argv) == 0
    log_g1 = [s.log_s1[0] - s.log_z[0]
              for s in ladder_log_sums(2, [735.0], [0.99, 0.0]).values()]
    assert log_g1[0] - log_g1[1] > 709.0
    assert read_sweep_csv(out)[0]["ratio"] == pytest.approx(
        math.exp(log_g1[0] - log_g1[1]), rel=1e-12
    )


def test_sweep_cells_equal_point_values(tmp_path, capsys):
    config = SweepConfig((BIG_N,), (0.3,), 1e-4, 1e4, 5, "log")
    out = tmp_path / "big.csv"
    run_sweep(config, out)
    lines = out.read_text(encoding="ascii").splitlines()[1:]
    rows = read_sweep_csv(out)
    assert [r["reason"] for r in rows].count("ZeroIntensity") == 1
    for x, line, rec in zip(x_grid(config).tolist(), lines, rows):
        want = point_row(BIG_N, 0.3, x)
        assert line.split(",")[3:] == [format_number(v, 12) for v in want[3:]]
        assert main(["point", "--n", str(BIG_N), "--eta", "0.3", "--x", repr(x)]) == 0
        doc = json.loads(capsys.readouterr().out)
        if rec["reason"]:
            assert doc["reason"] == "ZeroIntensity"
        else:
            assert (doc["g1"], doc["g2"]) == (rec["g1"], rec["g2"])


@pytest.mark.parametrize("outputs", SUBSETS, ids=",".join)
def test_any_outputs_give_the_cells_of_the_full_rows(outputs):
    for n_values, eta_values in SUBSET_GROUPS:
        full = evaluate_rows(n_values, eta_values, SUBSET_XS, VALID_OUTPUTS)
        assert any(row[-1] == "ZeroIntensity" for row in full)
        want = []
        for row in full:
            cells = [v if k in outputs else None for k, v in zip(VALID_OUTPUTS, row[3:7])]
            want.append((*row[:3], *cells, "ZeroIntensity" if "NA" in cells else ""))
        assert evaluate_rows(n_values, eta_values, SUBSET_XS, outputs) == want


@pytest.mark.parametrize("outputs", SUBSETS, ids=",".join)
def test_one_kernel_call_per_n_over_the_grid_couplings(monkeypatch, outputs):
    seen = []
    kernel = sweep.ladder_log_sums
    monkeypatch.setattr(sweep, "ladder_log_sums", lambda n, xs, etas: seen.append(
        (n, xs, list(etas))) or kernel(n, xs, etas))
    eta_values, xs = [-0.1, 0.0, 0.1], [0.5, 2.0]
    evaluate_rows([2, 7], eta_values, xs, outputs)
    # every group of the grid, in grid order, each over the whole x grid;
    # the grid's eta = 0 group is the ratio's reference
    assert seen == [(2, xs, eta_values), (7, xs, eta_values)]


def test_ratio_reference_joins_a_grid_without_eta_zero(monkeypatch):
    seen = []
    kernel = sweep.ladder_log_sums
    monkeypatch.setattr(sweep, "ladder_log_sums", lambda n, xs, etas: seen.append(
        (n, list(etas))) or kernel(n, xs, etas))
    for outputs in SUBSETS:
        seen.clear()
        evaluate_rows([2, 7], [0.1, -0.1], [0.5, 2.0], outputs)
        # the reference joins once, after the grid's couplings, only for ratio
        want = [0.1, -0.1, 0.0] if "ratio" in outputs else [0.1, -0.1]
        assert seen == [(2, want), (7, want)]


def test_sweep_formats_each_coordinate_once_and_takes_the_reference_once(
    monkeypatch, tmp_path
):
    config = SweepConfig((2, 7), (-0.1, 0.0, 0.1), 0.5, 40.0, 50)
    xs = x_grid(config).tolist()
    refs = {n: ladder_log_sums(n, xs, [0.0])[0.0] for n in config.n_values}
    formatted, exponentiated = [], []
    fmt, exp = sweep.format_number, correlators._exp
    monkeypatch.setattr(sweep, "format_number",
                        lambda v, p: formatted.append((type(v), v)) or fmt(v, p))
    spy = lambda v: exponentiated.append(v) or exp(v)  # noqa: E731
    monkeypatch.setattr(correlators, "_exp", spy)
    out = tmp_path / "s.csv"
    assert run_sweep(config, out) == 300
    # the x column once per sweep, and N and eta once per (N, eta) group
    counts = collections.Counter(formatted)
    assert {x: counts[float, x] for x in xs} == dict.fromkeys(xs, 1)
    assert [counts[int, n] for n in (2, 7)] == [3, 3]
    assert [counts[float, eta] for eta in (-0.1, 0.0, 0.1)] == [2, 2, 2]
    # the reference intensities once per N, not once per coupling
    for n, ref in refs.items():
        log_g1 = [s1 - z for z, s1 in zip(ref.log_z, ref.log_s1)]
        assert [exponentiated.count(v) for v in log_g1] == [1] * len(xs), n
    want = evaluate_rows([2, 7], [-0.1, 0.0, 0.1], xs, VALID_OUTPUTS)
    assert out.read_text(encoding="ascii") == csv_text(SWEEP_HEADER, want, 12)


@pytest.mark.parametrize("n, exc", [(0, ZeroAtoms), (2, NonPositiveX)])
def test_a_ratio_only_grid_at_eta_zero_checks_every_point(n, exc):
    # the eta = 0 ratio is 1 by definition, but its points still pass
    # through the kernel and its checks
    with pytest.raises(exc):
        evaluate_rows([n], [0.0], [-1.0, math.nan], ("ratio",))


@pytest.mark.parametrize("n, eta, x, underflows", [
    (2, 0.1, 900.0, True),
    (7, -0.3, 2.0, False),
    (100_000, 0.5, 1e-3, False),
    (1, 0.0, 3.0, False),
    (300, 0.9, 1e6, True),
])
def test_point_is_the_one_point_row(n, eta, x, underflows):
    for outputs in (VALID_OUTPUTS, CORRELATOR_CELLS):
        row = evaluate_point(n, eta, x, outputs)
        assert row == evaluate_rows([n], [eta], [x], outputs)[0]
    assert row[:3] == (n, eta, x)
    assert (row[-1] == "ZeroIntensity") == underflows
    doc = point_document(EnsembleParams(n, eta, x))
    cells = dict(zip(SWEEP_HEADER, row))
    assert (doc["N"], doc["eta"], doc["x"]) == row[:3]
    assert {k: doc[k] for k in CORRELATOR_CELLS} == {
        k: None if underflows else cells[k] for k in CORRELATOR_CELLS
    }
    assert doc.get("reason", "") == row[-1]


@pytest.mark.parametrize("outputs", [("G2",), ("g2", "ratioo"), "g2", "classification", ()],
                         ids=repr)
def test_unknown_or_no_outputs_are_refused(outputs):
    with pytest.raises(ValueError, match="outputs"):
        evaluate_point(2, 0.1, 1.0, outputs)
    with pytest.raises(ValueError, match="outputs"):
        evaluate_rows([2], [0.1], [1.0], outputs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_evaluate_rows_refuses_a_worker_count_below_one(monkeypatch, jobs):
    seen = []
    monkeypatch.setattr(sweep, "ladder_log_sums", lambda *args: seen.append(args))
    with pytest.raises(ValueError, match=f"^jobs must be a positive integer, got {jobs}$"):
        evaluate_rows([2, 3], [0.0, 0.1], [0.5, 2.0], VALID_OUTPUTS, jobs=jobs)
    assert seen == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_sweep_with_a_worker_count_below_one_writes_no_file(tmp_path, jobs):
    out = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="jobs must be a positive integer"):
        run_sweep(SweepConfig((2,), (0.1,), 0.5, 2.0, 2), out, jobs=jobs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cpus, jobs, pools",
    [(2, 500, [2]), (2, 2, [2]), (8, 3, [3]), (8, 500, [8]), (16, 500, [10]), (1, 500, []), (None, 500, [])],
)
def test_pool_never_outnumbers_the_cpus(monkeypatch, cpus, jobs, pools):
    made = []

    class RecordingPool:
        """Records its worker count and maps in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    args = (list(range(2, 12)), [0.0, 0.1], [0.5, 2.0], VALID_OUTPUTS)
    rows = evaluate_rows(*args, jobs=jobs)
    assert made == pools
    assert rows == evaluate_rows(*args)


WRITER_TEXT = "N,eta,x\n2,0.1,1\n"


@pytest.mark.parametrize("before", [None, b"stale,row\n" * 1000, b"x",
                                    WRITER_TEXT.upper().encode("ascii")],
                         ids=["new", "longer", "shorter", "same-size"])
def test_writer_leaves_exactly_the_new_bytes(tmp_path, monkeypatch, before):
    path = tmp_path / "out.csv"
    if before is not None:
        path.write_bytes(before)
    opened = spy_open(monkeypatch)
    sweep._write_ascii(path, WRITER_TEXT)
    assert opened == [(str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)]
    assert path.read_bytes() == WRITER_TEXT.encode("ascii")


def test_writer_leaves_a_file_holding_the_bytes_alone(tmp_path, monkeypatch):
    # only the mtime moves, so make-style freshness still holds
    path = tmp_path / "out.csv"
    path.write_bytes(WRITER_TEXT.encode("ascii"))
    os.utime(path, ns=(0, 0))
    inode = path.stat().st_ino
    opened = spy_open(monkeypatch)
    sweep._write_ascii(path, WRITER_TEXT)
    assert opened == []
    assert (path.stat().st_ino, path.read_bytes()) == (inode, WRITER_TEXT.encode("ascii"))
    assert path.stat().st_mtime_ns > 0


def test_writer_writes_through_links(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"stale,row\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    sweep._write_ascii(link, WRITER_TEXT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == WRITER_TEXT.encode("ascii")


def test_writer_feeds_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    text = WRITER_TEXT * 10_000  # beyond a pipe's buffer, so the reader drains it mid-write
    _, got = read_fifo(fifo, lambda: sweep._write_ascii(fifo, text))
    assert got == text.encode("ascii")


def test_writer_cuts_a_failed_write_to_the_bytes_written(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"stale,row\n" * 1000)
    real_write = os.write
    calls = []

    def write_five_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:5])

    monkeypatch.setattr(os, "write", write_five_then_fail)
    with pytest.raises(OSError, match="No space left"):
        sweep._write_ascii(path, WRITER_TEXT)
    monkeypatch.undo()
    assert calls == [len(WRITER_TEXT), len(WRITER_TEXT) - 5]
    assert path.read_bytes() == WRITER_TEXT.encode("ascii")[:5]


def test_writer_raises_the_write_error_when_the_close_fails(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"stale,row\n" * 1000)
    real_close = os.close
    closed = []

    def raise_(code):
        def fail(*args):
            raise OSError(code, os.strerror(code))
        return fail

    def close_then_fail(fd):
        closed.append(fd)
        real_close(fd)
        raise_(errno.EIO)()

    monkeypatch.setattr(os, "write", raise_(errno.ENOSPC))
    monkeypatch.setattr(os, "close", close_then_fail)
    with pytest.raises(OSError) as exc:
        sweep._write_ascii(path, WRITER_TEXT)
    monkeypatch.undo()
    assert exc.value.errno == errno.ENOSPC
    assert len(closed) == 1
