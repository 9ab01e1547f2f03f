"""Parameter sweeps and deterministic CSV/JSON serialization.

Sweep rows are emitted in (N, eta, x) lexicographic order with a fixed
header, numbers formatted to a configured number of significant digits,
and no timestamps, so identical configurations produce byte-identical
files; run metadata goes to a JSON sidecar next to the data file.  Points
whose correlators underflow carry the literal token NA in the affected
columns plus the error name in the trailing reason column.

A sweep is a rectangle of (N, eta) groups over one x grid, written a group
at a time (_groups, run_sweep); csv_text writes evolve and validate tables
a printf per run of like-typed rows.  Both render cells as format_number.

Every file the CLI writes goes through _write_ascii, which truncates and
writes any file that does not already hold the new bytes.  A killed run
leaves a prefix of the new file, and a crash cannot mix two runs: the
truncation frees the old bytes, and ext4, xfs and btrfs flush a file
truncated to zero when it is closed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticReport, _check_distinct
from .correlators import _column, classify_statistics, ladder_log_sums
from .core import EnsembleParams
from .exceptions import NonPositiveX

__all__ = [
    "SWEEP_HEADER",
    "REPORT_HEADER",
    "VALID_OUTPUTS",
    "SweepConfig",
    "format_number",
    "csv_text",
    "render_json",
    "x_grid",
    "evaluate_rows",
    "evaluate_point",
    "run_sweep",
    "report_to_csv",
    "sidecar_path",
    "write_sidecar",
]

SWEEP_HEADER = ("N", "eta", "x", "g1", "g2", "ratio", "classification", "reason")
VALID_OUTPUTS = SWEEP_HEADER[3:7]
REPORT_HEADER = ("formula", "N", "eta", "x", "exact", "approx", "rel_dev", "status", "note")

DEFAULT_PRECISION = 12
PRECISION_LIMIT = 2**31  # printf's "%.*g" reads the precision as a C int
# the most significant digits of a double's exact decimal expansion; %g drops
# trailing zeros, so a float prints the same bytes at min(precision, _DIGITS)
_DIGITS = 767


def _check_outputs(outputs) -> None:
    """Refuse an empty outputs list or one naming a column not in VALID_OUTPUTS."""
    if not outputs:
        raise ValueError(f"outputs must name at least one of {VALID_OUTPUTS}")
    unknown = set(outputs) - set(VALID_OUTPUTS)
    if unknown:
        raise ValueError(f"unknown outputs {sorted(unknown)}; valid: {VALID_OUTPUTS}")


@dataclass(frozen=True)
class SweepConfig:
    """A rectangular (N, eta, x) sweep; no axis, output or built x value
    (run_sweep) may repeat, and a one-point x grid has equal ends."""

    n_values: tuple[int, ...]
    eta_values: tuple[float, ...]
    x_start: float
    x_stop: float
    x_count: int
    x_scale: str = "linear"
    outputs: tuple[str, ...] = VALID_OUTPUTS
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if not self.n_values or not self.eta_values:
            raise ValueError("N and eta lists must be non-empty")
        if self.x_scale not in ("linear", "log"):
            raise ValueError(f"x scale must be 'linear' or 'log', got {self.x_scale!r}")
        if not isinstance(self.x_count, int):
            raise ValueError(f"x_count must be an integer, got {self.x_count!r}")
        if self.x_count < 1:
            raise ValueError(f"x grid needs at least one point, got {self.x_count}")
        if not math.isfinite(self.x_stop):
            raise NonPositiveX(f"x must be positive and finite, got x_stop={self.x_stop}")
        if not 0.0 < self.x_start <= self.x_stop:
            raise ValueError(
                f"x grid must satisfy 0 < start <= stop, got [{self.x_start}, {self.x_stop}]"
            )
        if self.x_count == 1 and self.x_start != self.x_stop:
            raise ValueError(f"one x point needs start == stop: [{self.x_start}, {self.x_stop}]")
        if not isinstance(self.precision, int) or not 0 <= self.precision < PRECISION_LIMIT:
            raise ValueError(f"precision must be an integer in [0, 2**31), got {self.precision!r}")
        _check_outputs(self.outputs)
        for n in self.n_values:
            for eta in self.eta_values:
                EnsembleParams(n, eta, self.x_start)
        _check_distinct(N=self.n_values, eta=self.eta_values, outputs=self.outputs)


def x_grid(config: SweepConfig) -> np.ndarray:
    space = np.geomspace if config.x_scale == "log" else np.linspace
    return space(config.x_start, config.x_stop, config.x_count)


def _na(column: list) -> list:
    """The column with the NA token where a correlator cell is None."""
    return ["NA" if v is None else v for v in column]


def _groups(n_values, eta_values, xs, outputs: tuple[str, ...], jobs: int = 1):
    """The sweep over n_values x eta_values x xs a (N, eta) group at a time,
    in that nesting order: (N, eta, columns) with columns the g1, g2,
    ratio, classification and reason lists over xs.  evaluate_rows
    documents the checks, the cells and the worker pool.

    Each group's cells are one correlators._column step over its ladder
    log sums, the step every single-point path takes.  The eta = 0
    reference of an N takes its step once, for its own group and for
    every ratio cell of that N, so its G1 is exponentiated once per N.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    _check_outputs(outputs)
    _check_distinct(N=n_values, eta=eta_values, x=xs)
    want_g1, want_g2, want_ratio, want_class = (k in outputs for k in VALID_OUTPUTS)
    etas = [*eta_values, 0.0] if want_ratio and 0.0 not in eta_values else eta_values
    workers = min(jobs, len(n_values), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(ladder_log_sums, n_values, repeat(xs), repeat(etas)))
    else:
        results = list(map(ladder_log_sums, n_values, repeat(xs), repeat(etas)))
    none = [None] * len(xs)
    for n, sums in zip(n_values, results):
        ref = _column(sums[0.0]) if want_ratio else None
        for eta in eta_values:
            cells = ref if ref and eta == 0.0 else _column(sums[eta], ref)
            g2 = _na(cells.g2)
            columns = [
                ["NA" if v == 0.0 else v for v in cells.g1] if want_g1 else none,
                g2 if want_g2 else none,
                none if not want_ratio else [1.0] * len(xs) if eta == 0.0 else _na(cells.ratio),
                # _value_ is the plain attribute behind the enum's value property
                [v if v == "NA" else classify_statistics(v)._value_ for v in g2]
                if want_class else none,
            ]
            reason = ["ZeroIntensity" if "NA" in row else "" for row in zip(*columns)]
            yield n, eta, (*columns, reason)


def evaluate_rows(
    n_values, eta_values, xs, outputs: tuple[str, ...], jobs: int = 1
) -> list[tuple]:
    """The sweep rows over n_values x eta_values x xs in that nesting order,
    as given: one tuple of raw values per point in SWEEP_HEADER order, its
    first three cells its own N, eta and x (the value of xs as passed).
    None marks a column not requested and the string 'NA' a column lost to
    intensity underflow.  An axis that repeats a value is refused
    (ValueError), and so is a jobs that is not a positive integer.

    Every N takes one ladder_log_sums call over xs, at every eta of the
    grid and, for the ratio column, at the eta = 0 reference.  One N is
    one unit of work.  With jobs > 1 worker processes take the units, at
    most one per unit and one per CPU, since a forked pool starts all of
    its workers at once; the rows are built here.

    The rows are the flattened (N, eta) groups of _groups, which builds
    each requested column of a group at once from its correlators._column
    cells: g1 and g2, with NA where the intensity underflows; the
    classify_statistics verdict of g2; and the ratio, with NA where an
    intensity underflows.
    """
    rows = []
    for n, eta, columns in _groups(n_values, eta_values, xs, outputs, jobs):
        rows.extend(zip(repeat(n), repeat(eta), xs, *columns))
    return rows


def evaluate_point(n_atoms: int, eta: float, x: float, outputs: tuple[str, ...]) -> tuple:
    """The one sweep row at (n_atoms, eta, x): the one-point case of evaluate_rows."""
    EnsembleParams(n_atoms, eta, x)
    return evaluate_rows([n_atoms], [eta], [x], outputs)[0]


def format_number(value, precision: int) -> str:
    """One CSV cell: a float as printf "%.<precision>g" (NaN as NA), an
    integer in full, a string as is and None as empty."""
    if isinstance(value, float):
        return "%.*g" % (min(precision, _DIGITS), value) if value == value else "NA"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_number(float(value), precision)


def csv_text(header, rows, precision: int) -> str:
    """CSV text: the header line, then one line per row of plain values,
    each rendered by format_number; every line ends in a newline.

    Each maximal run of consecutive rows that share one tuple of float,
    int, str and None cell types is one printf, the row format repeated per
    row; other runs, and runs where a NaN printed as nan, take the per-cell
    join."""
    # "%.0s" prints None as an empty cell
    cell = {float: f"%.{min(precision, _DIGITS)}g", int: "%d", str: "%s", type(None): "%.0s"}
    lines = [",".join(header)]
    for kinds, run in groupby(rows, lambda row: tuple(map(type, row))):
        run = list(run)
        if cell.keys() >= set(kinds):
            text = "\n".join([",".join(map(cell.get, kinds))] * len(run))
            text %= tuple(chain.from_iterable(run))
            if "nan" not in text:
                lines.append(text)
                continue
        lines += [",".join([format_number(v, precision) for v in row]) for row in run]
    return "\n".join(lines) + "\n"


def _cells(column, precision: int) -> list[str]:
    """format_number of every cell of one column, a finite or infinite
    float through one printf format and a string as is."""
    fmt = f"%.{min(precision, _DIGITS)}g"
    return [v if v.__class__ is str else fmt % v if v.__class__ is float and v == v
            else format_number(v, precision) for v in column]


def run_sweep(config: SweepConfig, out_path: str | Path, jobs: int = 1) -> int:
    """Evaluate the sweep and write the CSV; returns the number of rows.

    The rows are those of evaluate_rows (worker processes with jobs > 1)
    over the sorted N and eta axes and the x grid, written in that
    (N, eta, x) order by this single writer, so the file content does not
    depend on the level of parallelism.  The text is that of csv_text,
    built a (N, eta) group at a time: each x cell is formatted once per
    sweep, each N,eta prefix once per group and each value column by
    format_number's cell rule, and nothing is written before the last group.
    """
    xs = x_grid(config).tolist()
    precision = config.precision
    x_cells = [format_number(x, precision) for x in xs]
    blank = [""] * len(xs)
    wanted = [k in config.outputs for k in VALID_OUTPUTS] + [True]
    lines = [",".join(SWEEP_HEADER)]
    for n, eta, columns in _groups(sorted(config.n_values), sorted(config.eta_values), xs,
                                   config.outputs, jobs):
        prefix = f"{format_number(n, precision)},{format_number(eta, precision)},"
        cells = [_cells(c, precision) if w else blank for w, c in zip(wanted, columns)]
        lines += [f"{prefix}{x},{g1},{g2},{ratio},{verdict},{reason}"
                  for x, g1, g2, ratio, verdict, reason in zip(x_cells, *cells)]
    _write_ascii(out_path, "\n".join(lines) + "\n")
    return len(lines) - 1


def report_to_csv(report: AsymptoticReport, precision: int = DEFAULT_PRECISION) -> str:
    """Render a validation report as CSV text."""
    rows = [
        [c.formula, c.n_atoms, c.eta, c.x, c.exact, c.approx, c.rel_dev, c.status,
         c.note.replace(",", ";")]
        for c in report.checks
    ]
    return csv_text(REPORT_HEADER, rows, precision)


def render_json(obj, precision: int = DEFAULT_PRECISION) -> str:
    """Deterministic JSON with floats at a fixed number of significant
    digits and keys kept in insertion order."""
    spec = f".{min(precision, _DIGITS)}g"

    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            v = float(o)
            if not math.isfinite(v):
                return json.dumps(str(v))
            return format(v, spec)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {emit(v)}" for k, v in o.items()) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj)


def _write_ascii(path: str | Path, text: str) -> None:
    """Write text to path as its ASCII bytes.  A regular file that already
    holds them is not opened for writing, only its mtime advanced (make-style
    freshness); any other path is opened with O_CREAT | O_TRUNC and written,
    so a FIFO or a device is never read and a link is written through.  A
    failed write raises its own OSError, whatever the close after it raises."""
    data = text.encode("ascii")
    with contextlib.suppress(OSError):  # no such file, or one the open below reports on
        st = os.stat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_size == len(data)
                and Path(path).read_bytes() == data):
            os.utime(path)
            return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    except BaseException:
        with contextlib.suppress(OSError):
            os.close(fd)
        raise
    os.close(fd)


def sidecar_path(data_path: str | Path) -> Path:
    """The metadata file of a data file: its path with .meta.json appended."""
    return Path(str(data_path) + ".meta.json")


def write_sidecar(data_path: str | Path, payload: dict) -> Path:
    """Run metadata lives next to the data file, never inside it.  The JSON
    is strict: a non-finite number raises ValueError instead of being
    written as NaN or Infinity."""
    side = sidecar_path(data_path)
    doc = {"tool": "dicke-therm", "version": __version__}
    doc.update(payload)
    _write_ascii(side, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return side

