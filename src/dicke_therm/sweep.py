"""Parameter sweeps and deterministic CSV/JSON serialization.

Sweep rows are emitted in (N, eta, x) lexicographic order with a fixed
header, numbers formatted to a configured number of significant digits,
and no timestamps, so identical configurations produce byte-identical
files; run metadata goes to a JSON sidecar next to the data file.  Points
whose correlators underflow carry the literal token NA in the affected
columns plus the error name in the trailing reason column.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticReport, _check_distinct
from .correlators import _g1_g2, _ratio, classify_statistics, ladder_log_sums
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
        if not isinstance(self.precision, int) or self.precision < 0:
            raise ValueError(f"precision must be a non-negative integer, got {self.precision!r}")
        _check_outputs(self.outputs)
        for n in self.n_values:
            for eta in self.eta_values:
                EnsembleParams(n, eta, self.x_start)
        _check_distinct(N=self.n_values, eta=self.eta_values, outputs=self.outputs)


def x_grid(config: SweepConfig) -> np.ndarray:
    space = np.geomspace if config.x_scale == "log" else np.linspace
    return space(config.x_start, config.x_stop, config.x_count)


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

    Each (N, eta) group builds its requested columns a column at a time:
    g1 and g2 from correlators._g1_g2, the float steps that
    correlators_from_log_sums takes, with NA where the intensity
    underflows; the classify_statistics verdict of g2; and the ratio from
    correlators._ratio, with NA where an intensity underflows.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    _check_outputs(outputs)
    _check_distinct(N=n_values, eta=eta_values, x=xs)
    want_g1, want_g2, want_ratio, want_class = (k in outputs for k in VALID_OUTPUTS)
    want_corr = want_g1 or want_g2 or want_class
    etas = [*eta_values, 0.0] if want_ratio and 0.0 not in eta_values else eta_values
    workers = min(jobs, len(n_values), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(ladder_log_sums, n_values, repeat(xs), repeat(etas)))
    else:
        results = list(map(ladder_log_sums, n_values, repeat(xs), repeat(etas)))
    none = [None] * len(xs)
    rows = []
    for n, sums in zip(n_values, results):
        for eta in eta_values:
            s = sums[eta]
            g1 = g2 = ratio = classification = none
            lost = [False] * len(xs)
            if want_corr:
                cells = list(map(_g1_g2, *s))
                lost = [c is None for c in cells]
                if want_g1:
                    g1 = ["NA" if c is None else c[0] for c in cells]
                if want_g2:
                    g2 = ["NA" if c is None else c[1] for c in cells]
                if want_class:
                    classification = ["NA" if c is None else classify_statistics(c[1]).value
                                      for c in cells]
            if want_ratio and eta == 0.0:
                ratio = [1.0] * len(xs)
            elif want_ratio:
                ref = sums[0.0]
                ratio = [_ratio(s1 - z, r1 - rz) for z, s1, rz, r1
                         in zip(s.log_z, s.log_s1, ref.log_z, ref.log_s1)]
                ratio = ["NA" if r is None else r for r in ratio]
            reason = ["ZeroIntensity" if gone or r == "NA" else "" for gone, r in zip(lost, ratio)]
            rows.extend(zip(repeat(n), repeat(eta), xs, g1, g2, ratio, classification, reason))
    return rows


def evaluate_point(n_atoms: int, eta: float, x: float, outputs: tuple[str, ...]) -> tuple:
    """The one sweep row at (n_atoms, eta, x): the one-point case of evaluate_rows."""
    EnsembleParams(n_atoms, eta, x)
    return evaluate_rows([n_atoms], [eta], [x], outputs)[0]


def format_number(value, precision: int) -> str:
    """One CSV cell: a float as printf "%.<precision>g" (NaN as NA), an
    integer in full, a string as is and None as empty."""
    if isinstance(value, float):
        return "%.*g" % (precision, value) if value == value else "NA"
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

    A row whose cells are all float, int, str or None is rendered by one
    printf format, looked up by its tuple of cell types; other rows, and
    lines where a NaN printed as nan, take the per-cell join."""
    # "%.0s" prints None as an empty cell
    cell = {float: f"%.{precision}g", int: "%d", str: "%s", type(None): "%.0s"}
    formats: dict[tuple[type, ...], str | None] = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(map(cell.get, kinds)) if cell.keys() >= set(kinds) else None
        fmt = formats[kinds]
        line = None if fmt is None else fmt % tuple(row)
        if line is None or "nan" in line:
            line = ",".join([format_number(v, precision) for v in row])
        lines.append(line)
    return "\n".join(lines) + "\n"


def run_sweep(config: SweepConfig, out_path: str | Path, jobs: int = 1) -> int:
    """Evaluate the sweep and write the CSV; returns the number of rows.

    The rows are those of evaluate_rows (worker processes with jobs > 1)
    over the sorted N and eta axes and the x grid, written in that
    (N, eta, x) order by this single writer, so the file content does not
    depend on the level of parallelism.
    """
    rows = evaluate_rows(sorted(config.n_values), sorted(config.eta_values),
                         x_grid(config).tolist(), config.outputs, jobs)
    Path(out_path).write_text(csv_text(SWEEP_HEADER, rows, config.precision), encoding="ascii")
    return len(rows)


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
            return format(v, f".{precision}g")
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {emit(v)}" for k, v in o.items()) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj)


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
    side.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="ascii")
    return side

