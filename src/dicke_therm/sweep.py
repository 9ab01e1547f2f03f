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
from .correlators import (
    _ladder_log_sums_at_n,
    correlators_from_log_sums,
    ratio_from_log_g1,
)
from .core import validate_params
from .exceptions import NonPositiveX, ZeroIntensity

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
    "write_sidecar",
    "parse_config_file",
]

VALID_OUTPUTS = ("g1", "g2", "ratio", "classification")
SWEEP_HEADER = ("N", "eta", "x", "g1", "g2", "ratio", "classification", "reason")
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
                validate_params(n, eta, self.x_start)
        _check_distinct(N=self.n_values, eta=self.eta_values, outputs=self.outputs)


def x_grid(config: SweepConfig) -> np.ndarray:
    space = np.geomspace if config.x_scale == "log" else np.linspace
    return space(config.x_start, config.x_stop, config.x_count)


def evaluate_rows(
    n_values, eta_values, xs, outputs: tuple[str, ...], jobs: int = 1
) -> list[dict[str, object]]:
    """Raw values for the sweep rows over n_values x eta_values x xs in that
    nesting order; None marks a column not requested and the string 'NA' a
    column lost to intensity underflow.

    Every N takes the same ladder_log_sums calls over xs: one per eta group
    whose columns need its sums and one for the eta = 0 reference of the
    ratio column, with the G2 sum only for g2 or classification (g1 reads
    log Z and log S1 alone).  One N is one unit of work, its calls sharing
    the N-only ladder logs.  With jobs > 1 worker processes take the units,
    at most one per unit and one per CPU, since a forked pool starts all of
    its workers at once; the rows are built here.
    """
    _check_outputs(outputs)
    want_g1, want_g2, want_ratio, want_class = (k in outputs for k in VALID_OUTPUTS)
    want_corr = want_g1 or want_g2 or want_class
    pairs = want_g2 or want_class
    calls = {eta: pairs for eta in eta_values if want_corr or (want_ratio and eta != 0.0)}
    if want_ratio and any(eta != 0.0 for eta in eta_values):
        calls.setdefault(0.0, False)
    calls = list(calls.items())
    units = list(n_values) if calls else []
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ladder_log_sums_at_n, units, repeat(calls), repeat(xs)))
    else:
        results = list(map(_ladder_log_sums_at_n, units, repeat(calls), repeat(xs)))
    sums = {(n, eta): res for n, unit_sums in zip(units, results)
            for (eta, _), res in zip(calls, unit_sums)}
    rows = []
    for n in n_values:
        ref = sums.get((n, 0.0))
        for eta in eta_values:
            s = sums.get((n, eta))
            for i in range(len(xs)):
                g1 = g2 = ratio = classification = None
                reason = ""
                if want_corr:
                    try:
                        res = correlators_from_log_sums(s.log_z[i], s.log_s1[i], s.log_s2[i])
                        g1, g2, classification = res.g1, res.g2_norm, res.classification.value
                    except ZeroIntensity:
                        reason = "ZeroIntensity"
                        g1 = g2 = classification = "NA"
                if want_ratio and eta == 0.0:
                    ratio = 1.0
                elif want_ratio:
                    try:
                        ratio = ratio_from_log_g1(s.log_s1[i] - s.log_z[i],
                                                  ref.log_s1[i] - ref.log_z[i])
                    except ZeroIntensity:
                        reason = "ZeroIntensity"
                        ratio = "NA"
                rows.append({"g1": g1 if want_g1 else None, "g2": g2 if want_g2 else None,
                             "ratio": ratio,
                             "classification": classification if want_class else None,
                             "reason": reason})
    return rows


def evaluate_point(
    n_atoms: int, eta: float, x: float, outputs: tuple[str, ...]
) -> dict[str, object]:
    """Raw values for one sweep row: the one-point case of evaluate_rows."""
    validate_params(n_atoms, eta, x)
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

    The rows come from evaluate_rows (worker processes with jobs > 1) and
    are written in (N, eta, x) order by this single writer, so the file
    content does not depend on the level of parallelism.
    """
    n_values, eta_values = sorted(config.n_values), sorted(config.eta_values)
    xs = x_grid(config).tolist()
    _check_distinct(x=xs)
    rows = evaluate_rows(n_values, eta_values, xs, config.outputs, jobs)
    points = [(n, eta, x) for n in n_values for eta in eta_values for x in xs]
    table = [[*point, r["g1"], r["g2"], r["ratio"], r["classification"], r["reason"]]
             for point, r in zip(points, rows)]
    Path(out_path).write_text(csv_text(SWEEP_HEADER, table, config.precision), encoding="ascii")
    return len(table)


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


def write_sidecar(data_path: str | Path, payload: dict) -> Path:
    """Run metadata lives next to the data file, never inside it.  The JSON
    is strict: a non-finite number raises ValueError instead of being
    written as NaN or Infinity."""
    side = Path(str(data_path) + ".meta.json")
    doc = {"tool": "dicke-therm", "version": __version__}
    doc.update(payload)
    side.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="ascii")
    return side


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key = value configuration mirroring the CLI flags.

    Keys use the long flag names (hyphens or underscores); values are the
    same strings one would pass on the command line.  Flags given on the
    command line override file values.
    """
    options: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        options[key.strip().replace("_", "-")] = value.strip()
    return options
