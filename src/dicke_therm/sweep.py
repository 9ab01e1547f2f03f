"""Parameter sweeps and deterministic CSV/JSON serialization.

Sweep rows are emitted in (N, eta, x) lexicographic order with a fixed
header, numbers formatted to a configured number of significant digits,
and no timestamps, so identical configurations produce byte-identical
files; run metadata goes to a JSON sidecar next to the data file.  Points
whose correlators underflow carry the literal token NA in the affected
columns plus the error name in the trailing reason column.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticReport
from .correlators import (
    LadderLogSums,
    correlators_from_log_sums,
    ladder_log_sums,
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
    "render_json",
    "x_grid",
    "sweep_points",
    "evaluate_rows",
    "evaluate_point",
    "run_sweep",
    "read_sweep_csv",
    "report_to_csv",
    "write_sidecar",
    "parse_config_file",
]

VALID_OUTPUTS = ("g1", "g2", "ratio", "classification")
SWEEP_HEADER = ("N", "eta", "x", "g1", "g2", "ratio", "classification", "reason")
REPORT_HEADER = ("formula", "N", "eta", "x", "exact", "approx", "rel_dev", "status", "note")

DEFAULT_PRECISION = 12


@dataclass(frozen=True)
class SweepConfig:
    """A rectangular (N, eta, x) sweep with requested output columns."""

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
        unknown = set(self.outputs) - set(VALID_OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}; valid: {VALID_OUTPUTS}")
        for n in self.n_values:
            for eta in self.eta_values:
                validate_params(n, eta, self.x_start)

    def as_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "eta_values": list(self.eta_values),
            "x_start": self.x_start,
            "x_stop": self.x_stop,
            "x_count": self.x_count,
            "x_scale": self.x_scale,
            "outputs": list(self.outputs),
            "precision": self.precision,
        }


def x_grid(config: SweepConfig) -> np.ndarray:
    if config.x_count == 1:
        return np.array([config.x_start])
    if config.x_scale == "log":
        return np.geomspace(config.x_start, config.x_stop, config.x_count)
    return np.linspace(config.x_start, config.x_stop, config.x_count)


def sweep_points(config: SweepConfig) -> list[tuple[int, float, float]]:
    """Grid points in (N, eta, x) lexicographic order."""
    xs = x_grid(config)
    return [
        (n, eta, float(x))
        for n in sorted(config.n_values)
        for eta in sorted(config.eta_values)
        for x in xs
    ]


def _sum_tasks(n_values, eta_values, outputs) -> list[tuple[int, float, bool]]:
    """The (N, eta, pairs) ladder_log_sums calls behind a sweep: one per
    (N, eta) group that needs sums, with the G2 sum only when a correlator
    column is requested, plus the eta = 0 intensity reference once per N."""
    pairs = not {"g1", "g2", "classification"}.isdisjoint(outputs)
    ratio = "ratio" in outputs
    tasks: dict[tuple[int, float], bool] = {}
    for n in n_values:
        for eta in eta_values:
            if pairs or (ratio and eta != 0.0):
                tasks[(n, eta)] = pairs
        if ratio and any(eta != 0.0 for eta in eta_values):
            tasks.setdefault((n, 0.0), False)
    return [(n, eta, p) for (n, eta), p in tasks.items()]


def _group_rows(
    eta: float,
    sums: LadderLogSums | None,
    ref: LadderLogSums | None,
    size: int,
    outputs: tuple[str, ...],
) -> list[dict[str, object]]:
    """Sweep rows of one (N, eta) group from its ladder log sums and those
    of the eta = 0 reference."""
    columns = [k for k in ("g1", "g2", "classification") if k in outputs]
    rows = []
    for i in range(size):
        row: dict[str, object] = dict.fromkeys(("g1", "g2", "ratio", "classification"))
        reason = ""
        if columns:
            try:
                res = correlators_from_log_sums(sums.log_z[i], sums.log_s1[i], sums.log_s2[i])
                values = {"g1": res.g1, "g2": res.g2_norm,
                          "classification": res.classification.value}
            except ZeroIntensity:
                reason = "ZeroIntensity"
                values = dict.fromkeys(columns, "NA")
            row.update((k, values[k]) for k in columns)
        if "ratio" in outputs:
            if eta == 0.0:
                row["ratio"] = 1.0
            else:
                try:
                    row["ratio"] = ratio_from_log_g1(
                        sums.log_s1[i] - sums.log_z[i], ref.log_s1[i] - ref.log_z[i]
                    )
                except ZeroIntensity:
                    reason = "ZeroIntensity"
                    row["ratio"] = "NA"
        row["reason"] = reason
        rows.append(row)
    return rows


def evaluate_rows(
    n_values, eta_values, xs, outputs: tuple[str, ...], jobs: int = 1
) -> list[dict[str, object]]:
    """Raw values for the sweep rows over n_values x eta_values x xs in that
    nesting order; None marks a column left empty and the string 'NA' a
    column lost to intensity underflow.

    Each (N, eta) group is one ladder_log_sums call over the whole x grid,
    and the eta = 0 reference of the ratio column one call per N.  With
    jobs > 1 worker processes make these calls; the rows are built here.
    """
    tasks = _sum_tasks(n_values, eta_values, outputs)
    calls = [[task[i] for task in tasks] for i in range(3)]  # N, eta and pairs columns
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(ladder_log_sums, calls[0], calls[1], repeat(xs), calls[2]))
    else:
        results = list(map(ladder_log_sums, calls[0], calls[1], repeat(xs), calls[2]))
    sums = {(n, eta): res for (n, eta, _), res in zip(tasks, results)}
    return [
        row
        for n in n_values
        for eta in eta_values
        for row in _group_rows(eta, sums.get((n, eta)), sums.get((n, 0.0)), len(xs), outputs)
    ]


def evaluate_point(
    n_atoms: int, eta: float, x: float, outputs: tuple[str, ...]
) -> dict[str, object]:
    """Raw values for one sweep row: the one-point case of evaluate_rows."""
    validate_params(n_atoms, eta, x)
    return evaluate_rows([n_atoms], [eta], [x], outputs)[0]


def format_number(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "NA"
    return format(v, f".{precision}g")


def _sweep_row_line(point, row, outputs, precision: int) -> str:
    n, eta, x = point
    cells = [str(n), format_number(eta, precision), format_number(x, precision)]
    for key in ("g1", "g2", "ratio", "classification"):
        if key in outputs:
            cells.append(format_number(row[key], precision))
        else:
            cells.append("")
    cells.append(row["reason"] or "")
    return ",".join(cells)


def run_sweep(config: SweepConfig, out_path: str | Path, jobs: int = 1) -> int:
    """Evaluate the sweep and write the CSV; returns the number of rows.

    The rows come from evaluate_rows (worker processes with jobs > 1) and
    are written in (N, eta, x) order by this single writer, so the file
    content does not depend on the level of parallelism.
    """
    rows = evaluate_rows(
        sorted(config.n_values),
        sorted(config.eta_values),
        x_grid(config).tolist(),
        config.outputs,
        jobs,
    )
    points = sweep_points(config)
    lines = [",".join(SWEEP_HEADER)]
    lines.extend(
        _sweep_row_line(point, row, config.outputs, config.precision)
        for point, row in zip(points, rows)
    )
    path = Path(out_path)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(points)


def read_sweep_csv(path: str | Path) -> list[dict[str, object]]:
    """Parse a sweep CSV back into typed rows.

    Empty cells come back as None and NA sentinels as the string 'NA', so a
    re-emission at the same precision reproduces the file byte for byte.
    """
    rows: list[dict[str, object]] = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        for raw in reader:
            rec: dict[str, object] = {"N": int(raw[0]), "eta": float(raw[1]), "x": float(raw[2])}
            for key, cell in zip(SWEEP_HEADER[3:7], raw[3:7]):
                if cell == "":
                    rec[key] = None
                elif cell == "NA" or key == "classification":
                    rec[key] = cell
                else:
                    rec[key] = float(cell)
            rec["reason"] = raw[7]
            rows.append(rec)
    return rows


def report_to_csv(report: AsymptoticReport, precision: int = DEFAULT_PRECISION) -> str:
    """Render a validation report as CSV text."""
    lines = [",".join(REPORT_HEADER)]
    for c in report.checks:
        cells = [
            c.formula,
            str(c.n_atoms),
            format_number(c.eta, precision),
            format_number(c.x, precision),
            format_number(c.exact, precision),
            format_number(c.approx, precision),
            format_number(c.rel_dev, precision),
            c.status,
            c.note.replace(",", ";"),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
    """Run metadata lives next to the data file, never inside it."""
    side = Path(str(data_path) + ".meta.json")
    doc = {"tool": "dicke-therm", "version": __version__}
    doc.update(payload)
    side.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
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
