"""Command-line front end.

Subcommands: point (single evaluation, JSON), sweep (CSV over a parameter
grid), validate (closed forms against the exact engine), evolve (master
equation trajectory), figures (preset sweep files fig1.csv..fig4.csv).

Exit codes: 0 success, 2 invalid input (an unwritable output path, a
failed allocation or a validate grid that compares nothing), 3 validation
tolerance exceeded, 4 integrator failure.  Errors carry the exception class
name on stderr as a machine-readable token.  --jobs alone sets the worker
count (default 1), and --precision takes 0 to 2**31 - 1 digits.  A file of
flat `key = value` lines mirroring the long flags can be passed once with
--config; explicit flags take precedence.
The parser is built on the first main call and shared by every later one;
its handlers are bound then, so a test patches their callees, not _cmd_*.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

import numpy as np

from .asymptotics import (
    DEFAULT_TOLERANCES,
    DEFAULT_VALIDATION_ETA,
    DEFAULT_VALIDATION_N,
    DEFAULT_VALIDATION_X,
    VALIDITY_WINDOWS,
    BathRegime,
    default_validation_grid,
    eta_threshold,
    g1_weak_bath,
    g2_limit_eta0,
    g2_strong_bath,
    g2_weak_bath,
    intensity_ratio_strong_bath,
    validate_asymptotics,
)
from .core import EnsembleParams
from .dynamics import (
    INITIAL_STATE_KINDS,
    StepControl,
    initial_state,
    integrate,
)
from .exceptions import DickeError, IntegrationError
from .sweep import (
    DEFAULT_PRECISION,
    PRECISION_LIMIT,
    SWEEP_HEADER,
    VALID_OUTPUTS,
    SweepConfig,
    _write_ascii,
    csv_text,
    evaluate_point,
    format_number,
    render_json,
    report_to_csv,
    run_sweep,
    sidecar_path,
    write_sidecar,
)

FIGURE_PRESETS: dict[str, SweepConfig] = {
    "fig1": SweepConfig((2,), (0.0, 0.1), 0.01, 30.0, 300, "linear", ("g2", "classification")),
    "fig2": SweepConfig((3,), (0.0, 0.1), 0.01, 30.0, 300, "linear", ("g2", "classification")),
    "fig3": SweepConfig((7,), (0.0, 0.1), 0.01, 60.0, 300, "log", ("g2", "classification")),
    "fig4": SweepConfig((2, 3, 7), (0.1,), 0.001, 20.0, 300, "log", ("ratio",)),
}


def _comma_list(kind: type):
    """An argparse type: a non-empty comma list of kind values."""

    def parse(text: str) -> tuple:
        items = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        if not items:
            raise ValueError("empty list")
        return items

    parse.__name__ = f"_{kind.__name__}_list"  # argparse's "invalid _int_list value"
    return parse


def _precision(text: str) -> int:
    digits = int(text)
    if not 0 <= digits < PRECISION_LIMIT:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**31), got {digits}")
    return digits


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and shared by
    every later one; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="dicke-therm",
        description="Thermal-equilibrium photon statistics of a dipole-dipole "
        "coupled two-level ensemble in the Dicke limit.",
        epilog="Every subcommand also takes --config FILE, once: flat key = value "
        "lines mirroring its long flags, which explicit flags override.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                       help="significant digits in emitted numbers")

    p = sub.add_parser("point", help="evaluate one (N, eta, x) point as JSON")
    p.add_argument("--n", type=int, required=True, help="atom count N")
    p.add_argument("--eta", type=float, default=0.0, help="coupling ratio")
    p.add_argument("--x", type=float, required=True, help="inverse temperature")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    common(p)
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("sweep", help="CSV sweep over an (N, eta, x) grid")
    p.add_argument("--n", type=_comma_list(int), required=True, help="comma list of atom counts")
    p.add_argument("--eta", type=_comma_list(float), required=True, help="comma list of couplings")
    p.add_argument("--x-start", type=float, required=True)
    p.add_argument("--x-stop", type=float, required=True)
    p.add_argument("--x-count", type=int, required=True)
    p.add_argument("--x-scale", choices=("linear", "log"), default="linear")
    outputs = ",".join(VALID_OUTPUTS)
    p.add_argument("--outputs", type=str, default=outputs, help=f"comma subset of {outputs}")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1), at most one per CPU")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("validate", help="compare closed forms against the exact engine")
    p.add_argument("--n", type=_comma_list(int), default=DEFAULT_VALIDATION_N,
                   help="comma list of atom counts")
    p.add_argument("--eta", type=_comma_list(float), default=DEFAULT_VALIDATION_ETA,
                   help="comma list of couplings")
    p.add_argument("--x", type=_comma_list(float), default=DEFAULT_VALIDATION_X,
                   help="comma list of x values")
    p.add_argument("--out", default="validation_report.csv", help="report CSV path")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("evolve", help="integrate the master equation in time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--init", choices=INITIAL_STATE_KINDS, default="inverted")
    p.add_argument("--t-end", type=float, required=True, help="final time in units 1/Gamma0")
    p.add_argument("--samples", type=int, default=201, help="number of recorded samples")
    p.add_argument("--step", type=float, default=None,
                   help="fixed RK4 step, positive and finite "
                   "(default: no step, the exact interval map)")
    p.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    common(p)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("figures", help="write the preset sweep files fig1..fig4")
    p.add_argument("--out-dir", default=".", help="directory for figN.csv files")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1), at most one per CPU")
    common(p)
    p.set_defaults(handler=_cmd_figures)

    return parser


# --config FILE, --config=FILE or a unique prefix down to --c, as argparse
# matches options; no subcommand declares it, and a file may not set it or --help
_CONFIG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG.add_argument("--config", action="append")
_IN_FILE = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_IN_FILE.add_argument("--config", "--help", action="append", nargs="?", dest="refused")


def _config_flags(path: str) -> list[str]:
    """The flags of a flat key = value file: keys are the long flag names
    (hyphens or underscores), values the strings one would pass on the
    command line, and a key given twice takes its last value."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        options[key.strip().replace("_", "-")] = value.strip()
    flags = [arg for key, value in options.items() for arg in (f"--{key}", value)]
    if _IN_FILE.parse_known_args(flags)[0].refused:
        raise ValueError(f"{path}: a config file may not set --config or --help")
    return flags


def _apply_config(argv: list[str]) -> list[str]:
    """Expand the one --config FILE into its flags, inserted right after the
    subcommand, before the explicit ones."""
    try:
        found, rest = _CONFIG.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ValueError(str(exc)) from None
    if not found.config:
        return argv
    if len(found.config) > 1:
        raise ValueError("--config may be given only once")
    if not found.config[0]:
        raise ValueError("--config requires a file path, got ''")
    if not rest:
        raise ValueError("--config requires a subcommand")
    return [rest[0], *_config_flags(found.config[0]), *rest[1:]]


def point_document(params: EnsembleParams) -> dict:
    """JSON payload for a single point, predictions included."""
    cells = ("g1", "g2", "classification")
    row = dict(zip(SWEEP_HEADER, evaluate_point(params.n_atoms, params.eta, params.x, cells)))
    n, eta, x = row["N"], row["eta"], row["x"]
    # an underflowed cell ("NA" in a sweep) is null, with the reason below
    doc = {"N": n, "eta": eta, "x": x, **{k: None if row[k] == "NA" else row[k] for k in cells}}
    doc["asymptotic_predictions"] = {
        "eq15": {
            "strong_bath": g2_limit_eta0(n, BathRegime.STRONG),
            "weak_bath": g2_limit_eta0(n, BathRegime.WEAK),
        },
        "eq16": g2_strong_bath(n, eta) if n >= 2 else None,
        "eq17": g2_weak_bath(n, eta, x) if n >= 2 else None,
        "eq18": g1_weak_bath(n, eta, x),
        "eq19_threshold": eta_threshold(n, x),
        "eq20": intensity_ratio_strong_bath(eta),
    }
    if row["reason"]:
        doc["reason"] = row["reason"]
    return doc


def _cmd_point(args) -> int:
    params = EnsembleParams(args.n, args.eta, args.x)
    text = render_json(point_document(params), args.precision) + "\n"
    if args.out:
        _write_ascii(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _jobs(args) -> int:
    """Worker processes: --jobs, refused unless a positive integer."""
    if args.jobs < 1:
        raise ValueError(f"--jobs takes a positive integer, got {args.jobs}")
    return args.jobs


def _cmd_sweep(args) -> int:
    outputs = tuple(tok.strip() for tok in args.outputs.split(",") if tok.strip())
    config = SweepConfig(
        n_values=args.n,
        eta_values=args.eta,
        x_start=args.x_start,
        x_stop=args.x_stop,
        x_count=args.x_count,
        x_scale=args.x_scale,
        outputs=outputs,
        precision=args.precision,
    )
    rows = run_sweep(config, args.out, jobs=_jobs(args))
    write_sidecar(args.out, {"command": "sweep", "config": asdict(config)})
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    grid = default_validation_grid(n_values=args.n, eta_values=args.eta, x_values=args.x)
    report = validate_asymptotics(grid)
    if not report.checks:
        raise ValueError(f"no grid point lies in a validity window: {VALIDITY_WINDOWS}; "
                         "nothing to compare")
    if not any(c.status in ("ok", "fail") for c in report.checks):
        raise ValueError("no comparison was made: every row in a validity window was "
                         "skipped, the exact intensity underflowing at double precision; "
                         "nothing to compare")
    _write_ascii(args.out, report_to_csv(report, args.precision))
    write_sidecar(args.out, {
        "command": "validate",
        "grid": {"n": list(args.n), "eta": list(args.eta), "x": list(args.x)},
    })
    _print_validation_summary(report)
    return 0 if report.passed else 3


def _print_validation_summary(report) -> None:
    worst = report.worst()
    formulas = sorted({c.formula for c in report.checks})
    print(f"{'formula':<12} {'rows':>4} {'worst rel dev':>14} {'at (N, eta, x)':<24} "
          f"{'tolerance':>10} status")
    for formula in formulas:
        rows = [c for c in report.checks if c.formula == formula]
        w = worst.get(formula)
        at = f"({w.n_atoms}, {w.eta:g}, {w.x:g})" if w else "-"
        dev = format_number(w.rel_dev, 3) if w else "-"
        tol = DEFAULT_TOLERANCES.get(formula)
        statuses = {c.status for c in rows} - {"skipped"}
        status = ("SKIPPED" if not statuses else "INFO" if statuses == {"info"}
                  else "FAIL" if "fail" in statuses else "PASS")
        print(f"{formula:<12} {len(rows):>4} {dev:>14} {at:<24} "
              f"{format_number(tol, 3) if tol else '-':>10} {status}")
    skipped = sum(1 for c in report.checks if c.status == "skipped")
    if skipped:
        print(f"{skipped} comparisons skipped (intensity underflow)")
    print("overall:", "PASS" if report.passed else "FAIL")


def _cmd_evolve(args) -> int:
    params = EnsembleParams(args.n, args.eta, args.x)
    rho0 = initial_state(params, args.init)
    traj = integrate(
        rho0,
        args.t_end,
        params,
        ctrl=StepControl(h=args.step),
        n_samples=args.samples,
    )
    header = ["t", "trace", "herm_defect", "min_eig", "trace_dist_to_gibbs"]
    header += [f"p_{k}" for k in range(params.n_atoms + 1)]
    pops = traj.populations
    table = np.column_stack([traj.times, pops.sum(axis=1), traj.herm_defect,
                             traj.min_eigenvalue, traj.trace_dist_to_gibbs, pops])
    text = csv_text(header, table, args.precision)
    summary = f"final trace_dist_to_gibbs = {traj.final_trace_distance:.6e}"
    if args.out:
        _write_ascii(args.out, text)
        write_sidecar(args.out, {
            "command": "evolve",
            "params": {"n": args.n, "eta": args.eta, "x": args.x},
            "init": args.init, "t_end": args.t_end,
            "samples": args.samples, "step": args.step,
        })
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _cmd_figures(args) -> int:
    jobs = _jobs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, path in _figure_paths(out_dir).items():
        config = replace(FIGURE_PRESETS[name], precision=args.precision)
        rows = run_sweep(config, path, jobs=jobs)
        write_sidecar(path, {"command": "figures", "figure": name, "config": asdict(config)})
        print(f"wrote {rows} rows to {path}")
    return 0


def _figure_paths(out_dir: Path) -> dict[str, Path]:
    return {name: out_dir / f"{name}.csv" for name in FIGURE_PRESETS}


def _out_paths(args) -> list[str | Path]:
    """Every file the command writes, each data file then its sidecar; the
    figure files only in an existing directory (figures makes a missing one)."""
    if args.command == "figures":
        out_dir = Path(args.out_dir)
        data = list(_figure_paths(out_dir).values()) if out_dir.is_dir() else []
    else:
        data = [] if args.out is None else [args.out]
    if args.command == "point":
        return data
    return [path for out in data for path in (out, sidecar_path(out))]


def _check_out(out: str | Path) -> None:
    """Refuse an output path that is a directory (the empty path is the
    current one), or lies in a missing directory or a non-directory."""
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        path.parent.stat()  # raises for a missing directory or one under a file
        raise NotADirectoryError(f"not a directory: {str(path.parent)!r}")


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        raw = _apply_config(raw)
        args = build_parser().parse_args(raw)
        for out in _out_paths(args):
            _check_out(out)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DickeError, ValueError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, IntegrationError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
