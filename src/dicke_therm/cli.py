"""Command-line front end.

Subcommands: point (single evaluation, JSON), sweep (CSV over a parameter
grid), validate (closed forms against the exact engine), evolve (master
equation trajectory), figures (preset sweep files fig1.csv..fig4.csv).

Exit codes: 0 success, 2 invalid input (an unwritable output path or a
failed allocation), 3 validation tolerance exceeded, 4 integrator failure.  Errors
carry the exception class name on stderr as a machine-readable token.  The
environment variable DICKE_THERM_JOBS sets the default worker count, a
positive integer; a configuration file of flat `key = value` lines
mirroring the long flags can be passed with --config, with explicit flags
taking precedence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .asymptotics import (
    DEFAULT_TOLERANCES,
    DEFAULT_VALIDATION_ETA,
    DEFAULT_VALIDATION_N,
    DEFAULT_VALIDATION_X,
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
from .core import EnsembleParams, validate_params
from .dynamics import (
    INITIAL_STATE_KINDS,
    StepControl,
    initial_state,
    integrate,
)
from .exceptions import DickeError, IntegrationError
from .sweep import (
    DEFAULT_PRECISION,
    SweepConfig,
    csv_text,
    evaluate_point,
    format_number,
    parse_config_file,
    render_json,
    report_to_csv,
    run_sweep,
    write_sidecar,
)

JOBS_ENV = "DICKE_THERM_JOBS"

FIGURE_PRESETS: dict[str, SweepConfig] = {
    "fig1": SweepConfig((2,), (0.0, 0.1), 0.01, 30.0, 300, "linear", ("g2", "classification")),
    "fig2": SweepConfig((3,), (0.0, 0.1), 0.01, 30.0, 300, "linear", ("g2", "classification")),
    "fig3": SweepConfig((7,), (0.0, 0.1), 0.01, 60.0, 300, "log", ("g2", "classification")),
    "fig4": SweepConfig((2, 3, 7), (0.1,), 0.001, 20.0, 300, "log", ("ratio",)),
}


def _int_list(text: str) -> tuple[int, ...]:
    items = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _float_list(text: str) -> tuple[float, ...]:
    items = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _precision(text: str) -> int:
    digits = int(text)
    if digits < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {digits}")
    return digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-therm",
        description="Thermal-equilibrium photon statistics of a dipole-dipole "
        "coupled two-level ensemble in the Dicke limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                       help="significant digits in emitted numbers")
        p.add_argument("--config", default=None,
                       help="flat key = value file mirroring the long flags")

    p = sub.add_parser("point", help="evaluate one (N, eta, x) point as JSON")
    p.add_argument("--n", type=int, required=True, help="atom count N")
    p.add_argument("--eta", type=float, default=0.0, help="coupling ratio")
    p.add_argument("--x", type=float, required=True, help="inverse temperature")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    common(p)
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("sweep", help="CSV sweep over an (N, eta, x) grid")
    p.add_argument("--n", type=_int_list, required=True, help="comma list of atom counts")
    p.add_argument("--eta", type=_float_list, required=True, help="comma list of couplings")
    p.add_argument("--x-start", type=float, required=True)
    p.add_argument("--x-stop", type=float, required=True)
    p.add_argument("--x-count", type=int, required=True)
    p.add_argument("--x-scale", choices=("linear", "log"), default="linear")
    p.add_argument("--outputs", type=str, default="g1,g2,ratio,classification",
                   help="comma subset of g1,g2,ratio,classification")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"worker processes (default ${JOBS_ENV} or 1), at most one per CPU")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("validate", help="compare closed forms against the exact engine")
    p.add_argument("--n", type=_int_list, default=DEFAULT_VALIDATION_N,
                   help="comma list of atom counts")
    p.add_argument("--eta", type=_float_list, default=DEFAULT_VALIDATION_ETA,
                   help="comma list of couplings")
    p.add_argument("--x", type=_float_list, default=DEFAULT_VALIDATION_X,
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
                   "(default: conservative heuristic)")
    p.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    common(p)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("figures", help="write the preset sweep files fig1..fig4")
    p.add_argument("--out-dir", default=".", help="directory for figN.csv files")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"worker processes (default ${JOBS_ENV} or 1), at most one per CPU")
    common(p)
    p.set_defaults(handler=_cmd_figures)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config FILE or --config=FILE into flags inserted before the
    explicit ones.  Any prefix from --c on counts, as argparse reads it."""
    for i, arg in enumerate(argv):
        flag, eq, path = arg.partition("=")
        if len(flag) > 2 and "--config".startswith(flag):
            break
    else:
        return argv
    if eq:
        rest = argv[:i] + argv[i + 1 :]
    elif i + 1 < len(argv):
        path = argv[i + 1]
        rest = argv[:i] + argv[i + 2 :]
    else:
        raise ValueError("--config requires a file path")
    if not rest:
        raise ValueError("--config requires a subcommand")
    expanded: list[str] = []
    for key, value in parse_config_file(path).items():
        expanded.extend([f"--{key}", value])
    return [rest[0], *expanded, *rest[1:]]


def point_document(params: EnsembleParams) -> dict:
    """JSON payload for a single point, predictions included."""
    n, eta, x = params.n_atoms, params.eta, params.x
    cells = ("g1", "g2", "classification")
    row = evaluate_point(n, eta, x, cells)
    doc = {
        "N": n,
        "eta": eta,
        "x": x,
        # an underflowed cell ("NA" in a sweep) is null, with the reason below
        **{k: None if row[k] == "NA" else row[k] for k in cells},
        "asymptotic_predictions": {
            "eq15": {
                "strong_bath": g2_limit_eta0(n, BathRegime.STRONG),
                "weak_bath": g2_limit_eta0(n, BathRegime.WEAK),
            },
            "eq16": g2_strong_bath(n, eta) if n >= 2 else None,
            "eq17": g2_weak_bath(n, eta, x) if n >= 2 else None,
            "eq18": g1_weak_bath(n, eta, x),
            "eq19_threshold": eta_threshold(n, x),
            "eq20": intensity_ratio_strong_bath(eta),
        },
    }
    if row["reason"]:
        doc["reason"] = row["reason"]
    return doc


def _cmd_point(args) -> int:
    params = validate_params(args.n, args.eta, args.x)
    text = render_json(point_document(params), args.precision) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _jobs(args) -> int:
    """Worker processes: --jobs, else $DICKE_THERM_JOBS (unset or empty
    means 1); anything but a positive integer is refused."""
    raw = args.jobs if args.jobs is not None else os.environ.get(JOBS_ENV) or "1"
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"--jobs and ${JOBS_ENV} take a positive integer, got {raw!r}")
    return jobs


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
    Path(args.out).write_text(report_to_csv(report, args.precision), encoding="ascii")
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
        if all(c.status == "info" for c in rows):
            status = "INFO"
        elif any(c.status == "fail" for c in rows):
            status = "FAIL"
        else:
            status = "PASS"
        print(f"{formula:<12} {len(rows):>4} {dev:>14} {at:<24} "
              f"{format_number(tol, 3) if tol else '-':>10} {status}")
    skipped = sum(1 for c in report.checks if c.status == "skipped")
    if skipped:
        print(f"{skipped} comparisons skipped (intensity underflow)")
    print("overall:", "PASS" if report.passed else "FAIL")


def _cmd_evolve(args) -> int:
    params = validate_params(args.n, args.eta, args.x)
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
    text = csv_text(header, table.tolist(), args.precision)
    summary = f"final trace_dist_to_gibbs = {traj.final_trace_distance:.6e}"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
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
    for name, preset in FIGURE_PRESETS.items():
        config = replace(preset, precision=args.precision)
        path = out_dir / f"{name}.csv"
        rows = run_sweep(config, path, jobs=jobs)
        write_sidecar(path, {"command": "figures", "figure": name, "config": asdict(config)})
        print(f"wrote {rows} rows to {path}")
    return 0


def _check_out_dir(out: str) -> None:
    """Refuse an output path in a missing directory or a non-directory."""
    parent = Path(out).parent
    if not parent.is_dir():
        parent.stat()  # raises for a missing directory or one under a file
        raise NotADirectoryError(f"not a directory: {str(parent)!r}")


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        raw = _apply_config(raw)
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None):
            _check_out_dir(args.out)
        return args.handler(args)
    except IntegrationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (DickeError, ValueError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
