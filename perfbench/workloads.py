"""The benchmark workloads: seeded inputs, one timed pass, and output checks.

A pass is a closed loop with one caller: each call into the package starts
after the previous one has returned.  The seed jitters only continuous
inputs (eta values and x range endpoints, by at most JITTER relative), never
N, grid counts, sample counts or t_end, so every seed does the same work.
The program sees only the generated inputs; every output is checked
against `oracle`, which does not import the package.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from dicke_therm import cli, core, dynamics

JITTER = 5e-3

SWEEP_HEADER = ["N", "eta", "x", "g1", "g2", "ratio", "classification", "reason"]
SWEEP_COLUMNS = ("g1", "g2", "ratio", "classification", "reason")
REPORT_HEADER = ["formula", "N", "eta", "x", "exact", "approx", "rel_dev", "status", "note"]
# rows the validator reports on its default 36-point grid
VALIDATE_ROWS = 42
# grid coordinates are printed with 12 significant digits
GRID_TOL = 1e-11
# The dynamics accuracy target is the relaxation gate, a final trace
# distance to the Gibbs state of at most 1e-8.  Every recorded sample is
# held to the same 1e-8 as its largest deviation from the exact trajectory
# (|rho - rho_exact| elementwise; each evolve CSV column), whatever step the
# program chooses.  The seed code deviates by at most 1.2e-13 (relax_small)
# and 5.0e-13 (evolve_n20, the 12-digit CSV rounding).
RELAX_GATE = 1e-8
STATE_TOL = RELAX_GATE


class Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self, value: float) -> float:
        return value * (1.0 + self._rng.uniform(-JITTER, JITTER))


@dataclass
class Call:
    """One CLI invocation: exit code (or the escaped exception), stdout, and
    the text of the file it wrote."""

    code: object
    stdout: str
    stderr: str
    text: str = ""


def call_cli(argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception fails the operation
            code = f"{type(exc).__name__}: {exc}"
    return Call(code, out.getvalue(), err.getvalue())


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii")
    except OSError as exc:
        return f"unreadable: {exc}"


def _close(got: str, want: float, tol: float) -> bool:
    try:
        return abs(float(got) - want) <= tol * max(abs(want), 1e-300)
    except ValueError:
        return False


@dataclass(frozen=True)
class SweepSpec:
    name: str
    n_values: tuple[int, ...]
    eta_values: tuple[float, ...]
    x_start: float
    x_stop: float
    x_count: int
    x_scale: str
    outputs: tuple[str, ...]

    def argv(self, out: Path, jobs: int = 1) -> list[str]:
        return [
            "sweep",
            "--n", ",".join(map(str, self.n_values)),
            "--eta=" + ",".join(map(repr, self.eta_values)),
            "--x-start", repr(self.x_start),
            "--x-stop", repr(self.x_stop),
            "--x-count", str(self.x_count),
            "--x-scale", self.x_scale,
            "--outputs", ",".join(self.outputs),
            "--out", str(out),
            "--jobs", str(jobs),
        ]

    @property
    def rows(self) -> int:
        return len(self.n_values) * len(self.eta_values) * self.x_count

    def grid(self) -> list[tuple[int, float, float]]:
        a, b, m = self.x_start, self.x_stop, self.x_count - 1
        if m == 0:
            xs = [a]
        elif self.x_scale == "log":
            xs = [a * (b / a) ** (i / m) for i in range(m + 1)]
        else:
            xs = [a + (b - a) * i / m for i in range(m + 1)]
        return [(n, eta, x) for n in sorted(self.n_values)
                for eta in sorted(self.eta_values) for x in xs]


def check_sweep(spec: SweepSpec, call: Call, notes: list[str]) -> int:
    """Failed rows of one sweep call; every row fails on a nonzero exit."""
    if call.code != 0:
        notes.append(f"{spec.name}: exit {call.code!r}: {call.stderr.strip()[:200]}")
        return spec.rows
    lines = list(csv.reader(io.StringIO(call.text)))
    if not lines or lines[0] != SWEEP_HEADER:
        notes.append(f"{spec.name}: bad header {lines[:1]!r}")
        return spec.rows
    body = lines[1:]
    failed = abs(len(body) - spec.rows)
    if failed:
        notes.append(f"{spec.name}: {len(body)} rows, expected {spec.rows}")
    for (n, eta, x), cells in zip(spec.grid(), body):
        if not _sweep_row_ok(spec, n, eta, x, cells):
            failed += 1
            if len(notes) < 20:
                notes.append(f"{spec.name}: row {cells} disagrees with the oracle at "
                             f"N={n}, eta={eta!r}, x={x!r}")
    return failed


def _sweep_row_ok(spec: SweepSpec, n: int, eta: float, x: float, cells: list[str]) -> bool:
    if len(cells) != len(SWEEP_HEADER) or cells[0] != str(n):
        return False
    if not (_close(cells[1], eta, GRID_TOL) if eta else cells[1] == "0"):
        return False
    if not _close(cells[2], x, GRID_TOL):
        return False
    got = dict(zip(SWEEP_COLUMNS, cells[3:]))
    return any(all(expect.accepts(got[key]) for key, expect in choice.items())
               for choice in oracle.sweep_row_choices(n, eta, x, spec.outputs))


class Workload:
    """rows: output rows per pass (points_per_s counts these); ops: checked
    operations per pass (rows for sweeps, trajectories for dynamics)."""

    name = ""
    rows = 0
    ops = 0

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Callable[[], object]]:
        """The package calls of one pass, in order; each is timed on its own."""
        raise NotImplementedError

    def outputs(self, results: list) -> list:
        """Checkable outputs of a pass from the calls' return values."""
        return results

    def check(self, outputs: list, notes: list[str]) -> int:
        """Failed operations among the `ops` of one pass's outputs."""
        raise NotImplementedError


class CliWorkload(Workload):
    def argvs(self) -> list[tuple[list[str], Path]]:
        raise NotImplementedError

    def calls(self) -> list[Callable[[], object]]:
        return [functools.partial(call_cli, argv) for argv, _ in self.argvs()]

    def outputs(self, results: list) -> list:
        for call, (_, path) in zip(results, self.argvs()):
            call.text = read_text(path)
        return results


class Figures(CliWorkload):
    """The four figure presets as sweeps, then validate on its default grid."""

    name = "figures"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        j = Jitter(seed)
        g2 = ("g2", "classification")
        self.sweeps = [
            SweepSpec("fig1", (2,), (0.0, j(0.1)), j(0.01), j(30.0), 300, "linear", g2),
            SweepSpec("fig2", (3,), (0.0, j(0.1)), j(0.01), j(30.0), 300, "linear", g2),
            SweepSpec("fig3", (7,), (0.0, j(0.1)), j(0.01), j(60.0), 300, "log", g2),
            SweepSpec("fig4", (2, 3, 7), (j(0.1),), j(0.001), j(20.0), 300, "log", ("ratio",)),
        ]
        self.report = work_dir / "validation_report.csv"
        self.rows = sum(s.rows for s in self.sweeps) + VALIDATE_ROWS
        self.ops = self.rows

    def sweep_argvs(self, jobs: int = 1) -> list[tuple[list[str], Path]]:
        paths = [self.work_dir / f"{s.name}.csv" for s in self.sweeps]
        return [(s.argv(p, jobs), p) for s, p in zip(self.sweeps, paths)]

    def argvs(self) -> list[tuple[list[str], Path]]:
        return self.sweep_argvs() + [(["validate", "--out", str(self.report)], self.report)]

    def warmup(self) -> None:
        for call in self.calls():
            call()

    def check(self, outputs: list, notes: list[str]) -> int:
        failed = sum(check_sweep(s, c, notes) for s, c in zip(self.sweeps, outputs))
        return failed + check_validate(outputs[-1], notes)


def check_validate(call: Call, notes: list[str]) -> int:
    """Failed report rows: each `exact` value against the oracle, no failed
    status, and the 42 rows of the default grid."""
    if call.code != 0 or "overall: PASS" not in call.stdout:
        notes.append(f"validate: exit {call.code!r}: {call.stderr.strip()[:200]}")
        return VALIDATE_ROWS
    lines = list(csv.reader(io.StringIO(call.text)))
    if not lines or lines[0] != REPORT_HEADER:
        notes.append(f"validate: bad header {lines[:1]!r}")
        return VALIDATE_ROWS
    body = lines[1:]
    failed = abs(len(body) - VALIDATE_ROWS)
    if failed:
        notes.append(f"validate: {len(body)} rows, expected {VALIDATE_ROWS}")
    for cells in body:
        if not _report_row_ok(cells):
            failed += 1
            notes.append(f"validate: row {cells} disagrees with the oracle")
    return failed


def _report_row_ok(cells: list[str]) -> bool:
    if len(cells) != len(REPORT_HEADER) or cells[7] not in ("ok", "info", "skipped"):
        return False
    try:
        formula, n, eta, x = cells[0], int(cells[1]), float(cells[2]), float(cells[3])
    except ValueError:
        return False
    tol = oracle.sweep_tolerance(n, x)
    try:
        if formula in ("eq15_strong", "eq15_weak", "eq17"):
            want = oracle.g2_value(n, eta, x)
        elif formula in ("eq18_ratio", "eq20"):
            want = oracle.ratio_value(n, eta, x)
        elif formula == "eq16_coeff":
            g2_eta, g2_0 = oracle.g2_value(n, eta, x), oracle.g2_value(n, 0.0, x)
            want = (g2_eta - g2_0) / eta**2
            # the finite difference loses the digits g2 and its change share
            tol = 1e-10 + 2.0 * tol * g2_0 / abs(g2_eta - g2_0)
        else:
            return False
    except ArithmeticError:
        return cells[7] == "skipped" and cells[4] == ""
    return cells[7] != "skipped" and _close(cells[4], want, tol)


class LargeNSweep(CliWorkload):
    """One sweep at N = 1e4 and 1e5 with every output column."""

    name = "large_n_sweep"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        j = Jitter(seed)
        self.spec = SweepSpec("large_n", (10_000, 100_000), (j(-0.1), 0.0, j(0.1)),
                              j(1e-3), j(1e3), 10, "log",
                              ("g1", "g2", "ratio", "classification"))
        self.rows = self.ops = self.spec.rows

    def argvs(self) -> list[tuple[list[str], Path]]:
        path = self.work_dir / "large_n.csv"
        return [(self.spec.argv(path), path)]

    def warmup(self) -> None:
        small = SweepSpec("warmup", (100,), (0.0, 0.1), 1e-3, 1e3, 3, "log",
                          self.spec.outputs)
        call_cli(small.argv(self.work_dir / "warmup.csv"))

    def check(self, outputs: list, notes: list[str]) -> int:
        return check_sweep(self.spec, outputs[0], notes)


class RelaxSmall(Workload):
    """Relaxation of the inverted state to the Gibbs state, N = 1..5, through
    `integrate` with an explicit step."""

    name = "relax_small"
    X, T_END, STEP, SAMPLES = 10.0, 200.0, 0.02, 11

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        j = Jitter(seed)
        self.cases = [(n, 0.0 if n == 1 else j(0.1)) for n in range(1, 6)]
        self.rows = len(self.cases) * self.SAMPLES
        self.ops = len(self.cases)

    def _trajectory(self, n: int, eta: float, t_end: float, samples: int):
        params = core.EnsembleParams(n, eta, self.X)
        rho0 = dynamics.initial_state(params, "inverted")
        return dynamics.integrate(rho0, t_end, params,
                                  ctrl=dynamics.StepControl(h=self.STEP), n_samples=samples)

    def warmup(self) -> None:
        self._trajectory(2, 0.1, 10 * self.STEP, 2)

    def _safe_trajectory(self, n: int, eta: float):
        try:
            traj = self._trajectory(n, eta, self.T_END, self.SAMPLES)
            return traj.final_trace_distance, np.array(traj.states)
        except Exception as exc:  # an escaped exception fails the trajectory
            return f"{type(exc).__name__}: {exc}"

    def calls(self) -> list[Callable[[], object]]:
        return [functools.partial(self._safe_trajectory, n, eta) for n, eta in self.cases]

    def check(self, outputs: list, notes: list[str]) -> int:
        failed = 0
        for (n, eta), out in zip(self.cases, outputs):
            if isinstance(out, str):
                notes.append(f"relax N={n}: {out}")
                failed += 1
                continue
            final_td, states = out
            rho0 = np.zeros((n + 1, n + 1), dtype=complex)
            rho0[-1, -1] = 1.0
            exact = oracle.trajectory(rho0, n, eta, self.X, self.T_END, self.SAMPLES)
            gibbs = np.diag(oracle.gibbs_populations(n, eta, self.X))
            err = float(np.max(np.abs(states - exact)))
            td = oracle.trace_distance(states[-1], gibbs)
            if not (err <= STATE_TOL and final_td <= RELAX_GATE and td <= RELAX_GATE):
                notes.append(f"relax N={n}: state error {err:.3e}, reported trace "
                             f"distance {final_td:.3e}, oracle trace distance {td:.3e}")
                failed += 1
        return failed


class EvolveN20(CliWorkload):
    """`evolve` at N = 20 with the default step, writing CSV and sidecar."""

    name = "evolve_n20"
    N, X, T_END, SAMPLES = 20, 1.0, 0.2, 201

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.eta = Jitter(seed)(0.1)
        self.rows = self.SAMPLES
        self.ops = 1

    def _argv(self, n: int, t_end: float, samples: int, path: Path) -> list[str]:
        return ["evolve", "--n", str(n), f"--eta={self.eta!r}", "--x", repr(self.X),
                "--t-end", repr(t_end), "--samples", str(samples), "--out", str(path)]

    def argvs(self) -> list[tuple[list[str], Path]]:
        path = self.work_dir / "evolve_n20.csv"
        return [(self._argv(self.N, self.T_END, self.SAMPLES, path), path)]

    def warmup(self) -> None:
        call_cli(self._argv(2, 0.01, 3, self.work_dir / "warmup.csv"))

    def check(self, outputs: list, notes: list[str]) -> int:
        call = outputs[0]
        if call.code != 0:
            notes.append(f"evolve: exit {call.code!r}: {call.stderr.strip()[:200]}")
            return 1
        n, d = self.N, self.N + 1
        lines = list(csv.reader(io.StringIO(call.text)))
        header = ["t", "trace", "herm_defect", "min_eig", "trace_dist_to_gibbs"]
        header += [f"p_{k}" for k in range(d)]
        if not lines or lines[0] != header or len(lines) != self.SAMPLES + 1:
            notes.append(f"evolve: bad header or {len(lines) - 1} rows")
            return 1
        try:
            data = np.array([[float(c) for c in row] for row in lines[1:]])
        except ValueError as exc:
            notes.append(f"evolve: unparsable cell: {exc}")
            return 1
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[-1, -1] = 1.0
        exact = oracle.trajectory(rho0, n, self.eta, self.X, self.T_END, self.SAMPLES)
        gibbs = np.diag(oracle.gibbs_populations(n, self.eta, self.X))
        want = {
            "t": np.linspace(0.0, self.T_END, self.SAMPLES),
            "trace": np.ones(self.SAMPLES),
            "min_eig": np.array([np.linalg.eigvalsh(r).min() for r in exact]),
            "trace_dist_to_gibbs": np.array([oracle.trace_distance(r, gibbs) for r in exact]),
        }
        errors = {key: float(np.max(np.abs(data[:, header.index(key)] - value)))
                  for key, value in want.items()}
        errors["populations"] = float(np.max(np.abs(
            data[:, 5:] - np.real(np.einsum("skk->sk", exact)))))
        errors["herm_defect"] = float(np.max(np.abs(data[:, 2])))
        bad = {k: v for k, v in errors.items() if not v <= STATE_TOL}
        if bad:
            notes.append(f"evolve: deviations beyond {STATE_TOL:g}: {bad}")
            return 1
        return 0


WORKLOADS = {w.name: w for w in (Figures, LargeNSweep, RelaxSmall, EvolveN20)}
