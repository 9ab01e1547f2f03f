"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the repository root.  It repeats passes of the workload for
--seconds, timing each package call on its own (see HostSpeed).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  Either way
it checks every output against the oracle, writes a results file with the
run metadata under .perfbench/, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

It exits nonzero without a result line when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# fresh interpreters timed per run for setup_s, after one that is not
# counted, and the numpy-only start-up time they are rescaled to
SETUP_REPEATS = 7
SETUP_REF_S = 0.2
SETUP_CHILD = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import dicke_therm.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
# HostSpeed: least kernel runs per probe, least probe length as a share of
# the call before it, the kernel time of the speed times are rescaled to,
# and the exponent of that rescaling
REF_REPS = 30
REF_SHARE = 0.1
REF_S = 1.5e-3
REF_EXPONENT = 0.75
# before each probe, wait in steps of SETTLE_POLL_S (for at most SETTLE_MAX_S)
# until this process's other threads use under SETTLE_BUSY of a CPU and its
# child processes have ended
SETTLE_POLL_S = 2e-3
SETTLE_MAX_S = 2.0
SETTLE_BUSY = 0.1
# `figures` sweeps timed at --jobs 1 and --jobs 2 for sweep.pool_speedup
POOL_REPEATS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "large_n_sweep", "relax_small", "evolve_n20"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dicke_therm" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = measure_setup()
    speed = HostSpeed()
    import workloads  # imports the package, so only after the path is set

    work = workloads.WORKLOADS[args.workload](args.seed, OUT / "work" / args.workload)
    work.warmup()
    log = OutputLog()
    run = traced_run if args.trace else untraced_run
    metrics, extra = run(work, args, log, setup, speed)
    extra["host_speed_probe_s"] = statistics.median(speed.samples)
    extra["probe_after_over_before"] = statistics.median(speed.after_over_before)
    extra["settle_s"] = speed.settle_s
    extra["settle_capped"] = speed.settle_capped

    notes: list[str] = []
    attempted, failed = log.verify(notes)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **result, **extra, "failures": notes[:50],
        "metadata": run_metadata(args.seed),
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class HostSpeed:
    """How fast this host runs Python right now.

    A probe runs a fixed kernel (a Python loop around small numpy products,
    like the package's hot loops) at least REF_REPS times and for at least
    REF_SHARE of the time of the call before it, and returns the median
    kernel time.  On a shared host, contention from other tenants changes
    over seconds and slows the kernel and the package's calls alike, the
    calls somewhat less (log-log slopes of 0.6 to 1.0), so each call's wall
    time is multiplied by (REF_S / p) ** REF_EXPONENT, where p is the mean
    of the probes just before and just after it.  The raw times are kept in
    the results file.

    A call could leave work behind that slows the probe after it, and so
    be credited with a speed-up: BLAS worker threads still spinning, a
    process pool shutting down.  So each probe first waits until the
    process's other threads are idle and its child processes have ended
    (see settle).  The median ratio of after-probe to before-probe, which
    such left-over work would raise, and the time spent waiting are kept
    in the results file.
    """

    def __init__(self):
        import numpy as np

        self._a = np.ones((6, 6), dtype=complex)
        self._b = np.ones((6, 6))
        self.samples: list[float] = []
        self.after_over_before: list[float] = []
        self.settle_s = 0.0
        self.settle_capped = 0
        self.probe(0.0)

    def settle(self) -> None:
        start = time.perf_counter()
        while True:
            others = time.process_time() - time.thread_time()
            time.sleep(SETTLE_POLL_S)
            busy = time.process_time() - time.thread_time() - others
            children = multiprocessing.active_children()  # also reaps ended ones
            if busy < SETTLE_BUSY * SETTLE_POLL_S and not children:
                break
            if time.perf_counter() - start > SETTLE_MAX_S:
                self.settle_capped += 1
                break
        self.settle_s += time.perf_counter() - start

    def probe(self, after_s: float) -> float:
        self.settle()
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < REF_REPS or time.perf_counter() - start < REF_SHARE * after_s:
            t0 = time.perf_counter()
            _kernel(self._a, self._b)
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def timed(self, call):
        """(result, raw seconds, rescaled seconds) of call()."""
        before = self.samples[-1]
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        after = self.probe(wall)
        self.after_over_before.append(after / before)
        return result, wall, wall * (REF_S * 2.0 / (before + after)) ** REF_EXPONENT


def _kernel(a, b) -> float:
    s = 0.0
    for i in range(400):
        s += float((b @ a)[0, 0].real) + 0.5 * i
    return s


def run_pass(work, speed: HostSpeed) -> tuple[list[float], list[float], list]:
    """One pass: raw and rescaled wall time of each call, and the outputs."""
    raw, scaled, results = [], [], []
    for call in work.calls():
        result, wall, norm = speed.timed(call)
        results.append(result)
        raw.append(wall)
        scaled.append(norm)
    return raw, scaled, work.outputs(results)


def measure_setup() -> dict:
    """CLI cold start: fresh interpreters importing dicke_therm.cli, each
    between two fresh interpreters importing numpy alone.

    Process start-up slows with contention that the HostSpeed probe does
    not see, so each cold start is multiplied by (SETUP_REF_S / q) **
    REF_EXPONENT, where q is the mean wall time of its two numpy-only
    neighbours, which do the same kind of work.  A change to what the CLI
    imports shows in full; the numpy-only start is not the package's to
    change.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def child(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return time.perf_counter() - t0, proc.stdout

    child(SETUP_CHILD)  # writes the bytecode caches of a fresh checkout
    raw, scaled, numpy_s, own_s = [], [], [], []
    before, _ = child("import numpy")
    for _ in range(SETUP_REPEATS):
        wall, out = child(SETUP_CHILD)
        after, _ = child("import numpy")
        a, b = map(float, out.split())
        raw.append(wall)
        scaled.append(wall * (SETUP_REF_S * 2.0 / (before + after)) ** REF_EXPONENT)
        numpy_s.append(a)
        own_s.append(b)
        before = after
    return {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(raw),
            "import_numpy_s": statistics.median(numpy_s),
            "import_own_s": statistics.median(own_s),
            "setup_walls": scaled, "raw_setup_walls": raw}


def pass_time(scaled: list[list[float]]) -> float:
    """Time of one pass: per call, the median of its rescaled times over the
    passes, summed over the calls of a pass."""
    return sum(statistics.median(column) for column in zip(*scaled))


def untraced_run(work, args, log, setup, speed) -> tuple[dict, dict]:
    raw, scaled = [], []
    start = time.perf_counter()
    while not raw or time.perf_counter() - start < args.seconds:
        raw_walls, walls, outputs = run_pass(work, speed)
        raw.append(raw_walls)
        scaled.append(walls)
        log.add(outputs, work.ops, work.check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = pass_time(scaled)
    metrics = {
        "setup_s": metric(setup["setup_s"], "s"),
        "wall_s": metric(wall_s, "s"),
        "points_per_s": metric(work.rows / wall_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, {"passes": len(raw), "rows_per_pass": work.rows,
                     "raw_wall_s": pass_time(raw), "raw_setup_s": setup["raw_setup_s"],
                     "call_walls": scaled, "raw_call_walls": raw,
                     "setup_walls": setup["setup_walls"],
                     "raw_setup_walls": setup["raw_setup_walls"]}


def traced_run(work, args, log, setup, speed) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer

    tracer = Tracer(layers.TARGETS, layers.PROBES)
    plain, traced, stats = [], [], []
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < args.seconds:
        if len(plain) <= len(traced):
            _, walls, outputs = run_pass(work, speed)
            plain.append(walls)
        else:
            tracer.reset(f"{work.name}-seed{args.seed}-pass{len(plain) + len(traced)}")
            tracer.install()
            try:
                _, walls, outputs = run_pass(work, speed)
            finally:
                tracer.uninstall()
            traced.append(walls)
            stats.append(layers.pass_metrics(tracer))
        log.add(outputs, work.ops, work.check)

    per_layer = {name: statistics.median(s[name] for s in stats) for name in stats[0]}
    per_layer["cli.import_numpy_s"] = setup["import_numpy_s"]
    per_layer["cli.import_own_s"] = setup["import_own_s"]
    per_layer["trace.overhead_ratio"] = pass_time(traced) / pass_time(plain)
    per_layer["sweep.pool_speedup"] = (
        pool_speedup(work, log) if work.name == "figures" else 0.0)
    metrics = {name: metric(value, layers.unit(name)) for name, value in per_layer.items()}
    # one file per workload, overwritten by its next traced run: a traced
    # run keeps every span, up to about 25 MB of CSV
    spans_path = OUT / "spans" / f"{work.name}.csv"
    tracer.write_spans(spans_path)
    return metrics, {"untraced_walls": plain, "traced_walls": traced,
                     "spans_file": str(spans_path.relative_to(ROOT)),
                     "spans": tracer.span_count}


def pool_speedup(work, log) -> float:
    """Median wall of the figure sweeps at --jobs 1 over that at --jobs 2.

    Runs untraced, on raw wall times: the host-speed rescaling models one
    busy thread, not a pool of two processes.  The sweep outputs are
    checked like any other.
    """
    import workloads

    def check(outputs, notes):
        return sum(workloads.check_sweep(s, c, notes) for s, c in zip(work.sweeps, outputs))

    rows = sum(s.rows for s in work.sweeps)
    walls: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for jobs in (1, 2):
            calls, total = [], 0.0
            for argv, path in work.sweep_argvs(jobs):
                t0 = time.perf_counter()
                call = workloads.call_cli(argv)
                total += time.perf_counter() - t0
                call.text = workloads.read_text(path)
                calls.append(call)
            walls[jobs].append(total)
            log.add(calls, rows, check)
    return statistics.median(walls[1]) / statistics.median(walls[2])


class OutputLog:
    """Outputs of every pass, kept once per distinct content and checked
    after the timed loop, so checking never runs inside a timed pass."""

    def __init__(self):
        self._seen: dict[tuple, list] = {}

    def add(self, outputs, ops: int, check) -> None:
        key = (check.__qualname__, ops, _digest(outputs))
        if key in self._seen:
            self._seen[key][0] += 1
        else:
            self._seen[key] = [1, outputs, ops, check]

    def verify(self, notes: list[str]) -> tuple[int, int]:
        attempted = failed = 0
        for count, outputs, ops, check in self._seen.values():
            attempted += ops * count
            failed += min(ops, check(outputs, notes)) * count
        return attempted, failed


def _digest(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, (list, tuple)):
            h.update(b"[")
            for item in o:
                feed(item)
            h.update(b"]")
        elif hasattr(o, "tobytes"):
            h.update(repr((o.dtype.str, o.shape)).encode())
            h.update(o.tobytes())
        elif hasattr(o, "__dict__"):
            feed(sorted(vars(o).items()))
        else:
            h.update(repr(o).encode())
            h.update(b"\0")

    feed(obj)
    return h.hexdigest()


def run_metadata(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out: dict[str, str] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
