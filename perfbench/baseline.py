"""Run the benchmark over several seeds and summarise it into BENCH_<label>.json.

    python3 perfbench/baseline.py                      # every workload, 1 seed
    python3 perfbench/baseline.py --runs 10 --label baseline \
        --out perfbench/baseline/BENCH_baseline.json

Run from the repository root.  For each workload it runs perfbench/run.py
for BENCHMARK.json's run_seconds, untraced once per seed (seeds first-seed,
first-seed+1, ...) and traced once at first-seed, then prints every metric
with its unit: the median, the quartiles and the quartile spread as a share
of the median, marked `!` where the spread exceeds a third of the metric's
bound in BENCHMARK.json.  The `raw` rows are the unrescaled wall and set-up
times, the host-speed probe, the ratio of the probe after each call to the
one before it (above 1 if calls leave work behind that slows the probe)
and the time spent waiting for the process to settle before probes (see
run.py).  Two BENCH_*.json files from the same machine diff metric by
metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
# diagnostics read from the untraced runs' results files
RAW_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "host_speed_probe_s": "s",
             "probe_after_over_before": "ratio", "settle_s": "s"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results_file(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=1, help="untraced runs (seeds) per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", default=None, help="default .perfbench/BENCH_<label>.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"label": args.label, "run_seconds": seconds, "runs": args.runs,
           "first_seed": args.first_seed, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        entry = {"attempted": 0, "failed": 0, "correct": True, "end_to_end": {}, "per_layer": {},
                 "raw": {}}
        for kind, run_seeds, trace in (("end_to_end", seeds, 0),
                                       ("per_layer", [args.first_seed], 1)):
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in run_seeds:
                t0 = time.perf_counter()
                res = run_once(workload, seed, seconds, trace)
                print(f"# {workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      file=sys.stderr)
                entry["attempted"] += res["attempted"]
                entry["failed"] += res["failed"]
                entry["correct"] = entry["correct"] and res["correct"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                if trace == 0:
                    record = results_file(workload, seed, trace)
                    for key in RAW_UNITS:
                        entry["raw"].setdefault(key, []).append(record[key])
            for name, vals in values.items():
                entry[kind][name] = {"unit": units[name], **summarise(vals)}
        entry["raw"] = {key: {"unit": RAW_UNITS[key], **summarise(vals)}
                        for key, vals in entry["raw"].items()}
        doc["workloads"][workload] = entry
        ok = ok and entry["correct"]
        print_entry(workload, entry, bounds)

    doc["metadata"] = results_file(workload, args.first_seed, 0 if args.runs else 1)["metadata"]
    out = Path(args.out) if args.out else ROOT / ".perfbench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0 if ok else 1


def print_entry(workload: str, entry: dict, bounds: dict) -> None:
    print(f"\n{workload}: correct={entry['correct']} "
          f"failed {entry['failed']} of {entry['attempted']} operations")
    for kind in ("end_to_end", "raw", "per_layer"):
        for name, s in entry[kind].items():
            spread = s.get("spread")
            flag = ""
            if spread is not None and name in bounds and name != "setup_s":
                flag = " !" if spread > bounds[name] / 3 else ""
            quart = f"  [{s['q1']:.6g}, {s['q3']:.6g}] spread {spread:.4f}{flag}" \
                if spread is not None else ""
            print(f"  {kind:<10} {name:<48} {s['median']:>14.6g} {s['unit']:<9}{quart}")


if __name__ == "__main__":
    sys.exit(main())
