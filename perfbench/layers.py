"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  Every target reports `<target>.calls` and
`<target>.self_s` (span time minus child-span time, seconds per pass).
Helpers that are not wrapped (format_number, build_parser, _log_sums,
_rk4_step, ...) count toward the self time of their nearest wrapped
caller; that is what the self times below are meant to isolate.
"""

from __future__ import annotations

from pathlib import Path

TARGETS = [
    "core.build_spectrum",
    "core.thermal_state",
    "core.ladder_coefficients",
    "correlators.steady_state_correlators",
    "correlators.g2_zero",
    "correlators.intensity_ratio",
    "asymptotics.validate_asymptotics",
    "sweep.run_sweep",
    "sweep.evaluate_point",
    "sweep.report_to_csv",
    "sweep.write_sidecar",
    "dynamics.integrate",
    "dynamics.ThermalLiouvillian.apply",
    "dynamics.trace_distance",
    "dynamics.initial_state",
    "dynamics.default_step",
    "cli.main",
]

APPLY = "dynamics.ThermalLiouvillian.apply"

# metrics beyond <target>.calls / .self_s, with units; 0 where the base
# count is 0 on a workload (e.g. dynamics metrics on a sweep)
DERIVED = {
    f"{APPLY}.mean_us": "us",
    "core.spectrum_reuse": "ratio",
    "correlators.ns_per_term": "ns",
    "correlators.ratio_ref_evals": "count",
    "correlators.ratio_ref_distinct": "count",
    "correlators.zero_intensity": "count",
    "asymptotics.checks": "count",
    "sweep.bytes_written": "B",
    "sweep.pool_speedup": "ratio",
    "dynamics.apply.flops_computed": "flop",
    "dynamics.apply.bytes_computed": "B",
    "dynamics.steps": "count",
    "dynamics.h_used": "1/Gamma0",
    "cli.import_numpy_s": "s",
    "cli.import_own_s": "s",
    "trace.overhead_ratio": "ratio",
}


def unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    return DERIVED[name]


# -- probes: (tracer, args, kwargs, result, exception, parent span name) --


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _zero_intensity(tr, exc) -> None:
    if exc is not None and type(exc).__name__ == "ZeroIntensity":
        tr.counts["zero_intensity"] += 1


def _build_spectrum(tr, args, kwargs, result, exc, parent) -> None:
    params = _arg(args, kwargs, 0, "params")
    tr.sets["spectra"].add((params.n_atoms, params.eta))
    if parent == "correlators.intensity_ratio" and params.eta == 0.0:
        tr.counts["ratio_ref_evals"] += 1
        tr.sets["ratio_refs"].add((params.n_atoms, params.x))


def _g2_zero(tr, args, kwargs, result, exc, parent) -> None:
    tr.counts["ladder_terms"] += _arg(args, kwargs, 0, "state").log_weights.size
    _zero_intensity(tr, exc)


def _intensity_ratio(tr, args, kwargs, result, exc, parent) -> None:
    _zero_intensity(tr, exc)


def _validate(tr, args, kwargs, result, exc, parent) -> None:
    if result is not None:
        tr.counts["checks"] += len(result.checks)


def _run_sweep(tr, args, kwargs, result, exc, parent) -> None:
    if exc is None:
        tr.counts["bytes_written"] += Path(_arg(args, kwargs, 1, "out_path")).stat().st_size


def _apply(tr, args, kwargs, result, exc, parent) -> None:
    d = args[0].dim
    # dense algorithm as written: six complex matmuls (8 flops per complex
    # multiply-add) plus eight elementwise passes; bytes count each operand
    # read and result written once, including the real->complex upcasts
    tr.counts["apply_flops"] += 48 * d**3 + 15 * d**2
    tr.counts["apply_bytes"] += 752 * d**2
    if parent == "dynamics.integrate":
        tr.counts["integrate_applies"] += 1


def _integrate(tr, args, kwargs, result, exc, parent) -> None:
    if exc is None:
        tr.counts["t_integrated"] += _arg(args, kwargs, 1, "t_end")


PROBES = {
    "core.build_spectrum": _build_spectrum,
    "correlators.g2_zero": _g2_zero,
    "correlators.intensity_ratio": _intensity_ratio,
    "asymptotics.validate_asymptotics": _validate,
    "sweep.run_sweep": _run_sweep,
    APPLY: _apply,
    "dynamics.integrate": _integrate,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(tr) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the tracer was reset before it)."""
    out: dict[str, float] = {}
    for t in TARGETS:
        out[f"{t}.calls"] = tr.calls.get(t, 0)
        out[f"{t}.self_s"] = tr.self_s.get(t, 0.0)
    c = tr.counts
    n_apply = tr.calls.get(APPLY, 0)
    steps = c["integrate_applies"] / 4  # RK4: four right-hand sides per step
    out[f"{APPLY}.mean_us"] = _ratio(tr.total_s.get(APPLY, 0.0) * 1e6, n_apply)
    out["core.spectrum_reuse"] = _ratio(len(tr.sets["spectra"]),
                                        tr.calls.get("core.build_spectrum", 0))
    out["correlators.ns_per_term"] = _ratio(
        tr.self_s.get("correlators.g2_zero", 0.0) * 1e9, c["ladder_terms"])
    out["correlators.ratio_ref_evals"] = c["ratio_ref_evals"]
    out["correlators.ratio_ref_distinct"] = len(tr.sets["ratio_refs"])
    out["correlators.zero_intensity"] = c["zero_intensity"]
    out["asymptotics.checks"] = c["checks"]
    out["sweep.bytes_written"] = c["bytes_written"]
    out["dynamics.apply.flops_computed"] = _ratio(c["apply_flops"], n_apply)
    out["dynamics.apply.bytes_computed"] = _ratio(c["apply_bytes"], n_apply)
    out["dynamics.steps"] = steps
    out["dynamics.h_used"] = _ratio(c["t_integrated"], steps)
    return out
