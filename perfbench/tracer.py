"""In-memory span tracing of the package, done from outside it.

`Tracer.install` replaces each traced function with a wrapper by rebinding
every module-level name that refers to it in the loaded `dicke_therm`
modules (methods are rebound on their class); `uninstall` puts the
originals back, so untraced code runs exactly the program's own path.
Nothing under src/ is edited.

Each call becomes a span (run id, span id, parent span id, name, start,
end).  Calls and self time (span minus its child spans) accumulate per
name as the spans close; every raw span is kept in memory, in compact
columns, and written out by `write_spans` when the run ends.  Probes see
each call's arguments, result, exception and parent name, and feed extra
counters.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

PACKAGE = "dicke_therm"


class Tracer:
    def __init__(self, targets: list[str], probes: dict | None = None):
        """targets: "module.function" or "module.Class.method", module
        relative to the package (e.g. "dynamics.ThermalLiouvillian.apply")."""
        self.targets = list(targets)
        self.probes = probes or {}
        # the spans, one column each: run id and name as indexes into
        # run_ids and targets, span and parent ids, start and end times
        self.run_ids: list[str] = []
        self._span_run = array("I")
        self._span_name = array("I")
        self._span_id = array("Q")
        self._span_parent = array("Q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.reset("")

    @property
    def span_count(self) -> int:
        return len(self._span_id)

    def reset(self, run_id: str) -> None:
        """Start a run: clear the per-name totals and probe state, and tag
        the spans that follow with run_id (earlier spans are kept)."""
        self.run_ids.append(run_id)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.sets: dict[str, set] = defaultdict(set)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            mod_name, _, attr = target.partition(".")
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        probe = self.probes.get(name)
        tracer = self
        name_index = self.targets.index(name)
        run_ids = self.run_ids
        add_run, add_name = self._span_run.append, self._span_name.append
        add_id, add_parent = self._span_id.append, self._span_parent.append
        add_start, add_end = self._span_start.append, self._span_end.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0, name]  # span id, time in child spans, name
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
                tracer.total_s[name] += t1 - t0
                add_run(len(run_ids) - 1)
                add_name(name_index)
                add_id(frame[0])
                add_parent(parent[0] if parent else 0)
                add_start(t0)
                add_end(t1)
                if probe is not None:
                    probe(tracer, args, kwargs, result, exc, parent[2] if parent else None)
                if parent is not None:
                    # the probe and the bookkeeping above are charged to this
                    # span's wrapper, not to the parent's self time
                    parent[1] += clock() - t0

        return wrapper

    def write_spans(self, path: Path) -> None:
        """CSV of every span; times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min(self._span_start, default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for run, name, sid, pid, t0, t1 in zip(
                    self._span_run, self._span_name, self._span_id, self._span_parent,
                    self._span_start, self._span_end):
                fh.write(f"{self.run_ids[run]},{sid},{pid},{self.targets[name]},"
                         f"{round((t0 - base) * 1e9)},{round((t1 - base) * 1e9)}\n")
