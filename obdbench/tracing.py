"""Spans around the calls into each layer of ``obd``, from the benchmark's side.

``install`` replaces public functions at the names their callers look up
with wrappers that record a span (name, start, end, parent).  Spans are kept
in memory and written out once the run is over.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the workload runs in one thread.  The per-layer metrics and
their units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

# (module, attribute, span name).  Two bindings of one function get the same
# span name; each wraps the original, so a call is never counted twice.
WRAPPED = [
    ("obd.harness", "run", "harness.run"),
    ("obd.harness", "audit_theorem1", "harness.audit"),
    ("obd.harness", "audit_theorem3", "harness.audit"),
    ("obd.harness", "offline_opt", "offline.offline_opt"),
    ("obd.harness", "offline_opt_constrained", "offline.offline_opt_constrained"),
    ("obd.harness", "static_opt", "offline.static_opt"),
    ("obd.harness", "generate_instance", "costs.generate_instance"),
    ("obd.algorithms", "primal_obd_step", "algorithms.primal_obd_step"),
    ("obd.algorithms", "dual_obd_step", "algorithms.dual_obd_step"),
    ("obd.algorithms", "project_sublevel", "projection.project_sublevel"),
    ("obd.algorithms", "solve_regularized", "projection.solve_regularized"),
    # the solve nested inside offline_opt_constrained looks offline_opt up here
    ("obd.offline", "offline_opt", "offline.offline_opt"),
    # called by the benchmark itself
    ("obd.offline", "grid_dp_oracle", "offline.grid_dp_oracle"),
    ("obd.costs", "generate_instance", "costs.generate_instance"),
    ("obd.cli", "run_cli", "cli.run_cli"),
]

OFFLINE_SOLVES = ("offline.offline_opt", "offline.offline_opt_constrained",
                  "offline.static_opt", "offline.grid_dp_oracle")

# name -> unit, in the order of the printed metrics
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def _value_of(name: str, result):
    """The per-call figure a span keeps besides its times."""
    if name == "projection.project_sublevel":
        return int(result.iterations)
    if name in OFFLINE_SOLVES:
        return bool(result.converged)
    return None


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_time, value]
        self.stack: list[int] = []
        self.active = False
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span[1], span[2] = start, end
            if parent >= 0:
                self.spans[parent][4] += end - start
        span[5] = _value_of(name, result)
        return result

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _, value) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "value": value}) + "\n")

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric of ``PER_LAYER``, 0 for a layer never called."""
        durs: dict[str, list] = {}
        self_s: dict[str, float] = {}
        values: dict[str, list] = {}
        for name, start, end, _, child, value in self.spans:
            durs.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            values.setdefault(name, []).append(value)

        def calls(n):
            return len(durs.get(n, ()))

        def pct(n, q, scale):
            d = durs.get(n)
            if not d:
                return 0.0
            if q == 50 or len(d) < 2:
                return statistics.median(d) * scale
            return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * scale

        steps = calls("algorithms.primal_obd_step") + calls("algorithms.dual_obd_step")
        solves = [v for n in OFFLINE_SOLVES for v in values.get(n, ())]
        out = {
            "algorithms.primal_obd_step.calls": calls("algorithms.primal_obd_step"),
            "algorithms.primal_obd_step.p50_ms": pct("algorithms.primal_obd_step", 50, 1e3),
            "algorithms.primal_obd_step.p99_ms": pct("algorithms.primal_obd_step", 99, 1e3),
            "algorithms.sublevel_calls_per_step":
                calls("projection.project_sublevel") / steps if steps else 0.0,
            "algorithms.dual_obd_step.calls": calls("algorithms.dual_obd_step"),
            "algorithms.dual_obd_step.p50_ms": pct("algorithms.dual_obd_step", 50, 1e3),
            "projection.project_sublevel.calls": calls("projection.project_sublevel"),
            "projection.project_sublevel.p50_us": pct("projection.project_sublevel", 50, 1e6),
            "projection.project_sublevel.iterations":
                sum(values.get("projection.project_sublevel", ())),
            "projection.solve_regularized.calls": calls("projection.solve_regularized"),
            "offline.offline_opt.calls": calls("offline.offline_opt"),
            "offline.offline_opt.p50_s": pct("offline.offline_opt", 50, 1.0),
            "offline.offline_opt_constrained.calls": calls("offline.offline_opt_constrained"),
            "offline.offline_opt_constrained.p50_s":
                pct("offline.offline_opt_constrained", 50, 1.0),
            "offline.static_opt.calls": calls("offline.static_opt"),
            "offline.grid_dp_oracle.calls": calls("offline.grid_dp_oracle"),
            "offline.converged_ratio": sum(solves) / len(solves) if solves else 0.0,
            "harness.run.calls": calls("harness.run"),
            "costs.generate_instance.calls": calls("costs.generate_instance"),
            "trace.overhead_s": overhead_s,
        }
        for metric in PER_LAYER:
            if metric.endswith(".self_s"):
                out[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
        return {name: {"value": out[name], "unit": unit}
                for name, unit in PER_LAYER.items()}
