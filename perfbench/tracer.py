"""Per-layer spans recorded from the benchmark's side.

`Tracer.install` replaces module-level functions of berrygate, three class
methods and the entries of the check registry with wrappers that time each
call.  A layer's self time is its span minus the spans of its children.  Spans are
aggregated in memory per name, in the worker process that runs the program,
and handed to the benchmark when the run ends.  A function
that no longer exists under its name is reported as absent; its metrics are
left out and the run goes on.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (module, attribute or Class.method, span name).  Counts are attached in
# `_COUNTERS` below.
SPANS = [
    ("berrygate.engine", "propagate_sampled", "engine.propagate_sampled"),
    ("berrygate.engine", "rk4_transition_matrices", "engine.rk4_transition_matrices"),
    ("berrygate.engine", "_check_spread", "engine._check_spread"),
    ("berrygate.sequences", "_h1q_stack", "sequences._h1q_stack"),
    ("berrygate.sequences", "_h2q_stack", "sequences._h2q_stack"),
    ("berrygate.schedules", "Segment.controls_at", "schedules.Segment.controls_at"),
    ("berrygate.sequences", "_PhaseLedger.update", "sequences._PhaseLedger.update"),
    ("berrygate.sequences", "_PhaseLedger.after_pulse", "sequences._PhaseLedger.after_pulse"),
    ("berrygate.sequences", "_run_plan", "sequences._run_plan"),
    ("berrygate.phase", "geometric_phase_discrete", "phase.geometric_phase_discrete"),
    ("berrygate.bloch", "integrate_bloch", "bloch.integrate_bloch"),
    ("berrygate.schrodinger", "integrate_schrodinger", "schrodinger.integrate_schrodinger"),
    ("berrygate.sequences", "fault_tolerance_surface", "sequences.fault_tolerance_surface"),
    ("berrygate.sequences", "_locate_row_peak", "sequences._locate_row_peak"),
    ("berrygate.sequences", "write_surface_csv", "sequences.write_surface_csv"),
    ("berrygate.sequences", "write_peaks_csv", "sequences.write_peaks_csv"),
]
# Called ~10^6 times per sweep: counted, not timed.
COUNTED = [("berrygate.sequences", "delta_gamma", "sequences.delta_gamma")]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 2, "n_steps")), "samples": len(result[0])}


def _count_trajectory(args, kwargs, result):
    return {"steps": len(result.t) - 1}


def _count_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


_COUNTERS = {
    "engine.propagate_sampled": _count_steps,
    "sequences._h1q_stack": lambda a, k, r: {"matrices": len(r)},
    "sequences._h2q_stack": lambda a, k, r: {"matrices": len(r)},
    "schedules.Segment.controls_at": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "tau")))},
    "bloch.integrate_bloch": _count_trajectory,
    "schrodinger.integrate_schrodinger": _count_trajectory,
    "sequences.write_surface_csv": _count_written,
    "sequences.write_peaks_csv": _count_written,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # per open span: [child seconds]

    def _record(self, name: str, total: float, child: float, counts: dict) -> None:
        st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += total
        st["self_s"] += total - child
        for key, val in counts.items():
            st[key] = st.get(key, 0) + val

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += total
            self._record(name, total, frame[0], counter(args, kwargs, result) if counter else {})
            return result

        return traced

    def _wrap_counted(self, fn, name):
        st = self.stats.setdefault(name, {"calls": 0})

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, name, self._wrap)
        for module, attr, name in COUNTED:
            self._patch(module, attr, name, self._wrap_counted)
        registry = getattr(sys.modules.get("berrygate.checks"), "REGISTRY", {})
        for check in CHECK_NAMES:
            if callable(registry.get(check)):
                registry[check] = self._wrap(registry[check], f"checks.{check}")
            else:
                self.absent.append(f"checks.{check}")

    def _patch(self, module, attr, name, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, method, None) if owner is not None else None
        if not callable(fn):
            self.absent.append(name)
            return
        wrapped = make(fn, name)
        if owner_name:
            setattr(owner, method, wrapped)
            return
        # The function may also be bound by name in other modules
        # (`from .sequences import delta_gamma`); rebind it everywhere.
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "berrygate"]
        for other in [mod, *package]:
            for key, val in list(vars(other).items()):
                if val is fn:
                    setattr(other, key, wrapped)


CHECK_NAMES = [
    "pauli-algebra", "tensor-mixed-product", "propagator-unitarity",
    "bloch-norm-conservation", "precession-rate", "rotating-frame-equivalence",
    "z-generator-identity", "schrodinger-bloch-consistency", "energy-conservation",
    "uncoupled-factorization", "holonomy-gauge-invariance", "state-preparation-network",
    "cone-geometric-phase", "rate-independence", "solid-angle-law",
    "spin-echo-cancellation", "differential-shift-closed-form", "adiabaticity",
    "conditional-gate",
]

_H = ["sequences._h1q_stack", "sequences._h2q_stack"]
_CSV = ["sequences.write_surface_csv", "sequences.write_peaks_csv"]
# metric -> (unit, better, spans summed, statistic of the span)
LAYER_METRICS = {
    "engine.propagate_s": ("s", "lower", ["engine.propagate_sampled"], "total_s"),
    "engine.fold_s": ("s", "lower", ["engine.propagate_sampled"], "self_s"),
    "engine.step_maps_s": ("s", "lower", ["engine.rk4_transition_matrices"], "total_s"),
    "engine.step_check_s": ("s", "lower", ["engine._check_spread"], "total_s"),
    "engine.steps": ("count", "lower", ["engine.propagate_sampled"], "steps"),
    "engine.samples": ("count", "lower", ["engine.propagate_sampled"], "samples"),
    "sequences.hamiltonian_s": ("s", "lower", _H, "total_s"),
    "sequences.hamiltonian_matrices": ("count", "lower", _H, "matrices"),
    "schedules.controls_s": ("s", "lower", ["schedules.Segment.controls_at"], "total_s"),
    "schedules.control_points": ("count", "lower", ["schedules.Segment.controls_at"], "points"),
    "sequences.ledger_s": ("s", "lower", ["sequences._PhaseLedger.update",
                                          "sequences._PhaseLedger.after_pulse"], "total_s"),
    "sequences.plan_self_s": ("s", "lower", ["sequences._run_plan"], "self_s"),
    "phase.holonomy_s": ("s", "lower", ["phase.geometric_phase_discrete"], "total_s"),
    "bloch.integrate_s": ("s", "lower", ["bloch.integrate_bloch"], "total_s"),
    "bloch.steps": ("count", "lower", ["bloch.integrate_bloch"], "steps"),
    "schrodinger.integrate_s": ("s", "lower", ["schrodinger.integrate_schrodinger"], "total_s"),
    "schrodinger.steps": ("count", "lower", ["schrodinger.integrate_schrodinger"], "steps"),
    **{f"checks.{c}_s": ("s", "lower", [f"checks.{c}"], "total_s") for c in CHECK_NAMES},
    # Self time: the peak search inside it is `sequences.peak_search_s`.
    "sequences.surface_s": ("s", "lower", ["sequences.fault_tolerance_surface"], "self_s"),
    "sequences.peak_search_s": ("s", "lower", ["sequences._locate_row_peak"], "total_s"),
    "sequences.delta_gamma_calls": ("count", "lower", ["sequences.delta_gamma"], "calls"),
    "sequences.csv_write_s": ("s", "lower", _CSV, "total_s"),
    "sequences.csv_bytes": ("count", "lower", _CSV, "bytes"),
}
DERIVED_METRICS = {"engine.steps_per_s": ("1/s", "higher")}
# Filled in by the benchmark itself from its pass timer and reference kernel.
HOST_METRICS = {
    "host.pass_s": ("s", "lower"),
    "host.ref_s": ("s", "lower"),
    "host.trace_overhead_s": ("s", "lower"),
}


def layer_metrics(stats: dict[str, dict[str, float]], absent_spans: list[str],
                  rounds: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics per round of the workload from the aggregated spans
    of a `Tracer` (its `stats` and `absent`), and the names of the metrics
    whose wrapped functions are all absent."""
    values, absent = {}, []
    for metric, (_, _, spans, stat) in LAYER_METRICS.items():
        if all(span in absent_spans for span in spans):
            absent.append(metric)
            continue
        total = sum(stats.get(span, {}).get(stat, 0) for span in spans)
        values[metric] = total / rounds
    if "engine.steps" in values:
        secs = values.get("engine.propagate_s", 0.0)
        values["engine.steps_per_s"] = values["engine.steps"] / secs if secs > 0 else 0.0
    else:
        absent.append("engine.steps_per_s")
    return values, absent
