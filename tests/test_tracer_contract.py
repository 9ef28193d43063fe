"""The names that the benchmark's tracer (`perfbench/tracer.py`) wraps and
counts must stay in the package: a wrapped function that is gone drops its
metrics from a traced run, and a counter that cannot read its call fails
every traced pass.  The tracer is loaded from its file as it is, in a
process of its own, because installing it rebinds package functions."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Installs the tracer over the package; binds `tracing` and `tracer`.
PREAMBLE = """
import contextlib, importlib.util, io, json, math, sys
sys.path.insert(0, sys.argv[1])
import berrygate.cli

spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
"""


def run_traced(body: str, *argv) -> dict:
    """Run body after PREAMBLE in a process of its own (with argv after the
    package and tracer paths) and return the JSON of its last line."""
    run = subprocess.run(
        [sys.executable, "-c", PREAMBLE + body, str(ROOT / "src"),
         str(ROOT / "perfbench" / "tracer.py"), *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


GATES = """
from berrygate import RabiParams, TwoSpinParams, checks, run_conditional_sequence

p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, 1.2, 98.0, 0.0))
for on_b in (False, True):
    run_conditional_sequence(p, ramp_time=5.0, sweep_time=10.0, drive_on_b=on_b)
values, absent = tracing.layer_metrics(tracer.stats, tracer.absent, 1)
print(json.dumps({
    "absent": absent,
    "metrics": sorted(values),
    "host_metrics": sorted(tracing.HOST_METRICS),
    "propagate": tracer.stats.get("engine.propagate_sampled", {}),
    "unregistered_checks": [c for c in tracing.CHECK_NAMES if c not in checks.REGISTRY],
}))
"""


def test_traced_gates_report_every_layer_metric():
    got = run_traced(GATES)
    assert got["absent"] == []
    assert got["propagate"].get("steps", 0) > 0
    assert got["propagate"].get("samples", 0) > 0
    assert got["unregistered_checks"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared
               if m["name"] not in got["metrics"] and m["name"] not in got["host_metrics"]]
    assert missing == []


SWEEP = """
with contextlib.redirect_stdout(io.StringIO()):
    code = berrygate.cli.main(["sweep", "--detuning-count", "6", "--omega1-count", "9",
                               "--output", sys.argv[3], "--peaks-output", sys.argv[4]])
values, absent = tracing.layer_metrics(tracer.stats, tracer.absent, 1)
print(json.dumps({"code": code, "absent": absent, "values": values}))
"""


def test_traced_sweep_counts_its_writes_and_rows(tmp_path):
    surface, peaks = tmp_path / "surface.csv", tmp_path / "peaks.csv"
    got = run_traced(SWEEP, surface, peaks)
    assert got["code"] == 0
    assert got["absent"] == []
    values = got["values"]
    assert values["sequences.csv_bytes"] == surface.stat().st_size + peaks.stat().st_size
    assert values["sequences.csv_write_s"] > 0
    # One array call per detuning row, and one for the peaks of all rows.
    assert values["sequences.delta_gamma_calls"] == 6 + 1


SCHRODINGER = """
import numpy as np
from berrygate import schrodinger
from berrygate.bloch import RabiParams

p = RabiParams(2.0, 0.7, 2.0, 0.0)
traj = schrodinger.integrate_schrodinger(
    np.array([1.0, 0.0], dtype=complex), lambda t: schrodinger.hamiltonian_1q(p, t),
    (0.0, 3.0), 0.003)
values, absent = tracing.layer_metrics(tracer.stats, tracer.absent, 1)
print(json.dumps({"absent": absent, "steps": len(traj.t) - 1, "values": values}))
"""


def test_traced_schrodinger_oracle_reports_its_steps_and_maps():
    got = run_traced(SCHRODINGER)
    assert got["absent"] == []
    assert got["steps"] == 1000
    assert got["values"]["schrodinger.steps"] == got["steps"]
    # the one-step maps are built by the function the tracer wraps by name
    assert got["values"]["engine.step_maps_s"] > 0
