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

SCRIPT = """
import importlib.util, json, math, sys
sys.path.insert(0, sys.argv[1])
import berrygate.cli
from berrygate import RabiParams, TwoSpinParams, checks, run_conditional_sequence

spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
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
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["absent"] == []
    assert got["propagate"].get("steps", 0) > 0
    assert got["propagate"].get("samples", 0) > 0
    assert got["unregistered_checks"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared
               if m["name"] not in got["metrics"] and m["name"] not in got["host_metrics"]]
    assert missing == []
