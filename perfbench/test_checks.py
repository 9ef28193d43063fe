"""Fast tests that the benchmark's output checks have teeth: each checker
accepts a correct result and counts a corrupted one as wrong.  They also pin
BENCHMARK.json to the metrics the benchmark prints.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import oracle
import tracer

ROOT = Path(__file__).resolve().parent.parent


def _gate(dg: float) -> np.ndarray:
    return np.diag(np.exp(2j * dg * np.array([1.0, -1.0, -1.0, 1.0])))


def test_gate_checker_accepts_the_closed_form_up_to_a_global_phase():
    dg = float(oracle.delta_gamma(2.0, 1.2))
    assert oracle.check_gate(np.exp(0.7j) * _gate(dg), 2.0, 1.2) == []


@pytest.mark.parametrize("corrupt", [
    lambda u, dg: _gate(-dg),  # wrong sign of the shift
    lambda u, dg: u + 2e-3 * np.eye(4)[::-1],  # leakage into the anti-diagonal
    lambda u, dg: u @ np.diag(np.exp(1j * np.array([0.0, 0.0, 1e-2, 0.0]))),  # one phase
    lambda u, dg: np.full((4, 4), np.nan),
])
def test_gate_checker_rejects_corrupted_gates(corrupt):
    dg = float(oracle.delta_gamma(2.3, 0.9))
    assert oracle.check_gate(corrupt(_gate(dg), dg), 2.3, 0.9)


def test_gate_checker_without_phases_still_bounds_fidelity():
    dg = float(oracle.delta_gamma(2.0, 1.2))
    assert oracle.check_gate(_gate(dg + 0.1), 2.0, 1.2, phases=False)


NAMES = ["pauli-algebra", "cone-geometric-phase", "conditional-gate"]
REPORT = "\n".join(["# verification report", "#   seed = 1"]
                   + [f"PASS {n}: measured = 1.0e-13, tolerance = 1.0e-12" for n in NAMES]
                   + ["# 3 passed, 0 failed"])


def test_verify_checker_accepts_a_clean_report():
    assert oracle.check_verify_report(0, REPORT, NAMES) == []


@pytest.mark.parametrize("code, report", [
    (0, REPORT.replace("PASS cone", "FAIL cone")),
    (1, REPORT),
    (0, REPORT.replace("PASS conditional-gate", "conditional-gate")),
    (0, REPORT + "\nPASS pauli-algebra: measured = 0, tolerance = 0"),
])
def test_verify_checker_rejects_bad_reports(code, report):
    assert oracle.check_verify_report(code, report, NAMES)


def _write_sweep(tmp_path, det, amp):
    """A correct surface and peaks file in the `berrygate sweep` format."""
    surface, peaks = tmp_path / "surface.csv", tmp_path / "peaks.csv"
    with open(surface, "w") as fh:
        fh.write(",".join(oracle.SURFACE_HEADER) + "\n")
        for d in det:
            for w in amp:
                fh.write(f"{d:.12g},{w:.12g},{float(oracle.delta_gamma(d, w)):.12g}\n")
    with open(peaks, "w") as fh:
        fh.write(",".join(oracle.PEAKS_HEADER) + "\n")
        for d in det:
            if d < 1.0:
                w, boundary = 0.0, 1
            else:
                w = brentq(lambda x: oracle.d_delta_gamma_d_amplitude(d, x), 1e-3, 20.0,
                           xtol=1e-15)
                boundary = 0
            fh.write(f"{d:.12g},{w:.12g},{float(oracle.delta_gamma(d, w)):.12g},0,{boundary}\n")
    return surface, peaks


def _edit_line(path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


DET = np.linspace(0.3, 3.1, 6)
AMP = np.linspace(0.1, 5.2, 9)


def test_surface_checker_accepts_a_correct_sweep(tmp_path):
    assert oracle.check_surface(*_write_sweep(tmp_path, DET, AMP), DET, AMP) == []


def _ninth_digit(line):
    d, w, v = line.split(",")
    digits = f"{float(v):.12e}"
    bumped = digits[:9] + str((int(digits[9]) + 1) % 10) + digits[10:]
    return f"{d},{w},{float(bumped):.12g}"


def _lower_peak(line):
    fields = line.split(",")
    fields[2] = f"{float(fields[2]) - 1e-6:.12g}"
    return ",".join(fields)


def _shift_peak(line):
    fields = line.split(",")
    fields[1] = f"{float(fields[1]) + 1e-3:.12g}"
    fields[2] = f"{float(oracle.delta_gamma(float(fields[0]), float(fields[1]))):.12g}"
    return ",".join(fields)


@pytest.mark.parametrize("which, index, edit", [
    ("surface", 17, _ninth_digit),  # one value changed in its 9th significant digit
    ("surface", 0, lambda line: line.replace("delta_gamma_rad", "dg")),
    ("peaks", 5, _lower_peak),  # peak below a value of its row
    ("peaks", 6, _shift_peak),  # on the closed form, but not stationary
])
def test_surface_checker_rejects_corrupted_sweeps(tmp_path, which, index, edit):
    surface, peaks = _write_sweep(tmp_path, DET, AMP)
    _edit_line(surface if which == "surface" else peaks, index, edit)
    assert oracle.check_surface(surface, peaks, DET, AMP)


def test_surface_checker_rejects_a_missing_row(tmp_path):
    surface, peaks = _write_sweep(tmp_path, DET, AMP)
    surface.write_text("".join(surface.read_text().splitlines(keepends=True)[:-1]))
    assert oracle.check_surface(surface, peaks, DET, AMP)


def test_nominal_steps_of_the_default_spot():
    # 4 loops of (200 + 320.09 + 200) s at dt = 0.005/|(3, 1.2)|.
    expect = 4 * (400.0 + 500.0 / math.hypot(1.0, 1.2)) * math.hypot(3.0, 1.2) / 0.005
    assert oracle.nominal_steps(2.0, 1.2) == pytest.approx(expect, rel=1e-12)


def test_missing_wrapped_function_is_absent_not_a_failure(monkeypatch):
    fake = types.ModuleType("berrygate_fake")
    fake.present = lambda n_steps: n_steps
    monkeypatch.setitem(sys.modules, "berrygate_fake", fake)
    monkeypatch.setattr(tracer, "SPANS", [
        ("berrygate_fake", "present", "engine.rk4_transition_matrices"),
        ("berrygate_fake", "gone", "engine.propagate_sampled"),
    ])
    monkeypatch.setattr(tracer, "COUNTED", [])
    t = tracer.Tracer()
    t.install()
    fake.present(3)
    values, absent = tracer.layer_metrics(t.stats, t.absent, rounds=1)
    assert values["engine.step_maps_s"] > 0.0
    assert {"engine.propagate_s", "engine.fold_s", "engine.steps_per_s"} <= set(absent)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["cphase-grid", "verify", "sweep-dense"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_ref", "peak_rss_mb"}
    layers = {**tracer.LAYER_METRICS, **tracer.DERIVED_METRICS, **tracer.HOST_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (v[0], v[1]) for k, v in layers.items()}
