"""Computations made apart from berrygate, and the checkers built on them.

Nothing here imports berrygate: the closed forms are the benchmark's own
copies of the paper's formulas, so a fault in the program cannot also hide in
the reference it is checked against.  Every checker returns a list of
human-readable problems; an empty list means the output is correct.

Units follow the command line: detuning and drive amplitude in units of
pi*J, angular frequencies in rad/s, phases in rad.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance bounds for one conditional gate (the spot-grid bounds).
GATE_MIN_FIDELITY = 0.999
GATE_MAX_LEAKAGE = 1e-3
GATE_PHASE_TOL = 5e-3
# The surface CSV carries 12 significant digits.
SURFACE_VALUE_TOL = 1e-9
PEAK_MAX_REL_SLOPE = 1e-6

# Adiabaticity rules of the package README, used only to size the work of a
# spot: sweep = 500/|Omega'| (slow sector), ramp stretched to 200/|w+- - w|,
# dt = 0.005/|Omega'| (fast sector), 0.05/|w - w_b| when spin b is driven.
_SWEEP_FACTOR = 500.0
_RAMP_FRACTION = 0.2
_DT_RESOLUTION = 0.005


def delta_gamma(detuning: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Differential shift pi[(d+1)/|(d+1, w)| - (d-1)/|(d-1, w)|] with the
    detuning d = (w_a - w)/(pi J) and amplitude w = w1/(pi J)."""
    d = np.asarray(detuning, dtype=float)
    w = np.asarray(amplitude, dtype=float)
    return math.pi * ((d + 1.0) / np.hypot(d + 1.0, w) - (d - 1.0) / np.hypot(d - 1.0, w))


def d_delta_gamma_d_amplitude(detuning, amplitude):
    """Analytic derivative of `delta_gamma` in the amplitude."""
    d = np.asarray(detuning, dtype=float)
    w = np.asarray(amplitude, dtype=float)
    return math.pi * w * (
        (d - 1.0) / np.hypot(d - 1.0, w) ** 3 - (d + 1.0) / np.hypot(d + 1.0, w) ** 3
    )


def nominal_steps(detuning: float, amplitude: float, pi_j: float = 1.0,
                  drive_to_b: float | None = None) -> float:
    """Steps of the eight-step sequence at the default times of one spot, as
    the adiabaticity rules fix them (four loops of ramp, sweep, ramp)."""
    gaps = [abs(detuning + s) * pi_j for s in (1.0, -1.0)]
    rabi = [math.hypot(g, amplitude * pi_j) for g in gaps]
    sweep = _SWEEP_FACTOR / min(rabi)
    ramp = max(_RAMP_FRACTION * sweep, 2.0 * _RAMP_FRACTION * _SWEEP_FACTOR / min(gaps))
    dt = _DT_RESOLUTION / max(rabi)
    if drive_to_b is not None:
        dt = min(dt, 0.05 / abs(drive_to_b))
    return 4.0 * (2.0 * ramp + sweep) / dt


def _circle_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def check_gate(gate: np.ndarray, detuning: float, amplitude: float,
               phases: bool = True) -> list[str]:
    """A measured 4x4 gate against diag(e^{2i dg}, e^{-2i dg}, e^{-2i dg},
    e^{2i dg}): fidelity, off-diagonal leakage, and (with `phases`) each
    diagonal phase relative to the first one.

    The closed form describes a field addressed to spin a.  When the field
    also drives spin b, spin b's own off-resonant cone adds a conditional
    phase of its own (1.6e-2 rad at the default spot), so that gate is held
    to the fidelity and leakage bounds only."""
    u = np.asarray(gate, dtype=complex)
    if u.shape != (4, 4) or not np.all(np.isfinite(u)):
        return [f"gate has shape {u.shape} or non-finite entries"]
    dg = float(delta_gamma(detuning, amplitude))
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    target = np.diag(np.exp(2j * dg * signs))
    problems = []
    fid = abs(np.trace(target.conj().T @ u)) / 4.0
    if not fid >= GATE_MIN_FIDELITY:
        problems.append(f"fidelity {fid:.6f} < {GATE_MIN_FIDELITY}")
    leak = float(np.max(np.abs(u - np.diag(np.diag(u)))))
    if not leak < GATE_MAX_LEAKAGE:
        problems.append(f"off-diagonal leakage {leak:.2e} >= {GATE_MAX_LEAKAGE}")
    args = np.angle(np.diag(u))
    for k in range(1, 4 if phases else 1):
        err = _circle_distance(args[k] - args[0], 2.0 * dg * (signs[k] - signs[0]))
        if not err < GATE_PHASE_TOL:
            problems.append(f"relative phase of state {k} off by {err:.2e} rad")
    return problems


def check_verify_report(exit_code: int, report: str, names: list[str]) -> list[str]:
    """`berrygate verify` must exit 0 with exactly one PASS line per listed
    check and no FAIL line."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited with {exit_code}")
    if not names:
        problems.append("verify --list printed no checks")
    passed: list[str] = []
    for line in report.splitlines():
        status, _, rest = line.partition(" ")
        name = rest.split(":", 1)[0]
        if status == "PASS":
            passed.append(name)
        elif status == "FAIL":
            problems.append(f"FAIL line for {name}")
    if sorted(passed) != sorted(names):
        problems.append(f"PASS lines {sorted(passed)} do not match listed checks {sorted(names)}")
    return problems


def _read_csv(path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n").split(",")
        if first != header:
            raise ValueError(f"{path}: header {first} is not {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))


SURFACE_HEADER = ["detuning_over_piJ", "omega1_over_piJ", "delta_gamma_rad"]
PEAKS_HEADER = ["detuning_over_piJ", "omega1_peak_over_piJ", "delta_gamma_peak_rad",
                "slope_at_peak", "boundary_peak"]


def check_surface(surface_path, peaks_path, detuning: np.ndarray,
                  amplitude: np.ndarray) -> list[str]:
    """Read back a `berrygate sweep` surface and its peaks file.

    The surface must be the row-major grid (detuning outer) with every value
    within 1e-9 of the closed form; every peak must be at least every value
    of its row and sit on the closed form; an interior peak must be
    stationary, |d dg/d w1| / dg < 1e-6 by the analytic derivative."""
    try:
        surf = _read_csv(surface_path, SURFACE_HEADER)
        peaks = _read_csv(peaks_path, PEAKS_HEADER)
    except ValueError as exc:
        return [str(exc)]
    nd, na = len(detuning), len(amplitude)
    if surf.shape[0] != nd * na:
        return [f"surface has {surf.shape[0]} rows, expected {nd * na}"]
    if peaks.shape[0] != nd:
        return [f"peaks file has {peaks.shape[0]} rows, expected {nd}"]
    problems = []
    d_grid = np.repeat(detuning, na)
    w_grid = np.tile(amplitude, nd)
    grid_err = max(np.max(np.abs(surf[:, 0] - d_grid)), np.max(np.abs(surf[:, 1] - w_grid)))
    if not grid_err < 1e-9:
        problems.append(f"surface grid columns off by {grid_err:.2e}")
    val_err = np.abs(surf[:, 2] - delta_gamma(d_grid, w_grid))
    if not np.max(val_err) < SURFACE_VALUE_TOL:
        k = int(np.argmax(val_err))
        problems.append(f"surface row {k + 1}: value off by {val_err[k]:.2e}")
    rows = surf[:, 2].reshape(nd, na)
    pk_d, pk_w, pk_val, _, pk_boundary = peaks.T
    if not np.max(np.abs(pk_d - detuning)) < 1e-9:
        problems.append("peak detunings do not match the grid")
    low = np.flatnonzero(pk_val < rows.max(axis=1))
    if low.size:
        problems.append(f"{low.size} peaks below a value of their row, first at row {low[0] + 1}")
    pk_err = np.abs(pk_val - delta_gamma(pk_d, pk_w))
    if not np.max(pk_err) < SURFACE_VALUE_TOL:
        problems.append(f"peak value off the closed form by {np.max(pk_err):.2e}")
    interior = pk_boundary == 0
    rel_slope = np.abs(d_delta_gamma_d_amplitude(pk_d, pk_w)) / np.abs(pk_val)
    bad = np.flatnonzero(interior & ~(rel_slope < PEAK_MAX_REL_SLOPE))
    if bad.size:
        problems.append(
            f"{bad.size} interior peaks not stationary, first at row {bad[0] + 1} "
            f"(relative slope {rel_slope[bad[0]]:.2e})"
        )
    return problems
