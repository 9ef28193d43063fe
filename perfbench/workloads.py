"""The three workloads.  Each builds its inputs from the seed, calls only
public entry points of berrygate (`run_conditional_sequence`, `cli.main`),
and checks every output with `oracle`.

A workload is run in rounds.  A round is a fixed list of operations; each
operation is one timed pass, bracketed by the reference kernel.  The
benchmark and its worker process build the same workload from the same
seed: the worker calls `warm_up` and each operation's `call`, the benchmark
uses the labels, counts, scales and checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from berrygate import RabiParams, TwoSpinParams, cli, run_conditional_sequence

# Two-spin system of `berrygate conditional`: w_a = 100, w_b = 80 rad/s and
# J = 1/pi Hz, so pi*J = 1 rad/s and detuning/amplitude read in units of pi*J.
OMEGA_A, OMEGA_B, COUPLING = 100.0, 80.0, 1.0 / math.pi
PI_J = math.pi * COUPLING
DEFAULT_SPOT = (2.0, 1.2)
SEEDED_SPOTS = 2
DETUNING_RANGE = (1.5, 3.0)
AMPLITUDE_RANGE = (0.7, 1.7)
SWEEP_SHAPE = (400, 1000)
VERIFY_SEED = 20260809


@dataclass
class Operation:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # Attempted operations this pass stands for (checks of one verify run).
    count: int = 1
    # Multiplies pass/ref so that passes of different size compare.
    scale: float = 1.0


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _two_spin(detuning: float, amplitude: float) -> TwoSpinParams:
    drive = RabiParams(OMEGA_A, amplitude * PI_J, OMEGA_A - detuning * PI_J, 0.0)
    return TwoSpinParams(OMEGA_A, OMEGA_B, COUPLING, drive)


def _strata(rng, bounds: tuple[float, float], order: np.ndarray) -> np.ndarray:
    """One uniform draw in each of len(order) equal bins, in the given order."""
    lo, hi = bounds
    return lo + (hi - lo) * (order + rng.uniform(size=len(order))) / len(order)


class CphaseGrid:
    """Conditional gates through the API with default times: seeded spots
    of the acceptance region, then the fully coupled 4x4 path (`drive_on_b`)
    at the default spot.  Each pass is scaled by the default spot's nominal
    step count over its own, so that seeds with cheap and dear spots measure
    the same thing."""

    def __init__(self, seed: int, out_dir: Path):
        # Latin hypercube: one spot in each equal part of the detuning range
        # and of the amplitude range, so every seed mixes cheap and dear
        # spots alike.
        rng = np.random.default_rng([seed, 1])
        n = SEEDED_SPOTS
        det = _strata(rng, DETUNING_RANGE, np.arange(n))
        amp = _strata(rng, AMPLITUDE_RANGE, rng.permutation(n))
        self.spots = [(float(d), float(a), False) for d, a in zip(det, amp)]
        self.spots.append((*DEFAULT_SPOT, True))
        self.inputs = {"spots": [list(s) for s in self.spots]}

    def warm_up(self) -> None:
        run_conditional_sequence(_two_spin(*DEFAULT_SPOT), ramp_time=5.0,
                                 sweep_time=10.0, dt=0.002)

    def round(self) -> list[Operation]:
        base = oracle.nominal_steps(*DEFAULT_SPOT)
        ops = []
        for det, amp, on_b in self.spots:
            offset_b = (OMEGA_A - det * PI_J) - OMEGA_B if on_b else None
            ops.append(Operation(
                label=f"gate d={det:.4f} a={amp:.4f}{' drive_on_b' if on_b else ''}",
                call=lambda d=det, a=amp, b=on_b: run_conditional_sequence(
                    _two_spin(d, a), drive_on_b=b).gate.copy(),
                check=lambda gate, d=det, a=amp, b=on_b: oracle.check_gate(
                    gate, d, a, phases=not b),
                scale=base / oracle.nominal_steps(det, amp, PI_J, offset_b),
            ))
        return ops


class Verify:
    """The whole `berrygate verify` suite in-process through `cli.main`.

    The suite's own seed stays fixed: it sets the frequencies of the
    schrodinger-bloch check, whose step count ranges from 10k to 17k over
    suite seeds, which would show as spread unrelated to the program's
    speed."""

    def __init__(self, seed: int, out_dir: Path):
        self.verify_seed = VERIFY_SEED
        self.inputs = {"verify_seed": self.verify_seed}
        self.names = self._listed()

    @staticmethod
    def _listed() -> list[str]:
        code, listing = _cli(["verify", "--list"])
        return listing.split() if code == 0 else []

    def warm_up(self) -> None:
        self._listed()

    def round(self) -> list[Operation]:
        return [Operation(
            label="verify",
            call=lambda: _cli(["verify", "--seed", str(self.verify_seed)]),
            check=lambda out: oracle.check_verify_report(*out, self.names),
            count=max(1, len(self.names)),
        )]


class SweepDense:
    """`berrygate sweep` on a dense seeded grid through `cli.main`: closed
    form surface, peak search and CSV writing; no engine."""

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.bounds = {
            "detuning_min": float(rng.uniform(0.2, 0.4)),
            "detuning_max": float(rng.uniform(2.8, 3.2)),
            "omega1_min": float(rng.uniform(0.05, 0.15)),
            "omega1_max": float(rng.uniform(5.0, 5.5)),
        }
        nd, na = SWEEP_SHAPE
        self.detuning = np.linspace(self.bounds["detuning_min"], self.bounds["detuning_max"], nd)
        self.amplitude = np.linspace(self.bounds["omega1_min"], self.bounds["omega1_max"], na)
        self.surface = out_dir / "sweep-surface.csv"
        self.peaks = out_dir / "sweep-peaks.csv"
        self.argv = ["sweep", "--detuning-count", str(nd), "--omega1-count", str(na),
                     "--output", str(self.surface), "--peaks-output", str(self.peaks)]
        for key, val in self.bounds.items():
            self.argv += [f"--{key.replace('_', '-')}", repr(val)]
        self.inputs = {**self.bounds, "shape": list(SWEEP_SHAPE)}
        self.first_digest: tuple[str, str] | None = None
        self.warm_out = out_dir / "sweep-warm-up.csv"

    def warm_up(self) -> None:
        _cli(["sweep", "--detuning-count", "4", "--omega1-count", "8",
              "--output", str(self.warm_out), "--peaks-output", str(self.warm_out) + ".peaks"])

    def _check(self, out: tuple[int, str]) -> list[str]:
        if out[0] != 0:
            return [f"sweep exited with {out[0]}"]
        digest = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (self.surface, self.peaks))
        if self.first_digest is None:
            self.first_digest = digest
            return oracle.check_surface(self.surface, self.peaks, self.detuning, self.amplitude)
        if digest != self.first_digest:
            return ["sweep output differs from the first pass's byte for byte"]
        return []

    def round(self) -> list[Operation]:
        return [Operation(label="sweep", call=lambda: _cli(self.argv), check=self._check)]


WORKLOADS = {"cphase-grid": CphaseGrid, "verify": Verify, "sweep-dense": SweepDense}
