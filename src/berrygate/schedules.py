"""Pulse schedules: piecewise-smooth time courses of the drive controls
(omega1, omega, phi) plus idealized pi pulses.

Adiabatic segments use shapes with zero endpoint slope (raised-cosine
amplitude ramps, smoothed phase sweeps), which keeps the controls C1 across
segment boundaries and suppresses the leading diabatic error of a loop
traversed in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import RabiParams
from .linalg import pauli, tensor

RAMP_KINDS = ("ramp_up", "ramp_down")
SEGMENT_KINDS = RAMP_KINDS + ("phase_sweep", "idle")


@dataclass(frozen=True)
class Segment:
    """One schedule segment.  params are (start, end) pairs for each control."""

    kind: str
    duration: float
    omega1: tuple[float, float]
    omega: tuple[float, float]
    phi: tuple[float, float]

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not math.isfinite(self.duration):
            raise ValueError("segment duration must be finite")
        if self.duration <= 0.0:
            raise ValueError("segment duration must be positive")
        controls = (*self.omega1, *self.omega, *self.phi)
        if not all(math.isfinite(v) for v in controls):
            raise ValueError(f"non-finite segment control in {controls}")

    def controls_at(self, tau):
        """Controls (omega1, omega, phi) at local time tau in [0, duration].

        Ramps interpolate omega1 with a raised cosine; phase sweeps move phi
        along the smoothed profile x - sin(2 pi x)/(2 pi), so both have zero
        slope at the segment boundaries.  omega interpolates linearly (it is
        constant in every built-in schedule).
        """
        tau = np.asarray(tau, dtype=float)
        x = np.clip(tau / self.duration, 0.0, 1.0)
        w1s, w1e = self.omega1
        ps, pe = self.phi
        if self.kind in RAMP_KINDS:
            w1 = w1s + (w1e - w1s) * 0.5 * (1.0 - np.cos(math.pi * x))
            ph = ps + (pe - ps) * x
        elif self.kind == "phase_sweep":
            w1 = w1s + (w1e - w1s) * x
            ph = ps + (pe - ps) * (x - np.sin(2.0 * math.pi * x) / (2.0 * math.pi))
        else:  # idle
            w1 = w1s + (w1e - w1s) * x
            ph = ps + (pe - ps) * x
        om = self.omega[0] + (self.omega[1] - self.omega[0]) * x
        return w1, om, ph

    def phase_rate_at(self, tau):
        """d(phi)/dt at local time tau in [0, duration], of the profile of
        `controls_at`: zero on the built-in ramps, and
        (dphi/duration) (1 - cos 2 pi x) on a phase sweep."""
        x = np.clip(np.asarray(tau, dtype=float) / self.duration, 0.0, 1.0)
        rate = (self.phi[1] - self.phi[0]) / self.duration
        if self.kind == "phase_sweep":
            return rate * (1.0 - np.cos(2.0 * math.pi * x))
        return np.full_like(x, rate)


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        # Controls must be continuous across segment boundaries.
        prev_end = None
        for seg in self.segments:
            start = (seg.omega1[0], seg.omega[0], seg.phi[0])
            if prev_end is not None:
                jumps = [abs(a - b) for a, b in zip(start, prev_end)]
                if max(jumps) > 1e-9:
                    raise ValueError(
                        f"control discontinuity {jumps} at segment boundary"
                    )
            prev_end = (seg.omega1[1], seg.omega[1], seg.phi[1])


def build_cone_loop(
    p: RabiParams,
    ramp_time: float,
    sweep_time: float,
    orientation: str = "forward",
) -> PulseSchedule:
    """Adiabatic cone loop: ramp the drive amplitude 0 -> omega1, sweep the
    drive phase through a full turn (+2*pi forward, -2*pi reversed), ramp back
    to zero.  With omega1 = 0 the schedule degenerates to a single idle
    segment of the same total length.
    """
    for name, val in (("ramp_time", ramp_time), ("sweep_time", sweep_time)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
        if val <= 0.0:
            raise ValueError(f"{name} must be positive")
    if orientation not in ("forward", "reversed"):
        raise ValueError("orientation must be 'forward' or 'reversed'")
    if p.omega1 == 0.0:
        total = 2.0 * ramp_time + sweep_time
        return PulseSchedule(
            (
                Segment(
                    "idle", total, (0.0, 0.0), (p.omega, p.omega), (p.phi, p.phi)
                ),
            )
        )
    dphi = 2.0 * math.pi if orientation == "forward" else -2.0 * math.pi
    phi0 = p.phi
    return PulseSchedule(
        (
            Segment(
                "ramp_up", ramp_time, (0.0, p.omega1), (p.omega, p.omega), (phi0, phi0)
            ),
            Segment(
                "phase_sweep",
                sweep_time,
                (p.omega1, p.omega1),
                (p.omega, p.omega),
                (phi0, phi0 + dphi),
            ),
            Segment(
                "ramp_down",
                ramp_time,
                (p.omega1, 0.0),
                (p.omega, p.omega),
                (phi0 + dphi, phi0 + dphi),
            ),
        )
    )


def pi_pulse(target: str = "single") -> np.ndarray:
    """Idealized instantaneous pi pulse: the unitary swapping |up> and |down>.

    target 'single' returns the 2x2 swap; 'a' or 'b' return the 4x4 operator
    acting on the named spin only.
    """
    sx = pauli("x")
    if target == "single":
        return sx
    if target == "a":
        return tensor(sx, np.eye(2, dtype=complex))
    if target == "b":
        return tensor(np.eye(2, dtype=complex), sx)
    raise ValueError(f"unknown pi-pulse target {target!r}")
