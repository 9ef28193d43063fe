"""Real-space picture of single-qubit dynamics.

The qubit state is the Bloch vector s, the drive is the Rabi vector Omega,
and the equation of motion is ds/dt = Omega x s.  All angular quantities are
in rad/s (hbar = 1 throughout the package).  The lab frame carries the drive
phase omega*t + phi; the frame rotating at the drive frequency omega sees the
static vector

    Omega' = (omega1 cos(phi), omega1 sin(phi), omega0 - omega).

The drive parameters and Rabi vectors are shared with the rest of the
package; the stepwise integrator `integrate_bloch` is a test and `verify`
oracle that the production propagator in `engine` never calls.  The ODE is
linear, ds/dt = [Omega]x s, so its RK4 steps are 3x3 maps, which it folds by
a prefix scan onto s as one column (`linalg.rk4_fold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import half_step_grid, rk4_fold, rk4_step_maps

# Generator of rotations about z: M_z s = z_hat x s.
M_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class RabiParams:
    """Drive parameters: transition frequency omega0, drive amplitude omega1,
    drive frequency omega, drive phase phi.  All rad/s except phi (rad)."""

    omega0: float
    omega1: float
    omega: float
    phi: float = 0.0

    def __post_init__(self):
        vals = (self.omega0, self.omega1, self.omega, self.phi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite drive parameter in {vals}")
        if self.omega1 < 0.0:
            raise ValueError("drive amplitude omega1 must be >= 0")


@dataclass(frozen=True)
class BlochTrajectory:
    """Fixed-step trajectory: times (n,) and Bloch vectors (n, 3)."""

    t: np.ndarray
    s: np.ndarray


def rotating_rabi_vector(p: RabiParams) -> np.ndarray:
    """Static rotating-frame Rabi vector (omega1 cos phi, omega1 sin phi, omega0 - omega)."""
    return np.array(
        [p.omega1 * np.cos(p.phi), p.omega1 * np.sin(p.phi), p.omega0 - p.omega]
    )


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def from_rotating_frame(s_rot: np.ndarray, omega: float, t: float) -> np.ndarray:
    """Lab-frame Bloch vector s = R_z(wt) s' of s' in the frame rotating at
    omega; at -t it maps the lab frame into the rotating one."""
    return rotation_z(omega * t) @ np.asarray(s_rot, dtype=float)


def integrate_bloch(
    s0: np.ndarray,
    p: RabiParams,
    t_span: tuple[float, float],
    dt: float,
    frame: str = "lab",
) -> BlochTrajectory:
    """Classical fixed-step RK4 integration of ds/dt = Omega(t) x s.

    frame="lab" drives with the oscillating lab Rabi vector, frame="rotating"
    with the static Omega'; s0 is a finite 3-vector.  The field is taken once
    per node of the half-step grid, and the one-step maps of h [Omega]x are
    folded by a prefix scan.  The trajectory is sampled at every step.
    """
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (3,) or not np.all(np.isfinite(s0)):
        raise ValueError(f"s0 must be a finite 3-vector, got {s0!r}")
    times, nodes, h = half_step_grid(t_span, dt)
    if frame == "lab":
        arg = p.omega * nodes + p.phi
        field = (p.omega1 * np.cos(arg), p.omega1 * np.sin(arg), p.omega0)
    elif frame == "rotating":
        field = rotating_rabi_vector(p)
    else:
        raise ValueError(f"unknown frame {frame!r}")
    # a = h [Omega]x, with [Omega]x s = Omega x s
    a = np.zeros((len(nodes), 3, 3))
    for (i, j), w in zip(((2, 1), (0, 2), (1, 0)), field):
        a[:, i, j] = h * w
        a[:, j, i] = -h * w
    states = rk4_fold(a, s0[:, None], rk4_step_maps)
    return BlochTrajectory(t=times, s=states[:, :, 0])
