"""Real-space picture of single-qubit dynamics.

The qubit state is the Bloch vector s, the drive is the Rabi vector Omega,
and the equation of motion is ds/dt = Omega x s.  All angular quantities are
in rad/s (hbar = 1 throughout the package).  The lab frame carries the drive
phase omega*t + phi; the frame rotating at the drive frequency omega sees the
static vector

    Omega' = (omega1 cos(phi), omega1 sin(phi), omega0 - omega).

The drive parameters and Rabi vectors are shared with the rest of the
package; the stepwise integrator `integrate_bloch` is a test and `verify`
oracle that the production propagator in `engine` never calls.  Its RK4
step runs on Python floats, and the (n+1, 3) trajectory array is built once,
at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    with the static Omega'.  The trajectory is sampled at every step.  Each
    cross product is written out by component in the order of `np.cross`,
    so the float step is the same arithmetic as the vector form.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if frame == "lab":
        w1, om, phi, w0 = p.omega1, p.omega, p.phi, p.omega0

        def field(t):
            arg = om * t + phi
            return w1 * math.cos(arg), w1 * math.sin(arg), w0

    elif frame == "rotating":
        static = (p.omega1 * math.cos(p.phi), p.omega1 * math.sin(p.phi), p.omega0 - p.omega)

        def field(t):
            return static

    else:
        raise ValueError(f"unknown frame {frame!r}")

    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    times = t0 + h * np.arange(n_steps + 1)
    x, y, z = np.asarray(s0, dtype=float).tolist()
    out = [(x, y, z)]
    for t in times[:-1].tolist():
        ax, ay, az = field(t)
        bx, by, bz = field(t + half)
        cx, cy, cz = field(t + h)
        k1x, k1y, k1z = ay * z - az * y, az * x - ax * z, ax * y - ay * x
        ux, uy, uz = x + half * k1x, y + half * k1y, z + half * k1z
        k2x, k2y, k2z = by * uz - bz * uy, bz * ux - bx * uz, bx * uy - by * ux
        ux, uy, uz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x, k3y, k3z = by * uz - bz * uy, bz * ux - bx * uz, bx * uy - by * ux
        ux, uy, uz = x + h * k3x, y + h * k3y, z + h * k3z
        k4x, k4y, k4z = cy * uz - cz * uy, cz * ux - cx * uz, cx * uy - cy * ux
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        out.append((x, y, z))
    return BlochTrajectory(t=times, s=np.array(out))
