"""Real-space picture of single-qubit dynamics.

The qubit state is the Bloch vector s, the drive is the Rabi vector Omega,
and the equation of motion is ds/dt = Omega x s.  All angular quantities are
in rad/s (hbar = 1 throughout the package).  The lab frame carries the drive
phase omega*t + phi; the frame rotating at the drive frequency omega sees the
static vector

    Omega' = (omega1 cos(phi), omega1 sin(phi), omega0 - omega).

The drive parameters and Rabi vectors are shared with the rest of the
package; the stepwise integrator `integrate_bloch` is a test and `verify`
oracle that the production propagator in `engine` never calls.
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


def bloch_derivative(s: np.ndarray, omega_vec: np.ndarray) -> np.ndarray:
    """Right-hand side Omega x s of the precession equation."""
    return np.cross(omega_vec, s)


def lab_rabi_vector(p: RabiParams, t: float) -> np.ndarray:
    """Lab-frame Rabi vector (omega1 cos(wt+phi), omega1 sin(wt+phi), omega0)."""
    arg = p.omega * t + p.phi
    return np.array([p.omega1 * np.cos(arg), p.omega1 * np.sin(arg), p.omega0])


def rotating_rabi_vector(p: RabiParams) -> np.ndarray:
    """Static rotating-frame Rabi vector (omega1 cos phi, omega1 sin phi, omega0 - omega)."""
    return np.array(
        [p.omega1 * np.cos(p.phi), p.omega1 * np.sin(p.phi), p.omega0 - p.omega]
    )


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def to_rotating_frame(s_lab: np.ndarray, omega: float, t: float) -> np.ndarray:
    """Map a lab-frame Bloch vector into the frame rotating at omega: R_z(wt)^-1 s."""
    return rotation_z(omega * t).T @ np.asarray(s_lab, dtype=float)


def from_rotating_frame(s_rot: np.ndarray, omega: float, t: float) -> np.ndarray:
    """Inverse of to_rotating_frame: s = R_z(wt) s'."""
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
    with the static Omega'.  The trajectory is sampled at every step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if frame == "lab":
        omega_of_t = lambda t: lab_rabi_vector(p, t)
    elif frame == "rotating":
        omega_static = rotating_rabi_vector(p)
        omega_of_t = lambda t: omega_static
    else:
        raise ValueError(f"unknown frame {frame!r}")

    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, 3))
    s = np.array(s0, dtype=float)
    out[0] = s
    for k in range(n_steps):
        t = times[k]
        k1 = bloch_derivative(s, omega_of_t(t))
        k2 = bloch_derivative(s + 0.5 * h * k1, omega_of_t(t + 0.5 * h))
        k3 = bloch_derivative(s + 0.5 * h * k2, omega_of_t(t + 0.5 * h))
        k4 = bloch_derivative(s + h * k3, omega_of_t(t + h))
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = s
    return BlochTrajectory(t=times, s=out)
