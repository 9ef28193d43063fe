"""Test-only oracles: closed forms and stepwise reference computations that
the tests check the package against.  Nothing in `berrygate` uses them, and
they are written out independently of the package's vectorized Hamiltonian
builders, so that an agreement means something.
"""

import numpy as np

from berrygate.bloch import RabiParams


def rotating_hamiltonian_1q(p: RabiParams) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at the drive
    frequency: (1/2) Omega' . sigma with Omega' = (w1 cos phi, w1 sin phi, w0 - w)."""
    off = 0.5 * p.omega1 * np.exp(-1j * p.phi)
    return np.array(
        [[0.5 * (p.omega0 - p.omega), off], [np.conj(off), -0.5 * (p.omega0 - p.omega)]],
        dtype=complex,
    )


def hamiltonian_of_schedule_1q(omega0: float, schedule):
    """Scalar-time rotating-frame Hamiltonian H(t) of a single-qubit
    schedule, for the stepwise integrator."""
    starts = np.cumsum([0.0] + [seg.duration for seg in schedule.segments])

    def h_of_t(t: float) -> np.ndarray:
        t = min(max(t, 0.0), starts[-1])
        i = int(np.clip(np.searchsorted(starts, t) - 1, 0, len(starts) - 2))
        w1, om, ph = schedule.segments[i].controls_at(t - starts[i])
        return rotating_hamiltonian_1q(RabiParams(omega0, float(w1), float(om), float(ph)))

    return h_of_t


def rk4_bloch(s0, p: RabiParams, t_span, dt, frame="lab"):
    """Oracle: fixed-step RK4 for ds/dt = Omega(t) x s in vector form, with
    `np.cross` on numpy 3-vectors, on the step grid of `integrate_bloch`.
    Returns the (n+1, 3) states."""
    if frame == "lab":
        field = lambda t: np.array([p.omega1 * np.cos(p.omega * t + p.phi),
                                    p.omega1 * np.sin(p.omega * t + p.phi), p.omega0])
    else:
        static = np.array(
            [p.omega1 * np.cos(p.phi), p.omega1 * np.sin(p.phi), p.omega0 - p.omega]
        )
        field = lambda t: static
    n = max(1, int(round((t_span[1] - t_span[0]) / dt)))
    h = (t_span[1] - t_span[0]) / n
    out = [np.array(s0, dtype=float)]
    for t in t_span[0] + h * np.arange(n):
        s = out[-1]
        k1 = np.cross(field(t), s)
        k2 = np.cross(field(t + 0.5 * h), s + 0.5 * h * k1)
        k3 = np.cross(field(t + 0.5 * h), s + 0.5 * h * k2)
        k4 = np.cross(field(t + h), s + h * k3)
        out.append(s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


def dynamic_phase(times: np.ndarray, states: np.ndarray, h_of_t) -> float:
    """Dynamic phase -int <psi(t)|H(t)|psi(t)> dt by trapezoidal quadrature
    over the sampled trajectory (second order in the sample spacing)."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if len(times) < 2:
        raise ValueError("need at least 2 trajectory samples")
    energies = np.empty(len(times))
    for k, (t, psi) in enumerate(zip(times, states)):
        energies[k] = np.vdot(psi, h_of_t(t) @ psi).real
    return float(-np.trapezoid(energies, times))
