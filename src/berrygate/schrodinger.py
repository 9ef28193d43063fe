"""Schrodinger-equation oracle for the 2-dim driven qubit and the 4-dim
coupled two-spin system.

Hamiltonians are stored as angular-frequency matrices (hbar = 1).  The
integrator is fixed-step RK4 on the complex ODE i d|psi>/dt = H(t)|psi>,
with no renormalization: norm drift is a measured diagnostic, and a step
size too large for the spectral spread is rejected outright.  It takes one
state or a (dim, B) block of columns, such as the identity for a whole
propagator; the columns share each step's Hamiltonian calls, and each
column's norm check and phase unwrap are its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import RabiParams
from .linalg import pauli

_SX = pauli("x")
_SY = pauli("y")
# The drive's Paulis embedded on spin a and on spin b of the two-spin basis.
_SX_A, _SY_A = np.kron(_SX, np.eye(2)), np.kron(_SY, np.eye(2))
_SX_B, _SY_B = np.kron(np.eye(2), _SX), np.kron(np.eye(2), _SY)

# Max allowed dt * (eigenvalue spread); RK4 stays phase-accurate below this.
STEP_SPREAD_LIMIT = 0.01


class StepSizeError(ValueError):
    """Raised when dt is too coarse for the Hamiltonian's spectral spread."""


@dataclass(frozen=True)
class TwoSpinParams:
    """Two coupled spins a, b with transition frequencies omega_a > omega_b
    (rad/s), scalar coupling J (Hz, enters as 2*pi*J S_az S_bz), and a shared
    rotating drive addressed to spin a."""

    omega_a: float
    omega_b: float
    J: float
    drive: RabiParams

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.omega_a, self.omega_b, self.J)):
            raise ValueError("non-finite two-spin parameter")
        if not self.omega_a > self.omega_b:
            raise ValueError("requires omega_a > omega_b")

    @property
    def omega_plus(self) -> float:
        """Spin-a transition frequency when spin b is up: omega_a + pi*J."""
        return self.omega_a + math.pi * self.J

    @property
    def omega_minus(self) -> float:
        """Spin-a transition frequency when spin b is down: omega_a - pi*J."""
        return self.omega_a - math.pi * self.J


def hamiltonian_1q(p: RabiParams, t: float) -> np.ndarray:
    """Rotating-wave lab-frame Hamiltonian of the driven qubit at time t:

        (1/2) [[omega0, omega1 e^{-i(wt+phi)}], [omega1 e^{+i(wt+phi)}, -omega0]]
    """
    off = 0.5 * p.omega1 * np.exp(-1j * (p.omega * t + p.phi))
    return np.array(
        [[0.5 * p.omega0, off], [np.conj(off), -0.5 * p.omega0]], dtype=complex
    )


def hamiltonian_2q(p: TwoSpinParams) -> np.ndarray:
    """Static two-spin Hamiltonian (no drive) in the basis
    {up-up, up-down, down-up, down-down}:

        diag(wa+wb+piJ, wa-wb-piJ, -wa+wb-piJ, -wa-wb+piJ) / 2
    """
    wa, wb, pj = p.omega_a, p.omega_b, math.pi * p.J
    return np.diag(
        np.array(
            [wa + wb + pj, wa - wb - pj, -wa + wb - pj, -wa - wb + pj], dtype=complex
        )
        / 2.0
    )


def drive_hamiltonian_2q(p: TwoSpinParams, t: float, drive_on_b: bool = False) -> np.ndarray:
    """Lab-frame drive term for the two-spin system at time t.

    The rotating field is addressed to spin a; with drive_on_b the same field
    also couples (off-resonantly) to spin b, which is physical but not part
    of the analytic treatment.
    """
    d = p.drive
    arg = d.omega * t + d.phi
    hx = 0.5 * d.omega1 * np.cos(arg)
    hy = 0.5 * d.omega1 * np.sin(arg)
    h = hx * _SX_A + hy * _SY_A
    if drive_on_b:
        h = h + (hx * _SX_B + hy * _SY_B)
    return h


def hamiltonian_2q_full(p: TwoSpinParams, t: float, drive_on_b: bool = False) -> np.ndarray:
    """Static two-spin Hamiltonian plus the rotating drive at time t."""
    return hamiltonian_2q(p) + drive_hamiltonian_2q(p, t, drive_on_b)


@dataclass(frozen=True)
class SchrodingerTrajectory:
    """Sampled propagation record: times (n,), states (n, dim), and the
    continuously unwrapped phase arg<psi(0)|psi(t)> (n,).  A block of B
    initial columns gives states (n, dim, B) and phases (n, B); the
    scalar properties below are for a single column."""

    t: np.ndarray
    psi: np.ndarray
    phase: np.ndarray

    @property
    def final_psi(self) -> np.ndarray:
        return self.psi[-1]

    @property
    def accumulated_global_phase(self) -> float:
        return float(self.phase[-1])

    @property
    def final_norm(self) -> float:
        return float(np.linalg.norm(self.psi[-1]))


def _spectral_spread(h: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(h)
    return float(evals[-1] - evals[0])


def integrate_schrodinger(
    psi0: np.ndarray,
    h_of_t,
    t_span: tuple[float, float],
    dt: float,
) -> SchrodingerTrajectory:
    """Fixed-step RK4 propagation of i d|psi>/dt = H(t)|psi>.

    psi0 is one state (dim,) or a block of states (dim, B), such as
    np.eye(dim) for the propagator.  All columns share the h_of_t calls of
    a step, and each column takes the same matrix-vector products as it
    would alone, so a block reproduces the B single-column runs.
    Requires every column to have |psi0| = 1 and dt * (max eigenvalue
    spread of H) <= 0.01; a violating step size raises StepSizeError
    instead of silently degrading.  The state is never renormalized.  Each
    column's global phase arg<psi(0)|psi(t)> is unwrapped step to step; a
    jump >= pi between healthy samples (overlap magnitude above 1e-6)
    aborts, since it means the sampling cannot resolve the phase winding.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi0, axis=0) - 1.0) > 1e-10):
        raise ValueError("initial state must be normalized")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")

    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)

    probe = times[:: max(1, n_steps // 32)]
    spread = max(_spectral_spread(h_of_t(t)) for t in probe)
    if h * spread > STEP_SPREAD_LIMIT * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt * spectral spread = {h * spread:.3e} exceeds {STEP_SPREAD_LIMIT}; "
            "reduce dt"
        )

    # A block runs as a (B, dim, 1) stack of column vectors, which np.matmul
    # multiplies one matrix-vector product at a time.
    dim = psi0.shape[0]
    if psi0.ndim == 1:
        psi, apply = psi0.copy(), np.ndarray.dot
    else:
        psi, apply = np.ascontiguousarray(psi0.T)[:, :, None], np.matmul
    out = np.empty((n_steps + 1,) + psi.shape, dtype=complex)
    out[0] = psi
    rows = out.reshape(n_steps + 1, -1, dim)  # (n+1, B, dim): one row per column
    rows0 = rows[0]
    angles = [0.0] * len(rows0)
    phase = [angles]
    half, sixth = 0.5 * h, h / 6.0
    two_pi, jump_limit = 2.0 * math.pi, math.pi * (1.0 - 1e-12)
    for k, t in enumerate(times[:-1].tolist(), start=1):
        h1 = h_of_t(t)
        hm = h_of_t(t + half)
        h2 = h_of_t(t + h)
        k1 = -1j * apply(h1, psi)
        k2 = -1j * apply(hm, psi + half * k1)
        k3 = -1j * apply(hm, psi + half * k2)
        k4 = -1j * apply(h2, psi + h * k3)
        psi = psi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = psi

        angles = angles.copy()
        for j, ov in enumerate(map(np.vdot, rows0, rows[k])):
            if abs(ov) > 1e-6:
                jump = math.atan2(ov.imag, ov.real) - angles[j]
                jump -= two_pi * round(jump / two_pi)
                if abs(jump) >= jump_limit:
                    raise RuntimeError(
                        "global-phase unwrapping lost continuity (per-step jump >= pi); "
                        "reduce dt"
                    )
                angles[j] += jump
        phase.append(angles)
    phase = np.array(phase)
    if psi0.ndim == 1:
        return SchrodingerTrajectory(t=times, psi=out, phase=phase[:, 0])
    return SchrodingerTrajectory(t=times, psi=rows.transpose(0, 2, 1), phase=phase)


def bloch_of_state(psi: np.ndarray) -> np.ndarray:
    """Bloch vector s_i = <psi|sigma_i|psi> of a normalized 2-dim state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("bloch_of_state expects a 2-dim state vector")
    a, b = psi
    sx = 2.0 * (np.conj(a) * b).real
    sy = 2.0 * (np.conj(a) * b).imag
    sz = (abs(a) ** 2 - abs(b) ** 2).real
    return np.array([sx, sy, sz])
