"""Schrodinger-equation oracle for the 2-dim driven qubit and the 4-dim
coupled two-spin system.

Hamiltonians are stored as angular-frequency matrices (hbar = 1).  The
integrator is fixed-step RK4 on the complex ODE i d|psi>/dt = H(t)|psi>,
with no renormalization: norm drift is a measured diagnostic, and a step
size too large for the spectrum is rejected outright.  It takes one state
or a (dim, B) block of columns, such as the identity for a whole
propagator; the columns share the Hamiltonian stack, and each column's
norm check is its own.  The Hamiltonians take a scalar time or an array
of times.

The ODE is linear, so one RK4 step is one matrix (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)).  The formula holds in any real algebra,
so the steps run in real arithmetic on the real form [[X, -Y], [Y, X]] of
X + iY (`linalg.real_form`), with each column carried as (Re psi, Im psi).
The integrator runs in batched stages:

1. one h_of_t call on all nodes of the half-step grid, giving the
   (2n+1, d, d) complex stack, checked finite and Hermitian;
2. the step guard on that stack;
3. the one-step maps `rk4_transition_matrices` (which `engine`
   re-exports), the real (2d, 2d) forms that `linalg.rk4_step_maps`, the
   only copy of the formula, makes of the real form of -i H dt;
4. their fold by a prefix scan, `linalg.RK4_CHUNK` steps at a time, onto
   the chunk's start block of real columns (2d, B), one matrix product
   per step (`linalg.rk4_fold`);
5. psi = Re psi + i Im psi, rebuilt once after the fold, in the shape of
   the initial state.

The tests check it against a stage-form RK4 loop in complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import RabiParams
from .linalg import half_step_grid, pauli, real_form, rk4_fold, rk4_step_maps

# The drive's Paulis embedded on spin a of the two-spin basis.
_SX_A, _SY_A = np.kron(pauli("x"), np.eye(2)), np.kron(pauli("y"), np.eye(2))

# Max allowed dt * max(eigenvalue spread, largest |eigenvalue|); RK4 stays
# phase-accurate below this.
STEP_SPREAD_LIMIT = 0.01
# Largest |H - H^dagger| entry accepted, the atol of `linalg.expm_hermitian`.
HERMITIAN_TOL = 1e-10


class StepSizeError(ValueError):
    """Raised when dt is too coarse for the Hamiltonian's spectrum."""


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


def hamiltonian_1q(p: RabiParams, t) -> np.ndarray:
    """Rotating-wave lab-frame Hamiltonian of the driven qubit at time t:

        (1/2) [[omega0, omega1 e^{-i(wt+phi)}], [omega1 e^{+i(wt+phi)}, -omega0]]

    A scalar t gives (2, 2), an array of times (..., 2, 2)."""
    off = 0.5 * p.omega1 * np.exp(-1j * (p.omega * np.asarray(t, dtype=float) + p.phi))
    h = np.empty(off.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 0, 1] = 0.5 * p.omega0, off
    h[..., 1, 0], h[..., 1, 1] = np.conj(off), -0.5 * p.omega0
    return h


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


def drive_hamiltonian_2q(p: TwoSpinParams, t) -> np.ndarray:
    """Lab-frame drive term for the two-spin system at time t: the rotating
    field addressed to spin a.  A scalar t gives (4, 4), an array of times
    (..., 4, 4)."""
    d = p.drive
    arg = (d.omega * np.asarray(t, dtype=float) + d.phi)[..., None, None]
    hx = 0.5 * d.omega1 * np.cos(arg)
    hy = 0.5 * d.omega1 * np.sin(arg)
    return hx * _SX_A + hy * _SY_A


@dataclass(frozen=True)
class SchrodingerTrajectory:
    """Sampled propagation record: times (n,) and states (n, dim), or
    (n, dim, B) for a block of B initial columns."""

    t: np.ndarray
    psi: np.ndarray

    @property
    def final_psi(self) -> np.ndarray:
        return self.psi[-1]


def rk4_transition_matrices(h_half: np.ndarray, dt: float) -> np.ndarray:
    """One-step RK4 transition matrices of i d|psi>/dt = H(t)|psi> from
    Hamiltonians on the half-step grid t0, t0+dt/2, t0+dt, ... (shape
    (2n+1, d, d) in), as their real forms (n, 2d, 2d) out: the
    `linalg.rk4_step_maps` of the real form of -i H dt = dt Im H - i dt Re H,
    [[dt Im H, dt Re H], [-dt Re H, dt Im H]].  The complex map of a step m
    is m[:d, :d] + 1j * m[d:, :d]."""
    return rk4_step_maps(real_form(dt * h_half.imag, -dt * h_half.real))


def check_step_spread(hams: np.ndarray, dt: float) -> None:
    """Reject dt if dt times the larger of the largest eigenvalue spread and
    the largest |eigenvalue| over the stack hams (m, d, d) exceeds
    STEP_SPREAD_LIMIT.  For a traceless H every |eigenvalue| is at most the
    spread; a trace turns the global phase, which RK4 must resolve too."""
    evals = np.linalg.eigvalsh(hams)
    bound = float(max(np.max(evals[:, -1] - evals[:, 0]), np.max(np.abs(evals))))
    if dt * bound > STEP_SPREAD_LIMIT * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt * max(spectral spread, largest |eigenvalue|) = {dt * bound:.3e} "
            f"exceeds {STEP_SPREAD_LIMIT}; reduce dt"
        )


def _hamiltonian_stack(h_of_t, nodes: np.ndarray, dim: int) -> np.ndarray:
    """h_of_t(nodes) as a (len(nodes), dim, dim) complex stack, a (dim, dim)
    return broadcast to it; ValueError unless it is finite and Hermitian
    within HERMITIAN_TOL."""
    hams = np.asarray(h_of_t(nodes), dtype=complex)
    shape = (len(nodes), dim, dim)
    if hams.shape == shape[1:]:
        hams = np.broadcast_to(hams, shape)
    if hams.shape != shape:
        raise ValueError(f"h_of_t must return shape {shape[1:]} or {shape}, got {hams.shape}")
    if not np.all(np.isfinite(hams)):
        raise ValueError("Hamiltonian must be finite")
    defect = float(np.max(np.abs(hams - hams.conj().swapaxes(-1, -2))))
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"Hamiltonian is not Hermitian: max |H - H^dagger| = {defect:.3e} "
            f"exceeds {HERMITIAN_TOL}"
        )
    return hams


def integrate_schrodinger(
    psi0: np.ndarray,
    h_of_t,
    t_span: tuple[float, float],
    dt: float,
) -> SchrodingerTrajectory:
    """Fixed-step RK4 propagation of i d|psi>/dt = H(t)|psi>.

    psi0 is one state (dim,) or a block of states (dim, B), such as
    np.eye(dim) for the propagator.  h_of_t is called once, with the
    (2n+1,) nodes of the half-step grid of n steps, and returns H at those
    times as a (2n+1, dim, dim) stack, or a constant H as one (dim, dim)
    matrix (so `lambda t: h` works).  The one-step maps are built in batch
    and folded by a prefix scan onto each chunk's start block, one product
    per step for all columns, so a block reproduces the B single-column
    runs to rounding.  Requires a finite psi0 of shape
    (dim,) or (dim, B) with B >= 1 whose every column has |psi0| = 1, a
    finite, increasing t_span, a finite dt > 0 and a finite stack of that
    shape, Hermitian within HERMITIAN_TOL (ValueError otherwise), and
    dt * max(eigenvalue spread, largest |eigenvalue|) of H <= 0.01; a
    violating step size raises StepSizeError instead of silently degrading.
    The state is never renormalized.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or 0 in psi0.shape:
        raise ValueError(
            f"initial state must have shape (dim,) or (dim, B) with B >= 1, got {psi0.shape}"
        )
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be finite")
    if np.any(np.abs(np.linalg.norm(psi0, axis=0) - 1.0) > 1e-10):
        raise ValueError("initial state must be normalized")
    dim = psi0.shape[0]
    times, nodes, h = half_step_grid(t_span, dt)
    n_steps = len(times) - 1
    hams = _hamiltonian_stack(h_of_t, nodes, dim)
    check_step_spread(hams[0::2][:: max(1, n_steps // 32)], h)

    # The columns run as the real columns (Re psi, Im psi), (2 dim, B).
    cols = psi0.reshape(dim, -1)
    xy = rk4_fold(hams, np.concatenate([cols.real, cols.imag]),
                  lambda x: rk4_transition_matrices(x, h))
    psi = xy[:, :dim] + 1j * xy[:, dim:]  # (n+1, dim, B)
    return SchrodingerTrajectory(t=times, psi=psi.reshape((len(times),) + psi0.shape))


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
