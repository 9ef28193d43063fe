"""Single- and two-qubit phase-gate algebra.

Computational basis binding used package-wide: |0> = spin-up, |1> = spin-down,
and the two-qubit basis is {|00>, |01>, |10>, |11>}.  Together with the
Hadamard, the family of controlled phase gates B(phi) is universal (any
n-qubit unitary decomposes into O(4^n n) such gates); here we only need the
pieces that certify a diagonal two-qubit gate as a controlled phase shift up
to local z-rotations and a global phase.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import KET_UP

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def hadamard() -> np.ndarray:
    return HADAMARD.copy()


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}): phase shift on |1>."""
    return np.diag([1.0, np.exp(1j * phi)])


def controlled_phase(phi: float) -> np.ndarray:
    """B(phi) = diag(1, 1, 1, e^{i phi}): phase shift on |11| only."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


def prepare_network(theta: float, phi: float) -> np.ndarray:
    """State produced by the four-gate network H, phase(2 theta), H,
    phase(pi/2 + phi) acting on |0>; equals cos(theta)|0> + e^{i phi}
    sin(theta)|1> up to one global phase."""
    psi = HADAMARD @ KET_UP
    psi = phase_gate(2.0 * theta) @ psi
    psi = HADAMARD @ psi
    return phase_gate(0.5 * math.pi + phi) @ psi


def gate_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-invariant overlap |tr(a^dag b)| / dim of two unitaries."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])


def local_phase_equivalence(g: np.ndarray, tol: float = 1e-9):
    """Decompose a diagonal two-qubit unitary into global phase, single-qubit
    z-phases and a controlled phase B(phi_B).

    Writing the diagonal phases as (chi00, chi01, chi10, chi11), the exact
    decomposition is

        phi_B   = chi00 - chi01 - chi10 + chi11
        phi_a   = chi10 - chi00     (phase on |1> of the first qubit)
        phi_b   = chi01 - chi00     (phase on |1> of the second qubit)
        global  = chi00

    Returns (phi_a, phi_b, phi_B, global_phase).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if np.max(np.abs(g - np.diag(np.diag(g)))) > tol:
        raise ValueError("matrix is not diagonal")
    chi = np.angle(np.diag(g))
    phi_b_gate = chi[0] - chi[1] - chi[2] + chi[3]
    phi_a = chi[2] - chi[0]
    phi_b = chi[1] - chi[0]
    return float(phi_a), float(phi_b), float(phi_b_gate), float(chi[0])


def compose_local_phase_gate(
    phi_a: float, phi_b: float, phi_b_gate: float, global_phase: float
) -> np.ndarray:
    """Inverse of local_phase_equivalence: global * (locals) * B(phi_B)."""
    locals_ = np.kron(phase_gate(phi_a), phase_gate(phi_b))
    return np.exp(1j * global_phase) * locals_ @ controlled_phase(phi_b_gate)
