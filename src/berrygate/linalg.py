"""Fixed-dimension complex linear algebra for one- and two-spin problems.

Everything lives in dimension 2 or 4, with the four-dimensional basis ordered
{up-up, up-down, down-up, down-down}.  States and operators are plain numpy
complex arrays; the helpers here build the Pauli algebra, tensor products
and the exact propagator of a constant Hermitian generator, with the
dimension and Hermiticity checks that go with them.
"""

from __future__ import annotations

import numpy as np

# Computational basis kets, |0> identified with spin-up throughout the repo.
KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Return the standard 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'")


def pauli_dot(vec: np.ndarray) -> np.ndarray:
    """Contraction v . sigma for a real or complex 3-vector v."""
    vx, vy, vz = vec
    return np.array([[vz, vx - 1j * vy], [vx + 1j * vy, -vz]], dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 operators in the fixed 4-dim basis order.

    Basis order is {up-up, up-down, down-up, down-down}: the first factor acts
    on the first (slow) spin.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator exp(-i h t) for a Hermitian h of dimension 2 or 4,
    from its eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    if h.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {h.shape}")
    if not np.allclose(h, h.conj().T, atol=1e-10):
        raise ValueError("generator is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
