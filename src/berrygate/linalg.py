"""Fixed-dimension complex linear algebra for one- and two-spin problems.

Everything lives in dimension 2 or 4, with the four-dimensional basis ordered
{up-up, up-down, down-up, down-down}.  States and operators are plain numpy
complex arrays; the helpers here add the dimension/Hermiticity/unitarity
checks the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

# Computational basis kets, |0> identified with spin-up throughout the repo.
KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

IDENTITY_2 = np.eye(2, dtype=complex)


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


def expm_hermitian(h: np.ndarray, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary propagator exp(-i h t) for a Hermitian h of dimension 2 or 4.

    For a 2x2 generator the closed form
        exp(-i (a . sigma) theta) = cos(theta) 1 - i sin(theta) (a_hat . sigma)
    is used; the 4x4 case goes through an eigendecomposition.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {h.shape}")
    if not np.allclose(h, h.conj().T, atol=tol):
        raise ValueError("generator is not Hermitian")
    if h.shape == (2, 2):
        c0 = 0.5 * (h[0, 0] + h[1, 1]).real
        ax = h[0, 1].real
        ay = -h[0, 1].imag
        az = 0.5 * (h[0, 0] - h[1, 1]).real
        norm = np.sqrt(ax * ax + ay * ay + az * az)
        theta = norm * t
        if norm == 0.0:
            u = IDENTITY_2.copy()
        else:
            nhat = np.array([ax, ay, az]) / norm
            u = np.cos(theta) * IDENTITY_2 - 1j * np.sin(theta) * pauli_dot(nhat)
        return np.exp(-1j * c0 * t) * u
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(m - m.conj().T) < tol))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(m.conj().T @ m - np.eye(m.shape[0])) < tol))
