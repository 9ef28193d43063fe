"""Fixed-dimension linear algebra for one- and two-spin problems.

Everything lives in dimension 2 or 4, with the four-dimensional basis ordered
{up-up, up-down, down-up, down-down}.  States and operators are plain numpy
complex arrays; the helpers here build the Pauli algebra, tensor products
and the exact propagator of a constant Hermitian generator, with the
dimension and Hermiticity checks that go with them.

It also holds what the RK4 oracles of du/dt = G(t) u in `bloch` (real 3x3
G) and `schrodinger` (G = -i H) share, all of it in real arithmetic: the
half-step grid, the real form of a complex matrix, the one-step maps, and
their chunked fold by the prefix scan that the engine's Magnus fold uses.
The Schrodinger oracle runs on the real 2d x 2d form of its complex d x d
generators, because numpy multiplies stacks of small real matrices several
times faster than complex ones.
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


# Steps whose one-step maps are held at a time: memory O(RK4_CHUNK d^2).
RK4_CHUNK = 1024


def half_step_grid(t_span, dt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Fixed-step grid of n = max(1, round((t1 - t0) / dt)) steps of size
    h = (t1 - t0) / n: the step times (n+1,), the nodes t0, t0 + h/2,
    t0 + h, ... of the half-step grid (2n+1,), and h."""
    t0, t1 = t_span
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ValueError(f"t_span and dt must be finite, got {tuple(t_span)} and {dt}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    nodes = t0 + (0.5 * h) * np.arange(2 * n_steps + 1)  # nodes[2k] = t0 + h k exactly
    return nodes[0::2], nodes, h


def real_form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The real form [[X, -Y], [Y, X]] (..., 2d, 2d) of the complex matrices
    X + iY, from their real parts x and imaginary parts y (..., d, d).  It
    maps sums and products of complex matrices to those of their real forms,
    and X + iY acting on x + iy to it acting on the column (x, y)."""
    d = x.shape[-1]
    out = np.empty(x.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = x
    out[..., :d, d:] = -y
    out[..., d:, :d] = y
    return out


def rk4_step_maps(a: np.ndarray) -> np.ndarray:
    """One-step RK4 maps of du/dt = G(t) u from the real scaled generators
    a = h G on the half-step grid (shape (2n+1, d, d) in, (n, d, d) out).
    Because the ODE is linear, one RK4 step is the matrix

        M = 1 + (K1 + 2 K2 + 2 K3 + K4) / 6
        K1 = A1,  K2 = A2 (1 + K1/2),  K3 = A2 (1 + K2/2),  K4 = A4 (1 + K3)

    with A_i = a at stage i (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)).  The sum is taken as 2 ((K2 + A1/2) + K3) + K4, which
    rounds as the sum written above, because scaling by 2 is exact."""
    a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
    k = a2 @ a1
    k *= 0.5
    k += a2  # K2
    m = 0.5 * a1
    m += k
    k = a2 @ k
    k *= 0.5
    k += a2  # K3
    m += k
    m *= 2.0
    k = a4 @ k
    k += a4  # K4
    m += k
    m /= 6.0
    m.reshape(len(m), -1)[:, :: a.shape[-1] + 1] += 1.0
    return m


def prefix_products(x: np.ndarray, mul) -> np.ndarray:
    """Running products x[k] ... x[0] along axis 0 under the product mul, by
    the work-efficient scan: the running products of the pair products
    x[2k+1] x[2k] give the odd entries, and each even entry is x[2k] times
    the odd one before it, about 2n products in all."""
    n = x.shape[0]
    out = np.empty_like(x)
    out[0] = x[0]
    if n > 1:
        out[1::2] = prefix_products(mul(x[1::2], x[0 : n - 1 : 2]), mul)
        out[2::2] = mul(x[2::2], out[1 : n - 1 : 2])
    return out


def rk4_fold(stack: np.ndarray, u0: np.ndarray, step_maps) -> np.ndarray:
    """Real states (n+1, d, B) of n RK4 steps from the B real columns u0
    (d, B), given the generator stacked at the 2n+1 nodes of the half-step
    grid and step_maps, which turns 2m+1 consecutive entries into m real
    one-step maps (d, d).  The maps of `RK4_CHUNK` steps at a time are
    folded by `prefix_products` onto the chunk's start columns, one matrix
    product per step for all columns."""
    n_steps = (len(stack) - 1) // 2
    out = np.empty((n_steps + 1,) + u0.shape)
    out[0] = u0
    for start in range(0, n_steps, RK4_CHUNK):
        stop = min(start + RK4_CHUNK, n_steps)
        maps = prefix_products(step_maps(stack[2 * start : 2 * stop + 1]), np.matmul)
        np.matmul(maps, out[start], out=out[start + 1 : stop + 1])
    return out
