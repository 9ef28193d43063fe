"""Fixed-step fourth-order Magnus propagation of long pulse-schedule runs,
sampled after every block of a power-of-two number of steps for phase and
energy bookkeeping.

One entry point, `propagate_sampled`, runs the same Magnus-4 scheme in one
of two forms.  Which one follows from the structure of the Hamiltonian it is
given.  Both take the Hamiltonian at the two Gauss nodes
t + (1/2 -+ sqrt(3)/6) h of each step (Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)):

* `SectorField`: H(t) is a direct sum of uncoupled two-level sectors, equal
  to (1/2) v_s(t) . sigma on the row pair rows[s].  Each step of each sector
  is the closed-form map exp(-i w . sigma / 2) with

      w = h/2 (v1 + v2) + (sqrt(3)/12) h^2 v2 x v1.

  Each step is a unit quaternion, held as its Cayley-Klein pair (a, b) with
  U = [[a, -b*], [b, a*]], so every map is unitary up to rounding, and the
  running pairs act straight on the state's two rows of each sector.

* Any other callable (times, *controls) -> (n, d, d) Hermitian stack, such
  as the two-spin drive that also reaches spin b and so couples the
  sectors.  Each step is exp(-i K) with

      K = h/2 (H1 + H2) - i (sqrt(3)/12) h^2 [H2, H1],

  from a batched `eigh` of K.

In both, the commutator term is the gap between the step and the
second-order (midpoint) Magnus step, so (sqrt(3)/12) h^2 |v2 x v1|, or
(sqrt(3)/12) h^2 ||[H2, H1]|| in the Frobenius norm, is the step's embedded
error estimate (Kormann, Holmgren & Karlsson, J. Chem. Phys. 128, 184101
(2008)); a step whose gap exceeds `MAGNUS_GAP_LIMIT` raises `StepSizeError`.
It comes from the Hamiltonian at the Gauss nodes, so the guard costs no
extra evaluation.  A run is a whole number of sample blocks: the steps of
each block are folded by pairwise products, and the samples of a chunk
come from a prefix scan over the block products.  At most `_CHUNK_STEPS`
steps (or one sample block, if longer) are held at a time.

The work splits at the start state.  The maps from a chunk's start to each
of its samples (the controls at the Gauss nodes, the steps with their gap
guard, the block products, the prefix scan, the renormalized pairs) do not
depend on the state; only applying them does.  Where the Hamiltonian is a
function of the time since the run's start t0 alone, they do not depend on
t0 either, so a later run of the same segment can take them as they are
(`propagate_sampled`'s maps).  `sequences._run_plan` relies on this for its
two production models, whose Hamiltonians (`sequences._cone_field`,
`sequences._h2q_stack`) read their times only for their length and take the
controls at local time.  A Hamiltonian given as a plain callable may depend
on absolute time, and is propagated afresh on every use.

Oracle: `_check_spread` applies the RK4 step bound of `schrodinger` to a
dense Hamiltonian stack, and `rk4_transition_matrices`, the batched
one-step RK4 maps that `schrodinger.integrate_schrodinger` folds, is
re-exported from there.  No production path calls either; the tests
propagate with them to check the Magnus paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import prefix_products
# rk4_transition_matrices is re-exported: the RK4 maps of the stepwise oracle.
from .schrodinger import StepSizeError, check_step_spread, rk4_transition_matrices  # noqa: F401

# Largest accepted gap between the Magnus-4 and the midpoint step, in rad.
# At the default step a cone loop stays below 7e-5 sin(theta).
MAGNUS_GAP_LIMIT = 1e-3
_CHUNK_STEPS = 16384
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class SectorField:
    """Hamiltonian of uncoupled two-level sectors: (1/2) v_s(t) . sigma on
    the row pair rows[s] of a dim x dim matrix, zero elsewhere.

    field(times, *controls) returns the Bloch fields v as a (3, n, S)
    array.  Called itself, it returns the matching (n, dim, dim) Hamiltonian
    stack.
    """

    field: Callable[..., np.ndarray]
    rows: tuple[tuple[int, int], ...]
    dim: int

    def __call__(self, times, *controls) -> np.ndarray:
        return sector_hamiltonians(self.field(times, *controls), self.rows, self.dim)

    def expectation(self, field: np.ndarray, states: np.ndarray) -> np.ndarray:
        """<psi|H|psi> (n, m) of the columns of states (n, dim, m) under the
        fields (3, n, S) at the same times, from each sector's two
        components x, y:
        (1/2) [v_z (|x|^2 - |y|^2) + 2 v_x Re(x* y) + 2 v_y Im(x* y)]."""
        energies = np.zeros((states.shape[0], states.shape[2]))
        for s, (i, j) in enumerate(self.rows):
            x, y = states[:, i], states[:, j]
            xy = x.conj() * y
            vx, vy, vz = field[:, :, s, None]
            energies += 0.5 * vz * (np.abs(x) ** 2 - np.abs(y) ** 2)
            energies += vx * xy.real + vy * xy.imag
        return energies


def sector_hamiltonians(field: np.ndarray, rows, dim: int) -> np.ndarray:
    """(n, dim, dim) stack of the sum over sectors of (1/2) v_s . sigma
    placed on rows[s], from fields of shape (3, n, S)."""
    h = np.zeros((field.shape[1], dim, dim), dtype=complex)
    for s, (i, j) in enumerate(rows):
        vx, vy, vz = field[:, :, s]
        h[:, i, i] = 0.5 * vz
        h[:, j, j] = -0.5 * vz
        h[:, i, j] = 0.5 * (vx - 1j * vy)
        h[:, j, i] = 0.5 * (vx + 1j * vy)
    return h


def _check_gap(gap: float, norm: str) -> None:
    if gap > MAGNUS_GAP_LIMIT:
        raise StepSizeError(
            f"Magnus-4 step gap (sqrt(3)/12) dt^2 {norm} = {gap:.3e} exceeds "
            f"the tolerance {MAGNUS_GAP_LIMIT}; reduce dt"
        )


def magnus4_steps(v1: np.ndarray, v2: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Cayley-Klein pairs (n, S, 2) of the fourth-order Magnus steps from
    the fields (3, n, S) at the first and second Gauss node of each step,
    and the largest gap (sqrt(3)/12) h^2 |v2 x v1| between one of them and
    its midpoint step."""
    w = 0.5 * h * (v1 + v2)
    c = _MAGNUS_COMMUTATOR * h * h
    cross = np.empty_like(w)
    cross[0] = v2[1] * v1[2] - v2[2] * v1[1]
    cross[1] = v2[2] * v1[0] - v2[0] * v1[2]
    cross[2] = v2[0] * v1[1] - v2[1] * v1[0]
    gap = c * math.sqrt(float(np.max(np.einsum("i...,i...->...", cross, cross))))
    w += c * cross
    angle = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    # w * sin(|w|/2) / |w|; where w = 0 any finite factor gives 0
    w *= np.sin(0.5 * angle) / np.where(angle > 0.0, angle, 1.0)
    # with w so scaled, (a, b) = (cos(|w|/2) - i w_z, w_y - i w_x), written
    # as real and imaginary parts
    parts = np.empty(angle.shape + (4,))
    parts[..., 0] = np.cos(0.5 * angle)
    parts[..., 1] = -w[2]
    parts[..., 2] = w[1]
    parts[..., 3] = -w[0]
    return parts.view(complex), gap


def magnus4_dense_steps(h1: np.ndarray, h2: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Unitaries (n, d, d) of the fourth-order Magnus steps exp(-i K) from
    the Hamiltonians (n, d, d) at the first and second Gauss node of each
    step, and the largest gap (sqrt(3)/12) h^2 ||[H2, H1]|| (Frobenius
    norm) between one of them and its midpoint step."""
    c = _MAGNUS_COMMUTATOR * h * h
    comm = h2 @ h1
    comm -= h1 @ h2
    gap = c * math.sqrt(float(np.max(np.sum(np.abs(comm) ** 2, axis=(-2, -1)))))
    k = (0.5 * h) * (h1 + h2) - (1j * c) * comm
    evals, evecs = np.linalg.eigh(k)
    return (evecs * np.exp(-1j * evals)[:, None, :]) @ evecs.conj().swapaxes(-1, -2), gap


def _su2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cayley-Klein pair of the product U_a U_b (pairs on the last axis)."""
    a0, a1 = a[..., 0], a[..., 1]
    b0, b1 = b[..., 0], b[..., 1]
    return np.stack([a0 * b0 - a1.conj() * b1, a1 * b0 + a0.conj() * b1], axis=-1)


def _check_spread(model, controls, t_chunk: float, nc: int, dt: float) -> None:
    """Oracle step guard: reject dt if dt times the spectral spread of H,
    at every 16th node of the half-step grid of nc RK4 steps from t_chunk,
    exceeds STEP_SPREAD_LIMIT."""
    n_nodes = 2 * nc + 1
    nodes = t_chunk + 0.5 * dt * np.arange(0, n_nodes, max(1, n_nodes // 16))
    check_step_spread(model(nodes, *controls(nodes)), dt)


def _block_products(steps: np.ndarray, mul, block: int) -> np.ndarray:
    """Time-ordered products over consecutive blocks of `block` steps (a
    power of two that divides the step count) along axis 0, later steps on
    the left."""
    x = steps.reshape(-1, block, *steps.shape[1:])
    while x.shape[1] > 1:
        x = mul(x[:, 1::2], x[:, 0::2])
    return x[:, 0]


def _chunk_maps(model, controls, t_chunk: float, nc: int, dt: float, block: int) -> np.ndarray:
    """State-independent maps from the start of a chunk of nc steps at
    t_chunk to each of its nc/block samples: Cayley-Klein pairs
    (nc/block, S, 2) per sector of a `SectorField`, else unitaries
    (nc/block, d, d)."""
    nodes = (t_chunk + dt * (_GAUSS_NODES[:, None] + np.arange(nc))).ravel()
    if not isinstance(model, SectorField):
        h = model(nodes, *controls(nodes))
        steps, gap = magnus4_dense_steps(h[:nc], h[nc:], dt)
        _check_gap(gap, "||[H2, H1]||")
        return prefix_products(_block_products(steps, np.matmul, block), np.matmul)
    v = model.field(nodes, *controls(nodes))
    steps, gap = magnus4_steps(v[:, :nc], v[:, nc:], dt)
    _check_gap(gap, "|v2 x v1|")
    pairs = prefix_products(_block_products(steps, _su2_mul, block), _su2_mul)
    # Rounding shrinks the norm of the steps and of their products by about
    # 1e-17 each on average; since the norm is multiplicative, renormalizing
    # the products keeps that bias from adding up over 10^6 steps.
    pairs /= np.sqrt(np.sum(np.abs(pairs) ** 2, axis=-1, keepdims=True))
    return pairs


def _apply_maps(model, maps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States (len(maps),) + u.shape of the maps of `_chunk_maps` applied
    to the chunk's start state u."""
    if not isinstance(model, SectorField):
        return maps @ u
    states = np.empty(maps.shape[:1] + u.shape, dtype=complex)
    states[:] = u
    for s, (i, j) in enumerate(model.rows):
        a, b = maps[:, s, 0, None], maps[:, s, 1, None]
        states[:, i] = a * u[i] - b.conj() * u[j]
        states[:, j] = b * u[i] + a.conj() * u[j]
    return states


def propagate_sampled(
    model,
    t0: float,
    n_steps: int,
    dt: float,
    u0: np.ndarray,
    controls,
    steps_per_sample: int,
    maps: list | None = None,
):
    """Propagate the columns u0 (d, m) over n_steps Magnus-4 steps of size
    dt.

    The Hamiltonian at a 1-d array of absolute times is
    model(times, *controls(times)).  model is a `SectorField` (closed-form
    SU(2) steps per sector) or any callable that returns the matching
    (len, d, d) Hermitian stack (dense steps).  Returns (times, states)
    with states sampled at t0 and then after every block of
    steps_per_sample steps, a power of two that divides n_steps (a
    ValueError otherwise); states has shape (n_samples, d, m).
    Sample k sits at t0 + (k * steps_per_sample) * dt, so halving dt and
    doubling steps_per_sample gives the same sample times.

    maps, if given, holds the state-independent sample maps of the run, one
    entry per chunk: an empty list is filled, and a filled one is applied
    to u0 as it is, with no Hamiltonian evaluated and no step taken.  A
    filled list is only valid for a run of the same n_steps, dt and
    steps_per_sample whose Hamiltonian is the same function of the time
    since t0 (see the module docstring).
    """
    if n_steps % steps_per_sample:
        raise ValueError(
            f"steps_per_sample {steps_per_sample} does not divide n_steps {n_steps}"
        )
    u = np.asarray(u0, dtype=complex).copy()
    samples = [u[None]]
    times = [np.array([t0])]
    chunk = max(1, _CHUNK_STEPS // steps_per_sample) * steps_per_sample
    reuse = bool(maps)
    for k, done in enumerate(range(0, n_steps, chunk)):
        if reuse:
            chunk_maps = maps[k]
        else:
            nc = min(chunk, n_steps - done)
            chunk_maps = _chunk_maps(model, controls, t0 + done * dt, nc, dt, steps_per_sample)
            if maps is not None:
                maps.append(chunk_maps)
        states = _apply_maps(model, chunk_maps, u)
        ends = np.arange(1, len(states) + 1) * steps_per_sample
        samples.append(states)
        times.append(t0 + (done + ends) * dt)
        u = states[-1]
    return np.concatenate(times), np.concatenate(samples)
