"""Fixed-step fourth-order Magnus propagation of long pulse-schedule runs,
sampled at power-of-two strides of equal step blocks for phase and energy
bookkeeping, and resampled at a finer stride at no step's cost.

`propagate_sampled` runs the same Magnus-4 scheme in one of two forms, and
`samples_at` samples the folded run at any stride.  Which form follows from
the structure of the Hamiltonian it is given.  Both take the Hamiltonian at
the two Gauss nodes t + (1/2 -+ sqrt(3)/6) h of each step (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)):

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
extra evaluation.

Sampling.  A run is a whole number of sample blocks, the finest spacing it
can be sampled at.  The steps are taken once, at most `_CHUNK_STEPS` (or
one block, if longer) at a time, and the steps of each block folded by
pairwise products; the products over 2, 4, ... blocks are the next levels
of the same tree.  The samples every s blocks come from a prefix scan over
the products of level log2(s), and halving the stride costs one product per
new sample: the product over the half interval times the map at the sample
before.  A run starts at the coarsest stride that keeps its fastest step
frequency (the largest step angle |w|, or eigenvalue spread of K, over dt)
times the spacing within MAX_SAMPLE_ANGLE, so that no oscillation aliases;
whether to halve it is the caller's choice (`sequences._run_segment`).  A
run played backwards has the same step angles, and starts at the stride of
the fold it is reversed from.

The work splits at the start state.  The maps from the run's start to each
of its samples (the controls at the Gauss nodes, the steps with their gap
guard, the block products and their levels, the maps at each stride, the
renormalized pairs) do not depend on the state; only applying them does.
Every run starts at local time 0, so a later run of the same Hamiltonian
can take them as they are (`SampleMaps`), and a run of it played backwards
can take them reversed, with no step taken, where H is real or its field
stays in one plane through z, since the Magnus-4 step is time-symmetric
(`SampleMaps.reversed`).  The energy at the samples, as an observable of
the start state, depends on the run alone too: U^dagger H U in the
Heisenberg picture (`energy_observable`); a run contracts it with the
weights of its start state (`energy_weights`).  A run that needs one
component of each column, or its end state, reads one row of each map
(`reference_rows`) or the last map (`end_state`), by the products that
`samples_at` uses.

Oracle: `_check_spread` applies the RK4 step bound of `schrodinger` to a
dense Hamiltonian stack, and `rk4_transition_matrices`, the batched
one-step RK4 maps that `schrodinger.integrate_schrodinger` folds, is
re-exported from there.  It returns each complex d x d map in its real
2d x 2d form, whose complex map is m[:d, :d] + 1j m[d:, :d].  No production
path calls either; the tests propagate with them to check the Magnus paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import prefix_products
# rk4_transition_matrices is re-exported: the stepwise oracle's RK4 maps, in real form.
from .schrodinger import StepSizeError, check_step_spread, rk4_transition_matrices  # noqa: F401

# Largest accepted gap between the Magnus-4 and the midpoint step, in rad.
# At the default step a cone loop stays below 7e-5 sin(theta).
MAGNUS_GAP_LIMIT = 1e-3
# Largest angle, in rad, that the fastest step frequency of a run turns
# through between two samples at its start stride (`SampleMaps`): half the
# Nyquist limit, so that no oscillation of the samples can alias.
MAX_SAMPLE_ANGLE = 0.5 * math.pi
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


def magnus4_steps(v1: np.ndarray, v2: np.ndarray, h: float) -> tuple[np.ndarray, float, float]:
    """Cayley-Klein pairs (n, S, 2) of the fourth-order Magnus steps from
    the fields (3, n, S) at the first and second Gauss node of each step,
    the largest gap (sqrt(3)/12) h^2 |v2 x v1| between one of them and its
    midpoint step, and the largest step angle |w|."""
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
    return parts.view(complex), gap, float(angle.max())


def magnus4_dense_steps(
    h1: np.ndarray, h2: np.ndarray, h: float
) -> tuple[np.ndarray, float, float]:
    """Unitaries (n, d, d) of the fourth-order Magnus steps exp(-i K) from
    the Hamiltonians (n, d, d) at the first and second Gauss node of each
    step, the largest gap (sqrt(3)/12) h^2 ||[H2, H1]|| (Frobenius norm)
    between one of them and its midpoint step, and the largest eigenvalue
    spread of K."""
    c = _MAGNUS_COMMUTATOR * h * h
    comm = h2 @ h1
    comm -= h1 @ h2
    gap = c * math.sqrt(float(np.max(np.sum(np.abs(comm) ** 2, axis=(-2, -1)))))
    k = (0.5 * h) * (h1 + h2) - (1j * c) * comm
    evals, evecs = np.linalg.eigh(k)
    steps = (evecs * np.exp(-1j * evals)[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
    return steps, gap, float(np.max(evals[:, -1] - evals[:, 0]))


def _su2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cayley-Klein pairs of the products U_a U_b of two stacks of one shape
    (pairs on the last axis)."""
    a0, a1 = a[..., 0], a[..., 1]
    b0, b1 = b[..., 0], b[..., 1]
    out = np.empty(a.shape, dtype=complex)
    out[..., 0] = a0 * b0 - a1.conj() * b1
    out[..., 1] = a1 * b0 + a0.conj() * b1
    return out


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


def _chunk_products(model, controls, t_chunk: float, nc: int, dt: float, block: int):
    """Products over the consecutive blocks of `block` steps of a chunk of
    nc steps at t_chunk (Cayley-Klein pairs (nc/block, S, 2) per sector of
    a `SectorField`, else unitaries (nc/block, d, d)), and the largest angle
    of its steps: |w|, or the eigenvalue spread of K."""
    nodes = (t_chunk + dt * (_GAUSS_NODES[:, None] + np.arange(nc))).ravel()
    if not isinstance(model, SectorField):
        h = model(nodes, *controls(nodes))
        steps, gap, angle = magnus4_dense_steps(h[:nc], h[nc:], dt)
        _check_gap(gap, "||[H2, H1]||")
        return _block_products(steps, np.matmul, block), angle
    v = model.field(nodes, *controls(nodes))
    steps, gap, angle = magnus4_steps(v[:, :nc], v[:, nc:], dt)
    _check_gap(gap, "|v2 x v1|")
    return _block_products(steps, _su2_mul, block), angle


class SampleMaps:
    """The state-independent maps of one run from its start to its samples,
    at each stride (in sample blocks) asked so far.

    The first `propagate_sampled` call folds the run's steps, once, into the
    products over its sample blocks, levels[0].  levels[k] holds the
    products over 2^k blocks, each the product of two of levels[k-1], while
    a finer stride may still need them.
    maps[s] holds the maps to the samples every s blocks after the start:
    the first asked by the prefix scan over its level, each finer one from
    the maps at twice its stride (made first if need be), with one product
    per new map: the map to a midpoint is the block product of the half
    interval before it times the map at the sample before that (the last
    stage of the prefix scan); and each coarser one as every (s/f)-th map
    of the nearest finer stride f, bit for bit.
    So no stride takes a step or computes a map twice.

    stride is the stride that `propagate_sampled` samples at.  The fold
    sets it, unless given, to the coarsest power of two that divides the
    run's blocks and keeps the fastest step frequency (the largest step
    angle over dt) times the spacing within MAX_SAMPLE_ANGLE; a caller may
    lower it for later runs.  start_stride keeps the stride the fold
    sampled at.

    The maps of the run played backwards come from these with no step taken
    (`reversed`); source is then the folded run they come from.
    """

    def __init__(self, stride: int | None = None):
        self.stride = stride
        self.levels: list[np.ndarray] = []
        self.maps: dict[int, np.ndarray] = {}
        self.source: SampleMaps | None = None

    @property
    def filled(self) -> bool:
        """Whether the run is folded, or reversed from a folded run."""
        return bool(self.levels) or self.source is not None

    def fold(self, model, controls, n_steps: int, dt: float, block: int) -> None:
        """Take the run's steps, at most `_CHUNK_STEPS` (or one block, if
        longer) at a time, fold them into levels[0], and set the stride if
        none was given."""
        self.block, self.dt = block, dt
        self._mul = np.matmul if not isinstance(model, SectorField) else _su2_mul
        chunk = max(1, _CHUNK_STEPS // block) * block
        products, angle = [], 0.0
        for done in range(0, n_steps, chunk):
            part, part_angle = _chunk_products(
                model, controls, done * dt, min(chunk, n_steps - done), dt, block
            )
            products.append(part)
            angle = max(angle, part_angle)
        self.levels = [products[0] if len(products) == 1 else np.concatenate(products)]
        if self.stride is None:
            # the angle turned per sample block at the fastest step frequency
            n, block_angle = len(self.levels[0]), angle * block
            stride = 1
            while n % (2 * stride) == 0 and 2 * stride * block_angle <= MAX_SAMPLE_ANGLE:
                stride *= 2
            self.stride = stride
        self.start_stride = self.stride

    def reversed(self, phase: float | None = None) -> SampleMaps:
        """The maps of this folded run played backwards, H~(tau) = H(T - tau)
        over the same steps, at any stride, with no step taken.  Valid for a
        dense H that is real at every node (phase None), or for a
        `SectorField` whose field stays in the plane spanned by z and
        (cos phase, sin phase, 0).

        The Magnus-4 step on the two symmetric Gauss nodes is time-symmetric
        (Blanes, Casas, Oteo & Ros): the backward run's step at tau takes the
        nodes of this run's step at T - tau - h in swapped order, which flips
        the sign of the commutator term.  For a real H that step is
        exp(-i K*) = S^T; for a planar field it is w mirrored in the plane,
        S^T conjugated by exp(-i phase sigma_z / 2).  So from this run's
        prefix maps P_k (P_0 = 1, N samples), the backward run's map to
        sample j is D_j = (P_N P_{N-j}^dagger)^T, and per sector, with
        X = P_N P_{N-j}^dagger = (a, b), the pair (a, -b* e^{2i phase}).

        The backward run has this run's gaps and step angles, so it inherits
        their check and the stride the fold sampled at.  Its maps at each
        stride come from this run's maps at that stride, which the levels
        that this run keeps can make."""
        rev = SampleMaps(self.start_stride)
        rev.block, rev.dt, rev._mul, rev.source = self.block, self.dt, self._mul, self
        if phase is not None:
            rev._turn = np.exp(2j * phase)
        return rev

    def _reverse(self, prefix: np.ndarray) -> np.ndarray:
        """The maps D_j of `reversed` at the samples of the source's prefix
        maps (P_s, P_2s, ..., P_N)."""
        last, earlier = prefix[-1], prefix[-2::-1]  # P_N; P_{N-s}, ..., P_s
        maps = np.empty_like(prefix)
        if self._mul is not _su2_mul:
            maps[:-1] = earlier.conj() @ last.T  # (P_N P^dagger)^T = P* P_N^T
            maps[-1] = last.T
            return maps
        # X = (a, b) (c, d)^dagger = (a c* + b* d, b c* - a* d) per sector
        a, b = last[:, 0], last[:, 1]
        c, d = earlier[..., 0], earlier[..., 1]
        maps[:-1, :, 0] = a * c.conj() + b.conj() * d
        maps[:-1, :, 1] = (a * d.conj() - b.conj() * c) * self._turn
        maps[-1, :, 0] = a
        maps[-1, :, 1] = -b.conj() * self._turn
        return self._unit(maps)

    def at(self, stride: int) -> np.ndarray:
        """The maps to the samples every stride blocks, a power of two that
        divides the run's blocks."""
        if stride not in self.maps:
            k = stride.bit_length() - 1
            finer = [s for s in self.maps if s < stride]
            if self.source is not None:
                maps = self._reverse(self.source.at(stride))
            elif finer:  # every (stride/f)-th map of the nearest finer stride f
                f = max(finer)
                maps = self.maps[f][stride // f - 1 :: stride // f]
            elif not self.maps:
                while len(self.levels) <= k:
                    level = self.levels[-1]
                    self.levels.append(self._mul(level[1::2], level[0::2]))
                maps = self._unit(prefix_products(self.levels[k], self._mul))
                # midpoints take only the levels below: free the rest
                self.levels[k:] = [None] * (len(self.levels) - k)
            else:
                # through the strides between, whose levels are still held
                coarse = self.at(2 * stride)
                halves = self.levels[k][0::2]
                mids = np.empty_like(coarse)
                mids[0] = halves[0]
                mids[1:] = self._mul(halves[1:], coarse[:-1])
                maps = np.empty((2 * len(coarse),) + coarse.shape[1:], dtype=coarse.dtype)
                maps[0::2] = self._unit(mids)
                maps[1::2] = coarse
            self.maps[stride] = maps
        return self.maps[stride]

    def _unit(self, maps: np.ndarray) -> np.ndarray:
        # Rounding shrinks the norm of the steps and of their products by
        # about 1e-17 each on average; since the norm is multiplicative,
        # renormalizing the pairs keeps that bias from adding up over 10^6
        # steps.
        if self._mul is _su2_mul:
            maps /= np.sqrt(np.sum(np.abs(maps) ** 2, axis=-1, keepdims=True))
        return maps


def propagate_sampled(
    model,
    controls,
    n_steps: int,
    dt: float,
    u0: np.ndarray,
    steps_per_sample: int,
    maps: SampleMaps | None = None,
):
    """Propagate the columns u0 (d, m) over n_steps Magnus-4 steps of size
    dt, in local time from 0.

    The Hamiltonian at a 1-d array of local times is
    model(times, *controls(times)).  model is a `SectorField` (closed-form
    SU(2) steps per sector) or any callable that returns the matching
    (len, d, d) Hermitian stack (dense steps).  Returns (times, states)
    with states sampled at 0 and then after every block of
    steps_per_sample steps, a power of two that divides n_steps (a
    ValueError otherwise); states has shape (n_samples, d, m).
    Sample k sits at (k * steps_per_sample) * dt, so halving dt and
    doubling steps_per_sample gives the same sample times.

    maps, if given, is the run's `SampleMaps`, and the samples come every
    maps.stride blocks.  An empty one is filled by the fold, and sets its
    stride; a filled one is applied to u0 as it is, with no Hamiltonian
    evaluated and no step taken, as `samples_at` applies it at any stride.
    A filled one is only valid for a run of the same model, controls,
    n_steps, dt and steps_per_sample.
    """
    if n_steps % steps_per_sample:
        raise ValueError(
            f"steps_per_sample {steps_per_sample} does not divide n_steps {n_steps}"
        )
    if steps_per_sample & (steps_per_sample - 1):
        raise ValueError(f"steps_per_sample {steps_per_sample} is not a power of two")
    if maps is None:
        maps = SampleMaps(stride=1)
    if not maps.filled:
        maps.fold(model, controls, n_steps, dt, steps_per_sample)
    return samples_at(model, maps, u0, maps.stride)


def _dense_apply(coefs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sum over k of coefs[..., k] * u[k], for columns u (d, m): dense
    maps applied to u, with each element made by the same operations in the
    same order whichever rows of the maps are taken, which a stacked matmul
    does not promise."""
    out = coefs[..., 0] * u[0]
    for k in range(1, len(u)):
        out += coefs[..., k] * u[k]
    return out


def sample_times(maps: SampleMaps, stride: int) -> np.ndarray:
    """Local times of the run's samples at 0 and then every stride blocks."""
    return (np.arange(len(maps.at(stride)) + 1) * (stride * maps.block)) * maps.dt


def samples_at(model, maps: SampleMaps, u0: np.ndarray, stride: int):
    """Local times and states (n_samples, d, m) of the run of the folded
    maps that starts from u0, sampled at 0 and then every stride blocks (a
    power of two that divides the run's blocks).  The maps at each stride
    are computed once for all runs of maps; only applying them reads u0."""
    at = maps.at(stride)
    u = np.asarray(u0, dtype=complex)
    states = np.empty((len(at) + 1,) + u.shape, dtype=complex)
    states[:] = u
    if not isinstance(model, SectorField):
        states[1:] = _dense_apply(at[:, :, None], u)
    else:
        for s, (i, j) in enumerate(model.rows):
            a, b = at[:, s, 0, None], at[:, s, 1, None]
            states[1:, i] = a * u[i] - b.conj() * u[j]
            states[1:, j] = b * u[i] + a.conj() * u[j]
    return sample_times(maps, stride), states


def end_state(model, maps: SampleMaps, u0: np.ndarray) -> np.ndarray:
    """The state (d, m) at the end of the run of the folded maps that
    starts from u0: bit for bit the last state of `samples_at`, at any
    stride, since every stride ends on the same map."""
    last = maps.at(maps.stride)[-1]
    u = np.asarray(u0, dtype=complex)
    if not isinstance(model, SectorField):
        return _dense_apply(last[:, None], u)
    end = u.copy()
    for s, (i, j) in enumerate(model.rows):
        a, b = last[s]
        end[i] = a * u[i] - b.conj() * u[j]
        end[j] = b * u[i] + a.conj() * u[j]
    return end


def reference_rows(model, maps: SampleMaps, u0: np.ndarray, stride: int,
                   rows: np.ndarray) -> np.ndarray:
    """Component rows[c] of each column c of the run that starts from u0
    (d, m), sampled as `samples_at` samples it, bit for bit: (n_samples, m).
    Each column takes one row of each map, by the same products as
    `samples_at`."""
    at = maps.at(stride)
    u = np.asarray(u0, dtype=complex)
    cols = np.arange(u.shape[1])
    out = np.empty((len(at) + 1, len(cols)), dtype=complex)
    out[:] = u[rows, cols]
    if not isinstance(model, SectorField):
        out[1:] = _dense_apply(at[:, rows], u)
        return out
    for c, r in enumerate(np.asarray(rows).tolist()):
        for s, (i, j) in enumerate(model.rows):
            a, b = at[:, s, 0], at[:, s, 1]
            if r == i:
                out[1:, c] = a * u[i, c] - b.conj() * u[j, c]
            elif r == j:
                out[1:, c] = b * u[i, c] + a.conj() * u[j, c]
    return out


def energy_weights(model, u0: np.ndarray) -> np.ndarray:
    """The (K, m) weights of the start columns u0 (d, m) that make the
    energies of a run from u0 out of its `energy_observable` (S, K), as
    observable @ weights (S, m).  Per sector (i, j) of a `SectorField`, the
    halved Bloch vector of the components x = u0[i], y = u0[j]:
    (Re x* y, Im x* y, (|x|^2 - |y|^2)/2).  Else, from the products
    p_ab = u0[a]* u0[b] over the rows a <= b (`_hermitian_entries`), Re p_aa
    and 2 Re p_ab (a < b), and then 2 Im p_ab (a < b)."""
    u = np.asarray(u0, dtype=complex)
    if not isinstance(model, SectorField):
        a, b, upper = _hermitian_entries(len(u))
        pairs = u[a].conj() * u[b]
        pairs[upper] *= 2.0
        return np.concatenate([pairs.real, pairs[upper].imag])
    weights = np.empty((len(model.rows), 3, u.shape[1]))
    for s, (i, j) in enumerate(model.rows):
        xy = u[i].conj() * u[j]
        weights[s, 0], weights[s, 1] = xy.real, xy.imag
        weights[s, 2] = 0.5 * (np.abs(u[i]) ** 2 - np.abs(u[j]) ** 2)
    return weights.reshape(-1, u.shape[1])


def energy_observable(model, maps: SampleMaps, stride: int, h: np.ndarray) -> np.ndarray:
    """The energy of the run's samples every stride blocks as an observable
    of the start state, in real coordinates: (S, K), such that a run from
    any u0 has the energies <psi|H|psi> = observable @ energy_weights(model,
    u0).  This is the Heisenberg picture, U^dagger H U with U the map to
    each sample, so it depends on the run alone, as the maps do.

    h is the energy operator at the sample times.  For a `SectorField` it
    is the Bloch fields v (3, S, n_sectors), and each is rotated back by its
    sector's Cayley-Klein pair (a, b), g = R(U)^T v, in closed form:

        g_x + i g_y = w a^2 - w* b^2 - 2 v_z a b,
        g_z = v_z (|a|^2 - |b|^2) + 2 Re(a b* w),   w = v_x + i v_y,

    kept as (g_x, g_y, g_z) per sector.  Else it is a real symmetric stack
    (S, d, d), and U^dagger h U = A + iB comes from the real and imaginary
    parts x, y of U side by side, A_ab = x_a.h x_b + y_a.h y_b and
    B_ab = x_a.h y_b - y_a.h x_b, kept as A_ab over the rows a <= b and
    then -B_ab over a < b (`_hermitian_entries`)."""
    at = maps.at(stride)
    if isinstance(model, SectorField):
        g = np.empty(h.shape[1:] + (3,))
        g[0] = h[:, 0].T  # the start, where U = 1
        a, b = at[..., 0], at[..., 1]
        vx, vy, vz = h[:, 1:]
        w = vx + 1j * vy
        aw = a * w
        gxy = aw * a - (w.conj() * b + 2.0 * vz * a) * b
        g[1:, :, 0], g[1:, :, 1] = gxy.real, gxy.imag
        g[1:, :, 2] = vz * (np.abs(a) ** 2 - np.abs(b) ** 2) + 2.0 * (aw * b.conj()).real
        return g.reshape(len(g), -1)
    d = at.shape[-1]
    u = np.concatenate([np.eye(d, dtype=complex)[None], at])
    xy = u.view(float)  # (S, d, 2d): each column's real and imaginary part side by side
    # g[:, a, p, b, q] = (x, y)_a.h (x, y)_b for p, q = 0 (x) or 1 (y)
    g = (xy.swapaxes(-1, -2) @ (h @ xy)).reshape(len(u), d, 2, d, 2)
    a, b, upper = _hermitian_entries(d)
    re = g[:, a, 0, b, 0] + g[:, a, 1, b, 1]
    a, b = a[upper], b[upper]
    return np.concatenate([re, g[:, a, 1, b, 0] - g[:, a, 0, b, 1]], axis=1)


def _hermitian_entries(d: int):
    """Rows a and columns b of the entries on and above the diagonal of a
    d x d matrix, and where b > a."""
    a, b = np.triu_indices(d)
    return a, b, b > a
