"""Fixed-step fourth-order Magnus propagation of long pulse-schedule runs,
with the energy integral carried through the fold, sampled at power-of-two
strides of equal step blocks for phase bookkeeping, and resampled at a
finer stride at no step's cost.

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
extra evaluation.  A dense step whose K has an eigenvalue of magnitude pi
or more, past the convergence bound of the Magnus series (Moan & Niesen,
Found. Comput. Math. 8, 291 (2008)), raises `StepSizeError` too.

The energy integral.  Scale H to (1 + lambda) H.  The map U of a run then
has G = i U^dagger dU/dlambda, at lambda = 0, equal to the integral of
U(t)^dagger H(t) U(t) dt over the run, so <psi0|G|psi0> is the integral of
the energy <psi|H|psi> of the run from psi0, the dynamic phase with its
sign flipped, with no quadrature.  Each map is held with its G, and the
product of two carries it (Iserles, Munthe-Kaas, Norsett & Zanna, Acta
Numerica 9, 215 (2000)):

    (U2, G2) (U1, G1) = (U2 U1, G1 + U1^dagger G2 U1).

A step's G is the derivative of its exponential map.  For a sector,
G = g . sigma / 2 with dw/dlambda = w + (sqrt(3)/12) h^2 v2 x v1 turned
back through the step's rotation (`magnus4_steps`); for a dense step, the
Daleckii-Krein divided differences of exp(-i x) on the eigenvalues of K
(`magnus4_dense_steps`).  A dense model may perturb by another operator than
H: a `FrameHamiltonian` integrates H + dPhi/dt, the energy of a frame that
turns by the diagonal Phi(t).  So the maps' G, at any stride, give every
sample's running energy integral <psi0|G|psi0> from any start state psi0,
read off the maps alone (`energy_integrals`).

Sampling.  A run is a whole number of sample blocks, the finest spacing it
can be sampled at.  The steps are taken once, at most `_CHUNK_STEPS` (or
one block, if longer) at a time, and the steps of each block folded by
pairwise products; the products over 2, 4, ... blocks are the next levels
of the same tree, kept while the maps live.  The samples every s blocks
come from a scan over the products of level log2(s), and halving the
stride costs one product per new sample: the product over the half
interval times the map at the sample before.  A dense run's states at the
samples are its maps times the start state, in one product (`samples_at`).
Whatever the stride, the energy integrals are exact for the steps: the
stride only sets where they are read.  A run's states are read at the
coarsest stride that keeps its fastest step frequency (the largest step
angle |w|, or eigenvalue spread of K, over dt) times the spacing within
MAX_SAMPLE_ANGLE, so that no oscillation aliases (`SampleMaps.read_stride`);
a run played backwards has the same step angles.

The work splits at the start state.  The maps from the run's start to each
of its samples (the controls at the Gauss nodes, the steps with their gap
guard, the block products and their levels, the maps at each stride, the
renormalized pairs, and the energy integrals carried with them) do not
depend on the state; only applying them does.  Every run starts at local
time 0, so a later run of the same Hamiltonian can take them as they are
(`SampleMaps`).  The Magnus-4 step is time-symmetric, so, under a time
reversal Theta that leaves H alone (complex conjugation of a real H, or the
mirror in the plane of a field that stays in one plane through z), a run
played backwards takes the maps of the run forwards with no step taken
(`SampleMaps.reversed`), and a run whose second half is its first half
played backwards folds its first half only.  Both take one mirror,
Theta X^-1 Theta^-1 of a map X (`SampleMaps._mirror`).

Oracle: `_check_spread` applies the RK4 step bound of `schrodinger` to a
dense Hamiltonian stack, and `rk4_transition_matrices`, the batched
one-step RK4 maps that `schrodinger.integrate_schrodinger` folds, is
re-exported from there.  It returns each complex d x d map in its real
2d x 2d form, whose complex map is m[:d, :d] + 1j m[d:, :d].  No production
path calls either; the tests propagate with them to check the Magnus paths.
"""

from __future__ import annotations

import math
import weakref
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
# through between two samples of its states (`SampleMaps.read_stride`):
# half the Nyquist limit, so that no oscillation of the samples can alias.
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


@dataclass(frozen=True)
class FrameHamiltonian:
    """A dense Hamiltonian H(times, *controls) (n, d, d) of a frame that
    turns by a diagonal Phi(t), psi = exp(-i Phi) psi', whose energy in the
    unturned frame is <psi'|H + dPhi/dt|psi'>: rate(times, *controls) gives
    the diagonal of dPhi/dt (n, d).  The steps are those of H, and the
    energy integrals those of H + dPhi/dt.  Called itself, it returns H."""

    hamiltonian: Callable[..., np.ndarray]
    rate: Callable[..., np.ndarray]

    def __call__(self, times, *controls) -> np.ndarray:
        return self.hamiltonian(times, *controls)


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
    """The fourth-order Magnus steps from the fields (3, n, S) at the first
    and second Gauss node of each step, as (n, S, 4): each step's
    Cayley-Klein pair (a, b) and its energy integral G = g . sigma / 2, held
    as (g_x + i g_y, g_z) (`_su2_carry`); the largest gap
    (sqrt(3)/12) h^2 |v2 x v1| between one of them and its midpoint step;
    and the largest step angle |w|.

    With e = (sqrt(3)/12) h^2 v2 x v1, dw/dlambda = w + e, and
    G = i U^dagger dU/dlambda of U = exp(-i w . sigma / 2) is the mean of
    dw/dlambda turned back through the step's rotation by s |w|, s in
    [0, 1]: g = w + (sin|w|/|w|) e + ((1 - sin|w|/|w|)/|w|^2) (w . e) w
    - ((1 - cos|w|)/|w|^2) w x e."""
    w = 0.5 * h * (v1 + v2)
    c = _MAGNUS_COMMUTATOR * h * h
    e = np.empty_like(w)
    e[0] = v2[1] * v1[2] - v2[2] * v1[1]
    e[1] = v2[2] * v1[0] - v2[0] * v1[2]
    e[2] = v2[0] * v1[1] - v2[1] * v1[0]
    gap = c * math.sqrt(float(np.max(np.einsum("i...,i...->...", e, e))))
    e *= c
    w += e
    angle = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    # where w = 0 so is e, and any finite factor gives 0
    inv = 1.0 / np.where(angle > 0.0, angle, 1.0)
    half_sin, half_cos = np.sin(0.5 * angle), np.cos(0.5 * angle)
    sinc = 2.0 * half_sin * half_cos * inv  # sin|w|/|w|
    fold = half_sin * inv
    fold *= 2.0 * fold  # (1 - cos|w|)/|w|^2
    (w0, w1, w2), (e0, e1, e2) = w, e
    along = (1.0 - sinc) * inv * inv * (w0 * e0 + w1 * e1 + w2 * e2) + 1.0
    steps = _time_inner(angle.shape + (4,))
    a, b, xi = steps[..., 0], steps[..., 1], steps[..., 2]
    xi.real = along * w0 + sinc * e0 - fold * (w1 * e2 - w2 * e1)
    xi.imag = along * w1 + sinc * e1 - fold * (w2 * e0 - w0 * e2)
    steps[..., 3] = along * w2 + sinc * e2 - fold * (w0 * e1 - w1 * e0)
    # w * sin(|w|/2) / |w|; then (a, b) = (cos(|w|/2) - i w_z, w_y - i w_x)
    w *= half_sin * inv
    a.real, a.imag = half_cos, -w[2]
    b.real, b.imag = w[1], -w[0]
    return steps, gap, float(angle.max())


def magnus4_dense_steps(
    h1: np.ndarray, h2: np.ndarray, h: float, rates=None
) -> tuple[np.ndarray, float, float]:
    """The fourth-order Magnus steps exp(-i K) from the Hamiltonians
    (n, d, d) at the first and second Gauss node of each step, as
    (n, 2d, d): each step's unitary above its energy integral G (see
    `_dense_carry`); the largest gap (sqrt(3)/12) h^2 ||[H2, H1]||
    (Frobenius norm) between one of them and its midpoint step; and the
    largest eigenvalue spread of K.  An eigenvalue of K of magnitude pi or
    more raises `StepSizeError`.

    G is the integral over s in [0, 1] of exp(isK) K' exp(-isK), with K' the
    lambda-derivative of K: in the eigenbasis of K, K'_jk times the divided
    difference (exp(i x) - 1)/(i x) at x = lambda_j - lambda_k (Daleckii and
    Krein).  K' is that of H + lambda H, or, with the diagonals rates
    (r1, r2) of dPhi/dt at the two nodes (n, d), of H + lambda (H + dPhi/dt)
    (`FrameHamiltonian`)."""
    c = _MAGNUS_COMMUTATOR * h * h
    comm = h2 @ h1
    comm -= h1 @ h2
    gap = c * math.sqrt(float(np.max(np.sum(np.abs(comm) ** 2, axis=(-2, -1)))))
    k = (0.5 * h) * (h1 + h2) - (1j * c) * comm
    evals, evecs = np.linalg.eigh(k)
    largest = float(max(-evals[:, 0].min(), evals[:, -1].max()))
    if largest >= math.pi:
        raise StepSizeError(
            f"Magnus-4 exponent K has an eigenvalue of magnitude {largest:.3f} >= pi, "
            "past the convergence bound of the Magnus series; reduce dt"
        )
    n, d = evals.shape
    # K' = K - i c [H2, H1], plus the diagonals' terms
    extra = comm
    if rates is not None:
        r1, r2 = rates
        k[:, range(d), range(d)] += (0.5 * h) * (r1 + r2)
        # [D2, H1] + [H2, D1] for the diagonals D
        extra = comm + (r2[:, :, None] - r2[:, None, :]) * h1 + (r1[:, None, :] - r1[:, :, None]) * h2
    k -= (1j * c) * extra
    m = evecs.conj().swapaxes(-1, -2) @ (k @ evecs)
    # (exp(ix) - 1)/(ix) = exp(ix/2) sinc(x/2): with the eigenvectors W
    # turned by exp(i lambda/2), G = W (M o sinc) W^dagger and
    # exp(-iK) = W exp(-i Lambda) W^dagger, one product for both
    m *= np.sinc((evals[:, :, None] - evals[:, None, :]) / (2.0 * math.pi))
    w = evecs * np.exp(0.5j * evals)[:, None, :]
    left = np.empty((n, 2 * d, d), dtype=complex)
    left[:, :d] = w * np.exp(-1j * evals)[:, None, :]
    np.matmul(w, m, out=left[:, d:])
    out = left @ w.conj().swapaxes(-1, -2)
    return out, gap, float(np.max(evals[:, -1] - evals[:, 0]))


def _time_inner(shape) -> np.ndarray:
    """An empty complex array of shape (..., S, 4), sector maps with their
    energy integrals, laid out with the leading (time) axes innermost, so
    that elementwise work on one slot of every sector runs along time."""
    *lead, sectors, slots = shape
    n = len(lead)
    return np.empty((slots, sectors, *lead), dtype=complex).transpose(*range(2, n + 2), 1, 0)


def _turned_back(p: np.ndarray, q: np.ndarray, xi: np.ndarray, zeta: np.ndarray):
    """(xi', zeta') of U^dagger G U, for U of Cayley-Klein pair (p, q) and
    G = g . sigma / 2 held as (xi, zeta) = (g_x + i g_y, g_z) (`_back`)."""
    t = zeta * p
    t += xi.conj() * q
    r = xi * p
    r -= zeta * q
    return _back(p, q, t, r)


def _back(p: np.ndarray, q: np.ndarray, t: np.ndarray, r: np.ndarray):
    """(xi', zeta') of `_turned_back` from t = zeta p + xi* q and
    r = xi p - zeta q, the first column of G U:

        xi' = p r - q t,   zeta' = Re(p* t + q* r).

    t is overwritten."""
    turned = p * r
    turned -= q * t
    t *= p.conj()
    t += r * q.conj()
    return turned, t.real


def _su2_carry(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products U_a U_b of two stacks of one shape, each map held on the
    last axis as [a, b, g_x + i g_y, g_z]: its Cayley-Klein pair and its
    energy integral G = g . sigma / 2.  The product's G is
    G_b + U_b^dagger G_a U_b (`_back`).  Every slot of U_a is multiplied
    by p and, conjugated, by q at once, with (p, q) the pair of U_b."""
    p, q = b[..., 0, None], b[..., 1, None]
    ap = a * p  # a0 p, a1 p, xi p, zeta p
    cq = a.conj()
    cq *= q  # a0* q, a1* q, xi* q, zeta q (g_z is real)
    out = _time_inner(a.shape)
    np.subtract(ap[..., 0], cq[..., 1], out=out[..., 0])
    np.add(ap[..., 1], cq[..., 0], out=out[..., 1])
    xi, zeta = _back(p[..., 0], q[..., 0], ap[..., 3] + cq[..., 2], ap[..., 2] - cq[..., 3])
    np.add(xi, b[..., 2], out=out[..., 2])
    np.add(zeta, b[..., 3].real, out=out[..., 3])
    return out


def _dense_carry(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products U_a U_b of two stacks of one shape, each map held as
    (2d, d): its unitary U above its energy integral G.  The product's G is
    G_b + U_b^dagger G_a U_b."""
    d = b.shape[-1]
    u = b[..., :d, :]
    out = a @ u  # U_a U_b above G_a U_b
    out[..., d:, :] = u.conj().swapaxes(-1, -2) @ out[..., d:, :]
    out[..., d:, :] += b[..., d:, :]
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
    nc steps at t_chunk, with their energy integrals ((nc/block, S, 4) per
    sector of a `SectorField`, else (nc/block, 2d, d)), and the largest
    angle of its steps: |w|, or the eigenvalue spread of K."""
    nodes = (t_chunk + dt * (_GAUSS_NODES[:, None] + np.arange(nc))).ravel()
    values = controls(nodes)
    if not isinstance(model, SectorField):
        h = model(nodes, *values)
        rates = None
        if isinstance(model, FrameHamiltonian):
            r = model.rate(nodes, *values)
            rates = r[:nc], r[nc:]
        steps, gap, angle = magnus4_dense_steps(h[:nc], h[nc:], dt, rates)
        _check_gap(gap, "||[H2, H1]||")
        return _block_products(steps, _dense_carry, block), angle
    v = model.field(nodes, *values)
    steps, gap, angle = magnus4_steps(v[:, :nc], v[:, nc:], dt)
    _check_gap(gap, "|v2 x v1|")
    return _block_products(steps, _su2_carry, block), angle


class SampleMaps:
    """The state-independent maps of one run from its start to its samples,
    each with its energy integral, at each stride (in sample blocks) asked
    so far.

    The first `propagate_sampled` call folds the run's steps, once, into the
    products over its sample blocks, levels[0].  levels[k] holds the
    products over 2^k blocks, each the product of two of levels[k-1], made
    when first needed and kept.
    maps[s] holds the maps to the samples every s blocks after the start:
    the first asked by a scan over its level, each finer one from the
    maps at twice its stride (made first if need be), with one product per
    new map: the map to a midpoint is the block product of the half
    interval before it times the map at the sample before that; and each
    coarser one as every (s/f)-th map of the nearest finer stride f, bit
    for bit.  So no stride takes a step or computes a map twice, and every
    product carries the energy integral with the map.

    stride is the stride that `propagate_sampled` samples at.  The fold
    sets read_stride to the coarsest power of two that divides the run's
    blocks and keeps the fastest step frequency (the largest step angle
    over dt) times the spacing within MAX_SAMPLE_ANGLE, the stride to read
    the run's states at, and stride to it unless given.

    phase gives the time reversal Theta of the run (`_mirror`): for a
    `SectorField`, the mirror in the plane spanned by z and
    (cos phase, sin phase, 0); for a dense H (phase None), complex
    conjugation.  A run whose H is left alone by Theta, such as a ramp at a
    fixed drive phase, played backwards takes these maps mirrored, with no
    step taken (`reversed`, whose source is then this run).  A symmetric
    run is its own first half followed by that half played backwards under
    Theta, H(T - t) = Theta H(t) Theta^-1, such as a phase sweep at a fixed
    amplitude whose phase runs symmetrically about its midpoint phase.  Its
    fold takes the steps of the first half only, and its levels hold the
    products over that half until the second half's are needed, which
    mirror them (`_level`).
    """

    def __init__(self, stride: int | None = None, symmetric: bool = False,
                 phase: float | None = None):
        self.stride, self.symmetric = stride, symmetric
        self.levels: list[np.ndarray] = []
        self.maps: dict[int, np.ndarray] = {}
        self.source: SampleMaps | None = None
        self._turn = None if phase is None else np.exp(2j * phase)
        self._reversed: Callable[[], SampleMaps | None] = lambda: None

    @property
    def filled(self) -> bool:
        """Whether the run is folded, or reversed from a folded run."""
        return bool(self.levels) or self.source is not None

    def fold(self, model, controls, n_steps: int, dt: float, block: int) -> None:
        """Take the run's steps, at most `_CHUNK_STEPS` (or one block, if
        longer) at a time, fold them into levels[0], and set read_stride,
        and the stride if none was given."""
        self.block, self.dt = block, dt
        self.sectors = isinstance(model, SectorField)
        self.pairs = np.array(model.rows).T if self.sectors else None  # first, second rows
        self._mul = _su2_carry if self.sectors else _dense_carry
        self.n_blocks = n_steps // block
        # a symmetric run folds the blocks up to its midpoint, and the middle
        # block if their number is odd
        n_fold = -(-self.n_blocks // 2) * block if self.symmetric else n_steps
        chunk = max(1, _CHUNK_STEPS // block) * block
        products, angle = [], 0.0
        for done in range(0, n_fold, chunk):
            part, part_angle = _chunk_products(
                model, controls, done * dt, min(chunk, n_fold - done), dt, block
            )
            products.append(part)
            angle = max(angle, part_angle)
        first = products[0]
        self.levels = [first if len(products) == 1 else np.concatenate(
            products, out=np.empty_like(first, shape=(n_fold // block,) + first.shape[1:]))]
        if self.symmetric and self.n_blocks % 2:  # the middle block mirrors itself
            self._level(0)
        # the angle turned per sample block at the fastest step frequency
        block_angle = angle * block
        stride = 1
        while self.n_blocks % (2 * stride) == 0 and 2 * stride * block_angle <= MAX_SAMPLE_ANGLE:
            stride *= 2
        self.read_stride = stride
        if self.stride is None:
            self.stride = stride

    @property
    def reversed(self) -> SampleMaps:
        """The maps of this folded run played backwards, H~(tau) = H(T - tau)
        over the same steps, at any stride, with no step taken: valid where
        Theta leaves H alone (see `SampleMaps`).

        The Magnus-4 step on the two symmetric Gauss nodes is time-symmetric
        (Blanes, Casas, Oteo & Ros): the backward run's step at tau takes the
        nodes of this run's step at T - tau - h in swapped order, which flips
        the sign of the commutator term, so it is Theta S^-1 Theta^-1 for
        this run's step S, at every lambda.  So from this run's prefix maps
        P_k (P_0 = 1, N samples), the backward run's map to sample j is the
        mirror of P_N P_{N-j}^dagger (`_mirror`).  It inherits this run's
        checked gaps and step angles, stride and read stride.

        It is made once, and holds this run, which holds it weakly: a cycle
        would keep both, with their levels, until the cyclic collector ran."""
        rev = self._reversed()
        if rev is None:
            rev = SampleMaps(self.stride)
            rev.block, rev.dt, rev._mul = self.block, self.dt, self._mul
            rev.sectors, rev.pairs = self.sectors, self.pairs
            rev.n_blocks, rev.read_stride, rev.source = self.n_blocks, self.read_stride, self
            rev._turn = self._turn
            self._reversed = weakref.ref(rev)
        return rev

    def _mirror(self, last: np.ndarray, earlier: np.ndarray) -> np.ndarray:
        """Theta X^-1 Theta^-1 of the maps X = last earlier^dagger (stacks
        that broadcast), with the energy integral Theta last dG last^dagger
        Theta^-1, dG = G_last - G_earlier, for the run's Theta (see
        `SampleMaps`): for a dense H, X^T with (last dG last^dagger)^T; per
        sector, with X = (a, b), the pair (a, -b* e^{2i phase}), and g
        turned by last and mirrored in the plane, xi -> xi* e^{2i phase}."""
        if not self.sectors:
            d = last.shape[-1]
            u = last[..., :d, :]
            out = np.empty(np.broadcast_shapes(last.shape, earlier.shape), dtype=complex)
            # X^T = earlier* last^T, and (last dG last^dagger)^T = last* dG^T last^T
            out[..., :d, :] = earlier[..., :d, :].conj() @ u.swapaxes(-1, -2)
            delta = (last[..., d:, :] - earlier[..., d:, :]).swapaxes(-1, -2)
            out[..., d:, :] = u.conj() @ delta @ u.swapaxes(-1, -2)
            return out
        # X = (a, b) (c, d)^dagger = (a c* + b* d, b c* - a* d) per sector
        a, b = last[..., 0], last[..., 1]
        c, d = earlier[..., 0], earlier[..., 1]
        out = _time_inner(np.broadcast_shapes(last.shape, earlier.shape))
        out[..., 0] = a * c.conj() + b.conj() * d
        out[..., 1] = (a * d.conj() - b.conj() * c) * self._turn
        # dG turned by last, that is back by last^dagger = (a*, -b)
        xi, out[..., 3] = _turned_back(a.conj(), -b, last[..., 2] - earlier[..., 2],
                                       (last[..., 3] - earlier[..., 3]).real)
        out[..., 2] = xi.conj() * self._turn
        return out

    def _one(self, like: np.ndarray) -> np.ndarray:
        """The identity map, with a zero energy integral, laid out as one of
        the maps like."""
        one = np.zeros(like.shape[-2:], dtype=complex)
        if self.sectors:
            one[:, 0] = 1.0
        else:
            np.fill_diagonal(one, 1.0)
        return one

    def at(self, stride: int) -> np.ndarray:
        """The maps to the samples every stride blocks, a power of two that
        divides the run's blocks, with their energy integrals."""
        if stride not in self.maps:
            k = stride.bit_length() - 1
            finer = [s for s in self.maps if s < stride]
            if self.source is not None:
                prefix = self.source.at(stride)
                earlier = np.empty_like(prefix)  # P_{N-s}, ..., P_s, P_0
                earlier[:-1], earlier[-1] = prefix[-2::-1], self._one(prefix)
                maps = self._unit(self._mirror(prefix[-1], earlier))
            elif finer:  # every (stride/f)-th map of the nearest finer stride f
                f = max(finer)
                maps = self.maps[f][stride // f - 1 :: stride // f]
            elif not self.maps:
                maps = self._unit(prefix_products(self._level(k), self._mul))
            else:
                # through the strides between
                coarse = self.at(2 * stride)
                halves = self._level(k)[0::2]
                mids = np.empty_like(coarse)
                mids[0] = halves[0]
                mids[1:] = self._mul(halves[1:], coarse[:-1])
                maps = np.empty_like(coarse, shape=(2 * len(coarse),) + coarse.shape[1:])
                maps[0::2] = self._unit(mids)
                maps[1::2] = coarse
            self.maps[stride] = maps
        return self.maps[stride]

    def _level(self, j: int) -> np.ndarray:
        """levels[j], the products over 2^j blocks of the whole run, made
        first if need be.  A symmetric run with an even number of blocks
        holds a level over its first half only while the midpoint falls
        between two of its products, and makes it whole, by mirroring that
        half's products in reverse order (`_mirror`, with the identity as
        earlier), when it is asked for or when the next level's pairs would
        straddle the midpoint."""
        while len(self.levels) <= j:
            below = self.levels[-1]
            if len(below) % 2:
                below = self._level(len(self.levels) - 1)
            self.levels.append(self._mul(below[1::2], below[0::2]))
        level = self.levels[j]
        whole = self.n_blocks >> j
        if len(level) < whole:
            tail = self._mirror(level[: whole - len(level)][::-1], self._one(level))
            level = self.levels[j] = np.concatenate(
                [level, tail], out=np.empty_like(level, shape=(whole,) + level.shape[1:]))
        return level

    def _unit(self, maps: np.ndarray) -> np.ndarray:
        # Rounding shrinks the norm of the steps and of their products by
        # about 1e-17 each on average; since the norm is multiplicative,
        # renormalizing the pairs keeps that bias from adding up over 10^6
        # steps.
        if self.sectors:
            pairs = maps[..., :2]
            pairs /= np.sqrt(np.sum(np.abs(pairs) ** 2, axis=-1, keepdims=True))
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
    (len, d, d) Hermitian stack (dense steps), such as a
    `FrameHamiltonian`.  Returns (times, states) with states sampled at 0
    and then after every block of steps_per_sample steps, a power of two
    that divides n_steps (a ValueError otherwise); states has shape
    (n_samples, d, m).  Sample k sits at (k * steps_per_sample) * dt, so
    halving dt and doubling steps_per_sample gives the same sample times.

    maps, if given, is the run's `SampleMaps`, and the samples come every
    maps.stride blocks.  An empty one is filled by the fold, and sets its
    strides; a filled one is applied to u0 as it is, with no Hamiltonian
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
    return samples_at(maps, u0, maps.stride)


def sample_times(maps: SampleMaps, stride: int) -> np.ndarray:
    """Local times of the run's samples at 0 and then every stride blocks."""
    return (np.arange(maps.n_blocks // stride + 1) * (stride * maps.block)) * maps.dt


def samples_at(maps: SampleMaps, u0: np.ndarray, stride: int):
    """Local times and states (n_samples, d, m) of the run of the folded
    maps that starts from u0, sampled at 0 and then every stride blocks (a
    power of two that divides the run's blocks).  The maps at each stride
    are computed once for all runs of maps; only applying them reads u0."""
    at = maps.at(stride)
    u = np.asarray(u0, dtype=complex)
    states = np.empty((len(at) + 1,) + u.shape, dtype=complex)
    states[:] = u
    if not maps.sectors:
        states[1:] = at[:, : len(u)] @ u
    else:
        i, j = maps.pairs
        a, b = at[:, :, 0, None], at[:, :, 1, None]
        states[1:, i] = a * u[i] - b.conj() * u[j]
        states[1:, j] = b * u[i] + a.conj() * u[j]
    return sample_times(maps, stride), states


def energy_integrals(maps: SampleMaps, u0: np.ndarray, stride: int) -> np.ndarray:
    """The integrals of <psi|H|psi> dt from the start of the run of the
    folded maps from the columns u0 (d, m) to each of its samples every
    stride blocks, <u0|G_k|u0> (n_samples, m), 0 at the start.  The G_k are
    carried with the maps, so they are exact for the run's steps at every
    stride.  Per sector (i, j), with G = g . sigma / 2 held as
    (xi, g_z) = (g_x + i g_y, g_z), x = u0[i] and y = u0[j], the sum over
    the sectors of Re(xi* x* y) + g_z (|x|^2 - |y|^2)/2; else Re(u0^dagger
    G u0)."""
    at = maps.at(stride)
    u = np.asarray(u0, dtype=complex)
    out = np.zeros((len(at) + 1, u.shape[1]))
    if not maps.sectors:
        d = at.shape[-1]
        out[1:] = np.einsum("am,kab,bm->km", u.conj(), at[:, d:], u).real
        return out
    i, j = maps.pairs
    x, y = u[i], u[j]
    out[1:] = (at[..., 2].conj() @ (x.conj() * y)).real
    out[1:] += at[..., 3].real @ (0.5 * (np.abs(x) ** 2 - np.abs(y) ** 2))
    return out
