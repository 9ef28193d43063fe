"""Simulation of the experimental sequences and their phase bookkeeping.

Single-qubit schedules are integrated in the frame rotating at the (constant)
drive frequency, where the Rabi vector is the slow control vector Omega'(t);
the lab/rotating equivalence is itself verified in the test suite.  The
two-spin system is reported in the frame rotating at the drive frequency
for spin a and at omega_b for spin b, which removes both fast Zeeman
precessions while leaving the J coupling and the drive on spin a unchanged.
A drive that also reaches spin b turns there at omega - omega_b, so that
run is integrated in the frame where both spins turn at the drive frequency
and then with the drive phase (`_PhiFrame`), where its Hamiltonian changes
only as fast as the controls; its samples are mapped back by diagonal
phases.

Phase accounting: every adiabatic loop is closed in projective space per
basis state, so its total phase is well defined and tracked continuously by
unwrapping the argument of one basis component of the state (a reference
that never vanishes along the cone paths, unlike the overlap with the start
state), taken against the running dynamic phase so that only the slow
geometric remainder has to be unwrapped.  The dynamic phase is exact for
the Magnus-4 steps, with no quadrature: the engine carries each map's
derivative in a scaling (1 + lambda) H of the Hamiltonian through the fold,
and that derivative is the energy integral of the run as a quadratic form
in its start state (`engine.energy_integrals`).  So each use of a segment
contracts the integrals of the shared maps with the weights of its start
state (`engine.energy_weights`) for its dynamic phase and for the ledger's
reference, and the geometric part is the difference; the ledger reads one
component of each column of the states at its samples.  Ideal pi pulses
permute amplitudes without touching phases, so per-loop phases add up across
a compound sequence.

Sampling: the samples serve the phase ledger only, and each segment use is
sampled as coarsely as its unwrapped phase allows, not once per step.  Each
segment is cut into floor intervals (the floor spacing `_sample_spacing` is
set by the fastest Rabi vector of the system, whatever the step), a whole
number of units of a power of two of them, at least 16 units
(`_floor_intervals`), and its ledger starts at one sample per unit.  The
stride is then halved, and the segment's maps sampled again, until the
largest jump of the unwrapped phase between samples passes MAX_SAMPLE_JUMP,
or down to the floor (`_run_segment`).  A book's states are read only where
a result asks for them (the cone's holonomy and measured angle), at the
stride that keeps the fastest step frequency within the engine's Nyquist
cap, or at the ledger's stride where that is finer.  The gate is the product of the steps,
whatever the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import engine
from .bloch import RabiParams, rotating_rabi_vector
from .gates import gate_fidelity
from .linalg import expm_hermitian
from .phase import (
    PhaseDecomposition,
    berry_cone_phase,
    cos_theta_resonance,
    geometric_phase_discrete,
    wrap_to_pi,
)
from .schedules import PulseSchedule, Segment, build_cone_loop, pi_pulse
from .schrodinger import TwoSpinParams

ADIABATIC_SWEEP_FACTOR = 500.0
RAMP_FRACTION = 0.2
# The default Magnus-4 step in units of 1/|Omega'|max, which is also the
# floor spacing of the samples; a run without a field has a floor spacing of
# SAMPLE_BLOCK steps.
SAMPLE_RESOLUTION = 0.32
SAMPLE_BLOCK = 64
MIN_CLOSURE_FIDELITY = 0.999


class AdiabaticityError(RuntimeError):
    """A sequence left its adiabatic branch (closure fidelity too low, or
    the phase ledger lost track of the phase)."""


# ---------------------------------------------------------------------------
# Hamiltonian builders (vectorized over time arrays)


# Each sector of the rotating-frame Hamiltonian is (1/2) v . sigma with the
# Bloch field v = (w1 cos ph, w1 sin ph, w_s - om).  One cone sector for one
# spin (rows 0, 1); for two spins with the drive on spin a, one sector per
# state of spin b (rows 0, 2 for b up at w+, rows 1, 3 for b down at w-).
ROWS_1Q = ((0, 1),)
ROWS_2Q = ((0, 2), (1, 3))


def _cone_field(times, w1, om, ph, *, sector_freqs) -> np.ndarray:
    """(3, n, S) Bloch fields of cone sectors that share one drive and
    differ in their transition frequency."""
    n = len(times)
    v = np.empty((3, n, len(sector_freqs)))
    v[0] = np.broadcast_to(w1 * np.cos(ph), (n,))[:, None]
    v[1] = np.broadcast_to(w1 * np.sin(ph), (n,))[:, None]
    for s, w in enumerate(sector_freqs):
        v[2, :, s] = w - om
    return v


def _model_1q(omega0) -> engine.SectorField:
    return engine.SectorField(partial(_cone_field, sector_freqs=(omega0,)), ROWS_1Q, 2)


def _model_2q(p: TwoSpinParams, drive_on_b: bool):
    """The drive on spin a alone leaves the spin-b sectors uncoupled; the
    drive that also reaches spin b couples them into one 4x4 problem."""
    if drive_on_b:
        return _PhiFrame(p)
    return engine.SectorField(
        partial(_cone_field, sector_freqs=(p.omega_plus, p.omega_minus)), ROWS_2Q, 4
    )


def _h2q_stack(p: TwoSpinParams, times, w1, om, ph_rate):
    """(n, 4, 4) real Hamiltonian of the drive on both spins in the frame
    of `_PhiFrame`:

        H' = (w_a - om) S_az + (w_b - om) S_bz + 2 pi J S_az S_bz
             + w1 (S_ax + S_bx) - phi' S_z^tot.

    On the diagonal, rows 0, 2 hold the b-up cone sector at w+ and rows 1, 3
    the b-down one at w-, as in `_cone_field`."""
    zp, zm, zb = (0.5 * (w - om) for w in (p.omega_plus, p.omega_minus, p.omega_b))
    h = np.zeros((len(times), 4, 4))
    h[:, 0, 0] = zp + zb - ph_rate
    h[:, 1, 1] = zm - zb
    h[:, 2, 2] = zb - zp
    h[:, 3, 3] = ph_rate - zm - zb
    half_w1 = 0.5 * w1
    for i, j in ((0, 2), (1, 3), (0, 1), (2, 3)):  # S_ax, then S_bx
        h[:, i, j] = h[:, j, i] = half_w1
    return h


# Diagonals of S_z^tot and S_bz in the two-spin basis.
_SZ_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])
_SZ_B = np.array([0.5, -0.5, 0.5, -0.5])


@dataclass(frozen=True)
class _PhiFrame:
    """The drive on both spins, integrated in the frame where both spins
    turn at the drive frequency om and then with the drive phase phi(t).

    The report frame (spin a at om, spin b at omega_b) holds
    psi = exp(-i Phi(t)) psi' with the diagonal

        Phi(t) = phi(t) S_z^tot + (om - omega_b) t S_bz

    (om is constant in every built-in segment).  There the Hamiltonian is
    H' = exp(i Phi) H exp(-i Phi) - dPhi/dt (`_h2q_stack`), real and as slow
    as the controls: phi' is smooth within each segment and zero on the
    ramps.  Its energy in the report frame is <psi'|H' + dPhi/dt|psi'>."""

    p: TwoSpinParams

    def _angles(self, seg: Segment, t0: float, tau) -> np.ndarray:
        """(n, 4) diagonal of Phi at local times tau of a segment that
        starts at t0: the one term that reads absolute time."""
        _, om, ph = seg.controls_at(tau)
        b_angle = (om - self.p.omega_b) * (t0 + tau)
        return np.multiply.outer(ph, _SZ_TOTAL) + np.multiply.outer(b_angle, _SZ_B)


def _phi_frame_controls(seg: Segment, tau):
    """Controls (w1, om, phi') of `_h2q_stack` at local times tau of a
    segment."""
    w1, om, _ = seg.controls_at(tau)
    return w1, om, seg.phase_rate_at(tau)


def _phi_frame_rates(p: TwoSpinParams, times, w1, om, ph_rate) -> np.ndarray:
    """(n, 4) diagonal of dPhi/dt of `_PhiFrame`, phi' S_z^tot +
    (om - omega_b) S_bz, at the controls of `_h2q_stack`."""
    rates = np.multiply.outer(ph_rate, _SZ_TOTAL)
    rates += np.multiply.outer(om - p.omega_b, _SZ_B)
    return rates


# ---------------------------------------------------------------------------
# Plan execution

# A segment use's samples are accepted at a stride when the largest jump of
# its unwrapped phase between samples is within this, far inside the
# ledger's limit.
MAX_SAMPLE_JUMP = math.pi / 16
# A segment's ledger starts with at least this many samples, one per unit
# of its floor intervals (`_floor_intervals`).
_MIN_SAMPLES = 16


@dataclass
class _SegmentBook:
    times: np.ndarray  # (S,) of the states
    kind: str
    stride: int  # accepted by the ledger, in floor spacings
    dynamic: np.ndarray  # (m,) dynamic phase
    sample: Callable[[], np.ndarray]  # the states, taken when first read

    @cached_property
    def states(self) -> np.ndarray:  # (S, d, m), in the report frame
        return self.sample()


class _PhaseLedger:
    """Continuous per-column phase tracking across segments and pulses.

    The phase is read off one fixed basis component of each column: along the
    adiabatic paths simulated here that component keeps a constant magnitude
    (it never winds around zero), so its unwrapped argument is an exact
    tracker of the accumulated total phase.  The reference component is
    re-picked whenever its weight drops, with the running offset patched so
    the total stays continuous.

    Its margins over the samples tracked so far: max_jump, the largest jump
    of the unwrapped phase between samples (limit 0.95 pi); min_magnitude,
    the smallest magnitude of a reference component (floor 0.1); and
    rebases, the number of reference components re-picked.
    """

    def __init__(self, u0: np.ndarray):
        self.total = np.zeros(u0.shape[1])
        self.max_jump = 0.0
        self.min_magnitude = math.inf
        self.rebases = 0
        self.after_pulse(u0)

    def _rebase(self, u: np.ndarray) -> None:
        mags = np.abs(u)
        cols = np.arange(u.shape[1])
        weak = mags[self.ref, cols] < 0.35 * np.max(mags, axis=0)
        if np.any(weak):
            self.rebases += int(np.count_nonzero(weak))
            self.ref[weak] = np.argmax(mags[:, weak], axis=0)
            new_arg = np.angle(u[self.ref[weak], cols[weak]])
            self.offset[weak] = new_arg - self.total[weak]
            self.prev_arg[weak] = new_arg

    def update(self, comp: np.ndarray, reference: np.ndarray, last: np.ndarray,
               max_jump: float = math.inf) -> bool:
        """Track the phase over a segment's samples, from comp (S, m), the
        reference component of each column (row self.ref) at each sample,
        the first of which is the last sample seen, and last (d, m), the
        state at the last sample.  reference (S, m) is a running estimate
        of the phase gained since the first sample, from 0: the dynamic
        phase that the engine carries with the maps, exact for the steps.
        The ledger unwraps the argument minus the reference, the slow
        geometric remainder, and adds the reference back, so the reference
        only has to follow the phase to well within pi per sample, and its
        own error does not enter the total.  If a jump of the unwrapped
        phase exceeds max_jump, nothing is tracked and the result is False
        (so the caller can sample more finely); else True."""
        magnitude = float(np.abs(comp).min())
        if magnitude < 0.1:
            raise AdiabaticityError(
                "phase bookkeeping unreliable: reference component magnitude "
                f"dropped to {magnitude:.3g}, below the floor 0.1"
            )
        rest = np.angle(comp)
        rest -= reference
        # the remainder's steps from the last sample seen, each unwrapped to
        # within pi by whole turns
        step = np.diff(rest, axis=0, prepend=self.prev_arg[None, :])
        step -= (2.0 * math.pi) * np.round(step * (0.5 / math.pi))
        jump = float(np.abs(step).max())
        if jump > max_jump:
            return False
        if jump > 0.95 * math.pi:
            raise AdiabaticityError(
                "phase sampling too coarse to unwrap reliably: a jump of "
                f"{jump:.3g} rad exceeds the limit 0.95*pi"
            )
        self.max_jump = max(self.max_jump, jump)
        self.min_magnitude = min(self.min_magnitude, magnitude)
        self.prev_arg = self.prev_arg + step.sum(axis=0) + reference[-1]
        self.total = self.prev_arg - self.offset
        self._rebase(last)
        return True

    def after_pulse(self, u: np.ndarray) -> None:
        """Anchor on u, at the start or after an instantaneous pulse (which
        adds no tracked phase: the new reference is re-based in place)."""
        cols = np.arange(u.shape[1])
        self.ref = np.argmax(np.abs(u), axis=0)
        new_arg = np.angle(u[self.ref, cols])
        self.offset = new_arg - self.total
        self.prev_arg = new_arg


@dataclass
class _PlanResult:
    """A plan run, with one book per segment use, in plan order."""

    final: np.ndarray  # (d, m)
    ledger: _PhaseLedger  # its total is the accumulated phase per column
    block: int  # steps per sample at the floor spacing
    books: list[_SegmentBook]

    @property
    def dynamic(self) -> np.ndarray:
        """The accumulated dynamic phase per column (m,), the books' sum."""
        return sum((book.dynamic for book in self.books), np.zeros(self.final.shape[1]))


def _segment_frame(model, seg: Segment, t0: float, u):
    """How one segment that starts from u at t0 is propagated: (propagator,
    controls, start state, to_report).  The propagator(tau, *controls(tau))
    goes to the engine from the start state, at local times tau, and
    to_report(tau) gives the phases (S, d) that take the states there to
    the report frame, or is None where they are in it.  For a `_PhiFrame`
    the propagator is an `engine.FrameHamiltonian`, whose energy integrals
    are those of H' + dPhi/dt, the energy in the report frame."""
    if isinstance(model, _PhiFrame):
        u = np.exp(1j * model._angles(seg, t0, np.zeros(1)))[0, :, None] * u
        propagator = engine.FrameHamiltonian(partial(_h2q_stack, model.p),
                                             partial(_phi_frame_rates, model.p))
        return (propagator, partial(_phi_frame_controls, seg), u,
                lambda tau: np.exp(-1j * model._angles(seg, t0, tau)))
    return model, seg.controls_at, u, None


def _run_segment(model, seg: Segment, t0: float, n_steps: int, dt: float, u, block: int,
                 maps: engine.SampleMaps, ledger: _PhaseLedger):
    """The book (with its accepted stride, in floor spacings of `block`
    steps, and its dynamic phase (m,)) and final state (d, m) of one segment
    that starts from u at t0; its samples enter the ledger.

    maps are the segment's sample maps, shared by all its uses (see
    `_run_plan`).  A use whose maps are empty folds them through
    `engine.propagate_sampled`, which returns its states at the stride of
    the maps; a ramp-down's may be the reversed run of a folded ramp-up,
    which takes no step.  Each use forms the weights of its start state,
    and contracts the energy integrals of the maps at its samples with them
    (`engine.energy_integrals`): their running values are the ledger's
    reference, and the last its dynamic phase.  The ledger reads one
    component of each column of the states at the samples, and the final
    state is the last sample.  The samples start at the stride of the maps,
    and each refinement halves the stride, until the ledger's largest jump
    passes MAX_SAMPLE_JUMP, or down to the floor spacing.  The book samples the maps when first read, at their read
    stride (`engine.SampleMaps`), or at the accepted stride if that is
    finer: a use whose phase turns too fast for the coarser samples needs
    the finer ones for its holonomy too."""
    propagator, controls, u, to_report = _segment_frame(model, seg, t0, u)
    stride = maps.stride
    if maps.filled:
        tau, states = engine.samples_at(propagator, maps, u, stride)
    else:
        tau, states = engine.propagate_sampled(propagator, controls, n_steps, dt, u, block, maps)
    weights = engine.energy_weights(propagator, u)
    cols = np.arange(u.shape[1])
    last = states[-1]
    if to_report is not None:
        last = last * to_report(tau[-1:])[0][:, None]
    while True:
        reference = -(engine.energy_integrals(maps, stride) @ weights)
        comp = states[:, ledger.ref, cols]
        if to_report is not None:
            comp *= to_report(tau)[:, ledger.ref]
        if ledger.update(comp, reference, last, MAX_SAMPLE_JUMP if stride > 1 else math.inf):
            break
        stride //= 2
        tau, states = engine.samples_at(propagator, maps, u, stride)
    read = min(stride, maps.read_stride)
    tau = engine.sample_times(maps, read)

    def sample():
        states = engine.samples_at(propagator, maps, u, read)[1]
        if to_report is not None:
            states *= to_report(tau)[:, :, None]
        return states

    return _SegmentBook(t0 + tau, seg.kind, stride, reference[-1], sample), last


def _floor_intervals(intervals: float) -> tuple[int, int]:
    """(count, unit) of a segment of `intervals` floor intervals (a float):
    it is cut into a whole number of units, count floor intervals in all,
    with the unit the largest power of two within intervals/_MIN_SAMPLES (at
    least 1).  So its ledger can start at a stride of one unit with at least
    _MIN_SAMPLES samples, or one per floor interval if fewer, and the count
    is within half a unit, about 3%, of intervals."""
    unit = 1 << max(0, math.floor(math.log2(intervals / _MIN_SAMPLES)))
    return unit * max(1, round(intervals / unit)), unit


def _run_plan(plan, model, u0, dt, spacing):
    """Run a list of ('seg', Segment) / ('pulse', matrix) items: a `_PlanResult`.

    model is the Hamiltonian: an `engine.SectorField` over a field function
    of (times, w1, om, ph), or a `_PhiFrame`.  Each segment supplies the
    controls.

    The floor spacing of the samples is the spacing, or dt if that is
    longer: each segment is cut into equal floor intervals of the same
    power-of-two number of steps, the fewest that keep the step within dt,
    and the number of intervals is a whole number of units
    (`_floor_intervals`).  So at any dt up to the spacing the floor
    intervals are the same, and only the steps change.  A segment is
    sampled every stride floor intervals, a power of two: each use starts at
    the unit, and `_run_segment` halves it, down to the floor, until the
    ledger's jump test passes.

    Each segment is propagated in its own local time from 0, and its
    samples enter the books at its start time t0, the sum of the durations
    before it.  So a segment's sample maps, with their energy integrals,
    depend on the segment alone.  A segment that recurs in the plan is
    propagated once.  A ramp-down that mirrors an already folded ramp-up
    (`_mirrors`), the ramp-up played backwards, takes no step: its maps are
    the ramp-up's reversed (`engine.SampleMaps.reversed`), and every
    ramp-down that mirrors the same ramp-up shares them, as uses of one
    segment (`_first_maps`).  A phase sweep at a fixed amplitude and
    frequency runs symmetrically about its midpoint phase: its second half
    is its first half played backwards, mirrored in the plane of that phase
    (the phi frame's H' is real and reads only the phase's rate, which is
    symmetric), so its fold takes the first half's steps only
    (`engine.SampleMaps` with symmetric set).  So each distinct Hamiltonian
    is folded once, and the gate's 12 segment uses fold 3: the ramp-up and
    the first halves of the two sweeps.  Each use contracts the shared
    energy integrals with the weights of its own start state, and applies
    the shared maps to it for its reference components and its final state;
    its book holds its stride and dynamic phase, and samples the maps at the
    read stride only if read.  Nothing outlives the call.

    An `AdiabaticityError` from the phase ledger names the segment, by its
    index among the plan's segments (from 0) and its kind."""
    interval = max(spacing, dt)
    block = 2 ** math.ceil(math.log2(interval / dt) - 1e-9)
    planar = isinstance(model, engine.SectorField)
    shared: dict[Segment, engine.SampleMaps] = {}
    u = np.asarray(u0, dtype=complex).reshape(len(u0), -1)
    ledger = _PhaseLedger(u)
    books: list[_SegmentBook] = []
    t0 = 0.0
    for kind, item in plan:
        if kind == "pulse":
            u = item @ u
            ledger.after_pulse(u)
            continue
        intervals, unit = _floor_intervals(item.duration / interval)
        n_steps = block * intervals
        if item not in shared:
            shared[item] = _first_maps(shared, item, planar, unit)
        try:
            book, u = _run_segment(
                model, item, t0, n_steps, item.duration / n_steps, u, block,
                shared[item], ledger,
            )
        except AdiabaticityError as exc:
            raise AdiabaticityError(f"{exc} in segment {len(books)} ({item.kind})") from None
        books.append(book)
        t0 += item.duration
    return _PlanResult(u, ledger, block, books)


def _first_maps(shared, seg: Segment, planar: bool, unit: int) -> engine.SampleMaps:
    """The sample maps that the first use of seg starts from: for a
    ramp-down that mirrors a folded ramp-up of shared (`_mirrors`), the
    ramp-up's reversed run (`engine.SampleMaps.reversed`), one for every
    ramp-down that mirrors it; else empty ones at a stride of unit floor
    intervals, which the use folds, symmetric for a phase sweep at a fixed
    amplitude and frequency (see `_run_plan`)."""
    for up, maps in shared.items():
        if _mirrors(up, seg, planar):
            for reversed_run in shared.values():
                if reversed_run.source is maps:
                    return reversed_run
            return maps.reversed(up.phi[0] if planar else None)
    symmetric = (seg.kind == "phase_sweep" and seg.omega1[0] == seg.omega1[1]
                 and seg.omega[0] == seg.omega[1])
    return engine.SampleMaps(unit, symmetric, 0.5 * (seg.phi[0] + seg.phi[1]) if planar else None)


def _mirrors(up: Segment, down: Segment, planar: bool) -> bool:
    """Whether the ramp-down is the ramp-up played backwards: the same
    duration, the mirrored amplitude and frequency, and a drive phase that
    each holds fixed.  The Bloch fields of `_cone_field` (planar) then lie
    in the plane at that phase, and the two phases must differ by whole
    turns, to rounding; H' of `_PhiFrame` reads only the phase's rate."""
    if (up.kind, down.kind) != ("ramp_up", "ramp_down"):
        return False
    (a, a_end), (b, b_end) = up.phi, down.phi
    turns = abs(math.remainder(b - a, math.tau)) <= 1e-14 * max(1.0, abs(a), abs(b))
    return (up.duration == down.duration and up.omega1 == down.omega1[::-1]
            and up.omega == down.omega[::-1] and a == a_end and b == b_end
            and (turns or not planar))


def _schedule_plan(schedule: PulseSchedule):
    return [("seg", s) for s in schedule.segments]


def _pi_pulse(model, omega: float, target: str, duration: float) -> np.ndarray:
    """Pi pulse on the target ('single', 'a' or 'b'): the ideal swap if
    duration is zero, else a constant resonant x drive of area pi on top of
    the static Hamiltonian, the model at zero drive amplitude (exact
    constant-H propagator).  A negative or non-finite duration raises
    ValueError."""
    if not math.isfinite(duration):
        raise ValueError("pi-pulse-duration must be finite")
    if duration < 0.0:
        raise ValueError("pi-pulse-duration must be nonnegative")
    if duration == 0.0:
        return pi_pulse(target)
    h_static = model(np.zeros(1), 0.0, omega, 0.0)[0]
    return expm_hermitian(h_static + (math.pi / (2.0 * duration)) * pi_pulse(target), duration)


def _aligned_start(p: RabiParams) -> np.ndarray:
    """Eigenstate aligned with Omega' at the start of a cone loop (where the
    drive amplitude is still zero)."""
    dz = p.omega0 - p.omega
    if dz > 0.0:
        return np.array([1.0, 0.0], dtype=complex)
    if dz < 0.0:
        return np.array([0.0, 1.0], dtype=complex)
    return np.array([1.0, np.exp(1j * p.phi)], dtype=complex) / math.sqrt(2.0)


def _rabi_1q(p: RabiParams) -> float:
    return float(np.linalg.norm(rotating_rabi_vector(p)))


def _rabi_2q(p: TwoSpinParams) -> list[float]:
    """|Omega'| of the plateau field in the b-up and the b-down sector."""
    d = p.drive
    return [math.hypot(w - d.omega, d.omega1) for w in (p.omega_plus, p.omega_minus)]


def _sample_spacing(rabi_max: float, dt: float) -> float:
    """Floor spacing SAMPLE_RESOLUTION/|Omega'|max of a run's samples, the
    default Magnus-4 step: the finest its segments are sampled at, where
    their error estimates ask (`_run_segment`).  A run without any field has
    no timescale, and its floor spacing is SAMPLE_BLOCK steps."""
    return SAMPLE_RESOLUTION / rabi_max if rabi_max > 0.0 else SAMPLE_BLOCK * dt


def default_times_1q(p: RabiParams) -> tuple[float, float, float]:
    """(ramp_time, sweep_time, dt) from the adiabaticity and resolution rules
    sweep = 500/|Omega'|, ramp = sweep/5, and dt = SAMPLE_RESOLUTION/|Omega'|max
    (0.32/|Omega'|max), the floor spacing of the samples: one Magnus-4 step
    per floor interval."""
    om_prime = _rabi_1q(p)
    if om_prime == 0.0:
        raise ValueError("Rabi vector vanishes; no timescale to set")
    sweep = ADIABATIC_SWEEP_FACTOR / om_prime
    return RAMP_FRACTION * sweep, sweep, SAMPLE_RESOLUTION / om_prime


def resolve_times(
    default_times,
    ramp_time: float | None = None,
    sweep_time: float | None = None,
    dt: float | None = None,
    sweep_factor: float = 1.0,
) -> tuple[float, float, float]:
    """(ramp_time, sweep_time, dt) of a run: the given values as they are,
    the missing ones from default_times(), which returns the (ramp, sweep,
    dt) of the adiabaticity and resolution rules (`default_times_1q`,
    `default_times_2q`: one Magnus-4 step per floor interval of the
    samples).  A missing sweep is the default one times sweep_factor; a
    missing ramp keeps the default ratio of ramp to sweep.  This is the only
    place a run's dt is set.  A given time or sweep_factor that is not
    finite and positive raises ValueError."""
    for name, val in (("ramp-time", ramp_time), ("sweep-time", sweep_time), ("dt", dt),
                      ("sweep-factor", sweep_factor)):
        if val is not None and not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
        if val is not None and val <= 0.0:
            raise ValueError(f"{name} must be positive")
    if None not in (ramp_time, sweep_time, dt):
        return ramp_time, sweep_time, dt
    d_ramp, d_sweep, d_dt = default_times()
    if sweep_time is None:
        sweep_time = sweep_factor * d_sweep
    if ramp_time is None:
        ramp_time = d_ramp * (sweep_time / d_sweep)
    return ramp_time, sweep_time, d_dt if dt is None else dt


# ---------------------------------------------------------------------------
# Single-qubit cone loop


@dataclass(frozen=True)
class ConeRunResult:
    theta: float
    expected_geometric: float
    decomposition: PhaseDecomposition
    geometric_holonomy: float
    theta_measured: float
    closure_fidelity: float
    norm_drift: float
    times: np.ndarray
    states: np.ndarray  # (S, 2) sampled trajectory

    @property
    def adiabatic_ok(self) -> bool:
        return self.closure_fidelity >= MIN_CLOSURE_FIDELITY


def run_cone_loop(
    p: RabiParams,
    ramp_time: float | None = None,
    sweep_time: float | None = None,
    dt: float | None = None,
    orientation: str = "forward",
    check: bool = False,
) -> ConeRunResult:
    """Simulate one adiabatic cone loop from the aligned eigenstate and
    decompose its phase."""
    ramp_time, sweep_time, dt = resolve_times(
        partial(default_times_1q, p), ramp_time, sweep_time, dt
    )
    schedule = build_cone_loop(p, ramp_time, sweep_time, orientation)
    start = _aligned_start(p)

    spacing = _sample_spacing(_rabi_1q(p), dt)
    res = _run_plan(_schedule_plan(schedule), _model_1q(p.omega0), start, dt, spacing)
    u_f, books = res.final, res.books
    decomp = PhaseDecomposition.from_total_and_dynamic(res.ledger.total[0], res.dynamic[0])

    times = np.concatenate([b.times for b in books])
    states = np.concatenate([b.states[:, :, 0] for b in books])
    if p.omega1 > 0.0:
        # The Bargmann product is off by O(spacing^2): extrapolate it from
        # the samples and every other sample of each book (Richardson).
        fine = geometric_phase_discrete(states)
        coarse = geometric_phase_discrete(np.concatenate([b.states[::2, :, 0] for b in books]))
        raw = fine + wrap_to_pi(fine - coarse) / 3.0
        holo = decomp.geometric + wrap_to_pi(raw - decomp.geometric)
        theta = math.acos(cos_theta_resonance(p.omega0, p.omega, p.omega1))
        expected = berry_cone_phase(theta)
        if orientation == "reversed":
            expected = -expected
        theta_measured = _measured_cone_angle(books)
    else:
        holo = 0.0
        theta = 0.0 if p.omega0 >= p.omega else math.pi
        expected = 0.0
        theta_measured = float("nan")

    fid = float(abs(np.vdot(start, u_f[:, 0])) / np.linalg.norm(u_f[:, 0]))
    drift = float(abs(np.linalg.norm(u_f[:, 0]) - 1.0))
    result = ConeRunResult(
        theta=theta,
        expected_geometric=expected,
        decomposition=decomp,
        geometric_holonomy=holo,
        theta_measured=theta_measured,
        closure_fidelity=fid,
        norm_drift=drift,
        times=times,
        states=states,
    )
    if check and not result.adiabatic_ok:
        raise AdiabaticityError(
            f"cone loop closure fidelity {fid:.6f} below {MIN_CLOSURE_FIDELITY}"
        )
    return result


@dataclass(frozen=True)
class ConePhaseMeasurement:
    """Orientation-symmetrized cone phase: half the difference of the forward
    and reversed loop phases.  Contributions even under sweep reversal (the
    leading finite-rate corrections) cancel, leaving the path-only part."""

    theta: float
    geometric: float
    expected: float
    forward: ConeRunResult
    reversed: ConeRunResult

    @property
    def dynamic_mean(self) -> float:
        return 0.5 * (
            self.forward.decomposition.dynamic + self.reversed.decomposition.dynamic
        )


def measure_cone_phase(
    p: RabiParams,
    ramp_time: float | None = None,
    sweep_time: float | None = None,
    dt: float | None = None,
    check: bool = False,
) -> ConePhaseMeasurement:
    fwd = run_cone_loop(p, ramp_time, sweep_time, dt, "forward", check=check)
    rev = run_cone_loop(p, ramp_time, sweep_time, dt, "reversed", check=check)
    return ConePhaseMeasurement(
        theta=fwd.theta,
        geometric=0.5 * (fwd.decomposition.geometric - rev.decomposition.geometric),
        expected=fwd.expected_geometric,
        forward=fwd,
        reversed=rev,
    )


def _measured_cone_angle(books) -> float:
    """Polar angle of the Bloch vector averaged over the first 5% of the
    phase sweep, where the drive phase is still stationary."""
    sweep = next(b for b in books if b.kind == "phase_sweep")
    t0 = sweep.times[0]
    span = sweep.times[-1] - t0
    mask = sweep.times - t0 <= 0.05 * span
    if mask.sum() < 3:
        mask = np.zeros_like(mask)
        mask[:3] = True
    psi = sweep.states[mask, :, 0]
    norms = np.einsum("sd,sd->s", psi.conj(), psi).real
    sz = (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2) / norms
    return float(np.mean(np.arccos(np.clip(sz, -1.0, 1.0))))


# ---------------------------------------------------------------------------
# Single-spin spin echo


@dataclass(frozen=True)
class EchoResult:
    theta: float
    up: PhaseDecomposition
    down: PhaseDecomposition
    phase_difference: float  # down minus up branch, target 4*pi*(1 - cos theta)
    dynamic_residual: float
    expected_difference: float
    expected_difference_alt: float  # congruent mod 2*pi: -4*pi*cos(theta)
    closure_fidelities: tuple[float, float]
    # dynamic phase of each cyclic evolution per branch: [branch][loop]; the
    # branch totals nearly cancel (traceless H), the per-loop values do not
    loop_dynamics: tuple[tuple[float, float], tuple[float, float]]

    @property
    def adiabatic_ok(self) -> bool:
        return min(self.closure_fidelities) >= MIN_CLOSURE_FIDELITY


def run_spin_echo_1q(
    p: RabiParams,
    ramp_time: float | None = None,
    sweep_time: float | None = None,
    dt: float | None = None,
    pi_pulse_duration: float = 0.0,
    check: bool = False,
) -> EchoResult:
    """Compound sequence loop / pi / reversed loop / pi from both basis
    states.  Dynamic phases cancel in the up/down phase difference; the
    geometric ones add to four times the single-loop cone phase."""
    ramp_time, sweep_time, dt = resolve_times(
        partial(default_times_1q, p), ramp_time, sweep_time, dt
    )
    loop_f = build_cone_loop(p, ramp_time, sweep_time, "forward")
    loop_r = build_cone_loop(p, ramp_time, sweep_time, "reversed")
    model = _model_1q(p.omega0)
    pulse = [("pulse", _pi_pulse(model, p.omega, "single", pi_pulse_duration))]
    plan = _schedule_plan(loop_f) + pulse + _schedule_plan(loop_r) + pulse
    spacing = _sample_spacing(_rabi_1q(p), dt)
    res = _run_plan(plan, model, np.eye(2, dtype=complex), dt, spacing)
    u_f, total, dynamic = res.final, res.ledger.total, res.dynamic
    n_loop_segs = len(loop_f.segments)
    loop1 = sum(book.dynamic for book in res.books[:n_loop_segs])
    loop2 = sum(book.dynamic for book in res.books[n_loop_segs:])

    theta = math.acos(cos_theta_resonance(p.omega0, p.omega, p.omega1))
    expected = -4.0 * berry_cone_phase(theta)
    fids = tuple(
        float(abs(u_f[j, j]) / np.linalg.norm(u_f[:, j])) for j in range(2)
    )
    result = EchoResult(
        theta=theta,
        up=PhaseDecomposition.from_total_and_dynamic(total[0], dynamic[0]),
        down=PhaseDecomposition.from_total_and_dynamic(total[1], dynamic[1]),
        phase_difference=total[1] - total[0],
        dynamic_residual=dynamic[1] - dynamic[0],
        expected_difference=expected,
        expected_difference_alt=-4.0 * math.pi * math.cos(theta),
        closure_fidelities=fids,
        loop_dynamics=(
            (float(loop1[0]), float(loop2[0])),
            (float(loop1[1]), float(loop2[1])),
        ),
    )
    if check and not result.adiabatic_ok:
        raise AdiabaticityError(
            f"echo closure fidelities {fids} below {MIN_CLOSURE_FIDELITY}"
        )
    return result


# ---------------------------------------------------------------------------
# Differential shift and the two-spin conditional sequence


def delta_gamma(
    omega_a: float | np.ndarray,
    omega: float | np.ndarray,
    omega1: float | np.ndarray,
    J: float | np.ndarray,
) -> float | np.ndarray:
    """Differential geometric shift between the two partner-spin sectors:

        pi * [ (w+ - w)/sqrt((w+ - w)^2 + w1^2) - (w- - w)/sqrt((w- - w)^2 + w1^2) ]

    with w+- = omega_a +- pi*J.  Floats give a float.  Numpy arrays
    broadcast, and each element is bit for bit the scalar call's value: both
    take the roots with np.hypot, which is within one ulp of the correctly
    rounded math.hypot, and differs from it on about 0.6% of points.
    """
    pj = math.pi * J
    plus = omega_a + pj - omega
    minus = omega_a - pj - omega
    r_plus, r_minus = np.hypot(plus, omega1), np.hypot(minus, omega1)
    if not (r_plus.all() and r_minus.all()):
        raise ValueError("Rabi vector vanishes in one coupling sector")
    dg = math.pi * (plus / r_plus - minus / r_minus)
    return dg if isinstance(dg, np.ndarray) else float(dg)


@dataclass(frozen=True)
class ConditionalPhaseResult:
    delta_gamma: float
    gate: np.ndarray  # measured 4x4 propagator
    fidelity: float
    off_diagonal_leakage: float
    dynamic_residual: float
    total_phases: np.ndarray  # (4,) unreduced per basis state
    dynamic_phases: np.ndarray
    theta_plus: float
    theta_minus: float
    closure_fidelities: np.ndarray
    drive_on_b: bool

    @property
    def adiabatic_ok(self) -> bool:
        return float(self.closure_fidelities.min()) >= MIN_CLOSURE_FIDELITY


def conditional_target_gate(dg: float) -> np.ndarray:
    return np.diag(np.exp(1j * np.array([2.0 * dg, -2.0 * dg, -2.0 * dg, 2.0 * dg])))


def default_times_2q(p: TwoSpinParams):
    """(ramp_time, sweep_time, dt): sweep from the slower sector's Rabi
    vector, dt from the faster one: SAMPLE_RESOLUTION/|Omega'|max
    (0.32/|Omega'|max), one Magnus-4 step per floor interval of the samples,
    also with the drive on spin b.

    The ramps start where the transverse drive vanishes, so their adiabatic
    bottleneck is the bare sector gap |w+- - w| rather than the plateau Rabi
    vector; the default ramp time is stretched accordingly.
    """
    d = p.drive
    z_gaps = [abs(w - d.omega) for w in (p.omega_plus, p.omega_minus)]
    om_branches = _rabi_2q(p)
    if min(om_branches) == 0.0:
        raise ValueError("Rabi vector vanishes in one coupling sector")
    if min(z_gaps) == 0.0:
        raise ValueError(
            "drive resonant with one coupling sector; the basis states have no "
            "adiabatic connection there, supply explicit ramp/sweep times"
        )
    sweep = ADIABATIC_SWEEP_FACTOR / min(om_branches)
    ramp = max(
        RAMP_FRACTION * sweep,
        2.0 * RAMP_FRACTION * ADIABATIC_SWEEP_FACTOR / min(z_gaps),
    )
    return ramp, sweep, SAMPLE_RESOLUTION / max(om_branches)


def run_conditional_sequence(
    p: TwoSpinParams,
    ramp_time: float | None = None,
    sweep_time: float | None = None,
    dt: float | None = None,
    drive_on_b: bool = False,
    pi_pulse_duration: float = 0.0,
    check: bool = False,
) -> ConditionalPhaseResult:
    """Eight-step sequence loop, pi_a, reversed loop, pi_b, repeated twice,
    propagated for all four basis states.  The net gate is compared against
    the closed-form conditional phase pattern diag(e^{2i dg}, e^{-2i dg},
    e^{-2i dg}, e^{2i dg})."""
    ramp_time, sweep_time, dt = resolve_times(
        partial(default_times_2q, p), ramp_time, sweep_time, dt
    )
    model = _model_2q(p, drive_on_b)
    plan = _conditional_plan(p, ramp_time, sweep_time, pi_pulse_duration)
    spacing = _sample_spacing(max(_rabi_2q(p)), dt)
    res = _run_plan(plan, model, np.eye(4, dtype=complex), dt, spacing)
    u_f, total, dynamic = res.final, res.ledger.total, res.dynamic

    dg = delta_gamma(p.omega_a, p.drive.omega, p.drive.omega1, p.J)
    fid = gate_fidelity(u_f, conditional_target_gate(dg))
    off = u_f - np.diag(np.diag(u_f))
    col_norms = np.linalg.norm(u_f, axis=0)
    fids = np.abs(np.diag(u_f)) / col_norms
    result = ConditionalPhaseResult(
        delta_gamma=dg,
        gate=u_f,
        fidelity=fid,
        off_diagonal_leakage=float(np.max(np.abs(off))),
        dynamic_residual=float(np.max(np.abs(dynamic - dynamic.mean()))),
        total_phases=total,
        dynamic_phases=dynamic,
        theta_plus=math.acos(
            cos_theta_resonance(p.omega_plus, p.drive.omega, p.drive.omega1)
        ),
        theta_minus=math.acos(
            cos_theta_resonance(p.omega_minus, p.drive.omega, p.drive.omega1)
        ),
        closure_fidelities=fids,
        drive_on_b=drive_on_b,
    )
    if check and not result.adiabatic_ok:
        raise AdiabaticityError(
            f"conditional sequence closure fidelities {fids} below "
            f"{MIN_CLOSURE_FIDELITY}"
        )
    return result


def _conditional_plan(p: TwoSpinParams, ramp_time, sweep_time, pi_pulse_duration):
    """Loop, pi_a, reversed loop, pi_b, twice; finite pi pulses act on top of
    the static Hamiltonian, with the drive off and so the same whether or not
    it reaches spin b."""
    loop_f = _schedule_plan(build_cone_loop(p.drive, ramp_time, sweep_time, "forward"))
    loop_r = _schedule_plan(build_cone_loop(p.drive, ramp_time, sweep_time, "reversed"))
    model = _model_2q(p, False)
    pulse_a = [("pulse", _pi_pulse(model, p.drive.omega, "a", pi_pulse_duration))]
    pulse_b = [("pulse", _pi_pulse(model, p.drive.omega, "b", pi_pulse_duration))]
    return (loop_f + pulse_a + loop_r + pulse_b) * 2


# ---------------------------------------------------------------------------
# Fault-tolerance surface (closed form)


@dataclass(frozen=True)
class RowPeak:
    detuning_over_piJ: float
    omega1_over_piJ: float
    delta_gamma: float
    slope: float
    # the maximum sits at the zero-amplitude boundary (stationary there), or
    # at the grid's upper end with f still rising (not stationary)
    boundary: bool


@dataclass(frozen=True)
class FaultToleranceSurface:
    detuning_over_piJ: np.ndarray
    omega1_over_piJ: np.ndarray
    delta_gamma: np.ndarray  # (n_detuning, n_omega1)
    peaks: tuple[RowPeak, ...] = field(repr=False)


def fault_tolerance_surface(
    omega_a: float,
    J: float,
    detuning_grid: np.ndarray,
    omega1_grid: np.ndarray,
) -> FaultToleranceSurface:
    """Differential shift on a (detuning, drive amplitude) grid, both axes in
    units of pi*J, with the amplitude maximizing each row in closed form
    (`_ridge_amplitude`).

    Rows with detuning below pi*J are monotone in the amplitude: their
    maximum sits at the zero-amplitude boundary, where the slope vanishes
    exactly because the shift is even in omega1.  Interior peaks exist for
    detuning above pi*J.
    """
    det = np.asarray(detuning_grid, dtype=float)
    amp = np.asarray(omega1_grid, dtype=float)
    if det.size == 0 or amp.size == 0:
        raise ValueError("grids must be nonempty")
    if not (np.isfinite(det).all() and np.isfinite(amp).all()
            and math.isfinite(omega_a) and math.isfinite(J)):
        raise ValueError("grid values, omega_a and J must be finite")
    if np.any(amp <= 0.0):
        raise ValueError("omega1 grid values must be positive")
    pj = math.pi * J

    def f(d, w):
        return delta_gamma(omega_a, omega_a - d * pj, w * pj, J)

    # One array call per row keeps the temporaries at the size of a row.
    surface = np.empty((det.size, amp.size))
    for i, d in enumerate(det):
        surface[i] = f(d, amp)
    peaks = _locate_row_peak(f, amp, surface, det, math.copysign(1.0, J))
    return FaultToleranceSurface(det, amp, surface, peaks)


def _ridge_amplitude(d: float) -> float | None:
    """The amplitude w1* (units of pi*J) where the shift is stationary in
    w1 at detuning d (units of pi*J), or None if |d| <= 1, where it is
    monotone.  With a = d + 1 and b = d - 1 the sector shifts of
    `delta_gamma` balance, a/(a^2 + w1^2)^(3/2) = b/(b^2 + w1^2)^(3/2), at

        w1*^2 = |ab|^(2/3) (|a|^(2/3) + |b|^(2/3)),

    which has no cancellation as d -> 1 or as |d| grows."""
    a, b = d + 1.0, d - 1.0
    if not a * b > 0.0:
        return None
    p, q = abs(a) ** (2.0 / 3.0), abs(b) ** (2.0 / 3.0)
    return math.sqrt(p * q * (p + q))


def _delta_gamma_slope(d: float, w: float) -> float:
    """d(shift)/d(w1) at detuning d and amplitude w > 0, both in units of
    pi*J, for J > 0 (the shift changes sign with J)."""
    a, b = d + 1.0, d - 1.0
    return math.pi * w * (b / (b * b + w * w) ** 1.5 - a / (a * a + w * w) ** 1.5)


def _locate_row_peak(f, grid, surface, det, sign) -> tuple[RowPeak, ...]:
    """Peak of f over the amplitude axis in each row of surface, its values
    on grid at the detunings det (units of pi*J); sign is the sign of J.  A
    row still rising at its last grid point peaks beyond the grid: that grid
    point is reported as it is, flagged as a boundary.  Otherwise the peak
    is the ridge amplitude, even below the first grid point, where the ridge
    is a maximum (J > 0 and |detuning| > 1), and else the zero-amplitude
    boundary.  All heights come from one array call of f, each element bit
    for bit the scalar call's value."""
    w_edge = float(grid[-1])
    rising = np.argmax(surface, axis=1) == len(grid) - 1
    rows = []  # (detuning, amplitude, slope, boundary)
    for d, edge in zip(det.tolist(), rising.tolist()):
        edge_slope = sign * _delta_gamma_slope(d, w_edge)
        w_star = _ridge_amplitude(d) if sign > 0.0 else None
        if edge and edge_slope > 0.0:
            rows.append((d, w_edge, edge_slope, True))
        elif w_star is not None:
            rows.append((d, w_star, _delta_gamma_slope(d, w_star), False))
        else:
            rows.append((d, 0.0, 0.0, True))
    amplitudes = np.array([w for _, w, _, _ in rows])
    try:
        heights = f(det, amplitudes)
    except ValueError:  # a root vanishes at zero amplitude where |detuning| = 1
        heights = [_zero_safe(f, d, w) for d, w in zip(det, amplitudes.tolist())]
    return tuple(RowPeak(d, w, float(h), slope, boundary)
                 for (d, w, slope, boundary), h in zip(rows, heights))


def _zero_safe(f, d, w):
    """f(d, w), or f(d, 1e-12) where a root of f vanishes at w = 0."""
    try:
        return f(d, w)
    except ValueError:
        return f(d, 1e-12)


def write_surface_csv(surface: FaultToleranceSurface, path) -> None:
    """Row-major (detuning outer, omega1 inner) CSV with 12 significant
    digits: detuning_over_piJ,omega1_over_piJ,delta_gamma_rad."""
    # One bytes `%` per row, over that row's values only: b'%.12g' % x and
    # f'{x:.12g}' format alike, byte for byte.  The row's detuning joins the
    # pieces, so it leads every line; the leading empty piece puts it first.
    pieces = [b""] + [b",%.12g,%%.12g\n" % w for w in surface.omega1_over_piJ.tolist()]
    with open(path, "wb") as fh:
        fh.write(b"detuning_over_piJ,omega1_over_piJ,delta_gamma_rad\n")
        for det, row in zip(surface.detuning_over_piJ.tolist(), surface.delta_gamma):
            fh.write((b"%.12g" % det).join(pieces) % tuple(row.tolist()))


def write_peaks_csv(surface: FaultToleranceSurface, path) -> None:
    with open(path, "w") as fh:
        fh.write(
            "detuning_over_piJ,omega1_peak_over_piJ,delta_gamma_peak_rad,"
            "slope_at_peak,boundary_peak\n"
        )
        for pk in surface.peaks:
            fh.write(
                f"{pk.detuning_over_piJ:.12g},{pk.omega1_over_piJ:.12g},"
                f"{pk.delta_gamma:.12g},{pk.slope:.12g},{int(pk.boundary)}\n"
            )
