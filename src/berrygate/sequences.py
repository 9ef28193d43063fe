"""Simulation of the experimental sequences and their phase bookkeeping.

Single-qubit schedules are integrated in the frame rotating at the (constant)
drive frequency, where the Rabi vector is the slow control vector Omega'(t);
the lab/rotating equivalence is itself verified in the test suite.  The
two-spin system is integrated in the frame rotating at the drive frequency
for spin a and at omega_b for spin b, which removes both fast Zeeman
precessions while leaving the J coupling and the drive on spin a unchanged.

Phase accounting: every adiabatic loop is closed in projective space per
basis state, so its total phase is well defined and tracked continuously by
unwrapping the argument of one basis component of the state (a reference
that never vanishes along the cone paths, unlike the overlap with the start
state), taken against the running trapezoid of the dynamic phase so that
only the slow remainder has to be unwrapped.  The dynamic part comes from
Simpson quadrature of -<psi|H|psi> over the sampled trajectory, and the
geometric part is the difference.  Samples sit on a fixed time grid set by
the fastest Rabi vector of the system (`_sample_spacing`), whatever the
step.  Ideal pi pulses permute amplitudes without touching phases, so
per-loop phases add up across a compound sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.optimize import minimize_scalar

from . import engine
from .bloch import RabiParams, rotating_rabi_vector
from .gates import gate_fidelity
from .linalg import expm_hermitian
from .phase import (
    PhaseDecomposition,
    cos_theta_resonance,
    geometric_phase_discrete,
    wrap_to_pi,
)
from .schedules import PulseSchedule, Segment, build_cone_loop, pi_pulse
from .schrodinger import TwoSpinParams

ADIABATIC_SWEEP_FACTOR = 500.0
RAMP_FRACTION = 0.2
# In units of 1/|Omega'|max: the RK4 step, and the sample spacing of
# SAMPLE_BLOCK such steps, which is also the default Magnus-4 step.
DT_RESOLUTION = 0.005
SAMPLE_BLOCK = 64
SAMPLE_RESOLUTION = SAMPLE_BLOCK * DT_RESOLUTION
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
        return partial(_h2q_stack, p)
    return engine.SectorField(
        partial(_cone_field, sector_freqs=(p.omega_plus, p.omega_minus)), ROWS_2Q, 4
    )


def _h2q_stack(p: TwoSpinParams, times, w1, om, ph):
    """(n, 4, 4) Hamiltonian with the drive on both spins: the spin-a
    sectors of _cone_field, coupled by the same field seen by spin b from
    its own rotating frame."""
    v = _cone_field(times, w1, om, ph, sector_freqs=(p.omega_plus, p.omega_minus))
    h = engine.sector_hamiltonians(v, ROWS_2Q, 4)
    off_b = 0.5 * w1 * np.exp(-1j * (ph + (om - p.omega_b) * times))
    h[:, 0, 1] = off_b
    h[:, 2, 3] = off_b
    h[:, 1, 0] = np.conj(off_b)
    h[:, 3, 2] = np.conj(off_b)
    return h


# ---------------------------------------------------------------------------
# Plan execution


@dataclass
class _SegmentBook:
    times: np.ndarray  # (S,)
    states: np.ndarray  # (S, d, m)
    kind: str


class _PhaseLedger:
    """Continuous per-column phase tracking across segments and pulses.

    The phase is read off one fixed basis component of each column: along the
    adiabatic paths simulated here that component keeps a constant magnitude
    (it never winds around zero), so its unwrapped argument is an exact
    tracker of the accumulated total phase.  The reference component is
    re-picked whenever its weight drops, with the running offset patched so
    the total stays continuous.
    """

    def __init__(self, u0: np.ndarray):
        m = u0.shape[1]
        self.ref = np.argmax(np.abs(u0), axis=0)
        cols = np.arange(m)
        comp = u0[self.ref, cols]
        self.prev_arg = np.angle(comp)
        self.offset = self.prev_arg.copy()
        self.total = np.zeros(m)

    def _rebase(self, u: np.ndarray) -> None:
        mags = np.abs(u)
        cols = np.arange(u.shape[1])
        weak = mags[self.ref, cols] < 0.35 * np.max(mags, axis=0)
        if np.any(weak):
            self.ref[weak] = np.argmax(mags[:, weak], axis=0)
            new_arg = np.angle(u[self.ref[weak], cols[weak]])
            self.offset[weak] = new_arg - self.total[weak]
            self.prev_arg[weak] = new_arg

    def update(self, states: np.ndarray, reference: np.ndarray) -> None:
        """Track the phase over a segment's samples (S, d, m), the first of
        which is the last state seen.  reference (S, m) is any running
        estimate of the phase gained since the first sample, such as the
        trapezoid dynamic phase: the ledger unwraps the argument minus the
        reference and adds the reference back, so the reference only has to
        follow the phase to well within pi per sample, and its own error
        does not enter the total."""
        cols = np.arange(states.shape[2])
        comp = states[:, self.ref, cols]
        mags = np.abs(comp)
        if float(mags.min()) < 0.1:
            raise AdiabaticityError(
                "phase bookkeeping unreliable: reference component magnitude "
                f"dropped to {mags.min():.3g}, below the floor 0.1"
            )
        rest = np.unwrap(
            np.concatenate([self.prev_arg[None, :], np.angle(comp) - reference], axis=0),
            axis=0,
        )
        jumps = np.abs(np.diff(rest, axis=0))
        if float(jumps.max()) > 0.95 * math.pi:
            raise AdiabaticityError(
                "phase sampling too coarse to unwrap reliably: a jump of "
                f"{jumps.max():.3g} rad exceeds the limit 0.95*pi"
            )
        self.prev_arg = rest[-1] + reference[-1]
        self.total = self.prev_arg - self.offset
        self._rebase(states[-1])

    def after_pulse(self, u: np.ndarray) -> None:
        """Re-anchor after an instantaneous pulse (which itself adds no
        tracked phase: the new reference component is re-based in place)."""
        cols = np.arange(u.shape[1])
        self.ref = np.argmax(np.abs(u), axis=0)
        new_arg = np.angle(u[self.ref, cols])
        self.offset = new_arg - self.total
        self.prev_arg = new_arg


@dataclass
class _PlanResult:
    final: np.ndarray  # (d, m)
    total: np.ndarray  # (m,) accumulated phase per column
    dynamic: np.ndarray  # (m,) accumulated dynamic phase per column
    seg_dynamics: list  # per-segment (m,) dynamic contributions
    books: list


def _segment_controls(seg: Segment, t0: float, times):
    """Controls (w1, om, ph) at absolute times of a segment that starts at t0."""
    return seg.controls_at(np.asarray(times) - t0)


def _run_plan(plan, model, u0, dt, spacing):
    """Run a list of ('seg', Segment) / ('pulse', matrix) items.

    model is the Hamiltonian as a function of (times, w1, om, ph): either
    an `engine.SectorField` over such a field function, which runs the
    Magnus-4 propagator, or a callable returning the (n, d, d) Hamiltonian
    stack, which runs RK4.  Each segment supplies the controls (w1, om,
    ph).

    Each segment is sampled on round(duration / spacing) equal intervals
    (at least one), each of the same power-of-two number of steps: the
    fewest that keep the step within dt.  A dt above the spacing samples
    every step instead.  So at any dt up to the spacing the sample times
    are the same, and only the steps change.

    An `AdiabaticityError` from the phase ledger names the segment, by its
    index among the plan's segments (from 0) and its kind."""
    interval = max(spacing, dt)
    block = 2 ** math.ceil(math.log2(interval / dt) - 1e-9)
    u = np.asarray(u0, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    m = u.shape[1]
    ledger = _PhaseLedger(u)
    dynamic = np.zeros(m)
    seg_dynamics: list[np.ndarray] = []
    books: list[_SegmentBook] = []
    t_abs = 0.0
    for kind, payload in plan:
        if kind == "pulse":
            u = payload @ u
            ledger.after_pulse(u)
            continue
        seg: Segment = payload
        n_steps = block * max(1, round(seg.duration / interval))
        dt_seg = seg.duration / n_steps
        t0 = t_abs

        controls = partial(_segment_controls, seg, t0)
        times, states = engine.propagate_sampled(
            model, t0, n_steps, dt_seg, u, controls, block
        )
        h_stack = model(times, *controls(times))
        energies = np.einsum("sdm,sde,sem->sm", states.conj(), h_stack, states).real
        try:
            ledger.update(states, -cumulative_trapezoid(energies, times, axis=0, initial=0.0))
        except AdiabaticityError as exc:
            raise AdiabaticityError(f"{exc} in segment {len(books)} ({seg.kind})") from None
        dyn = -simpson(energies, x=times, axis=0)
        dynamic += dyn
        seg_dynamics.append(np.atleast_1d(dyn))
        books.append(_SegmentBook(times, states, seg.kind))
        u = states[-1]
        t_abs += seg.duration
    return _PlanResult(u, ledger.total, dynamic, seg_dynamics, books)


def _schedule_plan(schedule: PulseSchedule):
    return [("seg", s) for s in schedule.segments]


def _pi_pulse(model, omega: float, target: str, duration: float) -> np.ndarray:
    """Pi pulse on the target ('single', 'a' or 'b'): the ideal swap if
    duration is not positive, else a constant resonant x drive of area pi
    on top of the static Hamiltonian, the model at zero drive amplitude
    (exact constant-H propagator)."""
    if duration <= 0.0:
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
    """Sample spacing SAMPLE_RESOLUTION/|Omega'|max of a run, the default
    Magnus-4 step; a run without any field has no timescale and is sampled
    every SAMPLE_BLOCK steps."""
    return SAMPLE_RESOLUTION / rabi_max if rabi_max > 0.0 else SAMPLE_BLOCK * dt


def default_times_1q(p: RabiParams) -> tuple[float, float, float]:
    """(ramp_time, sweep_time, dt) from the adiabaticity and resolution rules
    sweep = 500/|Omega'|, ramp = sweep/5, and dt = 64 * 0.005/|Omega'|, the
    sample spacing: one Magnus-4 step per sample."""
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
    `default_times_2q`: one Magnus-4 step per sample, or 0.005/|Omega'|max
    for the RK4 run with the drive on spin b).  A missing sweep is the
    default one times sweep_factor; a missing ramp keeps the default ratio
    of ramp to sweep.  This is the only place a run's dt is set."""
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
    psi0: np.ndarray | None = None,
    check: bool = False,
) -> ConeRunResult:
    """Simulate one adiabatic cone loop from the aligned eigenstate (or a
    caller-supplied start state) and decompose its phase."""
    ramp_time, sweep_time, dt = resolve_times(
        partial(default_times_1q, p), ramp_time, sweep_time, dt
    )
    schedule = build_cone_loop(p, ramp_time, sweep_time, orientation)
    start = _aligned_start(p) if psi0 is None else np.asarray(psi0, dtype=complex)

    spacing = _sample_spacing(_rabi_1q(p), dt)
    res = _run_plan(_schedule_plan(schedule), _model_1q(p.omega0), start, dt, spacing)
    u_f, books = res.final, res.books
    decomp = PhaseDecomposition.from_total_and_dynamic(res.total[0], res.dynamic[0])

    times = np.concatenate([b.times for b in books])
    states = np.concatenate([b.states[:, :, 0] for b in books])
    if p.omega1 > 0.0:
        raw = geometric_phase_discrete(states, closed=True)
        holo = decomp.geometric + wrap_to_pi(raw - decomp.geometric)
        theta = math.acos(cos_theta_resonance(p.omega0, p.omega, p.omega1))
        expected = -math.pi * (1.0 - math.cos(theta))
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
    sweep = next((b for b in books if b.kind == "phase_sweep"), None)
    if sweep is None:
        return float("nan")
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
    u_f, total, dynamic = res.final, res.total, res.dynamic
    n_loop_segs = len(loop_f.segments)
    loop1 = sum(res.seg_dynamics[:n_loop_segs])
    loop2 = sum(res.seg_dynamics[n_loop_segs:])

    theta = math.acos(cos_theta_resonance(p.omega0, p.omega, p.omega1))
    expected = 4.0 * math.pi * (1.0 - math.cos(theta))
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


_hypot = np.frompyfunc(math.hypot, 2, 1)


def delta_gamma(
    omega_a: float | np.ndarray,
    omega: float | np.ndarray,
    omega1: float | np.ndarray,
    J: float | np.ndarray,
) -> float | np.ndarray:
    """Differential geometric shift between the two partner-spin sectors:

        pi * [ (w+ - w)/sqrt((w+ - w)^2 + w1^2) - (w- - w)/sqrt((w- - w)^2 + w1^2) ]

    with w+- = omega_a +- pi*J.  Floats give a float.  Numpy arrays
    broadcast, and each element is bit for bit the scalar call's value: the
    root is math.hypot elementwise, since np.hypot differs from it in the
    last place at some points.
    """
    pj = math.pi * J
    plus = omega_a + pj - omega
    minus = omega_a - pj - omega
    if isinstance(plus, np.ndarray) or isinstance(omega1, np.ndarray):
        r_plus = np.asarray(_hypot(plus, omega1), dtype=float)
        r_minus = np.asarray(_hypot(minus, omega1), dtype=float)
        vanishes = not (r_plus.all() and r_minus.all())
    else:
        r_plus, r_minus = math.hypot(plus, omega1), math.hypot(minus, omega1)
        vanishes = r_plus == 0.0 or r_minus == 0.0
    if vanishes:
        raise ValueError("Rabi vector vanishes in one coupling sector")
    return math.pi * (plus / r_plus - minus / r_minus)


@dataclass(frozen=True)
class ConditionalPhaseResult:
    delta_gamma: float
    gate: np.ndarray  # measured 4x4 propagator
    target: np.ndarray  # diag(e^{2i dg}, e^{-2i dg}, e^{-2i dg}, e^{2i dg})
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


def default_times_2q(p: TwoSpinParams, drive_on_b: bool = False):
    """(ramp_time, sweep_time, dt): sweep from the slower sector's Rabi
    vector, dt from the faster one: 64 * 0.005/|Omega'|max, one Magnus-4
    step per sample, or, for the RK4 run with the drive on spin b,
    0.005/|Omega'|max and small enough to resolve the off-resonant field on
    spin b.

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
    if drive_on_b:
        return ramp, sweep, min(DT_RESOLUTION / max(om_branches), 0.05 / abs(d.omega - p.omega_b))
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
        partial(default_times_2q, p, drive_on_b), ramp_time, sweep_time, dt
    )
    model = _model_2q(p, drive_on_b)
    plan = _conditional_plan(p, ramp_time, sweep_time, model, pi_pulse_duration)
    spacing = _sample_spacing(max(_rabi_2q(p)), dt)
    res = _run_plan(plan, model, np.eye(4, dtype=complex), dt, spacing)
    u_f, total, dynamic = res.final, res.total, res.dynamic

    dg = delta_gamma(p.omega_a, p.drive.omega, p.drive.omega1, p.J)
    target = conditional_target_gate(dg)
    fid = gate_fidelity(u_f, target)
    off = u_f - np.diag(np.diag(u_f))
    col_norms = np.linalg.norm(u_f, axis=0)
    fids = np.abs(np.diag(u_f)) / col_norms
    result = ConditionalPhaseResult(
        delta_gamma=dg,
        gate=u_f,
        target=target,
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


def _conditional_plan(p: TwoSpinParams, ramp_time, sweep_time, model, pi_pulse_duration):
    """Loop, pi_a, reversed loop, pi_b, twice; finite pi pulses act on top of
    the model's static Hamiltonian."""
    loop_f = _schedule_plan(build_cone_loop(p.drive, ramp_time, sweep_time, "forward"))
    loop_r = _schedule_plan(build_cone_loop(p.drive, ramp_time, sweep_time, "reversed"))
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
    boundary: bool  # peak sits at the zero-amplitude boundary


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
    units of pi*J, with the amplitude maximizing each row located to high
    precision.

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
        return delta_gamma(omega_a, omega_a - d * pj, abs(w) * pj, J)

    # One array call per row keeps the temporaries at the size of a row.
    surface = np.empty((det.size, amp.size))
    for i, d in enumerate(det):
        surface[i] = f(d, amp)
    peaks = tuple(
        _locate_row_peak(partial(f, d), amp, row, d) for d, row in zip(det, surface)
    )
    return FaultToleranceSurface(det, amp, surface, peaks)


def _locate_row_peak(f, grid, vals, detuning) -> RowPeak:
    """Peak of f over the amplitude axis, from its values vals on grid."""
    i = int(np.argmax(vals))
    lo = 0.0 if i == 0 else grid[i - 1]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi <= lo:
        hi = lo + (grid[-1] - grid[0]) / max(len(grid) - 1, 1)

    def neg(w):
        try:
            return -f(w)
        except ValueError:
            return math.inf

    res = minimize_scalar(
        neg, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    w_star = float(res.x)
    boundary = w_star < 1e-7
    if boundary:
        w_star = 0.0
    try:
        height = f(w_star)
    except ValueError:
        height = f(1e-12)
    h = 1e-5
    slope = (f(w_star + h) - f(w_star - h)) / (2.0 * h)
    return RowPeak(float(detuning), w_star, float(height), float(slope), boundary)


def write_surface_csv(surface: FaultToleranceSurface, path) -> None:
    """Row-major (detuning outer, omega1 inner) CSV with 12 significant
    digits: detuning_over_piJ,omega1_over_piJ,delta_gamma_rad."""
    omega1 = [f"{w:.12g}" for w in surface.omega1_over_piJ.tolist()]
    with open(path, "w") as fh:
        fh.write("detuning_over_piJ,omega1_over_piJ,delta_gamma_rad\n")
        for det, row in zip(surface.detuning_over_piJ.tolist(), surface.delta_gamma):
            d = f"{det:.12g}"
            fh.write("".join([f"{d},{w},{v:.12g}\n" for w, v in zip(omega1, row.tolist())]))


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
