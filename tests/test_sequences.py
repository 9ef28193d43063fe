import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    hamiltonian_of_schedule_1q,
    plan_afresh,
    rk4_propagate_sampled,
    surface_by_points,
    write_surface_csv_by_points,
)

from berrygate import engine, sequences
from berrygate.bloch import RabiParams
from berrygate.engine import rk4_transition_matrices
from berrygate.gates import gate_fidelity, local_phase_equivalence
from berrygate.linalg import expm_hermitian
from berrygate.phase import circle_distance
from berrygate.schedules import build_cone_loop
from berrygate.schrodinger import TwoSpinParams, integrate_schrodinger
from berrygate.sequences import (
    AdiabaticityError,
    _aligned_start,
    _conditional_plan,
    _model_1q,
    _model_2q,
    _pi_pulse,
    _run_plan,
    _schedule_plan,
    default_times_1q,
    default_times_2q,
    delta_gamma,
    fault_tolerance_surface,
    measure_cone_phase,
    resolve_times,
    run_cone_loop,
    run_conditional_sequence,
    run_spin_echo_1q,
    write_peaks_csv,
    write_surface_csv,
)


def cone_params(theta, omega1=1.0, omega0=5.0):
    return RabiParams(omega0, omega1, omega0 - omega1 / math.tan(theta), 0.0)


# ---------------------------------------------------------------------------
# engine correctness


def test_engine_matches_stepwise_rk4():
    # the batched RK4 oracle of the engine tests against the stepwise one
    p = RabiParams(5.0, 1.0, 4.0, 0.0)
    sched = build_cone_loop(p, ramp_time=4.0, sweep_time=20.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    dt = 0.004
    span = (0.0, sum(s.duration for s in sched.segments))
    ref = integrate_schrodinger(psi0, hamiltonian_of_schedule_1q(p.omega0, sched), span, dt)
    # spacing dt: one step per floor interval, so the steps of each use are
    # the oracle's own; the oracle takes the SectorField as its dense
    # Hamiltonian stack
    plan, model = _schedule_plan(sched), _model_1q(p.omega0)
    planned = _run_plan(plan, model, psi0, dt, dt)
    final, *_ = plan_afresh(plan, rk4_propagate_sampled, model, planned, dt, psi0)
    assert np.max(np.abs(final[:, 0] - ref.final_psi)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 17, 64, 65, 129, 1000, 1001])
@pytest.mark.parametrize("columns", [None, 3])
def test_quadratures_are_bit_for_bit_scipy(n, columns):
    # the rules of the afresh oracle, whose dynamic phases the engine's
    # energy integrals are checked against
    from scipy.integrate import cumulative_trapezoid, simpson  # the oracle

    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.05, 1.0, n))
    h = rng.uniform(0.05, 1.0)
    y = rng.normal(size=(n,) if columns is None else (n, columns))
    assert np.array_equal(oracles.simpson(y, h), simpson(y, dx=h, axis=0))
    assert np.array_equal(
        oracles.cumulative_trapezoid(y, x),
        cumulative_trapezoid(y, x, axis=0, initial=0.0),
    )


def test_quadratures_of_a_run_are_bit_for_bit_scipy():
    from scipy.integrate import cumulative_trapezoid, simpson  # the oracle

    # The afresh oracle hands the trapezoid the energies of each segment use
    # at its samples, every step, and then Simpson's equal-spacing rule the
    # same energies with one spacing h: 12 of each for the gate's 12 uses.
    trapezoids, simpsons = [], []
    real_trapezoid, real_simpson = oracles.cumulative_trapezoid, oracles.simpson

    def spy_trapezoid(y, x):
        trapezoids.append((y, x))
        return real_trapezoid(y, x)

    def spy_simpson(y, h):
        simpsons.append((y, h))
        return real_simpson(y, h)

    p = two_spin_params(2.0, 1.2)
    planned = []
    run_plan = sequences._run_plan

    def spy_plan(*args):
        planned.append((run_plan(*args), max(args[3], args[4])))  # max(dt, spacing)
        return planned[-1][0]

    with mock.patch.object(sequences, "_run_plan", spy_plan):
        run_conditional_sequence(p, ramp_time=5.0, sweep_time=10.0, dt=0.002)
    plan = _conditional_plan(p, 5.0, 10.0, 0.0)
    with mock.patch.object(oracles, "cumulative_trapezoid", spy_trapezoid), \
            mock.patch.object(oracles, "simpson", spy_simpson):
        plan_afresh(plan, engine.propagate_sampled, _model_2q(p, False), *planned[0])
    assert len(simpsons) == len(trapezoids) == 12
    for (y, x), (y_simpson, h) in zip(trapezoids, simpsons):
        assert y_simpson is y
        # the precondition of the rule: the samples sit every h, up to the
        # rounding of absolute times of up to 60 s
        assert np.max(np.abs(np.diff(x) - h)) <= 1e-12
        assert np.array_equal(oracles.simpson(y, h), simpson(y, dx=h, axis=0))
        assert np.array_equal(
            oracles.cumulative_trapezoid(y, x),
            cumulative_trapezoid(y, x, axis=0, initial=0.0),
        )


def test_transition_matrix_is_one_rk4_step():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (m + m.conj().T)
    dt = 0.003
    real = rk4_transition_matrices(np.stack([h, h, h]), dt)[0]
    assert real.shape == (4, 4) and real.dtype == float
    mat = real[:2, :2] + 1j * real[2:, :2]
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    k1 = -1j * h @ psi
    k2 = -1j * h @ (psi + 0.5 * dt * k1)
    k3 = -1j * h @ (psi + 0.5 * dt * k2)
    k4 = -1j * h @ (psi + dt * k3)
    stepped = psi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(mat @ psi - stepped)) < 1e-15


# ---------------------------------------------------------------------------
# single-qubit cone runs


def test_cone_adiabatic_following_angle():
    theta = math.pi / 3
    r = run_cone_loop(cone_params(theta))
    assert abs(r.theta - theta) < 1e-12
    assert abs(r.theta_measured - theta) < 1e-3
    assert r.closure_fidelity > 0.999
    assert abs(r.norm_drift) < 1e-8


def test_cone_symmetrized_phase():
    theta = math.pi / 4
    m = measure_cone_phase(cone_params(theta))
    assert circle_distance(m.geometric, m.expected) < 5e-3
    # both raw runs carry nearly the same finite-rate correction, which
    # cancels in the symmetrized phase
    raw_f = m.forward.decomposition.geometric - m.expected
    raw_r = m.reversed.decomposition.geometric + m.expected
    assert abs(raw_f) > 5e-3 and abs(raw_r) > 5e-3


@settings(max_examples=6, deadline=None)
@given(phi=st.floats(0.0, 2.0 * math.pi))
def test_cone_phase_does_not_depend_on_the_drive_phase(phi):
    p = cone_params(math.pi / 3)
    shifted = RabiParams(p.omega0, p.omega1, p.omega, phi)
    assert abs(measure_cone_phase(shifted).geometric - measure_cone_phase(p).geometric) < 1e-10


@settings(max_examples=10, deadline=None)
@given(theta=st.floats(0.3, 2.8))
def test_reversing_the_orientation_negates_the_cone_phase(theta):
    # At the default times each run is off its closed form by a finite-rate
    # residue of up to about 0.2 rad that is even in the sweep direction;
    # reversal negates the rest, which is the forward closed form within the
    # 5e-3 acceptance bound.
    p = cone_params(theta)
    try:
        fwd = run_cone_loop(p, check=True)
        rev = run_cone_loop(p, orientation="reversed", check=True)
    except AdiabaticityError:
        reject()  # near the equator the default ramp is not adiabatic
    assert rev.expected_geometric == -fwd.expected_geometric
    odd = 0.5 * (fwd.decomposition.geometric - rev.decomposition.geometric)
    assert circle_distance(odd, fwd.expected_geometric) < 5e-3


@pytest.mark.parametrize("theta", [math.pi / 4, 2.0])
def test_cone_holonomy_route_agrees_mod_2pi(theta):
    # the Richardson-extrapolated Bargmann product; its bare value was
    # 1.2e-3 from the decomposition at theta = 2
    r = run_cone_loop(cone_params(theta))
    assert circle_distance(r.geometric_holonomy, r.decomposition.geometric) < 1e-3


def test_cone_zero_amplitude_idle():
    p = RabiParams(5.0, 0.0, 4.0, 0.0)
    r = run_cone_loop(p, ramp_time=1.0, sweep_time=5.0, dt=0.002)
    assert abs(r.decomposition.geometric) < 1e-6
    assert r.expected_geometric == 0.0


def test_forward_reversed_cancellation():
    # concatenated loop and inverse retraces the path: geometric phases cancel;
    # run well into the adiabatic regime where finite-rate corrections are
    # below the tolerance
    theta = math.pi / 12
    p = cone_params(theta, omega0=8.0)
    rt, st, dt = default_times_1q(p)
    f = 12.0
    fwd = build_cone_loop(p, f * rt, f * st, "forward")
    rev = build_cone_loop(p, f * rt, f * st, "reversed")
    plan = _schedule_plan(fwd) + _schedule_plan(rev)
    res = _run_plan(plan, _model_1q(p.omega0), _aligned_start(p), dt, dt)
    assert abs(res.ledger.total[0] - res.dynamic[0]) < 1e-3

    # schedule reversal invariant: gamma negated, delta preserved
    a = run_cone_loop(p, f * rt, f * st, dt, "forward")
    b = run_cone_loop(p, f * rt, f * st, dt, "reversed")
    assert abs(a.decomposition.geometric + b.decomposition.geometric) < 1e-3
    assert abs(a.decomposition.dynamic - b.decomposition.dynamic) < 1e-3


def test_engine_rejects_oversized_step():
    from berrygate.schrodinger import StepSizeError

    p = cone_params(math.pi / 3, omega0=50.0)
    # the Magnus-4 step's gap to the midpoint step is 1.86e-3 here
    with pytest.raises(StepSizeError, match="gap .* exceeds the tolerance 0.001"):
        run_cone_loop(p, ramp_time=5.0, sweep_time=20.0, dt=0.5)


class _Resolved(Exception):
    pass


def _resolved_dt(*args, **kwargs) -> float:
    """The dt that run_conditional_sequence(*args, **kwargs) hands to the
    plan, without running it."""
    seen = []

    def stop(plan, model, u0, dt, spacing):
        seen.append(dt)
        raise _Resolved

    with mock.patch.object(sequences, "_run_plan", stop), pytest.raises(_Resolved):
        run_conditional_sequence(*args, **kwargs)
    return seen[0]


def test_default_times_respect_step_bound():
    # one Magnus-4 step per floor interval of the samples,
    # dt |Omega'|max = SAMPLE_RESOLUTION = 0.32, with or without the drive on spin b
    p2 = two_spin_params(2.0, 1.2)
    rt, st, dt = default_times_2q(p2)
    max_omega = max(
        math.hypot(p2.omega_plus - p2.drive.omega, p2.drive.omega1),
        math.hypot(p2.omega_minus - p2.drive.omega, p2.drive.omega1),
    )
    assert abs(dt * max_omega - 0.32) < 1e-12
    assert abs(_resolved_dt(p2, drive_on_b=True) * max_omega - 0.32) < 1e-12
    p1 = cone_params(math.pi / 3)
    assert abs(default_times_1q(p1)[2] * math.hypot(1.0, 1.0 / math.sqrt(3.0)) - 0.32) < 1e-12
    with pytest.raises(ValueError):
        # drive resonant with the minus sector: no adiabatic connection
        default_times_2q(two_spin_params(1.0, 1.2))
    with pytest.raises(ValueError, match="Rabi vector vanishes; no timescale"):
        default_times_1q(RabiParams(5.0, 0.0, 5.0, 0.0))
    with pytest.raises(ValueError, match="Rabi vector vanishes in one coupling sector"):
        # no drive, at omega = omega+
        default_times_2q(two_spin_params(-1.0, 0.0))


# The API checks its times as the CLI does, with the CLI's messages.
BAD_TIMES = [
    (dict(dt=0.0), "dt must be positive"),
    (dict(dt=-1.0), "dt must be positive"),
    (dict(ramp_time=math.inf), "ramp-time must be finite"),
    (dict(dt=math.nan), "dt must be finite"),
    (dict(sweep_time=math.nan), "sweep-time must be finite"),
    (dict(ramp_time=1.0, sweep_time=-2.0, dt=0.01), "sweep-time must be positive"),
]


@pytest.mark.parametrize("kwargs, message", BAD_TIMES)
def test_runs_reject_bad_times(kwargs, message):
    for run in (partial(run_cone_loop, cone_params(math.pi / 3)),
                partial(run_conditional_sequence, two_spin_params(2.0, 1.2))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(**kwargs)


@pytest.mark.parametrize("factor, message", [
    (math.nan, "sweep-factor must be finite"), (math.inf, "sweep-factor must be finite"),
    (0.0, "sweep-factor must be positive"),
])
def test_resolve_times_rejects_a_bad_sweep_factor(factor, message):
    defaults = partial(default_times_1q, cone_params(math.pi / 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        resolve_times(defaults, sweep_factor=factor)


@pytest.mark.parametrize("duration, message", [
    (-1.0, "pi-pulse-duration must be nonnegative"),
    (math.nan, "pi-pulse-duration must be finite"),
    (math.inf, "pi-pulse-duration must be finite"),
])
def test_runs_reject_a_bad_pi_pulse_duration(duration, message):
    for run in (partial(run_spin_echo_1q, cone_params(math.pi / 3)),
                partial(run_conditional_sequence, two_spin_params(2.0, 1.2))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(pi_pulse_duration=duration)


def test_sample_times_do_not_depend_on_the_step():
    p = cone_params(math.pi / 3)
    dt = default_times_1q(p)[2]
    coarse = run_cone_loop(p)
    fine = run_cone_loop(p, dt=dt / 4)
    assert np.array_equal(coarse.times, fine.times)
    # one Magnus-4 step per floor interval: 1.4e-6 from the finer run's
    # trajectory
    assert np.max(np.abs(coarse.states - fine.states)) < 1e-5


def test_ledger_follows_a_coarse_sample_grid():
    # 64 default steps per floor interval: the raw argument of a component
    # turns by far more than pi between samples (unwrapping it alone lost
    # 120*pi here); the ledger must still get the total phase right, or
    # refuse
    p = cone_params(math.pi / 3)
    ramp, sweep, dt = default_times_1q(p)
    plan = _schedule_plan(build_cone_loop(p, ramp, sweep))
    model, u0 = _model_1q(p.omega0), _aligned_start(p)
    default = _run_plan(plan, model, u0, dt, dt)
    try:
        coarse = _run_plan(plan, model, u0, dt, 64 * dt)
    except AdiabaticityError:
        return
    assert abs(coarse.ledger.total[0] - default.ledger.total[0]) < 1e-6


def test_ledger_refuses_a_jump_beyond_its_limit():
    # one column, zero reference: a second sample 3.05 rad on from the
    # first is within pi, so unwrapping keeps it, but beyond 0.95 pi
    u0 = np.array([[1.0], [0.0]], dtype=complex)
    ledger = sequences._PhaseLedger(u0)
    comp = np.array([[1.0], [np.exp(3.05j)]])
    with pytest.raises(AdiabaticityError, match="a jump of 3.05 rad exceeds the limit 0.95"):
        ledger.update(comp, np.zeros((2, 1)), u0)


def test_ledger_rebases_a_fading_reference_component_once():
    # one column e^{5it} (cos a, i sin a), a = 1.27 t: at t = 1 its row 0
    # (0.296) falls below 0.35 of row 1 (0.956), so `_PhaseLedger._rebase`
    # re-picks row 1, whose argument is a quarter turn on; the offset is
    # patched, so the total runs on through the re-base as 5t
    def segment(t):
        a = 1.27 * np.minimum(t, 1.0) + 0.3 * np.maximum(t - 1.0, 0.0)
        states = np.exp(5j * t)[:, None] * np.stack([np.cos(a), 1j * np.sin(a)], axis=1)
        return states[:, :, None], 5.0 * (t - t[0])[:, None]

    ledger = sequences._PhaseLedger(np.array([[1.0], [0.0]], dtype=complex))
    for t in (np.linspace(0.0, 1.0, 201), np.linspace(1.0, 2.0, 201)):
        states, reference = segment(t)
        assert ledger.update(states[:, ledger.ref, [0]], reference, states[-1])
        assert ledger.total[0] == pytest.approx(5.0 * t[-1], abs=1e-12)
        assert ledger.rebases == 1
        assert ledger.ref[0] == 1


def test_diabatic_run_flagged():
    p = cone_params(math.pi / 3)
    r = run_cone_loop(p, ramp_time=1.0, sweep_time=5.0, dt=0.002)
    assert not r.adiabatic_ok
    assert abs(r.decomposition.geometric - r.expected_geometric) > 0.05
    with pytest.raises(AdiabaticityError):
        run_cone_loop(p, ramp_time=1.0, sweep_time=5.0, dt=0.002, check=True)


# ---------------------------------------------------------------------------
# spin echo


def test_spin_echo_cancellation():
    theta = math.pi / 3
    p = cone_params(theta)
    rt, st, dt = default_times_1q(p)
    e = run_spin_echo_1q(p, 4 * rt, 4 * st, dt)
    assert circle_distance(e.phase_difference, e.expected_difference) < 5e-3
    assert abs(e.dynamic_residual) < 1e-3
    # both congruent targets agree mod 2pi
    assert circle_distance(e.expected_difference, e.expected_difference_alt) < 1e-12
    # each cyclic evolution's dynamic phase is large even though the branch
    # totals cancel
    assert all(abs(d) > 1.0 for branch in e.loop_dynamics for d in branch)
    assert abs(e.up.dynamic) < 1e-2
    assert min(e.closure_fidelities) > 0.999


def test_spin_echo_small_angle_limit():
    # far detuned, weak drive: tiny cone angle, difference goes to zero
    p = RabiParams(5.0, 0.05, 4.0, 0.0)
    e = run_spin_echo_1q(p)
    assert e.theta < 0.06
    assert abs(e.expected_difference) < 0.02
    assert circle_distance(e.phase_difference, e.expected_difference) < 1e-3


def test_spin_echo_adiabaticity_check():
    p = cone_params(math.pi / 3)
    with pytest.raises(AdiabaticityError):
        run_spin_echo_1q(p, ramp_time=0.5, sweep_time=2.0, dt=0.002, check=True)


def test_conditional_sequence_adiabaticity_check():
    # measured: closure fidelities 0.814 and 0.807
    p = two_spin_params(2.5, 0.5)
    with pytest.raises(AdiabaticityError, match="closure fidelities .* below 0.999"):
        run_conditional_sequence(p, ramp_time=0.5, sweep_time=2.0, dt=0.002, check=True)


def test_spin_echo_finite_pulses_approach_ideal_ones():
    p = cone_params(math.pi / 3)
    ideal = run_spin_echo_1q(p).phase_difference
    errs = [
        circle_distance(run_spin_echo_1q(p, pi_pulse_duration=tau).phase_difference, ideal)
        for tau in (1e-3, 1e-2)
    ]
    # the detuning acts during the pulse: an error of first order in tau
    assert errs[1] < 1e-5
    assert 5.0 < errs[1] / errs[0] < 20.0


@pytest.mark.parametrize("tau", [1e-3, 0.05, 0.3, 1.7])
def test_finite_pi_pulses_match_closed_form(tau):
    half_rabi = math.pi / (2.0 * tau)  # half the Rabi rate of an area-pi pulse
    p = cone_params(math.pi / 3)
    dz = p.omega0 - p.omega
    h = np.array([[0.5 * dz, half_rabi], [half_rabi, -0.5 * dz]])
    got = _pi_pulse(_model_1q(p.omega0), p.omega, "single", tau)
    assert np.max(np.abs(got - expm_hermitian(h, tau))) < 1e-14

    q = two_spin_params(2.0, 1.2)
    zp, zm = q.omega_plus - q.drive.omega, q.omega_minus - q.drive.omega
    static = np.diag([zp, zm, -zp, -zm]) / 2.0
    x = half_rabi
    drives = {
        "a": np.array([[0, 0, x, 0], [0, 0, 0, x], [x, 0, 0, 0], [0, x, 0, 0]]),
        "b": np.array([[0, x, 0, 0], [x, 0, 0, 0], [0, 0, 0, x], [0, 0, x, 0]]),
    }
    for target, drive in drives.items():
        got = _pi_pulse(_model_2q(q, False), q.drive.omega, target, tau)
        assert np.max(np.abs(got - expm_hermitian(static + drive, tau))) < 1e-14
    # the drive is off during the pulses, so the conditional plan has the
    # same ones whether or not it reaches spin b
    pulses = [item for kind, item in _conditional_plan(q, 5.0, 10.0, tau) if kind == "pulse"]
    for got, target in zip(pulses, "abab", strict=True):
        assert np.max(np.abs(got - expm_hermitian(static + drives[target], tau))) < 1e-14


# ---------------------------------------------------------------------------
# differential shift and conditional gate


def test_delta_gamma_closed_form_values():
    wa, J = 50.0, 2.0
    assert delta_gamma(wa, wa - 1.0, 1.0, 0.0) == 0.0
    assert abs(delta_gamma(wa, wa, math.pi * J, J) - math.pi * math.sqrt(2.0)) < 1e-12
    assert abs(delta_gamma(wa, wa, 1e-9, J) - 2.0 * math.pi) < 1e-6
    assert delta_gamma(wa, wa - 1.0, 1.0, J) == pytest.approx(
        -delta_gamma(wa, wa - 1.0, 1.0, -J)
    )
    with pytest.raises(ValueError):
        delta_gamma(wa, wa + math.pi * J, 0.0, J)


# Detunings (n, 1) against amplitudes (m,): the arrays broadcast to (n, m).
grid_axes = dict(
    detunings=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    omega1s=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
)


@settings(max_examples=10, deadline=None)
@given(
    omega_a=st.floats(1.0, 200.0),
    detuning=st.floats(-10.0, 10.0),
    omega1=st.floats(0.01, 10.0),
    J=st.floats(-5.0, 5.0),
    **grid_axes,
)
def test_delta_gamma_is_odd_in_J(omega_a, detuning, omega1, J, detunings, omega1s):
    omega = omega_a - detuning
    assert delta_gamma(omega_a, omega, omega1, -J) == -delta_gamma(omega_a, omega, omega1, J)
    omegas, amps = omega_a - np.array(detunings)[:, None], np.array(omega1s)
    got = delta_gamma(omega_a, omegas, amps, J)
    assert delta_gamma(omega_a, omegas, amps, -J).tolist() == (-got).tolist()


@settings(max_examples=25, deadline=None)
@given(
    omega_a=st.floats(1.0, 200.0),
    detuning=st.floats(-10.0, 10.0),
    omega1=st.floats(0.01, 10.0),
    J=st.floats(-5.0, 5.0),
    **grid_axes,
)
def test_delta_gamma_is_even_in_omega1(omega_a, detuning, omega1, J, detunings, omega1s):
    omega = omega_a - detuning
    assert delta_gamma(omega_a, omega, -omega1, J) == delta_gamma(omega_a, omega, omega1, J)
    omegas, amps = omega_a - np.array(detunings)[:, None], np.array(omega1s)
    got = delta_gamma(omega_a, omegas, amps, J)
    assert delta_gamma(omega_a, omegas, -amps, J).tolist() == got.tolist()


def test_delta_gamma_of_floats_is_a_float():
    assert type(delta_gamma(50.0, 49.0, 1.0, 2.0)) is float


@settings(max_examples=25, deadline=None)
@given(
    omega_a=st.floats(1.0, 200.0),
    J=st.floats(0.05, 5.0),
    J_sign=st.sampled_from([1.0, -1.0]),
    detunings=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    omega1s=st.lists(
        st.floats(-10.0, 10.0).filter(lambda w: abs(w) >= 0.01), min_size=1, max_size=5
    ),
    shape=st.sampled_from(["scalar", "row", "grid"]),
)
def test_delta_gamma_on_arrays_is_the_scalar_value(
    omega_a, J, J_sign, detunings, omega1s, shape
):
    J *= J_sign
    omega = omega_a - np.array(detunings)
    omega1 = np.array(omega1s)
    if shape == "scalar":
        omega, omega1 = omega[:1].reshape(()), omega1[:1].reshape(())
    elif shape == "row":
        omega = omega[0]
    else:
        omega = omega[:, None]
    got = delta_gamma(omega_a, omega, omega1, J)
    assert np.shape(got) == np.broadcast_shapes(np.shape(omega), np.shape(omega1))
    om, w1 = np.broadcast_arrays(omega, omega1)
    want = [delta_gamma(omega_a, float(o), float(w), J) for o, w in zip(om.flat, w1.flat)]
    assert np.ravel(got).tolist() == want


def test_delta_gamma_raises_if_any_element_has_no_rabi_vector():
    wa, J = 50.0, 2.0
    pj = math.pi * J
    with pytest.raises(ValueError, match="vanishes"):
        delta_gamma(wa, wa - pj, np.array([1.0, 0.0, 2.0]), J)
    with pytest.raises(ValueError, match="vanishes"):
        delta_gamma(wa, np.array([[wa], [wa + pj]]), np.array([0.0, 1.0]), J)


def two_spin_params(detuning, amplitude, J=1.0 / math.pi):
    pj = math.pi * J
    return TwoSpinParams(
        100.0, 80.0, J, RabiParams(100.0, amplitude * pj, 100.0 - detuning * pj, 0.0)
    )


def test_conditional_sequence_default_spot():
    p = two_spin_params(2.0, 1.2)
    r = run_conditional_sequence(p)
    assert r.fidelity >= 0.999
    assert r.off_diagonal_leakage < 1e-3
    assert r.dynamic_residual < 1e-3
    assert r.adiabatic_ok
    # diagonal phases follow the +,-,-,+ conditional pattern
    diag = np.angle(np.diag(r.gate))
    expect = np.array([2, -2, -2, 2]) * r.delta_gamma
    rel = diag - diag[0] + expect[0]
    assert max(circle_distance(a, b) for a, b in zip(rel, expect)) < 5e-3
    # locally equivalent to a controlled phase of 8 * delta_gamma
    _, _, phi_gate, _ = local_phase_equivalence(np.diag(np.diag(r.gate)))
    assert circle_distance(phi_gate, 8.0 * r.delta_gamma) < 5e-3


def test_conditional_sequence_no_coupling_is_identity():
    p = TwoSpinParams(100.0, 80.0, 0.0, RabiParams(100.0, 1.2, 98.0, 0.0))
    r = run_conditional_sequence(p)
    assert r.delta_gamma == 0.0
    assert gate_fidelity(r.gate, np.eye(4)) >= 0.999


def test_conditional_sequence_drive_on_b_variant():
    p = two_spin_params(2.0, 1.2)
    r = run_conditional_sequence(p, drive_on_b=True)
    assert r.drive_on_b
    # the off-resonant field on spin b perturbs but does not destroy the gate
    assert r.fidelity >= 0.999
    assert r.off_diagonal_leakage < 5e-3


# The gate's symmetries, as properties over spots of the acceptance region
# (detuning and amplitude in units of pi*J, at J = 1/pi).  Flipping the sign
# of J swaps the two coupling sectors, so on the addressed path
# G(-J) = P G(J) P with P the flip of spin b, bit for bit, since the sectors
# run side by side through the same operations; omega_b does not enter the
# addressed path at all; and a common shift of omega_a, omega_b and omega
# moves only the rounding of the detunings.  Not symmetries, so not tested
# as exact: J -> -J with the drive on spin b, since flipping b negates
# Delta_b S_bz (9.4e-8), and an offset of the drive phase, since the ideal
# pi pulses are fixed x rotations (9.5e-9).

SPOTS = dict(detuning=st.floats(1.5, 3.0), amplitude=st.floats(0.7, 1.7))
_FLIP_B = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _spot(detuning, amplitude, J=1.0 / math.pi, omega_b=80.0, shift=0.0):
    omega_a = 100.0 + shift
    return TwoSpinParams(omega_a, omega_b + shift, J,
                         RabiParams(omega_a, amplitude, omega_a - detuning, 0.0))


@settings(max_examples=8, deadline=None)
@given(**SPOTS)
def test_flipping_the_coupling_flips_spin_b_in_the_gate(detuning, amplitude):
    gate = run_conditional_sequence(_spot(detuning, amplitude)).gate
    flipped = run_conditional_sequence(_spot(detuning, amplitude, J=-1.0 / math.pi)).gate
    assert np.array_equal(flipped, _FLIP_B @ gate @ _FLIP_B)


@settings(max_examples=8, deadline=None)
@given(**SPOTS, omega_b=st.floats(20.0, 99.0))
def test_omega_b_does_not_enter_the_addressed_gate(detuning, amplitude, omega_b):
    gate = run_conditional_sequence(_spot(detuning, amplitude)).gate
    assert np.array_equal(run_conditional_sequence(_spot(detuning, amplitude,
                                                         omega_b=omega_b)).gate, gate)


@pytest.mark.parametrize("drive_on_b", [False, True])
@settings(max_examples=4, deadline=None)
@given(**SPOTS, shift=st.floats(-50.0, 50.0))
def test_a_common_frequency_shift_leaves_the_gate(drive_on_b, detuning, amplitude, shift):
    # measured over six spots: up to 1.2e-14 (addressed) and 7.4e-12 (drive_on_b)
    gate = run_conditional_sequence(_spot(detuning, amplitude), drive_on_b=drive_on_b).gate
    shifted = run_conditional_sequence(_spot(detuning, amplitude, shift=shift),
                                       drive_on_b=drive_on_b).gate
    assert np.max(np.abs(shifted - gate)) < 1e-10


def test_conditional_sequence_finite_pulses():
    p = two_spin_params(2.0, 1.2)
    r = run_conditional_sequence(p, pi_pulse_duration=0.05)
    # hard but finite pulses degrade the gate only mildly
    assert r.fidelity >= 0.99


def test_conditional_pattern_spot_grid():
    # 5x5 spot check of the simulated conditional phases against +-2*dg
    detunings = [1.5, 1.8, 2.1, 2.4, 2.7]
    amplitudes = [0.7, 0.95, 1.2, 1.45, 1.7]
    for d in detunings:
        for w in amplitudes:
            p = two_spin_params(d, w)
            r = run_conditional_sequence(p)
            diag = np.angle(np.diag(r.gate))
            expect = np.array([2, -2, -2, 2]) * r.delta_gamma
            rel = diag - diag[0] + expect[0]
            err = max(circle_distance(a, b) for a, b in zip(rel, expect))
            assert err < 5e-3, (d, w, err)
            assert r.off_diagonal_leakage < 1e-3, (d, w)


# ---------------------------------------------------------------------------
# fault-tolerance surface


def test_surface_shapes_and_peaks():
    det = np.linspace(0.2, 3.0, 15)
    amp = np.linspace(0.1, 5.0, 40)
    surf = fault_tolerance_surface(50.0, 2.0, det, amp)
    assert surf.delta_gamma.shape == (15, 40)
    assert len(surf.peaks) == 15
    for pk in surf.peaks:
        assert abs(pk.slope) < 1e-6 * pk.delta_gamma
        if pk.detuning_over_piJ <= 1.0:
            assert pk.boundary and pk.omega1_over_piJ == 0.0
        else:
            assert not pk.boundary
    heights = [pk.delta_gamma for pk in surf.peaks]
    assert all(a >= b - 1e-9 for a, b in zip(heights, heights[1:]))


def test_surface_peak_beyond_the_grid_is_its_flagged_edge():
    amp = np.linspace(0.1, 0.5, 5)
    surf = fault_tolerance_surface(50.0, 2.0, np.array([2.5, 3.0]), amp)
    for pk, row in zip(surf.peaks, surf.delta_gamma):
        assert pk.boundary
        assert pk.omega1_over_piJ == amp[-1]
        assert pk.delta_gamma == row[-1]
        assert pk.slope > 0.0
    # a peak (at 3.3048) between the last two grid points is found inside,
    # although the last point is the row's largest value
    amp = np.linspace(0.11, 3.31, 5)
    inner = fault_tolerance_surface(50.0, 2.0, np.array([2.5]), amp)
    assert np.argmax(inner.delta_gamma[0]) == 4
    pk = inner.peaks[0]
    assert not pk.boundary and amp[3] < pk.omega1_over_piJ < amp[4]
    assert abs(pk.slope) < 1e-6 * pk.delta_gamma


def shift(d, w):
    """The differential shift at detuning d and amplitude w, in units of pi*J."""
    return delta_gamma(d, 0.0, w, 1.0 / math.pi)


RIDGE_DETUNINGS = (
    st.floats(1.001, 50.0) | st.floats(-50.0, -1.001) | st.sampled_from([1.0 + 1e-9, -1.0 - 1e-9])
)


@settings(max_examples=60, deadline=None)
@given(d=RIDGE_DETUNINGS)
def test_ridge_amplitude_is_the_maximum_of_the_shift(d):
    w = sequences._ridge_amplitude(d)
    assert math.isfinite(w) and w > 0.0
    assert abs(sequences._delta_gamma_slope(d, w)) < 1e-12 * shift(d, w)
    for eps in (1e-4, 1e-2):
        assert shift(d, w) >= shift(d, w * (1.0 - eps))
        assert shift(d, w) >= shift(d, w * (1.0 + eps))
    # off the ridge, the analytic slope is the shift's central difference
    w_off, h = 1.5 * w, 1e-4 * w
    numeric = (shift(d, w_off + h) - shift(d, w_off - h)) / (2.0 * h)
    assert sequences._delta_gamma_slope(d, w_off) == pytest.approx(numeric, rel=1e-5)


@settings(max_examples=15, deadline=None)
@given(d=RIDGE_DETUNINGS)
def test_ridge_amplitude_agrees_with_a_numerical_search(d):
    from scipy.optimize import minimize_scalar  # the oracle

    w = sequences._ridge_amplitude(d)
    found = minimize_scalar(
        lambda x: -shift(d, x), bounds=(0.0, 4.0 * abs(d) + 4.0), method="bounded",
        options={"xatol": 1e-12},
    ).x
    assert abs(found - w) < 1e-6 * max(1.0, w)


@settings(max_examples=15, deadline=None)
@given(d=st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]))
def test_rows_without_a_ridge_peak_at_zero_amplitude(d):
    assert sequences._ridge_amplitude(d) is None
    pk = fault_tolerance_surface(50.0, 2.0, np.array([d]), np.linspace(0.1, 5.0, 20)).peaks[0]
    assert pk.boundary and pk.omega1_over_piJ == 0.0 and pk.slope == 0.0


def test_negative_coupling_peaks_at_a_boundary():
    # The shift changes sign with J, so the ridge is a minimum: each row
    # peaks at zero amplitude or, still rising there, at the grid's edge.
    amp = np.linspace(0.1, 5.0, 40)
    surf = fault_tolerance_surface(50.0, -2.0, np.linspace(-3.0, 3.0, 13), amp)
    for pk, row in zip(surf.peaks, surf.delta_gamma):
        assert pk.boundary
        if pk.omega1_over_piJ == 0.0:
            assert pk.slope == 0.0 and pk.delta_gamma >= row.max()
        else:
            assert pk.omega1_over_piJ == amp[-1] and pk.delta_gamma == row[-1]
            assert pk.slope > 0.0


def test_surface_vanishes_at_large_amplitude():
    surf = fault_tolerance_surface(
        50.0, 2.0, np.array([0.5, 2.0]), np.array([1.0, 50.0, 500.0])
    )
    assert np.all(np.abs(surf.delta_gamma[:, -1]) < 0.02)
    assert np.all(np.abs(surf.delta_gamma[:, -1]) < np.abs(surf.delta_gamma[:, 0]))


def test_surface_rejects_bad_grids():
    with pytest.raises(ValueError):
        fault_tolerance_surface(50.0, 2.0, np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        fault_tolerance_surface(50.0, 2.0, np.array([1.0]), np.array([0.0, 1.0]))
    for bad in (math.inf, -math.inf, math.nan):
        for args in (
            (50.0, 2.0, np.array([1.0, bad]), np.array([1.0])),
            (50.0, 2.0, np.array([1.0]), np.array([bad, 1.0])),
            (bad, 2.0, np.array([1.0]), np.array([1.0])),
            (50.0, bad, np.array([1.0]), np.array([1.0])),
        ):
            with pytest.raises(ValueError, match="finite"):
                fault_tolerance_surface(*args)


def test_surface_is_bit_for_bit_the_pointwise_closed_form():
    # A grid on which np.hypot differs from math.hypot in the last place, and
    # enough to change the closed form, so the surface matches its pointwise
    # oracle only if both take their roots with the same function.
    omega_a, J = 100.0, 1.0 / math.pi
    det, amp = np.linspace(0.2, 3.0, 30), np.linspace(0.1, 5.0, 60)
    pj = math.pi * J
    omega, w1 = omega_a - det[:, None] * pj, amp * pj
    plus, minus = omega_a + pj - omega, omega_a - pj - omega

    def math_hypot(x, y):
        return np.frompyfunc(math.hypot, 2, 1)(x, y).astype(float)

    assert np.any(np.hypot(plus, w1) != math_hypot(plus, w1))
    want = surface_by_points(omega_a, J, det, amp)
    with_math_hypot = math.pi * (plus / math_hypot(plus, w1) - minus / math_hypot(minus, w1))
    assert np.any(with_math_hypot != want)

    got = fault_tolerance_surface(omega_a, J, det, amp).delta_gamma
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("grid", [
    (0.2, 3.0, 50, 0.1, 5.0, 100),
    (0.31, 2.93, 7, 0.06, 5.4, 13),
    # The benchmark's dense sweep: 400 x 1000 at the bounds of its seed 201.
    (0.20072444636345144, 2.960405550054047, 400, 0.13533374072506477, 5.33727767591763, 1000),
    # Detunings in exponent notation and an exact 0 lead their rows.
    (-1e-5, 1e-5, 5, 0.1, 5.0, 20),
])
def test_surface_csv_matches_the_pointwise_writer(tmp_path, grid):
    d0, d1, nd, w0, w1, nw = grid
    surf = fault_tolerance_surface(
        100.0, 1.0 / math.pi, np.linspace(d0, d1, nd), np.linspace(w0, w1, nw)
    )
    write_surface_csv(surf, tmp_path / "rows.csv")
    write_surface_csv_by_points(surf, tmp_path / "points.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    nd=st.integers(2, 40),
    nw=st.integers(2, 40),
    J=st.floats(-3.0, -0.05) | st.floats(0.05, 3.0),
    det=st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 4.0)),
    # The smallest scale formats in exponent notation (1e-05 to 3e-05).
    amp=st.tuples(st.sampled_from([1e-5, 1e-3, 0.1, 1.0]), st.floats(1.0, 3.0), st.floats(0.0, 2.0)),
)
def test_surface_csv_is_the_pointwise_writer_on_random_grids(tmp_path, nd, nw, J, det, amp):
    scale, lo, span = amp
    surf = fault_tolerance_surface(
        100.0, J, np.linspace(det[0], det[0] + det[1], nd),
        np.linspace(scale * lo, scale * (lo + span), nw),
    )
    write_surface_csv(surf, tmp_path / "rows.csv")
    write_surface_csv_by_points(surf, tmp_path / "points.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()


def test_surface_csv_format(tmp_path):
    det = np.linspace(0.2, 3.0, 3)
    amp = np.linspace(0.1, 5.0, 4)
    surf = fault_tolerance_surface(50.0, 2.0, det, amp)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "detuning_over_piJ,omega1_over_piJ,delta_gamma_rad"
    assert len(lines) == 1 + 3 * 4
    # row-major: detuning outer, omega1 inner
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == second[0]
    assert float(first[1]) != float(second[1])
    # deterministic output
    path2 = tmp_path / "surface2.csv"
    write_surface_csv(surf, path2)
    assert path.read_bytes() == path2.read_bytes()
    peaks = tmp_path / "peaks.csv"
    write_peaks_csv(surf, peaks)
    assert peaks.read_text().startswith("detuning_over_piJ,omega1_peak_over_piJ,")
