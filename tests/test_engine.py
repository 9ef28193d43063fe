"""The two Magnus-4 propagators, closed-form SU(2) per sector and dense
4x4 in the phi frame, against the batched RK4 oracle and each other.

The oracle runs below are `oracles.plan_afresh`: each segment use of the
production run propagated afresh by `oracles.rk4_propagate_sampled`, at the
steps and stride that use took, with its own energies and phase ledger.
The oracle takes an `engine.SectorField` as its dense Hamiltonian stack.
The `drive_on_b` run is checked on RK4 of its Hamiltonian in the frame of
the reports, independent of the phi frame.
A loop at a constant drive rate has an exact map at any rate, and all three
paths are held to it.
"""

import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import drive_on_b_hamiltonian, plan_afresh, rk4_propagate_sampled

from berrygate import engine, sequences
from berrygate.bloch import RabiParams
from berrygate.schedules import Segment, build_cone_loop
from berrygate.schrodinger import StepSizeError, TwoSpinParams

SHORT = dict(ramp_time=5.0, sweep_time=10.0, dt=0.002)


def two_spin_params(detuning, amplitude):
    return TwoSpinParams(
        100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, amplitude, 100.0 - detuning, 0.0)
    )


def rk4_oracle():
    """The RK4 oracle, through a mock whose calls a test can count, to check
    that every segment use went through it."""
    return mock.Mock(wraps=rk4_propagate_sampled)


def test_cone_loop_matches_rk4_oracle():
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    su2, [(plan, planned)] = _plan_runs(sequences.run_cone_loop, p, **SHORT)
    oracle = rk4_oracle()
    _, total, dynamic, states = plan_afresh(
        plan, oracle, sequences._model_1q(p.omega0), planned, sequences._aligned_start(p)
    )
    assert oracle.call_count == 3  # one per segment
    assert np.max(np.abs(su2.states - np.concatenate(states)[:, :, 0])) < 1e-9
    assert abs(su2.decomposition.total - total[0]) < 1e-9
    assert abs(su2.decomposition.dynamic - dynamic[0]) < 1e-9


def _assert_gates_agree(su2, rk4, tol):
    assert np.max(np.abs(su2.gate - rk4.gate)) < tol
    assert np.max(np.abs(su2.total_phases - rk4.total_phases)) < tol
    assert np.max(np.abs(su2.dynamic_phases - rk4.dynamic_phases)) < tol


def _assert_afresh_agrees(res, afresh, tol):
    """The gate, total and dynamic phases of res against those of
    `oracles.plan_afresh`."""
    gate, total, dynamic, _ = afresh
    assert np.max(np.abs(res.gate - gate)) < tol
    assert np.max(np.abs(res.total_phases - total)) < tol
    assert np.max(np.abs(res.dynamic_phases - dynamic)) < tol


def test_conditional_run_matches_rk4_oracle():
    p = two_spin_params(2.0, 1.2)
    plan = sequences._conditional_plan(p, SHORT["ramp_time"], SHORT["sweep_time"], 0.0)
    su2, planned = _planned(p, **SHORT)
    oracle = rk4_oracle()
    afresh = plan_afresh(plan, oracle, sequences._model_2q(p, False), planned)
    assert oracle.call_count == 12  # one per segment use: 4 loops of 3
    _assert_afresh_agrees(su2, afresh, 1e-9)


def _plan_runs(run, *args, **kwargs):
    """The result of run(*args, **kwargs) and the (plan, `_PlanResult`) of
    each `sequences._run_plan` call it made."""
    calls = []

    def spy(plan, *rest):
        calls.append((plan, run_plan(plan, *rest)))
        return calls[-1][1]

    run_plan = sequences._run_plan
    with mock.patch.object(sequences, "_run_plan", spy):
        res = run(*args, **kwargs)
    return res, calls


def _strides(planned):
    """The accepted stride of each segment use of a `_PlanResult`."""
    return [book.stride for book in planned.books]


def _planned(p, **kwargs):
    """The conditional gate at p and the `_PlanResult` of its plan."""
    res, calls = _plan_runs(sequences.run_conditional_sequence, p, **kwargs)
    return res, calls[0][1]


def test_drive_on_b_run_matches_rk4_oracle():
    # dense Magnus-4 in the phi frame against RK4 in the frame of the
    # reports: the gaps measure 2.4e-11 (gate), 2.3e-11 (total phases) and
    # 2.1e-10 (dynamic phases), so the bound leaves a margin of about 5
    p = two_spin_params(2.0, 1.2)
    plan = sequences._conditional_plan(p, SHORT["ramp_time"], SHORT["sweep_time"], 0.0)
    magnus, planned = _planned(p, drive_on_b=True, **SHORT)
    afresh = plan_afresh(plan, rk4_propagate_sampled, drive_on_b_hamiltonian(p), planned)
    _assert_afresh_agrees(magnus, afresh, 1e-9)
    # each use's book, turned into the frame of the reports: measured 6.3e-10
    assert len(planned.books) == len(afresh[3]) == 12
    for book, states in zip(planned.books, afresh[3]):
        assert book.states.shape == states.shape
        assert np.max(np.abs(book.states - states)) < 5e-9


def _plan_map(plan, model, dt):
    """The plan's propagator, without the phase ledger: at the short
    schedule some spots of the region leave the adiabatic branch far enough
    for the ledger to refuse them, and the gates still compare.  The engine
    runs each segment in its own local time, so each distinct segment is
    propagated once, from the identity, and the maps are composed with the
    pulses in plan order."""
    maps, u = {}, np.eye(4, dtype=complex)
    for kind, item in plan:
        if kind == "seg" and item not in maps:
            n = max(1, int(round(item.duration / dt)))
            maps[item] = engine.propagate_sampled(
                model, item.controls_at, n, item.duration / n, np.eye(4, dtype=complex), 1
            )[1][-1]
        u = (maps[item] if kind == "seg" else item) @ u
    return u


@settings(max_examples=12, deadline=None)
@given(
    detuning=st.floats(1.5, 3.0),
    amplitude=st.floats(0.7, 1.7),
)
def test_sector_split_gate_equals_full_4x4_gate(detuning, amplitude):
    # the closed-form SU(2) steps against the dense eigh steps of the full
    # 4x4 stack of the same Hamiltonian
    p = two_spin_params(detuning, amplitude)
    sectors = sequences._model_2q(p, False)
    plan = sequences._conditional_plan(p, SHORT["ramp_time"], SHORT["sweep_time"], 0.0)
    full = sectors.__call__
    assert isinstance(sectors, engine.SectorField)
    gate = _plan_map(plan, sectors, SHORT["dt"])
    assert np.max(np.abs(gate - _plan_map(plan, full, SHORT["dt"]))) < 1e-9


def _wobbling_field(times):
    """A fast-varying two-sector field, so that the step error stands well
    above rounding at dt of a few hundredths."""
    v = np.empty((3, len(times), 2))
    v[0] = (1.5 * np.cos(1.3 * times))[:, None]
    v[1] = (np.sin(0.7 * times) + 0.3 * times)[:, None]
    v[2, :, 0] = 2.0 + 0.5 * np.sin(2.0 * times)
    v[2, :, 1] = -1.0 + 0.4 * np.cos(3.0 * times)
    return v


def _final_map(dt, model, span=4.0):
    n = int(round(span / dt))
    _, states = engine.propagate_sampled(
        model, lambda times: (), n, span / n, np.eye(4, dtype=complex), 1
    )
    return states[-1]


def _assert_error_falls_as_h4(model):
    exact = _final_map(0.04 / 32, model)
    errs = [np.max(np.abs(_final_map(dt, model) - exact)) for dt in (0.04, 0.02)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0, errs


def test_magnus_error_falls_as_h4():
    _assert_error_falls_as_h4(engine.SectorField(_wobbling_field, sequences.ROWS_2Q, 4))


def _coupled_wobbling_field(times):
    """A fast-varying real 4x4 Hamiltonian whose off-diagonal terms couple
    every basis state, so no sector split applies."""
    h = np.empty((len(times), 4, 4))
    h[:] = 0.3 * np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    h[:, 0, 1] = h[:, 1, 0] = 1.5 * np.cos(1.3 * times)
    h[:, 2, 3] = h[:, 3, 2] = np.sin(0.7 * times) + 0.3 * times
    h[:, 0, 3] = h[:, 3, 0] = 0.8 * np.sin(1.1 * times)
    h[:, [0, 1, 2, 3], [0, 1, 2, 3]] = np.stack(
        [2.0 + 0.5 * np.sin(2.0 * times), -1.0 + 0.4 * np.cos(3.0 * times),
         0.5 * np.cos(times), -1.5 + 0.2 * times], axis=-1)
    return h


def test_dense_magnus_error_falls_as_h4():
    # measured ratio 16.0
    _assert_error_falls_as_h4(_coupled_wobbling_field)


def test_oversized_dense_step_raises():
    # the gap is 0.13 at dt 0.5
    with pytest.raises(StepSizeError, match=r"\|\|\[H2, H1\]\|\| = .* exceeds the tolerance"):
        _final_map(0.5, _coupled_wobbling_field)


@pytest.mark.parametrize("propagate", [engine.propagate_sampled, rk4_propagate_sampled])
@pytest.mark.parametrize("n_steps, steps_per_sample", [(5, 2), (64, 128), (96, 64)])
def test_a_partial_sample_block_raises(propagate, n_steps, steps_per_sample):
    model = engine.SectorField(_wobbling_field, sequences.ROWS_2Q, 4)
    with pytest.raises(ValueError, match=r"^steps_per_sample \d+ does not divide n_steps \d+$"):
        propagate(
            model, lambda times: (), n_steps, 0.01, np.eye(4, dtype=complex), steps_per_sample
        )


@pytest.mark.parametrize("model", [
    engine.SectorField(_wobbling_field, sequences.ROWS_2Q, 4), _coupled_wobbling_field,
], ids=["sectors", "dense"])
@pytest.mark.parametrize("n_steps, steps_per_sample", [(6, 3), (12, 6), (96, 48)])
def test_a_sample_block_that_is_not_a_power_of_two_raises(model, n_steps, steps_per_sample):
    # the steps of a block are folded by pairwise products: a dense run
    # here used to return a wrong final map (0.041 off the block-1 run at
    # n = 6, block 3, and 0.084 at n = 12, block 6), and a sector run to
    # fail inside numpy's broadcasting
    with pytest.raises(ValueError, match=r"^steps_per_sample \d+ is not a power of two$"):
        engine.propagate_sampled(
            model, lambda times: (), n_steps, 0.01, np.eye(4, dtype=complex), steps_per_sample
        )


@pytest.fixture(scope="module")
def default_spot_runs():
    """The default-spot gate at the default step, one Magnus-4 step per
    sample, and at a 64 times finer step (1.9 M steps)."""
    p = two_spin_params(2.0, 1.2)
    dt = sequences.default_times_2q(p)[2]
    return (
        sequences.run_conditional_sequence(p),
        sequences.run_conditional_sequence(p, dt=dt / 64),
    )


def test_default_step_matches_a_64_times_finer_step(default_spot_runs):
    coarse, fine = default_spot_runs
    _assert_gates_agree(coarse, fine, 1e-8)


def test_unitarity_defect_of_a_long_run(default_spot_runs):
    # 1.9 M steps; RK4 leaves a defect of about 5e-12
    gate = default_spot_runs[1].gate
    assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) < 1e-12



# Each distinct Hamiltonian of a plan is folded once: the gate's four loops
# share one ramp-up and repeat the forward and the reversed loop, and both
# ramp-downs are the ramp-up played backwards, so its 12 segment uses take
# 3 folds (the ramp-up and the two sweeps), each of one chunk at default
# times.


@pytest.mark.parametrize("drive_on_b, steps", [
    (False, "magnus4_steps"), (True, "magnus4_dense_steps"),
])
def test_the_gate_propagates_each_distinct_segment_once(drive_on_b, steps):
    p = two_spin_params(2.0, 1.2)
    spy = mock.Mock(wraps=getattr(engine, steps))
    propagate = mock.Mock(wraps=engine.propagate_sampled)
    with mock.patch.object(engine, steps, spy), \
            mock.patch.object(engine, "propagate_sampled", propagate):
        for _ in range(2):  # nothing is kept from one gate to the next
            spy.reset_mock()
            propagate.reset_mock()
            sequences.run_conditional_sequence(p, drive_on_b=drive_on_b)
            assert spy.call_count == 3
            # one fold per distinct Hamiltonian, from its first use's start
            # state; the ramp-downs take the ramp-up's maps reversed
            assert propagate.call_count == 3


# A segment's energies are a quadratic form in its start state, so its uses
# share one observable in the Heisenberg picture, U^dagger H U, and each use
# only contracts it with the weights of its start state; the ledger reads
# one row of each map.  Random unit start columns, which span
# both sectors, against <psi|H|psi> of the states that `engine.samples_at`
# gives, in the frame of the reports (the oracle's Hamiltonian for the phi
# frame).

FRAMES = {
    "one spin": (lambda p: sequences._model_1q(p.drive.omega0), 2),
    "two sectors": (lambda p: sequences._model_2q(p, False), 4),
    "phi frame": (sequences._PhiFrame, 4),
}


@settings(max_examples=30, deadline=None)
@given(
    frame=st.sampled_from(sorted(FRAMES)),
    use=st.sampled_from([0, 1, 2]),
    columns=st.integers(1, 4),
    t0=st.floats(0.0, 50.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_a_use_reads_its_segment_in_the_heisenberg_picture(frame, use, columns, t0, seed):
    p = two_spin_params(2.0, 1.2)
    make, d = FRAMES[frame]
    model = make(p)
    seg = sequences._conditional_plan(p, 5.0, 10.0, 0.0)[use][1]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(d, columns)) + 1j * rng.normal(size=(d, columns))
    u /= np.linalg.norm(u, axis=0)
    ref, cols = rng.integers(0, d, size=columns), np.arange(columns)
    propagator, controls, start, to_report = sequences._segment_frame(model, seg, t0, u)
    maps = engine.SampleMaps()
    engine.propagate_sampled(propagator, controls, 1024, seg.duration / 1024, start, 4, maps)
    weights = engine.energy_weights(propagator, start)
    stride = maps.stride
    while stride:
        tau, states = engine.samples_at(propagator, maps, start, stride)
        assert np.array_equal(engine.end_state(propagator, maps, start), states[-1])
        comp = engine.reference_rows(propagator, maps, start, stride, ref)
        if to_report is not None:
            phases = to_report(tau)
            states *= phases[:, :, None]
            comp *= phases[:, ref]
        assert np.array_equal(comp, states[:, ref, cols])
        if to_report is None:
            h = model(tau, *seg.controls_at(tau))
        else:
            h = drive_on_b_hamiltonian(p)(t0 + tau, *seg.controls_at(tau))
        energies = np.einsum("sdm,sdm->sm", states.conj(), h @ states).real
        observable = sequences._observe(model, seg, propagator, maps, stride)[1]
        assert np.max(np.abs(observable @ weights - energies)) <= 1e-12 * np.abs(h).max()
        stride //= 2


def test_shared_segments_give_the_gate_of_fresh_ones():
    # measured: 0 (gate), 2.3e-13 (total phases) and 6.1e-13 (dynamic
    # phases, the net of segment terms of up to 517 rad)
    p = two_spin_params(2.0, 1.2)
    ramp, sweep, _ = sequences.default_times_2q(p)
    plan = sequences._conditional_plan(p, ramp, sweep, 0.0)
    res, planned = _planned(p)
    afresh = plan_afresh(plan, engine.propagate_sampled, sequences._model_2q(p, False), planned)
    _assert_afresh_agrees(res, afresh, 1e-12)


# Each segment is sampled at the coarsest stride whose error estimates pass,
# from a start within the Nyquist cap of its fastest step frequency.


def test_the_default_spot_gate_accepts_stride_4_on_every_use():
    # |Omega'|max times the floor spacing is SAMPLE_RESOLUTION = 0.32, so the
    # cap is 4 floor intervals; the ledger's margins there
    _, planned = _planned(two_spin_params(2.0, 1.2))
    assert _strides(planned) == [4] * 12
    ledger = planned.ledger
    assert ledger.max_jump < math.pi / 16
    assert ledger.min_magnitude >= 0.9
    assert ledger.rebases == 0


def test_drive_on_b_is_sampled_at_the_floor():
    # spin b turns at |omega - omega_b| = 18 rad/s in the phi frame, 2.5 rad
    # per floor interval: over the cap at any stride above 1
    _, planned = _planned(two_spin_params(2.0, 1.2), drive_on_b=True)
    assert _strides(planned) == [1] * 12


def test_a_near_equator_cone_refines_its_ramps_to_the_floor():
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(1.45), 0.0)
    ramp, sweep, dt = sequences.default_times_1q(p)
    plan = sequences._schedule_plan(sequences.build_cone_loop(p, ramp, sweep))
    spacing = sequences._sample_spacing(sequences._rabi_1q(p), dt)
    planned = sequences._run_plan(plan, sequences._model_1q(p.omega0),
                                  sequences._aligned_start(p), dt, spacing)
    assert planned.books[0].stride == planned.books[2].stride == 1


@pytest.mark.parametrize("detuning, amplitude", [(2.0, 1.2), (1.5, 1.7), (2.7, 0.9)])
def test_the_sampled_gate_is_the_floor_sampled_gate(detuning, amplitude):
    # with the Nyquist cap at zero every segment is sampled at the floor
    # spacing; the steps are the same, so only the quadrature of the
    # dynamic phases moves (measured: 0 (gate), up to 1.7e-13 (total
    # phases) and 3.1e-10 (dynamic phases))
    p = two_spin_params(detuning, amplitude)
    sampled = sequences.run_conditional_sequence(p)
    with mock.patch.object(engine, "MAX_SAMPLE_ANGLE", 0.0):
        floor = sequences.run_conditional_sequence(p)
    assert np.max(np.abs(sampled.gate - floor.gate)) < 1e-10
    assert np.max(np.abs(sampled.total_phases - floor.total_phases)) < 1e-10
    assert np.max(np.abs(sampled.dynamic_phases - floor.dynamic_phases)) < 1e-8


def test_a_later_use_refines_the_shared_maps_further():
    # the echo's two loops share their ramp-up: its first use accepts
    # stride 2, and its second, on the flipped columns, refines to 1 from
    # the shared maps; the two ramp-downs take the ramp-up's maps reversed,
    # so the 6 segment uses take the steps of 3
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    ramp, sweep, dt = sequences.default_times_1q(p)
    model = sequences._model_1q(p.omega0)
    pulse = [("pulse", sequences._pi_pulse(model, p.omega, "single", 0.0))]
    plan = [item for orientation in ("forward", "reversed")
            for item in sequences._schedule_plan(
                sequences.build_cone_loop(p, ramp, sweep, orientation)) + pulse]
    spacing = sequences._sample_spacing(sequences._rabi_1q(p), dt)
    steps = mock.Mock(wraps=engine.magnus4_steps)
    propagate = mock.Mock(wraps=engine.propagate_sampled)
    with mock.patch.object(engine, "magnus4_steps", steps), \
            mock.patch.object(engine, "propagate_sampled", propagate):
        planned = sequences._run_plan(plan, model, np.eye(2, dtype=complex), dt, spacing)
    assert steps.call_count == propagate.call_count == 3
    assert _strides(planned) == [2, 4, 2, 1, 2, 1]
    # the later use of the ramp-up keeps no states: its book samples the
    # shared maps at its own stride, from its own start, when first read
    ramp_maps = propagate.call_args_list[0].args[6]
    start = plan[3][1] @ planned.books[2].states[-1]
    assert np.array_equal(planned.books[3].states,
                          engine.samples_at(model, ramp_maps, start, 1)[1])
    with mock.patch.object(engine, "MAX_SAMPLE_ANGLE", 0.0):
        floor = sequences._run_plan(plan, model, np.eye(2, dtype=complex), dt, spacing)
    assert _strides(floor) == [1] * 6
    # measured: 0 (final state and total phases) and 5.4e-10 (dynamic)
    assert np.max(np.abs(planned.final - floor.final)) < 1e-12
    assert np.max(np.abs(planned.ledger.total - floor.ledger.total)) < 1e-10
    assert np.max(np.abs(planned.dynamic - floor.dynamic)) < 1e-8


@pytest.mark.parametrize("run", [sequences.measure_cone_phase, sequences.run_spin_echo_1q],
                         ids=["cone", "echo"])
def test_book_times_are_the_start_time_plus_the_local_grid(run):
    # each segment runs in local time from 0, and its samples enter the
    # books at its start time t0, the sum of the durations before it, on
    # the grid of its accepted stride, bit for bit; refined segments included
    _, plans = _plan_runs(run, RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0))
    strides = [stride for _, planned in plans for stride in _strides(planned)]
    assert min(strides) < max(strides)
    for plan, planned in plans:
        segments = [item for kind, item in plan if kind == "seg"]
        assert len(planned.books) == len(segments)
        t0 = 0.0
        for seg, book in zip(segments, planned.books):
            n, stride = len(book.times), book.stride
            dt_seg = seg.duration / (planned.block * stride * (n - 1))
            assert np.array_equal(book.times, t0 + np.arange(n) * (stride * planned.block) * dt_seg)
            t0 += seg.duration


# An idle segment with phi = (0, 2 pi) at constant w1 turns the drive at the
# constant rate phi' = 2 pi/T.  In the frame that turns with phi its
# Hamiltonian is static, so the loop has an exact map at any rate, far from
# the adiabatic branch too: in each sector -exp(-i H_eff T), with
# H_eff = (w1 sx + (delta - 2 pi/T) sz)/2, since R_z(2 pi) = -1; and in the
# phi frame of the drive on both spins exp(-i H' T), with H' of
# `_h2q_stack` at phi' = 2 pi/T.


def _idle_loop(w1, om, T):
    return Segment("idle", T, (w1, w1), (om, om), (0.0, 2.0 * math.pi))


def _exact_sector_loop(w1, delta, T):
    """-exp(-i H_eff T) = -(cos(r T/2) - i sin(r T/2) n . sigma), with
    r n = (w1, 0, delta - 2 pi/T)."""
    vx, vz = w1, delta - 2.0 * math.pi / T
    r = math.hypot(vx, vz)
    c, s = math.cos(0.5 * r * T), math.sin(0.5 * r * T) / r
    return -np.array([[c - 1j * s * vz, -1j * s * vx], [-1j * s * vx, c + 1j * s * vz]])


def _loop_map(model, controls, T, dim, n_steps=4096):
    _, states = engine.propagate_sampled(
        model, controls, n_steps, T / n_steps, np.eye(dim, dtype=complex), n_steps
    )
    return states[-1]


def test_a_stride_skipped_on_the_way_down_is_made_later():
    # stride 2 asked before 4, below the run's stride 8, must keep the
    # levels that 4 needs: the maps asked 2-then-4 are those asked 4-then-2
    model, seg = sequences._model_1q(5.0), _idle_loop(1.0, 4.0, 50.0)
    start = np.eye(2, dtype=complex)
    states = {}
    for order in ((2, 4), (4, 2)):
        maps = engine.SampleMaps(stride=8)
        engine.propagate_sampled(model, seg.controls_at, 1024, 50.0 / 1024, start, 4, maps)
        for stride in order:
            states[order, stride] = engine.samples_at(model, maps, start, stride)[1]
    for stride in (2, 4):
        assert np.array_equal(states[(2, 4), stride], states[(4, 2), stride])


def test_a_coarser_stride_takes_the_maps_of_the_finer():
    # strides 16 and 32 asked after the run's stride 8, and stride 4 after
    # them: each coarser one is every (stride/8)-th map at 8, bit for bit,
    # so every stride ends on the same map
    model, seg = sequences._model_1q(5.0), _idle_loop(1.0, 4.0, 50.0)
    start = np.eye(2, dtype=complex)
    maps = engine.SampleMaps(stride=8)
    engine.propagate_sampled(model, seg.controls_at, 1024, 50.0 / 1024, start, 4, maps)
    assert np.array_equal(maps.at(16), maps.at(8)[1::2])
    assert np.array_equal(maps.at(32), maps.at(8)[3::4])
    assert np.array_equal(maps.at(4)[1::2], maps.at(8))


# At T = 0.2 the drive turns at 31 rad/s, about ten times the sectors' Rabi
# frequency.  The bounds come from a 4 x 5 x 5 grid over this box, at 4,096
# steps: the worst errors were 3.6e-10 (one spin) and 4.4e-10 (two
# sectors), both at the corner w1 2, delta -3, T 50, and 6.8e-12 in the phi
# frame, whose static Hamiltonian leaves only rounding.
EXACT_LOOPS = dict(w1=st.floats(0.1, 2.0), delta=st.floats(-3.0, 3.0), T=st.floats(0.2, 50.0))
SECTOR_LOOP_BOUND = 1e-9
PHI_FRAME_LOOP_BOUND = 5e-11


@settings(max_examples=25, deadline=None)
@given(**EXACT_LOOPS)
def test_one_spin_loop_is_exact_at_any_rate(w1, delta, T):
    seg = _idle_loop(w1, 5.0 - delta, T)
    got = _loop_map(sequences._model_1q(5.0), seg.controls_at, T, 2)
    assert np.max(np.abs(got - _exact_sector_loop(w1, delta, T))) < SECTOR_LOOP_BOUND


@settings(max_examples=25, deadline=None)
@given(**EXACT_LOOPS)
def test_two_spin_sector_loops_are_exact_at_any_rate(w1, delta, T):
    p = two_spin_params(2.0, 1.2)
    om = p.omega_a - delta
    exact = np.zeros((4, 4), dtype=complex)
    for rows, w in zip(sequences.ROWS_2Q, (p.omega_plus, p.omega_minus)):
        exact[np.ix_(rows, rows)] = _exact_sector_loop(w1, w - om, T)
    got = _loop_map(sequences._model_2q(p, False), _idle_loop(w1, om, T).controls_at, T, 4)
    assert np.max(np.abs(got - exact)) < SECTOR_LOOP_BOUND


@settings(max_examples=10, deadline=None)
@given(**EXACT_LOOPS)
def test_phi_frame_loop_is_exact_at_any_rate(w1, delta, T):
    from scipy.linalg import expm  # the oracle

    p = two_spin_params(2.0, 1.2)
    seg = _idle_loop(w1, p.omega_a - delta, T)
    h = sequences._h2q_stack(p, np.zeros(1), *sequences._phi_frame_controls(seg, np.zeros(1)))
    got = _loop_map(partial(sequences._h2q_stack, p),
                    partial(sequences._phi_frame_controls, seg), T, 4)
    assert np.max(np.abs(got - expm(-1j * T * h[0]))) < PHI_FRAME_LOOP_BOUND


def test_exact_loop_error_falls_as_h4():
    # one spin (omega0 5, w1 1, omega 4) over T = 50: measured 8.3e-9 at
    # 1,024 steps and 3.2e-11 at 4,096, a ratio of 256
    model, seg = sequences._model_1q(5.0), _idle_loop(1.0, 4.0, 50.0)
    exact = _exact_sector_loop(1.0, 1.0, 50.0)
    errs = [np.max(np.abs(_loop_map(model, seg.controls_at, 50.0, 2, n) - exact))
            for n in (1024, 4096)]
    assert 200.0 <= errs[0] / errs[1] <= 300.0, errs


# A ramp-down is its ramp-up played backwards.  The Magnus-4 step on the
# two symmetric Gauss nodes is time-symmetric, and a ramp's Bloch field
# stays in the plane of its drive phase (the phi frame's H' is real), so the
# ramp-down's maps follow from the ramp-up's with no step taken
# (`engine.SampleMaps.reversed`).  Over 300 draws of this box the worst gaps
# to the folded ramp-down measured 2.1e-15 (one spin and two sectors) and
# 2.5e-13 (phi frame).

RAMP_PAIRS = dict(
    amplitude=st.floats(0.3, 2.0), detuning=st.floats(-3.0, 3.0), phase=st.floats(-7.0, 7.0),
    turns=st.integers(-3, 3), orientation=st.sampled_from(["forward", "reversed"]),
)
REVERSAL_FRAMES = {  # (model, controls of a segment, planar, dim, bound)
    "one spin": lambda p: (sequences._model_1q(p.omega_a), lambda seg: seg.controls_at,
                           True, 2, 1e-13),
    "two sectors": lambda p: (sequences._model_2q(p, False), lambda seg: seg.controls_at,
                              True, 4, 1e-13),
    "phi frame": lambda p: (partial(sequences._h2q_stack, p),
                            lambda seg: partial(sequences._phi_frame_controls, seg),
                            False, 4, 1e-12),
}


def _folded_ramp(model, controls, seg, dim):
    maps = engine.SampleMaps()
    engine.propagate_sampled(model, controls, 1024, seg.duration / 1024,
                             np.eye(dim, dtype=complex), 4, maps)
    return maps


@settings(max_examples=30, deadline=None)
@given(frame=st.sampled_from(sorted(REVERSAL_FRAMES)), **RAMP_PAIRS)
def test_a_ramp_down_is_its_ramp_up_reversed(frame, amplitude, detuning, phase, turns,
                                             orientation):
    drive = RabiParams(100.0, amplitude, 100.0 - detuning, phase + 2.0 * math.pi * turns)
    up, _, down = build_cone_loop(drive, 5.0, 10.0, orientation).segments
    p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, drive)
    model, controls, planar, dim, bound = REVERSAL_FRAMES[frame](p)
    assert sequences._mirrors(up, down, planar)
    reversed_run = _folded_ramp(model, controls(up), up, dim).reversed(
        up.phi[0] if planar else None)
    folded = _folded_ramp(model, controls(down), down, dim)
    assert reversed_run.stride == folded.stride
    for stride in (folded.stride, 1):
        assert np.max(np.abs(reversed_run.at(stride) - folded.at(stride))) < bound


def _plan_folds(p, plan):
    """The segments that a one-spin plan of segments at p, run at the
    default step, folds, in order."""
    dt = sequences.default_times_1q(p)[2]
    propagate = mock.Mock(wraps=engine.propagate_sampled)
    with mock.patch.object(engine, "propagate_sampled", propagate):
        sequences._run_plan([("seg", seg) for seg in plan], sequences._model_1q(p.omega0),
                            np.eye(2, dtype=complex), dt,
                            sequences._sample_spacing(sequences._rabi_1q(p), dt))
    return [call.args[1].__self__ for call in propagate.call_args_list]


def test_only_a_ramp_down_that_mirrors_a_folded_ramp_up_is_reversed():
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    ramp, sweep_time, _ = sequences.default_times_1q(p)
    (up, sweep, down), (_, sweep_r, down_r) = (
        build_cone_loop(p, ramp, sweep_time, o).segments for o in ("forward", "reversed"))
    assert _plan_folds(p, [up, sweep, down]) == [up, sweep]
    # both loops: the two ramp-downs share the ramp-up's reversed run, and
    # neither sweep is derived, since a sweep's field leaves the plane
    assert _plan_folds(p, [up, sweep, down, up, sweep_r, down_r]) == [up, sweep, sweep_r]
    assert _plan_folds(p, [down, up]) == [down, up]  # no ramp-up before it
    # no matching ramp-up: another duration, another amplitude, or a drive
    # phase half a turn off, which the phi frame's H' does not read
    folded_up = _folded_ramp(sequences._model_1q(5.0), up.controls_at, up, 2)
    half_turn = replace(down, phi=(down.phi[0] + math.pi,) * 2)
    for other in (replace(down, duration=1.5 * down.duration),
                  replace(down, omega1=(0.9, 0.0)), half_turn):
        maps, observed = sequences._first_maps({up: (folded_up, {})}, other, True)
        assert not maps.filled and observed == {}
    assert sequences._mirrors(up, half_turn, False)
