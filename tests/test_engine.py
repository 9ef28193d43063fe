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

import gc
import math
import weakref
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import drive_on_b_hamiltonian, plan_afresh, rk4_propagate_sampled, use_steps

from berrygate import engine, sequences
from berrygate.bloch import RabiParams
from berrygate.phase import circle_distance
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
    su2, [(plan, planned, interval)] = _plan_runs(sequences.run_cone_loop, p, **SHORT)
    oracle = rk4_oracle()
    _, total, dynamic, states = plan_afresh(
        plan, oracle, sequences._model_1q(p.omega0), planned, interval,
        sequences._aligned_start(p),
    )
    assert oracle.call_count == 3  # one per segment
    _assert_books_agree(planned, states, 1e-9)
    assert abs(su2.decomposition.total - total[0]) < 1e-9
    assert abs(su2.decomposition.dynamic - dynamic[0]) < 1e-9


def _assert_books_agree(planned, afresh_states, tol):
    """Each use's book, whose states are read at its own stride, against
    the states of `oracles.plan_afresh` at every step, at the same times."""
    assert len(planned.books) == len(afresh_states)
    for book, states in zip(planned.books, afresh_states):
        every = (len(states) - 1) // (len(book.times) - 1)
        assert book.states.shape == states[::every].shape
        assert np.max(np.abs(book.states - states[::every])) < tol


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
    su2, planned, interval = _planned(p, **SHORT)
    oracle = rk4_oracle()
    afresh = plan_afresh(plan, oracle, sequences._model_2q(p, False), planned, interval)
    assert oracle.call_count == 12  # one per segment use: 4 loops of 3
    _assert_afresh_agrees(su2, afresh, 1e-9)


def _plan_runs(run, *args, **kwargs):
    """The result of run(*args, **kwargs) and the (plan, `_PlanResult`,
    floor spacing max(spacing, dt)) of each `sequences._run_plan` call it
    made."""
    calls = []

    def spy(plan, model, u0, dt, spacing):
        calls.append((plan, run_plan(plan, model, u0, dt, spacing), max(spacing, dt)))
        return calls[-1][1]

    run_plan = sequences._run_plan
    with mock.patch.object(sequences, "_run_plan", spy):
        res = run(*args, **kwargs)
    return res, calls


def _strides(planned):
    """The accepted stride of each segment use of a `_PlanResult`."""
    return [book.stride for book in planned.books]


def _planned(p, **kwargs):
    """The conditional gate at p, and the `_PlanResult` and floor spacing
    of its plan."""
    res, [(_, planned, interval)] = _plan_runs(sequences.run_conditional_sequence, p, **kwargs)
    return res, planned, interval


def test_drive_on_b_run_matches_rk4_oracle():
    # dense Magnus-4 in the phi frame against RK4 in the frame of the
    # reports: the gaps measure 2.4e-11 (gate), 2.3e-11 (total phases) and
    # 2.1e-10 (dynamic phases), so the bound leaves a margin of about 5
    p = two_spin_params(2.0, 1.2)
    plan = sequences._conditional_plan(p, SHORT["ramp_time"], SHORT["sweep_time"], 0.0)
    magnus, planned, interval = _planned(p, drive_on_b=True, **SHORT)
    afresh = plan_afresh(plan, rk4_propagate_sampled, drive_on_b_hamiltonian(p), planned,
                         interval)
    _assert_afresh_agrees(magnus, afresh, 1e-9)
    # each use's book, turned into the frame of the reports: measured 6.3e-10
    assert len(planned.books) == 12
    _assert_books_agree(planned, afresh[3], 5e-9)


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


def test_a_dense_step_past_the_magnus_bound_raises():
    # a static H has no commutator and so no gap: only the bound on the
    # eigenvalues of K = h H refuses h ||H||_2 >= pi (3.08 passes at n = 13
    # steps over 4 s, 3.33 is refused at n = 12)
    static = np.diag([10.0, -10.0, 3.0, -3.0])
    stack = lambda times: np.broadcast_to(static, (len(times), 4, 4))
    _final_map(0.3, stack)
    with pytest.raises(StepSizeError, match=r"eigenvalue of magnitude 3.333 >= pi"):
        _final_map(0.32, stack)


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


# A segment's uses share one energy integral in the Heisenberg picture, the
# integral G of U^dagger H U that the engine carries with its maps, and each
# use reads <psi0|G|psi0> at its own start state psi0 off the maps alone
# (`engine.energy_integrals`).  Random unit start columns, which span both
# sectors, against the running sum of <psi|G|psi> over the steps, each
# step's energy integral G on the state before it, in the frame the engine
# runs in (H' + dPhi/dt for the phi frame, whose energy in the frame of the
# reports the oracle runs above check).

FRAMES = {
    "one spin": (lambda p: sequences._model_1q(p.drive.omega0), 2),
    "two sectors": (lambda p: sequences._model_2q(p, False), 4),
    "phi frame": (sequences._PhiFrame, 4),
}


def _step_matrices(model, steps, d):
    """The unitaries (n, d, d) and energy integrals (n, d, d) of the engine's
    steps, as matrices."""
    if not isinstance(model, engine.SectorField):
        return steps[:, :d], steps[:, d:]
    u = np.zeros((len(steps), d, d), dtype=complex)
    g = np.zeros((len(steps), d, d), dtype=complex)
    for s, (i, j) in enumerate(model.rows):
        a, b, xi, zeta = (steps[:, s, k] for k in range(4))
        u[:, i, i], u[:, i, j], u[:, j, i], u[:, j, j] = a, -b.conj(), b, a.conj()
        g[:, i, i], g[:, i, j], g[:, j, i], g[:, j, j] = (
            0.5 * zeta, 0.5 * xi.conj(), 0.5 * xi, -0.5 * zeta)
    return u, g


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
    propagator, controls, start, _ = sequences._segment_frame(model, seg, t0, u)
    n, dt = 1024, seg.duration / 1024
    maps = engine.SampleMaps()
    engine.propagate_sampled(propagator, controls, n, dt, start, 4, maps)
    # the running sum over the steps, one at a time
    steps, gaps = _step_matrices(propagator, engine._chunk_products(
        propagator, controls, 0.0, n, dt, 1)[0], d)
    psi, running = start, np.zeros((n + 1, columns))
    for k in range(n):
        running[k + 1] = running[k] + np.einsum("dm,dm->m", psi.conj(), gaps[k] @ psi).real
        psi = steps[k] @ psi
    stride = maps.stride
    while stride:
        integrals = engine.energy_integrals(maps, start, stride)
        expected = running[:: 4 * stride]
        assert np.max(np.abs(integrals - expected)) <= 1e-12 * np.abs(expected).max()
        stride //= 2


# The energy integral of one Magnus-4 step, G = i S^dagger dS/dlambda with H
# scaled to (1 + lambda) H, or perturbed to H' + lambda (H' + dPhi/dt) in the
# phi frame, against a central finite difference in lambda of the steps
# themselves.  Measured at a difference step of 1e-5: 8.8e-12 (sectors),
# 1.0e-10 (dense) and 1.4e-10 (phi frame), on integrals of up to 0.95, where
# the difference's own rounding and truncation are about 1e-10.


def _random_steps(frame, rng, n=64, h=0.3):
    """The steps at h of random fields or Hamiltonians at their two Gauss
    nodes, with their energy integrals as matrices, and the same steps'
    unitaries at a perturbation lam, as a function of lam."""
    if frame == "sectors":
        model = engine.SectorField(None, sequences.ROWS_2Q, 4)
        v1 = rng.normal(size=(3, n, 2))
        v2 = v1 + 0.3 * rng.normal(size=(3, n, 2))
        return (_step_matrices(model, engine.magnus4_steps(v1, v2, h)[0], 4),
                lambda lam: _step_matrices(
                    model, engine.magnus4_steps((1 + lam) * v1, (1 + lam) * v2, h)[0], 4)[0])
    h1, h2 = (rng.normal(size=(n, 4, 4)) for _ in range(2))
    if frame == "dense":
        h1, h2 = h1 + 1j * rng.normal(size=(n, 4, 4)), h2 + 1j * rng.normal(size=(n, 4, 4))
    h1, h2 = (0.5 * (x + x.conj().swapaxes(-1, -2)) for x in (h1, h2))
    rates = None
    v1, v2 = h1, h2
    if frame == "phi frame":  # real H', perturbed by H' + diag(rate)
        rates = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
        v1, v2 = (x + r[:, :, None] * np.eye(4) for x, r in zip((h1, h2), rates))
    steps = engine.magnus4_dense_steps(h1, h2, h, rates)[0]
    return ((steps[:, :4], steps[:, 4:]),
            lambda lam: engine.magnus4_dense_steps(h1 + lam * v1, h2 + lam * v2, h)[0][:, :4])


@pytest.mark.parametrize("frame", ["sectors", "dense", "phi frame"])
def test_a_step_energy_integral_is_its_lambda_derivative(frame):
    (steps, gaps), perturbed = _random_steps(frame, np.random.default_rng(7))
    eps = 1e-5
    derivative = (perturbed(eps) - perturbed(-eps)) / (2.0 * eps)
    by_difference = 1j * steps.conj().swapaxes(-1, -2) @ derivative
    assert np.max(np.abs(by_difference - gaps)) < 1e-9


def _final_energies(dt, model, span=4.0):
    """The energy integral of each basis state over a run of the field
    model at step dt, read off the engine's maps."""
    n = int(round(span / dt))
    maps = engine.SampleMaps()
    engine.propagate_sampled(model, lambda times: (), n, span / n, np.eye(4, dtype=complex), 1,
                             maps)
    return engine.energy_integrals(maps, np.eye(4, dtype=complex), maps.stride)[-1]


@pytest.mark.parametrize("model", [
    engine.SectorField(_wobbling_field, sequences.ROWS_2Q, 4), _coupled_wobbling_field,
], ids=["sectors", "dense"])
def test_the_dynamic_phase_error_falls_as_h4(model):
    # measured ratios 16.0 (sectors) and 16.0 (dense)
    exact = _final_energies(0.04 / 32, model)
    errs = [np.max(np.abs(_final_energies(dt, model) - exact)) for dt in (0.04, 0.02)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0, errs


def test_shared_segments_give_the_gate_of_fresh_ones():
    # each use folded afresh from its own start, with its dynamic phase read
    # off the energy integrals of its own fresh maps; measured: 2.5e-15
    # (gate), 2.3e-13 (total phases) and 6.3e-13 (dynamic phases, the net of
    # segment terms of up to 517 rad).  The dynamic bound sits near the
    # rounding floor: the gate at (1.5, 1.7) with `_CHUNK_STEPS` 2048 reads
    # 1.08e-12, so a change of rounding on the sector path can cross it
    p = two_spin_params(2.0, 1.2)
    ramp, sweep, _ = sequences.default_times_2q(p)
    plan = sequences._conditional_plan(p, ramp, sweep, 0.0)
    res, planned, interval = _planned(p)
    model = sequences._model_2q(p, False)
    gate, total, _, states = plan_afresh(plan, engine.propagate_sampled, model, planned,
                                         interval)
    dynamic = np.zeros(4)
    segments = [item for kind, item in plan if kind == "seg"]
    for seg, n, start in zip(segments, use_steps(plan, planned, interval),
                             (use[0] for use in states)):
        maps = engine.SampleMaps()
        engine.propagate_sampled(model, seg.controls_at, n, seg.duration / n, start, 1, maps)
        dynamic -= engine.energy_integrals(maps, start, maps.stride)[-1]
    _assert_afresh_agrees(res, (gate, total, dynamic, states), 1e-12)


# Each segment use is sampled at the coarsest stride whose ledger jumps pass,
# from one sample per unit of its floor intervals (`sequences._floor_intervals`);
# its states are read, if at all, at the stride within the Nyquist cap of its
# fastest step frequency.


def _samples(plan, planned, interval):
    """The samples that the ledger kept, over all segment uses."""
    return sum(n // planned.block // book.stride + 1
               for n, book in zip(use_steps(plan, planned, interval), planned.books))


def test_the_default_spot_gate_samples_each_use_coarsely():
    # the ramps are 2048 floor intervals in units of 64, the sweeps 3200 in
    # units of 128, and each use accepts its first stride: 368 samples, and
    # the ledger's margins there
    p = two_spin_params(2.0, 1.2)
    _, planned, interval = _planned(p)
    plan = sequences._conditional_plan(p, *sequences.default_times_2q(p)[:2], 0.0)
    assert _strides(planned) == [64, 128, 64] * 4
    assert _samples(plan, planned, interval) == 368
    ledger = planned.ledger
    assert ledger.max_jump < math.pi / 16
    assert ledger.min_magnitude >= 0.9
    assert ledger.rebases == 0


def test_drive_on_b_is_sampled_at_the_floor():
    # spin b turns at |omega - omega_b| = 18 rad/s in the phi frame, 2.5 rad
    # per floor interval: over the cap at any stride above 1, so the states
    # are read at the floor; the ledger, whose reference is the exact dynamic
    # phase, takes one sample per unit of 64 floor intervals
    p = two_spin_params(2.0, 1.2)
    _, planned, interval = _planned(p, drive_on_b=True)
    plan = sequences._conditional_plan(p, *sequences.default_times_2q(p)[:2], 0.0)
    assert _strides(planned) == [64] * 12
    for n, book in zip(use_steps(plan, planned, interval), planned.books):
        assert len(book.times) - 1 == n // planned.block


def test_a_near_equator_cone_refines_every_segment():
    # near the equator the reference component wobbles at the Rabi
    # frequency, well off the adiabatic branch: from units of 16 floor
    # intervals the ramps refine to 2 and the sweep to the floor, and each
    # book reads its states at that stride, finer than the read stride of 4
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(1.45), 0.0)
    ramp, sweep, dt = sequences.default_times_1q(p)
    plan = sequences._schedule_plan(sequences.build_cone_loop(p, ramp, sweep))
    spacing = sequences._sample_spacing(sequences._rabi_1q(p), dt)
    planned = sequences._run_plan(plan, sequences._model_1q(p.omega0),
                                  sequences._aligned_start(p), dt, spacing)
    assert _strides(planned) == [2, 1, 2]
    for n, book in zip(use_steps(plan, planned, max(spacing, dt)), planned.books):
        assert len(book.times) - 1 == n // planned.block // book.stride
    # so the holonomy keeps to the decomposition: measured 8.4e-3, and 1.33
    # rad with the states read at the read stride
    r = sequences.run_cone_loop(p)
    assert circle_distance(r.geometric_holonomy, r.decomposition.geometric) < 0.02


@pytest.mark.parametrize("detuning, amplitude", [(2.0, 1.2), (1.5, 1.7), (2.7, 0.9)])
def test_the_sampled_gate_is_the_floor_sampled_gate(detuning, amplitude):
    # with no jump accepted every segment use is sampled at the floor
    # spacing; the steps are the same, and the dynamic phases are read off
    # the energy integral of the same map to the last sample, whatever the
    # stride (measured: 0 for the gate, the total and the dynamic phases at
    # all three spots)
    p = two_spin_params(detuning, amplitude)
    sampled = sequences.run_conditional_sequence(p)
    with mock.patch.object(sequences, "MAX_SAMPLE_JUMP", 0.0):
        floor = sequences.run_conditional_sequence(p)
    assert np.max(np.abs(sampled.gate - floor.gate)) < 1e-10
    assert np.max(np.abs(sampled.total_phases - floor.total_phases)) < 1e-10
    assert np.max(np.abs(sampled.dynamic_phases - floor.dynamic_phases)) < 1e-8


@pytest.mark.parametrize("detuning, amplitude", [(2.0, 1.2), (1.5, 1.7), (2.7, 0.9)])
def test_the_sampled_drive_on_b_gate_is_the_floor_sampled_gate(detuning, amplitude):
    # spin b turns by about 160 rad between two samples of the coarse
    # ledger, so a remainder that moved by nearly 2 pi between them would
    # pass its jump test unseen: the floor-sampled run, which sees every
    # turn, holds the coarse one to the same totals (measured: 0 for the
    # gate, the total and the dynamic phases at all three spots)
    p = two_spin_params(detuning, amplitude)
    sampled = sequences.run_conditional_sequence(p, drive_on_b=True)
    with mock.patch.object(sequences, "MAX_SAMPLE_JUMP", 0.0):
        floor = sequences.run_conditional_sequence(p, drive_on_b=True)
    assert np.max(np.abs(sampled.gate - floor.gate)) < 1e-10
    assert np.max(np.abs(sampled.total_phases - floor.total_phases)) < 1e-10
    assert np.max(np.abs(sampled.dynamic_phases - floor.dynamic_phases)) < 1e-8


def test_a_later_use_refines_the_shared_maps_further():
    # the echo's two loops share their ramp-up: near the equator its first
    # use accepts stride 2, and its second, on the flipped columns, refines
    # to 1 from the shared maps; the two ramp-downs take the ramp-up's maps
    # reversed, so the 6 segment uses take the steps of 3
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(1.45), 0.0)
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
    assert _strides(planned) == [2, 1, 2, 1, 1, 1]
    # no use keeps states: the later use's book samples the shared maps at
    # its own accepted stride, finer than their read stride, from its own
    # start, when first read
    ramp_maps = propagate.call_args_list[0].args[6]
    start = plan[3][1] @ planned.books[2].states[-1]
    assert ramp_maps.read_stride > 1
    assert np.array_equal(planned.books[3].states,
                          engine.samples_at(ramp_maps, start, 1)[1])
    with mock.patch.object(sequences, "MAX_SAMPLE_JUMP", 0.0):
        floor = sequences._run_plan(plan, model, np.eye(2, dtype=complex), dt, spacing)
    assert _strides(floor) == [1] * 6
    # measured: 0 (final state, total and dynamic phases)
    assert np.max(np.abs(planned.final - floor.final)) < 1e-12
    assert np.max(np.abs(planned.ledger.total - floor.ledger.total)) < 1e-10
    assert np.max(np.abs(planned.dynamic - floor.dynamic)) < 1e-8


@pytest.mark.parametrize("run", [sequences.measure_cone_phase, sequences.run_spin_echo_1q],
                         ids=["cone", "echo"])
def test_book_times_are_the_start_time_plus_the_local_grid(run):
    # each segment runs in local time from 0, and its samples enter the
    # books at its start time t0, the sum of the durations before it, on
    # the grid its states are read at, bit for bit, whatever stride its
    # ledger accepted
    _, plans = _plan_runs(run, RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0))
    strides = [stride for _, planned, _ in plans for stride in _strides(planned)]
    assert min(strides) < max(strides)
    for plan, planned, interval in plans:
        segments = [item for kind, item in plan if kind == "seg"]
        assert len(planned.books) == len(segments)
        t0 = 0.0
        for seg, steps, book in zip(segments, use_steps(plan, planned, interval), planned.books):
            n, dt_seg = len(book.times), seg.duration / steps
            read = steps // planned.block // (n - 1)
            assert np.array_equal(book.times, t0 + np.arange(n) * (read * planned.block) * dt_seg)
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
            states[order, stride] = engine.samples_at(maps, start, stride)[1]
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


def _folded_ramp(model, controls, seg, dim, phase=None):
    maps = engine.SampleMaps(phase=phase)
    engine.propagate_sampled(model, controls, 1024, seg.duration / 1024,
                             np.eye(dim, dtype=complex), 4, maps)
    return maps


def _energy_parts(maps, stride, planar, dim):
    """The real and imaginary parts of the energy integrals G carried with
    the maps at stride: the slots (g_x + i g_y, g_z) per sector, else G
    below the unitary."""
    at = maps.at(stride)
    g = at[..., 2:4] if planar else at[:, dim:]
    return np.stack([g.real, g.imag])


@settings(max_examples=30, deadline=None)
@given(frame=st.sampled_from(sorted(REVERSAL_FRAMES)), **RAMP_PAIRS)
def test_a_ramp_down_is_its_ramp_up_reversed(frame, amplitude, detuning, phase, turns,
                                             orientation):
    drive = RabiParams(100.0, amplitude, 100.0 - detuning, phase + 2.0 * math.pi * turns)
    up, _, down = build_cone_loop(drive, 5.0, 10.0, orientation).segments
    p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, drive)
    model, controls, planar, dim, bound = REVERSAL_FRAMES[frame](p)
    assert sequences._mirrors(up, down, planar)
    reversed_run = _folded_ramp(model, controls(up), up, dim,
                                up.phi[0] if planar else None).reversed
    folded = _folded_ramp(model, controls(down), down, dim)
    assert reversed_run.stride == folded.stride
    for stride in (folded.stride, 1):
        rev, fold = reversed_run.at(stride), folded.at(stride)
        unitaries = (slice(None), Ellipsis, slice(2)) if planar else (slice(None), slice(dim))
        assert np.max(np.abs(rev[unitaries] - fold[unitaries])) < bound
        # with the energy integrals carried with them, to the rounding of
        # integrals of up to 52 rad
        integrals = _energy_parts(folded, stride, planar, dim)
        assert (np.max(np.abs(_energy_parts(reversed_run, stride, planar, dim) - integrals))
                <= 1e-12 * np.abs(integrals).max())


# A phase sweep at a fixed amplitude runs symmetrically about its midpoint
# phase: its second half is its first half played backwards under the
# mirror of the ramps, so its fold takes the first half's steps only
# (`engine.SampleMaps(symmetric=True)`).  Over 300 draws of this box, with an
# even and an odd number of blocks, the worst gaps to the full fold measured
# 3.6e-15 (one spin), 1.6e-15 (two sectors) and 1.4e-14 (phi frame).


@settings(max_examples=30, deadline=None)
@given(frame=st.sampled_from(sorted(REVERSAL_FRAMES)), blocks=st.sampled_from([256, 255]),
       **RAMP_PAIRS)
def test_a_symmetric_sweep_folds_its_first_half_only(frame, blocks, amplitude, detuning, phase,
                                                      turns, orientation):
    drive = RabiParams(100.0, amplitude, 100.0 - detuning, phase + 2.0 * math.pi * turns)
    sweep = build_cone_loop(drive, 5.0, 10.0, orientation).segments[1]
    p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, drive)
    model, controls, planar, dim, bound = REVERSAL_FRAMES[frame](p)
    n, times = 4 * blocks, []

    def spy(tau):
        times.append(np.max(tau))
        return controls(sweep)(tau)

    runs = [engine.SampleMaps(), engine.SampleMaps(None, True, 0.5 * sum(sweep.phi))]
    for maps, at in zip(runs, (controls(sweep), spy)):
        engine.propagate_sampled(model, at, n, sweep.duration / n,
                                 np.eye(dim, dtype=complex), 4, maps)
    # the first half's steps, and the middle block's if the count is odd
    assert max(times) < sweep.duration * math.ceil(blocks / 2) / blocks
    folded, mirrored = runs
    assert (mirrored.stride, mirrored.read_stride) == (folded.stride, folded.read_stride)
    for stride in (folded.stride, 1):
        unitaries = (slice(None), Ellipsis, slice(2)) if planar else (slice(None), slice(dim))
        gap = mirrored.at(stride)[unitaries] - folded.at(stride)[unitaries]
        assert np.max(np.abs(gap)) < bound
        integrals = _energy_parts(folded, stride, planar, dim)
        assert (np.max(np.abs(_energy_parts(mirrored, stride, planar, dim) - integrals))
                <= 1e-12 * np.abs(integrals).max())


# Both reversals take one mirror, Theta X^-1 Theta^-1 with the energy
# integral turned by X (`engine.SampleMaps._mirror`).  As a time reversal it
# is an involution, and it reverses the order of the carried products.


def _random_maps(frame, rng, n=64):
    """n random maps with their energy integrals: per two sectors, unit
    Cayley-Klein pairs with real-vector g; else 4 x 4 unitaries above
    Hermitian G."""
    if frame == "sectors":
        maps = rng.normal(size=(n, 2, 4)) + 1j * rng.normal(size=(n, 2, 4))
        maps[..., :2] /= np.linalg.norm(maps[..., :2], axis=-1, keepdims=True)
        maps[..., 3] = maps[..., 3].real
        return maps
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return np.concatenate([np.linalg.qr(z)[0], g + g.conj().swapaxes(-1, -2)], axis=1)


@settings(max_examples=20, deadline=None)
@given(frame=st.sampled_from(["sectors", "dense"]), phase=st.floats(-7.0, 7.0),
       seed=st.integers(0, 2**32 - 1))
def test_the_mirror_is_an_involution_that_reverses_products(frame, phase, seed):
    rng = np.random.default_rng(seed)
    maps = engine.SampleMaps(phase=phase if frame == "sectors" else None)
    maps.sectors = frame == "sectors"
    mul = engine._su2_carry if maps.sectors else engine._dense_carry
    a, b = _random_maps(frame, rng), _random_maps(frame, rng)
    one = maps._one(a)

    def mirror(x):
        return maps._mirror(x, one)

    assert np.max(np.abs(mirror(mirror(a)) - a)) < 1e-13
    assert np.max(np.abs(mirror(mul(a, b)) - mul(mirror(b), mirror(a)))) < 1e-13
    # the mirror of last earlier^dagger, with G_last - G_earlier: earlier
    # cancels from the product a b
    assert np.max(np.abs(maps._mirror(mul(a, b), b) - mirror(a))) < 1e-13


def test_only_a_sweep_at_a_fixed_amplitude_and_frequency_folds_symmetrically():
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    up, sweep, down = build_cone_loop(p, 5.0, 10.0).segments
    first = partial(sequences._first_maps, {}, planar=True, unit=16)
    assert first(sweep).symmetric
    for other in (up, down, replace(sweep, omega1=(1.0, 0.9)), replace(sweep, omega=(4.0, 4.1))):
        assert not first(other).symmetric


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
        assert not sequences._first_maps({up: folded_up}, other, True, 16).filled
    assert sequences._mirrors(up, half_turn, False)


def test_a_reversed_run_is_made_once_and_holds_its_source_without_a_cycle():
    # every ramp-down that mirrors the ramp-up shares one reversed run; the
    # ramp-up holds it weakly, so both go as soon as the last user drops it
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    up = build_cone_loop(p, 5.0, 10.0).segments[0]
    folded_up = _folded_ramp(sequences._model_1q(5.0), up.controls_at, up, 2, up.phi[0])
    reversed_run, source = folded_up.reversed, weakref.ref(folded_up)
    assert folded_up.reversed is reversed_run
    del folded_up
    gc.disable()
    try:
        assert source() is not None
        del reversed_run
        assert source() is None
    finally:
        gc.enable()
