"""The sector-split Magnus-4 propagator against the RK4 oracle.

The RK4 path runs whenever the Hamiltonian comes as a plain matrix
callable rather than as an `engine.SectorField`, so the oracle runs below
are the production sequences with the sector model swapped for the 4x4 (or
2x2) matrix stack of the same Hamiltonian.
"""

import math
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrygate import engine, sequences
from berrygate.bloch import RabiParams
from berrygate.schrodinger import TwoSpinParams

SHORT = dict(ramp_time=5.0, sweep_time=10.0, dt=0.002)


def two_spin_params(detuning, amplitude):
    return TwoSpinParams(
        100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, amplitude, 100.0 - detuning, 0.0)
    )


@contextmanager
def rk4_oracle():
    """Run the sequences on the RK4 path: the same Hamiltonians, handed to
    the engine as plain matrix stacks."""
    model_1q, model_2q = sequences._model_1q, sequences._model_2q
    with mock.patch.object(
        sequences, "_model_1q", lambda w0: model_1q(w0).__call__
    ), mock.patch.object(
        sequences, "_model_2q", lambda p, on_b: model_2q(p, on_b).__call__
    ):
        yield


def test_cone_loop_matches_rk4_oracle():
    p = RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(math.pi / 3), 0.0)
    su2 = sequences.run_cone_loop(p, **SHORT)
    with rk4_oracle():
        rk4 = sequences.run_cone_loop(p, **SHORT)
    assert np.max(np.abs(su2.states - rk4.states)) < 1e-9
    assert abs(su2.decomposition.total - rk4.decomposition.total) < 1e-9
    assert abs(su2.decomposition.dynamic - rk4.decomposition.dynamic) < 1e-9


def _assert_gates_agree(su2, rk4, tol):
    assert np.max(np.abs(su2.gate - rk4.gate)) < tol
    assert np.max(np.abs(su2.total_phases - rk4.total_phases)) < tol
    assert np.max(np.abs(su2.dynamic_phases - rk4.dynamic_phases)) < tol


def test_conditional_run_matches_rk4_oracle():
    p = two_spin_params(2.0, 1.2)
    su2 = sequences.run_conditional_sequence(p, **SHORT)
    with rk4_oracle():
        rk4 = sequences.run_conditional_sequence(p, **SHORT)
    _assert_gates_agree(su2, rk4, 1e-9)


def _plan_map(plan, model, dt):
    """The plan's propagator, without the phase ledger: at the short
    schedule some spots of the region leave the adiabatic branch far enough
    for the ledger to refuse them, and the gates still compare."""
    u, t0 = np.eye(4, dtype=complex), 0.0
    for kind, item in plan:
        if kind == "pulse":
            u = item @ u
            continue
        n = max(1, int(round(item.duration / dt)))
        controls = partial(sequences._segment_controls, item, t0)
        u = engine.propagate_sampled(model, t0, n, item.duration / n, u, controls, 1)[1][-1]
        t0 += item.duration
    return u


@settings(max_examples=12, deadline=None)
@given(
    detuning=st.floats(1.5, 3.0),
    amplitude=st.floats(0.7, 1.7),
)
def test_sector_split_gate_equals_full_4x4_gate(detuning, amplitude):
    p = two_spin_params(detuning, amplitude)
    sectors = sequences._model_2q(p, False)
    plan = sequences._conditional_plan(p, SHORT["ramp_time"], SHORT["sweep_time"], sectors, 0.0)
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


def _final_map(dt, span=4.0):
    h = engine.SectorField(_wobbling_field, sequences.ROWS_2Q, 4)
    n = int(round(span / dt))
    _, states = engine.propagate_sampled(
        h, 0.0, n, span / n, np.eye(4, dtype=complex), lambda times: (), 1
    )
    return states[-1]


def test_magnus_error_falls_as_h4():
    exact = _final_map(0.04 / 32)
    errs = [np.max(np.abs(_final_map(dt) - exact)) for dt in (0.04, 0.02)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0, errs


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

