import math

import numpy as np
import pytest

from berrygate.bloch import RabiParams
from berrygate.linalg import pauli, tensor
from berrygate.schedules import PulseSchedule, Segment, build_cone_loop, pi_pulse


def test_cone_loop_structure():
    p = RabiParams(5.0, 1.0, 4.2, 0.0)
    sched = build_cone_loop(p, ramp_time=2.0, sweep_time=10.0)
    kinds = [s.kind for s in sched.segments]
    assert kinds == ["ramp_up", "phase_sweep", "ramp_down"]
    assert sum(s.duration for s in sched.segments) == pytest.approx(14.0)
    # amplitude ramps 0 -> omega1 -> 0, phase sweeps one full turn
    ramp_up, sweep, ramp_down = sched.segments
    assert ramp_up.omega1 == (0.0, 1.0)
    assert ramp_down.omega1 == (1.0, 0.0)
    assert sweep.phi == (0.0, 2.0 * math.pi)


def test_cone_loop_reversed():
    p = RabiParams(5.0, 1.0, 4.2, 0.0)
    sched = build_cone_loop(p, 2.0, 10.0, "reversed")
    assert sched.segments[1].phi == (0.0, -2.0 * math.pi)


def test_cone_loop_zero_amplitude_is_idle():
    p = RabiParams(5.0, 0.0, 4.2, 0.0)
    sched = build_cone_loop(p, 2.0, 10.0)
    assert [s.kind for s in sched.segments] == ["idle"]
    assert sum(s.duration for s in sched.segments) == pytest.approx(14.0)


def test_cone_loop_rejects_bad_durations():
    p = RabiParams(5.0, 1.0, 4.2, 0.0)
    with pytest.raises(ValueError):
        build_cone_loop(p, 0.0, 10.0)
    with pytest.raises(ValueError):
        build_cone_loop(p, 1.0, -1.0)
    with pytest.raises(ValueError):
        build_cone_loop(p, 1.0, 1.0, "upside-down")


@pytest.mark.parametrize("ramp, sweep, message", [
    (math.nan, 10.0, "ramp_time must be finite"),
    (math.inf, 10.0, "ramp_time must be finite"),
    (1.0, math.nan, "sweep_time must be finite"),
    (1.0, -math.inf, "sweep_time must be finite"),
    (-1.0, 10.0, "ramp_time must be positive"),
])
def test_cone_loop_rejects_non_finite_times(ramp, sweep, message):
    with pytest.raises(ValueError, match=message):
        build_cone_loop(RabiParams(5.0, 1.0, 4.2, 0.0), ramp, sweep)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment("wobble", 1.0, (0, 1), (1, 1), (0, 0))
    with pytest.raises(ValueError):
        Segment("ramp_up", -1.0, (0, 1), (1, 1), (0, 0))
    with pytest.raises(ValueError, match="unknown segment kind"):
        Segment("pi_pulse_a", 0.5, (0, 0), (0, 0), (0, 0))


@pytest.mark.parametrize("duration, controls, message", [
    (math.nan, ((0, 1), (1, 1), (0, 0)), "segment duration must be finite"),
    (math.inf, ((0, 1), (1, 1), (0, 0)), "segment duration must be finite"),
    (1.0, ((0, math.nan), (1, 1), (0, 0)), "non-finite segment control"),
    (1.0, ((0, 1), (math.inf, 1), (0, 0)), "non-finite segment control"),
    (1.0, ((0, 1), (1, 1), (0, -math.inf)), "non-finite segment control"),
])
def test_segment_rejects_non_finite_input(duration, controls, message):
    with pytest.raises(ValueError, match=message):
        Segment("ramp_up", duration, *controls)


def test_ramp_shape_endpoints_and_midpoint():
    seg = Segment("ramp_up", 4.0, (0.0, 2.0), (1.0, 1.0), (0.3, 0.3))
    w1, om, ph = seg.controls_at(np.array([0.0, 2.0, 4.0]))
    assert np.allclose(w1, [0.0, 1.0, 2.0])
    assert np.allclose(om, 1.0)
    assert np.allclose(ph, 0.3)
    # raised cosine: zero slope at both ends
    eps = 1e-6
    w1_lo, _, _ = seg.controls_at(np.array([eps]))
    w1_hi, _, _ = seg.controls_at(np.array([4.0 - eps]))
    assert w1_lo[0] < 1e-9
    assert 2.0 - w1_hi[0] < 1e-9


def test_phase_sweep_shape():
    seg = Segment("phase_sweep", 10.0, (1.0, 1.0), (1.0, 1.0), (0.0, 2.0 * math.pi))
    taus = np.linspace(0.0, 10.0, 101)
    _, _, ph = seg.controls_at(taus)
    assert ph[0] == pytest.approx(0.0)
    assert ph[-1] == pytest.approx(2.0 * math.pi)
    assert np.all(np.diff(ph) >= -1e-12)  # monotone sweep
    # zero sweep rate at the endpoints
    eps = 1e-5
    _, _, ph_edge = seg.controls_at(np.array([eps, 10.0 - eps]))
    assert ph_edge[0] < 1e-8
    assert 2.0 * math.pi - ph_edge[1] < 1e-8


def test_schedule_rejects_control_discontinuity():
    a = Segment("ramp_up", 1.0, (0.0, 1.0), (1.0, 1.0), (0.0, 0.0))
    b = Segment("phase_sweep", 1.0, (0.5, 0.5), (1.0, 1.0), (0.0, 2.0 * math.pi))
    with pytest.raises(ValueError):
        PulseSchedule((a, b))


def test_pi_pulse_single():
    u = pi_pulse("single")
    assert np.array_equal(u, pauli("x"))
    up = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(u @ up, [0.0, 1.0])
    assert np.allclose(u @ u, np.eye(2))


def test_pi_pulse_two_spin_targets():
    up_down = np.zeros(4, dtype=complex)
    up_down[1] = 1.0
    down_down = np.zeros(4, dtype=complex)
    down_down[3] = 1.0
    assert np.allclose(pi_pulse("a") @ up_down, down_down)
    assert np.array_equal(pi_pulse("a"), tensor(pauli("x"), np.eye(2)))
    assert np.array_equal(pi_pulse("b"), tensor(np.eye(2), pauli("x")))
    assert np.allclose(pi_pulse("b") @ pi_pulse("b"), np.eye(4))
    with pytest.raises(ValueError):
        pi_pulse("c")
