import math

import numpy as np
import pytest
from oracles import bloch_derivative, lab_rabi_vector, rk4_bloch

from berrygate.bloch import (
    M_Z,
    RabiParams,
    from_rotating_frame,
    integrate_bloch,
    rotating_rabi_vector,
    rotation_z,
)
from berrygate.linalg import RK4_CHUNK
from berrygate.phase import cos_theta_resonance


def test_derivative_parallel_is_stationary():
    om = np.array([0.3, -0.2, 1.1])
    assert np.allclose(bloch_derivative(2.0 * om, om), 0.0)


def test_derivative_precession_direction():
    # s = x_hat in a field along z precesses toward y_hat
    out = bloch_derivative(np.array([1.0, 0, 0]), np.array([0, 0, 2.5]))
    assert np.allclose(out, [0.0, 2.5, 0.0])


def test_derivative_magnitude():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s, om = rng.normal(size=3), rng.normal(size=3)
        cosang = np.dot(s, om) / (np.linalg.norm(s) * np.linalg.norm(om))
        expected = np.linalg.norm(om) * np.linalg.norm(s) * math.sqrt(1 - cosang**2)
        assert abs(np.linalg.norm(bloch_derivative(s, om)) - expected) < 1e-10


def test_lab_rabi_vector():
    p = RabiParams(omega0=2.0, omega1=0.7, omega=1.5, phi=0.0)
    assert np.allclose(lab_rabi_vector(p, 0.0), [0.7, 0.0, 2.0])
    p0 = RabiParams(omega0=2.0, omega1=0.0, omega=1.5, phi=0.3)
    for t in (0.0, 1.3, 7.7):
        assert np.allclose(lab_rabi_vector(p0, t), [0.0, 0.0, 2.0])
    # transverse amplitude is omega1 at all times
    for t in np.linspace(0.0, 5.0, 7):
        v = lab_rabi_vector(p, t)
        assert abs(math.hypot(v[0], v[1]) - p.omega1) < 1e-12


def test_rotating_rabi_vector():
    on_res = RabiParams(omega0=2.0, omega1=0.7, omega=2.0, phi=0.0)
    assert np.allclose(rotating_rabi_vector(on_res), [0.7, 0.0, 0.0])
    bare = RabiParams(omega0=2.0, omega1=0.0, omega=1.2, phi=0.0)
    assert np.allclose(rotating_rabi_vector(bare), [0.0, 0.0, 0.8])
    p = RabiParams(omega0=3.0, omega1=1.1, omega=2.2, phi=0.9)
    v = rotating_rabi_vector(p)
    assert abs(v[2] / np.linalg.norm(v) - cos_theta_resonance(3.0, 2.2, 1.1)) < 1e-14


def test_rabi_params_validation():
    with pytest.raises(ValueError):
        RabiParams(1.0, -0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        RabiParams(float("nan"), 0.1, 1.0, 0.0)


def test_frame_transform_basics():
    s = np.array([0.3, -0.5, 0.8])
    # from_rotating_frame at -t maps the lab frame into the rotating one
    assert np.allclose(from_rotating_frame(s, 2.0, 0.0), s)
    zhat = np.array([0.0, 0.0, 1.0])
    assert np.allclose(from_rotating_frame(zhat, 1.7, -3.9), zhat)
    back = from_rotating_frame(from_rotating_frame(s, 1.7, -3.9), 1.7, 3.9)
    assert np.allclose(back, s, atol=1e-14)
    assert abs(np.linalg.norm(from_rotating_frame(s, 1.7, -3.9)) - np.linalg.norm(s)) < 1e-14


def test_mz_generates_cross_product():
    from scipy.linalg import expm

    rng = np.random.default_rng(8)
    zhat = np.array([0.0, 0.0, 1.0])
    for _ in range(10):
        s = rng.normal(size=3)
        assert np.array_equal(M_Z @ s, np.cross(zhat, s))
    assert np.allclose(rotation_z(0.4), expm(0.4 * M_Z), atol=1e-14)


def test_integrate_rejects_bad_args():
    p = RabiParams(1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_bloch(np.array([0, 0, 1.0]), p, (0.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        integrate_bloch(np.array([0, 0, 1.0]), p, (1.0, 0.5), 0.01)
    with pytest.raises(ValueError):
        integrate_bloch(np.array([0, 0, 1.0]), p, (0.0, 1.0), 0.01, frame="weird")
    z = np.array([0.0, 0.0, 1.0])
    for s0 in (np.array([np.nan, 0.0, 1.0]), np.array([0.0, np.inf, 1.0]), z[None], z[:2]):
        with pytest.raises(ValueError, match="finite 3-vector"):
            integrate_bloch(s0, p, (0.0, 1.0), 0.01)
    for t_span, dt in (((0.0, np.inf), 0.01), ((-np.inf, 1.0), 0.01), ((0.0, np.nan), 0.01),
                       ((0.0, 1.0), np.nan), ((0.0, 1.0), np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            integrate_bloch(z, p, t_span, dt)


def test_static_parallel_trajectory_constant():
    p = RabiParams(omega0=1.5, omega1=0.0, omega=0.0, phi=0.0)
    traj = integrate_bloch(np.array([0.0, 0.0, 1.0]), p, (0.0, 5.0), 0.001)
    assert np.max(np.abs(traj.s - np.array([0.0, 0.0, 1.0]))) < 1e-12


def test_static_precession_analytic():
    omega0 = 1.5
    p = RabiParams(omega0=omega0, omega1=0.0, omega=0.0, phi=0.0)
    traj = integrate_bloch(np.array([1.0, 0.0, 0.0]), p, (0.0, 8.0), 0.002)
    expected = np.stack(
        [np.cos(omega0 * traj.t), np.sin(omega0 * traj.t), np.zeros_like(traj.t)], axis=1
    )
    assert np.max(np.abs(traj.s - expected)) < 1e-8


def test_norm_conservation_along_trajectories():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = RabiParams(rng.uniform(1, 3), rng.uniform(0, 1.5), rng.uniform(1, 3), rng.uniform(0, 6))
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        traj = integrate_bloch(s0, p, (0.0, 10.0), 0.002)
        assert np.max(np.abs(np.linalg.norm(traj.s, axis=1) - 1.0)) < 1e-6


def test_norm_drift_rate_bound():
    # drift under 1e-8 per unit |Omega| t at dt |Omega| = 0.01
    omega0 = 2.0
    p = RabiParams(omega0, 0.0, 0.0, 0.0)
    t_end = 50.0
    traj = integrate_bloch(np.array([1.0, 0, 0]), p, (0.0, t_end), 0.01 / omega0)
    drift = abs(np.linalg.norm(traj.s[-1]) - 1.0)
    assert drift / (omega0 * t_end) < 1e-8


def test_precession_rate_matches_field_magnitude():
    om = np.array([0.4, -0.3, 1.2])
    mag = np.linalg.norm(om)
    p = RabiParams(omega0=mag, omega1=0.0, omega=0.0, phi=0.0)
    traj = integrate_bloch(np.array([1.0, 0.0, 0.0]), p, (0.0, 4.0), 0.001)
    swept = np.unwrap(np.arctan2(traj.s[:, 1], traj.s[:, 0]))
    assert np.max(np.abs(swept - mag * traj.t)) < 1e-6


def test_lab_vs_rotating_frame_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = RabiParams(rng.uniform(1, 3), rng.uniform(0.2, 1.5), rng.uniform(1, 3), rng.uniform(0, 6))
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        lab = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="lab")
        rot = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="rotating")
        for k in range(0, len(lab.t), 250):
            back = from_rotating_frame(rot.s[k], p.omega, rot.t[k])
            assert np.max(np.abs(back - lab.s[k])) < 1e-6


def _oracle_cases():
    """Four seeded short runs, then one longer than 2.5 fold chunks."""
    rng = np.random.default_rng(41)
    for _ in range(4):
        p = RabiParams(
            rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-3, 3), rng.uniform(-6, 6)
        )
        s0 = rng.normal(size=3)
        t_span = (rng.uniform(-1.0, 0.0), rng.uniform(1.0, 2.0))
        dt = rng.uniform(1e-3, 2e-2)
        yield p, s0, t_span, dt
    n_long = RK4_CHUNK * 5 // 2 + 100
    yield RabiParams(2.0, 0.9, 1.7, 0.3), rng.normal(size=3), (0.5, 0.5 + 0.002 * n_long), 0.002


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_integrate_bloch_matches_the_vector_rk4_oracle(frame):
    # The scan multiplies the one-step maps in another order than the
    # oracle's sequential steps, so the two agree to rounding, not bit for bit.
    for p, s0, t_span, dt in _oracle_cases():
        traj = integrate_bloch(s0, p, t_span, dt, frame=frame)
        ref = rk4_bloch(s0, p, t_span, dt, frame=frame)
        n = max(1, int(round((t_span[1] - t_span[0]) / dt)))
        h = (t_span[1] - t_span[0]) / n
        assert np.array_equal(traj.t, t_span[0] + h * np.arange(n + 1))
        assert traj.s.shape == ref.shape
        assert np.max(np.abs(traj.s - ref)) < 1e-12 * np.linalg.norm(s0)
    assert n > 2.5 * RK4_CHUNK


def _exact_bloch(s0, p, t, frame):
    """Exact trajectory from s0 at t = 0: in the rotating frame the Rodrigues
    rotation about the static Omega' by |Omega'| t, in the lab frame that
    vector taken back by `from_rotating_frame`."""
    w = rotating_rabi_vector(p)
    n, angle = w / np.linalg.norm(w), np.linalg.norm(w) * t[:, None]
    s = s0 * np.cos(angle) + np.cross(n, s0) * np.sin(angle)
    s += n * np.dot(n, s0) * (1.0 - np.cos(angle))
    if frame == "lab":
        s = np.array([from_rotating_frame(v, p.omega, tk) for v, tk in zip(s, t)])
    return s


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_integrate_bloch_converges_at_fourth_order(frame):
    p = RabiParams(2.0, 1.0, 1.5, 0.3)
    s0 = np.array([0.6, -0.48, 0.64])
    errors = []
    for dt in (0.04, 0.02):
        traj = integrate_bloch(s0, p, (0.0, 6.0), dt, frame=frame)
        errors.append(np.max(np.abs(traj.s - _exact_bloch(s0, p, traj.t, frame))))
    # both errors stand well above rounding, and halving dt divides them by 2^4
    assert min(errors) >= 1e-9
    assert 12.0 <= errors[0] / errors[1] <= 20.0
