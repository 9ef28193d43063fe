import math

import numpy as np
import pytest
from oracles import dynamic_phase, rotating_hamiltonian_1q, spinor_of_direction

from berrygate.bloch import RabiParams
from berrygate.linalg import pauli
from berrygate.phase import (
    DegenerateSpectrumError,
    LoopSpec,
    PhaseDecomposition,
    berry_cone_phase,
    circle_distance,
    cone_state_path,
    cos_theta_resonance,
    eigenstate_path,
    geometric_phase_discrete,
    solid_angle_spherical_polygon,
    wrap_to_pi,
)
from berrygate.schrodinger import integrate_schrodinger


def slerp(a, b, n):
    ang = math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    ts = np.linspace(0.0, 1.0, n, endpoint=False)
    return np.array(
        [(math.sin((1 - t) * ang) * a + math.sin(t * ang) * b) / math.sin(ang) for t in ts]
    )


def spinors_of_points(pts):
    th = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    al = np.arctan2(pts[:, 1], pts[:, 0])
    return np.stack([np.cos(th / 2), np.sin(th / 2) * np.exp(1j * al)], axis=1)


def test_decomposition_closure_field():
    d = PhaseDecomposition.from_total_and_dynamic(1.5, 0.4)
    assert d.geometric == pytest.approx(1.1)
    assert d.total == pytest.approx(d.dynamic + d.geometric)


def test_loop_spec_validation():
    with pytest.raises(ValueError):
        LoopSpec(-0.1, 100)
    with pytest.raises(ValueError):
        LoopSpec(1.0, 4)
    with pytest.raises(ValueError):
        LoopSpec(1.0, 100, "sideways")


def test_dynamic_phase_zero_hamiltonian():
    times = np.linspace(0.0, 1.0, 200)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (200, 1))
    assert dynamic_phase(times, states, lambda t: np.zeros((2, 2), complex)) == 0.0


def test_dynamic_phase_static_eigenstate():
    energy, duration = 0.8, 3.0
    h = np.diag([energy, -energy]).astype(complex)
    times = np.linspace(0.0, duration, 400)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (400, 1))
    got = dynamic_phase(times, states, lambda t: h)
    assert abs(got - (-energy * duration)) < 1e-12


def test_dynamic_phase_needs_samples():
    with pytest.raises(ValueError):
        dynamic_phase(np.array([0.0]), np.array([[1.0, 0.0]]), lambda t: np.eye(2))


def test_dynamic_phase_second_order_convergence():
    # time-varying diagonal energy, analytic integral known
    h_of_t = lambda t: np.diag([math.sin(t), -math.sin(t)]).astype(complex)
    exact = -(1.0 - math.cos(2.0))
    errs = []
    for n in (200, 400):
        times = np.linspace(0.0, 2.0, n)
        states = np.tile(np.array([1.0, 0.0], dtype=complex), (n, 1))
        errs.append(abs(dynamic_phase(times, states, h_of_t) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_holonomy_constant_path_is_zero():
    states = np.tile(spinor_of_direction(0.7, 0.3), (50, 1))
    assert geometric_phase_discrete(states) == 0.0


@pytest.mark.parametrize("theta", [0.4, math.pi / 3, math.pi / 2, 2.2])
def test_holonomy_cone_path(theta):
    got = geometric_phase_discrete(cone_state_path(LoopSpec(theta, 2000)))
    assert abs(got - berry_cone_phase(theta)) < 1e-4


def test_holonomy_reversed_cone_negates():
    spec_f = LoopSpec(1.0, 1500, "forward")
    spec_r = LoopSpec(1.0, 1500, "reversed")
    gf = geometric_phase_discrete(cone_state_path(spec_f))
    gr = geometric_phase_discrete(cone_state_path(spec_r))
    assert abs(gf + gr) < 1e-12


def test_holonomy_gauge_invariance_mod_2pi():
    rng = np.random.default_rng(12)
    states = cone_state_path(LoopSpec(1.3, 700))
    g0 = geometric_phase_discrete(states)
    for _ in range(10):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(states)))
        g1 = geometric_phase_discrete(states * phases[:, None])
        assert circle_distance(g0, g1) < 1e-12


def test_holonomy_second_order_convergence():
    theta = 1.1
    exact = berry_cone_phase(theta)
    e_n = abs(geometric_phase_discrete(cone_state_path(LoopSpec(theta, 400))) - exact)
    e_2n = abs(geometric_phase_discrete(cone_state_path(LoopSpec(theta, 800))) - exact)
    assert e_n / e_2n == pytest.approx(4.0, rel=0.2)


def test_holonomy_rejects_coarse_paths():
    # 8 points on a great circle: consecutive overlaps cos(pi/8) are fine,
    # but near-antipodal consecutive states are not
    a = spinor_of_direction(math.pi / 2, 0.0)
    b = spinor_of_direction(math.pi / 2, math.pi * 0.999)
    with pytest.raises(ValueError):
        geometric_phase_discrete(np.stack([a, b]))
    with pytest.raises(ValueError):
        geometric_phase_discrete(np.array([[1.0, 0.0]]))


def test_closure_total_equals_dynamic_plus_geometric():
    # precession about a static tilted field closes in ray space after one period
    p = RabiParams(omega0=1.2, omega1=0.9, omega=0.0, phi=0.3)
    h = rotating_hamiltonian_1q(p)
    period = 2.0 * math.pi / math.hypot(1.2, 0.9)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate_schrodinger(psi0, lambda t: h, (0.0, period), period / 6000)
    total = np.angle(np.vdot(psi0, traj.final_psi))
    dyn = dynamic_phase(traj.t, traj.psi, lambda t: h)
    geo = geometric_phase_discrete(traj.psi)
    assert circle_distance(total, dyn + geo) < 1e-4
    # and the geometric part is half the precession-cone solid angle
    ctheta = 1.2 / math.hypot(1.2, 0.9)
    assert circle_distance(geo, -math.pi * (1.0 - ctheta)) < 1e-4


def test_berry_cone_phase_values():
    assert berry_cone_phase(0.0) == 0.0
    assert berry_cone_phase(math.pi / 2) == pytest.approx(-math.pi)
    assert berry_cone_phase(math.pi) == pytest.approx(-2.0 * math.pi)
    assert wrap_to_pi(berry_cone_phase(math.pi)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        berry_cone_phase(-0.2)
    with pytest.raises(ValueError):
        berry_cone_phase(3.5)


def test_cos_theta_resonance_values():
    assert cos_theta_resonance(2.0, 2.0, 0.7) == 0.0
    assert cos_theta_resonance(2.0, 1.0, 0.0) == 1.0
    assert cos_theta_resonance(1.0, 2.0, 0.0) == -1.0
    assert cos_theta_resonance(3.0, 2.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        cos_theta_resonance(2.0, 2.0, 0.0)


def test_solid_angle_octant():
    tri = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert solid_angle_spherical_polygon(tri) == pytest.approx(math.pi / 2)
    assert solid_angle_spherical_polygon(tri[::-1]) == pytest.approx(-math.pi / 2)


def test_solid_angle_cap():
    theta = 0.8
    n = 6000
    alphas = 2.0 * math.pi * np.arange(n) / n
    circle = np.stack(
        [
            math.sin(theta) * np.cos(alphas),
            math.sin(theta) * np.sin(alphas),
            math.cos(theta) * np.ones(n),
        ],
        axis=1,
    )
    got = solid_angle_spherical_polygon(circle)
    assert abs(got - 2.0 * math.pi * (1.0 - math.cos(theta))) < 1e-6


def test_solid_angle_validation():
    with pytest.raises(ValueError):
        solid_angle_spherical_polygon(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    with pytest.raises(ValueError):
        solid_angle_spherical_polygon(np.array([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
    with pytest.raises(ValueError):
        solid_angle_spherical_polygon(
            np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 1.0]])
        )
    with pytest.raises(ValueError):
        solid_angle_spherical_polygon(
            np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]])
        )


def test_solid_angle_law_random_triangles():
    rng = np.random.default_rng(77)
    done = 0
    while done < 8:
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        if any(np.dot(v[i], v[(i + 1) % 3]) < -0.8 for i in range(3)):
            continue
        done += 1
        pts = np.concatenate([slerp(v[i], v[(i + 1) % 3], 800) for i in range(3)])
        g = geometric_phase_discrete(spinors_of_points(pts))
        omega = solid_angle_spherical_polygon(v)
        assert circle_distance(g, -0.5 * omega) < 1e-3


def test_eigenstate_path_cone_holonomy():
    theta = 1.0
    omega1 = 1.0
    dz = omega1 / math.tan(theta)
    hams = [
        rotating_hamiltonian_1q(RabiParams(5.0, omega1, 5.0 - dz, alpha))
        for alpha in 2.0 * math.pi * np.arange(2500) / 2500
    ]
    states = eigenstate_path(hams, branch=1)  # branch aligned with the field
    got = geometric_phase_discrete(states)
    assert abs(got - berry_cone_phase(theta)) < 1e-4


def test_eigenstate_path_alignment_is_continuous():
    hams = [
        rotating_hamiltonian_1q(RabiParams(5.0, 1.0, 4.0, alpha))
        for alpha in np.linspace(0.0, 1.0, 50)
    ]
    states = eigenstate_path(hams, branch=0)
    overlaps = np.einsum("ij,ij->i", states[:-1].conj(), states[1:])
    assert np.all(overlaps.real > 0.99)
    assert np.max(np.abs(overlaps.imag)) < 1e-2


def test_eigenstate_path_degeneracy_aborts():
    with pytest.raises(DegenerateSpectrumError):
        eigenstate_path([np.zeros((2, 2), dtype=complex)] * 3, branch=0)
    with pytest.raises(DegenerateSpectrumError):
        eigenstate_path([pauli("z"), np.zeros((2, 2), complex)], branch=0)


def test_eigenstate_path_branch_bounds():
    with pytest.raises(ValueError):
        eigenstate_path([pauli("z")], branch=2)


def test_eigenstate_path_refuses_a_jump_between_eigenvectors():
    # the lowest eigenvector turns from |1> to |0> in one step
    with pytest.raises(ValueError, match=r"continuity lost at step 1 \(\|overlap\| = 0\)"):
        eigenstate_path([pauli("z"), -pauli("z")], branch=0)


def test_wrap_and_circle_distance():
    assert wrap_to_pi(math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(-math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(0.3 - 6.0 * math.pi) == pytest.approx(0.3)
    assert circle_distance(0.1, 0.1 + 8.0 * math.pi) < 1e-12
    assert circle_distance(-3.0, 3.0) == pytest.approx(2.0 * math.pi - 6.0)
