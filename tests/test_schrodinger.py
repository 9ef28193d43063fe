import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hamiltonian_2q_full, rk4_schrodinger_by_stages, rotating_hamiltonian_1q

from berrygate.bloch import RabiParams, integrate_bloch
from berrygate.linalg import RK4_CHUNK, half_step_grid, real_form, rk4_step_maps, tensor
from berrygate.schrodinger import (
    StepSizeError,
    TwoSpinParams,
    bloch_of_state,
    drive_hamiltonian_2q,
    hamiltonian_1q,
    hamiltonian_2q,
    integrate_schrodinger,
    rk4_transition_matrices,
)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


def test_h1q_bare():
    p = RabiParams(omega0=2.0, omega1=0.0, omega=1.0, phi=0.0)
    assert np.allclose(hamiltonian_1q(p, 1.3), np.diag([1.0, -1.0]))


def test_h1q_traceless_hermitian():
    p = RabiParams(2.0, 1.5, 1.1, 0.4)
    for t in (0.0, 0.7, 3.2):
        h = hamiltonian_1q(p, t)
        assert abs(np.trace(h)) < 1e-15
        assert np.max(np.abs(h - h.conj().T)) < 1e-10


def test_h1q_eigenvalues():
    # omega0 = 2, omega1 = 1.5 gives eigenvalues +-(1/2) sqrt(4 + 2.25) = +-1.25
    p = RabiParams(omega0=2.0, omega1=1.5, omega=0.0, phi=0.0)
    evals = np.linalg.eigvalsh(hamiltonian_1q(p, 0.0))
    assert np.allclose(evals, [-1.25, 1.25], atol=1e-14)


def test_rotating_h1q_matches_rabi_vector():
    from berrygate.bloch import rotating_rabi_vector
    from berrygate.linalg import pauli_dot

    p = RabiParams(3.0, 1.2, 2.4, 0.7)
    assert np.allclose(
        rotating_hamiltonian_1q(p), 0.5 * pauli_dot(rotating_rabi_vector(p)), atol=1e-15
    )


def test_h2q_decoupled_form():
    p = TwoSpinParams(3.0, 1.0, 0.0, RabiParams(3.0, 0.0, 0.0, 0.0))
    sz_half = np.diag([0.5, -0.5]).astype(complex)
    expected = 3.0 * tensor(sz_half, np.eye(2)) + 1.0 * tensor(np.eye(2), sz_half)
    assert np.allclose(hamiltonian_2q(p), expected, atol=1e-15)


def test_h2q_transition_gaps():
    p = TwoSpinParams(5.0, 1.0, 0.4, RabiParams(5.0, 0.0, 0.0, 0.0))
    h = np.diag(hamiltonian_2q(p)).real
    # spin-a gap with partner up / down
    assert abs((h[0] - h[2]) - p.omega_plus) < 1e-12
    assert abs((h[1] - h[3]) - p.omega_minus) < 1e-12
    assert abs(p.omega_plus - (5.0 + math.pi * 0.4)) < 1e-15
    assert abs(p.omega_minus - (5.0 - math.pi * 0.4)) < 1e-15


def test_two_spin_params_validation():
    with pytest.raises(ValueError):
        TwoSpinParams(1.0, 2.0, 0.1, RabiParams(1.0, 0.0, 0.0, 0.0))
    for bad in ((math.nan, 1.0, 0.1), (2.0, -math.inf, 0.1), (2.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite two-spin parameter"):
            TwoSpinParams(*bad, RabiParams(1.0, 0.0, 0.0, 0.0))


def test_h2q_full_adds_drive():
    p = TwoSpinParams(5.0, 1.0, 0.4, RabiParams(5.0, 0.8, 4.7, 0.2))
    h = hamiltonian_2q_full(p, 0.9)
    assert np.max(np.abs(h - h.conj().T)) < 1e-10
    assert abs(h[0, 2] - 0.5 * 0.8 * np.exp(-1j * (4.7 * 0.9 + 0.2))) < 1e-14
    assert h[0, 1] == 0.0  # drive addressed to spin a only by default
    hb = hamiltonian_2q_full(p, 0.9, drive_on_b=True)
    assert abs(hb[0, 1]) > 0.0


def test_integrate_constant_with_zero_hamiltonian():
    traj = integrate_schrodinger(UP, lambda t: np.zeros((2, 2), complex), (0.0, 2.0), 0.01)
    assert np.max(np.abs(traj.psi - UP)) < 1e-14


def test_integrate_diagonal_evolution_phase():
    omega0 = 1.6
    h = np.diag([0.5 * omega0, -0.5 * omega0]).astype(complex)
    traj = integrate_schrodinger(UP, lambda t: h, (0.0, 4.0), 0.002)
    expected = np.exp(-0.5j * omega0 * traj.t)
    assert np.max(np.abs(traj.psi[:, 0] - expected)) < 1e-9


def test_rabi_flopping():
    p = RabiParams(omega0=2.0, omega1=0.7, omega=2.0, phi=0.0)
    traj = integrate_schrodinger(UP, lambda t: hamiltonian_1q(p, t), (0.0, 12.0), 0.003)
    p_down = np.abs(traj.psi[:, 1]) ** 2
    assert np.max(np.abs(p_down - np.sin(0.5 * p.omega1 * traj.t) ** 2)) < 1e-6


def test_final_norm_drift():
    p = RabiParams(2.0, 0.9, 1.7, 0.3)
    spread = math.hypot(p.omega0, p.omega1)
    traj = integrate_schrodinger(
        UP, lambda t: hamiltonian_1q(p, t), (0.0, 50.0), 0.009 / spread
    )
    assert abs(np.linalg.norm(traj.psi[-1]) - 1.0) < 1e-8


def test_step_too_large_rejected():
    h = np.diag([5.0, -5.0]).astype(complex)
    with pytest.raises(StepSizeError):
        integrate_schrodinger(UP, lambda t: h, (0.0, 1.0), 0.01)


def test_requires_normalized_state():
    with pytest.raises(ValueError):
        integrate_schrodinger(2.0 * UP, lambda t: np.zeros((2, 2), complex), (0.0, 1.0), 0.01)


def test_rejects_non_finite_input():
    zero = lambda t: np.zeros((2, 2), complex)
    for psi0 in (np.array([np.nan, 0.0j]), np.array([[1.0, 0.0], [0.0, np.inf]], complex)):
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate_schrodinger(psi0, zero, (0.0, 1.0), 0.001)
    for t_span, dt in (((0.0, np.inf), 0.01), ((-np.inf, 1.0), 0.01), ((0.0, np.nan), 0.01),
                       ((0.0, 1.0), np.nan), ((0.0, 1.0), np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            integrate_schrodinger(UP, zero, t_span, dt)


def test_block_matches_single_column_runs():
    p = TwoSpinParams(3.0, 1.0, 0.4, RabiParams(3.0, 0.8, 2.7, 0.3))
    rng = np.random.default_rng(8)
    block = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))[0]
    h_of_t = lambda t: hamiltonian_2q_full(p, t, drive_on_b=True)
    traj = integrate_schrodinger(block, h_of_t, (0.0, 3.0), 0.0015)
    assert traj.psi.shape == (len(traj.t), 4, 3)
    for j in range(3):
        single = integrate_schrodinger(block[:, j], h_of_t, (0.0, 3.0), 0.0015)
        assert np.array_equal(single.t, traj.t)
        assert np.max(np.abs(traj.psi[:, :, j] - single.psi)) <= 1e-15


def test_block_with_one_unnormalized_column_rejected():
    block = np.eye(2, dtype=complex)
    block[:, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="normalized"):
        integrate_schrodinger(block, lambda t: np.zeros((2, 2), complex), (0.0, 1.0), 0.01)


def _random_columns(seed, dim, columns):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
    return np.linalg.qr(m)[0]


_P1 = RabiParams(2.0, 0.9, 1.7, 0.3)
_P2 = TwoSpinParams(3.0, 1.0, 0.4, RabiParams(3.0, 0.8, 2.7, 0.3))
_FLOP = RabiParams(omega0=2.0, omega1=0.7, omega=2.0, phi=0.0)
_LONG = (RK4_CHUNK * 5 // 2) * 0.002
ORACLE_CASES = {
    "1q-one-column": (_random_columns(3, 2, 1)[:, 0], lambda t: hamiltonian_1q(_P1, t), 1.5, 0.002),
    "drive-on-b-block": (_random_columns(8, 4, 3),
                         lambda t: hamiltonian_2q_full(_P2, t, drive_on_b=True), 1.2, 0.0015),
    "longer-than-a-chunk": (_random_columns(5, 2, 2), lambda t: hamiltonian_1q(_P1, t), _LONG, 0.002),
    # <up|psi(t)> passes through zero near t = pi / omega1
    "resonant-flop-from-up": (UP, lambda t: hamiltonian_1q(_FLOP, t), 8.0, 0.003),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_matches_the_stage_form_oracle(case):
    psi0, h_of_t, t1, dt = ORACLE_CASES[case]
    traj = integrate_schrodinger(psi0, h_of_t, (0.0, t1), dt)
    ref = rk4_schrodinger_by_stages(psi0, h_of_t, (0.0, t1), dt)
    assert np.array_equal(traj.t, ref.t)
    assert traj.psi.shape == ref.psi.shape
    assert np.max(np.abs(traj.psi - ref.psi)) < 1e-12
    if case == "longer-than-a-chunk":
        assert len(traj.t) - 1 > 2 * RK4_CHUNK
    if case == "resonant-flop-from-up":
        assert np.min(np.abs(traj.psi[:, 0])) < 1e-2


def test_one_hamiltonian_call_per_half_step_node():
    # one call in all, with every node of the half-step grid at once
    calls = []
    h = np.diag([0.8, -0.8]).astype(complex)

    def h_of_t(t):
        calls.append(t)
        return h

    traj = integrate_schrodinger(UP, h_of_t, (0.0, 2.0), 0.004)
    assert len(traj.t) - 1 == 500
    assert len(calls) == 1
    assert np.array_equal(calls[0], half_step_grid((0.0, 2.0), 0.004)[1])


_FREQ = st.floats(-150.0, 150.0)
_PHASE = st.floats(-7.0, 7.0)


@settings(max_examples=25, deadline=None)
@given(
    drive=st.tuples(_FREQ, st.floats(0.0, 5.0), _FREQ, _PHASE).map(lambda c: RabiParams(*c)),
    wb=st.floats(1.0, 99.0),
    J=st.floats(-2.0, 2.0),
    ts=st.lists(st.floats(-100.0, 3000.0), min_size=1, max_size=40).map(np.array),
)
def test_batched_hamiltonians_equal_the_stacked_scalar_calls(drive, wb, J, ts):
    q = TwoSpinParams(100.0, wb, J, drive)
    for f in (partial(hamiltonian_1q, drive), partial(drive_hamiltonian_2q, q)):
        assert np.array_equal(f(ts), np.array([f(t) for t in ts.tolist()]))


_NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
BAD_HAMILTONIANS = {
    "nan": (lambda t: np.full((2, 2), np.nan), "finite"),
    "inf-at-one-node": (lambda t: np.where((t == t[3])[:, None, None], np.inf, 0.0)
                        * np.ones((2, 2)), "finite"),
    "3x3": (lambda t: np.zeros((3, 3)), "shape"),
    "stack-one-node-short": (lambda t: np.zeros((len(t) - 1, 2, 2)), "shape"),
    "scalar-per-node": (lambda t: np.zeros_like(t), "shape"),
    "upper-triangle-only": (lambda t: _NOT_HERMITIAN, "Hermitian"),
    "non-hermitian-by-2e-10": (lambda t: hamiltonian_1q(_P1, t) + 2e-10 * _NOT_HERMITIAN,
                               "Hermitian"),
}


@pytest.mark.parametrize("case", BAD_HAMILTONIANS)
def test_bad_hamiltonian_rejected(case):
    h_of_t, message = BAD_HAMILTONIANS[case]
    with pytest.raises(ValueError, match=message):
        integrate_schrodinger(UP, h_of_t, (0.0, 1.0), 0.01)


BAD_INITIAL_STATES = {
    # normalized columns, but a (2, 2, 2) block is neither a state nor a block
    "three-axes": np.stack([np.eye(2), np.eye(2)], axis=-1).astype(complex),
    "no-columns": np.zeros((2, 0), dtype=complex),
    "scalar": np.array(1.0 + 0.0j),
    "empty-state": np.zeros(0, dtype=complex),
}


@pytest.mark.parametrize("case", BAD_INITIAL_STATES)
def test_bad_initial_state_shape_rejected(case):
    with pytest.raises(ValueError, match=r"shape \(dim,\) or \(dim, B\) with B >= 1"):
        integrate_schrodinger(BAD_INITIAL_STATES[case], lambda t: np.zeros((2, 2), complex),
                              (0.0, 1.0), 0.01)


@pytest.mark.parametrize("dim", [2, 4])
def test_transition_matrices_are_the_real_forms_of_the_complex_maps(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(65, dim, dim)) + 1j * rng.normal(size=(65, dim, dim))
    hams, dt = m + m.conj().swapaxes(-1, -2), 0.02
    complex_maps = rk4_step_maps((-1j * dt) * hams)
    maps = rk4_transition_matrices(hams, dt)
    assert maps.shape == (32, 2 * dim, 2 * dim) and maps.dtype == float
    assert np.max(np.abs(maps - real_form(complex_maps.real, complex_maps.imag))) <= 1e-15


def test_hermitian_within_the_bound_accepted():
    h_of_t = lambda t: hamiltonian_1q(_P1, t) + 0.5e-10 * _NOT_HERMITIAN
    traj = integrate_schrodinger(UP, h_of_t, (0.0, 1.0), 0.002)
    assert np.all(np.isfinite(traj.psi))


def test_a_jump_of_pi_per_step_aborts():
    # For H = c 1 with c dt = sqrt(6), one RK4 step multiplies the state by
    # 1 - 3 + 36/24 = -1/2: a phase step of pi.  The spectral spread is 0,
    # so the guard must refuse the step on the largest |eigenvalue|.  At
    # c dt = 1 each step scales the norm by |1 - i - 1/2 + i/6 + 1/24| =
    # 0.9939, to 0.54 after 100 steps.
    dt = 0.01
    for c_dt in (math.sqrt(6.0), 1.0):
        h = (c_dt / dt) * np.eye(2, dtype=complex)
        with pytest.raises(StepSizeError, match=r"largest \|eigenvalue\|\) = .* exceeds 0.01"):
            integrate_schrodinger(UP, lambda t: h, (0.0, 0.1), dt)


def test_bloch_of_state_cases():
    assert np.allclose(bloch_of_state(UP), [0, 0, 1])
    assert np.allclose(bloch_of_state((UP + DOWN) / math.sqrt(2)), [1, 0, 0])
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta, alpha = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * alpha)])
        expected = [
            math.sin(theta) * math.cos(alpha),
            math.sin(theta) * math.sin(alpha),
            math.cos(theta),
        ]
        assert np.max(np.abs(bloch_of_state(psi) - expected)) < 1e-14
        assert abs(np.linalg.norm(bloch_of_state(psi)) - 1.0) < 1e-14
    with pytest.raises(ValueError, match="expects a 2-dim state vector"):
        bloch_of_state(np.eye(4, dtype=complex)[0])


def test_schrodinger_bloch_consistency():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.3, 1.5), rng.uniform(1, 3), rng.uniform(0, 6)
        )
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 = v / np.linalg.norm(v)
        dt = 0.004 / math.hypot(p.omega0, p.omega1)
        traj = integrate_schrodinger(psi0, lambda t: hamiltonian_1q(p, t), (0.0, 8.0), dt)
        btraj = integrate_bloch(bloch_of_state(psi0), p, (0.0, 8.0), dt)
        for k in range(0, len(traj.t), 500):
            assert np.max(np.abs(bloch_of_state(traj.psi[k]) - btraj.s[k])) < 1e-5


def test_energy_conservation_static():
    p = RabiParams(2.0, 0.9, 0.0, 0.4)
    h = hamiltonian_1q(p, 0.0)
    psi0 = np.array([0.8, 0.6], dtype=complex)
    traj = integrate_schrodinger(psi0, lambda t: h, (0.0, 10.0), 0.003)
    energies = np.einsum("sd,de,se->s", traj.psi.conj(), h, traj.psi).real
    assert np.max(np.abs(energies - energies[0])) < 1e-8


def test_uncoupled_propagator_factorizes():
    p = TwoSpinParams(3.0, 1.0, 0.0, RabiParams(3.0, 0.8, 2.7, 0.3))
    dt = 0.002

    def prop(h_of_t, dim):
        cols = []
        for j in range(dim):
            v = np.zeros(dim, dtype=complex)
            v[j] = 1.0
            cols.append(integrate_schrodinger(v, h_of_t, (0.0, 5.0), dt).final_psi)
        return np.stack(cols, axis=1)

    u4 = prop(lambda t: hamiltonian_2q_full(p, t), 4)
    ua = prop(lambda t: hamiltonian_1q(p.drive, t), 2)
    ub = prop(lambda t: np.diag([0.5 * p.omega_b, -0.5 * p.omega_b]).astype(complex), 2)
    assert np.max(np.abs(u4 - tensor(ua, ub))) < 1e-6
