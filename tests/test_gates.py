import math

import numpy as np
import pytest

from berrygate.gates import (
    compose_local_phase_gate,
    controlled_phase,
    gate_fidelity,
    hadamard,
    local_phase_equivalence,
    phase_gate,
    prepare_network,
)
from berrygate.linalg import KET_DOWN, KET_UP, pauli
from berrygate.schrodinger import bloch_of_state


def test_hadamard_involution():
    h = hadamard()
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)
    assert np.max(np.abs(h.conj().T @ h - np.eye(2))) < 1e-10


def test_hadamard_on_basis():
    h = hadamard()
    assert np.allclose(h @ KET_UP, (KET_UP + KET_DOWN) / math.sqrt(2))
    assert np.allclose(h @ KET_DOWN, (KET_UP - KET_DOWN) / math.sqrt(2))


def test_phase_gate_cases():
    assert np.allclose(phase_gate(0.0), np.eye(2))
    assert np.allclose(phase_gate(math.pi), pauli("z"), atol=1e-15)
    a, b = 0.7, 1.9
    assert np.allclose(phase_gate(a) @ phase_gate(b), phase_gate(a + b), atol=1e-15)


def test_controlled_phase_cases():
    assert np.allclose(controlled_phase(0.0), np.eye(4))
    phi = 1.1
    b = controlled_phase(phi)
    for idx in range(3):
        e = np.zeros(4, dtype=complex)
        e[idx] = 1.0
        assert np.allclose(b @ e, e)
    e11 = np.array([0, 0, 0, 1.0], dtype=complex)
    assert np.allclose(b @ e11, np.exp(1j * phi) * e11)
    # symmetric under swapping control and target
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(swap @ b @ swap, b, atol=1e-15)


def test_prepare_network_poles():
    out0 = prepare_network(0.0, 0.0)
    assert abs(abs(np.vdot(KET_UP, out0)) - 1.0) < 1e-12
    out1 = prepare_network(math.pi / 2, 1.3)
    assert abs(abs(np.vdot(KET_DOWN, out1)) - 1.0) < 1e-12


def test_prepare_network_bloch_vector():
    rng = np.random.default_rng(2)
    for _ in range(25):
        theta, phi = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2.0 * math.pi)
        s = bloch_of_state(prepare_network(theta, phi))
        expected = [
            math.sin(2 * theta) * math.cos(phi),
            math.sin(2 * theta) * math.sin(phi),
            math.cos(2 * theta),
        ]
        assert np.max(np.abs(s - expected)) < 1e-12


def test_prepare_network_fidelity_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        theta, phi = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2.0 * math.pi)
        target = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
        out = prepare_network(theta, phi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert abs(np.vdot(target, out)) > 1.0 - 1e-12


def equal_up_to_global_phase(a, b, tol=1e-10):
    return gate_fidelity(a, b) >= 1.0 - tol


def test_equal_up_to_global_phase():
    # gate_fidelity is blind to a global phase, and only to it
    u = hadamard()
    assert gate_fidelity(u, np.exp(1j * 0.9) * u) == pytest.approx(1.0)
    assert gate_fidelity(np.eye(2), pauli("x")) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), np.eye(4))


def test_equal_up_to_global_phase_equivalence_relation():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    a = q
    b = np.exp(0.3j) * q
    c = np.exp(-1.1j) * q
    assert equal_up_to_global_phase(a, a)
    assert equal_up_to_global_phase(a, b) == equal_up_to_global_phase(b, a)
    assert equal_up_to_global_phase(a, b) and equal_up_to_global_phase(b, c)
    assert equal_up_to_global_phase(a, c)


def test_local_phase_equivalence_controlled_phase():
    phi = 0.8
    phi_a, phi_b, phi_gate, glob = local_phase_equivalence(controlled_phase(phi))
    assert phi_gate == pytest.approx(phi)
    assert phi_a == pytest.approx(0.0)
    assert phi_b == pytest.approx(0.0)
    assert glob == pytest.approx(0.0)


def test_local_phase_equivalence_conditional_pattern():
    dg = 0.35
    g = np.diag(np.exp(1j * np.array([2 * dg, -2 * dg, -2 * dg, 2 * dg])))
    _, _, phi_gate, _ = local_phase_equivalence(g)
    assert phi_gate == pytest.approx(8.0 * dg)


def test_local_phase_equivalence_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 4)))
        recon = compose_local_phase_gate(*local_phase_equivalence(g))
        assert np.max(np.abs(recon - g)) < 1e-12


def test_local_phase_equivalence_rejects_non_diagonal():
    with pytest.raises(ValueError):
        local_phase_equivalence(np.kron(hadamard(), np.eye(2)))
    with pytest.raises(ValueError):
        local_phase_equivalence(np.eye(2))


def test_gate_fidelity_range():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    assert gate_fidelity(q, q) == pytest.approx(1.0)
    assert 0.0 <= gate_fidelity(q, controlled_phase(0.4)) <= 1.0
