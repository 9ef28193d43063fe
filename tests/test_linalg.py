import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrygate.engine import _dense_carry, _su2_carry
from berrygate.linalg import (
    KET_UP,
    expm_hermitian,
    pauli,
    pauli_dot,
    prefix_products,
    real_form,
    rk4_fold,
    rk4_step_maps,
    tensor,
)


def test_pauli_z_definition():
    assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]).astype(complex))


def test_pauli_involution():
    for axis in "xyz":
        assert np.array_equal(pauli(axis) @ pauli(axis), np.eye(2))


def test_pauli_xy_product_is_i_sigma_z():
    assert np.allclose(pauli("x") @ pauli("y"), 1j * pauli("z"), atol=1e-15)
    # same fact via the dot-product identity with a = x_hat, b = y_hat
    lhs = pauli_dot([1, 0, 0]) @ pauli_dot([0, 1, 0])
    rhs = 0.0 * np.eye(2) + 1j * pauli_dot([0, 0, 1])
    assert np.allclose(lhs, rhs, atol=1e-15)


def test_pauli_properties():
    for axis in "xyz":
        s = pauli(axis)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s.conj().T @ s, np.eye(2))
        assert abs(np.trace(s)) < 1e-15


def test_pauli_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_pauli_dot_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = pauli_dot(a) @ pauli_dot(b)
        rhs = np.dot(a, b) * np.eye(2) + 1j * pauli_dot(np.cross(a, b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sz_sz():
    sz_half = 0.5 * pauli("z")
    expected = np.diag([0.25, -0.25, -0.25, 0.25]).astype(complex)
    assert np.allclose(tensor(sz_half, sz_half), expected, atol=1e-15)


def test_tensor_flips_first_spin():
    up_up = np.kron(KET_UP, KET_UP)
    down_up = np.zeros(4, dtype=complex)
    down_up[2] = 1.0
    assert np.allclose(tensor(pauli("x"), np.eye(2)) @ up_up, down_up)


def test_tensor_bilinear_and_mixed_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        lhs = tensor(a, b) @ tensor(c, d)
        assert np.max(np.abs(lhs - tensor(a @ c, b @ d))) < 1e-12
        assert np.max(np.abs(tensor(a + c, b) - tensor(a, b) - tensor(c, b))) < 1e-12


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor(np.eye(2), np.eye(4))


def test_expm_zero_generator():
    assert np.allclose(expm_hermitian(np.zeros((2, 2)), 3.7), np.eye(2))


def test_expm_diagonal_phases():
    omega0 = 1.3
    t = 2.1
    u = expm_hermitian(0.5 * omega0 * pauli("z"), t)
    expected = np.diag([np.exp(-0.5j * omega0 * t), np.exp(0.5j * omega0 * t)])
    assert np.allclose(u, expected, atol=1e-14)


def test_expm_unitarity_and_group_law():
    rng = np.random.default_rng(9)
    for dim in (2, 4):
        for _ in range(25):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (m + m.conj().T)
            u = expm_hermitian(h, 1.1)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10
            uv = expm_hermitian(h, 0.4) @ expm_hermitian(h, 0.7)
            assert np.max(np.abs(uv - u)) < 1e-10


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError, match=r"expected a 2x2 or 4x4 matrix, got shape \(3, 3\)"):
        expm_hermitian(np.eye(3), 1.0)


def _unitary_stack(rng, n, dim, dtype):
    m = rng.normal(size=(n, dim, dim))
    if dtype is complex:
        m = m + 1j * rng.normal(size=(n, dim, dim))
    return np.linalg.qr(m)[0]


def _su2_pairs(rng, n):
    """The engine's Cayley-Klein pairs of three sectors, each with an
    energy integral (g_x + i g_y, g_z) small enough that the long sums stay
    of order one."""
    pairs = rng.normal(size=(n, 3, 2)) + 1j * rng.normal(size=(n, 3, 2))
    g = 1e-3 * rng.normal(size=(n, 3, 3))
    return np.concatenate(
        [pairs / np.linalg.norm(pairs, axis=-1, keepdims=True),
         (g[..., :2] @ [1.0, 1j])[..., None], g[..., 2:] + 0j], axis=-1)


def _dense_maps(rng, n):
    """Unitaries above small Hermitian energy integrals, as the engine's
    dense maps hold them."""
    g = 1e-3 * (rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    return np.concatenate([_unitary_stack(rng, n, 4, complex), g + g.conj().swapaxes(-1, -2)],
                          axis=1)


# (operands, product): real rotations, complex unitaries, and the engine's
# maps with their energy integrals (`engine._su2_carry`, three sectors, and
# `engine._dense_carry`), all of norm one so that long products stay of
# order one.
SCAN_OPERANDS = {
    "real-3x3": (lambda rng, n: _unitary_stack(rng, n, 3, float), np.matmul),
    "complex-4x4": (lambda rng, n: _unitary_stack(rng, n, 4, complex), np.matmul),
    "su2-pairs": (_su2_pairs, _su2_carry),
    "dense-carried": (_dense_maps, _dense_carry),
}


def _left_fold(x, mul):
    ref = np.empty_like(x)
    ref[0] = x[0]
    for k in range(1, len(x)):
        ref[k] = mul(x[k], ref[k - 1])
    return ref


@pytest.mark.parametrize("kind", SCAN_OPERANDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 1023, 1024, 1025])
def test_prefix_products_match_a_sequential_left_fold(kind, n):
    make, mul = SCAN_OPERANDS[kind]
    x = make(np.random.default_rng(n), n)
    out = prefix_products(x, mul)
    assert out.shape == x.shape and out.dtype == x.dtype
    assert np.max(np.abs(out - _left_fold(x, mul))) < 1e-13


def _textbook_rk4_maps(a):
    """Oracle: the one-step RK4 maps as the formula is written."""
    a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
    k2 = a2 + 0.5 * (a2 @ a1)
    k3 = a2 + 0.5 * (a2 @ k2)
    k4 = a4 + a4 @ k3
    return (a1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0 + np.eye(a.shape[-1])


@pytest.mark.parametrize("d", [3, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 1024])
def test_rk4_step_maps_round_as_the_textbook_formula(d, n):
    # the sum 2 ((K2 + A1/2) + K3) + K4 rounds as A1 + 2 K2 + 2 K3 + K4,
    # because scaling by 2 is exact
    a = 0.05 * np.random.default_rng(100 * d + n).normal(size=(2 * n + 1, d, d))
    maps = rk4_step_maps(a)
    assert maps.shape == (n, d, d)
    assert np.array_equal(maps, _textbook_rk4_maps(a))


@pytest.mark.parametrize("n", [1, 1024, 2500])
def test_rk4_fold_of_a_block_matches_single_column_folds(n):
    # Bloch-style generators h [Omega]x over up to three chunks: the (3, B)
    # block of columns, folded by one product per step, against B folds of
    # one column each (measured: at most 4.4e-16)
    rng = np.random.default_rng(n)
    omega = 0.01 * rng.normal(size=(2 * n + 1, 3))
    a = np.zeros((2 * n + 1, 3, 3))
    for (i, j), w in zip(((2, 1), (0, 2), (1, 0)), omega.T):
        a[:, i, j], a[:, j, i] = w, -w
    u0 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    states = rk4_fold(a, u0, rk4_step_maps)
    assert states.shape == (n + 1, 3, 3)
    assert np.array_equal(states[0], u0)
    for j in range(3):
        single = rk4_fold(a, u0[:, j : j + 1], rk4_step_maps)
        assert np.max(np.abs(states[:, :, j : j + 1] - single)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    d=st.sampled_from([2, 4]),
    scale=st.integers(-40, 40).map(lambda k: 2.0**k),
)
def test_real_form_of_a_product_is_the_product_of_real_forms(seed, n, d, scale):
    rng = np.random.default_rng(seed)
    p, q = scale * (rng.normal(size=(2, n, d, d)) + 1j * rng.normal(size=(2, n, d, d)))
    pq = p @ q
    lhs = real_form(pq.real, pq.imag)
    rhs = real_form(p.real, p.imag) @ real_form(q.real, q.imag)
    assert lhs.shape == rhs.shape == (n, 2 * d, 2 * d)
    size = np.max(np.abs(p)) * np.max(np.abs(q))
    assert np.max(np.abs(lhs - rhs)) <= 1e-15 * size
