"""Fixed reference kernel that every timed pass is divided by.

It is plain numpy of the two kinds berrygate spends its time in:

- `batched_kernel`: one engine chunk.  Build a stack of 4x4 Hermitian
  matrices on a half-step grid, form one-step RK4 maps, reduce them by
  pairwise block products and fold the block results (16384 steps, about
  8 MB of matrices).
- `stepwise_kernel`: a Python loop of RK4 steps on one Bloch vector with
  3-element numpy arrays, the shape of the `bloch` and `schrodinger`
  oracles and of any scalar Python work.

On a shared 2-core guest the two drift differently (memory-bound against
interpreter-bound), so the reference time covers both.  It calls no
berrygate code, so no change to the program can move it; it only tracks how
fast this host runs right now.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_CHUNK = 16384
_BLOCK = 64
_DT = 1.5e-3
_EYE = np.eye(4, dtype=complex)
_STAGES = 0.5 * _DT * np.arange(2 * _CHUNK + 1)
BATCHED_CALLS = 8
STEPWISE_CALLS = 5
STEPWISE_STEPS = 400


def batched_kernel() -> np.ndarray:
    x = _STAGES / _STAGES[-1]
    w1 = 0.6 * (1.0 - np.cos(math.pi * x))
    off = 0.5 * w1 * np.exp(-2j * math.pi * x)
    h = np.zeros((x.size, 4, 4), dtype=complex)
    for k, e in enumerate((1.5, 0.5, -1.5, -0.5)):
        h[:, k, k] = e
    h[:, 0, 2] = h[:, 1, 3] = off
    h[:, 2, 0] = h[:, 3, 1] = off.conj()
    a = (-1j * _DT) * h
    a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
    k2 = a2 + 0.5 * (a2 @ a1)
    k3 = a2 + 0.5 * (a2 @ k2)
    k4 = a4 + a4 @ k3
    m = (a1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0 + _EYE
    m = m.reshape(-1, _BLOCK, 4, 4)
    while m.shape[1] > 1:
        m = np.matmul(m[:, 1::2], m[:, 0::2])
    u = _EYE
    for prod in m[:, 0]:
        u = prod @ u
    return u


def stepwise_kernel(steps: int = STEPWISE_STEPS) -> np.ndarray:
    omega = np.array([0.3, 0.1, 1.0])
    s = np.array([1.0, 0.0, 0.0])
    h = 1e-3
    for _ in range(steps):
        k1 = np.cross(omega, s)
        k2 = np.cross(omega, s + 0.5 * h * k1)
        k3 = np.cross(omega, s + 0.5 * h * k2)
        k4 = np.cross(omega, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference_calls(min_seconds: float = 0.0, batched_calls: int = BATCHED_CALLS,
                    stepwise_calls: int = STEPWISE_CALLS) -> tuple[list[float], list[float]]:
    """Wall time of each call of the fixed mix of both kernels (about 1 s in
    all on a 2-core Xeon guest), repeated until `min_seconds` have passed.
    Fewer calls per mix give a shorter window on the same scale."""
    batched: list[float] = []
    stepwise: list[float] = []
    t0 = time.perf_counter()
    while not batched or time.perf_counter() - t0 < min_seconds:
        batched += [_timed(batched_kernel) for _ in range(batched_calls)]
        stepwise += [_timed(stepwise_kernel) for _ in range(stepwise_calls)]
    return batched, stepwise


def reference_seconds(calls: tuple[list[float], list[float]]) -> float:
    """Time of the whole mix, each kernel taken at the median of its calls so
    that one call caught by a host stall does not set the reference."""
    batched, stepwise = calls
    return (BATCHED_CALLS * statistics.median(batched)
            + STEPWISE_CALLS * statistics.median(stepwise))
