"""Named invariant checks run by the command-line `verify` command.

Each check exercises one module-level invariant at desk scale and reports the
measured value against its tolerance.  The `diabatic` flag deliberately
breaks the adiabaticity precondition so the negative control can demonstrate
the checks have teeth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bloch import (
    M_Z,
    RabiParams,
    from_rotating_frame,
    integrate_bloch,
)
from .gates import prepare_network
from .linalg import expm_hermitian, pauli_dot, tensor
from .phase import (
    LoopSpec,
    circle_distance,
    cone_state_path,
    geometric_phase_discrete,
    solid_angle_spherical_polygon,
)
from .schrodinger import (
    bloch_of_state,
    drive_hamiltonian_2q,
    hamiltonian_1q,
    hamiltonian_2q,
    integrate_schrodinger,
)
from .schrodinger import TwoSpinParams
from .sequences import (
    default_times_1q,
    delta_gamma,
    measure_cone_phase,
    run_cone_loop,
    run_conditional_sequence,
    run_spin_echo_1q,
)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 20260809
    diabatic: bool = False

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _cone_params(theta: float) -> RabiParams:
    return RabiParams(5.0, 1.0, 5.0 - 1.0 / math.tan(theta), 0.0)


def _slerp(a, b, n):
    ang = math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    ts = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
    return (np.sin((1 - ts) * ang) * a + np.sin(ts * ang) * b) / math.sin(ang)


def check_pauli_algebra(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = pauli_dot(a) @ pauli_dot(b)
        rhs = np.dot(a, b) * np.eye(2) + 1j * pauli_dot(np.cross(a, b))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckResult("pauli-algebra", worst < 1e-12, worst, 1e-12)


def check_tensor_mixed_product(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 1)
    worst = 0.0
    for _ in range(50):
        mats = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        a, b, c, d = mats
        worst = max(
            worst,
            float(np.max(np.abs(tensor(a, b) @ tensor(c, d) - tensor(a @ c, b @ d)))),
        )
    return CheckResult("tensor-mixed-product", worst < 1e-12, worst, 1e-12)


def check_propagator_unitarity(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 2)
    worst = 0.0
    for dim in (2, 4):
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (m + m.conj().T)
            u = expm_hermitian(h, 0.7)
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
            group = expm_hermitian(h, 0.3) @ expm_hermitian(h, 0.4)
            worst = max(worst, float(np.max(np.abs(group - u))))
    return CheckResult("propagator-unitarity", worst < 1e-10, worst, 1e-10)


def check_bloch_norm(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 3)
    worst = 0.0
    for _ in range(5):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.2, 1.5), rng.uniform(1, 3), rng.uniform(0, 6)
        )
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        traj = integrate_bloch(s0, p, (0.0, 10.0), 0.002)
        norms = np.linalg.norm(traj.s, axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return CheckResult("bloch-norm-conservation", worst < 1e-6, worst, 1e-6)


def check_precession_rate(cfg: VerifyConfig) -> CheckResult:
    omega0 = 1.7
    p = RabiParams(omega0, 0.0, 0.0, 0.0)
    traj = integrate_bloch(np.array([1.0, 0.0, 0.0]), p, (0.0, 3.0), 0.001)
    swept = np.unwrap(np.arctan2(traj.s[:, 1], traj.s[:, 0]))
    worst = float(np.max(np.abs(swept - omega0 * traj.t)))
    return CheckResult("precession-rate", worst < 1e-6, worst, 1e-6)


def check_frame_equivalence(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 4)
    worst = 0.0
    for _ in range(5):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.2, 1.5), rng.uniform(1, 3), rng.uniform(0, 6)
        )
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        lab = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="lab")
        rot = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="rotating")
        for k in range(0, len(lab.t), 200):
            back = from_rotating_frame(rot.s[k], p.omega, rot.t[k])
            worst = max(worst, float(np.max(np.abs(back - lab.s[k]))))
    return CheckResult("rotating-frame-equivalence", worst < 1e-6, worst, 1e-6)


def check_z_generator(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 5)
    worst = 0.0
    for _ in range(20):
        s = rng.normal(size=3)
        worst = max(
            worst,
            float(np.max(np.abs(M_Z @ s - np.cross(np.array([0.0, 0.0, 1.0]), s)))),
        )
    return CheckResult("z-generator-identity", worst == 0.0, worst, 0.0)


def check_schrodinger_bloch(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 6)
    worst = 0.0
    for _ in range(3):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.3, 1.5), rng.uniform(1, 3), rng.uniform(0, 6)
        )
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 = v / np.linalg.norm(v)
        dt = 0.004 / math.hypot(p.omega0, p.omega1)
        traj = integrate_schrodinger(psi0, lambda t: hamiltonian_1q(p, t), (0.0, 8.0), dt)
        btraj = integrate_bloch(bloch_of_state(psi0), p, (0.0, 8.0), dt)
        for k in range(0, len(traj.t), 400):
            worst = max(
                worst, float(np.max(np.abs(bloch_of_state(traj.psi[k]) - btraj.s[k])))
            )
    return CheckResult("schrodinger-bloch-consistency", worst < 1e-5, worst, 1e-5)


def check_energy_conservation(cfg: VerifyConfig) -> CheckResult:
    p = RabiParams(2.0, 0.9, 0.0, 0.4)
    h = hamiltonian_1q(p, 0.0)
    psi0 = np.array([0.8, 0.6], dtype=complex)
    traj = integrate_schrodinger(psi0, lambda t: h, (0.0, 10.0), 0.003)
    energies = np.einsum("sd,de,se->s", traj.psi.conj(), h, traj.psi).real
    worst = float(np.max(np.abs(energies - energies[0])))
    return CheckResult("energy-conservation", worst < 1e-8, worst, 1e-8)


def check_factorization(cfg: VerifyConfig) -> CheckResult:
    p = TwoSpinParams(3.0, 1.0, 0.0, RabiParams(3.0, 0.8, 2.7, 0.3))
    dt = 0.002

    def prop(h_of_t, dim):
        return integrate_schrodinger(np.eye(dim, dtype=complex), h_of_t, (0.0, 5.0), dt).final_psi

    # The static parts are built once, not on every RK4 stage.
    h_static = hamiltonian_2q(p)
    h_b = np.diag([0.5 * p.omega_b, -0.5 * p.omega_b]).astype(complex)
    u4 = prop(lambda t: h_static + drive_hamiltonian_2q(p, t), 4)
    ua = prop(lambda t: hamiltonian_1q(p.drive, t), 2)
    ub = prop(lambda t: h_b, 2)
    worst = float(np.max(np.abs(u4 - tensor(ua, ub))))
    return CheckResult("uncoupled-factorization", worst < 1e-6, worst, 1e-6)


def check_gauge_invariance(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 7)
    states = cone_state_path(LoopSpec(1.1, 400))
    g0 = geometric_phase_discrete(states)
    worst = 0.0
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(states)))
        worst = max(
            worst, circle_distance(g0, geometric_phase_discrete(states * phases[:, None]))
        )
    return CheckResult("holonomy-gauge-invariance", worst < 1e-12, worst, 1e-12)


def check_cone_phase(cfg: VerifyConfig) -> CheckResult:
    theta = math.pi / 3
    m = measure_cone_phase(_cone_params(theta))
    err = circle_distance(m.geometric, m.expected)
    return CheckResult("cone-geometric-phase", err < 5e-3, err, 5e-3)


def check_rate_independence(cfg: VerifyConfig) -> CheckResult:
    p = _cone_params(math.pi / 6)
    rt, st, dt = default_times_1q(p)
    m1 = measure_cone_phase(p, rt, st, dt)
    m2 = measure_cone_phase(p, 2 * rt, 2 * st, dt)
    err = abs(m1.geometric - m2.geometric)
    dyn = abs(m1.dynamic_mean - m2.dynamic_mean)
    return CheckResult(
        "rate-independence", err < 1e-3 and dyn > 1.0, err, 1e-3,
        f"dynamic phases differ by {dyn:.1f} rad",
    )


def check_solid_angle_law(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 8)
    worst = 0.0
    trials = 0
    while trials < 5:
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        if any(np.dot(v[i], v[(i + 1) % 3]) < -0.8 for i in range(3)):
            continue
        trials += 1
        pts = np.concatenate([_slerp(v[i], v[(i + 1) % 3], 800) for i in range(3)])
        th = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
        al = np.arctan2(pts[:, 1], pts[:, 0])
        spinors = np.stack([np.cos(th / 2), np.sin(th / 2) * np.exp(1j * al)], axis=1)
        g = geometric_phase_discrete(spinors)
        worst = max(worst, circle_distance(g, -0.5 * solid_angle_spherical_polygon(v)))
    return CheckResult("solid-angle-law", worst < 1e-3, worst, 1e-3)


def check_echo(cfg: VerifyConfig) -> CheckResult:
    p = _cone_params(math.pi / 3)
    rt, st, dt = default_times_1q(p)
    e = run_spin_echo_1q(p, 4 * rt, 4 * st, dt)
    err = circle_distance(e.phase_difference, e.expected_difference)
    resid = abs(e.dynamic_residual)
    passed = err < 5e-3 and resid < 1e-3
    return CheckResult(
        "spin-echo-cancellation", passed, max(err, resid), 5e-3,
        f"difference error {err:.2e}, dynamic residual {resid:.2e}",
    )


def check_differential_shift(cfg: VerifyConfig) -> CheckResult:
    wa, J = 50.0, 2.0
    errs = [
        abs(delta_gamma(wa, wa, math.pi * J, J) - math.pi * math.sqrt(2.0)),
        abs(delta_gamma(wa, wa - 1.0, 1.0, 0.0)),
        abs(delta_gamma(wa, wa - 1.0, 1.0, J) + delta_gamma(wa, wa - 1.0, 1.0, -J)),
    ]
    worst = max(errs)
    return CheckResult("differential-shift-closed-form", worst < 1e-12, worst, 1e-12)


def check_state_preparation(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 9)
    worst = 0.0
    for _ in range(50):
        theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        target = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
        out = prepare_network(theta, phi)
        worst = max(worst, 1.0 - abs(np.vdot(target, out)))
    return CheckResult("state-preparation-network", worst < 1e-12, worst, 1e-12)


def check_adiabaticity(cfg: VerifyConfig) -> CheckResult:
    p = _cone_params(math.pi / 3)
    rt, st, dt = default_times_1q(p)
    if cfg.diabatic:
        rt, st, dt = 0.01 * rt, 0.01 * st, 0.01 * dt
    r = run_cone_loop(p, rt, st, dt)
    fid = r.closure_fidelity
    detail = f"closure fidelity {fid:.6f}"
    if cfg.diabatic:
        gamma_err = abs(r.decomposition.geometric - r.expected_geometric)
        detail += f", geometric-phase error {gamma_err:.3f} rad (diabatic control)"
    return CheckResult("adiabaticity", fid >= 0.999, fid, 0.999, detail)


def check_conditional_gate(cfg: VerifyConfig) -> CheckResult:
    J = 1.0 / math.pi
    p = TwoSpinParams(100.0, 80.0, J, RabiParams(100.0, 1.2, 98.0, 0.0))
    r = run_conditional_sequence(p)
    passed = r.fidelity >= 0.999 and r.off_diagonal_leakage < 1e-3
    return CheckResult(
        "conditional-gate", passed, r.fidelity, 0.999,
        f"off-diagonal leakage {r.off_diagonal_leakage:.2e}, "
        f"dynamic residual {r.dynamic_residual:.2e}",
    )


REGISTRY = {
    "pauli-algebra": check_pauli_algebra,
    "tensor-mixed-product": check_tensor_mixed_product,
    "propagator-unitarity": check_propagator_unitarity,
    "bloch-norm-conservation": check_bloch_norm,
    "precession-rate": check_precession_rate,
    "rotating-frame-equivalence": check_frame_equivalence,
    "z-generator-identity": check_z_generator,
    "schrodinger-bloch-consistency": check_schrodinger_bloch,
    "energy-conservation": check_energy_conservation,
    "uncoupled-factorization": check_factorization,
    "holonomy-gauge-invariance": check_gauge_invariance,
    "state-preparation-network": check_state_preparation,
    "cone-geometric-phase": check_cone_phase,
    "rate-independence": check_rate_independence,
    "solid-angle-law": check_solid_angle_law,
    "spin-echo-cancellation": check_echo,
    "differential-shift-closed-form": check_differential_shift,
    "adiabaticity": check_adiabaticity,
    "conditional-gate": check_conditional_gate,
}


def check_names() -> list[str]:
    return list(REGISTRY)


def run_all(cfg: VerifyConfig):
    """Run the checks in registry order, yielding each result with its wall
    time in seconds."""
    for fn in REGISTRY.values():
        start = time.perf_counter()
        res = fn(cfg)
        yield res, time.perf_counter() - start
