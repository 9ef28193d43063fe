"""Acceptance suite: every closed-form claim checked against the full
time-dependent quantum simulation at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them on
success).
"""

import math
import time

import numpy as np
from oracles import slerp_by_points

from berrygate.bloch import RabiParams, from_rotating_frame, integrate_bloch
from berrygate.cli import main as cli_main
from berrygate.gates import (
    compose_local_phase_gate,
    controlled_phase,
    gate_fidelity,
    hadamard,
    local_phase_equivalence,
    prepare_network,
)
from berrygate.phase import (
    berry_cone_phase,
    circle_distance,
    geometric_phase_discrete,
    solid_angle_spherical_polygon,
)
from berrygate.schrodinger import (
    TwoSpinParams,
    bloch_of_state,
    hamiltonian_1q,
    integrate_schrodinger,
)
from berrygate.sequences import (
    default_times_1q,
    delta_gamma,
    fault_tolerance_surface,
    measure_cone_phase,
    run_cone_loop,
    run_conditional_sequence,
    run_spin_echo_1q,
)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def cone_params(theta, omega0=5.0, omega1=1.0):
    return RabiParams(omega0, omega1, omega0 - omega1 / math.tan(theta), 0.0)


def test_criterion_1_cone_berry_phase():
    thetas = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
    t0 = time.monotonic()
    errs = []
    for theta in thetas:
        m = measure_cone_phase(cone_params(theta))
        expected = berry_cone_phase(theta)
        errs.append(circle_distance(m.geometric, expected))
        if theta < math.pi / 2:
            # below the equator crossing the unreduced branch matches directly
            errs[-1] = max(errs[-1], abs(m.geometric - expected))
    elapsed = time.monotonic() - t0
    passed = max(errs) < 5e-3 and elapsed < 30.0
    _report(
        "1 cone-berry-phase",
        passed,
        f"max |gamma + pi(1-cos theta)| = {max(errs):.2e} (tol 5e-3), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )
    assert max(errs) < 5e-3
    assert elapsed < 30.0


def test_criterion_2_rate_independence():
    p = cone_params(math.pi / 6)
    ramp, sweep, dt = default_times_1q(p)
    m1 = measure_cone_phase(p, ramp, sweep, dt)
    m3 = measure_cone_phase(p, 3 * ramp, 3 * sweep, dt)
    gamma_shift = abs(m1.geometric - m3.geometric)
    dyn_shift = abs(m1.dynamic_mean - m3.dynamic_mean)
    passed = gamma_shift < 1e-3 and dyn_shift > 1.0
    _report(
        "2 rate-independence",
        passed,
        f"|gamma(T) - gamma(3T)| = {gamma_shift:.2e} (tol 1e-3), "
        f"|delta(T) - delta(3T)| = {dyn_shift:.0f} rad (> 1)",
    )
    assert gamma_shift < 1e-3
    assert dyn_shift > 1.0


def test_criterion_3_solid_angle_law():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    done = 0
    while done < 20:
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        if any(np.dot(v[i], v[(i + 1) % 3]) < -0.8 for i in range(3)):
            continue
        done += 1
        pts = np.concatenate([slerp_by_points(v[i], v[(i + 1) % 3], 700) for i in range(3)])
        th = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
        al = np.arctan2(pts[:, 1], pts[:, 0])
        spinors = np.stack([np.cos(th / 2), np.sin(th / 2) * np.exp(1j * al)], axis=1)
        holonomy = geometric_phase_discrete(spinors)
        omega = solid_angle_spherical_polygon(v)
        worst = max(worst, circle_distance(holonomy, -0.5 * omega))
    passed = worst < 1e-3
    _report(
        "3 solid-angle-law",
        passed,
        f"20 random triangles, >= 2100 path points, max |holonomy + Omega/2| "
        f"= {worst:.2e} (tol 1e-3)",
    )
    assert worst < 1e-3


def test_criterion_4_spin_echo():
    theta = math.pi / 3
    p = cone_params(theta)
    ramp, sweep, dt = default_times_1q(p)
    # convergence study over the adiabaticity knob
    study = []
    for factor in (1.0, 2.0, 4.0):
        e = run_spin_echo_1q(p, factor * ramp, factor * sweep, dt)
        study.append((factor, abs(e.dynamic_residual),
                      circle_distance(e.phase_difference, e.expected_difference)))
    for factor, resid, err in study:
        print(
            f"  echo convergence: sweep x{factor:.0f} -> dynamic residual "
            f"{resid:.2e}, difference error {err:.2e}"
        )
    e = run_spin_echo_1q(p, 4 * ramp, 4 * sweep, dt)
    err_main = circle_distance(e.phase_difference, e.expected_difference)
    err_alt = circle_distance(e.phase_difference, e.expected_difference_alt)
    resid = abs(e.dynamic_residual)
    loops_large = all(abs(dv) > 1.0 for branch in e.loop_dynamics for dv in branch)
    passed = resid < 1e-3 and err_main < 5e-3 and err_alt < 5e-3 and loops_large
    _report(
        "4 spin-echo",
        passed,
        f"difference vs 4pi(1-cos theta) = {err_main:.2e} mod 2pi (tol 5e-3), "
        f"congruent alt form error = {err_alt:.2e}, "
        f"dynamic residual = {resid:.2e} (tol 1e-3)",
    )
    assert resid < 1e-3
    assert err_main < 5e-3
    assert err_alt < 5e-3
    assert loops_large


def test_criterion_5_conditional_gate():
    J = 1.0 / math.pi
    pj = math.pi * J
    t0 = time.monotonic()
    worst_fid = 1.0
    worst_leak = 0.0
    for d in (2.0, 2.5, 3.0):
        for w in (0.8, 1.1, 1.4):
            p = TwoSpinParams(
                100.0, 80.0, J, RabiParams(100.0, w * pj, 100.0 - d * pj, 0.0)
            )
            r = run_conditional_sequence(p)
            worst_fid = min(worst_fid, r.fidelity)
            worst_leak = max(worst_leak, r.off_diagonal_leakage)
    elapsed = time.monotonic() - t0
    passed = worst_fid >= 0.999 and worst_leak < 1e-3 and elapsed < 300.0
    _report(
        "5 conditional-gate",
        passed,
        f"3x3 spot grid: min fidelity = {worst_fid:.6f} (>= 0.999), "
        f"max off-diagonal = {worst_leak:.2e} (< 1e-3), runtime {elapsed:.0f}s (< 300s)",
    )
    assert worst_fid >= 0.999
    assert worst_leak < 1e-3
    assert elapsed < 300.0


def test_criterion_6_fault_tolerance_peak():
    omega_a, J = 100.0, 1.0 / math.pi
    surf = fault_tolerance_surface(
        omega_a, J, np.linspace(0.2, 3.0, 50), np.linspace(0.1, 5.0, 100)
    )
    rel_slopes = [abs(pk.slope) / pk.delta_gamma for pk in surf.peaks]
    closed_form_err = abs(
        delta_gamma(omega_a, omega_a, math.pi * J, J) - math.pi * math.sqrt(2.0)
    )
    passed = max(rel_slopes) < 1e-6 and closed_form_err < 1e-12
    _report(
        "6 fault-tolerance-peak",
        passed,
        f"50x100 grid: max relative peak slope = {max(rel_slopes):.2e} (< 1e-6), "
        f"|shift(w=wa, w1=piJ) - pi sqrt 2| = {closed_form_err:.1e} (< 1e-12)",
    )
    assert max(rel_slopes) < 1e-6
    assert closed_form_err < 1e-12


def test_criterion_7_frame_and_picture_equivalence():
    rng = np.random.default_rng(7)
    worst_picture = 0.0
    for _ in range(10):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.3, 1.5), rng.uniform(1, 3),
            rng.uniform(0, 2 * math.pi),
        )
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 = v / np.linalg.norm(v)
        dt = 0.004 / math.hypot(p.omega0, p.omega1)
        traj = integrate_schrodinger(psi0, lambda t: hamiltonian_1q(p, t), (0.0, 8.0), dt)
        btraj = integrate_bloch(bloch_of_state(psi0), p, (0.0, 8.0), dt)
        for k in range(0, len(traj.t), 400):
            worst_picture = max(
                worst_picture,
                float(np.max(np.abs(bloch_of_state(traj.psi[k]) - btraj.s[k]))),
            )
    worst_frame = 0.0
    for _ in range(10):
        p = RabiParams(
            rng.uniform(1, 3), rng.uniform(0.2, 1.5), rng.uniform(1, 3),
            rng.uniform(0, 2 * math.pi),
        )
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        lab = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="lab")
        rot = integrate_bloch(s0, p, (0.0, 8.0), 0.002, frame="rotating")
        for k in range(0, len(lab.t), 250):
            back = from_rotating_frame(rot.s[k], p.omega, rot.t[k])
            worst_frame = max(worst_frame, float(np.max(np.abs(back - lab.s[k]))))
    passed = worst_picture < 1e-5 and worst_frame < 1e-6
    _report(
        "7 frame-picture-equivalence",
        passed,
        f"Bloch vs Schrodinger componentwise = {worst_picture:.2e} (< 1e-5), "
        f"lab vs rotating after R_z = {worst_frame:.2e} (< 1e-6)",
    )
    assert worst_picture < 1e-5
    assert worst_frame < 1e-6


def test_criterion_8_gate_algebra():
    rng = np.random.default_rng(8)
    worst_prep = 0.0
    for _ in range(100):
        theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        target = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
        worst_prep = max(worst_prep, 1.0 - abs(np.vdot(target, prepare_network(theta, phi))))
    worst_round = 0.0
    for _ in range(50):
        g = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 4)))
        recon = compose_local_phase_gate(*local_phase_equivalence(g))
        worst_round = max(worst_round, float(np.max(np.abs(recon - g))))
    h_err = float(np.max(np.abs(hadamard() @ hadamard() - np.eye(2))))
    a, b = 0.7, 1.9
    b_err = float(
        np.max(np.abs(controlled_phase(a) @ controlled_phase(b) - controlled_phase(a + b)))
    )
    ok_phase = gate_fidelity(hadamard(), np.exp(0.6j) * hadamard()) >= 1.0 - 1e-12
    passed = (
        worst_prep < 1e-12 and worst_round < 1e-12 and h_err < 1e-12
        and b_err < 1e-12 and ok_phase
    )
    _report(
        "8 gate-algebra",
        passed,
        f"prep-network infidelity = {worst_prep:.1e} (< 1e-12), "
        f"local-phase round trip = {worst_round:.1e} (< 1e-12), "
        f"H^2 and B composition = {max(h_err, b_err):.1e} (< 1e-12)",
    )
    assert worst_prep < 1e-12
    assert worst_round < 1e-12
    assert h_err < 1e-12
    assert b_err < 1e-12
    assert ok_phase


def test_criterion_9_negative_control(capsys):
    # a deliberately fast sweep must be caught and must spoil the cone phase
    theta = math.pi / 3
    p = cone_params(theta)
    r = run_cone_loop(p, ramp_time=1.0, sweep_time=5.0, dt=0.002)
    gamma_err = abs(r.decomposition.geometric - r.expected_geometric)
    detected = not r.adiabatic_ok
    code = cli_main(["verify", "--diabatic"])
    out = capsys.readouterr().out
    cli_failed = code == 1 and "FAIL adiabaticity" in out
    passed = detected and gamma_err > 0.05 and cli_failed
    with capsys.disabled():
        _report(
            "9 negative-control",
            passed,
            f"diabatic closure fidelity = {r.closure_fidelity:.3f} (< 0.999 flagged), "
            f"gamma error = {gamma_err:.2f} rad (> 0.05), verify --diabatic exit = {code}",
        )
    assert detected
    assert gamma_err > 0.05
    assert cli_failed
