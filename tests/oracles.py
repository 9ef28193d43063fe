"""Test-only oracles: closed forms and stepwise reference computations that
the tests check the package against.  Nothing in `berrygate` uses them, and
they are written out independently of the package's vectorized Hamiltonian
builders, so that an agreement means something.
"""

import math

import numpy as np

from berrygate import engine, sequences
from berrygate.bloch import RabiParams
from berrygate.schrodinger import (
    SchrodingerTrajectory,
    TwoSpinParams,
    drive_hamiltonian_2q,
    hamiltonian_2q,
)
from berrygate.sequences import delta_gamma


def rotating_hamiltonian_1q(p: RabiParams) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at the drive
    frequency: (1/2) Omega' . sigma with Omega' = (w1 cos phi, w1 sin phi, w0 - w)."""
    return _rotating_hamiltonian(p.omega0 - p.omega, p.omega1, p.phi)


def _rotating_hamiltonian(detuning, omega1, phi) -> np.ndarray:
    """(1/2) [[detuning, omega1 e^{-i phi}], [omega1 e^{+i phi}, -detuning]],
    (..., 2, 2) for arrays of the three controls."""
    off = 0.5 * omega1 * np.exp(-1j * phi)
    return np.moveaxis(
        np.array([[0.5 * detuning, off], [np.conj(off), -0.5 * detuning]], dtype=complex),
        (0, 1), (-2, -1),
    )


def hamiltonian_2q_full(p: TwoSpinParams, t, drive_on_b: bool = False) -> np.ndarray:
    """Oracle: the lab-frame two-spin Hamiltonian at time t, the static part
    plus the rotating drive, as one dense 4x4 matrix, or (..., 4, 4) for an
    array of times.  The drive is addressed to spin a; with drive_on_b the
    same field also reaches spin b (off resonance)."""
    h = hamiltonian_2q(p) + drive_hamiltonian_2q(p, t)
    if drive_on_b:
        d = p.drive
        arg = (d.omega * np.asarray(t, dtype=float) + d.phi)[..., None, None]
        h = h + d.omega1 * (np.cos(arg) * _SPIN_B["x"] + np.sin(arg) * _SPIN_B["y"])
    return h


def spinor_of_direction(theta: float, alpha: float) -> np.ndarray:
    """Spin-half state cos(theta/2)|up> + sin(theta/2) e^{i alpha}|down>
    pointing along the Bloch direction (theta, alpha)."""
    return np.array(
        [math.cos(0.5 * theta), math.sin(0.5 * theta) * np.exp(1j * alpha)],
        dtype=complex,
    )


def hamiltonian_of_schedule_1q(omega0: float, schedule):
    """Rotating-frame Hamiltonian H(t) of a single-qubit schedule, for the
    stepwise integrators: (2, 2) at a scalar t, (..., 2, 2) for an array of
    times, each time read from the segment it falls in."""
    starts = np.cumsum([0.0] + [seg.duration for seg in schedule.segments])

    def h_of_t(t) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, starts[-1])
        seg_of = np.clip(np.searchsorted(starts, t) - 1, 0, len(starts) - 2)
        controls = np.zeros((3,) + t.shape)
        for i, seg in enumerate(schedule.segments):
            here = seg_of == i
            controls[:, here] = seg.controls_at(t[here] - starts[i])
        w1, om, ph = controls
        return _rotating_hamiltonian(omega0 - om, w1, ph)

    return h_of_t


def bloch_derivative(s: np.ndarray, omega_vec: np.ndarray) -> np.ndarray:
    """Right-hand side Omega x s of the precession equation."""
    return np.cross(omega_vec, s)


def lab_rabi_vector(p: RabiParams, t: float) -> np.ndarray:
    """Lab-frame Rabi vector (omega1 cos(wt+phi), omega1 sin(wt+phi), omega0)."""
    arg = p.omega * t + p.phi
    return np.array([p.omega1 * np.cos(arg), p.omega1 * np.sin(arg), p.omega0])


def rk4_bloch(s0, p: RabiParams, t_span, dt, frame="lab"):
    """Oracle: fixed-step RK4 for ds/dt = Omega(t) x s in vector form, with
    `np.cross` on numpy 3-vectors, on the step grid of `integrate_bloch`.
    Returns the (n+1, 3) states."""
    if frame == "lab":
        field = lambda t: lab_rabi_vector(p, t)
    else:
        static = np.array(
            [p.omega1 * np.cos(p.phi), p.omega1 * np.sin(p.phi), p.omega0 - p.omega]
        )
        field = lambda t: static
    n = max(1, int(round((t_span[1] - t_span[0]) / dt)))
    h = (t_span[1] - t_span[0]) / n
    out = [np.array(s0, dtype=float)]
    for t in t_span[0] + h * np.arange(n):
        s = out[-1]
        k1 = bloch_derivative(s, field(t))
        k2 = bloch_derivative(s + 0.5 * h * k1, field(t + 0.5 * h))
        k3 = bloch_derivative(s + 0.5 * h * k2, field(t + 0.5 * h))
        k4 = bloch_derivative(s + h * k3, field(t + h))
        out.append(s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


def rk4_schrodinger_by_stages(psi0, h_of_t, t_span, dt) -> SchrodingerTrajectory:
    """Oracle for `integrate_schrodinger`, same arguments and grid: the four
    RK4 stages of each step applied to the state, with three h_of_t calls
    per step.  No step-size guard."""
    psi0 = np.asarray(psi0, dtype=complex)
    cols = psi0.reshape(len(psi0), -1)
    n = max(1, int(round((t_span[1] - t_span[0]) / dt)))
    h = (t_span[1] - t_span[0]) / n
    times = t_span[0] + h * np.arange(n + 1)
    psi, out = cols, [cols]
    for t in times[:-1].tolist():
        h1, hm, h2 = h_of_t(t), h_of_t(t + 0.5 * h), h_of_t(t + h)
        k1 = -1j * h1 @ psi
        k2 = -1j * hm @ (psi + 0.5 * h * k1)
        k3 = -1j * hm @ (psi + 0.5 * h * k2)
        k4 = -1j * h2 @ (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(psi)
    states = np.array(out)
    if psi0.ndim == 1:
        return SchrodingerTrajectory(t=times, psi=states[:, :, 0])
    return SchrodingerTrajectory(t=times, psi=states)


def dynamic_phase(times: np.ndarray, states: np.ndarray, h_of_t) -> float:
    """Dynamic phase -int <psi(t)|H(t)|psi(t)> dt by trapezoidal quadrature
    over the sampled trajectory (second order in the sample spacing)."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if len(times) < 2:
        raise ValueError("need at least 2 trajectory samples")
    energies = np.empty(len(times))
    for k, (t, psi) in enumerate(zip(times, states)):
        energies[k] = np.vdot(psi, h_of_t(t) @ psi).real
    return float(-np.trapezoid(energies, times))


def surface_by_points(omega_a: float, J: float, detuning, omega1) -> np.ndarray:
    """Oracle: the fault-tolerance surface by one scalar `delta_gamma` call
    per grid point, detuning outer, both axes in units of pi*J."""
    pj = math.pi * J
    return np.array(
        [[delta_gamma(omega_a, omega_a - d * pj, abs(w) * pj, J) for w in omega1]
         for d in detuning]
    )


def slerp_by_points(a, b, n):
    """Oracle: n points of the great-circle arc from unit vector a towards b,
    endpoint excluded, one point at a time with `math.sin`."""
    ang = math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    ts = np.linspace(0.0, 1.0, n, endpoint=False)
    return np.array(
        [(math.sin((1 - t) * ang) * a + math.sin(t * ang) * b) / math.sin(ang) for t in ts]
    )


def write_surface_csv_by_points(surface, path) -> None:
    """Oracle: the surface CSV written one f-string and one write per grid
    point."""
    with open(path, "w") as fh:
        fh.write("detuning_over_piJ,omega1_over_piJ,delta_gamma_rad\n")
        for i, d in enumerate(surface.detuning_over_piJ):
            for j, w in enumerate(surface.omega1_over_piJ):
                fh.write(f"{d:.12g},{w:.12g},{surface.delta_gamma[i, j]:.12g}\n")


def rk4_propagate_sampled(model, controls, n_steps, dt, u0, steps_per_sample):
    """Oracle for `engine.propagate_sampled`, same arguments (but no sample
    maps) and samples: batched RK4 maps (`engine.rk4_transition_matrices`,
    under the step guard `engine._check_spread`) of the dense stack
    model(tau, *controls(tau)) on the half-step grid of local times tau,
    read as complex maps off their real forms and applied to the state one
    step at a time, sampling every steps_per_sample steps.  `plan_afresh`
    runs a plan on it."""
    if n_steps % steps_per_sample:
        raise ValueError(
            f"steps_per_sample {steps_per_sample} does not divide n_steps {n_steps}"
        )
    engine._check_spread(model, controls, 0.0, n_steps, dt)
    nodes = 0.5 * dt * np.arange(2 * n_steps + 1)
    real_steps = engine.rk4_transition_matrices(model(nodes, *controls(nodes)), dt)
    d = real_steps.shape[-1] // 2
    steps = real_steps[:, :d, :d] + 1j * real_steps[:, d:, :d]
    u = np.asarray(u0, dtype=complex)
    samples, ends = [u], [0]
    for k, step in enumerate(steps, 1):
        u = step @ u
        if k % steps_per_sample == 0:
            samples.append(u)
            ends.append(k)
    return np.array(ends) * dt, np.array(samples)


def plan_afresh(plan, propagate, model, planned, u0=None):
    """Oracle for `sequences._run_plan`: (final, total, dynamic, states) of
    the plan run from the columns u0 (the identity if None) as `_run_plan`
    ran it to planned (its `_PlanResult`), with every segment use
    propagated afresh by propagate (`engine.propagate_sampled` or
    `rk4_propagate_sampled`) at the step count and stride that use took;
    states holds the samples (S, d, m) of each use.  model is the dense
    stack (times, w1, om, ph) -> (n, d, d) at absolute times, in the frame
    of the reports, or an `engine.SectorField` of it; each use propagates
    it at its own start time t0, as model(t0 + tau, ...).  The energies are
    <psi|H|psi> of that stack, and the ledger reads the states themselves."""
    u = np.eye(len(planned.final), dtype=complex) if u0 is None else np.asarray(u0, dtype=complex)
    u, t0 = u.reshape(len(u), -1), 0.0
    ledger, dynamic = sequences._PhaseLedger(u), np.zeros(u.shape[1])
    cols, books = np.arange(u.shape[1]), []
    uses = iter(planned.books)
    for kind, item in plan:
        if kind == "pulse":
            u = item @ u
            ledger.after_pulse(u)
            continue
        book = next(uses)
        steps = planned.block * book.stride
        n = steps * (len(book.times) - 1)
        tau, states = propagate(_started_at(model, t0), item.controls_at, n,
                                item.duration / n, u, steps)
        times = t0 + tau
        h = model(times, *item.controls_at(tau))
        energies = np.einsum("sdm,sdm->sm", states.conj(), h @ states).real
        ledger.update(states[:, ledger.ref, cols],
                      -sequences._cumulative_trapezoid(energies, times), states[-1])
        dynamic -= sequences._simpson(energies, steps * item.duration / n)
        books.append(states)
        u, t0 = states[-1], t0 + item.duration
    return u, ledger.total, dynamic, books


def _started_at(model, t0):
    """model, which reads absolute times, as a function of the local time
    tau of a run that starts at t0."""
    if isinstance(model, engine.SectorField):
        return engine.SectorField(_started_at(model.field, t0), model.rows, model.dim)
    return lambda tau, *controls: model(t0 + tau, *controls)


_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1j], [1j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_SPIN_A = {k: np.kron(0.5 * s, np.eye(2)) for k, s in _SIGMA.items()}
_SPIN_B = {k: np.kron(np.eye(2), 0.5 * s) for k, s in _SIGMA.items()}


def drive_on_b_hamiltonian(p: TwoSpinParams):
    """Oracle: (times, w1, om, ph) -> (n, 4, 4) Hamiltonian of the drive on
    both spins in the frame of the reports, spin a turning at om and spin b
    at omega_b, from the spin operators:

        (w_a - om) S_az + 2 pi J S_az S_bz + w1 (cos ph S_ax + sin ph S_ay)
        + w1 (cos al S_bx + sin al S_by),   al = ph + (om - w_b) t."""

    def h(times, w1, om, ph):
        times = np.asarray(times, dtype=float)
        w1, om, ph = (np.broadcast_to(c, times.shape) for c in (w1, om, ph))
        al = ph + (om - p.omega_b) * times
        terms = [
            (p.omega_a - om, _SPIN_A["z"]),
            (np.full(times.shape, 2.0 * math.pi * p.J), _SPIN_A["z"] @ _SPIN_B["z"]),
            (w1 * np.cos(ph), _SPIN_A["x"]),
            (w1 * np.sin(ph), _SPIN_A["y"]),
            (w1 * np.cos(al), _SPIN_B["x"]),
            (w1 * np.sin(al), _SPIN_B["y"]),
        ]
        return sum(c[:, None, None] * op for c, op in terms)

    return h
