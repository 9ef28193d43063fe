"""Command-line interface: single simulations, the spin echo, the two-spin
conditional gate, the differential-shift surface sweep, and the verification
suite.

All angular frequencies are rad/s, J is in Hz, phases in rad, hbar = 1.
Every report echoes the fully resolved configuration so runs are
reproducible; identical configurations produce byte-identical CSV output.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from .bloch import RabiParams
from .gates import compose_local_phase_gate, gate_fidelity, local_phase_equivalence
from .phase import circle_distance, wrap_to_pi
from .schrodinger import TwoSpinParams
from .sequences import (
    SAMPLE_RESOLUTION,
    AdiabaticityError,
    default_times_1q,
    default_times_2q,
    fault_tolerance_surface,
    measure_cone_phase,
    resolve_times,
    run_conditional_sequence,
    run_spin_echo_1q,
    write_peaks_csv,
    write_surface_csv,
)
from . import checks as checks_mod


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_config_file(path: str) -> dict[str, str]:
    """Plain `key = value` defaults file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key = value): {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _echo_config(args: argparse.Namespace, keys: list[str]) -> str:
    lines = ["# configuration (resolved):"]
    for key in keys:
        lines.append(f"#   {key} = {getattr(args, key)}")
    lines.append("# units: angular frequencies rad/s, J Hz, phases rad, times s; hbar = 1")
    return "\n".join(lines)


def _resolve_times(args, default_times) -> tuple[float, float, float]:
    """The ramp, sweep and dt of args, resolved against default_times and
    written back to args for the echoed configuration."""
    args.ramp_time, args.sweep_time, args.dt = resolve_times(
        default_times, args.ramp_time, args.sweep_time, args.dt, args.sweep_factor
    )
    return args.ramp_time, args.sweep_time, args.dt


def cmd_simulate(args) -> int:
    p = RabiParams(args.omega0, args.omega1, args.omega, args.phi)
    ramp, sweep, dt = _resolve_times(args, partial(default_times_1q, p))
    m = measure_cone_phase(p, ramp, sweep, dt, check=True)
    run = m.forward if args.orientation == "forward" else m.reversed

    with open(args.output, "w") as fh:
        fh.write("t,sx,sy,sz,re0,im0,re1,im1\n")
        for t, psi in zip(run.times, run.states):
            a, b = psi
            n2 = (abs(a) ** 2 + abs(b) ** 2)
            sx = 2.0 * (a.conjugate() * b).real / n2
            sy = 2.0 * (a.conjugate() * b).imag / n2
            sz = (abs(a) ** 2 - abs(b) ** 2) / n2
            fh.write(
                ",".join(_fmt(v) for v in (t, sx, sy, sz, a.real, a.imag, b.real, b.imag))
                + "\n"
            )

    print("# simulate report")
    print(_echo_config(args, ["omega0", "omega1", "omega", "phi", "orientation",
                              "ramp_time", "sweep_time", "dt", "output"]))
    d = run.decomposition
    print(f"total_phase_rad        = {_fmt(d.total)}")
    print(f"dynamic_phase_rad      = {_fmt(d.dynamic)}")
    print(f"geometric_phase_rad    = {_fmt(d.geometric)}")
    print(f"geometric_symmetrized  = {_fmt(m.geometric if args.orientation == 'forward' else -m.geometric)}")
    print(f"geometric_holonomy_rad = {_fmt(run.geometric_holonomy)}")
    if p.omega1 > 0.0:
        print(f"cone_angle_rad         = {_fmt(run.theta)}")
        print(f"cone_angle_measured    = {_fmt(run.theta_measured)}")
        print(f"closed_form_rad        = {_fmt(run.expected_geometric)}")
    print(f"closure_fidelity       = {_fmt(run.closure_fidelity)}")
    print(f"norm_drift             = {_fmt(run.norm_drift)}")
    print(f"trajectory_rows        = {len(run.times)}")
    return 0


def cmd_echo(args) -> int:
    p = RabiParams(args.omega0, args.omega1, args.omega, args.phi)
    ramp, sweep, dt = _resolve_times(args, partial(default_times_1q, p))
    e = run_spin_echo_1q(p, ramp, sweep, dt, pi_pulse_duration=args.pi_pulse_duration,
                         check=True)

    print("# spin-echo report")
    print(_echo_config(args, ["omega0", "omega1", "omega", "phi", "ramp_time",
                              "sweep_time", "dt", "pi_pulse_duration"]))
    print(f"cone_angle_rad            = {_fmt(e.theta)}")
    for label, dec, loops in (
        ("up", e.up, e.loop_dynamics[0]),
        ("down", e.down, e.loop_dynamics[1]),
    ):
        print(f"{label}_total_rad".ljust(26) + f"= {_fmt(dec.total)}")
        print(f"{label}_dynamic_rad".ljust(26) + f"= {_fmt(dec.dynamic)}")
        print(f"{label}_loop_dynamics_rad".ljust(26) + f"= {_fmt(loops[0])}, {_fmt(loops[1])}")
    print(f"phase_difference_rad      = {_fmt(e.phase_difference)}")
    print(f"expected_4pi_1_minus_cos  = {_fmt(e.expected_difference)}")
    print(f"congruent_minus_4pi_cos   = {_fmt(e.expected_difference_alt)}")
    print(f"difference_error_mod_2pi  = {_fmt(circle_distance(e.phase_difference, e.expected_difference))}")
    print(f"dynamic_residual_rad      = {_fmt(e.dynamic_residual)}")
    print(f"closure_fidelities        = {_fmt(e.closure_fidelities[0])}, {_fmt(e.closure_fidelities[1])}")
    return 0


def cmd_conditional(args) -> int:
    pj = math.pi * args.coupling
    omega = args.omega if args.omega is not None else args.omega_a - args.detuning * pj
    omega1 = args.omega1 if args.omega1 is not None else args.amplitude * pj
    args.omega, args.omega1 = omega, omega1
    p = TwoSpinParams(
        args.omega_a, args.omega_b, args.coupling,
        RabiParams(args.omega_a, omega1, omega, 0.0),
    )
    ramp, sweep, dt = _resolve_times(args, partial(default_times_2q, p))

    r = run_conditional_sequence(
        p, ramp, sweep, dt,
        drive_on_b=args.drive_on_b,
        pi_pulse_duration=args.pi_pulse_duration,
        check=True,
    )

    print("# conditional-gate report")
    print(_echo_config(args, ["omega_a", "omega_b", "coupling", "omega", "omega1",
                              "ramp_time", "sweep_time", "dt", "drive_on_b",
                              "pi_pulse_duration"]))
    print(f"delta_gamma_rad        = {_fmt(r.delta_gamma)}")
    print(f"cone_angles_rad        = {_fmt(r.theta_plus)}, {_fmt(r.theta_minus)}")
    print(f"gate_fidelity          = {_fmt(r.fidelity)}")
    print(f"off_diagonal_leakage   = {_fmt(r.off_diagonal_leakage)}")
    print(f"dynamic_residual_rad   = {_fmt(r.dynamic_residual)}")
    print(f"closure_fidelities     = " + ", ".join(_fmt(f) for f in r.closure_fidelities))
    diag_phases = np.angle(np.diag(r.gate))
    print(f"gate_diag_phases_rad   = " + ", ".join(_fmt(v) for v in diag_phases))
    target_rel = [wrap_to_pi(v - diag_phases[0] + 2.0 * r.delta_gamma) for v in diag_phases]
    expect_rel = [2.0 * r.delta_gamma, -2.0 * r.delta_gamma, -2.0 * r.delta_gamma, 2.0 * r.delta_gamma]
    errs = [circle_distance(a, b) for a, b in zip(target_rel, expect_rel)]
    print(f"pattern_error_mod_2pi  = {_fmt(max(errs))}")
    phi_a, phi_b, phi_gate, glob = local_phase_equivalence(np.diag(np.diag(r.gate)))
    print(f"equivalent_cphase_rad  = {_fmt(phi_gate)} (8*delta_gamma = {_fmt(wrap_to_pi(8.0 * r.delta_gamma))} mod 2pi)")
    recon = compose_local_phase_gate(phi_a, phi_b, phi_gate, glob)
    print(f"decomposition_fidelity = {_fmt(gate_fidelity(recon, np.diag(np.diag(r.gate))))}")
    return 0


def cmd_sweep(args) -> int:
    # An infinite bound makes nan grid values, which fault_tolerance_surface rejects.
    with np.errstate(invalid="ignore"):
        det = np.linspace(args.detuning_min, args.detuning_max, args.detuning_count)
        amp = np.linspace(args.omega1_min, args.omega1_max, args.omega1_count)
    surface = fault_tolerance_surface(args.omega_a, args.coupling, det, amp)
    write_surface_csv(surface, args.output)
    peaks_path = args.peaks_output or (args.output + ".peaks.csv")
    args.peaks_output = peaks_path
    write_peaks_csv(surface, peaks_path)

    print("# differential-shift sweep report")
    print(_echo_config(args, ["omega_a", "coupling", "detuning_min", "detuning_max",
                              "detuning_count", "omega1_min", "omega1_max",
                              "omega1_count", "output", "peaks_output"]))
    print(f"rows_written = {det.size * amp.size}")
    print("# per-detuning peak: detuning/piJ, omega1*/piJ, shift_rad, d(shift)/d(omega1/piJ)")
    for pk in surface.peaks:
        flag = ""
        if pk.boundary:
            flag = (" (zero-amplitude boundary)" if pk.omega1_over_piJ == 0.0
                    else " (grid-edge: not stationary)")
        print(
            f"peak {_fmt(pk.detuning_over_piJ)}: omega1* = {_fmt(pk.omega1_over_piJ)}, "
            f"shift = {_fmt(pk.delta_gamma)}, slope = {_fmt(pk.slope)}{flag}"
        )
    return 0


def cmd_verify(args) -> int:
    if args.list:
        for name in checks_mod.check_names():
            print(name)
        return 0
    cfg = checks_mod.VerifyConfig(seed=args.seed, diabatic=args.diabatic)
    print("# verification report")
    print(_echo_config(args, ["seed", "diabatic"]))
    failures = 0
    for res, seconds in checks_mod.run_all(cfg):
        status = "PASS" if res.passed else "FAIL"
        detail = f"  [{res.detail}]" if res.detail else ""
        print(
            f"{status} {res.name}: measured = {res.measured:.3e}, "
            f"tolerance = {res.tolerance:.3e}{detail}  ({seconds:.3f} s)"
        )
        failures += 0 if res.passed else 1
    print(f"# {len(checks_mod.check_names()) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


def _add_drive_args(sp, defaults):
    sp.add_argument("--omega0", type=float, default=defaults.get("omega0", 5.0),
                    help="transition frequency (rad/s)")
    sp.add_argument("--omega1", type=float, default=defaults.get("omega1", 1.0),
                    help="drive amplitude (rad/s)")
    sp.add_argument("--omega", type=float, default=defaults.get("omega", 4.0),
                    help="drive frequency (rad/s)")
    sp.add_argument("--phi", type=float, default=defaults.get("phi", 0.0),
                    help="drive phase (rad)")
    _add_schedule_args(sp, defaults)


def _add_schedule_args(sp, defaults):
    sp.add_argument("--ramp-time", type=float, default=defaults.get("ramp_time"),
                    help="amplitude ramp duration (s); default the sweep time times "
                         "the default ramp/sweep ratio (1/5 for one spin)")
    sp.add_argument("--sweep-time", type=float, default=defaults.get("sweep_time"),
                    help="phase sweep duration (s); default 500/|Omega'|")
    sp.add_argument("--sweep-factor", type=float, default=defaults.get("sweep_factor", 1.0),
                    help="scale the default sweep and ramp times together "
                         "(adiabaticity knob)")
    sp.add_argument("--dt", type=float, default=defaults.get("dt"),
                    help=f"integrator step (s); default {SAMPLE_RESOLUTION:g}/|Omega'|max")


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _config_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    try:
        return _BOOLEANS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"{key} must be true or false, not {value!r}") from None


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  defaults (from a config file) replace the
    built-in defaults; string values go through each argument's own type,
    as a flag's value would."""
    defaults = defaults or {}
    parser = argparse.ArgumentParser(
        prog="berrygate",
        description="Adiabatic geometric-phase gate simulator and verifier",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key = value file supplying defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="one adiabatic cone loop, trajectory CSV + phases")
    _add_drive_args(sp, defaults)
    sp.add_argument("--orientation", choices=["forward", "reversed"],
                    default=defaults.get("orientation", "forward"))
    sp.add_argument("--output", default=defaults.get("output", "trajectory.csv"))
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("echo", help="single-spin spin-echo sequence")
    _add_drive_args(sp, defaults)
    sp.add_argument("--pi-pulse-duration", type=float,
                    default=defaults.get("pi_pulse_duration", 0.0),
                    help="finite pi-pulse duration (s); 0 = ideal instantaneous")
    sp.set_defaults(fn=cmd_echo)

    sp = sub.add_parser("conditional", help="two-spin eight-step conditional sequence")
    sp.add_argument("--omega-a", type=float, default=defaults.get("omega_a", 100.0))
    sp.add_argument("--omega-b", type=float, default=defaults.get("omega_b", 80.0))
    sp.add_argument("--coupling", type=float, default=defaults.get("coupling", 1.0 / math.pi),
                    help="scalar coupling J (Hz)")
    sp.add_argument("--detuning", type=float, default=defaults.get("detuning", 2.0),
                    help="(omega_a - omega) in units of pi*J (ignored if --omega given)")
    sp.add_argument("--amplitude", type=float, default=defaults.get("amplitude", 1.2),
                    help="omega1 in units of pi*J (ignored if --omega1 given)")
    sp.add_argument("--omega", type=float, default=defaults.get("omega"))
    sp.add_argument("--omega1", type=float, default=defaults.get("omega1"))
    sp.add_argument("--drive-on-b", action="store_true",
                    default=_config_bool("drive_on_b", defaults.get("drive_on_b", False)),
                    help="also couple the rotating field to spin b (oracle variant)")
    sp.add_argument("--pi-pulse-duration", type=float,
                    default=defaults.get("pi_pulse_duration", 0.0))
    _add_schedule_args(sp, defaults)
    sp.set_defaults(fn=cmd_conditional)

    sp = sub.add_parser("sweep", help="differential-shift surface over (detuning, omega1)")
    sp.add_argument("--omega-a", type=float, default=defaults.get("omega_a", 100.0))
    sp.add_argument("--coupling", type=float, default=defaults.get("coupling", 1.0 / math.pi))
    sp.add_argument("--detuning-min", type=float, default=defaults.get("detuning_min", 0.2))
    sp.add_argument("--detuning-max", type=float, default=defaults.get("detuning_max", 3.0))
    sp.add_argument("--detuning-count", type=int, default=defaults.get("detuning_count", 50))
    sp.add_argument("--omega1-min", type=float, default=defaults.get("omega1_min", 0.1))
    sp.add_argument("--omega1-max", type=float, default=defaults.get("omega1_max", 5.0))
    sp.add_argument("--omega1-count", type=int, default=defaults.get("omega1_count", 100))
    sp.add_argument("--output", default=defaults.get("output", "surface.csv"))
    sp.add_argument("--peaks-output", default=defaults.get("peaks_output"))
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="run the invariant check suite")
    sp.add_argument("--list", action="store_true", help="list checks without running")
    sp.add_argument("--diabatic", action="store_true",
                    help="deliberately violate adiabaticity (negative control)")
    sp.add_argument("--seed", type=int, default=defaults.get("seed", 20260809))
    sp.set_defaults(fn=cmd_verify)
    return parser


def _validate(args) -> None:
    # argparse checks choices on flags only, not on config-file defaults
    if getattr(args, "orientation", "forward") not in ("forward", "reversed"):
        raise ValueError(f"orientation must be forward or reversed, not {args.orientation!r}")
    for key in ("detuning_count", "omega1_count"):
        val = getattr(args, key, None)
        if val is not None and val < 2:
            raise ValueError(f"{key.replace('_', '-')} must be at least 2")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Pre-scan for --config so file values become parser defaults; explicit
    # flags still override them.  Like the parser, it reads --config only
    # before the subcommand: the subcommand and all after it go to `command`.
    pre = argparse.ArgumentParser(prog="berrygate", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs=argparse.REMAINDER)
    config = pre.parse_known_args(argv)[0].config
    try:
        parser = build_parser(_read_config_file(config) if config else None)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.fn(args)
    except (ValueError, AdiabaticityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
