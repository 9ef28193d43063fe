import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import berrygate
from berrygate.bloch import RabiParams
from berrygate.checks import VerifyConfig, check_names
from berrygate.cli import main
from berrygate.schrodinger import TwoSpinParams
from berrygate.sequences import (
    SAMPLE_RESOLUTION,
    default_times_1q,
    default_times_2q,
    delta_gamma,
    fault_tolerance_surface,
    resolve_times,
)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_value(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key):
            return float(line.split("=", 1)[1].strip().split()[0])
    raise KeyError(key)


def cone_args(theta, omega0=5.0, omega1=1.0):
    return ["--omega0", str(omega0), "--omega1", str(omega1),
            "--omega", str(omega0 - omega1 / math.tan(theta))]


def test_simulate_cone_report_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", *cone_args(math.pi / 3), "--output", str(out_csv)
    )
    assert code == 0
    gamma = report_value(out, "geometric_symmetrized")
    assert abs(gamma - (-math.pi / 2)) < 1e-3
    assert "omega0 = 5.0" in out  # config echoed
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,sx,sy,sz,re0,im0,re1,im1"
    assert len(lines) > 100
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.0
    # starts in the aligned eigenstate near the north pole
    assert float(first[3]) > 0.99


def test_simulate_zero_amplitude_reports_zero_gamma(tmp_path, capsys):
    out_csv = tmp_path / "idle.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--omega0", "5.0", "--omega1", "0.0", "--omega", "4.0",
        "--sweep-time", "50.0", "--dt", "0.01", "--output", str(out_csv),
    )
    assert code == 0
    assert abs(report_value(out, "geometric_phase_rad")) < 1e-6


def test_simulate_rate_independent_report(tmp_path, capsys):
    args = cone_args(math.pi / 3) + ["--output", str(tmp_path / "a.csv")]
    _, out1, _ = run_cli(capsys, "simulate", *args)
    _, out2, _ = run_cli(capsys, "simulate", *args, "--sweep-factor", "2.0")
    g1 = report_value(out1, "geometric_symmetrized")
    g2 = report_value(out2, "geometric_symmetrized")
    d1 = report_value(out1, "dynamic_phase_rad")
    d2 = report_value(out2, "dynamic_phase_rad")
    assert abs(g1 - g2) < 1e-3
    assert abs(d1 - d2) > 1.0


def test_sweep_minimal_grid(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--detuning-count", "2", "--omega1-count", "2",
        "--output", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0] == "detuning_over_piJ,omega1_over_piJ,delta_gamma_rad"
    assert (tmp_path / "s.csv.peaks.csv").exists()
    # deterministic: identical config gives byte-identical output
    out_csv2 = tmp_path / "s2.csv"
    run_cli(capsys, "sweep", "--detuning-count", "2", "--omega1-count", "2",
            "--output", str(out_csv2))
    assert out_csv.read_bytes() == out_csv2.read_bytes()


def test_sweep_peak_slopes_reported(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--detuning-count", "5", "--omega1-count", "30",
        "--output", str(tmp_path / "s.csv"),
    )
    assert code == 0
    peaks = (tmp_path / "s.csv.peaks.csv").read_text().splitlines()[1:]
    for row in peaks:
        fields = row.split(",")
        assert abs(float(fields[3])) < 1e-6 * float(fields[2])


def test_sweep_flags_a_peak_beyond_the_grid(tmp_path, capsys):
    # both rows still rise at omega1 = 0.5, so their peaks lie beyond the grid
    code, out, _ = run_cli(
        capsys, "sweep", "--detuning-count", "2", "--omega1-count", "5",
        "--detuning-min", "2.5", "--detuning-max", "3", "--omega1-max", "0.5",
        "--output", str(tmp_path / "s.csv"),
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("peak ")]
    assert len(lines) == 2
    for line in lines:
        assert "omega1* = 0.5," in line
        assert line.endswith(" (grid-edge: not stationary)")
    peaks = (tmp_path / "s.csv.peaks.csv").read_text().splitlines()[1:]
    for row in peaks:
        fields = row.split(",")
        assert fields[1] == "0.5" and fields[4] == "1"
        assert float(fields[3]) > 0.0


@pytest.mark.parametrize("coupling", [0.7, -0.45])
def test_sweep_csv_is_the_scalar_api_at_every_point(tmp_path, capsys, coupling):
    omega_a, pj = 57.5, math.pi * coupling
    det, amp = np.linspace(-2.5, 3.5, 23), np.linspace(0.05, 4.0, 37)
    # The grid takes roots on which np.hypot and math.hypot differ.
    plus, w1 = omega_a + pj - (omega_a - det[:, None] * pj), amp * pj
    assert np.any(np.hypot(plus, w1) != np.frompyfunc(math.hypot, 2, 1)(plus, w1))
    out_csv = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--omega-a", str(omega_a), "--coupling", str(coupling),
        "--detuning-min", "-2.5", "--detuning-max", "3.5", "--detuning-count", "23",
        "--omega1-min", "0.05", "--omega1-max", "4.0", "--omega1-count", "37",
        "--output", str(out_csv),
    )
    assert code == 0
    want = [
        f"{d:.12g},{w:.12g},"
        f"{delta_gamma(omega_a, omega_a - d * pj, w * pj, coupling):.12g}"
        for d in det.tolist() for w in amp.tolist()
    ]
    assert out_csv.read_text().splitlines()[1:] == want
    peaks = fault_tolerance_surface(omega_a, coupling, det, amp).peaks
    want_peaks = [
        f"{pk.detuning_over_piJ:.12g},{pk.omega1_over_piJ:.12g},"
        f"{pk.delta_gamma:.12g},{pk.slope:.12g},{int(pk.boundary)}"
        for pk in peaks
    ]
    assert (tmp_path / "s.csv.peaks.csv").read_text().splitlines()[1:] == want_peaks


@pytest.mark.parametrize("flag, value", [
    ("--detuning-max", "inf"), ("--omega1-min", "nan"), ("--omega-a", "inf"), ("--coupling", "nan"),
])
def test_sweep_with_a_non_finite_value_exits_2(tmp_path, capsys, flag, value):
    out_csv = tmp_path / "s.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--detuning-count", "3", "--omega1-count", "4", flag, value,
        "--output", str(out_csv),
    )
    assert code == 2
    assert out == ""
    assert err == "error: grid values, omega_a and J must be finite\n"
    assert not out_csv.exists()


NON_FINITE_TIMES = [
    ("simulate", "ramp-time", "inf"), ("simulate", "sweep-time", "nan"),
    ("simulate", "dt", "nan"), ("simulate", "dt", "inf"), ("simulate", "sweep-factor", "nan"),
    ("echo", "sweep-factor", "inf"), ("echo", "pi-pulse-duration", "nan"),
    ("conditional", "sweep-time", "inf"), ("conditional", "pi-pulse-duration", "inf"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", NON_FINITE_TIMES)
def test_non_finite_time_exits_2(tmp_path, capsys, source, command, key, value):
    out_csv = tmp_path / "t.csv"
    output = ["--output", str(out_csv)] if command == "simulate" else []
    if source == "flag":
        argv = [command, f"--{key}", value, *output]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('-', '_')} = {value}\n")
        argv = ["--config", str(cfg), command, *output]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {key} must be finite\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "dt", "0", "dt must be positive"),
    ("echo", "ramp-time", "-1", "ramp-time must be positive"),
    ("echo", "pi-pulse-duration", "-1", "pi-pulse-duration must be nonnegative"),
    ("conditional", "pi-pulse-duration", "-1", "pi-pulse-duration must be nonnegative"),
    ("conditional", "sweep-factor", "0", "sweep-factor must be positive"),
])
def test_out_of_range_time_exits_2(tmp_path, capsys, command, key, value, message):
    # the message is the API's own: the runs check their times
    out_csv = tmp_path / "t.csv"
    output = ["--output", str(out_csv)] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, f"--{key}", value, *output)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_csv.exists()


def test_a_negative_seed_exits_2(tmp_path, capsys):
    # the API's own check (`VerifyConfig`), by flag and by config file
    (tmp_path / "run.cfg").write_text("seed = -5\n")
    for argv in (["verify", "--seed", "-1"], ["--config", str(tmp_path / "run.cfg"), "verify"]):
        assert run_cli(capsys, *argv) == (2, "", "error: seed must be a non-negative integer\n")
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        VerifyConfig(seed=-1)


@pytest.mark.parametrize("command", ["simulate", "conditional"])
def test_dt_help_gives_the_default_step(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"default {SAMPLE_RESOLUTION:g}/|Omega'|max" in help_text


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.splitlines()
    assert "cone-geometric-phase" in names
    assert "adiabaticity" in names
    assert len(names) >= 15


def test_verify_lines_carry_wall_time(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    line = re.compile(r"PASS (\S+): measured = \S+, tolerance = \S+(  \[.*\])?  \(\d+\.\d{3} s\)")
    matched = [line.fullmatch(row) for row in out.splitlines() if row.startswith("PASS")]
    assert all(matched)
    assert [m.group(1) for m in matched] == check_names()


def run_python(code):
    """Run code in a fresh interpreter that imports this berrygate."""
    src = str(Path(berrygate.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_then_list_writes_only_the_names():
    # A program that imports berrygate and then runs the CLI gets nothing on
    # stdout beyond the CLI's own output, at import or at exit.
    proc = run_python("import sys, berrygate; from berrygate.cli import main; "
                      "sys.exit(main(['verify', '--list']))")
    assert proc.returncode == 0
    assert proc.stdout == "".join(f"{name}\n" for name in check_names())


def test_the_package_runs_without_scipy(tmp_path):
    # numpy is the only dependency: scipy, which takes most of a second to
    # import, is a test oracle only.
    sweep = ["sweep", "--detuning-count", "3", "--omega1-count", "4",
             "--output", str(tmp_path / "s.csv")]
    proc = run_python(
        "import sys, berrygate, berrygate.cli; "
        "assert berrygate.cli.main(['verify', '--list']) == 0; "
        f"assert berrygate.cli.main({sweep!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    code, _, err = run_cli(
        capsys, "simulate", "--sweep-time", "-3", "--output", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "sweep-time" in err
    code, _, err = run_cli(
        capsys, "sweep", "--detuning-count", "1", "--output", str(tmp_path / "y.csv")
    )
    assert code == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", *cone_args(math.pi / 3),
        "--output", str(tmp_path / "missing" / "t.csv"),
    )
    assert code == 2
    assert "error" in err.lower()


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega1 = 0.8\n# comment line\nomega = 4.3\n")
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "simulate", "--omega", "4.1",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "omega1 = 0.8" in out  # from the file
    assert "omega = 4.1" in out  # flag overrides the file
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "nope.cfg"), "verify", "--list")
    assert code == 2


def echoed(stdout, key):
    for line in stdout.splitlines():
        if line.startswith("#   ") and line[4:].split(" = ")[0] == key:
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def test_conditional_defaults_match_api_times(tmp_path, capsys):
    # every command that runs a schedule resolves and echoes the times with
    # the same rules as the API, with and without a sweep factor
    one_spin = partial(default_times_1q, RabiParams(5.0, 1.0, 4.0, 0.0))
    two_spin = partial(default_times_2q, TwoSpinParams(
        100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, 1.2, 98.0, 0.0)))
    for command, defaults in (
        (["simulate", "--output", str(tmp_path / "loop.csv")], one_spin),
        (["echo"], one_spin),
        (["conditional"], two_spin),
    ):
        for factor in (1.0, 1.5):
            flags = [] if factor == 1.0 else ["--sweep-factor", str(factor)]
            code, out, _ = run_cli(capsys, *command, *flags)
            assert code == 0
            times = tuple(float(echoed(out, key)) for key in ("ramp_time", "sweep_time", "dt"))
            assert times == resolve_times(defaults, sweep_factor=factor)


def test_sweep_time_alone_keeps_the_default_ramp_ratio(tmp_path, capsys):
    # one spin: the ramp is a fifth of the given sweep
    code, out, _ = run_cli(
        capsys, "simulate", "--omega0", "5.0", "--omega1", "0.0", "--omega", "4.0",
        "--sweep-time", "50.0", "--dt", "0.01", "--output", str(tmp_path / "idle.csv"),
    )
    assert code == 0
    assert float(echoed(out, "ramp_time")) == pytest.approx(10.0, rel=1e-15)
    assert float(echoed(out, "sweep_time")) == 50.0


def test_resolved_two_spin_times_scale_with_the_sweep():
    # two spins: the stretched default ramp keeps its ratio to the sweep,
    # whether the sweep is scaled by sweep_factor or given
    p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, 1.2, 98.0, 0.0))
    defaults = partial(default_times_2q, p)
    ramp, sweep, dt = defaults()
    assert resolve_times(defaults) == (ramp, sweep, dt)
    scaled = resolve_times(defaults, sweep_factor=2.0)
    assert scaled == pytest.approx((2.0 * ramp, 2.0 * sweep, dt), rel=1e-15)
    given = resolve_times(defaults, sweep_time=0.5 * sweep)
    assert given == pytest.approx((0.5 * ramp, 0.5 * sweep, dt), rel=1e-15)


@pytest.mark.parametrize("text, expected", [("false", "False"), ("True", "True"), ("0", "False")])
def test_config_drive_on_b_is_parsed_as_a_boolean(tmp_path, capsys, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"drive_on_b = {text}\n")
    # At its default times the gate's loops close, so the run exits 0.
    code, out, _ = run_cli(capsys, "--config", str(cfg), "conditional")
    assert code == 0
    assert echoed(out, "drive_on_b") == expected


def test_config_bad_boolean_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("drive_on_b = maybe\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "conditional")
    assert code == 2
    assert "drive_on_b" in err


def test_config_count_takes_the_argument_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("detuning_count = 10\n")
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "sweep", "--omega1-count", "2",
        "--output", str(tmp_path / "s.csv"),
    )
    assert code == 0
    assert echoed(out, "detuning_count") == "10"
    assert report_value(out, "rows_written") == 20
    cfg.write_text("detuning_count = ten\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "sweep", "--output", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--config"], ["sweep", "--config"]])
def test_bare_config_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["detuning_count = abc\n", None], ids=["bad", "missing"])
def test_config_after_the_subcommand_is_unrecognized_and_never_read(tmp_path, capsys, content):
    # The parser takes --config only before the subcommand, so a misplaced
    # one is rejected as it stands, whatever its file holds or if it is missing.
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag", ["--conf", "--con"])
def test_an_abbreviated_config_flag_exits_2_and_writes_nothing(tmp_path, capsys, flag):
    # The parser, like the --config pre-scan, takes no abbreviation, so a
    # shortened --config is rejected (its file is then taken for the
    # subcommand), not run with the built-in defaults.
    with pytest.raises(SystemExit) as exc:
        main([flag, str(tmp_path / "missing.cfg"), "sweep", "--detuning-count", "2",
              "--omega1-count", "2", "--output", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_orientation_outside_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orientation = sideways\n")
    code, _, err = run_cli(
        capsys, "--config", str(cfg), "simulate", "--output", str(tmp_path / "t.csv")
    )
    assert code == 2
    assert "orientation" in err


def test_conditional_off_the_adiabatic_branch_exits_2(capsys):
    # too fast for this spot: a reference component of the phase ledger
    # falls below its floor
    code, out, err = run_cli(
        capsys, "conditional", "--detuning", "1.5", "--amplitude", "1.0",
        "--ramp-time", "5", "--sweep-time", "10", "--dt", "0.002",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: phase bookkeeping unreliable")
    assert "below the floor 0.1" in err
    # the message names the segment: the phase sweep of the reversed loop
    assert err.rstrip().endswith("in segment 4 (phase_sweep)")


# Near the equator the one-spin default ramp is not adiabatic at this spot.
NEAR_EQUATOR = ["--omega0", "5", "--omega1", "1", "--omega", "4.949"]


def test_simulate_off_the_adiabatic_branch_exits_2(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "simulate", *NEAR_EQUATOR, "--output", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cone loop closure fidelity 0.497")
    assert err.rstrip().endswith("below 0.999")
    assert not out_csv.exists()


def test_echo_off_the_adiabatic_branch_exits_2(capsys):
    code, out, err = run_cli(capsys, "echo", *NEAR_EQUATOR)
    assert code == 2
    assert out == ""
    assert err.startswith("error: echo closure fidelities (0.4998")
    assert err.rstrip().endswith("below 0.999")


def test_a_drive_on_b_step_past_the_magnus_bound_exits_2(capsys):
    # 4x the default dt: the exponent K of a dense step has an eigenvalue of
    # magnitude 4.15 >= pi, past the convergence bound of the Magnus series,
    # while its gap (8.9e-4) passes the gap guard
    code, out, err = run_cli(capsys, "conditional", "--drive-on-b", "--dt", "0.396")
    assert code == 2
    assert out == ""
    assert "eigenvalue of magnitude 4.154 >= pi" in err


def test_a_drive_on_b_step_at_twice_the_default_runs(capsys):
    code, out, _ = run_cli(capsys, "conditional", "--drive-on-b", "--dt", "0.198")
    assert code == 0
    assert report_value(out, "off_diagonal_leakage") < 2e-4


def test_oversized_step_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--omega0", "50", "--omega1", "1", "--omega", "49.4226",
        "--ramp-time", "5", "--sweep-time", "20", "--dt", "0.5",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert out == ""
    assert "gap" in err and "exceeds the tolerance 0.001" in err
