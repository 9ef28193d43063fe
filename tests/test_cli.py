import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import berrygate
from berrygate.bloch import RabiParams
from berrygate.checks import check_names
from berrygate.cli import main
from berrygate.schrodinger import TwoSpinParams
from berrygate.sequences import default_times_2q, resolve_times


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


def test_import_then_list_writes_only_the_names():
    # A program that imports berrygate and then runs the CLI gets nothing on
    # stdout beyond the CLI's own output, at import or at exit.
    src = str(Path(berrygate.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = ("import sys, berrygate; from berrygate.cli import main; "
            "sys.exit(main(['verify', '--list']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "".join(f"{name}\n" for name in check_names())


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


def test_conditional_defaults_match_api_times(capsys):
    # the CLI resolves the times with the same rules as the API
    code, out, _ = run_cli(capsys, "conditional")
    assert code == 0
    p = TwoSpinParams(100.0, 80.0, 1.0 / math.pi, RabiParams(100.0, 1.2, 98.0, 0.0))
    ramp, sweep, dt = default_times_2q(p)
    assert float(echoed(out, "ramp_time")) == ramp
    assert float(echoed(out, "sweep_time")) == sweep
    assert float(echoed(out, "dt")) == dt


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


SHORT_CONDITIONAL = ["conditional", "--ramp-time", "5", "--sweep-time", "10", "--dt", "0.002"]


@pytest.mark.parametrize("text, expected", [("false", "False"), ("True", "True"), ("0", "False")])
def test_config_drive_on_b_is_parsed_as_a_boolean(tmp_path, capsys, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"drive_on_b = {text}\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), *SHORT_CONDITIONAL)
    assert code == 0
    assert echoed(out, "drive_on_b") == expected


def test_config_bad_boolean_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("drive_on_b = maybe\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), *SHORT_CONDITIONAL)
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


def test_oversized_step_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--omega0", "50", "--omega1", "1", "--omega", "49.4226",
        "--ramp-time", "5", "--sweep-time", "20", "--dt", "0.5",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert out == ""
    assert "gap" in err and "exceeds the tolerance 0.001" in err
