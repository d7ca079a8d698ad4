"""Command-line surface: subcommands, exit codes, formats, config round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import shorphase
from conftest import expected_final_state, idx
from shorphase import cli, shor, statevec
from shorphase.config import DelaySchedule, build_config


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def clean_format_env(monkeypatch):
    monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def schemas():
    text = (resources.files("shorphase") / "schemas" / "schemas.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# shor-demo


def test_shor_demo_ideal_run(capsys, schemas):
    code, out, _ = run_cli(capsys, "shor-demo", "--tau1", "0", "--tau2", "0")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schemas["run_report"])
    assert report["factor"] == 2
    assert report["period"] == 2
    assert report["measured_x"] == 2
    assert report["residuals"]["satisfied"] is True
    assert report["x_distribution"]["0"] == pytest.approx(0.5, abs=1e-12)
    assert report["x_distribution"]["2"] == pytest.approx(0.5, abs=1e-12)
    assert len(report["final_state"]) == 16


def test_shor_demo_natural_phase_any_delays(capsys):
    code, out, _ = run_cli(
        capsys, "shor-demo", "--mode", "natural-phase", "--tau1", "7.3", "--tau2", "1.9"
    )
    assert code == 0
    assert json.loads(out)["factor"] == 2


def test_shor_demo_negative_delay_exits_1(capsys):
    code, out, err = run_cli(capsys, "shor-demo", "--tau1", "-1")
    assert code == 1
    assert out == ""
    assert "tau1" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "shor-demo", "--frequency", "3")
    assert code == 1
    assert err != ""


def test_shor_demo_no_factor_exits_2(capsys):
    # x1 frequency pi and total delay 1 put all weight on x = 1 and x = 3;
    # seed 0 draws x = 3, which does not divide the register size.
    code, out, _ = run_cli(
        capsys, "shor-demo", "--omega", f"0,{math.pi},0,0",
        "--tau1", "1", "--tau2", "0", "--seed", "0",
    )
    assert code == 2
    report = json.loads(out)
    assert report["factor"] is None
    assert report["measured_x"] == 3
    assert "does not divide" in report["diagnostic"]


def test_shor_demo_csv_format(capsys):
    code, out, _ = run_cli(capsys, "shor-demo", "--tau1", "0", "--tau2", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.RUN_CSV_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["factor"] == "2"
    assert record["satisfied"] == "true"
    assert float(record["p0"]) == pytest.approx(0.5, abs=1e-12)


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "csv")
    code, out, _ = run_cli(capsys, "shor-demo", "--tau1", "0", "--tau2", "0")
    assert code == 0
    assert out.splitlines()[0] == ",".join(cli.RUN_CSV_COLUMNS)


def test_flag_overrides_env_format(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "csv")
    code, out, _ = run_cli(
        capsys, "shor-demo", "--tau1", "0", "--tau2", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["factor"] == 2


def test_invalid_env_format_exits_1(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
    code, _, err = run_cli(capsys, "shor-demo", "--tau1", "0", "--tau2", "0")
    assert code == 1
    assert cli.FORMAT_ENV_VAR in err


@pytest.mark.parametrize("command", [
    ["shor-demo", "--tau1", "0", "--tau2", "0"],
    ["pulse", "--area", "1"],
    ["check-condition"],
    ["sweep", "--tau1-start", "0", "--tau1-stop", "0", "--tau1-count", "1",
     "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1"],
])
def test_flag_overrides_invalid_env_format(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
    out_path = tmp_path / "grid.dat"
    argv = command + (["--out", str(out_path)] if command[0] == "sweep" else [])
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    json.loads(out_path.read_text() if command[0] == "sweep" else out)


def test_config_file_format_overrides_env(capsys, monkeypatch, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("format = csv\n")
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
    code, out, err = run_cli(capsys, "shor-demo", "--config", str(path), "--tau1", "0", "--tau2", "0")
    assert code == 0, err
    assert out.splitlines()[0] == ",".join(cli.RUN_CSV_COLUMNS)


def test_csv_columns_match_schema(capsys, schemas):
    assert list(cli.CONDITION_CSV_COLUMNS) == schemas["condition_report"]["required"]
    assert list(cli.SWEEP_CSV_COLUMNS) == schemas["sweep_row"]["required"]
    # Run and pulse columns are read from a nested report: each column's JSON
    # path, followed through a report the CLI printed, passes only through
    # properties its schema requires and ends at the value of the CSV cell.
    for kind, columns, argv in (
        ("run_report", cli.RUN_CSV_COLUMNS, ["shor-demo", "--tau1", "0.1", "--tau2", "0.2"]),
        ("pulse_report", cli.PULSE_CSV_COLUMNS,
         ["pulse", "--mode", "noncoherent", "--area", "1", "--t0", "0.5"]),
    ):
        report = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        header, row = csv.reader(io.StringIO(run_cli(capsys, *argv, "--format", "csv")[1]))
        assert header == list(columns)
        for column, cell in zip(header, row):
            path = (column,) if column in report else cli._CSV_PATHS[column]
            assert column.endswith(path[-1])  # p0 is x_distribution.0, ck_phase is c_k.phase
            schema, value = schemas[kind], report
            for key in path:
                assert key in schema["required"], (kind, column, path)
                schema = schema["properties"][key]
                if "$ref" in schema:  # "#/definitions/<name>"
                    schema = schemas[kind]["definitions"][schema["$ref"].rsplit("/", 1)[1]]
                value = value[key]
            assert cell == cli._csv_cell(value)


# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    code, first, _ = run_cli(
        capsys, "shor-demo", "--tau1", "0.3", "--tau2", "0.7", "--seed", "9",
        "--dump-config", str(path),
    )
    assert code in (0, 2)
    assert path.exists()
    code2, second, _ = run_cli(capsys, "shor-demo", "--config", str(path))
    assert code2 == code
    assert second == first


def test_flags_override_config_file(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau1 = 5.0\ntau2 = 5.0\nseed = 4\n")
    code, out, _ = run_cli(
        capsys, "shor-demo", "--config", str(path), "--tau1", "0", "--tau2", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["tau1"] == 0.0
    assert report["config"]["seed"] == 4
    assert report["factor"] == 2


def test_config_file_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau1 = 0.1\nbogus = 3\n")
    code, _, err = run_cli(capsys, "shor-demo", "--config", str(path))
    assert code == 1
    assert "line 2" in err


def test_config_file_bad_value_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\n\ntau1 = fast\n")
    code, _, err = run_cli(capsys, "shor-demo", "--config", str(path))
    assert code == 1
    assert "line 3" in err


def test_config_file_spectrum_key_holds_its_own_count(capsys, tmp_path):
    # Four energies are not four qubit frequencies: the file is refused, not read as omega.
    path = tmp_path / "energies.cfg"
    path.write_text("energies = 1, 2, 3, 4\n")
    code, out, err = run_cli(capsys, "shor-demo", "--config", str(path))
    assert (code, out, err) == (1, "", "config error: energies needs 16 values, got 4\n")


def test_missing_config_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "shor-demo", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "config" in err.lower()


def test_omega_and_energies_conflict(capsys):
    code, _, err = run_cli(
        capsys, "shor-demo", "--omega", "1,2,3,4", "--energies", ",".join(["0"] * 16)
    )
    assert code == 1
    assert "either" in err


# ---------------------------------------------------------------------------
# pulse


def test_pulse_coherent_full_transfer(capsys, schemas):
    code, out, _ = run_cli(
        capsys, "pulse", "--mode", "coherent",
        "--area", str(math.pi / 2), "--phase", str(math.pi / 2),
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schemas["pulse_report"])
    assert report["c_p"]["modulus"] == pytest.approx(1.0, abs=1e-11)
    assert report["c_k"]["modulus"] == pytest.approx(0.0, abs=1e-11)
    # Natural phase of the newborn level at t0 + tau = 1 with E_p = 3.
    assert report["c_p"]["phase"] == pytest.approx(-3.0, abs=1e-9)
    assert report["ode_discrepancy"] < 1e-8


def test_pulse_sudden_zero_area_identity(capsys, schemas):
    code, out, _ = run_cli(capsys, "pulse", "--mode", "sudden", "--area", "0")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schemas["pulse_report"])
    assert report["c_k"]["modulus"] == 1.0
    assert report["c_p"]["modulus"] == 0.0
    assert report["ode_discrepancy"] is None


def test_pulse_noncoherent_reports_phase_error(capsys):
    code, out, _ = run_cli(
        capsys, "pulse", "--mode", "noncoherent", "--area", str(math.pi / 2),
        "--t0", "0.5", "--energies", "1,3",
    )
    assert code == 0
    report = json.loads(out)
    # Transition frequency 2 times start time 0.5.
    assert report["phase_error_vs_coherent"] == pytest.approx(1.0, abs=1e-9)


def test_pulse_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "pulse", "--mode", "coherent", "--rabi", "2.0", "--duration", "0.5",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.PULSE_CSV_COLUMNS)
    record = dict(zip(rows[0], rows[1]))
    assert float(record["area"]) == pytest.approx(0.5)


def test_pulse_flag_validation(capsys):
    assert run_cli(capsys, "pulse", "--mode", "coherent")[0] == 1  # no area or rabi
    assert run_cli(capsys, "pulse", "--mode", "coherent", "--area", "1", "--rabi", "2")[0] == 1
    assert run_cli(capsys, "pulse", "--mode", "sudden")[0] == 1  # area required
    assert run_cli(capsys, "pulse", "--mode", "sudden", "--area", "1", "--rabi", "2")[0] == 1
    assert run_cli(capsys, "pulse", "--mode", "coherent", "--area", "1",
                   "--duration", "0")[0] == 1


@pytest.mark.parametrize("flags, message", [
    (["--rabi", "1e30"],
     "integration diverged: non-finite amplitude after 1000 RK4 steps of dt = 0.001"),
    (["--area", "1", "--step", "1e-300"],
     "tau = 1.0 in steps of 1e-300 needs 1e+300 RK4 steps, more than the limit of 10000000"),
    (["--area", "1", "--duration", "1e10", "--step", "5e-324"],
     "tau = 10000000000.0 in steps of 5e-324 needs inf RK4 steps, more than the limit of 10000000"),
    (["--rabi", "1000", "--duration", "1", "--step", "0.01"],
     "step 0.01 is past RK4's stability limit: rho*dt = 5.03 > 2*sqrt(2) "
     "for rho = max(|E_k|, |E_p|) + rabi/2 = 503.0"),
], ids=["diverged", "too-many-steps", "step-count-overflows", "unstable-step"])
def test_pulse_integrator_refusals_leave_clean_stderr(tmp_path, flags, message):
    # A diverged integration or an unfinishable step count is one clean line
    # and exit 1: no NaN report, no numpy warning, no traceback, no endless run.
    package_root = Path(shorphase.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    env.pop(cli.FORMAT_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "shorphase", "pulse", "--mode", "coherent", *flags],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--energies", "1e300,3e300", "--area", "1", "--t0", "1e10"],
     "non-finite phase E*t for E = 1e+300, t = 10000000000.0"),
    (["--energies", "1e200,1e200", "--area", "1", "--duration", "1e200"],
     "non-finite phase E*t for E_k = 1e+200, E_p = 1e+200, t0 = 0.0, tau = 1e+200"),
    (["--mode", "sudden", "--area", "1", "--t0", "inf"], "t0 must be finite"),
], ids=["initial-phase", "closed-form-phase", "sudden-infinite-t0"])
def test_pulse_refuses_overflowing_phases(capsys, flags, message):
    # An overflowing E*t used to end in a bare "math domain error", and an
    # infinite t0 in a sudden pulse used to print NaN amplitudes with exit 0.
    code, out, err = run_cli(capsys, "pulse", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("step, message", [
    ("inf", "step must be finite, got inf"),
    ("nan", "step must be finite, got nan"),
    ("0", "step must be positive, got 0.0"),
])
def test_pulse_step_rule_is_the_tolerance_rule(capsys, step, message):
    # An infinite step used to be refused as "step must be positive, got inf".
    assert run_cli(capsys, "pulse", "--rabi", "1", "--step", step) == (1, "", f"error: {message}\n")


def test_pulse_refuses_a_clock_that_cannot_advance(tmp_path):
    # At t0 = 1e300, t0 + 0.001 == t0: the integrator would step a frozen clock
    # and report rounding noise as an ODE discrepancy.
    package_root = Path(shorphase.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    env.pop(cli.FORMAT_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "shorphase", "pulse", "--mode", "noncoherent", "--area", "1",
         "--t0", "1e300"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: RK4 clock cannot advance: t0 + dt == t0 for t0 = 1e+300, dt = 0.001\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--tau1-start", "-1e308", "--tau1-stop", "1", "--tau1-count", "2",
      "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "2", "--out", "grid.csv"],
     "config error: tau1 must be finite and non-negative, got -1e+308\n"),
    (["shor-demo", "--tau2", "-1E-3"],
     "config error: tau2 must be finite and non-negative, got -0.001\n"),
    (["check-condition", "--tau1", "-2.5e2"],
     "error: tau1 must be finite and non-negative, got -250.0\n"),
], ids=["sweep", "shor-demo", "check-condition"])
def test_negative_exponent_values_reach_validation(capsys, tmp_path, monkeypatch, argv, message):
    # argparse's default negative-number pattern takes "-1e308" for a flag and
    # fails with "expected one argument"; the value must reach the range check.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", message)


def test_pulse_takes_negative_exponent_values(capsys):
    code, out, _ = run_cli(capsys, "pulse", "--area", "1", "--t0", "-2.5e-1", "--phase", "-.5e1")
    assert code == 0
    report = json.loads(out)
    assert report["t0"] == -0.25
    assert report["phase"] == statevec.wrap_phase(-5.0)


#: Spectrum lists whose first entry is negative, in decimal and exponent form.
NEGATIVE_LISTS = [
    ("--omega", "-1,2.5e-1,3,-4E0"),
    ("--energies", ",".join(["-1.5e-1"] + [repr(0.5 * i) for i in range(1, 16)])),
]


@pytest.mark.parametrize("flag, value", NEGATIVE_LISTS, ids=["omega", "energies"])
@pytest.mark.parametrize("command", ["shor-demo", "sweep", "check-condition"])
def test_spectrum_list_may_start_negative(capsys, tmp_path, command, flag, value):
    # argparse took "-1,2,3,4" for a flag and failed with "expected one argument".
    table = statevec.make_spectrum([float(part) for part in value.split(",")])
    expected = shor.check_condition(table, DelaySchedule(1.0, 0.0))
    argv = {
        "shor-demo": ["shor-demo", "--tau1", "1"],
        "sweep": ["sweep", "--tau1-start", "1", "--tau1-stop", "1", "--tau1-count", "1",
                  "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1",
                  "--out", str(tmp_path / "grid.json")],
        "check-condition": ["check-condition", "--tau1", "1"],
    }[command]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code in (0, cli.EXIT_NO_FACTOR), err
    if command == "sweep":
        report = json.loads((tmp_path / "grid.json").read_text())[0]
    else:
        report = json.loads(out)
    residuals = report.get("residuals", report)
    assert (residuals["delta1"], residuals["delta2"]) == (expected.delta1, expected.delta2)


def test_malformed_negative_list_is_refused_at_once(capsys):
    # 16 long entries and a typo: a pattern that let digits split between two
    # runs backtracked through every split of every entry before failing.
    value = "-" + ",".join(["12345678"] * 16) + "x"
    code, _, err = run_cli(capsys, "shor-demo", "--energies", value)
    assert code == 1
    assert "expected one argument" in err


def test_pulse_energies_may_start_negative(capsys):
    code, out, _ = run_cli(capsys, "pulse", "--energies", "-1,3", "--rabi", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["e_k"], report["e_p"]) == (-1.0, 3.0)
    code, out, _ = run_cli(capsys, "pulse", "--mode", "sudden", "--area", "1",
                           "--energies", "-2.5e-1,-1E1")
    assert code == 0
    report = json.loads(out)
    assert (report["e_k"], report["e_p"]) == (-0.25, -10.0)


#: Signed values that float() reads and argparse's own pattern takes for a flag,
#: each with its text in a refusal.
SIGNED_VALUES = {"-inf": "-inf", "-nan": "nan", "-Infinity": "-inf", "-1_000": "-1000.0"}

_GRID = ["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "2",
         "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "2", "--out", "grid.csv"]
_DELAY = "must be finite and non-negative, got {v}"
_TOL = "tolerance must be {rule}, got {v}"
_OMEGA, _ENERGIES = "error: --omega needs 4 values, got 1", "error: --energies needs 16 values, got 1"
_INT = "error: argument {flag}: invalid int value: '{raw}'"

#: Every numeric flag: a run it is added to, the flag, its stderr for -inf, -nan
#: and -Infinity ({v}: the value as printed, {raw}: as given), and for -1_000
#: (None: the run succeeds).
NUMERIC_FLAGS = [
    (["shor-demo"], "--tau1", "config error: tau1 " + _DELAY, "config error: tau1 " + _DELAY),
    (["shor-demo"], "--tau2", "config error: tau2 " + _DELAY, "config error: tau2 " + _DELAY),
    (["shor-demo"], "--seed", _INT, "error: expected non-negative integer"),
    (["shor-demo"], "--retry-cap", _INT, "config error: retry_cap must be at least 1, got -1000"),
    (["shor-demo"], "--tolerance", "config error: " + _TOL, "config error: " + _TOL),
    (["shor-demo"], "--omega", _OMEGA, _OMEGA),
    (["shor-demo"], "--energies", _ENERGIES, _ENERGIES),
    (["pulse"], "--rabi", "error: rabi must be finite", "error: rabi must be non-negative, got -1000.0"),
    (["pulse", "--rabi", "1"], "--duration", "error: tau must be finite",
     "error: tau must be non-negative, got -1000.0"),
    (["pulse", "--mode", "sudden"], "--area", "error: area must be finite", None),
    (["pulse", "--rabi", "1"], "--t0", "error: t0 must be finite", None),
    (["pulse", "--rabi", "1"], "--phase", "error: phase must be finite", None),
    (["pulse", "--rabi", "1"], "--step", "error: step must be finite, got {v}",
     "error: step must be positive, got -1000.0"),
    (["pulse", "--rabi", "1"], "--energies", "error: --energies needs 2 values, got 1",
     "error: --energies needs 2 values, got 1"),
    *[(["sweep", *_GRID], f"--{axis}-{end}", f"config error: {axis} " + _DELAY,
       f"config error: {axis} " + _DELAY) for axis in ("tau1", "tau2") for end in ("start", "stop")],
    *[(["sweep", *_GRID], f"--{axis}-count", _INT, f"error: --{axis}-count must be at least 1")
      for axis in ("tau1", "tau2")],
    (["sweep", *_GRID], "--omega", _OMEGA, _OMEGA),
    (["sweep", *_GRID], "--energies", _ENERGIES, _ENERGIES),
    (["sweep", *_GRID], "--tolerance", "config error: " + _TOL, "config error: " + _TOL),
    (["check-condition"], "--tau1", "error: tau1 " + _DELAY, "error: tau1 " + _DELAY),
    (["check-condition"], "--tau2", "error: tau2 " + _DELAY, "error: tau2 " + _DELAY),
    (["check-condition"], "--omega", _OMEGA, _OMEGA),
    (["check-condition"], "--energies", _ENERGIES, _ENERGIES),
    (["check-condition"], "--tolerance", "error: " + _TOL, "error: " + _TOL),
]


@pytest.mark.parametrize("value", list(SIGNED_VALUES))
@pytest.mark.parametrize("argv, flag, refusal, thousand", NUMERIC_FLAGS,
                         ids=[f"{row[0][0]}{row[1]}" for row in NUMERIC_FLAGS])
def test_every_numeric_flag_reads_a_signed_value_as_float_does(
        capsys, tmp_path, monkeypatch, argv, flag, refusal, thousand, value):
    # argparse's pattern took -inf, -nan, -Infinity and -1_000 for flags and failed with
    # "expected one argument"; each must reach the flag's own check, or run.
    monkeypatch.chdir(tmp_path)
    message = thousand if value == "-1_000" else refusal
    code, out, err = run_cli(capsys, *argv, flag, value)
    if message is None:
        assert (code, err) == (0, "")
        assert json.loads(out)[flag[2:]] in (-1000.0, statevec.wrap_phase(-1000.0))
    else:
        rule = "finite" if value != "-1_000" else "positive"
        expected = message.format(v=SIGNED_VALUES[value], raw=value, rule=rule, flag=flag)
        assert (code, out, err) == (1, "", expected + "\n")


@pytest.mark.parametrize("argv, message", [
    (["shor-demo", "--omega", "-1,inf,3,4"], "config error: expected four finite qubit frequencies"),
    (["sweep", *_GRID, "--omega", "-1,inf,3,4"], "error: expected four finite qubit frequencies"),
    (["check-condition", "--omega", "-1,inf,3,4"], "error: expected four finite qubit frequencies"),
    (["pulse", "--rabi", "1", "--energies", "-inf,1"], "error: e_k must be finite"),
], ids=["shor-demo", "sweep", "check-condition", "pulse"])
def test_a_list_flag_reads_a_signed_non_finite_entry(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", message + "\n")


# ---------------------------------------------------------------------------
# check-condition


def test_check_condition_output(capsys, schemas):
    code, out, _ = run_cli(capsys, "check-condition", "--tau1", "0.1", "--tau2", "0.1")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schemas["condition_report"])
    expected = shor.check_condition(
        statevec.additive_spectrum(), DelaySchedule(0.1, 0.1)
    )
    assert report["delta1"] == pytest.approx(expected.delta1, abs=1e-15)
    assert report["satisfied"] is False

    code, out, _ = run_cli(capsys, "check-condition", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.CONDITION_CSV_COLUMNS)
    assert dict(zip(rows[0], rows[1]))["satisfied"] == "true"


@pytest.mark.filterwarnings("error")
def test_check_condition_refuses_non_finite_residuals(capsys):
    code, out, err = run_cli(capsys, "check-condition", "--omega", "1,1e300,1,1", "--tau1", "1e300")
    assert code == 1
    assert out == ""
    assert err.startswith("error: interference residuals are not finite")
    assert "NaN" not in err and "nan" not in err


def test_check_condition_satisfied_within_float_resolution(capsys):
    # pi*1e7/2.3 on both delays puts both residuals of the default spectrum on
    # whole turns. float64 leaves them at about 1e-8, above the 1e-9 tolerance
    # but within what it can resolve at these delays, so the verdict holds.
    tau = "13659098.493868668"
    code, out, _ = run_cli(capsys, "check-condition", "--tau1", tau, "--tau2", tau)
    assert code == 0
    report = json.loads(out)
    assert min(abs(report["delta1"]), abs(report["delta2"])) > 1e-9
    assert report["satisfied"] is True


@pytest.mark.parametrize("argv, message", [
    (["check-condition", "--tolerance", "0"], "error: tolerance must be positive, got 0.0\n"),
    (["check-condition", "--tolerance=-1e-9"], "error: tolerance must be positive, got -1e-09\n"),
    (["shor-demo", "--tolerance", "0"], "config error: tolerance must be positive, got 0.0\n"),
    (["shor-demo", "--tolerance", "nan"], "config error: tolerance must be finite, got nan\n"),
])
def test_tolerance_rule_reads_the_same_in_both_reports(capsys, argv, message):
    # One rule: a config reports it as a config error, check-condition as an error.
    assert run_cli(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
def test_check_condition_refuses_non_finite_tolerance(capsys, tolerance):
    # With tau1 = 1 both residuals are 2.3; an infinite tolerance used to pass them.
    code, out, err = run_cli(capsys, "check-condition", "--tolerance", tolerance, "--tau1", "1")
    assert (code, out, err) == (1, "", f"error: tolerance must be finite, got {tolerance}\n")


# ---------------------------------------------------------------------------
# sweep


def sweep_args(out_path, n1=2, n2=3, stop=str(2 * math.pi)):
    return [
        "sweep",
        "--tau1-start", "0", "--tau1-stop", stop, "--tau1-count", str(n1),
        "--tau2-start", "0", "--tau2-stop", stop, "--tau2-count", str(n2),
        "--out", str(out_path),
    ]


def test_sweep_single_point_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, *sweep_args(out_path, n1=1, n2=1, stop="0"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == list(cli.SWEEP_CSV_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["satisfied"] == "true"
    assert float(record["p0"]) == pytest.approx(0.5, abs=1e-12)
    assert float(record["p1"]) == pytest.approx(0.0, abs=1e-12)
    assert float(record["p2"]) == pytest.approx(0.5, abs=1e-12)
    assert float(record["p3"]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_grid_layout_and_sine_identity(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, *sweep_args(out_path, n1=4, n2=5))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))[1:]
    assert len(rows) == 20
    # Row-major with tau1 outermost: tau1 constant in blocks of the tau2 count.
    tau1_values = [float(r[0]) for r in rows]
    assert tau1_values == sorted(tau1_values)
    for i in range(0, 20, 5):
        assert len({r[0] for r in rows[i:i + 5]}) == 1
    # The lone split amplitude follows the half-sine of the first residual.
    for row in rows:
        record = dict(zip(cli.SWEEP_CSV_COLUMNS, row))
        expected = 0.5 * abs(math.sin(float(record["delta1"]) / 2.0))
        assert float(record["amp11_mod"]) == pytest.approx(expected, abs=1e-12)


def test_sweep_json_rows_validate(capsys, tmp_path, schemas):
    out_path = tmp_path / "grid.json"
    code, _, _ = run_cli(capsys, *sweep_args(out_path, n1=2, n2=2))
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 4
    for row in rows:
        jsonschema.validate(row, schemas["sweep_row"])


def test_sweep_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *sweep_args(a, n1=3, n2=3))
    run_cli(capsys, *sweep_args(b, n1=3, n2=3))
    assert a.read_text() == b.read_text()


def test_sweep_unwritable_path_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, *sweep_args(tmp_path / "missing" / "grid.csv"))
    assert code == 1
    assert err != ""


def test_sweep_rejects_bad_counts(capsys, tmp_path):
    code, _, _ = run_cli(capsys, *sweep_args(tmp_path / "g.csv", n1=0, n2=1))
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_state_exits_1(capsys, tmp_path):
    # A flat 1e10 spectrum over tau1 = 1e300 overflows E*tau1 and turns the state into NaN.
    energies = ",".join(["1e10"] * 16)
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "1e300", "--tau1-count", "2",
        "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1",
        "--energies", energies, "--out", str(out_path),
    )
    assert code == 1
    assert out == ""
    assert not out_path.exists()
    code, out, _ = run_cli(capsys, "shor-demo", "--energies", energies, "--tau1", "1e300")
    assert code == 1
    assert out == ""


#: A 16-entry table with no additive structure, so every branch phase differs.
SWEEP_ENERGIES = [0.1 * i + 0.37 * (i % 3) + 0.05 * i * i for i in range(16)]


@pytest.mark.parametrize("mode, suffix", [("free-evolution", "csv"), ("natural-phase", "json")])
def test_sweep_across_chunks_matches_branch_oracle(capsys, tmp_path, mode, suffix):
    # Two full chunks and a partial one, checked row by row against the
    # branch-sum oracle, which shares no code with the pipeline.
    n1, n2 = 3, cli._SWEEP_CHUNK * 2 // 3 + 7
    assert 2 * cli._SWEEP_CHUNK < n1 * n2 < 3 * cli._SWEEP_CHUNK
    out_path = tmp_path / f"grid.{suffix}"
    code, _, _ = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "7.5", "--tau1-count", str(n1),
        "--tau2-start", "0.25", "--tau2-stop", "9", "--tau2-count", str(n2),
        "--energies", ",".join(map(repr, SWEEP_ENERGIES)), "--mode", mode, "--out", str(out_path),
    )
    assert code == 0
    if suffix == "json":
        rows = json.loads(out_path.read_text())
    else:
        rows = [{k: (v == "true") if k == "satisfied" else float(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(out_path.read_text()))]
    assert len(rows) == n1 * n2
    taus1, taus2 = np.linspace(0, 7.5, n1), np.linspace(0.25, 9, n2)
    e = np.array(SWEEP_ENERGIES)
    moduli_spectrum = e if mode == "free-evolution" else np.zeros(16)
    for k, row in enumerate(rows):
        t1, t2 = taus1[k // n2], taus2[k % n2]
        assert (row["tau1"], row["tau2"]) == (t1, t2)  # row-major, tau1 outer
        weights = np.abs(expected_final_state(moduli_spectrum, t1, t2).reshape(4, 4)) ** 2
        for x in range(4):
            assert abs(row[f"p{x}"] - weights[x].sum()) <= 1e-12
        assert abs(row["amp11_mod"] - math.sqrt(weights[1, 1])) <= 1e-12
        # Branch x ends with phase E[x,0]*tau1 + E[x,y]*tau2, y = 3^x mod 4.
        branch = [e[idx(x, 0)] * t1 + e[idx(x, (1, 3, 1, 3)[x])] * t2 for x in range(4)]
        for delta, (a, b) in ((row["delta1"], (2, 0)), (row["delta2"], (3, 1))):
            assert abs(statevec.wrap_phase(delta - (branch[a] - branch[b]))) <= 1e-9
        assert row["satisfied"] == (abs(row["delta1"]) <= 1e-9 and abs(row["delta2"]) <= 1e-9)


SWEEP_TABLE = ["--energies", ",".join(map(repr, SWEEP_ENERGIES))]
SWEEP_N2 = cli._SWEEP_CHUNK * 2 // 3 + 7


@pytest.mark.parametrize("n1, n2, tau2_stop, flags", [
    pytest.param(3, SWEEP_N2, "9", SWEEP_TABLE, id=f"3-{SWEEP_N2}"),
    pytest.param(1, 1, "9", SWEEP_TABLE, id="1-1"),
    pytest.param(2, cli._SWEEP_CHUNK, "9", SWEEP_TABLE, id="two-whole-chunks"),
    # Cells that repeat heavily, across a full chunk and a partial one: on a
    # square grid the additive residuals depend on tau1 + tau2 alone, and the
    # natural-phase moduli depend on neither delay.
    pytest.param(50, 50, "7.5", [], id="additive-square-50-50"),
    pytest.param(50, 50, "9", [*SWEEP_TABLE, "--mode", "natural-phase"], id="natural-phase-50-50"),
])
def test_sweep_files_are_what_the_stdlib_encoders_write(capsys, tmp_path, n1, n2, tau2_stop, flags):
    # The sweep writer fills one row template per format. Its files must be
    # exactly json.dumps(rows, indent=2) and csv.writer over the same rows,
    # with the cell rule of the single-report CSV path, across two full chunks
    # and a partial one, across exactly two, and for a single point.
    grid = ["--tau1-start", "0", "--tau1-stop", "7.5", "--tau1-count", str(n1),
            "--tau2-start", "0", "--tau2-stop", tau2_stop, "--tau2-count", str(n2), *flags]
    paths = {fmt: tmp_path / f"grid.{fmt}" for fmt in ("json", "csv")}
    for path in paths.values():
        assert run_cli(capsys, "sweep", *grid, "--out", str(path))[0] == 0
    text = paths["json"].read_text()
    rows = json.loads(text)
    assert len(rows) == n1 * n2
    assert all(list(row) == list(cli.SWEEP_CSV_COLUMNS) for row in rows)
    assert first_differing_line(text, json.dumps(rows, indent=2) + "\n") is None
    columns, buf = cli.SWEEP_CSV_COLUMNS, io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [columns, *([cli._csv_cell(row[c]) for c in columns] for row in rows)]
    )
    assert first_differing_line(paths["csv"].read_text(), buf.getvalue()) is None


def test_sweep_memory_stays_below_twice_its_file(capsys, tmp_path):
    # The writer holds the numeric columns and each column's distinct cell
    # texts, and makes the file's text one block of rows at a time. Traced
    # peak of this 128 x 128 natural-phase JSON sweep, whose file is 5.2 MB:
    # 19.1 MB when the whole text was built before writing, 6.3 MB in blocks.
    out_path = tmp_path / "grid.json"
    argv = ["sweep", "--tau1-start", "0", "--tau1-stop", "10", "--tau1-count", "128",
            "--tau2-start", "0", "--tau2-stop", "10", "--tau2-count", "128",
            *SWEEP_TABLE, "--mode", "natural-phase", "--out", str(out_path)]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * out_path.stat().st_size


def first_differing_line(text: str, expected: str):
    """(line number, line, expected line) of the first difference, or None if equal.

    pytest's own diff of two texts of this size takes minutes.
    """
    if text == expected:
        return None
    lines, want = text.split("\n"), expected.split("\n")
    i = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), len(want))
    return i + 1, lines[i] if i < len(lines) else None, want[i] if i < len(want) else None


@pytest.mark.parametrize("flags, message", [
    (["--tau1-start", "1", "--tau1-stop", "-1", "--tau1-count", "3"],
     "config error: tau1 must be finite and non-negative, got -1.0\n"),
    (["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "3", "--tolerance", "inf"],
     "config error: tolerance must be finite, got inf\n"),
    (["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "3", "--tolerance", "0"],
     "config error: tolerance must be positive, got 0.0\n"),
    (["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "3", "--omega", "1,2,x,4"],
     "error: --omega must be comma-separated numbers, got '1,2,x,4'\n"),
    (["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "3", "--omega", "1,2,3"],
     "error: --omega needs 4 values, got 3\n"),
    # A setting is checked before any point, so the tolerance wins over the bad first point.
    (["--tau1-start", "-1", "--tau1-stop", "1", "--tau1-count", "3", "--tolerance", "0"],
     "config error: tolerance must be positive, got 0.0\n"),
])
def test_sweep_error_text(capsys, tmp_path, flags, message):
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "sweep", *flags, "--tau2-start", "0", "--tau2-stop", "1",
                             "--tau2-count", "2", "--out", str(out_path))
    assert (code, out, err) == (1, "", message)
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    (["--tau1-start", "0", "--tau1-stop", "inf"], "tau1 must be finite and non-negative, got inf"),
    (["--tau1-start", "inf", "--tau1-stop", "1"], "tau1 must be finite and non-negative, got inf"),
    (["--tau1-start", "-1e308", "--tau1-stop", "1e308"],
     "tau1 must be finite and non-negative, got -1e+308"),
    (["--tau1-start", "-inf", "--tau1-stop", "1"], "tau1 must be finite and non-negative, got -inf"),
    (["--tau1-start", "0", "--tau1-stop", "1", "--tau2-stop", "-inf"],
     "tau2 must be finite and non-negative, got -inf"),
], ids=["stop-inf", "start-inf", "span-overflows", "start-neg-inf", "tau2-stop-neg-inf"])
def test_sweep_refuses_an_axis_whose_span_is_not_finite(capsys, tmp_path, flags, message):
    # np.linspace used to warn and fill such an axis with NaN, and the refusal
    # named a NaN delay that was never given.
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "sweep", "--tau1-count", "3", "--tau2-start", "0",
                             "--tau2-stop", "1", "--tau2-count", "1", *flags, "--out", str(out_path))
    assert (code, out, err) == (1, "", f"config error: {message}\n")
    assert not out_path.exists()


def test_sweep_refuses_a_bad_format_before_any_point(capsys, monkeypatch, tmp_path):
    # The format is a setting: it is refused without computing the grid.
    def no_points(*args):
        raise AssertionError("a grid point was computed")

    monkeypatch.setattr(shor, "_evaluate", no_points)
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
    out_path = tmp_path / "grid.dat"
    code, out, err = run_cli(capsys, *sweep_args(out_path, n1=512, n2=512))
    assert (code, out) == (1, "")
    assert err == "error: SHORPHASE_FORMAT must be one of ('json', 'csv'), got 'yaml'\n"
    assert not out_path.exists()


def test_batched_idles_go_through_free_evolve(capsys, monkeypatch, tmp_path):
    # Each idle of a batch is one call of the public function, so a wrapper set
    # on the module sees it; a natural-phase batch only adds terminal phases.
    calls = []
    real = statevec.free_evolve
    monkeypatch.setattr(statevec, "free_evolve", lambda *args: calls.append(args) or real(*args))

    def batch(mode):
        return [build_config({"mode": mode, "tau1": 0.1 * i, "tau2": 0.2, "seed": i}) for i in range(40)]

    assert [r.error for r in shor.sweep(batch("free-evolution"))] == [None] * 40
    assert len(calls) == 2
    assert [r.error for r in shor.sweep(batch("natural-phase"))] == [None] * 40
    assert len(calls) == 2
    assert run_cli(capsys, *sweep_args(tmp_path / "grid.csv", n1=16, n2=16))[0] == 0
    assert len(calls) == 4


def test_no_row_of_a_failing_batch_is_computed_alone(capsys, monkeypatch, tmp_path):
    # A check names every row it refuses, so a failing chunk costs one more
    # pass per refusing check, not a pass per row.
    calls = []
    real = statevec.free_evolve
    monkeypatch.setattr(statevec, "free_evolve", lambda *args: calls.append(args) or real(*args))
    configs = [build_config({"tau1": 0.001 * i, "tau2": 0.2, "seed": i})
               for i in range(cli._SWEEP_CHUNK)]
    configs[1000] = build_config({"tau1": 1e308, "seed": 1000})
    reports = shor.sweep(configs)
    assert [i for i, report in enumerate(reports) if report.error] == [1000]
    assert len(calls) <= 4
    # E*tau1 = 12 * tau1 overflows at the last three of 2048 points.
    calls.clear()
    code, _, err = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "1.5e307",
        "--tau1-count", str(cli._SWEEP_CHUNK), "--tau2-start", "0", "--tau2-stop", "0",
        "--tau2-count", "1", "--omega", "0,0,0,12", "--out", str(tmp_path / "grid.csv"),
    )
    assert (code, err) == (1, "error: state is not normalized: non-finite phase E*dt for "
                              "E = 12.0, dt = 1.498534440644846e+307\n")
    assert len(calls) <= 4


@pytest.mark.filterwarnings("error")
def test_sweep_first_failing_point_decides(capsys, tmp_path):
    # On the tau2 axis, E = 1e305 overflows the free-evolution phase from the
    # second point on, while the residual gap E[3,3] - E[1,3] = 2e300 overflows
    # only from tau2 = 9e7. Point by point, the phase fails first.
    energies = [0.0] * 16
    energies[idx(1, 1)], energies[idx(3, 3)], energies[idx(1, 3)] = 1e305, 1e300, -1e300
    code, _, err = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "0", "--tau1-count", "1",
        "--tau2-start", "0", "--tau2-stop", "1e9", "--tau2-count", "101",
        "--energies", ",".join(map(repr, energies)), "--out", str(tmp_path / "grid.csv"),
    )
    assert code == 1
    assert err.startswith("error: state is not normalized: non-finite phase")
    assert err.endswith("dt = 10000000.0\n")


@pytest.mark.filterwarnings("error")
def test_sweep_earlier_point_failing_a_later_check_decides(capsys, tmp_path):
    # The gap E[2,0] - E[0,0] overflows, so every point fails the residual
    # check, and E*tau1 overflows the phase at the second point. The batch
    # raises the phase check first, at point 1; point 0 fails the later check.
    energies = [0.0] * 16
    energies[idx(2, 0)], energies[idx(0, 0)] = 1e308, -1e308
    out_path = tmp_path / "grid.csv"
    assert run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "1e300", "--tau1-count", "2",
        "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1",
        "--energies", ",".join(map(repr, energies)), "--out", str(out_path),
    ) == (1, "", "error: interference residuals are not finite: E*tau overflows at "
                 "tau1 = 0.0, tau2 = 0.0\n")
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_failing_sweep_leaves_an_existing_file_as_it_was(capsys, tmp_path, suffix):
    # E*tau1 = 20 * 1e307 overflows on the last tau1 only, so the first failing
    # point is row 4500, past two full chunks. Every point is computed before
    # the file is opened, so the file it would replace keeps its bytes.
    assert 2 * cli._SWEEP_CHUNK < 3 * 1500
    out_path = tmp_path / f"grid.{suffix}"
    out_path.write_bytes(b"earlier results\n")
    code, out, err = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "1e307", "--tau1-count", "4",
        "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "1500",
        "--omega", "0,0,0,20", "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: state is not normalized: non-finite phase E*dt for E = 20.0, dt = 1e+307\n"
    assert out_path.read_bytes() == b"earlier results\n"


@pytest.mark.filterwarnings("error")
def test_sweep_and_demo_name_the_same_double_overflow(capsys, tmp_path):
    # E*tau1 and the residual gap E[2,0] - E[0,0] both overflow. The sweep and
    # a single run share one engine, so both name the phase, checked first.
    message = "error: state is not normalized: non-finite phase E*dt for E = 1e+300, dt = 1e+300\n"
    spectrum = ["--omega", "1,1e300,1,1"]
    assert run_cli(capsys, "shor-demo", *spectrum, "--tau1", "1e300") == (1, "", message)
    out_path = tmp_path / "grid.csv"
    grid = ["--tau1-start", "0", "--tau1-stop", "1e300", "--tau1-count", "2",
            "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1"]
    assert run_cli(capsys, "sweep", *grid, *spectrum, "--out", str(out_path)) == (1, "", message)
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
def test_natural_phase_sweep_refuses_infinite_total_delay(capsys, tmp_path):
    # tau1 + tau2 = 1e308 + 1e308 overflows; the terminal phase names it.
    out_path = tmp_path / "grid.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--tau1-start", "0", "--tau1-stop", "1e308", "--tau1-count", "2",
        "--tau2-start", "0", "--tau2-stop", "1e308", "--tau2-count", "2",
        "--mode", "natural-phase", "--omega", "0,0,0,0", "--out", str(out_path),
    )
    assert code == 1
    assert err == "error: state is not normalized: non-finite phase E*dt for E = 0.0, dt = inf\n"
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["free-evolution", "natural-phase"])
def test_descending_overflow_grid_names_its_first_point(capsys, tmp_path, mode):
    # Every point overflows E*tau1 (and E*(tau1 + tau2)), and tau1 falls along
    # the grid: the refusal names the first point's delay, not the smallest one.
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--tau1-start", "1e300", "--tau1-stop", "5e299", "--tau1-count", "3",
        "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "2", "--mode", mode,
        "--energies", ",".join(["1e10"] * 16), "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: state is not normalized: non-finite phase E*dt for E = 10000000000.0, dt = 1e+300\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--tau1-start", "0", "--tau1-stop", "1e300", "--tau1-count", "2",
     "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1", "--out", "grid.csv"],
    ["shor-demo", "--tau1", "1e300"],
])
def test_overflowing_phase_leaves_clean_stderr(tmp_path, command):
    # The refusal is one line naming the phase: no numpy warning, no source path.
    package_root = Path(shorphase.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    env.pop(cli.FORMAT_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "shorphase", *command, "--energies", ",".join(["1e10"] * 16)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: state is not normalized: non-finite phase E*dt for E = 10000000000.0, dt = 1e+300\n"
    )
    assert not (tmp_path / "grid.csv").exists()


# ---------------------------------------------------------------------------
# one parser per process


def test_reused_parser_carries_no_state_between_calls(capsys, tmp_path):
    # main builds its parser once per process; a usage error, a help exit and
    # each subcommand must leave it as they found it, so a second pass of the
    # same calls in this process prints exactly what the first pass printed.
    grid = tmp_path / "grid.csv"
    calls = [
        ["pulse", "--mode", "coherent"],
        ["pulse", "--help"],
        ["check-condition", "--tau1", "0.3", "--tau2", "1.1"],
        ["pulse", "--mode", "noncoherent", "--area", "1", "--t0", "0.5", "--step", "0.01"],
        ["sweep", "--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "2",
         "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "3", "--out", str(grid)],
    ]

    def one_pass():
        results = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, grid.read_text()

    first = one_pass()
    assert [code for code, _, _ in first[0]] == [1, ("exit", 0), 0, 0, 0]
    assert first[0][0][2] == "error: give --area or --rabi\n"
    assert one_pass() == first
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# installed entry point


def test_installed_entry_point_runs():
    # Launch the console script that pyproject.toml declares, the way the
    # wrapper that pip writes for it does, with this interpreter and this
    # tree's package first on the path.
    tomllib = pytest.importorskip("tomllib")
    package_root = Path(shorphase.__file__).resolve().parents[1]
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["shorphase"]
    module, attr = target.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "shor-demo", "--tau1", "0", "--tau2", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["factor"] == 2


def test_python_dash_m_runs():
    # ``python -m shorphase`` with this tree's package first on the path.
    package_root = Path(shorphase.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "shorphase", "shor-demo", "--tau1", "0", "--tau2", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["factor"] == 2
