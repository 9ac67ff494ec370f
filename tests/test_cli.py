import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qfilter
from conftest import qnd_model
from qfilter.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from qfilter.config import matrix_to_json
from qfilter.io import write_record_csv
from qfilter.master import TimeGrid
from qfilter.trajectory import QUADRATURE, MeasurementRecord


def write_config(tmp_path, **overrides):
    data = {
        "model": {
            "dim": 2,
            "S": matrix_to_json(np.eye(2)),
            "L": matrix_to_json(np.array([[0, 0], [1, 0]])),
            "H": matrix_to_json(np.zeros((2, 2))),
        },
        "beta": {"kind": "constant", "value": [0.5, 0.0]},
        "rho0": "excited",
        "grid": {"dt": 1e-3, "T": 0.3},
        "measurement": "quadrature",
        "observables": ["sigma_z", "p_excited"],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_master_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "master.csv").read_text().splitlines()
    assert lines[0] == "t,sigma_z,p_excited,trace,purity"
    assert len(lines) == 302


COUNTING_SINUSOID = {
    "measurement": "counting",
    "beta": {"kind": "sinusoid", "amplitude": [1.0, 0.5], "frequency": 20.0, "offset": [3.0, 0.0]},
}
QUADRATURE_SAMPLES = {
    "beta": {"kind": "samples", "dt": 0.05, "values": [[0.5, 0], [0.1, 0.2], [1.0, -0.3]]},
}


@pytest.mark.parametrize(
    "overrides",
    [{}, COUNTING_SINUSOID, QUADRATURE_SAMPLES],
    ids=["quadrature", "counting-sinusoid", "quadrature-samples"],
)
def test_simulate_then_filter_round_trip_is_byte_identical(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
    assert main(["simulate", "--config", str(cfg), "--seed", "11", "--out", str(sim_dir)]) == EXIT_OK
    if "measurement" in overrides:  # the counting replay takes the jump branch
        assert "1" in (sim_dir / "record.csv").read_text().splitlines()[2:]
    flt_dir.mkdir()
    (flt_dir / "record.csv").write_bytes((sim_dir / "record.csv").read_bytes())
    assert main(["filter", "--config", str(cfg), "--out", str(flt_dir)]) == EXIT_OK
    assert (flt_dir / "states.csv").read_bytes() == (sim_dir / "states.csv").read_bytes()


def test_filter_without_record_fails_validation(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "empty"
    assert main(["filter", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not (out / "states.csv").exists()
    assert not out.exists()


def test_filter_kind_mismatch_fails_validation(tmp_path):
    quad_cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(quad_cfg), "--out", str(out)]) == EXIT_OK
    count_cfg = write_config(tmp_path, measurement="counting")
    states_before = (out / "states.csv").read_bytes()
    assert main(["filter", "--config", str(count_cfg), "--out", str(out)]) == EXIT_VALIDATION
    # The stale states file is untouched on failure.
    assert (out / "states.csv").read_bytes() == states_before


def test_invalid_config_fails_validation_without_outputs(tmp_path):
    cfg = write_config(tmp_path, measurement="heterodyne")
    out = tmp_path / "nothing"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(["master", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_numerical_failure_exit_code(tmp_path):
    # dt far too large for the generator: RK4 trace drift aborts.
    cfg = write_config(
        tmp_path,
        model={
            "dim": 2,
            "S": matrix_to_json(np.eye(2)),
            "L": matrix_to_json(20.0 * np.array([[0, 0], [1, 0]])),
            "H": matrix_to_json(np.zeros((2, 2))),
        },
        grid={"dt": 0.5, "T": 5.0},
    )
    assert main(["master", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL


def test_numerical_failure_names_the_step(tmp_path, capsys):
    # r dt = 2000 * 1e-3 exceeds the jump-probability bound on the first step.
    cfg = write_config(
        tmp_path,
        model={
            "dim": 2,
            "S": matrix_to_json(np.eye(2)),
            "L": matrix_to_json(np.sqrt(2000.0) * np.array([[0, 0], [1, 0]])),
            "H": matrix_to_json(np.zeros((2, 2))),
        },
        measurement="counting",
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert "step 0, t=0: jump probability" in capsys.readouterr().err


def test_filter_on_a_record_that_loses_the_trace_exits_2_on_one_line(tmp_path, capsys):
    # The QND record of test_trajectory's trace-loss test: dY = 0.5 at every step
    # of dt = 1/64 drives the state off trace 1 by over 1e-3 at step 4.
    model = qnd_model()
    cfg = write_config(
        tmp_path,
        model={"dim": 3, **{name: matrix_to_json(getattr(model, name)) for name in "SLH"}},
        beta={"kind": "constant", "value": [0.6, 0.3]},
        rho0={"matrix": matrix_to_json(np.eye(3) / 3)},
        grid={"dt": 1 / 64, "T": 0.125},
        observables=[],
    )
    out = tmp_path / "out"
    out.mkdir()
    grid = TimeGrid(dt=1 / 64, steps=8)
    write_record_csv(out / "record.csv", MeasurementRecord(QUADRATURE, grid, np.full(8, 0.5)))
    assert main(["filter", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 4, t=0.0625: state trace lost: |tr - 1| = ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (out / "states.csv").exists()


@pytest.mark.parametrize(
    "line, value, message",
    [
        (9, "nan", "record increments must be finite"),
        (9, "0.1x", "could not convert string to float"),
        (1, "quadrature,0.001", "not enough values to unpack"),
    ],
    ids=["nan", "not-a-number", "short-metadata"],
)
def test_bad_record_fails_validation_naming_the_file(tmp_path, capsys, line, value, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    record = out / "record.csv"
    lines = record.read_text().splitlines()
    lines[line] = value
    record.write_text("\n".join(lines) + "\n")
    assert main(["filter", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"error: {record}: {message}" in capsys.readouterr().err


def test_filter_grid_mismatch_fails_validation(tmp_path, capsys):
    out = tmp_path / "out"
    coarse = write_config(tmp_path, grid={"dt": 2e-3, "T": 0.3})
    assert main(["simulate", "--config", str(coarse), "--out", str(out)]) == EXIT_OK
    states_before = (out / "states.csv").read_bytes()
    fine = write_config(tmp_path)
    assert main(["filter", "--config", str(fine), "--out", str(out)]) == EXIT_VALIDATION
    assert "error: grid: record TimeGrid(dt=0.002, steps=150" in capsys.readouterr().err
    assert (out / "states.csv").read_bytes() == states_before


def test_classical_numerical_failure_exit_code(tmp_path, capsys):
    # c^2 P^2 dt overshoots: the Kalman-Bucy covariance goes negative mid-run.
    cfg = write_config(tmp_path, classical={"preset": "linear", "c": 100.0, "particles": 100})
    assert main(["classical", "--config", str(cfg), "--out", str(tmp_path / "c")]) == EXIT_NUMERICAL
    assert "numerical failure: covariance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("master", {"beta": {"kind": "sinusoid", "amplitude": [1e300, 0], "frequency": 1}}),
        ("classical", {"classical": {"preset": "linear", "prior_std": 1e200}}),
        ("classical", {"classical": {"preset": "linear", "c": 1e200}}),
        ("classical", {"classical": {"preset": "linear", "sigma": 1e200}}),
        ("classical", {"classical": {"preset": "linear", "a": 1e200}}),
        ("master", {"beta": {"kind": "constant", "value": [1e150, 0]}}),
        ("ensemble", {"beta": {"kind": "constant", "value": [1e150, 0]}}),
    ],
    ids=[
        "beta-squared", "prior-variance", "classical-c", "classical-sigma", "classical-a",
        "master-huge-beta", "ensemble-huge-beta",
    ],
)
def test_float_overflow_is_a_numerical_failure_without_a_traceback(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


HUGE_BETA = {  # the dim-1 config of the CI entry-point check
    "model": {"dim": 1, "S": [[1, 0]], "L": [[0, 0]], "H": [[0, 0]]},
    "beta": {"kind": "sinusoid", "amplitude": [1e300, 0], "frequency": 1},
    "rho0": {"matrix": [[1, 0]]},
    "grid": {"dt": 0.1, "T": 1},
    "measurement": "quadrature",
}


@pytest.mark.parametrize("command", ["master", "simulate", "ensemble"])
def test_beta_whose_square_overflows_names_beta_and_the_step(tmp_path, capsys, command):
    cfg = tmp_path / "huge_beta.json"
    cfg.write_text(json.dumps(HUGE_BETA))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: step 0, t=0: ") and "beta" in err


@pytest.mark.parametrize("command", ["master", "ensemble"])
def test_beta_whose_products_overflow_names_beta_and_the_time(tmp_path, capsys, command):
    # The qubit config of the CI entry-point check `overflow_master`.
    cfg = write_config(tmp_path, beta={"kind": "constant", "value": [1e150, 0]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: trace drift ") and "at t=0, beta = " in err


# The README qubit with T = 0.05 and a samples beta whose square overflows
# from t = 0.0105 on, after six changes of beta within the first steps; the
# config of the CI entry-point check `late_overflow`.
LATE_OVERFLOW_BETA = {
    "kind": "samples",
    "dt": 0.0015,
    "values": [[0.5, 0], [0.6, 0], [0.7, 0], [0.8, 0], [0.9, 0], [1.0, 0], [1.1, 0], [1e300, 0]],
}
# One that overflows from t = 0.01 on, after repeats of 0.6 that open the
# block of beta values holding the failure.
REPEATED_OVERFLOW_BETA = {"kind": "samples", "dt": 0.005, "values": [[0.5, 0], [0.6, 0], [1e300, 0]]}


@pytest.mark.parametrize("kind", ["quadrature", "counting"])
@pytest.mark.parametrize(
    "beta, command, step",
    [
        pytest.param(LATE_OVERFLOW_BETA, *case, id="-".join(case))
        for case in [
            ("master", "step 10, t=0.01"),
            ("simulate", "step 11, t=0.011"),
            ("ensemble", "step 10, t=0.01"),
        ]
    ]
    + [
        pytest.param(REPEATED_OVERFLOW_BETA, *case, id="-".join(("repeats",) + case))
        for case in [
            ("master", "step 9, t=0.009"),
            ("simulate", "step 10, t=0.01"),
            ("ensemble", "step 9, t=0.009"),
        ]
    ],
)
def test_late_overflow_names_the_step_that_first_uses_it(
    tmp_path, capsys, beta, command, step, kind
):
    # RK4 step k samples beta at t + dt and the filter step k + 1 at that
    # t; `ensemble` integrates the master equation first.  Not a step
    # before, where the block holding the bad value is formed.
    cfg = write_config(tmp_path, beta=beta, grid={"dt": 1e-3, "T": 0.05}, measurement=kind)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: {step}: |beta|^2 overflows a float at beta = (1e+300+0j)\n"
    )


# The same config with a last sample whose square is finite, 1e300: the
# maps at beta = 1e150 overflow instead, and each command names the step,
# time and beta of the first state they make non-finite.
TRACE_DRIFT = (
    "trace drift nan at step 10: dt=0.001 too large for this generator at t=0.01, beta = (1.1+0j)"
)


@pytest.mark.parametrize(
    "command, kind, message",
    [
        ("master", "quadrature", TRACE_DRIFT),
        ("master", "counting", TRACE_DRIFT),
        ("ensemble", "quadrature", TRACE_DRIFT),
        ("ensemble", "counting", TRACE_DRIFT),
        (
            "simulate",
            "quadrature",
            "step 12, t=0.012: state trace underflow during renormalization: trace 0 (below 1e-12)",
        ),
        ("simulate", "counting", "step 11, t=0.011: jump probability 1e+297 exceeds bound 0.1"),
    ],
)
def test_late_overflow_of_the_maps_names_its_step_and_beta(tmp_path, capsys, command, kind, message):
    beta = {**LATE_OVERFLOW_BETA, "values": LATE_OVERFLOW_BETA["values"][:-1] + [[1e150, 0]]}
    cfg = write_config(tmp_path, beta=beta, grid={"dt": 1e-3, "T": 0.05}, measurement=kind)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("beta", [{"t0": 1e308, "dt": 0.05}, {"dt": 1e-320}], ids=["far-t0", "tiny-dt"])
def test_samples_beta_far_from_its_start_runs(tmp_path, beta):
    cfg = write_config(tmp_path, beta={"kind": "samples", "values": [[0.5, 0], [1.0, 0]], **beta})
    assert main(["master", "--config", str(cfg), "--out", str(tmp_path / "m")]) == EXIT_OK


def test_ensemble_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ens"
    assert main([
        "ensemble", "--config", str(cfg), "--out", str(out), "--trajectories", "40", "--seed", "2",
    ]) == EXIT_OK
    summary = json.loads((out / "ensemble.json").read_text())
    assert list(summary) == [
        "n_trajectories", "master_seed", "kind", "sup_trace_distance_to_master",
        "max_abs_innovations_z", "checkpoint_times",
    ]
    assert (summary["n_trajectories"], summary["master_seed"], summary["kind"]) == (
        40, 2, "quadrature",
    )
    series = (out / "ensemble.csv").read_text().splitlines()
    assert series[0] == (
        "t,mean_sigma_z,stderr_sigma_z,mean_p_excited,stderr_p_excited,"
        "innovations_mean,innovations_stderr,trace_distance_to_master,mean_purity"
    )
    assert len(series) == 1 + len(summary["checkpoint_times"])


@pytest.mark.parametrize("count", ["0", "-5"])
def test_nonpositive_trajectories_fails_validation_naming_the_flag(tmp_path, capsys, count):
    cfg = write_config(tmp_path)
    out = tmp_path / "ens"
    assert main([
        "ensemble", "--config", str(cfg), "--out", str(out), "--trajectories", count,
    ]) == EXIT_VALIDATION
    assert "--trajectories" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_fails_validation_naming_the_flag(tmp_path, capsys, command, seed):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    assert main(argv) == EXIT_VALIDATION
    assert f"error: --seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_largest_seed_runs(tmp_path, command):
    cfg = write_config(tmp_path, grid={"dt": 1e-3, "T": 0.01})
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), "--seed", str(2**64 - 1)]
    assert main(argv + (["--trajectories", "2"] if command == "ensemble" else [])) == EXIT_OK


def test_verify_takes_no_config_or_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["verify", "--config", "nonexistent.json", "--out", str(tmp_path / "zz")])
    assert not (tmp_path / "zz").exists()


def test_classical_command(tmp_path):
    cfg = write_config(tmp_path, classical={"preset": "linear", "particles": 200})
    out = tmp_path / "cls"
    assert main(["classical", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == EXIT_OK
    lines = (out / "classical.csv").read_text().splitlines()
    assert lines[0] == "t,x_true,pf_mean,pf_var,innovations,kalman_mean,kalman_var"
    assert len(lines) == 302


def test_classical_bad_value_fails_validation_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, classical={"preset": "linear", "a": None})
    out = tmp_path / "cls"
    assert main(["classical", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "classical.a: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_null_grid_step_fails_validation_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"dt": None, "T": 0.3})
    out = tmp_path / "m"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "grid.dt: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_grid_without_steps_fails_validation_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"dt": 1.0, "T": 0.4})
    out = tmp_path / "m"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "error: grid: T/dt = 0.4: steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_observable_name_with_a_comma_fails_validation(tmp_path, capsys):
    # Written unquoted, the name would split the CSV header into one field too many.
    observables = [{"name": "a,b", "matrix": matrix_to_json(np.eye(2))}]
    cfg = write_config(tmp_path, observables=observables)
    out = tmp_path / "m"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "observables[0].name: expected a name without" in capsys.readouterr().err
    assert not (out / "master.csv").exists()


def test_output_name_with_a_nul_byte_fails_validation_before_running(tmp_path, capsys):
    cfg = write_config(tmp_path, output={"master": "m\0.csv"})
    out = tmp_path / "m"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "output.master: expected a bare file name" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_fails_validation_without_a_traceback(tmp_path, capsys, monkeypatch):
    def too_large(*args):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (100000000001, 1, 1)")

    monkeypatch.setattr("qfilter.cli.integrate_master", too_large)
    out = tmp_path / "out"
    assert main(["master", "--config", str(write_config(tmp_path)), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Unable to allocate 1.46 TiB" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-is-a-directory", "out-is-a-file", "out-below-a-file"])
def test_file_system_error_fails_validation_on_one_line(tmp_path, capsys, case):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    (tmp_path / "file").write_text("")
    if case == "config-is-a-directory":
        cfg = tmp_path / "directory.json"
        cfg.mkdir()
    elif case == "out-is-a-file":
        out = tmp_path / "file"
    else:
        out = tmp_path / "file" / "out"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg if case == "config-is-a-directory" else out) in err
    assert "Traceback" not in err


def test_classical_requires_section(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["classical", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_VALIDATION


@pytest.mark.parametrize("extra", [[], ["--dims-check"]], ids=["plain", "dims-check"])
def test_verify_command(capsys, extra):
    assert main(["verify", "--seed", "0", *extra]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "all 16 identity checks passed" in captured


def test_output_path_overrides(tmp_path):
    cfg = write_config(tmp_path, output={"master": "custom.csv"})
    out = tmp_path / "o"
    assert main(["master", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "custom.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--out", "zz"], ["master", "--seed", "x", "--config", "y"]],
    ids=["verify-unknown-flag", "master-bad-seed"],
)
def test_usage_error_exits_with_the_validation_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


RUN_COMMANDS = """
import json, sys
from qfilter.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""
# LC_ALL=C without coercion or UTF-8 mode: the locale's encoding is ASCII.
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_fresh(commands: list, **env):
    """Exit codes of `commands`, each an argv run by main in one fresh interpreter, and its modules."""
    src = str(Path(qfilter.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["modules"]), proc.stderr


DEFERRED = ("verify", "ito", "qprob", "classical", "ensemble")


@pytest.mark.parametrize(
    "commands, loaded",
    [
        ([], set()),
        (["master", "simulate", "filter"], set()),
        (["ensemble"], {"ensemble"}),
        (["classical"], {"classical"}),
        (["verify"], {"verify", "ito", "qprob"}),
    ],
    ids=["import", "master-simulate-filter", "ensemble", "classical", "verify"],
)
def test_a_command_imports_only_the_modules_it_runs(tmp_path, commands, loaded):
    """Only ensemble, classical and verify load their own modules; a config without a
    classical section never loads classical."""
    classical = {"classical": {"particles": 50}} if "classical" in commands else {}
    cfg, out = write_config(tmp_path, **classical), tmp_path / "out"
    argvs = [
        ["verify", "--seed", "0"] if c == "verify" else [c, "--config", str(cfg), "--out", str(out)]
        for c in commands
    ]
    codes, modules, _ = run_fresh(argvs)
    assert codes == [EXIT_OK] * len(commands)
    assert {m for m in DEFERRED if f"qfilter.{m}" in modules} == loaded


def test_text_io_is_utf8_under_an_ascii_locale(tmp_path):
    data = json.loads(write_config(tmp_path).read_text())
    data["observables"].insert(1, {"name": "\u03c3z", "matrix": matrix_to_json(np.diag([1.0, -1.0]))})
    cfg = tmp_path / "utf8.json"
    cfg.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "out"
    argvs = [[c, "--config", str(cfg), "--out", str(out)] for c in ("master", "simulate")]
    codes, _, err = run_fresh(argvs, **C_LOCALE)
    assert codes == [EXIT_OK, EXIT_OK], err
    simulated = (out / "states.csv").read_bytes()
    codes, _, err = run_fresh([["filter", "--config", str(cfg), "--out", str(out)]], **C_LOCALE)
    assert codes == [EXIT_OK], err
    assert (out / "states.csv").read_bytes() == simulated
    header = "t,sigma_z,\u03c3z,p_excited,trace,purity".encode("utf-8")
    assert (out / "master.csv").read_bytes().startswith(header + b"\n")
    assert simulated.startswith(header + b",innovations\n")

    # A config or record that is not UTF-8 fails validation, naming the file.
    bad_cfg, bad_out = tmp_path / "not_utf8.json", tmp_path / "bad"
    bad_cfg.write_bytes(cfg.read_bytes().replace("\u03c3".encode("utf-8"), b"\xcf"))
    bad_out.mkdir()
    (bad_out / "record.csv").write_bytes((out / "record.csv").read_bytes().replace(b"\n", b"\xff\n", 1))
    argvs = [
        ["master", "--config", str(bad_cfg), "--out", str(bad_out)],
        ["filter", "--config", str(cfg), "--out", str(bad_out)],
    ]
    codes, _, err = run_fresh(argvs, **C_LOCALE)
    assert codes == [EXIT_VALIDATION, EXIT_VALIDATION]
    at = bad_cfg.read_bytes().index(b"\xcf")
    assert err.splitlines() == [
        f"error: {bad_cfg}: malformed JSON: 'utf-8' codec can't decode byte 0xcf in position {at}: "
        "invalid continuation byte",
        f"error: {bad_out / 'record.csv'}: 'utf-8' codec can't decode byte 0xff in position 13: "
        "invalid start byte",
    ]
    assert not (bad_out / "master.csv").exists()
