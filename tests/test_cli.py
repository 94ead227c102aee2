"""Command-line interface: flags, config files, outputs, exit codes."""

import contextlib
import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from escbo import cli
from escbo.cli import main
from escbo.harness import ExperimentConfig


def run_cli(args):
    return main(args)


def test_run_with_flags_writes_csv(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    code = run_cli(["run", "--method", "escbo", "--benchmark", "rastrigin",
                    "--dim", "2", "--particles", "8", "--lambda", "0.2",
                    "--delta", "0.2", "--beta", "1e6", "--sigma", "1e-4",
                    "--schedule", "geometric:0.5,0.9", "--init",
                    "uniform:-5,5", "--runs", "2", "--seed", "3",
                    "--max-iters", "40", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "rate=" in captured
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("escbo,rastrigin,2,8")
    assert (tmp_path / "summary_series.csv").exists()


def test_run_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        "# small smoke experiment\n"
        "method = escbo\n"
        "benchmark = rastrigin\n"
        "dim = 2\n"
        "particles = 6\n"
        "lambda = 0.2\n"
        "delta = 0.2\n"
        "beta = 1e6\n"
        "sigma = 1e-4\n"
        "schedule = geometric:0.5,0.9\n"
        "init = uniform:-5,5\n"
        "runs = 1\n"
        "max_iters = 30\n")
    assert run_cli(["run", "--config", str(cfg), "--runs", "2"]) == 0
    assert "runs=2" in capsys.readouterr().out


def test_summary_line_counts_failed_runs(capsys):
    # A constant step of 1e300 sends every run off to infinity.
    assert run_cli(["run", "--benchmark", "rastrigin", "--dim", "2",
                    "--particles", "6", "--schedule", "constant:1e300",
                    "--runs", "3", "--max-iters", "10"]) == 0
    out = capsys.readouterr().out
    assert "n-diverged=3  n-estimation=0  runs=3" in out


def test_compare_reports_both_methods(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare", "--benchmark", "rastrigin", "--dim", "2",
                    "--particles", "8", "--lambda", "0.2", "--delta", "0.2",
                    "--beta", "1e6", "--sigma", "1e-4", "--schedule",
                    "geometric:0.5,0.9", "--runs", "1", "--max-iters", "30",
                    "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "method=escbo" in text and "method=vanilla" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_diagnose_prints_summary(capsys):
    code = run_cli(["diagnose", "--method", "escbo", "--benchmark",
                    "rastrigin", "--dim", "2", "--particles", "6",
                    "--lambda", "0.75", "--delta", "0.25", "--beta", "1e6",
                    "--sigma", "0.05", "--schedule", "geometric:0.1,0.5",
                    "--max-iters", "25", "--seed", "4", "--lipschitz", "60"])
    assert code == 0
    text = capsys.readouterr().out
    assert "terminated by" in text
    assert "diameter under theoretical bound: True" in text


@pytest.mark.parametrize("lipschitz, shown", [
    ("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
def test_diagnose_lipschitz_out_of_range_is_an_error(capsys, lipschitz,
                                                     shown):
    code = run_cli(["diagnose", "--method", "escbo", "--benchmark",
                    "rastrigin", "--dim", "2", "--particles", "10",
                    "--max-iters", "5", "--lipschitz", lipschitz])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: L_f must lie in (0, inf), got {shown}\n"


def test_laplace_sweep(capsys):
    code = run_cli(["laplace", "--benchmark", "rastrigin", "--dim", "2",
                    "--beta-grid", "10,100", "--samples", "2000",
                    "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "beta,laplace_value,error_budget"
    assert len(lines) == 3
    beta, lap, budget = (float(v) for v in lines[1].split(","))
    assert beta == 10.0 and 0 < lap and budget > 0


def test_bad_beta_grid_is_an_error_not_a_crash(capsys):
    code = run_cli(["laplace", "--benchmark", "rastrigin", "--dim", "2",
                    "--beta-grid", "1,x"])
    assert code == 1
    assert capsys.readouterr().err == "error: bad beta-grid '1,x'\n"


@pytest.mark.parametrize("grid", ["inf", "1,nan", "0"])
def test_beta_grid_out_of_range_is_an_error(capsys, grid):
    code = run_cli(["laplace", "--benchmark", "rastrigin", "--dim", "2",
                    "--beta-grid", grid])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: beta must lie in ")


def test_unknown_benchmark_exits_nonzero(capsys):
    code = run_cli(["run", "--method", "escbo", "--benchmark", "nosuch",
                    "--dim", "2", "--runs", "1", "--max-iters", "5"])
    assert code == 1
    assert "unknown benchmark" in capsys.readouterr().err


def test_bad_config_file_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a key value line\n")
    assert run_cli(["run", "--config", str(cfg)]) == 1
    assert "expected" in capsys.readouterr().err


def test_table3_preset_writes_every_row(tmp_path, capsys):
    texts = []
    for seed in ("5", "6"):
        out = tmp_path / f"table3_{seed}.csv"
        assert run_cli(["table3", "--scale", "0.001", "--seed", seed,
                        "--out", str(out)]) == 0
        texts.append(out.read_text())
    header, *rows = csv.reader(texts[0].splitlines())
    assert len(rows) == 42
    assert all(len(row) == len(header) for row in rows)
    init = header.index("init")
    assert sum(row[init] == "gaussian(0.0,3.0)" for row in rows) == 14
    assert texts[0] != texts[1]


def test_table4_preset_reports_training_errors(tmp_path, capsys):
    out = tmp_path / "table4.csv"
    assert run_cli(["table4", "--scale", "0.001", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header.endswith(",train_err,test_err")
    assert len(rows) == 6


@pytest.mark.parametrize("args, message", [
    (["--config", "bogus.cfg"], "error: bogus.cfg:1: unknown key 'bogus'"),
    (["--schedule", "geometric:1,2"],
     "error: geometric schedule r must lie in (0, 1), got 2.0"),
    (["--out", "missing/summary.csv"], "i/o error: "),
    (["--method", "escbo", "--batch", "-3"],
     "error: batch_size must lie in [1, 20], got -3"),
    (["--benchmark", "dnn", "--arch", "2,2,1", "--dim", "0",
      "--data-seed", "-1"], "error: data_seed must lie in [0, inf), got -1"),
    (["--benchmark", "rastrigin", "--arch", "2,3,1"],
     "error: arch is set exactly when benchmark is dnn"),
    (["--runs", "2", "--max-iters", "3", "--schedule", "harmonic:nan"],
     "error: harmonic schedule c must lie in [0, inf), got nan"),
    (["--benchmark", "dnn", "--arch", "2,3,1", "--dim", "57"],
     "error: benchmark dnn does not read dim"),
    (["--benchmark", "rastrigin", "--data-seed", "5"],
     "error: benchmark rastrigin does not read data_seed"),
], ids=["unknown-config-key", "geometric-ratio", "out-missing-directory",
        "escbo-batch-negative", "data-seed-negative", "arch-on-benchmark",
        "schedule-nan", "dim-on-network", "data-seed-on-benchmark"])
def test_run_errors_exit_one(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bogus.cfg").write_text("bogus = 1\n")
    assert run_cli(["run", "--runs", "1", "--max-iters", "1", *args]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_bad_schedule_flag(capsys):
    code = run_cli(["run", "--method", "escbo", "--benchmark", "rastrigin",
                    "--dim", "2", "--schedule", "quadratic:1", "--runs", "1"])
    assert code == 1


def test_dnn_run_via_flags(capsys):
    code = run_cli(["run", "--method", "fescbo", "--benchmark", "dnn",
                    "--arch", "2,3,1", "--particles", "12", "--batch", "3",
                    "--lambda", "1", "--delta", "1", "--beta", "1e20",
                    "--sigma", "0.001", "--schedule", "geometric:1,0.99",
                    "--init", "uniform:-3,3", "--runs", "1",
                    "--max-iters", "40"])
    assert code == 0
    assert "train-err=" in capsys.readouterr().out


@pytest.mark.parametrize("route, text", [
    ("file", "dim = abc\n"),
    ("flag", ["--schedule", "geometric:1,abc"]),
    ("flag", ["--dim", "abc"]),
], ids=["file-dim", "flag-schedule", "flag-dim"])
def test_bad_value_is_an_error_not_a_crash(tmp_path, capsys, route, text):
    if route == "file":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        args = ["run", "--config", str(cfg)]
    else:
        args = ["run", *text]
    assert run_cli(args + ["--runs", "1", "--max-iters", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: bad ")


_LAPLACE = ["laplace", "--benchmark", "rastrigin", "--beta-grid", "1"]


@pytest.mark.parametrize("args", [
    _LAPLACE + ["--dim", "abc"],
    _LAPLACE + ["--dim", "2", "--samples", "1e3"],
    _LAPLACE + ["--dim", "2", "--eps", "x"],
    _LAPLACE + ["--dim", "2", "--seed", "1.5"],
    _LAPLACE + ["--dim", "2", "--samples", "-1"],
    _LAPLACE + ["--dim", "2", "--seed", "-1"],
    ["table2", "--scale", "abc"],
    ["table3", "--seed", "x"],
    ["diagnose", "--lipschitz", "x"],
], ids=["laplace-dim", "laplace-samples", "laplace-eps", "laplace-seed",
        "laplace-samples-negative", "laplace-seed-negative", "table-scale",
        "table-seed", "diagnose-lipschitz"])
def test_bad_command_flag_is_an_error_not_a_usage_exit(capsys, args):
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: bad ")


def test_every_config_field_is_a_flag_and_a_file_key(tmp_path):
    # One non-default value per ExperimentConfig field, under its CLI key.
    values = {"method": "fescbo", "benchmark": "dnn", "dim": "13",
              "particles": "12", "lambda": "0.5", "delta": "0.2",
              "beta": "1e6", "sigma": "1e-3", "schedule": "harmonic:0.5",
              "init": "gaussian:0,2", "batch": "4", "max_iters": "7",
              "stop_tol": "1e-7", "success_tol": "1e-2", "runs": "3",
              "seed": "5", "arch": "2,3,1", "data_seed": "9"}
    renamed = {"lam": "lambda", "batch_size": "batch"}
    fields = dataclasses.fields(ExperimentConfig)
    assert {renamed.get(f.name, f.name) for f in fields} == set(values)

    flags = [a for key, text in values.items()
             for a in ("--" + key.replace("_", "-"), text)]
    by_flag = cli._build_config(cli.build_parser().parse_args(
        ["run", *flags]))
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    by_file = cli._build_config(cli.build_parser().parse_args(["run"]),
                                cli._read_config_file(str(cfg)))
    assert by_flag == by_file
    default = ExperimentConfig()
    assert all(getattr(by_flag, f.name) != getattr(default, f.name)
               for f in fields)


# Flag values of right and wrong forms, in and out of range, by CLI key.
_FLAG_TEXTS = {
    "method": ["escbo", "vanilla", "fescbo", "sgd", ""],
    "benchmark": ["rastrigin", "ackley", "bartels_conn", "dnn", "nope"],
    "dim": ["1", "3", "0", "13", "-1", "2.5", "x"],
    "particles": ["1", "6", "0", "-2", "1e3", "many"],
    "lambda": ["0", "0.2", "1", "-0.1", "inf", "nan", "x"],
    "delta": ["0", "0.1", "-1", "inf", "nan"],
    "beta": ["1e20", "10", "0", "-1", "inf", "nan", "True"],
    "sigma": ["1e-5", "0.001", "0", "inf", "nan"],
    "schedule": ["geometric:1,0.99", "constant:0", "harmonic:0.5",
                 "constant:1e300", "harmonic:nan", "geometric:1,2",
                 "geometric:1", "constant:1,2", "quadratic:1", "harmonic",
                 "constant:x", ""],
    "init": ["uniform:-5,5", "gaussian:0,3", "uniform:1,1", "uniform:1",
             "gaussian:0,-1", "uniform:-inf,0", "box:0,1", "uniform"],
    "batch": ["1", "3", "0", "-3", "50", "2.0"],
    "max_iters": ["0", "2", "-1", "x"],
    "stop_tol": ["0", "1e-6", "-1", "nan"],
    "success_tol": ["1e-3", "0", "inf"],
    "runs": ["1", "2", "0", "-1"],
    "seed": ["0", "7", "-3", "1.5"],
    "arch": ["2,3,1", "1,1", "2", "2,0,1", "2.5,3,1", "2,,1", "a"],
    "data_seed": ["0", "4", "-1", "x"],
}


def test_flag_texts_cover_every_config_key():
    assert set(_FLAG_TEXTS) == set(cli._FIELDS)


@settings(max_examples=300)
@given(flags=st.lists(st.sampled_from(sorted(_FLAG_TEXTS)), max_size=4,
                      unique=True), data=st.data())
def test_run_exits_zero_or_one_for_any_flag_values(flags, data):
    args = [f"--{key.replace('_', '-')}="
            f"{data.draw(st.sampled_from(_FLAG_TEXTS[key]), label=key)}"
            for key in flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--runs=1", "--max-iters=2", "--particles=6",
                     *args])
    event(f"exit {code}")
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith("error: "))


_DIAGNOSE_TEXTS = {**_FLAG_TEXTS,
                   "lipschitz": ["1", "1000", "1e308", "0", "-1", "inf", "x"]}


def _flag_args(keys):
    return st.tuples(*(st.sampled_from(
        [f"--{key.replace('_', '-')}={text}" for text in _DIAGNOSE_TEXTS[key]])
        for key in keys))


@settings(max_examples=150)
@given(args=st.lists(st.sampled_from(sorted(_DIAGNOSE_TEXTS)), max_size=4,
                     unique=True).flatmap(_flag_args))
@example(args=("--lambda=1e200",))
@example(args=("--particles=1", "--lipschitz=1000", "--max-iters=30",
               "--stop-tol=0"))
def test_diagnose_exits_zero_or_one_for_any_flag_values(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["diagnose", "--max-iters=2", "--particles=6", *args])
    event(f"exit {code}")
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith("error: "))


def test_diagnose_bound_of_a_collapsed_swarm_holds(capsys):
    # One particle: the diameter is 0 at every step, and so is the bound,
    # although its factors overflow.
    code = run_cli(["diagnose", "--particles", "1", "--lipschitz", "1000",
                    "--max-iters", "30", "--stop-tol", "0"])
    assert code == 0
    assert "diameter under theoretical bound: True" in capsys.readouterr().out


def test_diagnose_notes_an_initial_diameter_that_is_not_finite(capsys):
    code = run_cli(["diagnose", "--init", "uniform:-1e200,1e200",
                    "--lipschitz", "1", "--max-iters", "5"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert "diameter bound unavailable: initial diameter is inf" in out.out
    assert "under theoretical bound" not in out.out
