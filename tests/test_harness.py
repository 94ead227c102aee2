"""Campaign runner, metrics, presets, report emission, and diagnostics."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from escbo import harness
from escbo.benchmarks import lookup
from escbo.harness import (AggregateReport, ExperimentConfig, diagnose,
                           emit_report, run_many, run_once, table_preset)
from escbo.objective import ConfigurationError, Objective
from escbo.swarm import (ComponentGaussian, StepSchedule, SwarmState,
                         UniformBox, consensus_point)
from escbo.theory import ParameterConditionWarning


def quick_config(**overrides):
    base = dict(method="escbo", benchmark="rastrigin", dim=2, particles=10,
                lam=0.2, delta=0.2, beta=1e6, sigma=1e-4,
                schedule=StepSchedule.geometric(0.5, 0.9),
                init=UniformBox(-5.0, 5.0), max_iters=60, runs=3, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_full_contraction_stops_immediately():
    cfg = quick_config(lam=1.0, delta=0.0,
                       schedule=StepSchedule.constant(0.0))
    rec = run_once(cfg, seed=1)
    assert rec.terminated_by == "stop_rule"
    assert rec.iterations <= 2
    assert rec.diameter[0] > 0
    assert np.all(rec.diameter[1:] == 0.0)


def test_max_iters_zero():
    rec = run_once(quick_config(max_iters=0), seed=0)
    assert rec.iterations == 0 and rec.terminated_by == "max_iters"
    assert len(rec.ks) == 1


def test_eval_accounting_exact():
    n, d, iters = 8, 2, 25
    stop_never = dict(particles=n, max_iters=iters, stop_tol=1e-300)
    rec = run_once(quick_config(**stop_never), seed=0)
    assert rec.evals == n + iters * (n * (d + 1) + n)
    rec = run_once(quick_config(method="vanilla", **stop_never), seed=0)
    assert rec.evals == n + iters * n
    rec = run_once(quick_config(method="fescbo", batch_size=3, **stop_never),
                   seed=0)
    assert rec.evals == n + iters * (3 * (d + 1) + n)


@settings(max_examples=60)
@given(method=st.sampled_from(["escbo", "vanilla", "fescbo"]),
       n=st.integers(2, 10), d=st.integers(1, 4), k=st.integers(0, 12),
       data=st.data())
def test_eval_accounting_exact_everywhere(method, n, d, k, data):
    b = data.draw(st.integers(1, n), label="batch_size")
    rec = run_once(quick_config(method=method, dim=d, particles=n,
                                batch_size=b, max_iters=k, stop_tol=1e-300),
                   seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    per_step = {"escbo": n * (d + 2), "vanilla": n,
                "fescbo": b * (d + 1) + n}[method]
    assert rec.iterations == k
    assert rec.evals == n + k * per_step


def test_run_many_builds_each_target_once(monkeypatch):
    builds = []
    build_target = harness._build_target

    def counting_build(config):
        builds.append(config)
        return build_target(config)

    monkeypatch.setattr(harness, "_build_target", counting_build)
    report = run_many(quick_config(runs=3, max_iters=20))
    assert len(builds) == 3
    assert report.sol_err == np.mean([r.w_k[-1] for r in report.records])


def test_consensus_is_the_final_point():
    cfg = quick_config(max_iters=40)
    rec = run_once(cfg, seed=2)
    final = SwarmState(rec.final_positions, rec.final_values, rec.iterations)
    assert rec.consensus.shape == (2,)
    assert np.array_equal(rec.consensus, consensus_point(final, cfg.beta))


def test_runs_without_a_minimizer_have_no_minimizer_scores():
    dnn = ExperimentConfig(method="fescbo", benchmark="dnn", dim=0,
                           arch=(2, 3, 1), particles=6, batch_size=2,
                           max_iters=5, runs=2)
    report = run_many(dnn)
    for rec in report.records:
        assert rec.success is None and rec.fun_err is None
        assert rec.train_err is not None
    assert math.isnan(report.rate) and math.isnan(report.fun_err)
    rec = run_once(quick_config(max_iters=5), seed=0)
    assert isinstance(rec.success, bool) and rec.fun_err >= 0.0


def test_divergence_is_recorded_not_raised():
    cfg = quick_config(schedule=StepSchedule.constant(1e300), max_iters=10,
                       runs=2)
    with np.errstate(over="ignore"):
        rec = run_once(cfg, seed=0)
        assert rec.terminated_by == "divergence"
        assert np.all(np.isfinite(rec.final_positions))
        report = run_many(cfg)
    assert report.n_diverged == 2
    assert report.rate == 0.0


def test_estimation_failure_is_recorded_not_raised(monkeypatch):
    # A sphere objective that returns NaN at the second coordinate probe
    # from the third gradient estimate of each run on.
    build_target = harness._build_target

    def nan_probe_target(config):
        target = build_target(config)
        probe_calls = []

        def spiky(x):
            vals = np.sum(x * x, axis=-1)
            if x.shape[0] == config.particles * config.dim:
                probe_calls.append(1)
                if len(probe_calls) >= 3:
                    vals[1] = np.nan
            return vals

        target.objective = Objective(config.dim, spiky)
        return target

    monkeypatch.setattr(harness, "_build_target", nan_probe_target)
    report = run_many(quick_config(runs=2, max_iters=10, stop_tol=1e-300))
    for rec in report.records:
        assert rec.terminated_by == "estimation"
        assert rec.iterations == 2
        assert np.all(np.isfinite(rec.final_positions))
        assert np.all(np.isfinite(rec.final_values))
    assert report.rate == 0.0 and report.n_diverged == 0


@pytest.mark.parametrize("method", ["escbo", "vanilla", "fescbo"])
def test_non_finite_initial_swarm_is_a_divergence(method):
    # A valid but huge box: rastrigin overflows to inf on the initial swarm.
    cfg = ExperimentConfig(method=method, init=UniformBox(-1e200, 1e200),
                           batch_size=5, runs=2, max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_many(cfg)
    for rec in report.records:
        assert rec.terminated_by == "divergence" and rec.iterations == 0
        assert rec.evals == cfg.particles and rec.success is False
        assert rec.consensus.shape == (cfg.dim,)
        assert np.all(np.isnan(rec.consensus))
    assert report.n_diverged == 2 and report.rate == 0.0


def test_divergent_run_emits_no_warning():
    cfg = quick_config(lam=0.0, delta=50.0, max_iters=200, stop_tol=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_once(cfg, seed=0)
    assert rec.terminated_by == "divergence"
    assert np.all(np.isfinite(rec.final_positions))


def test_checkpoint_cadence():
    rec = run_once(quick_config(max_iters=130, stop_tol=1e-300), seed=0)
    ks = rec.ks.tolist()
    assert ks[:101] == list(range(101))
    assert ks[101:] == [110, 120, 130]


def test_series_and_w_k():
    spec = lookup("rastrigin", 2)
    rec = run_once(quick_config(max_iters=30, stop_tol=1e-300), seed=3)
    assert rec.w_k is not None and len(rec.w_k) == len(rec.ks)
    final_w = float(np.mean(np.sum(rec.final_positions ** 2, axis=1)))
    assert rec.w_k[-1] == pytest.approx(final_w, rel=1e-12)
    assert np.all(rec.diameter >= 0)
    assert rec.best_f[-1] == pytest.approx(float(rec.final_values.min()))


def test_metrics_match_independent_recomputation():
    cfg = quick_config(runs=5, max_iters=80)
    report = run_many(cfg)
    spec = lookup(cfg.benchmark, cfg.dim)
    hits, sols, funs = [], [], []
    for rec in report.records:
        dists = np.linalg.norm(rec.final_positions - spec.x_star[0], axis=1)
        hits.append(dists.max() < cfg.success_tol)
        sols.append(np.mean(dists ** 2))
        funs.append(np.mean(np.abs(rec.final_values - spec.f_star)))
    assert report.rate == pytest.approx(np.mean(hits), abs=1e-12)
    assert report.sol_err == pytest.approx(np.mean(sols), rel=1e-12)
    assert report.fun_err == pytest.approx(np.mean(funs), rel=1e-12)


# ------------------------------------------------- scoring, without stepping

def _trajectory_ending_at(positions, init_values, k=5):
    """What ``_trajectory`` returns for a swarm that ran k steps to
    ``positions``: final state, series, terminated_by and initial values."""
    positions = np.asarray(positions, dtype=float)
    values = np.sum(positions * positions, axis=1)
    series = [(0, 2.0, 1.0, 1.0), (k, 1.0, 0.5, float(values.min()))]
    return (SwarmState(positions, values, k), series, "max_iters",
            np.asarray(init_values, dtype=float))


@pytest.mark.parametrize("offset, success", [(1.5e-3, False),
                                             (0.5e-3, True)])
def test_score_succeeds_only_inside_success_tol(offset, success):
    # The farthest particle lies between success_tol and twice it, or inside.
    cfg = quick_config(success_tol=1e-3)
    target = harness._build_target(cfg)
    final = target.x_star[0] + np.array([[0.0, offset], [0.0, 0.0]])
    rec = harness._score(cfg, target, 7,
                         *_trajectory_ending_at(final, [3.0, 4.0]))
    assert rec.success is success
    assert (rec.seed, rec.iterations, rec.terminated_by) == (7, 5, "max_iters")
    assert rec.ks.tolist() == [0, 5] and rec.w_k.tolist() == [1.0, 0.5]
    assert rec.init_train_err is None


def test_score_takes_the_initial_training_error_as_the_mean():
    cfg = ExperimentConfig(method="fescbo", benchmark="dnn", arch=(2, 3, 1),
                           particles=3, batch_size=2, max_iters=5, runs=1)
    target = harness._build_target(cfg)
    final = np.random.default_rng(0).uniform(
        -1.0, 1.0, (3, target.objective.dim))
    rec = harness._score(cfg, target, 0,
                         *_trajectory_ending_at(final, [1.0, 2.0, 6.0]))
    assert rec.init_train_err == 3.0
    assert rec.train_err == float(np.min(rec.final_values))
    assert rec.success is None and rec.w_k is None


@pytest.mark.parametrize("network", [False, True])
def test_score_neither_steps_nor_evaluates(monkeypatch, network):
    def forbidden(*args, **kwargs):
        raise AssertionError("_score stepped")

    for name in ("escbo_step", "vanilla_cbo_step", "fescbo_step",
                 "check_stop", "swarm_diameter", "init_swarm"):
        monkeypatch.setattr(harness, name, forbidden)
    net = dict(benchmark="dnn", arch=(2, 3, 1)) if network else {}
    cfg = quick_config(**{**net, "dim": 0 if net else 2})
    target = harness._build_target(cfg)
    evals = target.objective.eval_count
    final = np.full((4, target.objective.dim), 0.25)
    rec = harness._score(cfg, target, 0,
                         *_trajectory_ending_at(final, np.ones(4)))
    assert target.objective.eval_count == evals == rec.evals
    assert rec.consensus == pytest.approx(final[0], rel=1e-15)


def test_degenerate_contraction_fixture_full_success():
    # One-step consensus from a near-point-mass init lands every particle on
    # the initial weighted average, well inside the success ball.
    cfg = quick_config(lam=1.0, delta=0.0,
                       schedule=StepSchedule.constant(0.0),
                       init=ComponentGaussian(0.0, 1e-10), runs=4)
    report = run_many(cfg)
    assert report.rate == 1.0
    assert all(r.terminated_by == "stop_rule" for r in report.records)


def test_run_many_single_run():
    cfg = quick_config(runs=1)
    report = run_many(cfg)
    assert len(report.records) == 1
    assert report.mean_iters == report.records[0].iterations


def test_run_many_requires_runs():
    with pytest.raises(ConfigurationError):
        run_many(quick_config(runs=0))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(method="sgd")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(method="fescbo", batch_size=None)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(benchmark="dnn", arch=None)


@pytest.mark.parametrize("overrides", [
    dict(lam=math.nan),
    dict(stop_tol=math.nan),
    dict(delta=math.inf),
    dict(beta=-1.0),
    dict(sigma=0.0),
    dict(particles=0),
    dict(method="fescbo", particles=5, batch_size=50),
    dict(method="escbo", batch_size=-3),
    dict(method="vanilla", particles=5, batch_size=6),
    dict(benchmark="dnn", arch=(2, 2, 1), dim=0, data_seed=-1),
    dict(success_tol=0.0),
    dict(success_tol=math.nan),
    dict(success_tol=math.inf),
    dict(dim=10 ** 400),
    dict(particles=10 ** 400),
    dict(seed=2 ** 63 - 2, runs=3),
    dict(seed=np.int64(2 ** 63 - 2), runs=3),
], ids=["lam-nan", "stop_tol-nan", "delta-inf", "beta-negative", "sigma-zero",
        "no-particles", "batch-over-particles", "escbo-batch-negative",
        "vanilla-batch-over-particles", "data_seed-negative",
        "success_tol-zero", "success_tol-nan", "success_tol-inf",
        "dim-past-int64", "particles-past-int64", "last-seed-past-int64",
        "numpy-last-seed-past-int64"])
def test_config_rejects_invalid_field(overrides):
    with pytest.raises(ConfigurationError):
        quick_config(**overrides)


def test_config_names_the_int64_range_of_the_last_seed():
    with pytest.raises(ConfigurationError, match=r"^last seed must lie in "
                       r"\[-2\*\*63, 2\*\*63\), got 9223372036854775808$"):
        quick_config(seed=np.int64(2 ** 63 - 2), runs=3)


@pytest.mark.parametrize("overrides", [
    dict(benchmark="nope"),
    dict(benchmark="bartels_conn", dim=3),
    dict(benchmark="rastrigin", dim=0),
    dict(benchmark="rastrigin1d"),
    dict(benchmark="dnn", arch=(5, 0, 1)),
    dict(benchmark="dnn", arch=(5,)),
    dict(runs=0),
    dict(benchmark="rastrigin", dim=2, arch=(2, 3, 1)),
], ids=["unknown-benchmark", "fixed-dim-mismatch", "dim-zero",
        "rastrigin1d-default-dim", "zero-width", "one-width", "no-runs",
        "arch-on-benchmark"])
def test_config_rejects_invalid_target_when_built(overrides):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    dict(particles=2.5),
    dict(runs=1.5),
    dict(max_iters=2.5),
    dict(particles=True),
    dict(dim=2.5),
    dict(seed="0"),
    dict(benchmark="dnn", arch=(2, 3, 1), dim=0, data_seed=1.0),
    dict(method="fescbo", batch_size=2.0),
], ids=["particles-float", "runs-float", "max_iters-float", "particles-bool",
        "dim-float", "seed-str", "data_seed-float", "batch_size-float"])
def test_config_rejects_non_integer_count(overrides):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    dict(lam="0.5"),
    dict(stop_tol=None),
    dict(schedule="harmonic"),
    dict(init="uniform"),
    dict(beta=True),
    dict(benchmark="dnn", arch=(2.5, 3, 1)),
    dict(benchmark="dnn", arch=(2, 3, 1), dim=57),
    dict(benchmark="rastrigin", data_seed=5),
    dict(lam=10 ** 400),
], ids=["lam-str", "stop_tol-none", "schedule-str", "init-str", "beta-bool",
        "arch-float-width", "dim-on-network", "data_seed-on-benchmark",
        "lam-beyond-float"])
def test_config_rejects_wrong_kind_or_unread_field(overrides):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    dict(init=UniformBox([-1.0] * 3, [1.0] * 3), dim=2),
    dict(init=ComponentGaussian(np.zeros(3), 1.0), dim=2),
    dict(benchmark="dnn", arch=(2, 3, 1),
         init=UniformBox([-1.0] * 2, [1.0] * 2)),
], ids=["box-3-on-dim-2", "gaussian-3-on-dim-2", "box-2-on-network-13"])
def test_config_rejects_init_that_does_not_fit_the_target(overrides):
    with pytest.raises(ConfigurationError, match="does not fit"):
        ExperimentConfig(**overrides)


def test_init_of_one_value_or_one_per_coordinate_runs():
    for init in (UniformBox([-1.0] * 3, 1.0), UniformBox([-1.0], [1.0]),
                 ComponentGaussian(np.zeros(3), 1.0)):
        rec = run_once(quick_config(init=init, dim=3, max_iters=2), seed=0)
        assert rec.final_positions.shape == (10, 3)


def test_run_once_calls_the_steppers_through_the_harness_namespace(
        monkeypatch):
    # bench/worker.py and bench/tracer.py wrap the steppers by swapping them
    # into this namespace; a stepper bound at import time would bypass them.
    names = {"escbo": "escbo_step", "vanilla": "vanilla_cbo_step",
             "fescbo": "fescbo_step"}
    calls = dict.fromkeys(names.values(), 0)
    for name in calls:
        def counting(*args, name=name, step=getattr(harness, name)):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(harness, name, counting)
    for method, name in names.items():
        calls.update(dict.fromkeys(calls, 0))
        rec = run_once(quick_config(method=method, batch_size=3, max_iters=7,
                                    stop_tol=1e-300), seed=0)
        assert rec.iterations == 7
        assert calls == {**dict.fromkeys(calls, 0), name: rec.iterations}


def test_network_dim_is_left_out_zero_or_the_network_dimension():
    net = dict(benchmark="dnn", arch=(2, 3, 1))
    assert ExperimentConfig(**net).dim == 0
    assert ExperimentConfig(**net, dim=0).dim == 0
    assert ExperimentConfig(**net, dim=13).dim == 13
    default = ExperimentConfig()
    assert (default.benchmark, default.dim) == ("rastrigin", 2)
    # Method-level fields stay shared across methods.
    ExperimentConfig(method="vanilla", batch_size=3,
                     schedule=StepSchedule.harmonic(0.5), sigma=1e-3)


def test_every_config_field_has_one_declaration():
    for f in dataclasses.fields(ExperimentConfig):
        declared = f.metadata.get("kind")
        assert declared in harness._KINDS, f.name
        allowed = f.metadata["allowed"]
        if declared == "choice":
            assert isinstance(allowed, tuple) and allowed, f.name
        elif allowed:
            assert declared in ("count", "real"), f.name
            assert allowed[0] in "([" and allowed[-1] in ")]", f.name
        assert f.metadata["target"] in ("", "dnn", "benchmark"), f.name


_WRONG = st.sampled_from([None, "1", True, 1.5j, [1], (2, 3)])


def _either(*right):
    """One of the listed right-kind values, or a value of a wrong kind."""
    return st.one_of(st.sampled_from(right), _WRONG)


_CONFIG_FIELDS = {
    "method": _either("escbo", "vanilla", "fescbo", "sgd"),
    "benchmark": _either("rastrigin", "ackley", "bartels_conn",
                         "rastrigin1d", "dnn", "dnn", "nope"),
    "dim": st.one_of(st.integers(-1, 4), st.sampled_from([13, 2.0]), _WRONG),
    "particles": st.one_of(st.integers(-1, 8), _WRONG),
    "lam": _either(0.0, 0.2, 1.0, 1e300, -0.1, np.inf, np.nan, 1, 10 ** 400),
    "delta": _either(0.0, 0.1, 2.0, -1.0, np.inf, np.nan),
    "beta": _either(1e20, 10.0, 0.0, -1.0, np.inf, np.nan, np.float64(5)),
    "sigma": _either(1e-5, 1e-3, 0.0, -1e-5, np.inf, np.nan),
    "schedule": _either(StepSchedule.geometric(1.0, 0.99),
                        StepSchedule.constant(0.0),
                        StepSchedule.harmonic(0.5),
                        StepSchedule.constant(1e300)),
    "init": _either(UniformBox(-5.0, 5.0), UniformBox(-1e200, 1e200),
                    ComponentGaussian(0.0, 3.0), ComponentGaussian(1e300, 1.0),
                    "uniform"),
    "batch_size": st.one_of(st.integers(-1, 9), st.just(2.0), _WRONG),
    "max_iters": st.one_of(st.integers(-1, 3), st.just(10 ** 9), _WRONG),
    "stop_tol": _either(0.0, 1e-6, -1.0, np.inf, np.nan),
    "success_tol": _either(1e-3, 10.0, 0.0, np.inf, np.nan),
    "runs": st.one_of(st.integers(-1, 3), _WRONG),
    "seed": st.one_of(st.integers(-5, 2 ** 70), _WRONG),
    "arch": _either((2, 3, 1), (1, 1), (2, 2, 2, 1), (2,), (2, 0, 1),
                    (2.5, 3, 1), (True, 3, 1), ("2", 3, 1)),
    "data_seed": st.one_of(st.integers(-1, 5), st.just(1.0), _WRONG),
}


# Valid campaigns of each target and method, which a draw then overrides.
_CONFIG_BASES = [
    dict(),
    dict(method="vanilla", benchmark="ackley", dim=3, particles=6),
    dict(method="fescbo", benchmark="bartels_conn", batch_size=3),
    dict(method="fescbo", benchmark="dnn", arch=(2, 3, 1), particles=6,
         batch_size=2, data_seed=3),
    dict(method="escbo", benchmark="dnn", arch=(1, 2, 1), dim=7),
]


@settings(max_examples=500)
@given(base=st.sampled_from(_CONFIG_BASES), data=st.data())
def test_config_builds_and_runs_or_raises_configuration_error(base, data):
    names = data.draw(st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)),
                               max_size=3, unique=True), label="fields")
    kwargs = dict(base, **{name: data.draw(_CONFIG_FIELDS[name], label=name)
                           for name in names})
    try:
        cfg = ExperimentConfig(**kwargs)
    except ConfigurationError:
        event("rejected")
        return
    rec = run_once(dataclasses.replace(cfg, max_iters=2), cfg.seed)
    event(f"ran: {cfg.benchmark} {cfg.method} {rec.terminated_by}")
    assert rec.iterations <= 2


def test_config_accepts_numpy_integer_counts():
    cfg = quick_config(method="fescbo", dim=np.int64(3),
                       particles=np.int32(8), batch_size=np.int64(3),
                       max_iters=np.int16(4), runs=np.int64(2),
                       seed=np.uint8(7))
    report = run_many(cfg)
    assert [r.seed for r in report.records] == [7, 8]
    assert all(r.iterations == 4 for r in report.records)


# A real or count field given as a numpy scalar is stored as the Python
# number it equals, so the run computes as with that number: a float32 lam
# used to round 1 - lam in float32, and a float32 variance its square root.
NUMPY_SCALARS = [
    ("lam", np.float32(0.01), {}), ("delta", np.float32(0.1), {}),
    ("beta", np.float32(1e6), {}), ("sigma", np.float32(1e-4), {}),
    ("stop_tol", np.float32(1e-6), {}), ("success_tol", np.float32(1e-3), {}),
    ("dim", np.int64(3), {}), ("particles", np.int32(8), {}),
    ("max_iters", np.int16(30), {}), ("runs", np.int64(2), {}),
    ("seed", np.uint8(7), {}),
    ("batch_size", np.int64(3), dict(method="fescbo")),
    ("data_seed", np.int64(3), dict(benchmark="dnn", arch=(2, 3, 1), dim=0,
                                    init=None, max_iters=5)),
    ("variance", np.float32(3.0), {}),
]


@pytest.mark.parametrize("field, value, base", NUMPY_SCALARS,
                         ids=[row[0] for row in NUMPY_SCALARS])
def test_config_stores_the_python_number_of_a_numpy_scalar(field, value,
                                                           base):
    def config(v):
        if field == "variance":
            return quick_config(init=ComponentGaussian(0.0, v), **base)
        return quick_config(**{field: v}, **base)

    cfg, plain = config(value), config(value.item())
    stored = getattr(cfg.init if field == "variance" else cfg, field)
    assert type(stored) is type(value.item()) and stored == value
    got, want = run_once(cfg, cfg.seed), run_once(plain, plain.seed)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


# ------------------------------------------------------------------ presets

def test_table2_preset_grid():
    configs = table_preset("table2", scale=1.0)
    assert len(configs) == 10 * 3 * 2
    assert all(c.runs == 100 and c.max_iters == 10_000 for c in configs)
    match = [c for c in configs if c.benchmark == "rastrigin" and c.dim == 3
             and c.particles == 180]
    assert {c.method for c in match} == {"escbo", "vanilla"}
    assert all(isinstance(c.init, UniformBox) and c.init.lo == -5.0
               for c in configs)
    assert all(c.beta == 1e20 and c.sigma == 1e-5 for c in configs)


def test_table3_preset_grid():
    configs = table_preset("table3", scale=0.3)
    assert len(configs) == 7 * 3 * 2
    assert all(c.particles == 120 for c in configs)
    assert all(c.runs == 30 and c.max_iters == 3000 for c in configs)
    shifted = [c for c in configs if isinstance(c.init, UniformBox)
               and c.init.lo == 2.0 and c.init.hi == 6.0]
    assert len(shifted) == 14
    gaussians = [c for c in configs if isinstance(c.init, ComponentGaussian)]
    assert all(c.init.variance == 3.0 for c in gaussians)


def test_table4_preset_grid():
    configs = table_preset("table4", scale=0.1)
    assert len(configs) == 6
    assert all(c.method == "fescbo" and c.batch_size == 10 for c in configs)
    assert all(c.lam == 1.0 and c.delta == 1.0 and c.sigma == 0.001
               for c in configs)
    from escbo.neural import MLPArchitecture
    dims = sorted(MLPArchitecture(c.arch).dim for c in configs)
    assert dims == [71, 96, 121, 121, 291, 341]


def test_preset_validation():
    with pytest.raises(ConfigurationError):
        table_preset("table5")
    with pytest.raises(ConfigurationError):
        table_preset("table2", scale=0.0)


# ------------------------------------------------------------------ reports

def test_emit_csv_deterministic(tmp_path):
    report = run_many(quick_config(runs=2, max_iters=40))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    paths1 = emit_report(report, "csv", p1)
    paths2 = emit_report(report, "csv", p2)
    assert len(paths1) == 2
    from pathlib import Path
    for a, b in zip(paths1, paths2):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "method,benchmark,d,N,init,rate,sol_err,fun_err," \
                       "mean_iters,mean_evals"
    assert len(lines) == 2
    series_lines = Path(paths1[1]).read_text().splitlines()
    assert series_lines[0] == "run,k,diameter,w_k,best_f"


def test_emit_json_round_trip(tmp_path):
    import json
    report = run_many(quick_config(runs=1, max_iters=20))
    path = tmp_path / "out.json"
    emit_report(report, "json", path)
    doc = json.loads(path.read_text())
    assert len(doc["summary"]) == 1
    row = doc["summary"][0]
    assert row["method"] == "escbo" and row["N"] == 10
    assert len(doc["series"]) == len(report.records[0].ks)


def test_json_summary_counts_failed_runs(tmp_path):
    import json
    cfg = quick_config(runs=4, max_iters=5)
    records = run_many(cfg).records
    records[0].terminated_by = "estimation"
    records[2].terminated_by = "divergence"
    records[3].terminated_by = "divergence"
    report = AggregateReport.from_records(cfg, records)
    emit_report(report, "json", tmp_path / "out.json")
    row = json.loads((tmp_path / "out.json").read_text())["summary"][0]
    assert (row["n_diverged"], row["n_estimation"]) == (2, 1)
    assert (report.n_diverged, report.n_estimation) == (2, 1)
    emit_report(report, "csv", tmp_path / "out.csv")
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header.split(",") == list(harness.SUMMARY_COLUMNS)


def test_json_after_divergence_is_strict_json(tmp_path):
    import json
    report = run_many(ExperimentConfig(init=UniformBox(-1e200, 1e200),
                                       runs=1, max_iters=5))
    emit_report(report, "json", tmp_path / "out.json")

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    doc = json.loads((tmp_path / "out.json").read_text(),
                     parse_constant=reject)
    summary, series = doc["summary"][0], doc["series"][0]
    assert summary["sol_err"] is None and summary["fun_err"] is None
    assert series == dict(run=0, k=0, diameter=None, w_k=None, best_f=None)
    # csv keeps writing inf.
    emit_report(report, "csv", tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().endswith(
        ",0.0,inf,inf,0.0,20.0\n")
    assert (tmp_path / "out_series.csv").read_text().splitlines()[1] == \
        "0,0,inf,inf,inf"


def w_value_reference(positions, x_star):
    return min(float(np.mean(np.einsum("ij,ij->i", positions - xs,
                                       positions - xs)))
               for xs in x_star)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 250),
       d=st.integers(1, 12), m=st.integers(1, 3),
       scale=st.sampled_from([1e-3, 1.0, 1e3, 1e150]))
def test_w_value_equals_mean_reference(seed, n, d, m, scale):
    gen = np.random.default_rng(seed)
    positions = scale * gen.normal(size=(n, d))
    x_star = scale * gen.normal(size=(m, d))
    assert harness._w_value(positions, x_star) == \
        w_value_reference(positions, x_star)
    assert math.isnan(harness._w_value(positions, None))


def test_emit_empty_report_header_only(tmp_path):
    empty = AggregateReport.from_records(quick_config(), [])
    path = tmp_path / "empty.csv"
    emit_report(empty, "csv", path)
    assert len(path.read_text().splitlines()) == 1


def test_emit_rejects_bad_format_and_path(tmp_path):
    report = run_many(quick_config(runs=1, max_iters=5))
    with pytest.raises(ConfigurationError):
        emit_report(report, "xml", tmp_path / "x.xml")
    with pytest.raises(OSError):
        emit_report(report, "csv", tmp_path / "missing_dir" / "x.csv")


def test_rerun_is_byte_identical(tmp_path):
    cfg = quick_config(runs=3, max_iters=50)
    from pathlib import Path
    a = emit_report(run_many(cfg), "csv", tmp_path / "r1.csv")
    b = emit_report(run_many(cfg), "csv", tmp_path / "r2.csv")
    for p, q in zip(a, b):
        assert Path(p).read_bytes() == Path(q).read_bytes()


# ------------------------------------------------------------------ memory

BOX = UniformBox(-5.0, 5.0)
# The bench self-test's three campaigns, each with its traced heap peak in
# bytes, measured after a warm-up run (repeats agreed to within 3 KB).
HEAP_CAMPAIGNS = {
    "escbo": (dict(method="escbo", dim=2, particles=8, init=BOX,
                   max_iters=30, runs=2), 17.5e3),
    "vanilla": (dict(method="vanilla", dim=3, particles=70, init=BOX,
                     max_iters=12, runs=1), 91.5e3),
    "fescbo": (dict(method="fescbo", benchmark="dnn", dim=0, arch=(2, 3, 1),
                    particles=6, batch_size=2, max_iters=5, runs=2,
                    data_seed=7), 98.5e3),
}


@pytest.mark.parametrize("name", HEAP_CAMPAIGNS)
def test_campaign_heap_is_bounded(name):
    # The peak may grow 20 KB; the report may hold 20 KB, where it holds
    # 4-8 KB.  A run that kept one more (N, N) array would make the N = 70
    # report hold 39 KB more.
    overrides, peak_measured = HEAP_CAMPAIGNS[name]
    config = ExperimentConfig(seed=7, **overrides)
    run_many(config)  # sizes the module-level work space (swarm._gram_pair)
    tracemalloc.start()
    try:
        report = run_many(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.records) == config.runs
    assert peak < peak_measured + 20e3
    assert held < 20e3


# --------------------------------------------------------------- diagnostics

def test_diagnose_trivial_contraction():
    cfg = quick_config(lam=1.0, delta=0.0,
                       schedule=StepSchedule.constant(0.0), max_iters=5)
    rec = run_once(cfg, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterConditionWarning)
        rep = diagnose(rec, cfg, L_f=60.0)
    assert rep.condition.satisfied
    assert np.all(rec.diameter <= rep.diameter_bound)


def test_diagnose_bound_starts_at_the_initial_diameter():
    # B_0 = 2 var_init, and var_init defaults to half the initial diameter.
    cfg = quick_config(lam=0.25, delta=0.0, max_iters=10)
    rec = run_once(cfg, seed=0)
    rep = diagnose(rec, cfg, L_f=60.0)
    assert rep.diameter_bound[0] == rec.diameter[0] > 0


def test_diagnose_attaches_condition_warning():
    cfg = quick_config(lam=0.01, delta=0.1, max_iters=10)
    rec = run_once(cfg, seed=0)
    rep = diagnose(rec, cfg)
    assert not rep.condition.satisfied
    assert any("not guaranteed" in note for note in rep.notes)
    assert "violated" in rep.summary()


def test_diagnose_notes_a_contraction_core_that_is_not_positive():
    cfg = quick_config(lam=1.0, delta=0.0, max_iters=3, runs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterConditionWarning)
        rep = diagnose(run_once(cfg, seed=0), cfg, xi=0.5)
    assert rep.w_bound is None
    assert any(note.startswith("gamma^k overlay unavailable: contraction")
               for note in rep.notes)


def test_diagnose_notes_a_derived_var_init_and_checks_a_given_one():
    cfg = quick_config(init=UniformBox(-1e200, 1e200), max_iters=3, runs=1)
    rec = run_once(cfg, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterConditionWarning)
        rep = diagnose(rec, cfg, L_f=1.0)
        assert rep.diameter_bound is None
        assert rep.notes[-1] == \
            "diameter bound unavailable: initial diameter is inf"
        with pytest.raises(ConfigurationError, match="var_init"):
            diagnose(rec, cfg, L_f=1.0, var_init=math.inf)


def test_diagnose_gamma_overlay():
    cfg = quick_config(lam=0.25, delta=0.0, max_iters=30,
                       schedule=StepSchedule.constant(1e-5),
                       init=UniformBox(-3.0, 3.0))
    rec = run_once(cfg, seed=0)
    rep = diagnose(rec, cfg, L_f=60.0)
    assert rep.w_bound is not None
    assert rep.w_bound[0] == pytest.approx(rec.w_k[0])
