"""Seeded experiment campaigns: run steppers, score runs, emit reports.

A campaign is fully determined by its ExperimentConfig, including every
random draw: run i uses seed ``config.seed + i``.  Re-running the same
config therefore reproduces report files byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import benchmarks
from .objective import (ConfigurationError, EstimationError, _check,
                        _is_count, _is_real, gradient_bounds)
from .swarm import (ComponentGaussian, DivergenceError, RngStream,
                    StepSchedule, SwarmState, UniformBox, _check_finite,
                    check_stop, consensus_point, escbo_step, fescbo_step,
                    init_swarm, swarm_diameter, vanilla_cbo_step)

__all__ = [
    "AggregateReport",
    "DiagnosticReport",
    "ExperimentConfig",
    "RunRecord",
    "diagnose",
    "emit_report",
    "run_many",
    "run_once",
    "table_preset",
]

METHODS = ("escbo", "vanilla", "fescbo")

# Series checkpoints: every iteration early on, every 10th afterwards.
CHECKPOINT_DENSE_UNTIL = 100
CHECKPOINT_STRIDE = 10

SUMMARY_COLUMNS = ("method", "benchmark", "d", "N", "init", "rate",
                   "sol_err", "fun_err", "mean_iters", "mean_evals")
SERIES_COLUMNS = ("run", "k", "diameter", "w_k", "best_f")


def _kind_parser(makers: dict):
    """Parser for 'kind:v1,v2,...' values: makers[kind](v1, v2, ...)."""
    def parse(text: str):
        kind, _, rest = text.partition(":")
        return makers[kind](*(float(v) for v in rest.split(",")))
    return parse


# Each kind of config field: what its values are and the test for them, and
# the command-line parser and form of their text.
_KINDS = {
    "count": ("an integer", _is_count, int, None),
    "real": ("a real number", _is_real, float, None),
    "choice": ("a string", lambda v: isinstance(v, str), str, None),
    "schedule": ("a StepSchedule", lambda v: isinstance(v, StepSchedule),
                 _kind_parser({"constant": StepSchedule.constant,
                               "geometric": StepSchedule.geometric,
                               "harmonic": StepSchedule.harmonic}),
                 "constant:c, geometric:c,r or harmonic:c"),
    "init": ("None, a UniformBox or a ComponentGaussian",
             lambda v: isinstance(v, (UniformBox, ComponentGaussian)),
             _kind_parser({"uniform": UniformBox,
                           "gaussian": ComponentGaussian}),
             "uniform:lo,hi or gaussian:mean,variance"),
    "widths": ("a tuple of layer widths", lambda v: isinstance(v, tuple),
               lambda text: tuple(int(w) for w in text.split(",")),
               "comma-separated layer widths, e.g. 5,10,1"),
}


def _declare(default, kind: str, allowed="", key="", target=""):
    """A config field with its one declaration, which its checks and the
    command line read: its kind (a key of _KINDS); its range, an interval
    whose ends may name another field, or the names a choice may take; its
    command-line key, if not the field name; and the one target that reads
    it, if only one does: "dnn", or "benchmark" for every other."""
    return field(default=default, metadata=dict(kind=kind, allowed=allowed,
                                                key=key, target=target))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a campaign.

    ``benchmark`` names a registered objective, or "dnn" with ``arch`` set to
    the layer widths.  ``init`` defaults to the uniform distribution on the
    benchmark's default box, and ``dim`` to 2 on a benchmark and to 0 (taken
    from ``arch``) on a network.  Every field is checked here against its
    declaration and its target, so an invalid campaign fails before its
    first run starts.
    """

    method: str = _declare("escbo", "choice", METHODS)
    benchmark: str = _declare("rastrigin", "choice",
                              (*benchmarks.available(), "dnn"))
    dim: Optional[int] = _declare(None, "count", "[0, inf)",
                                  target="benchmark")
    particles: int = _declare(20, "count", "[1, inf)")
    lam: float = _declare(0.01, "real", "[0, inf)", key="lambda")
    delta: float = _declare(0.1, "real", "[0, inf)")
    beta: float = _declare(1e20, "real", "(0, inf)")
    sigma: float = _declare(1e-5, "real", "(0, inf)")
    schedule: StepSchedule = _declare(StepSchedule.geometric(1.0, 0.99),
                                      "schedule")
    init: Optional[object] = _declare(None, "init")
    batch_size: Optional[int] = _declare(None, "count", "[1, particles]",
                                         key="batch")
    max_iters: int = _declare(10_000, "count", "[0, inf)")
    stop_tol: float = _declare(1e-6, "real", "[0, inf)")
    success_tol: float = _declare(1e-3, "real", "(0, inf)")
    runs: int = _declare(100, "count", "[1, inf)")
    seed: int = _declare(0, "count", "(-inf, inf)")
    arch: Optional[tuple[int, ...]] = _declare(None, "widths", target="dnn")
    data_seed: int = _declare(0, "count", "[0, inf)", target="dnn")

    def __post_init__(self):
        dnn = self.benchmark == "dnn"
        if self.dim is None:
            object.__setattr__(self, "dim", 0 if dnn else 2)
        for f in fields(self):  # None is valid where it is the default
            value, allowed = getattr(self, f.name), f.metadata["allowed"]
            what, holds = _KINDS[f.metadata["kind"]][:2]
            if value is None and f.default is None:
                continue
            if not holds(value):
                raise ConfigurationError(
                    f"{f.name} must be {what}, got {value!r}")
            if isinstance(allowed, tuple) and value not in allowed:
                raise ConfigurationError(f"unknown {f.name} {value!r}; "
                                         f"choose one of {', '.join(allowed)}")
            if isinstance(allowed, str) and allowed:  # ends may name fields
                lo, hi = (getattr(self, e, e) for e in allowed[1:-1].split(", "))
                object.__setattr__(self, f.name, _check(  # a Python number
                    f.name, value, f"{allowed[0]}{lo}, {hi}{allowed[-1]}",
                    count=f.metadata["kind"] == "count"))
        last = self.seed + self.runs - 1  # Python ints do not wrap
        _check("last seed", last, "(-inf, inf)", count=True)
        if self.method == "fescbo" and self.batch_size is None:
            raise ConfigurationError("method fescbo needs a batch_size")
        if dnn == (self.arch is None):
            raise ConfigurationError(
                f"arch is set exactly when benchmark is dnn, got {self.arch}")
        # The target's own checks.  A field the target does not read holds
        # 0 or None, or on a network, dim may hold the network's dimension.
        if dnn:
            from . import neural
            unread = (0, neural.MLPArchitecture(self.arch).dim)
        else:
            unread = (0, None)
            benchmarks.lookup(self.benchmark, self.dim)
        for f in fields(self):
            target, value = f.metadata["target"], getattr(self, f.name)
            if target and (target == "dnn") != dnn and value not in unread:
                raise ConfigurationError(
                    f"benchmark {self.benchmark} does not read {f.name}; "
                    f"leave it out, got {value!r}")


@dataclass(eq=False)
class _Target:
    objective: object
    init: object
    x_star: Optional[np.ndarray] = None   # (n_minimizers, dim)
    f_star: Optional[float] = None
    arch: Optional[neural.MLPArchitecture] = None
    data: Optional[neural.SyntheticDataset] = None


def _build_target(config: ExperimentConfig) -> _Target:
    if config.benchmark == "dnn":
        from . import neural
        arch = neural.MLPArchitecture(config.arch)
        data = neural.generate_synthetic(arch, config.data_seed)
        init = config.init if config.init is not None else UniformBox(-3.0, 3.0)
        return _Target(objective=neural.dnn_objective(arch, data), init=init,
                       arch=arch, data=data)
    spec = benchmarks.lookup(config.benchmark, config.dim)
    init = config.init if config.init is not None else UniformBox(spec.lo, spec.hi)
    return _Target(objective=spec.objective, init=init, x_star=spec.x_star,
                   f_star=spec.f_star)


@dataclass(eq=False)
class RunRecord:
    """Per-run trajectory diagnostics, the terminal swarm and its scores.

    ``success`` (ended by the stop rule or max_iters with every particle
    within success_tol of one minimizer) and ``fun_err`` (mean |f - f*|) are
    None without a known minimizer.  For training targets, ``train_err`` and
    ``test_err`` are evaluated at the best terminal particle and
    ``init_train_err`` is the swarm's mean objective value at k = 0 (the
    expected error of a random initialization).
    """

    seed: int
    iterations: int
    terminated_by: str  # stop_rule | max_iters | divergence | estimation
    final_positions: np.ndarray
    final_values: np.ndarray
    ks: np.ndarray
    diameter: np.ndarray
    w_k: Optional[np.ndarray]
    best_f: np.ndarray
    consensus: np.ndarray  # (d,): the final consensus point
    evals: int
    success: Optional[bool] = None
    fun_err: Optional[float] = None
    train_err: Optional[float] = None
    test_err: Optional[float] = None
    init_train_err: Optional[float] = None


def _w_value(positions: np.ndarray, x_star: Optional[np.ndarray]) -> float:
    if x_star is None:
        return math.nan
    # With several minimizers, measure against the best-matching one.
    best = math.inf
    for xs in x_star:
        diff = positions - xs
        sq = np.einsum("ij,ij->i", diff, diff)
        best = min(best, float(np.add.reduce(sq) / sq.size))  # np.mean
    return best


def _trajectory(config: ExperimentConfig, target: _Target, seed: int):
    """Step a seeded swarm to its end: state, series, terminated_by, f(x_0)."""
    obj = target.objective
    # Looked up per run, so that a stepper swapped into this namespace runs.
    step = {"escbo": escbo_step, "vanilla": vanilla_cbo_step,
            "fescbo": fescbo_step}[config.method]
    rng = RngStream(seed)
    series = []  # (k, diameter, w_k, best_f) at each checkpoint

    def record(st: SwarmState) -> None:
        series.append((st.k, swarm_diameter(st.positions),
                       _w_value(st.positions, target.x_star),
                       float(st.values.min())))

    state = init_swarm(target.init, config.particles, obj, rng)
    init_values = state.values
    record(state)
    terminated_by = "max_iters"
    try:
        _check_finite(state.positions, state.values, 0)
        while state.k < config.max_iters:
            prev = state
            state = step(state, obj, config, rng)
            if (state.k <= CHECKPOINT_DENSE_UNTIL
                    or state.k % CHECKPOINT_STRIDE == 0):
                record(state)
            if check_stop(prev, state, config.stop_tol):
                terminated_by = "stop_rule"
                break
    except (DivergenceError, EstimationError) as exc:
        # The failed step assigned nothing: state is the last finite one.
        terminated_by = ("divergence" if isinstance(exc, DivergenceError)
                         else "estimation")
    if series[-1][0] != state.k:
        record(state)
    return state, series, terminated_by, init_values


def _score(config, target, seed, state, series, terminated_by, init_values):
    """A trajectory's RunRecord and scores; it neither steps nor evaluates."""
    ks, diam, wks, best = (np.array(col) for col in zip(*series))
    consensus = (consensus_point(state, config.beta)
                 if np.isfinite(state.values).all()
                 else np.full(target.objective.dim, np.nan))
    rec = RunRecord(
        seed=seed, iterations=state.k, terminated_by=terminated_by,
        final_positions=state.positions, final_values=state.values,
        ks=ks, diameter=diam, w_k=None if target.x_star is None else wks,
        best_f=best, consensus=consensus, evals=target.objective.eval_count)
    if target.x_star is not None:
        dist = min(np.linalg.norm(state.positions - xs, axis=1).max()
                   for xs in target.x_star)
        rec.success = bool(terminated_by in ("stop_rule", "max_iters")
                           and dist < config.success_tol)
        rec.fun_err = float(np.mean(np.abs(state.values - target.f_star)))
    if target.data is not None:
        from . import neural
        best_idx = int(np.argmin(state.values))
        best_params = state.positions[best_idx]
        rec.train_err = float(state.values[best_idx])
        rec.test_err = neural.test_error(target.arch, best_params, target.data)
        rec.init_train_err = float(init_values.mean())
    return rec


def run_once(config: ExperimentConfig, seed: int) -> RunRecord:
    """One seeded trajectory of the configured stepper, scored.

    Runs until the stopping rule fires, max_iters is reached, a particle
    diverges, or a gradient estimate meets a non-finite objective value.  The
    last two are recorded as ``divergence`` or ``estimation`` with the last
    finite state, not raised; a non-finite initial swarm is a divergence at
    iteration 0, with a nan consensus point.  Floating-point warnings are
    silenced for the whole run: the finiteness checks detect what they signal.
    """
    target = _build_target(config)
    with np.errstate(all="ignore"):
        return _score(config, target, seed, *_trajectory(config, target, seed))


def _mean(values) -> float:
    """Mean of the values that are not None; nan when none are."""
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else math.nan


@dataclass(eq=False)
class AggregateReport:
    """Campaign-level statistics over independent seeded runs."""

    config: ExperimentConfig
    records: list[RunRecord]
    rate: float
    sol_err: float
    fun_err: float
    mean_iters: float
    mean_evals: float
    n_diverged: int
    n_estimation: int
    train_err: Optional[float] = None
    test_err: Optional[float] = None

    @classmethod
    def from_records(cls, config: ExperimentConfig,
                     records: list[RunRecord]) -> "AggregateReport":
        report = cls(
            config=config, records=records,
            rate=_mean(r.success for r in records),
            sol_err=_mean(r.w_k[-1] for r in records if r.w_k is not None),
            fun_err=_mean(r.fun_err for r in records),
            mean_iters=_mean(r.iterations for r in records),
            mean_evals=_mean(r.evals for r in records),
            n_diverged=sum(r.terminated_by == "divergence" for r in records),
            n_estimation=sum(r.terminated_by == "estimation" for r in records))
        if any(r.train_err is not None for r in records):
            report.train_err = _mean(r.train_err for r in records)
            report.test_err = _mean(r.test_err for r in records)
        return report


def run_many(config: ExperimentConfig) -> AggregateReport:
    """Independent seeded runs aggregated into success and error statistics.

    Each run, a ``_trajectory`` scored by ``_score``, is a pure function of
    (config, seed), so runs could go to separate processes; not to threads,
    since the Gram diameter's work space (``swarm._gram_pair``) is shared
    by every run.  Aggregation is ordered by run index either way.
    """
    records = [run_once(config, config.seed + i) for i in range(config.runs)]
    return AggregateReport.from_records(config, records)


# Benchmark rows of the two comparison tables: (name, dimension).
_TABLE2_ROWS = [("rastrigin", 3), ("rastrigin", 10), ("salomon", 3),
                ("salomon", 10), ("griewank", 3), ("griewank", 10),
                ("ackley", 3), ("xinsheyang4", 3), ("bartels_conn", 2),
                ("schaffer4", 2)]
_TABLE3_ROWS = [("rastrigin", 2), ("salomon", 2), ("griewank", 2),
                ("ackley", 2), ("xinsheyang4", 2), ("bartels_conn", 2),
                ("schaffer4", 2)]
_TABLE4_ARCHS = [(5, 10, 1), (5, 5, 5, 5, 1), (5, 10, 10, 10, 1),
                 (10, 10, 1), (10, 5, 5, 5, 1), (10, 10, 10, 10, 1)]


def table_preset(name: str, scale: float = 1.0) -> list[ExperimentConfig]:
    """Config grids for the three comparison tables.

    ``scale`` in (0, 1] shrinks the run count and iteration cap so a full
    grid finishes in minutes instead of hours.
    """
    _check("scale", scale, "(0, 1]")
    runs = max(1, round(100 * scale))
    max_iters = max(1, round(10_000 * scale))
    shared = dict(lam=0.01, delta=0.1, beta=1e20, sigma=1e-5,
                  schedule=StepSchedule.geometric(1.0, 0.99),
                  runs=runs, max_iters=max_iters)
    configs: list[ExperimentConfig] = []
    if name == "table2":
        for bench, d in _TABLE2_ROWS:
            for mult in (20, 40, 60):
                for method in ("escbo", "vanilla"):
                    configs.append(ExperimentConfig(
                        method=method, benchmark=bench, dim=d,
                        particles=mult * d, init=UniformBox(-5.0, 5.0),
                        **shared))
    elif name == "table3":
        inits = [UniformBox(-3.0, 3.0), UniformBox(2.0, 6.0),
                 ComponentGaussian(0.0, 3.0)]
        for bench, d in _TABLE3_ROWS:
            for init in inits:
                for method in ("escbo", "vanilla"):
                    configs.append(ExperimentConfig(
                        method=method, benchmark=bench, dim=d, particles=120,
                        init=init, **shared))
    elif name == "table4":
        for arch in _TABLE4_ARCHS:
            configs.append(ExperimentConfig(
                method="fescbo", benchmark="dnn", dim=0, arch=arch,
                particles=100, lam=1.0, delta=1.0, beta=1e20, sigma=0.001,
                batch_size=10, schedule=StepSchedule.geometric(1.0, 0.99),
                init=UniformBox(-3.0, 3.0), runs=runs, max_iters=max_iters))
    else:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose table2, table3 or table4")
    return configs


def _blank(row: dict, missing) -> dict:
    """``row`` with each float value for which ``missing`` holds as None,
    which csv writes as an empty field and json as null."""
    return {key: None if isinstance(v, float) and missing(v) else v
            for key, v in row.items()}


def _summary_row(report: AggregateReport) -> dict:
    cfg = report.config
    target_name = cfg.benchmark
    if cfg.benchmark == "dnn":
        from . import neural
        target_name = f"dnn({neural.MLPArchitecture(cfg.arch)})"
    init = cfg.init if cfg.init is not None else "default"
    row = {
        "method": cfg.method, "benchmark": target_name,
        "d": report.records[0].final_positions.shape[1],
        "N": cfg.particles, "init": str(init), "rate": report.rate,
        "sol_err": report.sol_err, "fun_err": report.fun_err,
        "mean_iters": report.mean_iters, "mean_evals": report.mean_evals,
        "n_diverged": report.n_diverged, "n_estimation": report.n_estimation,
    }
    if report.train_err is not None:
        row["train_err"] = report.train_err
        row["test_err"] = report.test_err
    return _blank(row, math.isnan)


def _series_rows(report: AggregateReport):
    for i, rec in enumerate(report.records):
        w_k = [None] * len(rec.ks) if rec.w_k is None else rec.w_k.tolist()
        for k, diameter, w, best_f in zip(rec.ks.tolist(),
                                          rec.diameter.tolist(), w_k,
                                          rec.best_f.tolist()):
            yield _blank({"run": i, "k": k, "diameter": diameter, "w_k": w,
                          "best_f": best_f}, math.isnan)


def emit_report(reports, fmt: str, path) -> list[str]:
    """Write campaign summaries and long-format series deterministically.

    ``reports`` is one AggregateReport or a list of them.  csv writes the
    summary at ``path`` and the series beside it with a ``_series`` suffix;
    json writes a single document holding both, with null for each
    non-finite number (csv writes inf and leaves nan empty).  Returns the
    written paths.
    """
    if isinstance(reports, AggregateReport):
        reports = [reports]
    reports = [r for r in reports if r.records]
    rows = [_summary_row(r) for r in reports]
    series = [row for r in reports for row in _series_rows(r)]
    path = os.fspath(path)
    if fmt == "json":
        import json
        doc = {"summary": [_blank(r, math.isinf) for r in rows],
               "series": [_blank(r, math.isinf) for r in series]}
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")
        return [path]
    if fmt != "csv":
        raise ConfigurationError(f"format must be csv or json, got {fmt!r}")
    base, ext = os.path.splitext(path)
    series_path = f"{base}_series{ext or '.csv'}"
    extra = ("train_err", "test_err") if any("train_err" in r for r in rows) \
        else ()
    for out, columns, table in ((path, SUMMARY_COLUMNS + extra, rows),
                                (series_path, SERIES_COLUMNS, series)):
        with open(out, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([row.get(c) for c in columns] for row in table)
    return [path, series_path]


@dataclass(eq=False)
class DiagnosticReport:
    """Empirical trajectory statistics set against the computable bounds."""

    condition: theory.ConsensusCondition
    ks: np.ndarray
    diameter: np.ndarray
    diameter_bound: Optional[np.ndarray]
    decay_slope: Optional[float]
    w_k: Optional[np.ndarray] = None
    w_bound: Optional[np.ndarray] = None
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"contraction value (1-lam)^2+delta^2 = {self.condition.value:.6g}"
            f" ({'ok' if self.condition.satisfied else 'violated'})",
            f"step schedule summable: {self.condition.schedule_summable}",
        ]
        if self.decay_slope is not None:
            lines.append(f"log-diameter decay slope: {self.decay_slope:.4f}"
                         " per iteration")
        if self.diameter_bound is not None:
            within = np.all(self.diameter
                            <= self.diameter_bound[:len(self.diameter)])
            lines.append(f"diameter under theoretical bound: {bool(within)}")
        if self.w_bound is not None:
            within = np.all(self.w_k <= self.w_bound)
            lines.append(f"mean sq. distance under gamma^k bound: {bool(within)}")
        lines.extend(self.notes)
        return "\n".join(lines)


def diagnose(record: RunRecord, config: ExperimentConfig,
             L_f: Optional[float] = None) -> DiagnosticReport:
    """Overlay a run's diameter and distance series with the computed bounds.

    ``L_f`` enables the contraction-bound overlay (via the estimator bounds)
    from var_init, half the observed initial diameter, or a note where that
    is not finite.  The gamma^k overlay takes xi = 0.5.
    """
    from . import theory
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", theory.ParameterConditionWarning)
        condition = theory.check_consensus_condition(
            config.lam, config.delta, config.schedule)
    notes.extend(str(w.message) for w in caught)

    slope = None
    positive = record.diameter > 0
    if np.count_nonzero(positive) >= 2:
        slope = float(np.polyfit(record.ks[positive],
                                 np.log(record.diameter[positive]), 1)[0])

    w_bound = None
    if record.w_k is not None:
        try:
            constants = theory.contraction_constants(config.lam, config.delta)
            w_bound = record.w_k[0] * constants.gamma ** record.ks.astype(float)
        except ConfigurationError as exc:
            notes.append(f"gamma^k overlay unavailable: {exc}")

    bound = None
    if L_f is not None:
        lb = gradient_bounds(L_f, record.final_positions.shape[1],
                             config.sigma)
        initial = float(record.diameter[0])
        if not math.isfinite(initial):
            notes.append("diameter bound unavailable: initial diameter is "
                         f"{initial}")
        else:
            bound = theory.consensus_bound_series(
                int(record.ks.max()), config.lam, config.delta,
                config.schedule, lb.L_g, initial / 2.0)[record.ks]
    return DiagnosticReport(condition=condition, ks=record.ks,
                            diameter=record.diameter, diameter_bound=bound,
                            decay_slope=slope, w_k=record.w_k,
                            w_bound=w_bound, notes=notes)
