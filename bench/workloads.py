"""The benchmark's workloads: seeded campaign sets over escbo's run loop.

Each workload is a list of ``ExperimentConfig`` campaigns that one process
runs one after another through ``run_many`` and then ``emit_report``.  The
workload seed becomes ``config.seed`` (run i of a campaign uses seed + i)
and, for the network target, ``data_seed``.

A set takes 5-7 calibrated seconds (8-16 s of wall time on a 2-vCPU Xeon
VM), so a 30 s window holds two or three repeats.  Run counts are set by
the seed-to-seed spread: the work and the successes of a set depend on its
seeds, and their spread over ten seeds shrinks with the runs in a set.  The
mix leans to escbo runs because their success is near certain (about 98%
on the table-2 row, 94% on swarm20); vanilla runs mostly fail, so one or
a few of them keep the count of successes steady.  Iteration caps let the
benchmark runs end by the stop rule; most network runs use their full cap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

DNN_SUCCESS_TRAIN_ERR = 1e-2


@dataclass(frozen=True)
class Workload:
    configs: Callable[[object, int], list]   # (escbo package, seed) -> configs
    build_target: Callable[[object, int], object]
    successes: Callable[[object], int]  # AggregateReport -> successful runs


def _table2(escbo, seed):
    rows = {c.method: c for c in escbo.harness.table_preset("table2", 0.3)
            if (c.benchmark, c.dim, c.particles) == ("rastrigin", 3, 180)}
    return [dataclasses.replace(rows["escbo"], runs=12, seed=seed),
            dataclasses.replace(rows["vanilla"], runs=1, seed=seed)]


def _swarm20(escbo, seed):
    return [escbo.ExperimentConfig(
        method=method, benchmark="rastrigin", dim=2, particles=20,
        lam=0.01, delta=0.1, beta=100.0, sigma=1e-4,
        schedule=escbo.StepSchedule.harmonic(0.5),
        init=escbo.UniformBox(-5.0, 5.0), max_iters=10_000, runs=runs,
        seed=seed) for method, runs in (("escbo", 60), ("vanilla", 4))]


def _dnn(escbo, seed):
    return [escbo.ExperimentConfig(
        method="fescbo", benchmark="dnn", dim=0, arch=(5, 10, 1),
        particles=100, lam=1.0, delta=1.0, beta=1e20, sigma=1e-3,
        batch_size=10, schedule=escbo.StepSchedule.geometric(1.0, 0.99),
        init=escbo.UniformBox(-3.0, 3.0), max_iters=150, runs=8, seed=seed,
        data_seed=seed)]


def _rastrigin_target(d):
    return lambda escbo, seed: escbo.lookup("rastrigin", d)


def _dnn_target(escbo, seed):
    arch = escbo.MLPArchitecture((5, 10, 1))
    return escbo.dnn_objective(arch, escbo.generate_synthetic(arch, seed))


def _harness_successes(report):
    # report.rate is the campaign mean of the harness's own success_tol test.
    return round(report.rate * len(report.records))


def _dnn_successes(report):
    return sum(rec.train_err <= DNN_SUCCESS_TRAIN_ERR
               for rec in report.records)


WORKLOADS = {
    "table2-rastrigin3": Workload(_table2, _rastrigin_target(3),
                                  _harness_successes),
    "swarm20-seeds": Workload(_swarm20, _rastrigin_target(2),
                              _harness_successes),
    "dnn-5-10-1": Workload(_dnn, _dnn_target, _dnn_successes),
}


def expected_evals(config, iterations: int, dim: int) -> int:
    """The paper's exact evaluation count for a run of ``iterations`` steps."""
    n = config.particles
    if config.method == "escbo":
        per_step = n * (dim + 2)
    elif config.method == "vanilla":
        per_step = n
    else:
        per_step = config.batch_size * (dim + 1) + n
    return n + iterations * per_step
