"""Acceptance gate: one test per criterion, one printed line per criterion.

Statistical reproductions run at desk scale with frozen seeds; property
checks run at full strength.  Expensive campaigns are marked ``campaign`` so
they can be deselected during development (`-m "not campaign"`), but the
default run includes everything.
"""

import math

import numpy as np
import pytest

from escbo.benchmarks import lookup, rastrigin1d
from escbo.harness import ExperimentConfig, emit_report, run_many, run_once, \
    table_preset
from escbo.neural import MLPArchitecture
from escbo.objective import (Objective, forward_difference_gradient,
                             gradient_bounds)
from escbo.swarm import (RngStream, StepSchedule, SwarmState,
                         UniformBox, consensus_point, escbo_step, init_swarm,
                         softmin_weights, swarm_diameter, vanilla_cbo_step)
from escbo.theory import (GrowthConditionParams, consensus_bound_series,
                          consensus_distance_bound, contraction_constants,
                          error_budget, iteration_budget, laplace_value,
                          max_on_ball)


def report_line(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{num:2d}] {label:<38s} {status}  ({detail})")


# ---------------------------------------------------------------------------
# 1. Consensus emergence with the validation parameters on 2-D Rastrigin.

@pytest.mark.campaign
def test_01_consensus_emergence():
    cfg = ExperimentConfig(
        method="escbo", benchmark="rastrigin", dim=2, particles=20,
        lam=0.01, delta=0.1, beta=100.0, sigma=1e-4,
        schedule=StepSchedule.harmonic(0.5), init=UniformBox(-5.0, 5.0),
        max_iters=10_000, runs=30, seed=0)
    good, stop_iters = 0, []
    for i in range(cfg.runs):
        rec = run_once(cfg, cfg.seed + i)
        stopped = rec.terminated_by == "stop_rule"
        if stopped:
            stop_iters.append(rec.iterations)
        tight = rec.diameter[-1] <= 1e-10
        near = np.linalg.norm(rec.consensus) <= 1e-2
        good += stopped and tight and near
    median_k = float(np.median(stop_iters)) if stop_iters else math.inf
    ok = good >= 27 and 100 <= median_k <= 5000
    report_line(1, "consensus emergence", ok,
                f"{good}/30 runs converged, median stop k={median_k:.0f}")
    assert good >= 27
    assert 100 <= median_k <= 5000


# ---------------------------------------------------------------------------
# 2. Method comparison: success rates and ordering on the table-2 grid.

def _preset_rate(configs, bench, dim, particles, method):
    for cfg in configs:
        if (cfg.benchmark, cfg.dim, cfg.particles, cfg.method) \
                == (bench, dim, particles, method):
            return run_many(cfg)
    raise AssertionError("preset config not found")


@pytest.mark.campaign
def test_02_table2_ordering_and_magnitude():
    configs = table_preset("table2", scale=0.3)
    escbo = _preset_rate(configs, "rastrigin", 3, 180, "escbo")
    vanilla = _preset_rate(configs, "rastrigin", 3, 180, "vanilla")
    headline_ok = (escbo.rate >= 0.90 and vanilla.rate <= 0.70
                   and escbo.sol_err <= 1e-6)
    report_line(2, "table-2 headline (rastrigin d=3)", headline_ok,
                f"escbo rate={escbo.rate:.2f} sol-err={escbo.sol_err:.2e}, "
                f"vanilla rate={vanilla.rate:.2f}")
    assert escbo.rate >= 0.90
    assert vanilla.rate <= 0.70
    assert escbo.sol_err <= 1e-6

    details = []
    for bench, d in [("rastrigin", 3), ("rastrigin", 10), ("salomon", 3),
                     ("salomon", 10), ("ackley", 3)]:
        e = _preset_rate(configs, bench, d, 20 * d, "escbo")
        v = _preset_rate(configs, bench, d, 20 * d, "vanilla")
        details.append(f"{bench}-{d}: {e.rate:.2f}>{v.rate:.2f}")
        assert e.rate > v.rate, f"ordering violated on {bench} d={d}"
    report_line(2, "table-2 ordering (N=20d rows)", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Initialization sensitivity: the shifted box that defeats vanilla.

@pytest.mark.campaign
def test_03_table3_initialization_sensitivity():
    shared = dict(benchmark="rastrigin", dim=2, particles=120, lam=0.01,
                  delta=0.1, beta=1e20, sigma=1e-5,
                  schedule=StepSchedule.geometric(1.0, 0.99),
                  init=UniformBox(2.0, 6.0), max_iters=3000, runs=30, seed=0)
    escbo = run_many(ExperimentConfig(method="escbo", **shared))
    vanilla = run_many(ExperimentConfig(method="vanilla", **shared))
    ok = escbo.rate >= 0.90 and vanilla.rate <= 0.10
    report_line(3, "table-3 shifted init", ok,
                f"escbo rate={escbo.rate:.2f}, vanilla rate={vanilla.rate:.2f}")
    assert escbo.rate >= 0.90
    assert vanilla.rate <= 0.10


# ---------------------------------------------------------------------------
# 4. Diameter contraction bound and decay rate.

def _checkpoints(k_max):
    return [k for k in range(k_max + 1) if k <= 100 or k % 10 == 0]


def test_04_contraction_bound_and_rate():
    lam, delta, sigma, L_f, k_max, n_runs = 0.75, 0.25, 0.1, 80.0, 200, 50
    sched = StepSchedule.geometric(0.1, 0.5)
    config = ExperimentConfig(lam=lam, delta=delta, beta=50.0, sigma=sigma,
                              schedule=sched)
    ks = _checkpoints(k_max)
    diam = np.zeros((n_runs, len(ks)))
    for run in range(n_runs):
        spec = lookup("rastrigin", 2)
        rng = RngStream(run)
        state = init_swarm(UniformBox(-5, 5), 20, spec.objective, rng)
        row, nxt = [swarm_diameter(state.positions)], 1
        for k in range(1, k_max + 1):
            state = escbo_step(state, spec.objective, config, rng)
            if k == ks[nxt]:
                row.append(swarm_diameter(state.positions))
                nxt += 1
        diam[run] = row
    mean = diam.mean(axis=0)
    lb = gradient_bounds(L_f, 2, sigma)
    bound_full = consensus_bound_series(k_max, lam, delta, sched, lb.L_g,
                                        mean[0] / 2.0)
    bound = bound_full[ks]
    under = bool(np.all(mean <= bound))
    keep = (np.asarray(ks) >= 10) & (mean > 0)
    slope = float(np.polyfit(np.asarray(ks)[keep], np.log(mean[keep]), 1)[0])
    limit = math.log(2 * ((1 - lam) ** 2 + delta ** 2)) + 0.1
    ok = under and slope <= limit
    report_line(4, "contraction bound + decay rate", ok,
                f"bound holds={under}, slope={slope:.3f} <= {limit:.3f}")
    assert under
    assert slope <= limit


# ---------------------------------------------------------------------------
# 5. Exact pairwise coupling through the shared noise.

def test_05_coupling_identity():
    gen = np.random.default_rng(5)
    worst = 0.0
    for trial in range(1000):
        n, d = int(gen.integers(2, 7)), int(gen.integers(1, 5))
        pts = gen.uniform(-5, 5, size=(n, d))
        lam = float(gen.uniform(0.0, 1.5))
        delta = float(gen.uniform(0.0, 0.6))
        obj = Objective(d, lambda x: np.sum(x * x, axis=-1))
        state = SwarmState(pts.copy(), obj.eval_many(pts))
        eta = RngStream(trial).stream("noise").normal(0.0, delta, size=d)
        new = vanilla_cbo_step(state, obj,
                               ExperimentConfig(lam=lam, delta=delta,
                                                beta=3.0, sigma=1.0),
                               RngStream(trial))
        factor = (1.0 - lam) - eta
        scale = np.abs(pts).max() * (1.0 + np.abs(factor).max())
        tol = 4 * np.spacing(scale)
        for i in range(n):
            for j in range(i + 1, n):
                lhs = new.positions[i] - new.positions[j]
                rhs = factor * (pts[i] - pts[j])
                err = np.abs(lhs - rhs).max()
                worst = max(worst, err / np.spacing(scale))
                assert err <= tol
    report_line(5, "pairwise coupling identity", True,
                f"worst error {worst:.2f} ulp over 1000 steps (limit 4)")


# ---------------------------------------------------------------------------
# 6. Softmin limits of the consensus point.

def test_06_softmin_limits():
    gen = np.random.default_rng(6)
    obj = Objective(3, lambda x: np.sum(x * x, axis=-1) + np.sin(x[..., 0]))
    for _ in range(200):
        pts = gen.uniform(-4, 4, size=(int(gen.integers(2, 25)), 3))
        state = SwarmState(pts.copy(), obj.eval_many(pts))
        sharp = consensus_point(state, 1e20)
        best = pts[int(np.argmin(state.values))]
        np.testing.assert_array_equal(sharp, best)
        flat = consensus_point(state, 0.0)
        np.testing.assert_allclose(flat, pts.mean(axis=0),
                                   rtol=1e-13, atol=1e-13)
        for beta in (0.0, 1.0, 100.0, 1e20):
            w = softmin_weights(state.values, beta)
            assert abs(w.sum() - 1.0) <= 1e-14
    report_line(6, "softmin limits of consensus", True,
                "argmin at beta=1e20 exact, mean at beta=0, weights sum to 1")


# ---------------------------------------------------------------------------
# 7. Softmin value asymptotics on the quadratic with uniform initial law.

def test_07_laplace_asymptotics():
    n = 1_000_000
    samples = np.random.default_rng(7).uniform(-1, 1, size=n) ** 2

    def closed_form(beta):
        return (0.5 * math.log(beta) + math.log(2.0)
                - 0.5 * math.log(math.pi)) / beta

    deviations = []
    for beta in (10.0, 100.0, 1000.0):
        shifted = np.exp(-beta * (samples - samples.min()))
        se = shifted.std() / (math.sqrt(n) * shifted.mean() * beta)
        diff = abs(laplace_value(beta, samples) - closed_form(beta))
        deviations.append(f"beta={beta:g}: {diff / se:.2f} se")
        assert diff <= 3 * se

    betas = np.logspace(1, 4, 7)
    budgets = [error_budget(b, 0.5, samples, 0.0) for b in betas]
    slope = float(np.polyfit(np.log(betas), np.log(budgets), 1)[0])
    ok = -1.2 <= slope <= -0.8
    report_line(7, "softmin value asymptotics", ok,
                f"{'; '.join(deviations)}; E(beta) slope={slope:.3f}")
    assert -1.2 <= slope <= -0.8


# ---------------------------------------------------------------------------
# 8. Contraction constants and the empirical mean-squared-distance decay.

@pytest.mark.campaign
def test_08_complexity_constants_and_decay():
    cc = contraction_constants(0.25, 0.0, 0.5)
    assert cc.gamma == pytest.approx(0.8125, abs=1e-12)
    assert cc.kappa == pytest.approx(0.0340909, abs=1e-6)
    # Independent evaluation of the same constants.
    assert cc.kappa == pytest.approx(min(0.1875 / 5.5,
                                         math.sqrt(0.1875 / 4.25)), abs=1e-15)
    assert iteration_budget(1.0, 0.01, 0.8125) == 23

    eps, L_f, sigma = 1e-3, 70.0, 1e-3
    M_g = gradient_bounds(L_f, 1, sigma).M_g
    alpha = cc.kappa * math.sqrt(eps) / M_g
    sched = StepSchedule.constant(alpha)
    config = ExperimentConfig(lam=0.25, delta=0.0, beta=1e6, sigma=sigma,
                              schedule=sched)
    n_runs, k_max = 200, 60
    w = np.zeros((n_runs, k_max + 1))
    for run in range(n_runs):
        spec = lookup("rastrigin1d")
        rng = RngStream(run)
        state = init_swarm(UniformBox(-3, 3), 50, spec.objective, rng)
        w[run, 0] = np.mean(state.positions[:, 0] ** 2)
        for k in range(1, k_max + 1):
            state = escbo_step(state, spec.objective, config, rng)
            w[run, k] = np.mean(state.positions[:, 0] ** 2)
    mean_w = w.mean(axis=0)
    w0 = mean_w[0]
    k_eps = iteration_budget(w0, eps, cc.gamma)
    envelope_ok = True
    for k in range(k_max + 1):
        if mean_w[k] <= eps:
            break
        envelope_ok &= mean_w[k] <= 1.5 * cc.gamma ** k * w0
    batches = w.reshape(10, 20, k_max + 1).mean(axis=1)
    hits = int(np.sum(batches[:, :k_eps + 1].min(axis=1) <= eps))
    ok = envelope_ok and hits >= 9
    report_line(8, "mean-square-distance contraction", ok,
                f"gamma envelope={envelope_ok}, K_eps={k_eps}, "
                f"batches reaching eps: {hits}/10")
    assert envelope_ok
    assert hits >= 9


# ---------------------------------------------------------------------------
# 9. Proximity bound for the softmin average on the 1-D growth example.

def test_09_proximity_bound_instances():
    gcp = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)
    gen = np.random.default_rng(9)
    betas = [1.0, 10.0, 1e3, 1e6, 1e20]
    held = 0
    for trial in range(100):
        r = float(gen.uniform(0.01, 0.07))
        f_r = max_on_ball(rastrigin1d, [0.0], r, 1e-4)
        q = float(gen.uniform(0.1, 0.95)) * (1.0 - f_r)
        pts = np.concatenate([gen.uniform(-3, 3, size=(17, 1)),
                              gen.uniform(-r, r, size=(3, 1))])
        res = consensus_distance_bound(pts, rastrigin1d(pts), [0.0], 0.0,
                                       gcp, r=r, q=q,
                                       beta=betas[trial % len(betas)],
                                       f_r=f_r)
        held += res.holds
    report_line(9, "softmin proximity bound", held == 100,
                f"{held}/100 sampled swarms satisfy the bound")
    assert held == 100


# ---------------------------------------------------------------------------
# 10. First-order accuracy and exact accounting of the estimator.

def test_10_gradient_estimator_accuracy():
    obj = Objective(4, lambda x: np.sum(x * x, axis=-1))
    x = np.array([0.4, -1.1, 2.3, 0.9])
    errs, evals = [], []
    for sigma in (1e-2, 5e-3, 2.5e-3):
        before = obj.eval_count
        g = forward_difference_gradient(obj, x, sigma)
        evals.append(obj.eval_count - before)
        errs.append(float(np.linalg.norm(g - 2 * x)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(abs(r - 2.0) <= 0.2 for r in ratios) and evals == [5, 5, 5]
    report_line(10, "estimator accuracy + accounting", ok,
                f"halving ratios {ratios[0]:.3f}, {ratios[1]:.3f}; "
                f"evals per call {evals[0]}")
    for r in ratios:
        assert abs(r - 2.0) <= 0.2
    assert evals == [5, 5, 5]


# ---------------------------------------------------------------------------
# 11. Mini-batch training of the 5-10-1 network.

@pytest.mark.campaign
def test_11_dnn_training():
    cfg = ExperimentConfig(
        method="fescbo", benchmark="dnn", arch=(5, 10, 1), particles=100,
        lam=1.0, delta=1.0, beta=1e20, sigma=0.001, batch_size=10,
        schedule=StepSchedule.geometric(1.0, 0.99), init=UniformBox(-3, 3),
        max_iters=1500, runs=10, seed=0)
    assert MLPArchitecture(cfg.arch).dim == 71
    report = run_many(cfg)
    train = np.array([r.train_err for r in report.records])
    tests = np.array([r.test_err for r in report.records])
    ratios = np.array([r.init_train_err / r.train_err
                       for r in report.records])
    med_train = float(np.median(train))
    med_test = float(np.median(tests))
    med_ratio = float(np.median(ratios))
    ok = (med_train <= 1e-2 and med_ratio >= 100.0
          and med_test <= 10 * med_train)
    report_line(11, "mini-batch network training", ok,
                f"median train={med_train:.2e}, decrease x{med_ratio:.0f}, "
                f"median test={med_test:.2e}")
    assert med_train <= 1e-2
    assert med_ratio >= 100.0
    assert med_test <= 10 * med_train


# ---------------------------------------------------------------------------
# 12. Benchmark registration invariants.

def test_12_benchmark_registration():
    gen = np.random.default_rng(12)
    names = []
    for name, d in [("rastrigin", 3), ("salomon", 4), ("griewank", 2),
                    ("ackley", 5), ("xinsheyang4", 3), ("bartels_conn", None),
                    ("schaffer4", None), ("rastrigin1d", None)]:
        spec = lookup(name, d)
        vals = spec.objective.eval_many(spec.x_star)
        assert np.max(np.abs(vals - spec.f_star)) <= 1e-9
        pts = gen.uniform(spec.lo, spec.hi, size=(1000, spec.dim))
        assert np.all(spec.objective.eval_many(pts) >= spec.f_star - 1e-9)
        names.append(name)
    report_line(12, "benchmark registration", True,
                f"{len(names)} objectives verified at their minimizers")


# ---------------------------------------------------------------------------
# 13. Byte-identical reports under identical configs.

def test_13_report_determinism(tmp_path):
    cfg = ExperimentConfig(
        method="escbo", benchmark="ackley", dim=2, particles=8, lam=0.2,
        delta=0.2, beta=1e6, sigma=1e-4,
        schedule=StepSchedule.geometric(0.5, 0.9), init=UniformBox(-5, 5),
        max_iters=60, runs=3, seed=11)
    from pathlib import Path
    first = emit_report(run_many(cfg), "csv", tmp_path / "one.csv")
    second = emit_report(run_many(cfg), "csv", tmp_path / "two.csv")
    same = all(Path(a).read_bytes() == Path(b).read_bytes()
               for a, b in zip(first, second))
    emit_report(run_many(cfg), "json", tmp_path / "one.json")
    emit_report(run_many(cfg), "json", tmp_path / "two.json")
    same_json = (tmp_path / "one.json").read_bytes() \
        == (tmp_path / "two.json").read_bytes()
    ok = same and same_json
    report_line(13, "report determinism", ok,
                "csv and json outputs byte-identical on re-run")
    assert same and same_json
