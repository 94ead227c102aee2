"""Run one workload in this process and print its measurements as JSON.

Started by run.py, which fixes the BLAS thread count before numpy loads:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The last line of standard output is one JSON object.  With --setup-only it
holds only the set-up time: importing escbo (numpy included) and building
the workload's target, in wall and in calibrated seconds (calibrate.py).
Otherwise the worker runs a small self-test, then repeats the workload's
campaign set, identical every time, in a closed loop for about --seconds
seconds.  Untraced repeats run on a calibrated clock that times the
reference kernel at the start, every 0.1 s between swarm steps and after
the report.  With --trace 1 it alternates untraced and traced repeats and
adds the per-layer metrics of the traced ones.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, expected_evals  # noqa: E402

# numpy (and tracer, which imports it) load inside the functions that use
# them, so that the set-up timer in main() covers numpy's import too.

MIN_REPEATS = 2


def load_escbo():
    """Import escbo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import escbo
    if src not in Path(escbo.__file__).resolve().parents:
        raise SystemExit(f"escbo imported from {escbo.__file__}, not {src}")
    return escbo


# -- one repeat of the campaign set -----------------------------------------

STEPPERS = ("escbo_step", "vanilla_cbo_step", "fescbo_step")


def ticking(clock, step):
    def ticked(*args, **kwargs):
        clock.tick()
        return step(*args, **kwargs)
    return ticked


def run_set(escbo, configs, out_dir, clock=None):
    """Run every campaign, then emit one csv report; returns timing and data.

    With a ``CalibratedClock`` the clock marks the start and the end and
    ticks before every swarm step (the steppers as ``harness`` calls them);
    ``seconds`` then leaves the marks' own reference time out and
    ``calibrated_s`` is the calibrated set time.
    """
    harness = escbo.harness
    steps = {name: harness.__dict__[name] for name in STEPPERS}
    if clock is not None:
        for name, step in steps.items():
            setattr(harness, name, ticking(clock, step))
        clock.mark()
    reports, raised = [], []
    t0 = time.perf_counter()
    try:
        for config in configs:
            try:
                reports.append(harness.run_many(config))
            except Exception as exc:  # a raising campaign is a failed result
                raised.append((config, repr(exc)))
        paths = harness.emit_report(reports, "csv", out_dir / "report.csv")
        seconds = time.perf_counter() - t0
        if clock is not None:
            clock.stop()
            seconds = clock.wall_s
    finally:
        for name, step in steps.items():
            setattr(harness, name, step)
    digest = hashlib.sha256()
    size = 0
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(data)
        size += len(data)
    for config, error in raised:
        digest.update(f"{config.method} raised {error}".encode())
    return {"seconds": seconds, "reports": reports, "raised": raised,
            "digest": digest.hexdigest(), "bytes": size,
            "calibrated_s": clock.calibrated_s if clock else None,
            "ref_s": statistics.median(clock.ref_s) if clock else None}


def summarize(rep, successes=None) -> dict:
    """Run counts, work done and the evaluation-identity check of a repeat.

    ``successes`` maps a campaign report to its successful runs.
    """
    out = {"runs": sum(c.runs for c, _ in rep["raised"]),
           "raised": sum(c.runs for c, _ in rep["raised"]),
           "iterations": 0, "evals": 0, "successes": 0, "diverged": 0,
           "problems": [f"{c.method} campaign raised {e}"
                        for c, e in rep["raised"]]}
    for report in rep["reports"]:
        if successes is not None:
            out["successes"] += successes(report)
        for rec in report.records:
            out["runs"] += 1
            out["iterations"] += rec.iterations
            out["evals"] += rec.evals
            if rec.terminated_by == "divergence":
                out["diverged"] += 1
                continue
            want = expected_evals(report.config, rec.iterations,
                                  rec.final_positions.shape[1])
            if rec.evals != want:
                out["problems"].append(
                    f"{report.config.method} seed {rec.seed}: {rec.evals} "
                    f"evaluations, identity gives {want}")
    return out


def records_equal(a, b) -> bool:
    import numpy as np
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and np.array_equal(x, y, equal_nan=True)):
                return False
        elif x != y and not (x != x and y != y):
            return False
    return True


# -- per-layer metrics from one traced repeat --------------------------------

def layer_metrics(tracer, rep, stats) -> dict:
    from tracer import EVAL, GRADIENTS, STEPS
    tot = tracer.totals()
    by_caller = tracer.eval_rows_by_caller()
    rows, calls = tot[EVAL]["rows"], tot[EVAL]["calls"]
    m = {
        "objective.eval_many.calls": calls,
        "objective.eval_many.rows": rows,
        "objective.eval_many.self_s": tot[EVAL]["self_s"],
        "objective.eval_many.ns_per_row": tot[EVAL]["self_s"] * 1e9 / rows,
        "objective.eval_many.rows_per_call": rows / calls,
    }
    for kind in ("init", "grad_base", "grad_probe", "refresh"):
        m[f"objective.evals.{kind}"] = by_caller[kind]
    m["objective.grad_base_share"] = by_caller["grad_base"] / rows
    m["objective.minibatch_gradients.calls"] = tot[GRADIENTS]["calls"]
    m["objective.minibatch_gradients.self_s"] = tot[GRADIENTS]["self_s"]
    m["objective.estimation_errors"] = tracer.errors[
        (GRADIENTS, "EstimationError")]
    # Each workload runs only some steppers, so their self time is reported
    # summed: a per-stepper time would read exactly 0 on the others.
    for step in STEPS:
        m[f"{step}.calls"] = tot[step]["calls"]
    m["swarm.step.self_s"] = sum(tot[step]["self_s"] for step in STEPS)
    for name in ("swarm.consensus_point", "swarm.draw_noise"):
        m[f"{name}.self_s"] = tot[name]["self_s"]
    m["swarm.divergences"] = sum(tracer.errors[(s, "DivergenceError")]
                                 for s in STEPS)
    for name in ("harness.run_once", "harness.checkpoint_consensus"):
        m[f"{name}.calls"] = tot[name]["calls"]
        m[f"{name}.self_s"] = tot[name]["self_s"]
    for name in ("swarm.swarm_diameter", "swarm.check_stop"):
        m[f"{name}.self_s"] = tot[name]["self_s"]
    m["harness.checkpoints_per_iter"] = (
        tot["harness.checkpoint_consensus"]["calls"] / stats["iterations"])
    builds = ("benchmarks.lookup", "neural.generate_synthetic")
    m["harness.target_builds"] = sum(tot[name]["calls"] for name in builds)
    m["harness.target_builds.self_s"] = sum(tot[name]["self_s"]
                                            for name in builds)
    m["harness.from_records.calls"] = tot["harness.from_records"]["calls"]
    m["harness.from_records.self_s"] = tot["harness.from_records"]["self_s"]
    m["harness.emit_report.self_s"] = tot["harness.emit_report"]["self_s"]
    m["harness.emit_report.bytes"] = rep["bytes"]
    return m


def trace_problems(tracer, stats) -> list[str]:
    """Checks every traced repeat must pass.

    ``check_nesting`` makes self time plus child time equal each span's
    duration: children that lie inside their parent and do not overlap
    cover exactly the sum of their durations.
    """
    from tracer import EVAL
    problems = tracer.check_nesting()
    rows = tracer.totals()[EVAL]["rows"]
    if rows != stats["evals"]:
        problems.append(f"traced eval_many rows {rows} != sum of "
                        f"RunRecord.evals {stats['evals']}")
    other = tracer.eval_rows_by_caller()["other"]
    if other:
        problems.append(f"{other} evaluation rows from an unknown caller")
    return problems


# -- self-test ---------------------------------------------------------------

def self_test(escbo, out_dir) -> list[str]:
    """Tracer and gate checks on tiny campaigns of all three steppers."""
    from calibrate import CalibratedClock
    from tracer import PATCHES, Tracer, resolve
    box = escbo.UniformBox(-5.0, 5.0)
    configs = [
        escbo.ExperimentConfig(method="escbo", dim=2, particles=8,
                               init=box, max_iters=30, runs=2, seed=7),
        escbo.ExperimentConfig(method="vanilla", dim=3, particles=70,
                               init=box, max_iters=12, runs=1, seed=7),
        escbo.ExperimentConfig(method="fescbo", benchmark="dnn", dim=0,
                               arch=(2, 3, 1), particles=6, batch_size=2,
                               max_iters=5, runs=2, seed=7, data_seed=7),
    ]

    originals = [resolve(escbo, owner).__dict__[attr]
                 for _, owner, attr in PATCHES]
    plain = run_set(escbo, configs, out_dir, CalibratedClock())
    tracer = Tracer()
    with tracer:
        tracer.install(escbo)
        traced = run_set(escbo, configs, out_dir)
    stats = summarize(traced)
    problems = stats["problems"] + trace_problems(tracer, stats)
    if traced["digest"] != plain["digest"]:
        problems.append("traced and untraced reports differ")
    pairs = [(a, b) for ra, rb in zip(plain["reports"], traced["reports"])
             for a, b in zip(ra.records, rb.records)]
    if len(pairs) != 5 or not all(records_equal(a, b) for a, b in pairs):
        problems.append("traced and untraced RunRecords differ")
    restored = [resolve(escbo, owner).__dict__[attr]
                for _, owner, attr in PATCHES]
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("tracer or clock left a patch installed")
    return [f"self-test: {p}" for p in problems]


# -- main --------------------------------------------------------------------

def measure(escbo, workload, seed, seconds, trace, out_dir) -> dict:
    from calibrate import CalibratedClock, Reference
    from tracer import Tracer
    configs = workload.configs(escbo, seed)
    problems = self_test(escbo, out_dir)
    reference = Reference()
    reference()  # first calls pay numpy's one-time costs
    plain, traced, layers, tracers, rounds = [], [], [], [], []
    stats = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rep = run_set(escbo, configs, out_dir, CalibratedClock(reference))
        plain.append(rep)
        if stats is None:
            stats = summarize(rep, workload.successes)
            problems += stats["problems"]
        if trace:
            tracer = Tracer()
            with tracer:
                tracer.install(escbo)
                trep = run_set(escbo, configs, out_dir)
            traced.append(trep)
            tracers.append(tracer)
            tstats = summarize(trep)
            problems += trace_problems(tracer, tstats)
            layers.append(layer_metrics(tracer, trep, tstats))
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        per_round = statistics.median(rounds)
        enough = len(plain) >= (1 if trace else MIN_REPEATS)
        if enough and elapsed + per_round > seconds:
            break
    digests = {r["digest"] for r in plain + traced}
    if len(digests) != 1:
        problems.append(f"report digests differ across repeats: "
                        f"{sorted(digests)}")
    result = {
        "digest": plain[0]["digest"],
        "campaign_s": [r["calibrated_s"] for r in plain],
        "wall_s": [r["seconds"] for r in plain],
        "reference_s": [r["ref_s"] for r in plain],
        "traced_wall_s": [r["seconds"] for r in traced],
        "repeats": len(plain) + len(traced),
        "runs": stats["runs"], "iterations": stats["iterations"],
        "evals": stats["evals"], "successes": stats["successes"],
        "failed": stats["diverged"] + stats["raised"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "problems": problems,
    }
    if trace:
        per_layer = {name: statistics.median(m[name] for m in layers)
                     for name in layers[0]}
        per_layer["campaign.wall_s"] = statistics.median(result["wall_s"])
        per_layer["bench.reference_s"] = statistics.median(
            result["reference_s"])
        per_layer["trace.overhead_ratio"] = (
            statistics.median(result["traced_wall_s"])
            / per_layer["campaign.wall_s"] - 1.0)
        result["per_layer"] = per_layer
        import numpy as np
        np.savez(out_dir / "spans.npz", **{
            f"r{j}_{key}": value for j, tr in enumerate(tracers)
            for key, value in tr.arrays().items()},
            names=np.array(tracers[0].names))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    escbo = load_escbo()
    workload.build_target(escbo, args.seed)
    setup = time.perf_counter() - t0
    from calibrate import REF_NOMINAL_S, CalibratedClock
    clock = CalibratedClock()
    clock.reference()  # first calls pay numpy's one-time costs
    ref = clock.reference_time(repeats=5)
    result = {"setup_wall_s": setup, "setup_s": setup * REF_NOMINAL_S / ref}
    if not args.setup_only:
        out_dir = ROOT / ".bench_out" / args.workload
        out_dir.mkdir(parents=True, exist_ok=True)
        result.update(measure(escbo, workload, args.seed, args.seconds,
                              args.trace, out_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
