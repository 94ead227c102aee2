"""escbo benchmark: seeded campaign workloads, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N            # every workload, untraced

Each workload runs in fresh single-threaded processes (the BLAS thread
count is fixed to 1 here, before numpy loads in a worker).  With --trace 0
the command reports every end-to-end metric of BENCHMARK.json; set-up time
is the median over several fresh processes.  Times are calibrated seconds
(calibrate.py): wall time scaled by a fixed reference kernel timed next to
it, so that the machine's speed drift cancels; wall times print alongside.
With --trace 1 it reports every per-layer metric, measured by wrapping
escbo's public functions.
Results print one per line with units; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A failed correctness check
(evaluation identity, report digest, tracer self-test) prints the problem
and exits 1; a missing escbo source tree exits 2; a worker that fails or
overruns the 170 s limit exits 3 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
WORKER = BENCH / "worker.py"

# One BLAS thread: on a 2-core machine it was both faster and bit-identical
# to the default thread count on these workloads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 8     # fresh set-up-only processes, plus the measuring one
TIME_LIMIT_S = 170   # the whole command must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a valid measurement."""


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.6g} s over n={n}"
    if n > 10:
        q = 100.0 * (n - 10) / n
        return f"{text}, p{q:.0f} {s[n - 11]:.6g} s"
    return f"{text}, max {s[-1]:.6g} s (no percentile has 10 samples beyond it)"


def end_to_end(out: dict, setup: list[float]) -> dict:
    campaign = out["campaign_s"]
    if out["successes"] == 0:
        raise BenchError("no run succeeded, so s_per_success is undefined")
    return {
        "campaign_s": statistics.median(campaign),
        "iters_per_s": statistics.median(out["iterations"] / c
                                         for c in campaign),
        "evals_per_s": statistics.median(out["evals"] / c for c in campaign),
        "s_per_success": statistics.median(c / out["successes"]
                                           for c in campaign),
        "success_rate": out["successes"] / out["runs"],
        "run_ok_ratio": 1.0 - out["failed"] / out["runs"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 spec: dict, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = []
    if not trace:
        probes = [worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
    out = worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                 deadline)
    probes.append(out)
    setup = [p["setup_s"] for p in probes]
    if trace:
        values, wanted = out["per_layer"], spec["per_layer"]
    else:
        values, wanted = end_to_end(out, setup), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"== {name} seed={seed} trace={trace} "
          f"threads={THREAD_ENV['OPENBLAS_NUM_THREADS']}")
    print(f"report digest {out['digest']} "
          f"({out['repeats']} repeats, all equal)"
          if not out["problems"] else "report digest check: see problems")
    print(f"campaign_s calibrated: {tail(out['campaign_s'])}")
    print(f"campaign_s wall: {tail(out['wall_s'])}")
    ref = statistics.median(out["reference_s"])
    print(f"reference kernel: median {ref:.6g} s per repeat")
    if not trace:
        print(f"setup_s calibrated samples "
              f"{', '.join(f'{s:.4f}' for s in setup)}")
        walls = ", ".join(f"{p['setup_wall_s']:.4f}" for p in probes)
        print(f"setup_s wall samples {walls}")
        print(f"run_fail_ratio {out['failed'] / out['runs']:.6g} ratio")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for problem in out["problems"]:
        print(f"PROBLEM {problem}")
    return {"correct": not out["problems"],
            "attempted": out["runs"] * out["repeats"],
            "failed": out["failed"] * out["repeats"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "escbo" / "__init__.py").is_file():
        print(f"no escbo source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, spec, deadline)
        else:
            parts = {}
            for name in names:
                parts[name] = run_workload(name, args.seed, args.seconds,
                                           args.trace, spec,
                                           time.monotonic() + TIME_LIMIT_S)
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {n: p["metrics"] for n, p in parts.items()}}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
