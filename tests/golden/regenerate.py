"""Write the golden campaign reports that ``tests/test_golden.py`` pins.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case below is one small campaign, written as a csv summary, its
``_series`` csv and a json report.  ``environment.json`` records the numpy
version and the number of usable cores of the host that wrote them.  numpy's
SIMD dispatch can round ``exp`` and ``cos`` differently on another CPU, so a
golden mismatch on a new host is a finding to report, not a reason to
regenerate; regenerate only for a change meant to move report bytes, and say
why beside the change.
"""

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from escbo.harness import ExperimentConfig, emit_report, run_many
from escbo.swarm import ComponentGaussian, StepSchedule, UniformBox

GOLDEN_DIR = Path(__file__).resolve().parent
ENVIRONMENT = "environment.json"

_QUICK = dict(lam=0.2, delta=0.2, beta=1e6, sigma=1e-4,
              schedule=StepSchedule.geometric(0.5, 0.9))
_TABLE3 = dict(lam=0.01, delta=0.1, beta=1e20, sigma=1e-5,
               schedule=StepSchedule.geometric(1.0, 0.99))
_OVERFLOW = UniformBox(-1e200, 1e200)

CASES = {
    # Past k = 110, so the sparse checkpoints (every 10th) show.
    "escbo-rastrigin": ExperimentConfig(
        method="escbo", benchmark="rastrigin", particles=20, max_iters=150,
        stop_tol=0.0, runs=2, **_QUICK),
    "vanilla-schaffer4-gaussian": ExperimentConfig(
        method="vanilla", benchmark="schaffer4", particles=30,
        init=ComponentGaussian(0.0, 3.0), max_iters=100, runs=3, **_QUICK),
    "fescbo-ackley-N80": ExperimentConfig(
        method="fescbo", benchmark="ackley", dim=3, particles=80,
        batch_size=20, max_iters=100, runs=2, **_QUICK),
    # The table-3 schaffer4 row's first run (scale 0.3): N = 120, converged
    # away from the origin.
    "escbo-schaffer4-N120": ExperimentConfig(
        method="escbo", benchmark="schaffer4", particles=120,
        init=UniformBox(-3.0, 3.0), max_iters=3000, runs=1, **_TABLE3),
    "fescbo-dnn-2-3-1": ExperimentConfig(
        method="fescbo", benchmark="dnn", arch=(2, 3, 1), particles=20,
        batch_size=5, lam=1.0, delta=1.0, beta=1e20, sigma=1e-3,
        init=UniformBox(-3.0, 3.0), max_iters=60, runs=2),
    # A divergence at iteration 0 whose diameter overflows, on both sides
    # of N = 64.
    "divergence-N20": ExperimentConfig(init=_OVERFLOW, runs=1, max_iters=5),
    "divergence-N100": ExperimentConfig(init=_OVERFLOW, particles=100,
                                        runs=1, max_iters=5),
    # Every probe x + sigma overflows rastrigin: an estimation failure.
    "estimation": ExperimentConfig(sigma=1e200, runs=1, max_iters=5),
}


def environment() -> dict:
    """The host facts that decide rounding: numpy, Python, usable cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "nproc": cores}


def write_reports(out_dir) -> list[Path]:
    """Run every case and write its reports into ``out_dir``."""
    out = Path(out_dir)
    written = []
    for name, config in CASES.items():
        report = run_many(config)
        for fmt in ("csv", "json"):
            paths = emit_report(report, fmt, out / f"{name}.{fmt}")
            written += map(Path, paths)
    return written


def main() -> int:
    written = write_reports(GOLDEN_DIR)
    with open(GOLDEN_DIR / ENVIRONMENT, "w", encoding="ascii") as fh:
        json.dump(environment(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(written)} reports and {ENVIRONMENT} to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
