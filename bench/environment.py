"""Write bench/environment.json: where and on what the benchmark was taken.

    python3 bench/environment.py

Records the measured commit, Python and numpy versions, the BLAS library
and the thread count the benchmark fixes, the processor model and count, the
``src/escbo`` line count, each workload's reason from BENCHMARK.json and
the calibration settings with the reference kernel's median time here.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from run import THREAD_ENV  # noqa: E402


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info['version']}"


def cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "escbo").glob("*.py")))


def calibration() -> dict:
    clock = calibrate.CalibratedClock()
    clock.reference()
    return {"ref_nominal_s": calibrate.REF_NOMINAL_S,
            "mark_every_s": calibrate.MARK_EVERY_S,
            "reference_s_median_of_21": clock.reference_time(repeats=21)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads": THREAD_ENV,
        "cpu": cpu(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_escbo_lines": src_lines(),
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "calibration": calibration(),
    }
    path = BENCH / "environment.json"
    path.write_text(json.dumps(env, indent=2) + "\n")
    print(path.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
