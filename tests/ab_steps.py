"""Interleaved A/B timing of a workload's step and gradient against a git ref.

    python3 tests/ab_steps.py [--ref HEAD] [--workload dnn-5-10-1]
                              [--arch 10-10-10-10-1] [--calls 400] [--seed 0]

The ref's ``src/escbo`` is read with ``git show`` into a temporary directory
and imported as ``escbo_ref``, beside this tree's ``escbo``.  Each side
builds the first campaign of the named workload in ``bench/workloads.py``
(``--arch`` replaces a network workload's widths) and one seeded swarm.
Then the two sides alternate, call by call and in alternating order, on
two operations: the campaign's stepper on that swarm, and
``minibatch_gradients`` on one fixed batch of it.  Each side steps with its
own random stream from the same seed, so the two sides' steps should agree
bit for bit; the script says whether they did.  It prints, per operation,
each side's median call time, the change, in how many calls this tree was
faster, and the tree/ref time ratio with either side first.  Paired calls
in one process cancel most of a host's speed drift, which on a shared
2-vCPU machine hides a 5% change between two separate benchmark runs.  The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # before numpy loads, as the benchmark

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def export_ref(ref: str, dest: Path) -> None:
    """Write src/escbo as of ``ref`` to dest/escbo_ref."""
    pkg = dest / "escbo_ref"
    pkg.mkdir()
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-tree", "--name-only", ref, "src/escbo/"],
        check=True, capture_output=True, text=True).stdout.split()
    for name in names:
        if name.endswith(".py"):
            blob = subprocess.run(["git", "-C", str(ROOT), "show",
                                   f"{ref}:{name}"], check=True,
                                  capture_output=True).stdout
            (pkg / Path(name).name).write_bytes(blob)


class Side:
    """One package's stepper and gradient call on one seeded swarm."""

    def __init__(self, pkg, workload, seed: int, arch):
        config = workload.configs(pkg, seed)[0]
        if arch is not None:
            config = dataclasses.replace(config, arch=arch)
        swarm = pkg.swarm
        target = pkg.harness._build_target(config)
        self.config, self.obj = config, target.objective
        self.rng = swarm.RngStream(seed)
        self.state = swarm.init_swarm(target.init, config.particles,
                                      self.obj, self.rng)
        self.stepper = {"escbo": swarm.escbo_step,
                        "vanilla": swarm.vanilla_cbo_step,
                        "fescbo": swarm.fescbo_step}[config.method]
        self.gradients = pkg.objective.minibatch_gradients
        n = config.particles
        size = config.batch_size if config.method == "fescbo" else n
        self.batch = np.random.default_rng(seed).choice(n, size, replace=False)

    def step(self):
        return self.stepper(self.state, self.obj, self.config,
                            self.rng).positions

    def gradient(self):
        return self.gradients(self.obj, self.state.positions, self.batch,
                              self.config.sigma, self.state.values)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", default="HEAD")
    ap.add_argument("--workload", default="dnn-5-10-1")
    ap.add_argument("--arch", default=None,
                    help="layer widths such as 10-10-10-10-1")
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    arch = (None if args.arch is None
            else tuple(int(w) for w in args.arch.split("-")))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        export_ref(args.ref, Path(tmp))
        sys.path.insert(0, tmp)
        sides = [Side(importlib.import_module(name), workload, args.seed, arch)
                 for name in ("escbo_ref", "escbo")]
    print(f"workload {args.workload}, arch {sides[1].config.arch}, "
          f"{args.calls} calls per side; ref {args.ref} against this tree")
    for op in ("step", "gradient"):
        times = np.empty((args.calls, 2))
        same = True
        for c in range(-5, args.calls):   # five warm-up rounds
            order = (0, 1) if c % 2 == 0 else (1, 0)
            outs = [None, None]
            for s in order:
                t, outs[s] = timed(getattr(sides[s], op))
                if c >= 0:
                    times[c, s] = t
            same = same and outs[0].tobytes() == outs[1].tobytes()
        ref_med, new_med = np.median(times, axis=0)
        wins = int(np.sum(times[:, 1] < times[:, 0]))
        print(f"{op:9s} ref {ref_med * 1e3:8.3f} ms   tree "
              f"{new_med * 1e3:8.3f} ms   change "
              f"{(new_med / ref_med - 1) * 100:+6.1f}%   tree faster in "
              f"{wins}/{args.calls}   identical: {str(same).lower()}")
        # The side that runs second in a pair finds the caches holding the
        # other side's arrays; the geometric mean of the two orders'
        # median ratios cancels that.
        ratios = times[:, 1] / times[:, 0]
        ref_first, tree_first = (np.median(ratios[0::2]),
                                 np.median(ratios[1::2]))
        print(f"{'':9s} tree/ref median ratio {ref_first:.3f} with ref "
              f"first, {tree_first:.3f} with tree first, geometric mean "
              f"{np.sqrt(ref_first * tree_first):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
