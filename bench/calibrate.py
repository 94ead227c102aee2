"""Machine-speed calibration: time escbo against a fixed reference kernel.

On a shared machine the same work runs up to 1.8x slower in speed regimes
that last seconds to minutes, and wall and CPU time drift together, so no
estimator over one window removes the drift.  What does remove it is
timing a fixed reference kernel next to the measured code and dividing:
the reference is the benchmark's own code, so a change to escbo moves the
measured time and not the reference.

``CalibratedClock.mark`` times the reference once and closes a segment;
``tick``, called often by the measured code, marks once ``MARK_EVERY_S``
has passed, so the reference samples about 6% of the time at a density
that follows drift over fractions of a second.  A segment's calibrated time
is its wall time (reference time excluded) times ``REF_NOMINAL_S`` divided
by the mean reference time at its two ends: the seconds the segment would
take on a machine where the reference takes ``REF_NOMINAL_S``.  One
reference timing is noisy; a set of a few seconds sums dozens of segments.

The reference gives equal time to what the workloads spend time on:
consensus steps on a 180 x 3 swarm (numpy array work), on a 20 x 2 swarm
(Python call overhead) and a population forward pass of a 5-10-1 network
(small batched matrix products).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the reference kernel's median time on the machine named in
# environment.json, so that calibrated seconds read like its wall seconds;
# it only sets their scale.
REF_NOMINAL_S = 0.0075
MARK_EVERY_S = 0.1


class Reference:
    """The fixed kernel; its inputs come from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20250115)
        self.big = rng.uniform(-5.0, 5.0, (180, 3))
        self.big_noise = rng.standard_normal((32, 180, 3))
        self.small = rng.uniform(-5.0, 5.0, (20, 2))
        self.small_noise = rng.standard_normal((64, 20, 2))
        self.w1 = rng.standard_normal((100, 10, 5))
        self.b1 = rng.standard_normal((100, 1, 10))
        self.w2 = rng.standard_normal((100, 1, 10))
        self.inputs = rng.uniform(-1.0, 1.0, (80, 5))
        self.targets = rng.uniform(0.0, 1.0, 80)

    @staticmethod
    def _consensus_steps(x, noise):
        best = 0.0
        for z in noise:
            v = np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=1)
            v += 10.0 * x.shape[1]
            w = np.exp(-100.0 * (v - v.min()))
            m = w @ x / w.sum()
            x = x - 0.01 * (x - m) + 1e-3 * np.abs(x - m) * z
            best = min(best, float(v.min()))
        return best

    def _forward(self):
        err = 0.0
        for _ in range(2):
            h = 1.0 / (1.0 + np.exp(-(self.inputs @ self.w1.transpose(0, 2, 1)
                                      + self.b1)))
            out = 1.0 / (1.0 + np.exp(-(h @ self.w2.transpose(0, 2, 1))))
            err += float(np.mean((out[..., 0] - self.targets) ** 2))
        return err

    def __call__(self) -> float:
        return (self._consensus_steps(self.big, self.big_noise)
                + self._consensus_steps(self.small, self.small_noise)
                + self._forward())


class CalibratedClock:
    """Wall time and calibrated time of segments separated by ``mark``."""

    def __init__(self, reference: Reference | None = None):
        self.reference = reference or Reference()
        self.ref_s: list[float] = []     # every mark's reference time
        self.wall_s = 0.0                # segment wall time, marks excluded
        self.calibrated_s = 0.0
        self._open: float | None = None  # segment start
        self._open_ref = 0.0             # reference time at segment start

    def reference_time(self, repeats: int = 1) -> float:
        """The median of ``repeats`` timings of the reference kernel."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self.reference()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def tick(self) -> None:
        """Mark if the open segment is ``MARK_EVERY_S`` old."""
        if perf_counter() - self._open >= MARK_EVERY_S:
            self.mark()

    def mark(self) -> None:
        """Close the open segment, if any, and open the next one."""
        end = perf_counter()
        ref = self.reference_time()
        self.ref_s.append(ref)
        if self._open is not None:
            wall = end - self._open
            self.wall_s += wall
            self.calibrated_s += wall * REF_NOMINAL_S / (
                0.5 * (self._open_ref + ref))
        self._open_ref = ref
        self._open = perf_counter()

    def stop(self) -> None:
        """Close the open segment and open none."""
        self.mark()
        self._open = None
