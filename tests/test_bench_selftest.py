"""The benchmark's own self-test, run against this checkout's package.

``bench/worker.py`` traces tiny campaigns of all three steppers and checks
that the tracer still finds every function it wraps, that every evaluation
comes from a known caller, and that traced runs equal untraced ones.  A
program change that breaks any of these makes the benchmark report
``correct: false``; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import escbo

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_benchmark_self_test_passes(tmp_path, monkeypatch):
    # The worker puts bench/ on sys.path when imported; restore it after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.self_test(escbo, tmp_path) == []
