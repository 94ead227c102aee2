"""Benchmark values, minimizer registration, and catalog lookups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from escbo.benchmarks import (ackley, available, bartels_conn, griewank,
                              lookup, rastrigin, rastrigin1d, salomon,
                              schaffer4, xinsheyang4)
from escbo.objective import ConfigurationError

PARAMETRIC = ["rastrigin", "salomon", "griewank", "ackley", "xinsheyang4"]


def test_rastrigin_values():
    assert rastrigin(np.zeros(4)) == 0.0
    assert float(rastrigin(np.array([1.0, 1.0]))) == pytest.approx(1.0, abs=1e-12)
    assert float(rastrigin(np.array([0.5, 0.5]))) == pytest.approx(20.25,
                                                                   abs=1e-12)


@settings(max_examples=200)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       shape=array_shapes(min_dims=1, max_dims=2, max_side=12),
       scale=st.floats(1e-3, 1e200))
def test_rastrigin_equals_reference_mean(data, seed, shape, scale):
    # Random points at every scale up to overflow, and hypothesis' own.
    x = scale * np.random.default_rng(seed).normal(size=shape)
    drawn = data.draw(arrays(np.float64, shape,
                             elements=st.floats(-1e200, 1e200)))
    with np.errstate(over="ignore"):
        for points in (x, drawn):
            # The reference is the textbook expression through np.mean.
            reference = np.asarray(np.mean(
                points * points - 10.0 * np.cos(2.0 * np.pi * points) + 10.0,
                axis=-1))
            value = np.asarray(rastrigin(points))
            assert value.shape == reference.shape
            assert value.tobytes() == reference.tobytes()


def test_rastrigin1d_values():
    assert float(rastrigin1d(0.0)) == 0.0
    assert float(rastrigin1d(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(rastrigin1d(0.5)) == pytest.approx(20.25, abs=1e-12)


def test_minima_at_origin():
    for fn in (salomon, griewank, ackley, xinsheyang4):
        assert abs(float(fn(np.zeros(3)))) < 1e-12


def test_bartels_conn_minimum():
    assert float(bartels_conn(np.zeros(2))) == 1.0


def test_schaffer4_published_minimum():
    val = float(schaffer4(np.array([0.0, 1.253115])))
    assert val == pytest.approx(0.292579, abs=1e-5)


def test_ackley_exact_cancellation():
    assert abs(float(ackley(np.zeros(2)))) < 1e-12


def test_batched_evaluation_matches_rows():
    gen = np.random.default_rng(0)
    pts = gen.uniform(-5, 5, size=(20, 2))
    for fn in (rastrigin, salomon, griewank, ackley, xinsheyang4,
               bartels_conn, schaffer4):
        batch = fn(pts)
        rows = np.array([float(fn(p)) for p in pts])
        np.testing.assert_allclose(batch, rows, rtol=1e-15)


def test_even_symmetry():
    gen = np.random.default_rng(1)
    pts = gen.uniform(-5, 5, size=(50, 3))
    for fn in (rastrigin, salomon, griewank, ackley):
        np.testing.assert_allclose(fn(pts), fn(-pts), rtol=1e-12)


def test_registration_minimizers_and_nonnegativity():
    gen = np.random.default_rng(2)
    for name in available():
        spec = lookup(name, 3 if name in PARAMETRIC else None)
        vals = spec.objective.eval_many(spec.x_star)
        assert np.max(np.abs(vals - spec.f_star)) <= 1e-9
        pts = gen.uniform(spec.lo, spec.hi, size=(1000, spec.dim))
        sampled = spec.objective.eval_many(pts)
        assert np.all(sampled >= spec.f_star - 1e-9)


def test_lookup_dimensions():
    spec = lookup("rastrigin", 3)
    assert spec.dim == 3
    np.testing.assert_array_equal(spec.x_star, np.zeros((1, 3)))
    assert spec.f_star == 0.0

    s4 = lookup("schaffer4")
    assert s4.dim == 2 and s4.x_star.shape == (4, 2)

    one_d = lookup("rastrigin1d")
    assert one_d.dim == 1 and (one_d.lo, one_d.hi) == (-3.0, 3.0)


def test_lookup_errors():
    with pytest.raises(ConfigurationError) as err:
        lookup("nosuch", 2)
    assert "rastrigin" in str(err.value)
    with pytest.raises(ConfigurationError):
        lookup("bartels_conn", 3)
    with pytest.raises(ConfigurationError):
        lookup("rastrigin")


def test_lookup_returns_fresh_counters():
    a = lookup("rastrigin", 2)
    a.objective.eval(np.zeros(2))
    b = lookup("rastrigin", 2)
    assert b.objective.eval_count == 0
