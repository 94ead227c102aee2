"""Benchmark values, minimizer registration, and catalog lookups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from escbo.benchmarks import (ackley, available, bartels_conn, griewank,
                              lookup, rastrigin, rastrigin1d, salomon,
                              schaffer4, xinsheyang4)
from escbo.objective import ConfigurationError, _row_sums

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


# The textbook expressions, through np.sum and np.mean.
REFERENCES = {
    salomon: lambda x: 1.0 - np.cos(2.0 * np.pi * np.sqrt(
        np.sum(x * x, axis=-1))) + 0.1 * np.sqrt(np.sum(x * x, axis=-1)),
    griewank: lambda x: 1.0 + np.sum(x * x, axis=-1) / 4000.0 - np.prod(
        np.cos(x / np.sqrt(np.arange(1.0, x.shape[-1] + 1.0))), axis=-1),
    ackley: lambda x: -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x, axis=-1)))
    - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=-1)) + 20.0 + np.e,
    xinsheyang4: lambda x: (np.sum(np.sin(x) ** 2, axis=-1)
                            - np.exp(-np.sum(x * x, axis=-1)))
    * np.exp(-np.sum(np.sin(np.sqrt(np.abs(x))) ** 2, axis=-1)) + 1.0,
}


@settings(max_examples=100)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       shape=array_shapes(min_dims=1, max_dims=2, max_side=12),
       scale=st.floats(1e-3, 1e200))
@pytest.mark.parametrize("fn", REFERENCES, ids=lambda fn: fn.__name__)
def test_benchmark_equals_reference_sums(fn, data, seed, shape, scale):
    x = scale * np.random.default_rng(seed).normal(size=shape)
    drawn = data.draw(arrays(np.float64, shape,
                             elements=st.floats(-1e200, 1e200)))
    with np.errstate(all="ignore"):  # cos(inf) is nan
        for points in (x, drawn):
            reference = np.asarray(REFERENCES[fn](points))
            value = np.asarray(fn(points))
            assert value.shape == reference.shape
            assert value.tobytes() == reference.tobytes()


ENTRIES = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308]) \
    | st.floats()


@settings(max_examples=300)
@given(data=st.data(), d=st.integers(1, 12),
       lead=array_shapes(min_dims=0, max_dims=2, max_side=5))
def test_row_sums_equal_add_reduce(data, d, lead):
    # 1-D, 2-D and 3-D, with signed zeros, NaN, infinities and overflow.
    a = data.draw(arrays(np.float64, lead + (d,), elements=ENTRIES))
    with np.errstate(all="ignore"):
        value, reference = _row_sums(a), np.add.reduce(a, axis=-1)
    assert np.shape(value) == np.shape(reference)
    assert np.asarray(value).tobytes() == np.asarray(reference).tobytes()


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 7), (4, 2), (2, 3, 5)])
def test_row_sums_keep_the_traps_of_add_reduce(shape):
    # Column adds alone sum a row of -0.0 to -0.0; add.reduce gives +0.0.
    zeros = np.full(shape, -0.0)
    assert _row_sums(zeros).tobytes() == np.zeros(shape[:-1]).tobytes()
    # Of two NaN payloads add.reduce keeps the first, also in one row.
    nans = np.ones(shape)
    nans[..., 0] = np.uint64(0x7FF8_0000_0000_0001).view(np.float64)
    nans[..., -1] = -np.nan
    assert (np.asarray(_row_sums(nans)).tobytes()
            == np.asarray(np.add.reduce(nans, axis=-1)).tobytes())


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
    for d in (2, 3, 10):
        pts = gen.uniform(-5, 5, size=(20, d))
        for fn in (rastrigin, salomon, griewank, ackley, xinsheyang4) + (
                (bartels_conn, schaffer4) if d == 2 else ()):
            rows = np.array([float(fn(p)) for p in pts])
            assert fn(pts).tobytes() == rows.tobytes()


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
