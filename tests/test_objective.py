"""Objective wrapper, forward-difference estimator, and Lipschitz bounds."""

import concurrent.futures

import numpy as np
import pytest

from escbo.objective import (ConfigurationError, EstimationError,
                             FiniteDiffConfig, Objective, estimate_lipschitz,
                             forward_difference_gradient, gradient_bounds,
                             minibatch_gradients)


def sphere_objective(dim=2):
    return Objective(dim, lambda x: np.sum(x * x, axis=-1), vectorized=True,
                     name="sphere")


def test_eval_counts_single_and_batch():
    obj = sphere_objective()
    assert obj.eval(np.array([1.0, 2.0])) == 5.0
    assert obj.eval_count == 1
    vals = obj.eval_many(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(vals, [1.0, 4.0])
    assert obj.eval_count == 3
    obj.reset_count()
    assert obj.eval_count == 0


def test_row_loop_path_matches_vectorized():
    slow = Objective(3, lambda x: float(np.sum(x * x)), vectorized=False)
    fast = sphere_objective(3)
    pts = np.random.default_rng(1).normal(size=(7, 3))
    np.testing.assert_allclose(slow.eval_many(pts), fast.eval_many(pts))
    assert slow.eval_count == 7


def test_eval_many_rejects_bad_shapes():
    obj = sphere_objective()
    with pytest.raises(ConfigurationError):
        obj.eval_many(np.zeros((3, 5)))


def test_centers_ignored_without_probe_kernel():
    obj = sphere_objective(3)
    centers = np.array([[0.5, -1.0, 2.0]])
    rows = centers + 0.1 * np.eye(3)
    np.testing.assert_array_equal(obj.eval_many(rows, centers=centers),
                                  obj.eval_many(rows))
    assert obj.eval_count == 6


def test_probe_kernel_serves_only_calls_with_centers():
    seen = []

    def probe(centers, rows):
        seen.append((centers.shape, rows.shape))
        return np.full(rows.shape[0], -1.0)

    obj = Objective(2, lambda x: np.sum(x * x, axis=-1), vectorized=True,
                    probe_kernel=probe)
    grads = minibatch_gradients(obj, np.ones((3, 2)), [0, 2],
                                FiniteDiffConfig(0.5))
    assert seen == [((2, 2), (4, 2))]
    np.testing.assert_array_equal(grads[[0, 2]], np.full((2, 2), -6.0))
    assert obj.eval_count == 2 * 3


def test_counter_is_thread_safe():
    obj = sphere_objective()
    point = np.array([0.5, 0.5])
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: obj.eval(point), range(800)))
    assert obj.eval_count == 800


def test_forward_difference_hand_values():
    # f(x) = x1^2 + x2^2 at (1, 0), sigma 0.01: ((1.01)^2 - 1)/0.01 and
    # (0.0001 - 0)/0.01, expanded by hand.
    obj = sphere_objective()
    g = forward_difference_gradient(obj, np.array([1.0, 0.0]),
                                    FiniteDiffConfig(0.01))
    np.testing.assert_allclose(g, [2.01, 0.01], rtol=1e-12)
    assert obj.eval_count == 3


def test_forward_difference_constant_and_1d():
    const = Objective(3, lambda x: 7.0)
    g = forward_difference_gradient(const, np.zeros(3), FiniteDiffConfig(0.5))
    np.testing.assert_array_equal(g, np.zeros(3))

    square = Objective(1, lambda x: np.sum(x * x, axis=-1), vectorized=True)
    g = forward_difference_gradient(square, np.zeros(1), FiniteDiffConfig(0.1))
    np.testing.assert_allclose(g, [0.1], rtol=1e-12)


def test_forward_difference_eval_accounting():
    obj = sphere_objective(5)
    for k in range(1, 4):
        forward_difference_gradient(obj, np.zeros(5), FiniteDiffConfig(0.1))
        assert obj.eval_count == k * 6


def test_forward_difference_error_scaling():
    # First-order accuracy on ||x||^2: the error is exactly sigma per
    # coordinate, so it halves when sigma halves.
    obj = sphere_objective(4)
    x = np.array([0.3, -1.2, 2.0, 0.7])
    errs = []
    for sigma in (1e-2, 5e-3, 2.5e-3):
        g = forward_difference_gradient(obj, x, FiniteDiffConfig(sigma))
        errs.append(np.linalg.norm(g - 2 * x))
    for a, b in zip(errs, errs[1:]):
        assert abs(a / b - 2.0) < 0.2


def test_forward_difference_nonfinite_reports_coordinate():
    def spiky(x):
        if x[1] > 0.05:
            return float("nan")
        return float(np.sum(x))

    obj = Objective(3, spiky)
    with pytest.raises(EstimationError) as err:
        forward_difference_gradient(obj, np.zeros(3), FiniteDiffConfig(0.1))
    assert err.value.coordinate == 1


def test_forward_difference_nonfinite_base():
    obj = Objective(2, lambda x: float("inf"))
    with pytest.raises(EstimationError) as err:
        forward_difference_gradient(obj, np.zeros(2), FiniteDiffConfig(0.1))
    assert err.value.coordinate is None


def test_minibatch_empty_batch_is_all_zero():
    obj = sphere_objective()
    grads = minibatch_gradients(obj, np.ones((4, 2)), [], FiniteDiffConfig(0.1))
    np.testing.assert_array_equal(grads, np.zeros((4, 2)))
    assert obj.eval_count == 0


def test_minibatch_full_batch_matches_per_particle():
    obj = sphere_objective(3)
    positions = np.random.default_rng(3).normal(size=(5, 3))
    cfg = FiniteDiffConfig(0.01)
    grads = minibatch_gradients(obj, positions, range(5), cfg)
    assert obj.eval_count == 5 * 4
    for i in range(5):
        single = forward_difference_gradient(sphere_objective(3),
                                             positions[i], cfg)
        np.testing.assert_array_equal(grads[i], single)


def test_minibatch_partial_hand_value():
    # N=2, batch={second particle}, f(x)=x^2: ((1.1)^2 - 1)/0.1 = 2.1.
    obj = Objective(1, lambda x: np.sum(x * x, axis=-1), vectorized=True)
    grads = minibatch_gradients(obj, np.array([[0.0], [1.0]]), [1],
                                FiniteDiffConfig(0.1))
    np.testing.assert_allclose(grads, [[0.0], [2.1]], rtol=1e-12)
    assert obj.eval_count == 2


def test_minibatch_rejects_out_of_range():
    obj = sphere_objective()
    with pytest.raises(ConfigurationError):
        minibatch_gradients(obj, np.zeros((3, 2)), [3], FiniteDiffConfig(0.1))


def test_gradient_bounds_hand_values():
    lb = gradient_bounds(1.0, 4, 0.5)
    assert lb.M_g == 2.0 and lb.L_g == 8.0
    lb = gradient_bounds(1.0, 1, 2.0)
    assert lb.M_g == 1.0 and lb.L_g == 1.0
    tiny = gradient_bounds(1e-12, 9, 0.1)
    assert tiny.M_g < 1e-11 and tiny.L_g < 1e-10


def test_gradient_bounds_validation():
    with pytest.raises(ConfigurationError):
        gradient_bounds(0.0, 2, 0.1)
    with pytest.raises(ConfigurationError):
        gradient_bounds(1.0, 2, 0.0)


def test_gradient_norm_respects_lipschitz_bound():
    # Salomon on [-5,5]^2: |f'(r)| <= 2*pi + 0.1, so L_f = 6.39 works for
    # every finite-difference interval.
    from escbo.benchmarks import salomon
    obj = Objective(2, salomon, vectorized=True)
    L_f = 2 * np.pi + 0.11
    lb = gradient_bounds(L_f, 2, 0.05)
    gen = np.random.default_rng(5)
    for x in gen.uniform(-5, 5, size=(100, 2)):
        g = forward_difference_gradient(obj, x, FiniteDiffConfig(0.05))
        assert np.linalg.norm(g) <= lb.M_g + 1e-12


def test_estimate_lipschitz_linear_slope():
    obj = Objective(1, lambda x: 3.0 * np.sum(x, axis=-1), vectorized=True)
    est = estimate_lipschitz(obj, 0.0, 1.0, samples=128, seed=0)
    assert 2.999 < est <= 3.0 + 1e-9


def test_estimate_lipschitz_constant_and_abs():
    const = Objective(2, lambda x: 1.5)
    assert estimate_lipschitz(const, -1.0, 1.0, samples=32, seed=0) == 0.0
    vee = Objective(1, lambda x: np.sum(np.abs(x), axis=-1), vectorized=True)
    est = estimate_lipschitz(vee, -1.0, 1.0, samples=256, seed=1)
    assert 0.9 < est <= 1.0 + 1e-9


def test_estimate_lipschitz_validation():
    obj = sphere_objective()
    with pytest.raises(ConfigurationError):
        estimate_lipschitz(obj, 0.0, 0.0, samples=16)
    with pytest.raises(ConfigurationError):
        estimate_lipschitz(obj, -1.0, 1.0, samples=1)


def test_objective_is_deterministic():
    obj = sphere_objective(3)
    x = np.array([0.1, 0.2, 0.3])
    assert obj.eval(x) == obj.eval(x)
