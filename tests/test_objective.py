"""Objective wrapper, forward-difference estimator, and Lipschitz bounds."""

import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escbo.benchmarks import available, lookup, rastrigin
from escbo.neural import MLPArchitecture, dnn_objective, generate_synthetic
from escbo.objective import (ConfigurationError, EstimationError, Objective,
                             forward_difference_gradient, gradient_bounds,
                             minibatch_gradients)

from conftest import not_real


def sphere_objective(dim=2):
    return Objective(dim, lambda x: np.sum(x * x, axis=-1), name="sphere")


def test_eval_counts_single_and_batch():
    obj = sphere_objective()
    assert obj.eval_many([[1.0, 2.0]])[0] == 5.0
    assert obj.eval_count == 1
    vals = obj.eval_many(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(vals, [1.0, 4.0])
    assert obj.eval_count == 3


def test_eval_many_rejects_bad_shapes():
    obj = sphere_objective()
    with pytest.raises(ConfigurationError):
        obj.eval_many(np.zeros((3, 5)))
    rastrigin3 = lookup("rastrigin", 3).objective
    for points in (np.zeros(3), np.zeros((1, 5)), 0.0):
        with pytest.raises(ConfigurationError):
            rastrigin3.eval_many(points)
    assert obj.eval_count == rastrigin3.eval_count == 0


@pytest.mark.parametrize("fn", [
    lambda x: float(np.sum(x * x)),   # a per-point function: one value
    lambda x: np.sum(x * x, axis=0),  # (d,) values for a (B, d) batch
    lambda x: x * x,                  # (B, d) values
], ids=["scalar", "wrong-axis", "no-reduction"])
def test_eval_many_rejects_values_that_are_not_one_per_point(fn):
    obj = Objective(3, fn, name="per_point")
    with pytest.raises(ConfigurationError, match="per_point"):
        obj.eval_many(np.ones((4, 3)))
    with pytest.raises(ConfigurationError, match="per_point"):
        obj.eval_many(np.ones((1, 3)))


def network(widths):
    arch = MLPArchitecture(widths)
    return dnn_objective(arch, generate_synthetic(arch, 0))


# (rows, centers) for a d-dimensional objective; none is a valid pairing.
BAD_CENTERS = {
    "garbage": lambda d: (2 * d, "garbage"),
    "wrong-width": lambda d: (2 * d, np.zeros((2, d + 1))),
    "too-few": lambda d: (2 * d, np.zeros((1, d))),
    "ragged-rows": lambda d: (2 * d - 1, np.zeros((2, d))),
}


@pytest.mark.parametrize("make", [lambda: lookup("rastrigin", 3).objective,
                                  lambda: network((5, 2, 1))],
                         ids=["benchmark", "dnn"])
@pytest.mark.parametrize("bad", BAD_CENTERS.values(), ids=BAD_CENTERS)
def test_eval_many_rejects_centers_that_do_not_match(make, bad):
    obj = make()
    rows, centers = bad(obj.dim)
    with pytest.raises(ConfigurationError, match="centers"):
        obj.eval_many(np.zeros((rows, obj.dim)), centers=centers)
    assert obj.eval_count == 0


def test_centers_ignored_without_probe_kernel():
    obj = sphere_objective(3)
    centers = np.array([[0.5, -1.0, 2.0]])
    rows = centers + 0.1 * np.eye(3)
    np.testing.assert_array_equal(obj.eval_many(rows, centers=centers),
                                  obj.eval_many(rows))
    assert obj.eval_count == 6


def test_probe_kernel_serves_only_calls_with_centers():
    seen = []

    def probe(centers, delta):
        seen.append((centers, delta))
        return np.full(delta.size, -1.0)

    obj = Objective(2, lambda x: np.sum(x * x, axis=-1), probe_kernel=probe)
    positions = np.array([[1.0, 1.0], [5.0, 5.0], [0.1, 1e8]])
    grads = minibatch_gradients(obj, positions, [0, 2], 0.2)
    [(centers, delta)] = seen
    np.testing.assert_array_equal(centers, positions[[0, 2]])
    # delta is the step each probe took, fl(x + sigma) - x, not sigma.
    np.testing.assert_array_equal(delta, (centers + 0.2) - centers)
    assert delta.shape == (2, 2) and 0.2 not in delta[1]
    base = np.sum(centers * centers, axis=1)
    np.testing.assert_array_equal(grads[[0, 2]],
                                  np.repeat((-1.0 - base)[:, None] / 0.2, 2, 1))
    assert obj.eval_count == 2 * 3


@pytest.mark.parametrize("batch", [None, [2, 0], np.array([3])],
                         ids=["all", "pair", "one"])
def test_gradients_read_their_base_from_values(batch):
    positions = np.random.default_rng(4).normal(size=(4, 3))
    rows = []

    def fn(x):
        rows.append(len(x))
        return np.sum(x * x, axis=-1)

    obj = Objective(3, fn)
    values = obj.eval_many(positions)
    rows.clear()
    reference = minibatch_gradients(sphere_objective(3), positions, batch,
                                    0.1)
    grads = minibatch_gradients(obj, positions, batch, 0.1, values)
    assert grads.tobytes() == reference.tobytes()
    b = 4 if batch is None else len(batch)
    assert rows == [b * 3]  # only the probes reach fn
    assert obj.eval_count == 4 + b * (3 + 1)  # the base is still counted


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros(5),
                                    np.zeros((4, 1)), 0.0],
                         ids=["short", "long", "column", "scalar"])
def test_values_of_the_wrong_shape_are_rejected(values):
    obj = sphere_objective(2)
    with pytest.raises(ConfigurationError, match="values"):
        obj.eval_many(np.zeros((4, 2)), values=values)
    with pytest.raises(ConfigurationError, match="values"):
        minibatch_gradients(obj, np.zeros((4, 2)), [1, 2], 0.1, values)
    assert obj.eval_count == 0


def _registered(name):
    try:
        return lookup(name).objective  # a fixed-dimension benchmark
    except ConfigurationError:  # it needs a dimension
        return lookup(name, 10).objective


SUBSET_TARGETS = {**{name: lambda name=name: _registered(name)
                     for name in available()},
                  "mlp-2-3-1": lambda: network((2, 3, 1)),
                  "mlp-5-10-1": lambda: network((5, 10, 1))}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 5.0, 1e3]), data=st.data())
@pytest.mark.parametrize("name", SUBSET_TARGETS)
def test_eval_many_of_a_subset_equals_those_rows_of_the_batch(name, n, seed,
                                                              scale, data):
    # The premise of reading a mini-batch's base values from the swarm's
    # cache: f of some rows is, bit for bit, those rows of f of all rows.
    obj = SUBSET_TARGETS[name]()
    points = scale * np.random.default_rng(seed).normal(size=(n, obj.dim))
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                unique=True), label="subset")
    assert obj.eval_many(points[subset]).tobytes() == \
        obj.eval_many(points)[subset].tobytes()


# Each public array input of the module, in a call that a valid value of it
# passes; not_real gives the calls on its ragged, string, bool and complex
# forms.
NOT_REAL = not_real({
    "eval_many-points": (lambda a: sphere_objective().eval_many(a),
                         np.zeros((3, 2))),
    "eval_many-centers": (lambda a: sphere_objective().eval_many(
        np.zeros((4, 2)), centers=a), np.zeros((2, 2))),
    "eval_many-values": (lambda a: sphere_objective().eval_many(
        np.zeros((3, 2)), values=a), np.zeros(3)),
    "gradient-point": (lambda a: forward_difference_gradient(
        sphere_objective(), a, 0.1), np.zeros(2)),
    "minibatch-positions": (lambda a: minibatch_gradients(
        sphere_objective(), a, None, 0.1), np.zeros((3, 2))),
    "minibatch-values": (lambda a: minibatch_gradients(
        sphere_objective(), np.zeros((3, 2)), None, 0.1, a), np.zeros(3)),
})


@pytest.mark.parametrize("call", [
    lambda: Objective(0, np.sum),
    lambda: forward_difference_gradient(sphere_objective(), np.zeros(3), 0.1),
    lambda: forward_difference_gradient(sphere_objective(),
                                        np.array([0.0, np.nan]), 0.1),
    lambda: minibatch_gradients(sphere_objective(), np.zeros((4, 3)), None,
                                0.1),
    # fn's values are an array input too.
    lambda: Objective(2, lambda x: [[0.0], [1.0, 2.0]]).eval_many(
        np.zeros((2, 2))),
    lambda: Objective(2, lambda x: np.full(len(x), "a")).eval_many(
        np.zeros((2, 2))),
    # numpy reads a bool among reals as a real.
    lambda: sphere_objective().eval_many([[0.0, 1.0], [True, 0.5]]),
    *NOT_REAL.values(),
], ids=["dim-zero", "gradient-shape", "gradient-non-finite",
        "minibatch-shape", "eval_many-fn-ragged", "eval_many-fn-strings",
        "eval_many-bool-in-list", *NOT_REAL])
def test_objective_validation_errors(call):
    with pytest.raises(ConfigurationError):
        call()


@pytest.mark.parametrize("sigma", [0, -1, np.nan, np.inf, "0.1", True],
                         ids=repr)
def test_gradients_reject_a_bad_sigma(sigma):
    obj = sphere_objective()
    with pytest.raises(ConfigurationError, match="sigma"):
        minibatch_gradients(obj, np.zeros((4, 2)), None, sigma)
    with pytest.raises(ConfigurationError, match="sigma"):
        forward_difference_gradient(obj, np.zeros(2), sigma)
    assert obj.eval_count == 0


def test_counter_is_thread_safe():
    obj = sphere_objective()
    point = np.array([[0.5, 0.5]])
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: obj.eval_many(point), range(800)))
    assert obj.eval_count == 800


def test_forward_difference_hand_values():
    # f(x) = x1^2 + x2^2 at (1, 0), sigma 0.01: ((1.01)^2 - 1)/0.01 and
    # (0.0001 - 0)/0.01, expanded by hand.
    obj = sphere_objective()
    g = forward_difference_gradient(obj, np.array([1.0, 0.0]), 0.01)
    np.testing.assert_allclose(g, [2.01, 0.01], rtol=1e-12)
    assert obj.eval_count == 3


def test_forward_difference_constant_and_1d():
    const = Objective(3, lambda x: np.full(len(x), 7.0))
    g = forward_difference_gradient(const, np.zeros(3), 0.5)
    np.testing.assert_array_equal(g, np.zeros(3))

    square = Objective(1, lambda x: np.sum(x * x, axis=-1))
    g = forward_difference_gradient(square, np.zeros(1), 0.1)
    np.testing.assert_allclose(g, [0.1], rtol=1e-12)


def test_forward_difference_eval_accounting():
    obj = sphere_objective(5)
    for k in range(1, 4):
        forward_difference_gradient(obj, np.zeros(5), 0.1)
        assert obj.eval_count == k * 6


def test_forward_difference_error_scaling():
    # First-order accuracy on ||x||^2: the error is exactly sigma per
    # coordinate, so it halves when sigma halves.
    obj = sphere_objective(4)
    x = np.array([0.3, -1.2, 2.0, 0.7])
    errs = []
    for sigma in (1e-2, 5e-3, 2.5e-3):
        g = forward_difference_gradient(obj, x, sigma)
        errs.append(np.linalg.norm(g - 2 * x))
    for a, b in zip(errs, errs[1:]):
        assert abs(a / b - 2.0) < 0.2


def test_forward_difference_nonfinite_reports_coordinate():
    def spiky(x):
        return np.where(x[:, 1] > 0.05, np.nan, np.sum(x, axis=1))

    obj = Objective(3, spiky)
    with pytest.raises(EstimationError) as err:
        forward_difference_gradient(obj, np.zeros(3), 0.1)
    assert err.value.coordinate == 1


def test_forward_difference_nonfinite_base():
    obj = Objective(2, lambda x: np.full(len(x), np.inf))
    with pytest.raises(EstimationError) as err:
        forward_difference_gradient(obj, np.zeros(2), 0.1)
    assert err.value.coordinate is None


def test_minibatch_empty_batch_is_all_zero():
    obj = sphere_objective()
    grads = minibatch_gradients(obj, np.ones((4, 2)), [], 0.1)
    np.testing.assert_array_equal(grads, np.zeros((4, 2)))
    assert obj.eval_count == 0


def test_minibatch_full_batch_matches_per_particle():
    obj = sphere_objective(3)
    positions = np.random.default_rng(3).normal(size=(5, 3))
    grads = minibatch_gradients(obj, positions, range(5), 0.01)
    assert obj.eval_count == 5 * 4
    for i in range(5):
        single = forward_difference_gradient(sphere_objective(3),
                                             positions[i], 0.01)
        np.testing.assert_array_equal(grads[i], single)


def test_minibatch_partial_hand_value():
    # N=2, batch={second particle}, f(x)=x^2: ((1.1)^2 - 1)/0.1 = 2.1.
    obj = Objective(1, lambda x: np.sum(x * x, axis=-1))
    grads = minibatch_gradients(obj, np.array([[0.0], [1.0]]), [1], 0.1)
    np.testing.assert_allclose(grads, [[0.0], [2.1]], rtol=1e-12)
    assert obj.eval_count == 2


def minibatch_reference(obj, positions, batch, sigma):
    # Every batch through np.unique, centers by fancy index, the probe
    # diagonal by index arrays, and the gradients scattered into zeros.
    pts = np.asarray(positions, dtype=float)
    d = pts.shape[1]
    idx = np.unique(np.asarray(list(batch), dtype=int))
    grads = np.zeros_like(pts)
    if idx.size == 0:
        return grads
    centers = pts[idx]
    base = obj.eval_many(centers)
    probes = np.repeat(centers, d, axis=0)
    diag = np.arange(d)
    probes.reshape(idx.size, d, d)[:, diag, diag] += sigma
    vals = obj.eval_many(probes, centers=centers).reshape(idx.size, d)
    grads[idx] = (vals - base[:, None]) / sigma
    return grads


@settings(max_examples=150)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       d=st.integers(1, 6), sigma=st.floats(1e-8, 1.0))
def test_minibatch_batch_forms_equal_reference(data, seed, n, d, sigma):
    gen = np.random.default_rng(seed)
    positions = 3.0 * gen.normal(size=(n, d))
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                max_size=n))
    forms = [list(subset), np.array(sorted(subset), dtype=int),
             gen.permutation(np.array(subset, dtype=int)),
             list(subset) + list(subset)]
    if len(subset) == n:
        forms.append(range(n))
    reference = Objective(d, rastrigin)
    expected = minibatch_reference(reference, positions, subset, sigma)
    for batch in forms:
        obj = Objective(d, rastrigin)
        grads = minibatch_gradients(obj, positions, batch, sigma)
        assert grads.tobytes() == expected.tobytes()
        assert obj.eval_count == reference.eval_count == len(subset) * (d + 1)
    # Full-batch rows equal the partial-batch rows of the same particles.
    every = minibatch_gradients(Objective(d, rastrigin),
                                positions, np.arange(n), sigma)
    assert every[subset].tobytes() == expected[subset].tobytes()


@pytest.mark.parametrize("batch", [None, [0, 2, 5]], ids=["all", "subset"])
@pytest.mark.parametrize("layout", [np.asfortranarray,
                                    lambda p: np.repeat(p, 2, axis=1)[:, ::2]],
                         ids=["fortran", "strided"])
@pytest.mark.parametrize("make", [lambda: lookup("rastrigin", 3).objective,
                                  lambda: network((2, 3, 1))],
                         ids=["benchmark", "dnn"])
def test_minibatch_gradients_do_not_depend_on_the_layout(make, layout, batch):
    # Positions pass into the estimator without a copy; one that is not
    # C-ordered is copied first, so a probe kernel rounds alike.
    obj = make()
    positions = np.random.default_rng(1).normal(size=(6, obj.dim))
    values = obj.eval_many(positions)
    expected = minibatch_gradients(obj, positions, batch, 0.01, values)
    got = minibatch_gradients(obj, layout(positions), batch, 0.01, values)
    assert got.tobytes() == expected.tobytes()


def test_minibatch_rejects_out_of_range():
    obj = sphere_objective()
    with pytest.raises(ConfigurationError):
        minibatch_gradients(obj, np.zeros((3, 2)), [3], 0.1)


@pytest.mark.parametrize("batch", [
    [True, False, True, False], np.array([True, False, True, False]),
    [1.7], np.array([0.0, 2.0]), [np.True_], ["1"], 1, [[0, 1]]])
def test_minibatch_rejects_batches_that_are_not_indices(batch):
    # A mask or a float used to read as indices (the mask above as
    # particles 0 and 1, [1.7] as particle 1).
    obj = sphere_objective()
    with pytest.raises(ConfigurationError, match="integer indices"):
        minibatch_gradients(obj, np.ones((4, 2)), batch, 0.1)
    assert obj.eval_count == 0


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30),
       d=st.integers(1, 6), sigma=st.floats(1e-8, 1.0),
       spike=st.sampled_from([None, "base", "probe"]))
def test_minibatch_none_batch_equals_arange(seed, n, d, sigma, spike):
    gen = np.random.default_rng(seed)
    positions = 3.0 * gen.normal(size=(n, d))
    if spike and n:
        # One particle sits on a nan of the objective, or one of its
        # probes does.
        i, l = gen.integers(n), gen.integers(d)
        positions[i, l] = 7.0 - (sigma if spike == "probe" else 0.0)

    def fn(x):
        return np.where((x == 7.0).any(axis=-1), np.nan, rastrigin(x))

    outcomes = []
    for batch in (None, np.arange(n)):
        obj = Objective(d, fn)
        try:
            grads = minibatch_gradients(obj, positions, batch, sigma)
            outcomes.append((grads.tobytes(), obj.eval_count))
        except EstimationError as exc:
            outcomes.append((exc.particle, exc.coordinate, obj.eval_count))
    assert outcomes[0] == outcomes[1]
    reference = Objective(d, fn)
    if len(outcomes[0]) == 2:  # no spike hit: also the parent's expression
        expected = minibatch_reference(reference, positions, range(n), sigma)
        assert outcomes[0] == (expected.tobytes(), reference.eval_count)


def test_gradient_bounds_hand_values():
    lb = gradient_bounds(1.0, 4, 0.5)
    assert lb.M_g == 2.0 and lb.L_g == 8.0
    lb = gradient_bounds(1.0, 1, 2.0)
    assert lb.M_g == 1.0 and lb.L_g == 1.0
    tiny = gradient_bounds(1e-12, 9, 0.1)
    assert tiny.M_g < 1e-11 and tiny.L_g < 1e-10
    # A numpy scalar computes as the Python number it equals.
    x = np.float32(0.1)
    assert gradient_bounds(x, 3, x) == gradient_bounds(float(x), 3, float(x))


def test_gradient_bounds_overflow_reads_inf():
    lb = gradient_bounds(1e308, 4, 1e-308)  # warns nothing
    assert lb.M_g == math.inf and lb.L_g == math.inf


def test_gradient_bounds_validation():
    with pytest.raises(ConfigurationError):
        gradient_bounds(0.0, 2, 0.1)
    with pytest.raises(ConfigurationError):
        gradient_bounds(1.0, 2, 0.0)


def test_gradient_norm_respects_lipschitz_bound():
    # Salomon on [-5,5]^2: |f'(r)| <= 2*pi + 0.1, so L_f = 6.39 works for
    # every finite-difference interval.
    from escbo.benchmarks import salomon
    obj = Objective(2, salomon)
    L_f = 2 * np.pi + 0.11
    lb = gradient_bounds(L_f, 2, 0.05)
    gen = np.random.default_rng(5)
    for x in gen.uniform(-5, 5, size=(100, 2)):
        g = forward_difference_gradient(obj, x, 0.05)
        assert np.linalg.norm(g) <= lb.M_g + 1e-12


def test_objective_is_deterministic():
    obj = sphere_objective(3)
    x = np.array([[0.1, 0.2, 0.3]])
    assert obj.eval_many(x)[0] == obj.eval_many(x)[0]
