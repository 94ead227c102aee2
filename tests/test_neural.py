"""MLP flattening, forward pass, synthetic data, and the training objective."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from escbo.neural import (NOISE_STD, MLPArchitecture, SyntheticDataset,
                          _forward, _layers, _mse, _sigmoid, dnn_objective,
                          flatten, forward, generate_synthetic, load_dataset,
                          save_dataset, train_error, unflatten)
from escbo.neural import test_error as held_out_error
from escbo.objective import (ConfigurationError, FiniteDiffConfig,
                             forward_difference_gradient,
                             minibatch_gradients)


def test_flattened_dimensions():
    cases = {(5, 10, 1): 71, (5, 5, 5, 5, 1): 96, (5, 10, 10, 10, 1): 291,
             (10, 10, 1): 121, (10, 5, 5, 5, 1): 121,
             (10, 10, 10, 10, 1): 341}
    for widths, dim in cases.items():
        assert MLPArchitecture(widths).dim == dim


def test_architecture_validation():
    with pytest.raises(ConfigurationError):
        MLPArchitecture((5,))
    with pytest.raises(ConfigurationError):
        MLPArchitecture((5, 0, 1))


def test_flatten_round_trip():
    arch = MLPArchitecture((3, 4, 2))
    gen = np.random.default_rng(0)
    weights = [gen.normal(size=(4, 3)), gen.normal(size=(2, 4))]
    biases = [gen.normal(size=4), gen.normal(size=2)]
    vec = flatten(weights, biases)
    assert vec.shape == (arch.dim,)
    w2, b2 = unflatten(vec, arch)
    for a, b in zip(weights, w2):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(biases, b2):
        np.testing.assert_array_equal(a, b)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        unflatten(np.zeros(70), MLPArchitecture((5, 10, 1)))


def test_forward_zero_network():
    arch = MLPArchitecture((3, 2, 2))
    out = forward(arch, np.zeros(arch.dim), np.array([0.4, -1.0, 2.0]))
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_forward_single_layer_values():
    arch = MLPArchitecture((1, 1))
    assert forward(arch, np.array([1.0, 0.0]), np.array([0.0]))[0] == 0.5
    out = forward(arch, np.array([2.0, -1.0]), np.array([1.0]))[0]
    assert out == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-12)


def test_forward_output_range_and_batch():
    arch = MLPArchitecture((4, 6, 3))
    gen = np.random.default_rng(1)
    params = gen.uniform(-50, 50, size=arch.dim)
    inputs = gen.normal(size=(11, 4)) * 10
    out = forward(arch, params, inputs)
    assert out.shape == (11, 3)
    # Saturated units round to exactly 0.0 or 1.0 in float; the usable
    # guarantee is boundedness and finiteness.
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.isfinite(out))
    mild = forward(arch, np.full(arch.dim, 0.01), inputs / 10)
    assert np.all(mild > 0) and np.all(mild < 1)
    np.testing.assert_array_equal(out[3], forward(arch, params, inputs[3]))


def test_dataset_determinism():
    arch = MLPArchitecture((5, 10, 1))
    a = generate_synthetic(arch, seed=7)
    b = generate_synthetic(arch, seed=7)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    c = generate_synthetic(arch, seed=8)
    assert not np.array_equal(a.targets, c.targets)


def test_dataset_split_sizes():
    arch = MLPArchitecture((2, 3, 2))
    data = generate_synthetic(arch, seed=0)
    assert data.train_inputs.shape == (80, 2)
    assert data.test_targets.shape == (20, 2)


def test_noise_residual_variance():
    # Residuals v - forward(truth, u) are exactly the injected noise; their
    # sample variance over ~1e4 components must sit near NOISE_STD^2.
    arch = MLPArchitecture((2, 3, 2))
    residuals = []
    for seed in range(50):
        data = generate_synthetic(arch, seed=seed)
        pred = forward(arch, data.truth_params, data.inputs)
        residuals.append((data.targets - pred).ravel())
    residuals = np.concatenate(residuals)
    assert residuals.size == 10_000
    var = residuals.var()
    assert 0.7 * NOISE_STD ** 2 < var < 1.3 * NOISE_STD ** 2


def test_rank_one_input_covariance():
    arch = MLPArchitecture((6, 4, 1))
    for seed in range(5):
        data = generate_synthetic(arch, seed=seed)
        cov = np.cov(data.inputs.T)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert eig[1] / eig[0] < 1e-10


def test_truth_params_sit_at_noise_floor():
    arch = MLPArchitecture((5, 10, 1))
    floor = arch.widths[-1] * NOISE_STD ** 2
    for seed in range(5):
        data = generate_synthetic(arch, seed=seed)
        err = train_error(arch, data.truth_params, data)
        assert 0.5 * floor < err < 2.0 * floor


def test_noiseless_targets_give_zero_error():
    arch = MLPArchitecture((3, 4, 2))
    gen = np.random.default_rng(3)
    params = gen.normal(size=arch.dim)
    data = generate_synthetic(arch, seed=1)
    clean = type(data)(inputs=data.inputs,
                       targets=forward(arch, params, data.inputs),
                       M=data.M, M_test=data.M_test)
    assert train_error(arch, params, clean) == 0.0
    assert held_out_error(arch, params, clean) == 0.0


def test_constant_half_targets():
    arch = MLPArchitecture((2, 2))
    data = generate_synthetic(arch, seed=2)
    half = type(data)(inputs=data.inputs,
                      targets=np.full_like(data.targets, 0.5),
                      M=data.M, M_test=data.M_test)
    assert train_error(arch, np.zeros(arch.dim), half) == 0.0


def test_objective_matches_train_error():
    arch = MLPArchitecture((5, 10, 1))
    data = generate_synthetic(arch, seed=4)
    obj = dnn_objective(arch, data)
    gen = np.random.default_rng(5)
    pts = gen.uniform(-3, 3, size=(6, arch.dim))
    batch = obj.eval_many(pts)
    for i in range(6):
        expected = train_error(arch, pts[i], data)
        assert batch[i] == expected
        assert obj.eval(pts[i]) == expected
    assert obj.eval_count == 12


def test_finite_difference_close_to_central_difference():
    arch = MLPArchitecture((2, 3, 1))
    data = generate_synthetic(arch, seed=6)
    obj = dnn_objective(arch, data)
    gen = np.random.default_rng(7)
    x = gen.uniform(-1, 1, size=arch.dim)
    sigma = 1e-5
    fwd = forward_difference_gradient(obj, x, FiniteDiffConfig(sigma))
    central = np.empty(arch.dim)
    for l in range(arch.dim):
        e = np.zeros(arch.dim)
        e[l] = sigma
        central[l] = (train_error(arch, x + e, data)
                      - train_error(arch, x - e, data)) / (2 * sigma)
    assert np.max(np.abs(fwd - central)) < 10 * sigma


PROBE_ARCHS = [(5, 10, 1), (10, 10, 10, 10, 1), (5, 5, 5, 5, 1), (2, 3, 2),
               (3, 4, 3, 2)]


def coordinate_probes(centers, sigma):
    b_count, d = centers.shape
    rows = centers[:, None, :] + sigma * np.eye(d)[None, :, :]
    return rows.reshape(b_count * d, d)


@pytest.mark.parametrize("widths", PROBE_ARCHS, ids=str)
@pytest.mark.parametrize("b_count", [1, 4])
def test_probe_kernel_matches_full_forward_pass(widths, b_count):
    arch = MLPArchitecture(widths)
    obj = dnn_objective(arch, generate_synthetic(arch, seed=8))
    centers = np.random.default_rng(9).uniform(-3, 3, size=(b_count, arch.dim))
    rows = coordinate_probes(centers, 1e-3)
    full = obj.eval_many(rows)
    evals_full = obj.eval_count
    obj.reset_count()
    probed = obj.eval_many(rows, centers=centers)
    assert obj.eval_count == evals_full == b_count * arch.dim
    assert probed.shape == full.shape
    assert np.max(np.abs(probed - full)) <= 1e-12


@pytest.mark.parametrize("widths", PROBE_ARCHS, ids=str)
def test_probe_gradients_match_reference_on_partial_batch(widths):
    arch = MLPArchitecture(widths)
    obj = dnn_objective(arch, generate_synthetic(arch, seed=10))
    positions = np.random.default_rng(11).uniform(-3, 3, size=(7, arch.dim))
    batch, sigma = [1, 4, 5], 1e-3
    grads = minibatch_gradients(obj, positions, batch, FiniteDiffConfig(sigma))
    evals_probed = obj.eval_count
    obj.reset_count()
    centers = positions[batch]
    reference = (obj.eval_many(coordinate_probes(centers, sigma)).reshape(
        len(batch), arch.dim) - obj.eval_many(centers)[:, None]) / sigma
    assert evals_probed == obj.eval_count == len(batch) * (arch.dim + 1)
    assert np.max(np.abs(grads[batch] - reference)) <= 1e-9
    others = np.setdiff1d(np.arange(7), batch)
    assert np.all(grads[others] == 0.0)


def test_dataset_save_load_round_trip(tmp_path):
    arch = MLPArchitecture((3, 5, 2))
    data = generate_synthetic(arch, seed=9)
    path = tmp_path / "dataset.txt"
    save_dataset(data, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.inputs, data.inputs)
    np.testing.assert_array_equal(loaded.targets, data.targets)
    assert loaded.M == data.M and loaded.M_test == data.M_test
    assert loaded.truth_params is None
    header = path.read_text().splitlines()[0]
    assert header == "3 2 80 20"


def test_load_dataset_rejects_body_that_does_not_match_header(tmp_path):
    path = tmp_path / "dataset.txt"
    save_dataset(generate_synthetic(MLPArchitecture((3, 5, 2)), seed=9), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # one sample short
    with pytest.raises(ConfigurationError, match="does not match header"):
        load_dataset(path)


@settings(max_examples=60)
@given(data=st.data(), n0=st.integers(1, 4), nl=st.integers(1, 3),
       m=st.integers(1, 6), m_test=st.integers(0, 4))
def test_dataset_save_load_round_trip_property(data, n0, nl, m, m_test):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(arrays(np.float64, (m + m_test, n0 + nl),
                            elements=finite), label="rows")
    original = SyntheticDataset(inputs=rows[:, :n0], targets=rows[:, n0:],
                                M=m, M_test=m_test)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.txt"
        save_dataset(original, path)
        loaded = load_dataset(path)
    assert np.array_equal(loaded.inputs, original.inputs)
    assert np.array_equal(loaded.targets, original.targets)
    assert (loaded.M, loaded.M_test) == (m, m_test)
    assert loaded.truth_params is None


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 80\n")
    with pytest.raises(ConfigurationError):
        load_dataset(path)


@settings(max_examples=80, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       m=st.integers(1, 12), single=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_is_the_one_network_population_pass(widths, m, single, seed):
    arch = MLPArchitecture(tuple(widths))
    gen = np.random.default_rng(seed)
    params = gen.normal(0.0, 2.0, size=arch.dim)
    u = gen.normal(size=(1 if single else m, widths[0]))
    pop = _forward(arch, params[None], u.T)[0]   # (NL, M)
    out = forward(arch, params, u[0] if single else u)
    assert np.array_equal(out, pop[:, 0] if single else pop.T)


def five_pass_sigmoid(s):
    """The sigmoid as it was computed before the four-pass form: -s capped
    at 709, so that exp never overflows."""
    out = np.minimum(-s, 709.0)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def reference_population_mse(arch, pop, inputs, targets):
    """Training error of each row of pop (B, d) by the network pass in the
    (B, M, width) layout, with the five-pass sigmoid."""
    h = np.broadcast_to(inputs, (pop.shape[0],) + inputs.shape)
    for wm, bias in _layers(arch, pop):
        h = h @ wm.transpose(0, 2, 1)
        h += bias[:, None, :]
        h = five_pass_sigmoid(h)
    resid = h - targets
    return np.mean(np.sum(resid * resid, axis=2), axis=1)


# The five-pass sigmoid's floor: its value wherever s <= -709.
SIGMOID_FLOOR = 1.0 / (1.0 + np.exp(709.0))


@settings(max_examples=200, deadline=None)
@given(s=arrays(np.float64, st.integers(1, 40),
                elements=st.floats(allow_nan=False)))
@example(s=np.linspace(-760.0, -700.0, 6001))
def test_four_pass_sigmoid_equals_the_capped_five_pass_form(s):
    with np.errstate(over="ignore"):
        four = _sigmoid(s)
    five = five_pass_sigmoid(s)
    above = s >= -709.0
    assert np.array_equal(four[above], five[above])
    assert np.all(np.abs(four - five) <= SIGMOID_FLOOR)
    assert np.all((four >= 0.0) & (four <= 1.0))


@settings(max_examples=80, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       b_count=st.integers(1, 4), m=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mse_agrees_with_the_reference_layout(widths, b_count, m, seed):
    # Targets lie outside the sigmoid's range (0, 1), so no residual
    # cancels and a relative tolerance of 1e-13 (about 450 ulps) holds.
    arch = MLPArchitecture(tuple(widths))
    gen = np.random.default_rng(seed)
    pop = gen.normal(0.0, 2.0, size=(b_count, arch.dim))
    inputs = gen.normal(size=(m, widths[0]))
    targets = gen.uniform(2.0, 3.0, size=(m, widths[-1]))
    fast = _mse(arch, pop, inputs.T.copy(), targets.T.copy())
    slow = reference_population_mse(arch, pop, inputs, targets)
    np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=0.0)


def test_network_path_warns_nothing_when_exp_overflows():
    arch = MLPArchitecture((3, 4, 2))
    data = generate_synthetic(arch, seed=12)
    gen = np.random.default_rng(13)
    params = gen.normal(0.0, 1e3, size=arch.dim)
    positions = params + gen.normal(size=(5, arch.dim))
    trace = []
    _forward(arch, positions, data.train_inputs.T, keep=trace)
    assert min(z.min() for z, _ in trace) < -745.0   # exp(-z) overflows
    obj = dnn_objective(arch, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [forward(arch, params, data.inputs),
                   train_error(arch, params, data),
                   held_out_error(arch, params, data),
                   obj.eval_many(positions),
                   minibatch_gradients(obj, positions, [0, 2, 3],
                                       FiniteDiffConfig(1e-3))]
    for value in results:
        assert np.all(np.isfinite(value))
