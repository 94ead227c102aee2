"""MLP parameter layout, forward pass, synthetic data, and the training objective."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from escbo.neural import (NOISE_STD, MLPArchitecture, _forward, _layers,
                          _mse, _ProbeKernel, _sigmoid_of_negated,
                          dnn_objective, forward, generate_synthetic,
                          train_error)
from escbo.neural import test_error as held_out_error
from escbo.objective import (ConfigurationError, Objective,
                             forward_difference_gradient, minibatch_gradients)

from conftest import not_real


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
    # The flat layout: W1 row-major, then b1, then W2, then b2.
    arch = MLPArchitecture((3, 4, 2))
    gen = np.random.default_rng(0)
    weights = [gen.normal(size=(4, 3)), gen.normal(size=(2, 4))]
    biases = [gen.normal(size=4), gen.normal(size=2)]
    vec = np.concatenate([weights[0].ravel(), biases[0],
                          weights[1].ravel(), biases[1]])
    assert vec.shape == (arch.dim,)
    for (wm, bias), w, b in zip(_layers(arch, vec[None]), weights, biases):
        np.testing.assert_array_equal(wm[0], w)
        np.testing.assert_array_equal(bias[0], b)


NET = MLPArchitecture((2, 1))  # three parameters
NET_DATA = generate_synthetic(NET, seed=0, M=3, M_test=2)
# Each array input of the module, in a call that a valid value of it passes.
NOT_REAL = not_real({
    "forward-params": (lambda a: forward(NET, a, np.zeros(2)), np.zeros(3)),
    "forward-inputs": (lambda a: forward(NET, np.zeros(3), a),
                       np.zeros((4, 2))),
    "train-params": (lambda a: train_error(NET, a, NET_DATA), np.zeros(3)),
    "test-params": (lambda a: held_out_error(NET, a, NET_DATA), np.zeros(3)),
})


@pytest.mark.parametrize("call", [
    # Inputs of one width N0, as one point or as a batch of them.
    lambda: forward(NET, np.zeros(3), [0.0, 0.0, 0.0]),
    lambda: forward(NET, np.zeros(3), np.zeros((4, 3))),
    lambda: forward(NET, np.zeros(3), np.zeros((1, 4, 2))),
    # One flat parameter vector.
    lambda: forward(NET, np.zeros((1, 3)), np.zeros(2)),
    *NOT_REAL.values(),
], ids=["forward-inputs-width-3", "forward-batch-width-3",
        "forward-inputs-3-axes", "forward-params-2-axes", *NOT_REAL])
def test_neural_validation_errors(call):
    with pytest.raises(ConfigurationError):
        call()


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
                       M=data.M, M_test=data.M_test, truth_params=params)
    assert train_error(arch, params, clean) == 0.0
    assert held_out_error(arch, params, clean) == 0.0


def test_constant_half_targets():
    arch = MLPArchitecture((2, 2))
    data = generate_synthetic(arch, seed=2)
    zero = np.zeros(arch.dim)  # every output is sigmoid(0) = 0.5
    half = type(data)(inputs=data.inputs,
                      targets=np.full_like(data.targets, 0.5),
                      M=data.M, M_test=data.M_test, truth_params=zero)
    assert train_error(arch, zero, half) == 0.0


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
    fwd = forward_difference_gradient(obj, x, sigma)
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
    probed = obj.eval_many(rows, centers=centers)
    assert obj.eval_count - evals_full == evals_full == b_count * arch.dim
    assert probed.shape == full.shape
    assert np.max(np.abs(probed - full)) <= 1e-12


@pytest.mark.parametrize("widths", PROBE_ARCHS, ids=str)
def test_probe_gradients_match_reference_on_partial_batch(widths):
    arch = MLPArchitecture(widths)
    obj = dnn_objective(arch, generate_synthetic(arch, seed=10))
    positions = np.random.default_rng(11).uniform(-3, 3, size=(7, arch.dim))
    batch, sigma = [1, 4, 5], 1e-3
    grads = minibatch_gradients(obj, positions, batch, sigma)
    evals_probed = obj.eval_count
    centers = positions[batch]
    reference = (obj.eval_many(coordinate_probes(centers, sigma)).reshape(
        len(batch), arch.dim) - obj.eval_many(centers)[:, None]) / sigma
    assert obj.eval_count - evals_probed == evals_probed \
        == len(batch) * (arch.dim + 1)
    assert np.max(np.abs(grads[batch] - reference)) <= 1e-9
    others = np.setdiff1d(np.arange(7), batch)
    assert np.all(grads[others] == 0.0)


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
        four = _sigmoid_of_negated(-s)
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
                   minibatch_gradients(obj, positions, [0, 2, 3], 1e-3)]
    for value in results:
        assert np.all(np.isfinite(value))


@settings(max_examples=200, deadline=None)
@given(s=arrays(np.float64, st.integers(1, 40), elements=st.floats()))
@example(s=np.array([-800.0, -745.2, -709.79, -709.78, -0.0, 0.0, 36.8,
                     745.2, np.inf, -np.inf, np.nan]))
def test_three_pass_core_of_the_negation_equals_the_sigmoid(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            full = reference_sigmoid(s)
            core = _sigmoid_of_negated(-s)
            in_place = -s
            _sigmoid_of_negated(in_place, out=in_place)
    assert core.tobytes() == full.tobytes() == in_place.tobytes()


# The network path as it was computed before the three-pass sigmoid on -z
# and the probe-major kernel layout, kept as the byte-exact reference.

def reference_sigmoid(s, out=None):
    out = np.negative(s, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


@np.errstate(over="ignore")
def reference_forward(arch, pop, h, keep=None):
    for wm, bias in _layers(arch, pop):
        z = wm @ h
        z += bias[:, :, None]
        h = reference_sigmoid(z, out=z if keep is None else None)
        if keep is not None:
            keep.append((z, h))
    return h


def reference_mse(arch, pop, u, v):
    resid = reference_forward(arch, pop.reshape(-1, arch.dim), u)
    resid -= v
    sq = np.einsum("bom,bom->b", resid, resid)
    return (sq / u.shape[1]).reshape(pop.shape[:-1])


@np.errstate(over="ignore")
def reference_probe_kernel(arch, u, v, centers, delta):
    b_count, d = centers.shape
    m = u.shape[1]
    layers = _layers(arch, centers)
    trace = []
    resid = reference_forward(arch, centers, u, keep=trace) - v
    zs, acts = zip(*trace)
    sq_out = np.einsum("bom,bom->bo", resid, resid)
    out = np.empty((b_count, d))
    for i, ((dw, db), (out_w, out_b)) in enumerate(
            zip(_layers(arch, delta), _layers(arch, out))):
        _, n_out, n_in = dw.shape
        dl = np.empty((b_count, n_out, n_in + 1))
        dl[:, :, :n_in] = dw
        dl[:, :, n_in] = db
        ext = np.empty((b_count, n_in + 1, m))
        ext[:, :-1] = acts[i - 1] if i else u
        ext[:, -1] = 1.0
        z = dl[:, :, :, None] * ext[:, None, :, :]
        z += zs[i][:, :, None, :]
        a = reference_sigmoid(z, out=z)
        if i == len(layers) - 1:
            a -= v[:, None, :]
            a *= a
            vals = (sq_out.sum(axis=1)[:, None, None] - sq_out[:, :, None]
                    + a.sum(axis=3))
        else:
            a -= acts[i][:, :, None, :]
            wm = layers[i + 1][0]
            h = wm[:, :, :, None, None] * a[:, None]
            h += zs[i + 1][:, :, None, None, :]
            h = reference_sigmoid(h, out=h).reshape(wm.shape[:2] + (-1,))
            for wm, bias in layers[i + 2:]:
                h = wm @ h
                h += bias[:, :, None]
                h = reference_sigmoid(h, out=h)
            h = h.reshape(h.shape[:2] + a.shape[1:])
            h -= v[:, None, None, :]
            h *= h
            vals = h.sum(axis=(1, 4))
        out_w[...] = vals[:, :, :-1]
        out_b[...] = vals[:, :, -1]
    out /= m
    return out.ravel()


# Nine outputs: numpy sums a contiguous axis of 8 or more pairwise, so the
# order in which the kernel adds the outputs shows.
@pytest.mark.parametrize("widths", PROBE_ARCHS + [(3, 4, 9), (2, 3, 4, 9)],
                         ids=str)
@pytest.mark.parametrize("b_count", [1, 4, 10])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_network_path_is_byte_identical_to_the_reference(widths, b_count,
                                                          scale):
    # Zeros of both signs in the inputs, centers and steps test that the
    # einsum products, whose exact zeros may differ in sign from a multiply,
    # change no result; at scale 1e3, exp(-z) overflows.
    arch = MLPArchitecture(widths)
    data = generate_synthetic(arch, seed=14)
    u, v = data.train_inputs.T.copy(), data.train_targets.T.copy()
    u[0, ::3], u[-1, 1::4] = 0.0, -0.0
    gen = np.random.default_rng(15)
    centers = scale * gen.uniform(-3, 3, size=(b_count, arch.dim))
    centers[:, ::7], centers[:, 3::11] = 0.0, -0.0
    delta = (centers + 1e-3) - centers
    delta[:, ::5], delta[:, 2::9] = 0.0, -0.0
    if scale > 1.0:
        trace = []
        reference_forward(arch, centers, u, keep=trace)
        assert min(z.min() for z, _ in trace) < -745.0
    kernel = _ProbeKernel(arch, u, v)
    expected = reference_probe_kernel(arch, u, v, centers, delta).tobytes()
    assert kernel(centers, delta).tobytes() == expected
    assert kernel(centers, delta).tobytes() == expected   # buffers reused
    assert _mse(arch, centers, u, v).tobytes() \
        == reference_mse(arch, centers, u, v).tobytes()
    obj = Objective(arch.dim, lambda pop: _mse(arch, pop, u, v),
                    probe_kernel=kernel)
    ref = Objective(arch.dim, lambda pop: reference_mse(arch, pop, u, v),
                    probe_kernel=lambda c, dl: reference_probe_kernel(
                        arch, u, v, c, dl))
    assert minibatch_gradients(obj, centers, None, 1e-3).tobytes() \
        == minibatch_gradients(ref, centers, None, 1e-3).tobytes()
