"""Swarm state, consensus point, noise draws, and the three steppers."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from escbo.benchmarks import lookup, rastrigin
from escbo.harness import ExperimentConfig, run_once, table_preset
from escbo.neural import MLPArchitecture, dnn_objective, generate_synthetic
from escbo.objective import (ConfigurationError, EstimationError, Objective,
                             minibatch_gradients)
from escbo.swarm import (ComponentGaussian, DivergenceError,
                         RngStream, StepSchedule, SwarmState, UniformBox,
                         check_stop, consensus_point, draw_noise, escbo_step,
                         fescbo_step, init_swarm, softmin_weights,
                         swarm_diameter, vanilla_cbo_step)

from conftest import not_real


def sphere(dim):
    return Objective(dim, lambda x: np.sum(x * x, axis=-1))


def make_state(positions, obj):
    positions = np.asarray(positions, dtype=float)
    return SwarmState(positions, obj.eval_many(positions))


def params(lam=0.1, delta=0.1, beta=10.0, sigma=0.01, **fields):
    # A stepper's config.  particles bounds only the config's batch_size, so
    # a large one lets every batch size through to the stepper's own check.
    return ExperimentConfig(lam=lam, delta=delta, beta=beta, sigma=sigma,
                            particles=10**6, **fields)


# ---------------------------------------------------------------- schedules

def test_schedule_values():
    assert StepSchedule.constant(0.3).alpha(17) == 0.3
    geo = StepSchedule.geometric(2.0, 0.5)
    assert geo.alpha(0) == 2.0 and geo.alpha(3) == 0.25
    har = StepSchedule.harmonic(0.5)
    assert har.alpha(0) == 0.5 and har.alpha(1) == 0.25


def test_schedule_summability():
    assert StepSchedule.geometric(1.0, 0.9).summable is True
    assert StepSchedule.constant(0.0).summable is True
    assert StepSchedule.constant(0.1).summable is False
    assert StepSchedule.harmonic(0.5).summable is False


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        StepSchedule.geometric(1.0, 1.5)
    with pytest.raises(ConfigurationError):
        StepSchedule.constant(-1.0)
    with pytest.raises(ConfigurationError):
        StepSchedule("cubic", 1.0)


# ------------------------------------------------------------ distributions

def test_uniform_box_bounds_and_validation():
    rng = RngStream(0)
    state = init_swarm(UniformBox(-5.0, 5.0), 50, sphere(2), rng)
    assert state.positions.shape == (50, 2)
    assert np.all(state.positions >= -5) and np.all(state.positions <= 5)
    with pytest.raises(ConfigurationError):
        UniformBox(1.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda: UniformBox(-np.inf, 1.0), lambda: UniformBox(0.0, np.inf),
    lambda: UniformBox(np.nan, 1.0), lambda: UniformBox(-1e308, 1e308),
    lambda: ComponentGaussian(0.0, np.inf),
    lambda: ComponentGaussian(np.inf, 1.0),
    lambda: ComponentGaussian(np.nan, 1.0),
    lambda: ComponentGaussian(0.0, np.nan),
], ids=["uniform-lo-inf", "uniform-hi-inf", "uniform-lo-nan",
        "uniform-width-overflows", "gaussian-variance-inf",
        "gaussian-mean-inf", "gaussian-mean-nan", "gaussian-variance-nan"])
def test_init_distribution_rejects_non_finite_parameters(make):
    # Each of these used to pass and then fail inside the sampler or the
    # first consensus point, partway through a campaign.
    with pytest.raises(ConfigurationError):
        make()


# Arguments of right and wrong types, in and out of range: reals (nan and
# inf included), integers (one beyond float range), bools, strings, None,
# complex numbers, and lists of reals or of other values.
_ARGUMENT = st.one_of(
    st.floats(), st.integers(-3, 10), st.just(10 ** 400), st.booleans(),
    st.text(max_size=3), st.none(), st.complex_numbers(max_magnitude=5),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    st.lists(st.sampled_from([1, True, "2", None, 2.5]), max_size=3),
    st.sampled_from([np.float64(2.0), np.int64(3), np.bool_(True)]))


@settings(max_examples=400)
@given(cls=st.sampled_from([StepSchedule, UniformBox, ComponentGaussian,
                            MLPArchitecture]),
       data=st.data())
def test_parameter_classes_build_or_raise_configuration_error(cls, data):
    if cls is StepSchedule:
        kind = data.draw(st.one_of(st.sampled_from(
            ["constant", "geometric", "harmonic", "cubic"]), _ARGUMENT))
        args = (kind, data.draw(_ARGUMENT), data.draw(_ARGUMENT))
    elif cls is MLPArchitecture:
        args = (data.draw(st.one_of(
            st.tuples(_ARGUMENT, _ARGUMENT, _ARGUMENT),
            st.lists(st.integers(-1, 4), max_size=4), _ARGUMENT)),)
    else:
        args = (data.draw(_ARGUMENT), data.draw(_ARGUMENT))
    try:
        cls(*args)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("make", [
    lambda: StepSchedule.harmonic(np.nan),
    lambda: StepSchedule("constant", 1.0, np.inf),
    lambda: StepSchedule("constant", "1"),
    lambda: StepSchedule.constant(10 ** 400),
    lambda: UniformBox("a", 1.0),
    lambda: UniformBox(False, True),
    lambda: ComponentGaussian(0.0, None),
    lambda: ComponentGaussian(0.0, 10 ** 400),
    lambda: MLPArchitecture((2.5, 3, 1)),
    lambda: MLPArchitecture((True, 3, 1)),
    lambda: MLPArchitecture(("2", 3, 1)),
], ids=["schedule-c-nan", "schedule-r-inf", "schedule-c-str",
        "schedule-c-beyond-float", "uniform-lo-str", "uniform-bools",
        "gaussian-variance-none", "gaussian-variance-beyond-float",
        "widths-float", "widths-bool", "widths-str"])
def test_parameter_of_a_wrong_kind_is_a_configuration_error(make):
    with pytest.raises(ConfigurationError):
        make()


def test_component_gaussian_variance_convention():
    rng = RngStream(1)
    state = init_swarm(ComponentGaussian(0.0, 3.0), 4000, sphere(5), rng)
    var = state.positions.var()
    assert abs(var - 3.0) < 0.15

    point_mass = init_swarm(ComponentGaussian(2.0, 0.0), 10, sphere(3),
                            RngStream(2))
    np.testing.assert_array_equal(point_mass.positions,
                                  np.full((10, 3), 2.0))


def test_init_swarm_determinism():
    a = init_swarm(UniformBox(-1, 1), 8, sphere(3), RngStream(42)).positions
    b = init_swarm(UniformBox(-1, 1), 8, sphere(3), RngStream(42)).positions
    np.testing.assert_array_equal(a, b)


# let two streams with the same seed produce identical draws, and different
# labels produce independent ones
def test_rng_stream_labels():
    a = RngStream(7).stream("noise").normal(size=5)
    b = RngStream(7).stream("noise").normal(size=5)
    np.testing.assert_array_equal(a, b)
    c = RngStream(7).stream("batch").normal(size=5)
    assert not np.allclose(a, c)


# The array inputs that a state, a box or a Gaussian does not check already.
NOT_REAL = not_real({
    "softmin-values": (lambda a: softmin_weights(a, 1.0), np.zeros(3)),
    "diameter-positions": (swarm_diameter, np.zeros((3, 2))),
})


@pytest.mark.parametrize("call, error", [
    (lambda: init_swarm(UniformBox(-1, 1), 0, sphere(2), RngStream(0)),
     ConfigurationError),
    (lambda: softmin_weights(np.zeros(3), -1.0), ConfigurationError),
    (lambda: draw_noise(-0.1, 2, RngStream(0)), ConfigurationError),
    (lambda: RngStream(0).stream("bogus"), KeyError),
    (lambda: softmin_weights(np.zeros(3), np.nan), ConfigurationError),
    (lambda: softmin_weights(np.zeros(3), np.inf), ConfigurationError),
    (lambda: consensus_point(SwarmState(np.zeros((3, 2)), values=np.zeros(3)),
                             np.inf), ConfigurationError),
    (lambda: draw_noise(np.nan, 2, RngStream(0)), ConfigurationError),
    (lambda: draw_noise(np.inf, 2, RngStream(0)), ConfigurationError),
    (lambda: init_swarm(UniformBox([0, 0, 0], [1, 1, 1]), 4, sphere(2),
                        RngStream(0)),
     ConfigurationError),
    (lambda: init_swarm(ComponentGaussian([0, 0, 0], 1.0), 4, sphere(2),
                        RngStream(0)), ConfigurationError),
    # A state is checked once, when it is built.
    (lambda: SwarmState(np.zeros((3, 2)), values=None), ConfigurationError),
    (lambda: consensus_point(SwarmState(np.zeros((3, 2)),
                                        values=np.zeros(4)), 1.0),
     ConfigurationError),
    (lambda: vanilla_cbo_step(SwarmState(np.zeros((3, 2)),
                                         values=np.zeros(4)),
                              sphere(2), params(), RngStream(0)),
     ConfigurationError),
    (lambda: escbo_step(SwarmState(np.zeros((3, 2)), values=np.zeros(3),
                                   k=-1), sphere(2),
                        params(schedule=StepSchedule.harmonic(1.0)),
                        RngStream(0)), ConfigurationError),
    (lambda: SwarmState(np.zeros((3, 2)), values=np.zeros(3), k=2.5),
     ConfigurationError),
    (lambda: check_stop(SwarmState(np.zeros((3, 2)), values=np.zeros(3), k=0),
                        SwarmState(np.zeros((2, 2)), values=np.zeros(2), k=1),
                        1e-6), ConfigurationError),
    (lambda: swarm_diameter(np.zeros(3)), ConfigurationError),
    (lambda: swarm_diameter(np.zeros((0, 2))), ConfigurationError),
    (lambda: softmin_weights([], 1.0), ConfigurationError),
    (lambda: softmin_weights(0.0, 1.0), ConfigurationError),
    # numpy reads a bool among reals as a real.
    (lambda: softmin_weights([0.0, True], 1.0), ConfigurationError),
    (lambda: SwarmState([[0.0, np.True_]], values=[0.0]), ConfigurationError),
    *((call, ConfigurationError) for call in NOT_REAL.values()),
], ids=["no-particles", "negative-beta", "negative-delta", "unknown-stream",
        "nan-beta", "inf-beta", "consensus-inf-beta", "nan-delta",
        "inf-delta", "box-3-on-dim-2", "gaussian-3-on-dim-2",
        "state-without-values", "consensus-4-values-on-3",
        "step-4-values-on-3", "escbo-harmonic-k-negative", "state-k-2.5",
        "stop-particle-counts-differ", "diameter-1-axis",
        "diameter-no-particles", "softmin-no-values", "softmin-scalar",
        "softmin-bool-in-list", "state-bool-in-list", *NOT_REAL])
def test_swarm_validation_errors(call, error):
    with pytest.raises(error):
        call()


def swarm_result(call):
    """A call's value, or the name of its error from the package's family."""
    try:
        return call()
    except ConfigurationError:
        return "ConfigurationError"
    except (DivergenceError, EstimationError):  # non-finite input, stepped
        return "non-finite"


REALS = st.one_of(st.floats(-10.0, 10.0), st.floats())
SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
# Half of the drawn positions are (N, d) with N, d >= 1.
POINT_SETS = st.one_of(array_shapes(min_dims=2, max_dims=2, max_side=3),
                       SHAPES)


@settings(max_examples=200, deadline=None)
@given(positions=arrays(np.float64, POINT_SETS, elements=REALS),
       data=st.data(), k=st.sampled_from([-1, 0, 2, 2.5, True]))
def test_swarm_returns_a_value_or_a_configuration_error(positions, data, k):
    # Values of any shape, and half of them one per particle.
    values = data.draw(arrays(np.float64, st.one_of(
        st.just(positions.shape[:1]), SHAPES), elements=REALS), label="values")
    d = positions.shape[1] if positions.ndim == 2 and positions.shape[1] else 1
    obj = Objective(d, rastrigin)
    cfg = params(schedule=StepSchedule.harmonic(1.0))
    with np.errstate(all="ignore"):
        swarm_result(lambda: softmin_weights(values, 1.0))
        swarm_result(lambda: swarm_diameter(positions))
        state = swarm_result(lambda: SwarmState(positions, values=values, k=k))
        if state == "ConfigurationError":
            return
        swarm_result(lambda: consensus_point(state, 1.0))
        steps = [swarm_result(lambda: step(state, obj, cfg, RngStream(0)))
                 for step in (escbo_step, vanilla_cbo_step)]
        for nxt in steps:
            if isinstance(nxt, SwarmState):
                swarm_result(lambda: check_stop(state, nxt, 1e-6))
        if all(isinstance(nxt, SwarmState) for nxt in steps):
            assert swarm_result(lambda: check_stop(*steps, 1e-6)) == \
                "ConfigurationError"


# ------------------------------------------------------------- consensus

def test_consensus_single_particle():
    obj = sphere(2)
    state = make_state([[1.0, -2.0]], obj)
    np.testing.assert_array_equal(consensus_point(state, 5.0), [1.0, -2.0])
    np.testing.assert_array_equal(softmin_weights(state.values, 5.0), [1.0])


def test_consensus_beta_zero_is_mean():
    obj = sphere(2)
    pts = np.random.default_rng(0).normal(size=(9, 2))
    state = make_state(pts, obj)
    np.testing.assert_allclose(consensus_point(state, 0.0), pts.mean(axis=0),
                               rtol=1e-14)
    np.testing.assert_allclose(softmin_weights(state.values, 0.0),
                               np.full(9, 1 / 9), rtol=1e-14)


def test_consensus_softmin_limit_exact():
    obj = sphere(1)
    state = make_state([[0.0], [2.0]], obj)
    assert consensus_point(state, 1e20)[0] == 0.0
    np.testing.assert_array_equal(softmin_weights(state.values, 1e20),
                                  [1.0, 0.0])


def test_consensus_convex_hull_and_weight_sum():
    gen = np.random.default_rng(3)
    obj = Objective(3, rastrigin)
    for beta in (0.0, 1.0, 100.0, 1e20):
        state = make_state(gen.uniform(-5, 5, size=(12, 3)), obj)
        xbar = consensus_point(state, beta)
        assert abs(softmin_weights(state.values, beta).sum() - 1.0) < 1e-14
        lo = state.positions.min(axis=0) - 1e-12
        hi = state.positions.max(axis=0) + 1e-12
        assert np.all(xbar >= lo) and np.all(xbar <= hi)


@st.composite
def swarms(draw, max_n=12, max_d=4):
    """Positions of shape (n, d) with finite, normal or zero coordinates."""
    shape = (draw(st.integers(1, max_n)), draw(st.integers(1, max_d)))
    return draw(arrays(np.float64, shape, elements=st.floats(
        -1e3, 1e3, allow_subnormal=False)))


@settings(max_examples=200)
@given(data=st.data(), pts=swarms(), beta=st.floats(0.0, 1e20))
def test_consensus_weights_and_hull_property(data, pts, beta):
    values = data.draw(arrays(np.float64, pts.shape[0], elements=st.floats(
        -1e6, 1e6, allow_subnormal=False)), label="values")
    xbar = consensus_point(SwarmState(pts, values=values), beta)
    n, eps = pts.shape[0], np.finfo(float).eps
    assert abs(softmin_weights(values, beta).sum() - 1.0) <= n * eps
    tol = 2 * n * eps * np.abs(pts).max()
    assert xbar.shape == (pts.shape[1],)
    assert np.all(xbar >= pts.min(axis=0) - tol)
    assert np.all(xbar <= pts.max(axis=0) + tol)


def test_consensus_shift_invariance():
    # Adding a constant to every value leaves weights unchanged.  With
    # exactly representable sums the weights match bit for bit; otherwise
    # only the rounding of f + shift itself perturbs them.
    exact = np.array([0.25, 1.75, 0.5, 4.0])
    for shift in (2.0, -8.0, 1024.0):
        np.testing.assert_array_equal(softmin_weights(exact, 7.0),
                                      softmin_weights(exact + shift, 7.0))
    values = np.array([0.3, 1.7, 0.9, 4.2])
    for shift in (10.0, -3.5, 1e6):
        np.testing.assert_allclose(softmin_weights(values + shift, 7.0),
                                   softmin_weights(values, 7.0),
                                   rtol=0, atol=1e-9)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a.tobytes() == b.tobytes() or (
        np.isnan(a).any() and np.array_equal(a, b, equal_nan=True)))


@settings(max_examples=300)
@given(f=arrays(np.float64, st.integers(1, 40), elements=st.one_of(
           st.floats(-10.0, 10.0),
           st.floats(allow_nan=True, allow_infinity=True))),
       beta=st.one_of(st.sampled_from([0.0, 1.0, 1e20]),
                      st.floats(0.0, 10.0), st.floats(0.0, 1e300)))
def test_softmin_in_place_equals_reference(f, beta):
    # Signed zeros, subnormals, nan, inf and values whose sums overflow.
    with np.errstate(all="ignore"):
        w = np.exp(-beta * (f - f.min()))
        expected = w / w.sum()
        assert same_bits(softmin_weights(f, beta), expected)


# ------------------------------------------------------------------ noise

def test_noise_zero_delta():
    eta = draw_noise(0.0, 6, RngStream(0))
    np.testing.assert_array_equal(eta, np.zeros(6))


def test_noise_moments():
    rng = RngStream(11)
    draws = rng.stream("noise").normal(0.0, 0.1, size=(100_000,))
    assert abs(draws.mean()) < 3 * 0.1 / np.sqrt(100_000)
    assert abs(draws.var() - 0.01) < 0.05 * 0.01


def test_noise_determinism():
    a = draw_noise(0.5, 4, RngStream(9))
    b = draw_noise(0.5, 4, RngStream(9))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- steppers

def test_escbo_identity_step():
    obj = sphere(2)
    state = make_state(np.random.default_rng(1).normal(size=(6, 2)), obj)
    new = escbo_step(state, obj, params(lam=0.0, delta=0.0,
                                        schedule=StepSchedule.constant(0.0)),
                     RngStream(0))
    np.testing.assert_allclose(new.positions, state.positions,
                               rtol=1e-15, atol=1e-15)
    assert new.k == 1


def test_escbo_full_contraction_is_exact():
    obj = sphere(2)
    state = make_state(np.random.default_rng(2).normal(size=(5, 2)), obj)
    xbar = consensus_point(state, 10.0)
    new = escbo_step(state, obj, params(lam=1.0, delta=0.0,
                                        schedule=StepSchedule.constant(0.0)),
                     RngStream(0))
    for row in new.positions:
        np.testing.assert_array_equal(row, xbar)
    assert swarm_diameter(new.positions) == 0.0


def test_escbo_eval_accounting():
    obj = sphere(3)
    state = make_state(np.random.default_rng(3).normal(size=(7, 3)), obj)
    before = obj.eval_count
    escbo_step(state, obj, params(schedule=StepSchedule.constant(0.1)),
               RngStream(0))
    assert obj.eval_count - before == 7 * 4 + 7


def test_vanilla_matches_escbo_with_zero_schedule():
    obj1, obj2 = sphere(2), sphere(2)
    pts = np.random.default_rng(4).normal(size=(8, 2))
    s1, s2 = make_state(pts, obj1), make_state(pts, obj2)
    a = escbo_step(s1, obj1, params(schedule=StepSchedule.constant(0.0)),
                   RngStream(5))
    b = vanilla_cbo_step(s2, obj2, params(), RngStream(5))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_vanilla_identical_particles_stay_identical():
    obj = sphere(2)
    state = make_state(np.tile([[0.7, -0.3]], (2, 1)), obj)
    for _ in range(25):
        state = vanilla_cbo_step(state, obj, params(lam=0.3, delta=0.5),
                                 RngStream(6))
    np.testing.assert_array_equal(state.positions[0], state.positions[1])


def test_vanilla_consumes_no_gradient_evals():
    obj = sphere(4)
    state = make_state(np.random.default_rng(5).normal(size=(6, 4)), obj)
    before = obj.eval_count
    vanilla_cbo_step(state, obj, params(), RngStream(0))
    assert obj.eval_count - before == 6


def test_fescbo_full_batch_matches_escbo():
    pts = np.random.default_rng(6).normal(size=(9, 2))
    obj1, obj2 = sphere(2), sphere(2)
    s1, s2 = make_state(pts, obj1), make_state(pts, obj2)
    rng1, rng2 = RngStream(3), RngStream(3)
    sched = StepSchedule.geometric(0.5, 0.9)
    for _ in range(5):
        s1 = escbo_step(s1, obj1, params(schedule=sched), rng1)
        s2 = fescbo_step(s2, obj2, params(schedule=sched, batch_size=9), rng2)
    np.testing.assert_array_equal(s1.positions, s2.positions)


def test_fescbo_touches_exactly_batch_size_particles():
    pts = np.random.default_rng(7).uniform(-4, 4, size=(40, 3))
    obj1, obj2 = sphere(3), sphere(3)
    s1, s2 = make_state(pts, obj1), make_state(pts, obj2)
    a = fescbo_step(s1, obj1, params(schedule=StepSchedule.constant(0.5),
                                     batch_size=10), RngStream(8))
    b = vanilla_cbo_step(s2, obj2, params(), RngStream(8))
    differing = np.any(a.positions != b.positions, axis=1)
    assert differing.sum() == 10


def test_fescbo_zero_schedule_equals_vanilla():
    pts = np.random.default_rng(8).normal(size=(12, 2))
    obj1, obj2 = sphere(2), sphere(2)
    a = fescbo_step(make_state(pts, obj1), obj1,
                    params(schedule=StepSchedule.constant(0.0), batch_size=4),
                    RngStream(1))
    b = vanilla_cbo_step(make_state(pts, obj2), obj2, params(), RngStream(1))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_fescbo_eval_accounting_and_validation():
    obj = sphere(3)
    state = make_state(np.random.default_rng(9).normal(size=(20, 3)), obj)
    before = obj.eval_count
    sched = StepSchedule.constant(0.1)
    fescbo_step(state, obj, params(schedule=sched, batch_size=5), RngStream(0))
    assert obj.eval_count - before == 5 * 4 + 20
    for batch_size in (21, None):
        with pytest.raises(ConfigurationError):
            fescbo_step(state, obj, params(schedule=sched,
                                           batch_size=batch_size),
                        RngStream(0))


def reference_step(state, obj, prm, schedule, rng, method, batch_size):
    # A step in the parent's expressions: gradients of the np.arange (or
    # drawn) batch by fancy index, softmin as one expression, and the drift
    # and gradient step as one expression.
    pts = state.positions
    n, d = pts.shape
    grads = None
    if method != "vanilla":
        idx = np.arange(n) if method == "escbo" else np.unique(
            rng.stream("batch").choice(n, size=batch_size, replace=False))
        centers = pts[idx]
        base = obj.eval_many(centers)
        probes = np.repeat(centers, d, axis=0)
        diag = np.arange(d)
        probes.reshape(idx.size, d, d)[:, diag, diag] += prm.sigma
        vals = obj.eval_many(probes).reshape(idx.size, d)
        grads = np.zeros_like(pts)
        grads[idx] = (vals - base[:, None]) / prm.sigma
    f = state.values
    w = np.exp(-prm.beta * (f - f.min()))
    w = w / w.sum()
    anchor = pts[int(np.argmax(w))]
    xbar = anchor + w @ (pts - anchor)
    eta = rng.stream("noise").normal(0.0, prm.delta, size=d)
    new = xbar + (pts - xbar) * ((1.0 - prm.lam) - eta)
    alpha = 0.0 if grads is None else schedule.alpha(state.k)
    if alpha != 0.0:
        new = new - alpha * grads
    return new, obj.eval_many(new)


@settings(max_examples=60)
@given(method=st.sampled_from(["escbo", "vanilla", "fescbo"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       d=st.integers(1, 5), lam=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
       delta=st.sampled_from([0.0, 0.1, 1.0]),
       beta=st.sampled_from([1.0, 100.0, 1e20]),
       c=st.sampled_from([0.0, 0.5, 3.0]), batch_frac=st.floats(0.0, 1.0))
def test_steps_equal_parent_expressions(method, seed, n, d, lam, delta, beta,
                                        c, batch_frac):
    schedule = StepSchedule.harmonic(c)
    batch_size = max(1, round(batch_frac * n))
    prm = params(lam=lam, delta=delta, beta=beta, sigma=1e-4,
                 schedule=schedule, batch_size=batch_size)
    step = {"escbo": escbo_step, "vanilla": vanilla_cbo_step,
            "fescbo": fescbo_step}[method]
    obj = Objective(d, rastrigin)
    ref_obj = Objective(d, rastrigin)
    rng, ref_rng = RngStream(seed), RngStream(seed)
    state = init_swarm(UniformBox(-5, 5), n, obj, rng)
    ref = init_swarm(UniformBox(-5, 5), n, ref_obj, ref_rng)
    for _ in range(4):
        state = step(state, obj, prm, rng)
        new, values = reference_step(ref, ref_obj, prm, schedule, ref_rng,
                                     method, batch_size)
        ref = SwarmState(new, values, ref.k + 1)
        assert state.k == ref.k
        assert state.positions.tobytes() == ref.positions.tobytes()
        assert state.values.tobytes() == ref.values.tobytes()
        assert obj.eval_count == ref_obj.eval_count


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(["escbo", "vanilla", "fescbo"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       d=st.integers(1, 4), data=st.data())
def test_steps_evaluate_fewer_rows_than_they_charge(method, seed, n, d, data):
    # The gradient base f(x_i) is charged, but read from state.values.
    b = data.draw(st.integers(1, n), label="batch_size")
    rows = []

    def fn(x):
        rows.append(len(x))
        return rastrigin(x)

    obj = Objective(d, fn)
    rng = RngStream(seed)
    state = init_swarm(UniformBox(-5, 5), n, obj, rng)
    prm = params(sigma=1e-4, schedule=StepSchedule.geometric(0.5, 0.9),
                 batch_size=b)
    step = {"escbo": escbo_step, "vanilla": vanilla_cbo_step,
            "fescbo": fescbo_step}[method]
    physical = {"escbo": n * (d + 1), "vanilla": n, "fescbo": b * d + n}
    charged = {"escbo": n * (d + 2), "vanilla": n,
               "fescbo": b * (d + 1) + n}
    for _ in range(3):
        rows.clear()
        count = obj.eval_count
        state = step(state, obj, prm, rng)
        assert sum(rows) == physical[method]
        assert obj.eval_count - count == charged[method]


def test_step_divergence_reports_iteration_and_particle():
    obj = sphere(2)
    state = make_state(np.ones((3, 2)), obj)
    huge = params(lam=0.0, delta=0.0, schedule=StepSchedule.constant(1e300))
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
        state = escbo_step(state, obj, huge, RngStream(0))
        escbo_step(state, obj, huge, RngStream(0))
    assert err.value.iteration in (1, 2)
    assert 0 <= err.value.particle < 3


def test_trajectory_determinism():
    def run():
        obj = Objective(2, rastrigin)
        rng = RngStream(123)
        state = init_swarm(UniformBox(-5, 5), 15, obj, rng)
        cfg = params(beta=1e6, schedule=StepSchedule.geometric(1.0, 0.95),
                     batch_size=6)
        for _ in range(30):
            state = fescbo_step(state, obj, cfg, rng)
        return state.positions
    np.testing.assert_array_equal(run(), run())


def test_coupling_identity_small():
    # With no gradient step, pairwise coordinate differences contract by the
    # shared factor (1 - lam - eta_l) exactly, to rounding error.
    gen = np.random.default_rng(10)
    for trial in range(100):
        n, d = 5, 3
        pts = gen.uniform(-5, 5, size=(n, d))
        lam, delta = gen.uniform(0, 1.5), gen.uniform(0, 0.5)
        obj = sphere(d)
        state = make_state(pts, obj)
        rng = RngStream(trial)
        eta = RngStream(trial).stream("noise").normal(0.0, delta, size=d)
        new = vanilla_cbo_step(state, obj,
                               params(lam=lam, delta=delta, beta=3.0), rng)
        factor = (1.0 - lam) - eta
        scale = np.abs(pts).max() * (1.0 + np.abs(factor).max())
        tol = 4 * np.spacing(scale)
        for i in range(n):
            for j in range(i + 1, n):
                lhs = new.positions[i] - new.positions[j]
                rhs = factor * (pts[i] - pts[j])
                assert np.all(np.abs(lhs - rhs) <= tol)


@settings(max_examples=100)
@given(pts=swarms(max_n=8), lam=st.floats(0.0, 1.5),
       delta=st.floats(0.0, 0.5), beta=st.floats(0.0, 1e20, exclude_min=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coupling_identity_property(pts, lam, delta, beta, seed):
    # x_i' - x_j' = (1 - lam - eta) * (x_i - x_j) coordinate-wise, to a
    # rounding error of a few ulps of the largest term involved.
    n, d = pts.shape
    obj = sphere(d)
    new = vanilla_cbo_step(make_state(pts, obj), obj,
                           params(lam=lam, delta=delta, beta=beta),
                           RngStream(seed))
    factor = (1.0 - lam) - draw_noise(delta, d, RngStream(seed))
    tol = 32 * np.spacing(np.abs(pts).max() * (1.0 + np.abs(factor).max()))
    lhs = new.positions[:, None, :] - new.positions[None, :, :]
    rhs = factor * (pts[:, None, :] - pts[None, :, :])
    assert np.all(np.abs(lhs - rhs) <= tol)


# Python function calls ("call" profile events) and builtin calls ("c_call")
# of one step and its stop test.  The counts are exact and do not depend on
# N or d; numpy's ufuncs raise no event, so this is the per-call layering
# around the array work, which no timing on a noisy host can see.  A change
# that raises a budget says why, with a paired timing of the step.
CALL_BUDGETS = {"escbo": (54, 26), "vanilla": (33, 12), "fescbo": (131, 100)}
STEPPERS = {"escbo": escbo_step, "vanilla": vanilla_cbo_step,
            "fescbo": fescbo_step}


@pytest.mark.parametrize("method", sorted(CALL_BUDGETS))
def test_step_stays_within_its_call_budget(method):
    if method == "fescbo":
        arch = MLPArchitecture((2, 3, 1))
        obj = dnn_objective(arch, generate_synthetic(arch, 0))
        cfg = ExperimentConfig(method=method, benchmark="dnn", arch=(2, 3, 1),
                               particles=10, batch_size=3)
    else:
        obj = lookup("rastrigin", 2).objective
        cfg = ExperimentConfig(method=method, dim=2, particles=20)
    step, rng = STEPPERS[method], RngStream(0)
    state = init_swarm(UniformBox(-5.0, 5.0), cfg.particles, obj, rng)
    # The second step is counted: the first has made the random streams
    # and filled the interval cache of objective._check.
    nxt = step(state, obj, cfg, rng)
    check_stop(state, nxt, cfg.stop_tol)
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1

    sys.setprofile(count)
    try:
        check_stop(nxt, step(nxt, obj, cfg, rng), cfg.stop_tol)
    finally:
        sys.setprofile(None)
    calls, c_calls = CALL_BUDGETS[method]
    assert counts["call"] <= calls and counts["c_call"] <= c_calls, counts


# ------------------------------------------------------------- stopping

def test_check_stop_identical_states():
    obj = sphere(2)
    prev = make_state(np.ones((3, 2)), obj)
    nxt = SwarmState(prev.positions.copy(), prev.values.copy(), 1)
    assert check_stop(prev, nxt, 1e-6)


def test_check_stop_large_move_fails():
    obj = sphere(2)
    prev = make_state(np.zeros((2, 2)), obj)
    moved = prev.positions.copy()
    moved[0, 0] += 1.0
    nxt = SwarmState(moved, obj.eval_many(moved), 1)
    assert not check_stop(prev, nxt, 1e-6)


def test_check_stop_ratio_rule():
    # dx = 1e-7 and df = 1e-14 per particle: both maxima within 1e-6.
    prev = SwarmState(np.zeros((3, 1)), np.zeros(3), 0)
    nxt = SwarmState(np.full((3, 1), 1e-7), np.full(3, 1e-14), 1)
    assert check_stop(prev, nxt, 1e-6)
    worse = SwarmState(np.full((3, 1), 1e-7), np.full(3, 1e-12), 1)
    assert not check_stop(prev, worse, 1e-6)


def check_stop_reference(prev, nxt, tol):
    dx = np.linalg.norm(nxt.positions - prev.positions, axis=1)
    if dx.max() > tol:
        return False
    df = np.abs(nxt.values - prev.values)
    moved = dx > 0
    ratios = np.zeros_like(dx)
    ratios[moved] = df[moved] / dx[moved]
    return bool(ratios.max() <= tol)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       d=st.integers(1, 12), move=st.floats(1e-12, 1.0),
       fscale=st.floats(0.0, 10.0), still=st.integers(0, 30),
       tol_rule=st.sampled_from(["dx", "ratio", "free"]),
       tol=st.floats(1e-12, 1.0))
def test_check_stop_equals_norm_reference(seed, n, d, move, fscale, still,
                                          tol_rule, tol):
    gen = np.random.default_rng(seed)
    before = gen.normal(size=(n, d))
    after = before + move * gen.normal(size=(n, d))
    after[:still] = before[:still]
    values = gen.normal(size=n)
    if tol_rule == "dx":
        fscale = 0.0  # only the distance test decides
    prev = SwarmState(before, values, 0)
    nxt = SwarmState(after, values + fscale * move * gen.normal(size=n), 1)
    # Put tol exactly on a reference maximum, where one ulp decides.
    dx = np.linalg.norm(after - before, axis=1)
    if tol_rule == "dx":
        tol = float(dx.max())
    elif tol_rule == "ratio" and np.any(dx > 0):
        tol = float(np.max(np.abs(nxt.values - values)[dx > 0] / dx[dx > 0]))
    assert check_stop(prev, nxt, tol) == check_stop_reference(prev, nxt, tol)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       d=st.integers(1, 12),
       move=st.sampled_from([1e-170, 1e-160, 2.0 ** -511, 1e-154, 1e-150]),
       special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
                        max_size=3),
       fscale=st.sampled_from([0.0, 1.0]), tol_rule=st.booleans(),
       tol=st.floats(0.0, 1e-154))
def test_check_stop_equals_norm_reference_where_squares_underflow(
        seed, n, d, move, special, fscale, tol_rule, tol):
    # Displacements near 2**-511, where x*x leaves the normal range, and
    # single displacements of nan, +-inf and -0.0 (a move from +0.0 to -0.0).
    gen = np.random.default_rng(seed)
    before = move * gen.normal(size=(n, d))
    after = before + move * gen.normal(size=(n, d))
    for value in special:
        i, j = gen.integers(n), gen.integers(d)
        before[i, j] = 0.0
        after[i, j] = value
    values = gen.normal(size=n)
    prev = SwarmState(before, values, 0)
    nxt = SwarmState(after, values + fscale * move * gen.normal(size=n), 1)
    if tol_rule:   # tol exactly on the reference's largest distance
        dx = np.linalg.norm(after - before, axis=1)
        tol = float(np.nan_to_num(dx.max(), nan=0.0, posinf=0.0))
    assert check_stop(prev, nxt, tol) == check_stop_reference(prev, nxt, tol)


def test_check_stop_requires_consecutive():
    prev = SwarmState(np.zeros((2, 1)), np.zeros(2), 0)
    nxt = SwarmState(np.zeros((2, 1)), np.zeros(2), 2)
    with pytest.raises(ConfigurationError):
        check_stop(prev, nxt, 1e-6)


# ------------------------------------------------------------- diameter

def test_swarm_diameter_matches_bruteforce():
    gen = np.random.default_rng(12)
    for n in (2, 10, 64, 100, 300):
        pts = gen.normal(size=(n, 3)) * 4
        brute = max(
            float(np.sum((pts[i] - pts[j]) ** 2))
            for i in range(n) for j in range(i + 1, n))
        assert abs(swarm_diameter(pts) - brute) <= 1e-9 * max(1.0, brute)
    assert swarm_diameter(np.zeros((1, 4))) == 0.0


def gram_reference(pts):
    # The Gram form of the offsets from particle 0, rounded as written.
    y = pts - pts[0]
    sq = np.einsum("ij,ij->i", y, y)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    return float(d2.max())


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3),
       sizes=st.lists(st.integers(65, 220), min_size=1, max_size=3))
def test_gram_diameter_equals_reference(seed, d, scale, shift, sizes):
    gen = np.random.default_rng(seed)
    pts = shift + scale * gen.normal(size=(220, d))
    # Alternating sizes replace the kept work arrays between calls.
    for n in sizes + [180, 200, 180]:
        swarm = pts[:n]
        value = swarm_diameter(swarm)
        assert value == gram_reference(swarm)
        offsets = swarm - swarm[0]
        sq_max = float(np.einsum("ij,ij->i", offsets, offsets).max())
        eps = np.finfo(float).eps
        assert abs(value - exact_diameter(swarm)) <= 16 * (d + 2) * eps * sq_max


def exact_diameter(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.einsum("ijk,ijk->ij", diff, diff).max())


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 6, 10, 71]),
       spread=st.floats(-10.0, 3.0).map(lambda e: 10.0 ** e),
       shift=st.floats(-1e3, 1e3),
       sizes=st.lists(st.integers(2, 200), min_size=1, max_size=3))
def test_swarm_diameter_equals_exact_pairwise_differences(seed, d, spread,
                                                          shift, sizes):
    gen = np.random.default_rng(seed)
    pts = shift + spread * gen.normal(size=(200, d))
    # Sizes on both sides of 64, alternating, so that the kept work arrays
    # are replaced between calls.
    for n in sizes + [20, 120, 2, 65]:
        exact = exact_diameter(pts[:n])
        assert abs(swarm_diameter(pts[:n]) - exact) <= 1e-12 * exact
    assert swarm_diameter(pts[:1]) == 0.0


@pytest.mark.parametrize("n", [20, 100])
def test_swarm_diameter_near_and_past_overflow(n):
    rec = run_once(ExperimentConfig(init=UniformBox(-1e200, 1e200),
                                    particles=n, runs=1, max_iters=5), 0)
    assert rec.terminated_by == "divergence"
    assert rec.diameter.tolist() == [np.inf]
    assert swarm_diameter(rec.final_positions) == np.inf
    # Squared offsets above 2**1021, where sq_i + sq_j overflows unscaled,
    # and a finite diameter.
    pts = np.random.default_rng(n).uniform(-5e153, 5e153, size=(n, 1))
    assert np.max((pts - pts[0]) ** 2) > 2.0 ** 1021
    exact = exact_diameter(pts)
    assert abs(swarm_diameter(pts) - exact) <= 1e-12 * exact < np.inf


def test_converged_table3_schaffer4_run_reports_its_diameter():
    # The table-3 schaffer4 row (escbo, N = 120, uniform on [-3, 3]) at
    # scale 0.3, seed 0: the swarm converges near (0, -1.2531), away from
    # the origin, where an unanchored Gram form reads rounding noise.
    cfg = next(c for c in table_preset("table3", 0.3)
               if c.benchmark == "schaffer4" and c.method == "escbo"
               and str(c.init) == "uniform[-3.0,3.0]")
    rec = run_once(cfg, cfg.seed)
    exact = exact_diameter(rec.final_positions)
    assert 0.0 < exact < 1e-15
    assert abs(rec.diameter[-1] - exact) <= 0.01 * exact


def test_empirical_consensus_decay_and_bound():
    # lam=0.75, delta=0.25 with a summable schedule: the averaged diameter
    # decays exponentially and stays below the product bound at every
    # checkpoint.
    from escbo.theory import consensus_bound_series
    from escbo.objective import gradient_bounds
    lam, delta, sigma, L_f = 0.75, 0.25, 0.1, 52.0
    sched = StepSchedule.geometric(0.1, 0.5)
    k_max, n_runs = 80, 30
    diam = np.zeros((n_runs, k_max + 1))
    for run in range(n_runs):
        obj = Objective(2, rastrigin)
        rng = RngStream(run)
        state = init_swarm(UniformBox(-5, 5), 10, obj, rng)
        diam[run, 0] = swarm_diameter(state.positions)
        p = params(lam=lam, delta=delta, beta=50.0, sigma=sigma,
                   schedule=sched)
        for k in range(1, k_max + 1):
            state = escbo_step(state, obj, p, rng)
            diam[run, k] = swarm_diameter(state.positions)
    mean = diam.mean(axis=0)
    lb = gradient_bounds(L_f, 2, sigma)
    bound = consensus_bound_series(k_max, lam, delta, sched, lb.L_g,
                                   mean[0] / 2.0)
    assert np.all(mean <= bound)
    ks = np.arange(k_max + 1)
    keep = (ks >= 15) & (mean > 0)
    slope = np.polyfit(ks[keep], np.log(mean[keep]), 1)[0]
    assert slope < 0


# ----------------------------------------------------- non-finite inputs

def trap(x):
    # max_l x_l, but inf wherever a coordinate is exactly 1.0.  It passes
    # nan, inf and huge values through without a floating-point warning.
    return np.where((x == 1.0).any(axis=-1), np.inf, x.max(axis=-1))


BASE = np.array([[0.0, -1.0], [-2.0, 0.0], [-1.0, -3.0], [-0.5, -2.0]])
HUGE = 1.5e308  # finite, but the sum of two overflows
HUGE_X = np.column_stack([np.full(4, HUGE), BASE[:, 1]])  # trap gives HUGE


def with_entry(index, value, arr=BASE):
    out = arr.copy()
    out[index] = value
    return out


def outcome(call):
    """The error a call raises, by type and location, or None.

    Any warning fails the call: an alternative check order that computes
    inf - inf or a sum of huge values before checking would warn here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except (EstimationError, DivergenceError, ConfigurationError) as exc:
            return (type(exc).__name__, getattr(exc, "particle", None),
                    getattr(exc, "coordinate", None),
                    getattr(exc, "iteration", None))
    return None


def est(particle, coordinate=None):
    return ("EstimationError", particle, coordinate, None)


# (positions, batch, outcome); sigma = 0.25, so 0.75 probes onto the trap.
GRADIENT_CASES = [
    (with_entry((2, 0), np.nan), None, est(2)),
    (with_entry((2, 0), np.nan), [3, 2, 1, 0], est(2)),
    (with_entry((2, 0), np.nan), [0, 1], None),
    (with_entry((1, 0), np.inf), None, est(1)),   # inf - inf if unchecked
    (with_entry((1, 0), np.inf), np.array([1, 3]), est(1)),
    (with_entry((3, 1), -np.inf), None, None),
    (with_entry((0, 1), 0.75), None, est(0, 1)),
    (with_entry((0, 1), 0.75), [2, 0], est(0, 1)),
    (HUGE_X, None, None),
]


@pytest.mark.parametrize("positions,batch,expected", GRADIENT_CASES)
def test_minibatch_non_finite_errors_without_warnings(positions, batch,
                                                      expected):
    obj = Objective(2, trap)
    assert outcome(lambda: minibatch_gradients(
        obj, positions, batch, 0.25)) == expected


ON_TRAP = np.array([[0.5, 0.0], [1.5, 0.0], [0.5, 0.0], [1.5, 0.0]])
VALUES = np.array([0.0, 0.0, -1.0, -0.5])
CONFIG_ERROR = ("ConfigurationError", None, None, None)
DIVERGED_4_0 = ("DivergenceError", 0, None, 4)

# (positions, values, lam, delta, beta, alpha, outcome by escbo, vanilla,
# fescbo with a full batch).  The gradient steppers read their base values
# from the state, so ``values`` is trap(positions), apart from the three
# rows that test the check of the cached values.
STEP_CASES = [
    # A nan or inf position has a nan or inf value: the consensus point
    # rejects the state before any arithmetic on it.
    (with_entry((2, 0), np.nan), trap(with_entry((2, 0), np.nan)), 0.5, 0.1,
     1e20, 0.25, (CONFIG_ERROR,) * 3),
    (with_entry((1, 0), np.inf), trap(with_entry((1, 0), np.inf)), 0.5, 0.1,
     1e20, 0.25, (CONFIG_ERROR,) * 3),
    (BASE, with_entry(3, np.nan, VALUES), 0.5, 0.1, 1e20, 0.25,
     (CONFIG_ERROR,) * 3),
    (BASE, with_entry(3, np.inf, VALUES), 0.5, 0.1, 1e20, 0.25,
     (CONFIG_ERROR,) * 3),
    (BASE, with_entry(0, -np.inf, VALUES), 0.5, 0.1, 1e20, 0.25,
     (CONFIG_ERROR,) * 3),
    (HUGE_X, trap(HUGE_X), 0.5, 0.1, 1e20, 0.25, (None,) * 3),
    # Full contraction onto the swarm mean, which is on the trap.
    (ON_TRAP, trap(ON_TRAP), 1.0, 0.0, 1e-300, 0.0, (DIVERGED_4_0,) * 3),
]


@pytest.mark.parametrize("positions,values,lam,delta,beta,alpha,expected",
                         STEP_CASES)
def test_steps_non_finite_errors_without_warnings(positions, values, lam,
                                                  delta, beta, alpha,
                                                  expected):
    prm = params(lam=lam, delta=delta, beta=beta, sigma=0.25,
                 schedule=StepSchedule.constant(alpha), batch_size=4)
    state = SwarmState(positions, values, 3)
    obj = Objective(2, trap)
    steps = (lambda: escbo_step(state, obj, prm, RngStream(0)),
             lambda: vanilla_cbo_step(state, obj, prm, RngStream(0)),
             lambda: fescbo_step(state, obj, prm, RngStream(0)))
    for step, want in zip(steps, expected):
        assert outcome(step) == want
    consensus = CONFIG_ERROR if CONFIG_ERROR in expected else None
    assert outcome(lambda: consensus_point(state, beta)) == consensus


@pytest.mark.parametrize("after,values_after", [
    (with_entry((2, 0), np.nan, BASE + 1e-3), trap(BASE + 1e-3)),
    (with_entry((1, 1), np.inf, BASE + 1e-3), trap(BASE + 1e-3)),
    (with_entry((1, 1), -np.inf, BASE + 1e-3), trap(BASE + 1e-3)),
    (BASE + 1e-9, with_entry(0, np.inf, trap(BASE))),
    (BASE + 1e-9, with_entry(0, np.nan, trap(BASE))),
    (BASE, trap(BASE)),
])
@pytest.mark.parametrize("values_before", ["trap", "huge"])
def test_check_stop_non_finite_without_warnings(after, values_after,
                                                values_before):
    before = trap(BASE) if values_before == "trap" else np.full(4, HUGE)
    if values_before == "huge":
        values_after = np.where(np.isfinite(values_after), HUGE,
                                values_after)
    prev, nxt = SwarmState(BASE, before, 0), SwarmState(after, values_after, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (0.0, 1e-6, 1.0):
            assert check_stop(prev, nxt, tol) == \
                check_stop_reference(prev, nxt, tol)
