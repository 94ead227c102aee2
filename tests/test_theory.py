"""Conditions, contraction bounds, softmin estimates, and the growth machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escbo.benchmarks import rastrigin1d
from escbo.objective import ConfigurationError
from escbo.swarm import StepSchedule
from escbo.theory import (EmptyIndicatorError, GrowthConditionParams,
                          InvalidParametersError, ParameterConditionWarning,
                          check_consensus_condition,
                          check_error_bound_condition, consensus_bound,
                          consensus_bound_series, consensus_distance_bound,
                          contraction_constants, error_budget, growth_margin,
                          growth_radius, iteration_budget, laplace_value,
                          max_on_ball, perturbation_series)

GEO = StepSchedule.geometric(0.5, 0.5)
ZERO = StepSchedule.constant(0.0)


# ------------------------------------------------------------ condition

def test_condition_satisfied_case():
    cond = check_consensus_condition(0.75, 0.25, GEO)
    assert cond.value == pytest.approx(0.125)
    assert cond.satisfied and cond.schedule_summable is True


def test_condition_violated_warns():
    # (0.99)^2 + 0.01 = 0.9901; the often-used experimental setting violates
    # the condition yet works in practice, hence a warning rather than an
    # error.
    with pytest.warns(ParameterConditionWarning):
        cond = check_consensus_condition(0.01, 0.1, GEO)
    assert cond.value == pytest.approx(0.9901)
    assert not cond.satisfied


def test_condition_perfect_contraction():
    cond = check_consensus_condition(1.0, 0.0, ZERO)
    assert cond.value == 0.0 and cond.satisfied


# ------------------------------------------------------- contraction bound

def test_consensus_bound_empty_product():
    assert consensus_bound(0, 0.3, 0.1, GEO, 5.0, 1.0) == 2.0


def test_consensus_bound_zero_factor():
    assert consensus_bound(1, 1.0, 0.0, ZERO, 5.0, 1.0) == 0.0


def test_consensus_bound_hand_product():
    # Each factor is 2 * 0.125 = 0.25, so k = 3 gives 2 * 0.25^3.
    val = consensus_bound(3, 0.75, 0.25, ZERO, 5.0, 1.0)
    assert val == pytest.approx(0.03125, rel=1e-12)


def test_consensus_bound_series_matches_power_form():
    lam, delta = 0.8, 0.2
    factor = 2 * ((1 - lam) ** 2 + delta ** 2)
    series = consensus_bound_series(6, lam, delta, ZERO, 3.0, 2.5)
    expected = [2 * 2.5 * factor ** k for k in range(7)]
    np.testing.assert_allclose(series, expected, rtol=1e-12)


def test_consensus_bound_rejects_negative_variance():
    with pytest.raises(InvalidParametersError):
        consensus_bound(2, 0.75, 0.25, GEO, 1.0, -1.0)


# ------------------------------------------------------ perturbation series

def _series_oracle(lam, delta, sched, L_g, M_g, var, terms=400):
    total, prod = 0.0, 1.0
    for n in range(terms):
        total += (lam + delta) * math.sqrt(2 * prod * var) \
            + sched.alpha(n) * M_g
        prod *= 2 * ((1 - lam) ** 2 + delta ** 2 + sched.alpha(n) ** 2 * L_g ** 2)
    return total


def test_perturbation_series_matches_direct_summation():
    val = perturbation_series(0.75, 0.25, GEO, 2.0, 1.5, 0.33)
    oracle = _series_oracle(0.75, 0.25, GEO, 2.0, 1.5, 0.33)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_perturbation_series_zero_variance_zero_schedule():
    assert perturbation_series(1.0, 0.0, ZERO, 2.0, 1.5, 0.0) == 0.0


def test_perturbation_series_rejects_divergent_setup():
    with pytest.raises(InvalidParametersError):
        perturbation_series(0.01, 0.1, GEO, 2.0, 1.5, 1.0)
    with pytest.raises(InvalidParametersError):
        perturbation_series(0.75, 0.25, StepSchedule.harmonic(0.5), 2.0, 1.5,
                            1.0)


# ------------------------------------------------------- complexity constants

def test_contraction_constants_hand_values():
    # Independent evaluation: core = 0.375, gamma = 1 - 0.5 * 0.375, and
    # kappa = min(0.1875 / 5.5, sqrt(0.1875 / 4.25)).
    cc = contraction_constants(0.25, 0.0, 0.5)
    assert cc.gamma == pytest.approx(0.8125, abs=1e-15)
    first = 0.5 * 0.375 / (4 * (2 * 0.0625 + 0.25 + 1))
    second = math.sqrt(0.5 * 0.375 / (2 * (2 * 0.0625 + 2)))
    assert cc.kappa == pytest.approx(min(first, second), abs=1e-15)
    assert cc.kappa == pytest.approx(0.0340909, abs=1e-6)


def test_contraction_constants_gamma_limit():
    assert contraction_constants(0.5, 0.0, 0.999999).gamma \
        == pytest.approx(1.0, abs=1e-5)


def test_contraction_constants_rejects_boundary():
    with pytest.raises(InvalidParametersError):
        contraction_constants(0.0, 0.0, 0.5)
    with pytest.raises(InvalidParametersError):
        contraction_constants(0.25, 0.0, 1.0)


def test_gamma_monotonicity():
    for lam, delta in [(0.2, 0.1), (0.5, 0.0), (0.7, 0.2)]:
        gammas = [contraction_constants(lam, delta, xi).gamma
                  for xi in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
    # For fixed xi, gamma decreases as the contraction core grows.
    cores, gammas = [], []
    for lam in (0.1, 0.2, 0.3, 0.4, 0.5):
        cores.append(2 * lam - 2 * lam ** 2)
        gammas.append(contraction_constants(lam, 0.0, 0.5).gamma)
    order = np.argsort(cores)
    assert all(gammas[order[i]] > gammas[order[i + 1]]
               for i in range(len(order) - 1))


def test_iteration_budget_hand_value():
    assert iteration_budget(1.0, 0.01, 0.8125) == 23


def test_iteration_budget_boundaries():
    assert iteration_budget(1.0, 1.0, 0.5) == 0
    assert iteration_budget(1.0, 0.999999, 0.5) == 1
    assert iteration_budget(1.0, 0.01, 1e-9) == 1


def test_iteration_budget_definition_property():
    gen = np.random.default_rng(0)
    for _ in range(300):
        W0 = float(gen.uniform(0.1, 50))
        eps = float(gen.uniform(1e-6, 1.0) * W0)
        gamma = float(gen.uniform(0.05, 0.99))
        if eps >= W0:
            continue
        k = iteration_budget(W0, eps, gamma)
        assert gamma ** k * W0 <= eps
        assert k == 1 or gamma ** (k - 1) * W0 > eps


# -------------------------------------------------------------- growth

def test_growth_margin_hand_value():
    gcp = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(gcp, math.sqrt(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_growth_margin_saturation():
    gcp = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(gcp, 1e9) == 0.5
    tiny = GrowthConditionParams(f_inf=1e-9, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(tiny, 1.0) == pytest.approx(5e-10)


def test_growth_params_validation():
    with pytest.raises(InvalidParametersError):
        GrowthConditionParams(f_inf=0.0, R0=1.0, nu=0.5, mu=1.0)


GCP_1D = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)


def _fr_grid(r, resolution=1e-4):
    xs = np.arange(-r, r + resolution / 2, resolution)
    return float(np.max(rastrigin1d(xs[:, None])))


def test_distance_bound_degenerate_swarm():
    pts = np.zeros((6, 1))
    fvals = rastrigin1d(pts)
    res = consensus_distance_bound(pts, fvals, [0.0], 0.0, GCP_1D,
                                   r=0.05, q=0.1, beta=100.0,
                                   f_r=_fr_grid(0.05))
    assert res.holds and res.deviation == 0.0


def test_distance_bound_large_beta_limit():
    gen = np.random.default_rng(1)
    pts = np.concatenate([gen.uniform(-3, 3, size=(18, 1)),
                          gen.uniform(-0.04, 0.04, size=(2, 1))])
    fvals = rastrigin1d(pts)
    r, q = 0.05, 0.2
    f_r = _fr_grid(r)
    res = consensus_distance_bound(pts, fvals, [0.0], 0.0, GCP_1D, r=r, q=q,
                                   beta=1e20, f_r=f_r)
    first_term = (q + f_r) ** 0.5
    assert res.bound == pytest.approx(first_term, rel=1e-12)
    assert res.holds


def test_distance_bound_errors():
    pts = np.full((4, 1), 2.0)
    fvals = rastrigin1d(pts)
    with pytest.raises(EmptyIndicatorError):
        consensus_distance_bound(pts, fvals, [0.0], 0.0, GCP_1D, r=0.05,
                                 q=0.1, beta=10.0, f_r=_fr_grid(0.05))
    near = np.zeros((4, 1))
    with pytest.raises(InvalidParametersError):
        consensus_distance_bound(near, rastrigin1d(near), [0.0], 0.0,
                                 GCP_1D, r=0.05, q=2.0, beta=10.0,
                                 f_r=_fr_grid(0.05))
    with pytest.raises(InvalidParametersError):
        consensus_distance_bound(near, rastrigin1d(near), [0.0], 0.0,
                                 GCP_1D, r=1.5, q=0.1, beta=10.0, f_r=1.0)


@pytest.mark.parametrize("fvals", [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0],
                                   [0.0, math.nan]],
                         ids=["too-many", "too-many-best-last", "nan"])
def test_distance_bound_rejects_bad_values(fvals):
    with pytest.raises(ConfigurationError):
        consensus_distance_bound(np.zeros((2, 1)), fvals, [0.0], 0.0, GCP_1D,
                                 r=0.05, q=0.1, beta=10.0, f_r=_fr_grid(0.05))


def test_distance_bound_random_instances():
    gen = np.random.default_rng(2)
    betas = [1.0, 10.0, 1e3, 1e6, 1e20]
    for trial in range(40):
        r = float(gen.uniform(0.01, 0.07))
        f_r = _fr_grid(r)
        q = float(gen.uniform(0.1, 0.95)) * (1.0 - f_r)
        pts = np.concatenate([gen.uniform(-3, 3, size=(17, 1)),
                              gen.uniform(-r, r, size=(3, 1))])
        res = consensus_distance_bound(pts, rastrigin1d(pts), [0.0],
                                       0.0, GCP_1D, r=r, q=q,
                                       beta=betas[trial % 5], f_r=f_r)
        assert res.holds


# ------------------------------------------------------------- softmin value

def test_laplace_constant_samples():
    for beta in (0.5, 50.0, 1e20):
        assert laplace_value(beta, [3.25] * 8) == pytest.approx(3.25)


def test_laplace_small_beta_approaches_mean():
    samples = np.random.default_rng(3).uniform(0, 2, size=1000)
    assert laplace_value(1e-9, samples) == pytest.approx(samples.mean(),
                                                         rel=1e-6)


def test_laplace_sandwich_and_monotone():
    samples = np.random.default_rng(4).uniform(0, 5, size=200)
    prev = np.inf
    for beta in (0.1, 1.0, 10.0, 100.0, 1e4, 1e12, 1e20):
        val = laplace_value(beta, samples)
        assert samples.min() - 1e-12 <= val <= samples.mean() + 1e-12
        assert val <= prev + 1e-12
        prev = val


def test_laplace_validation():
    with pytest.raises(InvalidParametersError):
        laplace_value(0.0, [1.0])
    with pytest.raises(InvalidParametersError):
        laplace_value(1.0, [])


def test_error_budget_constant_at_minimum():
    vals = [2.0] * 16
    for beta in (1.0, 10.0, 1e4):
        budget = error_budget(beta, 0.5, vals, 2.0)
        assert budget == pytest.approx(-math.log(0.5) / beta)
        assert budget > 0


def test_error_budget_eps_one_is_pure_gap():
    samples = np.random.default_rng(5).uniform(0, 1, size=500)
    assert error_budget(10.0, 1.0, samples, 0.0) \
        == pytest.approx(laplace_value(10.0, samples))


def test_error_budget_validation():
    with pytest.raises(InvalidParametersError):
        error_budget(1.0, 0.0, [1.0], 0.0)
    with pytest.raises(InvalidParametersError):
        error_budget(1.0, 1.5, [1.0], 0.0)


# -------------------------------------------------- value-level condition

def test_error_bound_condition_dual_evaluation():
    # Two independent evaluations of the same inequality must agree: the
    # module's log-scale comparison versus a direct linear-scale one.
    gen = np.random.default_rng(6)
    samples = gen.uniform(-1, 1, size=20_000) ** 2
    lam, delta, L_f, var_init = 0.75, 0.25, 2.0, 1.0 / 3.0
    beta, eps, d, sigma = 10.0, 0.5, 1, 0.01
    sched = GEO
    res = check_error_bound_condition(beta, lam, delta, sched, L_f, var_init,
                                      eps, samples, 0.0, d, sigma)
    lhs_direct = (1 - eps) * float(np.mean(np.exp(-beta * samples)))
    M_g, L_g = math.sqrt(d) * L_f, 2 * math.sqrt(d) * L_f / sigma
    c3_direct = _series_oracle(lam, delta, sched, L_g, M_g, var_init)
    rhs_direct = beta * L_f * c3_direct * math.exp(-beta * 0.0)
    assert res.satisfied == (lhs_direct >= rhs_direct)
    assert res.lhs_log == pytest.approx(math.log(lhs_direct), rel=1e-9)
    assert res.rhs_log == pytest.approx(math.log(rhs_direct), rel=1e-9)


def test_error_bound_condition_degenerate_holds():
    res = check_error_bound_condition(5.0, 1.0, 0.0, ZERO, 1.0, 0.0, 0.5,
                                      [2.0] * 4, 2.0, 1, 0.1)
    assert res.satisfied is True and res.c3 == 0.0


def test_error_bound_condition_large_variance_fails():
    res = check_error_bound_condition(10.0, 0.75, 0.25, GEO, 2.0, 1e8, 0.5,
                                      np.random.default_rng(7).uniform(
                                          0, 1, 2000) ** 2,
                                      0.0, 1, 0.01)
    assert res.satisfied is False


def test_error_bound_condition_divergent_parameters():
    res = check_error_bound_condition(10.0, 0.01, 0.1, GEO, 2.0, 1.0, 0.5,
                                      [0.1, 0.2], 0.0, 1, 0.01)
    assert res.satisfied is False and "diverges" in res.note


def test_error_bound_condition_float_unverifiable():
    res = check_error_bound_condition(1e20, 0.75, 0.25, GEO, 2.0, 1.0, 0.5,
                                      [0.0, 0.5, 1.0], 0.0, 1, 0.01)
    assert res.satisfied is None
    assert "unverifiable" in res.note


# ------------------------------------------------------------ grid helpers

def test_max_on_ball_1d_and_2d():
    assert max_on_ball(lambda p: np.sum(p * p, axis=-1), [0.0], 2.0,
                       resolution=1e-3) == pytest.approx(4.0, abs=1e-2)
    assert max_on_ball(lambda p: np.sum(p * p, axis=-1), [0.0, 0.0], 1.0,
                       resolution=5e-3) == pytest.approx(1.0, abs=2e-2)
    with pytest.raises(ConfigurationError):
        max_on_ball(lambda p: np.sum(p, axis=-1), [0.0, 0.0, 0.0], 1.0)


def test_growth_radius_self_consistent():
    def kernel(p):
        return rastrigin1d(p)

    for q in (0.05, 0.2, 0.6):
        r = growth_radius(kernel, [0.0], 0.0, q, R0=1.0, resolution=1e-4)
        assert 0 < r < 1
        assert _fr_grid(r) <= q + 1e-9
        assert _fr_grid(min(r + 5e-3, 1.0)) > q


def test_growth_radius_is_zero_when_the_center_exceeds_q():
    # f - fstar = 1 > q already at the innermost grid point.
    assert growth_radius(lambda p: np.ones(len(p)), [0.0], 0.0, 0.5,
                         R0=1.0) == 0.0


# ------------------------------------------------- bound series, property

@settings(max_examples=60, deadline=None)
@given(k_max=st.integers(0, 120),
       lam=st.floats(0.0, 2.0), delta=st.floats(0.0, 2.0),
       kind=st.sampled_from(["constant", "geometric", "harmonic"]),
       c=st.floats(0.0, 3.0), r=st.floats(0.01, 0.99),
       L_g=st.floats(0.0, 100.0), var_init=st.floats(0.0, 1e3))
def test_consensus_bound_is_an_entry_of_the_series(k_max, lam, delta, kind, c,
                                                   r, L_g, var_init):
    schedule = StepSchedule(kind, c, r if kind == "geometric" else 0.0)
    series = consensus_bound_series(k_max, lam, delta, schedule, L_g,
                                    var_init)
    assert series.shape == (k_max + 1,)
    for k in range(k_max + 1):
        bound = consensus_bound(k, lam, delta, schedule, L_g, var_init)
        assert bound == series[k] or (math.isnan(bound)
                                      and math.isnan(series[k]))


@pytest.mark.parametrize("call, error", [
    (lambda: perturbation_series(0.5, 0.1, GEO, 1.0, 1.0, 1.0, max_terms=1),
     ArithmeticError),
    # core = 2e-17 > 0, but gamma = 1 - 1e-17 rounds to 1.
    (lambda: contraction_constants(1e-17, 0.0), InvalidParametersError),
    (lambda: iteration_budget(0.0, 0.1, 0.5), InvalidParametersError),
    (lambda: iteration_budget(1.0, 0.0, 0.5), InvalidParametersError),
    (lambda: iteration_budget(1.0, 0.1, 1.0), InvalidParametersError),
    (lambda: growth_margin(GCP_1D, 0.0), InvalidParametersError),
    (lambda: consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0], [0.0],
                                      0.0, GCP_1D, r=0.05, q=0.0, beta=10.0,
                                      f_r=0.0), InvalidParametersError),
    (lambda: laplace_value(1.0, [0.0, math.nan]), InvalidParametersError),
    (lambda: check_error_bound_condition(
        1.0, 0.5, 0.1, GEO, 1.0, 1.0, 1.0, [0.0, 1.0], 0.0, 1, 0.1),
     InvalidParametersError),
    (lambda: max_on_ball(np.sum, [0.0], 0.0), ConfigurationError),
    (lambda: max_on_ball(np.sum, [0.0], 1.0, resolution=2.0),
     ConfigurationError),
    (lambda: growth_radius(np.sum, [0.0], 0.0, 0.0, 1.0),
     ConfigurationError),
], ids=["series-max-terms", "gamma-rounds-to-one", "budget-W0", "budget-eps",
        "budget-gamma", "margin-c4k", "distance-q", "laplace-nan",
        "error-bound-epsilon", "ball-radius", "ball-resolution",
        "growth-radius-q"])
def test_theory_validation_errors(call, error):
    with pytest.raises(error):
        call()


def test_error_names_are_one_class():
    assert InvalidParametersError is EmptyIndicatorError is ConfigurationError
