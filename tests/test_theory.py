"""Conditions, contraction bounds, softmin estimates, and the growth machinery."""

import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escbo.benchmarks import rastrigin1d
from escbo.objective import ConfigurationError
from escbo.swarm import StepSchedule
from escbo.theory import (GrowthConditionParams, ParameterConditionWarning,
                          _ball_offsets, check_consensus_condition,
                          check_error_bound_condition, consensus_bound_series,
                          consensus_distance_bound, contraction_constants,
                          error_budget, growth_margin, growth_radius,
                          iteration_budget, laplace_value, max_on_ball,
                          perturbation_series)

from conftest import not_real

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
    assert consensus_bound_series(0, 0.3, 0.1, GEO, 5.0, 1.0)[-1] == 2.0


def test_consensus_bound_zero_factor():
    assert consensus_bound_series(1, 1.0, 0.0, ZERO, 5.0, 1.0)[-1] == 0.0


def test_consensus_bound_hand_product():
    # Each factor is 2 * 0.125 = 0.25, so k = 3 gives 2 * 0.25^3.
    val = consensus_bound_series(3, 0.75, 0.25, ZERO, 5.0, 1.0)[-1]
    assert val == pytest.approx(0.03125, rel=1e-12)


def test_consensus_bound_series_matches_power_form():
    lam, delta = 0.8, 0.2
    factor = 2 * ((1 - lam) ** 2 + delta ** 2)
    series = consensus_bound_series(6, lam, delta, ZERO, 3.0, 2.5)
    expected = [2 * 2.5 * factor ** k for k in range(7)]
    np.testing.assert_allclose(series, expected, rtol=1e-12)


def test_consensus_bound_rejects_negative_variance():
    with pytest.raises(ConfigurationError):
        consensus_bound_series(2, 0.75, 0.25, GEO, 1.0, -1.0)


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


def test_perturbation_series_of_a_collapsed_swarm_sums_the_steps():
    # var_init = 0 keeps every B_n at 0 although the factors overflow, so the
    # series is sum_n 0.99^n = 100.
    val = perturbation_series(0.9, 0.1, StepSchedule.geometric(1.0, 0.99),
                              1e3, 1.0, 0.0)
    assert val == pytest.approx(100.0, rel=1e-9)


@pytest.mark.parametrize("lam, delta, schedule, reference", [
    # (1-lam)^2 + delta^2 = 0.4999 and 0.4997: sqrt(B_n) shrinks by 0.9999
    # and 0.9997 a term once the steps have settled.
    (0.5, 0.2499 ** 0.5, StepSchedule.geometric(0.1, 0.5),
     14328.513340558582),
    (0.5, 0.2497 ** 0.5, StepSchedule.geometric(0.1, 0.5), 4774.879403876729),
    # The steps shrink by 0.9999 a term; they sum to 1000.
    (0.75, 0.25, StepSchedule.geometric(0.1, 0.9999), 1002.9438929666352),
])
def test_perturbation_series_of_slow_series(lam, delta, schedule, reference):
    # Each reference is a math.fsum of the first 2,000,000 terms
    # (lam+delta) sqrt(B_n) + alpha_n of theory._bounds, at L_g = M_g =
    # var_init = 1.
    val = perturbation_series(lam, delta, schedule, 1.0, 1.0, 1.0)
    assert val == pytest.approx(reference, rel=1e-11)


def test_consensus_bound_series_of_a_collapsed_swarm_is_zero():
    series = consensus_bound_series(50, 0.0, 2.0, StepSchedule.constant(3.0),
                                    1e200, 0.0)
    assert np.array_equal(series, np.zeros(51))


def test_overflowing_bounds_read_inf():
    series = consensus_bound_series(3, 0.5, 0.1, GEO, 1e200, 1.0)
    assert series[0] == 2.0 and np.all(series[1:] == math.inf)
    res = check_error_bound_condition(10.0, 0.9, 0.1,
                                      StepSchedule.geometric(1.0, 0.99), 1e200,
                                      1.0, 0.5, [0.0, 1.0], 0.0, 2, 1e-5)
    assert res.c3 == math.inf and res.satisfied is False


def test_perturbation_series_rejects_divergent_setup():
    with pytest.raises(ConfigurationError):
        perturbation_series(0.01, 0.1, GEO, 2.0, 1.5, 1.0)
    with pytest.raises(ConfigurationError):
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
    with pytest.raises(ConfigurationError):
        contraction_constants(0.0, 0.0, 0.5)
    with pytest.raises(ConfigurationError):
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


@pytest.mark.parametrize("W0, eps, gamma, k", [
    (1e300, 1e-300, 0.5, 1994), (1e200, 1e-200, 0.5, 1329),
    (1e300, 1e-20, 0.5, 1064), (1.0, 5e-324, 0.9, 7066),
    # The float 0.1 lies above 1/10, so 0.1^3 * 1000 > 1: k is 4, not 3.
    (1000.0, 1.0, 0.1, 4)])
def test_iteration_budget_exact_values(W0, eps, gamma, k):
    assert iteration_budget(W0, eps, gamma) == k
    w, e, g = Fraction(W0), Fraction(eps), Fraction(gamma)
    assert g ** k * w <= e < g ** (k - 1) * w


def test_iteration_budget_near_one_agrees_with_sixty_digit_logs():
    # gamma^k would hold about 53 * 7e11 bits here; the bracket never forms
    # it.  Correctly rounded 60-digit logs decide both sides of the answer.
    gamma = 1.0 - 1e-9
    k = iteration_budget(1.0, 1e-300, gamma)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        step, target = Decimal(gamma).ln(), Decimal(1e-300).ln()
        assert k * step <= target < (k - 1) * step


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


def test_contraction_constants_overflow_is_a_core_that_is_not_positive():
    for lam, delta in [(1e200, 0.1), (0.5, 1e160), (1.7e308, 0.0)]:
        with pytest.raises(ConfigurationError, match="got -inf"):
            contraction_constants(lam, delta)


def test_condition_overflow_reads_inf():
    with pytest.warns(ParameterConditionWarning):
        cond = check_consensus_condition(1e200, 0.1,
                                          StepSchedule.geometric(1.0, 0.99))
    assert cond.value == math.inf and not cond.satisfied


# -------------------------------------------------------------- growth

def test_growth_margin_overflow_is_above_f_inf():
    assert growth_margin(GrowthConditionParams(1.0, 1.0, 0.5, 1e200),
                         1.5) == 0.5


def test_growth_margin_hand_value():
    gcp = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(gcp, math.sqrt(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_growth_margin_saturation():
    gcp = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(gcp, 1e9) == 0.5
    tiny = GrowthConditionParams(f_inf=1e-9, R0=1.0, nu=0.5, mu=1.0)
    assert growth_margin(tiny, 1.0) == pytest.approx(5e-10)


def test_growth_params_validation():
    with pytest.raises(ConfigurationError):
        GrowthConditionParams(f_inf=0.0, R0=1.0, nu=0.5, mu=1.0)


GCP_1D = GrowthConditionParams(f_inf=1.0, R0=1.0, nu=0.5, mu=1.0)


def _fr_grid(r, resolution=1e-4):
    return max_on_ball(rastrigin1d, [0.0], r, resolution)


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
    with pytest.raises(ConfigurationError):
        consensus_distance_bound(pts, fvals, [0.0], 0.0, GCP_1D, r=0.05,
                                 q=0.1, beta=10.0, f_r=_fr_grid(0.05))
    near = np.zeros((4, 1))
    with pytest.raises(ConfigurationError):
        consensus_distance_bound(near, rastrigin1d(near), [0.0], 0.0,
                                 GCP_1D, r=0.05, q=2.0, beta=10.0,
                                 f_r=_fr_grid(0.05))
    with pytest.raises(ConfigurationError):
        consensus_distance_bound(near, rastrigin1d(near), [0.0], 0.0,
                                 GCP_1D, r=1.5, q=0.1, beta=10.0, f_r=1.0)


def test_distance_bound_overflow_reads_inf():
    res = consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0], [0.0], 0.0,
                                   GrowthConditionParams(1e200, 1.0, 2.0, 1.0),
                                   r=1.0, q=1e199, beta=1.0, f_r=0.0)
    assert res.bound == math.inf and res.holds


def test_distance_bound_needs_f_r_at_least_fstar():
    # f_r is a maximum over a ball that holds the minimizer; below fstar the
    # power of q + f_r - fstar would be complex.
    with pytest.raises(ConfigurationError, match="f_r must lie in"):
        consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0], [0.0], 0.0,
                                 GCP_1D, r=0.05, q=0.1, beta=10.0, f_r=-1.0)


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


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_laplace_and_budget_reject_beta_outside_the_reals_above_zero(beta):
    with pytest.raises(ConfigurationError, match="beta"):
        laplace_value(beta, [1.0, 2.0])
    with pytest.raises(ConfigurationError, match="beta"):
        error_budget(beta, 0.5, [1.0, 2.0], 0.0)


def test_laplace_value_of_a_gap_past_the_largest_float():
    assert laplace_value(1.0, [1e308, -1e308]) == -1e308 - math.log(0.5)


def test_laplace_validation():
    with pytest.raises(ConfigurationError):
        laplace_value(0.0, [1.0])
    with pytest.raises(ConfigurationError):
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
    with pytest.raises(ConfigurationError):
        error_budget(1.0, 0.0, [1.0], 0.0)
    with pytest.raises(ConfigurationError):
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


def test_error_bound_condition_on_the_log_scale_throughout():
    # beta * L_f * C3 underflows to 0 in floats, and the sample gap
    # overflows; neither may raise or warn.
    tiny = check_error_bound_condition(1e-200, 0.75, 0.25, GEO, 1e-200, 0.0,
                                       0.5, [0.0, 1.0], 0.0, 1, 0.1)
    assert tiny.satisfied is True and tiny.rhs_log < -1000
    wide = check_error_bound_condition(1.0, 0.75, 0.25, GEO, 1.0, 0.0, 0.5,
                                       [1e308, -1e308], 0.0, 1, 0.1)
    assert wide.satisfied is None


@pytest.mark.parametrize("beta, decided", [(720.0, True), (750.0, False)])
def test_error_bound_condition_unverifiable_where_exp_underflows(beta,
                                                                 decided):
    # exp(-720) = 2.0e-313 is a subnormal float; exp(-750) underflows to 0.
    res = check_error_bound_condition(beta, 0.75, 0.25, GEO, 2.0, 1.0, 0.5,
                                      [0.0, 1.0], 0.0, 1, 0.01)
    assert isinstance(res.satisfied, bool) if decided else (
        res.satisfied is None and "unverifiable" in res.note)


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
    # The grid 0, 0.3, 0.6, 0.9 ends at the rim 1, not at 1.2 outside it.
    assert max_on_ball(lambda p: p[:, 0], [0.0], 1.0, 0.3) == 1.0


def test_a_grid_past_1e7_points_is_rejected_before_it_is_made(monkeypatch):
    # 2e5 points a side in dimension 2, 4e10 in all: without the check the
    # grid would meet this arange, not the machine's memory.
    def forbidden(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "arange", forbidden)
    for call in (lambda: max_on_ball(np.sum, [0.0, 0.0], 1.0, 1e-5),
                 lambda: growth_radius(np.sum, [0.0, 0.0], 0.0, 0.5, 1.0,
                                       1e-5)):
        with pytest.raises(ConfigurationError, match="grid of 4e"):
            call()


# (d, radius, resolution) of every grid the other tests build, a
# subnormal radius and the largest one.
GRID_ARGUMENTS = [(1, 2.0, 1e-3), (2, 1.0, 5e-3), (1, 1.0, 1e-4),
                  (1, 1.0, 1e-3), (1, 1.0, 0.5), (1, 0.5, 0.5), (1, 1.0, 1.0),
                  (1, 1.0, 0.1), (1, 0.1, 0.1), (2, 1e160, 1e160),
                  (2, 5e-322, 3e-323), (1, 1e308, 3e306)]


@pytest.mark.parametrize("d, radius, resolution", GRID_ARGUMENTS, ids=str)
def test_ball_offsets_are_a_symmetric_grid_in_the_ball(d, radius,
                                                       resolution):
    off = _ball_offsets(d, radius, resolution)
    assert off.tobytes() == (0.0 - off[::-1]).tobytes()  # 0 - 0 is +0
    axes = {(0.0,) * d} | {tuple(sign * radius * (np.arange(d) == i))
                            for i in range(d) for sign in (-1.0, 1.0)}
    assert axes <= set(map(tuple, off))
    m, e = math.frexp(radius)
    unit = np.ldexp(off, -e)
    assert np.all(np.einsum("ij,ij->i", unit, unit) <= m * m)
    if d == 1:  # a rounded multiple of the step is an ulp of radius off
        gaps = np.diff(off[:, 0])
        assert np.all(gaps > 0.0)
        assert np.all(gaps <= resolution + 2.0 * np.spacing(radius))


def test_grid_search_reaches_the_float_maximum():
    assert max_on_ball(lambda p: p[:, 0], [0.0], 1e308, 1e308) == 1e308
    assert max_on_ball(lambda p: p[:, 1], [0.0, 0.0], 1e308, 1e308) == 1e308
    assert growth_radius(lambda p: np.zeros(len(p)), [0.0, 0.0], 0.0, 0.5,
                         1e308, 1e308) == 1e308


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


def test_growth_radius_stops_before_the_rim_point_that_breaks_q():
    assert growth_radius(lambda p: p[:, 0], [0.0], 0.0, 0.95, 1.0, 0.3) < 1.0


@pytest.mark.parametrize("d, sign", [(2, 1.0), (1, 1.0), (1, -1.0)])
def test_growth_radius_counts_every_point_of_a_radius(d, sign):
    # f(1, 0) = 1 > q in the 1-ball, so only the centre's radius 0 is left.
    assert growth_radius(lambda p: sign * p[:, 0], [0.0] * d, 0.0, 0.5, 1.0,
                         1.0) == 0.0


def test_growth_radius_of_a_gap_past_the_largest_float_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth_radius(lambda p: np.full(len(p), 1e308), [0.0], -1e308,
                             0.5, 1.0, 0.5) == 0.0


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2]), radius=st.floats(0.1, 10.0),
       per_step=st.floats(1.0, 6.0), fstar=st.integers(-2, 2),
       q=st.sampled_from([0.5, 1.0, 2.5]), data=st.data())
def test_growth_radius_is_its_definition_on_its_grid(d, radius, per_step,
                                                     fstar, q, data):
    off = _ball_offsets(d, radius, radius / per_step)
    radii = np.hypot.reduce(np.abs(off), axis=1)
    vals = np.array(data.draw(st.lists(
        st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, math.nan]),
        min_size=len(off), max_size=len(off))))
    within = [r for r in np.unique(radii)
              if np.all(vals[radii <= r] - fstar <= q)]
    expected = min(max(within, default=0.0), radius)
    got = growth_radius(lambda p: vals, [0.0] * d, fstar, q, radius,
                        radius / per_step)
    assert got == expected


# ------------------------------------- every public function, at extremes

BIG = st.floats(0.0, 1e200)
POSITIVE = st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)


def theory_calls(lam, delta, L_g, M_g, var_init, c, r, W0, eps, gamma,
                 samples):
    """A call of every public function of theory, on the given numbers."""
    schedule = StepSchedule.geometric(c, r)
    return [
        lambda: check_consensus_condition(lam, delta, schedule),
        lambda: consensus_bound_series(30, lam, delta, schedule, L_g,
                                       var_init),
        lambda: contraction_constants(lam, delta),
        lambda: iteration_budget(W0, eps, gamma),
        lambda: iteration_budget(W0, eps, contraction_constants(
            lam, delta).gamma),
        lambda: growth_margin(GrowthConditionParams(M_g, 1.0, r, L_g), c),
        lambda: consensus_distance_bound(
            np.zeros((2, 1)), [0.0, 0.0], [0.0], 0.0,
            GrowthConditionParams(M_g, 1.0, 1.0 / r, L_g), r=1.0,
            q=var_init, beta=c, f_r=0.0),
        lambda: laplace_value(L_g, samples),
        lambda: error_budget(L_g, r, samples, 0.0),
        lambda: max_on_ball(lambda p: var_init * p[:, 0], [0.0], 1.0, 0.5),
        lambda: growth_radius(lambda p: var_init * p[:, 0] ** 2, [0.0], 0.0,
                              M_g, 1.0, 0.5),
        lambda: perturbation_series(lam, delta, schedule, L_g, M_g, var_init),
        lambda: check_error_bound_condition(
            L_g, lam, delta, schedule, M_g, var_init, r, samples, 0.0, 2, r),
    ]


def theory_result(call):
    """repr of a call's value, or the name of its ConfigurationError."""
    try:
        return repr(call())
    except ConfigurationError:
        return "ConfigurationError"


@settings(max_examples=150, deadline=None)
@example(lam=1e200, delta=0.1, L_g=0.0, M_g=0.0, var_init=0.0, c=1.0, r=0.5,
         W0=1.0, eps=1.0, gamma=0.5, samples=[0.0])
@example(lam=1e300, delta=0.75, L_g=1e300, M_g=2.0, var_init=1.0, c=0.5,
         r=0.5, W0=1.0, eps=1.0, gamma=0.5, samples=[0.0, 1e300])
@given(lam=BIG, delta=BIG, L_g=BIG, M_g=BIG, var_init=BIG, c=BIG,
       r=st.floats(0.01, 0.99), W0=POSITIVE, eps=POSITIVE,
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       samples=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=4))
def test_theory_returns_a_value_or_a_configuration_error(
        lam, delta, L_g, M_g, var_init, c, r, W0, eps, gamma, samples):
    numbers = (lam, delta, L_g, M_g, var_init, c, r, W0, eps, gamma)
    calls = theory_calls(*numbers, samples)
    # numpy scalars give the very same values and errors, also no warning.
    numpy_calls = theory_calls(*map(np.float64, numbers), samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterConditionWarning)
        warnings.simplefilter("error", RuntimeWarning)
        for call, numpy_call in zip(calls, numpy_calls):
            assert theory_result(numpy_call) == theory_result(call)


def distance(positions=np.zeros((2, 1)), xstar=(0.0,)):
    return consensus_distance_bound(positions, [0.0, 0.0], xstar, 0.0, GCP_1D,
                                    r=0.05, q=0.1, beta=10.0, f_r=0.0)


# Each array input of the module, in a call that a valid value of it passes.
NOT_REAL = not_real({
    "distance-positions": (lambda a: distance(positions=a), np.zeros((2, 1))),
    "distance-xstar": (lambda a: distance(xstar=a), np.zeros(1)),
    "laplace-samples": (lambda a: laplace_value(1.0, a), np.zeros(2)),
    "budget-samples": (lambda a: error_budget(1.0, 0.5, a, 0.0), np.zeros(2)),
    "error-bound-samples": (lambda a: check_error_bound_condition(
        1.0, 0.5, 0.1, GEO, 1.0, 1.0, 0.5, a, 0.0, 1, 0.1), np.zeros(2)),
    "ball-center": (lambda a: max_on_ball(lambda p: p[:, 0], a, 1.0, 0.5),
                    np.zeros(1)),
    "growth-center": (lambda a: growth_radius(lambda p: p[:, 0], a, 0.0, 0.5,
                                              1.0, 0.5), np.zeros(1)),
})


@pytest.mark.parametrize("call, error", [
    # The steps shrink too slowly for f_n to settle within the term limit.
    (lambda: perturbation_series(0.5, 0.0, StepSchedule.geometric(
        0.5, 1 - 1e-9), 1.0, 1.0, 1.0), ConfigurationError),
    # core = 2e-17 > 0, but gamma = 1 - 1e-17 rounds to 1.
    (lambda: contraction_constants(1e-17, 0.0), ConfigurationError),
    (lambda: iteration_budget(0.0, 0.1, 0.5), ConfigurationError),
    (lambda: iteration_budget(1.0, 0.0, 0.5), ConfigurationError),
    (lambda: iteration_budget(1.0, 0.1, 1.0), ConfigurationError),
    (lambda: growth_margin(GCP_1D, 0.0), ConfigurationError),
    (lambda: consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0], [0.0],
                                      0.0, GCP_1D, r=0.05, q=0.0, beta=10.0,
                                      f_r=0.0), ConfigurationError),
    (lambda: laplace_value(1.0, [0.0, math.nan]), ConfigurationError),
    (lambda: check_error_bound_condition(
        1.0, 0.5, 0.1, GEO, 1.0, 1.0, 1.0, [0.0, 1.0], 0.0, 1, 0.1),
     ConfigurationError),
    (lambda: max_on_ball(np.sum, [0.0], 0.0), ConfigurationError),
    (lambda: max_on_ball(np.sum, [0.0], 1.0, resolution=2.0),
     ConfigurationError),
    (lambda: growth_radius(np.sum, [0.0], 0.0, 0.0, 1.0),
     ConfigurationError),
    (lambda: max_on_ball(np.sum, [math.nan], 1.0), ConfigurationError),
    (lambda: growth_radius(np.sum, [math.inf], 0.0, 0.5, 1.0),
     ConfigurationError),
    (lambda: consensus_distance_bound([[0.0], [math.nan]], [0.0, 0.0], [0.0],
                                      0.0, GCP_1D, r=0.05, q=0.1, beta=10.0,
                                      f_r=0.0), ConfigurationError),
    (lambda: consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0],
                                      [math.inf], 0.0, GCP_1D, r=0.05, q=0.1,
                                      beta=10.0, f_r=0.0), ConfigurationError),
    (lambda: consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0],
                                      [0.0, 0.0, 0.0], 0.0, GCP_1D, r=0.05,
                                      q=0.1, beta=10.0, f_r=0.0),
     ConfigurationError),
    (lambda: consensus_distance_bound(np.zeros((2, 1, 1)), [0.0, 0.0], [0.0],
                                      0.0, GCP_1D, r=0.05, q=0.1, beta=10.0,
                                      f_r=0.0), ConfigurationError),
    # A grid search is about one point: a center of one axis.
    (lambda: max_on_ball(lambda p: np.sum(p * p, axis=1), [[0.0, 0.0]], 1.0,
                         0.25), ConfigurationError),
    (lambda: growth_radius(lambda p: np.sum(p * p, axis=1), [[0.0, 0.0]],
                           0.0, 0.5, 1.0, 0.25), ConfigurationError),
    # fn's values are an array input too: one real value per point.
    (lambda: growth_radius(lambda p: p, [0.0], 0.0, 0.5, 1.0, 0.5),
     ConfigurationError),
    (lambda: max_on_ball(lambda p: np.full(len(p), "a"), [0.0], 1.0, 0.5),
     ConfigurationError),
    *((call, ConfigurationError) for call in NOT_REAL.values()),
], ids=["series-max-terms", "gamma-rounds-to-one", "budget-W0", "budget-eps",
        "budget-gamma", "margin-c4k", "distance-q", "laplace-nan",
        "error-bound-epsilon", "ball-radius", "ball-resolution",
        "growth-radius-q", "ball-center-nan", "growth-radius-center-inf",
        "distance-position-nan", "distance-xstar-inf",
        "distance-xstar-3-on-dim-1", "distance-positions-3-axes",
        "ball-center-2-axes", "growth-center-2-axes", "growth-fn-columns",
        "ball-fn-strings", *NOT_REAL])
def test_theory_validation_errors(call, error):
    with pytest.raises(error):
        call()


def test_a_non_finite_minimizer_is_named():
    # A non-finite xstar also leaves no particle within r of it; the error
    # names the input instead.
    with pytest.raises(ConfigurationError, match="xstar must be finite"):
        consensus_distance_bound(np.zeros((2, 1)), [0.0, 0.0], [math.nan],
                                 0.0, GCP_1D, r=0.05, q=0.1, beta=10.0,
                                 f_r=0.0)
