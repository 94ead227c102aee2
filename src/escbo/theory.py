"""Computable parameter conditions, contraction bounds, and error estimates.

Everything here is a pure function of its inputs.  The bounds mirror the
quantities the steppers are known to satisfy: a per-iteration contraction
factor for pairwise particle distances, a summable perturbation series that
controls the drift of the value level, softmin (log-sum-exp) estimates of the
attained minimum, and an iteration budget for the mean squared distance to a
known minimizer under a local growth condition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .objective import ConfigurationError, _check, gradient_bounds
from .swarm import StepSchedule, SwarmState, consensus_point

__all__ = [
    "ComplexityConstants",
    "ConsensusCondition",
    "ErrorBoundCheck",
    "GrowthConditionParams",
    "ParameterConditionWarning",
    "ProximityResult",
    "check_consensus_condition",
    "check_error_bound_condition",
    "consensus_bound",
    "consensus_bound_series",
    "consensus_distance_bound",
    "contraction_constants",
    "error_budget",
    "growth_margin",
    "growth_radius",
    "iteration_budget",
    "laplace_value",
    "max_on_ball",
    "perturbation_series",
]


class ParameterConditionWarning(UserWarning):
    """The contraction condition on (lam, delta) is not satisfied."""


@dataclass(frozen=True)
class ConsensusCondition:
    """(1-lam)^2 + delta^2, whether it is below 1/2, and step summability."""

    value: float
    satisfied: bool
    schedule_summable: bool


def _consensus_value(lam: float, delta: float) -> float:
    _check("lam", lam, "[0, inf)")
    _check("delta", delta, "[0, inf)")
    return (1.0 - lam) ** 2 + delta ** 2


def check_consensus_condition(lam: float, delta: float,
                              schedule: StepSchedule) -> ConsensusCondition:
    """Evaluate the exponential-consensus parameter condition.

    Violations raise a warning rather than an error: in practice consensus
    often still emerges when (1-lam)^2 + delta^2 >= 1/2.
    """
    value = _consensus_value(lam, delta)
    satisfied = bool(value < 0.5)
    if not satisfied:
        warnings.warn(
            f"(1-lam)^2 + delta^2 = {value:.6g} >= 0.5: exponential consensus "
            "is not guaranteed for these parameters, though empirically the "
            "swarm often still reaches consensus.",
            ParameterConditionWarning, stacklevel=2)
    return ConsensusCondition(value=float(value), satisfied=satisfied,
                              schedule_summable=schedule.summable)


def _contraction_factor(value: float, alpha: float, L_g: float) -> float:
    return 2.0 * (value + alpha ** 2 * L_g ** 2)


def consensus_bound_series(k_max: int, lam: float, delta: float,
                           schedule: StepSchedule, L_g: float,
                           var_init: float) -> np.ndarray:
    """consensus_bound evaluated at every k in 0..k_max (inclusive).

    The running product of contraction factors; it may overflow to inf, which
    is a vacuous bound rather than an error.
    """
    _check("k_max", k_max, "[0, inf)", count=True)
    _check("L_g", L_g, "[0, inf)")
    _check("var_init", var_init, "[0, inf)")
    value = _consensus_value(lam, delta)
    factors = [_contraction_factor(value, schedule.alpha(n), L_g)
               for n in range(k_max)]
    with np.errstate(over="ignore"):
        return 2.0 * var_init * np.concatenate(([1.0], np.cumprod(factors)))


def consensus_bound(k: int, lam: float, delta: float, schedule: StepSchedule,
                    L_g: float, var_init: float) -> float:
    """Bound on the expected squared particle-to-consensus distance at step k.

    Returns 2 * prod_{n<k} factor_n * var_init; the empty product at k = 0
    gives 2 * var_init.
    """
    return float(consensus_bound_series(k, lam, delta, schedule, L_g,
                                        var_init)[-1])


def perturbation_series(lam: float, delta: float, schedule: StepSchedule,
                        L_g: float, M_g: float, var_init: float,
                        rtol: float = 1e-15, max_terms: int = 200_000) -> float:
    """Limit of sum_n [(lam+delta) sqrt(2 P_n var_init) + alpha_n M_g].

    P_n is the running product of contraction factors.  The series is summed
    until three consecutive terms fall below rtol times the partial sum; past
    that point both ingredients decay geometrically (sqrt(P_n) once the
    factors drop below one, alpha_n by schedule summability), so the
    discarded tail is below the same relative tolerance.  Finite only when
    the contraction condition holds and the schedule is summable.
    """
    _check("L_g", L_g, "[0, inf)")
    _check("M_g", M_g, "[0, inf)")
    _check("var_init", var_init, "[0, inf)")
    _check("rtol", rtol, "(0, inf)")
    _check("max_terms", max_terms, "[1, inf)", count=True)
    value = _consensus_value(lam, delta)
    if not (value < 0.5 and schedule.summable):
        raise ConfigurationError(
            "perturbation series diverges: needs (1-lam)^2 + delta^2 < 1/2 "
            "and a summable step schedule")
    total = 0.0
    prod = 1.0
    small = 0
    for n in range(max_terms):
        term = (lam + delta) * math.sqrt(2.0 * prod * var_init) \
            + schedule.alpha(n) * M_g
        total += term
        if term <= rtol * total:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
        prod *= _contraction_factor(value, schedule.alpha(n), L_g)
    raise ArithmeticError("perturbation series did not converge "
                          f"within {max_terms} terms")


@dataclass(frozen=True)
class ComplexityConstants:
    """Contraction rate and perturbation budget for the mean squared error.

    ``gamma`` is the per-iteration contraction factor of the expected mean
    squared distance to the minimizer and ``kappa`` scales the largest
    tolerable perturbation; both are valid only when 2*lam - 2*lam^2 -
    2*delta^2 > 0.
    """

    xi: float
    gamma: float
    kappa: float


def contraction_constants(lam: float, delta: float,
                          xi: float = 0.5) -> ComplexityConstants:
    """Contraction factor gamma and perturbation coefficient kappa.

    gamma = 1 - (1 - xi) * (2 lam - 2 lam^2 - 2 delta^2); kappa is the
    smaller of a linear and a square-root perturbation budget.  xi in (0, 1)
    splits the contraction between the two; 0.5 is a reasonable default.
    """
    _check("lam", lam, "[0, inf)")
    _check("delta", delta, "[0, inf)")
    _check("xi", xi, "(0, 1)")
    core = 2.0 * lam - 2.0 * lam ** 2 - 2.0 * delta ** 2
    if core <= 0:
        raise ConfigurationError(
            "contraction requires 2*lam - 2*lam^2 - 2*delta^2 > 0; "
            f"got {core:.6g} for lam={lam}, delta={delta}")
    gamma = 1.0 - (1.0 - xi) * core
    if not 0 < gamma < 1:
        raise ConfigurationError(f"gamma = {gamma:.6g} outside (0, 1)")
    a = lam ** 2 + delta ** 2
    kappa = min(
        xi * core / (4.0 * (2.0 * a + math.sqrt(a) + 1.0)),
        math.sqrt(xi * core / (2.0 * (2.0 * a + 2.0))))
    return ComplexityConstants(xi=float(xi), gamma=float(gamma),
                               kappa=float(kappa))


def iteration_budget(W0: float, eps: float, gamma: float) -> int:
    """Smallest k with gamma^k * W0 <= eps; zero when the target is already met."""
    _check("W0", W0, "(0, inf)")
    _check("eps", eps, "(0, inf)")
    _check("gamma", gamma, "(0, 1)")
    if eps >= W0:
        return 0
    k = max(1, math.ceil(math.log(W0 / eps) / math.log(1.0 / gamma)))
    while k > 1 and gamma ** (k - 1) * W0 <= eps:
        k -= 1
    while gamma ** k * W0 > eps:
        k += 1
    return k


@dataclass(frozen=True)
class GrowthConditionParams:
    """Local growth profile of the objective around its unique minimizer.

    mu * ||x - x*|| <= (f(x) - f*)^nu inside the R0-ball, and f - f* exceeds
    f_inf outside it.
    """

    f_inf: float
    R0: float
    nu: float
    mu: float

    def __post_init__(self):
        for name in ("f_inf", "R0", "nu", "mu"):
            _check(name, getattr(self, name), "(0, inf)")


def growth_margin(gcp: GrowthConditionParams, c4k: float) -> float:
    """Value margin q = min(f_inf, (mu * c4k / sqrt(2))^(1/nu)) / 2."""
    _check("c4k", c4k, "(0, inf)")
    return 0.5 * min(gcp.f_inf,
                     (gcp.mu * c4k / math.sqrt(2.0)) ** (1.0 / gcp.nu))


class ProximityResult(NamedTuple):
    bound: float
    holds: bool
    deviation: float


def consensus_distance_bound(positions, fvals, xstar, fstar: float,
                             gcp: GrowthConditionParams, r: float, q: float,
                             beta: float, f_r: float) -> ProximityResult:
    """Bound the softmin-average's distance to the minimizer and verify it.

    Requires r in (0, R0], q > 0 with q + f_r - fstar <= f_inf, and at least
    one particle within distance r of the minimizer.  ``f_r`` is the maximum
    of f over the r-ball (supply it from a grid search).  The deviation is
    that of the swarm's consensus point at the given beta, recomputed from
    ``fvals``, which must hold one finite value per particle.
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    xs = np.broadcast_to(np.asarray(xstar, dtype=float), (pts.shape[1],))
    _check("r", r, f"(0, {gcp.R0}]")
    _check("q", q, "(0, inf)")
    _check("fstar", fstar, "(-inf, inf)")
    _check("f_r", f_r, "(-inf, inf)")
    if q + f_r - fstar > gcp.f_inf:
        raise ConfigurationError(
            f"hypothesis q + f_r - f* <= f_inf violated: "
            f"{q + f_r - fstar:.6g} > {gcp.f_inf:.6g}")
    dists = np.linalg.norm(pts - xs, axis=1)
    inside = int(np.count_nonzero(dists <= r))
    if inside == 0:
        raise ConfigurationError(
            f"no particle within distance {r} of the minimizer")
    fvals = np.asarray(fvals, dtype=float)
    if fvals.shape != (pts.shape[0],):
        raise ConfigurationError(
            f"need one value per particle: {fvals.shape} for {pts.shape}")
    xbar = consensus_point(SwarmState(pts, values=fvals), beta)  # checks beta
    bound = (q + f_r - fstar) ** gcp.nu / gcp.mu \
        + math.exp(-beta * q) / inside * float(dists.sum())
    deviation = float(np.linalg.norm(xbar - xs))
    return ProximityResult(bound=float(bound), holds=bool(deviation <= bound),
                           deviation=deviation)


def laplace_value(beta: float, f_samples) -> float:
    """Softmin statistic -(1/beta) log mean(exp(-beta f_i)).

    Computed with the common shift min_i f_i, so it stays finite for beta up
    to 1e20.  Always lies between min f_i and mean f_i, and tends to min f_i
    as beta grows.
    """
    _check("beta", beta, "(0, inf)")
    f = np.asarray(f_samples, dtype=float)
    if f.size == 0 or not np.isfinite(f).all():
        raise ConfigurationError("need one or more samples, all finite")
    m = float(f.min())
    return m - math.log(float(np.mean(np.exp(-beta * (f - m))))) / beta


def error_budget(beta: float, epsilon: float, f_samples,
                 fstar: float) -> float:
    """Optimality-gap budget E(beta) = laplace_value - fstar - log(eps)/beta."""
    _check("epsilon", epsilon, "(0, 1]")
    _check("fstar", fstar, "(-inf, inf)")
    return laplace_value(beta, f_samples) - fstar - math.log(epsilon) / beta


@dataclass(frozen=True)
class ErrorBoundCheck:
    """Outcome of the value-level condition behind the error budget.

    ``satisfied`` is None when the regime cannot be decided in floating
    point (the Monte-Carlo mean of exp(-beta f) degenerates to the minimal
    samples alone).  Both sides are reported on the log scale.
    """

    satisfied: Optional[bool]
    lhs_log: float
    rhs_log: float
    c3: float
    note: str = ""


def check_error_bound_condition(beta: float, lam: float, delta: float,
                                schedule: StepSchedule, L_f: float,
                                var_init: float, epsilon: float,
                                f_samples, fstar: float, d: int,
                                sigma: float) -> ErrorBoundCheck:
    """Compare (1-eps) E[exp(-beta f)] against beta L_f C3 exp(-beta f*).

    The left side uses the shifted Monte-Carlo mean of the supplied samples;
    the right side uses the perturbation-series constant C3 with estimator
    bounds derived from L_f.  Comparison happens on the log scale so large
    beta does not overflow.
    """
    _check("epsilon", epsilon, "(0, 1)")
    _check("var_init", var_init, "[0, inf)")
    _check("fstar", fstar, "(-inf, inf)")
    lb = gradient_bounds(L_f, d, sigma)
    lap = laplace_value(beta, f_samples)
    if not (_consensus_value(lam, delta) < 0.5 and schedule.summable):
        return ErrorBoundCheck(
            satisfied=False, lhs_log=math.nan, rhs_log=math.inf, c3=math.inf,
            note="perturbation series diverges for these parameters")
    c3 = perturbation_series(lam, delta, schedule, lb.L_g, lb.M_g, var_init)
    lhs_log = math.log1p(-epsilon) - beta * lap
    rhs_log = -math.inf if c3 == 0 else math.log(beta * L_f * c3) - beta * fstar
    f = np.asarray(f_samples, dtype=float)
    gaps = f - f.min()
    positive = gaps[gaps > 0]
    if positive.size and beta * float(positive.min()) > 700.0:
        return ErrorBoundCheck(
            satisfied=None, lhs_log=lhs_log, rhs_log=rhs_log, c3=c3,
            note="condition unverifiable in floating point: exp(-beta f) "
                 "underflows for every non-minimal sample at this beta")
    return ErrorBoundCheck(satisfied=bool(lhs_log >= rhs_log),
                           lhs_log=lhs_log, rhs_log=rhs_log, c3=c3)


def _ball_offsets(d: int, radius: float, resolution: float) -> np.ndarray:
    """Grid points of spacing ``resolution`` in the closed radius-ball about
    the origin, as (n, d) offsets (dimension 1 or 2 only)."""
    _check("resolution", resolution, f"(0, {radius}]")
    g = np.arange(-radius, radius + resolution / 2, resolution)
    if d == 1:
        return g[:, None]
    if d == 2:
        xx, yy = np.meshgrid(g, g)
        off = np.column_stack([xx.ravel(), yy.ravel()])
        return off[np.einsum("ij,ij->i", off, off) <= radius ** 2]
    raise ConfigurationError("grid search supports dimension 1 or 2 only")


def max_on_ball(fn, center, radius: float, resolution: float = 1e-3) -> float:
    """Grid-search maximum of fn over the closed ball (dimension 1 or 2 only).

    ``fn`` must accept a (B, d) array and return (B,) values; ``resolution``
    is the grid spacing.  In dimension 1 the far endpoint is always included.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    _check("radius", radius, "(0, inf)")
    pts = _ball_offsets(c.shape[0], radius, resolution) + c
    if c.shape[0] == 1:
        pts = np.append(pts, [c + radius], axis=0)
    return float(np.max(fn(pts)))


def growth_radius(fn, center, fstar: float, q: float, R0: float,
                  resolution: float = 1e-3) -> float:
    """Largest radius s <= R0 whose ball maximum stays within fstar + q.

    Grid approximation for dimension 1 or 2: evaluates fn on a dense grid of
    the R0-ball, takes the running maximum outward, and returns the largest
    grid radius where it still satisfies max f - fstar <= q (0.0 if none).
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    _check("fstar", fstar, "(-inf, inf)")
    _check("q", q, "(0, inf)")
    _check("R0", R0, "(0, inf)")
    off = _ball_offsets(c.shape[0], R0, resolution)
    radii = np.linalg.norm(off, axis=1)
    vals = np.asarray(fn(off + c), dtype=float)
    order = np.argsort(radii)
    running = np.maximum.accumulate(vals[order])
    ok = running - fstar <= q
    if not ok[0]:
        return 0.0
    last = np.flatnonzero(ok)[-1] if ok.all() else np.flatnonzero(~ok)[0] - 1
    return float(min(radii[order][last], R0))
