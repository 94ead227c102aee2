"""Computable parameter conditions, contraction bounds, and error estimates.

Everything here is a pure function of its inputs.  The bounds mirror the
quantities the steppers are known to satisfy: a per-iteration contraction
factor for pairwise particle distances, a summable perturbation series that
controls the drift of the value level, softmin (log-sum-exp) estimates of the
attained minimum, and an iteration budget for the mean squared distance to a
known minimizer under a local growth condition.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .objective import (ConfigurationError, _array, _check, _fit,
                        gradient_bounds)
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


def _lam_delta(lam: float, delta: float) -> tuple[float, float]:
    return _check("lam", lam, "[0, inf)"), _check("delta", delta, "[0, inf)")


def _consensus_value(lam: float, delta: float) -> float:
    lam, delta = _lam_delta(lam, delta)
    return (1.0 - lam) * (1.0 - lam) + delta * delta


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


def _bounds(lam: float, delta: float, schedule: StepSchedule, L_g: float,
            var_init: float):
    """(B_n, f_n) for n = 0, 1, ...: B_0 = 2 var_init and B_{n+1} = f_n B_n,
    f_n = 2 ((1-lam)^2 + delta^2 + (alpha_n L_g)^2), in products, so an
    overflow reads inf and a zero B_0 or factor makes every later B_n 0."""
    L_g = _check("L_g", L_g, "[0, inf)")
    var_init = _check("var_init", var_init, "[0, inf)")
    value, bound = _consensus_value(lam, delta), 2.0 * var_init
    for alpha in map(schedule.alpha, itertools.count()):
        factor = 2.0 * (value + alpha * L_g * (alpha * L_g))
        yield bound, factor
        bound = bound * factor if bound and factor else 0.0


def consensus_bound_series(k_max: int, lam: float, delta: float,
                           schedule: StepSchedule, L_g: float,
                           var_init: float) -> np.ndarray:
    """Bounds on the expected squared particle-to-consensus distance at
    every step k in 0..k_max (inclusive): 2 * prod_{n<k} factor_n *
    var_init, 2 * var_init at k = 0; an overflowing entry reads inf, a
    vacuous bound rather than an error."""
    # numpy sizes no float64 array of 2**60 entries; 2**59 is exact as float
    k_max = _check("k_max", k_max, "[0, 576460752303423488]", count=True)
    return np.fromiter((bound for bound, _ in _bounds(
        lam, delta, schedule, L_g, var_init)), float, k_max + 1)


_MAX_TERMS = 200_000  # past it, the step sizes are too slow to sum


def perturbation_series(lam: float, delta: float, schedule: StepSchedule,
                        L_g: float, M_g: float, var_init: float) -> float:
    """C3 = sum_n [(lam+delta) sqrt(B_n) + alpha_n M_g], B_n the consensus
    bound at step n; finite only when the contraction condition holds and the
    schedule is summable.  The steps sum to c / (1-r).  Once f_n < 1, the
    tail of sqrt(B_n) from n lies between sqrt(B_n) / (1 - sqrt(f)) at f =
    f_n and at f = 2 ((1-lam)^2 + delta^2), the limit f_n falls to; the sum
    stops once both tails give the same float total, or at B_n = 0 or inf."""
    M_g = _check("M_g", M_g, "[0, inf)")
    lam, delta = _lam_delta(lam, delta)
    limit = 2.0 * _consensus_value(lam, delta)
    if not (limit < 1.0 and schedule.summable):
        raise ConfigurationError(
            "perturbation series diverges: needs (1-lam)^2 + delta^2 < 1/2 "
            "and a summable step schedule")
    steps = schedule.c * M_g / (1.0 - schedule.r) if schedule.c else 0.0
    total = 0.0
    for bound, factor in itertools.islice(
            _bounds(lam, delta, schedule, L_g, var_init), _MAX_TERMS):
        tail = total + (root := math.sqrt(bound)) / (1.0 - math.sqrt(limit))
        if not 0.0 < bound < math.inf or factor < 1.0 and tail == (
                total + root / (1.0 - math.sqrt(factor))):
            return (lam + delta) * tail + steps
        total += root
    raise ConfigurationError("perturbation series: the step sizes do not "
                             f"settle within {_MAX_TERMS} terms")


@dataclass(frozen=True)
class ComplexityConstants:
    """Contraction rate and perturbation budget for the mean squared error.

    ``gamma`` is the per-iteration contraction factor of the expected mean
    squared distance to the minimizer and ``kappa`` the linear coefficient of
    the largest tolerable perturbation; both are valid only when 2*lam -
    2*lam^2 - 2*delta^2 > 0.
    """

    xi: float
    gamma: float
    kappa: float


def contraction_constants(lam: float, delta: float,
                          xi: float = 0.5) -> ComplexityConstants:
    """Contraction factor gamma and perturbation coefficient kappa.

    gamma = 1 - (1 - xi) core and kappa = xi core / (4 (2a + sqrt(a) + 1)),
    with core = 2 lam - 2 lam^2 - 2 delta^2 and a = lam^2 + delta^2; xi in
    (0, 1) splits the contraction between the two, 0.5 by default.
    """
    lam, delta = _lam_delta(lam, delta)
    xi = _check("xi", xi, "(0, 1)")
    core = 2.0 * (lam - lam * lam - delta * delta)  # -inf where it overflows
    if core <= 0:
        raise ConfigurationError(
            "contraction requires 2*lam - 2*lam^2 - 2*delta^2 > 0; "
            f"got {core:.6g} for lam={lam}, delta={delta}")
    gamma = 1.0 - (1.0 - xi) * core
    if not 0 < gamma < 1:
        raise ConfigurationError(f"gamma = {gamma:.6g} outside (0, 1)")
    a = lam * lam + delta * delta
    # The square-root budget sqrt(xi core / (4a + 4)) is larger: xi core < 1/2.
    kappa = xi * core / (4.0 * (2.0 * a + math.sqrt(a) + 1.0))
    return ComplexityConstants(xi=float(xi), gamma=float(gamma),
                               kappa=float(kappa))


def _exceeds(gamma: float, k: int, target: Fraction) -> bool:
    """gamma^k > target, exactly.  With gamma = n / 2^s, square and multiply
    brackets n^k by powers rounded down and up to ``bits`` bits; ``bits``
    doubles until the bracket decides, as it does once it holds n^k whole."""
    n, d = float(gamma).as_integer_ratio()
    for bits in (64 << j for j in itertools.count()):
        lo, hi, shift = 1, 1, 0  # n^k lies in [lo, hi] * 2^shift
        for m in (n if bit == "1" else 1 for bit in bin(k)[2:]):
            cut = max(0, (hi * hi * m).bit_length() - bits)
            lo, hi = lo * lo * m >> cut, -(-hi * hi * m >> cut)
            shift = 2 * shift + cut
        scaled = target * Fraction(2) ** ((d.bit_length() - 1) * k - shift)
        if lo > scaled or hi <= scaled:
            return lo > scaled


def iteration_budget(W0: float, eps: float, gamma: float) -> int:
    """Smallest k with gamma^k * W0 <= eps in exact arithmetic on the float
    inputs; zero when the target is already met."""
    _check("W0", W0, "(0, inf)")
    _check("eps", eps, "(0, inf)")
    _check("gamma", gamma, "(0, 1)")
    if eps >= W0:
        return 0
    target = Fraction(float(eps)) / Fraction(float(W0))
    k = max(1, math.ceil((math.log(W0) - math.log(eps)) / -math.log(gamma)))
    while k > 1 and not _exceeds(gamma, k - 1, target):
        k -= 1
    while _exceeds(gamma, k, target):
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
            object.__setattr__(self, name,
                               _check(name, getattr(self, name), "(0, inf)"))


def _power(base: float, exponent: float) -> float:  # base >= 0
    try:
        return base ** exponent
    except OverflowError:  # past the largest float
        return math.inf


def growth_margin(gcp: GrowthConditionParams, c4k: float) -> float:
    """Value margin q = min(f_inf, (mu * c4k / sqrt(2))^(1/nu)) / 2."""
    c4k = _check("c4k", c4k, "(0, inf)")
    return 0.5 * min(gcp.f_inf,
                     _power(gcp.mu * c4k / math.sqrt(2.0), 1.0 / gcp.nu))


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
    the (N, d) ``positions`` and ``fvals``, one finite value per particle.
    """
    state = SwarmState(_array("positions", positions, finite=True), fvals)
    xs = _fit("xstar", _array("xstar", xstar, finite=True), state.dim)
    _check("r", r, f"(0, {gcp.R0}]")
    q = _check("q", q, "(0, inf)")
    fstar = _check("fstar", fstar, "(-inf, inf)")
    f_r = _check("f_r", f_r, f"[{fstar}, inf)")  # the r-ball holds x*
    beta = _check("beta", beta, "[0, inf)")
    if q + f_r - fstar > gcp.f_inf:
        raise ConfigurationError(
            f"hypothesis q + f_r - f* <= f_inf violated: "
            f"{q + f_r - fstar:.6g} > {gcp.f_inf:.6g}")
    dists = np.linalg.norm(state.positions - xs, axis=1)
    inside = int(np.count_nonzero(dists <= r))
    if inside == 0:
        raise ConfigurationError(
            f"no particle within distance {r} of the minimizer")
    xbar = consensus_point(state, beta)
    bound = _power(q + f_r - fstar, gcp.nu) / gcp.mu \
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
    beta = _check("beta", beta, "(0, inf)")
    f = _array("f_samples", f_samples, finite=True)
    if not f.size:
        raise ConfigurationError("need one or more samples")
    m = float(f.min())
    with np.errstate(over="ignore"):  # a gap past the largest float weighs 0
        return m - math.log(float(np.mean(np.exp(-beta * (f - m))))) / beta


def error_budget(beta: float, epsilon: float, f_samples,
                 fstar: float) -> float:
    """Optimality-gap budget E(beta) = laplace_value - fstar - log(eps)/beta."""
    epsilon = _check("epsilon", epsilon, "(0, 1]")
    fstar = _check("fstar", fstar, "(-inf, inf)")
    beta = _check("beta", beta, "(0, inf)")
    return laplace_value(beta, f_samples) - fstar - math.log(epsilon) / beta


@dataclass(frozen=True)
class ErrorBoundCheck:
    """Outcome of the value-level condition behind the error budget.

    ``satisfied`` is None when the regime is not decided in floating point:
    exp(-beta gap) underflows to 0 for the least gap between a sample above
    the minimum and the minimum.  Both sides are reported on the log scale.
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
    epsilon = _check("epsilon", epsilon, "(0, 1)")
    _check("var_init", var_init, "[0, inf)")
    fstar = _check("fstar", fstar, "(-inf, inf)")
    beta = _check("beta", beta, "(0, inf)")
    lb = gradient_bounds(L_f, d, sigma)
    lap = laplace_value(beta, f_samples)
    if not (_consensus_value(lam, delta) < 0.5 and schedule.summable):
        return ErrorBoundCheck(
            satisfied=False, lhs_log=math.nan, rhs_log=math.inf, c3=math.inf,
            note="perturbation series diverges for these parameters")
    c3 = perturbation_series(lam, delta, schedule, lb.L_g, lb.M_g, var_init)
    lhs_log = math.log1p(-epsilon) - beta * lap
    rhs_log = -math.inf if c3 == 0 else \
        math.log(beta) + math.log(L_f) + math.log(c3) - beta * fstar
    u = np.unique(_array("f_samples", f_samples))  # sorted, distinct
    if u.size > 1 and math.exp(-beta * (float(u[1]) - float(u[0]))) == 0.0:
        return ErrorBoundCheck(
            satisfied=None, lhs_log=lhs_log, rhs_log=rhs_log, c3=c3,
            note="condition unverifiable in floating point: exp(-beta f) "
                 "underflows for every non-minimal sample at this beta")
    return ErrorBoundCheck(satisfied=bool(lhs_log >= rhs_log),
                           lhs_log=lhs_log, rhs_log=rhs_log, c3=c3)


def _ball_offsets(d: int, radius: float, resolution: float) -> np.ndarray:
    """Grid points of spacing ``resolution`` in the closed radius-ball about
    the origin, as (n, d) offsets: dimension 1 or 2, about 1e7 at most.  The
    grid is its own negation and holds 0 and +-radius on each axis."""
    _check("resolution", resolution, f"(0, {radius}]")
    if d not in (1, 2):
        raise ConfigurationError("grid search supports dimension 1 or 2 only")
    if (n := _power(radius / resolution * 2.0 + 1.0, d)) > 1e7:
        raise ConfigurationError(f"grid of {n:.3g} points; at most 1e7")
    m, e = math.frexp(radius)  # radius = m 2^e: scaling by 2^-e is exact
    step = math.ldexp(resolution, -e)  # and keeps the span and squares finite
    half = np.arange(0.0, m, step)  # 0 outward, then the rim m: symmetric
    half = np.append(half[half < m], m)
    unit = np.concatenate((-half[:0:-1], half))
    if d == 1:
        return np.ldexp(unit, e)[:, None]
    xx, yy = np.meshgrid(unit, unit)
    unit = np.column_stack([xx.ravel(), yy.ravel()])
    return np.ldexp(unit[np.einsum("ij,ij->i", unit, unit) <= m * m], e)


def max_on_ball(fn, center, radius: float, resolution: float = 1e-3) -> float:
    """Grid-search maximum of fn over the closed ball (dimension 1 or 2 only).

    ``fn`` must accept a (B, d) array and return (B,) values; ``resolution``
    is the grid spacing.
    """
    c = np.atleast_1d(_array("center", center, finite=True))  # a number: 1-D
    _array("center", c, 1)  # one point
    _check("radius", radius, "(0, inf)")
    pts = _ball_offsets(len(c), radius, resolution) + c
    return float(np.max(_array("fn values", fn(pts), 1, (len(pts),))))


def growth_radius(fn, center, fstar: float, q: float, R0: float,
                  resolution: float = 1e-3) -> float:
    """Largest radius s <= R0 whose ball maximum stays within fstar + q.

    Grid approximation for dimension 1 or 2: evaluates fn on a grid of the
    R0-ball and returns the largest grid radius below that of the nearest
    point where f - fstar <= q fails (a nan fails it), or 0.0 if none is.
    """
    c = np.atleast_1d(_array("center", center, finite=True))  # a number: 1-D
    _array("center", c, 1)  # one point
    _check("fstar", fstar, "(-inf, inf)")
    _check("q", q, "(0, inf)")
    _check("R0", R0, "(0, inf)")
    off = _ball_offsets(len(c), R0, resolution)
    radii = np.hypot.reduce(np.abs(off), axis=1)  # a norm that cannot overflow
    vals = _array("fn values", fn(off + c), 1, (len(off),))
    with np.errstate(over="ignore"):  # an f - fstar past the floats fails
        limit = np.min(radii, where=~(vals - fstar <= q), initial=np.inf)
    return float(min(np.max(radii, where=radii < limit, initial=0.0), R0))
