"""Whole swarm states (positions and their values) and the CBO steppers.

Three steppers share the same drift-diffusion core: ``escbo_step`` adds a
forward-difference gradient step for every particle, ``fescbo_step`` restricts
the gradient to a random mini-batch, and ``vanilla_cbo_step`` omits it.
Within one iteration a single Gaussian vector is shared by all particles, so
pairwise particle differences contract by the same per-coordinate factor.

Every stepper is ``step(state, obj, cfg, rng)``, where ``cfg`` is the run's
``ExperimentConfig``: it reads ``lam``, ``delta`` and ``beta``, the gradient
steppers ``sigma`` and ``schedule`` too, and ``fescbo_step`` ``batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .objective import (ConfigurationError, Objective, _all_finite, _array,
                        _check, _row_sums, minibatch_gradients)

if TYPE_CHECKING:  # harness imports this module
    from .harness import ExperimentConfig

__all__ = [
    "ComponentGaussian",
    "DivergenceError",
    "RngStream",
    "StepSchedule",
    "SwarmState",
    "UniformBox",
    "check_stop",
    "consensus_point",
    "draw_noise",
    "escbo_step",
    "fescbo_step",
    "init_swarm",
    "softmin_weights",
    "swarm_diameter",
    "vanilla_cbo_step",
]

_MASK64 = (1 << 64) - 1
_STREAM_IDS = {"init": 0, "noise": 1, "batch": 2}
# swarm_diameter's two (N, N) work arrays, kept between calls so that a call
# does not page in fresh ones; replaced when N changes.
_gram_pair: list = []


class DivergenceError(RuntimeError):
    """A particle position or value became non-finite during a step."""

    def __init__(self, iteration: int, particle: int):
        super().__init__(
            f"particle {particle} diverged at iteration {iteration}")
        self.iteration = iteration
        self.particle = particle


class RngStream:
    """Named deterministic random substreams derived from one seed.

    Identical seeds reproduce identical trajectories bit for bit.  The
    initialization, per-iteration noise, and mini-batch selection streams are
    independent, so enabling mini-batching never shifts the noise sequence.
    """

    def __init__(self, seed: int):
        self.seed = int(_check("seed", seed, "(-inf, inf)", count=True))
        self._gens: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        if label not in _STREAM_IDS:
            raise ConfigurationError(f"unknown stream {label!r}")
        if label not in self._gens:
            ss = np.random.SeedSequence((self.seed & _MASK64, _STREAM_IDS[label]))
            self._gens[label] = np.random.Generator(np.random.Philox(ss))
        return self._gens[label]


@dataclass
class SwarmState:
    """Particle positions at iteration k and the objective values there.

    Checked once, when built: real (N, d) positions, N, d >= 1, (N,) values
    and a count k >= 0, or ConfigurationError.  The gradient steppers read
    f(x_i) from ``values``, so a hand-built state must hold the true ones.
    """

    positions: np.ndarray
    values: np.ndarray
    k: int = 0

    def __post_init__(self):
        p, v, k = self.positions, self.values, self.k
        if not (type(p) is type(v) is np.ndarray and p.dtype == v.dtype
                == float and type(k) is int and k >= 0):  # else convert
            k = self.k = _check("k", k, "[0, inf)", count=True)
            p = self.positions = _array("positions", p)
            v = self.values = _array("values", v)
        if not (p.ndim == 2 and p.size and v.shape == p.shape[:1]):
            raise ConfigurationError("a swarm state needs real (N, d) "
                                     "positions, N, d >= 1, and (N,) values")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class StepSchedule:
    """Gradient step sizes alpha_k: constant c, geometric c*r^k, or c/(k+1)."""

    kind: str
    c: float
    r: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "geometric", "harmonic"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "c", _check(f"{self.kind} schedule c",
                                             self.c, "[0, inf)"))
        object.__setattr__(self, "r", _check(
            f"{self.kind} schedule r", self.r,
            "(0, 1)" if self.kind == "geometric" else "[0, 0]"))

    @classmethod
    def constant(cls, c: float) -> "StepSchedule":
        return cls("constant", c)

    @classmethod
    def geometric(cls, c: float, r: float) -> "StepSchedule":
        return cls("geometric", c, r)

    @classmethod
    def harmonic(cls, c: float) -> "StepSchedule":
        """alpha_k = c / (k + 1); the shift keeps alpha_0 finite."""
        return cls("harmonic", c)

    def alpha(self, k: int) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "geometric":
            return self.c * self.r ** k
        return self.c / (k + 1)

    @property
    def summable(self) -> bool:
        """Whether sum_k alpha_k is finite."""
        return self.c == 0 or self.kind == "geometric"


@dataclass(frozen=True)
class UniformBox:
    """Uniform initial distribution on the cube [lo, hi]^d."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = _check("lo", self.lo, "(-inf, inf)")
        if not 0 < _check("hi", self.hi, "(-inf, inf)") - lo < np.inf:
            raise ConfigurationError(f"UniformBox needs lo < hi and a finite "
                                     f"width, got {self.lo!r}, {self.hi!r}")

    def sample(self, n: int, d: int, gen: np.random.Generator) -> np.ndarray:
        return gen.uniform(self.lo, self.hi, size=(n, d))

    def __str__(self):
        return f"uniform[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class ComponentGaussian:
    """Normal initial distribution: each coordinate i.i.d. N(mean, variance)."""

    mean: float
    variance: float

    def __post_init__(self):
        _check("mean", self.mean, "(-inf, inf)")
        object.__setattr__(self, "variance",
                           _check("variance", self.variance, "[0, inf)"))

    def sample(self, n: int, d: int, gen: np.random.Generator) -> np.ndarray:
        return gen.normal(self.mean, np.sqrt(self.variance), size=(n, d))

    def __str__(self):
        return f"gaussian({self.mean},{self.variance})"


def init_swarm(dist, n_particles: int, obj: Objective,
               rng: RngStream) -> SwarmState:
    """Draw n i.i.d. initial positions from ``dist`` and evaluate them."""
    _check("n_particles", n_particles, "[1, inf)", count=True)
    positions = dist.sample(n_particles, obj.dim, rng.stream("init"))
    return SwarmState(positions, obj.eval_many(positions))


def softmin_weights(values, beta: float) -> np.ndarray:
    """Normalized weights exp(-beta f_i), computed with a common shift.

    Subtracting min_j f_j before exponentiating is an algebraic identity for
    the normalized weights and keeps them finite for beta up to 1e20: the
    best particle always has pre-normalization weight exactly one.
    """
    f = _array("values", values, 1)
    _check("beta", beta, "[0, inf)")
    if not f.size:
        raise ConfigurationError("softmin needs one value or more")
    return _softmin(f, beta)


def _softmin(f: np.ndarray, beta: float) -> np.ndarray:
    # exp(-beta * (f - min f)) / sum, in place on one fresh array.
    w = f - f.flat[f.argmin()]  # f.min() unwrapped; argmin finds a nan too
    w *= -beta
    np.exp(w, out=w)
    w /= w.sum()
    return w


def consensus_point(state: SwarmState, beta: float) -> np.ndarray:
    """The (d,) average position under ``softmin_weights(values, beta)``.

    The sum is anchored at the heaviest particle, which is algebraically
    neutral (weights sum to one) but keeps a collapsed swarm's average equal
    to the common position bit for bit.
    """
    if not _all_finite(state.values):
        raise ConfigurationError("non-finite objective values in swarm")
    _check("beta", beta, "[0, inf)")
    w = _softmin(state.values, beta)
    anchor = state.positions[w.argmax()]
    return anchor + w @ (state.positions - anchor)


def draw_noise(delta: float, dim: int, rng: RngStream) -> np.ndarray:
    """One Gaussian vector with i.i.d. N(0, delta^2) components.

    The same draw is applied to every particle within an iteration.
    """
    _check("delta", delta, "[0, inf)")
    return rng.stream("noise").normal(0.0, delta, size=dim)


def _check_finite(positions: np.ndarray, values: np.ndarray, k: int) -> None:
    bad = np.flatnonzero(~np.all(np.isfinite(positions), axis=1))
    if bad.size:
        raise DivergenceError(k, int(bad[0]))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergenceError(k, int(bad[0]))


def _advance(state: SwarmState, obj: Objective, cfg: ExperimentConfig,
             rng: RngStream, gradient: bool = False,
             batch=None) -> SwarmState:
    # The consensus point comes first: it checks the cached values, which
    # the gradient then reads as its base values.
    xbar = consensus_point(state, cfg.beta)
    grads = minibatch_gradients(obj, state.positions, batch, cfg.sigma,
                                state.values) if gradient else None
    eta = draw_noise(cfg.delta, state.dim, rng)
    # xbar + (positions - xbar) * ((1 - lam) - eta), in place: one fused
    # factor per coordinate keeps the pairwise-contraction identity tight to
    # rounding, and lands a full contraction (lam = 1, delta = 0) on xbar.
    new_positions = state.positions - xbar
    new_positions *= (1.0 - cfg.lam) - eta
    new_positions += xbar
    if grads is not None and (alpha := cfg.schedule.alpha(state.k)) != 0.0:
        grads *= alpha  # the caller's fresh array: new - alpha * grads
        new_positions -= grads
    new_values = obj.eval_many(new_positions)
    if not (_all_finite(new_positions) and _all_finite(new_values)):
        # A non-finite input particle reaches every particle through xbar.
        _check_finite(state.positions, state.values, state.k)
        _check_finite(new_positions, new_values, state.k + 1)
    return SwarmState(new_positions, new_values, state.k + 1)


def escbo_step(state: SwarmState, obj: Objective, cfg: ExperimentConfig,
               rng: RngStream) -> SwarmState:
    """One full iteration: consensus drift, shared noise, then a gradient step.

    Gradients are estimated at the pre-step positions for every particle.
    Costs N*(d+1) evaluations for the gradients plus N for the value refresh.
    The gradients' N base values are counted but read from ``state.values``,
    so the objective computes only the N*d probes and the N refreshed values.
    """
    return _advance(state, obj, cfg, rng, gradient=True)


def vanilla_cbo_step(state: SwarmState, obj: Objective, cfg: ExperimentConfig,
                     rng: RngStream) -> SwarmState:
    """Consensus drift and shared noise only; no gradient evaluations."""
    return _advance(state, obj, cfg, rng)


def fescbo_step(state: SwarmState, obj: Objective, cfg: ExperimentConfig,
                rng: RngStream) -> SwarmState:
    """ESCBO step with gradients only on a uniform random mini-batch.

    Costs batch_size*(d+1) evaluations for gradients plus N for the refresh,
    with the batch's base values read from ``state.values``.
    With batch_size == N the trajectory matches escbo_step under the same
    seed, because batch selection draws from its own substream.
    """
    n = state.positions.shape[0]
    b = _check("batch_size", cfg.batch_size, f"[1, {n}]", count=True)
    idx = rng.stream("batch").choice(n, size=b, replace=False)
    return _advance(state, obj, cfg, rng, gradient=True, batch=idx)


def check_stop(prev: SwarmState, nxt: SwarmState, tol: float) -> bool:
    """Termination test on consecutive iterates.

    True iff max_i ||x_i' - x_i|| <= tol and
    max_i |f(x_i') - f(x_i)| / ||x_i' - x_i|| <= tol, where particles that did
    not move contribute zero to the second maximum.
    """
    if prev.k + 1 != nxt.k or prev.positions.shape != nxt.positions.shape:
        raise ConfigurationError("need consecutive iterates of one swarm")
    _check("tol", tol, "[0, inf)")
    diff = nxt.positions - prev.positions
    big = np.abs(diff, out=diff).flat[diff.argmax()]   # nan if any is nan
    if big > tol and big >= 2.0 ** -511:   # x*x is normal: sqrt(fl(x*x)) = |x|
        return False   # and the norm of big's row is at least big
    diff *= diff
    dx = _row_sums(diff)
    np.sqrt(dx, out=dx)  # np.linalg.norm
    if dx[dx.argmax()] > tol:  # dx.max(), unwrapped
        return False
    df = nxt.values - prev.values
    np.abs(df, out=df)
    ratios = np.divide(df, dx, out=np.zeros(dx.shape), where=dx > 0)
    return bool(ratios.max() <= tol)


def swarm_diameter(positions: np.ndarray) -> float:
    """Largest squared pairwise distance of the (N, d) positions, N, d >= 1.

    The Gram form of the offsets from particle 0, so its absolute error is
    ~1e-16 times the diameter wherever the swarm sits; the largest squared
    offset if that is not finite, so inf for a swarm that overflows.  It
    writes into module-level work arrays, so it is not reentrant.
    """
    if not (y := _array("positions", positions, 2)).size:
        raise ConfigurationError(f"positions of shape {y.shape} are empty")
    y = y - y[0]  # one (N, d) copy
    sq = np.einsum("ij,ij->i", y, y)
    if not (top := sq[sq.argmax()]) < np.inf:  # sq.max(), unwrapped
        return float(top)
    if top > 2.0 ** 1021:  # scaled exactly, so that no entry of d2 overflows
        return swarm_diameter(y * 2.0 ** -8) * 2.0 ** 16
    if not _gram_pair or len(_gram_pair[0]) != len(y):
        _gram_pair[:] = np.empty((2, len(y), len(y)))
    gram, d2 = _gram_pair
    # sq_i + sq_j - 2.0 * G_ij, rounded as written; row 0 is sq, so >= 0.
    np.matmul(y, y.T, out=gram)
    gram *= 2.0
    d2[...] = sq  # then sq_j + sq_i, which addition rounds as sq_i + sq_j
    d2 += sq[:, None]
    d2 -= gram
    return float(d2.flat[d2.argmax()])  # d2.max(), unwrapped
