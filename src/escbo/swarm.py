"""Particle-system state and the consensus-based optimization steppers.

Three steppers share the same drift-diffusion core: ``escbo_step`` adds a
forward-difference gradient step for every particle, ``fescbo_step`` restricts
the gradient to a random mini-batch, and ``vanilla_cbo_step`` omits it.
Within one iteration a single Gaussian vector is shared by all particles, so
pairwise particle differences contract by the same per-coordinate factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objective import (ConfigurationError, FiniteDiffConfig, Objective,
                        _all_finite, _is_real, _reals, minibatch_gradients)

__all__ = [
    "CBOParams",
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
    "refresh_values",
    "softmin_weights",
    "swarm_diameter",
    "vanilla_cbo_step",
]

_MASK64 = (1 << 64) - 1
_STREAM_IDS = {"init": 0, "noise": 1, "batch": 2}
# The Gram-form swarm_diameter's two (N, N) work arrays, kept between calls
# so that a call does not page in fresh ones; replaced when N changes.
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
        self.seed = int(seed)
        self._gens: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        if label not in _STREAM_IDS:
            raise KeyError(f"unknown stream {label!r}")
        if label not in self._gens:
            ss = np.random.SeedSequence((self.seed & _MASK64, _STREAM_IDS[label]))
            self._gens[label] = np.random.Generator(np.random.Philox(ss))
        return self._gens[label]


@dataclass
class SwarmState:
    """Particle positions at iteration k, with cached objective values.

    ``values`` holds f at each position and must be refreshed after every
    step; the steppers maintain this invariant themselves.
    """

    positions: np.ndarray
    k: int = 0
    values: Optional[np.ndarray] = None

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class CBOParams:
    """Drift weight, noise scale, weight sharpness, and the FD interval."""

    lam: float
    delta: float
    beta: float
    fd: FiniteDiffConfig

    def __post_init__(self):
        if not (0 <= self.lam < np.inf and 0 <= self.delta < np.inf):
            raise ConfigurationError(
                f"lam and delta must be finite and >= 0, got {self.lam}, "
                f"{self.delta}")
        if not 0 < self.beta < np.inf:
            raise ConfigurationError(
                f"beta must be finite and > 0, got {self.beta}")


@dataclass(frozen=True)
class StepSchedule:
    """Gradient step sizes alpha_k: constant c, geometric c*r^k, or c/(k+1)."""

    kind: str
    c: float
    r: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "geometric", "harmonic"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if not (_is_real(self.c) and _is_real(self.r) and 0 <= self.c < np.inf
                and -np.inf < self.r < np.inf):
            raise ConfigurationError(
                f"need a real step scale 0 <= c < inf and a finite real r, "
                f"got {self.c!r}, {self.r!r}")
        if self.kind == "geometric" and not (0 < self.r < 1):
            raise ConfigurationError("geometric schedule needs 0 < r < 1")

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
    """Uniform initial distribution on an axis-aligned box."""

    lo: float
    hi: float

    def __post_init__(self):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                width = np.subtract(self.hi, self.lo, dtype=float) \
                    if _reals(self.lo) and _reals(self.hi) else np.nan
        except ValueError:  # shapes that do not broadcast together
            width = np.nan
        if not np.isfinite(width).all():  # also an inf or nan bound
            raise ConfigurationError(f"UniformBox needs real finite lo, hi, "
                                     f"hi - lo, got {self.lo!r}, {self.hi!r}")
        if np.any(width <= 0):
            raise ConfigurationError("UniformBox needs lo < hi in every coordinate")

    def sample(self, n: int, d: int, gen: np.random.Generator) -> np.ndarray:
        lo = np.broadcast_to(np.asarray(self.lo, dtype=float), (d,))
        hi = np.broadcast_to(np.asarray(self.hi, dtype=float), (d,))
        return gen.uniform(lo, hi, size=(n, d))

    def __str__(self):
        return f"uniform[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class ComponentGaussian:
    """Per-coordinate normal initial distribution with the given variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (_reals(self.mean) and np.isfinite(self.mean).all()
                and _is_real(self.variance) and 0 <= self.variance < np.inf):
            raise ConfigurationError(f"need a finite real mean and a real "
                                     f"0 <= variance < inf, got {self.mean!r}, "
                                     f"{self.variance!r}")

    def sample(self, n: int, d: int, gen: np.random.Generator) -> np.ndarray:
        return gen.normal(self.mean, np.sqrt(self.variance), size=(n, d))

    def __str__(self):
        return f"gaussian({self.mean},{self.variance})"


def init_swarm(dist, n_particles: int, dim: int, rng: RngStream) -> SwarmState:
    """Draw n i.i.d. initial positions from ``dist``; values start unset."""
    if n_particles < 1 or dim < 1:
        raise ConfigurationError("need n_particles >= 1 and dim >= 1")
    positions = dist.sample(n_particles, dim, rng.stream("init"))
    return SwarmState(positions=positions, k=0, values=None)


def refresh_values(state: SwarmState, obj: Objective) -> SwarmState:
    """Populate the cached objective values (costs N evaluations)."""
    return SwarmState(state.positions, state.k,
                      obj.eval_many(state.positions))


def softmin_weights(values, beta: float) -> np.ndarray:
    """Normalized weights exp(-beta f_i), computed with a common shift.

    Subtracting min_j f_j before exponentiating is an algebraic identity for
    the normalized weights and keeps them finite for beta up to 1e20: the
    best particle always has pre-normalization weight exactly one.
    """
    f = np.asarray(values, dtype=float)
    if beta < 0:
        raise ConfigurationError("beta must be >= 0")
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
    if state.values is None:
        raise ConfigurationError(
            "swarm values not populated; call refresh_values first")
    if not _all_finite(state.values):
        raise ConfigurationError("non-finite objective values in swarm")
    w = softmin_weights(state.values, beta)
    anchor = state.positions[w.argmax()]
    return anchor + w @ (state.positions - anchor)


def draw_noise(delta: float, dim: int, rng: RngStream) -> np.ndarray:
    """One Gaussian vector with i.i.d. N(0, delta^2) components.

    The same draw is applied to every particle within an iteration.
    """
    if delta < 0:
        raise ConfigurationError("delta must be >= 0")
    return rng.stream("noise").normal(0.0, delta, size=dim)


def _drift_diffusion(positions: np.ndarray, xbar: np.ndarray, lam: float,
                     eta: np.ndarray) -> np.ndarray:
    # Single fused factor per coordinate: keeps the pairwise-difference
    # contraction identity tight to rounding error, and makes full
    # contraction (lam = 1, delta = 0) land every particle exactly on xbar.
    # xbar + (positions - xbar) * ((1 - lam) - eta), in place.
    out = positions - xbar
    out *= (1.0 - lam) - eta
    out += xbar
    return out


def _check_finite(positions: np.ndarray, values: np.ndarray, k: int) -> None:
    bad = np.flatnonzero(~np.all(np.isfinite(positions), axis=1))
    if bad.size:
        raise DivergenceError(k, int(bad[0]))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergenceError(k, int(bad[0]))


def _advance(state: SwarmState, obj: Objective, params: CBOParams,
             rng: RngStream, grads, alpha: float) -> SwarmState:
    xbar = consensus_point(state, params.beta)
    eta = draw_noise(params.delta, state.dim, rng)
    new_positions = _drift_diffusion(state.positions, xbar, params.lam, eta)
    if grads is not None and alpha != 0.0:
        grads *= alpha  # the caller's fresh array: new - alpha * grads
        new_positions -= grads
    new_values = obj.eval_many(new_positions)
    if not (_all_finite(new_positions) and _all_finite(new_values)):
        # A non-finite input particle reaches every particle through xbar.
        _check_finite(state.positions, state.values, state.k)
        _check_finite(new_positions, new_values, state.k + 1)
    return SwarmState(new_positions, state.k + 1, new_values)


def escbo_step(state: SwarmState, obj: Objective, params: CBOParams,
               schedule: StepSchedule, rng: RngStream) -> SwarmState:
    """One full iteration: consensus drift, shared noise, then a gradient step.

    Gradients are estimated at the pre-step positions for every particle.
    Costs N*(d+1) evaluations for the gradients plus N for the value refresh.
    """
    grads = minibatch_gradients(obj, state.positions, None, params.fd)
    return _advance(state, obj, params, rng, grads,
                    schedule.alpha(state.k))


def vanilla_cbo_step(state: SwarmState, obj: Objective, params: CBOParams,
                     rng: RngStream) -> SwarmState:
    """Consensus drift and shared noise only; no gradient evaluations."""
    return _advance(state, obj, params, rng, None, 0.0)


def fescbo_step(state: SwarmState, obj: Objective, params: CBOParams,
                schedule: StepSchedule, batch_size: int,
                rng: RngStream) -> SwarmState:
    """ESCBO step with gradients only on a uniform random mini-batch.

    Costs batch_size*(d+1) evaluations for gradients plus N for the refresh.
    With batch_size == N the trajectory matches escbo_step under the same
    seed, because batch selection draws from its own substream.
    """
    n = state.n_particles
    if not 1 <= batch_size <= n:
        raise ConfigurationError(
            f"batch_size must be in [1, {n}], got {batch_size}")
    idx = rng.stream("batch").choice(n, size=batch_size, replace=False)
    grads = minibatch_gradients(obj, state.positions, idx, params.fd)
    return _advance(state, obj, params, rng, grads,
                    schedule.alpha(state.k))


def check_stop(prev: SwarmState, nxt: SwarmState, tol: float) -> bool:
    """Termination test on consecutive iterates.

    True iff max_i ||x_i' - x_i|| <= tol and
    max_i |f(x_i') - f(x_i)| / ||x_i' - x_i|| <= tol, where particles that did
    not move contribute zero to the second maximum.
    """
    if prev.k + 1 != nxt.k:
        raise ConfigurationError("check_stop expects consecutive iterates")
    diff = nxt.positions - prev.positions
    diff *= diff
    dx = np.add.reduce(diff, axis=1)
    np.sqrt(dx, out=dx)  # np.linalg.norm
    if dx[dx.argmax()] > tol:  # dx.max(), unwrapped
        return False
    df = nxt.values - prev.values
    np.abs(df, out=df)
    ratios = np.divide(df, dx, out=np.zeros(dx.shape), where=dx > 0)
    return bool(ratios.max() <= tol)


def swarm_diameter(positions: np.ndarray) -> float:
    """Largest squared pairwise particle distance.

    Small swarms use exact pairwise differences; large ones fall back to a
    Gram-matrix form whose absolute error is ~1e-16 * scale^2, fine for
    reporting.  The Gram form writes into module-level work arrays, so the
    function is not reentrant: nothing calls it from several threads.
    """
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return 0.0
    if n <= 64:
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.einsum("ijk,ijk->ij", diff, diff).max())
    sq = np.einsum("ij,ij->i", pts, pts)
    if not _gram_pair or _gram_pair[0].shape != (n, n):
        _gram_pair[:] = np.empty((2, n, n))
    gram, d2 = _gram_pair
    # sq_i + sq_j - 2.0 * G_ij, rounded as written.
    np.matmul(pts, pts.T, out=gram)
    gram *= 2.0
    np.add.outer(sq, sq, out=d2)
    d2 -= gram
    return float(max(d2.max(), 0.0))
