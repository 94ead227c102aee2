"""Black-box objectives with evaluation accounting and forward-difference gradients."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConfigurationError",
    "EstimationError",
    "FiniteDiffConfig",
    "LipschitzData",
    "Objective",
    "estimate_lipschitz",
    "forward_difference_gradient",
    "gradient_bounds",
    "minibatch_gradients",
]


class ConfigurationError(ValueError):
    """Invalid configuration: bad box, bad parameter, unknown name."""


class EstimationError(RuntimeError):
    """A gradient estimate hit a non-finite objective value.

    ``coordinate`` is the index of the offending probe direction, or None
    when the base point itself evaluated to a non-finite value.
    """

    def __init__(self, message: str, coordinate: Optional[int] = None,
                 particle: Optional[int] = None):
        super().__init__(message)
        self.coordinate = coordinate
        self.particle = particle


def _is_count(value) -> bool:  # numpy integers count, bools do not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _reals(value) -> bool:  # reals or arrays of them, not bools or 10**400
    try:
        return np.asarray(value).dtype.kind in ("i", "u", "f")
    except ValueError:  # a ragged sequence
        return False


def _is_real(value) -> bool:  # one real number; numpy scalars count
    return isinstance(value, numbers.Real) and _reals(value)


def _all_finite(a: np.ndarray) -> bool:  # np.isfinite(a).all(), unwrapped
    return np.count_nonzero(np.isfinite(a)) == a.size


class Objective:
    """A batch function f: (B, d) -> (B,) wrapped with an evaluation counter.

    The counter increases by exactly one per evaluated point, including every
    probe point consumed by gradient estimation.  It is a plain integer with
    no lock, because nothing evaluates an objective from several threads.
    ``fn`` must be deterministic and map a (B, d) array to B values;
    ``eval`` is the B = 1 case of ``eval_many``.

    ``probe_kernel(centers, delta)``, when given, returns f at the (B*d, d)
    coordinate probes ``rows[i*d + l] = fl(centers[i] + sigma e_l)`` of a
    (B, d) batch of centers from the steps ``delta[i, l] = rows[i*d + l, l]
    - centers[i, l]``; ``minibatch_gradients`` uses it through ``eval_many``.
    """

    def __init__(self, dim: int, fn: Callable, name: str | None = None,
                 probe_kernel: Optional[Callable] = None):
        if dim < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self._fn = fn
        self._probe_kernel = probe_kernel
        self.name = name or getattr(fn, "__name__", "objective")
        self._count = 0

    @property
    def eval_count(self) -> int:
        return self._count

    def reset_count(self) -> None:
        self._count = 0

    def eval(self, x) -> float:
        """f at one point of shape (d,): the batch of that one point."""
        return float(self.eval_many(np.asarray(x, dtype=float)[None])[0])

    def eval_many(self, points, centers=None) -> np.ndarray:
        """Evaluate a (B, d) batch of points; counts B evaluations.

        ``centers`` marks ``points`` as the coordinate probes of those
        (B // d, d) centers (see the class docstring), which an objective
        with a probe kernel evaluates through it.
        """
        pts = np.asarray(points, dtype=float)
        d = self.dim
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ConfigurationError(f"{self.name}: expected a (B, {d}) "
                                     f"batch, got shape {pts.shape}")
        b = pts.shape[0]
        if centers is not None and (b % d or np.shape(centers) != (b // d, d)):
            raise ConfigurationError(
                f"{self.name}: {b} probe rows need ({b // d}, {d}) centers, "
                f"got shape {np.shape(centers)}")
        self._count += b
        if centers is not None and self._probe_kernel is not None:
            c = np.asarray(centers, dtype=float)
            # Row i*d + l differs from center i in coordinate l only.
            delta = pts.reshape(b // d, d * d)[:, ::d + 1] - c
            return self._probe_kernel(c, delta)
        vals = np.asarray(self._fn(pts), dtype=float)
        if vals.shape != (b,):
            raise ConfigurationError(f"{self.name}: fn gave shape "
                                     f"{vals.shape} for {b} points, not ({b},)")
        return vals

    def __repr__(self):
        return f"Objective({self.name!r}, dim={self.dim}, evals={self._count})"


@dataclass(frozen=True)
class FiniteDiffConfig:
    """Finite-difference interval for the forward-difference estimator."""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ConfigurationError(
                f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class LipschitzData:
    """Gradient-estimator bounds derived from a Lipschitz constant.

    ``M_g`` bounds the estimator norm and ``L_g`` its Lipschitz constant.
    Instances are immutable; rebuild via :func:`gradient_bounds` whenever
    ``sigma`` or the dimension changes so the derived values stay consistent.
    """

    L_f: float
    dim: int
    sigma: float
    M_g: float
    L_g: float


def gradient_bounds(L_f: float, d: int, sigma: float) -> LipschitzData:
    """Bounds on the forward-difference estimator of an L_f-Lipschitz function."""
    if not (L_f > 0 and d >= 1 and sigma > 0):
        raise ConfigurationError(
            f"need L_f > 0, d >= 1, sigma > 0; got {L_f}, {d}, {sigma}")
    root_d = np.sqrt(float(d))
    return LipschitzData(L_f=float(L_f), dim=int(d), sigma=float(sigma),
                         M_g=float(root_d * L_f),
                         L_g=float(2.0 * root_d * L_f / sigma))


def forward_difference_gradient(obj: Objective, x, cfg: FiniteDiffConfig) -> np.ndarray:
    """Per-coordinate forward differences (f(x + sigma e_l) - f(x)) / sigma.

    The one-particle case of :func:`minibatch_gradients`: consumes exactly
    d + 1 evaluations, the base value f(x) once and shared across all d
    coordinate probes.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise ConfigurationError(f"point shape {x.shape} != ({obj.dim},)")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("non-finite point")
    return minibatch_gradients(obj, x[None, :], [0], cfg)[0]


def minibatch_gradients(obj: Objective, positions, batch,
                        cfg: FiniteDiffConfig) -> np.ndarray:
    """Forward-difference gradients for a subset of particles, zeros elsewhere.

    ``batch`` is a set of integer particle indices into ``positions``, or
    None for every particle.  Consumes exactly |batch| * (d + 1)
    evaluations: one ``eval_many`` call on the batch's base points, then one
    on its coordinate probes.  Particles outside the batch get a zero vector.
    """
    pts = np.ascontiguousarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != obj.dim:
        raise ConfigurationError(
            f"positions must be (N, {obj.dim}), got {pts.shape}")
    n, d = pts.shape
    if batch is None:
        idx = range(n)
    else:
        raw = np.asarray(list(batch))
        if raw.size and raw.dtype.kind not in "iu":  # a mask, 1.7, ...
            raise ConfigurationError(
                f"batch must hold integer indices, got {raw.dtype}")
        idx = np.unique(raw.astype(int))
    b = len(idx)
    if b == 0:
        return np.zeros_like(pts)
    if idx[0] < 0 or idx[-1] >= n:
        raise ConfigurationError(
            f"batch indices must lie in [0, {n - 1}], got {idx[0]}..{idx[-1]}")
    # Sorted, unique and in range: a batch of size n is every particle.
    centers = pts if b == n else pts[idx]
    base = obj.eval_many(centers)
    probes = centers.repeat(d, axis=0)
    probes.reshape(b, d * d)[:, ::d + 1] += cfg.sigma
    vals = obj.eval_many(probes, centers=centers).reshape(b, d)
    if not _all_finite(base):
        i = np.flatnonzero(~np.isfinite(base))[0]
        raise EstimationError(
            f"objective non-finite at particle {idx[i]}",
            coordinate=None, particle=int(idx[i]))
    if not _all_finite(vals):
        i, l = np.argwhere(~np.isfinite(vals))[0]
        raise EstimationError(
            f"objective non-finite at probe coordinate {l} of particle {idx[i]}",
            coordinate=int(l), particle=int(idx[i]))
    grads = (vals - base[:, None]) / cfg.sigma
    if b == n:
        return grads
    out = np.zeros_like(pts)
    out[idx] = grads
    return out


def estimate_lipschitz(obj: Objective, lo, hi, samples: int = 256,
                       seed: int = 0) -> float:
    """Estimate a Lipschitz constant by the largest pairwise difference quotient.

    Samples points uniformly in the box [lo, hi] and returns
    max |f(x) - f(y)| / ||x - y|| over all sampled pairs.  This is a lower
    estimate of the true constant; report it as an estimate, not a bound.
    """
    if samples < 2:
        raise ConfigurationError(f"need samples >= 2, got {samples}")
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (obj.dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (obj.dim,))
    if np.any(lo >= hi):
        raise ConfigurationError("degenerate box: lo >= hi in some coordinate")
    gen = np.random.default_rng(seed)
    pts = gen.uniform(lo, hi, size=(samples, obj.dim))
    vals = obj.eval_many(pts)
    dv = np.abs(vals[:, None] - vals[None, :])
    dx = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    iu = np.triu_indices(samples, k=1)
    dv, dx = dv[iu], dx[iu]
    mask = dx > 0
    if not mask.any():
        return 0.0
    return float(np.max(dv[mask] / dx[mask]))
