"""Nonconvex benchmark objectives with known global minimizers.

Each function accepts arrays of shape (..., d) and reduces over the last
axis, so single points and batches evaluate through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import ConfigurationError, Objective, _check, _row_sums

__all__ = [
    "BenchmarkSpec",
    "ackley",
    "available",
    "bartels_conn",
    "griewank",
    "lookup",
    "rastrigin",
    "rastrigin1d",
    "salomon",
    "schaffer4",
    "xinsheyang4",
]

_TWO_PI = 2.0 * np.pi


def rastrigin(x):
    """Dimension-averaged Rastrigin; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    c = _TWO_PI * x  # 10.0 * np.cos(_TWO_PI * x), in one temporary
    np.cos(c, out=c)
    c *= 10.0
    v = x * x
    v -= c
    v += 10.0
    return _row_sums(v) / x.shape[-1]  # np.mean, unwrapped


def salomon(x):
    """Radial cosine ridge plus a conic term; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(_row_sums(x * x))
    return 1.0 - np.cos(_TWO_PI * r) + 0.1 * r


def griewank(x):
    """Quadratic bowl modulated by a cosine product; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    idx = np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))
    return 1.0 + _row_sums(x * x) / 4000.0 \
        - np.prod(np.cos(x / idx), axis=-1)


def ackley(x):
    """Exponential well with cosine ripples; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    msq = _row_sums(x * x) / d
    mc = _row_sums(np.cos(_TWO_PI * x)) / d
    return -20.0 * np.exp(-0.2 * np.sqrt(msq)) - np.exp(mc) + 20.0 + np.e


def xinsheyang4(x):
    """Sine-squared landscape with a sharp exponential well; minimum 0 at 0.

    The inner square root is taken on |x_l| so the function stays real on
    symmetric boxes, matching the stated minimum at the origin.
    """
    x = np.asarray(x, dtype=float)
    s2 = np.sin(x) ** 2
    inner = _row_sums(s2) - np.exp(-_row_sums(x * x))
    return inner * np.exp(-_row_sums(np.sin(np.sqrt(np.abs(x))) ** 2)) \
        + 1.0


def bartels_conn(x):
    """Absolute-value quadratic form plus trig terms; minimum 1 at (0, 0)."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return np.abs(x1 * x1 + x2 * x2 + x1 * x2) + np.abs(np.sin(x1)) \
        + np.abs(np.cos(x2))


def schaffer4(x):
    """Oscillatory two-dimensional ridge; four symmetric global minimizers."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    num = np.cos(np.sin(x1 * x1 - x2 * x2)) ** 2 - 0.5
    den = (1.0 + 0.001 * (x1 * x1 + x2 * x2)) ** 2
    return 0.5 + num / den


def rastrigin1d(x):
    """Unnormalized one-dimensional Rastrigin; minimum 0 at the origin.

    Satisfies the local growth condition with f_inf = 1, R0 = 1, nu = 1/2,
    mu = 1.  ``x`` is a scalar or has shape (..., 1); with one coordinate,
    ``rastrigin``'s mean over coordinates is this sum.
    """
    return rastrigin(np.atleast_1d(x))


@dataclass(frozen=True, eq=False)
class BenchmarkSpec:
    """A named objective with verified minimizers and a default search box."""

    name: str
    dim: int
    objective: Objective
    x_star: np.ndarray  # (n_minimizers, dim)
    f_star: float
    lo: float
    hi: float


_SCHAFFER4_A = 1.253115

# name -> (kernel, fixed_dim or None, minimizers(d), f_star or None, box)
_CATALOG = {
    "rastrigin": (rastrigin, None, lambda d: np.zeros((1, d)), 0.0, (-5.0, 5.0)),
    "salomon": (salomon, None, lambda d: np.zeros((1, d)), 0.0, (-5.0, 5.0)),
    "griewank": (griewank, None, lambda d: np.zeros((1, d)), 0.0, (-5.0, 5.0)),
    "ackley": (ackley, None, lambda d: np.zeros((1, d)), 0.0, (-5.0, 5.0)),
    "xinsheyang4": (xinsheyang4, None, lambda d: np.zeros((1, d)), 0.0,
                    (-5.0, 5.0)),
    "bartels_conn": (bartels_conn, 2, lambda d: np.zeros((1, 2)), 1.0,
                     (-5.0, 5.0)),
    # The catalog value 0.292579 is a rounded published figure; the registered
    # f_star is evaluated at the listed minimizers instead of assumed.
    "schaffer4": (schaffer4, 2,
                  lambda d: np.array([[0.0, _SCHAFFER4_A],
                                      [0.0, -_SCHAFFER4_A],
                                      [_SCHAFFER4_A, 0.0],
                                      [-_SCHAFFER4_A, 0.0]]),
                  None, (-5.0, 5.0)),
    "rastrigin1d": (rastrigin1d, 1, lambda d: np.zeros((1, 1)), 0.0,
                    (-3.0, 3.0)),
}


def available() -> list[str]:
    return sorted(_CATALOG)


def lookup(name: str, d: int | None = None) -> BenchmarkSpec:
    """Build a BenchmarkSpec with a fresh evaluation counter.

    Verifies f(x*) = f_star to within 1e-9 for every listed minimizer before
    returning.  Fixed-dimension entries reject mismatched d.
    """
    if name not in _CATALOG:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {', '.join(available())}")
    kernel, fixed_dim, minimizers, f_star, (lo, hi) = _CATALOG[name]
    if fixed_dim is not None:
        if d is not None and d != fixed_dim:
            raise ConfigurationError(
                f"{name} is defined for d = {fixed_dim}, got d = {d}")
        d = fixed_dim
    elif d is None:
        raise ConfigurationError(f"{name} needs an explicit dimension")
    _check("d", d, "[1, inf)", count=True)
    x_star = np.asarray(minimizers(d), dtype=float)
    vals = np.asarray(kernel(x_star), dtype=float)
    if f_star is None:
        f_star = float(vals[0])
    if np.max(np.abs(vals - f_star)) > 1e-9:
        raise ConfigurationError(
            f"benchmark {name} failed minimizer verification: "
            f"max |f(x*) - f*| = {np.max(np.abs(vals - f_star)):.3e}")
    obj = Objective(dim=d, fn=kernel, name=name)
    return BenchmarkSpec(name=name, dim=d, objective=obj, x_star=x_star,
                         f_star=float(f_star), lo=lo, hi=hi)
