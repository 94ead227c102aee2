"""Black-box objectives with evaluation accounting and forward-difference gradients."""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConfigurationError",
    "EstimationError",
    "LipschitzData",
    "Objective",
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
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _reals(value) -> bool:  # reals or arrays of them, not bools or 10**400
    try:  # numpy reads [0.0, True] as reals, so each item is asked too
        return np.asarray(value).dtype.kind in ("i", "u", "f") and (
            not isinstance(value, (list, tuple)) or all(map(_reals, value)))
    except ValueError:  # a ragged sequence
        return False


def _is_real(value) -> bool:  # one real number; numpy scalars count
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and _reals(value))


_intervals: dict = {}  # interval text -> (lo, hi, lo closed, hi closed)
_FLOAT = np.dtype(float)


def _check(name: str, value, interval: str, count: bool = False):
    """``value`` as a Python float if it is a real number, or for a ``count``
    as a Python int if it is an integer (not a bool) in [-2**63, 2**63), in
    ``interval``, written like "(0, inf)" or "[1, 20]", whose infinite ends
    are open; otherwise a ConfigurationError.  A numpy scalar thus computes
    on as the Python number it equals, without numpy's warnings."""
    if interval not in _intervals:  # parsed once, into a bounded cache
        if len(_intervals) >= 256:
            _intervals.clear()
        lo, hi = (float(end) for end in interval[1:-1].split(", "))
        _intervals[interval] = (lo, hi, interval[0] == "[" and lo > -np.inf,
                                interval[-1] == "]" and hi < np.inf)
    lo, hi, lo_closed, hi_closed = _intervals[interval]
    if ((_is_count(value) if count else _is_real(value))
            and (lo <= value if lo_closed else lo < value)
            and (value <= hi if hi_closed else value < hi)):
        if not count:
            return float(value)
        if -2 ** 63 <= value < 2 ** 63:
            return int(value)
        interval = "[-2**63, 2**63)"  # a count in its interval but past int64
    raise ConfigurationError(f"{name} must lie in {interval}, got {value!r}")


def _all_finite(a: np.ndarray) -> bool:  # np.isfinite(a).all(), unwrapped
    return np.count_nonzero(np.isfinite(a)) == a.size


def _array(name: str, value, ndim: Optional[int] = None, tail: tuple = (),
           finite: bool = False) -> np.ndarray:
    """``value`` as a float64 array of ``ndim`` axes (any if None) whose shape
    ends in ``tail``, all finite if ``finite``, or else a ConfigurationError:
    ragged, string, bool, complex and too-large integer input is not real.
    A float64 ndarray is returned as it is, not copied."""
    a = value
    if type(a) is not np.ndarray or a.dtype is not _FLOAT:
        if not _reals(a):
            raise ConfigurationError(f"{name} must be an array of real "
                                     f"numbers, got {reprlib.repr(value)}")
        a = np.asarray(a, dtype=float)
    if ndim is not None and (a.ndim != ndim
                             or a.shape[ndim - len(tail):] != tail):
        want = str(("*",) * (ndim - len(tail)) + tail).replace("'", "")
        raise ConfigurationError(f"{name} must have shape {want}, got {a.shape}")
    if finite and not _all_finite(a):
        raise ConfigurationError(f"{name} must be finite, got {reprlib.repr(a)}")
    return a


def _row_sums(a: np.ndarray):
    """``np.add.reduce(a, axis=-1)`` bit for bit: by column adds below 8
    entries, where numpy adds a row in order onto +0.0 (pairwise from 8 on).
    ``s + col``, not ``s += col``: numpy's in-place add of one row keeps the
    second of two NaN payloads, and ``add.reduce`` the first."""
    d = a.shape[-1]
    if not 0 < d < 8:
        return np.add.reduce(a, axis=-1)
    s = 0.0 + a[..., 0]
    for col in range(1, d):
        s = s + a[..., col]
    return s


class Objective:
    """A batch function f: (B, d) -> (B,) wrapped with an evaluation counter.

    The counter increases by exactly one per evaluated point, including every
    probe point consumed by gradient estimation.  It is a plain integer with
    no lock, because nothing evaluates an objective from several threads.
    ``fn`` must be deterministic and map a (B, d) array to B values.

    ``probe_kernel(centers, delta)``, when given, returns f at the (B*d, d)
    coordinate probes ``rows[i*d + l] = fl(centers[i] + sigma e_l)`` of a
    (B, d) batch of centers from the steps ``delta[i, l] = rows[i*d + l, l]
    - centers[i, l]``; ``minibatch_gradients`` uses it through ``eval_many``.
    """

    def __init__(self, dim: int, fn: Callable, name: str | None = None,
                 probe_kernel: Optional[Callable] = None):
        self.dim = int(_check("dim", dim, "[1, inf)", count=True))
        self._fn = fn
        self._probe_kernel = probe_kernel
        self.name = name or getattr(fn, "__name__", "objective")
        self._count = 0

    @property
    def eval_count(self) -> int:
        return self._count

    def eval_many(self, points, centers=None, values=None) -> np.ndarray:
        """Evaluate a (B, d) batch of points; counts B evaluations.

        ``centers`` marks ``points`` as the coordinate probes of those
        (B // d, d) centers (see the class docstring), which an objective
        with a probe kernel evaluates through it.  ``values``, the (B,)
        values f(points) already known, are counted and returned without
        calling ``fn``: the gradient steppers read their base values from
        the swarm's cache this way.
        """
        d = self.dim
        try:  # named here, so that only a failing call formats the name
            pts = _array("points", points, 2, (d,))
            b = pts.shape[0]
            if centers is not None:
                if b % d:
                    raise ConfigurationError(
                        f"centers need {d} probe rows each, got {b} rows")
                centers = _array("centers", centers, 2, (b // d, d))
            if values is not None:
                values = _array("values", values, 1, (b,))
            self._count += b
            if values is not None:
                return values
            if centers is not None and self._probe_kernel is not None:
                # Row i*d + l differs from center i in coordinate l only.
                delta = pts.reshape(b // d, d * d)[:, ::d + 1] - centers
                return self._probe_kernel(centers, delta)
            return _array("fn values", self._fn(pts), 1, (b,))
        except ConfigurationError as exc:  # its traceback kept
            exc.args = (f"{self.name}: {exc}",)
            raise


@dataclass(frozen=True)
class LipschitzData:
    """Gradient-estimator bounds derived from a Lipschitz constant.

    ``M_g`` bounds the estimator norm and ``L_g`` its Lipschitz constant.
    """

    M_g: float
    L_g: float


def gradient_bounds(L_f: float, d: int, sigma: float) -> LipschitzData:
    """Bounds on the forward-difference estimator of an L_f-Lipschitz function."""
    L_f = _check("L_f", L_f, "(0, inf)")
    _check("d", d, "[1, inf)", count=True)
    sigma = _check("sigma", sigma, "(0, inf)")
    root_d = float(np.sqrt(float(d)))  # Python floats overflow unwarned
    return LipschitzData(M_g=float(root_d * L_f),
                         L_g=float(2.0 * root_d * L_f / sigma))


def forward_difference_gradient(obj: Objective, x, sigma: float) -> np.ndarray:
    """Per-coordinate forward differences (f(x + sigma e_l) - f(x)) / sigma.

    The one-particle case of :func:`minibatch_gradients`: consumes exactly
    d + 1 evaluations, the base value f(x) once and shared across all d
    coordinate probes.
    """
    x = _array("x", x, 1, (obj.dim,), finite=True)
    return minibatch_gradients(obj, x[None, :], [0], sigma)[0]


def minibatch_gradients(obj: Objective, positions, batch, sigma: float,
                        values=None) -> np.ndarray:
    """Forward-difference gradients for a subset of particles, zeros elsewhere.

    ``batch`` is a set of integer particle indices into ``positions``, or
    None for every particle.  Consumes exactly |batch| * (d + 1)
    evaluations: one ``eval_many`` call on the batch's base points, then one
    on its coordinate probes.  Particles outside the batch get a zero vector.
    ``sigma`` is the forward-difference interval, a real 0 < sigma < inf.
    ``values``, when given, holds f at every position, (N,); the base
    values are read from it (still counted) instead of evaluated.  The
    gradient steppers pass the swarm's cached values this way.
    """
    _check("sigma", sigma, "(0, inf)")
    pts = _array("positions", positions, 2, (obj.dim,))
    n, d = pts.shape
    if values is not None:
        values = _array("values", values, 1, (n,))
    if batch is None:
        idx = range(n)
    else:
        try:  # indices in a list, a set or an array
            raw = np.asarray(list(batch))
        except (TypeError, ValueError):  # not iterable, or ragged
            raw = np.empty((0, 0))  # fails below
        if raw.ndim != 1 or raw.size and raw.dtype.kind not in "iu":
            raise ConfigurationError(
                f"batch must hold integer indices, got {reprlib.repr(batch)}")
        idx = np.unique(raw.astype(int))
    b = len(idx)
    if b == 0:
        return np.zeros_like(pts)
    if idx[0] < 0 or idx[-1] >= n:
        raise ConfigurationError(
            f"batch indices must lie in [0, {n - 1}], got {idx[0]}..{idx[-1]}")
    # Sorted, unique and in range: a batch of size n is every particle, used
    # as it is if C-ordered (a probe kernel's rounding follows the layout).
    centers = pts if b == n and pts.flags.c_contiguous else pts[idx]
    if values is not None and b < n:
        values = values[idx]
    base = obj.eval_many(centers, values=values)
    probes = centers.repeat(d, axis=0)
    probes.reshape(b, d * d)[:, ::d + 1] += sigma
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
    grads = (vals - base[:, None]) / sigma
    if b == n:
        return grads
    out = np.zeros_like(pts)
    out[idx] = grads
    return out

