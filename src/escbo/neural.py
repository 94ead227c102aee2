"""Sigmoid multilayer perceptron packaged as a black-box training objective.

The network applies a sigmoid after every layer, including the last one, and
is optimized over a single flattened parameter vector so any stepper can
train it.  Synthetic regression data comes from a randomly drawn
ground-truth network plus observation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import ConfigurationError, Objective, _is_count

__all__ = [
    "MLPArchitecture",
    "SyntheticDataset",
    "dnn_objective",
    "flatten",
    "forward",
    "generate_synthetic",
    "load_dataset",
    "save_dataset",
    "test_error",
    "train_error",
    "unflatten",
]

TRUTH_VARIANCE = 0.8
NOISE_STD = 0.0025


@dataclass(frozen=True)
class MLPArchitecture:
    """Layer widths N0..NL; the flattened parameter dimension follows."""

    widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(self.widths) if isinstance(
            self.widths, (tuple, list, np.ndarray)) else ()
        if len(widths) < 2:
            raise ConfigurationError("need at least input and output widths")
        if not all(_is_count(w) and w >= 1 for w in widths):
            raise ConfigurationError(f"every layer width must be an integer "
                                     f">= 1, got {self.widths!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def dim(self) -> int:
        w = self.widths
        return sum(w[i] * w[i + 1] for i in range(self.n_layers)) \
            + sum(w[1:])

    def __str__(self):
        return "-".join(str(w) for w in self.widths)


def _sigmoid(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Below s = -709.78, exp(-s) overflows to inf and the result is 0; the
    # callers silence that overflow.  Pass out=s to transform in place.
    out = np.negative(s, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def flatten(weights, biases) -> np.ndarray:
    """Concatenate (W1 row-major, b1, W2, b2, ...) into one vector."""
    parts = []
    for w, b in zip(weights, biases):
        parts.append(np.asarray(w, dtype=float).ravel())
        parts.append(np.asarray(b, dtype=float).ravel())
    return np.concatenate(parts)


def _param_vector(params, arch: MLPArchitecture) -> np.ndarray:
    vec = np.asarray(params, dtype=float).ravel()
    if vec.size != arch.dim:
        raise ConfigurationError(
            f"parameter vector length {vec.size} != {arch.dim} "
            f"for architecture {arch}")
    return vec


def _layers(arch: MLPArchitecture, pop: np.ndarray) -> list:
    """Per layer, the views (W (B, n_out, n_in), b (B, n_out)) of a (B, d)
    array of flattened parameter vectors; writing to them writes to pop."""
    b_count, pos, layers = pop.shape[0], 0, []
    for n_in, n_out in zip(arch.widths, arch.widths[1:]):
        end = pos + n_out * n_in
        layers.append((pop[:, pos:end].reshape(b_count, n_out, n_in),
                       pop[:, end:end + n_out]))
        pos = end + n_out
    return layers


def unflatten(params, arch: MLPArchitecture):
    """Split a flat vector back into weight matrices and bias vectors."""
    layers = _layers(arch, _param_vector(params, arch)[None])
    return [wm[0] for wm, _ in layers], [bias[0] for _, bias in layers]


def forward(arch: MLPArchitecture, params, u) -> np.ndarray:
    """Network output for inputs u of shape (N0,) or (M, N0)."""
    x = np.asarray(u, dtype=float)
    h = _forward(arch, _param_vector(params, arch)[None], np.atleast_2d(x).T)
    return h[0, :, 0] if x.ndim == 1 else h[0].T


@np.errstate(over="ignore")
def _forward(arch: MLPArchitecture, pop: np.ndarray, h: np.ndarray,
             keep: list | None = None) -> np.ndarray:
    """Outputs (B, NL, M) of a population of parameter vectors (B, d) on
    inputs h (N0, M).  Given a list ``keep``, appends each layer's
    pre-activations z and activations a, both (B, width, M), as (z, a)."""
    for wm, bias in _layers(arch, pop):
        z = wm @ h
        z += bias[:, :, None]
        h = _sigmoid(z, out=z if keep is None else None)
        if keep is not None:
            keep.append((z, h))
    return h


@dataclass(eq=False)
class SyntheticDataset:
    """Inputs and noisy targets; the first M rows are the training split.

    ``truth_params`` is the generating network (None for imported data).
    """

    inputs: np.ndarray   # (M + M_test, N0)
    targets: np.ndarray  # (M + M_test, NL)
    M: int
    M_test: int
    truth_params: np.ndarray | None = None

    @property
    def train_inputs(self):
        return self.inputs[:self.M]

    @property
    def train_targets(self):
        return self.targets[:self.M]

    @property
    def test_inputs(self):
        return self.inputs[self.M:]

    @property
    def test_targets(self):
        return self.targets[self.M:]


def generate_synthetic(arch: MLPArchitecture, seed: int, M: int = 80,
                       M_test: int = 20) -> SyntheticDataset:
    """Deterministic synthetic regression data for the given architecture.

    Ground-truth parameters are drawn with variance 0.8 elementwise.  Inputs
    follow u = a + Sigma * z with standard-Gaussian vectors a, Sigma and
    scalar z ~ N(0, 1), giving the rank-one covariance Sigma Sigma^T.
    Targets add Gaussian noise with standard deviation 0.0025 per component
    to the truth network's outputs, so the irreducible test error is
    NL * 0.0025^2.
    """
    gen = np.random.default_rng(seed)
    n0, total = arch.widths[0], M + M_test
    truth = gen.normal(0.0, np.sqrt(TRUTH_VARIANCE), size=arch.dim)
    a = gen.normal(size=n0)
    spread = gen.normal(size=n0)
    z = gen.normal(size=total)
    inputs = a + z[:, None] * spread
    noise = gen.normal(0.0, NOISE_STD, size=(total, arch.widths[-1]))
    targets = forward(arch, truth, inputs) + noise
    return SyntheticDataset(inputs=inputs, targets=targets, M=M,
                            M_test=M_test, truth_params=truth)


def _mse(arch, pop: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mean squared error of each parameter vector in a (..., d) array on
    inputs u (N0, M) and targets v (NL, M)."""
    resid = _forward(arch, pop.reshape(-1, arch.dim), u)
    resid -= v
    sq = np.einsum("bom,bom->b", resid, resid)
    return (sq / u.shape[1]).reshape(pop.shape[:-1])


def train_error(arch: MLPArchitecture, params, data: SyntheticDataset) -> float:
    """Mean squared error over the training split."""
    return float(_mse(arch, _param_vector(params, arch), data.train_inputs.T,
                      data.train_targets.T))


def test_error(arch: MLPArchitecture, params, data: SyntheticDataset) -> float:
    """Mean squared error over the held-out split."""
    return float(_mse(arch, _param_vector(params, arch), data.test_inputs.T,
                      data.test_targets.T))


class _ProbeKernel:
    """Training error at the coordinate probes of a batch of centers.

    One base pass per center keeps every layer's pre-activations z and
    activations a, in (B, width, M) layout.  A probe of weight (j, k) of
    layer i, or of bias j as input k = n_in, moves only z_i[j], by delta
    times input k (1 for the bias), where delta = fl(x_l + sigma) - x_l is
    the probe's step (see ``Objective``).  Then a_i[j] changes, layer i+1's
    pre-activation moves by that change times column j of W_{i+1}, and only
    the layers after that run in full; an output-layer probe changes only
    that output's residual.  All probes of a layer are evaluated together as
    broadcasts over (j, k), and each later layer as one matrix product per
    center.  Work arrays are kept between calls: allocating them afresh
    costs more in page faults than the arithmetic done in them.
    """

    def __init__(self, arch: MLPArchitecture, u: np.ndarray, v: np.ndarray):
        self.arch = arch
        self.u, self.v = u, v   # inputs (N0, M) and targets (NL, M)
        self._work: dict = {}

    def _buffer(self, key, shape) -> np.ndarray:
        buf = self._work.get(key)
        if buf is None or buf.shape != shape:
            buf = self._work[key] = np.empty(shape)
        return buf

    @np.errstate(over="ignore")
    def __call__(self, centers: np.ndarray, delta: np.ndarray) -> np.ndarray:
        b_count, d = centers.shape
        m = self.u.shape[1]
        layers = _layers(self.arch, centers)
        trace = []   # the base pass: per layer, (z, a) in (B, width, M)
        resid = _forward(self.arch, centers, self.u, keep=trace) - self.v
        zs, acts = zip(*trace)
        sq_out = np.einsum("bom,bom->bo", resid, resid)   # (B, NL)
        out = np.empty((b_count, d))
        for i, ((dw, db), (out_w, out_b)) in enumerate(
                zip(_layers(self.arch, delta), _layers(self.arch, out))):
            # The layer's deltas as (B, n_out, n_in + 1) with the bias in
            # the last column, and its input with a row of ones below.
            _, n_out, n_in = dw.shape
            dl = self._buffer(("delta", i), (b_count, n_out, n_in + 1))
            dl[:, :, :n_in] = dw
            dl[:, :, n_in] = db
            ext = self._buffer(("in", i), (b_count, n_in + 1, m))
            ext[:, :-1] = acts[i - 1] if i else self.u
            ext[:, -1] = 1.0
            z = self._buffer(("z", i), (b_count, n_out, n_in + 1, m))
            np.multiply(dl[:, :, :, None], ext[:, None, :, :], out=z)
            z += zs[i][:, :, None, :]
            a = _sigmoid(z, out=z)                # (B, n_out, n_in + 1, M)
            if i == len(layers) - 1:
                a -= self.v[:, None, :]
                a *= a
                vals = (sq_out.sum(axis=1)[:, None, None] - sq_out[:, :, None]
                        + a.sum(axis=3))
            else:
                a -= acts[i][:, :, None, :]          # change in a_i[j]
                wm = layers[i + 1][0]
                h = self._buffer(("h", i, i + 1), wm.shape[:2] + a.shape[1:])
                np.multiply(wm[:, :, :, None, None], a[:, None], out=h)
                h += zs[i + 1][:, :, None, None, :]
                h = _sigmoid(h, out=h).reshape(wm.shape[:2] + (-1,))
                for j, (wm, bias) in enumerate(layers[i + 2:], i + 2):
                    nxt = self._buffer(("h", i, j), wm.shape[:2] + h.shape[2:])
                    np.matmul(wm, h, out=nxt)
                    nxt += bias[:, :, None]
                    h = _sigmoid(nxt, out=nxt)
                h = h.reshape(h.shape[:2] + a.shape[1:])
                h -= self.v[:, None, None, :]
                h *= h
                vals = h.sum(axis=(1, 4))
            out_w[...] = vals[:, :, :-1]
            out_b[...] = vals[:, :, -1]
        out /= m
        return out.ravel()


def dnn_objective(arch: MLPArchitecture, data: SyntheticDataset) -> Objective:
    """Training error as an Objective over the flattened parameter space.

    Coordinate probes go through a probe kernel that reuses each center's
    forward pass up to the probed layer (see ``_ProbeKernel``).
    """
    u, v = data.train_inputs.T.copy(), data.train_targets.T.copy()
    return Objective(dim=arch.dim, fn=lambda pop: _mse(arch, pop, u, v),
                     name=f"dnn({arch})", probe_kernel=_ProbeKernel(arch, u, v))


def save_dataset(data: SyntheticDataset, path) -> None:
    """Write the dataset as a flat numeric text table.

    Header row: N0 NL M M_test.  Then one row per sample with the N0 input
    components followed by the NL target components.
    """
    n0 = data.inputs.shape[1]
    nl = data.targets.shape[1]
    rows = np.hstack([data.inputs, data.targets])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{n0} {nl} {data.M} {data.M_test}\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path) -> SyntheticDataset:
    """Read a dataset written by save_dataset; truth_params is not stored."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ConfigurationError("dataset header must be: N0 NL M M_test")
        n0, nl, m, m_test = (int(v) for v in header)
        rows = np.loadtxt(fh, ndmin=2)
    if rows.shape != (m + m_test, n0 + nl):
        raise ConfigurationError(
            f"dataset body shape {rows.shape} does not match header")
    return SyntheticDataset(inputs=rows[:, :n0], targets=rows[:, n0:],
                            M=m, M_test=m_test, truth_params=None)
