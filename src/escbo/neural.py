"""Sigmoid multilayer perceptron packaged as a black-box training objective.

The network applies a sigmoid after every layer, including the last one, and
is optimized over a single flattened parameter vector so any stepper can
train it.  Synthetic regression data comes from a randomly drawn
ground-truth network plus observation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import ConfigurationError, Objective

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
        if len(self.widths) < 2:
            raise ConfigurationError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ConfigurationError("every layer width must be >= 1")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

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
    # Capping -s at 709 keeps exp within float range.  It needs no lower
    # cap: for s > 709 the sum 1 + exp(-s) rounds to 1 either way.  Pass
    # out=s to transform in place.
    out = np.negative(s, out=out)
    np.minimum(out, 709.0, out=out)
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


def unflatten(params, arch: MLPArchitecture):
    """Split a flat vector back into weight matrices and bias vectors."""
    vec = np.asarray(params, dtype=float).ravel()
    if vec.size != arch.dim:
        raise ConfigurationError(
            f"parameter vector length {vec.size} != {arch.dim} "
            f"for architecture {arch}")
    weights, biases, pos = [], [], 0
    w = arch.widths
    for i in range(arch.n_layers):
        n_in, n_out = w[i], w[i + 1]
        weights.append(vec[pos:pos + n_out * n_in].reshape(n_out, n_in))
        pos += n_out * n_in
        biases.append(vec[pos:pos + n_out])
        pos += n_out
    return weights, biases


def forward(arch: MLPArchitecture, params, u) -> np.ndarray:
    """Network output for inputs u of shape (N0,) or (M, N0)."""
    weights, biases = unflatten(params, arch)
    x = np.asarray(u, dtype=float)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    for w, b in zip(weights, biases):
        h = _sigmoid(h @ w.T + b)
    return h[0] if single else h


def _forward_population(arch: MLPArchitecture, pop: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
    """Outputs (B, M, NL) for a population of parameter vectors (B, d)."""
    w = arch.widths
    b_count = pop.shape[0]
    h = np.broadcast_to(u, (b_count,) + u.shape)
    pos = 0
    for i in range(arch.n_layers):
        n_in, n_out = w[i], w[i + 1]
        wm = pop[:, pos:pos + n_out * n_in].reshape(b_count, n_out, n_in)
        pos += n_out * n_in
        bias = pop[:, pos:pos + n_out]
        pos += n_out
        h = h @ wm.transpose(0, 2, 1)
        h += bias[:, None, :]
        h = _sigmoid(h, out=h)
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


def _mse(arch, params, inputs, targets) -> float:
    resid = forward(arch, params, inputs) - targets
    return float(np.mean(np.sum(resid * resid, axis=1)))


def train_error(arch: MLPArchitecture, params, data: SyntheticDataset) -> float:
    """Mean squared error over the training split."""
    return _mse(arch, params, data.train_inputs, data.train_targets)


def test_error(arch: MLPArchitecture, params, data: SyntheticDataset) -> float:
    """Mean squared error over the held-out split."""
    return _mse(arch, params, data.test_inputs, data.test_targets)


class _ProbeKernel:
    """Training error at the coordinate probes of a batch of centers.

    One base pass per center keeps every layer's pre-activations z and
    activations a, in (B, width, M) layout.  A probe of weight (j, k) of
    layer i, or of bias j as input k = n_in, moves only z_i[j], by delta
    times input k (1 for the bias), where delta = fl(x_l + sigma) - x_l is
    read from the probe row itself.  Then a_i[j] changes, layer i+1's
    pre-activation moves by that change times column j of W_{i+1}, and only
    the layers after that run in full; an output-layer probe changes only
    that output's residual.  All probes of a layer are evaluated together as
    broadcasts over (j, k), and each later layer as one matrix product per
    center.  Work arrays are kept between calls: allocating them afresh
    costs more in page faults than the arithmetic done in them.
    """

    def __init__(self, arch: MLPArchitecture, u: np.ndarray, v: np.ndarray):
        self.widths = arch.widths
        self.u = np.ascontiguousarray(u.T)   # (N0, M)
        self.v = np.ascontiguousarray(v.T)   # (NL, M)
        self._work: dict = {}

    def _buffer(self, key, shape) -> np.ndarray:
        buf = self._work.get(key)
        if buf is None or buf.shape != shape:
            buf = self._work[key] = np.empty(shape)
        return buf

    def __call__(self, centers: np.ndarray, rows: np.ndarray) -> np.ndarray:
        b_count, d = centers.shape
        m = self.u.shape[1]
        diag = np.arange(d)
        delta = rows.reshape(b_count, d, d)[:, diag, diag] - centers
        # Per layer: W (B, n_out, n_in), and the parameters' deltas laid out
        # as (B, n_out, n_in + 1) with the bias in the last column.
        weights, biases, deltas, pos = [], [], [], 0
        for i, (n_in, n_out) in enumerate(zip(self.widths, self.widths[1:])):
            end = pos + n_out * n_in
            weights.append(centers[:, pos:end].reshape(b_count, n_out, n_in))
            biases.append(centers[:, end:end + n_out])
            dl = self._buffer(("delta", i), (b_count, n_out, n_in + 1))
            dl[:, :, :n_in] = delta[:, pos:end].reshape(b_count, n_out, n_in)
            dl[:, :, n_in] = delta[:, end:end + n_out]
            deltas.append(dl)
            pos = end + n_out
        # Base pass; inputs[i] is layer i's input with a row of ones below.
        zs, acts, inputs = [], [], []
        h = self.u
        for i, (wm, bias) in enumerate(zip(weights, biases)):
            ext = self._buffer(("in", i), (b_count, wm.shape[2] + 1, m))
            ext[:, :-1] = h
            ext[:, -1] = 1.0
            inputs.append(ext)
            z = wm @ h
            z += bias[:, :, None]
            zs.append(z)
            h = _sigmoid(z)
            acts.append(h)
        resid = h - self.v
        sq_out = np.einsum("bom,bom->bo", resid, resid)   # (B, NL)
        out = np.empty((b_count, d))
        pos, last = 0, len(weights) - 1
        for i, dl in enumerate(deltas):
            _, n_out, n_ext = dl.shape
            z = self._buffer(("z", i), (b_count, n_out, n_ext, m))
            np.multiply(dl[:, :, :, None], inputs[i][:, None, :, :], out=z)
            z += zs[i][:, :, None, :]
            a = _sigmoid(z, out=z)                   # (B, n_out, n_ext, M)
            if i == last:
                a -= self.v[:, None, :]
                a *= a
                vals = (sq_out.sum(axis=1)[:, None, None] - sq_out[:, :, None]
                        + a.sum(axis=3))
            else:
                a -= acts[i][:, :, None, :]          # change in a_i[j]
                wm = weights[i + 1]
                h = self._buffer(("h", i, i + 1), wm.shape[:2] + a.shape[1:])
                np.multiply(wm[:, :, :, None, None], a[:, None], out=h)
                h += zs[i + 1][:, :, None, None, :]
                h = _sigmoid(h, out=h).reshape(wm.shape[:2] + (-1,))
                for j in range(i + 2, last + 1):
                    wm = weights[j]
                    nxt = self._buffer(("h", i, j), wm.shape[:2] + h.shape[2:])
                    np.matmul(wm, h, out=nxt)
                    nxt += biases[j][:, :, None]
                    h = _sigmoid(nxt, out=nxt)
                h = h.reshape(h.shape[:2] + a.shape[1:])
                h -= self.v[:, None, None, :]
                h *= h
                vals = h.sum(axis=(1, 4))
            end = pos + n_out * (n_ext - 1)
            out[:, pos:end] = vals[:, :, :-1].reshape(b_count, -1)
            out[:, end:end + n_out] = vals[:, :, -1]
            pos = end + n_out
        out /= m
        return out.ravel()


def dnn_objective(arch: MLPArchitecture, data: SyntheticDataset) -> Objective:
    """Training error as an Objective over the flattened parameter space.

    Coordinate probes go through a probe kernel that reuses each center's
    forward pass up to the probed layer (see ``_ProbeKernel``).
    """
    u, v = data.train_inputs, data.train_targets

    def batch_train_error(pop):
        resid = _forward_population(arch, pop, u) - v
        return np.mean(np.sum(resid * resid, axis=2), axis=1)

    def kernel(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return batch_train_error(x[None, :])[0]
        return batch_train_error(x)

    return Objective(dim=arch.dim, fn=kernel, vectorized=True,
                     name=f"dnn({arch})",
                     probe_kernel=_ProbeKernel(arch, u, v))


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
