"""Network families: single-layer ReQU, single-layer quadratic, deep conv ReQU.

All heads share the layout f(x) = sum_j a_j phi(w_j . x + b_j) with phi either
ReQU(z) = max(z, 0)^2 or the plain square.  The deep family first pushes x
through l-1 single-channel padded convolutions with leaky-ReLU activations;
each convolution grows the signal length by s - 1.

Flat parameter order (used by optimizers, gradients, and checkpoints):
head coefficients a, then W row-major (one row per neuron), then biases b,
then the conv filters v_1 ... v_{l-1} in layer order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numkit import conv_matrix

CHECKPOINT_FORMAT = "requland-checkpoint"
CHECKPOINT_VERSION = 1


def requ(z):
    """Rectified square: max(z, 0)^2, once continuously differentiable."""
    return np.square(np.maximum(z, 0.0))


def leaky_relu(z, slope: float):
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky slope must lie in (0, 1), got {slope}")
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0.0, z, slope * z)


def _check_head(a, W, b):
    a = np.asarray(a, dtype=float)
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if W.ndim != 2:
        raise ValueError("W must be 2-D with one row per neuron")
    m = W.shape[0]
    if a.shape != (m,) or b.shape != (m,):
        raise ValueError(f"head shapes disagree: a {a.shape}, W {W.shape}, b {b.shape}")
    if m < 1 or W.shape[1] < 1:
        raise ValueError("need at least one neuron and one input coordinate")
    for name, arr in (("a", a), ("W", W), ("b", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    return a, W, b


@dataclass
class SingleLayerReQUNet:
    """f(x) = sum_j a_j * requ(w_j . x + b_j)."""

    a: np.ndarray  # (m,)
    W: np.ndarray  # (m, d)
    b: np.ndarray  # (m,)

    activation = staticmethod(requ)

    def __post_init__(self):
        self.a, self.W, self.b = _check_head(self.a, self.W, self.b)

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    def preactivations(self, X) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=float)) @ self.W.T + self.b

    def value(self, X) -> np.ndarray:
        return self.activation(self.preactivations(X)) @ self.a


class QuadraticNet(SingleLayerReQUNet):
    """f(x) = sum_j a_j * (w_j . x + b_j)^2; every neuron is everywhere active."""

    activation = staticmethod(np.square)


@dataclass
class DeepConvNet:
    """ReQU head on top of l-1 padded single-channel convolutions.

    h^(0) = x; h^(k) = leaky_relu(v_k * h^(k-1)); f = sum_j a_j requ(w_j . h^(l-1) + b_j).
    The head therefore sees vectors of length d + (l-1)(s-1).
    """

    filters: tuple  # l-1 arrays of shape (s,)
    a: np.ndarray  # (m,)
    W: np.ndarray  # (m, head_dim), one row per neuron
    b: np.ndarray  # (m,)
    slope: float = 0.1

    def __post_init__(self):
        self.a, self.W, self.b = _check_head(self.a, self.W, self.b)
        filts = tuple(np.asarray(v, dtype=float) for v in self.filters)
        if filts:
            s = filts[0].size
            if s < 1 or any(v.ndim != 1 or v.size != s for v in filts):
                raise ValueError("all filters must be 1-D with a common size")
            if any(not np.all(np.isfinite(v)) for v in filts):
                raise ValueError("filters have non-finite entries")
        self.filters = filts
        if not 0.0 < self.slope < 1.0:
            raise ValueError(f"leaky slope must lie in (0, 1), got {self.slope}")
        if self.input_dim < 1:
            raise ValueError(
                f"head width {self.head_dim} is too small for {self.l - 1} "
                f"convolutions of size {self.s}"
            )

    @property
    def l(self) -> int:
        return len(self.filters) + 1

    @property
    def s(self) -> int:
        return self.filters[0].size if self.filters else 1

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def head_dim(self) -> int:
        return self.W.shape[1]

    @property
    def input_dim(self) -> int:
        return self.head_dim - (self.l - 1) * (self.s - 1)

    def hidden_states(self, X):
        """All conv-layer outputs [h^(1), ..., h^(l-1)] as (n, dim_k) arrays."""
        H = np.atleast_2d(np.asarray(X, dtype=float))
        if H.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of length {self.input_dim}, got {H.shape[1]}")
        states = []
        for v in self.filters:
            H = leaky_relu(H @ conv_matrix(v, H.shape[1]).T, self.slope)
            states.append(H)
        return states

    def head_inputs(self, X) -> np.ndarray:
        states = self.hidden_states(X)
        return states[-1] if states else np.atleast_2d(np.asarray(X, dtype=float))

    def preactivations(self, X) -> np.ndarray:
        return self.head_inputs(X) @ self.W.T + self.b

    def value(self, X) -> np.ndarray:
        return requ(self.preactivations(X)) @ self.a


@dataclass(frozen=True)
class FlatLayout:
    """Where each parameter lives in the flat vector (see the module docstring)."""

    m: int
    width: int
    filter_sizes: tuple = ()

    @classmethod
    def of(cls, net) -> "FlatLayout":
        sizes = tuple(v.size for v in net.filters) if isinstance(net, DeepConvNet) else ()
        return cls(net.W.shape[0], net.W.shape[1], sizes)

    @property
    def size(self) -> int:
        return self.m * (self.width + 2) + sum(self.filter_sizes)

    def split(self, theta):
        """Views (a, W, b, [v_1, ..., v_{l-1}]) into theta, or into each row
        of a (..., size) stack, whose leading axes every view keeps."""
        m, w = self.m, self.width
        a = theta[..., :m]
        W = theta[..., m : m + m * w].reshape(theta.shape[:-1] + (m, w))
        b = theta[..., m + m * w : m * (w + 2)]
        filts = []
        pos = m * (w + 2)
        for s in self.filter_sizes:
            filts.append(theta[..., pos : pos + s])
            pos += s
        return a, W, b, filts

    def blocks(self) -> np.ndarray:
        """Row j holds the flat indices of neuron block (a_j, w_j, b_j)."""
        a, W, b, _ = self.split(np.arange(self.size))
        return np.column_stack([a, W, b])


def net_to_flat(net) -> np.ndarray:
    parts = [net.a, net.W.ravel(), net.b]
    if isinstance(net, DeepConvNet):
        parts.extend(net.filters)
    return np.concatenate(parts)


def net_from_flat(like, theta) -> object:
    """Rebuild a network with the shapes of ``like`` from a flat vector."""
    theta = np.asarray(theta, dtype=float)
    layout = FlatLayout.of(like)
    if theta.shape != (layout.size,):
        raise ValueError(f"flat vector has shape {theta.shape}, expected ({layout.size},)")
    a, W, b, filts = layout.split(theta)
    if isinstance(like, DeepConvNet):
        return DeepConvNet(tuple(filts), a, W, b, like.slope)
    return type(like)(a, W, b)


def scale_params(net, r):
    """Positively scale each layer: filters by r_1..r_{l-1}, W by r_l, a by r_{l+1}.

    The bias rides along with the full pre-activation scale prod(r_1..r_l), so
    the output obeys f(x; scaled) = (r_1 ... r_l)^2 * r_{l+1} * f(x; theta)
    exactly, for any input.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("scale factors must be positive")
    if isinstance(net, DeepConvNet):
        if r.size != net.l + 1:
            raise ValueError(f"need {net.l + 1} scale factors, got {r.size}")
        filts = tuple(rk * v for rk, v in zip(r, net.filters))
        pre_scale = float(np.prod(r[: net.l]))
        return DeepConvNet(filts, r[-1] * net.a, r[net.l - 1] * net.W, pre_scale * net.b, net.slope)
    if r.size != 2:
        raise ValueError(f"need 2 scale factors for a single-layer net, got {r.size}")
    return type(net)(r[1] * net.a, r[0] * net.W, r[0] * net.b)


def homogeneity_factor(net, r) -> float:
    r = np.asarray(r, dtype=float)
    return float(np.prod(r[:-1]) ** 2 * r[-1])


def positive_homogeneity_check(net, x, r) -> float:
    """Relative error of the scaling identity at one input; 0 means exact."""
    scaled = scale_params(net, r)
    base = net.value(np.atleast_2d(x))[0]
    got = scaled.value(np.atleast_2d(x))[0]
    want = homogeneity_factor(net, r) * base
    return float(abs(got - want) / (1.0 + abs(want)))


def _net_kind(net) -> str:
    return {SingleLayerReQUNet: "single_requ", QuadraticNet: "quadratic", DeepConvNet: "deep_conv"}[
        type(net)
    ]


def save_net(net, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": _net_kind(net),
        "m": int(net.m),
        "width": int(net.W.shape[1]),
        "params": net_to_flat(net).tolist(),
    }
    if isinstance(net, DeepConvNet):
        doc["num_filters"] = len(net.filters)
        doc["filter_size"] = int(net.s)
        doc["slope"] = float(net.slope)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_net(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: missing checkpoint format marker")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        kind = doc["kind"]
        m, width = int(doc["m"]), int(doc["width"])
        theta = np.asarray(doc["params"], dtype=float)
        if kind == "single_requ":
            like = SingleLayerReQUNet(np.zeros(m), np.zeros((m, width)), np.zeros(m))
        elif kind == "quadratic":
            like = QuadraticNet(np.zeros(m), np.zeros((m, width)), np.zeros(m))
        elif kind == "deep_conv":
            filts = tuple(np.zeros(int(doc["filter_size"])) for _ in range(int(doc["num_filters"])))
            like = DeepConvNet(filts, np.zeros(m), np.zeros((m, width)), np.zeros(m), float(doc["slope"]))
        else:
            raise ValueError(f"unknown network kind {kind!r}")
        return net_from_flat(like, theta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint: {exc}") from None
