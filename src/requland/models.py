"""Networks: DeepConvNet, with the single-layer nets as its filterless cases.

f(x) = sum_j a_j phi(w_j . h + b_j) with phi(z) = ReQU(z) = max(z, 0)^2, where
h is x pushed through l-1 single-channel padded leaky-ReLU convolutions, each
growing the signal length by s - 1.  SingleLayerReQUNet is the l = 1 case
(h = x), and QuadraticNet that case with phi the plain square.

Flat parameter order (used by optimizers, gradients, and checkpoints):
head coefficients a, then W row-major (one row per neuron), then biases b,
then the conv filters v_1 ... v_{l-1} in layer order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numkit import conv_fill

CHECKPOINT_FORMAT = "requland-checkpoint"
CHECKPOINT_VERSION = 1


def requ(z):
    """Rectified square: max(z, 0)^2, once continuously differentiable."""
    return np.square(np.maximum(z, 0.0))


def network_pass(X, a, W, b, filts, slope, squared):
    """The network on the rows of X at one parameter point, or at each row of
    a stack that every parameter array carries as its leading axis (X never
    is); no checks.  Returns (states, convs, pre, act, phi, f): states =
    [X, h^(1), ..., h^(l-1)]; per conv layer, its matrix and preactivation;
    the head preactivation pre, act = pre (square head) or max(pre, 0)
    (ReQU), phi = act^2 and the outputs f = phi @ a."""
    H, states, convs = X, [X], []
    for v in filts:
        V = conv_fill(v, H.shape[-1])
        P = H @ V.swapaxes(-1, -2)
        # The leaky ReLU: for 0 < slope < 1 this is P where P >= 0 (-0.0
        # included) and slope * P below, in two ufuncs instead of three.
        H = np.maximum(P, slope * P)
        states.append(H)
        convs.append((V, P))
    pre = H @ W.swapaxes(-1, -2) + b[..., None, :]
    act = pre if squared else np.maximum(pre, 0.0)
    phi = act * act
    return states, convs, pre, act, phi, (phi @ a[..., None])[..., 0]


@dataclass
class DeepConvNet:
    """ReQU head on top of l-1 padded single-channel convolutions.

    h^(0) = x; h^(k) = leaky_slope(v_k * h^(k-1)); f = sum_j a_j requ(w_j . h^(l-1) + b_j),
    where leaky_slope(t) is t for t >= 0 and slope * t below.  The head
    therefore sees vectors of length d + (l-1)(s-1); with no filters (l = 1)
    it sees the inputs themselves.  squared picks the head activation.
    """

    filters: tuple  # l-1 arrays of shape (s,)
    a: np.ndarray  # (m,)
    W: np.ndarray  # (m, head_dim), one row per neuron
    b: np.ndarray  # (m,)
    slope: float = 0.1

    squared = False  # not a field: the square head is QuadraticNet's

    def __post_init__(self):
        a = self.a = np.asarray(self.a, dtype=float)
        W = self.W = np.asarray(self.W, dtype=float)
        b = self.b = np.asarray(self.b, dtype=float)
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
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def head_dim(self) -> int:
        return self.W.shape[1]

    @property
    def l(self) -> int:
        return len(self.filters) + 1

    @property
    def s(self) -> int:
        return self.filters[0].size if self.filters else 1

    @property
    def input_dim(self) -> int:
        return self.head_dim - (self.l - 1) * (self.s - 1)

    d = input_dim

    def with_params(self, a, W, b, filts):
        """A network of this kind, slope included, with the given parameters."""
        return DeepConvNet(tuple(filts), a, W, b, self.slope)

    def forward(self, X):
        """network_pass at this network on the rows of X, a (n, input_dim)
        array or one input vector."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of length {self.input_dim}, got shape {X.shape}")
        return network_pass(X, self.a, self.W, self.b, self.filters, self.slope, self.squared)

    def hidden_states(self, X) -> list:
        """All conv-layer outputs [h^(1), ..., h^(l-1)] as (n, dim_k) arrays."""
        return self.forward(X)[0][1:]

    def head_inputs(self, X) -> np.ndarray:
        return self.forward(X)[0][-1]

    def value(self, X) -> np.ndarray:
        return self.forward(X)[-1]


class SingleLayerReQUNet(DeepConvNet):
    """f(x) = sum_j a_j * requ(w_j . x + b_j): the net with no convolutions."""

    def __init__(self, a, W, b):
        super().__init__((), a, W, b)

    def with_params(self, a, W, b, filts):
        return type(self)(a, W, b)


class QuadraticNet(SingleLayerReQUNet):
    """f(x) = sum_j a_j * (w_j . x + b_j)^2; every neuron is everywhere active."""

    squared = True


@dataclass(frozen=True)
class FlatLayout:
    """Where each parameter lives in the flat vector (see the module docstring)."""

    m: int
    width: int
    filter_sizes: tuple = ()

    @classmethod
    def of(cls, net) -> "FlatLayout":
        return cls(net.W.shape[0], net.W.shape[1], tuple(v.size for v in net.filters))

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
    return np.concatenate([net.a, net.W.ravel(), net.b, *net.filters])


def net_from_flat(like, theta) -> object:
    """Rebuild a network with the shapes of ``like`` from a flat vector."""
    theta = np.asarray(theta, dtype=float)
    layout = FlatLayout.of(like)
    if theta.shape != (layout.size,):
        raise ValueError(f"flat vector has shape {theta.shape}, expected ({layout.size},)")
    return like.with_params(*layout.split(theta))


_KINDS = {"single_requ": SingleLayerReQUNet, "quadratic": QuadraticNet, "deep_conv": DeepConvNet}


def save_net(net, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": next(k for k, cls in _KINDS.items() if type(net) is cls),
        "m": int(net.m),
        "width": int(net.W.shape[1]),
        "params": net_to_flat(net).tolist(),
    }
    if type(net) is DeepConvNet:  # not its single-layer cases; a deep l = 1 net stays deep_conv
        doc["num_filters"] = len(net.filters)
        doc["filter_size"] = int(net.s)
        doc["slope"] = float(net.slope)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _shape_field(doc, key, least=1) -> int:
    """A checkpoint's shape entry: a JSON integer, not a bool, >= least."""
    value = doc[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def load_net(path):
    """The network saved at path.  Every fault of the file, down to a
    params list that does not fit the shapes (checked before anything is
    allocated), raises a ValueError naming path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: missing checkpoint format marker")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # true and 1.0 equal 1
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        kind, params = doc["kind"], doc["params"]
        if kind not in _KINDS:
            raise ValueError(f"unknown network kind {kind!r}")
        cls = _KINDS[kind]
        m, width = _shape_field(doc, "m"), _shape_field(doc, "width")
        num, s = 0, 1
        if cls is DeepConvNet:
            num, s = _shape_field(doc, "num_filters", 0), _shape_field(doc, "filter_size")
        # Each filter holds s >= 1 numbers, so a fitting list bounds num before
        # the layout's (s,) * num is built.
        if not isinstance(params, list) or num > len(params):
            raise ValueError(f"params must be a list of at least num_filters={num} numbers")
        size = FlatLayout(m, width, (s,) * num).size
        if len(params) != size:
            raise ValueError(f"params must be a list of the layout's {size} numbers")
        head = np.zeros(m), np.zeros((m, width)), np.zeros(m)
        if cls is DeepConvNet:
            slope = doc["slope"]
            if type(slope) not in (int, float):  # a JSON number, not a bool or a string
                raise ValueError(f"slope must be a number, got {slope!r}")
            like = DeepConvNet((np.zeros(s),) * num, *head, float(slope))
        else:
            like = cls(*head)
        return net_from_flat(like, np.asarray(params, dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint: {exc}") from None
