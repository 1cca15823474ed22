"""Classification objectives: margin losses, cubic regularizers, gradients.

The empirical objective is sum_i loss(-y_i f(x_i)) plus a per-neuron cubic
regularizer (1/3) sum_j lam_j (|a_j|^3 + 2 (||w_j||^2 + b_j^2)^(3/2)); deep
nets add (lam_c/4) sum_k (||v_k||^2 - 1)^2 to anchor filter norms near 1.
FlatObjective is its one implementation, value and gradient alike; its
values evaluates a (K, P) stack of parameter vectors in one pass, each
result equal (==) to value at that row, so Monte-Carlo probes batch their
points without changing what they select.  empirical_loss,
value_and_gradient and gradient evaluate it at a network.

Both supported losses are nonnegative, non-decreasing, and twice continuously
differentiable, and each has an activation threshold eps with
loss'(z) >= eps whenever z >= 0, so a max derivative below eps certifies that
every margin is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .models import DeepConvNet, FlatLayout, QuadraticNet, net_to_flat
from .numkit import conv_band, row_dots

_LN2 = float(np.log(2.0))

LOSS_NAMES = ("logistic", "smooth_hinge")


@dataclass(frozen=True)
class LossKind:
    """Margin loss selector; p is the smooth-hinge exponent (ignored otherwise)."""

    name: str
    p: int = 3

    def __post_init__(self):
        if self.name not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.name!r}; expected one of {LOSS_NAMES}")
        if self.name == "smooth_hinge" and (int(self.p) != self.p or self.p < 3):
            raise ValueError(f"smooth hinge needs an integer exponent p >= 3, got {self.p}")

    @property
    def epsilon(self) -> float:
        """Threshold with loss'(z) >= epsilon for all z >= 0."""
        return 1.0 / (2.0 * _LN2) if self.name == "logistic" else float(self.p)


def logistic() -> LossKind:
    return LossKind("logistic")


def smooth_hinge(p: int = 3) -> LossKind:
    return LossKind("smooth_hinge", p)


def loss_value(kind: LossKind, z):
    """log2(1 + e^z) or max(1 + z, 0)^p; stable far into both tails."""
    z = np.asarray(z, dtype=float)
    if kind.name == "logistic":
        return np.logaddexp(0.0, z) / _LN2
    return np.maximum(1.0 + z, 0.0) ** kind.p


def loss_deriv(kind: LossKind, z):
    z = np.asarray(z, dtype=float)
    if kind.name == "logistic":
        return expit(z) / _LN2
    return kind.p * np.maximum(1.0 + z, 0.0) ** (kind.p - 1)


@dataclass
class ObjectiveConfig:
    loss: LossKind
    lam: np.ndarray  # (m,) positive per-neuron regularization weights
    lam_c: float = 0.0  # filter-anchor weight, only read for deep nets

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lam must be a 1-D vector with one entry per neuron")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ValueError("all regularization weights must be positive and finite")
        if not np.isfinite(self.lam_c) or self.lam_c < 0:
            raise ValueError(f"lam_c must be nonnegative, got {self.lam_c}")
        self.lam = lam

    def check_m(self, net) -> None:
        if self.lam.size != net.m:
            raise ValueError(f"lam has {self.lam.size} entries but the net has {net.m} neurons")


def margins(net, ds) -> np.ndarray:
    """Loss arguments z_i = -y_i f(x_i)."""
    return -ds.y * net.value(ds.X)


def training_error(net, ds) -> float:
    """Fraction misclassified; an exactly-zero output never matches its label."""
    return float(np.mean(np.sign(net.value(ds.X)) != ds.y))


def max_loss_deriv(net, ds, cfg: ObjectiveConfig) -> float:
    return float(np.max(loss_deriv(cfg.loss, margins(net, ds))))


def neuron_block_norms(net) -> np.ndarray:
    """Per-neuron sqrt(a_j^2 + ||w_j||^2 + b_j^2), the full block magnitude."""
    return np.sqrt(net.a**2 + np.sum(net.W**2, axis=1) + net.b**2)


class FlatObjective:
    """The objective and its gradient on flat parameter vectors.

    Shapes, the parameter layout and each conv layer's banded index pattern
    are frozen at construction, so evaluations skip network rebuilding and
    validation.  value, values and value_and_grad share one forward pass,
    written over a leading batch axis, which also holds the one regularizer
    formula; grad is the one backward pass, from a kept forward result.
    value(theta) equals value_and_grad(theta)[0] exactly, and
    values(thetas)[k] equals value(thetas[k]) exactly (==, not approx): a
    stacked row goes through the same BLAS calls and elementwise operations
    as a single point, so batched searches select what point-by-point loops
    would.  The tests pin the gradient to central differences, the conv
    layers to numkit.conv_padded, the regularizer to closed forms, and
    values to value.  grad pads conv inputs in buffers that the instance
    keeps, so no instance may be shared between threads.
    """

    CHUNK = 480  # rows per stacked forward pass; bounds its temporaries

    def __init__(self, like, ds, cfg: ObjectiveConfig):
        cfg.check_m(like)
        self.X, self.y = ds.X, ds.y
        self.lam, self.lam_c, self.loss = cfg.lam, cfg.lam_c, cfg.loss
        self.layout = FlatLayout.of(like)
        self.squared = isinstance(like, QuadraticNet)
        self.slope = like.slope if isinstance(like, DeepConvNet) else None
        self.bands = []  # per conv layer: (input length, rows, cols, taps)
        self.pads = []  # per conv layer: zero-bordered copy of its input, for grad
        n, dim = self.X.shape
        for s in self.layout.filter_sizes:
            self.bands.append((dim, *conv_band(s, dim)))
            self.pads.append(np.zeros((n, dim + 2 * (s - 1))))
            dim += s - 1

    def _conv_mat(self, k, v):
        dim, rows, cols, taps = self.bands[k]
        V = np.zeros(v.shape[:-1] + (dim + v.shape[-1] - 1, dim))
        V.T[cols, rows] = v.T[taps]  # indexes the band axes first, stacked or not
        return V

    def _anchor(self, v):
        """(lam_c/4)(||v||^2 - 1)^2 for a filter v, or one per row of a stack
        of them.  A stack takes every v.v from row_dots (the same BLAS dot as
        the 1-D v @ v), then squares in per-point Python-float arithmetic:
        numpy's vectorized square differs from it in the last bit."""
        if v.ndim > 1:
            return np.array([0.25 * self.lam_c * (x - 1.0) ** 2 for x in row_dots(v).tolist()])
        return 0.25 * self.lam_c * (float(v @ v) - 1.0) ** 2

    def forward(self, theta):
        """Evaluate at theta, or at each row of a (K, size) stack: the
        objective value first, then what grad needs -- (a, W, b, filters),
        per conv layer (input, conv matrix, preactivation), the head input,
        the head activation, phi, the margins z and the joint weight-bias
        norms u_j, each with the stack's leading axis."""
        params = self.layout.split(theta)
        a, W, b, filts = params
        layers = []
        H = self.X
        for k, v in enumerate(filts):
            V = self._conv_mat(k, v)
            P = H @ V.swapaxes(-1, -2)
            layers.append((H, V, P))
            H = np.where(P >= 0.0, P, self.slope * P)
        pre = H @ W.swapaxes(-1, -2) + b[..., None, :]
        act = pre if self.squared else np.maximum(pre, 0.0)
        phi = act * act
        z = -self.y * (phi @ a[..., None])[..., 0]
        u = np.sqrt((W * W).sum(axis=-1) + b * b)
        reg = (self.lam * (np.abs(a) ** 3 + 2.0 * u**3)).sum(axis=-1) / 3.0
        for v in filts:
            reg = reg + self._anchor(v)
        value = loss_value(self.loss, z).sum(axis=-1) + reg
        return value, params, layers, H, act, phi, z, u

    def value(self, theta) -> float:
        return float(self.forward(theta)[0])

    def values(self, thetas) -> np.ndarray:
        """value at each row of a (K, size) stack, CHUNK rows per pass."""
        out = np.empty(len(thetas))
        for s in range(0, len(out), self.CHUNK):
            out[s : s + self.CHUNK] = self.forward(thetas[s : s + self.CHUNK])[0]
        return out

    def value_and_grad(self, theta):
        """(value, gradient) at a 1-D theta: forward, then grad."""
        fwd = self.forward(theta)
        return float(fwd[0]), self.grad(fwd)

    def grad(self, fwd):
        """The gradient at a 1-D theta, from its forward(theta) result fwd."""
        _, (a, W, b, filts), layers, F, act, phi, z, u = fwd
        lam = self.lam
        g = -loss_deriv(self.loss, z) * self.y  # d(data term)/d f_i
        S = g[:, None] * (2.0 * act)
        da = phi.T @ g + lam * np.abs(a) * a
        dW = (S.T @ F) * a[:, None] + 2.0 * lam[:, None] * u[:, None] * W
        db = S.sum(axis=0) * a + 2.0 * lam * u * b
        if not filts:
            return np.concatenate([da, dW.ravel(), db])

        dH = (S * a[None, :]) @ W
        dfilts = [None] * len(filts)
        for k in range(len(filts) - 1, -1, -1):
            v, (H_prev, V, P) = filts[k], layers[k]
            dpre = dH * np.where(P >= 0.0, 1.0, self.slope)
            s = v.size
            Hp = self.pads[k]  # borders stay zero; only the interior is written
            Hp[:, s - 1 : s - 1 + H_prev.shape[1]] = H_prev
            dv = np.array([(dpre * Hp[:, i : i + dpre.shape[1]]).sum() for i in range(s)])
            dv += self.lam_c * (float(v @ v) - 1.0) * v
            dfilts[k] = dv
            if k > 0:
                dH = dpre @ V
        return np.concatenate([da, dW.ravel(), db, *dfilts])


def empirical_loss(net, ds, cfg: ObjectiveConfig) -> float:
    return FlatObjective(net, ds, cfg).value(net_to_flat(net))


def value_and_gradient(net, ds, cfg: ObjectiveConfig):
    """(empirical_loss, flat gradient in the standard parameter layout)."""
    return FlatObjective(net, ds, cfg).value_and_grad(net_to_flat(net))


def gradient(net, ds, cfg: ObjectiveConfig) -> np.ndarray:
    return value_and_gradient(net, ds, cfg)[1]


def finite_diff_check(net, ds, cfg: ObjectiveConfig, step: float = 1e-6) -> float:
    """Max relative gap between the analytic gradient and central differences."""
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    g = fob.value_and_grad(theta)[1]
    fd = np.empty_like(theta)
    for i in range(theta.size):
        h = step * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (fob.value(up) - fob.value(dn)) / (2.0 * h)
    return float(np.max(np.abs(g - fd) / (1.0 + np.abs(g))))


def coercivity_lower_bound(theta_norm: float, lam_min: float, m: int) -> float:
    """Cubic floor lam_min / (3 sqrt(2 m)) * ||theta||^3 for single-layer nets.

    Follows from the power-mean inequality applied to the 2m squared block
    norms; the data term only adds on top.  Where ||theta||^3 alone
    overflows, the floor is multiplied out factor by factor instead, which
    reaches inf only when the floor itself does.
    """
    c = lam_min / (3.0 * np.sqrt(2.0 * m))
    t = float(theta_norm)
    try:
        return c * t**3
    except OverflowError:
        return float(c) * t * t * t
