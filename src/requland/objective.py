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

import math
from dataclasses import dataclass

import numpy as np

from .models import FlatLayout, net_to_flat, network_pass
from .numkit import row_dots

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


def _exp_or_inf(t: float) -> float:
    """libm's exp(t): math.exp raises OverflowError where libm returns inf."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _logistic_deriv(z: list, w, exp=math.exp) -> list:
    """expit(x) / ln 2 * c for each x of z and c of w, in Python floats.

    expit(x) is 1 / (1 + exp(-x)) with libm's exp, the formula and exp that
    scipy.special.expit evaluates, so each value equals its expit (==, with
    NaN to NaN); numpy's vectorized exp differs from libm's in the last bit.
    The rare list in which some exp(-x) overflows is redone with an exp that
    returns inf there, where expit is 1 / (1 + inf) = 0.
    """
    try:
        return [1.0 / (1.0 + exp(-x)) / _LN2 * c for x, c in zip(z, w)]
    except OverflowError:
        return _logistic_deriv(z, w, _exp_or_inf)


def loss_deriv(kind: LossKind, z):
    """loss'(z) elementwise, as an array of z's shape."""
    z = np.asarray(z, dtype=float)
    if kind.name == "logistic":
        flat = z.ravel().tolist()
        return np.array(_logistic_deriv(flat, [1.0] * len(flat))).reshape(z.shape)
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


def training_error(net, ds) -> float:
    """Fraction misclassified; an exactly-zero output never matches its label."""
    return float(np.mean(np.sign(net.value(ds.X)) != ds.y))


def neuron_block_norms(net) -> np.ndarray:
    """Per-neuron sqrt(a_j^2 + ||w_j||^2 + b_j^2), the full block magnitude."""
    return np.sqrt(net.a**2 + np.sum(net.W**2, axis=1) + net.b**2)


class FlatObjective:
    """The objective and its gradient on flat parameter vectors.

    Shapes and the parameter layout are frozen at construction, so
    evaluations skip network rebuilding and validation.  forward runs
    models.network_pass, the one evaluation of the network, which the
    network classes also call, and adds the loss and the one regularizer
    formula, over a leading batch axis; value, values and value_and_grad
    read it, and grad is the one backward pass, from a kept forward result.
    value(theta) equals value_and_grad(theta)[0] exactly, and
    values(thetas)[k] equals value(thetas[k]) exactly (==, not approx), and
    so does the gradient, grad(row(forward(thetas), k)) ==
    grad(forward(thetas[k])): a stacked row goes through the same BLAS calls
    and elementwise operations as a single point, so batched searches select
    what point-by-point loops would, and take the same gradient at what they
    select.  The tests pin the gradient to central differences, each hidden
    state to numkit.conv_padded, the regularizer to closed forms, and
    values to value.

    The pass is lean in numpy calls, not in arithmetic: every element takes
    the same ufuncs, operand order and BLAS call shapes as the plain
    formulas that the tests keep as plain_forward_oracle and
    plain_grad_oracle, and equals them bit for bit; a reordered product or
    reduction fails those tests.  The data are read at construction, the
    first conv layer's tap windows included.  grad pads deeper conv inputs
    in buffers that the instance keeps, so no instance may be shared
    between threads.
    """

    CHUNK = 480  # rows per stacked forward pass; bounds its temporaries

    def __init__(self, like, ds, cfg: ObjectiveConfig):
        cfg.check_m(like)
        self.X, self.y = ds.X, ds.y
        self.neg_y = -np.asarray(ds.y, dtype=float)  # dz_i/df_i
        self.neg_y_list = self.neg_y.tolist()  # the same, as Python floats for _logistic_deriv
        self.lam, self.lam_c, self.loss = cfg.lam, cfg.lam_c, cfg.loss
        self.logistic = cfg.loss.name == "logistic"
        self.lam2 = 2.0 * cfg.lam  # the cubic term's 2 lam_j, as grad's dW and db take it
        self.anchor_c = 0.25 * cfg.lam_c  # the filter anchor's lam_c / 4
        self.layout = FlatLayout.of(like)
        self.squared, self.slope = like.squared, like.slope
        # Per conv layer, a zero-bordered copy of its input (n, dim + 2(s-1))
        # and the gather index that _windows reads it through.
        self.pads, self.taps = [], []
        dim = ds.d
        for s in self.layout.filter_sizes:
            self.pads.append(np.zeros((ds.n, dim + 2 * (s - 1))))
            rows, cols = np.indices((ds.n, dim + s - 1))
            self.taps.append((rows * (dim + 2 * (s - 1)) + cols).ravel() + np.arange(s)[:, None])
            dim += s - 1
        if self.pads:
            self.x_windows = self._windows(0, ds.X)  # the first layer's input is X

    def _windows(self, k, H):
        """Conv layer k's s tap windows of its input H, as (s, n * w) rows:
        row i holds columns i .. i + w - 1 of H's zero-bordered copy, w the
        layer's output length, one sample after another."""
        pad, s = self.pads[k], self.layout.filter_sizes[k]
        pad[:, s - 1 : s - 1 + H.shape[1]] = H  # borders stay zero
        return pad.take(self.taps[k])

    def _anchor(self, v):
        """(lam_c/4)(||v||^2 - 1)^2 for a filter v, or one per row of a stack
        of them.  A stack takes every v.v from row_dots (the same BLAS dot as
        the 1-D v @ v), then squares in per-point Python-float arithmetic:
        numpy's vectorized square differs from it in the last bit."""
        if v.ndim > 1:
            return np.array([self.anchor_c * (x - 1.0) ** 2 for x in row_dots(v).tolist()])
        return self.anchor_c * (float(v @ v) - 1.0) ** 2

    def forward(self, theta):
        """Evaluate at theta, or at each row of a (K, size) stack: the
        objective value first, then what grad and the certificates read --
        (a, W, b, filters), the network_pass result, the margins z and the
        joint weight-bias norms u_j, each with the stack's leading axis."""
        params = a, W, b, filts = self.layout.split(theta)
        out = network_pass(self.X, a, W, b, filts, self.slope, self.squared)
        z = self.neg_y * out[-1]
        u = np.sqrt(np.add.reduce(W * W, axis=-1) + b * b)
        reg = np.add.reduce(self.lam * (np.abs(a) ** 3 + 2.0 * u**3), axis=-1) / 3.0
        for v in filts:
            reg = reg + self._anchor(v)
        # The hot logistic case inlines loss_value, skipping its conversion and dispatch.
        data = np.logaddexp(0.0, z) / _LN2 if self.logistic else loss_value(self.loss, z)
        return np.add.reduce(data, axis=-1) + reg, params, out, z, u

    def row(self, fwd, k):
        """forward(thetas[k]) cut out of fwd = forward(thetas): row k of
        every stacked array.  The data X, which a conv stack's first layer
        and a filterless head take as input, is never stacked."""
        value, (a, W, b, filts), (states, convs, pre, act, phi, f), z, u = fwd
        states = [self.X] + [H[k] for H in states[1:]]
        convs = [(V[k], P[k]) for V, P in convs]
        return (value[k], (a[k], W[k], b[k], [v[k] for v in filts]),
                (states, convs, pre[k], act[k], phi[k], f[k]), z[k], u[k])

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
        """The gradient at a 1-D theta, from its forward(theta) result fwd
        or from row(forward(thetas), k) for the row thetas[k] == theta."""
        _, (a, W, b, filts), (states, convs, _, act, phi, _), z, u = fwd
        if self.logistic:  # d(data term)/d f_i, in one pass over the samples
            g = np.array(_logistic_deriv(z.tolist(), self.neg_y_list))
        else:
            g = -loss_deriv(self.loss, z) * self.y
        S = g[:, None] * (2.0 * act)
        c = self.lam2 * u  # 2 lam_j u_j, shared by dW and db
        da = phi.T @ g + self.lam * np.abs(a) * a
        dW = (S.T @ states[-1]) * a[:, None] + c[:, None] * W
        db = np.add.reduce(S, axis=0) * a + c * b
        if not filts:
            return np.concatenate([da, dW.ravel(), db])

        dH = (S * a) @ W
        dfilts = [None] * len(filts)
        for k in range(len(filts) - 1, -1, -1):
            v, (V, P) = filts[k], convs[k]
            dpre = dH * np.where(P >= 0.0, 1.0, self.slope)
            windows = self.x_windows if k == 0 else self._windows(k, states[k])
            # Tap i sums dpre * (window i) over all n * w products, in the
            # order and with the pairwise reduction of a contiguous (n, w) sum.
            dv = np.add.reduce(dpre.reshape(-1) * windows, axis=-1)
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
