"""Classification objectives: margin losses, cubic regularizers, gradients.

The empirical objective is sum_i loss(-y_i f(x_i)) plus a per-neuron cubic
regularizer (1/3) sum_j lam_j (|a_j|^3 + 2 (||w_j||^2 + b_j^2)^(3/2)); deep
nets add (lam_c/4) sum_k (||v_k||^2 - 1)^2 to anchor filter norms near 1.
FlatObjective is its one implementation, value and gradient alike; its
values evaluates a (K, P) stack of parameter vectors in one pass, each
result equal (==) to value at that row, so Monte-Carlo probes batch their
points without changing what they select.  Its grad takes the forward
result of a point or of a stack; a stack's gradient is a (K, P) array
whose row k equals (==) the gradient at point k.  empirical_loss and
value_and_gradient evaluate it at a network; no workload calls them, and
they go once the benchmark's tracer no longer wraps them.

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


def _scaled_square(c: float, t: float) -> float:
    """c * t ** 2 in Python floats, for c >= 0.  Where t ** 2 overflows
    (a Python-float power raises OverflowError there, where numpy returns
    inf) it is inf, or 0.0 for c = 0, whose term is absent."""
    try:
        return c * t**2
    except OverflowError:
        return math.inf if c else 0.0


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


class FlatObjective:
    """The objective and its gradient on flat parameter vectors.

    Shapes and the parameter layout are frozen at construction, so
    evaluations skip network rebuilding and validation.  forward runs
    models.network_pass, the one evaluation of the network, which the
    network classes also call, and adds the loss and the one regularizer
    formula, over a leading batch axis; value, values and value_and_grad
    read it, and grad is the one backward pass, over the same axis, from a
    kept forward result of a point or of a stack.  value(theta) equals
    value_and_grad(theta)[0] exactly, and values(thetas)[k] equals
    value(thetas[k]) exactly (==, not approx), and so does the gradient:
    grad(forward(thetas))[k] == grad(row(forward(thetas), k)) ==
    grad(forward(thetas[k])).  A stacked row goes through the same BLAS
    calls and elementwise operations as a single point, so batched searches
    select what point-by-point loops would, and take the same gradient at
    what they select.  The tests pin the gradient to central differences,
    each hidden state to the padded convolution of numpy's convolve, the
    regularizer to closed forms, and values to value.

    The pass is lean in numpy calls, not in arithmetic: every element takes
    the same ufuncs, operand order and BLAS call shapes as the plain
    formulas that the tests keep as plain_forward_oracle and
    plain_grad_oracle, and equals them bit for bit; a reordered product or
    reduction fails those tests.  The data are read at construction, the
    first conv layer's tap windows included, and no call writes to the
    instance.
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
        # Per conv layer, the gather index that _windows reads the
        # zero-bordered (n, dim + 2(s-1)) copy of its input through.
        self.taps = []
        dim = ds.d
        for s in self.layout.filter_sizes:
            rows, cols = np.indices((ds.n, dim + s - 1))
            self.taps.append((rows * (dim + 2 * (s - 1)) + cols).ravel() + np.arange(s)[:, None])
            dim += s - 1
        if self.taps:
            self.x_windows = self._windows(0, ds.X)  # the first layer's input is X

    def _windows(self, k, H):
        """Conv layer k's s tap windows of its input H, as (s, n * w) rows:
        row i holds columns i .. i + w - 1 of H's zero-bordered copy, w the
        layer's output length, one sample after another; a (K, n, dim)
        stack of inputs gets (K, s, n * w), each row from its own copy."""
        s = self.layout.filter_sizes[k]
        pad = np.zeros(H.shape[:-1] + (H.shape[-1] + 2 * (s - 1),))
        pad[..., s - 1 : s - 1 + H.shape[-1]] = H  # borders stay zero
        return pad.reshape(H.shape[:-2] + (-1,)).take(self.taps[k], axis=-1)

    def _anchor(self, v):
        """(lam_c/4)(||v||^2 - 1)^2 for a filter v, or one per row of a stack
        of them.  A stack takes every v.v from row_dots (the same BLAS dot as
        the 1-D v @ v), then squares in per-point Python-float arithmetic:
        numpy's vectorized square differs from it in the last bit.  Where
        the square overflows, the term is inf, or 0.0 at lam_c = 0 (see
        _scaled_square)."""
        c = self.anchor_c
        if v.ndim > 1:
            dots = row_dots(v).tolist()
            try:
                return np.array([c * (x - 1.0) ** 2 for x in dots])
            except OverflowError:  # rare; the list above is the fast path
                return np.array([_scaled_square(c, x - 1.0) for x in dots])
        try:  # _scaled_square, inlined: a 1-D point is the trainer's hot path
            return c * (float(v @ v) - 1.0) ** 2
        except OverflowError:
            return math.inf if c else 0.0

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
        """The gradient at theta from fwd = forward(theta), or from
        row(forward(thetas), k) for the row thetas[k] == theta.  From a
        stacked fwd = forward(thetas) it is a (K, size) array whose row k
        equals grad(row(fwd, k)) (==): each row takes a point's BLAS calls
        and elementwise operations."""
        _, (a, W, b, filts), (states, convs, _, act, phi, _), z, u = fwd
        # A stack carries its axis first in every array.  The point path keeps
        # its own forms below: each shape-generic one costs a 1-D call 0.3-1 us.
        stacked = z.ndim > 1
        if self.logistic:  # d(data term)/d f_i, in one pass over the samples
            if stacked:
                g = np.array([_logistic_deriv(r, self.neg_y_list) for r in z.tolist()])
            else:
                g = np.array(_logistic_deriv(z.tolist(), self.neg_y_list))
        else:
            g = -loss_deriv(self.loss, z) * self.y
        S = g[..., None] * (2.0 * act)
        c = self.lam2 * u  # 2 lam_j u_j, shared by dW and db
        da = np.vecmat(g, phi) + self.lam * np.abs(a) * a  # vecmat: the gemv of phi.T @ g
        dW = (S.mT @ states[-1]) * a[..., None] + c[..., None] * W
        db = np.add.reduce(S, axis=-2) * a + c * b
        parts = [da, dW.reshape(len(dW), -1) if stacked else dW.ravel(), db]
        if not filts:
            return np.concatenate(parts, axis=-1)

        dH = (S * (a[:, None] if stacked else a)) @ W
        dfilts = [None] * len(filts)
        for k in range(len(filts) - 1, -1, -1):
            v, (V, P) = filts[k], convs[k]
            dpre = dH * np.where(P >= 0.0, 1.0, self.slope)
            windows = self.x_windows if k == 0 else self._windows(k, states[k])
            # Tap i sums dpre * (window i) over all n * w products, in the
            # order and with the pairwise reduction of a contiguous (n, w) sum.
            flat = dpre.reshape(len(dpre), 1, -1) if stacked else dpre.reshape(-1)
            dv = np.add.reduce(flat * windows, axis=-1)
            vv = row_dots(v)[:, None] if stacked else float(v @ v)
            dv += self.lam_c * (vv - 1.0) * v
            dfilts[k] = dv
            if k > 0:
                dH = dpre @ V
        return np.concatenate(parts + dfilts, axis=-1)


def empirical_loss(net, ds, cfg: ObjectiveConfig) -> float:
    return FlatObjective(net, ds, cfg).value(net_to_flat(net))


def value_and_gradient(net, ds, cfg: ObjectiveConfig):
    """(empirical_loss, flat gradient in the standard parameter layout)."""
    return FlatObjective(net, ds, cfg).value_and_grad(net_to_flat(net))


def coercivity_lower_bound(theta_norm: float, lam_min: float, m: int) -> float:
    """Cubic floor lam_min / (3 sqrt(2 m)) * ||theta||^3, theta the head (a, W, b).

    Follows from the power-mean inequality applied to the head's 2m squared
    block norms; the data term and the filter anchor are >= 0.  Where
    ||theta||^3 alone overflows, the floor is multiplied out factor by factor
    instead, which reaches inf only when the floor itself does.
    """
    c = lam_min / (3.0 * math.sqrt(2.0 * m))  # math, not np: a Python float, cheap in train's loop
    t = float(theta_norm)
    try:
        return c * t**3
    except OverflowError:
        return float(c) * t * t * t


def coercivity_lower_bounds(norms: list, lam_min: float, m: int) -> list:
    """coercivity_lower_bound at each of a list of Python-float norms, bit
    for bit, with its factor formed once."""
    c = lam_min / (3.0 * math.sqrt(2.0 * m))
    try:
        return [c * t**3 for t in norms]
    except OverflowError:  # rare: one norm at a time, through the overflow fallback
        return [coercivity_lower_bound(t, lam_min, m) for t in norms]
