"""Independent oracles that the tests check the package against.

finite_diff_oracle takes the gradient by central differences of
FlatObjective.value; block_norms_oracle and scale_params_oracle work on a
network's parameter arrays directly, not through the flat layout;
homogeneity_oracle checks f(x; scaled) against the closed-form factor;
conv_padded_oracle convolves with numpy's convolve, where numkit gathers a
banded matrix; separating_gaps_oracle forms every pair difference, where
find_separating_direction sorts projections; close_pair_oracle forms every
pair difference at once, where validate_distinct goes a block of rows at a
time; lbfgs_two_loop_oracle runs the textbook two-loop recursion, where the
trainer forms the L-BFGS direction in compact form.
"""

import numpy as np

from requland.models import net_to_flat
from requland.numkit import row_dots
from requland.objective import FlatObjective


def finite_diff_oracle(net, ds, cfg, step: float = 1e-6) -> float:
    """Max relative gap between the analytic gradient and central differences."""
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    g = fob.grad(fob.forward(theta))
    fd = np.empty_like(theta)
    for i in range(theta.size):
        h = step * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (fob.value(up) - fob.value(dn)) / (2.0 * h)
    return float(np.max(np.abs(g - fd) / (1.0 + np.abs(g))))


def block_norms_oracle(net) -> np.ndarray:
    """Per-neuron sqrt(a_j^2 + ||w_j||^2 + b_j^2), the full block magnitude."""
    return np.sqrt(net.a**2 + np.sum(net.W**2, axis=1) + net.b**2)


def scale_params_oracle(net, r):
    """Positively scale each layer: filters by r_1..r_{l-1}, W by r_l, a by r_{l+1}.

    The bias rides along with the full pre-activation scale prod(r_1..r_l), so
    the output obeys f(x; scaled) = (r_1 ... r_l)^2 * r_{l+1} * f(x; theta)
    exactly, for any input.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("scale factors must be positive")
    if r.size != net.l + 1:
        raise ValueError(f"need {net.l + 1} scale factors, got {r.size}")
    filts = [rk * v for rk, v in zip(r, net.filters)]
    pre_scale = float(np.prod(r[: net.l]))
    return net.with_params(r[-1] * net.a, r[net.l - 1] * net.W, pre_scale * net.b, filts)


def homogeneity_oracle(net, x, r) -> float:
    """Relative error of the scaling identity at one input; 0 means exact."""
    r = np.asarray(r, dtype=float)
    base = net.value(np.atleast_2d(x))[0]
    got = scale_params_oracle(net, r).value(np.atleast_2d(x))[0]
    want = float(np.prod(r[:-1]) ** 2 * r[-1]) * base
    return float(abs(got - want) / (1.0 + abs(want)))


def conv_padded_oracle(alpha, beta) -> np.ndarray:
    """Padded 1-D convolution producing all len(alpha)+len(beta)-1 outputs.

    Output j (1-based) is sum_i alpha[i] * beta_padded[i + j - 1] where beta
    is zero-padded by len(alpha)-1 on each side.  Equivalently this is full
    convolution of the reversed filter with beta:

        conv_padded_oracle((1, 2), (3, 4)) == (6, 11, 4)
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.ndim != 1 or alpha.size == 0 or beta.size == 0:
        raise ValueError("alpha and beta must be nonempty 1-D vectors")
    return np.convolve(alpha[::-1], beta, mode="full")


def separating_gaps_oracle(X, dirs) -> np.ndarray:
    """min over all pairs a < b of |(x_a - x_b) . w|, for each row w of dirs."""
    a, b = np.triu_indices(len(X), k=1)
    return np.min(np.abs((X[a] - X[b]) @ np.atleast_2d(dirs).T), axis=0)


def close_pair_oracle(X, tol):
    """The first pair (i, j) in (i, j) order with ||x_i - x_j|| <= tol, or None."""
    a, b = np.triu_indices(len(X), k=1)
    hits = np.flatnonzero(np.sqrt(row_dots(X[a] - X[b])) <= tol)
    return (int(a[hits[0]]), int(b[hits[0]])) if hits.size else None


def lbfgs_two_loop_oracle(g, pairs) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright, Numerical
    Optimization, Alg. 7.4) over the (s, y) pairs, oldest first, with
    H0 = gamma I, gamma = s.y / y.y of the newest pair; -g for no pairs."""
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        alpha = (s @ q) / (s @ y)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - (y @ q) / (s @ y)) * s
    return -q
