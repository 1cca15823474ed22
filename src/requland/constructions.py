"""Hand-built networks: interpolators with positive margin, bad local minima.

Both constructions project data onto a single direction chosen to keep the
projections well separated, then place one ReQU neuron per knot.  The bad
local minimum instead pairs mutually repelling data with per-neuron scalar
subproblems, each solved in closed form, yielding a critical point whose
training error stays at 1 - m/n however small the gradient tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, gen_mutually_repelling, validate_distinct
from .models import SingleLayerReQUNet
from .objective import ObjectiveConfig, logistic

DIRECTION_BUDGET = 1024  # random unit candidates find_separating_direction draws


def find_separating_direction(ds: Dataset, seed: int = 0) -> np.ndarray:
    """Unit direction maximizing the smallest pairwise projection gap.

    Draws DIRECTION_BUDGET random unit candidates and keeps the best; for
    d = 1 the only direction is returned immediately.  Distinct data projects to
    distinct values for almost every direction, so the winning gap is
    positive in practice; a zero gap raises.
    """
    ok, pair = validate_distinct(ds)
    if not ok:
        raise ValueError(f"rows {pair} coincide; no direction can separate them")
    if ds.d == 1:
        return np.array([1.0])
    if ds.n == 1:
        return np.eye(ds.d)[0]
    rng = np.random.default_rng(seed)
    idx_a, idx_b = np.triu_indices(ds.n, k=1)
    diffs = ds.X[idx_a] - ds.X[idx_b]  # (pairs, d)
    cands = rng.standard_normal((DIRECTION_BUDGET, ds.d))
    cands /= np.linalg.norm(cands, axis=1, keepdims=True)
    gaps = np.min(np.abs(diffs @ cands.T), axis=0)  # (DIRECTION_BUDGET,)
    best = int(np.argmax(gaps))
    if gaps[best] <= 0.0:
        raise RuntimeError("no sampled direction separated the projections")
    return cands[best]


@dataclass(frozen=True)
class InterpolatorNet:
    """Single-layer ReQU net with y_i f(x_i) > 0 on its construction data."""

    net: SingleLayerReQUNet
    direction: np.ndarray
    margin: float  # min_i y_i f(x_i), evaluated on the construction data


def build_interpolating_requ(
    ds: Dataset, seed: int = 0, coefficients: str = "recursion"
) -> InterpolatorNet:
    """One ReQU neuron per sample, added left to right along a projection.

    Sort projections z_(1) < ... < z_(n).  The first neuron ramps up from a
    phantom knot z_0 one gap to the left; each later neuron k+1 turns on at
    z_(k), so it leaves all earlier points untouched and its coefficient can
    overpower everything accumulated at z_(k+1):

        c_{k+1} = 2 y_(k+1) (|q_k(z_(k+1))| + 1) / (z_(k+1) - z_(k))^2

    which forces y_(k+1) q_{k+1}(z_(k+1)) >= 2.  The network has n neurons.

    coefficients="exact" keeps the same knots but solves the triangular
    system q(z_(k)) = y_(k) instead.  The margin drops to exactly 1, but the
    coefficient norm stays polynomial in the gaps where the doubling
    recursion compounds them exponentially; use this mode whenever the
    normalized margin matters and not just its sign.
    """
    omega = find_separating_direction(ds, seed)
    z = ds.X @ omega
    order = np.argsort(z)
    zs, ys = z[order], ds.y[order]

    z0 = zs[0] - (zs[1] - zs[0]) if ds.n >= 2 else zs[0] - 1.0
    knots = np.concatenate([[z0], zs[:-1]])
    if coefficients == "recursion":
        coeffs = np.zeros(ds.n)
        coeffs[0] = float(ys[0])
        for k in range(1, ds.n):
            q_here = float(np.maximum(zs[k] - knots[:k], 0.0) ** 2 @ coeffs[:k])
            coeffs[k] = 2.0 * ys[k] * (abs(q_here) + 1.0) / (zs[k] - zs[k - 1]) ** 2
    elif coefficients == "exact":
        T = np.maximum(zs[:, None] - knots[None, :], 0.0) ** 2
        coeffs = np.linalg.solve(T, ys.astype(float))
    else:
        raise ValueError(f"unknown coefficient mode {coefficients!r}")

    net = SingleLayerReQUNet(coeffs, np.tile(omega, (ds.n, 1)), -knots)
    margin = float(np.min(ds.y * net.value(ds.X)))
    if margin <= 0.0:
        raise RuntimeError("interpolator failed to reach a positive margin")
    return InterpolatorNet(net=net, direction=omega, margin=margin)


def neuron_subproblem_closed_form(lam_j: float, sq_norm: float):
    """Exact minimizer of the per-neuron objective under the logistic loss.

    Writing s^2 = ||(x_j; 1)||^2 and T = a r^2 s^4 for the network output at
    x_j, the cubic terms obey a^3 + 2 (s r)^3 >= 3 T / s^2 with equality at
    a = s r, so the problem collapses to min_T loss(-T) + (lam_j / s^2) T.
    Returns (a, r, T).
    """
    s2 = float(sq_norm)
    c = lam_j * np.log(2.0) / s2
    if c == 0.0 and lam_j > 0.0:
        raise ValueError(f"lam_j ln 2 / s^2 underflows to 0 for lam_j = {lam_j:g}, s^2 = {s2:g}")
    if not 0.0 < c < 0.5:
        raise ValueError("no interior solution: need lam_j / s^2 < 1/(2 ln 2)")
    T = float(np.log1p(-c) - np.log(c))
    r = (T / s2**2.5) ** (1.0 / 3.0)
    return s2**0.5 * r, r, T


def build_bad_local_min(
    n: int,
    m: int,
    lam,
    seed: int = 0,
    mode: str = "auto",
    d: int | None = None,
):
    """Local minimum with training error exactly 1 - m/n despite m neurons.

    Uses mutually repelling data labeled +1 on the first m samples.  Neuron j
    points straight at sample j: (w_j, b_j) = r_j (x_j; 1).  Repulsion keeps
    every neuron strictly inactive on every other sample, so the coupled
    objective splits into m scalar problems and the remaining n - m samples
    sit at output exactly zero, which never matches their -1 label.

    Returns (dataset, net, cfg) with cfg carrying the logistic loss and lam.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (m,):
        raise ValueError(f"lam must have shape ({m},), got {lam.shape}")
    if np.any(lam <= 0.0) or np.any(lam >= 0.5):
        raise ValueError("the construction needs every lam_j strictly inside (0, 1/2)")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")

    ds = gen_mutually_repelling(n, num_positive=m, seed=seed, mode=mode, d=d)
    Z = ds.lifted()
    a = np.zeros(m)
    W = np.zeros((m, ds.d))
    b = np.zeros(m)
    for j in range(m):
        sq = float(Z[j] @ Z[j])
        a[j], r, _ = neuron_subproblem_closed_form(lam[j], sq)
        W[j] = r * ds.X[j]
        b[j] = r
    net = SingleLayerReQUNet(a, W, b)
    cfg = ObjectiveConfig(logistic(), lam)
    return ds, net, cfg
