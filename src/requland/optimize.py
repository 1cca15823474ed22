"""Training by backtracking gradient descent, with pruning and escape moves.

Three mechanisms beyond plain descent matter here.  Dying neurons decay only
like 1/t under the cubic regularizer, so whenever zeroing a small neuron
block does not increase the loss the trainer snaps it to exactly zero; a
fully zero block has exactly zero gradient in every term, so descent never
revives it.  When the iterate is nearly critical but still misclassifies,
the trainer tries third-order escape moves: it reassigns one inactive neuron
to a sampled direction (u, v) at small amplitude delta, where the loss change
behaves like delta^3 (lam_j - |sum_i loss'_i y_i (u . x_i + v)_+^2|), and
keeps the best strict improvement.  And when the loss flatlines with the
gradient still large — the signature of an iterate pinned on a leaky-ReLU
kink, where the almost-everywhere gradient is not a descent direction — the
trainer probes random nearby points for a strict decrease before giving up.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import build_interpolating_requ
from .datasets import Dataset
from .models import DeepConvNet, SingleLayerReQUNet, net_from_flat, net_to_flat, requ
from .objective import (
    FlatObjective,
    LossKind,
    ObjectiveConfig,
    coercivity_lower_bound,
    loss_deriv,
    neuron_block_norms,
    training_error,
)

TERMINAL_STATUSES = ("converged", "budget-exhausted", "stalled", "non-finite")


class CoercivityViolationError(RuntimeError):
    """The iterate dropped below the proven cubic lower bound; this can only
    come from a numerical defect, so it is never ignored."""


@dataclass
class TrainOptions:
    max_iter: int = 200_000
    grad_tol: float = 1e-7  # stop when ||grad|| < grad_tol * (1 + |loss|)
    step0: float = 1.0
    armijo: float = 1e-4
    shrink: float = 0.5
    grow: float = 2.0
    record_every: int = 200
    snap_every: int = 50
    snap_rel: float = 0.05  # prune candidates: block norm below this times the largest
    escape_directions: int = 256
    escape_delta: float = 1e-3
    escape_every: int = 1000  # while misclassifying, also try escapes at this cadence
    max_escapes: int = 10
    stall_window: int = 400  # iterations between flatline checks
    stall_probes: int = 256
    max_stall_escapes: int = 100
    seed: int = 0
    check_coercivity: bool = True


@dataclass
class Trajectory:
    """Recorded (iter, loss, grad_norm, param_norm, status) rows.

    Row statuses are "descent", "snap", or "escape"; the final row carries the
    terminal status: "converged", "budget-exhausted", "stalled" (no
    representable step could decrease the loss), or "non-finite" (the loss
    or the gradient norm is inf or NaN).  Escapes that later converge still
    end in "converged"; the escape rows keep the history.
    """

    rows: list = field(default_factory=list)

    def record(self, it, loss, grad_norm, param_norm, status) -> None:
        self.rows.append((int(it), float(loss), float(grad_norm), float(param_norm), status))

    @property
    def status(self) -> str:
        return self.rows[-1][4] if self.rows else "empty"

    @property
    def n_iter(self) -> int:
        return self.rows[-1][0] if self.rows else 0

    @property
    def escapes(self) -> int:
        return sum(1 for r in self.rows if r[4] == "escape")

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "loss", "grad_norm", "param_norm", "status"])
            for it, loss, gn, pn, status in self.rows:
                writer.writerow([it, f"{loss:.17g}", f"{gn:.17g}", f"{pn:.17g}", status])


def init_single(m: int, d: int, seed: int = 0, scale: float = 0.1, cls=SingleLayerReQUNet):
    """Gaussian head init with per-entry deviation scale/sqrt(d)."""
    rng = np.random.default_rng(seed)
    sd = scale / np.sqrt(d)
    return cls(sd * rng.standard_normal(m), sd * rng.standard_normal((m, d)), sd * rng.standard_normal(m))


def init_deep(
    d: int, s: int, l: int, m: int, seed: int = 0, slope: float = 0.1, scale: float = 0.1
) -> DeepConvNet:
    """Unit-norm random filters plus a Gaussian head on the grown signal."""
    rng = np.random.default_rng(seed)
    filts = []
    for _ in range(l - 1):
        v = rng.standard_normal(s)
        filts.append(v / np.linalg.norm(v))
    head = d + (l - 1) * (s - 1)
    sd = scale / np.sqrt(head)
    return DeepConvNet(
        tuple(filts),
        sd * rng.standard_normal(m),
        sd * rng.standard_normal((m, head)),
        sd * rng.standard_normal(m),
        slope,
    )


def sample_lambda(m: int, lambda0: float, seed: int = 0) -> np.ndarray:
    """Pairwise distinct weights drawn uniformly from (lambda0/2, lambda0)."""
    if not np.isfinite(lambda0) or lambda0 <= 0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5 * lambda0, lambda0, size=m)
    while np.unique(lam).size != m:  # pragma: no cover - measure-zero event
        lam = rng.uniform(0.5 * lambda0, lambda0, size=m)
    return lam


def estimate_lambda0(ds: Dataset, loss: LossKind, seed: int = 0) -> float:
    """Data-driven threshold eps * margin(rho / ||rho||) for the regularizer.

    Builds the knot interpolator with exactly solved coefficients, normalizes
    its parameter vector, and evaluates the worst margin; cubic homogeneity
    turns that into margin / ||rho||^3.  Any feasible network lower-bounds the
    best achievable normalized margin, so scaling the loss threshold eps by it
    stays on the safe side.  The doubling-recursion coefficients are not used
    here: their norm grows exponentially with n and pushes the bound to
    float-underflow zero for n beyond roughly 30.
    """
    interp = build_interpolating_requ(ds, seed=seed, coefficients="exact")
    rho = float(np.linalg.norm(net_to_flat(interp.net)))
    lam_hat = interp.margin / rho**3
    if not lam_hat > 0.0:
        raise RuntimeError("normalized interpolator margin underflowed to zero")
    return loss.epsilon * lam_hat


def _try_snaps(theta, loss, fn, blocks, opts):
    """Zero out small neuron blocks whenever that does not increase the loss."""
    norms = np.array([np.linalg.norm(theta[b]) for b in blocks])
    snapped = False
    cutoff = max(1e-6, opts.snap_rel * float(np.max(norms)))
    for j in np.argsort(norms):
        if norms[j] == 0.0 or norms[j] > cutoff:
            continue
        trial = theta.copy()
        trial[blocks[j]] = 0.0
        trial_loss = fn(trial)
        if trial_loss <= loss + 4e-16 * (1.0 + abs(loss)):
            theta, loss, snapped = trial, trial_loss, True
    return theta, loss, snapped


def _escape_candidates(features, y, misclassified, rng, count):
    """Random unit directions (u, v) plus targeted ones.

    Targeted candidates: the knot-interpolator neurons for the feature set
    (guaranteed to activate every sample) and, for each misclassified sample,
    its own lifted direction (x_i; 1), which activates at least that sample.
    """
    width = features.shape[1]
    parts = [rng.standard_normal((count, width + 1))]
    if misclassified.any():
        parts.append(np.hstack([features[misclassified], np.ones((int(misclassified.sum()), 1))]))
    try:
        interp = build_interpolating_requ(Dataset(features, y), seed=int(rng.integers(1 << 31)))
        parts.append(np.hstack([interp.net.W, interp.net.b[:, None]]))
    except (ValueError, RuntimeError):
        pass  # coincident projected features: skip the interpolator candidates
    dirs = np.vstack(parts)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _last_decrease(vals, best, tiny):
    """Scan vals in order, moving best to every value below best - tiny, as a
    point-by-point search would; return (best, position of the last move or
    None).  best only falls, so a value that misses the first threshold
    misses every later one and the scan skips it."""
    last = None
    for k in np.flatnonzero(vals < best - tiny):
        if vals[k] < best - tiny:
            best, last = float(vals[k]), int(k)
    return best, last


def _attempt_escape(theta, loss, fob, like, ds, cfg, opts, rng):
    """Point an inactive neuron along a sampled direction if that helps.

    Candidate blocks are (a, w, b) = (s delta, delta u, delta v) over a
    geometric delta grid; s targets the sign of sum_i loss'_i y_i (u.x_i+v)_+^2
    so the cubic term works downhill.  Only a strict loss decrease is kept.
    Only an exactly-zero block may be repointed: turning one on is a genuine
    perturbation (the loss change is third order in delta), whereas rewriting
    an active block would be a non-local jump that can tunnel out of true
    local minima the descent method is supposed to terminate at.  Returns
    (None, loss) when every block is active.  The (candidate, delta) grid is
    evaluated through FlatObjective.values a few candidates at a time and
    scanned in candidate-major order; the last strict improvement wins.
    """
    net = net_from_flat(like, theta)
    norms = neuron_block_norms(net)
    if not np.any(norms == 0.0):
        return None, loss
    features = net.head_inputs(ds.X) if isinstance(net, DeepConvNet) else ds.X
    j = int(np.argmin(norms))
    outputs = net.value(ds.X)
    lp = loss_deriv(cfg.loss, -ds.y * outputs)
    misclassified = np.sign(outputs) != ds.y

    dirs = _escape_candidates(features, ds.y, misclassified, rng, opts.escape_directions)
    act = requ(features @ dirs[:, :-1].T + dirs[:, -1])  # (n, cands)
    drive = (lp * ds.y) @ act
    signs = np.where(drive >= 0.0, 1.0, -1.0)

    block = fob.layout.blocks()[j]
    tiny = 1e-14 * (1.0 + abs(loss))
    best_loss, best_theta = loss, None
    deltas = opts.escape_delta * 2.0 ** np.arange(-4, 13)
    order = np.argsort(-np.abs(drive))[: max(32, opts.escape_directions // 4)]
    per = max(1, fob.CHUNK // deltas.size)
    for c in range(0, order.size, per):
        cands = order[c : c + per]
        trials = np.tile(theta, (cands.size * deltas.size, 1))
        trials[:, block[0]] = (signs[cands, None] * deltas).ravel()
        scaled = deltas[None, :, None] * dirs[cands, None, :]  # (cands, deltas, w + 1)
        trials[:, block[1:]] = scaled.reshape(-1, dirs.shape[1])
        best_loss, k = _last_decrease(fob.values(trials), best_loss, tiny)
        if k is not None:
            best_theta = trials[k].copy()
    return best_theta, best_loss


def _attempt_stall_escape(theta, loss, fob, blocks, rng, opts):
    """Random-direction probe for a strict decrease at a nonsmooth pin.

    Descent can wedge the iterate onto a leaky-ReLU kink manifold (a hidden
    pre-activation exactly zero for some sample) where the almost-everywhere
    gradient points uphill on both smooth sides yet descent directions exist
    off the manifold.  Probing random unit directions over live coordinates
    (pruned blocks stay pruned; a revived block only re-enters at cubic order
    anyway) finds one whenever the pin is not a genuine local minimum.

    The directions come from two stacked draws, which follow the same
    generator stream as one draw per direction.  Every probe point
    theta + r u is evaluated through FlatObjective.values, a chunk of
    directions at a time, and scanned in order (directions as drawn, radii
    ascending): the last point that beats the running best by more than
    tiny wins.  The greedy doubling that follows a hit calls value one step
    at a time.
    """
    live = np.ones(theta.size, dtype=bool)
    head = np.zeros(theta.size, dtype=bool)
    for b in blocks:
        head[b] = True
        if not theta[b].any():
            live[b] = False
    # Kinks live in the filter coordinates; concentrated probes there reach
    # across the manifold where full-space directions dilute by 1/sqrt(dim).
    n_filt = int((~head).sum())
    U = np.zeros((opts.stall_probes + (0 if n_filt == 0 else 64), theta.size))
    U[: opts.stall_probes, live] = rng.standard_normal((opts.stall_probes, int(live.sum())))
    U[opts.stall_probes :, ~head] = rng.standard_normal((len(U) - opts.stall_probes, n_filt))
    for u in U:
        u /= np.linalg.norm(u)
    radii = opts.escape_delta * 2.0 ** np.arange(-6, 9)
    tiny = 1e-15 * (1.0 + abs(loss))
    best_loss, best_step = loss, None
    per = max(1, fob.CHUNK // radii.size)
    for c in range(0, len(U), per):
        dirs = U[c : c + per]
        trials = theta + radii[None, :, None] * dirs[:, None, :]
        best_loss, k = _last_decrease(fob.values(trials.reshape(-1, theta.size)), best_loss, tiny)
        if k is not None:
            best_step = (dirs[k // radii.size], radii[k % radii.size])
    if best_step is None:
        return None, loss
    u, r = best_step
    while True:  # greedy extension: keep doubling while it keeps helping
        trial_loss = fob.value(theta + 2.0 * r * u)
        if trial_loss >= best_loss - tiny:
            break
        best_loss, r = trial_loss, 2.0 * r
    return theta + r * u, best_loss


def train(net, ds: Dataset, cfg: ObjectiveConfig, opts: TrainOptions | None = None):
    """Minimize the objective from the given starting network.

    Returns (trained_net, Trajectory).  Each iteration proposes a spectral
    (Barzilai-Borwein) step when curvature information is available and the
    last grown step otherwise, then enforces the Armijo condition by
    backtracking, so the accepted sequence is strictly monotone; each trial
    is one FlatObjective.forward, whose result also gives an accepted trial
    its gradient.  See the module docstring for the snap and escape moves.
    """
    opts = opts or TrainOptions()
    cfg.check_m(net)
    like = net
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0xE5CA)))
    fob = FlatObjective(like, ds, cfg)

    is_single = isinstance(net, SingleLayerReQUNet)
    lam_min = float(np.min(cfg.lam))
    theta = net_to_flat(net)
    blocks = fob.layout.blocks()
    traj = Trajectory()
    eta = opts.step0
    escapes = 0
    stall_escapes = 0
    it = 0
    loss, g = fob.value_and_grad(theta)
    prev_theta = prev_g = None
    stall_ref_it, stall_ref_loss = 0, loss

    def refresh(new_theta, new_loss, status):
        nonlocal theta, loss, g, prev_theta, prev_g, stall_ref_it, stall_ref_loss
        theta, loss = new_theta, new_loss
        loss, g = fob.value_and_grad(theta)
        prev_theta = prev_g = None
        stall_ref_it, stall_ref_loss = it, loss
        traj.record(it, loss, float(np.linalg.norm(g)), float(np.linalg.norm(theta)), status)

    def record(status):  # the norm of the iteration's starting point, taken only here
        traj.record(it, loss, gn, float(np.linalg.norm(start)), status)

    while it < opts.max_iter:
        gn = float(np.linalg.norm(g))
        start = theta
        if it % opts.record_every == 0:
            record("descent")
        if not (math.isfinite(loss) and math.isfinite(gn)):
            record("non-finite")
            return net_from_flat(like, theta), traj

        if opts.check_coercivity and is_single:
            floor = coercivity_lower_bound(float(np.linalg.norm(theta)), lam_min, like.m)
            if loss < floor - 1e-9 * (1.0 + abs(loss)):
                raise CoercivityViolationError(
                    f"loss {loss:.6e} fell below the cubic floor {floor:.6e} at iter {it}"
                )

        if gn < opts.grad_tol * (1.0 + abs(loss)):
            theta2, loss2, snapped = _try_snaps(theta, loss, fob.value, blocks, opts)
            if snapped:
                refresh(theta2, loss2, "snap")
                continue
            err = training_error(net_from_flat(like, theta), ds)
            if err > 0.0 and escapes < opts.max_escapes:
                escapes += 1
                esc_theta, esc_loss = _attempt_escape(theta, loss, fob, like, ds, cfg, opts, rng)
                if esc_theta is not None:
                    refresh(esc_theta, esc_loss, "escape")
                    eta = opts.step0
                    continue
            record("converged")
            return net_from_flat(like, theta), traj

        # Periodic prune attempt keeps dying blocks from dragging on convergence.
        if opts.snap_every and it % opts.snap_every == opts.snap_every - 1:
            theta2, loss2, snapped = _try_snaps(theta, loss, fob.value, blocks, opts)
            if snapped:
                refresh(theta2, loss2, "snap")

        # While samples stay misclassified near-flat descent can crawl; try
        # the third-order escape move at a coarse cadence as well.
        if (
            opts.escape_every
            and it % opts.escape_every == opts.escape_every - 1
            and escapes < opts.max_escapes
            and training_error(net_from_flat(like, theta), ds) > 0.0
        ):
            escapes += 1
            esc_theta, esc_loss = _attempt_escape(theta, loss, fob, like, ds, cfg, opts, rng)
            if esc_theta is not None:
                refresh(esc_theta, esc_loss, "escape")
                eta = opts.step0
                it += 1
                continue

        # Flatline watch: loss frozen for a whole window with the gradient
        # still large means the iterate is pinned on a kink; probe around it.
        # The gradient guard keeps ordinary slow tails (tiny loss decrements
        # while the gradient steadily shrinks toward tolerance) out of it.
        if it - stall_ref_it >= opts.stall_window:
            if (
                stall_ref_loss - loss <= 1e-13 * (1.0 + abs(loss))
                and gn > 1e3 * opts.grad_tol * (1.0 + abs(loss))
            ):
                if stall_escapes >= opts.max_stall_escapes:
                    record("stalled")
                    return net_from_flat(like, theta), traj
                stall_escapes += 1
                esc_theta, esc_loss = _attempt_stall_escape(theta, loss, fob, blocks, rng, opts)
                if esc_theta is None:
                    record("stalled")
                    return net_from_flat(like, theta), traj
                refresh(esc_theta, esc_loss, "escape")
                eta = opts.step0
                continue
            stall_ref_it, stall_ref_loss = it, loss

        # Spectral trial step from the last secant pair, else the grown step.
        trial_eta = eta
        if prev_theta is not None:
            dtheta = theta - prev_theta
            dg = g - prev_g
            curv = float(dtheta @ dg)
            if curv > 0.0:
                trial_eta = min(max(float(dtheta @ dtheta) / curv, 1e-12), 1e15)

        accepted = False
        step = trial_eta
        for _ in range(120):
            trial = theta - step * g
            fwd = fob.forward(trial)
            trial_loss = float(fwd[0])
            if trial_loss <= loss - opts.armijo * step * gn * gn:
                prev_theta, prev_g = theta, g
                theta = trial
                loss, g = trial_loss, fob.grad(fwd)  # the accepted trial's own forward pass
                eta = min(step * opts.grow, 1e15)
                accepted = True
                break
            step *= opts.shrink
        if not accepted:
            if stall_escapes < opts.max_stall_escapes:
                stall_escapes += 1
                esc_theta, esc_loss = _attempt_stall_escape(theta, loss, fob, blocks, rng, opts)
                if esc_theta is not None:
                    refresh(esc_theta, esc_loss, "escape")
                    eta = opts.step0
                    continue
            record("stalled")
            return net_from_flat(like, theta), traj
        it += 1

    gn = float(np.linalg.norm(g))
    traj.record(it, loss, gn, float(np.linalg.norm(theta)), "budget-exhausted")
    return net_from_flat(like, theta), traj


def decreasing_path_demo(num_steps: int, lam: float = 0.1):
    """Table along theta_k = (-1/k, sqrt(k), 1/k) for the product objective.

    The unregularized loss (x y z - 1)^2 decreases monotonically to 1 while
    the parameter norm grows like sqrt(k): a decreasing path to infinity.
    Adding the cubic block regularizer (coefficient lam on the single product
    neuron) makes the same path blow up, and every row is bounded below by
    the coercivity floor lam / (3 sqrt(2)) * ||theta||^3.

    Returns a dict of aligned arrays: k, param_norm, loss, reg_loss, floor.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    k = np.arange(1, num_steps + 1, dtype=float)
    x, y, z = -1.0 / k, np.sqrt(k), 1.0 / k
    loss = (x * y * z - 1.0) ** 2
    norm = np.sqrt(x * x + y * y + z * z)
    reg = loss + lam / 3.0 * (np.abs(x) ** 3 + 2.0 * (y * y + z * z) ** 1.5)
    floor = lam / (3.0 * np.sqrt(2.0)) * norm**3
    return {"k": k, "param_norm": norm, "loss": loss, "reg_loss": reg, "floor": floor}


def save_path_csv(table: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = list(table)
        writer.writerow(keys)
        for row in zip(*(table[k] for k in keys)):
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
