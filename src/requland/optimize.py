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
It probes at once when no Armijo rung moves the iterate, either because none
decreases the loss or because the accepted step rounds away and leaves
theta unchanged; the flatline watch catches pins where theta still moves.

The Armijo backtracking ladder runs in blocks of rungs, each block one
FlatObjective.forward on a stack of trial points, from which the accepted
rung also takes its gradient; train sizes the blocks from the last iteration.
train keeps the forward pass of its iterate, and every move reads only
theta, that pass (or the loss it holds) and the FlatObjective: the data, the
loss and the neuron blocks all come from it.  Both escapes scan their grid
of points theta + r u through one search, _search.

TrainOptions holds what callers set: max_iter, grad_tol, max_stall_escapes
and seed.  Step sizes, cadences and move sizes are the module constants, the
only values in use; the coercivity check always runs on single-layer nets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import build_interpolating_requ
from .datasets import Dataset, write_csv
from .models import DeepConvNet, SingleLayerReQUNet, net_from_flat, net_to_flat, requ
from .numkit import row_dots
from .objective import FlatObjective, LossKind, ObjectiveConfig, coercivity_lower_bound, loss_deriv

TERMINAL_STATUSES = ("converged", "budget-exhausted", "stalled", "non-finite")


class CoercivityViolationError(RuntimeError):
    """The iterate dropped below the proven cubic lower bound; this can only
    come from a numerical defect, so it is never ignored."""


STEP0 = 1.0  # first trial step, and the step after every escape
ARMIJO = 1e-4
SHRINK = 0.5
GROW = 2.0
RECORD_EVERY = 200
SNAP_EVERY = 50
SNAP_REL = 0.05  # prune candidates: block norm below this times the largest
ESCAPE_DIRECTIONS = 256
ESCAPE_DELTA = 1e-3
ESCAPE_EVERY = 1000  # while misclassifying, also try escapes at this cadence
MAX_ESCAPES = 10
STALL_WINDOW = 400  # iterations between flatline checks
STALL_PROBES = 256
LADDER_MAX = 8  # most Armijo rungs evaluated in one stacked forward pass


@dataclass
class TrainOptions:
    """What a caller sets for one run; everything else is a module constant."""

    max_iter: int = 200_000
    grad_tol: float = 1e-7  # stop when ||grad|| < grad_tol * (1 + |loss|)
    max_stall_escapes: int = 100
    seed: int = 0


@dataclass
class Trajectory:
    """Recorded (iter, loss, grad_norm, param_norm, status) rows.

    Row statuses are "descent", "snap", or "escape"; the final row carries the
    terminal status: "converged", "budget-exhausted", "stalled" (the iterate
    is pinned -- no representable step decreases the loss, an accepted step
    rounds away to theta itself, or the loss flatlined -- and the stall
    probes found no decrease or ran out of tries), or "non-finite" (the loss
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
        write_csv(path, ["iter", "loss", "grad_norm", "param_norm", "status"], self.rows)


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


def _try_snaps(theta, loss, fob):
    """Zero out small neuron blocks whenever that does not increase the loss."""
    blocks = fob.layout.blocks()
    norms = np.sqrt(row_dots(theta[blocks]))  # == np.linalg.norm of each block
    snapped = False
    cutoff = max(1e-6, SNAP_REL * float(np.max(norms)))
    for j in np.argsort(norms):
        if norms[j] == 0.0 or norms[j] > cutoff:
            continue
        trial = theta.copy()
        trial[blocks[j]] = 0.0
        trial_loss = fob.value(trial)
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


def _search(fob, theta, U, radii, best, tiny):
    """Grid search over the points theta + r u, for the rows u of U and the
    ascending radii r, in that order: directions as given, radii ascending.
    They go through FlatObjective.values, fob.CHUNK // radii.size directions
    per pass.  Returns the best value, moved to every value below best -
    tiny as a point-by-point search would, and the (u, r) of the last such
    move, or None.  best only falls, so a value that misses the first
    threshold misses every later one and the scan skips it."""
    last = None
    per = max(1, fob.CHUNK // radii.size)
    for c in range(0, len(U), per):
        dirs = U[c : c + per]
        # trials stays bound until the next chunk's exist: freed before the
        # scan, it let malloc trim the heap, and each pass's temporaries
        # faulted in anew (a c09 stall try took a third longer on a 2-core
        # host; with glibc's trimming and mmap thresholds raised, no longer).
        trials = theta + radii[None, :, None] * dirs[:, None, :]
        vals = fob.values(trials.reshape(-1, theta.size))
        for k in np.flatnonzero(vals < best - tiny):
            if vals[k] < best - tiny:
                best, last = float(vals[k]), c * radii.size + k
    return best, None if last is None else (U[last // radii.size], radii[last % radii.size])


def _attempt_escape(theta, fwd, fob, rng):
    """Point an inactive neuron along a sampled direction if that helps.

    Candidate blocks are (a, w, b) = (s delta, delta u, delta v) over a
    geometric delta grid; s targets the sign of sum_i loss'_i y_i (u.x_i+v)_+^2
    so the cubic term works downhill.  Only a strict loss decrease is kept.
    Only an exactly-zero block may be repointed: turning one on is a genuine
    perturbation (the loss change is third order in delta), whereas rewriting
    an active block would be a non-local jump that can tunnel out of true
    local minima the descent method is supposed to terminate at.  Returns
    (None, loss) when every block is active.  The loss, head inputs and
    margins are read from fwd = fob.forward(theta), the pass train keeps
    for its iterate.  The repointed block is the first all-zero one; each
    candidate is a row of U that is -0.0 outside it (x + -0.0 == x for every
    x, signed zeros too), and _search scans the (candidate, delta) grid; the
    last strict improvement wins.
    """
    loss = float(fwd[0])
    free = [b for b in fob.layout.blocks() if not theta[b].any()]
    if not free:
        return None, loss
    (states, *_, outputs), z = fwd[2], fwd[3]
    features = states[-1]
    lp = loss_deriv(fob.loss, z)
    misclassified = np.sign(outputs) != fob.y

    dirs = _escape_candidates(features, fob.y, misclassified, rng, ESCAPE_DIRECTIONS)
    act = requ(features @ dirs[:, :-1].T + dirs[:, -1])  # (n, cands)
    drive = (lp * fob.y) @ act
    order = np.argsort(-np.abs(drive))[: max(32, ESCAPE_DIRECTIONS // 4)]
    U = np.full((order.size, theta.size), -0.0)
    U[:, free[0][0]] = np.where(drive[order] >= 0.0, 1.0, -1.0)
    U[:, free[0][1:]] = dirs[order]
    deltas = ESCAPE_DELTA * 2.0 ** np.arange(-4, 13)
    best_loss, step = _search(fob, theta, U, deltas, loss, 1e-14 * (1.0 + abs(loss)))
    if step is None:
        return None, loss
    u, r = step
    return theta + r * u, best_loss


def _attempt_stall_escape(theta, loss, fob, rng):
    """Random-direction probe for a strict decrease at a nonsmooth pin.

    Descent can wedge the iterate onto a leaky-ReLU kink manifold (a hidden
    pre-activation exactly zero for some sample) where the almost-everywhere
    gradient points uphill on both smooth sides yet descent directions exist
    off the manifold.  Probing random unit directions over live coordinates
    (pruned blocks stay pruned; a revived block only re-enters at cubic order
    anyway) finds one whenever the pin is not a genuine local minimum.

    The directions come from two stacked draws, which follow the same
    generator stream as one draw per direction.  _search scans the probe
    points theta + r u (directions as drawn, radii ascending): the last
    point that beats the running best by more than tiny wins.  The greedy
    doubling that follows a hit calls FlatObjective.value one step at a time.
    """
    live = np.ones(theta.size, dtype=bool)
    head = np.zeros(theta.size, dtype=bool)
    for b in fob.layout.blocks():
        head[b] = True
        if not theta[b].any():
            live[b] = False
    # Kinks live in the filter coordinates; concentrated probes there reach
    # across the manifold where full-space directions dilute by 1/sqrt(dim).
    n_filt = int((~head).sum())
    U = np.zeros((STALL_PROBES + (0 if n_filt == 0 else 64), theta.size))
    U[:STALL_PROBES, live] = rng.standard_normal((STALL_PROBES, int(live.sum())))
    U[STALL_PROBES:, ~head] = rng.standard_normal((len(U) - STALL_PROBES, n_filt))
    U /= np.sqrt(row_dots(U))[:, None]  # == u /= np.linalg.norm(u), row by row
    radii = ESCAPE_DELTA * 2.0 ** np.arange(-6, 9)
    tiny = 1e-15 * (1.0 + abs(loss))
    best_loss, step = _search(fob, theta, U, radii, loss, tiny)
    if step is None:
        return None, loss
    u, r = step
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
    backtracking along step, step*SHRINK, ... (at most 120 rungs), so the
    accepted sequence is strictly monotone.  A block of rungs is one stacked
    FlatObjective.forward: one rung after an iteration that took its first
    trial, else as many as that iteration took, capped at LADDER_MAX, which
    later blocks use.  The first passing rung wins and takes its gradient
    from its block's pass, so the widths change only the cost.  An
    accepted rung whose trial equals theta (the decrease ARMIJO*step*gn^2
    fell below half an ulp of the loss) is no step: like an exhausted
    ladder it pins the iterate and hands it to the stall probe.  See the
    module docstring for the snap and escape moves.

    fwd is always fob.forward(theta) for the current iterate, set at the
    start, by refresh and by each accepted rung; the moves and the escape
    gate read it, so no network is rebuilt or evaluated again at theta.
    """
    opts = opts or TrainOptions()
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0xE5CA)))
    fob = FlatObjective(net, ds, cfg)

    is_single = isinstance(net, SingleLayerReQUNet)
    lam_min = float(np.min(cfg.lam))
    theta = net_to_flat(net)
    traj = Trajectory()
    eta = STEP0
    rungs = 1  # Armijo trials the last accepted iteration took
    escapes = 0
    stall_escapes = 0
    it = 0
    fwd = fob.forward(theta)
    loss, g = float(fwd[0]), fob.grad(fwd)
    prev_theta = prev_g = None
    stall_ref_it, stall_ref_loss = 0, loss

    def refresh(new_theta, status):
        nonlocal theta, fwd, loss, g, prev_theta, prev_g, stall_ref_it, stall_ref_loss
        theta, fwd = new_theta, fob.forward(new_theta)
        loss, g = float(fwd[0]), fob.grad(fwd)
        prev_theta = prev_g = None
        stall_ref_it, stall_ref_loss = it, loss
        traj.record(it, loss, math.sqrt(g @ g), math.sqrt(theta @ theta), status)

    def record(status):  # the norm of the iteration's starting point, taken only here
        traj.record(it, loss, gn, math.sqrt(start @ start), status)

    while True:
        gn = math.sqrt(g @ g)  # == float(np.linalg.norm(g)): the same dot, a correctly rounded sqrt
        start = theta
        if it >= opts.max_iter:
            status = "budget-exhausted"
            break
        if it % RECORD_EVERY == 0:
            record("descent")
        if not (math.isfinite(loss) and math.isfinite(gn)):
            status = "non-finite"
            break

        if is_single:
            floor = coercivity_lower_bound(math.sqrt(theta @ theta), lam_min, fob.layout.m)
            if loss < floor - 1e-9 * (1.0 + abs(loss)):
                raise CoercivityViolationError(
                    f"loss {loss:.6e} fell below the cubic floor {floor:.6e} at iter {it}"
                )

        converged = gn < opts.grad_tol * (1.0 + abs(loss))
        # Prune at the stopping point, and periodically so that dying blocks
        # do not drag on convergence.  After a periodic snap the iteration
        # keeps the pre-snap gn on purpose: the Armijo test and the rows it
        # records use it, and taking the snapped point's would change the
        # trajectories.
        if converged or it % SNAP_EVERY == SNAP_EVERY - 1:
            theta2, _, snapped = _try_snaps(theta, loss, fob)
            if snapped:
                refresh(theta2, "snap")
                if converged:
                    continue

        # While samples stay misclassified, try the third-order escape move
        # at the stopping point, and at a coarse cadence too, where near-flat
        # descent can crawl; a cadence escape uses up its iteration.
        if (
            (converged or it % ESCAPE_EVERY == ESCAPE_EVERY - 1)
            and escapes < MAX_ESCAPES
            and np.any(np.sign(fwd[2][-1]) != fob.y)  # a sample is misclassified
        ):
            escapes += 1
            esc_theta, _ = _attempt_escape(theta, fwd, fob, rng)
            if esc_theta is not None:
                refresh(esc_theta, "escape")
                eta = STEP0
                if not converged:
                    it += 1
                continue
        if converged:
            status = "converged"
            break

        # Flatline watch: loss frozen for a whole window with the gradient
        # still large means the iterate is pinned on a kink.  The gradient
        # guard keeps ordinary slow tails (tiny loss decrements while the
        # gradient steadily shrinks toward tolerance) out of it.
        window = it - stall_ref_it >= STALL_WINDOW
        pinned = window and (
            stall_ref_loss - loss <= 1e-13 * (1.0 + abs(loss))
            and gn > 1e3 * opts.grad_tol * (1.0 + abs(loss))
        )
        if window and not pinned:
            stall_ref_it, stall_ref_loss = it, loss

        if not pinned:
            # Spectral trial step from the last secant pair, else the grown step.
            step = eta
            if prev_theta is not None:
                dtheta = theta - prev_theta
                dg = g - prev_g
                curv = float(dtheta @ dg)
                if curv > 0.0:
                    step = min(max(float(dtheta @ dtheta) / curv, 1e-12), 1e15)
            # A lone rung stays a 1-D forward: the common case must cost
            # what one trial costs.  step ends on the accepted rung.
            tried, width, accepted = 0, min(rungs, LADDER_MAX), False
            while tried < 120 and not accepted:
                width = min(width, 120 - tried)
                if width == 1:
                    trial = theta - step * g
                    trial_fwd = fob.forward(trial)
                    trial_loss = float(trial_fwd[0])
                    tried += 1
                    accepted = trial_loss <= loss - ARMIJO * step * gn * gn
                    if not accepted:
                        step *= SHRINK
                else:
                    steps = [step]
                    for _ in range(width - 1):
                        steps.append(steps[-1] * SHRINK)
                    trials = theta - np.multiply.outer(steps, g)
                    stacked = fob.forward(trials)
                    for r, (step, trial_loss) in enumerate(zip(steps, stacked[0].tolist())):
                        tried += 1
                        accepted = trial_loss <= loss - ARMIJO * step * gn * gn
                        if accepted:
                            trial, trial_fwd = trials[r], fob.row(stacked, r)
                            break
                    else:
                        step *= SHRINK
                width = LADDER_MAX
            # A rung whose step rounds away leaves theta where it is: no step.
            if accepted and not (trial_loss == loss and np.array_equal(trial, theta)):
                prev_theta, prev_g = theta, g
                theta, fwd = trial, trial_fwd  # the accepted rung's own forward pass
                loss, g = trial_loss, fob.grad(fwd)
                eta = min(step * GROW, 1e15)
                rungs = tried
                it += 1
            else:
                pinned = True  # no representable step decreases the loss or moves theta
        if not pinned:
            continue

        # Pinned: probe around the iterate for a strict decrease.
        if stall_escapes >= opts.max_stall_escapes:
            status = "stalled"
            break
        stall_escapes += 1
        esc_theta, _ = _attempt_stall_escape(theta, loss, fob, rng)
        if esc_theta is None:
            status = "stalled"
            break
        refresh(esc_theta, "escape")
        eta = STEP0

    record(status)
    return net_from_flat(net, theta), traj


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
    write_csv(path, list(table), zip(*table.values()))
