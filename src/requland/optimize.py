"""Training by L-BFGS with a weak-Wolfe line search, with pruning and
escape moves.

Each step follows the L-BFGS direction of the last MEMORY curvature pairs
(Nocedal & Wright, Numerical Optimization, ch. 7), formed in the compact
representation of Byrd, Nocedal & Schnabel (1994), along which the
weak-Wolfe bracketing search of Lewis & Overton (Math. Program. 141, 2013)
finds a strictly lower point; that search also copes with the leaky-ReLU
kinks, where the objective is not differentiable.

Two moves beyond plain descent matter here.  Dying neurons decay only like
1/t under the cubic regularizer, so whenever zeroing a small neuron block
does not increase the loss the trainer snaps it to exactly zero; a fully
zero block has exactly zero gradient in every term and so a zero L-BFGS
direction: descent never revives it.  While the iterate misclassifies, at
the stopping point and every ESCAPE_EVERY = 250 iterations, the trainer
tries third-order escape moves: it reassigns one exactly-zero neuron block
to a sampled direction (u, v) at small amplitude delta, where the loss
change behaves like delta^3 (lam_j - |sum_i loss'_i y_i (u . x_i + v)_+^2|),
and keeps the best strict improvement.  Only such a search spends one of
the MAX_ESCAPES tries: a point with no zero block makes none.

The accepted losses fall strictly and the objective has no decreasing path
to infinity, so the iterates stay bounded, and a run that neither converges
nor runs out of iterations stops only where no step lowers the loss: where
the line search finds no lower point -- its trials fail, or round away onto
theta itself -- as on a leaky-ReLU kink where the almost-everywhere gradient
is not a descent direction.  That is the one pin rule; the run ends there
"stalled".

train keeps the forward pass of its iterate, and every move reads only
theta, that pass (or the loss it holds) and the FlatObjective: the data, the
loss and the neuron blocks all come from it.  The escape scans its grid of
points theta + r u through _search.  Every move's point (snap or escape)
becomes the iterate through train's refresh, which records its row and
clears the L-BFGS memory: snaps and escapes are the only moves that change
the set of live blocks.

TrainOptions holds what callers set: max_iter, grad_tol and seed.  Step
sizes, cadences and move sizes are the module constants, the only values in
use; the coercivity check runs on every network, at its head.
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


ARMIJO = 1e-4  # weak-Wolfe sufficient decrease c1
WOLFE = 0.9  # weak-Wolfe curvature c2
WOLFE_TRIALS = 60  # most trial points of one line search
MEMORY = 20  # L-BFGS curvature pairs kept
RECORD_EVERY = 200
SNAP_EVERY = 50
SNAP_REL = 0.05  # prune candidates: block norm below this times the largest
ESCAPE_DIRECTIONS = 256
ESCAPE_DELTA = 1e-3
ESCAPE_EVERY = 250  # while misclassifying, also try escapes at this cadence (5 snap checks)
MAX_ESCAPES = 10  # escape searches per run; a point with no exactly-zero block spends none


@dataclass
class TrainOptions:
    """What a caller sets for one run; everything else is a module constant."""

    max_iter: int = 200_000
    grad_tol: float = 1e-7  # stop when ||grad|| < grad_tol * (1 + |loss|)
    seed: int = 0


@dataclass
class Trajectory:
    """Recorded (iter, loss, grad_norm, param_norm, status) rows.

    Row statuses are "descent", "snap" or "escape"; the final row carries
    the terminal status: "converged", "budget-exhausted", "stalled" (the
    iterate is pinned: the line search finds no lower point, or its steps
    round away to theta itself), or "non-finite" (the loss or the gradient
    norm is inf or NaN).  Escapes that later converge still end in
    "converged"; the escape rows keep the history, and escapes counts them.
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


def init_single(m: int, d: int, seed: int = 0, scale: float = 0.1) -> SingleLayerReQUNet:
    """init_deep's l = 1 net as a SingleLayerReQUNet: Gaussian, deviation scale/sqrt(d)."""
    net = init_deep(d, 1, 1, m, seed, scale=scale)
    return SingleLayerReQUNet(net.a, net.W, net.b)


def init_deep(
    d: int, s: int, l: int, m: int, seed: int = 0, slope: float = 0.1, scale: float = 0.1
) -> DeepConvNet:
    """Unit-norm random filters plus a Gaussian head on the grown signal."""
    if l < 1:
        raise ValueError(f"l must be >= 1 (the head alone), got {l}")
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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
        # faulted in anew.
        trials = theta + radii[None, :, None] * dirs[:, None, :]
        vals = fob.values(trials.reshape(-1, theta.size))
        for k in np.flatnonzero(vals < best - tiny):
            if vals[k] < best - tiny:
                best, last = float(vals[k]), c * radii.size + k
    return best, None if last is None else (U[last // radii.size], radii[last % radii.size])


def _attempt_escape(theta, fwd, fob, rng, block):
    """Point the exactly-zero neuron block along a sampled direction if that
    helps; block holds its flat indices (a_j, w_j, b_j).

    Candidate blocks are (a, w, b) = (s delta, delta u, delta v) over a
    geometric delta grid; s targets the sign of sum_i loss'_i y_i (u.x_i+v)_+^2
    so the cubic term works downhill.  Only a strict loss decrease is kept,
    else the return is (None, loss).  Only an exactly-zero block may be
    repointed, and train passes the first one: turning one on is a genuine
    perturbation (the loss change is third order in delta), whereas
    rewriting an active block would be a non-local jump that can tunnel out
    of true local minima the descent method is supposed to terminate at.
    The loss, head inputs and margins are read from fwd = fob.forward(theta),
    the pass train keeps for its iterate.  Each candidate is a row of U that
    is -0.0 outside the block (x + -0.0 == x for every x, signed zeros too),
    and _search scans the (candidate, delta) grid; the last strict
    improvement wins.
    """
    loss = float(fwd[0])
    (states, *_, outputs), z = fwd[2], fwd[3]
    features = states[-1]
    lp = loss_deriv(fob.loss, z)
    misclassified = np.sign(outputs) != fob.y

    dirs = _escape_candidates(features, fob.y, misclassified, rng, ESCAPE_DIRECTIONS)
    act = requ(features @ dirs[:, :-1].T + dirs[:, -1])  # (n, cands)
    drive = (lp * fob.y) @ act
    order = np.argsort(-np.abs(drive))[: max(32, ESCAPE_DIRECTIONS // 4)]
    U = np.full((order.size, theta.size), -0.0)
    U[:, block[0]] = np.where(drive[order] >= 0.0, 1.0, -1.0)
    U[:, block[1:]] = dirs[order]
    deltas = ESCAPE_DELTA * 2.0 ** np.arange(-4, 13)
    best_loss, step = _search(fob, theta, U, deltas, loss, 1e-14 * (1.0 + abs(loss)))
    if step is None:
        return None, loss
    u, r = step
    return theta + r * u, best_loss


def _no_pairs(size):
    """The L-BFGS memory of size-P pairs with no pair in it (see _remember)."""
    pairs, square = np.empty((0, size)), np.empty((0, 0))
    return pairs, pairs, square, square, np.empty(0)


def _remember(memory, s, y):
    """The L-BFGS memory with the pair (s, y) appended as the newest, the
    oldest dropped past MEMORY pairs; a pair with s . y <= 0 carries no
    curvature and is skipped.

    A memory is (S, Y, Rinv, YY, D): the pairs as rows of S and Y, oldest
    first, the inverse of the upper triangle R of S Y' (R_ij = s_i . y_j
    for i <= j), Y Y' and the diagonal of R.  Appending a pair borders R
    with a column, and dropping the oldest cuts R's first row and column;
    both carry over to the inverse of a triangle in closed form, so no
    k x k inverse is formed anew."""
    sy = float(s @ y)
    if not sy > 0.0:
        return memory
    S, Y, Rinv, YY, D = memory
    if len(S) == MEMORY:
        S, Y, Rinv, YY, D = S[1:], Y[1:], Rinv[1:, 1:], YY[1:, 1:], D[1:]
    k = len(S)
    R2 = np.zeros((k + 1, k + 1))
    R2[:k, :k] = Rinv
    R2[:k, k] = Rinv @ (S @ y) / -sy
    R2[k, k] = 1.0 / sy
    YY2 = np.empty((k + 1, k + 1))
    YY2[:k, :k] = YY
    YY2[k, :k] = YY2[:k, k] = Y @ y
    YY2[k, k] = y @ y
    S, Y, D = np.concatenate((S, s[None])), np.concatenate((Y, y[None])), np.concatenate((D, (sy,)))
    return S, Y, R2, YY2, D


def _lbfgs_direction(g, memory):
    """-H g for the L-BFGS inverse Hessian H of the memory's pairs, in the
    compact form of Byrd, Nocedal & Schnabel (1994): H = gamma I +
    [S' gamma Y'] M [S; gamma Y], M from R^-1, D and Y Y', with gamma =
    s.y / y.y of the newest pair.  -g when the memory is empty.  Where g
    and every row of S and Y are exactly zero, as on a pruned block, the
    direction is zero too."""
    S, Y, Rinv, YY, D = memory
    if not len(S):
        return -g
    gamma = D[-1] / YY[-1, -1]
    q = Rinv @ (S @ g)
    p = Rinv.T @ (D * q + gamma * (YY @ q - Y @ g))
    return gamma * (q @ Y - g) - p @ S


def _weak_wolfe(fob, theta, loss, g, d):
    """The weak-Wolfe bracketing search of Lewis & Overton (2013) along d
    from theta, first trial t = 1.

    A trial passes Armijo when its value is below loss and within ARMIJO t
    g.d of it; only then is its gradient taken, and the weak Wolfe test
    asks its slope along d to be at least WOLFE g.d.  A failed Armijo test
    bounds t from above, a failed Wolfe test from below; t doubles until
    bounded above, then bisects.  Returns (t, point, forward pass, gradient)
    of the first trial that passes both, else of the last that passed
    Armijo, else None: no trial lowered the loss.  The search stops early
    once a trial rounds onto the point it would improve on (theta, or the
    last Armijo point), so no gradient is taken twice at one point."""
    slope = float(g @ d)
    lo, hi, t, kept = 0.0, math.inf, 1.0, None
    for _ in range(WOLFE_TRIALS):
        trial = theta + t * d
        if np.array_equal(trial, theta if kept is None else kept[1]):
            break
        fwd = fob.forward(trial)
        value = float(fwd[0])
        if value < loss and value <= loss + ARMIJO * t * slope:
            tg = fob.grad(fwd)
            if tg @ d >= WOLFE * slope:
                return t, trial, fwd, tg
            lo, kept = t, (t, trial, fwd, tg)
        else:
            hi = t
        t = 2.0 * t if hi == math.inf else 0.5 * (lo + hi)
    return kept


@np.errstate(over="ignore", invalid="ignore")  # an overflowing run ends "non-finite", silently
def train(net, ds: Dataset, cfg: ObjectiveConfig, opts: TrainOptions | None = None):
    """Minimize the objective from the given starting network.

    Returns (trained_net, Trajectory).  Each iteration steps along the
    L-BFGS direction of the last MEMORY curvature pairs (_lbfgs_direction)
    with the weak-Wolfe search (_weak_wolfe), so the accepted sequence is
    strictly monotone; a direction that does not descend, which rounding
    alone can cause, is replaced by -g with the memory cleared.  A search
    that finds no lower point pins the iterate, and the run ends "stalled"
    there.  See the module docstring for the snap and escape moves; every
    move's point becomes the iterate through refresh, which records its
    row and clears the memory, and the iteration starts again from it.

    fwd is always fob.forward(theta) for the current iterate, set at the
    start, by refresh and by each accepted step; the moves and the escape
    gate read it, so no network is rebuilt or evaluated again at theta.
    """
    opts = opts or TrainOptions()
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0xE5CA)))
    fob = FlatObjective(net, ds, cfg)

    lam_min = float(np.min(cfg.lam))
    blocks = fob.layout.blocks()
    theta = net_to_flat(net)
    n_head = fob.layout.size - sum(fob.layout.filter_sizes)  # the head (a, W, b) leads theta
    traj = Trajectory()
    memory = empty = _no_pairs(theta.size)
    escapes = 0
    it = 0
    fwd = fob.forward(theta)
    loss, g = float(fwd[0]), fob.grad(fwd)

    def refresh(status, new_theta):
        """Make a move's point the iterate, record its row, clear the memory."""
        nonlocal theta, fwd, loss, g, memory
        theta, fwd = new_theta, fob.forward(new_theta)
        loss, g = float(fwd[0]), fob.grad(fwd)
        memory = empty
        traj.record(it, loss, math.sqrt(g @ g), math.sqrt(theta @ theta), status)

    def record(status):  # the norm of the iteration's starting point, taken only here
        traj.record(it, loss, gn, math.sqrt(theta @ theta), status)

    while True:
        gn = math.sqrt(g @ g)  # == float(np.linalg.norm(g)): the same dot, a correctly rounded sqrt
        if it >= opts.max_iter:
            status = "budget-exhausted"
            break
        if it % RECORD_EVERY == 0:
            record("descent")
        if not (math.isfinite(loss) and math.isfinite(gn)):
            status = "non-finite"
            break

        head = theta[:n_head]
        floor = coercivity_lower_bound(math.sqrt(head @ head), lam_min, fob.layout.m)
        if loss < floor - 1e-9 * (1.0 + abs(loss)):
            raise CoercivityViolationError(
                f"loss {loss:.6e} fell below the cubic floor {floor:.6e} at iter {it}"
            )

        converged = gn < opts.grad_tol * (1.0 + abs(loss))
        # Prune at the stopping point, and periodically so that dying blocks
        # do not drag on convergence.  The iteration then starts again from
        # the snapped point, its gradient norm and rows included.
        if converged or it % SNAP_EVERY == SNAP_EVERY - 1:
            theta2, _, snapped = _try_snaps(theta, loss, fob)
            if snapped:
                refresh("snap", theta2)
                continue

        # While samples stay misclassified, try the third-order escape move
        # at the stopping point, and at a coarse cadence too, where near-flat
        # descent can crawl; a cadence escape uses up its iteration.  The
        # move repoints an exactly-zero block, so only a point with one
        # makes a search and spends a try.
        if (
            (converged or it % ESCAPE_EVERY == ESCAPE_EVERY - 1)
            and escapes < MAX_ESCAPES
            and np.any(np.sign(fwd[2][-1]) != fob.y)  # a sample is misclassified
            and (free := np.flatnonzero(~theta[blocks].any(axis=1))).size
        ):
            escapes += 1
            esc_theta, _ = _attempt_escape(theta, fwd, fob, rng, blocks[free[0]])
            if esc_theta is not None:
                refresh("escape", esc_theta)
                if not converged:
                    it += 1
                continue
        if converged:
            status = "converged"
            break

        d = _lbfgs_direction(g, memory)
        if not g @ d < 0.0:
            memory, d = empty, -g
        step = _weak_wolfe(fob, theta, loss, g, d)
        if step is None:
            status = "stalled"
            break
        _, new_theta, fwd, new_g = step
        memory = _remember(memory, new_theta - theta, new_g - g)
        theta, loss, g = new_theta, float(fwd[0]), new_g
        it += 1

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
