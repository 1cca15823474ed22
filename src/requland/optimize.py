"""Training by backtracking gradient descent, with pruning and escape moves.

Three mechanisms beyond plain descent matter here.  Dying neurons decay only
like 1/t under the cubic regularizer, so whenever zeroing a small neuron
block does not increase the loss the trainer snaps it to exactly zero; a
fully zero block has exactly zero gradient in every term, so descent never
revives it.  While the iterate misclassifies, at the stopping point and
every ESCAPE_EVERY = 250 iterations, the trainer tries third-order escape
moves: it reassigns one exactly-zero neuron block to a sampled direction
(u, v) at small amplitude delta, where the loss change behaves like
delta^3 (lam_j - |sum_i loss'_i y_i (u . x_i + v)_+^2|), and keeps the best
strict improvement.  Only such a search spends one of the MAX_ESCAPES
tries: a point with no zero block makes none.  And when the loss flatlines
with the gradient still large — the signature of an iterate pinned on a
leaky-ReLU kink, where the almost-everywhere gradient is not a descent
direction — the trainer probes random nearby points for a strict decrease
before giving up.  It probes at once when no Armijo rung moves the
iterate, either because none decreases the loss or because the accepted
step rounds away and leaves theta unchanged; the flatline watch catches
pins where theta still moves.

The Armijo backtracking ladder runs in blocks of rungs, each block one
FlatObjective.forward on a stack of trial points, from which the accepted
rung also takes its gradient; a ladder opens wide only where the proposed
step overshoots the last accepted one by 2**LADDER_MAX or more.
train keeps the forward pass of its iterate, and every move reads only
theta, that pass (or the loss it holds) and the FlatObjective: the data, the
loss and the neuron blocks all come from it.  Both escapes scan their grid
of points theta + r u through one search, _search.  Every move's point
(snap, escape, stall escape, Newton step) becomes the iterate through
train's refresh, which records its row and restarts the step after an escape.

Descent crawls through ill-conditioned tails, so once the activation
pattern settles train finishes with modified-Newton steps (_newton_finish).
It tries at a snap-cadence check where the objective is C^2 around the
iterate and the tail is long: no sample is misclassified; the signs of
every conv pre-activation and every live head pre-activation, each at
least NEWTON_MARGIN from 0 relative to the largest of its layer or neuron,
held over the last NEWTON_HOLD checks; and the gradient norm lies between
NEWTON_SPAN * grad_tol and NEWTON_GATE, both times 1 + |loss|.  The
gradient floor keeps it off short tails, such as the single-layer c01 runs,
and the held margins off runs that head for a leaky-ReLU kink, such as the
c09 pair that ends stalled.  Each accepted step is an iteration and a
"newton" row; an attempt that takes no step doubles the checks skipped
before the next.

TrainOptions holds what callers set: max_iter, grad_tol, max_stall_escapes
and seed.  Step sizes, cadences and move sizes are the module constants, the
only values in use; the coercivity check runs on every network, at its head.
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
ESCAPE_EVERY = 250  # while misclassifying, also try escapes at this cadence (5 snap checks)
MAX_ESCAPES = 10  # escape searches per run; a point with no exactly-zero block spends none
STALL_WINDOW = 400  # iterations between flatline checks
STALL_PROBES = 256
LADDER_MAX = 8  # most Armijo rungs evaluated in one stacked forward pass
NEWTON_GATE = 1e-2  # Newton finish: only once ||grad|| < NEWTON_GATE * (1 + |loss|),
NEWTON_SPAN = 1e3  # ... and while ||grad|| > NEWTON_SPAN * grad_tol * (1 + |loss|)
NEWTON_HOLD = 2  # ... once the sign pattern has held over this many snap-cadence checks
NEWTON_MARGIN = 5e-3  # ... and each pre-activation that far from 0, relative
NEWTON_H = 1e-6  # central-difference step of a Hessian column, times 1 + |theta_i|
NEWTON_FLOOR = 1e-12  # least |eigenvalue| of the modified Hessian, relative to the largest
NEWTON_RUNGS = 8  # Newton step lengths 1, SHRINK, ..., in one stacked forward pass


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

    Row statuses are "descent", "snap", "escape", or "newton" (a step of the
    Newton finish, see _newton_finish); the final row carries the
    terminal status: "converged", "budget-exhausted", "stalled" (the iterate
    is pinned -- no representable step decreases the loss, an accepted step
    rounds away to theta itself, or the loss flatlined -- and the stall
    probes found no decrease or ran out of tries), or "non-finite" (the loss
    or the gradient norm is inf or NaN).  Escapes that later converge still
    end in "converged"; the escape rows keep the history.  escapes counts
    those rows, so third-order escapes and stall escapes alike.
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
        # faulted in anew (a c09 stall try took a third longer on a 2-core
        # host; with glibc's trimming and mmap thresholds raised, no longer).
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
    blocks = fob.layout.blocks()
    live = np.ones(theta.size, dtype=bool)
    live[blocks[~theta[blocks].any(axis=1)]] = False
    head = np.zeros(theta.size, dtype=bool)
    head[blocks] = True
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


def _smooth_pattern(theta, fwd, fob):
    """The sign pattern around theta where the objective is C^2 there, else
    None.  The pattern is the live blocks and the signs of every conv
    pre-activation and every live head pre-activation; it is None where a
    sample is misclassified or where one of those pre-activations lies
    within NEWTON_MARGIN of 0, relative to the largest of its conv layer or
    of its neuron.  The cubic terms and both losses are C^2 everywhere, so
    only the leaky-ReLU and ReQU kinks at 0 can break smoothness."""
    _, convs, pre, *_, f = fwd[2]
    if np.any(np.sign(f) != fob.y):
        return None
    live = theta[fob.layout.blocks()].any(axis=1)
    parts = [P.reshape(-1, 1) for _, P in convs] + [pre[:, live]]  # one column per margin
    for x in parts:
        mag = np.abs(x)
        if np.any(mag.min(axis=0) <= NEWTON_MARGIN * mag.max(axis=0)):
            return None
    return b"".join(x.tobytes() for x in [live] + [x >= 0.0 for x in parts])


def _newton_finish(theta, fwd, g, fob):
    """Modified-Newton steps on the live coordinates, from theta with its
    forward pass fwd and gradient g.  Yields ("newton", theta, fwd, g) after
    each accepted step and ("snap", ...) after each snap that follows one;
    returns at the first step that fails.

    The live coordinates are the blocks that are not exactly zero, plus the
    filters.  The Hessian on them comes from central differences of the
    gradient: the 2|live| points go through stacked forward and grad
    passes, one of each per chunk of rows, every row bit-equal to a 1-D
    call.  Its eigenvalues enter the step as their absolute values, floored
    at NEWTON_FLOOR times the largest.  The step lengths 1, SHRINK, ... are
    one stacked pass; the first with the Armijo decrease, a strictly lower
    value and the _smooth_pattern of the point it leaves is taken.  A dying
    block only halves per step (its terms are cubic along its ray), so each
    step is followed by _try_snaps, and a snap starts a new pattern on the
    smaller live set.  Stopping at grad_tol and at max_iter is the caller's.
    """
    # Rows per stacked pass: about 32k numbers in each (rows, n, m) temporary.
    per = max(1, (1 << 15) // (fob.X.shape[0] * fob.layout.m))
    steps = SHRINK ** np.arange(NEWTON_RUNGS)
    blocks = fob.layout.blocks()
    pattern = _smooth_pattern(theta, fwd, fob)
    while pattern is not None:
        live = np.ones(theta.size, dtype=bool)
        live[blocks[~theta[blocks].any(axis=1)]] = False
        idx = np.flatnonzero(live)
        k = idx.size
        h = NEWTON_H * (1.0 + np.abs(theta[idx]))
        points = np.tile(theta, (2 * k, 1))
        points[np.arange(k), idx] += h
        points[np.arange(k, 2 * k), idx] -= h
        G = np.empty((2 * k, k))
        for s in range(0, 2 * k, per):
            G[s : s + per] = fob.grad(fob.forward(points[s : s + per]))[:, idx]
        H = (G[:k] - G[k:]) / (2.0 * h)[:, None]
        ev, V = np.linalg.eigh(0.5 * (H + H.T))
        ev = np.abs(ev)
        ev = np.maximum(ev, NEWTON_FLOOR * float(np.max(ev)))
        gl = g[idx]
        d = -(V @ ((V.T @ gl) / ev))
        slope = float(gl @ d)
        trials = np.tile(theta, (NEWTON_RUNGS, 1))
        trials[:, idx] += np.multiply.outer(steps, d)
        stacked = fob.forward(trials)
        loss = float(fwd[0])
        for r, (t, trial_loss) in enumerate(zip(steps.tolist(), stacked[0].tolist())):
            if trial_loss < loss and trial_loss <= loss + ARMIJO * t * slope:
                trial_fwd = fob.row(stacked, r)
                if _smooth_pattern(trials[r], trial_fwd, fob) == pattern:
                    break
        else:
            return
        theta, fwd = trials[r], trial_fwd
        g = fob.grad(fwd)
        yield "newton", theta, fwd, g
        theta, _, snapped = _try_snaps(theta, float(fwd[0]), fob)
        if snapped:
            fwd = fob.forward(theta)
            pattern = _smooth_pattern(theta, fwd, fob)
            g = fob.grad(fwd)
            yield "snap", theta, fwd, g


def _opening_width(step, last_step):
    """Rungs in the first block of an Armijo ladder: one, unless step is at
    least 2**LADDER_MAX times last_step; then k + 1 for the overshoot
    2**k <= step / last_step < 2**(k + 1), so the block reaches from step
    down to last_step.  k comes from the two exponents, so a quotient that
    overflows to inf still has one."""
    (m, e), (m_last, e_last) = math.frexp(step), math.frexp(last_step)
    k = e - e_last - (m < m_last)
    return k + 1 if k >= LADDER_MAX else 1


@np.errstate(over="ignore", invalid="ignore")  # an overflowing run ends "non-finite", silently
def train(net, ds: Dataset, cfg: ObjectiveConfig, opts: TrainOptions | None = None):
    """Minimize the objective from the given starting network.

    Returns (trained_net, Trajectory).  Each iteration proposes a spectral
    (Barzilai-Borwein) step when curvature information is available and the
    last grown step otherwise, then enforces the Armijo condition by
    backtracking along step, step*SHRINK, ... (at most 120 rungs), so the
    accepted sequence is strictly monotone.  A block of rungs is one stacked
    FlatObjective.forward.  The first block is one rung or, where the trial
    step overshoots the last accepted one by 2**LADDER_MAX or more, reaches
    down to it (_opening_width): a kink's long backtrack ends near there.
    Later blocks are LADDER_MAX wide.  The first passing rung wins and
    takes its gradient from its block's pass, so the widths change only the
    cost.  An accepted rung whose trial equals theta (the decrease
    ARMIJO*step*gn^2 fell below half an ulp of the loss) is no step: like
    an exhausted ladder it pins the iterate and hands it to the stall probe.
    See the module docstring for the snap, escape and Newton moves.

    fwd is always fob.forward(theta) for the current iterate, set at the
    start, by refresh and by each accepted rung; the moves and the escape
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
    eta = STEP0
    last_step = STEP0  # the last accepted Armijo step, STEP0 before the first
    escapes = 0
    stall_escapes = 0
    it = 0
    fwd = fob.forward(theta)
    loss, g = float(fwd[0]), fob.grad(fwd)
    prev_theta = prev_g = None
    stall_ref_it, stall_ref_loss = 0, loss
    pattern, held = None, 0  # _smooth_pattern at the last snap-cadence check, and for how many
    newton_wait = newton_backoff = 0  # checks to skip, and how many after the next miss

    def refresh(status, new_theta, new_fwd=None, new_g=None):
        """Make a move's point the iterate and record its row."""
        nonlocal theta, fwd, loss, g, eta, prev_theta, prev_g, stall_ref_it, stall_ref_loss
        theta, fwd = new_theta, fob.forward(new_theta) if new_fwd is None else new_fwd
        loss, g = float(fwd[0]), fob.grad(fwd) if new_g is None else new_g
        if status == "escape":
            eta = STEP0
        prev_theta = prev_g = None
        stall_ref_it, stall_ref_loss = it, loss
        traj.record(it, loss, math.sqrt(g @ g), math.sqrt(theta @ theta), status)

    def record(status):  # the norm of the iteration's starting point, taken only here
        traj.record(it, loss, gn, math.sqrt(start @ start), status)

    def check_floor():
        head = theta[:n_head]
        floor = coercivity_lower_bound(math.sqrt(head @ head), lam_min, fob.layout.m)
        if loss < floor - 1e-9 * (1.0 + abs(loss)):
            raise CoercivityViolationError(
                f"loss {loss:.6e} fell below the cubic floor {floor:.6e} at iter {it}"
            )

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

        check_floor()

        converged = gn < opts.grad_tol * (1.0 + abs(loss))
        # Prune at the stopping point, and periodically so that dying blocks
        # do not drag on convergence.  After a periodic snap the iteration
        # keeps the pre-snap gn on purpose: the Armijo test and the rows it
        # records use it, and taking the snapped point's would change the
        # trajectories.
        if converged or it % SNAP_EVERY == SNAP_EVERY - 1:
            theta2, _, snapped = _try_snaps(theta, loss, fob)
            if snapped:
                refresh("snap", theta2)
                if converged:
                    continue
            # Newton finish: see the module docstring for the gate.
            scale, last_pattern, pattern = 1.0 + abs(loss), pattern, None
            if NEWTON_SPAN * opts.grad_tol * scale < math.sqrt(g @ g) < NEWTON_GATE * scale:
                pattern = _smooth_pattern(theta, fwd, fob)
            held = held + 1 if pattern is not None and pattern == last_pattern else 0
            if held >= NEWTON_HOLD:
                if newton_wait > 0:
                    newton_wait -= 1
                else:
                    before = theta
                    for move, *point in _newton_finish(theta, fwd, g, fob):
                        refresh(move, *point)
                        check_floor()
                        if move == "newton":
                            it += 1
                        gn = math.sqrt(g @ g)
                        if it >= opts.max_iter or gn < opts.grad_tol * (1.0 + abs(loss)):
                            break
                    if theta is not before:  # it moved; refresh set this before the last increment
                        stall_ref_it = it
                        continue
                    newton_backoff = 2 * newton_backoff or 1
                    newton_wait = newton_backoff

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
            tried, width, accepted = 0, _opening_width(step, last_step), False
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
                last_step = step
                it += 1
            else:
                pinned = True  # no representable step decreases the loss or moves theta
        if not pinned:
            continue

        # Pinned: probe around the iterate for a strict decrease, while tries last.
        stall_escapes += 1
        esc_theta = None
        if stall_escapes <= opts.max_stall_escapes:
            esc_theta, _ = _attempt_stall_escape(theta, loss, fob, rng)
        if esc_theta is None:
            status = "stalled"
            break
        refresh("escape", esc_theta)

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
