import csv
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_norms_oracle, lbfgs_two_loop_oracle
from requland import landscape, models, objective
from requland import optimize as opt
from requland.datasets import Dataset, gen_random
from requland.landscape import certify
from requland.models import DeepConvNet, SingleLayerReQUNet, net_to_flat
from requland.objective import (
    FlatObjective,
    ObjectiveConfig,
    logistic,
    loss_deriv,
    smooth_hinge,
    training_error,
)


def quick_cfg(m, lam0=1e-2, seed=0, lam_c=0.0):
    return ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(m, lam0, seed=seed), lam_c=lam_c)


def test_dot_sqrt_equals_numpy_norm():
    # train takes its gradient and parameter norms as math.sqrt(x @ x); the
    # recorded trajectories stay those of float(np.linalg.norm(x)) only if
    # the two agree bit for bit.
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        x = rng.standard_normal(int(rng.integers(1, 400))) * 10.0 ** rng.uniform(-150, 150)
        assert math.sqrt(x @ x) == float(np.linalg.norm(x))


def test_init_shapes_and_determinism():
    net = opt.init_single(5, 3, seed=11)
    assert isinstance(net, SingleLayerReQUNet)
    assert net.a.shape == (5,) and net.W.shape == (5, 3) and net.b.shape == (5,)
    again = opt.init_single(5, 3, seed=11)
    assert np.array_equal(net_to_flat(net), net_to_flat(again))

    deep = opt.init_deep(d=4, s=2, l=3, m=6, seed=7)
    assert isinstance(deep, DeepConvNet)
    assert deep.head_dim == 4 + 2 * 1
    assert len(deep.filters) == 2
    for v in deep.filters:
        assert np.linalg.norm(v) == pytest.approx(1.0)
    assert opt.init_deep(d=4, s=2, l=1, m=6).filters == ()
    # l = 0 built a head of width d - (s - 1) with no filters to grow it.
    with pytest.raises(ValueError, match="l must be >= 1"):
        opt.init_deep(d=4, s=2, l=0, m=6)


def test_sample_lambda_distinct_in_range():
    lam = opt.sample_lambda(50, 0.3, seed=5)
    assert np.unique(lam).size == 50
    assert np.all((lam > 0.15) & (lam < 0.3))
    assert np.array_equal(lam, opt.sample_lambda(50, 0.3, seed=5))
    with pytest.raises(ValueError, match="positive"):
        opt.sample_lambda(3, 0.0)
    with pytest.raises(ValueError, match="positive"):
        opt.sample_lambda(3, float("nan"))
    for m in (0, -1):  # numpy drew no weights at 0, and refused a negative size
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            opt.sample_lambda(m, 0.3)


def test_estimate_lambda0_positive_and_underflow_free():
    # The doubling-recursion coefficients overflow the cubic normalization
    # into float zero around n = 30; the estimator must stay positive there.
    for n in (5, 20, 40):
        ds = gen_random(n, 3, seed=n)
        lam0 = opt.estimate_lambda0(ds, logistic(), seed=0)
        assert lam0 > 0.0


def test_estimate_lambda0_matches_normalized_margin():
    from requland.constructions import build_interpolating_requ

    ds = gen_random(8, 2, seed=2)
    interp = build_interpolating_requ(ds, seed=0, coefficients="exact")
    rho = np.linalg.norm(net_to_flat(interp.net))
    want = logistic().epsilon * interp.margin / rho**3
    assert opt.estimate_lambda0(ds, logistic(), seed=0) == pytest.approx(want)


@pytest.fixture(scope="module")
def trained():
    ds = gen_random(10, 3, seed=1003)
    cfg = quick_cfg(11, lam0=1e-2, seed=3)
    opts = opt.TrainOptions(grad_tol=1e-7, max_iter=100_000, seed=3)
    net, traj = opt.train(opt.init_single(11, 3, seed=3), ds, cfg, opts)
    return ds, cfg, net, traj


def test_train_reaches_certified_zero_error(trained):
    ds, cfg, net, traj = trained
    assert traj.status == "converged"
    assert training_error(net, ds) == 0.0
    final_loss, final_gn = traj.rows[-1][1], traj.rows[-1][2]
    assert final_gn < 1e-7 * (1.0 + abs(final_loss))
    assert traj.n_iter < 100_000


def test_trajectory_rows_are_sane(trained):
    _, _, _, traj = trained
    statuses = {row[4] for row in traj.rows}
    assert statuses <= {"descent", "snap", "escape", "converged"}
    assert traj.rows[-1][4] == "converged"
    losses = [row[1] for row in traj.rows]
    assert losses[-1] <= losses[0] + 1e-12
    iters = [row[0] for row in traj.rows]
    assert iters == sorted(iters)


def test_pruned_blocks_have_exactly_zero_gradient(trained):
    ds, cfg, net, _ = trained
    bn = block_norms_oracle(net)
    assert np.any(bn == 0.0)  # at least one block was snapped away
    fob = FlatObjective(net, ds, cfg)
    g = fob.grad(fob.forward(net_to_flat(net)))
    m, d = net.m, net.W.shape[1]
    for j in np.flatnonzero(bn == 0.0):
        assert g[j] == 0.0
        assert np.all(g[m + d * j : m + d * (j + 1)] == 0.0)
        assert g[m + m * d + j] == 0.0


def test_train_is_seed_deterministic():
    ds = gen_random(8, 3, seed=77)
    cfg = quick_cfg(9, seed=7)
    opts = opt.TrainOptions(grad_tol=1e-7, max_iter=50_000, seed=7)
    net1, traj1 = opt.train(opt.init_single(9, 3, seed=7), ds, cfg, opts)
    net2, traj2 = opt.train(opt.init_single(9, 3, seed=7), ds, cfg, opts)
    assert np.array_equal(net_to_flat(net1), net_to_flat(net2))
    assert traj1.rows == traj2.rows


def test_escape_fires_from_zero_network():
    # The zero network is critical with full training error; only the
    # block-repoint move can leave it, so the trainer must escape at the
    # gate rather than declare convergence.
    ds = gen_random(6, 3, seed=21)
    m = 4
    net0 = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 3)), np.zeros(m))
    cfg = quick_cfg(m, lam0=1e-3, seed=1)
    opts = opt.TrainOptions(grad_tol=1e-7, max_iter=100_000, seed=1)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert traj.escapes >= 1
    assert traj.status == "converged"
    assert training_error(net, ds) == 0.0


def test_trajectory_csv_roundtrip(tmp_path, trained):
    _, _, _, traj = trained
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "loss", "grad_norm", "param_norm", "status"]
    assert len(rows) == len(traj.rows) + 1
    it, loss, gn, pn, status = rows[-1]
    assert int(it) == traj.rows[-1][0]
    assert float(loss) == traj.rows[-1][1]
    assert status == "converged"


def test_deep_training_small_case_converges():
    ds = gen_random(3, 4, seed=2000)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=0), lam_c=1.0)
    opts = opt.TrainOptions(grad_tol=1e-8, max_iter=200_000, seed=0)
    net, traj = opt.train(opt.init_deep(d=4, s=2, l=2, m=25, seed=0), ds, cfg, opts)
    assert traj.status == "converged"
    assert training_error(net, ds) == 0.0
    assert all(np.linalg.norm(v) > 1.0 for v in net.filters)


def test_decreasing_path_table():
    table = opt.decreasing_path_demo(100, lam=0.1)
    k = table["k"]
    assert k[0] == 1.0 and k[-1] == 100.0
    # Pinned first row: theta = (-1, 1, 1), product -1, squared loss 4.
    assert table["loss"][0] == pytest.approx(4.0)
    assert table["param_norm"][0] == pytest.approx(np.sqrt(3.0))
    reg0 = 4.0 + 0.1 / 3.0 * (1.0 + 2.0 * 2.0**1.5)
    assert table["reg_loss"][0] == pytest.approx(reg0)
    # The unregularized loss decreases toward 1 while the norm blows up.
    assert np.all(np.diff(table["loss"]) < 0)
    assert table["loss"][-1] > 1.0
    assert table["param_norm"][-1] == pytest.approx(np.sqrt(100 + 2 / 100**2), rel=1e-6)
    # The cubic floor sits below the regularized curve at every step.
    floor_brute = 0.1 / (3 * np.sqrt(2)) * table["param_norm"] ** 3
    assert np.allclose(table["floor"], floor_brute)
    assert np.all(table["reg_loss"] >= table["floor"])
    with pytest.raises(ValueError):
        opt.decreasing_path_demo(0)


def test_path_csv_roundtrip(tmp_path):
    table = opt.decreasing_path_demo(10)
    path = tmp_path / "path.csv"
    opt.save_path_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "param_norm", "loss", "reg_loss", "floor"]
    assert len(rows) == 11
    assert float(rows[1][2]) == pytest.approx(4.0)


def serial_stall_escape_oracle(theta, loss, fob, blocks, rng):
    """_attempt_stall_escape as one draw per direction and one value call
    per probe point."""
    live = np.ones(theta.size, dtype=bool)
    head = np.zeros(theta.size, dtype=bool)
    for b in blocks:
        head[b] = True
        if not theta[b].any():
            live[b] = False
    n_live = int(live.sum())
    dirs = []
    for _ in range(opt.STALL_PROBES):
        u = np.zeros(theta.size)
        u[live] = rng.standard_normal(n_live)
        dirs.append(u)
    n_filt = int((~head).sum())
    for _ in range(0 if n_filt == 0 else 64):
        u = np.zeros(theta.size)
        u[~head] = rng.standard_normal(n_filt)
        dirs.append(u)
    radii = opt.ESCAPE_DELTA * 2.0 ** np.arange(-6, 9)
    tiny = 1e-15 * (1.0 + abs(loss))
    best_loss, best_step = loss, None
    for u in dirs:
        u /= np.linalg.norm(u)
        for r in radii:
            trial_loss = fob.value(theta + r * u)
            if trial_loss < best_loss - tiny:
                best_loss, best_step = trial_loss, (u, r)
    if best_step is None:
        return None, loss
    u, r = best_step
    while True:
        trial_loss = fob.value(theta + 2.0 * r * u)
        if trial_loss >= best_loss - tiny:
            break
        best_loss, r = trial_loss, 2.0 * r
    return theta + r * u, best_loss


def serial_escape_oracle(theta, loss, fob, like, ds, cfg, rng):
    """_attempt_escape with one value call per (candidate, delta) pair."""
    net = opt.net_from_flat(like, theta)
    norms = block_norms_oracle(net)
    if not np.any(norms == 0.0):
        return None, loss
    features = net.head_inputs(ds.X)
    j = int(np.argmin(norms))
    outputs = net.value(ds.X)
    lp = loss_deriv(cfg.loss, -ds.y * outputs)
    misclassified = np.sign(outputs) != ds.y
    dirs = opt._escape_candidates(features, ds.y, misclassified, rng, opt.ESCAPE_DIRECTIONS)
    act = opt.requ(features @ dirs[:, :-1].T + dirs[:, -1])
    drive = (lp * ds.y) @ act
    signs = np.where(drive >= 0.0, 1.0, -1.0)
    blocks = fob.layout.blocks()
    best_loss, best_theta = loss, None
    deltas = opt.ESCAPE_DELTA * 2.0 ** np.arange(-4, 13)
    order = np.argsort(-np.abs(drive))[: max(32, opt.ESCAPE_DIRECTIONS // 4)]
    for c in order:
        for delta in deltas:
            trial = theta.copy()
            block = np.concatenate([[signs[c] * delta], delta * dirs[c, :-1], [delta * dirs[c, -1]]])
            trial[blocks[j]] = block
            trial_loss = fob.value(trial)
            if trial_loss < best_loss - 1e-14 * (1.0 + abs(loss)):
                best_loss, best_theta = trial_loss, trial
    return best_theta, best_loss


def trainer_rng(seed):
    return np.random.default_rng(np.random.SeedSequence((seed, 0xE5CA)))


def first_zero_block(fob, theta):
    """The flat indices of the first exactly-zero neuron block, the one
    train hands to _attempt_escape."""
    blocks = fob.layout.blocks()
    return blocks[np.flatnonzero(~theta[blocks].any(axis=1))[0]]


def test_stall_escape_matches_serial_oracle():
    # c09 seed 2 at iteration 300, closing in on the leaky-ReLU kink that
    # pins it at 429: one hidden pre-activation is within 1e-6 of the
    # largest from zero, with descending probe directions nearby.  (At the
    # pin itself the trainer's probe finds none.)
    net0, ds, cfg, opts = c09_run(2, max_iter=300)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert traj.status == "budget-exhausted"
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    loss = fob.value(theta)
    P = fob.forward(theta)[2][1][0][1]
    assert np.min(np.abs(P)) < 1e-6 * np.max(np.abs(P))
    blocks = fob.layout.blocks()
    # Several draws, as the winning probe of one draw shows little of it;
    # seed 2 is the draw the trainer itself would make here.
    for seed in range(8):
        got = opt._attempt_stall_escape(theta, loss, fob, trainer_rng(seed))
        want = serial_stall_escape_oracle(theta, loss, fob, blocks, trainer_rng(seed))
        assert got[0] is not None and got[1] < loss
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_escape_matches_serial_oracle():
    # Logistic grid cell (10, 11, 2) escapes at iteration ESCAPE_EVERY - 1
    # on the coarse cadence; stop there.
    like, ds, cfg, opts = grid_run(10, 11, 2, max_iter=opt.ESCAPE_EVERY - 1)
    net, _ = opt.train(like, ds, cfg, opts)
    fob = FlatObjective(like, ds, cfg)
    theta = net_to_flat(net)
    loss = fob.value(theta)
    block = first_zero_block(fob, theta)
    got = opt._attempt_escape(theta, fob.forward(theta), fob, trainer_rng(2), block)
    want = serial_escape_oracle(theta, loss, fob, like, ds, cfg, trainer_rng(2))
    assert got[0] is not None and got[1] < loss
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_escape_and_certify_evaluate_the_network_once_per_point(monkeypatch):
    # The escape move read its head inputs and margins in network passes of
    # its own; certify made six, then two (the certificate matrices took a
    # pass of their own).  Recorded: each pass's head coefficients, or None
    # for a stacked pass (the escape grid's trials).
    heads = []
    network_pass = models.network_pass

    def counted(X, a, *rest):
        heads.append(a.tobytes() if a.ndim == 1 else None)
        return network_pass(X, a, *rest)

    for module in (models, objective):
        monkeypatch.setattr(module, "network_pass", counted)
    ds = gen_random(10, 3, seed=1005)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=5)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(11, lam0, seed=5))
    like = opt.init_single(11, 3, seed=5)
    opts = opt.TrainOptions(grad_tol=1e-7, seed=5, max_iter=opt.ESCAPE_EVERY - 1)
    net, _ = opt.train(like, ds, cfg, opts)
    fob = FlatObjective(like, ds, cfg)
    theta = net_to_flat(net)
    fwd = fob.forward(theta)
    block = first_zero_block(fob, theta)
    heads.clear()
    assert opt._attempt_escape(theta, fwd, fob, trainer_rng(5), block)[0] is not None
    # The move reads the pass it is given; its one-point passes evaluate the
    # interpolator that proposes candidates.
    assert net.a.tobytes() not in heads and None in heads
    net, traj = opt.train(like, ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5))
    assert traj.status == "converged"
    heads.clear()
    derivs = []
    loss_deriv = landscape.loss_deriv
    monkeypatch.setattr(landscape, "loss_deriv", lambda *a: derivs.append(a) or loss_deriv(*a))
    assert certify(net, ds, cfg).verdict == "ok"
    assert heads == [net.a.tobytes()] * 1  # the kernel forward, read by everything
    assert len(derivs) == 1  # shared by the certificate matrices and max_loss_deriv


def test_train_from_an_overflowing_norm_does_not_raise(monkeypatch):
    # ||theta||^3 overflows a float here, and the coercivity check at
    # iteration 0 must not raise from it; the objective itself is NaN.  The
    # run ends "non-finite" at once instead of spending stall tries on a NaN
    # loss and reporting a kink stall.  Deep nets take the same check, at
    # the norm of their head.
    ds = gen_random(10, 3, seed=0)
    cfg = quick_cfg(11, lam0=0.1)
    stall_tries = []
    monkeypatch.setattr(opt, "_attempt_stall_escape",
                        lambda *args: stall_tries.append(args) or (None, np.nan))
    for scale in (1e110, 1e103):
        for net in (opt.init_single(11, 3, seed=0, scale=scale),
                    opt.init_deep(3, 2, 2, 11, seed=0, scale=scale)):
            with np.errstate(over="ignore", invalid="ignore"):
                _, traj = opt.train(net, ds, cfg)
            assert np.isnan(traj.rows[-1][1])
            assert traj.status == "non-finite" and traj.n_iter == 0
            assert traj.status in opt.TERMINAL_STATUSES
    assert stall_tries == []


def test_train_from_a_filter_whose_anchor_overflows_does_not_raise():
    # The first step from a 1e30-scale head throws the filter past
    # ||v||^2 = 1e154, where (||v||^2 - 1)^2 overflows; the anchor took that
    # square as a Python-float power, which raised OverflowError out of
    # train.  Its value is now inf, and the run ends with a status.
    ds = gen_random(3, 4, seed=2000)
    cfg = quick_cfg(11, lam0=0.1, lam_c=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, traj = opt.train(opt.init_deep(4, 2, 2, 11, seed=0, scale=1e30), ds, cfg)
    assert traj.status in opt.TERMINAL_STATUSES


def test_train_raises_when_the_loss_falls_below_the_cubic_floor(monkeypatch):
    # The floor at the norm of the head (a, W, b) is a theorem for every
    # net: the cubic term covers exactly the head, and the data term and the
    # filter anchor are >= 0.  A loss below it can only be a numerical
    # defect; forge one and the run must stop on it, deep nets included
    # (they used to go unchecked and ran out their budget).
    ds = gen_random(8, 3, seed=77)
    deep = opt.init_deep(d=3, s=2, l=2, m=5, seed=0)
    norms = []
    monkeypatch.setattr(opt, "coercivity_lower_bound",
                        lambda norm, lam_min, m: norms.append(norm) or 0.0)
    opt.train(deep, ds, quick_cfg(5), opt.TrainOptions(max_iter=1))
    head = np.concatenate([deep.a, deep.W.ravel(), deep.b])
    assert norms[0] == math.sqrt(head @ head) < math.sqrt(net_to_flat(deep) @ net_to_flat(deep))
    monkeypatch.setattr(opt, "coercivity_lower_bound", lambda norm, lam_min, m: 1e9)
    with pytest.raises(opt.CoercivityViolationError, match="cubic floor"):
        opt.train(opt.init_single(9, 3, seed=7), ds, quick_cfg(9, seed=7))
    with pytest.raises(opt.CoercivityViolationError, match="cubic floor"):
        opt.train(deep, ds, quick_cfg(5), opt.TrainOptions(max_iter=10))


@pytest.mark.parametrize("m,d,seed,scale", [(5, 3, 11, 0.1), (11, 3, 0, 2.5), (1, 1, 7, 0.1)])
def test_init_single_is_the_head_of_the_one_layer_init_deep(m, d, seed, scale):
    single = opt.init_single(m, d, seed, scale)
    deep = opt.init_deep(d, 1, 1, m, seed, scale=scale)
    assert type(single) is SingleLayerReQUNet and deep.filters == ()
    assert net_to_flat(single).tobytes() == net_to_flat(deep).tobytes()


def test_train_from_init_single_and_its_deep_twin_records_the_same_rows():
    # The single-layer net is the deep net's l = 1 case, and train takes
    # them through one path: the same rows, the same theta, its own kind.
    ds = gen_random(10, 3, seed=1005)
    cfg, opts = quick_cfg(11, seed=5), opt.TrainOptions(max_iter=600, seed=5)
    single, traj_single = opt.train(opt.init_single(11, 3, seed=5), ds, cfg, opts)
    deep, traj_deep = opt.train(opt.init_deep(3, 1, 1, 11, seed=5), ds, cfg, opts)
    assert len(traj_single.rows) > 2 and traj_single.rows == traj_deep.rows
    assert type(single) is SingleLayerReQUNet and type(deep) is DeepConvNet
    assert net_to_flat(single).tobytes() == net_to_flat(deep).tobytes()


def c09_run(seed, **opts):
    """The c09 configuration at one seed, with the given TrainOptions."""
    ds = gen_random(3, 4, seed=2000 + seed)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=seed)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=seed), lam_c=1.0)
    opts = opt.TrainOptions(grad_tol=1e-8, seed=seed, **opts)
    return opt.init_deep(d=4, s=2, l=2, m=25, seed=seed), ds, cfg, opts


def c09_seed2_one_stall_try():
    """c09 seed 2 with one stall try: snaps, then a pin at iteration 429 on
    a leaky-ReLU kink, where the L-BFGS steps round away to theta and the
    stall probe finds no descent."""
    return c09_run(2, max_stall_escapes=1)


def c01_run(seed):
    """The c01 configuration at one seed."""
    ds = gen_random(10, 3, seed=1000 + seed)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=seed)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(11, lam0, seed=seed))
    return opt.init_single(11, 3, seed=seed), ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=seed)


def c01_seed5():
    """c01 seed 5: converges with no escape and no pin."""
    return c01_run(5)


def c09_seed0():
    """c09 seed 0: converges without a pin."""
    return c09_run(0)


def grid_run(n, m, seed, loss=None, **opts):
    """A cell of the width-threshold grid: gen_random(n, 3, seed), lambda0
    estimated as sweep does, default options but the given ones."""
    loss = loss or logistic()
    ds = gen_random(n, 3, seed=seed)
    lam0 = opt.estimate_lambda0(ds, loss, seed=seed)
    cfg = ObjectiveConfig(loss=loss, lam=opt.sample_lambda(m, lam0, seed=seed))
    return opt.init_single(m, 3, seed=seed), ds, cfg, opt.TrainOptions(seed=seed, **opts)


def deep_grid_8_9_0(**opts):
    """Deep-grid cell (n, m, seed) = (8, 9, 0): snaps, a third-order escape
    at iteration 249, then a pin on a leaky-ReLU kink at 1074."""
    ds = gen_random(8, 4, seed=3000)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(9, lam0, seed=0), lam_c=1.0)
    return opt.init_deep(d=4, s=2, l=2, m=9, seed=0), ds, cfg, opt.TrainOptions(grad_tol=1e-8, **opts)


def test_line_search_takes_each_accepted_gradient_from_its_own_forward(monkeypatch):
    # Every objective entry point is counted by the function that called
    # it, and forward also by the trial rows it evaluates.  Each gradient
    # must read the forward pass made just before it, at its own point.
    calls, rows, last = Counter(), Counter(), []

    def counted(name, fn):
        def wrapper(self, *args):
            caller = sys._getframe(1).f_code.co_name
            calls[name, caller] += 1
            if name == "forward":
                rows[caller] += 1 if args[0].ndim == 1 else len(args[0])
            if name == "grad":
                assert args[0] is last[-1]
            out = fn(self, *args)
            if name == "forward":
                last.append(out)
            return out
        return wrapper

    for name in ("forward", "grad", "value", "values", "value_and_grad"):
        monkeypatch.setattr(FlatObjective, name, counted(name, getattr(FlatObjective, name)))
    steps = []
    search = opt._weak_wolfe
    monkeypatch.setattr(opt, "_weak_wolfe", lambda *args: steps.append(search(*args)) or steps[-1])
    _, traj = opt.train(*deep_grid_8_9_0(max_stall_escapes=1))
    moves = Counter(row[4] for row in traj.rows)
    assert traj.status == "stalled" and moves["snap"] >= 1 and moves["escape"] == 1

    def by(name):
        return {caller: k for (fn, caller), k in calls.items() if fn == name}

    # train keeps the forward pass of its iterate, so it takes every
    # gradient from a kept pass and never calls value_and_grad.  Gradients:
    # 1 at the start, 1 per snap or escape (refresh), and in the line
    # search 1 per trial that passes Armijo, the accepted one among them.
    # This run's escape is a cadence escape, which spends an iteration, and
    # every other iteration is an accepted step.
    moved = moves["snap"] + moves["escape"]
    accepted = [step for step in steps if step is not None]
    assert len(accepted) == traj.n_iter - moves["escape"] and steps[-1] is None
    assert by("value_and_grad") == {}
    assert by("grad")["train"] == 1 and by("grad")["refresh"] == moved
    assert len(accepted) <= by("grad")["_weak_wolfe"] < by("forward")["_weak_wolfe"]
    # Every forward pass is the start, a line-search trial, a refresh, or a
    # snap, grid or stall evaluation; the line search runs 1-D points only.
    assert rows["_weak_wolfe"] == by("forward")["_weak_wolfe"]
    assert set(by("value")) == {"_try_snaps"}
    assert set(by("values")) == {"_search"}
    assert by("forward") == {
        "train": 1,
        "_weak_wolfe": by("forward")["_weak_wolfe"],
        "refresh": moved,
        "value": sum(by("value").values()),
        "values": sum(by("values").values()),
    }


def test_train_reads_the_kept_pass_for_the_escape_gate_and_move(monkeypatch):
    # The zero network is critical and misclassifies, so the escape gate
    # fires at iteration 0.  The gate rebuilt the net and ran it, and the
    # move ran the objective at theta again; both now read the pass train
    # took at the start, and only the returned net is rebuilt.
    points, rebuilt = [], []
    network_pass, net_from_flat = models.network_pass, opt.net_from_flat

    def counted(X, a, W, b, filts, *rest):
        if a.ndim == 1:
            points.append(b"".join(p.tobytes() for p in (a, W, b, *filts)))
        return network_pass(X, a, W, b, filts, *rest)

    for module in (models, objective):
        monkeypatch.setattr(module, "network_pass", counted)
    monkeypatch.setattr(opt, "net_from_flat", lambda *args: rebuilt.append(1) or net_from_flat(*args))
    ds = gen_random(10, 3, seed=0)
    net0 = opt.init_single(11, 3, seed=0, scale=0.0)
    _, traj = opt.train(net0, ds, ObjectiveConfig(logistic(), opt.sample_lambda(11, 0.1)))
    assert traj.rows[1][::4] == (0, "escape") and traj.status == "converged"
    assert rebuilt == [1]
    zero = b"".join(p.tobytes() for p in (net0.a, net0.W, net0.b))
    assert points.count(zero) == 1


def test_a_step_that_rounds_away_is_a_pin(monkeypatch):
    # On this kink run the L-BFGS direction shrinks to |d| ~ 1e-16: the
    # trials theta + t d, t = 1, 1/2, ..., lower the loss not at all until
    # they round away to theta itself.  A trial equal to theta (or to the
    # last Armijo point) ends the line search with no gradient taken there:
    # the old Armijo ladder accepted such a rung and took a gradient at the
    # same point again, 1233 times, until the flatline window noticed.  The
    # pin goes to the stall probe at once.
    points = []
    grad = FlatObjective.grad

    def recorded(self, fwd):
        a, W, b, filts = fwd[1]
        points.append(b"".join(p.tobytes() for p in (a, W, b, *filts)))
        return grad(self, fwd)

    searches = []
    search = opt._weak_wolfe
    monkeypatch.setattr(opt, "_weak_wolfe", lambda *args: searches.append(args) or search(*args))
    stall_tries = []
    stall = opt._attempt_stall_escape
    monkeypatch.setattr(opt, "_attempt_stall_escape",
                        lambda *args: stall_tries.append(args) or stall(*args))
    monkeypatch.setattr(FlatObjective, "grad", recorded)
    _, traj = opt.train(*c09_seed2_one_stall_try())
    assert traj.status == "stalled" and traj.n_iter == 429 and len(stall_tries) == 1
    fob, theta, loss, _, d = searches[-1]  # the search that pinned
    halvings = next(k for k in range(opt.WOLFE_TRIALS) if np.array_equal(theta + 0.5**k * d, theta))
    assert all(fob.value(theta + 0.5**k * d) >= loss for k in range(halvings))
    assert len(points) > 2
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("run", [c01_seed5, c09_seed0])
def test_runs_off_the_kinks_never_pin(run, monkeypatch):
    # Neither run ever holds theta still, so neither may reach the stall path.
    def refuse(*args):
        raise AssertionError("stall path reached")

    monkeypatch.setattr(opt, "_attempt_stall_escape", refuse)
    _, traj = opt.train(*run())
    assert traj.status == "converged"


@pytest.mark.parametrize("cell", [(10, 11, 2), (10, 12, 1), (10, 12, 2)],
                         ids=["10-11-2", "10-12-1", "10-12-2"])
def test_cadence_escape_ends_the_grid_plateaus(cell, monkeypatch):
    # These logistic grid cells misclassify from about iteration 50 with
    # exactly-zero blocks already free, while the loss barely moves.  The
    # cadence escape at ESCAPE_EVERY - 1 ends the plateau, and they
    # converge in 335, 312 and 433 iterations; with the cadence off they
    # take 383, 448 and 973.
    net0, ds, cfg, opts = grid_run(*cell)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert [row[0] for row in traj.rows if row[4] == "escape"] == [opt.ESCAPE_EVERY - 1]
    assert traj.status == "converged" and traj.n_iter <= 450
    assert certify(net, ds, cfg).verdict == "ok"
    monkeypatch.setattr(opt, "ESCAPE_EVERY", 10**9)
    _, slow = opt.train(net0, ds, cfg, opts)
    assert slow.status == "converged" and slow.n_iter > traj.n_iter


def test_c09_seed0_never_reaches_the_escape(monkeypatch):
    # No point of this run that the gate checks both misclassifies and has
    # an exactly-zero block, so neither cadence nor budget reaches the deep
    # trajectories.
    def refuse(*args):
        raise AssertionError("escape reached")

    monkeypatch.setattr(opt, "_attempt_escape", refuse)
    _, traj = opt.train(*c09_seed0())
    assert traj.status == "converged"


def test_only_escape_searches_spend_the_budget(monkeypatch):
    # With one escape try and a check at every snap check, hinge grid cell
    # (n, m, seed) = (4, 5, 3) misclassifies at its first check (iteration
    # 49) with every block in use, and has a free block at the second.
    # Were the first check to spend the one try, the run would reach the
    # second without the escape it needs there.
    monkeypatch.setattr(opt, "MAX_ESCAPES", 1)
    monkeypatch.setattr(opt, "ESCAPE_EVERY", opt.SNAP_EVERY)
    net0, ds, cfg, opts = grid_run(4, 5, 3, smooth_hinge(3))
    checks, entered = [], []
    snaps, escape = opt._try_snaps, opt._attempt_escape

    def spy_snaps(theta, loss, fob):
        checks.append((np.any(np.sign(fob.forward(theta)[2][-1]) != fob.y),
                       (~theta[fob.layout.blocks()].any(axis=1)).any()))
        return snaps(theta, loss, fob)

    def spy(theta, fwd, fob, rng, block):
        blocks = fob.layout.blocks()
        entered.append((~theta[blocks].any(axis=1)).any() and not theta[block].any())
        return escape(theta, fwd, fob, rng, block)

    monkeypatch.setattr(opt, "_try_snaps", spy_snaps)
    monkeypatch.setattr(opt, "_attempt_escape", spy)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert checks[0] == (True, False)  # misclassifying, no zero block
    assert training_error(net, ds) == 0.0
    assert [row[0] for row in traj.rows if row[4] == "escape"] == [2 * opt.SNAP_EVERY - 1]
    assert entered and all(entered)


def test_the_step_after_a_snap_starts_from_the_snapped_point(monkeypatch):
    # c09 seed 0's snap at iteration 49 moves ||g|| from 2.7613e-3 to
    # 2.7791e-3 (the last digits below are this run's).  The iteration then starts again from the snapped point:
    # its line search reads that point's loss and gradient, and a gradient
    # norm from before the snap reaches neither the search nor a row.
    searches = []
    search = opt._weak_wolfe
    monkeypatch.setattr(opt, "_weak_wolfe", lambda *args: searches.append(args) or search(*args))
    net0, ds, cfg, opts = c09_seed0()
    _, traj = opt.train(net0, ds, cfg, opts)
    snap = next(row for row in traj.rows if row[4] == "snap")
    assert snap[0] == 49 and snap[2] == 2.7790810882217447e-03
    fob, theta, loss, g, _ = searches[49]  # the 50th search, iteration 49's
    assert math.sqrt(theta @ theta) == snap[3] and loss == snap[1]
    assert math.sqrt(g @ g) == snap[2]
    np.testing.assert_array_equal(g, fob.grad(fob.forward(theta)))
    before = opt.train(net0, ds, cfg, opt.TrainOptions(grad_tol=1e-8, max_iter=49))[0]
    fwd = fob.forward(net_to_flat(before))
    assert math.sqrt(fob.grad(fwd) @ fob.grad(fwd)) == 2.7613207636834045e-03


def random_memory(rng, size, pairs, zero):
    """The memory _remember builds from random pairs, some with s.y <= 0,
    and the pairs it kept; coordinates in zero are exactly zero throughout."""
    memory = opt._no_pairs(size)
    kept = []
    for _ in range(pairs):
        s, y = rng.standard_normal(size), rng.standard_normal(size)
        if rng.random() < 0.7:  # most pairs carry curvature, as descent's do
            y = s * rng.uniform(0.1, 10.0, size) + 0.1 * y
        s[zero], y[zero] = 0.0, 0.0
        memory = opt._remember(memory, s, y)
        if s @ y > 0.0:
            kept.append((s, y))
    return memory, kept[-opt.MEMORY :]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(0, 45), size=st.integers(2, 60))
def test_compact_direction_equals_the_two_loop_recursion(seed, pairs, size):
    # The compact form and the textbook recursion are the same operator;
    # skipped pairs (s.y <= 0) enter neither, and only the last MEMORY kept
    # pairs count, however the bordered and cut blocks of the memory got
    # there.  The direction is exactly 0.0 on an exactly-zero block,
    # which keeps a pruned block pruned.
    rng = np.random.default_rng(seed)
    zero = rng.random(size) < 0.3
    zero[rng.integers(size)] = False  # some coordinate is live
    memory, kept = random_memory(rng, size, pairs, zero)
    S, Y, Rinv, YY, D = memory
    assert len(S) == len(kept) <= opt.MEMORY
    assert all(np.array_equal(S[i], s) and np.array_equal(Y[i], y) for i, (s, y) in enumerate(kept))
    g = rng.standard_normal(size)
    g[zero] = 0.0
    SY = S @ Y.T  # the kept blocks against their definitions
    np.testing.assert_allclose(Rinv @ np.triu(SY), np.eye(len(S)), atol=1e-9)
    for got, want in ((YY, Y @ Y.T), (D, np.diag(SY))):  # equal but for rounding
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))
    got, want = opt._lbfgs_direction(g, memory), lbfgs_two_loop_oracle(g, kept)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.all(got[zero] == 0.0)
    assert g @ got < 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 3), hinge=st.booleans())
def test_every_accepted_step_meets_armijo_and_no_gradient_repeats(seed, l, hinge):
    # Random nets, data and losses: every step the line search returns
    # lowers the loss by at least ARMIJO t g.d, and no gradient of the run
    # is taken twice at one point (the property a rounded-away trial broke).
    rng = np.random.default_rng(seed)
    d, m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
    net = opt.init_deep(d, int(rng.integers(2, 4)), l, m, seed=seed, scale=1.0)
    ds = Dataset(rng.standard_normal((n, d)), rng.choice([-1, 1], n))
    loss = smooth_hinge(3) if hinge else logistic()
    cfg = ObjectiveConfig(loss, opt.sample_lambda(m, 1e-2, seed=seed), lam_c=1.0)
    steps, points = [], []
    search, grad = opt._weak_wolfe, FlatObjective.grad

    def spy_search(fob, theta, loss, g, d):
        out = search(fob, theta, loss, g, d)
        steps.append((loss, float(g @ d), out))
        return out

    def spy_grad(self, fwd):
        points.append(b"".join(p.tobytes() for p in (*fwd[1][:3], *fwd[1][3])))
        return grad(self, fwd)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_weak_wolfe", spy_search)
        mp.setattr(FlatObjective, "grad", spy_grad)
        opt.train(net, ds, cfg, opt.TrainOptions(max_iter=300, seed=seed))
    assert steps
    for before, slope, out in steps:
        if out is not None:
            t, _, fwd, _ = out
            assert slope < 0.0
            assert float(fwd[0]) < before and float(fwd[0]) <= before + opt.ARMIJO * t * slope
    assert len(set(points)) == len(points)


def c09_seed7():
    """c09 seed 7: snaps, then converges with a full memory of pairs."""
    return c09_run(7)


def wide_run():
    """A single-layer run of n = m = 40 with every pre-activation at least
    0.7 from 0 at the start (|b_j| = 1, W small) and labels from the net
    itself; 300 iterations, most of them with a full memory."""
    rng = np.random.default_rng(31)
    net = SingleLayerReQUNet(rng.standard_normal(40), 0.1 * rng.standard_normal((40, 3)),
                             rng.choice([-1.0, 1.0], 40))
    X = rng.uniform(-1.0, 1.0, (40, 3))
    ds = Dataset(X, np.where(net.value(X) > 0.0, 1, -1))
    return net, ds, quick_cfg(40), opt.TrainOptions(max_iter=300)


@pytest.mark.parametrize("run", [c09_seed7, wide_run], ids=["c09-seed7", "wide"])
def test_newton_hessian_equals_the_per_row_oracle(run, monkeypatch):
    # The quasi-Newton inverse Hessian that train applies, in compact form,
    # must equal the two-loop recursion over the rows of S and Y, one pair
    # at a time, on every memory the run builds, snaps and all; and it is
    # exactly 0.0 wherever g and every pair are.
    calls = []
    direction = opt._lbfgs_direction
    monkeypatch.setattr(opt, "_lbfgs_direction", lambda g, memory: calls.append((g, memory))
                        or direction(g, memory))
    _, traj = opt.train(*run())
    assert sum(len(memory[0]) == opt.MEMORY for _, memory in calls) > 100
    assert any(row[4] == "snap" for row in traj.rows)
    for g, memory in calls:
        S, Y = memory[:2]
        got, want = direction(g, memory), lbfgs_two_loop_oracle(g, list(zip(S, Y)))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        zero = (g == 0.0) & ~S.any(axis=0) & ~Y.any(axis=0)
        assert np.all(got[zero] == 0.0)


def test_newton_finish_ends_the_c09_seed7_tail():
    # BB descent alone took 3,528 iterations here, most of them in a tail
    # where the activation pattern no longer changes, and a Newton finish
    # that took over that tail ended it within 400.  The quasi-Newton
    # (L-BFGS) steps now finish the whole run and reach the same minimum.
    net0, ds, cfg, opts = c09_run(7)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert traj.status == "converged" and traj.n_iter <= 400
    want = 9.683468865489e-03
    assert abs(traj.rows[-1][1] - want) <= 1e-12 * want
    assert certify(net, ds, cfg).verdict == "ok"


def test_c01_seed4_still_certifies_with_its_newton_steps():
    # The one c01 run whose tail the old Newton finish took (two steps at
    # iterations 199-200).  Its quasi-Newton steps now take the whole run,
    # which must still end at a certified minimum.
    net0, ds, cfg, opts = c01_run(4)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert traj.status == "converged" and traj.n_iter <= 250
    assert certify(net, ds, cfg).verdict == "ok"


def test_c01_logistic_set_takes_at_most_4000_iterations():
    # The old BB ladder with its Newton finish took 8,258 iterations over
    # the twenty c01 runs.
    total = 0
    for seed in range(20):
        net0, ds, cfg, opts = c01_run(seed)
        _, traj = opt.train(net0, ds, cfg, opts)
        assert traj.status == "converged"
        total += traj.n_iter
    assert total <= 4000


def test_held_out_c09_seed23_converges_within_1000_iterations():
    # The old engine took 5,260 iterations here, a long descent tail below
    # its Newton finish's gradient floor, to the same minimum.
    net0, ds, cfg, opts = c09_run(23)
    net, traj = opt.train(net0, ds, cfg, opts)
    assert traj.status == "converged" and traj.n_iter <= 1000
    want = 9.215831e-03
    assert abs(traj.rows[-1][1] - want) <= 1e-6 * want
    assert certify(net, ds, cfg).verdict == "ok"


def test_no_c01_run_under_the_smooth_hinge_exhausts_its_budget():
    # The old engine ran seeds 4 and 10 to 200,000 iterations (117 s for
    # the twenty runs).
    for seed in range(20):
        ds = gen_random(10, 3, seed=1000 + seed)
        lam0 = opt.estimate_lambda0(ds, smooth_hinge(3), seed=seed)
        cfg = ObjectiveConfig(loss=smooth_hinge(3), lam=opt.sample_lambda(11, lam0, seed=seed))
        net, traj = opt.train(opt.init_single(11, 3, seed=seed), ds, cfg,
                              opt.TrainOptions(grad_tol=1e-7, seed=seed))
        assert traj.status == "converged", seed
        assert training_error(net, ds) == 0.0
