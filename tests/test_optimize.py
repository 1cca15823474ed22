import csv
import sys
from collections import Counter

import numpy as np
import pytest

from requland import optimize as opt
from requland.datasets import gen_random
from requland.models import DeepConvNet, SingleLayerReQUNet, net_to_flat
from requland.objective import (
    FlatObjective,
    ObjectiveConfig,
    logistic,
    loss_deriv,
    neuron_block_norms,
    training_error,
)


def quick_cfg(m, lam0=1e-2, seed=0, lam_c=0.0):
    return ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(m, lam0, seed=seed), lam_c=lam_c)


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


def test_sample_lambda_distinct_in_range():
    lam = opt.sample_lambda(50, 0.3, seed=5)
    assert np.unique(lam).size == 50
    assert np.all((lam > 0.15) & (lam < 0.3))
    assert np.array_equal(lam, opt.sample_lambda(50, 0.3, seed=5))
    with pytest.raises(ValueError, match="positive"):
        opt.sample_lambda(3, 0.0)
    with pytest.raises(ValueError, match="positive"):
        opt.sample_lambda(3, float("nan"))


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
    bn = neuron_block_norms(net)
    assert np.any(bn == 0.0)  # at least one block was snapped away
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    _, g = fob.value_and_grad(theta)
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


def serial_stall_escape_oracle(theta, loss, fob, blocks, rng, opts):
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
    for _ in range(opts.stall_probes):
        u = np.zeros(theta.size)
        u[live] = rng.standard_normal(n_live)
        dirs.append(u)
    n_filt = int((~head).sum())
    for _ in range(0 if n_filt == 0 else 64):
        u = np.zeros(theta.size)
        u[~head] = rng.standard_normal(n_filt)
        dirs.append(u)
    radii = opts.escape_delta * 2.0 ** np.arange(-6, 9)
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


def serial_escape_oracle(theta, loss, fob, like, ds, cfg, opts, rng):
    """_attempt_escape with one value call per (candidate, delta) pair."""
    net = opt.net_from_flat(like, theta)
    norms = neuron_block_norms(net)
    if not np.any(norms == 0.0):
        return None, loss
    features = net.head_inputs(ds.X) if isinstance(net, DeepConvNet) else ds.X
    j = int(np.argmin(norms))
    outputs = net.value(ds.X)
    lp = loss_deriv(cfg.loss, -ds.y * outputs)
    misclassified = np.sign(outputs) != ds.y
    dirs = opt._escape_candidates(features, ds.y, misclassified, rng, opts.escape_directions)
    act = opt.requ(features @ dirs[:, :-1].T + dirs[:, -1])
    drive = (lp * ds.y) @ act
    signs = np.where(drive >= 0.0, 1.0, -1.0)
    blocks = fob.layout.blocks()
    best_loss, best_theta = loss, None
    deltas = opts.escape_delta * 2.0 ** np.arange(-4, 13)
    order = np.argsort(-np.abs(drive))[: max(32, opts.escape_directions // 4)]
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


def test_stall_escape_matches_serial_oracle():
    # c09 seed 2 with no stall tries stops where its first try would run:
    # pinned on a leaky-ReLU kink with a descending probe direction nearby.
    ds = gen_random(3, 4, seed=2002)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=2)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=2), lam_c=1.0)
    opts = opt.TrainOptions(grad_tol=1e-8, seed=2, max_stall_escapes=0)
    net, traj = opt.train(opt.init_deep(d=4, s=2, l=2, m=25, seed=2), ds, cfg, opts)
    assert traj.status == "stalled"
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    loss = fob.value(theta)
    blocks = fob.layout.blocks()
    # Several draws, as the winning probe of one draw shows little of it;
    # seed 2 is the try the trainer itself would make here.
    for seed in range(8):
        got = opt._attempt_stall_escape(theta, loss, fob, blocks, trainer_rng(seed), opts)
        want = serial_stall_escape_oracle(theta, loss, fob, blocks, trainer_rng(seed), opts)
        assert got[0] is not None and got[1] < loss
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_escape_matches_serial_oracle():
    # c01 seed 5 escapes at iteration 999 on the coarse cadence; stop there.
    ds = gen_random(10, 3, seed=1005)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=5)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(11, lam0, seed=5))
    opts = opt.TrainOptions(grad_tol=1e-7, seed=5)
    like = opt.init_single(11, 3, seed=5)
    net, _ = opt.train(like, ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5, max_iter=999))
    fob = FlatObjective(like, ds, cfg)
    theta = net_to_flat(net)
    loss = fob.value(theta)
    got = opt._attempt_escape(theta, loss, fob, like, ds, cfg, opts, trainer_rng(5))
    want = serial_escape_oracle(theta, loss, fob, like, ds, cfg, opts, trainer_rng(5))
    assert got[0] is not None and got[1] < loss
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_train_from_an_overflowing_norm_does_not_raise(monkeypatch):
    # ||theta||^3 overflows a float here, and the coercivity check at
    # iteration 0 must not raise from it; the objective itself is NaN.  The
    # run ends "non-finite" at once instead of spending stall tries on a NaN
    # loss and reporting a kink stall.
    ds = gen_random(10, 3, seed=0)
    cfg = quick_cfg(11, lam0=0.1)
    stall_tries = []
    monkeypatch.setattr(opt, "_attempt_stall_escape",
                        lambda *args: stall_tries.append(args) or (None, np.nan))
    for scale in (1e110, 1e103):
        with np.errstate(over="ignore", invalid="ignore"):
            _, traj = opt.train(opt.init_single(11, 3, seed=0, scale=scale), ds, cfg)
        assert np.isnan(traj.rows[-1][1])
        assert traj.status == "non-finite" and traj.n_iter == 0
        assert traj.status in opt.TERMINAL_STATUSES
    assert stall_tries == []


def test_line_search_takes_each_accepted_gradient_from_its_own_forward(monkeypatch):
    # c09 seed 2 with one stall try: a snap at iteration 49, a stall escape
    # at 849 and a "stalled" end, about 1650 iterations.  Every objective
    # entry point is counted by the function that called it.
    calls = Counter()

    def counted(name, fn):
        def wrapper(self, *args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return fn(self, *args)
        return wrapper

    for name in ("forward", "grad", "value", "values", "value_and_grad"):
        monkeypatch.setattr(FlatObjective, name, counted(name, getattr(FlatObjective, name)))
    ds = gen_random(3, 4, seed=2002)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=2)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=2), lam_c=1.0)
    opts = opt.TrainOptions(grad_tol=1e-8, seed=2, max_stall_escapes=1)
    _, traj = opt.train(opt.init_deep(d=4, s=2, l=2, m=25, seed=2), ds, cfg, opts)
    moves = Counter(row[4] for row in traj.rows)
    assert traj.status == "stalled" and moves["snap"] >= 1 and moves["escape"] == 1

    def by(name):
        return {caller: k for (fn, caller), k in calls.items() if fn == name}

    # value_and_grad runs once at the start and once per snap or escape.
    assert by("value_and_grad") == {"train": 1, "refresh": moves["snap"] + moves["escape"]}
    # The line search is train's only forward; its accepted trials take
    # their gradient from that forward, and no other gradient is taken.
    trials, accepted = by("forward")["train"], by("grad")["train"]
    assert 0 < accepted <= traj.n_iter < trials
    assert by("grad") == {"train": accepted, "value_and_grad": sum(by("value_and_grad").values())}
    assert set(by("value")) == {"_try_snaps", "_attempt_stall_escape"}
    assert set(by("values")) == {"_attempt_stall_escape"}
    # Every forward pass is a line-search trial, a snap or escape
    # evaluation, or the start of a value_and_grad.
    assert by("forward") == {
        "train": trials,
        "value": sum(by("value").values()),
        "values": sum(by("values").values()),
        "value_and_grad": sum(by("value_and_grad").values()),
    }
