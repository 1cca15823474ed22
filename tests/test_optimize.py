import csv
import math
import sys
from collections import Counter

import numpy as np
import pytest

from requland import models, objective
from requland import optimize as opt
from requland.datasets import gen_random
from requland.landscape import certify
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
    norms = neuron_block_norms(net)
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
        got = opt._attempt_stall_escape(theta, loss, fob, trainer_rng(seed))
        want = serial_stall_escape_oracle(theta, loss, fob, blocks, trainer_rng(seed))
        assert got[0] is not None and got[1] < loss
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_escape_matches_serial_oracle():
    # c01 seed 5 escapes at iteration 999 on the coarse cadence; stop there.
    ds = gen_random(10, 3, seed=1005)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=5)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(11, lam0, seed=5))
    like = opt.init_single(11, 3, seed=5)
    net, _ = opt.train(like, ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5, max_iter=999))
    fob = FlatObjective(like, ds, cfg)
    theta = net_to_flat(net)
    loss = fob.value(theta)
    got = opt._attempt_escape(theta, fob.forward(theta), fob, trainer_rng(5))
    want = serial_escape_oracle(theta, loss, fob, like, ds, cfg, trainer_rng(5))
    assert got[0] is not None and got[1] < loss
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_escape_and_certify_evaluate_the_network_once_per_point(monkeypatch):
    # The escape move read its head inputs and margins in network passes of
    # its own, and certify made six.  Recorded: each pass's head
    # coefficients, or None for a stacked pass (the escape grid's trials).
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
    net, _ = opt.train(like, ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5, max_iter=999))
    fob = FlatObjective(like, ds, cfg)
    theta = net_to_flat(net)
    fwd = fob.forward(theta)
    heads.clear()
    assert opt._attempt_escape(theta, fwd, fob, trainer_rng(5))[0] is not None
    # The move reads the pass it is given; its one-point passes evaluate the
    # interpolator that proposes candidates.
    assert net.a.tobytes() not in heads and None in heads
    net, traj = opt.train(like, ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5))
    assert traj.status == "converged"
    heads.clear()
    assert certify(net, ds, cfg).verdict == "ok"
    assert heads == [net.a.tobytes()] * 2  # one kernel forward, one network pass


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


def test_train_raises_when_the_loss_falls_below_the_cubic_floor(monkeypatch):
    # The floor is a theorem for single-layer nets, so a loss below it can
    # only be a numerical defect; forge one and the run must stop on it.
    # Deep nets are outside the bound and never checked.
    monkeypatch.setattr(opt, "coercivity_lower_bound", lambda norm, lam_min, m: 1e9)
    ds = gen_random(8, 3, seed=77)
    with pytest.raises(opt.CoercivityViolationError, match="cubic floor"):
        opt.train(opt.init_single(9, 3, seed=7), ds, quick_cfg(9, seed=7))
    _, traj = opt.train(opt.init_deep(d=3, s=2, l=2, m=5, seed=0), ds, quick_cfg(5),
                        opt.TrainOptions(max_iter=10))
    assert traj.status == "budget-exhausted"


def c09_seed2_one_stall_try():
    """c09 seed 2 with one stall try: a snap at iteration 49, a stall escape
    at 283 and a "stalled" end at 416, on a leaky-ReLU kink where the
    spectral step overshoots and the Armijo steps shrink until they round
    away."""
    ds = gen_random(3, 4, seed=2002)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=2)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=2), lam_c=1.0)
    opts = opt.TrainOptions(grad_tol=1e-8, seed=2, max_stall_escapes=1)
    return opt.init_deep(d=4, s=2, l=2, m=25, seed=2), ds, cfg, opts


def c01_seed5():
    """c01 seed 5: 1344 iterations with an escape at iteration 999."""
    ds = gen_random(10, 3, seed=1005)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=5)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(11, lam0, seed=5))
    return opt.init_single(11, 3, seed=5), ds, cfg, opt.TrainOptions(grad_tol=1e-7, seed=5)


@pytest.mark.parametrize("run", [c09_seed2_one_stall_try, c01_seed5])
def test_stacked_ladder_matches_the_serial_ladder(run, monkeypatch):
    # A width cap of 1 evaluates every Armijo rung alone, as one forward per
    # trial did; the stacked blocks may change only the cost.
    net, traj = opt.train(*run())
    monkeypatch.setattr(opt, "LADDER_MAX", 1)
    serial_net, serial_traj = opt.train(*run())
    assert repr(traj.rows) == repr(serial_traj.rows)
    assert net_to_flat(net).tobytes() == net_to_flat(serial_net).tobytes()


def test_line_search_takes_each_accepted_gradient_from_its_own_forward(monkeypatch):
    # Every objective entry point is counted by the function that called
    # it, and forward also by the trial rows it evaluates.
    calls, rows = Counter(), Counter()

    def counted(name, fn):
        def wrapper(self, *args):
            caller = sys._getframe(1).f_code.co_name
            calls[name, caller] += 1
            if name == "forward":
                rows[caller] += 1 if args[0].ndim == 1 else len(args[0])
            return fn(self, *args)
        return wrapper

    for name in ("forward", "row", "grad", "value", "values", "value_and_grad"):
        monkeypatch.setattr(FlatObjective, name, counted(name, getattr(FlatObjective, name)))
    _, traj = opt.train(*c09_seed2_one_stall_try())
    moves = Counter(row[4] for row in traj.rows)
    assert traj.status == "stalled" and moves["snap"] >= 1 and moves["escape"] == 1

    def by(name):
        return {caller: k for (fn, caller), k in calls.items() if fn == name}

    # train keeps the forward pass of its iterate, so it takes every
    # gradient from a kept pass and never calls value_and_grad.  Gradients:
    # 1 at the start, 1 per snap or escape (refresh), 1 per accepted rung;
    # this run's only escape is a stall escape, which spends no iteration,
    # so every iteration is an accepted rung.
    moved = moves["snap"] + moves["escape"]
    assert by("value_and_grad") == {}
    assert by("grad") == {"train": 1 + traj.n_iter, "refresh": moved}
    # train's forward passes are the start and the line search.  Rungs are
    # stacked where the last iteration backtracked, so on this kink run the
    # forward calls are fewer than the trial rows.
    trials = rows["train"] - 1
    assert 0 < traj.n_iter < trials
    assert by("forward")["train"] - 1 < trials
    assert set(by("row")) <= {"train"} and by("row").get("train", 0) <= traj.n_iter
    assert set(by("value")) == {"_try_snaps", "_attempt_stall_escape"}
    assert set(by("values")) == {"_search"}
    # Every forward pass is the start, a line-search trial, a refresh, or a
    # snap, grid or stall evaluation.
    assert by("forward") == {
        "train": by("forward")["train"],
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
    # On this kink run the Armijo decrease ARMIJO step gn^2 fell below half
    # an ulp of the loss, so a rung with trial == theta passed and the
    # trainer took a gradient at the same point again, 1233 times, until
    # the flatline window noticed.  Such a rung now pins the iterate at once.
    points = []
    grad = FlatObjective.grad

    def recorded(self, fwd):
        a, W, b, filts = fwd[1]
        points.append(b"".join(p.tobytes() for p in (a, W, b, *filts)))
        return grad(self, fwd)

    monkeypatch.setattr(FlatObjective, "grad", recorded)
    _, traj = opt.train(*c09_seed2_one_stall_try())
    assert traj.status == "stalled" and traj.escapes == 1
    assert len(points) > 2
    assert all(p != q for p, q in zip(points, points[1:]))


def c09_seed0():
    """c09 seed 0: converges without a pin."""
    ds = gen_random(3, 4, seed=2000)
    lam0 = opt.estimate_lambda0(ds, logistic(), seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=opt.sample_lambda(25, lam0, seed=0), lam_c=1.0)
    return opt.init_deep(d=4, s=2, l=2, m=25, seed=0), ds, cfg, opt.TrainOptions(grad_tol=1e-8, seed=0)


@pytest.mark.parametrize("run", [c01_seed5, c09_seed0])
def test_runs_off_the_kinks_never_pin(run, monkeypatch):
    # Neither run ever holds theta still, so neither may reach the stall path.
    def refuse(*args):
        raise AssertionError("stall path reached")

    monkeypatch.setattr(opt, "_attempt_stall_escape", refuse)
    _, traj = opt.train(*run())
    assert traj.status == "converged"
