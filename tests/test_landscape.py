import json
import warnings

import numpy as np
import pytest

from requland import landscape, objective, optimize
from requland.constructions import build_bad_local_min
from requland.datasets import Dataset, gen_random
from requland.models import DeepConvNet, QuadraticNet, SingleLayerReQUNet, net_to_flat
from requland.numkit import min_singular_value, min_singular_values
from requland.objective import ObjectiveConfig, logistic, smooth_hinge


def lifted(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


@pytest.fixture(scope="module")
def single_run():
    """One converged single-layer training run (error reaches zero)."""
    ds = gen_random(10, 3, seed=1000)
    lam0 = optimize.estimate_lambda0(ds, logistic(), seed=0)
    lam = optimize.sample_lambda(11, lam0, seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=lam)
    net, traj = optimize.train(
        optimize.init_single(11, 3, seed=0),
        ds,
        cfg,
        optimize.TrainOptions(grad_tol=1e-7, max_iter=200_000, seed=0),
    )
    assert traj.status == "converged"
    return net, ds, cfg


@pytest.fixture(scope="module")
def moderate_run():
    """Converged single-layer run at lam ~ 1e-2, where float64 pins the
    balance identity tightly (the data-driven lam scale is too small for
    absolute residual bounds to be resolvable at any realistic grad_tol)."""
    ds = gen_random(10, 3, seed=1000)
    lam = optimize.sample_lambda(11, 1e-2, seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=lam)
    net, traj = optimize.train(
        optimize.init_single(11, 3, seed=0),
        ds,
        cfg,
        optimize.TrainOptions(grad_tol=1e-8, max_iter=300_000, seed=0),
    )
    assert traj.status == "converged"
    return net, ds, cfg


@pytest.fixture(scope="module")
def deep_run():
    """One converged conv-net training run."""
    ds = gen_random(3, 4, seed=2000)
    lam0 = optimize.estimate_lambda0(ds, logistic(), seed=0)
    lam = optimize.sample_lambda(25, lam0, seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=lam, lam_c=1.0)
    net, traj = optimize.train(
        optimize.init_deep(d=4, s=2, l=2, m=25, seed=0),
        ds,
        cfg,
        optimize.TrainOptions(grad_tol=1e-8, max_iter=200_000, seed=0),
    )
    assert traj.status == "converged"
    return net, ds, cfg


def test_m_matrices_zero_net_are_lambda_shifts():
    ds = gen_random(5, 3, seed=1)
    m = 4
    net = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 3)), np.zeros(m))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.1, 0.2, 0.3, 0.4]))
    for j, M in enumerate(landscape.build_M_matrices(net, ds, cfg)):
        # sgn(0) = 0 kills the data term entirely.
        assert np.allclose(M, cfg.lam[j] * np.eye(4))
        assert min_singular_value(M) == pytest.approx(cfg.lam[j])


def test_m_matrix_single_sample_rank_one_spectrum():
    X = np.array([[1.0, -2.0]])
    ds = Dataset(X, np.array([1]))
    net = SingleLayerReQUNet(np.array([0.5]), np.array([[1.0, 0.0]]), np.array([0.2]))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.3]))
    (M,) = landscape.build_M_matrices(net, ds, cfg)
    z = -ds.y[0] * net.value(X)[0]
    lp = objective.loss_deriv(cfg.loss, z)
    # Rank-one update of lam*I: eigenvalues lam (multiplicity d) and
    # lam - lp*y*(||x||^2 + 1).
    expected = np.sort(np.r_[[cfg.lam[0]] * 2, cfg.lam[0] - lp * 1.0 * (1.0 + 4.0 + 1.0)])
    got = np.sort(np.linalg.eigvalsh(M))
    assert np.allclose(got, expected)


def test_m_matrices_annihilate_active_blocks_at_criticality(single_run):
    net, ds, cfg = single_run
    Ms = landscape.build_M_matrices(net, ds, cfg)
    for j in range(net.m):
        wb = np.r_[net.W[j], net.b[j]]
        nb = np.linalg.norm(wb)
        if nb > 0:
            assert np.linalg.norm(Ms[j] @ wb) < 1e-6 * (1.0 + nb)


def test_certify_converged_run_ok(single_run):
    net, ds, cfg = single_run
    rep = landscape.certify(net, ds, cfg)
    assert rep.verdict == "ok"
    assert rep.training_error == 0.0
    assert rep.margin > 0.0
    assert len(rep.inactive) >= 1
    assert rep.max_loss_deriv < rep.epsilon
    # Inactive blocks keep their full lam_j as the smallest singular value.
    for j in rep.inactive:
        assert rep.m_sigma_min[j] == pytest.approx(cfg.lam[j], rel=1e-6)


def test_balance_residual_obeys_scaling_derivative_bound(single_run):
    # Along the output-invariant per-block scaling direction
    # xi_j = (-2 a_j, w_j, b_j), the directional derivative of the loss is
    # exactly 2 lam_j (u_j^3 - |a_j|^3), so near-criticality bounds the
    # balance gap by gn ||xi_j|| / (2 lam_j (u^2 + u|a| + a^2)).  This is
    # the sharp form: with data-driven lam ~ 1e-8 the absolute residual can
    # legitimately reach O(1) at any realistic gradient tolerance.
    net, ds, cfg = single_run
    loss, g = objective.value_and_gradient(net, ds, cfg)
    gn = np.linalg.norm(g)
    u = np.sqrt(np.sum(net.W**2, axis=1) + net.b**2)
    abs_a = np.abs(net.a)
    for j in range(net.m):
        denom = u[j] ** 2 + u[j] * abs_a[j] + abs_a[j] ** 2
        if denom == 0.0:
            assert abs_a[j] == u[j] == 0.0
            continue
        xi = np.sqrt(4.0 * abs_a[j] ** 2 + u[j] ** 2)
        bound = gn * xi / (2.0 * cfg.lam[j] * denom)
        assert abs(abs_a[j] - u[j]) <= 1.1 * bound + 1e-12


def test_balance_residual_tight_at_moderate_lam(moderate_run):
    net, ds, cfg = moderate_run
    rep = landscape.certify(net, ds, cfg)
    assert rep.verdict == "ok"
    theta_norm = np.linalg.norm(net_to_flat(net))
    assert np.max(np.abs(rep.balance_residuals)) < 1e-5 * (1.0 + theta_norm)


def test_certify_rejects_noncritical_point():
    ds = gen_random(6, 3, seed=5)
    rng = np.random.default_rng(0)
    net = SingleLayerReQUNet(
        rng.standard_normal(4), rng.standard_normal((4, 3)), rng.standard_normal(4)
    )
    cfg = ObjectiveConfig(loss=logistic(), lam=np.linspace(0.1, 0.4, 4))
    with pytest.raises(landscape.NotCriticalError, match="exceeds"):
        landscape.certify(net, ds, cfg)


def test_certify_bad_local_min_all_active():
    ds, net, cfg = build_bad_local_min(4, 2, np.full(2, 0.1), seed=0)
    rep = landscape.certify(net, ds, cfg, grad_tol=1e-5)
    assert rep.inactive == []
    assert rep.training_error >= 1.0 - 2.0 / 4.0
    # Every certificate matrix is singular here: the equal-lam construction
    # is exactly the configuration the certificate cannot break.
    assert rep.verdict == "bad-lambda-suspect"
    assert np.all(rep.m_sigma_min <= rep.tol)


def test_certify_zero_net_recommends_escape():
    ds = gen_random(5, 3, seed=7)
    m = 3
    net = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 3)), np.zeros(m))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.05, 0.06, 0.07]))
    rep = landscape.certify(net, ds, cfg)
    assert rep.inactive == [0, 1, 2]
    assert rep.verdict == "margin-failure"
    assert rep.margin == 0.0
    assert rep.max_loss_deriv == pytest.approx(1.0 / (2.0 * np.log(2.0)))


def test_certificate_report_json_roundtrip(tmp_path, single_run):
    net, ds, cfg = single_run
    rep = landscape.certify(net, ds, cfg)
    path = tmp_path / "report.json"
    rep.save(path)
    back = landscape.CertificateReport.load(path)
    assert back.verdict == rep.verdict
    assert back.inactive == rep.inactive
    assert np.allclose(back.m_sigma_min, rep.m_sigma_min)
    assert np.allclose(back.balance_residuals, rep.balance_residuals)
    assert "verdict=ok" in back.one_line()
    assert "non_finite" not in json.loads(path.read_text())


def test_certificate_report_with_a_nan_margin_is_strict_json(tmp_path, single_run):
    net, ds, cfg = single_run
    rep = landscape.certify(net, ds, cfg)
    rep.margin = float("nan")
    path = tmp_path / "report.json"
    rep.save(path)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["margin"] is None
    assert doc["non_finite"] == {"margin": "nan"}
    back = landscape.CertificateReport.load(path)
    assert np.isnan(back.margin)
    back.margin = rep.margin = 0.0
    assert back.to_dict() == rep.to_dict()


def test_probe_single_sample_closed_form():
    X = np.array([[2.0, 1.0]])
    ds = Dataset(X, np.array([-1]))
    m = 2
    net = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 2)), np.zeros(m))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([5.0, 6.0]))
    res = landscape.perturbation_probe(net, ds, cfg, j=0, samples=64, seed=3)
    # Supremum attained along the lifted direction (x;1)/||(x;1)||:
    # value = l'(0) * (||x||^2 + 1).
    assert res.estimate == pytest.approx((1.0 / (2.0 * np.log(2.0))) * 6.0)
    assert res.passed  # lam_j = 5 exceeds the drive
    assert np.allclose(np.abs(res.direction), np.array([2.0, 1.0, 1.0]) / np.sqrt(6.0))


def test_probe_zero_derivative_gives_zero():
    # Smooth hinge has exactly zero derivative once the margin clears 1.
    X = np.array([[1.0, 0.0]])
    ds = Dataset(X, np.array([1]))
    net = SingleLayerReQUNet(
        np.array([2.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2)
    )
    cfg = ObjectiveConfig(loss=smooth_hinge(3), lam=np.array([0.1, 0.2]))
    res = landscape.perturbation_probe(net, ds, cfg, j=1, samples=32, seed=0)
    assert res.estimate == 0.0


def test_probe_requires_inactive_block(single_run):
    net, ds, cfg = single_run
    active = [j for j in range(net.m) if objective.neuron_block_norms(net)[j] > 0]
    with pytest.raises(ValueError, match="not inactive"):
        landscape.perturbation_probe(net, ds, cfg, j=active[0])


def test_probe_two_sided_at_zero_net_local_min():
    # The zero net is critical, and repointing one block along unit (u, v)
    # at amplitude delta changes the loss by delta^3 (lam_j - drive).  So
    # the zero net is a local minimum exactly when every lam_j exceeds the
    # supremum drive: the probe must pass there, and with a small lam_j it
    # must fail and hand back a direction that verifiably descends.
    ds = gen_random(8, 3, seed=31)
    m = 3
    net = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 3)), np.zeros(m))
    sup = None
    for scale, expect_pass in ((100.0, True), (1e-4, False)):
        cfg = ObjectiveConfig(loss=logistic(), lam=scale * np.array([1.0, 1.1, 1.2]))
        res = landscape.perturbation_probe(net, ds, cfg, j=0, samples=2048, seed=7)
        assert res.passed is expect_pass
        if sup is None:
            sup = res.estimate
        else:
            assert res.estimate == sup  # the drive does not depend on lam
    cfg = ObjectiveConfig(loss=logistic(), lam=1e-4 * np.array([1.0, 1.1, 1.2]))
    res = landscape.perturbation_probe(net, ds, cfg, j=0, samples=2048, seed=7)
    base = objective.empirical_loss(net, ds, cfg)
    fob = objective.FlatObjective(net, ds, cfg)
    theta = net_to_flat(net).copy()
    delta = 1e-2
    drive = res.estimate  # pick the sign that works downhill
    lp = objective.loss_deriv(cfg.loss, objective.margins(net, ds))
    act = np.maximum(ds.X @ res.direction[:-1] + res.direction[-1], 0.0) ** 2
    sgn = 1.0 if float((lp * ds.y) @ act) >= 0 else -1.0
    theta[0] = sgn * delta
    theta[m : m + 3] = delta * res.direction[:-1]
    theta[4 * m : 4 * m + 1] = delta * res.direction[-1]
    assert fob.value(theta) < base


def test_probe_violation_at_terminal_point_certifies_descent(moderate_run):
    # Descent converges to near-critical points that need not be exact
    # third-order local minima: the sampled supremum typically lands just
    # below max(lam), above the smaller lam_j.  When the probe flags that,
    # its direction must actually descend under the block-repoint move.
    net, ds, cfg = moderate_run
    rep = landscape.certify(net, ds, cfg)
    fob = objective.FlatObjective(net, ds, cfg)
    theta0 = net_to_flat(net)
    base = fob.value(theta0)
    m = net.m
    for j in rep.inactive:
        res = landscape.perturbation_probe(net, ds, cfg, j=j, samples=1024, seed=1)
        assert res.estimate < 2.0 * np.max(cfg.lam)
        if res.passed:
            continue
        lp = objective.loss_deriv(cfg.loss, objective.margins(net, ds))
        act = np.maximum(ds.X @ res.direction[:-1] + res.direction[-1], 0.0) ** 2
        sgn = 1.0 if float((lp * ds.y) @ act) >= 0 else -1.0
        found = False
        for delta in (1e-1, 1e-2, 1e-3):
            theta = theta0.copy()
            theta[j] = sgn * delta
            theta[m + 3 * j : m + 3 * (j + 1)] = delta * res.direction[:-1]
            theta[4 * m + j] = delta * res.direction[-1]
            if fob.value(theta) < base:
                found = True
                break
        assert found


def test_zA_matrices_all_zero_pattern():
    ds = gen_random(4, 2, seed=11)
    lam = np.array([0.2, 0.5, 0.9])
    Ms = landscape.certificate_matrices_zA(ds, np.ones(4), np.zeros((4, 3)), lam)
    sig = [min_singular_value(M) for M in Ms]
    assert max(sig) == pytest.approx(0.9)


def test_zA_single_sample_eigenvalue_alignment():
    # n=1, m=2: tuning z so lam_1 is an eigenvalue of z*X*A_11 makes M_1
    # singular while M_2 = lam_2 I stays nonsingular.
    X = np.array([[3.0, -1.0]])
    ds = Dataset(X, np.array([1]))
    lam = np.array([0.4, 0.7])
    z = np.array([lam[0] / (9.0 + 1.0 + 1.0)])
    A = np.array([[1.0, 0.0]])
    M1, M2 = landscape.certificate_matrices_zA(ds, z, A, lam)
    assert min_singular_value(M1) < 1e-12
    assert min_singular_value(M2) == pytest.approx(0.7)


def test_monte_carlo_overparameterized_stays_nonsingular():
    ds = gen_random(5, 3, seed=21)
    lam = optimize.sample_lambda(6, 0.3, seed=21)
    worst = landscape.certificate_matrix_monte_carlo(ds, 6, lam, trials=200, seed=0)
    assert worst > 0.0


def test_monte_carlo_validates_lam():
    ds = gen_random(3, 2, seed=2)
    with pytest.raises(ValueError, match="distinct"):
        landscape.certificate_matrix_monte_carlo(ds, 4, np.array([0.1, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="expected m"):
        landscape.certificate_matrix_monte_carlo(ds, 4, np.array([0.1, 0.2]))


def test_monte_carlo_and_perturbation_stability_need_a_trial():
    ds = gen_random(3, 2, seed=2)
    lam = np.array([0.1, 0.2, 0.3, 0.4])
    net = optimize.init_single(4, 2, seed=0)
    cfg = ObjectiveConfig(loss=logistic(), lam=lam)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            landscape.certificate_matrix_monte_carlo(ds, 4, lam, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            landscape.perturbation_stability(net, ds, cfg, trials=trials)


def serial_certificate_sum_oracle(lifted, weights, lam):
    """_certificate_sum for one (n, m) weight matrix, one block at a time."""
    p = lifted.shape[1]
    out = np.empty((lam.size, p, p))
    for j in range(lam.size):
        weighted = lifted * weights[:, j][:, None]
        out[j] = -(weighted.T @ lifted) + lam[j] * np.eye(p)
    return out


def test_certificate_sum_matches_serial_oracle(monkeypatch):
    rng = np.random.default_rng(4)
    m = 8
    ds = gen_random(7, 3, seed=4)
    lam = optimize.sample_lambda(m, 0.1, seed=4)
    cfg = ObjectiveConfig(loss=logistic(), lam=lam)
    nets = [
        SingleLayerReQUNet(rng.standard_normal(m), rng.standard_normal((m, 3)),
                           rng.standard_normal(m)),
        QuadraticNet(rng.standard_normal(m), rng.standard_normal((m, 3)),
                     rng.standard_normal(m)),
        optimize.init_deep(3, 2, 3, m, seed=4, scale=3.0),
    ]
    draws = []
    for n in (3, 8, 20):
        zds = gen_random(n, 3, seed=n)
        for _ in range(10):
            z = np.where(rng.random(n) < 0.5, rng.standard_normal(n), rng.standard_cauchy(n))
            draws.append((zds, z, rng.integers(-1, 2, size=(n, n + 1)).astype(float),
                          optimize.sample_lambda(n + 1, 0.1, seed=n)))

    def build():
        return ([landscape.build_M_matrices(net, ds, cfg) for net in nets]
                + [landscape.certificate_matrices_zA(*d) for d in draws])

    got = build()
    stacked_sum = landscape._certificate_sum
    monkeypatch.setattr(landscape, "_certificate_sum", serial_certificate_sum_oracle)
    want = build()
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.all(g == w)
    # A stack of weight matrices gives the stack of their matrices.
    for first in (0, 10, 20):  # the draws of one size
        zds, _, _, lam_n = draws[first]
        weights = np.stack([z[:, None] * A for _, z, A, _ in draws[first : first + 10]])
        stacked = stacked_sum(zds.lifted(), weights, lam_n)
        assert np.all(stacked == np.stack(want[len(nets) + first :][:10]))


def serial_monte_carlo_oracle(ds, m, lam, trials, seed):
    """certificate_matrix_monte_carlo as one draw row, one build and m SVDs
    per trial: each trial's max_j sigma_min, in trial order.  Trial t is row
    t % MC_BLOCK of the whole block drawn from SeedSequence((seed, t // MC_BLOCK))."""
    lam = np.asarray(lam, dtype=float)
    block, n = landscape.MC_BLOCK, ds.n
    per_trial = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t // block)))
        u, g = rng.random((block, n)), rng.standard_normal((block, n))
        c, A = rng.standard_cauchy((block, n)), rng.integers(-1, 2, (block, n, m))
        r = t % block
        z = np.where(u[r] < 0.5, g[r], c[r])
        Ms = serial_certificate_sum_oracle(ds.lifted(), z[:, None] * A[r].astype(float), lam)
        per_trial.append(max(min_singular_value(M) for M in Ms))
    return np.array(per_trial)


def monte_carlo_trials(monkeypatch, ds, m, lam, trials, seed):
    """certificate_matrix_monte_carlo's return and each trial's max_j
    sigma_min, in trial order, read from the stacks it factors."""
    stacks = []

    def recording(stack):
        stacks.append(min_singular_values(stack))
        return stacks[-1]

    with monkeypatch.context() as mp, warnings.catch_warnings():
        mp.setattr(landscape, "min_singular_values", recording)
        warnings.simplefilter("ignore")  # m = n warns
        got = landscape.certificate_matrix_monte_carlo(ds, m, lam, trials, seed=seed)
    return got, np.concatenate(stacks).max(axis=1)


@pytest.mark.parametrize("n,m", [(5, 6), (8, 8), (8, 9)])
def test_monte_carlo_matches_serial_oracle(n, m, monkeypatch):
    ds = gen_random(n, 3, seed=n)
    lam = optimize.sample_lambda(m, 1e-2, seed=m)
    block = landscape.MC_BLOCK
    for trials in (block - 1, block, block + 1):
        got, per_trial = monte_carlo_trials(monkeypatch, ds, m, lam, trials, seed=1)
        want = serial_monte_carlo_oracle(ds, m, lam, trials, seed=1)
        assert np.array_equal(per_trial, want)  # every trial, once, in order
        assert got == want.min()


def test_monte_carlo_trials_are_a_prefix_of_a_longer_run(monkeypatch):
    # Trial t depends only on (seed, t): every block is drawn whole.
    ds = gen_random(5, 3, seed=5)
    lam = optimize.sample_lambda(6, 1e-2, seed=6)
    got, short = monte_carlo_trials(monkeypatch, ds, 6, lam, 300, seed=3)
    _, long = monte_carlo_trials(monkeypatch, ds, 6, lam, 4000, seed=3)
    assert len(short) == 300 and len(long) == 4000
    assert np.array_equal(short, long[:300])
    assert got == short.min()


def test_square_case_warns_and_adversarial_kills_every_matrix():
    ds = gen_random(5, 3, seed=13)
    lam = optimize.sample_lambda(5, 0.4, seed=13)
    with pytest.warns(UserWarning, match="m >= n\\+1"):
        landscape.certificate_matrix_monte_carlo(ds, 5, lam, trials=10, seed=0)
    z, A = landscape.certificate_matrix_adversarial(ds, lam)
    sig = [min_singular_value(M) for M in landscape.certificate_matrices_zA(ds, z, A, lam)]
    assert max(sig) < 1e-12


def test_adversarial_requires_square_case():
    ds = gen_random(4, 2, seed=3)
    with pytest.raises(ValueError, match="m = n"):
        landscape.certificate_matrix_adversarial(ds, np.array([0.1, 0.2, 0.3]))


def test_overdetermined_membership_and_orthogonal_cases():
    rng = np.random.default_rng(17)
    A = rng.integers(-1, 2, size=(4, 6)).astype(float)
    alpha = rng.standard_normal(4)
    inside = A.T @ alpha
    assert landscape.overdetermined_no_solution(A, inside) < 1e-10
    # Add a unit vector orthogonal to the row space: residual exactly 1.
    Q, _ = np.linalg.qr(A.T)
    v = rng.standard_normal(6)
    v -= Q @ (Q.T @ v)
    v /= np.linalg.norm(v)
    assert landscape.overdetermined_no_solution(A, inside + v) == pytest.approx(1.0)


def test_overdetermined_random_lam_misses_row_space():
    rng = np.random.default_rng(99)
    for trial in range(200):
        A = rng.integers(-1, 2, size=(3, 5)).astype(float)
        res = landscape.overdetermined_no_solution(A, seed=trial)
        assert res > 1e-10


def test_overdetermined_shape_check():
    with pytest.raises(ValueError, match="m >= n\\+1"):
        landscape.overdetermined_no_solution(np.ones((3, 3)))


def test_quadratic_certificate_singular_count_is_bounded():
    # The quadratic head shares one data matrix, so M_j = -sgn_j M + lam_j I
    # is singular only when lam_j hits the spectrum of sgn_j M: at most
    # 2(d+1) values.  With m >= 2d+4 distinct lam, survivors always exist,
    # even for lam crafted from the spectrum itself.
    rng = np.random.default_rng(5)
    d, m = 2, 2 * 2 + 4
    ds = gen_random(6, d, seed=5)
    a = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 1.5, m)
    net = QuadraticNet(a, rng.standard_normal((m, d)), rng.standard_normal(m))
    probe_cfg = ObjectiveConfig(loss=logistic(), lam=np.full(m, 0.5))
    (M0,) = landscape.build_M_matrices(net, ds, probe_cfg)[:1]
    shared = -(M0 - 0.5 * np.eye(d + 1)) * np.sign(a[0])  # recover sum_i l'_i y_i X_i
    eigs = np.linalg.eigvalsh(shared)
    lam = []
    for j in range(m):
        want = eigs if a[j] > 0 else -eigs
        pos = [v for v in want if v > 0 and not any(abs(v - u) < 1e-12 for u in lam)]
        lam.append(pos[0] if pos else 0.31 + 0.01 * j)
    lam = np.array(lam)
    assert np.unique(lam).size == m
    cfg = ObjectiveConfig(loss=logistic(), lam=lam)
    sig = np.array(
        [min_singular_value(M) for M in landscape.build_M_matrices(net, ds, cfg)]
    )
    scale = 1.0 + np.abs(eigs).max()
    assert np.sum(sig < 1e-10 * scale) <= 2 * (d + 1)
    assert np.sum(sig > 1e-10 * scale) >= m - 2 * (d + 1)


def test_deep_balance_zero_net_unit_filters_case2():
    m, head = 3, 5
    net = DeepConvNet(
        (np.array([1.0, 0.0]),), np.zeros(m), np.zeros((m, head)), np.zeros(m), 0.1
    )
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.1, 0.2, 0.3]), lam_c=1.0)
    rep = landscape.deep_balance_check(net, cfg)
    assert rep.case == 2
    assert rep.head_cubic == 0.0 and rep.weight_cubic == 0.0
    assert rep.coupling == 0.0
    assert np.all(rep.filter_terms == 0.0)
    assert rep.passed


def test_deep_balance_zero_filter_case1():
    m, head = 2, 5
    net = DeepConvNet(
        (np.zeros(2),), np.zeros(m), np.zeros((m, head)), np.zeros(m), 0.1
    )
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.1, 0.2]), lam_c=1.0)
    assert landscape.deep_balance_check(net, cfg).case == 1


def test_deep_run_is_case3_balanced_and_injective(deep_run):
    net, ds, cfg = deep_run
    rep = landscape.deep_balance_check(net, cfg, tol=1e-4)
    assert rep.case == 3
    assert rep.passed
    assert np.all(rep.filter_norms > 1.0)
    assert np.max(rep.filter_norms) - np.min(rep.filter_norms) < 1e-4
    ok, pair = landscape.hidden_injectivity_check(net, ds)
    assert ok and pair is None


def test_certify_deep_run(deep_run):
    net, ds, cfg = deep_run
    rep = landscape.certify(net, ds, cfg, grad_tol=1e-4)
    assert rep.verdict == "ok"
    assert rep.training_error == 0.0
    assert len(rep.inactive) >= 1


def test_hidden_injectivity_trivial_and_failure_modes():
    X = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0]])
    ds = Dataset(X, np.array([1, -1, 1]))
    rng = np.random.default_rng(0)
    m, head = 2, 5
    net = DeepConvNet(
        (rng.standard_normal(2),),
        rng.standard_normal(m),
        rng.standard_normal((m, head)),
        rng.standard_normal(m),
        0.1,
    )
    ok, pair = landscape.hidden_injectivity_check(net, ds)
    assert not ok and pair == (0, 1)  # duplicated inputs collide

    shallow = DeepConvNet(
        (), rng.standard_normal(m), rng.standard_normal((m, 4)), rng.standard_normal(m), 0.1
    )
    ok, pair = landscape.hidden_injectivity_check(shallow, Dataset(X[1:], np.array([1, -1])))
    assert ok  # no conv layers: reduces to input distinctness

    dead = DeepConvNet(
        (np.zeros(2),), net.a, net.W, net.b, 0.1
    )
    with pytest.raises(ValueError, match="filter 0"):
        landscape.hidden_injectivity_check(dead, ds)


def test_perturbation_stability_at_bad_min():
    ds, net, cfg = build_bad_local_min(4, 2, np.full(2, 0.1), seed=0)
    worst = landscape.perturbation_stability(net, ds, cfg, radius=1e-3, trials=200, seed=0)
    assert worst >= 0.0


def serial_perturbation_stability_oracle(net, ds, cfg, radius, trials, seed):
    """perturbation_stability as one draw and one value call per trial."""
    fob = objective.FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    base = fob.value(theta)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        u = rng.standard_normal(theta.size)
        u *= radius / np.linalg.norm(u)
        worst = min(worst, fob.value(theta + u) - base)
    return float(worst)


def test_perturbation_stability_matches_serial_oracle():
    # 1100 trials cross two chunk borders; the bad minimum repels every
    # probe, the random net does not, so both signs of the minimum are hit.
    lam = np.random.default_rng(0).uniform(0.05, 0.45, size=3)
    ds, net, cfg = build_bad_local_min(10, 3, lam, seed=0, mode="generalized")
    rng = np.random.default_rng(3)
    other = SingleLayerReQUNet(rng.standard_normal(3), rng.standard_normal((3, ds.d)),
                               rng.standard_normal(3))
    for seed in range(3):
        for at, radius, want_sign in ((net, 1e-3, 1.0), (other, 1e-2, -1.0)):
            got = landscape.perturbation_stability(at, ds, cfg, radius, 1100, seed)
            assert got == serial_perturbation_stability_oracle(at, ds, cfg, radius, 1100, seed)
            assert np.sign(got) == want_sign


def test_perturbation_stability_scales_each_row_as_alone(monkeypatch):
    # theta + u rounds away the last bits of a small u, which hides them
    # from the oracle above; at the zero network the evaluated points are
    # the scaled directions themselves.
    ds = gen_random(6, 3, seed=0)
    net = SingleLayerReQUNet(np.zeros(4), np.zeros((4, 3)), np.zeros(4))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.full(4, 0.1))
    seen = []
    values = objective.FlatObjective.values
    monkeypatch.setattr(objective.FlatObjective, "values",
                        lambda self, thetas: seen.append(thetas.copy()) or values(self, thetas))
    landscape.perturbation_stability(net, ds, cfg, radius=1e-3, trials=500, seed=4)
    rng = np.random.default_rng(4)
    want = []
    for _ in range(500):
        u = rng.standard_normal(net_to_flat(net).size)
        u *= 1e-3 / np.linalg.norm(u)
        want.append(u)
    assert np.array_equal(np.concatenate(seen), want)


def test_perturbation_stability_is_nan_on_a_non_finite_objective():
    # At scale 1e110 the cubic terms overflow and the objective is NaN.  A
    # plain running min(worst, nan) keeps +inf there, which reads as "no
    # sampled direction descends".
    ds = gen_random(10, 3, seed=0)
    net = optimize.init_single(11, 3, seed=0, scale=1e110)
    cfg = ObjectiveConfig(loss=logistic(), lam=optimize.sample_lambda(11, 0.1, seed=0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(objective.empirical_loss(net, ds, cfg))
        assert np.isnan(landscape.perturbation_stability(net, ds, cfg, trials=50))
        # A finite base with overflowing trials certifies nothing either.
        small = optimize.init_single(11, 3, seed=0)
        assert np.isfinite(objective.empirical_loss(small, ds, cfg))
        assert np.isnan(landscape.perturbation_stability(small, ds, cfg, radius=1e120, trials=5))
