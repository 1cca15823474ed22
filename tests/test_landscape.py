import json
import warnings
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_norms_oracle
from requland import landscape, objective, optimize
from requland.constructions import build_bad_local_min
from requland.datasets import Dataset, gen_random
from requland.models import DeepConvNet, QuadraticNet, SingleLayerReQUNet, net_to_flat
from requland.numkit import min_singular_value, sym_min_singular_values
from requland.objective import ObjectiveConfig, logistic, smooth_hinge


def lifted(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def m_matrices(net, ds, cfg):
    """build_M_matrices at net, from the kernel pass and derivatives certify hands it."""
    fob = objective.FlatObjective(net, ds, cfg)
    fwd = fob.forward(net_to_flat(net))
    return landscape.build_M_matrices(fob, fwd, objective.loss_deriv(cfg.loss, fwd[3]))


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
    for j, M in enumerate(m_matrices(net, ds, cfg)):
        # sgn(0) = 0 kills the data term entirely.
        assert np.allclose(M, cfg.lam[j] * np.eye(4))
        assert min_singular_value(M) == pytest.approx(cfg.lam[j])


def test_m_matrix_single_sample_rank_one_spectrum():
    X = np.array([[1.0, -2.0]])
    ds = Dataset(X, np.array([1]))
    net = SingleLayerReQUNet(np.array([0.5]), np.array([[1.0, 0.0]]), np.array([0.2]))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.3]))
    (M,) = m_matrices(net, ds, cfg)
    z = -ds.y[0] * net.value(X)[0]
    lp = objective.loss_deriv(cfg.loss, z)
    # Rank-one update of lam*I: eigenvalues lam (multiplicity d) and
    # lam - lp*y*(||x||^2 + 1).
    expected = np.sort(np.r_[[cfg.lam[0]] * 2, cfg.lam[0] - lp * 1.0 * (1.0 + 4.0 + 1.0)])
    got = np.sort(np.linalg.eigvalsh(M))
    assert np.allclose(got, expected)


def test_m_matrix_indicator_counts_a_preactivation_of_exactly_zero():
    # Neuron 0 sits on its ReQU kink at x = 1 (pre = 0, act = 0); the
    # indicator is 1{pre >= 0}, so that sample still enters M_0.
    ds = Dataset(np.array([[1.0], [2.0]]), np.array([1, -1]))
    net = SingleLayerReQUNet(np.array([1.0, -2.0]), np.array([[1.0], [1.0]]), np.array([-1.0, 0.5]))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([0.3, 0.4]))
    lp = objective.loss_deriv(cfg.loss, -ds.y * net.value(ds.X))
    Z = lifted(ds.X)
    want = -sum(lp[i] * ds.y[i] * np.outer(Z[i], Z[i]) for i in range(2)) + 0.3 * np.eye(2)
    np.testing.assert_allclose(m_matrices(net, ds, cfg)[0], want, rtol=1e-14)


def test_m_matrices_annihilate_active_blocks_at_criticality(single_run):
    net, ds, cfg = single_run
    Ms = m_matrices(net, ds, cfg)
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
    fob = objective.FlatObjective(net, ds, cfg)
    gn = np.linalg.norm(fob.grad(fob.forward(net_to_flat(net))))
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


@pytest.mark.parametrize("tols", [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf},
                                  {"grad_tol": 0.0}, {"grad_tol": np.nan}, {"grad_tol": np.inf}])
def test_certify_rejects_a_tolerance_that_is_not_positive_and_finite(single_run, tols):
    # tol at 0, -1 or nan reported a contradiction, the verdict reserved for
    # defects, and tol at inf bad-lambda-suspect, on a certified point;
    # grad_tol at inf took any point for a critical one.
    net, ds, cfg = single_run
    with pytest.raises(ValueError, match="positive and finite"):
        landscape.certify(net, ds, cfg, **tols)


def test_certify_bad_local_min_all_active():
    ds, net, cfg = build_bad_local_min(4, 2, np.full(2, 0.1))
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


def test_certificate_report_load_inverts_save_field_for_field(tmp_path, single_run):
    rep = landscape.certify(*single_run)
    rep.margin, rep.grad_norm = float("nan"), float("inf")
    path = tmp_path / "report.json"
    rep.save(path)
    back = landscape.CertificateReport.load(path)
    for field in fields(landscape.CertificateReport):
        want, got = getattr(rep, field.name), getattr(back, field.name)
        assert type(got) is type(want) and repr(got) == repr(want), field.name
        np.testing.assert_array_equal(got, want, err_msg=field.name)  # NaN matches NaN


def net_pass_m_matrices_oracle(net, ds, cfg):
    """The certificate matrices from the network's own pass and a loss_deriv
    of their own, as certify built them before it read the kernel's pass."""
    states, _, pre, _, _, f = net.forward(ds.X)
    coef = objective.loss_deriv(cfg.loss, -ds.y * f) * ds.y
    active = net.squared | (pre >= 0.0)
    return landscape._certificate_sum(lifted(states[-1]), coef[:, None] * active * np.sign(net.a),
                                      cfg.lam)


@pytest.mark.parametrize("loss", [logistic(), smooth_hinge(3)], ids=["logistic", "hinge"])
def test_m_matrices_from_the_kernel_pass_equal_the_network_pass_oracle(loss):
    rng = np.random.default_rng(6)
    m = 7
    ds = gen_random(9, 3, seed=6)
    cfg = ObjectiveConfig(loss=loss, lam=optimize.sample_lambda(m, 0.1, seed=6))
    for net in (
        SingleLayerReQUNet(rng.standard_normal(m), rng.standard_normal((m, 3)), rng.standard_normal(m)),
        QuadraticNet(rng.standard_normal(m), rng.standard_normal((m, 3)), rng.standard_normal(m)),
        optimize.init_deep(3, 2, 3, m, seed=6, scale=3.0),
    ):
        got, want = m_matrices(net, ds, cfg), net_pass_m_matrices_oracle(net, ds, cfg)
        assert got.shape == want.shape and np.all(got == want)


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


@dataclass
class ProbeResult:
    estimate: float
    direction: np.ndarray  # unit (u; v) achieving the estimate
    lam_j: float

    @property
    def passed(self) -> bool:
        """At a genuine local minimum the sampled supremum stays below
        lam_j; a violating direction is a certified descent move."""
        return self.estimate < self.lam_j


def perturbation_probe(net, ds, cfg, j, samples=512, seed=0) -> ProbeResult:
    """Test helper: sampled supremum of |sum_i l'_i (-y_i) (u.f_i + v)_+^2| over unit (u, v).

    Block j must be inactive: repointing an inactive block along (u, v) at
    amplitude delta changes the loss by delta^3 (lam_j - drive) + o(delta^3),
    so any direction driving past lam_j certifies descent.  The sample set
    mixes random unit directions with the lifted data directions (f_i; 1),
    which activate their own sample and are the natural extremal candidates.
    """
    bn = block_norms_oracle(net)
    if bn[j] > 1e-8:
        raise ValueError(f"block {j} is not inactive (norm {bn[j]:.3e})")
    F = net.head_inputs(ds.X)
    lp = objective.loss_deriv(cfg.loss, -ds.y * net.value(ds.X))
    coef = lp * (-ds.y)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, F.shape[1] + 1))
    L = lifted(F)
    dirs = np.vstack([dirs, L, -L])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    act = np.maximum(F @ dirs[:, :-1].T + dirs[:, -1], 0.0) ** 2
    drives = np.abs(coef @ act)
    best = int(np.argmax(drives))
    return ProbeResult(float(drives[best]), dirs[best], float(cfg.lam[j]))



def test_probe_single_sample_closed_form():
    X = np.array([[2.0, 1.0]])
    ds = Dataset(X, np.array([-1]))
    m = 2
    net = SingleLayerReQUNet(np.zeros(m), np.zeros((m, 2)), np.zeros(m))
    cfg = ObjectiveConfig(loss=logistic(), lam=np.array([5.0, 6.0]))
    res = perturbation_probe(net, ds, cfg, j=0, samples=64, seed=3)
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
    res = perturbation_probe(net, ds, cfg, j=1, samples=32, seed=0)
    assert res.estimate == 0.0


def test_probe_requires_inactive_block(single_run):
    net, ds, cfg = single_run
    active = [j for j in range(net.m) if block_norms_oracle(net)[j] > 0]
    with pytest.raises(ValueError, match="not inactive"):
        perturbation_probe(net, ds, cfg, j=active[0])


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
        res = perturbation_probe(net, ds, cfg, j=0, samples=2048, seed=7)
        assert res.passed is expect_pass
        if sup is None:
            sup = res.estimate
        else:
            assert res.estimate == sup  # the drive does not depend on lam
    cfg = ObjectiveConfig(loss=logistic(), lam=1e-4 * np.array([1.0, 1.1, 1.2]))
    res = perturbation_probe(net, ds, cfg, j=0, samples=2048, seed=7)
    fob = objective.FlatObjective(net, ds, cfg)
    theta = net_to_flat(net).copy()
    base = fob.value(theta)
    delta = 1e-2
    drive = res.estimate  # pick the sign that works downhill
    lp = objective.loss_deriv(cfg.loss, -ds.y * net.value(ds.X))
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
        res = perturbation_probe(net, ds, cfg, j=j, samples=1024, seed=1)
        assert res.estimate < 2.0 * np.max(cfg.lam)
        if res.passed:
            continue
        lp = objective.loss_deriv(cfg.loss, -ds.y * net.value(ds.X))
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


@pytest.mark.parametrize("radius", [0.0, -1e-3, np.nan, np.inf])
def test_perturbation_stability_rejects_a_radius_that_is_not_positive_and_finite(radius):
    # At radius 0 every probe point was the base point itself: a minimum
    # loss change of 0, which reads as a stable local minimum.
    ds, net, cfg = build_bad_local_min(4, 2, np.full(2, 0.1))
    with pytest.raises(ValueError, match="radius"):
        landscape.perturbation_stability(net, ds, cfg, radius=radius, trials=10)


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
        return ([m_matrices(net, ds, cfg) for net in nets]
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


def serial_monte_carlo_matrices(ds, m, lam, trials, seed):
    """The certificate matrices certificate_matrix_monte_carlo draws, as one
    draw row and one build per trial, in trial order.  Trial t is row
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
        weights = z[:, None] * A[r].astype(float)
        per_trial.append(serial_certificate_sum_oracle(ds.lifted(), weights, lam))
    return per_trial


def serial_monte_carlo_oracle(ds, m, lam, trials, seed):
    """Each trial's max_j sigma_min from one kernel call on its m matrices."""
    mats = serial_monte_carlo_matrices(ds, m, lam, trials, seed)
    return np.array([sym_min_singular_values(Ms).max() for Ms in mats])


def monte_carlo_factored(monkeypatch, ds, m, lam, trials, seed):
    """certificate_matrix_monte_carlo's return and every matrix it factors,
    each with its sigma_min, read from the stacks it hands the kernel."""
    factored = []

    def recording(stack):
        sigma = sym_min_singular_values(stack)
        factored.extend(zip(stack.reshape(-1, *stack.shape[-2:]), sigma.reshape(-1)))
        return sigma

    with monkeypatch.context() as mp, warnings.catch_warnings():
        mp.setattr(landscape, "sym_min_singular_values", recording)
        warnings.simplefilter("ignore")  # m = n warns
        got = landscape.certificate_matrix_monte_carlo(ds, m, lam, trials, seed=seed)
    return got, factored


def assert_prunes_exactly(factored, mats):
    """Every factored matrix is an oracle M_tj with the oracle's sigma_min,
    none is factored more often than it is drawn, and every trial whose max
    is below the minimum of all earlier trials is factored in all m columns.
    Matrices are matched by content (+ 0.0 makes -0.0 entries +0.0), and an
    all-zero column of A draws the same lam_j I in many trials."""
    sigma = [sym_min_singular_values(Ms) for Ms in mats]
    want = np.array([s.max() for s in sigma])
    drawn, oracle_sigma = Counter(), {}
    for Ms, s in zip(mats, sigma):
        for M, s_j in zip(Ms, s):
            key = (M + 0.0).tobytes()
            drawn[key] += 1
            oracle_sigma[key] = s_j
    seen = Counter()
    for M, s_j in factored:
        key = (M + 0.0).tobytes()
        assert key in oracle_sigma and s_j == oracle_sigma[key]
        seen[key] += 1
    assert all(seen[key] <= drawn[key] for key in seen)
    earlier = np.minimum.accumulate(np.concatenate([[np.inf], want[:-1]]))
    needed = Counter((M + 0.0).tobytes() for t in np.flatnonzero(want < earlier)
                     for M in mats[t])
    assert all(seen[key] >= count for key, count in needed.items())


@pytest.mark.parametrize("n,m", [(5, 6), (8, 8), (8, 9)])
def test_monte_carlo_matches_serial_oracle(n, m, monkeypatch):
    ds = gen_random(n, 3, seed=n)
    lam = optimize.sample_lambda(m, 1e-2, seed=m)
    block = landscape.MC_BLOCK
    for trials in (block - 1, block, block + 1):
        got, factored = monte_carlo_factored(monkeypatch, ds, m, lam, trials, seed=1)
        mats = serial_monte_carlo_matrices(ds, m, lam, trials, seed=1)
        want = serial_monte_carlo_oracle(ds, m, lam, trials, seed=1)
        assert_prunes_exactly(factored, mats)
        assert len(factored) < trials * m  # pruning skips matrices
        assert got == want.min()


@pytest.mark.parametrize("n,m", [(5, 6), (8, 8), (8, 9)])
def test_monte_carlo_sigma_matches_svd_oracle(n, m):
    # min |eig| of the (symmetric to rounding) matrices against an SVD of
    # the whole matrix, trial by trial, to 1e-12 of the largest ||M_j||_F.
    ds = gen_random(n, 3, seed=n)
    lam = optimize.sample_lambda(m, 1e-2, seed=m)
    mats = serial_monte_carlo_matrices(ds, m, lam, 300, seed=1)
    want = serial_monte_carlo_oracle(ds, m, lam, 300, seed=1)
    svd = np.array([max(min_singular_value(M) for M in Ms) for Ms in mats])
    scale = np.array([max(np.linalg.norm(M) for M in Ms) for Ms in mats])
    assert np.all(np.abs(want - svd) <= 1e-12 * scale)


def test_monte_carlo_trials_are_a_prefix_of_a_longer_run(monkeypatch):
    # Trial t depends only on (seed, t): every block is drawn whole.
    ds = gen_random(5, 3, seed=5)
    lam = optimize.sample_lambda(6, 1e-2, seed=6)
    mats = serial_monte_carlo_matrices(ds, 6, lam, 4000, seed=3)
    want = serial_monte_carlo_oracle(ds, 6, lam, 4000, seed=3)
    for trials in (300, 4000):
        got, factored = monte_carlo_factored(monkeypatch, ds, 6, lam, trials, seed=3)
        assert_prunes_exactly(factored, mats[:trials])
        assert got == want[:trials].min()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       trials=st.integers(1, 3 * landscape.MC_BLOCK + 1),
       size=st.sampled_from([(5, 6), (8, 8), (8, 9), (3, 3), (4, 9)]))
def test_monte_carlo_equals_the_unpruned_min_max(seed, trials, size):
    n, m = size
    ds = gen_random(n, 3, seed=n)
    lam = optimize.sample_lambda(m, 1e-2, seed=m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m <= n warns
        got = landscape.certificate_matrix_monte_carlo(ds, m, lam, trials, seed=seed)
    assert got == serial_monte_carlo_oracle(ds, m, lam, trials, seed).min()


def test_monte_carlo_rejects_a_non_finite_matrix_it_never_factors(monkeypatch):
    # Pruning factors a few of a block's matrices, but every drawn matrix is
    # still checked: a NaN in one that is never factored raises, as before.
    ds = gen_random(5, 3, seed=5)
    lam = optimize.sample_lambda(6, 1e-2, seed=6)
    _, factored = monte_carlo_factored(monkeypatch, ds, 6, lam, 300, seed=3)
    mats = serial_monte_carlo_matrices(ds, 6, lam, 300, seed=3)
    seen = {(M + 0.0).tobytes() for M, _ in factored}
    t = next(t for t in range(200, landscape.MC_BLOCK)  # in the first block
             if (mats[t][-1] + 0.0).tobytes() not in seen)
    build = landscape._certificate_sum

    def poisoned(lifted, weights, lam):
        M = build(lifted, weights, lam)
        if len(M) > t:  # the block holding trial t; poison its column m - 1
            M[t, -1, 0, 0] = np.nan
        return M

    monkeypatch.setattr(landscape, "_certificate_sum", poisoned)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        landscape.certificate_matrix_monte_carlo(ds, 6, lam, 300, seed=3)


def test_monte_carlo_rejects_an_overflowing_dataset():
    ds = gen_random(5, 3, seed=5)
    X = ds.X.copy()
    X[0, 0] = 1e200  # its lifted outer product overflows to inf
    lam = optimize.sample_lambda(6, 1e-2, seed=6)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        landscape.certificate_matrix_monte_carlo(Dataset(X, ds.y), 6, lam, 300, seed=3)


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
        lam = np.random.default_rng(trial).standard_normal(5)
        res = landscape.overdetermined_no_solution(A, lam)
        assert res > 1e-10


def test_overdetermined_shape_check():
    with pytest.raises(ValueError, match="m >= n\\+1"):
        landscape.overdetermined_no_solution(np.ones((3, 3)), np.ones(3))


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
    (M0,) = m_matrices(net, ds, probe_cfg)[:1]
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
        [min_singular_value(M) for M in m_matrices(net, ds, cfg)]
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


def serial_injectivity_oracle(net, ds, tol=1e-12):
    """hidden_injectivity_check's pair search as a double loop over (i, j)."""
    H = net.head_inputs(ds.X)
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            if float(np.linalg.norm(H[i] - H[j])) <= tol:
                return False, (i, j)
    return True, None


def test_hidden_injectivity_matches_serial_oracle():
    rng = np.random.default_rng(5)
    net = optimize.init_deep(4, 2, 2, 3, seed=5)
    X = rng.standard_normal((9, 4))
    y = np.where(np.arange(9) % 2 == 0, 1, -1)
    cases = [X]
    for copies in ([(0, 1)], [(3, 8)], [(7, 8)], [(5, 2), (1, 6)], [(4, 0), (8, 4)]):
        Xd = X.copy()
        for src, dst in copies:
            Xd[dst] = Xd[src]
        cases.append(Xd)
    for Xc in cases:
        ds = Dataset(Xc, y)
        for tol in (1e-12, 0.6, 0.9):  # wide tolerances flag several pairs
            want = serial_injectivity_oracle(net, ds, tol)
            assert landscape.hidden_injectivity_check(net, ds, tol) == want
    assert landscape.hidden_injectivity_check(net, Dataset(X[:1], y[:1])) == (True, None)


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
    ds, net, cfg = build_bad_local_min(4, 2, np.full(2, 0.1))
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
    ds, net, cfg = build_bad_local_min(10, 3, lam, mode="generalized")
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
        assert np.isnan(objective.FlatObjective(net, ds, cfg).value(net_to_flat(net)))
        assert np.isnan(landscape.perturbation_stability(net, ds, cfg, trials=50))
        # A finite base with overflowing trials certifies nothing either.
        small = optimize.init_single(11, 3, seed=0)
        assert np.isfinite(objective.FlatObjective(small, ds, cfg).value(net_to_flat(small)))
        assert np.isnan(landscape.perturbation_stability(small, ds, cfg, radius=1e120, trials=5))
