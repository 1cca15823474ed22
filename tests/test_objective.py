import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from requland import datasets, models, objective
from requland.models import DeepConvNet, QuadraticNet, SingleLayerReQUNet

LN2 = np.log(2.0)


def make_single(rng, m=4, d=3, cls=SingleLayerReQUNet):
    return cls(rng.standard_normal(m), rng.standard_normal((m, d)), rng.standard_normal(m))


def make_deep(rng, d=4, s=2, l=3, m=5):
    head = d + (l - 1) * (s - 1)
    return DeepConvNet(
        tuple(rng.standard_normal(s) for _ in range(l - 1)),
        rng.standard_normal(m),
        rng.standard_normal((m, head)),
        rng.standard_normal(m),
        0.2,
    )


def test_logistic_pinned_values():
    kind = objective.logistic()
    assert objective.loss_value(kind, 0.0) == pytest.approx(1.0)
    assert objective.loss_deriv(kind, 0.0) == pytest.approx(1.0 / (2.0 * LN2))
    assert kind.epsilon == pytest.approx(0.7213475204444817)


def test_smooth_hinge_pinned_values():
    kind = objective.smooth_hinge(3)
    assert objective.loss_value(kind, -1.0) == 0.0
    assert objective.loss_deriv(kind, -1.0) == 0.0
    assert objective.loss_value(kind, 0.0) == pytest.approx(1.0)
    assert objective.loss_deriv(kind, 0.0) == pytest.approx(3.0)
    assert kind.epsilon == 3.0
    assert objective.smooth_hinge(5).epsilon == 5.0


def test_loss_kind_validation():
    with pytest.raises(ValueError):
        objective.LossKind("zero_one")
    with pytest.raises(ValueError):
        objective.smooth_hinge(2)


@pytest.mark.parametrize("kind", [objective.logistic(), objective.smooth_hinge(3)])
def test_loss_is_nonnegative_and_nondecreasing(kind):
    z = np.linspace(-50, 50, 2001)
    vals = objective.loss_value(kind, z)
    derivs = objective.loss_deriv(kind, z)
    assert np.all(vals >= 0)
    assert np.all(derivs >= 0)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("kind", [objective.logistic(), objective.smooth_hinge(4)])
def test_loss_deriv_matches_finite_difference(kind):
    z = np.linspace(-3, 3, 41)
    h = 1e-6
    fd = (objective.loss_value(kind, z + h) - objective.loss_value(kind, z - h)) / (2 * h)
    np.testing.assert_allclose(objective.loss_deriv(kind, z), fd, atol=1e-8)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 1e6))
@pytest.mark.parametrize("kind", [objective.logistic(), objective.smooth_hinge(3)])
def test_small_derivative_implies_negative_argument(kind, z):
    if objective.loss_deriv(kind, z) < kind.epsilon:
        assert z < 0


def test_losses_stable_in_far_tails():
    kind = objective.logistic()
    big = objective.loss_value(kind, 1e9)
    assert np.isfinite(big) and big == pytest.approx(1e9 / LN2)
    assert objective.loss_value(kind, -1e9) == 0.0
    assert objective.loss_deriv(kind, 1e9) == pytest.approx(1.0 / LN2)
    hinge = objective.smooth_hinge(3)
    assert np.isfinite(objective.loss_value(hinge, 1e9))


def kernel_regularizer(net, lam, lam_c=0.0):
    """The kernel's objective less its data term, on one sample."""
    dim = net.input_dim if isinstance(net, DeepConvNet) else net.d
    ds = datasets.Dataset(np.zeros((1, dim)), np.array([1]))
    cfg = objective.ObjectiveConfig(objective.logistic(), lam, lam_c)
    data = float(np.sum(objective.loss_value(cfg.loss, objective.margins(net, ds))))
    return objective.FlatObjective(net, ds, cfg).value(models.net_to_flat(net)) - data


def test_regularizer_single_pinned():
    net = SingleLayerReQUNet(np.array([1.0]), np.array([[0.0]]), np.array([1.0]))
    assert kernel_regularizer(net, np.array([3.0])) == pytest.approx(3.0)


def test_regularizer_deep_pinned():
    net = DeepConvNet(
        (np.array([1.0, 1.0]),),  # ||v||^2 = 2
        np.array([0.0]),
        np.zeros((1, 3)),
        np.array([0.0]),
        0.5,
    )
    assert kernel_regularizer(net, np.array([1.0]), lam_c=4.0) == pytest.approx(1.0)
    zero = DeepConvNet(
        (np.zeros(2), np.zeros(2)), np.array([0.0]), np.zeros((1, 4)), np.array([0.0]), 0.5
    )
    # Each zero filter contributes (lam_c/4) * 1.
    assert kernel_regularizer(zero, np.array([1.0]), lam_c=4.0) == pytest.approx(2.0)


def test_empirical_loss_of_zero_net():
    ds = datasets.gen_random(7, 2, seed=0)
    net = SingleLayerReQUNet(np.zeros(3), np.zeros((3, 2)), np.zeros(3))
    cfg = objective.ObjectiveConfig(objective.logistic(), np.full(3, 0.1))
    assert objective.empirical_loss(net, ds, cfg) == pytest.approx(7.0)


def test_training_error_counts_zero_output_as_error():
    ds = datasets.Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    zero = SingleLayerReQUNet(np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    assert objective.training_error(zero, ds) == 1.0
    # One neuron classifying x > 0 as positive: second sample has f = 0.
    net = SingleLayerReQUNet(np.array([1.0]), np.array([[1.0]]), np.array([0.0]))
    assert objective.training_error(net, ds) == 0.5


def test_training_error_zero_when_margins_positive():
    ds = datasets.Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    net = SingleLayerReQUNet(np.array([1.0, -1.0]), np.array([[1.0], [-1.0]]), np.zeros(2))
    assert objective.training_error(net, ds) == 0.0


def brute_single_gradient(net, ds, cfg):
    """Per-neuron stationarity formulas, written as plain loops."""
    n, m, d = ds.n, net.m, net.d
    f = net.value(ds.X)
    lp = objective.loss_deriv(cfg.loss, -ds.y * f)
    da = np.zeros(m)
    dW = np.zeros((m, d))
    db = np.zeros(m)
    for j in range(m):
        uj = np.sqrt(net.W[j] @ net.W[j] + net.b[j] ** 2)
        for i in range(n):
            pre = net.W[j] @ ds.X[i] + net.b[j]
            da[j] += -lp[i] * ds.y[i] * max(pre, 0.0) ** 2
            dW[j] += -2.0 * lp[i] * ds.y[i] * net.a[j] * max(pre, 0.0) * ds.X[i]
            db[j] += -2.0 * lp[i] * ds.y[i] * net.a[j] * max(pre, 0.0)
        da[j] += cfg.lam[j] * abs(net.a[j]) * net.a[j]
        dW[j] += 2.0 * cfg.lam[j] * uj * net.W[j]
        db[j] += 2.0 * cfg.lam[j] * uj * net.b[j]
    return np.concatenate([da, dW.ravel(), db])


def test_gradient_matches_stationarity_formulas():
    rng = np.random.default_rng(10)
    ds = datasets.gen_random(6, 3, seed=5)
    net = make_single(rng)
    cfg = objective.ObjectiveConfig(objective.logistic(), rng.uniform(0.05, 0.4, net.m))
    np.testing.assert_allclose(
        objective.gradient(net, ds, cfg), brute_single_gradient(net, ds, cfg), atol=1e-10
    )


@pytest.mark.parametrize("loss", [objective.logistic(), objective.smooth_hinge(3)])
def test_gradient_fd_single(loss):
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = datasets.gen_random(5, 3, seed=int(rng.integers(1 << 30)))
        net = make_single(rng)
        cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m))
        assert objective.finite_diff_check(net, ds, cfg) < 1e-6


def test_gradient_fd_quadratic():
    rng = np.random.default_rng(12)
    for _ in range(5):
        ds = datasets.gen_random(5, 3, seed=int(rng.integers(1 << 30)))
        net = make_single(rng, cls=QuadraticNet)
        cfg = objective.ObjectiveConfig(objective.logistic(), rng.uniform(0.05, 0.4, net.m))
        assert objective.finite_diff_check(net, ds, cfg) < 1e-6


def test_gradient_fd_deep():
    rng = np.random.default_rng(13)
    for _ in range(5):
        net = make_deep(rng)
        ds = datasets.gen_random(4, net.input_dim, seed=int(rng.integers(1 << 30)))
        cfg = objective.ObjectiveConfig(
            objective.logistic(), rng.uniform(0.05, 0.4, net.m), lam_c=1.0
        )
        assert objective.finite_diff_check(net, ds, cfg) < 1e-5


@pytest.mark.parametrize("family", ["single", "quadratic", "deep-l2", "deep-l3", "deep-l4"])
def test_value_gradient_and_generic_paths_are_one_function(family):
    # Exact equality, not approx: the trainer's Armijo test compares value
    # against value_and_grad, and certify audits the function train minimized.
    rng = np.random.default_rng(16)
    for t in range(100):
        if family.startswith("deep"):
            net = make_deep(rng, s=int(rng.integers(2, 4)), l=int(family[-1]))
            lam_c = float(rng.uniform(0.5, 2.0))
        else:
            net = make_single(rng, cls=QuadraticNet if family == "quadratic" else SingleLayerReQUNet)
            lam_c = 0.0
        dim = net.input_dim if isinstance(net, DeepConvNet) else net.d
        ds = datasets.gen_random(6, dim, seed=t)
        loss = objective.logistic() if t % 2 else objective.smooth_hinge(3)
        cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m), lam_c)
        fob = objective.FlatObjective(net, ds, cfg)
        theta = models.net_to_flat(net)
        value, grad = fob.value_and_grad(theta)
        assert fob.value(theta) == value
        assert objective.empirical_loss(models.net_from_flat(net, theta), ds, cfg) == value
        generic_value, generic_grad = objective.value_and_gradient(net, ds, cfg)
        assert generic_value == value
        np.testing.assert_array_equal(generic_grad, grad)
        fwd = fob.forward(theta)  # what the trainer's line search keeps
        assert float(fwd[0]) == value
        np.testing.assert_array_equal(fob.grad(fwd), grad)


@pytest.mark.parametrize("family", ["single", "quadratic", "deep-l2", "deep-l3", "deep-l4"])
def test_values_equals_value_at_every_row(family):
    # Exact equality, not approx: the stall probe, the escape grid and
    # perturbation_stability select from values what point-by-point value
    # loops selected.  K straddles the chunk size to cover chunk borders.
    rng = np.random.default_rng(17)
    chunk = objective.FlatObjective.CHUNK
    for t, K in enumerate((1, chunk - 1, chunk, chunk + 1)):
        if family.startswith("deep"):
            net = make_deep(rng, s=int(rng.integers(2, 4)), l=int(family[-1]))
            lam_c = float(rng.uniform(0.5, 2.0))
        else:
            net = make_single(rng, cls=QuadraticNet if family == "quadratic" else SingleLayerReQUNet)
            lam_c = 0.0
        dim = net.input_dim if isinstance(net, DeepConvNet) else net.d
        ds = datasets.gen_random(6, dim, seed=t)
        loss = objective.logistic() if t % 2 else objective.smooth_hinge(3)
        cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m), lam_c)
        fob = objective.FlatObjective(net, ds, cfg)
        theta = models.net_to_flat(net)
        thetas = theta + rng.standard_normal((K, theta.size)) * 10.0 ** rng.uniform(-4, 0, (K, 1))
        vals = fob.values(thetas)
        assert vals.shape == (K,)
        for k in range(K):
            assert vals[k] == fob.value(thetas[k])


def test_stacked_filter_anchor_equals_one_filter_at_a_time():
    # A last-bit difference in the anchor is often absorbed by the sum in
    # values, so it is pinned alone: numpy's vectorized square of the same
    # v.v differs from the 1-D path in about 1 row in 1000 here.
    rng = np.random.default_rng(18)
    net = make_deep(rng, s=3)
    ds = datasets.gen_random(6, net.input_dim, seed=0)
    cfg = objective.ObjectiveConfig(objective.logistic(), np.full(net.m, 0.1), 1.3)
    fob = objective.FlatObjective(net, ds, cfg)
    V = rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-1, 1, (20000, 1))
    got = fob._anchor(V)
    assert got.shape == (20000,)
    assert all(got[i] == fob._anchor(V[i]) for i in range(len(V)))


def padded_filter_grad_oracle(fob, theta):
    """The gradient as the backprop took it with a fresh np.pad of each conv
    layer's input per call, before grad kept one zero-bordered buffer."""
    _, (a, W, b, filts), layers, F, act, phi, z, u = fob.forward(theta)
    lam = fob.lam
    g = -objective.loss_deriv(fob.loss, z) * fob.y
    S = g[:, None] * (2.0 * act)
    da = phi.T @ g + lam * np.abs(a) * a
    dW = (S.T @ F) * a[:, None] + 2.0 * lam[:, None] * u[:, None] * W
    db = S.sum(axis=0) * a + 2.0 * lam * u * b
    dH = (S * a[None, :]) @ W
    dfilts = [None] * len(filts)
    for k in range(len(filts) - 1, -1, -1):
        v, (H_prev, V, P) = filts[k], layers[k]
        dpre = dH * np.where(P >= 0.0, 1.0, fob.slope)
        s = v.size
        Hp = np.pad(H_prev, ((0, 0), (s - 1, s - 1)))
        dv = np.array([(dpre * Hp[:, i : i + dpre.shape[1]]).sum() for i in range(s)])
        dv += fob.lam_c * (float(v @ v) - 1.0) * v
        dfilts[k] = dv
        if k > 0:
            dH = dpre @ V
    return np.concatenate([da, dW.ravel(), db, *dfilts])


def deep_objective(rng, s, l, n=6):
    net = make_deep(rng, s=s, l=l)
    ds = datasets.gen_random(n, net.input_dim, seed=int(rng.integers(1 << 30)))
    cfg = objective.ObjectiveConfig(
        objective.logistic(), rng.uniform(0.05, 0.4, net.m), float(rng.uniform(0.5, 2.0))
    )
    return objective.FlatObjective(net, ds, cfg), models.net_to_flat(net)


@pytest.mark.parametrize("l", [2, 3])
def test_grad_equals_padded_filter_oracle(l):
    # Exact equality: the buffer holds the same zero-bordered values as
    # np.pad made, in the same layout, so every tap sums the same products.
    rng = np.random.default_rng(19)
    for s in (2, 3):
        fob, theta = deep_objective(rng, s, l)
        for _ in range(100):
            point = theta + rng.standard_normal(theta.size) * 10.0 ** rng.uniform(-3, 0)
            np.testing.assert_array_equal(
                fob.grad(fob.forward(point)), padded_filter_grad_oracle(fob, point)
            )


def test_grad_buffer_carries_nothing_between_calls():
    # grad rewrites the kept buffer's interior on every call; alternating
    # two points, and forwards taken before either gradient, changes nothing.
    rng = np.random.default_rng(20)
    fob, theta = deep_objective(rng, 3, 3)
    first, second = theta, theta + rng.standard_normal(theta.size)
    want = [padded_filter_grad_oracle(fob, p) for p in (first, second)]
    fwds = [fob.forward(p) for p in (first, second)]
    for _ in range(3):
        for k in (1, 0):
            np.testing.assert_array_equal(fob.grad(fwds[k]), want[k])
            np.testing.assert_array_equal(fob.value_and_grad((first, second)[k])[1], want[k])


def test_inactive_neuron_block_has_zero_gradient():
    # A neuron with a = w = b = 0 sits at a flat spot of both terms.
    rng = np.random.default_rng(14)
    ds = datasets.gen_random(6, 2, seed=3)
    net = make_single(rng, m=3, d=2)
    net.a[1] = 0.0
    net.W[1] = 0.0
    net.b[1] = 0.0
    cfg = objective.ObjectiveConfig(objective.logistic(), np.array([0.1, 0.2, 0.3]))
    g = objective.gradient(net, ds, cfg)
    m, d = net.m, net.d
    assert g[1] == 0.0
    np.testing.assert_array_equal(g[m + d : m + 2 * d], 0.0)
    assert g[m + m * d + 1] == 0.0


def coercivity_gap_oracle(net, ds, cfg):
    """empirical_loss minus its coercivity floor; negative means violation."""
    theta_norm = float(np.linalg.norm(models.net_to_flat(net)))
    bound = objective.coercivity_lower_bound(theta_norm, float(np.min(cfg.lam)), net.m)
    return objective.empirical_loss(net, ds, cfg) - bound


def test_coercivity_bound_holds_at_scale():
    rng = np.random.default_rng(15)
    ds = datasets.gen_random(5, 3, seed=9)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        net = make_single(rng, m=m)
        scale = 10.0 ** rng.uniform(-1, 3)
        net = SingleLayerReQUNet(scale * net.a, scale * net.W, scale * net.b)
        cfg = objective.ObjectiveConfig(objective.logistic(), rng.uniform(0.01, 1.0, m))
        gap = coercivity_gap_oracle(net, ds, cfg)
        loss = objective.empirical_loss(net, ds, cfg)
        assert gap >= -1e-9 * (1.0 + loss)


def test_coercivity_bound_past_float_overflow():
    # ||theta||^3 overflows a float at both norms; the floor is infinite at
    # 1e110 and finite at 1e103 (about 7.1e306), and neither may raise.
    assert objective.coercivity_lower_bound(1e110, 0.1, 11) == np.inf
    assert objective.coercivity_lower_bound(np.float64(1e110), 0.1, 11) == np.inf
    c = 0.1 / (3.0 * np.sqrt(22.0))
    for norm in (1e103, np.float64(1e103)):
        floor = objective.coercivity_lower_bound(norm, 0.1, 11)
        assert np.isfinite(floor)
        assert floor == pytest.approx(c * 1e9 * 1e300, rel=1e-12)  # c * 1e309
    # Below the overflow the floor is the plain formula, to the last bit.
    assert objective.coercivity_lower_bound(2.0, 0.1, 11) == c * 2.0**3


def test_epsilon_criterion_on_confident_net():
    ds = datasets.Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    net = SingleLayerReQUNet(
        np.array([10.0, -10.0]), np.array([[1.0], [-1.0]]), np.zeros(2)
    )
    cfg = objective.ObjectiveConfig(objective.logistic(), np.full(2, 0.1))
    # Every loss derivative below epsilon forces every margin positive.
    assert objective.max_loss_deriv(net, ds, cfg) < cfg.loss.epsilon
    assert objective.training_error(net, ds) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        objective.ObjectiveConfig(objective.logistic(), np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        objective.ObjectiveConfig(objective.logistic(), np.array([0.1]), lam_c=-1.0)
    cfg = objective.ObjectiveConfig(objective.logistic(), np.array([0.1, 0.1]))
    ds = datasets.gen_random(3, 2, seed=0)
    net = SingleLayerReQUNet(np.zeros(3), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        objective.empirical_loss(net, ds, cfg)
