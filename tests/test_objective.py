import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv_padded_oracle, finite_diff_oracle
from requland import datasets, models, numkit, objective
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


def test_logistic_deriv_equals_expit_oracle():
    # loss_deriv and the gradient's data term evaluate expit in Python floats
    # with libm's exp; trajectories stay bit for bit only if every value
    # equals scipy's expit, far tails and exp overflow included.
    special = pytest.importorskip("scipy.special")
    kind = objective.logistic()
    rng = np.random.default_rng(0)
    edges = [0.0, 709.78, 709.782712893384, 709.79, 710.0, 745.0, 746.0, np.inf]
    z = np.concatenate([
        rng.standard_normal(100_000) * 10.0 ** rng.uniform(-2.0, np.log10(300.0), 100_000),
        edges, np.negative(edges), [np.nan],
    ])
    want = special.expit(z) / LN2
    got = objective.loss_deriv(kind, z)
    assert got.shape == z.shape
    assert np.array_equal(got, want, equal_nan=True)
    tail = slice(z.size - 2 * len(edges) - 1, None)
    singles = [objective.loss_deriv(kind, x) for x in z[tail].tolist()]  # 0-d inputs
    assert all(np.shape(v) == () for v in singles)
    assert np.array_equal(singles, want[tail], equal_nan=True)
    w = rng.choice([-1.0, 1.0], z.size)
    weighted = objective._logistic_deriv(z.tolist(), w.tolist())
    assert np.array_equal(weighted, want * w, equal_nan=True)


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
    dim = net.input_dim
    ds = datasets.Dataset(np.zeros((1, dim)), np.array([1]))
    cfg = objective.ObjectiveConfig(objective.logistic(), lam, lam_c)
    data = float(np.sum(objective.loss_value(cfg.loss, -ds.y * net.value(ds.X))))
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
    fob = objective.FlatObjective(net, ds, cfg)
    assert fob.value(models.net_to_flat(net)) == pytest.approx(7.0)


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
    fob = objective.FlatObjective(net, ds, cfg)
    np.testing.assert_allclose(
        fob.grad(fob.forward(models.net_to_flat(net))), brute_single_gradient(net, ds, cfg),
        atol=1e-10,
    )


@pytest.mark.parametrize("loss", [objective.logistic(), objective.smooth_hinge(3)])
def test_gradient_fd_single(loss):
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = datasets.gen_random(5, 3, seed=int(rng.integers(1 << 30)))
        net = make_single(rng)
        cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m))
        assert finite_diff_oracle(net, ds, cfg) < 1e-6


def test_gradient_fd_quadratic():
    rng = np.random.default_rng(12)
    for _ in range(5):
        ds = datasets.gen_random(5, 3, seed=int(rng.integers(1 << 30)))
        net = make_single(rng, cls=QuadraticNet)
        cfg = objective.ObjectiveConfig(objective.logistic(), rng.uniform(0.05, 0.4, net.m))
        assert finite_diff_oracle(net, ds, cfg) < 1e-6


def test_gradient_fd_deep():
    rng = np.random.default_rng(13)
    for _ in range(5):
        net = make_deep(rng)
        ds = datasets.gen_random(4, net.input_dim, seed=int(rng.integers(1 << 30)))
        cfg = objective.ObjectiveConfig(
            objective.logistic(), rng.uniform(0.05, 0.4, net.m), lam_c=1.0
        )
        assert finite_diff_oracle(net, ds, cfg) < 1e-5


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
        dim = net.input_dim
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


def random_net(rng, family):
    """A random net of the family and a filter-anchor weight for it."""
    if family.startswith("deep"):
        return make_deep(rng, s=int(rng.integers(2, 4)), l=int(family[-1])), float(rng.uniform(0.5, 2.0))
    return make_single(rng, cls=QuadraticNet if family == "quadratic" else SingleLayerReQUNet), 0.0


def stacked_case(rng, family, t, K, loss):
    """A random net of the family, its FlatObjective on gen_random(6, ., t)
    with the given loss, and K points scattered around its parameters."""
    net, lam_c = random_net(rng, family)
    dim = net.input_dim
    ds = datasets.gen_random(6, dim, seed=t)
    cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m), lam_c)
    theta = models.net_to_flat(net)
    thetas = theta + rng.standard_normal((K, theta.size)) * 10.0 ** rng.uniform(-4, 0, (K, 1))
    return objective.FlatObjective(net, ds, cfg), thetas


@pytest.mark.parametrize("family", ["single", "quadratic", "deep-l2", "deep-l3", "deep-l4"])
def test_values_equals_value_at_every_row(family):
    # Exact equality, not approx: the stall probe, the escape grid and
    # perturbation_stability select from values what point-by-point value
    # loops selected.  K straddles the chunk size to cover chunk borders.
    rng = np.random.default_rng(17)
    chunk = objective.FlatObjective.CHUNK
    for t, K in enumerate((1, chunk - 1, chunk, chunk + 1)):
        loss = objective.logistic() if t % 2 else objective.smooth_hinge(3)
        fob, thetas = stacked_case(rng, family, t, K, loss)
        vals = fob.values(thetas)
        assert vals.shape == (K,)
        for k in range(K):
            assert vals[k] == fob.value(thetas[k])


def stack_row(fob, fwd, k):
    """forward(thetas[k]) cut out of fwd = forward(thetas): row k of every
    stacked array.  The data X, which a conv stack's first layer and a
    filterless head take as input, is never stacked."""
    value, (a, W, b, filts), (states, convs, pre, act, phi, f), z, u = fwd
    states = [fob.X] + [H[k] for H in states[1:]]
    convs = [(V[k], P[k]) for V, P in convs]
    return (value[k], (a[k], W[k], b[k], [v[k] for v in filts]),
            (states, convs, pre[k], act[k], phi[k], f[k]), z[k], u[k])


@pytest.mark.parametrize("family", ["single", "quadratic", "deep-l2", "deep-l3"])
def test_row_of_a_stacked_forward_equals_the_forward_of_that_row(family):
    # values, the escape grid and the stall probe read stacked passes; they
    # select what one forward per point would only if every array of a
    # stacked row is that point's, and so is the gradient read from it.
    rng = np.random.default_rng(19)
    for t, K in enumerate((1, 2, 8)):
        loss = objective.logistic() if t % 2 == 0 else objective.smooth_hinge(3)
        fob, thetas = stacked_case(rng, family, t, K, loss)
        stacked = fob.forward(thetas)
        for k in range(K):
            got, want = stack_row(fob, stacked, k), fob.forward(thetas[k])
            assert_same_forward(got, want)
            assert np.array_equal(fob.grad(got), fob.grad(want))


def _arrays(fwd):
    """Every array of a forward result, in order, nested tuples flattened."""
    if isinstance(fwd, (tuple, list)):
        return [x for part in fwd for x in _arrays(part)]
    return [fwd]


def assert_same_forward(got, want):
    """Every array of two forward results equal, shapes and bits."""
    got_arrays, want_arrays = _arrays(got), _arrays(want)
    assert len(got_arrays) == len(want_arrays)
    for x, y in zip(got_arrays, want_arrays):
        assert np.shape(x) == np.shape(y) and np.array_equal(x, y)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_hidden_states_equal_the_padded_convolution_sample_by_sample(l):
    # The oracle runs numpy's convolve one sample at a time, where the pass
    # multiplies banded matrices; both at one point and at each row of a stack.
    rng = np.random.default_rng(21)
    net = make_deep(rng, s=int(rng.integers(2, 4)), l=l)
    ds = datasets.gen_random(5, net.input_dim, seed=l)
    cfg = objective.ObjectiveConfig(objective.logistic(), np.full(net.m, 0.1))
    fob = objective.FlatObjective(net, ds, cfg)
    theta = models.net_to_flat(net)
    thetas = theta + rng.standard_normal((3, theta.size))
    stacked = fob.forward(thetas)
    cases = [(theta, fob.forward(theta))] + [(p, stack_row(fob, stacked, k)) for k, p in enumerate(thetas)]
    for point, fwd in cases:
        states, filts = fwd[2][0], fob.layout.split(point)[3]
        assert len(states) == l and states[0] is ds.X
        for i, x in enumerate(ds.X):
            h = x
            for v, H in zip(filts, states[1:]):
                h = conv_padded_oracle(v, h)
                h = np.where(h >= 0.0, h, net.slope * h)
                np.testing.assert_allclose(H[i], h, rtol=1e-12, atol=1e-12 * np.abs(h).max())
    kernel_states = fob.forward(theta)[2][0][1:]
    assert all(np.array_equal(H, G) for H, G in zip(net.hidden_states(ds.X), kernel_states))


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


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["single", "quadratic", "deep-l1", "deep-l2", "deep-l3", "deep-l4"]),
    n=st.integers(1, 40),
    d=st.integers(1, 36),
    m=st.integers(1, 12),
    K=st.integers(1, 2 * objective.FlatObjective.CHUNK + 1),
    hinge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_row_of_a_stack_equals_its_point(family, n, d, m, K, hinge, seed):
    # Exact equality over stack heights, data sizes, widths and depths, one
    # output column (m = 1) included; values also crosses CHUNK.
    rng = np.random.default_rng(seed)
    if family.startswith("deep"):
        net, lam_c = make_deep(rng, d=d, s=int(rng.integers(2, 4)), l=int(family[-1]), m=m), 1.0
    else:
        net, lam_c = make_single(rng, m=m, d=d, cls=QuadraticNet if family == "quadratic" else SingleLayerReQUNet), 0.0
    ds = datasets.gen_random(n, d, seed=seed % 1000)
    loss = objective.smooth_hinge(3) if hinge else objective.logistic()
    fob = objective.FlatObjective(net, ds, objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, m), lam_c))
    theta = models.net_to_flat(net)
    thetas = theta + rng.standard_normal((K, theta.size)) * 10.0 ** rng.uniform(-4, 0, (K, 1))
    vals = fob.values(thetas)
    assert all(vals[k] == fob.value(thetas[k]) for k in range(K))
    stacked = fob.forward(thetas)
    want = plain_grad_oracle(fob, plain_forward_oracle(fob, thetas))
    for k in range(K):
        fwd = fob.forward(thetas[k])
        assert_same_forward(stack_row(fob, stacked, k), fwd)
        point = fob.grad(fwd)
        assert np.array_equal(point, want[k])
        assert np.array_equal(fob.grad(stack_row(fob, stacked, k)), point)


@pytest.mark.parametrize("lam_c", [1.0, 0.0])
def test_overflowing_filter_anchor_is_inf_at_a_point_and_in_a_stack(lam_c):
    # (||v||^2 - 1)^2 overflows a float at ||v||^2 = 1e160; the Python-float
    # power raised OverflowError there.  The anchor is then inf, or 0.0 at
    # lam_c = 0, where the term is absent (not 0 * inf = NaN).  Every other
    # term stays finite.
    rng = np.random.default_rng(20)
    net = make_deep(rng, s=2, l=2)
    ds = datasets.gen_random(6, net.input_dim, seed=0)
    fob = objective.FlatObjective(net, ds, objective.ObjectiveConfig(objective.logistic(), np.full(net.m, 0.1), lam_c))
    theta = models.net_to_flat(net)
    big = theta.copy()
    big[-2:] = 1e80 / np.sqrt(2.0)
    anchor = np.inf if lam_c else 0.0
    assert fob._anchor(big[-2:]) == anchor
    assert fob._anchor(np.vstack([big[-2:], theta[-2:]]))[0] == anchor
    assert (fob.value(big) == np.inf) == bool(lam_c) and not np.isnan(fob.value(big))
    stack = np.vstack([theta, big])
    vals = fob.values(stack)
    assert vals[0] == fob.value(theta) and vals[1] == fob.value(big)
    assert fob.forward(stack)[0][1] == fob.value(big)


def plain_conv_matrix(v, d_z):
    """The banded conv matrix as the pass filled it before its gather index:
    zeros, then each band entry assigned, for a filter or a stack of them."""
    taps, cols = np.divmod(np.arange(v.shape[-1] * d_z), d_z)
    rows = cols + v.shape[-1] - 1 - taps
    V = np.zeros(v.shape[:-1] + (v.shape[-1] + d_z - 1, d_z))
    V.T[cols, rows] = v.T[taps]
    return V


def plain_forward_oracle(fob, theta):
    """FlatObjective.forward as plain formulas, network pass included: .sum,
    -y per call, loss_value, np.where's leaky ReLU, the assigned conv matrix."""
    params = fob.layout.split(theta)
    a, W, b, filts = params
    H, states, convs = fob.X, [fob.X], []
    for v in filts:
        V = plain_conv_matrix(v, H.shape[-1])
        P = H @ V.swapaxes(-1, -2)
        H = np.where(P >= 0.0, P, fob.slope * P)
        states.append(H)
        convs.append((V, P))
    pre = H @ W.swapaxes(-1, -2) + b[..., None, :]
    act = pre if fob.squared else np.maximum(pre, 0.0)
    phi = act * act
    out = states, convs, pre, act, phi, (phi @ a[..., None])[..., 0]
    z = -fob.y * out[-1]
    u = np.sqrt((W * W).sum(axis=-1) + b * b)
    reg = (fob.lam * (np.abs(a) ** 3 + 2.0 * u**3)).sum(axis=-1) / 3.0
    for v in filts:
        if v.ndim > 1:
            reg = reg + np.array([0.25 * fob.lam_c * (x - 1.0) ** 2 for x in numkit.row_dots(v).tolist()])
        else:
            reg = reg + 0.25 * fob.lam_c * (float(v @ v) - 1.0) ** 2
    value = objective.loss_value(fob.loss, z).sum(axis=-1) + reg
    return value, params, out, z, u


def plain_grad_oracle(fob, fwd):
    """FlatObjective.grad as plain formulas: 2 lam formed per use, .sum, and
    each filter tap a product and a sum over a window of a fresh np.pad of
    the layer's input.  A stacked forward result goes one row at a time,
    each row of every array cut by indexing, into a (K, size) array."""
    _, (a, W, b, filts), (states, convs, pre, act, phi, f), z, u = fwd
    if z.ndim > 1:
        return np.array([plain_grad_oracle(fob, (
            None, (a[k], W[k], b[k], [v[k] for v in filts]),
            ([states[0]] + [H[k] for H in states[1:]], [(V[k], P[k]) for V, P in convs],
             pre[k], act[k], phi[k], f[k]), z[k], u[k])) for k in range(len(z))])
    F, lam = states[-1], fob.lam
    g = -objective.loss_deriv(fob.loss, z) * fob.y
    S = g[:, None] * (2.0 * act)
    da = phi.T @ g + lam * np.abs(a) * a
    dW = (S.T @ F) * a[:, None] + 2.0 * lam[:, None] * u[:, None] * W
    db = S.sum(axis=0) * a + 2.0 * lam * u * b
    if not filts:
        return np.concatenate([da, dW.ravel(), db])
    dH = (S * a[None, :]) @ W
    dfilts = [None] * len(filts)
    for k in range(len(filts) - 1, -1, -1):
        v, H_prev, (V, P) = filts[k], states[k], convs[k]
        dpre = dH * np.where(P >= 0.0, 1.0, fob.slope)
        s = v.size
        Hp = np.pad(H_prev, ((0, 0), (s - 1, s - 1)))
        dv = np.array([(dpre * Hp[:, i : i + dpre.shape[1]]).sum() for i in range(s)])
        dv += fob.lam_c * (float(v @ v) - 1.0) * v
        dfilts[k] = dv
        if k > 0:
            dH = dpre @ V
    return np.concatenate([da, dW.ravel(), db, *dfilts])


def edge_points(fob, theta, rng):
    """theta, theta with one neuron block all zero, and for conv nets that
    point with a first filter (1, -1, 0, ...), which cancels to +0.0 on a
    constant row, (-1e-200, ...), whose products underflow to -0.0, and
    (-5e-324, ...), whose pre-activations times the slope round to -0.0.
    A pre-activation of -0.0 itself does not occur: the BLAS sums start
    from +0.0, so -0.0 products still sum to +0.0."""
    zero_block = theta.copy()
    zero_block[fob.layout.blocks()[int(rng.integers(fob.layout.m))]] = 0.0
    points = [theta, zero_block]
    if fob.layout.filter_sizes:
        lo, s = fob.layout.size - sum(fob.layout.filter_sizes), fob.layout.filter_sizes[0]
        cancel = np.zeros(s)
        cancel[:2] = 1.0, -1.0
        for first in (cancel, np.full(s, -1e-200), np.full(s, -5e-324)):
            p = zero_block.copy()
            p[lo : lo + s] = first
            points.append(p)
    return points


@pytest.mark.parametrize("family", ["single", "quadratic", "deep-l2", "deep-l3", "deep-l4"])
@pytest.mark.parametrize("loss", [objective.logistic(), objective.smooth_hinge(3)], ids=["logistic", "hinge"])
def test_lean_pass_equals_the_plain_formulas(family, loss):
    # Exact equality on every array: the pass makes fewer numpy calls but
    # the same arithmetic, so trajectories and artifacts stay byte-identical.
    # The data rows are a constant integer, +0.0, -0.0 and 1e-200-scale, so
    # kinks, signed zeros and underflow reach every layer.
    rng = np.random.default_rng(23)
    net, lam_c = random_net(rng, family)
    dim = net.input_dim
    X = datasets.gen_random(6, dim, seed=1).X
    X[0], X[1], X[2], X[3] = 2.0, 0.0, -0.0, 1e-200 * (1.0 + np.abs(X[3]))
    ds = datasets.Dataset(X, np.array([1, -1, 1, -1, 1, -1]))
    cfg = objective.ObjectiveConfig(loss, rng.uniform(0.05, 0.4, net.m), lam_c)
    fob = objective.FlatObjective(net, ds, cfg)
    points = edge_points(fob, models.net_to_flat(net), rng)
    for theta in points:
        fwd = fob.forward(theta)
        assert_same_forward(fwd, plain_forward_oracle(fob, theta))
        assert np.array_equal(fob.grad(fwd), plain_grad_oracle(fob, fwd))
    # Stack heights from 1 to CHUNK, around 256 among them, where BLAS may
    # pick another kernel for a product over the whole stack.
    scattered = points[0] + rng.standard_normal((480, points[0].size)) * 10.0 ** rng.uniform(-4, 0, (480, 1))
    for K in (1, 2, 3, 8, 17, 255, 256, 257, 480):
        stack = np.vstack([points, scattered])[:K]
        stacked = fob.forward(stack)
        assert_same_forward(stacked, plain_forward_oracle(fob, stack))
        for k in range(min(K, len(points) + 1)):
            want = plain_grad_oracle(fob, plain_forward_oracle(fob, stack[k]))
            assert np.array_equal(fob.grad(stack_row(fob, stacked, k)), want)


def deep_objective(rng, s, l, n=6):
    net = make_deep(rng, s=s, l=l)
    ds = datasets.gen_random(n, net.input_dim, seed=int(rng.integers(1 << 30)))
    cfg = objective.ObjectiveConfig(
        objective.logistic(), rng.uniform(0.05, 0.4, net.m), float(rng.uniform(0.5, 2.0))
    )
    return objective.FlatObjective(net, ds, cfg), models.net_to_flat(net)


@pytest.mark.parametrize("l", [2, 3])
def test_grad_equals_padded_filter_oracle(l):
    # Exact equality: the gathered windows hold the values of slices of a
    # fresh np.pad, so every tap sums the same products in the same order.
    rng = np.random.default_rng(19)
    for s in (2, 3):
        fob, theta = deep_objective(rng, s, l)
        for _ in range(100):
            point = theta + rng.standard_normal(theta.size) * 10.0 ** rng.uniform(-3, 0)
            np.testing.assert_array_equal(
                fob.grad(fob.forward(point)), plain_grad_oracle(fob, plain_forward_oracle(fob, point))
            )


def test_grad_buffer_carries_nothing_between_calls():
    # grad pads each conv input in a fresh bordered copy; points in any
    # order, with every forward taken before the first gradient and stacked
    # passes in between, change nothing.
    rng = np.random.default_rng(20)
    for s, l in ((3, 3), (2, 4)):
        fob, theta = deep_objective(rng, s, l)
        thetas = theta + rng.standard_normal((5, theta.size)) * 10.0 ** rng.uniform(-3, 0, (5, 1))
        want = plain_grad_oracle(fob, plain_forward_oracle(fob, thetas))
        stacked, tail = fob.forward(thetas), fob.forward(thetas[3:])
        points = [fob.forward(p) for p in thetas]
        for _ in range(2):
            for k in (4, 0, 2):
                np.testing.assert_array_equal(fob.grad(stack_row(fob, stacked, k)), want[k])
                np.testing.assert_array_equal(fob.grad(points[k]), want[k])
                np.testing.assert_array_equal(fob.grad(stack_row(fob, tail, 1)), want[4])
                np.testing.assert_array_equal(fob.value_and_grad(thetas[k])[1], want[k])


def instance_bytes(obj):
    """The bytes of every ndarray that an instance holds, in its lists and
    tuples too, keyed by where it sits."""
    found = {}

    def walk(key, value):
        if isinstance(value, np.ndarray):
            found[key] = value.tobytes()
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{key}[{i}]", item)

    for key, value in vars(obj).items():
        walk(key, value)
    return found


def test_flat_objective_keeps_no_per_call_state():
    # Nothing a call computes is written into the instance: every array it
    # holds has the bytes it had at construction, so one instance can serve
    # interleaved points and stacks, and threads, alike.
    rng = np.random.default_rng(22)
    for s, l in ((3, 3), (2, 4)):
        fob, theta = deep_objective(rng, s, l)
        before = instance_bytes(fob)
        assert any(key.startswith("taps") for key in before)
        thetas = theta + rng.standard_normal((4, theta.size))
        fob.grad(fob.forward(theta))
        fob.values(thetas)
        fob.grad(stack_row(fob, fob.forward(thetas), 1))
        assert instance_bytes(fob) == before


def test_inactive_neuron_block_has_zero_gradient():
    # A neuron with a = w = b = 0 sits at a flat spot of both terms.
    rng = np.random.default_rng(14)
    ds = datasets.gen_random(6, 2, seed=3)
    net = make_single(rng, m=3, d=2)
    net.a[1] = 0.0
    net.W[1] = 0.0
    net.b[1] = 0.0
    cfg = objective.ObjectiveConfig(objective.logistic(), np.array([0.1, 0.2, 0.3]))
    fob = objective.FlatObjective(net, ds, cfg)
    g = fob.grad(fob.forward(models.net_to_flat(net)))
    m, d = net.m, net.d
    assert g[1] == 0.0
    np.testing.assert_array_equal(g[m + d : m + 2 * d], 0.0)
    assert g[m + m * d + 1] == 0.0


def coercivity_gap_oracle(net, ds, cfg):
    """The objective minus its coercivity floor; negative means violation."""
    theta = models.net_to_flat(net)
    theta_norm = float(np.linalg.norm(theta))
    bound = objective.coercivity_lower_bound(theta_norm, float(np.min(cfg.lam)), net.m)
    return objective.FlatObjective(net, ds, cfg).value(theta) - bound


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
        loss = objective.FlatObjective(net, ds, cfg).value(models.net_to_flat(net))
        assert gap >= -1e-9 * (1.0 + loss)


@settings(max_examples=80, deadline=None)
@given(
    l=st.sampled_from([2, 3]),
    lam_c=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-2.0, 40.0),
    log_t=st.floats(-6.0, 6.0),
)
def test_coercivity_floor_bounds_deep_nets_at_their_head_norm(l, lam_c, seed, log_scale, log_t):
    # The cubic term covers exactly the head coordinates (a, W, b), and the
    # data term and the filter anchor are >= 0, so the floor at the head's
    # norm bounds a deep net's objective too.  Scaling the first filter by t
    # and W by 1/t keeps every output: with lam_c = 0 the objective can then
    # fall while ||theta|| grows without bound, yet never below the floor.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    net = make_deep(rng, d=3, s=2, l=l, m=m)
    scale, t = 10.0**log_scale, 10.0**log_t
    filts = (t * net.filters[0],) + net.filters[1:]
    net = DeepConvNet(filts, scale * net.a, scale * net.W / t, scale * net.b, net.slope)
    ds = datasets.gen_random(5, 3, seed=seed % 1000)
    lam = rng.uniform(0.01, 1.0, m)
    fob = objective.FlatObjective(net, ds, objective.ObjectiveConfig(objective.logistic(), lam, lam_c))
    value = fob.value(models.net_to_flat(net))
    head = np.concatenate([net.a, net.W.ravel(), net.b])
    floor = objective.coercivity_lower_bound(np.linalg.norm(head), float(np.min(lam)), m)
    assert np.isfinite(value)
    assert value >= floor - 1e-9 * (1.0 + value)


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


def test_coercivity_lower_bounds_equal_the_floor_one_norm_at_a_time():
    # Norms past the cube's overflow send the list down its slow path.
    for top in (3.0, 110.0):
        norms = (10.0 ** np.random.default_rng(3).uniform(-2.0, top, 500)).tolist()
        got = objective.coercivity_lower_bounds(norms, 0.0123, 11)
        assert got == [objective.coercivity_lower_bound(t, 0.0123, 11) for t in norms]
        assert (np.inf in got) == (top > 100)


def test_epsilon_criterion_on_confident_net():
    ds = datasets.Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    net = SingleLayerReQUNet(
        np.array([10.0, -10.0]), np.array([[1.0], [-1.0]]), np.zeros(2)
    )
    cfg = objective.ObjectiveConfig(objective.logistic(), np.full(2, 0.1))
    # Every loss derivative below epsilon forces every margin positive.
    assert np.max(objective.loss_deriv(cfg.loss, -ds.y * net.value(ds.X))) < cfg.loss.epsilon
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
        objective.FlatObjective(net, ds, cfg)
