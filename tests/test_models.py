import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from requland import models
from requland.models import DeepConvNet, QuadraticNet, SingleLayerReQUNet
from requland.optimize import init_deep


def random_single(rng, m=4, d=3, cls=SingleLayerReQUNet):
    return cls(rng.standard_normal(m), rng.standard_normal((m, d)), rng.standard_normal(m))

def random_deep(rng, d=4, s=2, l=3, m=5, slope=0.2):
    head = d + (l - 1) * (s - 1)
    return DeepConvNet(
        tuple(rng.standard_normal(s) for _ in range(l - 1)),
        rng.standard_normal(m),
        rng.standard_normal((m, head)),
        rng.standard_normal(m),
        slope,
    )


def central_difference(f, z, h):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def test_requ_values_and_derivative():
    z = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(models.requ(z), [0.0, 0.0, 9.0])
    np.testing.assert_allclose(central_difference(models.requ, z, 1e-6), [0.0, 0.0, 6.0], atol=1e-6)


def test_requ_is_c1_at_kink():
    # Derivative estimates on both sides of 0 agree and shrink with the
    # distance to 0: the derivative is continuous there.
    for h in (1e-4, 1e-6):
        left = central_difference(models.requ, -h, 0.1 * h)
        right = central_difference(models.requ, h, 0.1 * h)
        assert left == 0.0
        assert abs(right - 2.0 * h) < 1e-6 * h


def test_deep_net_rejects_slopes_outside_the_open_unit_interval():
    for slope in (1.5, 1.0, 0.0, -0.25):
        with pytest.raises(ValueError, match="leaky slope"):
            DeepConvNet((np.ones(2),), np.ones(1), np.ones((1, 4)), np.ones(1), slope)


def test_forward_single_matches_neuron_loop():
    rng = np.random.default_rng(0)
    net = random_single(rng)
    for _ in range(10):
        x = rng.standard_normal(net.d)
        want = sum(
            net.a[j] * max(net.W[j] @ x + net.b[j], 0.0) ** 2 for j in range(net.m)
        )
        np.testing.assert_allclose(net.value(x)[0], want, atol=1e-12)


def test_forward_quadratic_matches_neuron_loop():
    rng = np.random.default_rng(1)
    net = random_single(rng, cls=QuadraticNet)
    for _ in range(10):
        x = rng.standard_normal(net.d)
        want = sum(net.a[j] * (net.W[j] @ x + net.b[j]) ** 2 for j in range(net.m))
        np.testing.assert_allclose(net.value(x)[0], want, atol=1e-12)


def test_forward_deep_worked_example():
    # One filter (1, 2), slope 1/2, one neuron w=(1,0,-1), b=-1, a=2.
    net = DeepConvNet(
        (np.array([1.0, 2.0]),),
        np.array([2.0]),
        np.array([[1.0, 0.0, -1.0]]),
        np.array([-1.0]),
        slope=0.5,
    )
    X = np.array([[3.0, 4.0], [-3.0, 4.0]])
    (hidden,) = net.hidden_states(X)
    np.testing.assert_allclose(hidden[0], [6.0, 11.0, 4.0])
    np.testing.assert_allclose(hidden[1], [-3.0, 5.0, 4.0])  # leaky kicks in on -6
    out = net.value(X)
    assert out[0] == pytest.approx(2.0 * (6.0 - 4.0 - 1.0) ** 2)
    assert out[1] == pytest.approx(0.0)  # preactivation -8 is clipped by requ


def test_hidden_dims_grow_by_s_minus_one():
    rng = np.random.default_rng(2)
    net = random_deep(rng, d=5, s=3, l=4)
    hidden = net.hidden_states(rng.standard_normal((6, 5)))
    assert [H.shape for H in hidden] == [(6, 7), (6, 9), (6, 11)]
    assert net.head_dim == 5 + 3 * 2 and net.input_dim == 5


def test_deep_with_no_filters_equals_single_layer():
    rng = np.random.default_rng(3)
    single = random_single(rng, m=3, d=4)
    deep = DeepConvNet((), single.a, single.W, single.b, slope=0.3)
    X = rng.standard_normal((8, 4))
    np.testing.assert_allclose(deep.value(X), single.value(X), atol=1e-12)
    # A single-layer net presents the head interface of a stack with no filters.
    assert single.filters == () and single.input_dim == deep.input_dim == 4
    np.testing.assert_array_equal(single.head_inputs(X), deep.head_inputs(X))
    assert models.FlatLayout.of(single) == models.FlatLayout.of(deep)
    np.testing.assert_array_equal(models.net_to_flat(single), models.net_to_flat(deep))


def test_flat_round_trip_and_layout():
    rng = np.random.default_rng(4)
    net = random_deep(rng, d=3, s=2, l=3, m=2)
    theta = models.net_to_flat(net)
    m, width = net.W.shape
    np.testing.assert_array_equal(theta[:m], net.a)
    np.testing.assert_array_equal(theta[m : m + m * width], net.W.ravel())
    np.testing.assert_array_equal(theta[m + m * width : m * (width + 2)], net.b)
    np.testing.assert_array_equal(theta[m * (width + 2) :], np.concatenate(net.filters))
    back = models.net_from_flat(net, theta)
    np.testing.assert_array_equal(models.net_to_flat(back), theta)
    with pytest.raises(ValueError):
        models.net_from_flat(net, theta[:-1])
    blocks = models.FlatLayout.of(net).blocks()
    for j in range(m):
        np.testing.assert_array_equal(theta[blocks[j]], [net.a[j], *net.W[j], net.b[j]])


def test_quadratic_net_is_a_single_layer_net_with_the_square():
    rng = np.random.default_rng(10)
    quad = random_single(rng, cls=QuadraticNet)
    assert isinstance(quad, SingleLayerReQUNet)
    X = rng.standard_normal((6, quad.d))
    pre = X @ quad.W.T + quad.b
    np.testing.assert_array_equal(quad.value(X), np.square(pre) @ quad.a)
    requ_net = SingleLayerReQUNet(quad.a, quad.W, quad.b)
    np.testing.assert_array_equal(requ_net.value(X), models.requ(pre) @ quad.a)


def test_scale_params_homogeneity_single():
    rng = np.random.default_rng(5)
    net = random_single(rng)
    for _ in range(20):
        x = rng.standard_normal(net.d)
        r = rng.uniform(0.2, 3.0, size=2)
        assert models.positive_homogeneity_check(net, x, r) < 1e-12


def test_scale_params_homogeneity_quadratic():
    rng = np.random.default_rng(6)
    net = random_single(rng, cls=QuadraticNet)
    for _ in range(20):
        x = rng.standard_normal(net.d)
        r = rng.uniform(0.2, 3.0, size=2)
        assert models.positive_homogeneity_check(net, x, r) < 1e-12


def test_scale_params_homogeneity_deep():
    rng = np.random.default_rng(7)
    net = random_deep(rng)
    for _ in range(20):
        x = rng.standard_normal(net.input_dim)
        r = rng.uniform(0.2, 3.0, size=net.l + 1)
        assert models.positive_homogeneity_check(net, x, r) < 1e-12


def test_scale_params_rejects_nonpositive():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        models.scale_params(random_single(rng), [1.0, -1.0])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    for net in (random_single(rng), random_single(rng, cls=QuadraticNet), random_deep(rng)):
        path = tmp_path / "net.json"
        models.save_net(net, path)
        back = models.load_net(path)
        assert type(back) is type(net)
        np.testing.assert_array_equal(models.net_to_flat(back), models.net_to_flat(net))
        if isinstance(net, DeepConvNet):
            assert back.slope == net.slope


def test_checkpoint_corruption(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not a valid checkpoint"):
        models.load_net(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="format"):
        models.load_net(path)
    path.write_text(
        '{"format": "requland-checkpoint", "version": 1, "kind": "single_requ", '
        '"m": 2, "width": 2, "params": [1, 2, 3]}'
    )
    with pytest.raises(ValueError, match="corrupt"):
        models.load_net(path)


def test_shape_validation():
    with pytest.raises(ValueError):
        SingleLayerReQUNet(np.zeros(2), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        DeepConvNet((np.zeros(2), np.zeros(3)), np.zeros(1), np.zeros((1, 4)), np.zeros(1))
    with pytest.raises(ValueError):
        DeepConvNet((np.zeros(9),), np.zeros(1), np.zeros((1, 4)), np.zeros(1))


@st.composite
def any_net(draw):
    """A network of any of the three kinds with arbitrary finite parameters."""
    cls = draw(st.sampled_from([SingleLayerReQUNet, QuadraticNet, DeepConvNet]))
    m, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num, s = (draw(st.integers(0, 3)), draw(st.integers(1, 3))) if cls is DeepConvNet else (0, 1)
    size = m * (d + num * (s - 1) + 2) + num * s
    theta = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=size, max_size=size)))
    head = np.zeros(m), np.zeros((m, d + num * (s - 1))), np.zeros(m)
    if cls is DeepConvNet:
        slope = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        like = DeepConvNet((np.zeros(s),) * num, *head, slope)
    else:
        like = cls(*head)
    return models.net_from_flat(like, theta)


@settings(max_examples=60, deadline=None)
@given(net=any_net())
def test_checkpoint_round_trip_is_the_identity(tmp_path_factory, net):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    models.save_net(net, path)
    back = models.load_net(path)
    assert type(back) is type(net) and back.slope == net.slope
    assert models.net_to_flat(back).tobytes() == models.net_to_flat(net).tobytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(net=any_net(), pick=st.integers(0, 8), value=JSON_VALUES)
@example(net=SingleLayerReQUNet(np.ones(1), np.ones((1, 1)), np.ones(1)), pick=2, value=float("inf"))
def test_any_one_checkpoint_field_replaced_loads_or_is_a_value_error(
    tmp_path_factory, net, pick, value
):
    path = tmp_path_factory.getbasetemp() / "replaced.json"
    models.save_net(net, path)
    doc = json.loads(path.read_text())
    key = sorted(doc)[pick % len(doc)]
    path.write_text(json.dumps({**doc, key: value}))
    try:
        models.load_net(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("key,value,message", [
    ("version", True, "unsupported checkpoint version True"),
    ("version", 1.0, "unsupported checkpoint version 1.0"),
    ("slope", "0.5", "slope must be a number, got '0.5'"),
])
def test_checkpoint_fields_that_only_equal_a_valid_value_are_rejected(tmp_path, key, value, message):
    # true == 1 == 1.0 in Python, and float("0.5") parses a string: each of
    # these loaded as a valid checkpoint.
    path = tmp_path / "net.json"
    models.save_net(init_deep(4, 2, 2, 3), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, key: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}$"):
        models.load_net(path)
