import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import separating_gaps_oracle
from requland import constructions as cons
from requland.datasets import Dataset, gen_random
from requland.models import net_to_flat
from requland.objective import FlatObjective, logistic, loss_value, training_error


def grad_norm(net, ds, cfg):
    fob = FlatObjective(net, ds, cfg)
    return np.linalg.norm(fob.grad(fob.forward(net_to_flat(net))))


def labeled(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def test_direction_1d_is_trivial():
    ds = labeled([[0.3], [1.7], [-2.0]], [1, -1, 1])
    omega = cons.find_separating_direction(ds)
    assert omega.shape == (1,)
    assert omega[0] == 1.0


def test_direction_separates_axis_aligned_pair():
    ds = labeled([[0.0, 0.0], [0.0, 3.0]], [1, -1])
    omega = cons.find_separating_direction(ds, seed=4)
    assert abs(omega @ (ds.X[0] - ds.X[1])) > 0.0
    assert np.linalg.norm(omega) == pytest.approx(1.0)


def test_direction_separates_every_pair_random():
    ds = gen_random(12, 4, seed=9)
    omega = cons.find_separating_direction(ds, seed=9)
    z = ds.X @ omega
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            assert abs(z[i] - z[j]) > 0.0


def separation_cases():
    """(dataset, seed) of the workloads' datasets -- c01, c09, the width and
    deep grids -- and of random ones."""
    cases = [(gen_random(10, 3, seed=1000 + s), s) for s in range(20)]
    cases += [(gen_random(3, 4, seed=2000 + s), s) for s in range(10)]
    cases += [(gen_random(n, 3, seed=s), s) for n in range(2, 13) for s in range(4)]
    cases += [(gen_random(n, 4, seed=3000 + s), s) for n in (2, 4, 6, 8) for s in range(3)]
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, d = int(rng.integers(2, 40)), int(rng.integers(2, 7))
        cases.append((gen_random(n, d, seed=int(rng.integers(1 << 30))), int(rng.integers(1 << 30))))
    return cases


def test_direction_reaches_the_all_pairs_best_gap():
    # The candidates are the first DIRECTION_BUDGET draws of the seed's
    # generator; the one returned has the largest all-pairs gap among them.
    for ds, seed in separation_cases():
        omega = cons.find_separating_direction(ds, seed)
        cands = np.random.default_rng(seed).standard_normal((cons.DIRECTION_BUDGET, ds.d))
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        best = separating_gaps_oracle(ds.X, cands).max()
        assert abs(separating_gaps_oracle(ds.X, omega)[0] - best) <= 1e-12 * best


def test_direction_search_memory_is_linear_in_n():
    # All pair differences at n = 500 would take 1,954 MiB; sorted
    # projections take a few.
    ds = gen_random(500, 3, seed=0)
    tracemalloc.start()
    try:
        cons.find_separating_direction(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_direction_rejects_coincident_rows():
    ds = labeled([[1.0, 2.0], [1.0, 2.0]], [1, -1])
    with pytest.raises(ValueError, match="coincide"):
        cons.find_separating_direction(ds)


def test_interpolator_base_case_single_sample():
    ds = labeled([[0.5, -1.0]], [1])
    out = cons.build_interpolating_requ(ds, seed=0)
    assert out.net.m == 1
    # One ramp y_1 (z - z_0)_+^2 from the phantom knot one unit to the
    # left: the margin is the squared gap.
    assert out.net.value(ds.X)[0] == pytest.approx(1.0)
    assert out.margin == pytest.approx(1.0)


def test_interpolator_two_samples_mixed_labels():
    ds = labeled([[0.0], [1.0]], [1, -1])
    out = cons.build_interpolating_requ(ds, seed=0)
    assert out.net.m == 2
    vals = out.net.value(ds.X)
    assert ds.y[0] * vals[0] > 0 and ds.y[1] * vals[1] > 0
    assert out.margin == pytest.approx(np.min(ds.y * vals))


def brute_projection_recursion(zs, ys, z0):
    """Independent 1-D build: coefficients and the values q_k(z_(k))."""
    knots = np.concatenate([[z0], zs[:-1]])
    coeffs = [float(ys[0])]
    at_own_knot = []
    for k in range(len(zs)):
        if k > 0:
            q_here = sum(
                c * max(zs[k] - t, 0.0) ** 2 for c, t in zip(coeffs, knots[:k])
            )
            coeffs.append(2.0 * ys[k] * (abs(q_here) + 1.0) / (zs[k] - zs[k - 1]) ** 2)
        q_k = sum(
            c * max(zs[k] - t, 0.0) ** 2 for c, t in zip(coeffs, knots[: k + 1])
        )
        at_own_knot.append(q_k)
    return np.array(coeffs), np.array(at_own_knot)


def test_interpolator_matches_brute_recursion_and_sign_property():
    ds = gen_random(10, 3, seed=42)
    out = cons.build_interpolating_requ(ds, seed=42)
    z = ds.X @ out.direction
    order = np.argsort(z)
    zs, ys = z[order], ds.y[order]
    z0 = zs[0] - (zs[1] - zs[0])
    coeffs, q_at_knots = brute_projection_recursion(zs, ys, z0)
    assert np.allclose(np.sort(out.net.a), np.sort(coeffs))
    # Later neurons switch on exactly at earlier knots, so the finished
    # network agrees with the stage-k polynomial at its own knot, and the
    # sign there is the label's: y_k q_k(z_(k)) >= 2 for k >= 2.
    vals = out.net.value(ds.X)[order]
    assert np.allclose(vals, q_at_knots)
    assert np.all(ys * q_at_knots > 0)
    assert np.all((ys * q_at_knots)[1:] >= 2.0 - 1e-9)


def test_interpolator_exact_mode_hits_unit_margin():
    ds = gen_random(9, 2, seed=3)
    out = cons.build_interpolating_requ(ds, seed=3, coefficients="exact")
    vals = out.net.value(ds.X)
    assert np.allclose(ds.y * vals, 1.0, atol=1e-8)
    assert out.margin == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError, match="coefficient mode"):
        cons.build_interpolating_requ(ds, coefficients="pade")


def test_interpolator_margin_and_size_sweep():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        y = rng.choice([-1, 1], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        ds = Dataset(rng.standard_normal((n, d)), y)
        out = cons.build_interpolating_requ(ds, seed=trial)
        assert out.margin > 0.0
        assert out.net.m <= n + 1


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_subproblem_oracle(lam_j, sq_norm, tol=1e-13):
    """Minimize loss(-a r^2 s^4) + (lam_j/3)(a^3 + 2 (s r)^3) over a, r >= 0
    under the logistic loss by nested golden-section search, independent of
    the closed form's derivation: the outer variable is r, the inner problem
    in a is strictly convex.  The closed form only sizes the search windows.
    Returns (a, r)."""
    loss = logistic()
    s2 = float(sq_norm)
    s = np.sqrt(s2)
    a_star, r_star, _ = cons.neuron_subproblem_closed_form(lam_j, sq_norm)

    def g(a, r):
        return float(loss_value(loss, -a * r**2 * s2**2) + lam_j / 3.0 * (a**3 + 2.0 * (s * r) ** 3))

    def best_a(r):
        return golden_min(lambda a: g(a, r), 0.0, 4.0 * a_star + 1.0, tol)

    r, _ = golden_min(lambda r: best_a(r)[1], 0.0, 4.0 * r_star + 1.0, tol)
    return best_a(r)[0], r


def test_subproblem_golden_matches_closed_form():
    for lam_j, sq in ((0.1, 3.0), (0.4, 7.0), (0.01, 1.5)):
        a_cf, r_cf, T = cons.neuron_subproblem_closed_form(lam_j, sq)
        a, r = golden_subproblem_oracle(lam_j, sq)
        assert a == pytest.approx(a_cf, rel=1e-6)
        assert r == pytest.approx(r_cf, rel=1e-6)
        assert a_cf == pytest.approx(np.sqrt(sq) * r_cf)  # cube-balance equality
        assert a * r**2 * sq**2 == pytest.approx(T, rel=1e-5)


def test_subproblem_two_variable_stationarity():
    lam_j, sq = 0.2, 4.0
    a, r = golden_subproblem_oracle(lam_j, sq)
    s = np.sqrt(sq)
    loss = logistic()

    def g(av, rv):
        return float(
            loss_value(loss, -av * rv**2 * sq**2)
            + lam_j / 3.0 * (av**3 + 2.0 * (s * rv) ** 3)
        )

    h = 1e-6
    da = (g(a + h, r) - g(a - h, r)) / (2 * h)
    dr = (g(a, r + h) - g(a, r - h)) / (2 * h)
    assert abs(da) < 1e-5 and abs(dr) < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    lam_j=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True, allow_subnormal=False),
    sq=st.floats(1.0, 1e3),
)
@example(lam_j=1e-307, sq=50.0)  # (1 - c) / c overflowed to T = inf here
def test_subproblem_closed_form_property(lam_j, sq):
    # Every lam_j in (0, 1/2) with s^2 >= 1 (the lifted rows of
    # build_bad_local_min) has an interior minimizer, and the search finds it.
    a_cf, r_cf, T = cons.neuron_subproblem_closed_form(lam_j, sq)
    assert np.isfinite(T) and a_cf > 0.0 and r_cf > 0.0
    a, r = golden_subproblem_oracle(lam_j, sq)
    assert a == pytest.approx(a_cf, rel=1e-7)
    assert r == pytest.approx(r_cf, rel=1e-7)


def test_subproblem_closed_form_domain():
    with pytest.raises(ValueError, match="interior"):
        cons.neuron_subproblem_closed_form(0.45, 0.5)  # lam/s^2 too large


def test_subnormal_lam_names_the_underflow():
    # lam_j ln 2 / s^2 rounds to 0 for a subnormal lam_j; that used to be
    # reported as lam_j / s^2 being too large, which is false here.
    with pytest.raises(ValueError, match="underflows to 0") as err:
        cons.build_bad_local_min(4, 2, np.array([5e-324, 0.1]))
    assert "interior" not in str(err.value)
    # A subnormal lam_j whose c stays nonzero keeps the closed form.
    a, r, T = cons.neuron_subproblem_closed_form(1e-320, 2.0)
    assert np.isfinite(T) and a > 0.0 and r > 0.0


def test_bad_local_min_exact_case():
    ds, net, cfg = cons.build_bad_local_min(4, 2, np.array([0.1, 0.3]))
    assert training_error(net, ds) == pytest.approx(1.0 - 2.0 / 4.0)
    assert grad_norm(net, ds, cfg) < 1e-6
    vals = net.value(ds.X)
    assert np.all(vals[:2] > 0)  # positives classified
    assert np.all(vals[2:] == 0.0)  # repelled samples exactly silent


def test_bad_local_min_generalized_case():
    lam = np.full(3, 0.1)
    ds, net, cfg = cons.build_bad_local_min(10, 3, lam)
    assert training_error(net, ds) == pytest.approx(1.0 - 3.0 / 10.0)
    assert grad_norm(net, ds, cfg) < 1e-6


def test_bad_local_min_no_sampled_descent():
    ds, net, cfg = cons.build_bad_local_min(4, 2, np.full(2, 0.2))
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    base = fob.value(theta)
    wb = np.sqrt(np.sum(net.W**2, axis=1) + net.b**2)
    closed = np.sum(loss_value(cfg.loss, -ds.y * net.value(ds.X)))
    closed += np.sum(cfg.lam * (np.abs(net.a) ** 3 + 2.0 * wb**3)) / 3.0
    assert base == pytest.approx(closed)
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = rng.standard_normal(theta.size)
        u *= 1e-3 / np.linalg.norm(u)
        assert fob.value(theta + u) >= base


def test_bad_local_min_validation():
    good = np.array([0.1, 0.1])
    with pytest.raises(ValueError, match=r"\(0, 1/2\)"):
        cons.build_bad_local_min(4, 2, np.array([0.1, 0.5]))
    with pytest.raises(ValueError, match=r"\(0, 1/2\)"):
        cons.build_bad_local_min(4, 2, np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match="1 <= m <= n"):
        cons.build_bad_local_min(3, 4, np.full(4, 0.1))
    with pytest.raises(ValueError, match="shape"):
        cons.build_bad_local_min(4, 2, np.array([0.1, 0.1, 0.1]))
    cons.build_bad_local_min(4, 2, good)  # sanity: the valid call stands
