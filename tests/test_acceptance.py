"""End-to-end acceptance gate: one numbered criterion per test.

Each test prints a single pass/fail line (visible with -s or on failure)
and asserts the criterion at its stated tolerance.  These runs use the
library's public entry points only, at desk scale: the two training
experiments dominate the runtime and carry explicit wall-clock budgets.
"""

import time

import numpy as np

from oracles import block_norms_oracle, finite_diff_oracle, homogeneity_oracle
from requland import landscape, models, numkit, objective, optimize
from requland.constructions import build_bad_local_min, build_interpolating_requ
from requland.datasets import gen_random
from requland.models import net_to_flat
from requland.objective import FlatObjective, ObjectiveConfig, logistic, smooth_hinge


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_trained_single_layer_reaches_zero_error_with_inactive_block():
    t0 = time.perf_counter()
    bad = []
    for seed in range(20):
        ds = gen_random(10, 3, seed=1000 + seed)
        lam0 = optimize.estimate_lambda0(ds, logistic(), seed=seed)
        cfg = ObjectiveConfig(logistic(), optimize.sample_lambda(11, lam0, seed=seed))
        opts = optimize.TrainOptions(grad_tol=1e-7, max_iter=200_000, seed=seed)
        net, traj = optimize.train(optimize.init_single(11, 3, seed=seed), ds, cfg, opts)
        loss, gn = traj.rows[-1][1], traj.rows[-1][2]
        ok = (
            gn < 1e-7 * (1.0 + abs(loss))
            and objective.training_error(net, ds) == 0.0
            and np.any(block_norms_oracle(net) == 0.0)
        )
        if not ok:
            bad.append(seed)
    elapsed = time.perf_counter() - t0
    _report(
        1, "20 trained nets end critical, error-free, with an inactive block",
        not bad and elapsed < 120.0,
        f"failing seeds {bad or 'none'}, {elapsed:.1f}s (budget 120s)",
    )


def test_c02_regularized_loss_dominates_cubic_floor():
    ds = gen_random(10, 3, seed=0)
    m = 11
    cfg = ObjectiveConfig(logistic(), optimize.sample_lambda(m, 1e-2, seed=0))
    lam_min = float(np.min(cfg.lam))
    like = optimize.init_single(m, 3, seed=0)
    fob = FlatObjective(like, ds, cfg)
    size = net_to_flat(like).size
    rng = np.random.default_rng(2)
    violations = 0
    worst = np.inf
    for _ in range(1000):
        u = rng.standard_normal(size)
        radius = 10.0 ** rng.uniform(-2.0, 3.0)
        value = fob.value(radius * u / np.linalg.norm(u))
        floor = objective.coercivity_lower_bound(radius, lam_min, m)
        worst = min(worst, value - floor)
        if value < floor - 1e-9 * (1.0 + abs(floor)):
            violations += 1
    _report(
        2, "1000 random points at norms up to 1e3 sit above the cubic floor",
        violations == 0, f"{violations} violations, worst margin {worst:.3e}",
    )


def test_c03_bad_local_minimum_constructions_hold():
    details = []
    ok = True
    for n, m, mode, want in ((4, 2, "exact", 0.5), (10, 3, "generalized", 0.7)):
        lam = np.linspace(0.1, 0.3, m)
        ds, net, cfg = build_bad_local_min(n, m, lam, mode=mode)
        fob = FlatObjective(net, ds, cfg)
        gn = float(np.linalg.norm(fob.grad(fob.forward(net_to_flat(net)))))
        err = objective.training_error(net, ds)
        delta = landscape.perturbation_stability(net, ds, cfg, radius=1e-3, trials=1000, seed=0)
        ok = ok and gn < 1e-6 and abs(err - want) < 1e-12 and delta >= 0.0
        details.append(f"{mode}: grad {gn:.1e} err {err:.2f} min-probe-delta {delta:.2e}")
    _report(3, "constructed minima keep high error yet repel 1000 probes", ok, "; ".join(details))


def test_c04_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(4)

    def single_case(cls):
        n, d, m = int(rng.integers(3, 9)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
        ds = gen_random(n, d, seed=int(rng.integers(1 << 30)))
        net = cls(0.5 * rng.standard_normal(m), rng.standard_normal((m, d)),
                  rng.standard_normal(m))
        loss = logistic() if rng.random() < 0.5 else smooth_hinge(3)
        cfg = ObjectiveConfig(loss, rng.uniform(0.05, 0.4, m))
        return finite_diff_oracle(net, ds, cfg)

    def deep_case():
        # Keep every hidden coordinate away from the leaky kink: central
        # differences straddle the derivative jump otherwise.
        while True:
            d, s, l = int(rng.integers(3, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            m = int(rng.integers(3, 7))
            net = optimize.init_deep(d, s, l, m, seed=int(rng.integers(1 << 30)), scale=0.5)
            ds = gen_random(int(rng.integers(3, 7)), d, seed=int(rng.integers(1 << 30)))
            if min(float(np.min(np.abs(H))) for H in net.forward(ds.X)[0][1:]) > 1e-2:
                return finite_diff_oracle(net, ds, cfg=ObjectiveConfig(
                    logistic(), rng.uniform(0.05, 0.4, m), lam_c=1.0))

    worst_single = max(single_case(models.SingleLayerReQUNet) for _ in range(100))
    worst_quad = max(single_case(models.QuadraticNet) for _ in range(100))
    worst_deep = max(deep_case() for _ in range(100))
    _report(
        4, "gradients match central differences over 100 configs per family",
        worst_single < 1e-5 and worst_quad < 1e-5 and worst_deep < 1e-4,
        f"max rel err: single {worst_single:.2e} quadratic {worst_quad:.2e} "
        f"deep {worst_deep:.2e}",
    )


def test_c05_certificate_matrices_nonsingular_above_width_threshold():
    ds = gen_random(5, 3, seed=5)
    lam6 = optimize.sample_lambda(6, 1e-2, seed=0)
    minmax = landscape.certificate_matrix_monte_carlo(ds, 6, lam6, trials=1000, seed=0)

    lam5 = optimize.sample_lambda(5, 1e-2, seed=0)
    z, A = landscape.certificate_matrix_adversarial(ds, lam5)
    square = max(
        numkit.min_singular_value(M)
        for M in landscape.certificate_matrices_zA(ds, z, A, lam5)
    )
    _report(
        5, "1000 sampled patterns leave a nonsingular matrix iff width exceeds n",
        minmax > 0.0 and square < 1e-10,
        f"min-max sigma {minmax:.3e} (m=6>n); adversarial max sigma {square:.1e} (m=n=5)",
    )


def test_c06_eigenvalue_lists_are_lipschitz_in_frobenius_norm():
    rng = np.random.default_rng(6)
    violations = 0
    worst = -np.inf
    for _ in range(10_000):
        d = int(rng.integers(1, 21))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        B = 0.5 * (B + B.T)
        gap = float(np.linalg.norm(numkit.sym_eigvals(A) - numkit.sym_eigvals(B)))
        gap -= numkit.frobenius(A - B)
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    _report(
        6, "sorted spectra move less than the matrices across 10000 pairs",
        violations == 0, f"{violations} violations, worst slack {worst:.2e}",
    )


def test_c07_conv_matrices_have_full_column_rank():
    rng = np.random.default_rng(7)
    smallest = np.inf
    for _ in range(1000):
        s = int(rng.integers(1, 9))
        d_z = int(rng.integers(1, 33))
        v = rng.standard_normal(s)
        smallest = min(smallest, numkit.min_singular_value(numkit.conv_matrix(v, d_z)))
    _report(
        7, "1000 random nonzero filters give injective convolutions",
        smallest > 0.0, f"min sigma_min {smallest:.3e}",
    )


def test_c08_interpolator_positive_margin_bounded_size():
    rng = np.random.default_rng(8)
    worst_margin = np.inf
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 31))
        d = int(rng.integers(1, 6))
        ds = gen_random(n, d, seed=int(rng.integers(1 << 30)))
        interp = build_interpolating_requ(ds, seed=0)
        worst_margin = min(worst_margin, interp.margin)
        ok = ok and interp.margin > 0.0 and interp.net.m <= n + 1
    _report(
        8, "100 random datasets interpolate with margin at size <= n+1",
        ok, f"worst margin {worst_margin:.3e}",
    )


def test_c09_deep_conv_runs_certify_with_balanced_filters():
    t0 = time.perf_counter()
    errors, certified, bad = [], [], []
    for seed in range(10):
        ds = gen_random(3, 4, seed=2000 + seed)
        lam0 = optimize.estimate_lambda0(ds, logistic(), seed=seed)
        cfg = ObjectiveConfig(logistic(), optimize.sample_lambda(25, lam0, seed=seed), lam_c=1.0)
        opts = optimize.TrainOptions(grad_tol=1e-8, max_iter=200_000, seed=seed)
        net0 = optimize.init_deep(4, 2, 2, 25, seed=seed, slope=0.1)
        net, traj = optimize.train(net0, ds, cfg, opts)
        errors.append(objective.training_error(net, ds))
        if traj.status != "converged":
            continue  # kink-pinned stalls stay short of the criticality gate
        certified.append(seed)
        report = landscape.certify(net, ds, cfg)
        balance = landscape.deep_balance_check(net, cfg, tol=1e-4)
        norms = np.asarray(balance.filter_norms)
        inj, _ = landscape.hidden_injectivity_check(net, ds)
        if not (
            report.verdict == "ok"
            and balance.passed
            and balance.case == 3
            and np.all(norms > 1.0)
            and float(np.ptp(norms)) <= 1e-4 * (1.0 + float(np.max(norms)))
            and inj
        ):
            bad.append(seed)
    elapsed = time.perf_counter() - t0
    ok = (
        all(e == 0.0 for e in errors)
        and len(certified) >= 7
        and not bad
        and elapsed < 300.0
    )
    _report(
        9, "certified deep runs balance their filters above unit norm",
        ok,
        f"errors {sorted(set(errors))}, {len(certified)}/10 certified, "
        f"failing {bad or 'none'}, {elapsed:.1f}s (budget 300s)",
    )


def test_c10_decreasing_path_blows_up_under_regularizer():
    table = optimize.decreasing_path_demo(10_000, lam=0.1)
    ok = (
        abs(table["loss"][-1] - 1.0) < 1e-3
        and table["param_norm"][-1] > 50.0
        and bool(np.all(table["reg_loss"] >= table["floor"]))
    )
    _report(
        10, "the unregularized escape path dies under the cubic floor",
        ok,
        f"loss(k=1e4) {table['loss'][-1]:.6f}, norm {table['param_norm'][-1]:.1f}, "
        f"min(reg - floor) {float(np.min(table['reg_loss'] - table['floor'])):.3e}",
    )


def test_c11_deep_nets_are_positively_homogeneous():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        net = optimize.init_deep(
            d, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
            int(rng.integers(2, 6)), seed=int(rng.integers(1 << 30)), scale=0.5,
        )
        x = rng.standard_normal(d)
        r = 10.0 ** rng.uniform(-3.0, 3.0, size=net.l + 1)  # one factor per layer
        worst = max(worst, homogeneity_oracle(net, x, r))
    _report(
        11, "scaling parameters rescales outputs exactly across 1000 triples",
        worst < 1e-10, f"max relative identity error {worst:.2e}",
    )
