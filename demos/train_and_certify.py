"""Train a single-layer ReQU net until it is certifiably at a good minimum.

The run below generates ten random ±1-labeled points in R^3 and trains an
11-neuron network under the cubic block regularizer.  Width 11 = n + 1 is
the interesting threshold: at any critical point with distinct coefficients
lambda_j, at least one neuron block must vanish entirely, and that inactive
block is exactly what rules out spurious minima with classification errors.
The certificate at the end checks the chain numerically -- near-zero
gradient, an inactive block, nonsingular certificate matrices, zero
training error -- and reports the per-block balance residuals
|a_j| - ||(w_j; b_j)||, whose tightness scales with lambda.
"""

import numpy as np

from requland import (
    ObjectiveConfig,
    TrainOptions,
    certify,
    estimate_lambda0,
    gen_random,
    init_single,
    logistic,
    sample_lambda,
    train,
    training_error,
)

SEED = 0

ds = gen_random(n=10, d=3, seed=1000 + SEED)
print(f"dataset: n={ds.n} points in R^{ds.d}, labels {np.bincount((ds.y > 0).astype(int))}")

# Coefficients must sit below a data-dependent scale, else the zero network
# (error 100%) becomes the global minimum.  estimate_lambda0 bounds that
# scale through an explicit interpolating network for this dataset.
lam0 = estimate_lambda0(ds, logistic(), seed=SEED)
lam = sample_lambda(11, lam0, seed=SEED)
print(f"lambda0 = {lam0:.3e}; sampled {lam.size} distinct coefficients in (lambda0/2, lambda0)")

cfg = ObjectiveConfig(logistic(), lam)
net, traj = train(
    init_single(11, ds.d, seed=SEED), ds, cfg,
    TrainOptions(grad_tol=1e-7, max_iter=200_000, seed=SEED),
)

print(f"\ntrainer: {traj.status} after {traj.n_iter} iterations "
      f"({traj.escapes} escape moves)")
print("loss trace (iter, loss, grad norm):")
for it, loss, gn, _, status in traj.rows[:: max(1, len(traj.rows) // 6)]:
    print(f"  {it:6d}  {loss:12.6e}  {gn:10.3e}  {status}")

bn = np.sqrt(net.a**2 + np.sum(net.W**2, axis=1) + net.b**2)
print(f"\nblock norms: {np.array2string(bn, precision=3)}")
print(f"inactive blocks (snapped to exact zero): {np.flatnonzero(bn == 0.0).tolist()}")
print(f"training error: {training_error(net, ds):.0%}")

report = certify(net, ds, cfg)
print(f"\ncertificate: {report.one_line()}")
print(f"balance residuals |a_j| - ||(w_j; b_j)|| on active blocks: "
      f"{np.array2string(report.balance_residuals[bn > 0], precision=2)}")
assert report.verdict == "ok"
