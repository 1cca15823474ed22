"""A certified local minimum that misclassifies most of its training set.

Zero training error at local minima is a width phenomenon, not a general
truth.  This script engineers the counterexample: n mutually repelling
points (every pair of lifted vectors (x_i; 1) at obtuse angle) with m < n
neurons, each pointed straight at one positive sample.  Repulsion keeps
every neuron strictly inactive on every other sample, so the remaining
n - m points sit at network output exactly zero -- misclassified, yet no
small perturbation helps: turning any neuron toward them costs more in the
regularizer than it recovers in loss, because every coefficient lambda_j
was chosen below the loss-derivative threshold 1/2.

Contrast at the end: training a fresh width-(n+1) network on the same data
reaches zero error, which is precisely what the extra width buys.
"""

import numpy as np

from requland import ObjectiveConfig, TrainOptions, init_single, logistic, train, training_error
from requland.constructions import build_bad_local_min
from requland.landscape import perturbation_stability
from requland.models import net_to_flat
from requland.objective import FlatObjective

N, M = 10, 2
lam = np.array([0.1, 0.3])

ds, net, cfg = build_bad_local_min(N, M, lam, mode="generalized")
err = training_error(net, ds)
fob = FlatObjective(net, ds, cfg)
gn = float(np.linalg.norm(fob.grad(fob.forward(net_to_flat(net)))))
print(f"constructed point: training error {err:.0%} (floor 1 - m/n = {1 - M / N:.0%}), "
      f"gradient norm {gn:.1e}")

outputs = net.value(ds.X)
print(f"outputs on the {N - M} repelled samples: "
      f"{np.array2string(outputs[M:], precision=3)}  <- exactly zero, never matching y = -1")

# 1000 random perturbations of radius 1e-3: none may decrease the loss.
delta = perturbation_stability(net, ds, cfg, radius=1e-3, trials=1000, seed=0)
print(f"worst loss change over 1000 probes at radius 1e-3: {delta:+.3e} (>= 0: local minimum)")
assert delta >= 0.0

# The same dataset with width n + 1 and the same kind of coefficients:
# gradient descent with escape moves now finds a zero-error minimum.
m2 = N + 1
cfg2 = ObjectiveConfig(logistic(), np.linspace(0.62, 0.38, m2) * np.min(lam))
net2, traj2 = train(
    init_single(m2, ds.d, seed=0), ds, cfg2,
    TrainOptions(grad_tol=1e-7, max_iter=200_000, seed=0),
)
print(f"\nretrained at width {m2}: {traj2.status}, "
      f"training error {training_error(net2, ds):.0%}, "
      f"loss {FlatObjective(net2, ds, cfg2).value(net_to_flat(net2)):.3e} "
      f"(constructed point had {fob.value(net_to_flat(net)):.3e})")
