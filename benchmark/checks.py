"""Output checks written independently of requland.

Every check recomputes what it needs from the artifacts or returned
parameters with plain numpy: the forward pass, the regularized logistic
objective, central differences, the c09 balance identities and the
closed-form square-case certificate matrices.  Nothing here calls the
program's own objective, convolution or certificate code, so a defect in
those cannot hide itself.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import yaml

LN2 = math.log(2.0)

# The trainer's snap move accepts a zeroed block when the loss rises by at
# most 4e-16 (1 + |loss|); anything above that is a rising trajectory.
SNAP_SLACK = 4e-16
OBJECTIVE_RTOL = 1e-9
CERTIFY_GRAD_TOL = 1e-5  # the criticality gate `certify` applies by default
TERMINAL_STATUSES = ("converged", "budget-exhausted", "stalled")


class Params:
    """Network parameters in the flat order a, W (row-major), b, filters."""

    def __init__(self, a, W, b, filters=(), slope=0.1):
        self.a = np.asarray(a, dtype=float)
        self.W = np.asarray(W, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.filters = tuple(np.asarray(v, dtype=float) for v in filters)
        self.slope = float(slope)

    @classmethod
    def from_checkpoint(cls, path):
        doc = json.loads(Path(path).read_text())
        m, width = int(doc["m"]), int(doc["width"])
        p = np.asarray(doc["params"], dtype=float)
        sizes = [int(doc.get("filter_size", 0))] * int(doc.get("num_filters", 0))
        return cls.unflatten(p, m, width, sizes, doc.get("slope", 0.1))

    @classmethod
    def from_net(cls, net):
        return cls(net.a, net.W, net.b, getattr(net, "filters", ()), getattr(net, "slope", 0.1))

    @classmethod
    def unflatten(cls, p, m, width, filter_sizes=(), slope=0.1):
        a = p[:m]
        W = p[m : m + m * width].reshape(m, width)
        b = p[m + m * width : m * (width + 2)]
        pos, filters = m * (width + 2), []
        for s in filter_sizes:
            filters.append(p[pos : pos + s])
            pos += s
        if pos != p.size:
            raise ValueError(f"parameter vector has {p.size} entries, layout needs {pos}")
        return cls(a, W, b, filters, slope)

    def flat(self):
        return np.concatenate([self.a, self.W.ravel(), self.b, *self.filters])

    def like(self, p):
        return Params.unflatten(
            p, self.a.size, self.W.shape[1], [v.size for v in self.filters], self.slope
        )

    def features(self, X):
        """Head inputs: each padded convolution is np.convolve with the
        reversed filter, followed by the leaky ReLU."""
        H = np.asarray(X, dtype=float)
        for v in self.filters:
            P = np.array([np.convolve(v[::-1], row, mode="full") for row in H])
            H = np.where(P >= 0.0, P, self.slope * P)
        return H

    def outputs(self, X):
        pre = self.features(X) @ self.W.T + self.b
        return np.maximum(pre, 0.0) ** 2 @ self.a


def objective(params: Params, X, y, lam, lam_c=0.0) -> float:
    """sum_i log2(1 + exp(-y_i f(x_i))) + cubic block regularizer + filter anchor."""
    lam = np.asarray(lam, dtype=float)
    data = float(np.sum(np.logaddexp(0.0, -y * params.outputs(X)))) / LN2
    u = np.sqrt(np.sum(params.W**2, axis=1) + params.b**2)
    reg = float(np.sum(lam * (np.abs(params.a) ** 3 + 2.0 * u**3))) / 3.0
    anchor = sum((float(v @ v) - 1.0) ** 2 for v in params.filters)
    return data + reg + 0.25 * lam_c * anchor


def training_error(params: Params, X, y) -> float:
    return float(np.mean(np.sign(params.outputs(X)) != y))


def central_gradient(params: Params, X, y, lam, lam_c=0.0, step=1e-6):
    theta = params.flat()
    g = np.empty_like(theta)
    for i in range(theta.size):
        h = step * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (objective(params.like(up), X, y, lam, lam_c)
                - objective(params.like(dn), X, y, lam, lam_c)) / (2.0 * h)
    return g


def load_dataset(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    X = np.array([[float(v) for v in r[:-1]] for r in rows])
    y = np.array([int(r[-1]) for r in rows])
    return X, y


def load_trajectory(path):
    """Rows (iter, loss, status) of a trajectory.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(int(r[0]), float(r[1]), r[4]) for r in rows]


def trajectory_problems(rows) -> list:
    """The recorded loss never rises (Armijo steps and strict-decrease moves)."""
    if not rows:
        return ["empty trajectory"]
    out = []
    for (it0, l0, _), (it1, l1, st) in zip(rows, rows[1:]):
        if l1 > l0 + SNAP_SLACK * (1.0 + abs(l0)):
            out.append(f"loss rises from {l0!r} (iter {it0}) to {l1!r} (iter {it1}, {st})")
    return out


def objective_problems(value, recorded) -> list:
    if abs(value - recorded) > OBJECTIVE_RTOL * abs(recorded):
        return [f"recomputed objective {value!r} differs from the recorded {recorded!r}"]
    return []


def single_run_problems(train_dir, certify_dir, exit_codes) -> list:
    """`requland train` then `requland certify` on the single-layer c01 set."""
    train_dir, certify_dir = Path(train_dir), Path(certify_dir)
    problems = [f"exit code {rc} from {cmd}"
                for cmd, rc in zip(("train", "certify"), exit_codes) if rc != 0]
    cfg = yaml.safe_load((train_dir / "config.yaml").read_text())
    lam = np.asarray(cfg["lam"], dtype=float)
    X, y = load_dataset(train_dir / "dataset.csv")
    params = Params.from_checkpoint(train_dir / "checkpoint.json")
    rows = load_trajectory(train_dir / "trajectory.csv")

    err = training_error(params, X, y)
    if err != 0.0:
        problems.append(f"recomputed training error {err}")
    value = objective(params, X, y, lam)
    problems += objective_problems(value, rows[-1][1])
    problems += trajectory_problems(rows)
    if rows[-1][2] != "converged":
        problems.append(f"terminal status {rows[-1][2]!r}")

    theta_norm = float(np.linalg.norm(params.flat()))
    floor = float(np.min(lam)) / (3.0 * math.sqrt(2.0 * lam.size)) * theta_norm**3
    if not value > floor:
        problems.append(f"objective {value!r} not above the cubic floor {floor!r}")
    gn = float(np.linalg.norm(central_gradient(params, X, y, lam)))
    if not gn < CERTIFY_GRAD_TOL * (1.0 + abs(value)):
        problems.append(f"central-difference gradient norm {gn:.3e}")
    zero = (params.a == 0.0) & np.all(params.W == 0.0, axis=1) & (params.b == 0.0)
    if not zero.any():
        problems.append("no exactly zero neuron block")

    for d in (train_dir, certify_dir):
        verdict = json.loads((d / "report.json").read_text()).get("verdict")
        if verdict != "ok":
            problems.append(f"{d.name} verdict {verdict!r}")
    return problems


def deep_balance_problems(params: Params, lam, lam_c, tol=1e-4) -> list:
    """The c09 criteria: head and filter balance identities, case 3 (every
    filter norm above 1), and equal filter norms."""
    lam = np.asarray(lam, dtype=float)
    wsq = np.sum(params.W**2, axis=1)
    u = np.sqrt(wsq + params.b**2)
    head = float(np.sum(lam * np.abs(params.a) ** 3))
    weight = float(np.sum(lam * u**3))
    coupling = 2.0 * float(np.sum(lam * wsq * u))
    norms = np.array([np.linalg.norm(v) for v in params.filters])

    def rel(lhs, rhs):
        return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))

    problems = []
    if not rel(head, weight) < tol:
        problems.append(f"head balance residual {rel(head, weight):.3e}")
    for k, nv in enumerate(norms):
        term = lam_c * (nv**2 - 1.0) * nv**2
        if not rel(term, coupling) < tol:
            problems.append(f"filter {k} balance residual {rel(term, coupling):.3e}")
    if not (np.all(norms > 1.0) and float(np.max(np.abs(norms - 1.0))) > tol):
        problems.append(f"filter norms {norms} not all above 1 (case 3)")
    if float(np.ptp(norms)) > tol * (1.0 + float(np.max(norms))):
        problems.append(f"filter norms {norms} disagree")
    return problems


def injectivity_problems(params: Params, X, tol=1e-12) -> list:
    H = params.features(X)
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            if float(np.linalg.norm(H[i] - H[j])) <= tol:
                return [f"hidden states of samples {i} and {j} coincide"]
    return []


def deep_run_problems(out: dict, converged: bool) -> list:
    """A deep training run from the library API.

    out holds the network, trajectory rows, dataset arrays, lam, lam_c and,
    for converged runs, the program's certify/balance/injectivity results.
    """
    params, X, y = Params.from_net(out["net"]), out["X"], out["y"]
    rows = [(r[0], r[1], r[4]) for r in out["rows"]]
    problems = []
    err = training_error(params, X, y)
    if err != 0.0:
        problems.append(f"recomputed training error {err}")
    problems += objective_problems(objective(params, X, y, out["lam"], out["lam_c"]), rows[-1][1])
    problems += trajectory_problems(rows)
    status = rows[-1][2]
    if status not in TERMINAL_STATUSES:
        problems.append(f"unnamed terminal status {status!r}")
    if not converged:
        return problems
    if status != "converged":
        problems.append(f"terminal status {status!r}")
    if out["verdict"] != "ok":
        problems.append(f"certify verdict {out['verdict']!r}")
    if not (out["balance_passed"] and out["balance_case"] == 3 and out["injective"]):
        problems.append("the program's balance or injectivity report disagrees")
    problems += deep_balance_problems(params, out["lam"], out["lam_c"])
    problems += injectivity_problems(params, X)
    return problems


def report(path) -> dict:
    return json.loads(Path(path).read_text())


def lemma2_problems(out_dir, rc, m, n) -> list:
    rep = report(Path(out_dir) / "report.json")
    problems = [] if rc == 0 else [f"exit code {rc}"]
    sigma = rep.get("min_max_sigma")
    if (rep.get("m"), rep.get("n")) != (m, n):
        problems.append(f"report is for (m, n) = ({rep.get('m')}, {rep.get('n')})")
    if m > n and not (isinstance(sigma, float) and math.isfinite(sigma) and sigma > 0.0):
        problems.append(f"min_max_sigma {sigma!r} at m = n+1")
    return problems


def square_case_problems(out_dir, X, lam) -> list:
    """At m = n, z_j = lam_j / ||(x_j; 1)||^2 with A = I makes every
    M_j = -z_j (x_j;1)(x_j;1)^T + lam_j I singular; the probe must agree."""
    lifted = np.hstack([X, np.ones((len(X), 1))])
    z = lam / np.sum(lifted**2, axis=1)
    eye = np.eye(lifted.shape[1])
    sigma = [np.linalg.svd(-zj * np.outer(l, l) + lj * eye, compute_uv=False)[-1]
             for zj, l, lj in zip(z, lifted, lam)]
    problems = []
    if not max(sigma) < 1e-10:
        problems.append(f"closed-form square case leaves sigma_min {max(sigma):.3e}")
    reported = report(Path(out_dir) / "report.json").get("adversarial_max_sigma")
    if not (isinstance(reported, float) and reported < 1e-10):
        problems.append(f"probe adversarial_max_sigma {reported!r}")
    return problems


def coercivity_problems(out_dir, rc, trials) -> list:
    rep = report(Path(out_dir) / "report.json")
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if rep.get("violations") != 0:
        problems.append(f"{rep.get('violations')!r} coercivity violations")
    if rep.get("trials") != trials:
        problems.append(f"report covers {rep.get('trials')!r} trials, not {trials}")
    return problems


def counterexample_problems(out_dir, rc) -> list:
    out_dir = Path(out_dir)
    rep = report(out_dir / "report.json")
    problems = [] if rc == 0 else [f"exit code {rc}"]
    n, m = rep["n"], rep["m"]
    lam = np.asarray(yaml.safe_load((out_dir / "config.yaml").read_text())["lam"], dtype=float)
    X, y = load_dataset(out_dir / "dataset.csv")
    params = Params.from_checkpoint(out_dir / "checkpoint.json")
    err = training_error(params, X, y)
    if abs(err - (1.0 - m / n)) > 1e-12:
        problems.append(f"recomputed error {err} is not 1 - m/n = {1.0 - m / n}")
    gn = float(np.linalg.norm(central_gradient(params, X, y, lam)))
    if not gn < 1e-6:
        problems.append(f"central-difference gradient norm {gn:.3e}")
    delta = rep.get("min_loss_delta")
    if not (isinstance(delta, float) and delta >= 0.0):
        problems.append(f"min_loss_delta {delta!r}")
    return problems


def tree_digest(root) -> str:
    """Digest of every file's relative path and bytes under root."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())
