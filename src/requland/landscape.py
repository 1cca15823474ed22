"""Certificates and sampling harnesses for critical-point structure.

At a near-critical point of the block-regularized objective every head block
is balanced (|a_j| matches the joint weight-bias norm) and annihilates its
certificate matrix:  M_j (w_j; b_j) = 0, where

    M_j = -sgn(a_j) sum_i l'_i y_i 1{pre_ij >= 0} (x_i; 1)(x_i; 1)^T + lam_j I.

A nonsingular M_j therefore forces block j to vanish.  certify() audits the
chain that follows -- nonsingular certificate matrix => inactive block =>
(once every loss derivative clears the criterion threshold) zero training
error -- and renders a verdict rather than a bare pass.  The sampling
harnesses stress what the chain rests on: certificate_matrix_monte_carlo
draws coefficient/sign configurations hunting for one with every matrix
singular, which in the overparameterized regime with distinct lam would
require lam to hit a measure-zero row-space condition (the failure
overdetermined_no_solution quantifies); at m = n the explicit adversarial
configuration from certificate_matrix_adversarial does make every matrix
singular, showing the overparameterization hypothesis is load-bearing.

_certificate_sum builds the certificate matrices of one network, one (z, A)
draw or a whole stack of draws, and numkit.sym_min_singular_values takes a
stack's sigma_min = min |eig| in one batched symmetric eigensolve.  Stacking
is exact: each matrix and each sigma_min equals (==) the one built and
factored alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, validate_distinct
from .models import DeepConvNet, net_to_flat
from .numkit import row_dots, sym_min_singular_values
from .objective import FlatObjective, ObjectiveConfig, loss_deriv


class NotCriticalError(RuntimeError):
    """certify() was called away from criticality; the message carries the
    measured gradient norm.  Certificates at non-critical points would be
    vacuous, so this is an error rather than a report field."""


class CertificateContradiction(RuntimeError):
    """A certified implication failed at a near-critical point.  This cannot
    happen at a genuine critical point, so it flags a defect in either the
    optimizer output or the certificate computation -- never ignore it."""


def _certificate_sum(lifted, weights, lam) -> np.ndarray:
    """M_j = -sum_i weights_ij l_i l_i^T + lam_j I over the lifted rows l_i.

    Weights of shape (..., n, m) give matrices of shape (..., m, p, p), each
    == its one-matrix build: the same product, negation and shift per block.
    The product is not symmetrized, so M_j is symmetric only to rounding
    (about 5e-16 * ||M_j||_2); sym_min_singular_values reads its lower triangle.
    """
    weighted = lifted * weights.swapaxes(-1, -2)[..., None]  # (..., m, n, p)
    shift = lam[:, None, None] * np.eye(lifted.shape[1])
    return -(weighted.swapaxes(-1, -2) @ lifted) + shift


def build_M_matrices(net, ds: Dataset, cfg: ObjectiveConfig) -> np.ndarray:
    """Certificate matrices M_j, one per head block, shape (m, p+1, p+1).

    The per-block weights are sgn(a_j) l'_i y_i 1{pre_ij >= 0}.  The
    quadratic head has no indicator (its activation is smooth), so the same
    sum runs over every sample and all blocks share one matrix up to the
    sign of a_j and the lam_j shift.  For a conv stack the lifted features
    are the last hidden states rather than the raw inputs.
    """
    states, _, pre, _, _, f = net.forward(ds.X)
    lifted = np.hstack([states[-1], np.ones((ds.n, 1))])
    coef = loss_deriv(cfg.loss, -ds.y * f) * ds.y
    active = net.squared | (pre >= 0.0)  # not act > 0, which would drop pre == 0
    return _certificate_sum(lifted, coef[:, None] * active * np.sign(net.a), cfg.lam)


def write_json(doc: dict, path) -> None:
    """Strict JSON: a non-finite float entry is null, named in "non_finite"
    by its text, which CertificateReport.load turns back into the float."""
    bad = {k: str(v) for k, v in doc.items() if isinstance(v, float) and not np.isfinite(v)}
    if bad:
        doc = {**doc, **dict.fromkeys(bad), "non_finite": bad}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass
class CertificateReport:
    """Everything certify() measures at a terminal point.

    balance_residuals holds the signed per-block values
    |a_j| - sqrt(||w_j||^2 + b_j^2); inactive lists blocks with every
    component magnitude below tol; m_sigma_min holds sigma_min(M_j).
    Verdicts: "ok" (inactive block found, criterion met, error zero),
    "margin-failure" (inactive block found but some loss derivative is
    above the criterion threshold -- an escape move is recommended), and
    "bad-lambda-suspect", used exactly when every certificate matrix is
    numerically singular, the signature of coefficients lam that defeat
    the certificate (equal entries, or an adversarial row-space hit).
    """

    balance_residuals: np.ndarray
    inactive: list
    m_sigma_min: np.ndarray
    margin: float
    training_error: float
    max_loss_deriv: float
    epsilon: float
    grad_norm: float
    tol: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "balance_residuals": [float(v) for v in self.balance_residuals],
            "inactive": [int(j) for j in self.inactive],
            "m_sigma_min": [float(v) for v in self.m_sigma_min],
            "margin": float(self.margin),
            "training_error": float(self.training_error),
            "max_loss_deriv": float(self.max_loss_deriv),
            "epsilon": float(self.epsilon),
            "grad_norm": float(self.grad_norm),
            "tol": float(self.tol),
            "verdict": self.verdict,
        }

    def save(self, path) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "CertificateReport":
        with open(path) as fh:
            raw = json.load(fh)
        raw.update((k, float(v)) for k, v in raw.pop("non_finite", {}).items())
        return cls(
            balance_residuals=np.asarray(raw["balance_residuals"], dtype=float),
            inactive=[int(j) for j in raw["inactive"]],
            m_sigma_min=np.asarray(raw["m_sigma_min"], dtype=float),
            margin=float(raw["margin"]),
            training_error=float(raw["training_error"]),
            max_loss_deriv=float(raw["max_loss_deriv"]),
            epsilon=float(raw["epsilon"]),
            grad_norm=float(raw["grad_norm"]),
            tol=float(raw["tol"]),
            verdict=str(raw["verdict"]),
        )

    def one_line(self) -> str:
        return (
            f"verdict={self.verdict} error={self.training_error:.4f} "
            f"margin={self.margin:.6g} inactive={len(self.inactive)} "
            f"max_deriv={self.max_loss_deriv:.6g} eps={self.epsilon:.6g} "
            f"grad={self.grad_norm:.3e}"
        )


def certify(net, ds: Dataset, cfg: ObjectiveConfig, tol: float | None = None,
            grad_tol: float = 1e-5) -> CertificateReport:
    """Audit a terminal point and return the full CertificateReport.

    Requires near-criticality: ||grad|| < grad_tol * (1 + |loss|), else
    NotCriticalError.  tol defaults to 0.1 * min(lam): inactive blocks show
    sigma_min(M_j) = lam_j, so the threshold must sit below min(lam) yet
    far above the numerical noise floor of a converged run.  The loss,
    gradient, margins and training error come from one FlatObjective.forward,
    the certificate matrices from one network pass.

    Raises CertificateContradiction if some certificate matrix is
    nonsingular yet no block is inactive, or if the criterion threshold is
    met with an inactive block present yet the training error is nonzero.
    """
    if tol is None:
        tol = 0.1 * float(np.min(cfg.lam))
    fob = FlatObjective(net, ds, cfg)
    fwd = fob.forward(net_to_flat(net))
    loss, gn = float(fwd[0]), float(np.linalg.norm(fob.grad(fwd)))
    if not gn < grad_tol * (1.0 + abs(loss)):
        raise NotCriticalError(
            f"gradient norm {gn:.6e} exceeds {grad_tol:.1e} * (1 + |{loss:.6e}|)"
        )

    abs_a = np.abs(net.a)
    w_norms = np.linalg.norm(net.W, axis=1)
    abs_b = np.abs(net.b)
    residuals = abs_a - np.sqrt(w_norms**2 + abs_b**2)
    inactive = [
        int(j)
        for j in range(net.m)
        if abs_a[j] < tol and w_norms[j] < tol and abs_b[j] < tol
    ]
    sigma = sym_min_singular_values(build_M_matrices(net, ds, cfg))
    f, z = fwd[2][-1], fwd[3]  # the outputs and margins of the kernel's pass
    marg = float(np.min(ds.y * f))
    err = float(np.mean(np.sign(f) != ds.y))
    worst = float(np.max(loss_deriv(cfg.loss, z)))
    eps = cfg.loss.epsilon

    if bool(np.all(sigma <= tol)):
        verdict = "bad-lambda-suspect"
    elif not inactive:
        raise CertificateContradiction(
            f"sigma_min(M_j) up to {sigma.max():.3e} > tol {tol:.3e} "
            "yet every block is active at a near-critical point"
        )
    elif worst < eps:
        if err != 0.0:
            raise CertificateContradiction(
                f"criterion met (max loss derivative {worst:.6g} < {eps:.6g}) "
                f"with an inactive block, yet training error is {err:.4f}"
            )
        verdict = "ok"
    else:
        verdict = "margin-failure"

    return CertificateReport(
        balance_residuals=residuals,
        inactive=inactive,
        m_sigma_min=sigma,
        margin=marg,
        training_error=err,
        max_loss_deriv=worst,
        epsilon=eps,
        grad_norm=gn,
        tol=tol,
        verdict=verdict,
    )


def perturbation_stability(net, ds: Dataset, cfg: ObjectiveConfig,
                           radius: float = 1e-3, trials: int = 1000,
                           seed: int = 0) -> float:
    """Smallest loss change over random perturbations of the given radius.

    A nonnegative return certifies that no sampled direction descends --
    the Monte-Carlo signature of a local minimum.  Directions are uniform
    on the sphere of the full parameter space.  The trials are drawn,
    normalized (numkit.row_dots: the dot np.linalg.norm takes) and evaluated
    (FlatObjective.values) a chunk at a time, on the same generator stream
    as one draw per trial, so the result does not depend on the chunking.
    A non-finite objective at the base point or at any trial certifies
    nothing and returns NaN.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    fob = FlatObjective(net, ds, cfg)
    theta = net_to_flat(net)
    base = fob.value(theta)
    if not np.isfinite(base):
        return float("nan")
    rng = np.random.default_rng(seed)
    worst = np.inf
    for start in range(0, trials, fob.CHUNK):
        U = rng.standard_normal((min(fob.CHUNK, trials - start), theta.size))
        U *= (radius / np.sqrt(row_dots(U)))[:, None]
        deltas = fob.values(theta + U) - base
        if not np.all(np.isfinite(deltas)):
            return float("nan")
        worst = min(worst, float(deltas.min()))
    return float(worst)


def certificate_matrices_zA(ds: Dataset, z, A, lam) -> np.ndarray:
    """M_j(z, A) = -sum_i z_i A_ij (x_i;1)(x_i;1)^T + lam_j I, shape (m, d+1, d+1)."""
    z = np.asarray(z, dtype=float)
    A = np.asarray(A, dtype=float)
    return _certificate_sum(ds.lifted(), z[:, None] * A, np.asarray(lam, dtype=float))


MC_BLOCK = 256  # trials per generator in the Monte-Carlo probes; fixes their draws


def certificate_matrix_monte_carlo(ds: Dataset, m: int, lam, trials: int = 1000,
                                   seed: int = 0) -> float:
    """Min over trials of max_j sigma_min(M_j(z, A)) for sampled (z, A).

    With m >= n+1 and pairwise-distinct lam the return value is positive:
    making every M_j singular simultaneously would require lam to solve an
    overdetermined linear system whose solution set has measure zero.  With
    m <= n that protection is gone (a warning says so), and the adversarial
    configuration below shows the failure is real, not just unproven.

    Block b of MC_BLOCK trials draws from SeedSequence((seed, b)), always
    whole: u = random, g = standard_normal, c = standard_cauchy (heavy tails
    reach near-singular regimes bounded sampling would miss), each
    (MC_BLOCK, n), then A = integers(-1, 2, (MC_BLOCK, n, m)); trial t is a
    row, with z = where(u < 0.5, g, c).  So trial t depends only on
    (seed, t), and fewer trials give a prefix of more.  Each block is built
    and factored as one stack, exactly as trial by trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lam = np.asarray(lam, dtype=float)
    if lam.size != m:
        raise ValueError(f"lam has {lam.size} entries, expected m={m}")
    if np.unique(lam).size != m:
        raise ValueError("lam entries must be pairwise distinct")
    if m <= ds.n:
        warnings.warn(
            f"m={m} <= n={ds.n}: the nonsingularity guarantee needs m >= n+1; "
            "all-singular configurations exist in this regime",
            stacklevel=2,
        )
    lifted = ds.lifted()
    shape = (MC_BLOCK, ds.n)
    worst = np.inf
    for b, start in enumerate(range(0, trials, MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        u, g, c = rng.random(shape), rng.standard_normal(shape), rng.standard_cauchy(shape)
        A = rng.integers(-1, 2, shape + (m,))
        k = min(MC_BLOCK, trials - start)
        weights = np.where(u[:k] < 0.5, g[:k], c[:k])[..., None] * A[:k]
        sigma = sym_min_singular_values(_certificate_sum(lifted, weights, lam))  # (k, m)
        worst = min(worst, float(sigma.max(axis=1).min()))
    return worst


def certificate_matrix_adversarial(ds: Dataset, lam):
    """Explicit (z, A) with every M_j singular, for the square case m = n.

    A is the identity pattern, so M_j = -z_j (x_j;1)(x_j;1)^T + lam_j I is a
    rank-one update whose spectrum is {lam_j} plus lam_j - z_j ||(x_j;1)||^2;
    choosing z_j = lam_j / ||(x_j;1)||^2 zeroes that eigenvalue for every j.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size != ds.n:
        raise ValueError(f"square case needs m = n, got m={lam.size} n={ds.n}")
    lifted_sq = np.sum(ds.X**2, axis=1) + 1.0
    z = lam / lifted_sq
    A = np.eye(ds.n)
    return z, A


def overdetermined_no_solution(A, lam=None, seed: int = 0) -> float:
    """Least-squares distance from lam to the row space of A (n x m, m >= n+1).

    Simultaneous singularity of every certificate matrix would force
    lam_j = sum_i A_ij alpha_i for some alpha, i.e. lam in the row space of
    A -- at most n dimensions inside R^m, so randomly drawn lam misses it
    with probability 1 and the residual is positive.  lam=None draws a
    standard normal lam with the given seed.
    """
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    if m < n + 1:
        raise ValueError(f"need m >= n+1 columns, got shape {A.shape}")
    if lam is None:
        lam = np.random.default_rng(seed).standard_normal(m)
    lam = np.asarray(lam, dtype=float)
    alpha, *_ = np.linalg.lstsq(A.T, lam, rcond=None)
    return float(np.linalg.norm(A.T @ alpha - lam))


CASE_BAND = 1e-4  # filter norms within this of 0 (case 1) or of 1 (case 2)


@dataclass
class DeepBalanceReport:
    """Scaling identities measured at a conv-net terminal point.

    head_cubic = sum_j lam_j |a_j|^3 and weight_cubic = sum_j lam_j u_j^3
    (u_j the joint weight-bias norm) must agree; each filter must satisfy
    lam_c (||v_k||^2 - 1) ||v_k||^2 = coupling = 2 sum_j lam_j ||w_j||^2 u_j.
    Residuals are relative: |lhs - rhs| / (1 + max(|lhs|, |rhs|)).

    case (classified from filter norms with the band CASE_BAND): 1 when some
    filter is numerically zero, 2 when every filter sits at unit norm (the
    zero-network configuration), 3 otherwise -- the generic minimum, where
    all filter norms exceed 1 and agree with each other.
    """

    head_cubic: float
    weight_cubic: float
    filter_terms: np.ndarray
    coupling: float
    head_residual: float
    filter_residuals: np.ndarray
    filter_norms: np.ndarray
    case: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.head_residual < self.tol and bool(
            np.all(self.filter_residuals < self.tol)
        )


def deep_balance_check(net: DeepConvNet, cfg: ObjectiveConfig, tol: float = 1e-4) -> DeepBalanceReport:
    u = np.sqrt(np.sum(net.W**2, axis=1) + net.b**2)
    head_cubic = float(np.sum(cfg.lam * np.abs(net.a) ** 3))
    weight_cubic = float(np.sum(cfg.lam * u**3))
    coupling = 2.0 * float(np.sum(cfg.lam * np.sum(net.W**2, axis=1) * u))
    norms = np.array([np.linalg.norm(v) for v in net.filters])
    terms = np.array([cfg.lam_c * (nv**2 - 1.0) * nv**2 for nv in norms])

    def rel(lhs, rhs):
        return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))

    if norms.size and float(np.min(norms)) <= CASE_BAND:
        case = 1
    elif norms.size == 0 or float(np.max(np.abs(norms - 1.0))) <= CASE_BAND:
        case = 2
    else:
        case = 3
    return DeepBalanceReport(
        head_cubic=head_cubic,
        weight_cubic=weight_cubic,
        filter_terms=terms,
        coupling=coupling,
        head_residual=rel(head_cubic, weight_cubic),
        filter_residuals=np.array([rel(t, coupling) for t in terms]),
        filter_norms=norms,
        case=case,
        tol=tol,
    )


def hidden_injectivity_check(net: DeepConvNet, ds: Dataset, tol: float = 1e-12):
    """(ok, offending pair or None): are the last hidden states pairwise distinct?

    Nonzero filters make every conv layer injective (full-rank banded
    matrix) and the strictly increasing activation preserves that, so
    distinct inputs must stay distinct; a collision therefore means either
    duplicated inputs or a degenerate filter.  A filter with norm <= tol
    violates the precondition outright.  The pair search is
    datasets.validate_distinct on the hidden states.
    """
    for k, v in enumerate(net.filters):
        nv = float(np.linalg.norm(v))
        if nv <= tol:
            raise ValueError(f"filter {k} has norm {nv:.3e} <= tol {tol:.3e}")
    return validate_distinct(Dataset(net.head_inputs(ds.X), ds.y), tol)
