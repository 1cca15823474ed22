"""Binary-labeled datasets and the special geometries used by the experiments.

A Dataset is n rows of features with labels in {-1, +1}.  Generators cover
mutually repelling point sets (pairwise obtuse after appending a 1 coordinate),
quadratically separable clouds, and plain Gaussian data with random labels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .numkit import row_dots

MARGIN_RTOL = 1e-3  # gen_quadratically_separable's least |q(x)| relative to the largest
MAX_ROUNDS = 1000  # its resampling rounds before it gives up


class InfeasibleGeometryError(ValueError):
    """Requested point configuration cannot exist."""


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray  # (n, d) float
    y: np.ndarray  # (n,) int, entries in {-1, +1}

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=int)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X must be a (n, d) array with n >= 1")
        if X.shape[1] < 1:
            raise ValueError("a dataset needs at least one feature column (d >= 1)")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isfinite(X)):
            raise ValueError("X has non-finite entries")
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def lifted(self) -> np.ndarray:
        """Rows (x_i; 1), shape (n, d+1)."""
        return np.hstack([self.X, np.ones((self.n, 1))])


def validate_distinct(ds: Dataset, tol: float = 1e-12):
    """Check all sample pairs are separated by more than tol.

    Returns (True, None) or (False, (i, j)) with the first offending pair in
    (i, j) order, 0-indexed.  The pairs go in blocks of rows i, about 64k
    pairs a block, so memory stays O(n d); each block's distances come from
    one stacked computation (numkit.row_dots, the dot np.linalg.norm takes).
    """
    per = max(1, (1 << 16) // ds.n)  # rows i per block
    for s in range(0, ds.n, per):
        i, j = np.triu_indices(min(per, ds.n - s), k=1, m=ds.n - s)  # pairs i < j, rows s on
        hits = np.flatnonzero(np.sqrt(row_dots(ds.X[s + i] - ds.X[s + j])) <= tol)
        if hits.size:
            return False, (s + int(i[hits[0]]), s + int(j[hits[0]]))
    return True, None


def _simplex_points(n: int) -> np.ndarray:
    # Rows e_i - 1/n, normalized and scaled to norm 2: pairwise inner products
    # are exactly -4/(n-1).
    E = np.eye(n) - np.full((n, n), 1.0 / n)
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    return 2.0 * E / norms


def gen_mutually_repelling(
    n: int,
    num_positive: int,
    mode: str = "auto",
    d: int | None = None,
) -> Dataset:
    """Points whose lifted vectors (x_i; 1) are pairwise obtuse.

    Exact mode (n <= 4): norm-2 points with pairwise inner products < -1,
    realized as a scaled centered simplex.  For n >= 5 this is impossible:
    summing ||sum x_i||^2 >= 0 over pairwise products forces 4n > n(n-1).
    Generalized mode (any n): x_i = c e_i - 1 in dimension d >= n with
    c = (d+3)/2, giving lifted inner products exactly -2 off the diagonal.

    Labels are +1 for the first num_positive samples and -1 for the rest.
    The construction is deterministic, so unlike the other generators it
    takes no seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= num_positive <= n:
        raise ValueError("num_positive must lie in [1, n]")
    if mode == "auto":
        mode = "exact" if n <= 4 else "generalized"

    if mode == "exact":
        if n > 4:
            raise InfeasibleGeometryError(
                "exact repelling sets need pairwise inner products < -1 at norm 2; "
                f"the Gram-sum bound 4n >= n(n-1) fails for n={n} (max n is 4)"
            )
        if d is not None:
            raise ValueError("exact mode fixes the ambient dimension; leave d unset")
        X = np.array([[2.0]]) if n == 1 else _simplex_points(n)
        if n >= 2:
            G = X @ X.T
            assert np.allclose(np.diag(G), 4.0)
            assert np.all(G[~np.eye(n, dtype=bool)] < -1.0)
    elif mode == "generalized":
        d = n if d is None else int(d)
        if d < n:
            raise ValueError(f"generalized mode needs d >= n, got d={d} < n={n}")
        c = 0.5 * (d + 1) + 1.0
        X = c * np.eye(n, d) - np.ones((n, d))
        Z = np.hstack([X, np.ones((n, 1))])
        G = Z @ Z.T
        assert np.all(G[~np.eye(n, dtype=bool)] < 0.0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    y = np.where(np.arange(n) < num_positive, 1, -1)
    return Dataset(X, y)


@dataclass(frozen=True)
class QuadraticForm:
    """q(x) = x^T Q x + p . x + c with Q symmetric."""

    Q: np.ndarray
    p: np.ndarray
    c: float

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.einsum("ni,ij,nj->n", X, self.Q, X) + X @ self.p + self.c


def gen_quadratically_separable(n: int, d: int, seed: int = 0):
    """Gaussian points labeled by the sign of a random quadratic form.

    Points with |q(x)| below MARGIN_RTOL * max_i |q(x_i)| are resampled, so
    every label carries a margin bounded away from zero relative to the
    largest one.  Returns (Dataset, QuadraticForm).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    form = QuadraticForm(Q=0.5 * (M + M.T), p=rng.standard_normal(d), c=float(rng.standard_normal()))

    X = rng.standard_normal((n, d))
    for _ in range(MAX_ROUNDS):
        q = form(X)
        floor = MARGIN_RTOL * np.max(np.abs(q))
        weak = np.abs(q) <= floor
        if not weak.any():
            break
        X[weak] = rng.standard_normal((int(weak.sum()), d))
    else:
        raise RuntimeError("could not reach the requested quadratic margin")

    ds = Dataset(X, np.sign(form(X)).astype(int))
    ok, pair = validate_distinct(ds)
    if not ok:
        raise RuntimeError(f"degenerate sample: rows {pair} coincide")
    return ds, form


def gen_random(n: int, d: int, seed: int = 0) -> Dataset:
    """Standard-normal features with uniform random labels."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.standard_normal((n, d)), rng.choice((-1, 1), size=n))
    ok, pair = validate_distinct(ds)
    if not ok:
        raise RuntimeError(f"degenerate sample: rows {pair} coincide")
    return ds


def write_csv(path, header, rows) -> None:
    """Write the header, then each row: every float as .17g, which round-trips
    it, and every other value as it is.  Each CSV artifact is written here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def save_csv(ds: Dataset, path) -> None:
    """Write header x1,...,xd,y then one row per sample."""
    header = [f"x{k + 1}" for k in range(ds.d)] + ["y"]
    write_csv(path, header, (x + [y] for x, y in zip(ds.X.tolist(), ds.y.tolist())))


def load_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: no samples" if rows else f"{path}: empty file")
    header = rows[0]
    if not header or header[-1] != "y" or any(h != f"x{k + 1}" for k, h in enumerate(header[:-1])):
        raise ValueError(f"{path}: expected header x1,...,xd,y, got {header}")
    d = len(header) - 1
    X, y = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
        try:
            X.append([float(v) for v in row[:-1]])
            y.append(int(row[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return Dataset(np.array(X, dtype=float), np.array(y, dtype=int))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
