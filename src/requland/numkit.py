"""Dense symmetric eigenvalues, singular values, and padded 1-D convolution.

Matrices are plain 2-D float ndarrays and eigenvalue spectra are 1-D ndarrays
sorted ascending.  Everything here is small and dense; LAPACK via numpy does
the heavy lifting.
"""

from __future__ import annotations

import functools

import numpy as np

SYM_TOL = 1e-10  # sym_eigvals' asymmetry tolerance, relative to 1 + ||A||_F


def as_matrix(A, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-D float array (any ndim >= 2 when stacked), rejecting
    anything else."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or (A.ndim != 2 and not stacked):
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def frobenius(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=float)))


def sym_eigvals(A) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    The input must be square and symmetric up to ``SYM_TOL * (1 + ||A||_F)``;
    the measured asymmetry is reported otherwise.  The symmetrized matrix
    (A + A^T)/2 is what actually gets factored, so tiny representation noise
    cannot push eigenvalues off the real line.

    LAPACK's values-only solver squares off-diagonal entries, and entries
    near 1e-143 beside O(1) ones moved an O(1) eigenvalue by 4e-7.  So
    entries below eps^2 times the largest are zeroed first; that moves no
    eigenvalue by more than n eps^2 max|A|, far below the solver's own error.
    """
    A = as_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError(f"sym_eigvals needs a square matrix, got {n}x{m}")
    asym = float(np.max(np.abs(A - A.T)))
    if asym > SYM_TOL * (1.0 + frobenius(A)):
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
            f"tolerance {SYM_TOL:.1e} * (1 + ||A||_F)"
        )
    S = 0.5 * (A + A.T)
    mag = np.abs(S)
    S[mag < np.finfo(float).eps ** 2 * mag.max()] = 0.0
    return np.linalg.eigvalsh(S)


def sym_min_singular_values(stack) -> np.ndarray:
    """Smallest singular value of each symmetric matrix in a (..., p, p) stack:
    min |eigenvalue|, from one batched LAPACK eigvalsh call, so entry k equals
    sym_min_singular_values(stack[k]) exactly.

    Symmetry is not checked: eigvalsh reads only the lower triangle.  On the
    certificate matrices, which are symmetric only to rounding, the result
    agrees with an SVD of the whole matrix to about 1e-15 * ||M||_2.
    """
    return np.abs(np.linalg.eigvalsh(as_matrix(stack, stacked=True))).min(axis=-1)


def row_dots(U) -> np.ndarray:
    """u . u for each row u of a (..., k) stack, from one stacked matmul that
    takes the same BLAS dot per row, so entry i equals U[i] @ U[i] exactly."""
    return (U[..., None, :] @ U[..., :, None])[..., 0, 0]


def min_singular_value(A) -> float:
    """Smallest singular value of a 2-D matrix (square or rectangular)."""
    return float(np.linalg.svd(as_matrix(A), compute_uv=False)[-1])


def _as_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def conv_padded(alpha, beta) -> np.ndarray:
    """Padded 1-D convolution producing all len(alpha)+len(beta)-1 outputs.

    Output j (1-based) is sum_i alpha[i] * beta_padded[i + j - 1] where beta
    is zero-padded by len(alpha)-1 on each side.  Equivalently this is full
    convolution of the reversed filter with beta:

        conv_padded((1, 2), (3, 4)) == (6, 11, 4)
    """
    alpha = _as_vector(alpha, "alpha")
    beta = _as_vector(beta, "beta")
    return np.convolve(alpha[::-1], beta, mode="full")


@functools.lru_cache(maxsize=64)
def conv_band(d_v: int, d_z: int) -> np.ndarray:
    """Gather index of the banded conv matrix, (d_v + d_z - 1, d_z).

    The matrix V with V @ z == conv_padded(v, z) is vz[band], where vz is v
    followed by one zero: row j, column c holds v[c + d_v - 1 - j] whenever
    that tap exists, and vz[d_v] = 0 elsewhere.  Every conv layer of every
    network evaluation reads it, so it is kept per (d_v, d_z), read-only.
    """
    rows, cols = np.indices((d_v + d_z - 1, d_z))
    taps = cols + d_v - 1 - rows
    band = np.where((taps >= 0) & (taps < d_v), taps, d_v)
    band.flags.writeable = False
    return band


def conv_fill(v, d_z: int) -> np.ndarray:
    """conv_matrix(v, d_z) without its checks, for a filter v or for each
    row of a (..., d_v) stack of them: the network pass's conv layers.
    take, unlike vz[..., band], keeps a stack's matrices C-contiguous."""
    vz = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    vz[..., :-1] = v
    return vz.take(conv_band(v.shape[-1], d_z), axis=-1)


def conv_matrix(v, d_z: int) -> np.ndarray:
    """Banded matrix V with V @ z == conv_padded(v, z) for every z of length d_z.

    V has shape (d_v + d_z - 1, d_z).  Gathered through conv_band's index,
    deliberately not via numpy's convolve, so the matrix route and the direct
    route stay independent checks of each other.
    """
    v = _as_vector(v, "v")
    if int(d_z) != d_z or d_z < 1:
        raise ValueError(f"d_z must be a positive integer, got {d_z!r}")
    return conv_fill(v, int(d_z))
