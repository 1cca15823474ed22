import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import conv_padded_oracle
from requland import numkit


def brute_conv(alpha, beta):
    """Defining sum: out[j] = sum_i alpha[i] * padded_beta[i + j]."""
    alpha = np.asarray(alpha, float)
    beta = np.asarray(beta, float)
    da, db = alpha.size, beta.size
    padded = np.concatenate([np.zeros(da - 1), beta, np.zeros(da - 1)])
    out = np.zeros(da + db - 1)
    for j in range(da + db - 1):
        for i in range(da):
            out[j] += alpha[i] * padded[i + j]
    return out


def test_conv_padded_worked_example():
    np.testing.assert_allclose(conv_padded_oracle([1, 2], [3, 4]), [6, 11, 4])


def test_conv_padded_matches_defining_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(rng.integers(1, 7))
        b = rng.standard_normal(rng.integers(1, 9))
        np.testing.assert_allclose(conv_padded_oracle(a, b), brute_conv(a, b), atol=1e-12)


def test_conv_padded_length_and_identity_filter():
    z = np.array([5.0, -1.0, 2.0])
    out = conv_padded_oracle([1.0], z)
    np.testing.assert_allclose(out, z)
    assert conv_padded_oracle([1.0, 0.0], z).size == 4


def test_conv_padded_rejects_empty():
    with pytest.raises(ValueError):
        conv_padded_oracle([], [1.0])
    with pytest.raises(ValueError):
        conv_padded_oracle([1.0], [])


def test_conv_linearity():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(4)
    z1, z2 = rng.standard_normal(6), rng.standard_normal(6)
    lhs = conv_padded_oracle(v, 2.5 * z1 - 0.3 * z2)
    rhs = 2.5 * conv_padded_oracle(v, z1) - 0.3 * conv_padded_oracle(v, z2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conv_matrix_reproduces_conv_padded():
    rng = np.random.default_rng(2)
    for _ in range(40):
        dv = int(rng.integers(1, 6))
        dz = int(rng.integers(1, 8))
        v = rng.standard_normal(dv)
        V = numkit.conv_matrix(v, dz)
        assert V.shape == (dv + dz - 1, dz)
        # Column c is the padded convolution of the c-th unit vector, exactly.
        np.testing.assert_array_equal(V, np.column_stack([conv_padded_oracle(v, e) for e in np.eye(dz)]))
        for _ in range(4):
            z = rng.standard_normal(dz)
            np.testing.assert_allclose(V @ z, conv_padded_oracle(v, z), atol=1e-12)


def test_conv_matrix_full_rank_for_nonzero_filter():
    rng = np.random.default_rng(3)
    for _ in range(60):
        v = rng.standard_normal(int(rng.integers(1, 6)))
        if np.allclose(v, 0):
            continue
        assert numkit.min_singular_value(numkit.conv_matrix(v, int(rng.integers(1, 9)))) > 0


def test_conv_matrix_zero_filter_is_singular():
    assert numkit.min_singular_value(numkit.conv_matrix(np.zeros(3), 4)) == 0.0


def test_conv_matrix_rejects_bad_dz():
    with pytest.raises(ValueError):
        numkit.conv_matrix([1.0, 2.0], 0)


def test_sym_eigvals_2x2_closed_form():
    # Eigenvalues of [[a, b], [b, c]] are (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2).
    rng = np.random.default_rng(4)
    for _ in range(30):
        a, b, c = rng.standard_normal(3)
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        got = numkit.sym_eigvals(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(got, [mid - rad, mid + rad], atol=1e-12)


def test_sym_eigvals_diagonal_and_ordering():
    d = np.array([3.0, -1.0, 2.0, -7.5])
    vals = numkit.sym_eigvals(np.diag(d))
    np.testing.assert_allclose(vals, np.sort(d))
    assert np.all(np.diff(vals) >= 0)


def test_sym_eigvals_trace_and_frobenius_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        A = A + A.T
        vals = numkit.sym_eigvals(A)
        np.testing.assert_allclose(vals.sum(), np.trace(A), atol=1e-10)
        np.testing.assert_allclose((vals**2).sum(), (A**2).sum(), atol=1e-9)


def test_sym_eigvals_rejects_asymmetry_with_measurement():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        numkit.sym_eigvals(A)


def test_sym_eigvals_rejects_nonsquare():
    with pytest.raises(ValueError):
        numkit.sym_eigvals(np.ones((2, 3)))


def test_min_singular_value_against_gram_eigs():
    rng = np.random.default_rng(6)
    for _ in range(25):
        A = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        gram = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
        oracle = np.sqrt(max(np.linalg.eigvalsh(gram)[0], 0.0))
        np.testing.assert_allclose(numkit.min_singular_value(A), oracle, atol=1e-10)


def test_sym_min_singular_values_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(7)
    for p in (1, 4, 9, 21):
        S = rng.standard_cauchy((3, 17, p, p))
        S = S + S.swapaxes(-1, -2)
        got = numkit.sym_min_singular_values(S)
        assert got.shape == (3, 17)
        for k in np.ndindex(3, 17):
            assert got[k] == numkit.sym_min_singular_values(S[k])
            assert abs(got[k] - numkit.min_singular_value(S[k])) <= 1e-12 * numkit.frobenius(S[k])
    assert numkit.sym_min_singular_values(np.eye(3)) == 1.0  # one 2-D matrix
    assert numkit.sym_min_singular_values(np.diag([-3.0, 2.0, -0.5])) == 0.5  # |eig|


def test_row_dots_equal_one_dot_per_row():
    # Rows of strided views too: the filters of a stack of parameter vectors.
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 8, 17, 133):
        T = rng.standard_normal((500, k + 5)) * rng.uniform(0.1, 10.0, (500, 1))
        for U in (T[:, :k].copy(), T[:, 2 : 2 + k], T[:, 2 : 2 + k].reshape(5, 100, k)):
            got = numkit.row_dots(U)
            assert got.shape == U.shape[:-1]
            for i in np.ndindex(U.shape[:-1]):
                assert got[i] == float(U[i] @ U[i])
                assert np.sqrt(got[i]) == np.linalg.norm(U[i])


def test_sym_min_singular_values_rejects_what_min_singular_value_does():
    nan, inf = np.ones((2, 3, 3)), np.ones((2, 3, 3))
    nan[1, 2, 0], inf[0, 0, 0] = np.nan, np.inf
    for bad in (nan, inf, np.ones((0, 3, 3)), np.ones(4), np.ones(0), np.ones((2, 3, 4))):
        with pytest.raises(ValueError):
            numkit.sym_min_singular_values(bad)
    for bad in (np.ones(4), np.ones((2, 3, 3)), np.ones((0, 3)), np.array([[np.inf]])):
        with pytest.raises(ValueError):
            numkit.min_singular_value(bad)


sym_mats = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(-10, 10)),
        arrays(np.float64, (n, n), elements=st.floats(-10, 10)),
    )
)


@settings(max_examples=200, deadline=None)
@given(sym_mats)
def test_eigenvalue_map_is_frobenius_lipschitz(pair):
    # Sorted-spectrum map is 1-Lipschitz from Frobenius to Euclidean norm.
    A, B = (0.5 * (M + M.T) for M in pair)
    lam_a = numkit.sym_eigvals(A)
    lam_b = numkit.sym_eigvals(B)
    slack = 1e-9 * (1.0 + numkit.frobenius(A - B))
    assert np.linalg.norm(lam_a - lam_b) <= numkit.frobenius(A - B) + slack


def tiny_beside_order_one():
    """Entries near 1e-143 beside O(1) ones: LAPACK's values-only solver
    moved the lowest eigenvalue of this matrix's symmetric part by 4e-7,
    while the same matrix plus I came out right."""
    M = np.full((5, 5), 6.46970195e-144)
    M[0, 4], M[4, 1:4] = 9.0, (1e-7, -2.0, -3.0)
    return M


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, (5, 5), elements=st.floats(-10, 10)),
    st.floats(-50, 50),
)
@example(M=tiny_beside_order_one(), c=1.0)
def test_eigenvalue_shift_identity(M, c):
    A = 0.5 * (M + M.T)
    shifted = numkit.sym_eigvals(A + c * np.eye(5))
    np.testing.assert_allclose(shifted, numkit.sym_eigvals(A) + c, atol=1e-8)
