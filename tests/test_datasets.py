import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import close_pair_oracle
from requland import datasets
from requland.datasets import Dataset


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1]))


def test_dataset_rejects_zero_feature_columns(tmp_path):
    with pytest.raises(ValueError, match="at least one feature column"):
        Dataset(np.zeros((3, 0)), np.array([1, -1, 1]))
    path = tmp_path / "y_only.csv"
    path.write_text("y\n1\n-1\n")
    with pytest.raises(ValueError, match="at least one feature column"):
        datasets.load_csv(path)
    path.write_text("x1,y\n")  # a header alone read as a sample with no features
    with pytest.raises(ValueError, match="no samples"):
        datasets.load_csv(path)


def test_lifted_appends_ones():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, -1]))
    np.testing.assert_allclose(ds.lifted(), [[1, 2, 1], [3, 4, 1]])


def test_validate_distinct_flags_pair():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), np.array([1, 1, -1]))
    ok, pair = datasets.validate_distinct(ds)
    assert not ok and pair == (0, 2)
    ok, pair = datasets.validate_distinct(datasets.gen_random(5, 3, seed=0))
    assert ok and pair is None
    # The first pair in (i, j) order is named, not the closest: (0, 3)
    # comes before (1, 2), though (1, 2) is closer.
    X = np.array([[0.0], [1.0], [1.0], [1e-13]])
    assert datasets.validate_distinct(Dataset(X, np.ones(4, dtype=int))) == (False, (0, 3))


def test_validate_distinct_matches_the_all_pairs_oracle():
    # validate_distinct scans (1 << 16) // n rows i per block.  Collisions
    # (exact, and 5e-13 apart) sit inside a block, on both sides of its
    # edges and at the last rows, alone and two at once, where the first
    # pair in (i, j) order and the other hit may lie in different blocks.
    n = 500
    per = (1 << 16) // n
    X0 = np.random.default_rng(0).standard_normal((n, 3))
    y = np.ones(n, dtype=int)
    edges = [0, 5, per - 1, per, per + 1, 2 * per - 1, 2 * per, n - 2, n - 1]
    placed = [(i, j) for i in edges for j in edges if i < j]
    cases = [[p] for p in placed] + [[p, q] for p, q in zip(placed, placed[::-1]) if p < q]
    for case in cases:
        for gap in (0.0, 5e-13, 2e-12):
            X = X0.copy()
            for i, j in case:
                X[j] = X[i]
                X[j, 0] += gap
            want = close_pair_oracle(X, 1e-12)
            assert want is not None or gap > 1e-12  # two rows copied from one meet at 0
            assert datasets.validate_distinct(Dataset(X, y)) == (want is None, want)


def test_validate_distinct_memory_is_linear_in_n():
    # All n(n-1)/2 pair differences at once peak at 78 MiB at n = 1600; a
    # block of rows at a time takes a few.
    ds = datasets.gen_random(1600, 3, seed=0)
    tracemalloc.start()
    try:
        assert datasets.validate_distinct(ds) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_repelling_exact_geometry(n):
    ds = datasets.gen_mutually_repelling(n, num_positive=1)
    norms = np.linalg.norm(ds.X, axis=1)
    np.testing.assert_allclose(norms, 2.0, atol=1e-12)
    G = ds.X @ ds.X.T
    off = G[~np.eye(n, dtype=bool)]
    assert np.all(off < -1.0)
    # Lifted vectors are pairwise obtuse.
    Gz = ds.lifted() @ ds.lifted().T
    assert np.all(Gz[~np.eye(n, dtype=bool)] < 0.0)


def test_repelling_exact_two_points_antipodal():
    ds = datasets.gen_mutually_repelling(2, num_positive=1)
    np.testing.assert_allclose(ds.X[0] @ ds.X[1], -4.0, atol=1e-12)


def test_repelling_exact_infeasible_beyond_four():
    with pytest.raises(datasets.InfeasibleGeometryError, match="Gram"):
        datasets.gen_mutually_repelling(5, num_positive=1, mode="exact")


@pytest.mark.parametrize("n,d", [(5, 5), (10, 10), (10, 14), (1, 3)])
def test_repelling_generalized_geometry(n, d):
    ds = datasets.gen_mutually_repelling(n, num_positive=1, mode="generalized", d=d)
    assert ds.d == d
    Gz = ds.lifted() @ ds.lifted().T
    off = Gz[~np.eye(n, dtype=bool)]
    if off.size:
        np.testing.assert_allclose(off, -2.0, atol=1e-12)
    ok, _ = datasets.validate_distinct(ds)
    assert ok


def test_repelling_labels_split():
    ds = datasets.gen_mutually_repelling(4, num_positive=3)
    np.testing.assert_array_equal(ds.y, [1, 1, 1, -1])


def test_repelling_auto_picks_mode():
    assert datasets.gen_mutually_repelling(4, 1).d == 4  # simplex ambient
    assert datasets.gen_mutually_repelling(6, 1).d == 6  # generalized default d=n


def test_quadratically_separable_margins():
    ds, form = datasets.gen_quadratically_separable(40, 3, seed=7)
    q = form(ds.X)
    np.testing.assert_array_equal(ds.y, np.sign(q))
    assert np.min(np.abs(q)) > 1e-3 * np.max(np.abs(q))


def test_quadratic_form_evaluation():
    form = datasets.QuadraticForm(Q=np.eye(2), p=np.array([0.0, 1.0]), c=-2.0)
    np.testing.assert_allclose(form(np.array([[1.0, 1.0]])), [1.0 + 1.0 + 1.0 - 2.0])


def test_gen_random_reproducible():
    a = datasets.gen_random(6, 2, seed=3)
    b = datasets.gen_random(6, 2, seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert set(np.unique(a.y)) <= {-1, 1}


def test_csv_round_trip_exact(tmp_path):
    ds = datasets.gen_random(8, 4, seed=11)
    path = tmp_path / "data.csv"
    datasets.save_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4,y"
    back = datasets.load_csv(path)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)


@st.composite
def any_dataset(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    X = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n * d, max_size=n * d))
    y = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return Dataset(np.reshape(X, (n, d)), np.array(y))


@settings(max_examples=60, deadline=None)
@given(ds=any_dataset())
def test_csv_round_trip_is_the_identity(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    datasets.save_csv(ds, path)
    back = datasets.load_csv(path)
    assert back.X.shape == ds.X.shape and back.X.tobytes() == ds.X.tobytes()
    assert back.y.tolist() == ds.y.tolist()


def test_csv_rejects_malformed(tmp_path):
    # Each error names the file, and the line where one value is at fault.
    path = tmp_path / "bad.csv"
    for text, message in [
        ("x1,z\n0.0,1\n", ": expected header"),
        ("x1,y\n0.0\n", ":2: expected 2 fields"),
        ("x1,x2,y\n0.0,1.0,1\n0.5,abc,-1\n", ":3: could not convert string to float: 'abc'"),
        ("x1,y\n0.0,1.0\n", ":2: invalid literal for int"),
        ("x1,y\n0.0,1\n1.0,nan\n", ":3: invalid literal for int"),
        ("x1,y\n0.0,1\ninf,-1\n", ": X has non-finite entries"),
        ("x1,y\n0.0,2\n", ": labels must be -1 or +1"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            datasets.load_csv(path)
