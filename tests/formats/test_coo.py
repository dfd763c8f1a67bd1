"""COO container: canonicalisation, SpMV, structure queries, permutation."""

import numpy as np
import pytest

from repro.formats import COOMatrix, FormatError


def test_from_dense_roundtrip(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    assert coo.shape == small_dense.shape
    assert coo.nnz == np.count_nonzero(small_dense)
    np.testing.assert_allclose(coo.to_dense(), small_dense)


def test_triples_are_sorted_row_major(small_coo):
    keys = small_coo.rows * small_coo.ncols + small_coo.cols
    assert np.all(np.diff(keys) > 0)


def test_duplicates_are_summed():
    coo = COOMatrix(
        (3, 3),
        rows=[0, 0, 0, 2],
        cols=[1, 1, 1, 2],
        vals=[1.0, 2.0, 3.0, 5.0],
    )
    assert coo.nnz == 2
    dense = coo.to_dense()
    assert dense[0, 1] == 6.0
    assert dense[2, 2] == 5.0


def test_distinct_entries_stay_distinct_past_int64_keys():
    """In a 2**40-square matrix, (0, 0) and (2**24, 0) share the packed
    key ``row * ncols + col`` modulo 2**64; they must not merge."""
    n = 2**40
    coo = COOMatrix((n, n), rows=[2**24, 0], cols=[0, 0], vals=[2.0, 1.0])
    assert coo.rows.tolist() == [0, 2**24]
    assert coo.cols.tolist() == [0, 0]
    assert coo.vals.tolist() == [1.0, 2.0]


def _lexsorted(rows, cols, vals):
    """The canonical triples by the sort every input once went through."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
    summed = np.bincount(np.cumsum(first) - 1, weights=vals)
    return rows[first], cols[first], summed


def _triples(rng, n, order):
    rows = rng.integers(0, 40, n)
    cols = rng.integers(0, 30, n)
    vals = rng.standard_normal(n)
    if order != "unsorted":
        keep = np.lexsort((cols, rows))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if order == "sorted":
        first = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
        rows, cols, vals = rows[first], cols[first], vals[first]
    return rows, cols, vals


@pytest.mark.parametrize("order", ["sorted", "sorted-with-duplicates", "unsorted"])
def test_canonical_bytes_equal_the_lexsort_path(order):
    """Row-major input skips the sort; every input gives the bytes the
    sort gives, duplicates summed in input order."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 500):
        rows, cols, vals = _triples(rng, n, order)
        coo = COOMatrix((40, 30), rows, cols, vals)
        for got, want in zip((coo.rows, coo.cols, coo.vals), _lexsorted(rows, cols, vals)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if order == "sorted-with-duplicates":
        assert coo.nnz < n


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_matrix_does_not_alias_its_input_arrays(order):
    rows, cols, vals = _triples(np.random.default_rng(12), 50, order)
    rows, cols, vals = rows.astype(np.int64), cols.astype(np.int64), vals.copy()
    coo = COOMatrix((40, 30), rows, cols, vals)
    kept = coo.rows.copy(), coo.cols.copy(), coo.vals.copy()
    rows[:] = 0
    cols[:] = 0
    vals[:] = 7.0
    for got, want in zip((coo.rows, coo.cols, coo.vals), kept):
        assert np.array_equal(got, want)


def test_out_of_range_indices_rejected():
    with pytest.raises(FormatError):
        COOMatrix((2, 2), rows=[2], cols=[0], vals=[1.0])
    with pytest.raises(FormatError):
        COOMatrix((2, 2), rows=[0], cols=[-1], vals=[1.0])


def test_mismatched_triple_lengths_rejected():
    with pytest.raises(FormatError):
        COOMatrix((2, 2), rows=[0, 1], cols=[0], vals=[1.0])


def test_invalid_shape_rejected():
    with pytest.raises(FormatError):
        COOMatrix((0, 5), rows=[], cols=[], vals=[])


def test_spmv_matches_dense(small_dense, small_coo, rng):
    x = rng.standard_normal(small_dense.shape[1])
    np.testing.assert_allclose(small_coo.spmv(x), small_dense @ x)


def test_spmv_rejects_wrong_vector_length(small_coo):
    with pytest.raises(FormatError):
        small_coo.spmv(np.ones(small_coo.ncols + 1))


def test_empty_matrix_spmv():
    coo = COOMatrix.empty((4, 3))
    np.testing.assert_array_equal(coo.spmv(np.ones(3)), np.zeros(4))
    assert coo.nnz == 0
    assert coo.memory_bytes() == 0


def test_row_lengths(small_dense, small_coo):
    expected = (small_dense != 0).sum(axis=1)
    np.testing.assert_array_equal(small_coo.row_lengths(), expected)


def test_diagonal_offsets():
    dense = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
    coo = COOMatrix.from_dense(dense)
    np.testing.assert_array_equal(coo.diagonal_offsets(), [-2, 0, 1])


def test_transpose(small_dense, small_coo, rng):
    t = small_coo.transpose()
    np.testing.assert_allclose(t.to_dense(), small_dense.T)


def test_permute_rows_and_cols(small_dense, small_coo, rng):
    rp = rng.permutation(small_coo.nrows)
    cp = rng.permutation(small_coo.ncols)
    permuted = small_coo.permute(rp, cp)
    expected = np.zeros_like(small_dense)
    # B[rp[i], cp[j]] = A[i, j]
    for i in range(small_dense.shape[0]):
        for j in range(small_dense.shape[1]):
            expected[rp[i], cp[j]] = small_dense[i, j]
    np.testing.assert_allclose(permuted.to_dense(), expected)


def test_permute_preserves_nnz_and_row_length_multiset(small_coo, rng):
    rp = rng.permutation(small_coo.nrows)
    permuted = small_coo.permute(row_perm=rp)
    assert permuted.nnz == small_coo.nnz
    np.testing.assert_array_equal(
        np.sort(permuted.row_lengths()), np.sort(small_coo.row_lengths())
    )


def test_permute_rejects_non_permutation(small_coo):
    bad = np.zeros(small_coo.nrows, dtype=np.int64)
    with pytest.raises(FormatError):
        small_coo.permute(row_perm=bad)


def test_memory_bytes(small_coo):
    # 2 x 4-byte indices + 8-byte value per entry.
    assert small_coo.memory_bytes() == small_coo.nnz * 16
