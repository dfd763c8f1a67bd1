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
