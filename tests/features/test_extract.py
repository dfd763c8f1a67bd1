"""Table-1 feature extraction."""

import numpy as np
import pytest

from repro.datasets.generators import banded
from repro.features import FEATURE_NAMES, extract_features, extract_features_collection
from repro.features.extract import features_from_stats, features_from_stats_batch
from repro.features.stats import MatrixStats, compute_stats
from repro.formats import COOMatrix


def _f(vec, name):
    return vec[FEATURE_NAMES.index(name)]


def test_twenty_one_features(small_coo):
    vec = extract_features(small_coo)
    assert vec.shape == (21,)
    assert len(FEATURE_NAMES) == 21


def test_simple_counts(small_dense, small_coo):
    vec = extract_features(small_coo)
    nnz = np.count_nonzero(small_dense)
    assert _f(vec, "nrows") == small_dense.shape[0]
    assert _f(vec, "ncols") == small_dense.shape[1]
    assert _f(vec, "nnz") == nnz
    assert _f(vec, "nnz_frac") == pytest.approx(nnz / small_dense.size)
    lengths = (small_dense != 0).sum(axis=1)
    assert _f(vec, "nnz_mu") == pytest.approx(lengths.mean())
    assert _f(vec, "nnz_min") == lengths.min()
    assert _f(vec, "nnz_max") == lengths.max()
    assert _f(vec, "nnz_sig") == pytest.approx(lengths.std())


def test_derived_differences(small_coo):
    vec = extract_features(small_coo)
    assert _f(vec, "max_mu") == pytest.approx(
        _f(vec, "nnz_max") - _f(vec, "nnz_mu")
    )
    assert _f(vec, "mu_min") == pytest.approx(
        _f(vec, "nnz_mu") - _f(vec, "nnz_min")
    )


def test_sig_lower_higher(small_dense, small_coo):
    vec = extract_features(small_coo)
    lengths = (small_dense != 0).sum(axis=1).astype(float)
    mu = lengths.mean()
    lower = lengths[lengths < mu]
    higher = lengths[lengths > mu]
    assert _f(vec, "sig_lower") == pytest.approx(
        np.sqrt(np.mean((mu - lower) ** 2))
    )
    assert _f(vec, "sig_higher") == pytest.approx(
        np.sqrt(np.mean((higher - mu) ** 2))
    )


def test_structure_sizes_consistent(small_coo):
    vec = extract_features(small_coo)
    s = compute_stats(small_coo)
    assert _f(vec, "ell_size") == s.ell_padded
    assert _f(vec, "ell_frac") == pytest.approx(s.nnz / s.ell_padded)
    assert _f(vec, "dia_size") == s.n_diagonals * s.nrows
    assert _f(vec, "dia_frac") == pytest.approx(s.nnz / s.dia_size)
    assert _f(vec, "hyb_ell_size") == s.hyb_ell_slots
    assert _f(vec, "hyb_coo") == s.hyb_coo_entries
    assert _f(vec, "hyb_ell_frac") == s.hyb_ell_entries


def test_features_architecture_invariant_wrt_values(rng):
    # Features depend on structure only: rescaling values changes nothing.
    m = banded(rng, n=100, bandwidth=3)
    m2 = COOMatrix(m.shape, m.rows, m.cols, m.vals * 1000.0)
    np.testing.assert_allclose(extract_features(m), extract_features(m2))


def test_row_permutation_invariance_of_row_stats(rng):
    m = banded(rng, n=128, bandwidth=4)
    perm = rng.permutation(128)
    mp = m.permute(row_perm=perm)
    v1 = extract_features(m)
    v2 = extract_features(mp)
    # Row-length-derived features are invariant under row permutation.
    for name in ("nnz", "nnz_mu", "nnz_min", "nnz_max", "nnz_sig",
                 "ell_size", "ell_frac"):
        assert _f(v1, name) == pytest.approx(_f(v2, name)), name


def test_collection_extraction(tiny_collection):
    table = extract_features_collection(tiny_collection.records)
    assert table.values.shape == (len(tiny_collection), 21)
    assert table.names == tiny_collection.names
    assert np.all(np.isfinite(table.values))


def test_empty_matrix_features():
    vec = features_from_stats(compute_stats(COOMatrix.empty((4, 4))))
    assert np.all(np.isfinite(vec))
    assert _f(vec, "nnz") == 0


class TestBatchedDerivation:
    """features_from_stats_batch must equal row-stacked features_from_stats."""

    def test_bit_identical_to_per_matrix_path(self, tiny_collection):
        stats = [compute_stats(r.matrix) for r in tiny_collection.records]
        batch = features_from_stats_batch(stats)
        stacked = np.vstack([features_from_stats(s) for s in stats])
        assert batch.dtype == stacked.dtype
        assert batch.tobytes() == stacked.tobytes()

    def test_empty_batch(self):
        out = features_from_stats_batch([])
        assert out.shape == (0, len(FEATURE_NAMES))

    def test_guarded_ratios_for_empty_matrix(self):
        from repro.formats import COOMatrix

        empty = COOMatrix((3, 3), np.array([]), np.array([]), np.array([]))
        stats = [compute_stats(empty)]
        batch = features_from_stats_batch(stats)
        single = features_from_stats(stats[0])
        np.testing.assert_array_equal(batch[0], single)

    def test_bit_identical_past_two_to_the_53(self):
        """``nrows * ncols`` above 2**53: the quotients are still the
        per-matrix path's, which divides exact Python integers."""
        stats = MatrixStats(
            nrows=628366340,
            ncols=223636558,
            nnz=894200084525,
            row_lengths=np.array([1423, 1424, 1500], dtype=np.int64),
            n_diagonals=7,
            band_fraction=0.5,
            mean_abs_offset=3.0,
            warp_divergence_slots=10,
            csr_max=4,
            hyb_width=1400,
            hyb_ell_entries=100,
            hyb_coo_entries=5,
        )
        assert stats.nrows * stats.ncols > 2**53
        single = features_from_stats(stats)
        assert _f(single, "nnz_frac") == 894200084525 / (628366340 * 223636558)
        batch = features_from_stats_batch([stats])
        assert batch[0].tobytes() == single.tobytes()

    def test_parallel_stats_pass_identical(self, tiny_collection):
        serial = extract_features_collection(tiny_collection.records, jobs=1)
        parallel = extract_features_collection(tiny_collection.records, jobs=2)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert serial.names == parallel.names
