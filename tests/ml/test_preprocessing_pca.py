"""Preprocessing stages and PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.base import NotFittedError
from repro.ml.pca import PCA
from repro.ml.preprocessing import (
    MinMaxScaler,
    SparseDistributionTransformer,
    StandardScaler,
    sparse_distribution_score,
    sparse_distribution_scores,
)
from tests.conftest import HYPOTHESIS_SCALE

# A small pool forces ties, zeros, all-negative columns and columns with
# fewer than two positives; the float range adds arbitrary magnitudes.
score_values = st.one_of(
    st.sampled_from([-3.0, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 1e300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestMinMaxScaler:
    def test_range(self, rng):
        X = rng.standard_normal((40, 5)) * 100
        out = MinMaxScaler().fit_transform(X)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = MinMaxScaler().fit_transform(X)
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_clipping_out_of_range(self, rng):
        X = rng.random((20, 3))
        scaler = MinMaxScaler().fit(X)
        out = scaler.transform(X * 10 - 5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_no_clip_mode(self, rng):
        X = rng.random((20, 3))
        scaler = MinMaxScaler(clip=False).fit(X)
        out = scaler.transform(X + 10)
        assert out.max() > 1.0

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_feature_count_mismatch(self, rng):
        scaler = MinMaxScaler().fit(rng.random((5, 3)))
        with pytest.raises(ValueError):
            scaler.transform(rng.random((5, 4)))


class TestStandardScaler:
    def test_zero_mean_unit_std(self, rng):
        X = rng.standard_normal((200, 4)) * 3 + 7
        out = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_safe(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        out = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(out))


class TestSparseDistributionTransformer:
    def test_heavy_tail_detected(self, rng):
        heavy = np.exp(rng.standard_normal(500) * 4) + 1
        compact = rng.uniform(10, 12, 500)
        assert sparse_distribution_score(heavy) > 10
        assert sparse_distribution_score(compact) < 2

    def test_only_heavy_columns_transformed(self, rng):
        heavy = np.exp(rng.standard_normal(300) * 4)
        compact = rng.uniform(5, 6, 300)
        X = np.column_stack([heavy, compact])
        tr = SparseDistributionTransformer(kind="log").fit(X)
        assert tr.apply_[0] and not tr.apply_[1]
        out = tr.transform(X)
        np.testing.assert_allclose(out[:, 0], np.log1p(heavy))
        np.testing.assert_allclose(out[:, 1], compact)

    def test_sqrt_kind(self, rng):
        heavy = np.exp(rng.standard_normal(300) * 4)
        X = heavy[:, None]
        out = SparseDistributionTransformer(kind="sqrt").fit_transform(X)
        np.testing.assert_allclose(out[:, 0], np.sqrt(heavy))

    def test_negative_values_shifted(self, rng):
        # Difference features like max_mu can be negative.
        heavy = np.exp(rng.standard_normal(300) * 4) - 50.0
        out = SparseDistributionTransformer().fit_transform(heavy[:, None])
        assert np.all(np.isfinite(out))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SparseDistributionTransformer(kind="exp")

    @settings(max_examples=200 * HYPOTHESIS_SCALE, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 8)),
            elements=score_values,
        )
    )
    def test_batched_scores_match_reference_bit_for_bit(self, X):
        with np.errstate(over="ignore"):  # 1e300 / 5e-324 is inf in both
            want = [
                sparse_distribution_score(X[:, j]) for j in range(X.shape[1])
            ]
            got = sparse_distribution_scores(X)
        np.testing.assert_array_equal(
            got.view(np.uint64), np.array(want).view(np.uint64)
        )

    def test_transform_below_fitted_min_is_clamped(self, rng):
        X = np.exp(rng.standard_normal(300) * 4)[:, None] + 5
        tr = SparseDistributionTransformer().fit(X)
        out = tr.transform(np.array([[0.1]]))
        assert np.all(np.isfinite(out))


class TestPCA:
    def test_orthonormal_components(self, rng):
        X = rng.standard_normal((100, 10))
        pca = PCA(4).fit(X)
        G = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(G, np.eye(4), atol=1e-10)

    def test_variance_ratios_sorted_and_bounded(self, rng):
        X = rng.standard_normal((100, 10)) * np.arange(1, 11)
        pca = PCA(5).fit(X)
        evr = pca.explained_variance_ratio_
        assert np.all(np.diff(evr) <= 1e-12)
        assert 0 < evr.sum() <= 1.0 + 1e-12

    def test_perfect_reconstruction_full_rank(self, rng):
        X = rng.standard_normal((30, 5))
        pca = PCA(5).fit(X)
        Z = pca.transform(X)
        np.testing.assert_allclose(pca.inverse_transform(Z), X, atol=1e-9)

    def test_low_rank_data_recovered_exactly(self, rng):
        basis = rng.standard_normal((2, 8))
        X = rng.standard_normal((50, 2)) @ basis
        pca = PCA(2).fit(X)
        Z = pca.transform(X)
        np.testing.assert_allclose(pca.inverse_transform(Z), X, atol=1e-9)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0)

    def test_components_capped_by_rank(self, rng):
        X = rng.standard_normal((5, 10))
        pca = PCA(8).fit(X)
        assert pca.n_components_ == 5
        assert pca.transform(X).shape == (5, 5)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.ones((3, 3)))


@given(
    arrays(
        np.float64,
        (12, 4),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_minmax_always_in_unit_box(X):
    out = MinMaxScaler().fit_transform(X)
    assert out.min() >= -1e-12
    assert out.max() <= 1.0 + 1e-12
