"""Bucket-interpolated quantile estimation."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    Histogram,
    bucket_quantile,
    quantile_key,
    snapshot_quantile,
    summarize,
)


class TestBucketQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(bucket_quantile([1.0, 2.0], [0, 0, 0], 0.5))

    def test_interpolates_within_bucket(self):
        # 10 observations, all in the (1.0, 2.0] bucket: p50 ranks at
        # sample 5 of 10, half-way into the bucket.
        est = bucket_quantile([1.0, 2.0, 4.0], [0, 10, 0, 0], 0.5)
        assert est == pytest.approx(1.5)

    def test_first_bucket_lower_edge_is_zero(self):
        est = bucket_quantile([1.0, 2.0], [10, 0, 0], 0.5)
        assert est == pytest.approx(0.5)

    def test_overflow_bucket_returns_highest_finite_edge(self):
        est = bucket_quantile([1.0, 2.0], [0, 0, 5], 0.99)
        assert est == 2.0

    def test_clamped_to_observed_envelope(self):
        # All ten samples were exactly 1.2; without the envelope the
        # p99 estimate would float toward the bucket's upper edge.
        est = bucket_quantile([1.0, 2.0], [0, 10, 0], 0.99, lo=1.2, hi=1.2)
        assert est == pytest.approx(1.2)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            bucket_quantile([1.0], [0, 0], 1.5)

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            bucket_quantile([1.0, 2.0], [1, 2], 0.5)

    def test_monotone_in_q(self):
        edges = [0.001, 0.01, 0.1, 1.0]
        counts = [5, 20, 60, 10, 5]
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
        ests = [bucket_quantile(edges, counts, q) for q in qs]
        assert ests == sorted(ests)


class TestSnapshotQuantile:
    def test_roundtrips_histogram_snapshot(self):
        h = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5):
            h.observe(v)
        snap = h.snapshot()
        assert snapshot_quantile(snap, 0.5) == pytest.approx(h.quantile(0.5))

    def test_non_histogram_is_nan(self):
        assert math.isnan(snapshot_quantile({"type": "counter"}, 0.5))

    def test_summarize_keys(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.5)
        summary = summarize(h.snapshot())
        assert sorted(summary) == ["p50", "p95", "p99"]


class TestQuantileKey:
    def test_no_float_noise(self):
        assert quantile_key(0.95) == "p95"
        assert quantile_key(0.99) == "p99"
        assert quantile_key(0.5) == "p50"

    def test_fractional_quantile(self):
        assert quantile_key(0.999) == "p99.9"

