"""Frozen selectors: freeze / predict-parity / save / load / relabel."""

import numpy as np
import pytest

from repro.core.deploy import FrozenSelector, freeze, rebuild_pipeline
from repro.core.semisupervised import ClusterFormatSelector


@pytest.fixture(scope="module", params=["kmeans", "meanshift", "birch"])
def frozen_pair(request, tiny_data):
    ds = tiny_data.datasets["volta"]
    nc = None if request.param == "meanshift" else 12
    sel = ClusterFormatSelector(request.param, "vote", nc, seed=0)
    sel.fit(ds.X, ds.labels)
    return sel, freeze(sel), ds


def test_frozen_predictions_match_live(frozen_pair):
    sel, frozen, ds = frozen_pair
    np.testing.assert_array_equal(frozen.predict(ds.X), sel.predict(ds.X))


def test_frozen_transform_matches_pipeline(frozen_pair):
    sel, frozen, ds = frozen_pair
    np.testing.assert_allclose(
        frozen.transform(ds.X),
        sel.pipeline_.transform_features(ds.X),
        atol=1e-12,
    )


def test_save_load_roundtrip(frozen_pair, tmp_path):
    _, frozen, ds = frozen_pair
    path = tmp_path / "selector.npz"
    frozen.save(path)
    loaded = FrozenSelector.load(path)
    np.testing.assert_array_equal(loaded.predict(ds.X), frozen.predict(ds.X))
    np.testing.assert_allclose(loaded.centroids, frozen.centroids)


def test_relabel_swaps_labels_only(frozen_pair, tiny_data):
    _, frozen, ds = frozen_pair
    # Port to Pascal: relabel centroids with pascal's labels via a live
    # selector vote on the common matrices.
    new_labels = np.array(
        ["coo"] * frozen.n_centroids, dtype=object
    )
    ported = frozen.relabel(new_labels)
    assert set(ported.predict(ds.X)) == {"coo"}
    np.testing.assert_allclose(ported.centroids, frozen.centroids)


def test_relabel_validates_length(frozen_pair):
    _, frozen, _ = frozen_pair
    with pytest.raises(ValueError):
        frozen.relabel(np.array(["csr"], dtype=object))


def test_freeze_requires_labeled_selector(tiny_data):
    ds = tiny_data.datasets["volta"]
    sel = ClusterFormatSelector("kmeans", "vote", 8, seed=0)
    sel.fit_clusters(ds.X)
    with pytest.raises(ValueError):
        freeze(sel)


def test_rebuilt_pipeline_equivalent(frozen_pair):
    _, frozen, ds = frozen_pair
    pipe = rebuild_pipeline(frozen)
    np.testing.assert_allclose(
        pipe.transform_features(ds.X), frozen.transform(ds.X), atol=1e-12
    )


def test_no_pca_no_transform_variant(tiny_data, tmp_path):
    from repro.core.pipeline import FeaturePipeline

    ds = tiny_data.datasets["volta"]
    sel = ClusterFormatSelector(
        "kmeans", "vote", 8,
        pipeline=FeaturePipeline(transform=None, n_components=None),
        seed=0,
    )
    sel.fit(ds.X, ds.labels)
    frozen = freeze(sel)
    path = tmp_path / "plain.npz"
    frozen.save(path)
    loaded = FrozenSelector.load(path)
    np.testing.assert_array_equal(loaded.predict(ds.X), sel.predict(ds.X))


def test_version_check(tmp_path, frozen_pair):
    _, frozen, _ = frozen_pair
    path = tmp_path / "bad.npz"
    frozen.save(path)
    # Corrupt the version field.
    data = dict(np.load(path, allow_pickle=False))
    data["version"] = np.array([999])
    np.savez(path, **data)
    with pytest.raises(ValueError):
        FrozenSelector.load(path)


class TestFallbackSelector:
    """Graceful degradation: inference keeps answering without a model."""

    def test_healthy_model_passthrough(self, frozen_pair, tmp_path):
        from repro.core.deploy import FallbackSelector

        _, frozen, ds = frozen_pair
        path = tmp_path / "selector.npz"
        frozen.save(path)
        fallback = FallbackSelector.load(path)
        assert not fallback.degraded
        assert fallback.error is None
        np.testing.assert_array_equal(
            fallback.predict(ds.X), frozen.predict(ds.X)
        )
        assert fallback.predict_one(ds.X[0]) == frozen.predict(ds.X[:1])[0]

    def test_missing_model_degrades_to_csr(self, tmp_path):
        from repro.core.deploy import FallbackSelector

        fallback = FallbackSelector.load(tmp_path / "missing.npz")
        assert fallback.degraded
        assert "FileNotFoundError" in fallback.error
        out = fallback.predict(np.zeros((3, 21)))
        assert list(out) == ["csr", "csr", "csr"]

    def test_corrupt_model_degrades(self, tmp_path):
        from repro.core.deploy import FallbackSelector

        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not an npz archive")
        fallback = FallbackSelector.load(path)
        assert fallback.degraded
        assert fallback.predict_one(np.zeros(21)) == "csr"

    def test_custom_fallback_format(self, tmp_path):
        from repro.core.deploy import FallbackSelector

        fallback = FallbackSelector.load(
            tmp_path / "missing.npz", fallback_format="coo"
        )
        assert fallback.predict_one(np.zeros(21)) == "coo"

    def test_predict_time_failure_degrades_that_call(
        self, frozen_pair, tmp_path
    ):
        from repro.core.deploy import FallbackSelector

        _, frozen, ds = frozen_pair
        path = tmp_path / "selector.npz"
        frozen.save(path)
        fallback = FallbackSelector.load(path)
        # Wrong feature dimensionality makes the frozen transform blow
        # up; the wrapper answers with the fallback instead of raising.
        out = fallback.predict(np.zeros((2, 3)))
        assert list(out) == ["csr", "csr"]
        assert fallback.error is not None

    def test_degraded_load_counts_in_telemetry(self, tmp_path):
        from repro.core.deploy import FallbackSelector
        from repro.obs import TELEMETRY

        TELEMETRY.enable()
        TELEMETRY.reset()
        try:
            fallback = FallbackSelector.load(tmp_path / "missing.npz")
            fallback.predict(np.zeros((2, 21)))
            registry = TELEMETRY.registry
            assert registry.counter("deploy.fallback_loads").value == 1
            assert registry.counter("deploy.fallback_predictions").value == 2
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
