"""Shared mmap model store: publish-once / attach-many (DESIGN §14).

The economic claim under test: N workers attaching the same published
version share one set of on-disk arrays via ``np.memmap`` — no
per-worker deserialization, no per-worker validation pass, no private
copies.  Plus the store-only parts of the reload state machine a
worker runs over a :class:`StoreLoader` (integrity, journal fallback),
which let it follow the CURRENT pointer without ever unpublishing a
working model.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs import TELEMETRY
from repro.serving.drill import synthetic_frozen_selector
from repro.serving.modelstore import (
    ModelStore,
    ModelStoreError,
    StoreLoader,
)
from repro.serving.reload import (
    ModelHost,
    RELOAD_QUARANTINED,
    RELOAD_SWAPPED,
    RELOAD_UNCHANGED,
    golden_features,
)


@pytest.fixture
def store(tmp_path):
    return ModelStore(str(tmp_path / "store"))


@pytest.fixture
def selector():
    return synthetic_frozen_selector(seed=3)


# -- publish / attach roundtrip ----------------------------------------------


def test_publish_attach_roundtrip_preserves_predictions(store, selector):
    store.publish(selector, "v1")
    attached = store.attach("v1")
    X = golden_features()
    assert list(attached.predict(X)) == list(selector.predict(X))
    assert attached.n_centroids == selector.n_centroids
    assert attached.transform_kind == selector.transform_kind
    np.testing.assert_array_equal(attached.centroids, selector.centroids)


def test_publish_flips_current_pointer(store, selector):
    assert store.current_sha() is None
    assert store.current_stat() is None
    store.publish(selector, "v1")
    assert store.current_sha() == "v1"
    assert store.current_stat() is not None


def test_republish_same_sha_only_flips_pointer(store, selector):
    path = store.publish(selector, "v1")
    mtimes = {
        name: os.stat(os.path.join(path, name)).st_mtime_ns
        for name in os.listdir(path)
    }
    store.publish(selector, "v2")
    store.publish(selector, "v1")  # back-flip: version dir already exists
    assert store.current_sha() == "v1"
    for name, mtime in mtimes.items():
        assert os.stat(os.path.join(path, name)).st_mtime_ns == mtime, (
            f"republish rewrote {name} instead of reusing the version"
        )


# -- the shared-mmap property ------------------------------------------------


def test_attaches_share_one_mmap_of_the_published_arrays(store, selector):
    """Every attach maps the same files — one page-cache copy for N."""
    vdir = store.publish(selector, "v1")
    workers = [store.attach("v1") for _ in range(3)]
    expected = os.path.join(vdir, "centroids.npy")
    for attached in workers:
        centroids = attached.centroids
        assert isinstance(centroids, np.memmap), type(centroids)
        assert not centroids.flags.writeable
        assert os.path.samefile(centroids.filename, expected)
    # Same bytes, zero private copies: all three views alias one file.
    filenames = {w.centroids.filename for w in workers}
    assert len({os.path.realpath(f) for f in filenames}) == 1


def test_attach_performs_no_validation_work(store, selector):
    """Attach emits no load/validation telemetry — the publisher's
    shadow validation (a golden-feature predict) is the only one."""
    store.publish(selector, "v1")
    TELEMETRY.enable()
    try:
        TELEMETRY.reset()
        for _ in range(3):
            store.attach("v1")
        snap = TELEMETRY.registry.snapshot()
    finally:
        TELEMETRY.disable()
    assert snap["serving.store.attached"]["value"] == 3.0
    # A validating load would run the golden predict and stamp these.
    assert "deploy.predictions" not in snap
    assert "deploy.predict_seconds" not in snap
    assert not any("validate" in name for name in snap)


# -- torn/missing versions ---------------------------------------------------


def test_attach_missing_version_raises(store):
    with pytest.raises(ModelStoreError, match="missing or torn"):
        store.attach("nope")


def test_attach_torn_version_raises(store, selector):
    vdir = store.publish(selector, "v1")
    os.unlink(os.path.join(vdir, "centroids.npy"))
    with pytest.raises(ModelStoreError):
        store.attach("v1")


def test_attach_rejects_manifest_naming_unknown_arrays(store, selector):
    import json

    vdir = store.publish(selector, "v1")
    manifest_path = os.path.join(vdir, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest["arrays"].append("__import__")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ModelStoreError, match="unknown array"):
        store.attach("v1")


# -- the host over a StoreLoader ---------------------------------------------


def test_store_host_attaches_current_on_boot(store, selector):
    store.publish(selector, "v1")
    host = ModelHost(StoreLoader(store))
    assert not host.degraded
    assert host.active.sha256 == "v1"
    snap = host.snapshot()
    assert snap["degraded"] is False
    assert snap["sha256"] == "v1"
    assert snap["reloads"] == 0 and snap["quarantined"] == 0


def test_store_host_degraded_on_empty_store(store):
    host = ModelHost(StoreLoader(store))
    assert host.degraded
    assert "no published model" in host.snapshot()["error"]


def test_store_host_swaps_on_pointer_flip(store):
    store.publish(synthetic_frozen_selector(seed=3), "v1")
    host = ModelHost(StoreLoader(store))
    assert host.check_reload() == RELOAD_UNCHANGED
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 == "v2"
    assert host.n_reloads == 1


def test_store_host_pointer_rewrite_same_sha_is_unchanged(store, selector):
    store.publish(selector, "v1")
    host = ModelHost(StoreLoader(store))
    store.set_current("v1")  # new pointer file, same version
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.n_reloads == 0


def test_store_host_quarantines_torn_flip_and_keeps_serving(store, selector):
    store.publish(selector, "v1")
    host = ModelHost(StoreLoader(store))
    store.set_current("deadbeef")  # points at a version that never landed
    assert host.check_reload() == RELOAD_QUARANTINED
    assert host.active.sha256 == "v1", "quarantine must not unpublish"
    assert not host.degraded
    assert host.n_quarantined == 1
    # A later good flip recovers.
    store.publish(synthetic_frozen_selector(seed=5), "v3")
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 == "v3"


# -- GC: publish-order grace list ---------------------------------------------


def test_prune_keeps_current_and_grace_list(store):
    for i in range(1, 5):
        store.publish(synthetic_frozen_selector(seed=i), f"v{i}")
    assert store.publish_order() == ["v1", "v2", "v3", "v4"]
    pruned = store.prune(keep=2)
    assert pruned == ["v1", "v2"]
    assert store.publish_order() == ["v3", "v4"]
    assert not os.path.isdir(store.version_dir("v1"))
    assert not os.path.isdir(store.version_dir("v2"))
    # Both survivors stay attachable: a worker mid-attach on the version
    # published one flip ago must not lose the files under its mmap.
    for sha in ("v3", "v4"):
        assert store.attach(sha) is not None


def test_prune_below_one_is_a_noop(store, selector):
    store.publish(selector, "v1")
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    assert store.prune(keep=0) == []
    assert store.prune(keep=-3) == []
    assert os.path.isdir(store.version_dir("v1"))
    assert store.publish_order() == ["v1", "v2"]


def test_prune_never_removes_current_even_when_old(store):
    for i in range(1, 4):
        store.publish(synthetic_frozen_selector(seed=i), f"v{i}")
    store.set_current("v1")  # operator rolled back past the grace list
    pruned = store.prune(keep=1)
    assert "v1" not in pruned
    assert os.path.isdir(store.version_dir("v1"))
    assert store.attach("v1") is not None


def test_prune_is_idempotent(store):
    for i in range(1, 4):
        store.publish(synthetic_frozen_selector(seed=i), f"v{i}")
    assert store.prune(keep=2) == ["v1"]
    assert store.prune(keep=2) == []


# -- per-array integrity ------------------------------------------------------


def _corrupt(path: str) -> None:
    """Flip bytes mid-file: same length, different content digest."""
    with open(path, "r+b") as fh:
        fh.seek(max(os.path.getsize(path) // 2, 0))
        fh.write(b"\xff\x00\xff\x00")


def test_publish_records_per_array_digests(store, selector):
    import json

    vdir = store.publish(selector, "v1")
    manifest = json.load(open(os.path.join(vdir, "manifest.json")))
    assert set(manifest["digests"]) == set(manifest["arrays"])
    for digest in manifest["digests"].values():
        assert len(digest) == 64  # sha256 hex


def test_attach_rejects_bitflipped_array(store, selector):
    vdir = store.publish(selector, "v1")
    _corrupt(os.path.join(vdir, "centroids.npy"))
    with pytest.raises(ModelStoreError, match="integrity failure"):
        store.attach("v1")


def test_host_boot_falls_back_past_corrupt_current(store):
    store.publish(synthetic_frozen_selector(seed=3), "v1")
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    _corrupt(os.path.join(store.version_dir("v2"), "centroids.npy"))
    host = ModelHost(StoreLoader(store))
    # The corrupt CURRENT is quarantined; the previous published version
    # bridges the gap instead of serving degraded.
    assert not host.degraded
    assert host.active.sha256 == "v1"
    assert host.n_quarantined == 1
    assert host.n_fallbacks == 1
    snap = host.snapshot()
    assert snap["quarantined"] == 1 and snap["fallbacks"] == 1


def test_reload_quarantines_corrupt_flip_and_keeps_serving(store):
    store.publish(synthetic_frozen_selector(seed=3), "v1")
    host = ModelHost(StoreLoader(store))
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    _corrupt(os.path.join(store.version_dir("v2"), "centroids.npy"))
    assert host.check_reload() == RELOAD_QUARANTINED
    assert host.active.sha256 == "v1", "quarantine must not unpublish"
    assert not host.degraded
    # A later clean publish recovers normally.
    store.publish(synthetic_frozen_selector(seed=5), "v3")
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 == "v3"


def test_corrupt_flip_attaches_only_the_candidate(store, monkeypatch):
    """A bad flip while v1 serves must not re-attach v1 as a "fallback".

    The journal walk stops at the serving version: re-attaching it would
    re-hash every array file and map them again for nothing, and count a
    bridge that never happened.
    """
    store.publish(synthetic_frozen_selector(seed=3), "v1")
    host = ModelHost(StoreLoader(store))
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    _corrupt(os.path.join(store.version_dir("v2"), "centroids.npy"))
    attached: list[str] = []
    real_attach = store.attach

    def attach(sha):
        attached.append(sha)
        return real_attach(sha)

    monkeypatch.setattr(store, "attach", attach)
    assert host.check_reload() == RELOAD_QUARANTINED
    assert attached == ["v2"]
    assert host.active.sha256 == "v1" and not host.degraded
    assert host.n_quarantined == 1
    assert host.snapshot()["fallbacks"] == 0


def test_one_check_reads_current_once(store, monkeypatch):
    """The sha a check reads is the sha it attaches, judges and counts.

    CURRENT moves from v2 to v3 during the check; a second read would
    attach v3 while judging v2, adopting v3 as an uncounted quarantine.
    """
    store.publish(synthetic_frozen_selector(seed=3), "v1")
    host = ModelHost(StoreLoader(store))
    store.publish(synthetic_frozen_selector(seed=4), "v2")
    store.publish(synthetic_frozen_selector(seed=5), "v3")
    reads = iter(["v2", "v3"])
    monkeypatch.setattr(store, "current_sha", lambda: next(reads))
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 == "v2"
    assert host.n_reloads == 1 and host.n_quarantined == 0
