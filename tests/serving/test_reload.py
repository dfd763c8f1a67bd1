"""Hot reload: shadow validation, atomic swap, quarantine."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

from repro.serving.drill import synthetic_frozen_selector
from repro.serving.reload import (
    ModelHost,
    RELOAD_QUARANTINED,
    RELOAD_SWAPPED,
    RELOAD_UNCHANGED,
    golden_features,
)


def _bump_mtime(path: str, step: int = 1_000_000) -> None:
    """Force a distinct (mtime_ns, size) fingerprint after a rewrite."""
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + step))


def test_initial_load_publishes_model(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    assert not host.degraded
    assert host.active.sha256 is not None
    assert np.isfinite(host.active.scale) and host.active.scale > 0


def test_missing_file_starts_degraded(tmp_path, fake_clock):
    host = ModelHost(str(tmp_path / "absent.npz"), clock=fake_clock)
    assert host.degraded
    assert host.active.selector is None
    assert "does not exist" in host.active.error


def test_corrupt_initial_file_is_quarantined(tmp_path, fake_clock):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an npz archive")
    host = ModelHost(str(path), clock=fake_clock)
    assert host.degraded
    assert host.n_quarantined == 1
    assert host.active.sha256 in host.quarantine


def test_unchanged_file_does_not_reload(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    sha = host.active.sha256
    for _ in range(3):
        assert host.check_reload() == RELOAD_UNCHANGED
    assert host.active.sha256 == sha
    assert host.n_reloads == 0


def test_touch_without_content_change_is_unchanged(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.n_reloads == 0


def test_good_candidate_swaps(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    old_sha = host.active.sha256
    synthetic_frozen_selector(seed=99, n_centroids=7).save(model_path)
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 != old_sha
    assert host.active.selector.n_centroids == 7
    assert host.n_reloads == 1


def test_bad_candidate_quarantined_old_model_keeps_serving(
    model_path, fake_clock
):
    host = ModelHost(model_path, clock=fake_clock)
    old = host.active
    with open(model_path, "wb") as fh:
        fh.write(b"corrupt bytes, not a model")
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_QUARANTINED
    # The working model is never unpublished.
    assert host.active is old
    assert not host.degraded
    assert host.n_quarantined == 1
    # The bad digest is remembered: rewriting the same bytes costs one
    # stat + hash, never a second validation attempt.
    with open(model_path, "wb") as fh:
        fh.write(b"corrupt bytes, not a model")
    _bump_mtime(model_path, step=2_000_000)
    assert host.check_reload() == RELOAD_QUARANTINED
    assert host.n_quarantined == 1
    assert len(host.quarantine) == 1


def test_structurally_bad_npz_is_quarantined(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    # A valid .npz archive that is not a valid model (missing arrays).
    np.savez(model_path, version=np.array([999]))
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_QUARANTINED
    assert not host.degraded


def test_recovery_after_quarantine(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    with open(model_path, "wb") as fh:
        fh.write(b"garbage")
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_QUARANTINED
    synthetic_frozen_selector(seed=5).save(model_path)
    _bump_mtime(model_path, step=2_000_000)
    assert host.check_reload() == RELOAD_SWAPPED
    assert not host.degraded


def test_deleted_file_leaves_model_serving(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    os.unlink(model_path)
    assert host.check_reload() == RELOAD_UNCHANGED
    assert not host.degraded


def test_golden_features_deterministic():
    a, b = golden_features(), golden_features()
    assert a.shape[0] == 3
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_snapshot_shape(model_path, fake_clock):
    host = ModelHost(model_path, clock=fake_clock)
    snap = host.snapshot()
    assert snap["degraded"] is False
    assert snap["sha256"] == host.active.sha256
    assert snap["n_centroids"] == host.active.selector.n_centroids


def test_swap_is_atomic_under_concurrent_requests(model_path, fake_clock):
    """Readers racing a stream of swaps never see a torn model.

    Each reader grabs ``host.active`` once (the documented handler
    discipline) and must find a selector whose arrays are mutually
    consistent — predict and nearest_distance both succeed and the
    label count matches that version's centroid count.
    """
    host = ModelHost(model_path, clock=fake_clock)
    golden = golden_features()
    errors: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            active = host.active  # read once, use throughout
            if active.selector is None:
                errors.append("reader saw a degraded model")
                return
            try:
                labels = active.selector.predict(golden)
                distances = active.selector.nearest_distance(golden)
            except Exception as exc:
                errors.append(f"inference raised: {exc}")
                return
            if len(labels) != 3 or not np.all(np.isfinite(distances)):
                errors.append("inconsistent inference result")
                return

    # Four readers spin holding the GIL.  At the default 5 ms switch
    # interval the swapping thread waits that long to get it back after
    # every blocking call (minutes for the 20 swaps); at 0.1 ms they take
    # about a second, and readers and swapper interleave more finely.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for i in range(20):
            synthetic_frozen_selector(
                seed=100 + i, n_centroids=4 + i % 5
            ).save(model_path)
            _bump_mtime(model_path, step=(i + 1) * 1_000_000)
            host.check_reload()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(switch_interval)
    assert errors == []
    assert host.n_reloads >= 1
