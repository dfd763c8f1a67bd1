"""Hot reload: shadow validation, atomic swap, quarantine.

The first tests drive the host over a model file; the suite at the end
runs the same state machine over both loaders, a file and a model store.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.deploy import FrozenSelector
from repro.serving.drill import synthetic_frozen_selector
from repro.serving.modelstore import ModelStore, StoreLoader
from repro.serving.reload import (
    FileLoader,
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


def test_initial_load_publishes_model(model_path):
    host = ModelHost(FileLoader(model_path))
    assert not host.degraded
    assert host.active.sha256 is not None
    assert np.isfinite(host.active.scale) and host.active.scale > 0


def test_missing_file_starts_degraded(tmp_path):
    host = ModelHost(FileLoader(str(tmp_path / "absent.npz")))
    assert host.degraded
    assert host.active.selector is None
    assert "does not exist" in host.active.error


def test_corrupt_initial_file_is_quarantined(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an npz archive")
    host = ModelHost(FileLoader(str(path)))
    assert host.degraded
    assert host.n_quarantined == 1
    assert host.active.sha256 in host.quarantine


def test_unchanged_file_does_not_reload(model_path):
    host = ModelHost(FileLoader(model_path))
    sha = host.active.sha256
    for _ in range(3):
        assert host.check_reload() == RELOAD_UNCHANGED
    assert host.active.sha256 == sha
    assert host.n_reloads == 0


def test_touch_without_content_change_is_unchanged(model_path):
    host = ModelHost(FileLoader(model_path))
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.n_reloads == 0


def test_good_candidate_swaps(model_path):
    host = ModelHost(FileLoader(model_path))
    old_sha = host.active.sha256
    synthetic_frozen_selector(seed=99, n_centroids=7).save(model_path)
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 != old_sha
    assert host.active.selector.n_centroids == 7
    assert host.n_reloads == 1


def test_bad_candidate_quarantined_old_model_keeps_serving(model_path):
    host = ModelHost(FileLoader(model_path))
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


def test_structurally_bad_npz_is_quarantined(model_path):
    host = ModelHost(FileLoader(model_path))
    # A valid .npz archive that is not a valid model (missing arrays).
    np.savez(model_path, version=np.array([999]))
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_QUARANTINED
    assert not host.degraded


def test_recovery_after_quarantine(model_path):
    host = ModelHost(FileLoader(model_path))
    with open(model_path, "wb") as fh:
        fh.write(b"garbage")
    _bump_mtime(model_path)
    assert host.check_reload() == RELOAD_QUARANTINED
    synthetic_frozen_selector(seed=5).save(model_path)
    _bump_mtime(model_path, step=2_000_000)
    assert host.check_reload() == RELOAD_SWAPPED
    assert not host.degraded


def test_deleted_file_leaves_model_serving(model_path):
    host = ModelHost(FileLoader(model_path))
    os.unlink(model_path)
    assert host.check_reload() == RELOAD_UNCHANGED
    assert not host.degraded


def test_golden_features_deterministic():
    a, b = golden_features(), golden_features()
    assert a.shape[0] == 3
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_snapshot_shape(model_path):
    host = ModelHost(FileLoader(model_path))
    snap = host.snapshot()
    assert snap["degraded"] is False
    assert snap["sha256"] == host.active.sha256
    assert snap["n_centroids"] == host.active.selector.n_centroids


def test_swap_is_atomic_under_concurrent_requests(model_path):
    """Readers racing a stream of swaps never see a torn model.

    Each reader grabs ``host.active`` once (the documented handler
    discipline) and must find a selector whose arrays are mutually
    consistent — predict and nearest_distance both succeed and the
    label count matches that version's centroid count.
    """
    host = ModelHost(FileLoader(model_path))
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


def test_verdict_belongs_to_the_bytes_read_when_file_changes_mid_check(
    model_path, monkeypatch
):
    """A rewrite between the host's hash and its load cannot misfile.

    The file is read once: the digest, the strict load and the verdict
    all belong to those bytes.  Had the host hashed one read and loaded
    another, the good candidate's digest would be quarantined for the
    garbage's failure, and redeploying those exact bytes would never
    serve again.
    """
    host = ModelHost(FileLoader(model_path))
    synthetic_frozen_selector(seed=99, n_centroids=7).save(model_path)
    _bump_mtime(model_path)
    with open(model_path, "rb") as fh:
        good = fh.read()
    good_sha = hashlib.sha256(good).hexdigest()
    real_load = FrozenSelector.load
    raced: list[bool] = []

    def racing_load(source):
        if not raced:  # a writer replaces the file mid-check, once
            raced.append(True)
            with open(model_path, "wb") as fh:
                fh.write(b"garbage written mid-check")
        return real_load(source)

    monkeypatch.setattr(FrozenSelector, "load", racing_load)
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 == good_sha
    assert good_sha not in host.quarantine
    # The garbage is a candidate of its own, quarantined by its digest.
    assert host.check_reload() == RELOAD_QUARANTINED
    assert host.active.sha256 == good_sha
    # Redeploying the good bytes: they are what already serves.
    with open(model_path, "wb") as fh:
        fh.write(good)
    _bump_mtime(model_path, step=2_000_000)
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.active.sha256 == good_sha and not host.degraded


def test_load_failure_names_the_file_not_the_buffer(tmp_path):
    """The bytes are loaded from memory; the error still names the file."""
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an npz archive")
    host = ModelHost(FileLoader(str(path)))
    assert f"unreadable model file {path}:" in host.snapshot()["error"]
    assert "BytesIO" not in host.snapshot()["error"]


# -- one state machine, two loaders -------------------------------------------


class _FileDeploy:
    """Deploys by rewriting one ``.npz`` file."""

    def __init__(self, tmp_path) -> None:
        self.path = str(tmp_path / "model.npz")
        self.step = 0

    def loader(self) -> FileLoader:
        return FileLoader(self.path)

    def _changed(self) -> None:
        self.step += 1
        _bump_mtime(self.path, step=self.step * 1_000_000)

    def good(self, seed: int, n_centroids: int = 12) -> None:
        synthetic_frozen_selector(seed, n_centroids).save(self.path)
        self._changed()

    def bad(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(b"corrupt bytes, not a model")
        self._changed()

    def same(self) -> None:
        self._changed()  # touch: new fingerprint, same content


class _StoreDeploy:
    """Deploys by publishing versions to a model store."""

    def __init__(self, tmp_path) -> None:
        self.store = ModelStore(str(tmp_path / "store"))
        self.n = 0
        self.step = 0

    def loader(self) -> StoreLoader:
        return StoreLoader(self.store)

    def _changed(self) -> None:
        # Every pointer file has the same size; a distinct mtime keeps
        # two flips within one clock tick apart.
        self.step += 1
        _bump_mtime(self.store.current_path, step=self.step * 1_000_000)

    def good(self, seed: int, n_centroids: int = 12) -> None:
        self.n += 1
        self.store.publish(
            synthetic_frozen_selector(seed, n_centroids), f"v{self.n}"
        )
        self._changed()

    def bad(self) -> None:
        self.good(seed=1000 + self.n)
        path = os.path.join(
            self.store.version_dir(f"v{self.n}"), "centroids.npy"
        )
        with open(path, "r+b") as fh:  # bit-flip: the digest no longer holds
            fh.seek(os.path.getsize(path) // 2)
            fh.write(b"\xff\x00\xff\x00")

    def same(self) -> None:
        self.store.set_current(self.store.current_sha())  # new pointer file
        self._changed()


@pytest.fixture(params=[_FileDeploy, _StoreDeploy], ids=["file", "store"])
def deploy(request, tmp_path):
    return request.param(tmp_path)


def test_boot_publishes_the_model(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    assert not host.degraded
    assert host.active.sha256 is not None
    assert np.isfinite(host.active.scale) and host.active.scale > 0
    snap = host.snapshot()
    assert (snap["reloads"], snap["quarantined"], snap["fallbacks"]) == (
        0, 0, 0
    )


def test_nothing_to_load_starts_degraded(deploy):
    loader = deploy.loader()
    host = ModelHost(loader)
    assert host.degraded
    assert host.active.sha256 is None
    assert host.snapshot()["error"] == loader.missing


def test_unchanged_digest_answers_unchanged(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    sha = host.active.sha256
    assert host.check_reload() == RELOAD_UNCHANGED
    deploy.same()
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.active.sha256 == sha
    assert host.n_reloads == 0


def test_good_candidate_answers_swapped(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    old_sha = host.active.sha256
    deploy.good(seed=99, n_centroids=7)
    assert host.check_reload() == RELOAD_SWAPPED
    assert host.active.sha256 != old_sha
    assert host.active.selector.n_centroids == 7
    assert host.n_reloads == 1


def test_bad_candidate_answers_quarantined_while_old_model_serves(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    old = host.active
    deploy.bad()
    assert host.check_reload() == RELOAD_QUARANTINED
    assert host.active is old
    assert not host.degraded
    assert host.n_quarantined == 1 and len(host.quarantine) == 1
    assert host.n_fallbacks == 0  # nothing was bridged: old still serves
    # Unchanged since: one probe, no second load attempt.
    assert host.check_reload() == RELOAD_UNCHANGED
    assert host.n_quarantined == 1


def test_recovery_after_a_quarantined_candidate(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    deploy.bad()
    assert host.check_reload() == RELOAD_QUARANTINED
    deploy.good(seed=5)
    assert host.check_reload() == RELOAD_SWAPPED
    assert not host.degraded
    assert host.n_reloads == 1


def test_snapshot_keys_are_the_same_for_both_loaders(deploy):
    deploy.good(seed=3)
    host = ModelHost(deploy.loader())
    snap = host.snapshot()
    assert set(snap) == {
        "path", "sha256", "degraded", "error", "n_centroids",
        "reloads", "quarantined", "fallbacks",
    }
    assert snap["path"] == deploy.loader().path
    assert snap["sha256"] == host.active.sha256
    assert snap["degraded"] is False and snap["error"] is None
    assert snap["n_centroids"] == 12
