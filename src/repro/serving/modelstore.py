"""Shared read-only model store: one mmap'd frozen model, N workers.

The single-process server loads its ``.npz`` with
:meth:`~repro.core.deploy.FrozenSelector.load` — a full read, parse, and
structural validation.  Repeating that per worker would cost N
deserializations and N private copies of every array.  The tier instead
splits publication from attachment:

- **Publish (front-end, once per version)** — the front-end's
  :class:`~repro.serving.reload.ModelHost` has already shadow-validated
  the candidate; :meth:`ModelStore.publish` writes each of its arrays as
  a raw ``.npy`` file under ``versions/<sha256>/`` (content-addressed,
  staged + atomically renamed) plus a small JSON manifest, then flips
  the ``CURRENT`` pointer file with one atomic rename.  That rename *is*
  the tier-wide model swap: every worker observes it on its next
  request, and no worker can observe half a version.
- **Attach (worker, per version)** — :meth:`ModelStore.attach` opens the
  arrays with ``np.load(..., mmap_mode="r")``: no deserialization, no
  validation (the publisher did it once), no private copy.  All workers
  map the same pages, so the model occupies page cache once regardless
  of worker count — the property ``tests/serving/test_modelstore.py``
  asserts, along with the absence of any load-time telemetry span on
  the attach path.

A worker runs the same :class:`~repro.serving.reload.ModelHost` as the
single-process server, over a :class:`StoreLoader` instead of a file, so
:class:`~repro.serving.server.SelectorServer` runs unchanged inside a
worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Iterator

import numpy as np

from repro.core.deploy import FrozenSelector
from repro.obs import TELEMETRY
from repro.serving.reload import ValidationFailure, stat_fingerprint

_MANIFEST = "manifest.json"
_CURRENT = "CURRENT"
#: Publish-order journal (one sha per line, oldest first).  It is both
#: the GC grace list — the last ``keep`` entries are never pruned, so a
#: worker mid-attach on a version published moments ago cannot lose the
#: files under its mmap — and the fall-back chain a worker walks when
#: the CURRENT version fails its integrity check.
_JOURNAL = "PUBLISHED"

#: FrozenSelector array fields persisted as raw ``.npy`` files.  The
#: optional ones (``None`` in the selector) are simply absent from the
#: version directory; the manifest records which were written.
_ARRAY_FIELDS = (
    "transform_shift",
    "transform_apply",
    "scaler_min",
    "scaler_span",
    "pca_mean",
    "pca_components",
    "centroids",
    "centroid_labels",
)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ModelStoreError(RuntimeError):
    """A store version that cannot be published or attached."""


class ModelStore:
    """Content-addressed, mmap-attachable store of frozen selectors."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(os.path.join(self.root, "versions"), exist_ok=True)

    # -- paths --------------------------------------------------------------

    def version_dir(self, sha: str) -> str:
        return os.path.join(self.root, "versions", sha)

    @property
    def current_path(self) -> str:
        return os.path.join(self.root, _CURRENT)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, _JOURNAL)

    # -- publish-order journal ------------------------------------------------

    def publish_order(self) -> list[str]:
        """Published shas, oldest first (re-publish moves a sha to the end)."""
        try:
            with open(self.journal_path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return []
        return [sha.strip() for sha in lines if sha.strip()]

    def _write_journal(self, order: list[str]) -> None:
        fd, tmp = tempfile.mkstemp(prefix=".journal-", dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("".join(sha + "\n" for sha in order))
            os.replace(tmp, self.journal_path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - defensive
                os.unlink(tmp)

    def _journal_append(self, sha: str) -> None:
        order = [s for s in self.publish_order() if s != sha]
        order.append(sha)
        self._write_journal(order)

    # -- publish (front-end side) -------------------------------------------

    def publish(self, selector: FrozenSelector, sha: str) -> str:
        """Write ``selector`` under ``versions/<sha>`` and flip CURRENT.

        The caller has already validated the selector (the front-end
        publishes only what its :class:`ModelHost` swapped in).  Writing
        is staged into a sibling temp directory and renamed into place,
        so a concurrent attach sees either the whole version or none of
        it; publishing a sha that already exists only flips the pointer.
        """
        target = self.version_dir(sha)
        if not os.path.isdir(target):
            staging = tempfile.mkdtemp(
                prefix=f".stage-{sha[:12]}-",
                dir=os.path.join(self.root, "versions"),
            )
            try:
                arrays = []
                digests = {}
                for name in _ARRAY_FIELDS:
                    value = getattr(selector, name)
                    if value is None:
                        continue
                    if name == "centroid_labels":
                        value = np.asarray(value).astype("U8")
                    path = os.path.join(staging, f"{name}.npy")
                    np.save(path, np.ascontiguousarray(value))
                    digests[name] = _file_sha256(path)
                    arrays.append(name)
                manifest = {
                    "sha256": sha,
                    "arrays": arrays,
                    # Per-array content digests: attach verifies them
                    # once, so a truncated or bit-flipped .npy is
                    # quarantined instead of served through mmap.
                    "digests": digests,
                    "transform_kind": selector.transform_kind,
                    "n_centroids": selector.n_centroids,
                }
                with open(
                    os.path.join(staging, _MANIFEST), "w", encoding="utf-8"
                ) as fh:
                    json.dump(manifest, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                try:
                    os.replace(staging, target)
                except OSError:
                    # A concurrent publisher won the rename; theirs is
                    # byte-equivalent (content-addressed), use it.
                    if not os.path.isdir(target):
                        raise
            finally:
                if os.path.isdir(staging) and staging != target:
                    for leftover in os.listdir(staging):
                        os.unlink(os.path.join(staging, leftover))
                    os.rmdir(staging)
            TELEMETRY.inc("serving.store.published")
        self._journal_append(sha)
        self.set_current(sha)
        return target

    def prune(self, keep: int = 2) -> list[str]:
        """Delete version directories beyond the ``keep`` most recent.

        Runs after a successful pointer flip.  CURRENT and the last
        ``keep`` journal entries are always retained (the publish-order
        grace list: an attach races the flip by at most one version, so
        a version published within the last ``keep`` flips may still be
        mid-attach somewhere and must keep its files).  Version
        directories the journal has never seen (pre-journal stores) are
        treated as oldest.  Returns the pruned shas; ``keep < 1`` is a
        no-op so a misconfigured knob can never empty the store.
        """
        if keep < 1:
            return []
        order = self.publish_order()
        versions_root = os.path.join(self.root, "versions")
        try:
            on_disk = [
                d for d in sorted(os.listdir(versions_root))
                if not d.startswith(".")
                and os.path.isdir(os.path.join(versions_root, d))
            ]
        except OSError:  # pragma: no cover - defensive
            on_disk = []
        untracked = [d for d in on_disk if d not in order]
        candidates = untracked + order
        grace = set(order[-keep:])
        current = self.current_sha()
        if current is not None:
            grace.add(current)
        pruned: list[str] = []
        for sha in candidates:
            if sha in grace or sha not in on_disk:
                continue
            shutil.rmtree(self.version_dir(sha), ignore_errors=True)
            pruned.append(sha)
        if pruned:
            kept = [s for s in order if s not in pruned]
            self._write_journal(kept)
            TELEMETRY.inc("serving.store.pruned", len(pruned))
        return pruned

    def set_current(self, sha: str) -> None:
        """Atomically repoint CURRENT at ``sha`` — the tier-wide flip."""
        fd, tmp = tempfile.mkstemp(prefix=".current-", dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(sha + "\n")
            os.replace(tmp, self.current_path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - defensive
                os.unlink(tmp)
        TELEMETRY.inc("serving.store.flipped")

    # -- attach (worker side) -----------------------------------------------

    def current_sha(self) -> str | None:
        try:
            with open(self.current_path, "r", encoding="utf-8") as fh:
                sha = fh.read().strip()
        except OSError:
            return None
        return sha or None

    def current_stat(self) -> tuple[int, int] | None:
        """(mtime_ns, size) of the pointer file — the cheap watch probe."""
        return stat_fingerprint(self.current_path)

    def attach(self, sha: str) -> FrozenSelector:
        """Map ``versions/<sha>`` read-only into this process.

        No deserialization and no model validation happen here — arrays
        are ``np.memmap`` views of the published files, shared
        page-cache with every other attached worker.  The one check is
        *integrity*: each file's SHA-256 must match the digest the
        publisher recorded in the manifest, so a truncated or
        bit-flipped ``.npy`` raises instead of serving garbage through
        mmap (manifests without digests — pre-integrity stores — skip
        the check).  Raises :class:`ModelStoreError` if the version is
        missing, torn, or fails its digest.
        """
        vdir = self.version_dir(sha)
        manifest_path = os.path.join(vdir, _MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelStoreError(
                f"store version {sha} is missing or torn: {exc}"
            ) from exc
        arrays: dict[str, np.ndarray | None] = {
            name: None for name in _ARRAY_FIELDS
        }
        digests = manifest.get("digests")
        for name in manifest.get("arrays", []):
            if name not in arrays:
                raise ModelStoreError(
                    f"store version {sha} names unknown array {name!r}"
                )
            path = os.path.join(vdir, f"{name}.npy")
            if isinstance(digests, dict) and name in digests:
                try:
                    actual = _file_sha256(path)
                except OSError as exc:
                    raise ModelStoreError(
                        f"store version {sha}: cannot read {name}: {exc}"
                    ) from exc
                if actual != digests[name]:
                    raise ModelStoreError(
                        f"store version {sha}: integrity failure on "
                        f"{name}: digest {actual[:12]} != published "
                        f"{str(digests[name])[:12]}"
                    )
            try:
                arrays[name] = np.load(
                    path,
                    mmap_mode="r",
                    allow_pickle=False,
                )
            except (OSError, ValueError) as exc:
                raise ModelStoreError(
                    f"store version {sha}: cannot map {name}: {exc}"
                ) from exc
        if arrays["centroids"] is None or arrays["centroid_labels"] is None:
            raise ModelStoreError(
                f"store version {sha} lacks a centroid table"
            )
        transform_apply = arrays["transform_apply"]
        labels = arrays["centroid_labels"]
        try:
            selector = FrozenSelector(
                transform_kind=manifest.get("transform_kind"),
                transform_shift=arrays["transform_shift"],
                transform_apply=(
                    np.asarray(transform_apply).astype(bool)
                    if transform_apply is not None
                    else None
                ),
                scaler_min=arrays["scaler_min"],
                scaler_span=arrays["scaler_span"],
                pca_mean=arrays["pca_mean"],
                pca_components=arrays["pca_components"],
                centroids=arrays["centroids"],
                centroid_labels=np.asarray(labels).astype(object),
            )
        except ValueError as exc:
            raise ModelStoreError(
                f"store version {sha} is structurally inconsistent: {exc}"
            ) from exc
        TELEMETRY.inc("serving.store.attached")
        return selector


class StoreLoader:
    """:class:`~repro.serving.reload.ModelHost` loader over a store.

    The watch target is the store's CURRENT pointer, read once per
    check; the "load" is an mmap :meth:`ModelStore.attach` whose only
    check is per-array integrity — the front-end shadow-validated the
    version once for the whole tier before it flipped the pointer
    (DESIGN §14).  After a failed attach the journal offers older
    published versions to bridge to.
    """

    def __init__(self, store: ModelStore) -> None:
        self.store = store
        self.path = store.root
        self.missing = f"model store {store.root!r} has no published model"

    def fingerprint(self) -> tuple[int, int] | None:
        return self.store.current_stat()

    def read(self) -> tuple[str, str] | None:
        sha = self.store.current_sha()
        return None if sha is None else (sha, sha)

    def load(self, sha: str) -> FrozenSelector:
        try:
            return self.store.attach(sha)
        except ModelStoreError as exc:
            raise ValidationFailure(str(exc)) from exc

    def history(self, stop: str | None) -> Iterator[tuple[str, str]]:
        for sha in reversed(self.store.publish_order()):
            if sha == stop:
                return
            yield sha, sha


__all__ = ["ModelStore", "ModelStoreError", "StoreLoader"]
