"""Hot model reload: watch, shadow-validate, atomically swap, quarantine.

The serving loop must pick up retrained models without a restart, and a
bad artifact must never serve a single request.  One :class:`ModelHost`
runs the reload state machine over a *loader* that knows where models
come from: :class:`FileLoader` watches a ``.npz`` file, and
:class:`~repro.serving.modelstore.StoreLoader` follows a shared model
store's ``CURRENT`` pointer.  The guarantee comes from ordering,
mirroring DESIGN §8's survivor-byte-identity argument:

1. **Watch** — before requests, the host asks the loader for a cheap
   fingerprint (one ``stat``).  Only a changed fingerprint makes the
   loader read the candidate, once, and name it by digest; only a *new*
   digest triggers loading, so the steady-state cost is one ``stat``.
2. **Shadow-validate** — the loader loads exactly the bytes it read: a
   file is loaded through the strict :meth:`FrozenSelector.load` and
   asked to predict a small *golden* matrix set end to end; a store
   version is attached and integrity-checked.  All of this happens on a
   local variable while the old model keeps serving.
3. **Atomic swap** — only a fully loaded candidate is published, by a
   single attribute assignment (atomic under the GIL).  A request
   handler reads the reference once, so every request is answered
   entirely by one model — never a mix.
4. **Quarantine** — a candidate that fails is remembered by the digest
   of the bytes that failed and never retried (until a different digest
   appears), so a corrupt artifact cannot flap the server with repeated
   load attempts.  A store loader may then offer an older published
   version to bridge to (counted in ``fallbacks``).
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core.deploy import FrozenSelector
from repro.features import extract_features
from repro.formats.coo import COOMatrix
from repro.obs import TELEMETRY

#: Events check_reload() can report.
RELOAD_SWAPPED = "swapped"
RELOAD_QUARANTINED = "quarantined"
RELOAD_UNCHANGED = "unchanged"


def golden_features() -> np.ndarray:
    """Feature rows of the built-in golden matrix set.

    Three tiny, structurally distinct matrices (diagonal, tridiagonal,
    dense block) that exercise the full transform → assign → label path
    of a candidate model.  Deterministic by construction — no RNG — so
    validation verdicts are reproducible.
    """
    idx = np.arange(8)
    diagonal = COOMatrix((8, 8), idx, idx, np.ones(8))
    main = np.arange(16)
    off = np.arange(15)
    tri = COOMatrix(
        (16, 16),
        np.concatenate([main, off, off + 1]),
        np.concatenate([main, off + 1, off]),
        np.concatenate([2.0 * np.ones(16), -np.ones(15), -np.ones(15)]),
    )
    r, c = np.divmod(np.arange(24), 6)
    block = COOMatrix((4, 6), r, c, 1.0 + np.arange(24, dtype=float))
    return np.vstack(
        [extract_features(m) for m in (diagonal, tri, block)]
    )


class ValidationFailure(Exception):
    """A candidate model that must not be swapped in."""


@dataclass
class ModelVersion:
    """One immutable published model: selector + provenance."""

    selector: FrozenSelector | None
    sha256: str | None
    error: str | None = None
    #: Cached OOD length scale of this version's centroid cloud.
    scale: float = float("inf")


def stat_fingerprint(path: str) -> tuple[int, int] | None:
    """``(mtime_ns, size)`` of ``path`` — the watch probe; ``None`` if absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


class _NamedBytes(io.BytesIO):
    """The bytes of one read, named (in error text) by their file."""

    def __init__(self, data: bytes, name: str) -> None:
        super().__init__(data)
        self.name = name

    def __str__(self) -> str:
        return self.name


class FileLoader:
    """A ``.npz`` file, shadow-validated before it may serve.

    The file is read once per change; the digest, the strict load and
    the golden-set check all see those same bytes, so a verdict always
    belongs to the content it judged, even if the file is rewritten
    mid-check.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.missing = f"model file {self.path!r} does not exist"
        self.golden = golden_features()

    def fingerprint(self) -> tuple[int, int] | None:
        return stat_fingerprint(self.path)

    def read(self) -> tuple[str, bytes] | None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        return hashlib.sha256(data).hexdigest(), data

    def load(self, payload: bytes) -> FrozenSelector:
        try:
            selector = FrozenSelector.load(_NamedBytes(payload, self.path))
        except ValueError as exc:
            raise ValidationFailure(f"load failed: {exc}") from exc
        except Exception as exc:  # pragma: no cover - defensive
            raise ValidationFailure(
                f"unexpected load error: {type(exc).__name__}: {exc}"
            ) from exc
        try:
            labels = selector.predict(self.golden)
            distances = selector.nearest_distance(self.golden)
        except Exception as exc:
            raise ValidationFailure(
                f"golden-set inference failed: {exc}"
            ) from exc
        if not np.all(np.isfinite(distances)):
            raise ValidationFailure(
                "golden-set inference produced non-finite distances"
            )
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValidationFailure(
                    f"golden-set inference produced bad label {label!r}"
                )
        return selector

    def history(self, stop: str | None) -> Iterable[tuple[str, Any]]:
        return ()  # a file keeps no older versions to bridge to


class ModelHost:
    """Hot-reloadable holder of the frozen selector.

    ``active`` is the single source of truth; request handlers must read
    it once per request and use that local reference throughout, which
    is what makes the swap atomic from their perspective.

    ``loader`` is a :class:`FileLoader` or a
    :class:`~repro.serving.modelstore.StoreLoader`: ``fingerprint()``
    is the cheap change probe, ``read()`` returns the current
    ``(digest, payload)`` once (``None`` when there is none),
    ``load(payload)`` returns a selector or raises
    :class:`ValidationFailure`, and ``history(stop)`` yields older
    ``(digest, payload)`` candidates, newest first, down to (not
    including) the version ``stop``.
    """

    def __init__(self, loader) -> None:
        self.loader = loader
        self.quarantine: dict[str, str] = {}
        self.n_reloads = 0
        self.n_quarantined = 0
        #: Older versions adopted to bridge past a failed candidate.
        self.n_fallbacks = 0
        #: Fingerprint of the last content we examined (good or bad),
        #: so an unchanged quarantined candidate costs one stat, not a
        #: read + failed load per request.
        self._seen = loader.fingerprint()
        self.active = ModelVersion(None, None, error=loader.missing)
        candidate = loader.read()
        if candidate is not None:
            self.active = self._admit(*candidate)

    def _admit(self, digest: str, payload: Any) -> ModelVersion:
        """Load one candidate off to the side; never touches ``active``.

        A failure quarantines ``digest`` and returns an older version
        the loader can bridge to, or a degraded version carrying the
        error when there is none.
        """
        try:
            selector = self.loader.load(payload)
        except ValidationFailure as exc:
            self.quarantine[digest] = str(exc)
            self.n_quarantined += 1
            TELEMETRY.inc("serving.reload.quarantined")
            bridge = self._bridge(digest)
            if bridge is not None:
                return bridge
            return ModelVersion(None, digest, error=str(exc))
        return ModelVersion(selector, digest, scale=selector.centroid_scale())

    def _bridge(self, bad: str) -> ModelVersion | None:
        """The newest older version that still loads, if any.

        The walk stops at the version already serving: re-loading it
        would be waste, and everything past it is older than what serves.
        """
        for digest, payload in self.loader.history(self.active.sha256):
            if digest == bad or digest in self.quarantine:
                continue
            try:
                selector = self.loader.load(payload)
            except ValidationFailure:
                continue
            self.n_fallbacks += 1
            TELEMETRY.inc("serving.reload.fallback")
            return ModelVersion(
                selector, digest, scale=selector.centroid_scale()
            )
        return None

    # -- the watch loop ----------------------------------------------------

    def check_reload(self) -> str:
        """Probe the loader; load and swap if its content changed.

        Returns one of :data:`RELOAD_SWAPPED`,
        :data:`RELOAD_QUARANTINED`, :data:`RELOAD_UNCHANGED`.  Never
        raises, never unpublishes a working model: a deleted or corrupt
        candidate leaves the old model serving.
        """
        fingerprint = self.loader.fingerprint()
        if fingerprint is None or fingerprint == self._seen:
            return RELOAD_UNCHANGED
        self._seen = fingerprint
        candidate = self.loader.read()
        if candidate is None or candidate[0] == self.active.sha256:
            # Gone again, or identical content (e.g. touch, or a copy).
            return RELOAD_UNCHANGED
        digest, payload = candidate
        if digest in self.quarantine:
            return RELOAD_QUARANTINED
        version = self._admit(digest, payload)
        if version.selector is None:
            return RELOAD_QUARANTINED
        # The swap: one reference assignment, atomic under the GIL.
        self.active = version
        if version.sha256 != digest:
            return RELOAD_QUARANTINED  # bridged past a bad candidate
        self.n_reloads += 1
        TELEMETRY.inc("serving.reload.swapped")
        return RELOAD_SWAPPED

    # -- summaries ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.active.selector is None

    def snapshot(self) -> dict:
        active = self.active
        return {
            "path": self.loader.path,
            "sha256": active.sha256,
            "degraded": active.selector is None,
            "error": active.error,
            "n_centroids": (
                active.selector.n_centroids
                if active.selector is not None
                else 0
            ),
            "reloads": self.n_reloads,
            "quarantined": self.n_quarantined,
            "fallbacks": self.n_fallbacks,
        }
