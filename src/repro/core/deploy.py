"""Deployable frozen selectors: the paper's "train once, deploy multiple
times" requirement (§1, requirement 2).

A fitted :class:`~repro.core.semisupervised.ClusterFormatSelector` holds
live clustering objects; :func:`freeze` distils it to the minimum needed
for inference — the fitted preprocessing arrays plus a centroid table with
per-centroid format labels — which serialises to a single ``.npz`` file
and reloads anywhere NumPy runs.

Because the centroids are architecture-invariant, *one* frozen file can
carry labels for several architectures: :meth:`FrozenSelector.relabel`
swaps the label table without touching the centroids, which is exactly
the paper's porting story.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.pipeline import FeaturePipeline
from repro.ml.knn import pairwise_sq_dists
from repro.ml.linalg import rs_matmul_t
from repro.ml.pca import PCA
from repro.ml.preprocessing import MinMaxScaler, SparseDistributionTransformer
from repro.obs import TELEMETRY

if TYPE_CHECKING:
    from repro.core.semisupervised import ClusterFormatSelector

_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """A frozen-selector ``.npz`` artifact is structurally invalid.

    Raised by :meth:`FrozenSelector.load` when the file is unreadable,
    misses required arrays, carries an unsupported format version, or
    holds arrays of the wrong dtype/shape — previously such files
    surfaced as a cryptic ``KeyError`` deep inside ``transform``.  The
    serving layer's hot-reload validator keys its quarantine decisions
    off this type.
    """


def _require_array(
    data, key: str, ndim: int, kind: str = "f"
) -> np.ndarray:
    """Fetch ``key`` from an npz mapping, checking rank and dtype kind."""
    if key not in data:
        raise ModelFormatError(f"model file missing required array {key!r}")
    arr = data[key]
    if arr.ndim != ndim:
        raise ModelFormatError(
            f"model array {key!r} must be {ndim}-D, got {arr.ndim}-D"
        )
    if kind == "f":
        if arr.dtype.kind not in "fiu":
            raise ModelFormatError(
                f"model array {key!r} must be numeric, got dtype {arr.dtype}"
            )
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(f"model array {key!r} has non-finite values")
    elif kind == "U" and arr.dtype.kind not in "UO":
        raise ModelFormatError(
            f"model array {key!r} must hold strings, got dtype {arr.dtype}"
        )
    return arr


@dataclass
class FrozenSelector:
    """Inference-only selector: preprocessing arrays + labeled centroids."""

    # preprocessing (None members = stage disabled)
    transform_kind: str | None
    transform_shift: np.ndarray | None
    transform_apply: np.ndarray | None
    scaler_min: np.ndarray
    scaler_span: np.ndarray
    pca_mean: np.ndarray | None
    pca_components: np.ndarray | None
    # centroid table
    centroids: np.ndarray
    #: Format label of the cluster each centroid belongs to.
    centroid_labels: np.ndarray

    def __post_init__(self) -> None:
        if self.centroids.ndim != 2:
            raise ValueError("centroids must be 2-D")
        if self.centroid_labels.shape[0] != self.centroids.shape[0]:
            raise ValueError("centroid_labels must align with centroids")

    # -- inference ---------------------------------------------------------

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = X
        if self.transform_kind is not None:
            out = np.maximum(out - self.transform_shift, 0.0)
            cols = self.transform_apply
            if cols.any():
                if self.transform_kind == "log":
                    out = out.copy()
                    out[:, cols] = np.log1p(out[:, cols])
                else:
                    out = out.copy()
                    out[:, cols] = np.sqrt(out[:, cols])
        out = np.clip((out - self.scaler_min) / self.scaler_span, 0.0, 1.0)
        if self.pca_components is not None:
            # Row-stable projection: batch and single-row calls must
            # produce bit-identical vectors (DESIGN §11).
            out = rs_matmul_t(out - self.pca_mean, self.pca_components)
        return out

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid index for each sample."""
        Z = self.transform(X)
        return np.argmin(pairwise_sq_dists(Z, self.centroids), axis=1)

    def nearest_distance(self, X: np.ndarray) -> np.ndarray:
        """Euclidean distance from each sample to its nearest centroid.

        The serving layer's out-of-distribution guard compares this
        against :meth:`centroid_scale` — a matrix far from *every*
        centroid is outside the training distribution and its
        nearest-centroid label is a guess, not a recommendation.
        """
        Z = self.transform(X)
        d2 = np.min(pairwise_sq_dists(Z, self.centroids), axis=1)
        return np.sqrt(np.maximum(d2, 0.0))

    def centroid_scale(self) -> float:
        """Median nearest-neighbour distance among the centroids.

        A model-intrinsic length scale for distance thresholds: points
        within a few multiples of it sit inside the centroid cloud.
        ``inf`` for single-centroid models (no scale to speak of).
        """
        if self.n_centroids < 2:
            return float("inf")
        d2 = pairwise_sq_dists(self.centroids, self.centroids)
        np.fill_diagonal(d2, np.inf)
        return float(np.median(np.sqrt(d2.min(axis=1))))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not TELEMETRY.enabled:
            return self.centroid_labels[self.assign(X)]
        t0 = time.perf_counter()
        out = self.centroid_labels[self.assign(X)]
        TELEMETRY.observe("deploy.predict_seconds", time.perf_counter() - t0)
        TELEMETRY.inc("deploy.predictions", out.shape[0])
        return out

    @property
    def n_centroids(self) -> int:
        return int(self.centroids.shape[0])

    def relabel(self, centroid_labels: np.ndarray) -> "FrozenSelector":
        """New frozen selector with swapped labels (porting to a new GPU)."""
        labels = np.asarray(centroid_labels, dtype=object)
        if labels.shape[0] != self.n_centroids:
            raise ValueError(
                f"expected {self.n_centroids} labels, got {labels.shape[0]}"
            )
        return FrozenSelector(
            transform_kind=self.transform_kind,
            transform_shift=self.transform_shift,
            transform_apply=self.transform_apply,
            scaler_min=self.scaler_min,
            scaler_span=self.scaler_span,
            pca_mean=self.pca_mean,
            pca_components=self.pca_components,
            centroids=self.centroids,
            centroid_labels=labels,
        )

    # -- serialisation --------------------------------------------------

    def save(self, path: str | Path) -> None:
        arrays: dict[str, np.ndarray] = {
            "version": np.array([_FORMAT_VERSION]),
            "scaler_min": self.scaler_min,
            "scaler_span": self.scaler_span,
            "centroids": self.centroids,
            "centroid_labels": self.centroid_labels.astype("U8"),
        }
        if self.transform_kind is not None:
            arrays["transform_kind"] = np.array([self.transform_kind])
            arrays["transform_shift"] = self.transform_shift
            arrays["transform_apply"] = self.transform_apply
        if self.pca_components is not None:
            arrays["pca_mean"] = self.pca_mean
            arrays["pca_components"] = self.pca_components
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "FrozenSelector":
        """Load and structurally validate a frozen selector.

        Raises :class:`ModelFormatError` for any artifact problem other
        than a missing file (which stays ``FileNotFoundError`` so
        callers can distinguish "not deployed yet" from "corrupt").
        """
        try:
            npz = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise ModelFormatError(
                f"unreadable model file {path!s}: {exc}"
            ) from exc
        with npz as data:
            if "version" not in data:
                raise ModelFormatError("model file missing version marker")
            version = int(data["version"][0])
            if version != _FORMAT_VERSION:
                raise ModelFormatError(
                    f"unsupported frozen-selector version {version}"
                )
            scaler_min = _require_array(data, "scaler_min", ndim=1)
            scaler_span = _require_array(data, "scaler_span", ndim=1)
            n_features = scaler_min.shape[0]
            if scaler_span.shape != scaler_min.shape:
                raise ModelFormatError(
                    "scaler_min and scaler_span shapes differ: "
                    f"{scaler_min.shape} vs {scaler_span.shape}"
                )
            centroids = _require_array(data, "centroids", ndim=2)
            labels = _require_array(data, "centroid_labels", ndim=1, kind="U")
            if labels.shape[0] != centroids.shape[0]:
                raise ModelFormatError(
                    f"{centroids.shape[0]} centroids but "
                    f"{labels.shape[0]} centroid labels"
                )
            has_transform = "transform_kind" in data
            has_pca = "pca_components" in data
            if has_transform:
                transform_kind = str(data["transform_kind"][0])
                if transform_kind not in ("log", "sqrt"):
                    raise ModelFormatError(
                        f"unknown transform kind {transform_kind!r}"
                    )
                transform_shift = _require_array(data, "transform_shift", ndim=1)
                transform_apply = _require_array(
                    data, "transform_apply", ndim=1, kind="any"
                )
                if (
                    transform_shift.shape[0] != n_features
                    or transform_apply.shape[0] != n_features
                ):
                    raise ModelFormatError(
                        "transform arrays do not match the feature count"
                    )
            if has_pca:
                pca_components = _require_array(data, "pca_components", ndim=2)
                pca_mean = _require_array(data, "pca_mean", ndim=1)
                if pca_components.shape[1] != n_features:
                    raise ModelFormatError(
                        f"pca_components expects "
                        f"{pca_components.shape[1]} features, scaler has "
                        f"{n_features}"
                    )
                if pca_mean.shape[0] != n_features:
                    raise ModelFormatError(
                        "pca_mean does not match the feature count"
                    )
                inference_dim = pca_components.shape[0]
            else:
                inference_dim = n_features
            if centroids.shape[1] != inference_dim:
                raise ModelFormatError(
                    f"centroids are {centroids.shape[1]}-D but the "
                    f"pipeline produces {inference_dim}-D vectors"
                )
            return cls(
                transform_kind=(
                    str(data["transform_kind"][0]) if has_transform else None
                ),
                transform_shift=(
                    data["transform_shift"] if has_transform else None
                ),
                transform_apply=(
                    data["transform_apply"].astype(bool)
                    if has_transform
                    else None
                ),
                scaler_min=scaler_min,
                scaler_span=scaler_span,
                pca_mean=data["pca_mean"] if has_pca else None,
                pca_components=data["pca_components"] if has_pca else None,
                centroids=centroids,
                centroid_labels=labels.astype(object),
            )


#: Format recommended when no model is usable.  CSR is the safe default:
#: every kernel library ships it, and it is the paper's baseline format.
DEFAULT_FALLBACK_FORMAT = "csr"


@dataclass
class FallbackSelector:
    """Graceful-degradation wrapper around :class:`FrozenSelector`.

    Deployment must keep answering even when the model artifact is
    missing, truncated, or incompatible: a wrong-but-safe format costs
    some SpMV throughput, while a crashed selector costs the whole
    application.  :meth:`load` therefore never raises — on any model
    problem it returns a degraded selector that recommends
    ``fallback_format`` (CSR by default) and records why.  A predict-time
    failure likewise degrades that call instead of propagating.

    Telemetry: ``deploy.fallback_loads`` counts degraded loads,
    ``deploy.fallback_predictions`` counts samples answered by the
    fallback rather than the model, and ``deploy.fallback_cause.<cause>``
    breaks both down by *why* (``missing_model`` / ``model_format`` /
    ``load_error`` / ``degraded_model`` / ``predict_error``) so the
    serving circuit breaker's metrics and predict's agree on the cause
    taxonomy.
    """

    selector: FrozenSelector | None
    fallback_format: str = DEFAULT_FALLBACK_FORMAT
    #: Why the model is unusable (``None`` when healthy).
    error: str | None = None
    #: Machine-readable cause tag matching ``error`` (``None`` when healthy).
    cause: str | None = None

    @classmethod
    def load(
        cls,
        path: str | Path,
        fallback_format: str = DEFAULT_FALLBACK_FORMAT,
    ) -> "FallbackSelector":
        """Load a frozen selector, degrading (never raising) on failure."""
        try:
            return cls(
                selector=FrozenSelector.load(path),
                fallback_format=fallback_format,
            )
        except Exception as exc:
            if isinstance(exc, FileNotFoundError):
                cause = "missing_model"
            elif isinstance(exc, ModelFormatError):
                cause = "model_format"
            else:
                cause = "load_error"
            TELEMETRY.inc("deploy.fallback_loads")
            TELEMETRY.inc(f"deploy.fallback_cause.{cause}")
            return cls(
                selector=None,
                fallback_format=fallback_format,
                error=f"{type(exc).__name__}: {exc}",
                cause=cause,
            )

    @property
    def degraded(self) -> bool:
        return self.selector is None

    def _fallback(self, n: int, cause: str) -> np.ndarray:
        TELEMETRY.inc("deploy.fallback_predictions", n)
        TELEMETRY.inc(f"deploy.fallback_cause.{cause}", n)
        return np.array([self.fallback_format] * n, dtype=object)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.selector is None:
            return self._fallback(X.shape[0], self.cause or "degraded_model")
        try:
            return self.selector.predict(X)
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            self.cause = "predict_error"
            return self._fallback(X.shape[0], "predict_error")

    def predict_one(self, x: np.ndarray) -> str:
        """Single-sample convenience used by the CLI."""
        return str(self.predict(np.atleast_2d(x))[0])


def freeze(selector: ClusterFormatSelector) -> FrozenSelector:
    """Distil a fitted, labeled selector into a :class:`FrozenSelector`.

    Works for all three clustering algorithms: K-Means and Mean-Shift
    expose their centroids directly; Birch is flattened to its leaf
    subcluster centroids, each carrying its global cluster's label — the
    nearest-subcluster rule Birch itself uses for prediction.
    """
    if not hasattr(selector, "cluster_labels_"):
        raise ValueError("selector must be fitted and labeled before freezing")
    pipe = selector.pipeline_
    model = selector._cluster_model
    if hasattr(model, "subcluster_centers_"):  # Birch
        centroids = model.subcluster_centers_
        labels = selector.cluster_labels_[model.subcluster_labels_]
    else:  # KMeans / MeanShift
        centroids = model.cluster_centers_
        labels = selector.cluster_labels_
    transformer: SparseDistributionTransformer | None = pipe._transformer
    pca: PCA | None = pipe._pca
    scaler: MinMaxScaler = pipe._scaler
    return FrozenSelector(
        transform_kind=transformer.kind if transformer is not None else None,
        transform_shift=(
            transformer.shift_.copy() if transformer is not None else None
        ),
        transform_apply=(
            transformer.apply_.copy() if transformer is not None else None
        ),
        scaler_min=scaler.min_.copy(),
        scaler_span=scaler.span_.copy(),
        pca_mean=pca.mean_.copy() if pca is not None else None,
        pca_components=(
            pca.components_.copy() if pca is not None else None
        ),
        centroids=np.asarray(centroids, dtype=np.float64).copy(),
        centroid_labels=np.asarray(labels, dtype=object).copy(),
    )


def rebuild_pipeline(frozen: FrozenSelector) -> FeaturePipeline:
    """Reconstruct a FeaturePipeline equivalent to the frozen arrays.

    Used by tests to cross-check the frozen transform, and by the
    serving layer's feedback path to seed an
    :class:`~repro.core.online.OnlineFormatSelector` from a frozen
    model's preprocessing (the online selector needs a fitted pipeline).
    """
    pipe = FeaturePipeline(
        transform=frozen.transform_kind,
        n_components=(
            frozen.pca_components.shape[0]
            if frozen.pca_components is not None
            else None
        ),
    )
    if frozen.transform_kind is not None:
        tr = SparseDistributionTransformer(kind=frozen.transform_kind)
        tr.shift_ = frozen.transform_shift
        tr.apply_ = frozen.transform_apply
        pipe._transformer = tr
    else:
        pipe._transformer = None
    scaler = MinMaxScaler()
    scaler.min_ = frozen.scaler_min
    scaler.max_ = frozen.scaler_min + frozen.scaler_span
    scaler.span_ = frozen.scaler_span
    pipe._scaler = scaler
    if frozen.pca_components is not None:
        pca = PCA(frozen.pca_components.shape[0])
        pca.mean_ = frozen.pca_mean
        pca.components_ = frozen.pca_components
        pca.n_components_ = frozen.pca_components.shape[0]
        pipe._pca = pca
    else:
        pipe._pca = None
    pipe.n_features_in_ = frozen.scaler_min.shape[0]
    return pipe
