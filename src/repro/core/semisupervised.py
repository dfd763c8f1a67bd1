"""The semi-supervised format selector: clustering + per-cluster labeling.

§4 of the paper: matrices are clustered in the preprocessed feature space
(clusters are architecture-invariant); each cluster is then assigned an
optimal format using benchmark labels of (a fraction of) its members.  The
nine evaluated combinations pair {K-Means, Mean-Shift, Birch} with the
labelers {VOTE, LR, RF}.

Cluster labeling semantics:

- **VOTE**: majority vote over the benchmarked members of the cluster
  (§4: *"it is beneficial to benchmark multiple matrices from each cluster
  and apply a decision rule such as majority voting"*).
- **LR / RF**: a logistic-regression / random-forest model fit on the
  benchmarked matrices' (transformed features → label) pairs predicts the
  label at each cluster centroid.

Either way the final model is a cluster → format table: prediction for a
new matrix is the label of the nearest cluster, which is what makes the
approach explainable and cheaply re-labelable on a new architecture.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.pipeline import FeaturePipeline
from repro.ml.base import NotFittedError
from repro.ml.cluster import Birch, KMeans, MeanShift
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.obs import TELEMETRY

LABELERS = ("vote", "lr", "rf")
CLUSTERERS = ("kmeans", "meanshift", "birch")


def make_clusterer(
    method: str, n_clusters: int | None = None, seed: int = 0
):
    """Instantiate one of the paper's three clustering algorithms.

    Mean-Shift ignores ``n_clusters`` (it finds the count itself — the
    paper's Table 4 reports its NC as an output, not an input).
    """
    method = method.lower()
    if method == "kmeans":
        if n_clusters is None:
            raise ValueError("kmeans requires n_clusters")
        return KMeans(n_clusters=n_clusters, seed=seed)
    if method == "meanshift":
        return MeanShift(seed=seed)
    if method == "birch":
        if n_clusters is None:
            raise ValueError("birch requires n_clusters")
        # Threshold tuned for the [0,1]-scaled PCA space of the pipeline.
        return Birch(n_clusters=n_clusters, threshold=0.1, seed=seed)
    raise ValueError(f"unknown clustering method {method!r}")


class ClusterFormatSelector:
    """Semi-supervised sparse-format selector.

    Parameters
    ----------
    clusterer
        ``"kmeans"`` / ``"meanshift"`` / ``"birch"``, or any fitted-like
        object exposing ``fit(X)``, ``predict(X)`` and ``labels_``.
    labeler
        ``"vote"`` (majority), ``"lr"`` or ``"rf"``.
    n_clusters
        Cluster count for K-Means/Birch (the NC column of Tables 4/5).
    pipeline
        Feature preprocessing; defaults to the paper's log + min-max +
        PCA-8 pipeline.
    """

    def __init__(
        self,
        clusterer: str = "kmeans",
        labeler: str = "vote",
        n_clusters: int | None = 100,
        pipeline: FeaturePipeline | None = None,
        seed: int = 0,
    ) -> None:
        if isinstance(clusterer, str) and clusterer not in CLUSTERERS:
            raise ValueError(
                f"unknown clusterer {clusterer!r}; choose from {CLUSTERERS}"
            )
        if labeler not in LABELERS:
            raise ValueError(
                f"unknown labeler {labeler!r}; choose from {LABELERS}"
            )
        self.clusterer = clusterer
        self.labeler = labeler
        self.n_clusters = n_clusters
        self.pipeline = pipeline
        self.seed = seed

    # -- stage 1: architecture-invariant clustering -----------------------

    def fit_clusters(self, X: np.ndarray) -> "ClusterFormatSelector":
        """Preprocess features and form clusters (no labels involved)."""
        with TELEMETRY.span("ml.fit", model=self._clusterer_name()):
            self.pipeline_ = (
                self.pipeline if self.pipeline is not None else FeaturePipeline()
            )
            if not hasattr(self.pipeline_, "_scaler"):
                self.pipeline_.fit(X)
            Z = self.pipeline_.transform_features(X)
            if isinstance(self.clusterer, str):
                self._cluster_model = make_clusterer(
                    self.clusterer, self.n_clusters, self.seed
                )
            else:
                self._cluster_model = self.clusterer
            self._cluster_model.fit(Z)
            self.train_assignments_ = np.asarray(self._cluster_model.labels_)
            # Cluster-id range must cover everything predict() can return —
            # not just ids seen in training (K-Means may keep a centroid whose
            # members were all reassigned in the final iteration).
            model = self._cluster_model
            if hasattr(model, "n_clusters_"):
                self.n_clusters_ = int(model.n_clusters_)
            elif hasattr(model, "cluster_centers_"):
                self.n_clusters_ = int(model.cluster_centers_.shape[0])
            else:
                self.n_clusters_ = int(self.train_assignments_.max()) + 1
            # Centroids in the transformed space (for the LR/RF labelers and
            # for explainability).
            self.centroids_ = np.vstack(
                [
                    Z[self.train_assignments_ == c].mean(axis=0)
                    if np.any(self.train_assignments_ == c)
                    else np.zeros(Z.shape[1])
                    for c in range(self.n_clusters_)
                ]
            )
            self._Z_train = Z
            return self

    # -- stage 2: platform-specific cluster labeling ------------------------

    def label_clusters(
        self,
        y: np.ndarray,
        benchmarked: np.ndarray | None = None,
        source_y: np.ndarray | None = None,
    ) -> "ClusterFormatSelector":
        """Assign each cluster its optimal format.

        ``y`` holds the benchmark labels of the training matrices;
        ``benchmarked`` is a boolean mask (or index array) of the matrices
        whose labels may be used — the transfer workflow passes only the
        re-benchmarked fraction.  Unbenchmarked labels are ignored unless
        ``source_y`` is given, in which case every matrix additionally
        contributes its *source-architecture* label: the transfer case
        combines full source evidence with partial target evidence.
        """
        with TELEMETRY.span("ml.label", model=self.labeler):
            self._require_clustered()
            y = np.asarray(y, dtype=object)
            if y.shape[0] != self.train_assignments_.shape[0]:
                raise ValueError("y must align with the clustered training set")
            mask = np.ones(y.shape[0], dtype=bool)
            if benchmarked is not None:
                benchmarked = np.asarray(benchmarked)
                if benchmarked.dtype == bool:
                    mask = benchmarked.copy()
                else:
                    mask = np.zeros(y.shape[0], dtype=bool)
                    mask[benchmarked] = True
            if source_y is not None:
                source_y = np.asarray(source_y, dtype=object)
                if source_y.shape != y.shape:
                    raise ValueError("source_y must align with y")
            if not mask.any() and source_y is None:
                raise ValueError("at least one benchmarked matrix is required")
            # Assemble the evidence as (assignment, label) pairs: target labels
            # for the benchmarked matrices plus (optionally) source labels for
            # everything.
            parts_assign = [self.train_assignments_[mask]]
            parts_y = [y[mask]]
            parts_Z = [self._Z_train[mask]]
            if source_y is not None:
                parts_assign.append(self.train_assignments_)
                parts_y.append(source_y)
                parts_Z.append(self._Z_train)
            ev_assign = np.concatenate(parts_assign)
            ev_y = np.concatenate(parts_y)
            global_majority = Counter(ev_y.tolist()).most_common(1)[0][0]
            if self.labeler == "vote":
                labels = self._label_by_vote(ev_assign, ev_y, global_majority)
            else:
                ev_Z = np.vstack(parts_Z)
                labels = self._label_by_model(ev_Z, ev_y)
            self.cluster_labels_ = np.asarray(labels, dtype=object)
            return self

    def _label_by_vote(
        self, assignments: np.ndarray, y: np.ndarray, fallback: str
    ) -> list[str]:
        labels: list[str] = []
        for c in range(self.n_clusters_):
            members = assignments == c
            if members.any():
                labels.append(
                    Counter(y[members].tolist()).most_common(1)[0][0]
                )
            else:
                # No benchmarked member: fall back to the global majority
                # (equivalent to the paper's CSR-overprediction behaviour).
                labels.append(fallback)
        return labels

    def _label_by_model(self, Z: np.ndarray, y: np.ndarray) -> list[str]:
        model = self._make_label_model()
        model.fit(Z, y)
        return list(model.predict(self.centroids_))

    def _make_label_model(self):
        if self.labeler == "lr":
            return LogisticRegression(max_iter=200)
        return RandomForestClassifier(
            n_estimators=100, max_depth=6, seed=self.seed
        )

    # -- convenience: both stages at once -----------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ClusterFormatSelector":
        return self.fit_clusters(X).label_clusters(y)

    # -- inference --------------------------------------------------------

    def assign_clusters(self, X: np.ndarray) -> np.ndarray:
        self._require_clustered()
        Z = self.pipeline_.transform_features(X)
        return np.asarray(self._cluster_model.predict(Z))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "cluster_labels_"):
            raise NotFittedError("clusters have not been labeled yet")
        with TELEMETRY.span("ml.predict", model=self._clusterer_name()):
            clusters = self.assign_clusters(X)
            return self.cluster_labels_[clusters]

    def benchmarking_budget(self, per_cluster: int = 1) -> int:
        """Matrices to benchmark on a new platform (§4: ideally one per
        cluster)."""
        self._require_clustered()
        return self.n_clusters_ * per_cluster

    def sample_for_benchmarking(
        self, per_cluster: int = 1, seed: int = 0
    ) -> np.ndarray:
        """Pick ``per_cluster`` training indices from each cluster.

        This is the transfer recipe of §4: benchmark a few matrices per
        cluster on the new platform, then relabel the (unchanged) clusters.
        """
        self._require_clustered()
        rng = np.random.default_rng(seed)
        chosen: list[int] = []
        for c in range(self.n_clusters_):
            members = np.flatnonzero(self.train_assignments_ == c)
            if members.size == 0:
                continue
            take = min(per_cluster, members.size)
            chosen.extend(rng.choice(members, size=take, replace=False))
        return np.asarray(sorted(chosen))

    def _clusterer_name(self) -> str:
        if isinstance(self.clusterer, str):
            return self.clusterer
        return type(self.clusterer).__name__

    def _require_clustered(self) -> None:
        if not hasattr(self, "train_assignments_"):
            raise NotFittedError("fit_clusters must be called first")
