"""K-Means clustering with k-means++ seeding and Lloyd iterations."""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError, check_array
from repro.ml.knn import pairwise_sq_dists
from repro.obs import TELEMETRY


def kmeans_plusplus(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: D²-weighted sequential centroid choice."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = X[first]
    closest_d2 = pairwise_sq_dists(X, centers[:1]).ravel()
    for c in range(1, n_clusters):
        total = closest_d2.sum()
        if total <= 0:
            # All points coincide with chosen centers; pick uniformly.
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=closest_d2 / total))
        centers[c] = X[idx]
        d2_new = pairwise_sq_dists(X, centers[c : c + 1]).ravel()
        np.minimum(closest_d2, d2_new, out=closest_d2)
    return centers


class KMeans:
    """Lloyd's algorithm, best of ``n_init`` k-means++ restarts.

    Empty clusters are re-seeded with the points farthest from their
    assigned centroids, so the fitted model always exposes exactly
    ``n_clusters`` centroids (the semi-supervised selector indexes
    label tables by cluster id).
    """

    def __init__(
        self,
        n_clusters: int = 8,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, X: np.ndarray) -> "KMeans":
        X = check_array(X)
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"{X.shape[0]} samples cannot form {self.n_clusters} clusters"
            )
        rng = np.random.default_rng(self.seed)
        best_inertia = np.inf
        with TELEMETRY.span(
            "kmeans.fit", n_clusters=self.n_clusters, n_samples=X.shape[0]
        ):
            for _ in range(self.n_init):
                centers, labels, inertia, n_iter = self._single_run(X, rng)
                if inertia < best_inertia:
                    best_inertia = inertia
                    self.cluster_centers_ = centers
                    self.labels_ = labels
                    self.inertia_ = float(inertia)
                    self.n_iter_ = n_iter
        TELEMETRY.gauge_set("kmeans.iterations", self.n_iter_)
        return self

    def _single_run(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        centers = kmeans_plusplus(X, self.n_clusters, rng)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        prev_inertia = np.inf
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            d2 = pairwise_sq_dists(X, centers)
            labels = np.argmin(d2, axis=1)
            inertia = float(d2[np.arange(X.shape[0]), labels].sum())
            # Recompute centroids; re-seed empties with farthest points.
            counts = np.bincount(labels, minlength=self.n_clusters)
            sums = np.zeros_like(centers)
            np.add.at(sums, labels, X)
            nonempty = counts > 0
            centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            empties = np.flatnonzero(~nonempty)
            if empties.size:
                dist_to_own = d2[np.arange(X.shape[0]), labels]
                farthest = np.argsort(dist_to_own)[::-1][: empties.size]
                centers[empties] = X[farthest]
            if prev_inertia - inertia <= self.tol * max(prev_inertia, 1e-300):
                break
            prev_inertia = inertia
        d2 = pairwise_sq_dists(X, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        return centers, labels, inertia, n_iter

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment (the paper's inference rule)."""
        if not hasattr(self, "cluster_centers_"):
            raise NotFittedError("KMeans must be fitted first")
        X = check_array(X)
        return np.argmin(pairwise_sq_dists(X, self.cluster_centers_), axis=1)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_
