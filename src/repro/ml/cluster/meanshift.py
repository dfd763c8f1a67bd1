"""Mean-Shift clustering (flat kernel) with bandwidth estimation.

Comaniciu & Meer's mode-seeking procedure [8].  As the paper observes
(§5.2), Mean-Shift determines the number of clusters itself and tends to
find *"many clusters which are too small to capture meaningful differences
in performance"* — its weak results are part of the reproduced story.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError, check_array
from repro.ml.knn import pairwise_sq_dists
from repro.obs import TELEMETRY


def estimate_bandwidth(
    X: np.ndarray, quantile: float = 0.3, n_samples: int = 500, seed: int = 0
) -> float:
    """Mean distance to the ``quantile``-fraction nearest neighbours.

    Mirrors scikit-learn's estimator: for each (sub)sampled point, take the
    mean of the distance to its k = quantile·n nearest neighbours.
    """
    X = check_array(X)
    if not 0 < quantile <= 1:
        raise ValueError("quantile must be in (0, 1]")
    rng = np.random.default_rng(seed)
    if X.shape[0] > n_samples:
        X = X[rng.choice(X.shape[0], n_samples, replace=False)]
    n = X.shape[0]
    k = max(1, int(n * quantile))
    d = np.sqrt(pairwise_sq_dists(X, X))
    d.sort(axis=1)
    # Column 0 is the self-distance (0); average the next k.
    return float(d[:, 1 : k + 1].mean())


class MeanShift:
    """Flat-kernel mean shift over all points as seeds.

    Modes closer than the bandwidth are merged; points are assigned to the
    nearest mode.  ``predict`` assigns new points to the nearest mode, so
    the model plugs into the same selector machinery as K-Means.
    """

    def __init__(
        self,
        bandwidth: float | None = None,
        max_iter: int = 200,
        tol: float = 1e-4,
        seed: int = 0,
    ) -> None:
        self.bandwidth = bandwidth
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, X: np.ndarray) -> "MeanShift":
        X = check_array(X)
        bw = (
            self.bandwidth
            if self.bandwidth is not None
            else estimate_bandwidth(X, seed=self.seed)
        )
        if bw <= 0:
            # Degenerate data (all points identical): one cluster.
            self.bandwidth_ = 0.0
            self.cluster_centers_ = X[:1].copy()
            self.labels_ = np.zeros(X.shape[0], dtype=np.int64)
            self.n_iter_ = 0
            return self
        self.bandwidth_ = float(bw)
        bw2 = bw * bw
        # Shift every seed to its local mode (vectorised over all seeds).
        modes = X.copy()
        active = np.ones(modes.shape[0], dtype=bool)
        n_iter = 0
        with TELEMETRY.span("meanshift.fit", n_samples=X.shape[0]):
            for n_iter in range(1, self.max_iter + 1):
                if not active.any():
                    n_iter -= 1
                    break
                d2 = pairwise_sq_dists(modes[active], X)
                within = d2 <= bw2
                counts = within.sum(axis=1)
                # Every seed is within bw of itself, so counts >= 1.
                new_modes = (within @ X) / counts[:, None]
                shift2 = np.einsum(
                    "ij,ij->i",
                    new_modes - modes[active],
                    new_modes - modes[active],
                )
                modes[active] = new_modes
                still = shift2 > (self.tol * bw) ** 2
                idx = np.flatnonzero(active)
                active[idx[~still]] = False
            self.cluster_centers_ = self._merge_modes(modes, bw)
            self.labels_ = self.predict(X)
        self.n_iter_ = n_iter
        TELEMETRY.gauge_set("meanshift.iterations", n_iter)
        return self

    def _merge_modes(self, modes: np.ndarray, bw: float) -> np.ndarray:
        """Deduplicate converged modes closer than the bandwidth.

        Modes are processed in order of their basin population, so larger
        basins absorb smaller nearby ones (as in scikit-learn).
        """
        d2 = pairwise_sq_dists(modes, modes)
        population = (d2 <= bw * bw).sum(axis=1)
        order = np.argsort(population)[::-1]
        kept: list[np.ndarray] = []
        for i in order:
            mode = modes[i]
            if all(np.sum((mode - k) ** 2) > bw * bw for k in kept):
                kept.append(mode)
        return np.vstack(kept)

    @property
    def n_clusters_(self) -> int:
        if not hasattr(self, "cluster_centers_"):
            raise NotFittedError("MeanShift must be fitted first")
        return int(self.cluster_centers_.shape[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "cluster_centers_"):
            raise NotFittedError("MeanShift must be fitted first")
        X = check_array(X)
        return np.argmin(pairwise_sq_dists(X, self.cluster_centers_), axis=1)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_
