"""Principal Component Analysis via SVD.

The paper (§4): *"We then use Principal Component Analysis (PCA) to
decompose the features to a feature vector of size 8."*
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError, check_array
from repro.ml.linalg import rs_matmul_t


class PCA:
    """Project data onto the top ``n_components`` principal directions.

    Uses the thin SVD of the centred data matrix (richer and more stable
    than an explicit covariance eigendecomposition — see the hpc guides'
    advice to prefer ``full_matrices=False``).
    """

    def __init__(self, n_components: int = 8) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components

    def fit(self, X: np.ndarray) -> "PCA":
        X = check_array(X)
        k = min(self.n_components, X.shape[1], X.shape[0])
        self.mean_ = X.mean(axis=0)
        centred = X - self.mean_
        _, s, vt = np.linalg.svd(centred, full_matrices=False)
        self.components_ = vt[:k]
        n = X.shape[0]
        var = (s**2) / max(n - 1, 1)
        total = var.sum()
        self.explained_variance_ = var[:k]
        self.explained_variance_ratio_ = (
            var[:k] / total if total > 0 else np.zeros(k)
        )
        self.n_components_ = k
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "components_"):
            raise NotFittedError("PCA must be fitted first")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        # Row-stable product: projecting a batch must be bit-identical
        # to projecting each row alone (see ml/linalg.py).
        return rs_matmul_t(X - self.mean_, self.components_)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Reconstruct from component space (lossy if k < n_features)."""
        if not hasattr(self, "components_"):
            raise NotFittedError("PCA must be fitted first")
        Z = check_array(Z)
        return Z @ self.components_ + self.mean_
