"""Estimator protocol and array validation shared by all ML components."""

from __future__ import annotations

import abc

import numpy as np


def check_array(X: np.ndarray, name: str = "X") -> np.ndarray:
    """Validate a 2-D finite float array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one sample")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and an aligned label vector."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(
            f"y must be 1-D with {X.shape[0]} entries, got shape {y.shape}"
        )
    return X, y


def encode_labels(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary labels to 0..K-1; returns (classes, encoded)."""
    classes, encoded = np.unique(y, return_inverse=True)
    return classes, encoded


class BaseEstimator(abc.ABC):
    """Minimal fit/predict protocol.

    Estimators store learned state on ``self`` with a trailing underscore
    and must raise :class:`NotFittedError` from ``predict`` before ``fit``.
    """

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseEstimator":
        """Learn from (X, y); returns self for chaining."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels for X."""

    def fit_predict(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fit(X, y).predict(X)

    def _require_fitted(self, attr: str) -> None:
        if not hasattr(self, attr):
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before prediction"
            )


class NotFittedError(RuntimeError):
    """Raised when predict is called before fit."""
