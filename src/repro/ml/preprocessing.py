"""Feature preprocessing: the paper's §4 transformation pipeline pieces.

*"In our approach, a log transform or a square root transform is applied to
all features which have a sparse distribution (irrespective of whether they
have a power-law distribution). Afterward, min-max scaling is used to scale
each feature to a range of [0, 1]."*
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError, check_array


class MinMaxScaler:
    """Scale each feature to [0, 1] over the fitted range.

    Constant features map to 0.  Out-of-range values at transform time are
    clipped by default — the paper's transfer setting applies a scaler
    fitted on one platform's training matrices to new matrices, so values
    beyond the fitted range must stay bounded.
    """

    def __init__(self, clip: bool = True) -> None:
        self.clip = clip

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = check_array(X)
        self.min_ = X.min(axis=0)
        self.max_ = X.max(axis=0)
        span = self.max_ - self.min_
        # Constant columns get span 1 so they transform to exactly 0.
        self.span_ = np.where(span > 0, span, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "span_"):
            raise NotFittedError("MinMaxScaler must be fitted first")
        X = check_array(X)
        if X.shape[1] != self.min_.shape[0]:
            raise ValueError(
                f"expected {self.min_.shape[0]} features, got {X.shape[1]}"
            )
        out = (X - self.min_) / self.span_
        if self.clip:
            out = np.clip(out, 0.0, 1.0)
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class StandardScaler:
    """Zero-mean unit-variance scaling (used by some supervised baselines)."""

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.std_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "std_"):
            raise NotFittedError("StandardScaler must be fitted first")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.std_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def sparse_distribution_score(column: np.ndarray) -> float:
    """How 'sparsely distributed' a nonnegative feature column is.

    Measured as the ratio of the 99th-percentile value to the median of the
    positive mass — heavy right tails (power-law-ish features like ``nnz``
    or ``nnz_max``) score high, compact distributions score near 1.
    """
    column = np.asarray(column, dtype=np.float64)
    positive = column[column > 0]
    if positive.size < 2:
        return 1.0
    hi = np.percentile(positive, 99)
    med = np.median(positive)
    if med <= 0:
        return float("inf")
    return float(hi / med)


def sparse_distribution_scores(X: np.ndarray) -> np.ndarray:
    """:func:`sparse_distribution_score` of every column of ``X``, bit for bit.

    One sort replaces a percentile and a median per column: the positive
    entries of a column are the suffix of its sorted column, so columns
    with the same count of positives share one ``np.percentile`` and one
    ``np.median`` call.  A median of positive values is positive, so the
    reference's ``inf`` branch cannot arise here.
    """
    X = np.asarray(X, dtype=np.float64)
    ordered = np.sort(X, axis=0)
    n_positive = np.count_nonzero(X > 0, axis=0)
    scores = np.ones(X.shape[1])
    for m in np.unique(n_positive[n_positive >= 2]):
        cols = np.flatnonzero(n_positive == m)
        positive = ordered[X.shape[0] - m:, cols]
        scores[cols] = np.percentile(positive, 99, axis=0) / np.median(
            positive, axis=0
        )
    return scores


class SparseDistributionTransformer:
    """Per-feature log/sqrt transform of sparsely-distributed columns.

    Columns whose :func:`sparse_distribution_score` exceeds ``threshold``
    get ``log1p`` (default) or ``sqrt``; the rest pass through.  Negative
    values are shifted by the fitted column minimum first, so the transform
    is well defined for difference features like ``max_mu``.
    """

    def __init__(
        self, kind: str = "log", threshold: float = 5.0
    ) -> None:
        if kind not in ("log", "sqrt"):
            raise ValueError(f"kind must be 'log' or 'sqrt', got {kind!r}")
        self.kind = kind
        self.threshold = threshold

    def fit(self, X: np.ndarray) -> "SparseDistributionTransformer":
        X = check_array(X)
        self.shift_ = np.minimum(X.min(axis=0), 0.0)
        self.apply_ = (
            sparse_distribution_scores(X - self.shift_) > self.threshold
        )
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "apply_"):
            raise NotFittedError(
                "SparseDistributionTransformer must be fitted first"
            )
        X = check_array(X)
        if X.shape[1] != self.apply_.shape[0]:
            raise ValueError(
                f"expected {self.apply_.shape[0]} features, got {X.shape[1]}"
            )
        out = X - self.shift_
        # Transfer-time values may undershoot the fitted minimum; clamp at
        # zero so log/sqrt stay defined.
        out = np.maximum(out, 0.0)
        cols = self.apply_
        if cols.any():
            if self.kind == "log":
                out[:, cols] = np.log1p(out[:, cols])
            else:
                out[:, cols] = np.sqrt(out[:, cols])
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)
