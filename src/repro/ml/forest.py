"""Random Forest classifier.

The paper's setup (§5.1): *"For RF, we use 100 estimators with a maximum
depth of 6."*  Bagged CART trees with sqrt-feature subsampling and
soft-probability voting.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier(BaseEstimator):
    """Bootstrap-aggregated decision trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        # Labels are encoded once; each tree keeps the classes its
        # bootstrap sample holds, exactly as encoding that sample would.
        self.classes_, encoded = encode_labels(y)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.trees_: list[DecisionTreeClassifier] = []
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            present, codes = np.unique(encoded[idx], return_inverse=True)
            tree._grow(X[idx], codes, self.classes_[present])
            self.trees_.append(tree)
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        # Trees may have seen different class subsets in their bootstrap
        # samples; align their probability columns onto self.classes_.
        agg = np.zeros((X.shape[0], self.classes_.shape[0]))
        for tree in self.trees_:
            cols = np.searchsorted(self.classes_, tree.classes_)
            agg[:, cols] += tree._leaf_proba(X)
        return agg / len(self.trees_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
