"""Random Forest classifier.

The paper's setup (§5.1): *"For RF, we use 100 estimators with a maximum
depth of 6."*  Bagged CART trees with sqrt-feature subsampling and
soft-probability voting.  Every tree grows in one batch
(:func:`repro.ml.tree.grow`) and the fitted forest is one stack of flat
node arrays, so prediction descends all trees at once.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels
from repro.ml.tree import (
    DecisionTreeClassifier,
    grow,
    leaf_proba,
    n_candidate_features,
)


def tree_draws(
    rng: np.random.Generator, n: int, n_trees: int, bootstrap: bool
) -> tuple[np.ndarray, list[int]]:
    """Each tree's sample of ``n`` rows and its seed, in one call.

    Tree by tree, a forest draws ``rng.integers(0, n, size=n)`` (its
    bootstrap sample, or ``arange(n)`` without bootstrap) and then
    ``rng.integers(0, 2**31 - 1)`` (its seed).  One call with an array of
    inclusive bounds makes those draws from the same stream, in the same
    order, through the same bounded-draw routine.
    """
    if not bootstrap:
        samples = np.tile(np.arange(n), (n_trees, 1))
        return samples, rng.integers(0, 2**31 - 1, size=n_trees).tolist()
    draws = rng.integers(
        0, np.tile([n - 1] * n + [2**31 - 2], n_trees), endpoint=True
    ).reshape(n_trees, n + 1)
    return draws[:, :n], draws[:, n].tolist()


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
        k = n_candidate_features(self.max_features, X.shape[1])
        self.classes_, encoded = encode_labels(y)
        samples, seeds = tree_draws(
            np.random.default_rng(self.seed), X.shape[0], self.n_estimators,
            self.bootstrap,
        )
        # Each tree keeps the classes its bootstrap sample holds; the
        # node counts hold them in the forest's class columns.
        self._flat, counts, present = grow(
            X, samples, encoded[samples], self.classes_.shape[0], seeds, k,
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
        )
        self._proba = leaf_proba(counts)
        self.n_features_ = X.shape[1]
        self.trees_: list[DecisionTreeClassifier] = []
        for t, seed in enumerate(seeds):
            cols = np.flatnonzero(present[t])
            self.trees_.append(DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=seed,
            )._set_fitted(
                self._flat.tree(t), counts, self._proba,
                self.classes_[cols], cols, self.n_features_, k,
            ))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        # (trees × rows × classes); the class columns were aligned onto
        # self.classes_ at fit, zero where a tree's sample lacked a class.
        proba = self._proba[self._flat.leaves(X)]
        # An accumulate adds one tree at a time in tree order, as a loop
        # over trees would; a sum over the tree axis may regroup terms.
        np.cumsum(proba, axis=0, out=proba)
        return proba[-1] / proba.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
