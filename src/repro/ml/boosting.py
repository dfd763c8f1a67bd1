"""XGBoost-style gradient-boosted trees (softmax objective, second order).

The paper's strongest supervised baseline.  Setup (§5.1): *"For XGBoost, we
set a learning rate of 0.1 and the number of rounds to 100."*  This
implementation follows the XGBoost formulation: per-round, per-class
gradient/Hessian statistics of the softmax cross-entropy, regression trees
grown by exact greedy search on the gain

    0.5 * [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ

and leaf weights −G/(H+λ), applied with shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels
from repro.ml.tree import FlatTree, best_cut, presort, split_block


@dataclass
class _RegNode:
    weight: float
    feature: int = -1
    threshold: float = 0.0
    left: "_RegNode | None" = None
    right: "_RegNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _GradientTree:
    """One regression tree fit to (gradient, Hessian) statistics."""

    def __init__(
        self,
        max_depth: int,
        reg_lambda: float,
        gamma: float,
        min_child_weight: float,
    ) -> None:
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> "_GradientTree":
        self._XT = np.ascontiguousarray(X.T)
        self._g, self._h = g, h
        self._features = np.arange(X.shape[1])[:, None]
        self.root_ = self._build(
            np.arange(X.shape[0]), presort(self._XT), depth=0
        )
        del self._XT, self._g, self._h, self._features
        self._flat, nodes = FlatTree.from_root(self.root_)
        self._weight = np.array([node.weight for node in nodes])
        return self

    def _leaf_weight(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _build(self, rows: np.ndarray, order: np.ndarray, depth: int) -> _RegNode:
        # ``rows`` are the node's rows in their original order: a pairwise
        # sum depends on the order of its terms, so the sums never run in
        # presorted order.
        g_sum, h_sum = float(self._g[rows].sum()), float(self._h[rows].sum())
        node = _RegNode(weight=self._leaf_weight(g_sum, h_sum))
        if depth >= self.max_depth or rows.shape[0] < 2:
            return node
        lam, mcw = self.reg_lambda, self.min_child_weight
        parent_score = g_sum * g_sum / (h_sum + lam)
        # Cut c puts the first c + 1 sorted rows of a feature on the left.
        GL = self._g[order].cumsum(axis=1)[:, :-1]
        HL = self._h[order].cumsum(axis=1)[:, :-1]
        GR, HR = g_sum - GL, h_sum - HL
        gains = 0.5 * (
            GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
        ) - self.gamma
        values = self._XT[self._features, order]
        gains[values[:, 1:] == values[:, :-1]] = -np.inf
        gains[(HL < mcw) | (HR < mcw)] = -np.inf
        cut = best_cut(gains)
        if cut is None:
            return node
        feature, c = cut
        node.feature = feature
        node.threshold = 0.5 * (values[feature, c] + values[feature, c + 1])
        left, right = split_block(
            rows, order, self._XT[feature] <= node.threshold
        )
        node.left = self._build(*left, depth + 1)
        node.right = self._build(*right, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._weight[self._flat.leaves(X)[0]]


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


class GradientBoostingClassifier(BaseEstimator):
    """Multiclass gradient boosting with the paper's XGBoost settings."""

    def __init__(
        self,
        n_rounds: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        self.n_features_ = X.shape[1]
        n = X.shape[0]
        k = self.classes_.shape[0]
        rng = np.random.default_rng(self.seed)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), encoded] = 1.0
        F = np.zeros((n, k))
        self.trees_: list[list[_GradientTree]] = []
        for _ in range(self.n_rounds):
            P = _softmax(F) if k > 1 else np.ones((n, 1))
            round_trees: list[_GradientTree] = []
            if self.subsample < 1.0:
                m = max(2, int(self.subsample * n))
                sample = rng.choice(n, size=m, replace=False)
            else:
                sample = np.arange(n)
            for c in range(k):
                g = P[:, c] - onehot[:, c]
                h = np.maximum(P[:, c] * (1.0 - P[:, c]), 1e-16)
                tree = _GradientTree(
                    self.max_depth,
                    self.reg_lambda,
                    self.gamma,
                    self.min_child_weight,
                )
                tree.fit(X[sample], g[sample], h[sample])
                F[:, c] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
        trees = [tree for round_trees in self.trees_ for tree in round_trees]
        self._flat = FlatTree.stack([tree._flat for tree in trees])
        self._weight = np.concatenate([tree._weight for tree in trees])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        # Every tree's shrunken leaf weights, (rounds × classes × rows).
        F = self._weight[self._flat.leaves(X)]
        F = F.reshape(len(self.trees_), -1, X.shape[0])
        F *= self.learning_rate
        # Add the rounds one at a time in round order, starting from 0 (so
        # a first term of -0.0 gives 0.0), as F[:, c] += learning_rate *
        # tree.predict(X) did tree by tree.
        F[0] += 0.0
        np.cumsum(F, axis=0, out=F)
        return np.ascontiguousarray(F[-1].T)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        F = self.decision_function(X)
        if self.classes_.shape[0] == 1:
            return np.ones((X.shape[0], 1))
        return _softmax(F)

    def predict(self, X: np.ndarray) -> np.ndarray:
        F = self.decision_function(X)  # raises NotFittedError first
        return self.classes_[np.argmax(F, axis=1)]
