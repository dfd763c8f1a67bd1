"""XGBoost-style gradient-boosted trees (softmax objective, second order).

The paper's strongest supervised baseline.  Setup (§5.1): *"For XGBoost, we
set a learning rate of 0.1 and the number of rounds to 100."*  This
implementation follows the XGBoost formulation: per-round, per-class
gradient/Hessian statistics of the softmax cross-entropy, regression trees
grown by exact greedy search on the gain

    0.5 * [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ

and leaf weights −G/(H+λ), applied with shrinkage.

Every tree grown on one sample of rows (each tree of a fit at
``subsample=1``, each of a round's class trees otherwise) shares one
presorted block, and grows straight into flat node lists (DESIGN §17).
A node whose Hessian sum is below ``2 * min_child_weight`` is a leaf
before any gain is scored: no cut could leave ``min_child_weight`` on
both sides.  The rows a leaf holds in the build give the margins of the
next round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels
from repro.ml.tree import FlatTree, best_cut, link, presort, split_block


@dataclass
class _RegNode:
    """One node of a boosted tree's linked view (``root_``)."""

    weight: float
    feature: int = -1
    threshold: float = 0.0
    left: "_RegNode | None" = None
    right: "_RegNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Block:
    """The presorted block of one sample of rows (DESIGN §17), shared by
    every tree grown on that sample.

    ``rows`` are the sampled row indices in sample order; ``order`` holds
    them sorted stably along each feature, ``values`` their values in
    that order and ``ties`` where adjacent values are equal: the root
    node's block.
    """

    def __init__(self, XT: np.ndarray, rows: np.ndarray) -> None:
        self.XT = XT
        self.rows = rows
        self.features = np.arange(XT.shape[0])[:, None]
        self.order = rows[presort(XT[:, rows])]
        self.values = XT[self.features, self.order]
        self.ties = self.values[:, 1:] == self.values[:, :-1]


class _GrownTree:
    """One boosted tree as flat node lists, node 0 its root.

    A split node ``i`` sends rows with ``x[feature[i]] <= threshold[i]``
    to node ``children[2i + 1]`` and the others to ``children[2i]``; a
    leaf's children point back at it (the :class:`FlatTree` layout).
    """

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children: list[int] = []
        self.weight: list[float] = []
        self.depth = 0

    @cached_property
    def root_(self) -> _RegNode:
        """The tree as linked nodes, built on first use."""
        nodes = [_RegNode(weight=w) for w in self.weight]
        return link(nodes, self.feature, self.threshold, self.children)


def _stack(trees: list[_GrownTree]) -> tuple[FlatTree, np.ndarray]:
    """Grown trees as one :class:`FlatTree`, in order, and their nodes'
    leaf weights."""
    sizes = np.array([len(tree.weight) for tree in trees])
    bounds = np.zeros(len(trees) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    children = np.fromiter(
        chain.from_iterable(tree.children for tree in trees), dtype=np.intp
    )
    children += np.repeat(bounds[:-1], 2 * sizes)
    flat = FlatTree(
        np.fromiter(
            chain.from_iterable(tree.feature for tree in trees), dtype=np.intp
        ),
        np.fromiter(chain.from_iterable(tree.threshold for tree in trees), float),
        children,
        bounds,
        np.array([tree.depth for tree in trees], dtype=np.intp),
    )
    weight = np.fromiter(chain.from_iterable(tree.weight for tree in trees), float)
    return flat, weight


def _best_split(g, h, order, ties, g_sum, h_sum, lam, gamma, mcw):
    """(feature, cut) of a node's best gain, else ``None``.

    ``order`` is the node's presorted block and ``ties`` marks the cuts
    between equal values.  Cut ``c`` puts the first ``c + 1`` sorted rows
    of a feature on the left.
    """
    parent_score = g_sum * g_sum / (h_sum + lam)
    GL = g[order].cumsum(axis=1)[:, :-1]
    HL = h[order].cumsum(axis=1)[:, :-1]
    GR, HR = g_sum - GL, h_sum - HL
    gains = 0.5 * (
        GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
    ) - gamma
    gains[ties] = -np.inf
    gains[(HL < mcw) | (HR < mcw)] = -np.inf
    return best_cut(gains)


def _grow(
    block: _Block,
    g: np.ndarray,
    h: np.ndarray,
    out: np.ndarray,
    max_depth: int,
    lam: float,
    gamma: float,
    mcw: float,
) -> _GrownTree:
    """Grow one regression tree on ``block`` from (gradient, Hessian)
    statistics, both indexed by row of the full data.

    Writes each sampled row's leaf weight to ``out[row]``: the rows a
    leaf holds in the build are the rows ``x <= threshold`` routes to it.
    """
    tree = _GrownTree()
    XT = block.XT
    pending = []

    def add(rows, order, depth, values=None, ties=None):
        # ``rows`` are the node's rows in their original order: a pairwise
        # sum depends on the order of its terms, so the sums never run in
        # presorted order.
        g_sum, h_sum = float(g[rows].sum()), float(h[rows].sum())
        i = len(tree.weight)
        weight = -g_sum / (h_sum + lam)
        tree.weight.append(weight)
        tree.feature.append(0)
        tree.threshold.append(0.0)
        tree.children += (i, i)
        tree.depth = max(tree.depth, depth)
        # Below 2 * mcw no cut leaves mcw on both sides (DESIGN §17).
        if depth >= max_depth or rows.shape[0] < 2 or h_sum < 2 * mcw:
            out[rows] = weight
        else:
            pending.append((i, rows, order, depth, values, ties, g_sum, h_sum))
        return i

    add(block.rows, block.order, 0, block.values, block.ties)
    while pending:
        i, rows, order, depth, values, ties, g_sum, h_sum = pending.pop()
        if values is None:
            values = XT[block.features, order]
            ties = values[:, 1:] == values[:, :-1]
        cut = _best_split(g, h, order, ties, g_sum, h_sum, lam, gamma, mcw)
        if cut is None:
            out[rows] = tree.weight[i]
            continue
        feature, c = cut
        threshold = 0.5 * (values[feature, c] + values[feature, c + 1])
        tree.feature[i] = feature
        tree.threshold[i] = threshold
        left, right = split_block(rows, order, XT[feature] <= threshold)
        left_id = add(*left, depth + 1)
        tree.children[2 * i:2 * i + 2] = (add(*right, depth + 1), left_id)
    return tree


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
        if (
            not isinstance(max_depth, (int, np.integer))
            or isinstance(max_depth, bool)
            or max_depth < 0
        ):
            raise ValueError(f"max_depth must be an int >= 0, got {max_depth!r}")
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
        XT = np.ascontiguousarray(X.T)
        # One presorted block per sample: every tree of the fit shares the
        # full data's, or every tree of a round its subsample's.
        block = _Block(XT, np.arange(n)) if self.subsample == 1.0 else None
        outside = np.arange(0)  # rows a round's subsample leaves out
        self.trees_: list[list[_GrownTree]] = []
        for _ in range(self.n_rounds):
            P = _softmax(F) if k > 1 else np.ones((n, 1))
            if self.subsample < 1.0:
                m = max(2, int(self.subsample * n))
                sample = rng.choice(n, size=m, replace=False)
                block = _Block(XT, sample)
                outside = np.setdiff1d(np.arange(n), sample)
            G = P - onehot
            H = np.maximum(P * (1.0 - P), 1e-16)
            margin = np.empty((n, k))  # each row's leaf weight, per class
            round_trees = []
            for c in range(k):
                tree = _grow(
                    block, G[:, c], H[:, c], margin[:, c], self.max_depth,
                    self.reg_lambda, self.gamma, self.min_child_weight,
                )
                if outside.size:
                    flat, weight = _stack([tree])
                    margin[outside, c] = weight[flat.leaves(X[outside])[0]]
                round_trees.append(tree)
            F += self.learning_rate * margin
            self.trees_.append(round_trees)
        self._flat, self._weight = _stack(
            [tree for round_trees in self.trees_ for tree in round_trees]
        )
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
