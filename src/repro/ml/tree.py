"""CART decision-tree classifier (Gini impurity, exact greedy splits).

Backs both the paper's DT baseline and the Random Forest (prior work
Sedaghati et al. [30] used trees/forests for format selection).

Split search is exact greedy over a presorted block (DESIGN §17): one
stable argsort of every column per fit, a stable filter of it for every
child, and all (feature × cut) gains of a node scored in one vectorized
pass.  The fitted tree is also flattened into node arrays, so prediction
descends all rows level by level instead of walking one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels


@dataclass
class _Node:
    """One tree node; leaves carry class-count distributions."""

    counts: np.ndarray  # per-class sample counts reaching this node
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def presort(XT: np.ndarray) -> np.ndarray:
    """Row indices sorted stably along each feature of a (features, rows)
    matrix: the block every node of one fit filters."""
    return np.argsort(XT, axis=1, kind="stable")


def split_block(
    rows: np.ndarray, order: np.ndarray, goes_left: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(rows, block) of the left and of the right child of a node.

    ``rows`` are the node's rows in their original order, ``order`` its
    presorted block and ``goes_left`` is indexed by row.  A stable filter
    keeps the rows in their original order, and it keeps each block row
    a stable sort: values stay ascending and tied rows keep their order,
    so each child's block equals a fresh stable argsort of its own rows.
    """
    in_left = goes_left[rows]
    mask = goes_left[order]
    n_features = order.shape[0]
    return (
        (rows[in_left], order[mask].reshape(n_features, -1)),
        (rows[~in_left], order[~mask].reshape(n_features, -1)),
    )


def best_cut(gains: np.ndarray) -> tuple[int, int] | None:
    """(feature row, cut) of the best positive gain, else ``None``.

    ``gains`` holds one row per candidate feature and one column per cut,
    with ``-inf`` where a cut is not allowed.  The first maximum in row
    order is the first maximum within the first row that holds it: the
    tie-break of a loop over features that keeps a strictly better
    running best, starting at 0.
    """
    if not gains.size:  # no candidate feature
        return None
    i = int(gains.argmax())
    if not gains.flat[i] > 0.0:
        return None
    return divmod(i, gains.shape[1])


def _best_split(
    values: np.ndarray,
    onehot: np.ndarray,
    counts: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, int] | None:
    """(feature row, cut) of the best Gini cut of a presorted block.

    ``values`` (features × rows) holds each candidate feature's values in
    stable ascending order and ``onehot`` (features × rows × classes) the
    classes of the same rows; ``counts`` the node's class counts.  Cut
    ``c`` puts the first ``c + 1`` sorted rows on the left.  Class counts
    accumulate along each sorted row with the class axis last, so every
    gain is computed exactly as a per-feature sort would.
    """
    n = values.shape[1]
    parent_gini = _gini(counts)
    left = onehot.cumsum(axis=1)[:, :-1]
    nl = np.arange(1.0, n)
    nr = n - nl
    gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=2)
    gini_r = 1.0 - (((counts - left) / nr[:, None]) ** 2).sum(axis=2)
    gains = parent_gini - (nl * gini_l + nr * gini_r) / n
    # Only cuts between distinct values, with at least min_samples_leaf
    # rows on each side (nl >= msl and nr >= msl).
    gains[values[:, 1:] == values[:, :-1]] = -np.inf
    if min_samples_leaf > 1:
        gains[:, : min_samples_leaf - 1] = -np.inf
        gains[:, max(n - min_samples_leaf, 0):] = -np.inf
    return best_cut(gains)


class FlatTree:
    """A fitted tree as breadth-first node arrays.

    A leaf's children point back at the leaf, so ``depth`` rounds of
    "compare, step to a child" park every row on its leaf.  A round only
    compares each row's own feature value with a threshold, so the leaf a
    row reaches does not depend on the other rows of the batch.
    """

    __slots__ = ("nodes", "feature", "threshold", "children", "depth")

    def __init__(self, root) -> None:
        nodes = [root]
        feature: list[int] = []
        threshold: list[float] = []
        children: list[int] = []  # per node: [child if x > t, if x <= t]
        level = [0]
        for i, node in enumerate(nodes):  # grows while it is walked
            if node.is_leaf:
                feature.append(0)
                threshold.append(0.0)
                children += (i, i)
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                children += (len(nodes) + 1, len(nodes))
                nodes += (node.left, node.right)
                level += (level[i] + 1, level[i] + 1)
        self.nodes = nodes
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.children = np.array(children, dtype=np.intp)
        self.depth = max(level)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Index into ``nodes`` of the leaf each row of ``X`` reaches."""
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + goes_left]
        return node


class DecisionTreeClassifier(BaseEstimator):
    """CART classifier.

    Parameters follow the scikit-learn names the paper's setup mentions
    (``max_depth``, ``min_samples_split``, ``max_features``).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def _n_candidate_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        return max(1, min(int(mf), n_features))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        classes, encoded = encode_labels(y)
        return self._grow(X, encoded, classes)

    def _grow(
        self, X: np.ndarray, encoded: np.ndarray, classes: np.ndarray
    ) -> "DecisionTreeClassifier":
        """Fit on validated ``X`` and labels encoded as ``classes`` indices."""
        self.classes_ = classes
        self._rng = np.random.default_rng(self.seed)
        self.n_features_ = X.shape[1]
        self._k = self._n_candidate_features(self.n_features_)
        self._XT = np.ascontiguousarray(X.T)
        self._onehot = np.eye(classes.shape[0])[encoded]
        self._y = encoded
        self.root_ = self._build(
            np.arange(X.shape[0]), presort(self._XT), depth=0
        )
        del self._XT, self._y, self._onehot
        self._flat = FlatTree(self.root_)
        counts = np.array([node.counts for node in self._flat.nodes])
        totals = counts.sum(axis=1)[:, None]
        # A threshold that rounds onto the upper of two adjacent values
        # sends every row left, so a node can be empty: its distribution
        # is its (zero) counts.
        self._proba = np.divide(
            counts, totals, out=np.zeros_like(counts), where=totals > 0
        )
        return self

    def _build(self, rows: np.ndarray, order: np.ndarray, depth: int) -> _Node:
        n_classes = self.classes_.shape[0]
        counts = np.bincount(self._y[rows], minlength=n_classes).astype(float)
        node = _Node(counts=counts)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or rows.shape[0] < self.min_samples_split
            or np.count_nonzero(counts) <= 1
        ):
            return node
        if self._k < self.n_features_:
            # Candidates in draw order, which sets the tie-break between
            # equally good features.
            feats = self._rng.choice(self.n_features_, self._k, replace=False)
            order_k = order[feats]
        else:
            feats = np.arange(self.n_features_)
            order_k = order
        values = self._XT[feats[:, None], order_k]
        cut = _best_split(
            values, self._onehot[order_k], counts, self.min_samples_leaf
        )
        if cut is None:
            return node
        f, c = cut
        node.feature = int(feats[f])
        node.threshold = float(0.5 * (values[f, c] + values[f, c + 1]))
        left, right = split_block(
            rows, order, self._XT[node.feature] <= node.threshold
        )
        node.left = self._build(*left, depth + 1)
        node.right = self._build(*right, depth + 1)
        return node

    def _leaf_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba[self._flat.leaves(X)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("root_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return self._leaf_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def depth(self) -> int:
        """Realised depth of the fitted tree."""
        self._require_fitted("root_")
        return self._flat.depth

    def n_leaves(self) -> int:
        self._require_fitted("root_")
        return sum(node.is_leaf for node in self._flat.nodes)
