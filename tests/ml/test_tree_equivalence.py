"""Presorted split search ≡ per-feature split search (DESIGN §17).

The oracle below is a compact copy of the split search the tree models
used before presorting: for every node, every candidate feature is
argsorted on its own and scanned in a Python loop.  The fitted
``DecisionTreeClassifier``, every ``RandomForestClassifier`` tree and
every boosted tree must equal the oracle's node for node (feature,
threshold, class counts or leaf weight, bit for bit), and the models'
``predict_proba``/``decision_function`` must equal a per-row walk of the
oracle's trees bit for bit on fresh inputs.

Hypothesis draws tie-heavy inputs, where tie-breaking decides the tree:
small-integer columns, normals rounded to 0.1 (``-0.0`` included),
constant columns and duplicate rows.  One more column kind holds values
one ulp apart, where a midpoint threshold can round onto the upper
value, send every row left and leave an empty child.  Such a split
repeats at the full child, so every drawn ``max_depth`` is finite: with
``max_depth=None`` both searches recurse until ``RecursionError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import HYPOTHESIS_SCALE

from repro.ml.boosting import GradientBoostingClassifier, _softmax
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


def _bits(x) -> str:
    return float(x).hex()


# -- the oracle: per-node, per-feature exact greedy search ----------------


def _oracle_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _oracle_best_split(X, y, n_classes, feature_indices, min_samples_leaf):
    n = y.shape[0]
    parent_gini = _oracle_gini(np.bincount(y, minlength=n_classes).astype(float))
    best = (-1, 0.0, 0.0)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for j in feature_indices:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        left_counts = np.cumsum(onehot[order], axis=0)
        total = left_counts[-1]
        pos = np.flatnonzero(xs[1:] != xs[:-1]) + 1
        pos = pos[(pos >= min_samples_leaf) & (n - pos >= min_samples_leaf)]
        if pos.size == 0:
            continue
        lc = left_counts[pos - 1]
        rc = total - lc
        nl = pos.astype(float)
        nr = n - nl
        gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        gains = parent_gini - (nl * gini_l + nr * gini_r) / n
        i = int(np.argmax(gains))
        if gains[i] > best[2]:
            thr = 0.5 * (xs[pos[i] - 1] + xs[pos[i]])
            best = (int(j), float(thr), float(gains[i]))
    return best


def _oracle_cart(X, y, max_depth, min_samples_leaf, max_features, seed):
    """(classes, nested node tuples) of one CART fit.

    A leaf is ``(counts,)``; a split ``(counts, feature, threshold, left,
    right)``, with floats as hex strings so equality is bit equality.
    """
    classes, encoded = np.unique(y, return_inverse=True)
    n_classes, n_features = classes.shape[0], X.shape[1]
    k = DecisionTreeClassifier(max_features=max_features)._n_candidate_features(
        n_features
    )
    rng = np.random.default_rng(seed)

    def build(X, y, depth):
        counts = np.bincount(y, minlength=n_classes).astype(float)
        leaf = (tuple(_bits(c) for c in counts),)
        if (
            (max_depth is not None and depth >= max_depth)
            or y.shape[0] < 2
            or np.count_nonzero(counts) <= 1
        ):
            return leaf
        if k < n_features:
            feats = rng.choice(n_features, k, replace=False)
        else:
            feats = np.arange(n_features)
        feature, threshold, gain = _oracle_best_split(
            X, y, n_classes, feats, min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return leaf
        mask = X[:, feature] <= threshold
        return leaf + (
            feature,
            _bits(threshold),
            build(X[mask], y[mask], depth + 1),
            build(X[~mask], y[~mask], depth + 1),
        )

    return classes, build(X, encoded, 0)


def _oracle_gradient_tree(X, g, h, max_depth, reg_lambda, gamma, mcw):
    """Nested tuples: a leaf is ``(weight,)``, a split appends
    ``(feature, threshold, left, right)``."""

    def build(X, g, h, depth):
        g_sum, h_sum = float(g.sum()), float(h.sum())
        leaf = (_bits(-g_sum / (h_sum + reg_lambda)),)
        if depth >= max_depth or X.shape[0] < 2:
            return leaf
        parent_score = g_sum * g_sum / (h_sum + reg_lambda)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            xs = X[order, j]
            gl = np.cumsum(g[order])
            hl = np.cumsum(h[order])
            pos = np.flatnonzero(xs[1:] != xs[:-1]) + 1
            if pos.size == 0:
                continue
            GL, HL = gl[pos - 1], hl[pos - 1]
            GR, HR = g_sum - GL, h_sum - HL
            ok = (HL >= mcw) & (HR >= mcw)
            if not ok.any():
                continue
            gains = 0.5 * (
                GL * GL / (HL + reg_lambda)
                + GR * GR / (HR + reg_lambda)
                - parent_score
            ) - gamma
            gains = np.where(ok, gains, -np.inf)
            i = int(np.argmax(gains))
            if gains[i] > best_gain:
                best_gain = float(gains[i])
                best_feature = j
                best_threshold = 0.5 * (xs[pos[i] - 1] + xs[pos[i]])
        if best_feature < 0:
            return leaf
        mask = X[:, best_feature] <= best_threshold
        return leaf + (
            best_feature,
            _bits(best_threshold),
            build(X[mask], g[mask], h[mask], depth + 1),
            build(X[~mask], g[~mask], h[~mask], depth + 1),
        )

    return build(X, g, h, 0)


def _walk(tree, x):
    """The node tuple a row reaches, one comparison per level."""
    while len(tree) > 1:
        tree = tree[3] if x[tree[1]] <= float.fromhex(tree[2]) else tree[4]
    return tree[0]


def _oracle_tree_proba(tree, X):
    out = np.empty((X.shape[0], len(tree[0])))
    for i, x in enumerate(X):
        counts = np.array([float.fromhex(c) for c in _walk(tree, x)])
        total = counts.sum()
        out[i] = counts / total if total else counts
    return out


def _oracle_tree_predict(tree, X):
    return np.array([float.fromhex(_walk(tree, x)) for x in X])


# -- the fitted models as the same tuples -----------------------------------


def _cart_tuple(node):
    leaf = (tuple(_bits(c) for c in node.counts),)
    if node.is_leaf:
        return leaf
    return leaf + (
        node.feature,
        _bits(node.threshold),
        _cart_tuple(node.left),
        _cart_tuple(node.right),
    )


def _reg_tuple(node):
    leaf = (_bits(node.weight),)
    if node.is_leaf:
        return leaf
    return leaf + (
        node.feature,
        _bits(node.threshold),
        _reg_tuple(node.left),
        _reg_tuple(node.right),
    )


# -- tie-heavy inputs -------------------------------------------------------


@st.composite
def tie_heavy(draw):
    """(X, y, X_fresh): a tie-heavy training set and rows to predict."""
    n = draw(st.integers(2, 200))
    n_features = draw(st.integers(1, 8))
    n_classes = draw(st.integers(1, 10))
    kinds = draw(
        st.lists(
            st.sampled_from(("int", "round", "const", "ulp")),
            min_size=n_features,
            max_size=n_features,
        )
    )
    n_dup = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(kind, rows):
        if kind == "int":
            return rng.integers(0, 4, rows).astype(float)
        if kind == "round":
            return np.round(rng.standard_normal(rows), 1)
        if kind == "ulp":
            return 1.0 + np.spacing(1.0) * rng.integers(0, 4, rows)
        return np.full(rows, float(rng.integers(-2, 3)))

    X = np.column_stack([column(kind, n) for kind in kinds])
    if n_dup:
        X[n - n_dup:] = X[rng.integers(0, n - n_dup, n_dup)]
    y = rng.integers(0, n_classes, n)
    if draw(st.booleans()):
        y = np.array(["coo", "csr", "ell", "hyb", "dia", "bsr", "sell",
                      "csc", "dok", "lil"])[y]
    X_fresh = np.vstack([
        np.column_stack([column(kind, 16) for kind in kinds]),
        X[rng.integers(0, n, 8)],
    ])
    return X, y, X_fresh


max_features = st.sampled_from((None, "sqrt", 1, 2, 5))


# -- the suite --------------------------------------------------------------


@settings(max_examples=60 * HYPOTHESIS_SCALE, deadline=None)
@given(
    data=tie_heavy(),
    max_depth=st.sampled_from((1, 3, 6, 10)),
    min_samples_leaf=st.integers(1, 6),
    max_features=max_features,
    seed=st.integers(0, 2**31 - 1),
)
def test_decision_tree_matches_per_feature_search(
    data, max_depth, min_samples_leaf, max_features, seed
):
    X, y, X_fresh = data
    tree = DecisionTreeClassifier(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        max_features=max_features,
        seed=seed,
    ).fit(X, y)
    classes, oracle = _oracle_cart(
        X, y, max_depth, min_samples_leaf, max_features, seed
    )
    np.testing.assert_array_equal(tree.classes_, classes)
    assert _cart_tuple(tree.root_) == oracle
    for rows in (X, X_fresh):
        proba = tree.predict_proba(rows)
        assert proba.tobytes() == _oracle_tree_proba(oracle, rows).tobytes()


@settings(max_examples=40 * HYPOTHESIS_SCALE, deadline=None)
@given(
    data=tie_heavy(),
    n_estimators=st.integers(1, 8),
    max_depth=st.sampled_from((2, 6, 10)),
    min_samples_leaf=st.integers(1, 4),
    max_features=max_features,
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_forest_trees_match_per_feature_search(
    data, n_estimators, max_depth, min_samples_leaf, max_features, bootstrap,
    seed,
):
    X, y, X_fresh = data
    rf = RandomForestClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        max_features=max_features,
        bootstrap=bootstrap,
        seed=seed,
    ).fit(X, y)
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    proba = np.zeros((X_fresh.shape[0], rf.classes_.shape[0]))
    for fitted in rf.trees_:
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        classes, oracle = _oracle_cart(
            X[idx], y[idx], max_depth, min_samples_leaf, max_features,
            tree_seed,
        )
        np.testing.assert_array_equal(fitted.classes_, classes)
        assert _cart_tuple(fitted.root_) == oracle
        cols = np.searchsorted(rf.classes_, classes)
        proba[:, cols] += _oracle_tree_proba(oracle, X_fresh)
    proba /= len(rf.trees_)
    assert rf.predict_proba(X_fresh).tobytes() == proba.tobytes()


@settings(max_examples=40 * HYPOTHESIS_SCALE, deadline=None)
@given(
    data=tie_heavy(),
    n_rounds=st.integers(1, 3),
    max_depth=st.integers(1, 6),
    gamma=st.sampled_from((0.0, 0.05)),
    min_child_weight=st.sampled_from((0.0, 1.0, 2.5)),
    subsample=st.sampled_from((1.0, 0.7)),
    seed=st.integers(0, 2**31 - 1),
)
def test_boosted_trees_match_per_feature_search(
    data, n_rounds, max_depth, gamma, min_child_weight, subsample, seed
):
    X, y, X_fresh = data
    gb = GradientBoostingClassifier(
        n_rounds=n_rounds,
        max_depth=max_depth,
        gamma=gamma,
        min_child_weight=min_child_weight,
        subsample=subsample,
        seed=seed,
    ).fit(X, y)
    # The boosting loop around the oracle trees, as GradientBoosting.fit.
    classes, encoded = np.unique(y, return_inverse=True)
    n, k = X.shape[0], classes.shape[0]
    rng = np.random.default_rng(seed)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), encoded] = 1.0
    F = np.zeros((n, k))
    F_fresh = np.zeros((X_fresh.shape[0], k))
    for round_trees in gb.trees_:
        P = _softmax(F) if k > 1 else np.ones((n, 1))
        if subsample < 1.0:
            m = max(2, int(subsample * n))
            sample = rng.choice(n, size=m, replace=False)
        else:
            sample = np.arange(n)
        for c, fitted in enumerate(round_trees):
            g = P[:, c] - onehot[:, c]
            h = np.maximum(P[:, c] * (1.0 - P[:, c]), 1e-16)
            oracle = _oracle_gradient_tree(
                X[sample], g[sample], h[sample],
                max_depth, gb.reg_lambda, gamma, min_child_weight,
            )
            assert _reg_tuple(fitted.root_) == oracle
            F[:, c] += gb.learning_rate * _oracle_tree_predict(oracle, X)
            F_fresh[:, c] += gb.learning_rate * _oracle_tree_predict(
                oracle, X_fresh
            )
    assert gb.decision_function(X_fresh).tobytes() == F_fresh.tobytes()


@pytest.mark.parametrize("seed", [10, 21, 50])
def test_many_classes_reduce_like_a_per_feature_sort(seed):
    """Ten classes: the per-class Gini sum must reduce in the order the
    per-feature search used.  These seeds grow a different tree when the
    class sum runs in another order (class axis first, say)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (200, 4)).astype(float)
    y = rng.integers(0, 10, 200)
    tree = DecisionTreeClassifier(seed=1).fit(X, y)
    _, oracle = _oracle_cart(X, y, None, 1, None, 1)
    assert _cart_tuple(tree.root_) == oracle


def test_zero_features_grow_single_leaves():
    """No candidate feature: every tree is its root leaf, as before."""
    X = np.empty((6, 0))
    y = np.array([0, 1, 1, 2, 2, 2])
    tree = DecisionTreeClassifier().fit(X, y)
    assert _cart_tuple(tree.root_) == _oracle_cart(X, y, None, 1, None, 0)[1]
    np.testing.assert_array_equal(
        tree.predict_proba(X), np.tile([1 / 6, 2 / 6, 3 / 6], (6, 1))
    )
    rf = RandomForestClassifier(n_estimators=3).fit(X, y)
    assert all(t.root_.is_leaf for t in rf.trees_)
    gb = GradientBoostingClassifier(n_rounds=2).fit(X, y)
    assert all(t.root_.is_leaf for r in gb.trees_ for t in r)
