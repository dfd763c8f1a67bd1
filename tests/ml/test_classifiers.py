"""Classifier behaviours shared and specific: DT, RF, KNN, LR, SVM, XGB."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier, pairwise_sq_dists
from repro.ml.logistic import LogisticRegression
from repro.ml.svm import SVC, rbf_kernel
from repro.ml.tree import DecisionTreeClassifier

ALL_CLASSIFIERS = [
    lambda: DecisionTreeClassifier(max_depth=8),
    lambda: RandomForestClassifier(n_estimators=15, seed=1),
    lambda: KNeighborsClassifier(3),
    lambda: LogisticRegression(),
    lambda: SVC(kernel="rbf", C=5.0),
    lambda: GradientBoostingClassifier(n_rounds=25, max_depth=3),
]


def _blobs(rng, n_per=40, k=3, spread=0.5):
    centers = rng.standard_normal((k, 4)) * 4
    X = np.vstack(
        [rng.normal(c, spread, size=(n_per, 4)) for c in centers]
    )
    y = np.repeat(np.arange(k), n_per)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
def test_learns_separable_blobs(factory, rng):
    X, y = _blobs(rng)
    clf = factory()
    clf.fit(X[:90], y[:90])
    acc = np.mean(clf.predict(X[90:]) == y[90:])
    assert acc >= 0.9


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
def test_string_labels_supported(factory, rng):
    X, y = _blobs(rng)
    names = np.array(["csr", "ell", "hyb"], dtype=object)[y]
    clf = factory()
    clf.fit(X, names)
    pred = clf.predict(X[:10])
    assert set(pred) <= {"csr", "ell", "hyb"}


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
def test_predict_before_fit_raises(factory):
    with pytest.raises(NotFittedError):
        factory().predict(np.zeros((2, 4)))


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
def test_single_class_training(factory, rng):
    X = rng.standard_normal((20, 3))
    y = np.zeros(20, dtype=int)
    clf = factory()
    clf.fit(X, y)
    assert np.all(clf.predict(X) == 0)


class TestDecisionTree:
    def test_max_depth_respected(self, rng):
        X, y = _blobs(rng, n_per=60)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_pure_leaf_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth() == 0 and tree.n_leaves() == 1

    def test_min_samples_leaf(self, rng):
        X, y = _blobs(rng, n_per=30)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        # No leaf may hold fewer than 10 training samples.
        def leaves(node):
            if node.is_leaf:
                return [node.counts.sum()]
            return leaves(node.left) + leaves(node.right)

        assert min(leaves(tree.root_)) >= 10

    def test_xor_needs_depth_two(self, rng):
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=4).fit(X, y)
        acc_shallow = np.mean(shallow.predict(X) == y)
        acc_deep = np.mean(deep.predict(X) == y)
        assert acc_deep > 0.95 > acc_shallow

    def test_predict_proba_sums_to_one(self, rng):
        X, y = _blobs(rng)
        proba = DecisionTreeClassifier(max_depth=4).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestRandomForest:
    def test_more_trees_not_worse_on_noise(self, rng):
        X, y = _blobs(rng, spread=1.5)
        small = RandomForestClassifier(n_estimators=2, seed=0).fit(X[:90], y[:90])
        big = RandomForestClassifier(n_estimators=40, seed=0).fit(X[:90], y[:90])
        acc_small = np.mean(small.predict(X[90:]) == y[90:])
        acc_big = np.mean(big.predict(X[90:]) == y[90:])
        assert acc_big >= acc_small - 0.05

    def test_seed_reproducible(self, rng):
        X, y = _blobs(rng)
        p1 = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        p2 = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_class_alignment_with_missing_bootstrap_class(self, rng):
        # A very rare class may be absent from some bootstrap samples;
        # predict_proba must still align columns correctly.
        X = np.vstack([rng.normal(0, 0.1, (50, 2)), rng.normal(5, 0.1, (2, 2))])
        y = np.array([0] * 50 + [1] * 2)
        rf = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        pred = rf.predict(np.array([[5.0, 5.0]]))
        assert pred[0] == 1


class TestKNN:
    def test_pairwise_distances(self, rng):
        A = rng.standard_normal((7, 3))
        B = rng.standard_normal((5, 3))
        d2 = pairwise_sq_dists(A, B)
        brute = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d2, brute, atol=1e-9)

    def test_k1_memorises(self, rng):
        X, y = _blobs(rng)
        knn = KNeighborsClassifier(1).fit(X, y)
        np.testing.assert_array_equal(knn.predict(X), y)

    def test_distance_weighting_exact_duplicate_dominates(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0]])
        y = np.array([0, 0, 0, 1])
        knn = KNeighborsClassifier(4, weights="distance").fit(X, y)
        assert knn.predict(np.array([[10.0]]))[0] == 1

    def test_k_larger_than_train_set(self, rng):
        X, y = _blobs(rng, n_per=3)
        knn = KNeighborsClassifier(50).fit(X, y)
        assert knn.predict(X).shape == y.shape


class TestLogisticRegression:
    def test_linear_boundary_learned(self, rng):
        X = rng.standard_normal((300, 2))
        y = (X @ np.array([2.0, -1.0]) > 0.3).astype(int)
        lr = LogisticRegression(C=10.0).fit(X, y)
        assert np.mean(lr.predict(X) == y) > 0.95

    def test_proba_normalised(self, rng):
        X, y = _blobs(rng)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_stronger_regularisation_shrinks_weights(self, rng):
        X, y = _blobs(rng)
        w_weak = LogisticRegression(C=100.0).fit(X, y).coef_
        w_strong = LogisticRegression(C=0.001).fit(X, y).coef_
        assert np.linalg.norm(w_strong) < np.linalg.norm(w_weak)


class TestSVM:
    def test_rbf_kernel_values(self, rng):
        A = rng.standard_normal((4, 2))
        K = rbf_kernel(A, A, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), 1.0)
        assert np.all(K <= 1.0) and np.all(K > 0.0)

    def test_rbf_separates_circles(self, rng):
        theta = rng.uniform(0, 2 * np.pi, 200)
        r = np.concatenate([np.full(100, 1.0), np.full(100, 3.0)])
        r += rng.normal(0, 0.1, 200)
        X = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        y = np.array([0] * 100 + [1] * 100)
        svc = SVC(kernel="rbf", C=10.0).fit(X, y)
        assert np.mean(svc.predict(X) == y) > 0.95

    def test_linear_kernel_on_linear_data(self, rng):
        X = rng.standard_normal((200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        svc = SVC(kernel="linear", C=1.0).fit(X, y)
        assert np.mean(svc.predict(X) == y) > 0.9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SVC(kernel="poly")
        with pytest.raises(ValueError):
            SVC(C=0)


class TestGradientBoosting:
    def test_more_rounds_improve_fit(self, rng):
        X, y = _blobs(rng, spread=1.2)
        weak = GradientBoostingClassifier(n_rounds=1, max_depth=2).fit(X, y)
        strong = GradientBoostingClassifier(n_rounds=40, max_depth=2).fit(X, y)
        acc_weak = np.mean(weak.predict(X) == y)
        acc_strong = np.mean(strong.predict(X) == y)
        assert acc_strong >= acc_weak

    def test_xor_learned(self, rng):
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        gb = GradientBoostingClassifier(n_rounds=30, max_depth=3).fit(X, y)
        assert np.mean(gb.predict(X) == y) > 0.95

    def test_subsample_mode(self, rng):
        X, y = _blobs(rng)
        gb = GradientBoostingClassifier(
            n_rounds=10, max_depth=2, subsample=0.7, seed=2
        ).fit(X, y)
        assert np.mean(gb.predict(X) == y) > 0.9

    def test_proba_normalised(self, rng):
        X, y = _blobs(rng)
        proba = GradientBoostingClassifier(n_rounds=5).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_rounds=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)

    @pytest.mark.parametrize("max_depth", [None, -1, 2.0, "6", True])
    def test_max_depth_must_be_a_nonnegative_int(self, max_depth):
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostingClassifier(max_depth=max_depth)

    def test_max_depth_zero_fits_root_leaves(self, rng):
        X, y = _blobs(rng)
        gb = GradientBoostingClassifier(n_rounds=3, max_depth=0).fit(X, y)
        assert all(t.root_.is_leaf for r in gb.trees_ for t in r)
        gb = GradientBoostingClassifier(max_depth=np.int64(2)).fit(X, y)
        assert gb.predict(X).shape == y.shape
