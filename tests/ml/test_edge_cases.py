"""Classifier edge cases and secondary options not covered elsewhere."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.neural import CNNClassifier, density_image
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier


class TestTreeOptions:
    def test_max_features_sqrt(self, rng):
        X = rng.standard_normal((60, 9))
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_features="sqrt", seed=0).fit(X, y)
        assert tree._k == 3

    def test_max_features_log2_and_int(self, rng):
        X = rng.standard_normal((30, 8))
        y = (X[:, 0] > 0).astype(int)
        assert DecisionTreeClassifier(max_features="log2").fit(X, y)._k == 3
        assert DecisionTreeClassifier(max_features=5).fit(X, y)._k == 5
        assert DecisionTreeClassifier(max_features=99).fit(X, y)._k == 8

    @pytest.mark.parametrize("model", [DecisionTreeClassifier, RandomForestClassifier])
    @pytest.mark.parametrize("max_features", [0.5, 0, -3, True, "auto"])
    def test_invalid_max_features_rejected(self, model, max_features):
        est = model(max_features=max_features)
        with pytest.raises(ValueError, match="None, 'sqrt', 'log2' or an int >= 1"):
            est.fit(np.eye(4), [0, 1, 0, 1])
        assert not hasattr(est, "classes_")

    def test_constant_features_yield_stump(self, rng):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves() == 1

    @pytest.mark.parametrize(
        "model",
        [
            DecisionTreeClassifier,
            RandomForestClassifier,
            GradientBoostingClassifier,
        ],
        ids=["DT", "RF", "GB"],
    )
    def test_feature_count_mismatch_at_predict(self, rng, model):
        X = rng.standard_normal((20, 3))
        y = (X[:, 0] > 0).astype(int)
        tree = model().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(rng.standard_normal((5, 4)))


class TestForestOptions:
    def test_no_bootstrap(self, rng):
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] > 0).astype(int)
        rf = RandomForestClassifier(
            n_estimators=3, bootstrap=False, max_features=None, seed=0
        ).fit(X, y)
        # Without bootstrap or feature subsetting all trees are identical.
        p = [t.predict(X) for t in rf.trees_]
        np.testing.assert_array_equal(p[0], p[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestLogisticEdge:
    def test_single_class_predicts_it(self, rng):
        X = rng.standard_normal((10, 2))
        lr = LogisticRegression().fit(X, np.array(["csr"] * 10))
        assert set(lr.predict(X)) == {"csr"}
        np.testing.assert_allclose(lr.predict_proba(X), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0)


class TestSVCEdge:
    def test_decision_function_shape(self, rng):
        X = rng.standard_normal((30, 2))
        y = rng.integers(0, 3, 30)
        svc = SVC(kernel="linear").fit(X, y)
        assert svc.decision_function(X).shape == (30, len(svc.classes_))

    def test_explicit_gamma(self, rng):
        X = rng.standard_normal((30, 2))
        y = (X[:, 0] > 0).astype(int)
        svc = SVC(kernel="rbf", gamma=0.7).fit(X, y)
        assert svc.gamma_ == 0.7

    def test_constant_features_scale_gamma(self):
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        svc = SVC(kernel="rbf", gamma="scale").fit(X, y)
        assert svc.gamma_ == 1.0  # zero-variance fallback


class TestBoostingEdge:
    def test_single_class(self, rng):
        X = rng.standard_normal((12, 2))
        gb = GradientBoostingClassifier(n_rounds=3).fit(
            X, np.array(["ell"] * 12)
        )
        assert set(gb.predict(X)) == {"ell"}

    def test_min_child_weight_blocks_tiny_splits(self, rng):
        X = rng.standard_normal((30, 2))
        y = (X[:, 0] > 0).astype(int)
        gb = GradientBoostingClassifier(
            n_rounds=2, max_depth=3, min_child_weight=1e9
        ).fit(X, y)
        # No split can satisfy the Hessian bound: all trees are stumps.
        for round_trees in gb.trees_:
            for tree in round_trees:
                assert tree.root_.is_leaf


class TestCNNOptions:
    def test_class_weighting_path(self, rng):
        imgs = []
        labels = []
        for i in range(30):
            from repro.datasets.generators import banded

            m = banded(rng, n=100, bandwidth=2)
            imgs.append(density_image(m))
            labels.append("a" if i < 25 else "b")
        X = np.stack(imgs)
        cnn = CNNClassifier(epochs=1, class_weighting=True, seed=0)
        cnn.fit(X, np.array(labels, dtype=object))
        assert cnn.predict(X).shape == (30,)

    def test_too_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            CNNClassifier(resolution=4).fit(np.zeros((4, 4, 4)), np.zeros(4))
