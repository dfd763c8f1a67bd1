"""Supervised baselines with the paper's hyperparameters (§5.1).

*"We use the scikit-learn library to implement classifiers based on
Decision Tree (DT), Random Forest (RF), Support Vector Machine (SVM),
K-Nearest Neighbors (KNN), and XGBoost models ... For RF, we use 100
estimators with a maximum depth of 6. For XGBoost, we set a learning rate
of 0.1 and the number of rounds to 100."*

Each model couples a classifier with the preprocessing it needs: the
distance/margin-based models (KNN, SVM) reuse the paper's log + min-max
pipeline (without PCA), tree models consume raw features, and the CNN gets
density images (handled in :mod:`repro.experiments.table6`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.pipeline import FeaturePipeline
from repro.ml.base import BaseEstimator, NotFittedError
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier
from repro.obs import TELEMETRY

#: Model name → (classifier factory, needs feature scaling pipeline).
SUPERVISED_MODELS: dict[str, tuple[Callable[[int], BaseEstimator], bool]] = {
    "DT": (lambda seed: DecisionTreeClassifier(max_depth=10, seed=seed), False),
    "RF": (
        lambda seed: RandomForestClassifier(
            n_estimators=100, max_depth=6, seed=seed
        ),
        False,
    ),
    "SVM": (lambda seed: SVC(C=10.0, kernel="rbf", seed=seed), True),
    "KNN": (lambda seed: KNeighborsClassifier(n_neighbors=5), True),
    "XGBoost": (
        lambda seed: GradientBoostingClassifier(
            n_rounds=100, learning_rate=0.1, max_depth=6, seed=seed
        ),
        False,
    ),
    "LR": (lambda seed: LogisticRegression(max_iter=300), True),
}


class SupervisedFormatSelector(BaseEstimator):
    """One supervised baseline, bundled with its preprocessing."""

    def __init__(self, model: str = "RF", seed: int = 0) -> None:
        if model not in SUPERVISED_MODELS:
            raise ValueError(
                f"unknown model {model!r}; choose from {sorted(SUPERVISED_MODELS)}"
            )
        self.model = model
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SupervisedFormatSelector":
        factory, needs_scaling = SUPERVISED_MODELS[self.model]
        with TELEMETRY.span("ml.fit", model=self.model):
            if needs_scaling:
                # Scaling-sensitive models use the paper's transform + min-max
                # stages, without PCA (each supervised method uses "an
                # optimized subset of the features"; full scaled features work
                # best for these).
                self._pipeline = FeaturePipeline(transform="log", n_components=None)
                Xp = self._pipeline.fit(X).transform_features(X)
            else:
                self._pipeline = None
                Xp = np.asarray(X, dtype=np.float64)
            self._clf = factory(self.seed)
            self._clf.fit(Xp, np.asarray(y))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "_clf"):
            raise NotFittedError("SupervisedFormatSelector must be fitted")
        with TELEMETRY.span("ml.predict", model=self.model):
            Xp = (
                self._pipeline.transform_features(X)
                if self._pipeline is not None
                else np.asarray(X, dtype=np.float64)
            )
            return self._clf.predict(Xp)
