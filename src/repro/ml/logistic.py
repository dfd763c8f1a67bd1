"""Multinomial logistic regression (softmax, L2-regularised, L-BFGS).

Used both as a supervised baseline component and as one of the paper's
per-cluster labelers (the "LR" in K-Means-LR / Birch-LR / Mean-Shift-LR).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels
from repro.ml.linalg import rs_matmul_t


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator):
    """Softmax regression minimising L2-regularised cross-entropy.

    ``C`` is the inverse regularisation strength (scikit-learn
    convention); the bias column is not regularised.
    """

    def __init__(
        self, C: float = 1.0, max_iter: int = 200, tol: float = 1e-6
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        n, d = X.shape
        k = self.classes_.shape[0]
        if k == 1:
            # Degenerate single-class training set: constant predictor.
            self.coef_ = np.zeros((1, d))
            self.intercept_ = np.zeros(1)
            return self
        Xb = np.hstack([X, np.ones((n, 1))])
        onehot = np.zeros((n, k))
        onehot[np.arange(n), encoded] = 1.0
        lam = 1.0 / (self.C * n)

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat.reshape(k, d + 1)
            P = _softmax(Xb @ W.T)
            # Cross-entropy; clip against log(0) for confident mistakes.
            loss = -np.sum(onehot * np.log(np.maximum(P, 1e-300))) / n
            reg = 0.5 * lam * np.sum(W[:, :d] ** 2)
            G = (P - onehot).T @ Xb / n
            G[:, :d] += lam * W[:, :d]
            return loss + reg, G.ravel()

        # Imported here: SciPy's import costs more than most fits, and
        # only a fit needs it (DESIGN §18).
        from scipy.optimize import minimize

        w0 = np.zeros(k * (d + 1))
        res = minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        W = res.x.reshape(k, d + 1)
        self.coef_ = W[:, :d]
        self.intercept_ = W[:, d]
        self.converged_ = bool(res.success)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("coef_")
        X = check_array(X)
        if X.shape[1] != self.coef_.shape[1]:
            raise ValueError(
                f"expected {self.coef_.shape[1]} features, got {X.shape[1]}"
            )
        # Row-stable product keeps per-row scores batch-size independent.
        return rs_matmul_t(X, self.coef_) + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        if self.classes_.shape[0] == 1:
            return np.ones((X.shape[0], 1))
        return _softmax(scores)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
