"""Support Vector Machine: binary SMO with linear/RBF kernels, one-vs-rest.

Benatia et al. [3] used a multiclass SVM for format selection; the paper
reimplements it as one of its supervised baselines.  The binary solver is
the simplified SMO algorithm (random second-multiplier choice, KKT
tolerance stopping) over a precomputed kernel matrix — adequate for the
collection sizes involved (thousands of samples).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array
from repro.ml.knn import pairwise_sq_dists
from repro.ml.linalg import rs_matmul_t, rs_matvec


def linear_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Row-stable so decision_function rows are batch-size independent.
    return rs_matmul_t(A, B)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * pairwise_sq_dists(A, B))


def _draws(rng: np.random.Generator, high: int, size: int):
    """Successive ``rng.integers(0, high)`` draws, made ``size`` at a time.

    A call with ``size`` makes the draws that many scalar calls would, in
    the same order from the same stream, so no value depends on ``size``.
    """
    while True:
        yield from rng.integers(0, high, size=size).tolist()


class _BinarySMO:
    """Simplified SMO for a binary SVM over a precomputed kernel matrix."""

    def __init__(
        self,
        C: float,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 2000,
        seed: int = 0,
    ) -> None:
        self.C = C
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.seed = seed

    def fit(self, K: np.ndarray, y: np.ndarray) -> "_BinarySMO":
        # The scalar arithmetic runs on Python floats, which round every
        # operation as NumPy's float64 scalars do; K and the decision
        # values stay arrays, read one element at a time.
        n = y.shape[0]
        partners = _draws(np.random.default_rng(self.seed), n - 1, n)
        C, tol = float(self.C), self.tol
        ys = y.tolist()
        alpha = [0.0] * n
        b = 0.0
        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            f_cache = (np.array(alpha) * y) @ K + b  # decision values
            for i in range(n):
                yi, ai_old = ys[i], alpha[i]
                Ei = f_cache.item(i) - yi
                if (yi * Ei < -tol and ai_old < C) or (
                    yi * Ei > tol and ai_old > 0
                ):
                    j = next(partners)
                    if j >= i:
                        j += 1
                    yj, aj_old = ys[j], alpha[j]
                    Ej = f_cache.item(j) - yj
                    if yi != yj:
                        L = max(0.0, aj_old - ai_old)
                        H = min(C, C + aj_old - ai_old)
                    else:
                        L = max(0.0, ai_old + aj_old - C)
                        H = min(C, ai_old + aj_old)
                    if L >= H:
                        continue
                    Kii, Kij, Kjj = K.item(i, i), K.item(i, j), K.item(j, j)
                    eta = 2.0 * Kij - Kii - Kjj
                    if eta >= 0:
                        continue
                    aj = aj_old - yj * (Ei - Ej) / eta
                    aj = min(H, max(L, aj))
                    if abs(aj - aj_old) < 1e-7:
                        continue
                    ai = ai_old + yi * yj * (aj_old - aj)
                    alpha[i], alpha[j] = ai, aj
                    # Update bias from the KKT conditions.
                    di = yi * (ai - ai_old)
                    dj = yj * (aj - aj_old)
                    b1 = b - Ei - di * Kii - dj * Kij
                    b2 = b - Ej - di * Kij - dj * Kjj
                    if 0 < ai < C:
                        b_new = b1
                    elif 0 < aj < C:
                        b_new = b2
                    else:
                        b_new = 0.5 * (b1 + b2)
                    # Incremental decision-value refresh:
                    # f = (alpha*y) @ K + b, so df = di*K[i] + dj*K[j] + db.
                    f_cache += di * K[i] + dj * K[j] + (b_new - b)
                    b = b_new
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
            iters += 1
        self.alpha_ = np.array(alpha)
        self.b_ = b
        return self

    def decision(self, K_test_train: np.ndarray, y_train: np.ndarray) -> np.ndarray:
        return rs_matvec(K_test_train, self.alpha_ * y_train) + self.b_


class SVC(BaseEstimator):
    """One-vs-rest kernel SVM classifier.

    ``gamma='scale'`` follows scikit-learn: ``1 / (d * Var(X))``.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_passes: int = 3,
        seed: int = 0,
    ) -> None:
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.seed = seed

    def _gamma_value(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return linear_kernel(A, B)
        return rbf_kernel(A, B, self.gamma_)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        self.gamma_ = self._gamma_value(X)
        self._X = X
        K = self._kernel(X, X)
        self._machines: list[_BinarySMO] = []
        self._targets: list[np.ndarray] = []
        for c, cls in enumerate(self.classes_):
            target = np.where(y == cls, 1.0, -1.0)
            smo = _BinarySMO(
                C=self.C,
                tol=self.tol,
                max_passes=self.max_passes,
                seed=self.seed + c,
            )
            if np.all(target == target[0]):
                # Class absent or universal in this OVR slice; constant vote.
                smo.alpha_ = np.zeros(X.shape[0])
                smo.b_ = float(target[0])
            else:
                smo.fit(K, target)
            self._machines.append(smo)
            self._targets.append(target)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("_machines")
        X = check_array(X)
        K = self._kernel(X, self._X)
        scores = np.column_stack(
            [
                m.decision(K, t)
                for m, t in zip(self._machines, self._targets)
            ]
        )
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]
