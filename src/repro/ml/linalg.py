"""Row-stable linear algebra kernels for batched inference.

The batch engine's headline guarantee (DESIGN §11) is *bit-identity*:
``predict(X)[i] == predict(X[i:i+1])[0]`` for every model family.  BLAS ``gemm`` cannot honour that contract — its blocking and
accumulation order depend on the operand shapes, so ``(A @ B.T)[i]`` and
``(A[i:i+1] @ B.T)[0]`` may differ in the last ulps, and an argmin over
near-tied distances could then flip a label between the batch and single
paths.

``np.einsum`` with ``optimize=False`` lowers to a fixed-order C loop that
computes every output row with the same left-to-right accumulation
regardless of how many rows the operand has.  Each kernel here is
therefore *row-stable*: slicing the input commutes with the operation,
bitwise.  All inference-time matrix products in the ``ml`` estimators and
:class:`~repro.core.deploy.FrozenSelector` route through this module;
fit-time math may keep faster BLAS paths since training is outside the
contract (and re-fitting is not expected to be bit-reproducible across
batch shapes).

``optimize=False`` is load-bearing: with ``optimize=True`` einsum may
dispatch to ``tensordot`` → gemm and silently lose row stability.
"""

from __future__ import annotations

import numpy as np


def rs_matmul_t(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-stable ``A @ B.T`` for ``A (n, d)`` and ``B (k, d)``."""
    return np.einsum("ij,kj->ik", A, B, optimize=False)


def rs_matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-stable ``A @ v`` for ``A (n, d)`` and ``v (d,)``."""
    return np.einsum("ij,j->i", A, v, optimize=False)


def rs_sq_norms(A: np.ndarray) -> np.ndarray:
    """Row-stable per-row squared Euclidean norms of ``A (n, d)``."""
    return np.einsum("ij,ij->i", A, A, optimize=False)


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-stable squared Euclidean distances, shape ``(len(A), len(B))``.

    Uses the expansion ``||a-b||² = ||a||² + ||b||² - 2a·b`` with the
    cross term computed by :func:`rs_matmul_t`, clamped at 0 against
    cancellation.  Every term is computed row-locally, so row ``i`` of
    the result is a pure function of ``A[i]`` and ``B`` — independent of
    the other rows of ``A``.
    """
    a2 = rs_sq_norms(A)[:, None]
    b2 = rs_sq_norms(B)[None, :]
    d2 = a2 + b2 - 2.0 * rs_matmul_t(A, B)
    return np.maximum(d2, 0.0)
