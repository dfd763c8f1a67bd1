"""SMO on Python floats with block draws ≡ the NumPy-scalar loop.

The oracle below is a copy of ``_BinarySMO.fit`` as it ran on NumPy
scalars, drawing each second multiplier with its own
``rng.integers(0, n - 1)`` call.  The fitted solver keeps the same loop,
the same KKT tests and the same order of updates, but does its scalar
arithmetic on Python floats and takes its draws ``n`` at a time.  Every
``alpha_`` and ``b_`` of every one-vs-rest machine, and
``SVC.decision_function`` on fresh rows, must equal the oracle's bytes.

Hypothesis draws tie-heavy inputs, where the KKT tests and the clipping
bounds sit on their edges: small-integer columns, normals rounded to
0.1, constant columns and duplicate rows.  Both kernels run, with
``C`` of 0.5, 1 and 10 (the integers as given, not as floats), and the
labels include a class with a single member.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import HYPOTHESIS_SCALE

from repro.ml.linalg import rs_matvec
from repro.ml.svm import SVC


def _oracle_smo(K, y, C, tol, max_passes, max_iter, seed):
    """``_BinarySMO.fit`` on NumPy scalars, one draw per call."""
    n = y.shape[0]
    rng = np.random.default_rng(seed)
    alpha = np.zeros(n)
    b = 0.0
    passes = 0
    iters = 0
    while passes < max_passes and iters < max_iter:
        changed = 0
        f_cache = (alpha * y) @ K + b
        for i in range(n):
            Ei = f_cache[i] - y[i]
            if (y[i] * Ei < -tol and alpha[i] < C) or (
                y[i] * Ei > tol and alpha[i] > 0
            ):
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                Ej = f_cache[j] - y[j]
                ai_old, aj_old = alpha[i], alpha[j]
                if y[i] != y[j]:
                    L = max(0.0, aj_old - ai_old)
                    H = min(C, C + aj_old - ai_old)
                else:
                    L = max(0.0, ai_old + aj_old - C)
                    H = min(C, ai_old + aj_old)
                if L >= H:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                aj = aj_old - y[j] * (Ei - Ej) / eta
                aj = min(H, max(L, aj))
                if abs(aj - aj_old) < 1e-7:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alpha[i], alpha[j] = ai, aj
                di = y[i] * (ai - ai_old)
                dj = y[j] * (aj - aj_old)
                b1 = b - Ei - di * K[i, i] - dj * K[i, j]
                b2 = b - Ej - di * K[i, j] - dj * K[j, j]
                if 0 < ai < C:
                    b_new = b1
                elif 0 < aj < C:
                    b_new = b2
                else:
                    b_new = 0.5 * (b1 + b2)
                f_cache += di * K[i] + dj * K[j] + (b_new - b)
                b = b_new
                changed += 1
        passes = passes + 1 if changed == 0 else 0
        iters += 1
    return alpha, b


def _bits(x) -> str:
    return float(x).hex()


@st.composite
def _columns(draw, n: int, d: int) -> np.ndarray:
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["int", "round", "const"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        if kind == "int":
            cols.append(rng.integers(0, 3, n).astype(float))
        elif kind == "round":
            cols.append(np.round(rng.standard_normal(n), 1))
        else:
            cols.append(np.full(n, float(draw(st.integers(-2, 2)))))
    X = np.column_stack(cols)
    if n > 2 and draw(st.booleans()):  # duplicate rows
        X[n // 2:] = X[: n - n // 2]
    return X


@st.composite
def _problems(draw):
    n = draw(st.integers(2, 60))
    X = draw(_columns(n, draw(st.integers(1, 5))))
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(
        st.integers(0, n_classes - 1), min_size=n, max_size=n
    )))
    if draw(st.booleans()):
        y[draw(st.integers(0, n - 1))] = n_classes  # a one-member class
    if np.unique(y).shape[0] < 2:
        y[0] = (y[0] + 1) % (n_classes + 1)
    return X, y


@settings(max_examples=60 * HYPOTHESIS_SCALE, deadline=None)
@given(
    problem=_problems(),
    kernel=st.sampled_from(["rbf", "linear"]),
    C=st.sampled_from([0.5, 1, 10]),
    seed=st.integers(0, 2**20),
    data=st.data(),
)
def test_svc_matches_the_numpy_scalar_loop(problem, kernel, C, seed, data):
    X, y = problem
    svc = SVC(C=C, kernel=kernel, seed=seed).fit(X, y)
    K = svc._kernel(X, X)
    X_new = data.draw(_columns(7, X.shape[1]), label="X_new")
    K_new = svc._kernel(X_new, X)
    want = []
    # Two classes at least, so every one-vs-rest target holds both signs
    # and every machine is fitted.
    for cls, machine in zip(svc.classes_, svc._machines):
        target = np.where(y == cls, 1.0, -1.0)
        alpha, b = _oracle_smo(
            K, target, machine.C, machine.tol, machine.max_passes,
            machine.max_iter, machine.seed,
        )
        assert machine.alpha_.dtype == alpha.dtype
        assert machine.alpha_.tobytes() == alpha.tobytes(), cls
        assert _bits(machine.b_) == _bits(b), cls
        want.append(rs_matvec(K_new, alpha * target) + b)
    got = svc.decision_function(X_new)
    assert got.tobytes() == np.column_stack(want).tobytes()
