"""Batch ≡ single equivalence harness (DESIGN §11).

The headline guarantee of the inference engine is bit-identity:
``predict(X)[i] == predict(X[i:i+1])[0]`` for every model family,
every input dtype, and every shard count.  Hypothesis drives batches of
arbitrary size — including singleton and duplicate-row batches — drawn
from a fixed vector pool so fitted models are reused across examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import HYPOTHESIS_SCALE

from repro.inference import BatchPredictor, plan_shards
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.cluster.birch import Birch
from repro.ml.cluster.kmeans import KMeans
from repro.ml.cluster.meanshift import MeanShift
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linalg import pairwise_sq_dists, rs_matmul_t
from repro.ml.logistic import LogisticRegression
from repro.ml.pca import PCA
from repro.ml.preprocessing import (
    MinMaxScaler,
    SparseDistributionTransformer,
    StandardScaler,
)
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier
from repro.serving import synthetic_frozen_selector

POOL_SIZE = 48
N_FEATURES = 6
SHARD_COUNTS = (1, 2, 7)

# Batches are index lists into a fixed pool: duplicates fall out of the
# strategy naturally, and fitted models are built only once.
batch_indices = st.lists(
    st.integers(min_value=0, max_value=POOL_SIZE - 1),
    min_size=1,
    max_size=24,
)


@pytest.fixture(scope="module")
def pool() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.normal(size=(POOL_SIZE, N_FEATURES)) * 2.0 + 0.5


@pytest.fixture(scope="module")
def train(pool) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, N_FEATURES)) * 2.0 + 0.5
    formats = np.array(["coo", "csr", "ell"], dtype=object)
    y = formats[(X[:, 0] + X[:, 1] > 1.0).astype(int) + (X[:, 2] > 0.5)]
    return X, y


@pytest.fixture(scope="module")
def cluster_models(train):
    X, _ = train
    return {
        "kmeans": KMeans(n_clusters=5, n_init=2, seed=0).fit(X),
        "meanshift": MeanShift(bandwidth=3.0, seed=0).fit(X),
        "birch": Birch(n_clusters=4, threshold=0.5, seed=0).fit(X),
    }


@pytest.fixture(scope="module")
def supervised_models(train):
    X, y = train
    return {
        "knn": KNeighborsClassifier(n_neighbors=3).fit(X, y),
        "svc_linear": SVC(kernel="linear", seed=0).fit(X, y),
        "svc_rbf": SVC(kernel="rbf", seed=0).fit(X, y),
        "logistic": LogisticRegression(max_iter=50).fit(X, y),
        "tree": DecisionTreeClassifier(max_depth=4, seed=0).fit(X, y),
        "forest": RandomForestClassifier(
            n_estimators=8, max_depth=4, seed=0
        ).fit(X, y),
        "boosting": GradientBoostingClassifier(
            n_rounds=8, max_depth=3, seed=0
        ).fit(X, y),
    }


def assert_batch_equals_single(model, X: np.ndarray) -> None:
    batch = model.predict(X)
    assert batch.shape[0] == X.shape[0]
    for i in range(X.shape[0]):
        single = model.predict(X[i : i + 1])[0]
        assert batch[i] == single, (
            f"row {i}: batch={batch[i]!r} single={single!r}"
        )


# -- model families ------------------------------------------------------


@pytest.mark.parametrize("name", ["kmeans", "meanshift", "birch"])
@settings(max_examples=30 * HYPOTHESIS_SCALE, deadline=None)
@given(idx=batch_indices)
def test_cluster_batch_equals_single(cluster_models, pool, name, idx):
    assert_batch_equals_single(cluster_models[name], pool[idx])


@pytest.mark.parametrize(
    "name",
    [
        "knn",
        "svc_linear",
        "svc_rbf",
        "logistic",
        "tree",
        "forest",
        "boosting",
    ],
)
@settings(max_examples=30 * HYPOTHESIS_SCALE, deadline=None)
@given(idx=batch_indices)
def test_supervised_batch_equals_single(supervised_models, pool, name, idx):
    assert_batch_equals_single(supervised_models[name], pool[idx])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_equivalence_across_dtypes(
    cluster_models, supervised_models, pool, dtype
):
    X = pool[:9].astype(dtype)
    for model in (*cluster_models.values(), *supervised_models.values()):
        assert_batch_equals_single(model, X)


def test_duplicate_rows_get_identical_answers(supervised_models, pool):
    X = np.repeat(pool[3:4], 5, axis=0)
    for model in supervised_models.values():
        out = model.predict(X)
        assert all(v == out[0] for v in out)


def test_batch_rejects_non_finite(supervised_models):
    X = np.full((2, N_FEATURES), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        supervised_models["knn"].predict(X)


# -- preprocessing / PCA -------------------------------------------------


def test_transform_batch_matches_transform(train, pool):
    X, _ = train
    stages = [
        SparseDistributionTransformer().fit(X),
        MinMaxScaler().fit(X),
        StandardScaler().fit(X),
        PCA(n_components=3).fit(X),
    ]
    for stage in stages:
        got = stage.transform(pool)
        want = np.vstack([stage.transform(pool[i : i + 1]) for i in range(len(pool))])
        np.testing.assert_array_equal(got, want)


# -- row-stable kernels --------------------------------------------------


@settings(max_examples=30 * HYPOTHESIS_SCALE, deadline=None)
@given(idx=st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=16))
def test_rs_matmul_t_is_row_stable(pool, idx):
    B = pool[:10]
    full = rs_matmul_t(pool[idx], B)
    for k, i in enumerate(idx):
        row = rs_matmul_t(pool[i : i + 1], B)[0]
        np.testing.assert_array_equal(full[k], row)


@settings(max_examples=30 * HYPOTHESIS_SCALE, deadline=None)
@given(idx=st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=16))
def test_pairwise_sq_dists_is_row_stable(pool, idx):
    B = pool[:10]
    full = pairwise_sq_dists(pool[idx], B)
    for k, i in enumerate(idx):
        row = pairwise_sq_dists(pool[i : i + 1], B)[0]
        np.testing.assert_array_equal(full[k], row)


# -- shard planner -------------------------------------------------------


@pytest.mark.parametrize("n_items", [0, 1, 5, 53])
@pytest.mark.parametrize("shard_size", [None, 1, 3, 8])
def test_plan_shards_covers_batch_in_order(n_items, shard_size):
    plan = plan_shards(n_items, jobs=1, shard_size=shard_size)
    assert plan.n_items == n_items
    covered = [i for shard in plan for i in range(shard.start, shard.stop)]
    assert covered == list(range(n_items))
    assert all(shard.size > 0 for shard in plan)
    assert [shard.index for shard in plan] == list(range(plan.n_shards))


def test_plan_shards_zero_items_is_empty():
    plan = plan_shards(0, jobs=4)
    assert plan.n_shards == 0


def test_plan_shards_rejects_negative():
    with pytest.raises(ValueError):
        plan_shards(-1)


def test_plan_shards_hits_target_shard_counts():
    # shard_size chosen so n=53 splits into exactly 1, 2, and 7 shards.
    for count, size in [(1, 53), (2, 27), (7, 8)]:
        assert plan_shards(53, jobs=1, shard_size=size).n_shards == count


# -- BatchPredictor over a frozen selector -------------------------------


@pytest.fixture(scope="module")
def frozen():
    return synthetic_frozen_selector(seed=3)


@pytest.fixture(scope="module")
def frozen_pool(frozen):
    rng = np.random.default_rng(5)
    return np.abs(
        rng.normal(size=(POOL_SIZE, frozen.scaler_min.shape[0]))
    )


@settings(max_examples=25 * HYPOTHESIS_SCALE, deadline=None)
@given(
    idx=st.lists(st.integers(0, POOL_SIZE - 1), min_size=0, max_size=24),
    shard_size=st.sampled_from([None, 1, 3, 8]),
)
def test_batch_predictor_matches_single_path(
    frozen, frozen_pool, idx, shard_size
):
    X = frozen_pool[idx]
    predictor = BatchPredictor(frozen)
    report = predictor.predict_sharded(X, jobs=1, shard_size=shard_size)
    assert len(report.items) == len(idx)
    for item, i in zip(report.items, range(len(idx))):
        assert item.index == i
        assert item.source == "model"
        row = X[i : i + 1]
        assert item.label == frozen.predict(row)[0]
        assert item.centroid == frozen.assign(row)[0]
        assert item.distance == frozen.nearest_distance(row)[0]


@pytest.mark.parametrize("size,count", [(53, 1), (27, 2), (8, 7)])
def test_batch_predictor_shard_count_invariance(
    frozen, frozen_pool, size, count
):
    X = np.vstack([frozen_pool, frozen_pool[:5]])  # 53 rows
    baseline = BatchPredictor(frozen).predict_sharded(X, jobs=1)
    report = BatchPredictor(frozen).predict_sharded(
        X, jobs=1, shard_size=size
    )
    assert report.plan.n_shards == count
    assert [i.label for i in report.items] == [
        i.label for i in baseline.items
    ]
    assert [i.distance for i in report.items] == [
        i.distance for i in baseline.items
    ]


def test_batch_predictor_empty_batch(frozen):
    report = BatchPredictor(frozen).predict_sharded(
        np.empty((0, frozen.scaler_min.shape[0]))
    )
    assert report.items == []
    assert report.plan.n_shards == 0


def test_degraded_predictor_answers_with_fallback(frozen_pool):
    from repro.core.deploy import FallbackSelector

    degraded = FallbackSelector(
        selector=None, fallback_format="csr", cause="load_error"
    )
    report = BatchPredictor(degraded).predict_sharded(frozen_pool[:4])
    assert [i.label for i in report.items] == ["csr"] * 4
    assert all(i.source == "fallback" for i in report.items)
    assert report.n_fallback == 4
