"""Cross-architecture transfer evaluation (Tables 5 and 7).

Protocol (§5.2/§5.3): models are built from the *source* architecture's
labels over the common-subset training split, then evaluated on the
*target* architecture's labels over the held-out test split, after
re-benchmarking 0%, 25% or 50% of the training matrices on the target.

- **Semi-supervised** (Table 5): the clusters — formed from architecture-
  invariant features — are kept; only the cluster labels are recomputed,
  using target labels for the re-benchmarked fraction and source labels
  for the rest.
- **Supervised** (Table 7): the classifier is retrained on the training
  features whose labels are the source architecture's, with the
  re-benchmarked fraction replaced by target labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.labeling import LabeledDataset
from repro.core.semisupervised import ClusterFormatSelector
from repro.core.speedup import SpeedupMetrics, speedup_metrics
from repro.core.supervised import SupervisedFormatSelector
from repro.ml.metrics import accuracy_score, f1_macro, matthews_corrcoef
from repro.obs import TELEMETRY

#: The paper's retraining fractions.
RETRAIN_FRACTIONS = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class TransferScores:
    accuracy: float
    f1: float
    mcc: float
    speedups: SpeedupMetrics | None = None


def _score(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    times: list[dict[str, float]] | None,
) -> TransferScores:
    return TransferScores(
        accuracy=accuracy_score(y_true, y_pred),
        f1=f1_macro(y_true, y_pred),
        mcc=matthews_corrcoef(y_true, y_pred),
        speedups=speedup_metrics(y_pred, times) if times is not None else None,
    )


def _retrain_mask(
    n: int, fraction: float, y_stratify: np.ndarray, seed: int
) -> np.ndarray:
    """Boolean mask of training matrices re-benchmarked on the target."""
    mask = np.zeros(n, dtype=bool)
    if fraction <= 0:
        return mask
    rng = np.random.default_rng(seed)
    for cls in np.unique(y_stratify):
        members = np.flatnonzero(y_stratify == cls)
        rng.shuffle(members)
        k = int(round(fraction * members.shape[0]))
        mask[members[:k]] = True
    return mask


def mixed_labels(
    source_labels: np.ndarray,
    target_labels: np.ndarray,
    retrain_mask: np.ndarray,
) -> np.ndarray:
    """Source labels with the re-benchmarked fraction replaced by target's."""
    mixed = np.asarray(source_labels, dtype=object).copy()
    mixed[retrain_mask] = np.asarray(target_labels, dtype=object)[retrain_mask]
    return mixed


def transfer_semisupervised(
    selector: ClusterFormatSelector,
    source: LabeledDataset,
    target: LabeledDataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    retrain_fraction: float,
    seed: int = 0,
    with_speedups: bool = False,
) -> TransferScores:
    """One transfer cell of Table 5.

    ``source`` and ``target`` must be common-subset datasets (same
    matrices in the same order).
    """
    _check_aligned(source, target)
    with TELEMETRY.span("transfer.semisupervised", fraction=retrain_fraction):
        Xtr = source.X[train_idx]
        selector.fit_clusters(Xtr)
        mask = _retrain_mask(
            len(train_idx), retrain_fraction, source.labels[train_idx], seed
        )
        # Full source evidence plus the re-benchmarked target fraction.
        selector.label_clusters(
            target.labels[train_idx],
            benchmarked=mask,
            source_y=source.labels[train_idx],
        )
        pred = selector.predict(target.X[test_idx])
        times = [target.times[i] for i in test_idx] if with_speedups else None
        return _score(target.labels[test_idx], pred, times)


def transfer_supervised(
    model_name: str,
    source: LabeledDataset,
    target: LabeledDataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    retrain_fraction: float,
    seed: int = 0,
    with_speedups: bool = True,
) -> TransferScores:
    """One transfer cell of Table 7.

    The training set is the source-labeled training split concatenated
    with the re-benchmarked ``retrain_fraction`` of it carrying target
    labels (so 25/50% retraining also grows the training set, as the
    paper's Table-9 training times show).
    """
    _check_aligned(source, target)
    with TELEMETRY.span(
        "transfer.supervised", model=model_name, fraction=retrain_fraction
    ):
        mask = _retrain_mask(
            len(train_idx), retrain_fraction, source.labels[train_idx], seed
        )
        X_train, y_train = transfer_training_set(
            source, target, train_idx, mask
        )
        model = SupervisedFormatSelector(model_name, seed=seed)
        model.fit(X_train, y_train)
        pred = model.predict(target.X[test_idx])
        times = [target.times[i] for i in test_idx] if with_speedups else None
        return _score(target.labels[test_idx], pred, times)


def transfer_training_set(
    source: LabeledDataset,
    target: LabeledDataset,
    train_idx: np.ndarray,
    retrain_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (features, labels) for supervised transfer training."""
    X_src = source.X[train_idx]
    y_src = np.asarray(source.labels[train_idx], dtype=object)
    if retrain_mask.any():
        X_tgt = source.X[train_idx][retrain_mask]
        y_tgt = np.asarray(target.labels[train_idx], dtype=object)[retrain_mask]
        return np.vstack([X_src, X_tgt]), np.concatenate([y_src, y_tgt])
    return X_src, y_src


def _check_aligned(source: LabeledDataset, target: LabeledDataset) -> None:
    if source.names != target.names:
        raise ValueError(
            "transfer requires common-subset datasets with aligned matrices"
        )
