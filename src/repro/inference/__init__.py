"""repro.inference — batched, sharded format prediction.

The single-matrix path (:meth:`repro.core.deploy.FrozenSelector.predict`)
answers one feature vector at a time; this package amortises selection
overhead across whole matrix collections, as Elafrou et al. and
Stylianou & Weiland argue a deployed selector must:

- :class:`BatchPredictor` stacks N feature vectors and runs the entire
  inference chain — sparse-distribution transform → min-max scale → PCA
  → nearest-centroid labeling — as vectorized NumPy operations on the
  row-stable kernels in :mod:`repro.ml.linalg`, so batch output is
  **bit-identical** to the single path for every row:
  ``predict(X)[i] == predict(X[i:i+1])[0]``.
- :func:`plan_shards` splits large batches into contiguous shards for
  the :mod:`repro.runtime.parallel` pool with per-shard telemetry; a
  failing shard degrades to per-item inference and quarantines only the
  poison items (same taxonomy as the campaign's
  :class:`~repro.runtime.resilience.Quarantine`).

Surfaced on the CLI as ``repro predict-batch`` and inside ``repro
serve`` as admission-queue micro-batching.
"""

from repro.inference.engine import (
    BatchPredictor,
    BatchReport,
    ItemPrediction,
)
from repro.inference.planner import Shard, ShardPlan, plan_shards

__all__ = [
    "BatchPredictor",
    "BatchReport",
    "ItemPrediction",
    "Shard",
    "ShardPlan",
    "plan_shards",
]
