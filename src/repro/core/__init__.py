"""The paper's contribution: semi-supervised sparse-format selection.

- :mod:`repro.core.pipeline` — §4 feature preprocessing (log/sqrt +
  min-max + PCA-8).
- :mod:`repro.core.labeling` — benchmark results → labeled datasets,
  Table-3 style distributions, common subsets.
- :mod:`repro.core.semisupervised` — cluster + per-cluster labeler
  (VOTE / LR / RF): the nine combinations of Table 4.
- :mod:`repro.core.supervised` — the supervised baselines with the
  paper's hyperparameters.
- :mod:`repro.core.transfer` — cross-architecture evaluation with
  0/25/50% retraining (Tables 5 and 7).
- :mod:`repro.core.purity`, :mod:`repro.core.explain` — cluster quality
  and explainability tooling.
- :mod:`repro.core.speedup` — GT/CSR speedups and the slowdown
  Threshold metric of Table 6.
- :mod:`repro.core.online`, :mod:`repro.core.overhead` — the paper's
  future-work extensions (online clustering, overhead-conscious
  selection).
"""

from repro.core.labeling import LabeledDataset, build_labeled_dataset
from repro.core.pipeline import FeaturePipeline
from repro.core.semisupervised import ClusterFormatSelector
from repro.core.supervised import SUPERVISED_MODELS, SupervisedFormatSelector
from repro.core.purity import cluster_purity, purity_report

__all__ = [
    "ClusterFormatSelector",
    "FeaturePipeline",
    "LabeledDataset",
    "SUPERVISED_MODELS",
    "SupervisedFormatSelector",
    "build_labeled_dataset",
    "cluster_purity",
    "purity_report",
]
