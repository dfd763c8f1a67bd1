"""Cheap-first tiered format selection, kept as a benchmark comparison.

No request path uses this module: ``repro predict``, ``predict-batch``,
``serve`` and the tier all run the full 21-feature pipeline.  It remains
only so the ``select`` benchmark can report ``core.tiered.p50_ms`` and
``core.tiered.escalation_rate`` beside the full pipeline's latency.

Table 8 of the paper shows feature extraction — not model inference —
dominates online selection cost.  The :class:`TieredSelector` tries to
exploit that: stage 1 classifies with only the *cheap* feature subset
(:data:`~repro.features.extract.CHEAP_FEATURE_NAMES` — dimensions, nnz,
and row-length moments, all derivable from the row-length histogram
alone, with no diagonal / warp / HYB analysis), and escalates to the
full 21-feature pipeline only when the cheap-space nearest-centroid
answer is ambiguous.

Determinism contract:

- Stage 1 answers only when its *margin* — the cheap-space distance gap
  between the nearest centroid and the nearest centroid carrying a
  **different** format label — strictly exceeds the calibrated
  threshold.  The margin is a pure function of the cheap features and
  the frozen model arrays, so the escalate/answer decision is
  reproducible for a given model + threshold.
- Whenever stage 1 abstains, the tier-2 answer runs the frozen model's
  own ``assign`` on the full Table-1 vector: tiered output is
  bit-identical to the full pipeline's output on every escalated
  request.

Stage-1 geometry: the frozen centroids live in the post-PCA space, so
they are mapped back to the scaled feature space (the orthogonal
reconstruction ``Z @ components + mean``) and restricted to the cheap
columns; probe vectors apply the frozen per-column shift/log/sqrt and
min-max scaling to the same columns.  Calibration picks the smallest
threshold at which every seeded probe that stage 1 would answer agrees
with the full pipeline — models whose cheap-space geometry cannot
separate formats simply escalate everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.deploy import FrozenSelector
from repro.features.extract import (
    CHEAP_FEATURE_INDICES,
    cheap_features_from_lengths,
    features_from_stats,
)
from repro.features.stats import compute_stats
from repro.formats.coo import COOMatrix
from repro.ml.knn import pairwise_sq_dists
from repro.obs import TELEMETRY

#: Default number of jittered probes per calibration run.
DEFAULT_PROBES = 256

#: Default probe jitter, in units of the [0, 1] scaled feature box.
DEFAULT_JITTER = 0.15


@dataclass(frozen=True)
class TierDecision:
    """Outcome of one tiered selection."""

    #: Recommended storage format.
    format: str
    #: 1 = answered from cheap features, 2 = full pipeline.
    tier: int
    #: Stage-1 confidence margin observed for this request.
    margin: float
    #: Centroid index backing the answer (cheap-space centroid for
    #: tier 1, the frozen model's own assignment for tier 2).
    centroid: int


def reconstructed_centroids(frozen: FrozenSelector) -> np.ndarray:
    """Frozen centroids mapped back to the scaled feature space.

    With PCA enabled this is the orthogonal reconstruction; without it
    the centroids already live in scaled space.  Clipped to the scaler's
    [0, 1] box, where every transformed probe also lives.
    """
    C = np.asarray(frozen.centroids, dtype=np.float64)
    if frozen.pca_components is not None:
        C = C @ frozen.pca_components + frozen.pca_mean
    return np.clip(C, 0.0, 1.0)


def calibration_probes(
    frozen: FrozenSelector,
    n_probes: int = DEFAULT_PROBES,
    seed: int = 0,
    jitter: float = DEFAULT_JITTER,
) -> np.ndarray:
    """Seeded synthetic feature vectors around the model's centroid cloud.

    Probes are drawn in the scaled space (reconstructed centroids plus
    Gaussian jitter, clipped to the unit box) and mapped back through
    the inverse of the frozen preprocessing, so both the cheap stage and
    the full pipeline can consume them as raw Table-1 vectors.  Purely
    deterministic for a given (model, seed).
    """
    C = reconstructed_centroids(frozen)
    k = C.shape[0]
    rng = np.random.default_rng(seed)
    reps = max(1, -(-n_probes // k))
    pts = np.tile(C, (reps, 1))[:n_probes]
    pts = np.clip(pts + rng.normal(0.0, jitter, pts.shape), 0.0, 1.0)
    scaled = np.vstack([C, pts])
    raw = scaled * frozen.scaler_span + frozen.scaler_min
    if frozen.transform_kind is not None:
        cols = frozen.transform_apply
        if cols.any():
            if frozen.transform_kind == "log":
                raw[:, cols] = np.expm1(raw[:, cols])
            else:
                raw[:, cols] = np.square(raw[:, cols])
        raw = raw + frozen.transform_shift
    return raw


class TieredSelector:
    """Cheap-first selector over a :class:`FrozenSelector`.

    ``margin_threshold`` is the stage-1 confidence bar: a request is
    answered at tier 1 only when its margin *strictly* exceeds it, so
    the default ``0.0`` escalates exact cheap-space ties and nothing
    else.  Use :meth:`calibrate` to raise the bar until stage 1 agrees
    with the full pipeline on a seeded probe cloud.
    """

    def __init__(
        self, frozen: FrozenSelector, margin_threshold: float = 0.0
    ) -> None:
        if not math.isfinite(margin_threshold) or margin_threshold < 0:
            raise ValueError(
                f"margin_threshold must be finite and >= 0, "
                f"got {margin_threshold}"
            )
        self.frozen = frozen
        self.margin_threshold = float(margin_threshold)
        self._idx = list(CHEAP_FEATURE_INDICES)
        self._cheap_centroids = reconstructed_centroids(frozen)[:, self._idx]
        self.requests = 0
        self.escalations = 0

    # -- calibration ----------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        frozen: FrozenSelector,
        n_probes: int = DEFAULT_PROBES,
        seed: int = 0,
        jitter: float = DEFAULT_JITTER,
    ) -> "TieredSelector":
        """Build a selector whose threshold silences every probe miss.

        The threshold is the largest stage-1 margin observed on a probe
        where the cheap answer disagrees with the full pipeline (0.0
        when they never disagree); since tier 1 requires ``margin >
        threshold``, every disagreeing probe would have escalated.
        """
        selector = cls(frozen, margin_threshold=0.0)
        probes = calibration_probes(frozen, n_probes, seed, jitter)
        full = frozen.predict(probes)
        labels, _, margins = selector._stage1(
            probes[:, selector._idx]
        )
        disagree = (labels != full) & np.isfinite(margins)
        if disagree.any():
            selector.margin_threshold = float(margins[disagree].max())
        return selector

    # -- stage-1 machinery ----------------------------------------------

    def _transform_cheap(self, X: np.ndarray) -> np.ndarray:
        """The frozen preprocessing restricted to the cheap columns."""
        f = self.frozen
        idx = self._idx
        out = np.asarray(X, dtype=np.float64)
        if f.transform_kind is not None:
            out = np.maximum(out - f.transform_shift[idx], 0.0)
            cols = f.transform_apply[idx]
            if cols.any():
                out = out.copy()
                if f.transform_kind == "log":
                    out[:, cols] = np.log1p(out[:, cols])
                else:
                    out[:, cols] = np.sqrt(out[:, cols])
        return np.clip(
            (out - f.scaler_min[idx]) / f.scaler_span[idx], 0.0, 1.0
        )

    def _stage1(
        self, X_cheap: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Labels, centroid indices, and margins for raw cheap vectors."""
        Z = self._transform_cheap(X_cheap)
        d2 = pairwise_sq_dists(Z, self._cheap_centroids)
        best = np.argmin(d2, axis=1)
        d_best = np.sqrt(np.maximum(d2[np.arange(d2.shape[0]), best], 0.0))
        labels = self.frozen.centroid_labels[best]
        same = (
            self.frozen.centroid_labels[None, :] == labels[:, None]
        )
        d2_other = np.where(same, np.inf, d2)
        d_other = np.sqrt(np.maximum(d2_other.min(axis=1), 0.0))
        return labels, best, d_other - d_best

    def stage1_with_margin(
        self, cheap_vec: np.ndarray
    ) -> tuple[TierDecision | None, float]:
        """(tier-1 decision or None, observed margin) for one cheap vector."""
        labels, best, margins = self._stage1(cheap_vec[None, :])
        margin = float(margins[0])
        if margin > self.margin_threshold:
            decision = TierDecision(
                format=str(labels[0]),
                tier=1,
                margin=margin,
                centroid=int(best[0]),
            )
            return decision, margin
        return None, margin

    # -- selection ------------------------------------------------------

    @property
    def escalation_rate(self) -> float:
        return self.escalations / self.requests if self.requests else 0.0

    def select(self, matrix: COOMatrix) -> TierDecision:
        """Tiered selection for an in-memory canonical COO matrix."""
        with TELEMETRY.span("select.tier1"):
            nrows, ncols = matrix.shape
            cheap = cheap_features_from_lengths(
                nrows, ncols, matrix.nnz, matrix.row_lengths()
            )
            decision, margin = self.stage1_with_margin(cheap)
        self.requests += 1
        if decision is None:
            with TELEMETRY.span("select.escalate"):
                vec = features_from_stats(compute_stats(matrix))
                centroid = int(self.frozen.assign(vec[None, :])[0])
                decision = TierDecision(
                    format=str(self.frozen.centroid_labels[centroid]),
                    tier=2,
                    margin=margin,
                    centroid=centroid,
                )
            self.escalations += 1
            TELEMETRY.inc("select.escalations")
        else:
            TELEMETRY.inc("select.tier1_answers")
        TELEMETRY.inc("select.requests")
        TELEMETRY.gauge_set("select.escalation_rate", self.escalation_rate)
        return decision
