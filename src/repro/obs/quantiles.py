"""Bucket-interpolated quantile estimation for fixed-bucket histograms.

The histograms in :mod:`repro.obs.metrics` keep per-bucket counts, not
raw samples, so exact percentiles are unavailable — but the standard
Prometheus ``histogram_quantile`` estimate (linear interpolation inside
the bucket that contains the target rank) is cheap, deterministic, and
accurate to within one bucket width.  That is the right trade-off for
SLO evaluation: bucket edges are chosen to bracket the thresholds that
matter (:data:`~repro.obs.metrics.LATENCY_BUCKETS` has extra resolution
around the millisecond range), so "p99 is under 2.5 ms" is answerable
exactly even though "p99 is 2.183 ms" is an estimate.

Estimation contract (shared with Prometheus):

- the quantile rank is ``q * count`` (``q`` in ``[0, 1]``),
- within the containing bucket the estimate interpolates linearly
  between the bucket's lower and upper edge,
- the first bucket's lower edge is 0 (latencies are non-negative),
- a rank landing in the ``+Inf`` overflow bucket returns the highest
  finite edge (there is no upper bound to interpolate towards),
- when the histogram tracked exact ``min``/``max`` the estimate is
  clamped to that envelope, which tightens single-bucket distributions.

All functions are pure and operate on plain numbers, so they serve both
live :class:`~repro.obs.metrics.Histogram` objects and deserialized
snapshots (``repro obs report`` reads the latter).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: The quantiles surfaced by default everywhere (stats, serve).
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def bucket_quantile(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """Estimate quantile ``q`` from per-bucket (non-cumulative) counts.

    ``edges`` are the finite upper edges in increasing order; ``counts``
    has one extra entry for the implicit ``+Inf`` overflow bucket.
    ``lo``/``hi`` optionally clamp the estimate to the observed
    min/max envelope.  Returns ``nan`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(counts) != len(edges) + 1:
        raise ValueError(
            f"{len(counts)} counts for {len(edges)} edges "
            f"(need len(edges) + 1, the last being +Inf)"
        )
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0.0
    estimate: float | None = None
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            if i == len(edges):
                # Overflow bucket: no finite upper edge to interpolate
                # towards; the highest finite edge is the best bound.
                estimate = edges[-1] if edges else math.inf
            else:
                lower = edges[i - 1] if i > 0 else 0.0
                upper = edges[i]
                into = rank - (cumulative - count)
                estimate = lower + (upper - lower) * (into / count)
            break
    if estimate is None:  # pragma: no cover - defensive; rank <= total
        estimate = edges[-1] if edges else math.nan
    if lo is not None and math.isfinite(lo):
        estimate = max(estimate, lo)
    if hi is not None and math.isfinite(hi):
        estimate = min(estimate, hi)
    return estimate


def _edges_and_counts(
    buckets: Mapping[str, int]
) -> tuple[list[float], list[int]]:
    """Split a snapshot's ``{edge_repr: count}`` dict into edges+counts.

    Snapshot bucket keys are ``repr(edge)`` strings plus the ``"+Inf"``
    overflow key (see :meth:`Histogram.bucket_counts`).
    """
    finite = [(float(k), int(v)) for k, v in buckets.items() if k != "+Inf"]
    finite.sort(key=lambda kv: kv[0])
    edges = [k for k, _ in finite]
    counts = [v for _, v in finite]
    counts.append(int(buckets.get("+Inf", 0)))
    return edges, counts


def snapshot_quantile(snapshot: Mapping, q: float) -> float:
    """Quantile estimate from one histogram *snapshot* dict.

    Accepts the format produced by
    :meth:`~repro.obs.metrics.Histogram.snapshot` (``type: histogram``
    with a ``buckets`` mapping); returns ``nan`` when the snapshot is
    not a histogram or holds no observations.
    """
    if snapshot.get("type") != "histogram":
        return math.nan
    edges, counts = _edges_and_counts(snapshot.get("buckets", {}))
    return bucket_quantile(
        edges,
        counts,
        q,
        lo=snapshot.get("min"),
        hi=snapshot.get("max"),
    )


def quantile_key(q: float) -> str:
    """Canonical label for quantile ``q``: ``0.99`` → ``"p99"``.

    Rounds away float noise first (``0.95 * 100`` is not exactly 95.0).
    """
    return f"p{round(q * 100, 6):g}"


def summarize(
    snapshot: Mapping, qs: Sequence[float] = DEFAULT_QUANTILES
) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` from a histogram snapshot."""
    return {quantile_key(q): snapshot_quantile(snapshot, q) for q in qs}


__all__ = [
    "DEFAULT_QUANTILES",
    "bucket_quantile",
    "quantile_key",
    "snapshot_quantile",
    "summarize",
]
