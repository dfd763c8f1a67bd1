"""The 21 statistical features of Table 1.

All features are computable in O(nnz) and are architecture-invariant, which
is what makes the paper's clustering portable: *"these features are
completely invariant across architectures, so they have to be computed only
once"* (§4).
"""

from __future__ import annotations

import numpy as np

from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from repro.features.stats import MatrixStats, StreamingStats, compute_stats
from repro.features.table import FeatureTable
from repro.formats.coo import COOMatrix
from repro.formats.io import (
    DEFAULT_CHUNK_NNZ,
    DEFAULT_POLICY,
    ReadPolicy,
    assemble_matrix,
    read_matrix_market_streaming,
)
from repro.obs import TELEMETRY

if TYPE_CHECKING:
    from repro.datasets.generators import MatrixRecord

#: Feature order follows Table 1 of the paper.
FEATURE_NAMES: tuple[str, ...] = (
    "nrows",
    "ncols",
    "nnz",
    "nnz_frac",
    "nnz_mu",
    "nnz_min",
    "nnz_max",
    "nnz_sig",
    "max_mu",
    "mu_min",
    "csr_max",
    "sig_lower",
    "sig_higher",
    "hyb_ell_size",
    "hyb_coo",
    "hyb_ell_frac",
    "diagonals",
    "dia_size",
    "dia_frac",
    "ell_frac",
    "ell_size",
)

#: The "cheap" subset a tier-1 selector can derive from row lengths alone
#: (no diagonal / warp / HYB analysis): dimensions, nnz, and the
#: row-length mean/min/max/std moments.
CHEAP_FEATURE_NAMES: tuple[str, ...] = (
    "nrows",
    "ncols",
    "nnz",
    "nnz_mu",
    "nnz_min",
    "nnz_max",
    "nnz_sig",
)

#: Column indices of the cheap subset inside the full Table-1 vector.
CHEAP_FEATURE_INDICES: tuple[int, ...] = tuple(
    FEATURE_NAMES.index(name) for name in CHEAP_FEATURE_NAMES
)


def _rms(deviations: np.ndarray) -> float:
    """Root mean square; 0 for an empty selection."""
    if deviations.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(deviations * deviations)))


def features_from_stats(stats: MatrixStats) -> np.ndarray:
    """Feature vector (length 21, Table-1 order) from structural stats."""
    lengths = stats.row_lengths.astype(np.float64)
    mu = stats.mean_row
    below = lengths[lengths < mu]
    above = lengths[lengths > mu]
    dia_size = stats.dia_size
    ell_size = stats.ell_padded
    return np.array(
        [
            stats.nrows,
            stats.ncols,
            stats.nnz,
            stats.nnz / (stats.nrows * stats.ncols),
            mu,
            stats.min_row,
            stats.max_row,
            stats.std_row,
            stats.max_row - mu,
            mu - stats.min_row,
            stats.csr_max,
            _rms(mu - below),
            _rms(above - mu),
            stats.hyb_ell_slots,
            stats.hyb_coo_entries,
            stats.hyb_ell_entries,
            stats.n_diagonals,
            dia_size,
            stats.nnz / dia_size if dia_size else 0.0,
            stats.nnz / ell_size if ell_size else 0.0,
            ell_size,
        ],
        dtype=np.float64,
    )


def stats_for_record(record: MatrixRecord) -> MatrixStats:
    """Picklable work unit: the structural pass for one record.

    This is what ``parallel_map`` ships to worker processes during the
    campaign's stats fan-out; ``compute_stats`` is pure, so results are
    identical for any worker count.
    """
    return compute_stats(record.matrix)


def features_from_stats_batch(stats: list[MatrixStats]) -> np.ndarray:
    """Feature matrix (n × 21, Table-1 order) for a whole stats batch.

    Row ``i`` is :func:`features_from_stats` of ``stats[i]``: the campaign
    and the serving path derive each matrix's vector the same way, so a
    matrix has one feature vector wherever it is computed (§4: the
    features "have to be computed only once").
    """
    out = np.empty((len(stats), len(FEATURE_NAMES)), dtype=np.float64)
    for i, s in enumerate(stats):
        out[i] = features_from_stats(s)
    return out


def extract_features(matrix: COOMatrix) -> np.ndarray:
    """Feature vector for a single matrix."""
    with TELEMETRY.span("features.extract"):
        with TELEMETRY.span("features.stats"):
            stats = compute_stats(matrix)
        with TELEMETRY.span("features.derive"):
            vec = features_from_stats(stats)
    TELEMETRY.inc("features.matrices")
    return vec


def cheap_features_from_lengths(
    nrows: int, ncols: int, nnz: int, lengths: np.ndarray
) -> np.ndarray:
    """The :data:`CHEAP_FEATURE_NAMES` vector from canonical row lengths.

    Uses the same formulas as :class:`MatrixStats`'s cached scalars, so
    the result is bit-identical to
    ``features_from_stats(stats)[list(CHEAP_FEATURE_INDICES)]``.
    """
    return np.array(
        [
            nrows,
            ncols,
            nnz,
            float(nnz / nrows) if nrows else 0.0,
            int(lengths.min()) if lengths.size else 0,
            int(lengths.max(initial=0)),
            float(lengths.std()) if nrows else 0.0,
        ],
        dtype=np.float64,
    )


def stats_from_stream(
    source: str | Path | TextIO,
    policy: ReadPolicy = DEFAULT_POLICY,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
) -> MatrixStats:
    """Structural stats straight from a MatrixMarket stream.

    Feeds :class:`StreamingStats` chunk-by-chunk while parsing, so the
    O(nnz) coordinate stream is never materialized; the result is
    bit-identical to ``compute_stats(read_matrix_market(source,
    policy))``.  Table-1 features depend only on the canonical
    *coordinate set* (values never matter), so canonicalisation reduces
    to deduplication: when duplicates are possible — summing policy, or
    symmetric mirroring that may collide with a stored transpose pair —
    8-byte row-major keys are retained per chunk and, only if a
    duplicate actually occurred, the accumulator is rebuilt from the
    deduplicated keys without re-reading the file.
    """
    stream = read_matrix_market_streaming(source, policy, chunk_nnz)
    header = next(stream)
    nrows, ncols = header.nrows, header.ncols
    if nrows * ncols > np.iinfo(np.int64).max:
        # Row-major keys would overflow; fall back to the materializing
        # path (such dimensions only occur with absurd forged headers
        # that a sane ReadPolicy rejects at the size line anyway).
        rows, cols, vals = [], [], []
        for block in stream:
            rows.append(block.rows)
            cols.append(block.cols)
            vals.append(block.vals)
        return compute_stats(assemble_matrix(header, rows, cols, vals))
    mirror = header.symmetry in ("symmetric", "skew-symmetric")
    # Under a rejecting policy the reader guarantees stored coordinates
    # are unique, so a plain general matrix needs no key bookkeeping.
    need_keys = mirror or policy.duplicates == "sum"
    acc = StreamingStats(nrows, ncols)
    key_chunks: list[np.ndarray] = []
    for block in stream:
        acc.update(block.rows, block.cols)
        if need_keys:
            key_chunks.append(block.rows * ncols + block.cols)
        if mirror:
            off = block.rows != block.cols
            m_rows, m_cols = block.cols[off], block.rows[off]
            acc.update(m_rows, m_cols)
            key_chunks.append(m_rows * ncols + m_cols)
    if need_keys and acc.nnz:
        keys = (
            np.concatenate(key_chunks)
            if len(key_chunks) > 1
            else key_chunks[0]
        )
        keys.sort()
        dup = keys[1:] == keys[:-1]
        if dup.any():
            mask = np.empty(keys.shape[0], dtype=bool)
            mask[0] = True
            np.logical_not(dup, out=mask[1:])
            uniq = keys[mask]
            acc = StreamingStats(nrows, ncols)
            for lo in range(0, uniq.shape[0], chunk_nnz):
                k = uniq[lo : lo + chunk_nnz]
                r = k // ncols
                acc.update(r, k - r * ncols)
    return acc.finalize()


def extract_features_streaming(
    source: str | Path | TextIO,
    policy: ReadPolicy = DEFAULT_POLICY,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
) -> np.ndarray:
    """Feature vector straight from a MatrixMarket stream.

    Bit-identical to ``extract_features(read_matrix_market(source,
    policy))`` while keeping the working set at O(nrows + ncols) plus
    one chunk (general matrices under a rejecting policy) or O(nnz)
    8-byte keys (when duplicates must be collapsed).
    """
    with TELEMETRY.span("features.extract_streaming"):
        with TELEMETRY.span("features.stats"):
            stats = stats_from_stream(source, policy, chunk_nnz)
        with TELEMETRY.span("features.derive"):
            vec = features_from_stats(stats)
    TELEMETRY.inc("features.matrices")
    return vec


def extract_features_collection(
    records: list[MatrixRecord],
    stats: list[MatrixStats] | None = None,
    jobs: int = 1,
) -> FeatureTable:
    """Feature table for a whole collection.

    ``stats`` may be shared with the GPU simulator to avoid recomputing
    the structural pass; with ``jobs > 1`` that pass fans out over a
    process pool (results are identical — ``compute_stats`` is pure).

    With telemetry enabled the two feature groups — the O(nnz)
    structural pass (``features.stats``) and the O(1) Table-1 derivation
    (``features.derive``) — are timed separately, and throughput lands
    in the ``features.matrices_per_sec`` gauge.
    """
    from repro.runtime.parallel import parallel_map

    with TELEMETRY.span(
        "features.extract_collection", n_matrices=len(records), jobs=jobs
    ) as span:
        if stats is None:
            with TELEMETRY.span("features.stats") as s:
                stats = parallel_map(
                    stats_for_record, records, jobs=jobs,
                    label="features.stats",
                )
                TELEMETRY.gauge_set("features.stats_seconds", s.duration)
        if len(stats) != len(records):
            raise ValueError("stats and records lengths differ")
        with TELEMETRY.span("features.derive") as s:
            values = features_from_stats_batch(stats)
            TELEMETRY.gauge_set("features.derive_seconds", s.duration)
        TELEMETRY.inc("features.matrices", len(records))
        if TELEMETRY.enabled and span.duration > 0:
            TELEMETRY.gauge_set(
                "features.matrices_per_sec", len(records) / span.duration
            )
    return FeatureTable(
        names=[r.name for r in records],
        feature_names=list(FEATURE_NAMES),
        values=values,
    )
