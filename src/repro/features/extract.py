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

    Derivation is vectorised across the batch: the scalar columns are
    assembled as arrays and combined with numpy ops instead of building
    one 21-vector per matrix and ``np.vstack``-ing.  Only ``sig_lower`` /
    ``sig_higher`` keep a per-matrix pass (they reduce each matrix's
    row-length distribution).  Values are bit-identical to stacking
    :func:`features_from_stats` row by row.
    """
    n = len(stats)
    if n == 0:
        return np.empty((0, len(FEATURE_NAMES)), dtype=np.float64)
    as_f64 = lambda attr: np.array(  # noqa: E731 - local column helper
        [getattr(s, attr) for s in stats], dtype=np.float64
    )
    nrows = as_f64("nrows")
    ncols = as_f64("ncols")
    nnz = as_f64("nnz")
    min_row = as_f64("min_row")
    max_row = as_f64("max_row")
    # mean/std go through the same cached scalar the per-matrix path uses.
    mu = as_f64("mean_row")
    sigma = as_f64("std_row")
    dia_size = as_f64("dia_size")
    ell_size = as_f64("ell_padded")

    sig_lower, sig_higher = _batched_sigs(stats, mu)

    def _guarded_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=np.float64)
        nz = den != 0
        out[nz] = num[nz] / den[nz]
        return out

    columns = [
        nrows,
        ncols,
        nnz,
        nnz / (nrows * ncols),
        mu,
        min_row,
        max_row,
        sigma,
        max_row - mu,
        mu - min_row,
        as_f64("csr_max"),
        sig_lower,
        sig_higher,
        as_f64("hyb_ell_slots"),
        as_f64("hyb_coo_entries"),
        as_f64("hyb_ell_entries"),
        as_f64("n_diagonals"),
        dia_size,
        _guarded_ratio(nnz, dia_size),
        _guarded_ratio(nnz, ell_size),
        ell_size,
    ]
    return np.column_stack(columns)


def _batched_sigs(
    stats: list[MatrixStats], mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sig_lower`` / ``sig_higher`` columns for a stats batch.

    One pass over the concatenated row-length distributions replaces the
    historical per-matrix mask/compact/RMS loop: the below/above masks,
    deviations, and squares are computed batch-wide, and per-matrix
    membership *counts* come from an ``np.add.reduceat`` over the
    concatenation boundaries (exact — integer addition is
    order-invariant).  The per-matrix *float* sums deliberately do not
    use ``reduceat``: its left-to-right accumulation is not bit-identical
    to the pairwise ``np.add.reduce`` inside ``np.mean``, so each
    matrix's sum reduces a contiguous slice of the compacted
    squared-deviation array — same values, same order, same pairwise
    tree as the per-matrix path, hence bit-identical output.
    """
    n = len(stats)
    counts = np.array([s.row_lengths.shape[0] for s in stats], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    sig_lower = np.zeros(n, dtype=np.float64)
    sig_higher = np.zeros(n, dtype=np.float64)
    if total == 0:
        return sig_lower, sig_higher
    all_lengths = np.concatenate(
        [s.row_lengths for s in stats]
    ).astype(np.float64)
    mu_rep = np.repeat(mu, counts)

    for sign, out in ((1.0, sig_lower), (-1.0, sig_higher)):
        devs = sign * (mu_rep - all_lengths)
        member = devs > 0.0
        if counts.min() >= 1:
            seg_counts = np.add.reduceat(
                member.astype(np.int64), offsets[:-1]
            )
        else:  # reduceat cannot express empty segments
            cum = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(member, out=cum[1:])
            seg_counts = cum[offsets[1:]] - cum[offsets[:-1]]
        sq = devs[member]
        sq *= sq
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=starts[1:])
        sums = np.zeros(n, dtype=np.float64)
        for i in range(n):
            lo, hi = starts[i], starts[i + 1]
            if hi > lo:
                sums[i] = np.add.reduce(sq[lo:hi])
        nz = seg_counts > 0
        out[nz] = np.sqrt(sums[nz] / seg_counts[nz])
    return sig_lower, sig_higher


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
