"""MatrixMarket (.mtx) I/O.

The paper's benchmark pipeline reads SuiteSparse matrices from ``.mtx``
files (§5.4 lists file reading as a dominant benchmarking cost).  This
module implements the coordinate MatrixMarket exchange format: real /
integer / pattern fields with general / symmetric / skew-symmetric
symmetry, which covers the SuiteSparse collection.

The reader is written for hostile input: it never allocates storage from
the *declared* nnz (a forged size line cannot trigger a giant
allocation), it decodes bytes as latin-1 so stray non-ASCII comment
bytes in real SuiteSparse files cannot crash it, and every malformed
input raises :class:`MatrixMarketError` carrying a machine-readable
``code`` — the serving gateway turns those codes into structured
per-request error responses.  A :class:`ReadPolicy` optionally tightens
the reader further (size limits, reject NaN/Inf, reject duplicate
coordinates); the default policy preserves the historical permissive
behaviour (duplicates summed, non-finite values kept).
"""

from __future__ import annotations

import io
import itertools
import math
import mmap
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

import numpy as np

from repro.formats.base import FormatError, INDEX_DTYPE, VALUE_DTYPE
from repro.formats.coo import COOMatrix

_HEADER_PREFIX = "%%MatrixMarket"
_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRY = {"general", "symmetric", "skew-symmetric"}

#: Default number of stored entries per streamed COO block.
DEFAULT_CHUNK_NNZ = 65536

#: Entry lines taken at once; a batch that certifies is converted in
#: one go (see :func:`_convert_batch`), any other line by line.
_BATCH_LINES = 8192

#: The bytes a field of a certified batch may hold.
_FIELD_BYTES = b"0123456789+-.eE"

#: Certified indices stay below 10**18, where int64 parsing is exact.
_MAX_INDEX = 10**18 - 1

#: A line's last character ("" for an empty line).
_LAST_CHAR = operator.itemgetter(slice(-1, None))

#: Bytes of a mapped file decoded at once (cut after a newline).
_MMAP_SLICE = 1 << 18


class MatrixMarketError(FormatError):
    """Raised on malformed MatrixMarket input.

    ``code`` is a short machine-readable tag (``bad_banner``,
    ``bad_size``, ``bad_entry``, ``count_mismatch``, ``too_large``,
    ``oversized_header``, ``nonfinite_value``, ``duplicate_entry``,
    ``index_out_of_range``, ``unsupported``, ``invalid``) used by the
    serving layer's structured error responses.
    """

    def __init__(self, message: str, code: str = "invalid") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ReadPolicy:
    """Validation limits for reading untrusted MatrixMarket input.

    ``None`` limits are unenforced.  The default instance reproduces the
    historical reader behaviour exactly; the serving gateway builds a
    strict instance from its own byte/size budgets.
    """

    #: Reject size lines declaring more rows or columns than this.  A
    #: dimension past the int64 index range is rejected under any limit.
    max_dim: int | None = None
    #: Reject size lines declaring more entries than this.
    max_nnz: int | None = None
    #: Reject banner/comment preambles longer than this many characters.
    max_header_bytes: int | None = None
    #: Reject NaN/Inf values (a NaN poisons every downstream feature).
    allow_nonfinite: bool = True
    #: ``"sum"`` merges duplicate coordinates (CUSP behaviour);
    #: ``"reject"`` raises ``duplicate_entry``.
    duplicates: str = "sum"

    def __post_init__(self) -> None:
        if self.duplicates not in ("sum", "reject"):
            raise ValueError(
                f"duplicates must be 'sum' or 'reject', got {self.duplicates!r}"
            )


#: Permissive default: exactly the historical reader semantics.
DEFAULT_POLICY = ReadPolicy()


class MatrixMarketHeader(NamedTuple):
    """Parsed banner + size line of a coordinate MatrixMarket file.

    ``nnz`` is the declared count of *stored* entries — for symmetric
    matrices the mirrored off-diagonal entries are not included.
    """

    field: str
    symmetry: str
    nrows: int
    ncols: int
    nnz: int


class COOBlock(NamedTuple):
    """One fixed-size chunk of stored COO entries from a streamed read."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def read_matrix_market(
    source: str | Path | TextIO, policy: ReadPolicy = DEFAULT_POLICY
) -> COOMatrix:
    """Read a coordinate MatrixMarket file into a :class:`COOMatrix`.

    Implemented on top of :func:`read_matrix_market_streaming`, so the
    in-memory and streaming readers cannot drift: both run the same
    validation in the same order.
    """
    stream = read_matrix_market_streaming(source, policy)
    header = next(stream)
    row_chunks: list[np.ndarray] = []
    col_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for block in stream:
        row_chunks.append(block.rows)
        col_chunks.append(block.cols)
        val_chunks.append(block.vals)
    return assemble_matrix(header, row_chunks, col_chunks, val_chunks)


def read_matrix_market_streaming(
    source: str | Path | TextIO,
    policy: ReadPolicy = DEFAULT_POLICY,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
    use_mmap: bool = True,
) -> Iterator[MatrixMarketHeader | COOBlock]:
    """Stream a coordinate MatrixMarket file as fixed-size COO blocks.

    A generator that first yields a :class:`MatrixMarketHeader` (after
    validating the banner and enforcing the policy's ``max_dim`` /
    ``max_nnz`` limits *at the size line*, before any entry is read),
    then yields :class:`COOBlock` chunks of at most ``chunk_nnz``
    *stored* entries in file order.  Symmetry mirroring is NOT applied —
    callers that need the expanded matrix use :func:`assemble_matrix`
    (or :func:`read_matrix_market`, which does both).

    All :class:`ReadPolicy` hostile-input guarantees of the in-memory
    reader hold: allocation is driven by actual file content (never the
    declared nnz), errors carry the same machine-readable codes, and —
    with ``duplicates="reject"`` — the same duplicate coordinate is
    reported.  Entry lines are converted a batch at a time, so blocks
    may have been yielded before an error is raised; a raised error
    invalidates every block yielded so far.

    For on-disk paths the file is read through ``mmap`` when possible
    (``use_mmap=True``, the default), falling back to buffered text I/O
    for empty files, platforms without mmap, or files containing
    carriage returns (where universal-newline semantics must decide
    line boundaries).
    """
    if chunk_nnz < 1:
        raise ValueError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
    if isinstance(source, (str, Path)):
        return _stream_path(source, policy, chunk_nnz, use_mmap)
    return _stream_lines(iter(source), policy, chunk_nnz)


def assemble_matrix(
    header: MatrixMarketHeader,
    row_chunks: list[np.ndarray],
    col_chunks: list[np.ndarray],
    val_chunks: list[np.ndarray],
) -> COOMatrix:
    """Build the :class:`COOMatrix` for streamed blocks (applies symmetry).

    Concatenating the streamed chunks reproduces the in-memory reader's
    entry order exactly, so duplicate summation inside ``COOMatrix``
    canonicalisation — whose float result is order-sensitive — is
    bit-identical across chunk sizes.
    """
    rows = _concat(row_chunks, INDEX_DTYPE)
    cols = _concat(col_chunks, INDEX_DTYPE)
    vals = _concat(val_chunks, VALUE_DTYPE)
    if header.symmetry in ("symmetric", "skew-symmetric"):
        # Mirror every off-diagonal entry across the diagonal.
        off_diag = rows != cols
        sign = -1.0 if header.symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off_diag]]),
            np.concatenate([cols, rows[off_diag]]),
            np.concatenate([vals, sign * vals[off_diag]]),
        )
    try:
        return COOMatrix((header.nrows, header.ncols), rows, cols, vals)
    except MatrixMarketError:
        raise
    except FormatError as exc:
        # The fuzz contract: any malformed input is a MatrixMarketError,
        # never a bare construction error from deeper layers.
        raise MatrixMarketError(str(exc), code="invalid") from exc


def _concat(chunks: list[np.ndarray], dtype: np.dtype) -> np.ndarray:
    if not chunks:
        return np.array([], dtype=dtype)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)


def write_matrix_market(
    matrix: COOMatrix, target: str | Path | TextIO, comment: str = ""
) -> None:
    """Write a :class:`COOMatrix` as coordinate real general MatrixMarket."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as fh:
            _write(matrix, fh, comment)
    else:
        _write(matrix, target, comment)


def matrix_market_string(matrix: COOMatrix, comment: str = "") -> str:
    """Serialise to an in-memory MatrixMarket string."""
    buf = io.StringIO()
    _write(matrix, buf, comment)
    return buf.getvalue()


def _parse_banner(header: str) -> tuple[str, str]:
    if not header.lstrip().startswith(_HEADER_PREFIX):
        raise MatrixMarketError(
            f"missing MatrixMarket banner: {header!r}", code="bad_banner"
        )
    parts = header.strip().split()
    if len(parts) != 5:
        raise MatrixMarketError(f"malformed banner: {header!r}", code="bad_banner")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"only 'matrix coordinate' is supported, got {obj!r} {fmt!r}",
            code="unsupported",
        )
    if field not in _SUPPORTED_FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}", code="unsupported")
    if symmetry not in _SUPPORTED_SYMMETRY:
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r}", code="unsupported"
        )
    return field, symmetry


#: The largest dimension whose indices fit :data:`INDEX_DTYPE`.
_MAX_DIM = int(np.iinfo(INDEX_DTYPE).max)


def _parse_size_line(size_line: str, policy: ReadPolicy) -> tuple[int, int, int]:
    try:
        nrows, ncols, nnz = (int(tok) for tok in size_line.split())
    except ValueError as exc:
        raise MatrixMarketError(
            f"malformed size line: {size_line!r}", code="bad_size"
        ) from exc
    if nrows <= 0 or ncols <= 0 or nnz < 0:
        raise MatrixMarketError(
            f"non-positive dimensions in size line: {size_line!r}",
            code="bad_size",
        )
    # Indices are stored as INDEX_DTYPE, so a larger dimension would let
    # an in-range index overflow the conversion whatever the policy says.
    max_dim = _MAX_DIM if policy.max_dim is None else min(policy.max_dim, _MAX_DIM)
    if max(nrows, ncols) > max_dim:
        raise MatrixMarketError(
            f"declared dimensions {nrows}x{ncols} exceed limit {max_dim}",
            code="too_large",
        )
    if policy.max_nnz is not None and nnz > policy.max_nnz:
        raise MatrixMarketError(
            f"declared nnz {nnz} exceeds limit {policy.max_nnz}",
            code="too_large",
        )
    return nrows, ncols, nnz


def _stream_path(
    path: str | Path, policy: ReadPolicy, chunk_nnz: int, use_mmap: bool
) -> Iterator[MatrixMarketHeader | COOBlock]:
    if use_mmap:
        with open(path, "rb") as bf:
            try:
                mm = mmap.mmap(bf.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                # Empty file, mmap-less filesystem, ...: buffered text
                # I/O below handles every case the historical reader did.
                mm = None
            if mm is not None:
                with mm:
                    # Carriage returns demand universal-newline semantics
                    # to pick line boundaries exactly as the text-mode
                    # reader would; one memchr sweep decides the path.
                    if mm.find(b"\r") == -1:
                        yield from _stream_lines(
                            _mmap_lines(mm), policy, chunk_nnz
                        )
                        return
    # latin-1 decodes every byte sequence, so non-ASCII comment lines
    # in real SuiteSparse files cannot abort the read with a
    # UnicodeDecodeError; malformed *data* still raises
    # MatrixMarketError below.
    with open(path, "r", encoding="latin-1") as fh:
        yield from _stream_lines(iter(fh), policy, chunk_nnz)


def _mmap_lines(mm: mmap.mmap) -> Iterator[str]:
    """Lines (with trailing newline, latin-1 decoded) from a CR-free mmap.

    The map is decoded a slice of about :data:`_MMAP_SLICE` bytes at a
    time, each cut after a newline and split on ``"\\n"`` alone
    (``str.splitlines`` would also break at ``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e`` and ``\\x85``, which text mode does not).
    """
    return itertools.chain.from_iterable(_mmap_slices(mm))


def _mmap_slices(mm: mmap.mmap) -> Iterator[list[str]]:
    pos = 0
    end = len(mm)
    while pos < end:
        nl = mm.find(b"\n", min(pos + _MMAP_SLICE, end) - 1)
        stop = end if nl < 0 else nl + 1
        lines = mm[pos:stop].decode("latin-1").split("\n")
        last = lines.pop()  # "" unless the file ends without a newline
        lines = [line + "\n" for line in lines]
        if last:
            lines.append(last)
        yield lines
        pos = stop


def _stream_lines(
    lines: Iterator[str], policy: ReadPolicy, chunk_nnz: int
) -> Iterator[MatrixMarketHeader | COOBlock]:
    field, symmetry = _parse_banner(next(lines, ""))

    # Skip comments and blank lines; the first data line is the size line.
    size_line = ""
    header_bytes = 0
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            size_line = stripped
            break
        header_bytes += len(line)
        if (
            policy.max_header_bytes is not None
            and header_bytes > policy.max_header_bytes
        ):
            raise MatrixMarketError(
                f"comment preamble exceeds {policy.max_header_bytes} bytes",
                code="oversized_header",
            )
    if not size_line:
        raise MatrixMarketError("missing size line", code="bad_size")
    nrows, ncols, nnz = _parse_size_line(size_line, policy)
    yield MatrixMarketHeader(field, symmetry, nrows, ncols, nnz)

    # Entry lines arrive in batches of at most _BATCH_LINES.  A batch
    # that certifies is converted at once; any other goes through the
    # per-line loop, the only place that raises.  Storage is sized by
    # what the file actually contains — never by the declared nnz, so a
    # forged size line cannot demand a giant allocation.  Converted
    # batches are cut into blocks of exactly chunk_nnz entries.  Under
    # ``duplicates="reject"`` the yielded index chunks are additionally
    # retained so the end-of-stream check can run the exact in-memory
    # lexsort pass (reporting the identical first row-major duplicate).
    width = 2 if field == "pattern" else 3
    reject = policy.duplicates == "reject"
    kept_rows: list[np.ndarray] = []
    kept_cols: list[np.ndarray] = []
    pending: list[COOBlock] = []
    pending_nnz = 0
    count = 0
    while batch := list(itertools.islice(lines, _BATCH_LINES)):
        entries = None
        if len(batch) <= nnz - count:
            entries = _convert_batch(
                batch, width, nrows, ncols, policy.allow_nonfinite
            )
        if entries is None:
            entries = _parse_lines(
                batch, field, nrows, ncols, nnz - count, policy
            )
        count += entries.rows.size
        pending.append(entries)
        pending_nnz += entries.rows.size
        if pending_nnz < chunk_nnz:
            continue
        rows, cols, vals = _concat_blocks(pending)
        cut = pending_nnz - pending_nnz % chunk_nnz
        for lo in range(0, cut, chunk_nnz):
            hi = lo + chunk_nnz
            block = COOBlock(rows[lo:hi], cols[lo:hi], vals[lo:hi])
            if reject:
                kept_rows.append(block.rows)
                kept_cols.append(block.cols)
            yield block
        pending = [COOBlock(rows[cut:], cols[cut:], vals[cut:])]
        pending_nnz -= cut
    if count != nnz:
        raise MatrixMarketError(
            f"declared {nnz} entries, found {count}", code="count_mismatch"
        )
    tail = COOBlock(*_concat_blocks(pending))
    if reject:
        kept_rows.append(tail.rows)
        kept_cols.append(tail.cols)
        _check_duplicates(
            _concat(kept_rows, INDEX_DTYPE), _concat(kept_cols, INDEX_DTYPE)
        )
    if tail.rows.size:
        yield tail


def _concat_blocks(blocks: list[COOBlock]) -> tuple[np.ndarray, ...]:
    return (
        _concat([b.rows for b in blocks], INDEX_DTYPE),
        _concat([b.cols for b in blocks], INDEX_DTYPE),
        _concat([b.vals for b in blocks], VALUE_DTYPE),
    )


def _parse_lines(
    lines: list[str],
    field: str,
    nrows: int,
    ncols: int,
    left: int,
    policy: ReadPolicy,
) -> COOBlock:
    """The entries of ``lines`` parsed one line at a time.

    ``left`` is how many entries the declared nnz still allows.  Every
    malformed entry raises here, with its code and message.
    """
    rows_list: list[int] = []
    cols_list: list[int] = []
    vals_list: list[float] = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if len(rows_list) >= left:
            raise MatrixMarketError(
                "more entries than declared nnz", code="count_mismatch"
            )
        toks = stripped.split()
        try:
            r = int(toks[0]) - 1  # MatrixMarket is 1-based
            c = int(toks[1]) - 1
            if field == "pattern":
                v = 1.0
            else:
                v = float(toks[2])
        except (ValueError, IndexError) as exc:
            raise MatrixMarketError(
                f"malformed entry line: {stripped!r}", code="bad_entry"
            ) from exc
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise MatrixMarketError(
                f"coordinate ({r + 1}, {c + 1}) outside declared "
                f"{nrows}x{ncols} shape",
                code="index_out_of_range",
            )
        if not policy.allow_nonfinite and not math.isfinite(v):
            raise MatrixMarketError(
                f"non-finite value in entry line: {stripped!r}",
                code="nonfinite_value",
            )
        rows_list.append(r)
        cols_list.append(c)
        vals_list.append(v)
    return COOBlock(
        np.array(rows_list, dtype=INDEX_DTYPE),
        np.array(cols_list, dtype=INDEX_DTYPE),
        np.array(vals_list, dtype=VALUE_DTYPE),
    )


def _convert_batch(
    lines: list[str],
    width: int,
    nrows: int,
    ncols: int,
    allow_nonfinite: bool,
) -> COOBlock | None:
    """The entries of ``lines`` converted at once, or ``None``.

    The batch certifies when it is ASCII; every line is ``width``
    non-empty fields of bytes from :data:`_FIELD_BYTES` joined by single
    spaces and ended by its only newline (the last line of a stream may
    lack it); the index fields are digits without a leading zero; every
    index is in range; and, unless ``allow_nonfinite``, every value is
    finite.  The per-line loop then accepts each line with exactly these
    entries: digit fields parse to the integers ``int`` gives, values
    are ``float`` of the same tokens.  Anything else returns ``None``
    and is left to that loop, errors included.
    """
    # Deleting the field bytes must leave the separators of n canonical
    # lines; one token per field means no field is empty; and every line
    # but the last must end in a newline (a caller's iterable may split
    # lines anywhere), so each line holds one newline, at its end.  The
    # first line is tried alone first, which keeps a failed attempt on
    # a non-canonical body (tabs, comments) down to one line's work.
    separators = b" " * (width - 1) + b"\n"
    first = lines[0]
    if not first.isascii() or (
        first.encode("ascii").translate(None, _FIELD_BYTES) != separators
    ):
        return None
    text = "".join(lines)
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    n = len(lines)
    if data.translate(None, _FIELD_BYTES) != separators * n:
        return None
    tokens = data.split()
    tails = "".join(map(_LAST_CHAR, lines))
    if len(tokens) != n * width or tails[:-1] != "\n" * (n - 1):
        return None
    # Index fields: digits without a leading zero, so every index is at
    # least 1 and, below 10**18, at most 18 digits long — exact for
    # NumPy's C parser and within the digit limit of ``int``.
    digits = b" ".join(tokens[0::width] + tokens[1::width])
    if (
        digits.translate(None, b"0123456789 ")
        or digits.startswith(b"0")
        or b" 0" in digits
    ):
        return None
    index = np.fromstring(digits, dtype=INDEX_DTYPE, sep=" ").reshape(2, n)
    top = index.max(axis=1)
    if top[0] > min(nrows, _MAX_INDEX) or top[1] > min(ncols, _MAX_INDEX):
        return None
    if width == 2:
        vals = np.ones(n, dtype=VALUE_DTYPE)
    else:
        try:
            vals = np.fromiter(
                map(float, tokens[2::3]), dtype=VALUE_DTYPE, count=n
            )
        except ValueError:
            return None
        if not allow_nonfinite and not np.isfinite(vals).all():
            return None
    index -= 1  # MatrixMarket is 1-based
    return COOBlock(index[0], index[1], vals)


def _check_duplicates(rows: np.ndarray, cols: np.ndarray) -> None:
    if not rows.size:
        return
    order = np.lexsort((cols, rows))
    sr, sc = rows[order], cols[order]
    dup = (sr[1:] == sr[:-1]) & (sc[1:] == sc[:-1])
    if dup.any():
        i = int(np.argmax(dup))
        raise MatrixMarketError(
            f"duplicate coordinate ({int(sr[i]) + 1}, {int(sc[i]) + 1})",
            code="duplicate_entry",
        )


def _write(matrix: COOMatrix, fh: TextIO, comment: str) -> None:
    coo = matrix.to_coo()
    fh.write(f"{_HEADER_PREFIX} matrix coordinate real general\n")
    for line in comment.splitlines():
        fh.write(f"% {line}\n")
    fh.write(f"{coo.nrows} {coo.ncols} {coo.nnz}\n")
    for r, c, v in zip(coo.rows, coo.cols, coo.vals):
        fh.write(f"{int(r) + 1} {int(c) + 1} {float(v)!r}\n")
