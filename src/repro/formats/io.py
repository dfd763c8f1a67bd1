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

import functools
import io
import math
import mmap
import sys
from dataclasses import dataclass, replace
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

#: Characters of entry text (bytes of a mapped file) taken at once,
#: then cut after a newline; a slice that certifies is converted in one
#: go (see :func:`_convert_slice`), any other line by line.
_SLICE = 1 << 18

#: The bytes a field of a certified slice may hold.
_FIELD_BYTES = b"0123456789+-.eE"

#: Certified indices stay below 10**18, where int64 parsing is exact.
_MAX_INDEX = 10**18 - 1


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
    validation in the same order.  Under ``duplicates="reject"`` the
    duplicate check runs here rather than at the end of the stream: on
    the stored entries of a symmetric file, before mirroring, as the
    stream runs it; for a general file through the row-major sort that
    ``COOMatrix`` builds anyway, which merges entries exactly when two
    share a coordinate.  A read that holds a duplicate sorts its
    coordinates once more, to name the first one as the stream would.
    """
    stream = read_matrix_market_streaming(source, _summing(policy))
    header = next(stream)
    rows, cols, vals = _concat_blocks(list(stream))
    reject = policy.duplicates == "reject"
    if reject and header.symmetry != "general":
        _check_duplicates(rows, cols)
    matrix = assemble_matrix(header, [rows], [cols], [vals])
    if reject and matrix.nnz < rows.size:
        # Only a general file gets here: its stored entries merged.
        _check_duplicates(rows, cols)
    return matrix


@functools.lru_cache(maxsize=8)
def _summing(policy: ReadPolicy) -> ReadPolicy:
    """``policy`` with duplicates summed (one instance per policy)."""
    return replace(policy, duplicates="sum")


def read_matrix_market_streaming(
    source: str | Path | TextIO,
    policy: ReadPolicy = DEFAULT_POLICY,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
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
    reported.  Entry lines are converted a slice at a time, so blocks
    may have been yielded before an error is raised; a raised error
    invalidates every block yielded so far.

    A text stream (:class:`io.TextIOBase`) is read line by line through
    its size line, then in slices cut after ``"\\n"``: its lines break
    only there, as they do in a text-mode file (which translates
    ``"\\r\\n"`` and ``"\\r"``) and in :class:`io.StringIO` (which keeps
    ``"\\r"`` as data).  Any other iterable is read one item per line.

    For on-disk paths the file is read through ``mmap`` when possible,
    falling back to buffered text I/O (the route a text stream takes)
    for empty files, platforms without mmap, or files containing
    carriage returns (where universal-newline semantics must decide
    line boundaries).
    """
    if chunk_nnz < 1:
        raise ValueError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
    if isinstance(source, (str, Path)):
        return _stream_path(source, policy, chunk_nnz)
    if isinstance(source, io.TextIOBase):
        lines = iter(source.readline, "")
        return _stream_entries(lines, _text_slices(source), policy, chunk_nnz)
    lines = iter(source)
    return _stream_entries(lines, _item_slices(lines), policy, chunk_nnz)


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
    path: str | Path, policy: ReadPolicy, chunk_nnz: int
) -> Iterator[MatrixMarketHeader | COOBlock]:
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
                    lines = iter(lambda: mm.readline().decode("latin-1"), "")
                    yield from _stream_entries(
                        lines, _mmap_slices(mm), policy, chunk_nnz
                    )
                    return
    # latin-1 decodes every byte sequence, so non-ASCII comment lines
    # in real SuiteSparse files cannot abort the read with a
    # UnicodeDecodeError; malformed *data* still raises
    # MatrixMarketError below.
    with open(path, "r", encoding="latin-1") as fh:
        lines = iter(fh.readline, "")
        yield from _stream_entries(lines, _text_slices(fh), policy, chunk_nnz)


def _mmap_slices(mm: mmap.mmap) -> Iterator[str]:
    """The rest of a CR-free map, latin-1 decoded, in slices.

    Each slice runs from the map's position to the first newline at or
    past :data:`_SLICE` bytes on (the last may end without one).
    """
    pos = mm.tell()
    end = len(mm)
    while pos < end:
        nl = mm.find(b"\n", min(pos + _SLICE, end) - 1)
        stop = end if nl < 0 else nl + 1
        yield mm[pos:stop].decode("latin-1")
        pos = stop


def _text_slices(stream: TextIO) -> Iterator[str]:
    """The rest of ``stream`` in slices of about :data:`_SLICE` characters.

    Each piece read is completed through its line's newline, so every
    slice but the last of the stream ends in one.
    """
    while piece := stream.read(_SLICE):
        if not piece.endswith("\n"):
            piece += stream.readline()
        yield piece


def _item_slices(lines: Iterator[str]) -> Iterator[str | list[str]]:
    """The rest of a caller's line iterable, about :data:`_SLICE`
    characters of items at a time.

    Each item is one line to the per-line loop, wherever its newlines
    fall.  A run of items that each hold one newline, at their end,
    joins into a slice whose lines are exactly those items; a run with
    any other item (no newline, or one before its end) is passed on as
    its list of items.  An empty item is a blank line either way.
    """
    run: list[str] = []
    size = 0
    joinable = True
    for line in lines:
        run.append(line)
        size += len(line)
        joinable = joinable and line.find("\n") == len(line) - 1
        if size >= _SLICE:
            yield "".join(run) if joinable else run
            run, size, joinable = [], 0, True
    if run:
        yield "".join(run) if joinable else run


def _stream_entries(
    lines: Iterator[str],
    slices: Iterator[str | list[str]],
    policy: ReadPolicy,
    chunk_nnz: int,
) -> Iterator[MatrixMarketHeader | COOBlock]:
    """Parse the header from ``lines`` and the entries from ``slices``.

    ``slices`` continues where ``lines`` stops: the banner, comments
    and size line are taken one line at a time, so a rejected size line
    pulls no entry text.
    """
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

    # A text slice that certifies is converted at once; any other is
    # split on "\n" alone (as text-mode iteration cuts lines) and goes,
    # like a list of a caller's items, through the per-line loop, the
    # only place that raises.  Storage is sized by what the file
    # actually contains — never by the declared nnz, so a forged size
    # line cannot demand a giant allocation.  Converted slices are cut
    # into blocks of exactly chunk_nnz entries.  Under
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
    for piece in slices:
        entries = None
        if isinstance(piece, str):
            entries = _convert_slice(
                piece, width, nrows, ncols, nnz - count, policy.allow_nonfinite
            )
            if entries is None:
                piece = piece.split("\n")
        if entries is None:
            entries = _parse_lines(
                piece, field, nrows, ncols, nnz - count, policy
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
        # Unpacking raises ValueError on a line with too few or too many
        # fields: an entry line has exactly its field's width of them.
        try:
            if field == "pattern":
                i, j = stripped.split()
                v = 1.0
            else:
                i, j, value = stripped.split()
                v = float(value)
            r = int(i) - 1  # MatrixMarket is 1-based
            c = int(j) - 1
        except ValueError as exc:
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


# -- certified slices -------------------------------------------------------
#
# A slice is certified and converted without cutting it into tokens: its
# bytes are classified once, the classes of its non-digit bytes and the
# byte after each are checked against a table of the triples a canonical
# line may hold, and every field is parsed by one int64 parse.  DESIGN
# section 13 states the rules and why they equal the per-line loop.

#: Byte classes.  Digits are 0 (1-9) and 1 (0); every other byte is one
#: of six classes whose values make ``prev + 6 * cur + after`` distinct
#: for every triple, where ``prev`` and ``cur`` are the classes of two
#: consecutive non-digit bytes and ``after`` is the class of the byte
#: after ``prev``: 0 or 1 when a digit follows, ``cur`` when ``cur`` does.
_SPACE, _EXP, _NEWLINE, _SIGN, _DOT, _OTHER = 2, 5, 8, 11, 14, 17
_CLASSES = bytes(
    _SPACE if b == 32 else _NEWLINE if b == 10 else _EXP if b in b"eE"
    else _SIGN if b in b"+-" else _DOT if b == 46
    else 1 if b == 48 else 0 if 49 <= b <= 57 else _OTHER
    for b in range(256)
)

#: Role flags of a triple.  A ``_HEAD`` triple may not be followed by a
#: ``_TAIL`` triple, nor a ``_COLUMN`` triple by another: for role bytes
#: ``t``, ``(t[:-1] >> 1) & t[1:]`` is nonzero exactly there.
_FREE, _HEAD, _TAIL, _COLUMN = 64, 2, 1, 24

#: The triples a certified line may hold: the class of a non-digit byte,
#: what follows it ("1": a digit 1-9, "0": a zero, "-": the next
#: non-digit itself) and the class of the next non-digit byte, with its
#: role.  Index fields are digits with no leading zero; a value is
#: ``[+-]digits[.digits][(e|E)[+-]digits]`` with a mantissa digit.
_PATTERN_TRIPLES = (
    (_NEWLINE, "1", _SPACE, _FREE),   # row index
    (_SPACE, "1", _NEWLINE, _FREE),   # column index
)
_REAL_TRIPLES = (
    # A row index must be followed by the column index, so each line
    # holds both spaces before its value; a second column is refused.
    (_NEWLINE, "1", _SPACE, _HEAD),
    (_SPACE, "1", _SPACE, _COLUMN),
    # The value begins; none of these may follow a row index.
    (_SPACE, "10", _NEWLINE, _TAIL),
    (_SPACE, "-", _SIGN, _TAIL),
    (_SPACE, "10", _DOT, _TAIL),
    (_SPACE, "-", _DOT, _TAIL | _HEAD),   # ".5": a digit must follow
    (_SPACE, "10", _EXP, _TAIL),
    # After a mantissa sign; a sign after an exponent marker (a head)
    # may only be followed by digits and the newline.
    (_SIGN, "10", _DOT, _TAIL),
    (_SIGN, "-", _DOT, _TAIL | _HEAD),
    (_SIGN, "10", _EXP, _TAIL),
    (_SIGN, "10", _NEWLINE, _FREE),
    # After the dot; with no digit on either side it is refused.
    (_DOT, "10", _EXP, _FREE),
    (_DOT, "10", _NEWLINE, _FREE),
    (_DOT, "-", _EXP, _TAIL),
    (_DOT, "-", _NEWLINE, _TAIL),
    # The exponent.
    (_EXP, "-", _SIGN, _HEAD),
    (_EXP, "10", _NEWLINE, _FREE),
)


def _role_table(triples: tuple) -> bytes:
    """A ``bytes.translate`` table from triple codes to role bytes (0:
    not allowed)."""
    table = bytearray(256)
    for prev, after, cur, role in triples:
        for kind in after:
            table[prev + 6 * cur + {"1": 0, "0": 1}.get(kind, cur)] = role
    return bytes(table)


_ROLES = {2: _role_table(_PATTERN_TRIPLES), 3: _role_table(_REAL_TRIPLES)}
#: What deleting the field bytes leaves of a canonical line.
_LAYOUT = {2: b" \n", 3: b"  \n"}
_SPLIT_EXPONENTS = bytes.maketrans(b"eE", b"  ")

#: ``(times, over)`` scale factors indexed by ``q + 28``, clipped to
#: [0, 56]: a value is ``w * times / over``.  Powers up to 10**27 are
#: exact in x87 extended precision; the ends stand for ``|q| > 27`` and
#: scale by 0.
_SCALE = np.array(
    [(0, 1)]
    + [(1, 10**k) for k in range(27, 0, -1)]
    + [(10**k, 1) for k in range(28)]
    + [(0, 1)],
    dtype=np.longdouble,
)
_I64_MAX = np.uint64(2**63 - 1)


def _extended_precision() -> bool:
    """Whether ``np.longdouble`` is x87 extended precision in effect.

    The value rule needs a 64-bit significand whose low word comes
    first, and arithmetic that rounds to it: an x87 unit set to double
    precision reports the format but rounds to 53 bits, which
    ``(2**31 + 1)**2`` exposes.
    """
    if np.finfo(np.longdouble).nmant != 63 or sys.byteorder != "little":
        return False
    a = np.longdouble(2**31 + 1)
    return bool(a * a - np.longdouble(2**62) == np.longdouble(2**32 + 1))


#: Without it every value of a certified slice is read with ``float``.
_EXTENDED = _extended_precision()
#: 32-bit words per ``np.longdouble``; the first holds the low bits.
_WORDS = np.dtype(np.longdouble).itemsize // 4


def _convert_slice(
    text: str,
    width: int,
    nrows: int,
    ncols: int,
    left: int,
    allow_nonfinite: bool,
) -> COOBlock | None:
    """The entries of the slice ``text`` converted at once, or ``None``.

    The slice certifies when it is ASCII; every line is ``width`` fields
    joined by single spaces, index fields of digits without a leading
    zero and, unless ``width`` is 2, a value
    ``[+-]digits[.digits][(e|E)[+-]digits]`` with a mantissa digit; it
    holds at most ``left`` lines, the entries the declared nnz still
    allows; every index is in range; and, unless ``allow_nonfinite``,
    every value is finite.  A slice is cut after a newline (the last of
    a stream may lack it), so its lines are its ``"\\n"``-separated
    pieces, which is how the per-line loop would cut them, and that
    loop accepts each line with exactly these entries: digit fields
    parse to the integers ``int`` gives, and values equal ``float`` of
    the same tokens bit for bit.  Anything else returns ``None`` and is
    left to that loop, errors included.
    """
    # The first line is tried alone first, which keeps a failed attempt
    # on a non-canonical body (tabs, comments) down to one line's work.
    first = text[: text.find("\n") + 1] or text
    if not first.isascii() or (
        first.encode("ascii").translate(None, _FIELD_BYTES) != _LAYOUT[width]
    ):
        return None
    if not text.isascii():
        return None
    # A leading newline gives the first line the start every line has.
    data = b"\n" + text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    classes = np.frombuffer(data.translate(_CLASSES), dtype=np.uint8)
    pos = (classes > 1).nonzero()[0]
    kc = classes[pos]
    code = kc[1:] * 6
    code += kc[:-1]
    code += classes[1:][pos[:-1]]
    roles = code.tobytes().translate(_ROLES[width])
    if 0 in roles:
        return None
    role = np.frombuffer(roles, dtype=np.uint8)
    clash = role[:-1] >> 1
    clash &= role[1:]
    if np.count_nonzero(clash):
        return None
    # Each line now holds exactly its fields.  ``ends[i]`` is the
    # position in ``kc`` just before line i's newline.
    ends = (kc[1:] == _NEWLINE).nonzero()[0]
    n = ends.size
    if n > left:
        return None
    # Every field, with its dot deleted and its exponent split off.
    ints = np.fromstring(
        data.translate(_SPLIT_EXPONENTS, b"."), dtype=INDEX_DTYPE, sep=" "
    )
    fields, ragged = divmod(ints.size, n)
    if not ragged:
        # Every line holds the same fields: 2, 3, or 4 with an exponent.
        tok = ints.reshape(n, fields)
        index = np.subtract(tok[:, :2].T, 1, order="C")
    else:
        # Some lines carry an exponent: find each line's fields from the
        # separators (space, exponent marker, newline) that end them.
        stop = (kc[1:] < _SIGN).nonzero()[0]
        stop += 1
        last = (kc[stop] == _NEWLINE).nonzero()[0]
        has_exp = kc[stop[last - 1]] == _EXP
        mantissa = last - has_exp
        index = ints[np.add.outer((-2, -1), mantissa)]
        index -= 1
    top_row, top_col = np.maximum.reduce(index, axis=1).tolist()
    if top_row >= min(nrows, _MAX_INDEX) or top_col >= min(ncols, _MAX_INDEX):
        return None
    if width == 2:
        return COOBlock(index[0], index[1], np.ones(n, dtype=VALUE_DTYPE))
    # Digits after each dot: the gap to the next non-digit, which ends
    # the mantissa.  ``before`` holds, per line, the non-digit just
    # before the mantissa's end.
    digits = pos[1:] - pos[:-1]
    digits -= 1
    digits *= kc[:-1] == _DOT
    if not ragged:
        w = tok[:, 2]
        before = (kc[1:] == _EXP).nonzero()[0] if fields == 4 else ends
        scale = 28 - digits[before]
        if fields == 4:
            scale += tok[:, 3]
    else:
        w = ints[mantissa]
        before = stop[mantissa] - 1
        scale = 28 - digits[before]
        scale += ints[last] * has_exp
    if _EXTENDED:
        vals, redo = _decimal_values(w, scale)
    else:
        vals, redo = np.empty(n, dtype=VALUE_DTYPE), np.arange(n)
    if redo.size:
        # Re-read with ``float``: the value field runs from after its
        # line's second space to its newline.
        newlines = (kc == _NEWLINE).nonzero()[0]
        lo = pos[newlines[redo] + 2] + 1
        hi = pos[newlines[redo + 1]]
        vals[redo] = [float(data[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]
        if not allow_nonfinite and not np.isfinite(vals[redo]).all():
            return None
    return COOBlock(index[0], index[1], vals)


def _decimal_values(
    w: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``w * 10**(scale - 28)`` as float64, and the positions to re-read.

    Each value is one ``np.longdouble`` multiplication or division of
    exact operands (``|w| < 2**63``, powers of ten up to 10**27), so it
    rounds once to 64 bits, and rounding that to 53 bits is the correctly
    rounded value ``float`` gives unless the 64-bit result lies on a
    float64 midpoint (low 11 bits ``0x400``).  Those values, zeros (the
    sign of ``-0``), saturated significands (NumPy clamps an overflowing
    parse) and ``|q| > 27`` are listed for a ``float`` re-read.  Needs
    x87 extended precision (:data:`_EXTENDED`).
    """
    factors = _SCALE.take(scale, axis=0, mode="clip")
    y = w * factors[:, 0]
    y /= factors[:, 1]
    vals = y.astype(VALUE_DTYPE)
    redo = (y.view(np.uint32)[::_WORDS] & 0x7FF) == 0x400
    # Zeros and |q| > 27 (scaled by 0) come out 0.0, saturated
    # significands as +-(2**63 - 1) or -2**63; both are rare, so the
    # whole slice is tested first.
    size = np.abs(w).view(np.uint64)
    if np.count_nonzero(vals) < vals.size or np.maximum.reduce(size) >= _I64_MAX:
        redo |= vals == 0
        redo |= size >= _I64_MAX
    return vals, redo.nonzero()[0]


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
