"""Streaming MatrixMarket reader ≡ the in-memory reader, bit for bit.

The contract under test: for *any* input text and *any* chunk size,
driving :func:`read_matrix_market_streaming` +
:func:`assemble_matrix` by hand produces exactly what
:func:`read_matrix_market` produces — the same ``COOMatrix`` contents
(dtypes included) on success, the same :class:`MatrixMarketError`
``code`` *and message* on rejection.  A second contract covers the
file-path entry point: the ``mmap`` fast path must be indistinguishable
from the text-mode fallback, and declared-size limits must trip at the
size line, before any entry is parsed.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.formats import io as io_mod
from repro.formats.io import (
    MatrixMarketError,
    MatrixMarketHeader,
    ReadPolicy,
    assemble_matrix,
    read_matrix_market,
    read_matrix_market_streaming,
)

CHUNK_SIZES = (1, 2, 3, 7, 100_000)

POLICIES = {
    "default": ReadPolicy(),
    "strict": ReadPolicy(
        max_dim=1000,
        max_nnz=1000,
        max_header_bytes=256,
        allow_nonfinite=False,
        duplicates="reject",
    ),
}


def _outcome_inmemory(text: str, policy: ReadPolicy):
    try:
        return _fingerprint(read_matrix_market(io.StringIO(text), policy))
    except MatrixMarketError as exc:
        return ("err", exc.code, str(exc))


def _outcome_streamed(text: str, policy: ReadPolicy, chunk_nnz: int):
    try:
        stream = read_matrix_market_streaming(
            io.StringIO(text), policy, chunk_nnz=chunk_nnz
        )
        header = next(stream)
        assert isinstance(header, MatrixMarketHeader)
        rows, cols, vals = [], [], []
        for block in stream:
            assert len(block.rows) <= chunk_nnz
            rows.append(block.rows)
            cols.append(block.cols)
            vals.append(block.vals)
        return _fingerprint(assemble_matrix(header, rows, cols, vals))
    except MatrixMarketError as exc:
        return ("err", exc.code, str(exc))


def _fingerprint(matrix: COOMatrix):
    return (
        "ok",
        matrix.shape,
        matrix.rows.dtype.str,
        matrix.rows.tobytes(),
        matrix.cols.dtype.str,
        matrix.cols.tobytes(),
        matrix.vals.dtype.str,
        matrix.vals.tobytes(),
    )


def assert_equivalent(text: str):
    for name, policy in POLICIES.items():
        expected = _outcome_inmemory(text, policy)
        for chunk_nnz in CHUNK_SIZES:
            got = _outcome_streamed(text, policy, chunk_nnz)
            assert got == expected, (
                f"policy={name} chunk={chunk_nnz}: {got!r} != {expected!r}"
            )


# -- generative equivalence -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_arbitrary_text_streams_identically(text):
    assert_equivalent(text)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["general", "symmetric", "skew-symmetric"]),
    st.sampled_from(["real", "integer", "pattern"]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-3, max_value=30),
    st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=12),
            st.integers(min_value=-1, max_value=12),
            st.floats(allow_nan=True, allow_infinity=True, width=32),
        ),
        max_size=16,
    ),
)
def test_structured_bodies_stream_identically(
    symmetry, field, dim, declared_nnz, entries
):
    """Valid and invalid bodies across symmetries, duplicates included.

    Entries are unconstrained, so this covers mirroring, duplicate
    summation/rejection, count mismatches, out-of-range indices, and
    non-finite values — the error paths must match exactly, too.
    """
    lines = [
        f"%%MatrixMarket matrix coordinate {field} {symmetry}",
        f"{dim} {dim} {declared_nnz}",
    ]
    for r, c, v in entries:
        if field == "pattern":
            lines.append(f"{r + 1} {c + 1}")
        else:
            lines.append(f"{r + 1} {c + 1} {v!r}")
    assert_equivalent("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="0123456789 .-+eE\n%\r", max_size=200))
def test_numeric_soup_with_carriage_returns_streams_identically(body):
    banner = "%%MatrixMarket matrix coordinate real general\n"
    assert_equivalent(banner + body)


# -- file-path entry point: mmap fast path vs text fallback ----------------


def _long_text(n_entries, comment_at=None, final_newline=True):
    """A real general body of ``n_entries`` canonical entry lines."""
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"500 500 {n_entries}",
    ]
    for i in range(n_entries):
        if i == comment_at:
            lines.append("% a comment between entries")
        lines.append(f"{i % 500 + 1} {i * 37 % 500 + 1} {i / 7 - 900.0!r}")
    return "\n".join(lines) + ("\n" if final_newline else "")


#: Entry lines in the long cases: more than one slice of entry text.
LONG_ENTRIES = 12_000


def _first_slice(text):
    """Start and end of the reader's first slice of ``text``'s entry
    lines: it ends after the first newline ``_SLICE`` characters on."""
    start = text.index("\n", text.index("\n") + 1) + 1
    return start, text.index("\n", start + io_mod._SLICE - 1) + 1


def _comment_on_slice_boundary(n_entries):
    """A long body whose comment line starts the second slice."""
    text = _long_text(n_entries)
    return _long_text(n_entries, comment_at=text.count("\n", *_first_slice(text)))


PATH_CASES = {
    "lf": ("%%MatrixMarket matrix coordinate real general\n"
           "2 2 2\n1 1 1.5\n2 2 2.5\n"),
    "crlf": ("%%MatrixMarket matrix coordinate real general\r\n"
             "2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n"),
    "no_trailing_newline": (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.5\n2 2 2.5"),
    "empty": "",
    "symmetric": ("%%MatrixMarket matrix coordinate real symmetric\n"
                  "3 3 2\n2 1 1.0\n3 3 4.0\n"),
    "count_mismatch": ("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 3\n1 1 1.0\n"),
    "long": _long_text(LONG_ENTRIES),
    # The comment starts the second slice, which the per-line loop takes.
    "long_comment_on_slice_boundary": _comment_on_slice_boundary(LONG_ENTRIES),
    "long_no_trailing_newline": _long_text(LONG_ENTRIES, final_newline=False),
}


def test_long_path_cases_cross_slices():
    for case in ("long", "long_no_trailing_newline"):
        text = PATH_CASES[case]
        assert len(text) > _first_slice(text)[1]
    text = PATH_CASES["long_comment_on_slice_boundary"]
    assert text[_first_slice(text)[1]:].startswith("% a comment")


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_read_matches_stringio_read(case, tmp_path):
    text = PATH_CASES[case]
    path = tmp_path / f"{case}.mtx"
    path.write_bytes(text.encode("latin-1"))

    def from_path(source):
        try:
            stream = read_matrix_market_streaming(source)
            header = next(stream)
            blocks = list(stream)
            return _fingerprint(assemble_matrix(
                header,
                [b.rows for b in blocks],
                [b.cols for b in blocks],
                [b.vals for b in blocks],
            ))
        except MatrixMarketError as exc:
            return ("err", exc.code, str(exc))

    expected = _outcome_inmemory(text, ReadPolicy())
    assert from_path(str(path)) == expected
    # The text route a path takes when it cannot be mapped.
    with open(path, encoding="latin-1") as fh:
        assert from_path(fh) == expected
    # The public reader takes the same path-based route.
    try:
        via_reader = _fingerprint(read_matrix_market(str(path)))
    except MatrixMarketError as exc:
        via_reader = ("err", exc.code, str(exc))
    assert via_reader == expected


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(read_matrix_market_streaming(str(tmp_path / "nope.mtx")))


# -- size-line enforcement: forged headers die before any entry ------------


def test_forged_giant_header_rejected_at_size_line():
    """The limit trips after the size line; entry lines are never pulled."""

    pulled = []

    def lines():
        yield "%%MatrixMarket matrix coordinate real general\n"
        yield "999999999 999999999 999999999999\n"
        pulled.append("entry")
        yield "1 1 1.0\n"

    policy = ReadPolicy(max_dim=1_000_000)
    stream = read_matrix_market_streaming(lines(), policy)
    with pytest.raises(MatrixMarketError) as exc_info:
        next(stream)
    assert exc_info.value.code == "too_large"
    assert not pulled, "reader consumed entry lines past a rejected header"


def test_forged_giant_nnz_rejected_at_size_line():
    pulled = []

    def lines():
        yield "%%MatrixMarket matrix coordinate real general\n"
        yield "10 10 999999999999\n"
        pulled.append("entry")
        yield "1 1 1.0\n"

    policy = ReadPolicy(max_nnz=1_000_000)
    stream = read_matrix_market_streaming(lines(), policy)
    with pytest.raises(MatrixMarketError) as exc_info:
        next(stream)
    assert exc_info.value.code == "too_large"
    assert not pulled


def test_header_yielded_before_entries_are_parsed():
    """The header arrives eagerly; a poisoned entry only raises later."""

    stream = read_matrix_market_streaming(io.StringIO(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "not an entry\n"
    ))
    header = next(stream)
    assert header == MatrixMarketHeader("real", "general", 2, 2, 1)
    with pytest.raises(MatrixMarketError):
        next(stream)


def test_chunk_nnz_must_be_positive():
    with pytest.raises(ValueError):
        list(read_matrix_market_streaming(io.StringIO(""), chunk_nnz=0))
