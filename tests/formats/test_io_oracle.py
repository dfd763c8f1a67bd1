"""Slice-at-a-time MatrixMarket entry parsing ≡ the per-line loop (DESIGN §13).

The oracle below is a compact copy of the reader as it parsed entries
before batching: every entry line stripped, split, checked for its
field count (2 tokens for ``pattern``, 3 otherwise; the one change
since, made to the reader's loop and here alike), converted with
``int``/``int``/``float`` and checked for count, range and finiteness
in file order, one line at a time.  The reader under test converts a
slice of entry text at once when the slice certifies and hands any
other slice, split into lines, to its own per-line loop; whatever the
path, it must give the oracle's matrix bytes or the oracle's
``(code, message)``.

Hypothesis draws canonical bodies and then mutates them with what
certification has to turn away: comment and blank lines between
entries, tabs, doubled/leading/trailing spaces, CRLF, missing, empty,
moved and extra fields, ``+1``/``01``/``1_0`` and huge indices,
non-ASCII digits and whitespace, ``inf``/``nan``/``1e400`` and malformed
value tokens, out-of-range and duplicate coordinates, more or fewer
entries than declared, and no final newline.  Each body is read with
the slice size set to 1, 8, 64 and 2**18 (so small bodies cross slice
boundaries in every source), under both streaming-suite policies, at
chunk sizes 1, 3, 7 and 65536, from ``StringIO``, from a generator of
its lines, and from a file through ``mmap`` and through text mode; and
by :func:`read_matrix_market` itself, from ``StringIO`` and the file.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import HYPOTHESIS_SCALE
from tests.formats.test_io_streaming import POLICIES

from repro.formats import io as mmio
from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE
from repro.formats.io import (
    MatrixMarketError,
    MatrixMarketHeader,
    ReadPolicy,
    _check_duplicates,
    _parse_banner,
    _parse_size_line,
    assemble_matrix,
    read_matrix_market,
    read_matrix_market_streaming,
)

#: Slice sizes read with: characters of text, bytes of a mapped file.
SLICE_SIZES = (1, 8, 64, 1 << 18)
CHUNK_SIZES = (1, 3, 7, 65536)


# -- the oracle: the per-line entry loop ----------------------------------


def oracle_read(lines, policy: ReadPolicy):
    """The matrix the per-line reader builds from ``lines``."""
    field, symmetry = _parse_banner(next(lines, ""))
    size_line, header_bytes = "", 0
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            size_line = stripped
            break
        header_bytes += len(line)
        limit = policy.max_header_bytes
        if limit is not None and header_bytes > limit:
            raise MatrixMarketError(
                f"comment preamble exceeds {limit} bytes",
                code="oversized_header",
            )
    if not size_line:
        raise MatrixMarketError("missing size line", code="bad_size")
    nrows, ncols, nnz = _parse_size_line(size_line, policy)
    rows, cols, vals = [], [], []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if len(rows) >= nnz:
            raise MatrixMarketError(
                "more entries than declared nnz", code="count_mismatch"
            )
        toks = stripped.split()
        try:
            if len(toks) != (2 if field == "pattern" else 3):
                raise ValueError("wrong number of fields")
            r = int(toks[0]) - 1
            c = int(toks[1]) - 1
            v = 1.0 if field == "pattern" else float(toks[2])
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
        rows.append(r)
        cols.append(c)
        vals.append(v)
    if len(rows) != nnz:
        raise MatrixMarketError(
            f"declared {nnz} entries, found {len(rows)}",
            code="count_mismatch",
        )
    rows = np.array(rows, dtype=INDEX_DTYPE)
    cols = np.array(cols, dtype=INDEX_DTYPE)
    if policy.duplicates == "reject":
        _check_duplicates(rows, cols)
    header = MatrixMarketHeader(field, symmetry, nrows, ncols, nnz)
    return assemble_matrix(
        header, [rows], [cols], [np.array(vals, dtype=VALUE_DTYPE)]
    )


def outcome(read):
    try:
        m = read()
    except MatrixMarketError as exc:
        return ("err", exc.code, str(exc))
    return (
        "ok",
        m.shape,
        m.rows.dtype.str,
        m.rows.tobytes(),
        m.cols.dtype.str,
        m.cols.tobytes(),
        m.vals.dtype.str,
        m.vals.tobytes(),
    )


def streamed(source, policy, chunk_nnz):
    stream = read_matrix_market_streaming(source, policy, chunk_nnz)
    header = next(stream)
    blocks = list(stream)
    assert all(len(b.rows) <= chunk_nnz for b in blocks)
    return assemble_matrix(
        header,
        [b.rows for b in blocks],
        [b.cols for b in blocks],
        [b.vals for b in blocks],
    )


@contextlib.contextmanager
def slice_size(size: int):
    saved = mmio._SLICE
    mmio._SLICE = size
    try:
        yield
    finally:
        mmio._SLICE = saved


def assert_matches_oracle(text: str, path) -> None:
    """Every source, slice size, policy and chunk size gives the oracle's
    answer."""
    path.write_bytes(text.encode("utf-8"))
    for name, policy in POLICIES.items():
        expected = outcome(lambda: oracle_read(iter(io.StringIO(text)), policy))

        def from_file():
            with open(path, encoding="latin-1") as fh:
                return oracle_read(iter(fh), policy)

        expected_file = outcome(from_file)
        for size in SLICE_SIZES:
            with slice_size(size):
                got = outcome(
                    lambda: read_matrix_market(io.StringIO(text), policy)
                )
                assert got == expected, (name, size)
                got = outcome(lambda: read_matrix_market(str(path), policy))
                assert got == expected_file, (name, size)
                for chunk in CHUNK_SIZES:
                    got = outcome(
                        lambda: streamed(io.StringIO(text), policy, chunk)
                    )
                    assert got == expected, (name, size, chunk)
                    generator = (line for line in io.StringIO(text))
                    got = outcome(lambda: streamed(generator, policy, chunk))
                    assert got == expected, (name, size, chunk, "generator")
                    got = outcome(lambda: streamed(str(path), policy, chunk))
                    assert got == expected_file, (name, size, chunk, "path")
                    # The text route a path takes when it cannot be mapped.
                    with open(path, encoding="latin-1") as fh:
                        got = outcome(lambda: streamed(fh, policy, chunk))
                    assert got == expected_file, (name, size, chunk, "text")


# -- bodies: canonical, then mutated --------------------------------------

#: Value tokens of the certified byte set, valid for ``float`` or not.
VALUE_TOKENS = (
    "0", "-0", "+0.5", ".5", "5.", "1e5", "1E+5", "-1.5e-3", "7",
    "123456789012345678901234567890", "1e400", "-1e400", "1e-400",
    "1.7976931348623157e308", "1e", "e5", ".", "-", "+-1", "1.2.3",
    "1e5.5", "--1",
)
#: Arabic-Indic one, fullwidth one, superscript one (``int`` takes the
#: first two); no-break, em and next-line spaces and ASCII separators
#: that ``str.split`` treats as whitespace.
NON_ASCII_DIGITS = ("\u0661", "\uff11", "\xb9")
NON_ASCII_SPACES = ("\xa0", "\u2003", "\x85", "\x0b", "\x0c", "\x1c")


def _index_token(draw, value: int) -> str:
    kind = draw(st.sampled_from(
        ["plain"] * 3 + ["plus", "zeros", "underscore", "unicode", "huge"]
    ))
    if kind == "plus":
        return f"+{value}"
    if kind == "zeros":
        # Past 4300 digits ``int`` refuses the string (CPython's default
        # int_max_str_digits); below it the zeros only pad the value.
        zeros = draw(st.sampled_from([1, 2, 17, 18, 4300]))
        return "0" * zeros + str(value)
    if kind == "underscore":
        return f"{value}_0"
    if kind == "unicode":
        return draw(st.sampled_from(NON_ASCII_DIGITS))
    if kind == "huge":
        return str(draw(st.sampled_from([10**18 - 1, 10**18, 10**19, 10**40])))
    return str(value)


MUTATIONS = (
    "comment", "blank", "tab", "double_space", "leading_space",
    "trailing_space", "crlf", "drop_field", "empty_field", "extra_field",
    "shift_field", "index_token", "unicode_space", "nonfinite",
    "value_token", "out_of_range", "duplicate",
)


@st.composite
def bodies(draw):
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(
        st.sampled_from(["general", "general", "symmetric", "skew-symmetric"])
    )
    nrows = draw(st.integers(1, 12))
    ncols = nrows if symmetry != "general" else draw(st.integers(1, 12))
    n = draw(st.integers(0, 24))
    lines = []
    for _ in range(n):
        r = draw(st.integers(1, nrows))
        c = draw(st.integers(1, ncols))
        if field == "pattern":
            lines.append(f"{r} {c}")
        elif field == "integer":
            lines.append(f"{r} {c} {draw(st.integers(-99, 99))}")
        else:
            v = draw(st.floats(allow_nan=False, allow_infinity=False))
            lines.append(f"{r} {c} {v!r}")
    ends = ["\n"] * len(lines)
    declared = len(lines)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(MUTATIONS + ("declared",)))
        if kind == "declared":
            declared = max(0, declared + draw(st.integers(-2, 2)))
            continue
        at = draw(st.integers(0, len(lines)))
        if kind in ("comment", "blank"):
            extra = "% between entries" if kind == "comment" else draw(
                st.sampled_from(["", "   ", "\t"])
            )
            lines.insert(at, extra)
            ends.insert(at, "\n")
            continue
        if not lines:
            continue
        at = min(at, len(lines) - 1)
        line = lines[at]
        if kind == "tab":
            line = line.replace(" ", "\t", 1)
        elif kind == "double_space":
            line = line.replace(" ", "  ", 1)
        elif kind == "leading_space":
            line = " " + line
        elif kind == "trailing_space":
            line = line + " "
        elif kind == "crlf":
            ends[at] = "\r\n"
        elif kind == "drop_field":
            line = line.rsplit(" ", 1)[0]
        elif kind == "empty_field":
            toks = line.split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = ""
            line = " ".join(toks)
        elif kind == "extra_field":
            line = line + " 7"
        elif kind == "shift_field":
            # Moves a field to the next line: the two lines keep their
            # spaces in total, but neither has its own count.
            head, _, tail = line.rpartition(" ")
            if at + 1 < len(lines) and head:
                lines[at + 1] = tail + " " + lines[at + 1]
                line = head
        elif kind == "index_token":
            toks = line.split(" ")
            i = draw(st.integers(0, 1))
            if i < len(toks) and toks[i].isdecimal():
                toks[i] = _index_token(draw, int(toks[i]))
            line = " ".join(toks)
        elif kind == "unicode_space":
            line = line.replace(" ", draw(st.sampled_from(NON_ASCII_SPACES)), 1)
        elif kind in ("nonfinite", "value_token"):
            pool = (
                ("inf", "-inf", "nan", "1e400", "Infinity")
                if kind == "nonfinite" else VALUE_TOKENS
            )
            toks = line.split(" ")
            toks[-1] = draw(st.sampled_from(pool))
            line = " ".join(toks)
        elif kind == "out_of_range":
            toks = line.split(" ")
            i = draw(st.integers(0, 1))
            bound = nrows if i == 0 else ncols
            if i < len(toks):
                toks[i] = str(draw(st.sampled_from([0, bound + 1, bound + 9])))
            line = " ".join(toks)
        elif kind == "duplicate":
            line = lines[draw(st.integers(0, len(lines) - 1))]
        lines[at] = line
    body = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()) and body.endswith("\n"):
        body = body[:-1] if not body.endswith("\r\n") else body[:-2]
    size = f"{nrows} {ncols} {declared}\n"
    return f"%%MatrixMarket matrix coordinate {field} {symmetry}\n" + size + body


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "body.mtx"


BANNER = "%%MatrixMarket matrix coordinate real general\n"


@settings(max_examples=150 * HYPOTHESIS_SCALE, deadline=None)
@given(bodies())
# One canonical line spoiled per example; each decides the outcome.
@example(text=BANNER + "3 3 2\n1 1 0.5\n4 2 1.5\n")  # row out of range
@example(text=BANNER + "3 3 2\n1 1 0.5\n2  1.5\n")  # empty field
@example(text=BANNER.replace("real", "pattern") + "3 3 2\n1 1\n 2\n")  # ditto
@example(text=BANNER + "3 3 3\n1 1 0.5\n2 2 0.5 3\n3 1.5\n")  # field moved
@example(text=BANNER + "3 3 1\n1 1 0.5\n2 2 1.5\n")  # over the count
@example(text=BANNER + "3 3 2\n1 1 0.5\n2 2 1e400\n")  # overflows to inf
def test_mutated_bodies_match_the_per_line_oracle(mtx_path, text):
    assert_matches_oracle(text, mtx_path)


@pytest.mark.parametrize("zeros", [17, 4299, 4300])
def test_zero_padded_indices_match_the_per_line_oracle(mtx_path, zeros):
    """``int`` takes at most 4300 digits; the padding keeps values small."""
    index = "0" * zeros + "2"
    text = (
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
        f"1 1 0.5\n{index} {index} 1.5\n"
    )
    assert_matches_oracle(text, mtx_path)


@settings(max_examples=60 * HYPOTHESIS_SCALE, deadline=None)
@given(
    st.sampled_from(["real", "pattern"]),
    st.text(alphabet="0123456789 .-+eE\n%\t\r", max_size=120),
)
def test_numeric_soup_matches_the_per_line_oracle(mtx_path, field, body):
    header = f"%%MatrixMarket matrix coordinate {field} general\n9 9 6\n"
    assert_matches_oracle(header + body, mtx_path)


def test_oracle_bodies_certify_and_fall_back():
    """Both paths run: canonical slices certify, mutated ones do not."""
    canonical = "1 2 0.5\n3 3 -1e-3\n"
    assert mmio._convert_slice(canonical, 3, 3, 3, 2, False) is not None
    assert mmio._convert_slice(canonical, 3, 3, 3, 1, False) is None  # count
    # Exponent notation certifies: alone, on every line (MATLAB's
    # %.16e), and mixed with plain values.
    matlab = "".join(
        f"{r} {c} {v:.16e}\n" for r, c, v in ((1, 2, -0.25), (3, 1, 1e-300))
    )
    for text in ("1 2 1.5e-05\n", matlab, canonical + matlab, "2 2 7E+2\n"):
        block = mmio._convert_slice(text, 3, 3, 3, 4, False)
        assert block is not None, text
        values = [float(line.split()[2]) for line in text.splitlines()]
        assert block.vals.tolist() == values, text
    for text in (
        "1 2 0.5\n% note\n",
        "1\t2 0.5\n",
        "1 2 0.5 7\n",
        "1 2 0.5\n3\n",
        "+1 2 0.5\n",
        "1 2 0.5\r\n",
        "1 2 0.5\n\u0661 2 0.5\n",
        "4 1 0.5\n",
        "1 2 inf\n",
    ):
        assert mmio._convert_slice(text, 3, 3, 3, 2, False) is None, text


@pytest.mark.parametrize(
    "items",
    [
        ["1 2 0.5\n3", " 3 1.0\n"],  # one line split across two items
        ["1 2 0.5\n", "3 3 1.0\n3 3 1.0\n", ""],  # two lines in one item
    ],
    ids=["split", "joined"],
)
def test_items_that_split_or_join_lines_stay_one_line_each(items):
    """A caller's item is one line to the per-line loop, wherever its
    newlines fall: such a run is never joined into a slice."""
    assert list(mmio._item_slices(iter(items))) == [items]
    lines = [BANNER, "3 3 2\n", *items]
    for name, policy in POLICIES.items():
        expected = outcome(lambda: oracle_read(iter(lines), policy))
        for size in SLICE_SIZES:
            with slice_size(size):
                for chunk in CHUNK_SIZES:
                    got = outcome(lambda: streamed(iter(lines), policy, chunk))
                    assert got == expected, (name, size, chunk)


def test_newline_terminated_items_join_into_one_slice():
    items = ["1 2 0.5\n", "3 3 1.0\n"]
    assert list(mmio._item_slices(iter(items))) == ["".join(items)]
