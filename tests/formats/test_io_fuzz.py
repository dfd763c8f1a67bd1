"""Property-style fuzzing of the hardened MatrixMarket reader.

The contract under test: *every* input either yields a valid
:class:`COOMatrix` or raises :class:`MatrixMarketError` — never another
exception type, never a crash, never a giant allocation driven by a
forged size line.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.formats.io import (
    MatrixMarketError,
    ReadPolicy,
    assemble_matrix,
    matrix_market_string,
    read_matrix_market,
    read_matrix_market_streaming,
)

BANNER = "%%MatrixMarket matrix coordinate real general\n"


def _read_text(text: str, policy: ReadPolicy | None = None):
    if policy is None:
        return read_matrix_market(io.StringIO(text))
    return read_matrix_market(io.StringIO(text), policy)


def assert_valid_or_rejected(text: str, policy: ReadPolicy | None = None):
    try:
        matrix = _read_text(text, policy)
    except MatrixMarketError as exc:
        assert isinstance(exc.code, str) and exc.code
        return None
    assert isinstance(matrix, COOMatrix)
    return matrix


# -- generative fuzzing -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_arbitrary_text_never_crashes(text):
    assert_valid_or_rejected(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789 .-+eE\n%", max_size=300))
def test_numeric_soup_after_banner_never_crashes(body):
    assert_valid_or_rejected(BANNER + body)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-5, max_value=30),
    st.integers(min_value=-5, max_value=30),
    st.integers(min_value=-3, max_value=40),
    st.lists(
        st.tuples(
            st.integers(min_value=-2, max_value=12),
            st.integers(min_value=-2, max_value=12),
            st.floats(allow_nan=True, allow_infinity=True, width=32),
        ),
        max_size=20,
    ),
)
def test_structured_garbage_never_crashes(nrows, ncols, nnz, entries):
    lines = [f"{nrows} {ncols} {nnz}"]
    lines += [f"{r} {c} {v!r}" for r, c, v in entries]
    matrix = assert_valid_or_rejected(BANNER + "\n".join(lines) + "\n")
    if matrix is not None:
        assert matrix.nrows == nrows and matrix.ncols == ncols


STRICT = ReadPolicy(
    max_dim=1000,
    max_nnz=1000,
    max_header_bytes=256,
    allow_nonfinite=False,
    duplicates="reject",
)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_strict_policy_never_crashes(text):
    assert_valid_or_rejected(text, STRICT)


# -- directed adversarial cases ---------------------------------------------


def _code_of(text: str, policy: ReadPolicy | None = None) -> str:
    with pytest.raises(MatrixMarketError) as exc_info:
        _read_text(text, policy)
    return exc_info.value.code


def test_truncated_file_rejected():
    assert _code_of(BANNER + "5 5 9\n1 1 1.0\n") == "count_mismatch"


def test_truncated_mid_header():
    assert _code_of("%%MatrixMarket matrix") == "bad_banner"
    assert _code_of(BANNER) == "bad_size"
    assert _code_of(BANNER + "% only comments\n") == "bad_size"


def test_huge_declared_nnz_vs_tiny_body_no_allocation():
    # The forged size line demands ~8 TB of triples; the list-based
    # reader must reject it from the body mismatch without allocating.
    text = BANNER + "3 3 999999999999\n1 1 1.0\n"
    assert _code_of(text) == "count_mismatch"


def test_huge_declared_nnz_rejected_up_front_by_policy():
    text = BANNER + "3 3 999999999999\n1 1 1.0\n"
    assert _code_of(text, STRICT) == "too_large"


def test_huge_declared_dims_rejected_by_policy():
    text = BANNER + "99999999 99999999 1\n1 1 1.0\n"
    assert _code_of(text, STRICT) == "too_large"


@pytest.mark.parametrize("streaming", [False, True], ids=["memory", "stream"])
def test_dims_past_int64_rejected_under_default_policy(streaming):
    """An index that passes the range check must still fit int64."""
    text = BANNER + "99999999999999999999 2 1\n99999999999999999999 1 1.0\n"
    with pytest.raises(MatrixMarketError) as err:
        if streaming:
            list(read_matrix_market_streaming(io.StringIO(text)))
        else:
            read_matrix_market(io.StringIO(text))
    assert err.value.code == "too_large"


@pytest.mark.parametrize("streaming", [False, True], ids=["memory", "stream"])
def test_distinct_entries_stay_distinct_past_int64_keys(streaming):
    """(1, 1) and (2**24 + 1, 1) of a 2**40-square matrix share the
    packed key ``row * ncols + col`` modulo 2**64; both stay entries."""
    text = BANNER + f"{2**40} {2**40} 2\n1 1 1.0\n16777217 1 2.0\n"
    if streaming:
        stream = read_matrix_market_streaming(io.StringIO(text))
        header = next(stream)
        blocks = list(stream)
        matrix = assemble_matrix(
            header,
            [b.rows for b in blocks],
            [b.cols for b in blocks],
            [b.vals for b in blocks],
        )
    else:
        matrix = read_matrix_market(io.StringIO(text))
    assert matrix.rows.tolist() == [0, 2**24]
    assert matrix.cols.tolist() == [0, 0]
    assert matrix.vals.tolist() == [1.0, 2.0]


EXTRA_FIELD_BODIES = {
    "real": "2 2 1\n1 2 0.5 7\n",
    "integer": "2 2 1\n1 2 3 4\n",
    "pattern": "2 2 1\n1 2 9.5\n",
}


@pytest.mark.parametrize("streaming", [False, True], ids=["memory", "stream"])
@pytest.mark.parametrize("field", sorted(EXTRA_FIELD_BODIES))
def test_entry_line_with_an_extra_field_rejected(streaming, field):
    """An entry line holds exactly its field's width of tokens."""
    text = BANNER.replace("real", field) + EXTRA_FIELD_BODIES[field]
    with pytest.raises(MatrixMarketError) as err:
        if streaming:
            list(read_matrix_market_streaming(io.StringIO(text)))
        else:
            read_matrix_market(io.StringIO(text))
    assert err.value.code == "bad_entry"
    assert EXTRA_FIELD_BODIES[field].splitlines()[1] in str(err.value)


def test_negative_indices_rejected():
    assert _code_of(BANNER + "4 4 1\n-1 2 1.0\n") == "index_out_of_range"
    assert _code_of(BANNER + "4 4 1\n0 2 1.0\n") == "index_out_of_range"


def test_out_of_range_indices_rejected():
    assert _code_of(BANNER + "4 4 1\n5 1 1.0\n") == "index_out_of_range"


def test_negative_dimensions_rejected():
    assert _code_of(BANNER + "-3 3 1\n1 1 1.0\n") == "bad_size"


def test_nan_and_inf_policy():
    nan_text = BANNER + "2 2 1\n1 1 nan\n"
    inf_text = BANNER + "2 2 1\n1 1 inf\n"
    # Permissive default keeps them (historical behaviour).
    assert np.isnan(_read_text(nan_text).vals[0])
    assert np.isinf(_read_text(inf_text).vals[0])
    # Strict policy rejects both.
    assert _code_of(nan_text, STRICT) == "nonfinite_value"
    assert _code_of(inf_text, STRICT) == "nonfinite_value"


def test_duplicate_policy():
    text = BANNER + "2 2 2\n1 1 1.5\n1 1 2.5\n"
    # Default sums duplicates (CUSP behaviour)...
    matrix = _read_text(text)
    assert matrix.nnz == 1 and matrix.vals[0] == 4.0
    # ...strict rejects them.
    assert _code_of(text, STRICT) == "duplicate_entry"


def test_banner_case_mixing_accepted():
    text = "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 3.0\n"
    assert _read_text(text).vals[0] == 3.0


def test_oversized_comment_header_rejected_by_policy():
    text = BANNER + ("% spam\n" * 100) + "1 1 1\n1 1 1.0\n"
    assert _read_text(text).nnz == 1  # permissive: fine
    assert _code_of(text, STRICT) == "oversized_header"


def test_non_ascii_comment_bytes_readable_from_disk(tmp_path):
    # Real SuiteSparse files carry author names in latin-1/utf-8
    # comments; the old ascii codec crashed with UnicodeDecodeError.
    path = tmp_path / "latin.mtx"
    path.write_bytes(
        BANNER.encode()
        + b"% author: J\xf6rg M\xfcller \xe2\x82\xac\n"
        + b"2 2 1\n1 2 4.0\n"
    )
    matrix = read_matrix_market(path)
    assert matrix.nnz == 1 and matrix.vals[0] == 4.0


def test_declared_nnz_must_match_lines_read(tmp_path):
    path = tmp_path / "extra.mtx"
    path.write_text(BANNER + "2 2 1\n1 1 1.0\n2 2 2.0\n")
    with pytest.raises(MatrixMarketError) as exc_info:
        read_matrix_market(path)
    assert exc_info.value.code == "count_mismatch"


def test_roundtrip_still_exact(rng):
    dense = (rng.random((9, 7)) < 0.3) * rng.standard_normal((9, 7))
    original = COOMatrix.from_dense(dense)
    back = _read_text(matrix_market_string(original), STRICT)
    np.testing.assert_array_equal(back.to_dense(), original.to_dense())
