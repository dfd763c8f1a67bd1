"""Ingestion gateway and wire-protocol parsing."""

import json

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.formats.io import matrix_market_string
from repro.serving.gateway import GatewayLimits, IngestError, IngestionGateway
from repro.serving.protocol import (
    RequestParseError,
    encode_response,
    ok_response,
    parse_request_line,
)
from repro.serving.server import SelectorServer, ServingConfig

BANNER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.fixture
def gateway():
    return IngestionGateway(
        GatewayLimits(max_matrix_bytes=4096, max_dim=1000, max_nnz=500)
    )


def _mtx(small_coo) -> str:
    return matrix_market_string(small_coo)


def _code(gateway, body) -> str:
    with pytest.raises(IngestError) as exc_info:
        gateway.ingest(body)
    return exc_info.value.code


def test_valid_inline_matrix(gateway, small_coo):
    matrix, vec = gateway.ingest({"mtx": _mtx(small_coo)})
    assert matrix.nnz == small_coo.nnz
    assert vec.shape == (1, 21)
    assert np.all(np.isfinite(vec))


def test_valid_path_matrix(gateway, small_coo, tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_mtx(small_coo))
    matrix, _ = gateway.ingest({"path": str(path)})
    assert matrix.nnz == small_coo.nnz


def test_missing_payload(gateway):
    assert _code(gateway, {}) == "missing_field"
    assert _code(gateway, {"mtx": 42}) == "missing_field"
    assert _code(gateway, {"path": "/nonexistent/m.mtx"}) == "missing_field"


def test_oversized_inline_rejected(gateway):
    assert _code(gateway, {"mtx": "%" * 5000}) == "payload_too_large"


def test_oversized_file_rejected(gateway, tmp_path):
    path = tmp_path / "big.mtx"
    path.write_text("%" * 5000)
    assert _code(gateway, {"path": str(path)}) == "payload_too_large"


def test_strict_policy_applied_inline(gateway):
    nan = BANNER + "2 2 1\n1 1 nan\n"
    dup = BANNER + "2 2 2\n1 1 1.0\n1 1 2.0\n"
    huge = BANNER + "2000 2000 1\n1 1 1.0\n"
    assert _code(gateway, {"mtx": nan}) == "nonfinite_value"
    assert _code(gateway, {"mtx": dup}) == "duplicate_entry"
    assert _code(gateway, {"mtx": huge}) == "too_large"


def test_predict_with_an_extra_entry_field_is_invalid(model_path):
    """An entry line with a fourth field is ``bad_entry``, not an entry."""
    server = SelectorServer(ServingConfig(model_path=model_path))
    body = BANNER + "2 2 1\n1 2 0.5 7\n"
    response = server.handle_line(
        json.dumps({"id": "x", "op": "predict", "mtx": body})
    )
    assert response["status"] == "invalid"
    assert response["code"] == "bad_entry"
    assert response["id"] == "x"


def test_zero_nnz_matrix_features_guarded(gateway):
    # An empty matrix is parseable; features must still come back
    # certified finite (or be rejected) — never NaN into the model.
    text = BANNER + "3 3 0\n"
    try:
        _, vec = gateway.ingest({"mtx": text})
    except IngestError as exc:
        assert exc.code == "bad_features"
    else:
        assert np.all(np.isfinite(vec))


def test_single_entry_matrix(gateway):
    matrix, vec = gateway.ingest({"mtx": BANNER + "1 1 1\n1 1 2.5\n"})
    assert isinstance(matrix, COOMatrix)
    assert np.all(np.isfinite(vec))


# -- protocol ---------------------------------------------------------------


def _parse_code(line: str, max_bytes: int = 4096) -> str:
    with pytest.raises(RequestParseError) as exc_info:
        parse_request_line(line, max_bytes)
    return exc_info.value.response["code"]


def test_parse_valid_line():
    request = parse_request_line(
        json.dumps({"id": "a", "op": "health"}), 4096
    )
    assert request.id == "a" and request.op == "health"


def test_parse_default_op_is_predict():
    request = parse_request_line(json.dumps({"mtx": "x"}), 4096)
    assert request.op == "predict"


def test_parse_rejections():
    assert _parse_code("{not json") == "bad_json"
    assert _parse_code('["a", "b"]') == "not_object"
    assert _parse_code('{"op": "explode"}') == "unknown_op"
    assert _parse_code("x" * 100, max_bytes=50) == "payload_too_large"


def test_encode_response_deterministic():
    response = ok_response("r1", format="csr", centroid=3)
    first = encode_response(response)
    second = encode_response(dict(reversed(list(response.items()))))
    assert first == second  # key order never changes the bytes
    assert "\n" not in first and " " not in first
