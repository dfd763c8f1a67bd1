"""End-to-end SelectorServer tests: the full defensive stack."""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.deploy import FallbackSelector
from repro.features import extract_features
from repro.formats.io import matrix_market_string, read_matrix_market
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.serving.breaker import OPEN
from repro.serving.gateway import GatewayLimits
from repro.serving.drill import (
    _random_matrix_text,
    build_request_lines,
    run_serve_drill,
    synthetic_frozen_selector,
)
from repro.serving.protocol import encode_response
from repro.serving.server import SelectorServer, ServingConfig


def make_server(model_path, fake_clock, **overrides) -> SelectorServer:
    defaults = dict(
        model_path=model_path,
        queue_size=8,
        deadline_seconds=None,
        breaker_failures=3,
        breaker_reset_seconds=10.0,
        breaker_probes=1,
        ood_factor=0.0,  # most tests do not exercise the OOD guard
    )
    defaults.update(overrides)
    injector = defaults.pop("fault_injector", None)
    return SelectorServer(
        ServingConfig(**defaults), clock=fake_clock, fault_injector=injector
    )


def predict_line(i: int, seed: int = 0) -> str:
    return json.dumps(
        {"id": f"p{i}", "op": "predict", "mtx": _random_matrix_text(i, seed)}
    )


def test_predict_ok(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    response = server.handle_line(predict_line(0))
    assert response["status"] == "ok"
    assert response["source"] == "model"
    assert response["format"] in ("csr", "ell", "coo", "hyb")
    assert isinstance(response["centroid"], int)


def test_predict_matches_single_shot_fallback_selector(
    model_path, fake_clock
):
    """Served answers are byte-identical to a fresh one-shot predict."""
    server = make_server(model_path, fake_clock)
    single_shot = FallbackSelector.load(model_path)
    for i in range(10):
        text = _random_matrix_text(i, seed=0)
        served = server.handle_line(
            json.dumps({"id": f"p{i}", "op": "predict", "mtx": text})
        )
        vec = extract_features(read_matrix_market(io.StringIO(text)))
        assert served["status"] == "ok"
        assert served["format"] == single_shot.predict_one(vec)


def test_invalid_payload_codes(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    cases = {
        "{broken": "bad_json",
        '["a"]': "not_object",
        '{"op": "explode"}': "unknown_op",
        '{"op": "predict"}': "missing_field",
        json.dumps({"op": "predict", "mtx": "junk\n"}): "bad_banner",
    }
    for line, code in cases.items():
        response = server.handle_line(line)
        assert response["status"] == "invalid"
        assert response["code"] == code


def test_missing_model_serves_fallback(tmp_path, fake_clock):
    server = make_server(str(tmp_path / "absent.npz"), fake_clock)
    response = server.handle_line(predict_line(0))
    assert response["status"] == "fallback"
    assert response["reason"] == "model_unusable"
    assert response["format"] == server.config.fallback_format


def test_breaker_trips_then_recovers(model_path, fake_clock):
    always_fail = FaultInjector(FaultSpec(failure_rate=1.0))
    server = make_server(
        model_path,
        fake_clock,
        breaker_failures=3,
        breaker_reset_seconds=5.0,
        breaker_probes=1,
        fault_injector=always_fail,
    )
    # Three consecutive inference faults trip the breaker...
    for i in range(3):
        response = server.handle_line(predict_line(i))
        assert response["status"] == "fallback"
        assert response["reason"] == "inference_error"
    assert server.breaker.state == OPEN
    # ...after which the model is not even called.
    response = server.handle_line(predict_line(3))
    assert response["reason"] == "breaker_open"
    # Heal the fault, wait out the reset: a probe closes the breaker.
    server.fault_injector = None
    fake_clock.advance(5.1)
    response = server.handle_line(predict_line(4))
    assert response["status"] == "ok"
    assert server.breaker.state == "closed"


def test_corruption_fails_inference(model_path, fake_clock):
    corruptor = FaultInjector(FaultSpec(corruption_rate=1.0))
    server = make_server(model_path, fake_clock, fault_injector=corruptor)
    response = server.handle_line(predict_line(0))
    assert response["status"] == "fallback"
    assert response["reason"] == "inference_error"


def test_ood_guard(model_path, fake_clock):
    # An absurdly tight threshold pushes every in-range query out of
    # distribution; the response must carry the measured distance.
    server = make_server(model_path, fake_clock, ood_factor=1e-9)
    response = server.handle_line(predict_line(0))
    assert response["status"] == "fallback"
    assert response["reason"] == "out_of_distribution"
    assert response["distance"] > response["threshold"]
    # Factor 0 disables the guard entirely.
    relaxed = make_server(model_path, fake_clock, ood_factor=0.0)
    assert relaxed.handle_line(predict_line(0))["status"] == "ok"


def test_internal_error_becomes_fallback(model_path, fake_clock, monkeypatch):
    server = make_server(model_path, fake_clock)

    def boom(body):
        raise RuntimeError("gateway exploded")

    monkeypatch.setattr(server.gateway, "ingest", boom)
    response = server.handle_line(predict_line(0))
    assert response["status"] == "fallback"
    assert response["reason"] == "internal_error"
    assert "gateway exploded" in response["error"]


def test_burst_sheds_oldest_but_answers_everyone(model_path, fake_clock):
    server = make_server(model_path, fake_clock, queue_size=4)
    lines = [predict_line(i) for i in range(10)]
    responses = server.submit_burst(lines)
    assert len(responses) == 10
    by_status = {}
    for response in responses:
        by_status.setdefault(response["status"], []).append(response["id"])
    assert len(by_status["overloaded"]) == 6
    assert len(by_status["ok"]) == 4
    # Shed-oldest: the four *newest* requests survive.
    assert by_status["ok"] == ["p6", "p7", "p8", "p9"]
    for rid in by_status["overloaded"]:
        assert rid in {f"p{i}" for i in range(6)}


def test_feedback_op(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    text = _random_matrix_text(0, seed=0)
    missing = server.handle_line(json.dumps({"op": "feedback", "mtx": text}))
    assert missing["status"] == "invalid"
    assert missing["code"] == "missing_field"
    response = server.handle_line(
        json.dumps(
            {"id": "f0", "op": "feedback", "mtx": text, "best_format": "csr"}
        )
    )
    assert response["status"] == "ok"
    assert isinstance(response["agrees"], bool)
    assert response["agrees"] == (response["format"] == "csr")
    assert response["online_clusters"] >= 1


def test_health_probe(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    server.handle_line(predict_line(0))
    fake_clock.advance(2.0)
    response = server.handle_line(json.dumps({"id": "h", "op": "health"}))
    assert response["status"] == "ok"
    assert response["uptime_seconds"] == pytest.approx(2.0)
    assert response["model"]["degraded"] is False
    assert response["breaker"]["state"] == "closed"
    assert response["counters"]["ok"] >= 1
    assert response["p99_latency_ms"] >= 0


def test_hot_swap_mid_traffic(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    first = server.handle_line(json.dumps({"id": "h", "op": "health"}))
    old_sha = first["model"]["sha256"]
    synthetic_frozen_selector(seed=42, n_centroids=6).save(model_path)
    st = os.stat(model_path)
    os.utime(model_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    response = server.handle_line(predict_line(0))
    assert response["status"] == "ok"  # served by the new model
    after = server.handle_line(json.dumps({"id": "h2", "op": "health"}))
    assert after["model"]["sha256"] != old_sha
    assert after["model"]["reloads"] == 1


def test_explicit_reload_op_reports_quarantine(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    with open(model_path, "wb") as fh:
        fh.write(b"definitely not a model")
    st = os.stat(model_path)
    os.utime(model_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    response = server.handle_line(json.dumps({"id": "r", "op": "reload"}))
    assert response["status"] == "ok"
    assert response["event"] == "quarantined"
    assert response["model"]["degraded"] is False  # old model still up


def test_serve_stream_jsonl_roundtrip(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    lines = [
        predict_line(0),
        "{broken",
        json.dumps({"id": "h", "op": "health"}),
        json.dumps({"id": "s", "op": "shutdown"}),
        predict_line(99),  # after shutdown: must not be consumed
    ]
    instream = io.StringIO("\n".join(lines) + "\n")
    outstream = io.StringIO()
    assert server.serve_stream(instream, outstream) == 0
    out = [json.loads(line) for line in outstream.getvalue().splitlines()]
    assert len(out) == 4  # shutdown stops the loop before line 5
    assert [r["status"] for r in out] == ["ok", "invalid", "ok", "ok"]
    assert out[3]["op"] == "shutdown"


#: A request line far over the 1 KiB cap the bounded-read tests set.
OVER_LIMIT = json.dumps({"id": "big", "op": "health", "pad": "x" * 20_000})


class RecordingReader(io.TextIOWrapper):
    """A text stream that records the size of every ``readline`` call."""

    sizes: list[int]

    def readline(self, size=-1):
        self.sizes.append(size)
        return super().readline(size)


@pytest.mark.parametrize("lead", [False, True], ids=["first", "drained"])
def test_serve_stream_answers_an_over_limit_line_and_goes_on(
    model_path, fake_clock, lead
):
    """Over a real pipe, so ``_drain_ready``'s ``select`` path reads too.

    With a ``lead`` line first, the over-limit line is read by
    ``_drain_ready``; without, by ``serve_stream`` itself.
    """
    server = make_server(model_path, fake_clock, max_request_bytes=1024)
    lines = [OVER_LIMIT, json.dumps({"id": "after", "op": "health"})]
    if lead:
        lines.insert(0, json.dumps({"id": "lead", "op": "healthz"}))
    read_fd, write_fd = os.pipe()
    os.write(write_fd, ("\n".join(lines) + "\n").encode())
    os.close(write_fd)
    outstream = io.StringIO()
    with RecordingReader(open(read_fd, "rb"), encoding="utf-8") as instream:
        instream.sizes = []
        assert server.serve_stream(instream, outstream) == 0
    # No read ever asked for more than the cap plus one character.
    assert set(instream.sizes) == {1025}
    out = outstream.getvalue().splitlines()
    reference = make_server(model_path, fake_clock, max_request_bytes=1024)
    # Parse rejections of a burst are answered before its admitted lines.
    assert out[0] == encode_response(reference.handle_line(OVER_LIMIT + "\n"))
    answers = [json.loads(line) for line in out[1:]]
    assert [r["id"] for r in answers] == ["lead"] * lead + ["after"]
    assert {r["status"] for r in answers} == {"ok"}


def test_serve_socket_answers_an_over_limit_line_and_goes_on(
    model_path, fake_clock, tmp_path
):
    server = make_server(model_path, fake_clock, max_request_bytes=1024)
    path = str(tmp_path / "s.sock")
    thread = threading.Thread(
        target=server.serve_socket, args=(path,), daemon=True
    )
    thread.start()
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        for _ in range(500):
            try:
                client.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.01)
        answers = []
        with client.makefile("r", encoding="utf-8") as replies:
            for line in (
                OVER_LIMIT,
                json.dumps({"id": "after", "op": "health"}),
                json.dumps({"id": "s", "op": "shutdown"}),
            ):
                client.sendall((line + "\n").encode())
                answers.append(replies.readline())
    finally:
        client.close()
        thread.join(timeout=30)
    assert not thread.is_alive()
    reference = make_server(model_path, fake_clock, max_request_bytes=1024)
    assert answers[0] == (
        encode_response(reference.handle_line(OVER_LIMIT + "\n")) + "\n"
    )
    after = json.loads(answers[1])
    assert after["id"] == "after" and after["status"] == "ok"
    assert json.loads(answers[2])["op"] == "shutdown"


def test_drill_contract_holds_under_hostile_traffic(model_path, fake_clock):
    """The full drill: poison payloads, bursts, a corrupt swap, a good
    swap, injected faults — every request answered, zero violations."""
    flaky = FaultInjector(FaultSpec(failure_rate=0.3, seed=7))
    server = make_server(
        model_path,
        fake_clock,
        queue_size=6,
        breaker_failures=2,
        breaker_reset_seconds=0.05,
        max_request_bytes=65536,
        limits=GatewayLimits(max_matrix_bytes=32768, max_nnz=100_000),
        fault_injector=flaky,
    )
    lines, expectations = build_request_lines(
        120, seed=1, oversize_bytes=32768
    )

    def corrupt_swap():
        with open(model_path, "wb") as fh:
            fh.write(b"corrupt candidate")
        st = os.stat(model_path)
        os.utime(model_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        return "corrupt swap"

    def good_swap():
        synthetic_frozen_selector(seed=11).save(model_path)
        st = os.stat(model_path)
        os.utime(model_path, ns=(st.st_atime_ns, st.st_mtime_ns + 2_000_000))
        return "good swap"

    report = run_serve_drill(
        server,
        lines,
        expectations,
        burst=8,
        actions={5: corrupt_swap, 10: good_swap},
    )
    assert report.ok, report.to_text()
    assert report.n_responses == len(lines)
    # The in-process drill measures its own p99 and prints it.
    assert report.p99_latency_ms is not None
    summary = report.to_text().splitlines()[0]
    assert summary.endswith(f", p99 {report.p99_latency_ms:.2f} ms")
    assert report.swap_events == ["corrupt swap", "good swap"]
    assert server.host.n_quarantined == 1
    assert server.host.n_reloads == 1
    assert set(report.by_status) <= {"ok", "invalid", "overloaded", "fallback"}


def test_matrix_by_path_predict(model_path, fake_clock, tmp_path, rng):
    server = make_server(model_path, fake_clock)
    dense = (rng.random((12, 9)) < 0.4) * rng.standard_normal((12, 9))
    from repro.formats import COOMatrix

    path = tmp_path / "m.mtx"
    path.write_text(matrix_market_string(COOMatrix.from_dense(dense)))
    response = server.handle_line(
        json.dumps({"id": "f", "op": "predict", "path": str(path)})
    )
    assert response["status"] == "ok"


def test_latency_tracking(model_path, fake_clock):
    server = make_server(model_path, fake_clock)
    assert server.p99_latency() == 0.0
    for i in range(5):
        server.handle_line(predict_line(i))
    assert server.p99_latency() > 0.0
    assert np.isfinite(server.p99_latency())
