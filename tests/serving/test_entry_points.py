"""One request-line framing rule on every serving entry point.

The same corpus goes through ``SelectorServer.handle_line``,
``serve_stream`` over a real pipe, ``serve_socket`` and a 1-worker tier
front-end, and every request id must draw the same response bytes on
all four.  The corpus holds the drill's predicts and invalid lines
(without its time-varying ``health`` probes) plus the framing edge
cases: a line exactly at the byte cap, a line whose characters fit the
cap but whose UTF-8 bytes do not, truncated JSON, an over-limit line, an
over-limit line of bytes that are not UTF-8, a line trickled a few bytes
at a time and a last line with no newline.  Every transport decodes with
``"replace"``, so ``handle_line`` gets each line as they decode it, and
an undecodable byte counts as the three UTF-8 bytes of U+FFFD.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import socket
import threading
import time

from repro.serving.drill import _random_matrix_text, build_request_lines
from repro.serving.protocol import encode_response, too_large_response
from repro.serving.server import SelectorServer, ServingConfig
from tests.serving.test_frontend import _boot_tier, _ops
from tests.serving.test_server import connect, serve_socket_in_thread

#: The request-line byte cap every entry point runs under.
CAP = 2048


def _padded(request_id: str, pad: str, n_chars: int) -> str:
    """A predict line whose ``pad`` field, the character ``pad``
    repeated, makes it ``n_chars`` characters long."""
    line = json.dumps(
        {"id": request_id, "op": "predict", "mtx": _random_matrix_text(1, 9),
         "pad": ""},
        ensure_ascii=False,
    )
    return line[:-2] + pad * (n_chars - len(line)) + '"}'


def _corpus() -> tuple[list[bytes], str, str]:
    """(whole lines, the trickled line, the last line)."""
    lines, _ = build_request_lines(48, seed=2)
    lines = [line for line in lines if '"op": "health"' not in line]
    at_cap = _padded("at_cap", "x", CAP)
    assert len(at_cap.encode()) == CAP
    # Fits the cap counted in characters, not in UTF-8 bytes.
    wide = _padded("wide", "é", CAP - 48)
    assert len(wide) <= CAP < len(wide.encode())
    truncated = '{"id": "t", "op": "predict", "mtx": '
    over = json.dumps({"id": "over", "op": "predict", "mtx": "%" * 3 * CAP})
    lines += [at_cap, wide, truncated, over]
    # Over the cap in raw bytes already, none of them UTF-8.
    undecodable = b"\xff" * (CAP + 1)
    slow = json.dumps(
        {"id": "slow", "op": "predict", "mtx": _random_matrix_text(2, 9)}
    )
    last = json.dumps(
        {"id": "last", "op": "predict", "mtx": _random_matrix_text(3, 9)}
    )
    return [line.encode() for line in lines] + [undecodable], slow, last


def _send(write, lines: list[bytes], slow: str, last: str) -> None:
    """The corpus on a byte transport: ``slow`` five bytes at a time,
    ``last`` with no newline."""
    write(b"".join(line + b"\n" for line in lines))
    data = (slow + "\n").encode()
    for i in range(0, len(data), 5):
        write(data[i : i + 5])
        time.sleep(0.002)
    write(last.encode())


def _by_id(replies: list[bytes]) -> dict:
    """Response lines grouped by request id (null for refused lines)."""
    out: dict = {}
    for raw in replies:
        out.setdefault(json.loads(raw)["id"], []).append(raw)
    return {key: sorted(value) for key, value in out.items()}


def _server(model_path: str) -> SelectorServer:
    # The tier worker's configuration: `repro serve`'s defaults.
    return SelectorServer(ServingConfig(model_path=model_path, max_request_bytes=CAP))


def _over_socket(path: str, lines, slow, last) -> list[bytes]:
    """Send the corpus on one connection, half-close, read every reply."""
    with connect(path) as client:
        _send(client.sendall, lines, slow, last)
        client.shutdown(socket.SHUT_WR)
        with client.makefile("rb") as replies:
            return replies.read().splitlines()


def _via_handle_line(model_path, lines, slow, last) -> list[bytes]:
    server = _server(model_path)
    texts = [line.decode("utf-8", "replace") for line in lines]
    return [
        encode_response(server.handle_line(line)).encode()
        for line in [*texts, slow, last]
    ]


def _via_serve_stream(model_path, lines, slow, last) -> list[bytes]:
    read_fd, write_fd = os.pipe()

    def write(data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]

    def feed() -> None:
        try:
            _send(write, lines, slow, last)
        finally:
            os.close(write_fd)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    outstream = io.StringIO()
    with open(read_fd, "r", encoding="utf-8", errors="replace") as instream:
        assert _server(model_path).serve_stream(instream, outstream) == 0
    writer.join(timeout=30)
    return [line.encode() for line in outstream.getvalue().splitlines()]


def _via_serve_socket(model_path, tmp_path, lines, slow, last) -> list[bytes]:
    path = str(tmp_path / "s.sock")
    thread = serve_socket_in_thread(_server(model_path), path)
    try:
        replies = _over_socket(path, lines, slow, last)
    finally:
        with connect(path) as client:
            client.sendall(b'{"op": "shutdown"}\n')
            client.recv(4096)
        thread.join(timeout=30)
    assert not thread.is_alive()
    return replies


def _via_tier(model_path, tmp_path, lines, slow, last) -> list[bytes]:
    async def scenario():
        tier, task, front = await _boot_tier(
            str(tmp_path / "tier"), model_path, 1, max_request_bytes=CAP
        )
        try:
            return await asyncio.to_thread(
                _over_socket, front, lines, slow, last
            )
        finally:
            await _ops(front, "shutdown")
            await asyncio.wait_for(task, timeout=30.0)

    return asyncio.run(scenario())


def test_four_entry_points_frame_a_corpus_alike(model_path, tmp_path):
    lines, slow, last = _corpus()
    assert len(lines) + 2 < 64  # under the default admission queue
    expected = _by_id(_via_handle_line(model_path, lines, slow, last))

    # The framing cases answer as the rule says: the cap counts UTF-8
    # bytes without the newline, and an error names positions in the
    # line without it.
    assert json.loads(expected["at_cap"][0])["status"] in ("ok", "fallback")
    assert "wide" not in expected
    refused = [json.loads(raw) for raw in expected[None]]
    wide_bytes = len(lines[-4])
    assert too_large_response(wide_bytes, CAP) in refused
    over_bytes = len(lines[-2])
    assert too_large_response(over_bytes, CAP) in refused
    assert too_large_response(3 * len(lines[-1]), CAP) in refused
    truncated = lines[-3].decode()
    where = f"line 1 column {len(truncated) + 1} (char {len(truncated)})"
    assert any(
        r.get("code") == "bad_json" and r["error"].endswith(where)
        for r in refused
    )
    for request_id in ("slow", "last"):
        assert json.loads(expected[request_id][0])["status"] in ("ok", "fallback")

    paths = {
        "serve_stream": _via_serve_stream(model_path, lines, slow, last),
        "serve_socket": _via_serve_socket(
            model_path, tmp_path, lines, slow, last
        ),
        "tier": _via_tier(model_path, tmp_path, lines, slow, last),
    }
    for name, replies in paths.items():
        assert len(replies) == len(lines) + 2, name
        assert _by_id(replies) == expected, name
