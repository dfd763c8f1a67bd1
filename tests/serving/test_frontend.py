"""Multi-worker serving tier: equivalence, routing, chaos, aggregation.

Covers the tier contracts the single-process suite cannot:

- ``repro serve --workers 1`` is the PR-4/PR-7 server, byte for byte —
  the tier dispatch must not capture the single-worker path.
- A 2-worker tier answers the hostile drill mix with tier-widened
  expectations (worker loss may legally surface as a typed fallback).
- Killing a worker mid-burst yields typed ``worker_lost`` responses for
  its in-flight requests (no hangs), a respawn, and counters that
  reconcile: ``routed == completed + worker_lost``.
- A worker whose connection ends while its process lives on is killed
  when its name respawns, so it cannot outlive the tier.
- ``metrics`` / ``healthz`` aggregate across workers.
- Every line the front-end refuses itself is counted once in
  ``n_invalid``, and the tier audit reports a count that is off by one.
- A request line longer than asyncio's 64 KiB default stream limit
  gets a typed answer, never a dropped connection, and a worker answer
  longer than a small request cap still reaches the client.

These tests boot real worker subprocesses, so they are the slowest in
the serving suite; request counts are kept small.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.serving.drill import (
    _random_matrix_text,
    audit_tier_conservation,
    build_request_lines,
    synthetic_frozen_selector,
    tier_expectations,
)
from repro.serving.frontend import (
    ServingTier,
    TierConfig,
    TierError,
    drive_tier,
    read_line,
)
from repro.serving.protocol import (
    CODE_WORKER_LOST,
    REASON_WORKER_LOST,
    LineTooLong,
    STATUS_FALLBACK,
    STATUS_INVALID,
    too_large_response,
)
from repro.serving.server import SelectorServer, ServingConfig


def _src_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- single-worker equivalence -----------------------------------------------


def test_workers_1_cli_is_byte_identical_to_library_server(
    model_path, tmp_path
):
    """``--workers 1`` must leave the PR-4/PR-7 stdio server untouched."""
    lines = [
        json.dumps(
            {"id": f"p{i}", "op": "predict", "mtx": _random_matrix_text(i, 0)}
        )
        for i in range(6)
    ]
    lines.insert(2, "{broken json")
    lines.insert(4, json.dumps({"id": "bad", "op": "transmogrify"}))
    lines.append(
        json.dumps({"id": "fb", "op": "feedback", "format": "csr"})
    )
    lines.append(json.dumps({"id": "s", "op": "shutdown"}))
    stdin_text = "\n".join(lines) + "\n"
    # A real file (not StringIO/pipe) makes micro-batch grouping
    # deterministic and identical for all three runs: ``_drain_ready``
    # selects on the fd, and a regular file is always ready, so every
    # run sees the same single fully-drained burst.
    stdin_path = tmp_path / "requests.jsonl"
    stdin_path.write_text(stdin_text)

    # The library server under the CLI's default ServingConfig.
    server = SelectorServer(ServingConfig(model_path=model_path))
    outstream = io.StringIO()
    with open(stdin_path, "r", encoding="utf-8") as instream:
        rc = server.serve_stream(instream, outstream)
    expected = outstream.getvalue()

    def run_cli(*extra: str) -> subprocess.CompletedProcess:
        with open(stdin_path, "r", encoding="utf-8") as stdin:
            return subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--model", model_path, *extra],
                stdin=stdin, capture_output=True, text=True,
                env=_src_env(), timeout=120,
            )

    legacy = run_cli()
    tier_flagged = run_cli("--workers", "1")
    assert legacy.returncode == rc == 0, legacy.stderr
    assert tier_flagged.returncode == 0, tier_flagged.stderr
    assert legacy.stdout == expected
    assert tier_flagged.stdout == expected
    # Sanity: the runs actually answered every line before shutdown.
    assert len(legacy.stdout.splitlines()) == len(lines)


# -- multi-worker tier scenarios ---------------------------------------------


async def _boot_tier(
    run_dir: str, model_path: str, workers: int, **config
):
    tier = ServingTier(
        TierConfig(
            model_path=model_path,
            run_dir=run_dir,
            workers=workers,
            boot_timeout_seconds=120.0,
            **config,
        )
    )
    front = os.path.join(run_dir, "front.sock")
    task = asyncio.ensure_future(tier.run_socket(front))
    for _ in range(2400):
        if os.path.exists(front):
            break
        if task.done():
            task.result()
        await asyncio.sleep(0.05)
    else:
        raise TimeoutError("tier front-end socket never appeared")
    return tier, task, front


async def _ops(front: str, *ops: str) -> list[dict]:
    reader, writer = await asyncio.open_unix_connection(front)
    try:
        for op in ops:
            writer.write(
                (json.dumps({"id": f"__{op}", "op": op}) + "\n").encode()
            )
        await writer.drain()
        return [json.loads(await reader.readline()) for _ in ops]
    finally:
        writer.close()


def test_two_worker_tier_answers_hostile_drill_and_aggregates(
    model_path, tmp_path
):
    lines, expectations = build_request_lines(36, seed=1)
    expectations = tier_expectations(expectations)

    async def scenario():
        tier, task, front = await _boot_tier(str(tmp_path), model_path, 2)
        try:
            pairs = await drive_tier(front, lines, connections=4)
            metrics, healthz = await _ops(front, "metrics", "healthz")
        finally:
            (await _ops(front, "shutdown"))
            await asyncio.wait_for(task, timeout=30.0)
        return tier, pairs, metrics, healthz

    tier, pairs, metrics, healthz = asyncio.run(scenario())

    from repro.serving.drill import audit_tier_responses

    report = audit_tier_responses(pairs, expectations)
    assert not report.violations, report.violations
    assert len(pairs) == len(lines)

    # metrics aggregates worker snapshots under the tier's own gauges.
    assert metrics["workers"] == 2
    snap = metrics["metrics"]
    assert snap["serving.workers"]["value"] == 2.0
    assert snap["serving.routed"]["value"] >= 1.0
    assert "quantiles_ms" in metrics

    # healthz reports one state per worker plus the tier rollup.
    assert healthz["state"] == "ok"
    assert len(healthz["worker_states"]) == 2
    assert set(healthz["worker_states"].values()) == {"ok"}

    # Conservation: every ring-routed request is accounted for, and
    # every line the front-end refused itself is counted once.
    assert tier.n_routed == tier.n_completed + tier.n_worker_lost
    assert tier.n_invalid >= 1
    assert audit_tier_conservation(tier, lines) == []


def test_tier_audit_reports_an_invalid_count_off_by_one(
    model_path, tmp_path
):
    """``n_invalid`` must equal the lines the front-end's parse refuses."""
    tier = ServingTier(
        TierConfig(
            model_path=model_path,
            run_dir=str(tmp_path / "run"),
            max_request_bytes=64,
        )
    )
    at_cap = json.dumps({"id": "c", "op": "health", "pad": ""})
    at_cap = at_cap[:-2] + "x" * (64 - len(at_cap)) + '"}'
    assert len(at_cap) == 64  # its newline does not count: answered
    over_cap = at_cap[:-2] + 'x"}'
    lines = [
        "{broken json",
        "",
        "   ",
        json.dumps({"id": "u", "op": "transmogrify"}),
        "[1]",
        "x" * 100,  # over the stream limit: discarded, then answered
        at_cap,
        over_cap,
    ]

    async def scenario():
        reader = asyncio.StreamReader(limit=tier._stream_limit)
        reader.feed_data("".join(line + "\n" for line in lines).encode())
        reader.feed_eof()
        responses = []
        while True:
            response = await tier._next_response(reader, "conn:1")
            if response is None:
                return responses
            responses.append(response)

    responses = asyncio.run(scenario())
    assert [r["status"] for r in responses] == (
        [STATUS_INVALID] * 4 + ["ok", STATUS_INVALID]
    )
    assert responses[-1] == too_large_response(65, 64)
    assert tier.n_invalid == 5
    assert audit_tier_conservation(tier, lines) == []
    tier.n_invalid += 1
    (violation,) = audit_tier_conservation(tier, lines)
    assert violation.startswith("invalid conservation: invalid=6 != 5")
    tier.n_invalid -= 2
    (violation,) = audit_tier_conservation(tier, lines)
    assert violation.startswith("invalid conservation: invalid=4 != 5")


def test_respawn_after_a_failed_boot_keeps_the_lost_name(
    model_path, tmp_path
):
    """A lost worker's name survives a failed respawn boot (DESIGN §14):
    the retry boots ``w0`` again, not a fresh ``w2``."""
    tier = ServingTier(
        TierConfig(model_path=model_path, run_dir=str(tmp_path / "run"))
    )
    tier.workers["w1"] = None
    tier._next_worker = 2
    tier._lost_names.add("w0")
    boots = []

    async def spawn(name=None):
        if name is None:
            name = f"w{tier._next_worker}"
            tier._next_worker += 1
        boots.append(name)
        if boots == ["w0"]:
            raise TierError("w0 exited before serving")
        tier.workers[name] = None

    tier._spawn_worker = spawn
    asyncio.run(tier._ensure_capacity())  # the boot fails
    assert set(tier.workers) == {"w1"} and tier.n_respawned == 0
    asyncio.run(tier._ensure_capacity())  # the watch loop's retry
    assert boots == ["w0", "w0"]
    assert set(tier.workers) == {"w0", "w1"}
    assert tier.n_respawned == 1 and not tier._lost_names


def test_tier_audit_report_prints_no_unmeasured_p99():
    """A tier audit measures no latency, so its text names no p99."""
    from repro.serving.drill import audit_tier_responses

    pairs = [
        ('{"id": "a", "op": "predict"}', {"id": "a", "status": "ok"}),
        ('{"id": "b", "op": "predict"}', {"id": "b", "status": "fallback"}),
    ]
    report = audit_tier_responses(pairs)
    assert report.ok
    assert report.p99_latency_ms is None
    text = report.to_text()
    assert "p99" not in text
    assert text.splitlines()[0] == "serving drill: 2 requests, 2 responses"
    # The CLI fills it from the tier's merged latency histogram.
    report.p99_latency_ms = 3.25
    assert report.to_text().splitlines()[0].endswith(", p99 3.25 ms")


def test_worker_kill_mid_burst_types_errors_and_respawns(
    model_path, tmp_path
):
    lines = [
        json.dumps(
            {
                "id": f"p{i}",
                "op": "predict",
                "client": f"tenant-{i % 8}",
                "mtx": _random_matrix_text(i, 2),
            }
        )
        for i in range(30)
    ]

    async def scenario():
        tier, task, front = await _boot_tier(str(tmp_path), model_path, 2)
        try:
            actions = {10: lambda: tier.kill_worker()}
            pairs = await drive_tier(
                front, lines, connections=4, actions=actions
            )
            for _ in range(400):  # wait for the respawn to rejoin
                if len(tier.workers) >= 2:
                    break
                await asyncio.sleep(0.05)
            fleet = len(tier.workers)
        finally:
            (await _ops(front, "shutdown"))
            await asyncio.wait_for(task, timeout=30.0)
        return tier, pairs, fleet

    tier, pairs, fleet = asyncio.run(scenario())

    assert len(pairs) == len(lines), "a connection hung or dropped"
    lost = 0
    for line, response in pairs:
        status = response["status"]
        if status == STATUS_FALLBACK and (
            response.get("reason") == REASON_WORKER_LOST
        ):
            lost += 1
            assert response.get("format"), response
        elif status == STATUS_INVALID:
            assert response.get("code") == CODE_WORKER_LOST, response
            lost += 1
        else:
            assert status == "ok", response

    assert tier.n_respawned >= 1, "killed worker was never respawned"
    assert fleet == 2, "fleet did not return to its target size"
    assert tier.n_worker_lost == lost
    assert tier.n_routed == tier.n_completed + tier.n_worker_lost


def test_a_worker_whose_connection_ends_does_not_outlive_the_tier(
    model_path, tmp_path
):
    """The front-end's connection to a worker can end while the worker
    process lives on.  The name respawns, so the old process must be
    killed then: ``stop()`` reaps only the fleet it shuts down."""

    async def scenario():
        tier, task, front = await _boot_tier(str(tmp_path), model_path, 1)
        old = tier.workers["w0"]
        try:
            old.writer.transport.abort()
            for _ in range(2400):  # wait for the respawn to rejoin
                if tier.workers.get("w0") not in (None, old):
                    break
                await asyncio.sleep(0.05)
            respawned = tier.workers.get("w0") not in (None, old)
        finally:
            await _ops(front, "shutdown")
            await asyncio.wait_for(task, timeout=30.0)
        return tier, old.proc, respawned

    tier, proc, respawned = asyncio.run(scenario())
    try:
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        assert respawned and tier.n_respawned == 1
        assert proc.poll() is not None, "the old w0 outlived the tier"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


def test_worker_keeps_serving_past_a_bitflipped_store_version(
    model_path, tmp_path
):
    """A corrupt published version never answers a request in a worker.

    The front-end publishes a version whose array file is bit-flipped
    after its digest was recorded.  The worker's host quarantines it on
    the next request and keeps answering with the model it had; its own
    ``health`` shows the old sha, one quarantine and no fallback (the
    old model never stopped serving, so nothing needed bridging).
    """
    predict = json.dumps(
        {"id": "p", "op": "predict", "mtx": _random_matrix_text(0, 0)}
    )

    async def scenario():
        tier, task, front = await _boot_tier(str(tmp_path), model_path, 1)
        try:
            old_sha = tier.store.current_sha()
            # The worker reads CURRENT only while answering, and no
            # request is in flight: it cannot attach before the flip.
            vdir = tier.store.publish(
                synthetic_frozen_selector(seed=99, n_centroids=7), "f" * 64
            )
            path = os.path.join(vdir, "centroids.npy")
            with open(path, "r+b") as fh:
                fh.seek(os.path.getsize(path) // 2)
                fh.write(b"\xff\x00\xff\x00")
            pairs = await drive_tier(front, [predict, predict], connections=1)
            (health,) = await _ops(front, "health")
        finally:
            (await _ops(front, "shutdown"))
            await asyncio.wait_for(task, timeout=30.0)
        return old_sha, pairs, health

    old_sha, pairs, health = asyncio.run(scenario())
    expected = SelectorServer(ServingConfig(model_path=model_path)).handle_line(
        predict
    )
    assert [response for _, response in pairs] == [expected, expected]
    model = health["workers"]["w0"]["model"]
    assert model["sha256"] == old_sha
    assert model["degraded"] is False
    assert model["quarantined"] == 1
    assert model["fallbacks"] == 0


# -- stream line limit -------------------------------------------------------


def _lines(limit: int, chunks: list[bytes], reads: int) -> list:
    """Results of ``reads`` calls to read_line over fed ``chunks``."""

    async def scenario():
        reader = asyncio.StreamReader(limit=limit)

        async def feed():
            for chunk in chunks:
                await asyncio.sleep(0)
                reader.feed_data(chunk)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        out = []
        for _ in range(reads):
            try:
                out.append(await read_line(reader))
            except LineTooLong as exc:
                out.append(exc.n_bytes)
        await feeder
        return out

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "chunks",
    [
        [b"short\n" + b"x" * 40 + b"\nnext\n"],
        [b"short\n", b"x" * 30, b"x" * 10, b"\nne", b"xt\n"],
    ],
    ids=["whole", "trickled"],
)
def test_read_line_discards_an_over_limit_line_through_its_newline(chunks):
    assert _lines(16, chunks, 4) == [b"short\n", 40, b"next\n", b""]


def test_read_line_over_limit_line_at_eof():
    assert _lines(16, [b"y" * 40], 2) == [40, b""]


def test_tier_answers_lines_past_asyncios_default_limit(model_path, tmp_path):
    """Over 64 KiB under the cap: answered; over the cap: typed refusal.

    Either way the connection survives for the next request, and the
    tier counts the lines it refused itself (over the cap, or not JSON).
    """
    cap = 128 * 1024
    big = json.dumps({"id": "big", "op": "health", "pad": "x" * 70_000})
    huge = json.dumps({"id": "huge", "op": "health", "pad": "x" * 4 * cap})
    malformed = '{"id": "bad", "op": '
    follow_up = json.dumps({"id": "after", "op": "healthz"})

    async def scenario():
        tier, task, front = await _boot_tier(
            str(tmp_path), model_path, 1, max_request_bytes=cap
        )
        reader, writer = await asyncio.open_unix_connection(front)
        try:
            answers = []
            for line in (big, huge, malformed, follow_up):
                writer.write((line + "\n").encode())
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
        finally:
            writer.close()
            (await _ops(front, "shutdown"))
            await asyncio.wait_for(task, timeout=30.0)
        return tier, answers

    tier, (big_answer, huge_answer, bad_answer, after) = asyncio.run(scenario())
    assert big_answer["id"] == "big" and big_answer["status"] == "ok"
    assert huge_answer == too_large_response(len(huge), cap)
    # The same bytes the single-process server gives for those lines.
    server = SelectorServer(
        ServingConfig(model_path=model_path, max_request_bytes=cap)
    )
    assert server.handle_line(huge + "\n") == huge_answer
    assert bad_answer["status"] == "invalid"
    assert server.handle_line(malformed + "\n") == bad_answer
    assert after["id"] == "after" and after["status"] == "ok"
    assert tier.n_invalid == 2
    assert tier.n_routed == 0
    assert tier.tier_metrics()["serving.invalid"]["value"] == 2.0


def test_tier_reads_worker_answers_longer_than_the_request_cap(
    model_path, tmp_path
):
    """The request cap bounds client lines, not the workers' answers.

    Under a 64-byte cap, ``healthz`` and ``metrics`` (built from the
    worker's own answer) and a routed request whose id the answer quotes
    JSON-escaped all draw worker lines far over 64 bytes; the worker
    stays connected and every request is answered.
    """
    quoted = '{"op": "predict", "id": "' + "é" * 12 + '"}'
    assert len(quoted.encode()) <= 64

    async def scenario():
        tier, task, front = await _boot_tier(
            str(tmp_path), model_path, 1, max_request_bytes=64
        )
        try:
            reader, writer = await asyncio.open_unix_connection(front)
            answers = []
            for line in (
                '{"id": "h", "op": "healthz"}',
                '{"id": "m", "op": "metrics"}',
                quoted,
            ):
                writer.write((line + "\n").encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), 30.0)
                answers.append(json.loads(raw))
            writer.close()
        finally:
            await _ops(front, "shutdown")
            await asyncio.wait_for(task, timeout=30.0)
        return tier, answers

    tier, (healthz, metrics, routed) = asyncio.run(scenario())
    assert healthz["state"] == "ok"
    assert healthz["worker_states"] == {"w0": "ok"}
    assert metrics["workers"] == 1
    assert routed["code"] == "missing_field"
    assert routed["id"] == "é" * 12
    assert tier.n_routed == tier.n_completed == 1
    assert tier.n_worker_lost == 0
