"""Tail-latency resilience: deadlines, hedging, drain (§15).

The three mechanisms under test share one accounting contract — all
routed/completed/worker_lost bookkeeping happens once per *logical*
request in ``ServingTier._route``, so the conservation laws

- ``routed == completed + worker_lost``
- ``completed == primary_wins + hedge_wins``

hold exactly even when a request has two pendings in flight (hedged) or
never reaches a worker at all (expired deadline, draining refusal).
Most tests here drive the tier's pure decision methods or a tier whose
``_forward`` is stubbed, so they run without worker subprocesses; the
drain drill at the end boots a real fleet.
"""

from __future__ import annotations

import asyncio
import json
import math
import os

import pytest

from repro.serving.admission import AdmissionController
from repro.serving.drill import (
    _random_matrix_text,
    audit_tier_conservation,
    run_tier_drain_drill,
)
from repro.serving.frontend import ServingTier, TierConfig, WorkerHandle
from repro.serving.protocol import (
    CODE_DEADLINE,
    CODE_DRAINING,
    CODE_WORKER_LOST,
    invalid_response,
    parse_request_line,
)
from repro.serving.routing import HashRing
from repro.serving.server import SelectorServer, ServingConfig
from tests.serving.test_frontend import _boot_tier


def _tier(tmp_path, model_path, **overrides) -> ServingTier:
    """A tier with a published model but no worker processes."""
    config = TierConfig(
        model_path=model_path,
        run_dir=str(tmp_path / "run"),
        workers=2,
        **overrides,
    )
    return ServingTier(config)


def _fake_worker(tier: ServingTier, name: str) -> WorkerHandle:
    """Register a process-less worker on the tier's ring."""
    handle = WorkerHandle(
        name, os.path.join(tier.config.run_dir, f"{name}.sock")
    )
    tier.workers[name] = handle
    tier.ring.add(name)
    return handle


def _predict_line(request_id: str = "p0", **extra) -> str:
    return json.dumps({"id": request_id, "op": "predict", **extra})


def _key_routed_to(ring: HashRing, worker: str) -> str:
    for i in range(10_000):
        key = f"client:probe-{i}"
        if ring.assign(key) == worker:
            return key
    raise AssertionError(f"no key routed to {worker}")


# -- deadline propagation ------------------------------------------------------


def test_deadline_ms_parsing_tolerates_hostile_values():
    def budget(value) -> float | None:
        line = json.dumps({"id": "x", "op": "predict", "deadline_ms": value})
        return parse_request_line(line).budget_ms

    assert budget(250) == 250.0
    assert budget(0.5) == 0.5
    # A numeric budget <= 0 is kept: admission expires it immediately.
    assert budget(-3) == -3.0
    # Hostile values are ignored, never rejected.
    assert budget(True) is None
    assert budget("soon") is None
    assert budget(float("nan")) is None
    assert budget(float("inf")) is None
    assert budget(None) is None


def test_budget_seconds_min_combines_client_and_config(tmp_path, model_path):
    tier = _tier(tmp_path, model_path, request_timeout_seconds=60.0)
    no_budget = parse_request_line(_predict_line())
    tight = parse_request_line(_predict_line(deadline_ms=500))
    loose = parse_request_line(_predict_line(deadline_ms=120_000))
    assert tier._budget_seconds(no_budget) == 60.0
    assert tier._budget_seconds(tight) == 0.5
    assert tier._budget_seconds(loose) == 60.0

    unbounded = _tier(
        tmp_path / "u", model_path, request_timeout_seconds=0.0
    )
    assert unbounded._budget_seconds(no_budget) is None
    assert unbounded._budget_seconds(tight) == 0.5


def test_route_expires_deadline_before_any_forward(tmp_path, model_path):
    async def scenario():
        tier = _tier(tmp_path, model_path)
        _fake_worker(tier, "w0")

        async def must_not_forward(handle, request, trace_id, deadline=None):
            raise AssertionError("expired request reached a worker")

        tier._forward = must_not_forward
        request = parse_request_line(_predict_line(deadline_ms=0))
        response = await tier._route(request, "client:c0")
        return tier, response

    tier, response = asyncio.run(scenario())
    assert response["status"] == "overloaded"
    assert response["code"] == CODE_DEADLINE
    assert tier.n_deadline_exceeded == 1
    assert tier.n_routed == 0
    assert not audit_tier_conservation(tier)


def test_admission_min_combines_wire_budget(fake_clock):
    queue = AdmissionController(
        max_pending=8, deadline_seconds=5.0, clock=fake_clock
    )
    tight = parse_request_line(_predict_line("a", deadline_ms=100))
    loose = parse_request_line(_predict_line("b", deadline_ms=60_000))
    plain = parse_request_line(_predict_line("c"))
    for request in (tight, loose, plain):
        queue.offer(request)
    assert math.isclose(tight.deadline, fake_clock() + 0.1)
    assert math.isclose(loose.deadline, fake_clock() + 5.0)
    assert math.isclose(plain.deadline, fake_clock() + 5.0)

    # Past the wire budget the request is dead on dequeue, while the
    # configured 5s deadline alone would still have admitted it.
    fake_clock.advance(0.2)
    request, expired = queue.take()
    assert request is loose
    assert expired == [tight]
    assert queue.n_expired == 1


def test_admission_honors_budget_without_configured_deadline(fake_clock):
    queue = AdmissionController(
        max_pending=8, deadline_seconds=None, clock=fake_clock
    )
    budgeted = parse_request_line(_predict_line("a", deadline_ms=50))
    unbudgeted = parse_request_line(_predict_line("b"))
    queue.offer(budgeted)
    queue.offer(unbudgeted)
    assert math.isclose(budgeted.deadline, fake_clock() + 0.05)
    assert unbudgeted.deadline is None
    fake_clock.advance(1.0)
    request, expired = queue.take()
    assert request is unbudgeted
    assert expired == [budgeted]


def test_worker_pre_predict_deadline_gate(model_path, fake_clock):
    """The last gate: a budget that ran out *after* dequeue still wins."""
    fake_clock.advance(100.0)
    server = SelectorServer(
        ServingConfig(model_path=model_path), clock=fake_clock
    )
    request = parse_request_line(
        _predict_line("late", mtx=_random_matrix_text(0, 0))
    )
    request.deadline = fake_clock() - 0.001
    response = server.process(request)
    assert response["status"] == "overloaded"
    assert response["code"] == CODE_DEADLINE
    assert server.counters["deadline_exceeded"] == 1


# -- hedged dispatch -----------------------------------------------------------


def test_ring_successors_primary_first_and_distinct():
    ring = HashRing()
    for name in ("w0", "w1", "w2", "w3"):
        ring.add(name)
    for i in range(50):
        key = f"client:{i}"
        order = ring.successors(key)
        assert order[0] == ring.assign(key)
        assert len(order) == len(set(order)) == 4
        assert ring.successors(key, limit=2) == order[:2]
    assert HashRing().successors("anything") == []


def test_hedge_delay_gating(tmp_path, model_path):
    tier = _tier(tmp_path, model_path, hedge_ms=5.0, hedge_budget=0.05)
    # A single-worker ring has nowhere distinct to hedge to.
    _fake_worker(tier, "w0")
    assert tier._hedge_delay_seconds() is None
    _fake_worker(tier, "w1")
    assert tier._hedge_delay_seconds() == pytest.approx(0.005)
    tier._draining = True
    assert tier._hedge_delay_seconds() is None
    tier._draining = False

    off = _tier(tmp_path / "off", model_path, hedge_ms=0.0)
    _fake_worker(off, "w0")
    _fake_worker(off, "w1")
    assert off._hedge_delay_seconds() is None

    no_budget = _tier(tmp_path / "nb", model_path, hedge_ms=5.0,
                      hedge_budget=0.0)
    _fake_worker(no_budget, "w0")
    _fake_worker(no_budget, "w1")
    assert no_budget._hedge_delay_seconds() is None


def test_auto_hedge_delay_arms_at_p95_after_warmup(tmp_path, model_path):
    tier = _tier(tmp_path, model_path, hedge_warmup=32)
    _fake_worker(tier, "w0")
    _fake_worker(tier, "w1")
    for _ in range(31):
        tier._record_latency(0.010)
    assert tier._hedge_delay_seconds() is None, "armed before warmup"
    tier._record_latency(0.200)  # sample 32: recompute fires
    delay = tier._hedge_delay_seconds()
    assert delay is not None
    # p95 of 31x10ms + 1x200ms sits at the 10ms mass, floored at 1ms.
    assert 0.001 <= delay <= 0.200


def test_hedge_token_bucket_caps_burst(tmp_path, model_path):
    tier = _tier(tmp_path, model_path, hedge_budget=0.05)
    assert tier._hedge_burst == pytest.approx(1.6)
    assert tier._take_hedge_token()  # 1.6 -> 0.6
    assert not tier._take_hedge_token(), "bucket below one token"
    # Routed traffic refills at the budget rate, capped at the burst.
    tier._hedge_tokens = min(
        tier._hedge_burst, tier._hedge_tokens + 100 * 0.05
    )
    assert tier._hedge_tokens == pytest.approx(tier._hedge_burst)


def test_hedge_target_skips_primary_and_closed(tmp_path, model_path):
    tier = _tier(tmp_path, model_path)
    handles = {n: _fake_worker(tier, n) for n in ("w0", "w1", "w2")}
    key = "client:tenant-7"
    order = tier.ring.successors(key)
    primary = handles[order[0]]
    target = tier._hedge_target(key, primary)
    assert target is handles[order[1]]
    target.closed = True
    third = tier._hedge_target(key, primary)
    assert third is handles[order[2]]
    third.closed = True
    assert tier._hedge_target(key, primary) is None


def _stub_forward(tier, latencies: dict, responses: dict | None = None):
    """Instance-level ``_forward`` stub: per-worker latency + response."""

    async def fake_forward(handle, request, trace_id, deadline=None):
        await asyncio.sleep(latencies.get(handle.name, 0.0))
        if responses and handle.name in responses:
            return dict(responses[handle.name], id=request.id)
        return {"status": "ok", "id": request.id, "worker": handle.name}

    tier._forward = fake_forward


def test_hedge_rescues_slow_primary_first_response_wins(
    tmp_path, model_path
):
    async def scenario():
        tier = _tier(
            tmp_path, model_path, hedge_ms=5.0, hedge_budget=1.0
        )
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        key = _key_routed_to(tier.ring, "w0")
        _stub_forward(tier, {"w0": 0.25, "w1": 0.002})
        request = parse_request_line(_predict_line())
        response = await tier._route(request, key)
        await asyncio.sleep(0.3)  # let the losing branch finish cleanly
        return tier, response

    tier, response = asyncio.run(scenario())
    assert response["worker"] == "w1", "hedge response did not win"
    assert tier.n_hedges == 1
    assert tier.n_hedge_wins == 1 and tier.n_primary_wins == 0
    assert tier.n_routed == tier.n_completed == 1
    assert not audit_tier_conservation(tier)


def test_fast_primary_never_hedges(tmp_path, model_path):
    async def scenario():
        tier = _tier(
            tmp_path, model_path, hedge_ms=50.0, hedge_budget=1.0
        )
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        key = _key_routed_to(tier.ring, "w0")
        _stub_forward(tier, {"w0": 0.001, "w1": 0.001})
        responses = []
        for i in range(5):
            request = parse_request_line(_predict_line(f"p{i}"))
            responses.append(await tier._route(request, key))
        return tier, responses

    tier, responses = asyncio.run(scenario())
    assert all(r["worker"] == "w0" for r in responses)
    assert tier.n_hedges == 0
    assert tier.n_primary_wins == 5 and tier.n_hedge_wins == 0
    assert not audit_tier_conservation(tier)


def test_empty_token_bucket_blocks_hedging(tmp_path, model_path):
    async def scenario():
        tier = _tier(
            tmp_path, model_path, hedge_ms=2.0, hedge_budget=0.01
        )
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        tier._hedge_tokens = 0.0
        key = _key_routed_to(tier.ring, "w0")
        _stub_forward(tier, {"w0": 0.03, "w1": 0.001})
        request = parse_request_line(_predict_line())
        response = await tier._route(request, key)
        return tier, response

    tier, response = asyncio.run(scenario())
    assert response["worker"] == "w0", "hedged without a token"
    assert tier.n_hedges == 0 and tier.n_primary_wins == 1


def test_lost_branch_is_held_while_other_may_answer(tmp_path, model_path):
    """A worker_lost branch is a last resort, not an answer."""

    async def scenario():
        tier = _tier(
            tmp_path, model_path, hedge_ms=5.0, hedge_budget=1.0
        )
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        key = _key_routed_to(tier.ring, "w0")
        lost = invalid_response(CODE_WORKER_LOST, "gone", "x")
        # Primary dies (typed lost) after the hedge fires; the hedge
        # answers later but for real.
        _stub_forward(
            tier,
            {"w0": 0.02, "w1": 0.06},
            responses={"w0": lost},
        )
        request = parse_request_line(_predict_line())
        response = await tier._route(request, key)
        return tier, response

    tier, response = asyncio.run(scenario())
    assert response["status"] == "ok"
    assert response["worker"] == "w1"
    assert tier.n_worker_lost == 0 and tier.n_completed == 1
    assert tier.n_hedge_wins == 1
    assert not audit_tier_conservation(tier)


def test_both_branches_lost_surfaces_typed_loss(tmp_path, model_path):
    async def scenario():
        tier = _tier(
            tmp_path, model_path, hedge_ms=5.0, hedge_budget=1.0
        )
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        key = _key_routed_to(tier.ring, "w0")
        lost = invalid_response(CODE_WORKER_LOST, "gone", "x")
        _stub_forward(
            tier,
            {"w0": 0.02, "w1": 0.03},
            responses={"w0": lost, "w1": lost},
        )
        request = parse_request_line(_predict_line())
        response = await tier._route(request, key)
        return tier, response

    tier, response = asyncio.run(scenario())
    assert response["code"] == CODE_WORKER_LOST
    assert tier.n_worker_lost == 1 and tier.n_completed == 0
    assert tier.n_routed == 1
    assert not audit_tier_conservation(tier)


# -- graceful drain ------------------------------------------------------------


def test_draining_rejects_new_work_but_ops_answer(tmp_path, model_path):
    async def scenario():
        tier = _tier(tmp_path, model_path)
        _fake_worker(tier, "w0")
        _fake_worker(tier, "w1")
        _stub_forward(
            tier, {},
            responses={
                "w0": {"status": "ok", "state": "ok"},
                "w1": {"status": "ok", "state": "ok"},
            },
        )
        tier._draining = True
        refused = await tier.dispatch(_predict_line(), "conn:1")
        health = await tier.dispatch(
            json.dumps({"id": "h", "op": "healthz"}), "conn:1"
        )
        return tier, refused, health

    tier, refused, health = asyncio.run(scenario())
    assert refused["status"] == "overloaded"
    assert refused["code"] == CODE_DRAINING
    assert tier.n_draining_rejected == 1
    # An operator watching the drain still gets aggregated health.
    assert health["status"] == "ok"
    assert health.get("code") != CODE_DRAINING
    assert health["worker_states"] == {"w0": "ok", "w1": "ok"}


def test_begin_drain_is_idempotent_and_stops_the_tier(
    tmp_path, model_path
):
    async def scenario():
        tier = _tier(tmp_path, model_path, drain_timeout_seconds=1.0)
        tier.begin_drain()
        first_task = tier._drain_task
        tier.begin_drain()  # SIGTERM and shutdown may both fire
        assert tier._drain_task is first_task
        await asyncio.wait_for(first_task, timeout=10.0)
        return tier

    tier = asyncio.run(scenario())
    assert tier._stopping
    assert tier._stop_event.is_set()


def test_graceful_drain_drill_zero_dropped_requests(model_path, tmp_path):
    """Real fleet: deadline refusal, drain ack, typed straggler, exit."""

    async def scenario():
        tier, task, front = await _boot_tier(str(tmp_path), model_path, 2)
        reader, writer = await asyncio.open_unix_connection(front)
        try:
            # Deadline propagation end to end: an out-of-budget request
            # is refused at the front-end without consuming a worker.
            writer.write(
                (_predict_line(
                    "late", deadline_ms=0,
                    mtx=_random_matrix_text(0, 0),
                ) + "\n").encode()
            )
            await writer.drain()
            expired = json.loads(await reader.readline())
            # And a healthy one still completes.
            writer.write(
                (_predict_line(
                    "live", mtx=_random_matrix_text(1, 0)
                ) + "\n").encode()
            )
            await writer.drain()
            live = json.loads(await reader.readline())
        finally:
            writer.close()
        report = await run_tier_drain_drill(front, n_inflight=3, seed=1)
        await asyncio.wait_for(task, timeout=30.0)
        return tier, expired, live, report

    tier, expired, live, report = asyncio.run(scenario())
    assert expired["status"] == "overloaded"
    assert expired["code"] == CODE_DEADLINE
    assert live["status"] == "ok"
    assert not report.violations, report.violations
    assert tier.n_deadline_exceeded == 1
    assert tier.n_draining_rejected >= 1
    assert not audit_tier_conservation(tier)
