"""Asyncio front-end of the horizontally scaled serving tier.

``repro serve --workers N`` (N >= 2) no longer answers requests in the
accepting process.  This module runs the **front-end**: an asyncio JSONL
server that parses each incoming line just enough to type it, then

- answers protocol-level rejections itself (same
  :func:`~repro.serving.protocol.parse_request_line` as a worker, so the
  typed error bytes are identical),
- routes ``predict``/``feedback`` to one of N worker *processes* over a
  consistent-hash ring keyed on the client identity
  (:mod:`repro.serving.routing`), so per-client admission and breaker
  state stay local to one worker,
- aggregates the tier-wide ops (``metrics``/``healthz``/``health``
  merge every worker's answer via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`;
  ``reload`` shadow-validates once and flips all workers atomically
  through the shared :class:`~repro.serving.modelstore.ModelStore`).

Each worker is a ``repro serve`` subprocess running the unchanged
PR-4/PR-7 :class:`~repro.serving.server.SelectorServer` over its own
Unix socket, attached read-only to the shared mmap model store.  The
front-end holds one multiplexed connection per worker; because a worker
answers strictly in order, responses are matched FIFO against the
in-flight queue.  When a worker dies, every request in flight on it
receives a *typed* error response immediately (``fallback`` with reason
``worker_lost`` for predict/feedback, ``invalid`` with code
``worker_lost`` otherwise) — never a hang — and the worker is respawned
under its old ring name, so key movement is bounded to exactly the keys
it owned.  The fleet size is fixed at ``--workers``: a respawn restores
it, nothing grows or shrinks it.

On top of routing, the front-end runs the tail-latency resilience layer
(DESIGN §15):

- **Deadline propagation** — each routed request carries a remaining
  latency budget (``deadline_ms``, the client's own budget min-combined
  with ``--request-timeout``); an expired request answers
  ``deadline_exceeded`` without touching a worker, and the worker's
  admission queue honors the propagated remainder.
- **Hedged dispatch** — a primary that has not answered within the
  hedge delay (rolling p95 of completed requests, or ``--hedge-ms``)
  is re-dispatched to the next distinct ring worker; the first real
  response wins and the loser's answer is discarded on arrival.  Hedge
  volume is capped by a token bucket (``--hedge-budget`` of routed
  traffic), and all accounting is per *logical* request, so
  ``routed == completed + worker_lost`` and
  ``completed == primary_wins + hedge_wins`` hold exactly.
- **Graceful drain** — SIGTERM or the ``shutdown`` op stops accepting
  (new predict/feedback draw a typed ``draining`` refusal), lets
  in-flight requests finish up to ``--drain-timeout``, shuts workers
  down cleanly, flushes the access log, and exits 0.
"""

from __future__ import annotations

import asyncio
import codecs
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs import TELEMETRY
from repro.obs.context import new_trace_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import DEFAULT_QUANTILES, quantile_key, snapshot_quantile
from repro.serving.modelstore import ModelStore
from repro.serving.protocol import (
    CODE_DEADLINE,
    CODE_DRAINING,
    CODE_WORKER_LOST,
    REASON_WORKER_LOST,
    LineTooLong,
    RequestParseError,
    encode_response,
    fallback_response,
    invalid_response,
    line_bytes,
    ok_response,
    overloaded_response,
    parse_request_line,
    too_large_response,
)
from repro.serving.reload import RELOAD_SWAPPED, FileLoader, ModelHost
from repro.serving.routing import HashRing

#: Ops the front-end answers itself (everything else is routed).
TIER_OPS = ("health", "healthz", "metrics", "reload", "shutdown")

#: Cadence of the watch loop: the hot-reload check and the respawn retry.
WATCH_INTERVAL_SECONDS = 0.25

#: Line limit of the front-end's connections to its workers.  The request
#: cap does not bound a worker's answer: ``metrics`` carries a registry
#: snapshot, and an error answer quotes its request's id or a line of the
#: matrix file it read, JSON-escaped.  An answer over the limit would end
#: the worker's connection; the workers are the front-end's own children,
#: so the limit only stops a runaway line.
WORKER_LINE_LIMIT = 1 << 30


class TierError(RuntimeError):
    """The tier could not be brought up (worker boot failure)."""


async def read_line(reader: asyncio.StreamReader) -> bytes:
    """``reader.readline()`` that survives a line over the stream limit.

    asyncio's ``readline`` raises ``ValueError`` on such a line and may
    leave its tail in the buffer, to be read as the next line.  Here the
    whole line is discarded through its newline (or EOF) and
    :class:`LineTooLong` reports its length without the newline, so the
    conversation goes on with the next line.  A stream whose limit is
    the request cap thus returns exactly the lines whose bytes, newline
    excluded, fit the cap: the count :func:`parse_request_line` makes.

    The length is that of the line decoded with ``"replace"``, as the
    front-end decodes the lines it keeps and the single-process entry
    points decode every line: an undecodable byte counts as the three
    UTF-8 bytes of U+FFFD.  The discarded chunks are decoded one at a
    time, so counting holds no more than one chunk in memory.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # EOF: the last, unterminated line (or b"")
    except asyncio.LimitOverrunError as exc:
        skip = exc.consumed
    decoder = codecs.getincrementaldecoder("utf-8")("replace")
    n_bytes = 0
    try:
        while True:
            chunk = await reader.readexactly(skip)
            n_bytes += line_bytes(decoder.decode(chunk))
            try:
                chunk = await reader.readuntil(b"\n")
                n_bytes += line_bytes(decoder.decode(chunk, final=True))
                break
            except asyncio.LimitOverrunError as exc:
                skip = exc.consumed
    except asyncio.IncompleteReadError as exc:
        n_bytes += line_bytes(decoder.decode(exc.partial, final=True))
    raise LineTooLong(n_bytes)


@dataclass(frozen=True)
class TierConfig:
    """Knobs of one serving tier (front-end + workers)."""

    model_path: str
    #: Scratch directory owning the model store and worker sockets.
    run_dir: str
    #: Fleet size, held for the tier's lifetime (a dead worker respawns).
    workers: int = 2
    #: Extra ``repro serve`` CLI flags forwarded verbatim to each worker
    #: (queue size, breaker knobs, ... — the worker is the unchanged
    #: single-process server).
    worker_args: tuple[str, ...] = ()
    fallback_format: str = "csr"
    max_request_bytes: int = 16 * 1024 * 1024
    #: Watch the model path and publish validated candidates tier-wide.
    hot_reload: bool = True
    #: Patience for one routed request before the worker is presumed
    #: wedged and killed (its in-flight load then gets typed errors).
    #: Also the front-end-stamped latency budget: every routed request
    #: carries ``min(this, client deadline_ms)`` as its remaining
    #: ``deadline_ms`` on the worker wire.
    request_timeout_seconds: float = 60.0
    boot_timeout_seconds: float = 60.0
    #: Hedge delay override in milliseconds.  ``None`` (default) uses
    #: the rolling p95 of completed-request latency — no hedging until
    #: ``hedge_warmup`` samples exist; <= 0 disables hedging.
    hedge_ms: float | None = None
    #: Token-bucket hedge budget as a fraction of routed traffic
    #: (0.05 = at most ~5% of requests hedge); <= 0 disables hedging.
    hedge_budget: float = 0.05
    #: Completed-request samples required before auto-p95 hedging arms.
    hedge_warmup: int = 32
    #: Patience for in-flight requests when SIGTERM/``shutdown`` drains.
    drain_timeout_seconds: float = 10.0
    #: Non-CURRENT model-store versions kept by GC after each publish
    #: (< 1 disables pruning).
    store_keep: int = 2
    #: Per-worker-name environment overrides, merged over ``extra_env``
    #: — how the chaos drill and the tail bench make exactly one worker
    #: slow (``{"w0": {"REPRO_FAULTS": "latency=1,delay=0.05"}}``).
    worker_env: dict = field(default_factory=dict)


@dataclass
class _Pending:
    """One request in flight on a worker connection (FIFO-matched).

    Deliberately carries no accounting flags: a hedged logical request
    has up to two pendings in flight at once, so all
    routed/completed/worker_lost bookkeeping happens once per *logical*
    request in :meth:`ServingTier._route`, never per pending.
    """

    future: asyncio.Future
    op: str
    request_id: str | None


class WorkerHandle:
    """Front-end bookkeeping for one worker process + its connection."""

    def __init__(self, name: str, socket_path: str) -> None:
        self.name = name
        self.socket_path = socket_path
        self.proc: subprocess.Popen | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.pending: deque[_Pending] = deque()
        self.lock = asyncio.Lock()
        self.reader_task: asyncio.Task | None = None
        #: Set (synchronously with the pending flush) when the worker is
        #: gone; dispatchers that already hold a reference must check it
        #: before enqueueing.
        self.closed = False

    @property
    def inflight(self) -> int:
        return len(self.pending)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()


class ServingTier:
    """The asyncio front-end plus its worker fleet."""

    def __init__(
        self,
        config: TierConfig,
        extra_env: dict[str, str] | None = None,
        access_log=None,
    ) -> None:
        self.config = config
        self.extra_env = dict(extra_env or {})
        self.access_log = access_log
        os.makedirs(config.run_dir, exist_ok=True)
        self.store = ModelStore(os.path.join(config.run_dir, "store"))
        # Line limit of every client stream the front-end reads: any
        # line under the request cap fits (asyncio's default is 64 KiB).
        self._stream_limit = max(1, config.max_request_bytes)
        # The tier's single shadow validator: only what this host swaps
        # in is ever published to the store the workers attach to.
        self.host = ModelHost(FileLoader(config.model_path))
        if self.host.active.selector is not None:
            self.store.publish(
                self.host.active.selector, self.host.active.sha256
            )
            self.store.prune(config.store_keep)
        self.ring = HashRing()
        self.workers: dict[str, WorkerHandle] = {}
        self._next_worker = 0
        self._conn_counter = 0
        #: Names of workers that died, awaiting respawn under the same
        #: ring position (bounded key movement).
        self._lost_names: set[str] = set()
        #: Serializes fleet changes: the reader-loop respawn trigger and
        #: the periodic watch loop must not both spawn for one death.
        self._capacity_lock: asyncio.Lock | None = None
        self._stopping = False
        self._stopped = False
        self._draining = False
        self._stop_event = asyncio.Event()
        self._watch_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self.started_at = time.monotonic()
        # Tier counters; `routed == completed + worker_lost` and
        # `completed == primary_wins + hedge_wins` are the
        # reconciliations the chaos drill asserts.
        self.n_routed = 0
        self.n_completed = 0
        self.n_worker_lost = 0
        self.n_respawned = 0
        self.n_rebalanced = 0
        self.n_timeouts = 0
        self.n_hedges = 0
        self.n_hedge_wins = 0
        self.n_primary_wins = 0
        self.n_deadline_exceeded = 0
        self.n_draining_rejected = 0
        #: Lines the front-end answered ``invalid`` itself (parse failures
        #: and over-limit lines); none of them reaches a worker.
        self.n_invalid = 0
        # Hedge token bucket: tokens accrue per routed request at the
        # budget rate; each hedge spends one.  The burst cap bounds how
        # many hedges a latency clump can fire back-to-back.
        self._hedge_burst = max(1.0, 32.0 * max(config.hedge_budget, 0.0))
        self._hedge_tokens = self._hedge_burst
        # Rolling completed-request latencies feeding the auto (p95)
        # hedge delay; recomputed every 16 samples once warmed up.
        self._latency_samples: deque[float] = deque(maxlen=512)
        self._samples_seen = 0
        self._auto_hedge_delay: float | None = None

    # -- worker lifecycle ---------------------------------------------------

    def _worker_command(self, name: str, socket_path: str) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--model",
            self.config.model_path,
            "--socket",
            socket_path,
            "--worker-store",
            self.store.root,
            "--worker-id",
            name,
            *self.config.worker_args,
        ]

    async def _spawn_worker(self, name: str | None = None) -> WorkerHandle:
        """Boot one worker process and connect to its socket."""
        if name is None:
            name = f"w{self._next_worker}"
            self._next_worker += 1
        socket_path = os.path.join(self.config.run_dir, f"{name}.sock")
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        handle = WorkerHandle(name, socket_path)
        handle.proc = subprocess.Popen(
            self._worker_command(name, socket_path),
            # Per-name env wins over tier-wide extra_env, and a respawn
            # under the old name re-applies it — a chaos-slow worker
            # stays slow across its own death.
            env={
                **os.environ,
                **self.extra_env,
                **self.config.worker_env.get(name, {}),
            },
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.config.boot_timeout_seconds
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    socket_path, limit=WORKER_LINE_LIMIT
                )
                break
            except (OSError, ValueError):
                if handle.proc.poll() is not None:
                    raise TierError(
                        f"worker {name} exited with "
                        f"{handle.proc.returncode} before serving"
                    )
                if time.monotonic() > deadline:
                    handle.kill()
                    raise TierError(
                        f"worker {name} did not open {socket_path} within "
                        f"{self.config.boot_timeout_seconds}s"
                    )
                await asyncio.sleep(0.05)
        handle.reader, handle.writer = reader, writer
        handle.reader_task = asyncio.ensure_future(self._reader_loop(handle))
        self.workers[name] = handle
        self.ring.add(name)
        self.n_rebalanced += 1
        TELEMETRY.inc("serving.rebalanced")
        TELEMETRY.gauge_set("serving.workers", float(len(self.workers)))
        return handle

    async def _reader_loop(self, handle: WorkerHandle) -> None:
        """Match one worker's response lines FIFO against its in-flight."""
        try:
            while True:
                line = await handle.reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:  # pragma: no cover - defensive
                    response = invalid_response(
                        "internal_error",
                        f"worker {handle.name} sent an unparseable response",
                    )
                if handle.pending:
                    pend = handle.pending.popleft()
                    if not pend.future.done():
                        pend.future.set_result(response)
        except (ConnectionError, OSError):  # pragma: no cover - defensive
            pass
        finally:
            self._flush_worker(handle)
            if not self._stopping:
                self._lost_names.add(handle.name)
                asyncio.ensure_future(self._ensure_capacity())

    def _flush_worker(self, handle: WorkerHandle) -> None:
        """Synchronously fail everything in flight on a gone worker.

        Runs in one event-loop step (no awaits), so a dispatcher either
        enqueued before the flush — and is answered here — or observes
        ``handle.closed`` afterwards and never enqueues.  Every response
        is *typed*: predict/feedback still carry a safe format.
        """
        handle.closed = True
        self.workers.pop(handle.name, None)
        if not self._stopped:
            # A connection can end while its process lives on, and the
            # name respawns: nothing would ever stop the old process.
            # stop() reaps the workers it shuts down itself.
            handle.kill()
        if handle.name in self.ring:
            self.ring.remove(handle.name)
            self.n_rebalanced += 1
            TELEMETRY.inc("serving.rebalanced")
        while handle.pending:
            pend = handle.pending.popleft()
            if pend.future.done():
                continue
            if pend.op in ("predict", "feedback"):
                response = fallback_response(
                    self.config.fallback_format,
                    REASON_WORKER_LOST,
                    pend.request_id,
                    worker=handle.name,
                )
            else:
                response = invalid_response(
                    CODE_WORKER_LOST,
                    f"worker {handle.name} died with the request in flight",
                    pend.request_id,
                )
            pend.future.set_result(response)
        if handle.writer is not None:
            handle.writer.close()
        TELEMETRY.gauge_set("serving.workers", float(len(self.workers)))

    async def _ensure_capacity(self) -> None:
        """Spawn (serialized) until the alive count is ``workers`` again.

        Lost names are respawned first, and a respawned worker keeps its
        old ring position: the keys that moved off it while it was dead
        move back, and nothing else moves — the bounded-movement half of
        the routing contract.  A name leaves the lost set only once its
        boot succeeds, so the watch loop's retry after a failed boot
        reuses it.  The lock keeps the reader-loop trigger and the watch
        loop from double-spawning for one death.
        """
        if self._capacity_lock is None:
            self._capacity_lock = asyncio.Lock()
        async with self._capacity_lock:
            while (
                not self._stopping
                and len(self.workers) < self.config.workers
            ):
                name = min(self._lost_names, default=None)
                try:
                    await self._spawn_worker(name)
                except TierError:
                    return
                if name is not None:
                    self._lost_names.discard(name)
                    self.n_respawned += 1
                    TELEMETRY.inc("serving.respawned")

    async def _watch_loop(self) -> None:
        """Watch the model path and retry any respawn a boot failure left."""
        while not self._stopping:
            await asyncio.sleep(WATCH_INTERVAL_SECONDS)
            if self._stopping:
                return
            if self.config.hot_reload:
                self.check_reload()
            await self._ensure_capacity()

    def kill_worker(self, name: str | None = None) -> str | None:
        """SIGKILL one alive worker (chaos hook); returns its name."""
        if name is None and self.workers:
            name = min(self.workers)
        handle = self.workers.get(name) if name else None
        if handle is None:
            return None
        handle.kill()
        return name

    # -- model rollover -----------------------------------------------------

    def check_reload(self) -> str:
        """Watch the model path; publish tier-wide on a validated swap.

        Shadow validation happens exactly once, in this process; the
        store's CURRENT rename is the atomic flip every worker observes.
        """
        event = self.host.check_reload()
        if event == RELOAD_SWAPPED:
            self.store.publish(
                self.host.active.selector, self.host.active.sha256
            )
            self.store.prune(self.config.store_keep)
        return event

    # -- dispatch -----------------------------------------------------------

    def routing_key(self, body: dict, conn_key: str) -> str:
        """Hash key for one request: explicit client id, else connection.

        Keying on the *client* (not the request id) is what keeps a
        client's admission and breaker state on a single worker.
        """
        client = body.get("client")
        if client is not None and not isinstance(client, (dict, list)):
            return f"client:{client}"
        return conn_key

    async def dispatch(self, line: str, conn_key: str) -> dict:
        """One request line in, exactly one response dict out."""
        t0 = time.monotonic()
        try:
            request = parse_request_line(line, self.config.max_request_bytes)
        except RequestParseError as exc:
            self.n_invalid += 1
            TELEMETRY.inc("serving.invalid")
            return self._log_access(exc.response, "invalid", t0)
        if request.op == "shutdown":
            response = await self._op_shutdown(request)
        elif request.op == "reload":
            response = await self._op_reload(request)
        elif request.op == "metrics":
            response = await self._op_metrics(request)
        elif request.op in ("health", "healthz"):
            response = await self._op_health(request)
        elif self._draining:
            # Draining: tier ops above still answer (an operator must be
            # able to watch the drain), but no new work is accepted.
            self.n_draining_rejected += 1
            TELEMETRY.inc("serving.draining_rejected")
            response = overloaded_response(CODE_DRAINING, request.id)
        else:
            response = await self._route(
                request, self.routing_key(request.body, conn_key)
            )
        return self._log_access(response, request.op, t0)

    def _log_access(self, response: dict, op: str, t0: float) -> dict:
        """Emit one access-log event per answered request (if wired).

        Same field shape as the worker's per-request log, so one parser
        reads both tiers' logs.
        """
        if self.access_log is not None:
            fields: dict = {
                "status": response.get("status"),
                "id": response.get("id"),
                "op": op,
                "latency_ms": round((time.monotonic() - t0) * 1e3, 3),
            }
            code = response.get("code") or response.get("reason")
            if code is not None:
                fields["code"] = code
            try:
                self.access_log.emit("request", **fields)
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        return response

    def _unroutable(self, request) -> dict:
        if request.op in ("predict", "feedback"):
            return fallback_response(
                self.config.fallback_format,
                REASON_WORKER_LOST,
                request.id,
                error="no worker available",
            )
        return invalid_response(
            CODE_WORKER_LOST, "no worker available", request.id
        )

    def _budget_seconds(self, request) -> float | None:
        """Effective latency budget: client deadline min ``--request-timeout``."""
        budgets = []
        if self.config.request_timeout_seconds > 0:
            budgets.append(self.config.request_timeout_seconds)
        if request.budget_ms is not None:
            budgets.append(request.budget_ms / 1000.0)
        return min(budgets) if budgets else None

    async def _route(self, request, key: str) -> dict:
        """Consistent-hash route one request; never hangs, never raises.

        This is the *single* accounting point per logical request: a
        hedged request has two pendings in flight, but exactly one
        routed/completed/worker_lost increment happens here, on the
        winning (or last-resort) response — so
        ``routed == completed + worker_lost`` and
        ``completed == primary_wins + hedge_wins`` hold exactly.
        """
        trace_id = new_trace_id()
        t0 = time.monotonic()
        budget = self._budget_seconds(request)
        deadline = t0 + budget if budget is not None else None
        give_up = t0 + self.config.boot_timeout_seconds
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                self.n_deadline_exceeded += 1
                TELEMETRY.inc("serving.deadline_exceeded")
                return overloaded_response(CODE_DEADLINE, request.id)
            try:
                name = self.ring.assign(key)
            except LookupError:
                name = None
            handle = self.workers.get(name) if name is not None else None
            if handle is not None and not handle.closed:
                with TELEMETRY.span(
                    "serving.route",
                    trace=trace_id,
                    worker=handle.name,
                    op=request.op,
                ):
                    response, via = await self._dispatch_hedged(
                        handle, request, key, trace_id, deadline
                    )
                # None = the worker vanished between selection and
                # enqueue; nothing was sent — re-route this request.
                if response is not None:
                    self.n_routed += 1
                    TELEMETRY.inc("serving.routed")
                    self._hedge_tokens = min(
                        self._hedge_burst,
                        self._hedge_tokens + max(self.config.hedge_budget, 0.0),
                    )
                    lost = (
                        response.get("reason") == REASON_WORKER_LOST
                        or response.get("code") == CODE_WORKER_LOST
                    )
                    if lost:
                        self.n_worker_lost += 1
                        TELEMETRY.inc("serving.worker_lost")
                    else:
                        self.n_completed += 1
                        self._record_latency(time.monotonic() - t0)
                        if via == "hedge":
                            self.n_hedge_wins += 1
                            TELEMETRY.inc("serving.hedge_wins")
                        else:
                            self.n_primary_wins += 1
                            TELEMETRY.inc("serving.primary_wins")
                    return response
            if self._stopping or time.monotonic() > give_up:
                return self._unroutable(request)
            await asyncio.sleep(0.02)

    # -- hedged dispatch ----------------------------------------------------

    def _hedge_delay_seconds(self) -> float | None:
        """Current hedge delay, or ``None`` when hedging is off/not armed."""
        if self.config.hedge_budget <= 0 or self._draining:
            return None
        if len(self.ring) < 2:
            return None
        if self.config.hedge_ms is not None:
            if self.config.hedge_ms <= 0:
                return None
            return self.config.hedge_ms / 1000.0
        return self._auto_hedge_delay

    def _record_latency(self, elapsed: float) -> None:
        """Feed the rolling-p95 auto hedge delay; cheap, amortized."""
        self._latency_samples.append(elapsed)
        self._samples_seen += 1
        if (
            len(self._latency_samples) >= max(self.config.hedge_warmup, 1)
            and self._samples_seen % 16 == 0
        ):
            ordered = sorted(self._latency_samples)
            at = min(int(len(ordered) * 0.95), len(ordered) - 1)
            self._auto_hedge_delay = max(ordered[at], 0.001)

    def _take_hedge_token(self) -> bool:
        if self._hedge_tokens < 1.0:
            return False
        self._hedge_tokens -= 1.0
        return True

    def _hedge_target(self, key: str, primary: WorkerHandle):
        """Next distinct live ring worker after ``primary`` for ``key``."""
        for name in self.ring.successors(key):
            if name == primary.name:
                continue
            handle = self.workers.get(name)
            if handle is not None and not handle.closed:
                return handle
        return None

    async def _dispatch_hedged(
        self,
        handle: WorkerHandle,
        request,
        key: str,
        trace_id: str,
        deadline: float | None,
    ) -> tuple[dict | None, str]:
        """Forward with optional hedging; first real response wins.

        Returns ``(response, via)`` where ``via`` is ``"primary"`` or
        ``"hedge"``.  The losing branch's eventual answer is consumed by
        its worker's reader loop into an already-resolved future, so it
        is discarded on arrival without disturbing FIFO matching.
        """
        primary = asyncio.ensure_future(
            self._forward(handle, request, trace_id, deadline=deadline)
        )
        delay = self._hedge_delay_seconds()
        if delay is None:
            return await primary, "primary"
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if done:
            return primary.result(), "primary"
        hedge_to = self._hedge_target(key, handle)
        if hedge_to is None or not self._take_hedge_token():
            return await primary, "primary"
        self.n_hedges += 1
        TELEMETRY.inc("serving.hedges")
        hedge = asyncio.ensure_future(
            self._forward(hedge_to, request, trace_id, deadline=deadline)
        )
        branches = {primary: "primary", hedge: "hedge"}
        lost_response: tuple[dict, str] | None = None
        pending = set(branches)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                response = task.result()
                if response is None:
                    # Never enqueued on that worker; the other branch
                    # may still answer.
                    continue
                lost = (
                    response.get("reason") == REASON_WORKER_LOST
                    or response.get("code") == CODE_WORKER_LOST
                )
                if lost:
                    # Hold as last resort: the other branch may still
                    # produce a real answer.
                    lost_response = (response, branches[task])
                    continue
                return response, branches[task]
        if lost_response is not None:
            return lost_response
        return None, "primary"

    async def _forward(
        self,
        handle: WorkerHandle,
        request,
        trace_id: str,
        deadline: float | None = None,
    ):
        """Send one request down a worker connection and await its answer.

        Returns ``None`` if the worker closed before the request could
        be enqueued (caller re-routes).  A timeout kills the worker:
        FIFO matching cannot survive a skipped response, so a wedged
        worker is converted into a dead one, whose in-flight requests
        all get typed answers.  When ``deadline`` is set, the remaining
        budget rides the wire as ``deadline_ms`` so the worker's
        admission queue and pre-predict gate honor it downstream.
        """
        body = dict(request.body)
        body["_trace"] = trace_id
        if deadline is not None:
            body["deadline_ms"] = max(
                0.0, round((deadline - time.monotonic()) * 1000.0, 3)
            )
        payload = (
            json.dumps(body, separators=(",", ":"), default=str) + "\n"
        ).encode("utf-8")
        loop = asyncio.get_running_loop()
        pend = _Pending(loop.create_future(), request.op, request.id)
        async with handle.lock:
            if handle.closed:
                return None
            handle.pending.append(pend)
            try:
                handle.writer.write(payload)
            except (ConnectionError, OSError):  # pragma: no cover
                if pend in handle.pending:
                    handle.pending.remove(pend)
                return None
        try:
            await handle.writer.drain()
        except (ConnectionError, OSError):
            pass  # the reader loop flushes `pend` with a typed response
        timeout = self.config.request_timeout_seconds
        try:
            return await asyncio.wait_for(
                asyncio.shield(pend.future), timeout if timeout > 0 else None
            )
        except asyncio.TimeoutError:
            self.n_timeouts += 1
            TELEMETRY.inc("serving.worker_timeout")
            handle.kill()  # reader EOF will flush `pend` with worker_lost
            return await pend.future

    async def _fanout(self, op: str) -> dict[str, dict]:
        """Send one tier op to every alive worker; gather by name."""
        handles = [w for w in self.workers.values() if not w.closed]
        if not handles:
            return {}

        async def ask(handle: WorkerHandle) -> tuple[str, dict | None]:
            request = parse_request_line(
                json.dumps({"op": op, "id": f"__tier_{op}"})
            )
            response = await self._forward(handle, request, new_trace_id())
            return handle.name, response

        results = await asyncio.gather(*(ask(h) for h in handles))
        return {
            name: response
            for name, response in results
            if isinstance(response, dict)
        }

    # -- tier ops -----------------------------------------------------------

    async def _op_metrics(self, request) -> dict:
        """Tier-wide metrics: every worker's snapshot, merged.

        Counters add, gauges last-write-wins, histograms merge
        bucket-by-bucket (:meth:`MetricsRegistry.merge_snapshot`), so
        ``serving.latency_seconds`` quantiles describe the whole tier —
        not just the worker that happened to answer the socket.
        """
        per_worker = await self._fanout("metrics")
        registry = MetricsRegistry()
        for name in sorted(per_worker):
            snap = per_worker[name].get("metrics")
            if isinstance(snap, dict):
                try:
                    registry.merge_snapshot(snap)
                except ValueError:  # pragma: no cover - defensive
                    continue
        snap = dict(registry.snapshot())
        snap.update(self.tier_metrics())
        snap = {name: snap[name] for name in sorted(snap)}
        quantiles: dict = {}
        latency = snap.get("serving.latency_seconds")
        for q in DEFAULT_QUANTILES:
            est = snapshot_quantile(latency, q) if latency else float("nan")
            quantiles[quantile_key(q)] = (
                round(est * 1e3, 6) if est == est else None
            )
        return ok_response(
            request.id,
            op="metrics",
            workers=len(per_worker),
            quantiles_ms=quantiles,
            metrics=snap,
        )

    def tier_metrics(self) -> dict[str, dict]:
        """The front-end's own instruments, snapshot-shaped."""
        return {
            "serving.workers": {
                "type": "gauge", "value": float(len(self.workers)),
            },
            "serving.routed": {
                "type": "counter", "value": float(self.n_routed),
            },
            "serving.completed": {
                "type": "counter", "value": float(self.n_completed),
            },
            "serving.worker_lost": {
                "type": "counter", "value": float(self.n_worker_lost),
            },
            "serving.respawned": {
                "type": "counter", "value": float(self.n_respawned),
            },
            "serving.rebalanced": {
                "type": "counter", "value": float(self.n_rebalanced),
            },
            "serving.hedges": {
                "type": "counter", "value": float(self.n_hedges),
            },
            "serving.hedge_wins": {
                "type": "counter", "value": float(self.n_hedge_wins),
            },
            "serving.primary_wins": {
                "type": "counter", "value": float(self.n_primary_wins),
            },
            "serving.deadline_exceeded": {
                "type": "counter", "value": float(self.n_deadline_exceeded),
            },
            "serving.draining_rejected": {
                "type": "counter", "value": float(self.n_draining_rejected),
            },
            "serving.invalid": {
                "type": "counter", "value": float(self.n_invalid),
            },
        }

    async def _op_health(self, request) -> dict:
        """Aggregated liveness: the tier is what the prober asked about."""
        per_worker = await self._fanout(request.op)
        if request.op == "healthz":
            states = {
                name: resp.get("state", "degraded")
                for name, resp in per_worker.items()
            }
            degraded = (
                not states or any(s != "ok" for s in states.values())
            )
            return ok_response(
                request.id,
                op="healthz",
                state="degraded" if degraded else "ok",
                uptime_seconds=round(time.monotonic() - self.started_at, 3),
                workers=len(self.workers),
                worker_states={k: states[k] for k in sorted(states)},
                queue_depth=sum(
                    int(r.get("queue_depth", 0)) for r in per_worker.values()
                ) + sum(w.inflight for w in self.workers.values()),
                routed=self.n_routed,
                worker_lost=self.n_worker_lost,
                respawned=self.n_respawned,
            )
        return ok_response(
            request.id,
            op="health",
            uptime_seconds=round(time.monotonic() - self.started_at, 3),
            model=self.host.snapshot(),
            workers={k: per_worker[k] for k in sorted(per_worker)},
            routed=self.n_routed,
            worker_lost=self.n_worker_lost,
            respawned=self.n_respawned,
            rebalanced=self.n_rebalanced,
        )

    async def _op_reload(self, request) -> dict:
        """Validate once at the front-end, flip every worker atomically."""
        event = self.check_reload()
        per_worker = await self._fanout("reload")
        return ok_response(
            request.id,
            op="reload",
            event=event,
            model=self.host.snapshot(),
            workers={
                name: per_worker[name].get("event")
                for name in sorted(per_worker)
            },
        )

    async def _op_shutdown(self, request) -> dict:
        # Graceful drain, not a guillotine: by the time this response is
        # written back, `_draining` is already set, so no request
        # arriving after the acknowledgement can slip into the fleet —
        # but everything already in flight gets to finish.
        self.begin_drain()
        return ok_response(
            request.id,
            op="shutdown",
            workers=len(self.workers),
            draining=True,
        )

    # -- graceful drain -----------------------------------------------------

    def begin_drain(self) -> None:
        """Enter draining: refuse new work, finish in-flight, then stop.

        Idempotent — the shutdown op and SIGTERM may both fire.  The
        drill's contract: zero silently-dropped requests.  Every
        in-flight request either completes or (past ``--drain-timeout``)
        is flushed with a typed response when the fleet is torn down;
        every post-drain arrival gets a typed ``draining`` refusal.
        """
        if self._draining or self._stopping or self._stopped:
            return
        self._draining = True
        TELEMETRY.inc("serving.drains")
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        with TELEMETRY.span("serving.drain"):
            # Give the shutdown acknowledgement (if any) a beat to reach
            # its client before the accept loop starts tearing down.
            await asyncio.sleep(0.05)
            deadline = time.monotonic() + max(
                self.config.drain_timeout_seconds, 0.0
            )
            while time.monotonic() < deadline and any(
                w.pending for w in self.workers.values()
            ):
                await asyncio.sleep(0.02)
            # Workers are idle; let the client conversations write their
            # final responses back before the fleet is torn down.
            await asyncio.sleep(0.05)
            self._stopping = True
            self._stop_event.set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Boot the fleet and the watch loop."""
        await self._ensure_capacity()
        self._watch_task = asyncio.ensure_future(self._watch_loop())

    async def stop(self) -> None:
        """Stop routing, shut every worker down, reap the fleet."""
        if self._stopped:
            return
        self._stopped = True
        self._stopping = True
        if self._watch_task is not None:
            self._watch_task.cancel()
        if self._drain_task is not None and not self._drain_task.done():
            self._drain_task.cancel()
        # A worker that answers the shutdown leaves `workers` when its
        # connection ends; it is reaped below all the same.
        fleet = list(self.workers.values())
        for handle in fleet:
            try:
                async with handle.lock:
                    if not handle.closed and handle.writer is not None:
                        handle.pending.append(
                            _Pending(
                                asyncio.get_running_loop().create_future(),
                                "shutdown",
                                None,
                            )
                        )
                        handle.writer.write(b'{"op":"shutdown"}\n')
                        await handle.writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        deadline = time.monotonic() + 5.0
        for handle in fleet:
            while (
                handle.proc is not None
                and handle.proc.poll() is None
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.05)
            handle.kill()
            self._flush_worker(handle)
        if self.access_log is not None:
            try:
                self.access_log.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._stop_event.set()

    async def _next_response(self, reader, conn_key: str) -> dict | None:
        """Read and answer the next request line; ``None`` at EOF.

        A line over the stream limit is answered ``payload_too_large``
        like any other over-cap line, and the connection stays open.
        """
        while True:
            try:
                line = await read_line(reader)
            except LineTooLong as exc:
                response = too_large_response(
                    exc.n_bytes, self.config.max_request_bytes
                )
                self.n_invalid += 1
                TELEMETRY.inc("serving.invalid")
                return self._log_access(response, "invalid", time.monotonic())
            if not line:
                return None
            text = line.decode("utf-8", "replace")
            if text.strip():
                return await self.dispatch(text, conn_key)

    async def _serve_client(self, reader, writer) -> None:
        """One JSONL conversation; responses in request order."""
        self._conn_counter += 1
        conn_key = f"conn:{self._conn_counter}"
        try:
            while True:
                response = await self._next_response(reader, conn_key)
                if response is None:
                    break
                writer.write((encode_response(response) + "\n").encode())
                await writer.drain()
                if self._stopping:
                    break
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def _install_sigterm(self) -> bool:
        """SIGTERM → graceful drain (best effort; not every loop can)."""
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, self.begin_drain
            )
            return True
        except (NotImplementedError, RuntimeError, ValueError):
            return False  # pragma: no cover - non-main-thread / platform

    def _remove_sigterm(self, installed: bool) -> None:
        if not installed:
            return
        try:
            asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # pragma: no cover - defensive

    async def run_socket(self, socket_path: str) -> int:
        """Serve the tier on a front Unix socket until shutdown."""
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        await self.start()
        sigterm = self._install_sigterm()
        server = await asyncio.start_unix_server(
            self._serve_client,
            path=socket_path,
            limit=self._stream_limit,
        )
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._remove_sigterm(sigterm)
            await self.stop()
            if os.path.exists(socket_path):
                os.unlink(socket_path)
        return 0

    async def run_stdio(self, instream=None, outstream=None) -> int:
        """Serve the tier over stdin/stdout (one implicit client)."""
        await self.start()
        sigterm = self._install_sigterm()
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=self._stream_limit)
        protocol = asyncio.StreamReaderProtocol(reader)
        await loop.connect_read_pipe(
            lambda: protocol, instream if instream is not None else sys.stdin
        )
        out = outstream if outstream is not None else sys.stdout
        try:
            while not self._stopping:
                response = await self._next_response(reader, "stdio")
                if response is None:
                    break
                out.write(encode_response(response) + "\n")
                out.flush()
        finally:
            self._remove_sigterm(sigterm)
            await self.stop()
        return 0


async def drive_tier(
    socket_path: str,
    lines: Iterable[str],
    connections: int = 8,
    actions: dict | None = None,
    latencies: list[float] | None = None,
) -> list[tuple[str, dict]]:
    """Drill and test client: fan ``lines`` over N connections, collect all.

    Lines are dealt round-robin; each connection pipelines its share
    sequentially (the JSONL conversational contract).  Returns
    ``(line, response)`` pairs indexed like ``lines``.  ``actions`` maps
    a tier-wide answered-count to a zero-argument callable fired once
    when that many responses have arrived — how the chaos drill kills a
    worker or swaps the model mid-burst.  ``latencies``, when given, is
    extended with each request's client-observed seconds (write to
    response line), indexed like ``lines``.
    """
    lines = list(lines)
    shares: list[list[tuple[int, str]]] = [
        [] for _ in range(max(1, connections))
    ]
    for i, line in enumerate(lines):
        shares[i % len(shares)].append((i, line))
    results: list[tuple[str, dict] | None] = [None] * len(lines)
    seconds = [0.0] * len(lines)
    progress = {"answered": 0}
    fired: set[int] = set()

    async def client(share: list[tuple[int, str]]) -> None:
        if not share:
            return
        reader, writer = await asyncio.open_unix_connection(socket_path)
        try:
            for index, line in share:
                sent = time.perf_counter()
                writer.write((line.rstrip("\n") + "\n").encode())
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError("tier closed mid-conversation")
                seconds[index] = time.perf_counter() - sent
                results[index] = (line, json.loads(raw))
                progress["answered"] += 1
                for at in sorted(actions or {}):
                    if at not in fired and progress["answered"] >= at:
                        fired.add(at)
                        actions[at]()
        finally:
            writer.close()

    await asyncio.gather(*(client(share) for share in shares))
    if latencies is not None:
        latencies.extend(seconds)
    return [r for r in results if r is not None]


__all__ = [
    "ServingTier",
    "TIER_OPS",
    "TierConfig",
    "TierError",
    "WorkerHandle",
    "drive_tier",
    "read_line",
]
