"""The resilient selector server: gateway → admission → breaker → model.

``repro serve`` runs this long-lived loop over stdin/stdout JSONL or a
Unix socket.  Every request passes through the full defensive stack:

1. :mod:`repro.serving.protocol` parses the line (byte-capped, typed).
2. :class:`~repro.serving.admission.AdmissionController` bounds the
   backlog and enforces deadlines (shed requests still get responses).
3. :class:`~repro.serving.gateway.IngestionGateway` turns the payload
   into a certified-finite feature vector or an ``invalid`` response.
4. :class:`~repro.serving.reload.ModelHost` supplies the current frozen
   model (hot-reloaded, shadow-validated, atomically swapped).
5. An out-of-distribution guard and
   :class:`~repro.serving.breaker.CircuitBreaker` decide whether the
   model's answer can be trusted; otherwise the request falls back to
   the CSR answer with a machine-readable ``reason``.

The handler itself never raises: any unexpected internal error becomes a
``fallback``/``internal_error`` response, because a wrong-but-safe
format costs some SpMV throughput while a dead server costs every
client.  An optional name-keyed
:class:`~repro.runtime.faults.FaultInjector` wraps inference so the
``repro chaos --target serve`` drill can exercise the breaker
deterministically.
"""

from __future__ import annotations

import os
import select
import time
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.deploy import DEFAULT_FALLBACK_FORMAT, rebuild_pipeline
from repro.core.online import OnlineFormatSelector
from repro.obs import LATENCY_BUCKETS, TELEMETRY
from repro.obs.context import new_trace_id
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram
from repro.obs.quantiles import DEFAULT_QUANTILES, quantile_key
from repro.runtime.faults import Corrupted, FaultInjector
from repro.serving.admission import AdmissionController
from repro.serving.breaker import CircuitBreaker
from repro.serving.gateway import GatewayLimits, IngestError, IngestionGateway
from repro.serving.protocol import (
    CODE_DEADLINE,
    CODE_MISSING_FIELD,
    CODE_QUEUE_FULL,
    REASON_BREAKER_OPEN,
    REASON_INFERENCE_ERROR,
    REASON_INTERNAL_ERROR,
    REASON_MODEL_UNUSABLE,
    REASON_OUT_OF_DISTRIBUTION,
    LineTooLong,
    Request,
    RequestParseError,
    STATUS_INVALID,
    encode_response,
    fallback_response,
    invalid_response,
    ok_response,
    overloaded_response,
    parse_request_line,
    too_large_response,
)
from repro.serving.reload import FileLoader, ModelHost


class InferenceFault(RuntimeError):
    """Model inference produced garbage (e.g. an injected corruption)."""


@dataclass(frozen=True)
class ServingConfig:
    """All knobs of one server instance."""

    model_path: str
    fallback_format: str = DEFAULT_FALLBACK_FORMAT
    #: Request-line byte cap (pre-JSON).
    max_request_bytes: int = 16 * 1024 * 1024
    limits: GatewayLimits = field(default_factory=GatewayLimits)
    queue_size: int = 64
    deadline_seconds: float | None = 5.0
    breaker_failures: int = 5
    breaker_reset_seconds: float = 2.0
    breaker_probes: int = 2
    #: OOD threshold as a multiple of the model's centroid scale
    #: (median nearest-neighbour centroid distance); 0 disables.
    ood_factor: float = 8.0
    #: Watch the model path and hot-swap validated candidates.
    hot_reload: bool = True
    #: Requests drained from the admission queue per micro-batch; the
    #: predict ops among them share one vectorized inference pass
    #: (bit-identical to per-item inference — ml/linalg row-stable
    #: kernels).  1 disables micro-batching.
    max_batch: int = 8
    #: How long ``serve_stream`` lingers for more input before
    #: processing a short batch (seconds); 0 keeps reads non-blocking.
    max_batch_delay_seconds: float = 0.0


class SelectorServer:
    """Long-running, resilient format-selection service."""

    def __init__(
        self,
        config: ServingConfig,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: FaultInjector | None = None,
        access_log: EventLog | None = None,
        host: ModelHost | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.fault_injector = fault_injector
        self.access_log = access_log
        # Always-on latency histogram: the `metrics` op must answer with
        # live quantiles even when the global TELEMETRY switch is off,
        # so the server keeps its own instrument outside the registry.
        self.latency_hist = Histogram(
            "serving.latency_seconds", buckets=LATENCY_BUCKETS
        )
        self.gateway = IngestionGateway(config.limits)
        self.admission = AdmissionController(
            max_pending=config.queue_size,
            deadline_seconds=config.deadline_seconds,
            clock=clock,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failures,
            reset_timeout=config.breaker_reset_seconds,
            probe_successes=config.breaker_probes,
            clock=clock,
        )
        # Tier workers pass a host over the shared mmap store; the
        # default watches and shadow-validates the model file.
        self.host = (
            host if host is not None
            else ModelHost(FileLoader(config.model_path))
        )
        self.counters: TallyCounter = TallyCounter()
        self.latencies: deque[float] = deque(maxlen=4096)
        self.started_at = clock()
        self._online: OnlineFormatSelector | None = None
        self._online_sha: str | None = None
        self._stop = False
        # Micro-batch caches, valid only while draining one batch: the
        # frozen model the precompute ran on, ingested vectors, and
        # (distance, label, centroid) triples keyed by request identity.
        self._batch_model = None
        self._batch_ingest: dict[int, np.ndarray] = {}
        self._batch_results: dict[int, tuple[float, object, int]] = {}

    # -- request processing -------------------------------------------------

    def handle_line(self, line: str) -> dict:
        """Parse + process one request line, bypassing admission.

        Single-shot entry point (tests, socket mode with an empty
        queue); burst traffic goes through :meth:`submit_burst`.
        """
        try:
            request = parse_request_line(line, self.config.max_request_bytes)
        except RequestParseError as exc:
            return self._finish(exc.response)
        return self.process(request)

    def process(self, request: Request) -> dict:
        """Dispatch one admitted request; never raises.

        Every dispatched request gets a trace id and (telemetry on) a
        ``serving.request`` root span whose children cover the stages it
        passed through — gateway, micro-batch cache, breaker, predict.
        The id goes to the trace and the access log only, never into the
        response: responses stay byte-identical across runs.

        A tier front-end that routed this request propagates its trace
        context as a ``_trace`` body field (PR-6 ``TraceContext`` id);
        honoring it stitches the worker-side span tree and access-log
        lines onto the front-end's request trace.  The field never
        influences a response.
        """
        if request.rejection is not None:
            return self._finish(request.rejection, op=request.op)
        # Last deadline gate before any real work: ``take()`` filtered
        # the queue, but batch priming happens between take and process,
        # and the front-end's propagated budget may run out in flight.
        # Answering here costs nothing; predicting for a client that
        # already gave up costs capacity every live client needs.
        if (
            request.deadline is not None
            and request.op in ("predict", "feedback")
            and self.clock() > request.deadline
        ):
            self.counters["deadline_exceeded"] += 1
            TELEMETRY.inc("serving.deadline_exceeded")
            return self._finish(
                overloaded_response(CODE_DEADLINE, request.id), op=request.op
            )
        propagated = request.body.get("_trace")
        trace_id = (
            propagated
            if isinstance(propagated, str) and propagated
            else new_trace_id()
        )
        t0 = time.perf_counter()
        with TELEMETRY.span(
            "serving.request", trace=trace_id, op=request.op
        ):
            try:
                handler = getattr(self, f"_op_{request.op}")
                response = handler(request)
            except Exception as exc:  # the loop survives anything
                if request.op in ("predict", "feedback"):
                    response = fallback_response(
                        self.config.fallback_format,
                        REASON_INTERNAL_ERROR,
                        request.id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    response = invalid_response(
                        "internal_error",
                        f"{type(exc).__name__}: {exc}",
                        request.id,
                    )
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        self.latency_hist.observe(elapsed)
        if TELEMETRY.enabled:
            TELEMETRY.observe(
                "serving.latency_seconds", elapsed, buckets=LATENCY_BUCKETS
            )
        return self._finish(
            response, op=request.op, trace=trace_id, latency=elapsed
        )

    def _finish(
        self,
        response: dict,
        op: str | None = None,
        trace: str | None = None,
        latency: float | None = None,
    ) -> dict:
        status = response.get("status", STATUS_INVALID)
        self.counters["requests"] += 1
        self.counters[status] += 1
        TELEMETRY.inc("serving.requests")
        TELEMETRY.inc(f"serving.responses.{status}")
        if self.access_log is not None:
            fields: dict = {"status": status, "id": response.get("id")}
            if op is not None:
                fields["op"] = op
            if trace is not None:
                fields["trace"] = trace
            if latency is not None:
                fields["latency_ms"] = round(latency * 1e3, 3)
            code = response.get("code") or response.get("reason")
            if code is not None:
                fields["code"] = code
            self.access_log.emit("request", **fields)
        return response

    # -- ops ----------------------------------------------------------------

    def _current_model(self):
        """Run the watch hook, then read the active model *once*."""
        if self.config.hot_reload:
            self.host.check_reload()
        return self.host.active

    def _op_predict(self, request: Request) -> dict:
        try:
            with TELEMETRY.span("serving.gateway"):
                vec = self._ingest_cached(request)
        except IngestError as exc:
            return invalid_response(exc.code, str(exc), request.id)
        active = self._current_model()
        if active.selector is None:
            return fallback_response(
                self.config.fallback_format,
                REASON_MODEL_UNUSABLE,
                request.id,
                error=active.error,
            )
        with TELEMETRY.span("serving.breaker"):
            allowed = self.breaker.allow()
        if not allowed:
            TELEMETRY.inc("serving.fallback.breaker_open")
            return fallback_response(
                self.config.fallback_format, REASON_BREAKER_OPEN, request.id
            )
        # A mid-batch hot swap invalidates the precompute: only consult
        # it when it ran on the very model object now serving.
        precomputed = (
            self._batch_results.pop(id(request), None)
            if self._batch_model is active.selector
            else None
        )
        try:
            with TELEMETRY.span(
                "serving.predict", cached=precomputed is not None
            ):
                distance, label, centroid = self._infer(
                    active.selector, vec, request.id or "anon", precomputed
                )
        except Exception:
            self.breaker.record_failure()
            TELEMETRY.inc("serving.fallback.inference_error")
            return fallback_response(
                self.config.fallback_format,
                REASON_INFERENCE_ERROR,
                request.id,
            )
        self.breaker.record_success()
        if (
            self.config.ood_factor > 0
            and np.isfinite(active.scale)
            and distance > self.config.ood_factor * active.scale
        ):
            TELEMETRY.inc("serving.fallback.out_of_distribution")
            return fallback_response(
                self.config.fallback_format,
                REASON_OUT_OF_DISTRIBUTION,
                request.id,
                distance=round(float(distance), 6),
                threshold=round(
                    float(self.config.ood_factor * active.scale), 6
                ),
            )
        return ok_response(
            request.id, format=label, centroid=centroid, source="model"
        )

    def _ingest_cached(self, request: Request) -> np.ndarray:
        """Ingest a predict body, reusing the micro-batch's parse."""
        cached = self._batch_ingest.pop(id(request), None)
        if cached is not None:
            return cached
        _, vec = self.gateway.ingest(request.body)
        return vec

    def _infer(self, selector, vec: np.ndarray, key: str, precomputed=None):
        """One guarded inference; faults (real or injected) raise.

        ``precomputed`` is the micro-batch's (distance, label, centroid)
        for this request — bit-identical to the per-item math below, so
        consulting it cannot change any response.  Injection rolls and
        result validation stay per item either way.
        """
        injector = self.fault_injector
        if injector is not None:
            delay = injector.delay_for(key, attempt=0)
            if delay > 0:
                time.sleep(delay)
            if injector.fails(key, attempt=0):
                raise InferenceFault(f"injected inference failure for {key!r}")
        if precomputed is not None:
            distance, label, centroid = precomputed
        else:
            centroid = int(selector.assign(vec)[0])
            label = selector.centroid_labels[centroid]
            distance = float(selector.nearest_distance(vec)[0])
        if injector is not None and injector.corrupts(key, attempt=0):
            label = Corrupted(key, attempt=0)
        if not isinstance(label, str) or not label:
            raise InferenceFault(f"inference produced bad label {label!r}")
        if not np.isfinite(distance):
            raise InferenceFault("inference produced non-finite distance")
        return distance, str(label), centroid

    def _op_feedback(self, request: Request) -> dict:
        """Observed-best-format feedback feeds an online selector.

        The online layer (paper §7) is seeded from the frozen model's
        own preprocessing, so streamed observations and model
        predictions live in the same feature space; ``agrees`` measures
        live model-vs-reality drift.
        """
        best = request.body.get("best_format")
        if not isinstance(best, str) or not best:
            return invalid_response(
                CODE_MISSING_FIELD,
                "feedback needs a non-empty 'best_format' string",
                request.id,
            )
        try:
            _, vec = self.gateway.ingest(request.body)
        except IngestError as exc:
            return invalid_response(exc.code, str(exc), request.id)
        active = self._current_model()
        if active.selector is None:
            return fallback_response(
                self.config.fallback_format,
                REASON_MODEL_UNUSABLE,
                request.id,
                error=active.error,
            )
        if self._online is None or self._online_sha != active.sha256:
            self._online = OnlineFormatSelector(
                rebuild_pipeline(active.selector),
                default_format=self.config.fallback_format,
            )
            self._online_sha = active.sha256
        model_label = str(active.selector.predict(vec)[0])
        online_label = self._online.observe(vec[0], best_format=best)
        agrees = model_label == best
        self.counters["feedback_agree" if agrees else "feedback_disagree"] += 1
        TELEMETRY.inc(
            "serving.feedback.agree" if agrees else "serving.feedback.disagree"
        )
        return ok_response(
            request.id,
            format=model_label,
            online_format=online_label,
            agrees=agrees,
            online_clusters=self._online.n_clusters,
        )

    def _op_health(self, request: Request) -> dict:
        return ok_response(
            request.id,
            op="health",
            uptime_seconds=round(self.clock() - self.started_at, 3),
            model=self.host.snapshot(),
            breaker=self.breaker.snapshot(),
            queue_depth=self.admission.depth,
            shed=self.admission.n_shed,
            expired=self.admission.n_expired,
            counters=dict(self.counters),
            p99_latency_ms=round(self.p99_latency() * 1e3, 3),
        )

    def _op_reload(self, request: Request) -> dict:
        event = self.host.check_reload()
        return ok_response(
            request.id, op="reload", event=event, model=self.host.snapshot()
        )

    def _op_shutdown(self, request: Request) -> dict:
        self._stop = True
        return ok_response(request.id, op="shutdown")

    # -- observability ops ---------------------------------------------------

    def latency_quantiles(self) -> dict:
        """Live p50/p95/p99 of request latency, in milliseconds.

        Estimated from the always-on histogram; ``None`` per quantile
        until the first request (NaN is not valid JSON).
        """
        out: dict = {}
        for q in DEFAULT_QUANTILES:
            est = self.latency_hist.quantile(q)
            out[quantile_key(q)] = (
                round(est * 1e3, 6) if np.isfinite(est) else None
            )
        return out

    def metrics_snapshot(self) -> dict:
        """Registry snapshot for the ``metrics`` op and SLO evaluation.

        Starts from the global registry (populated when telemetry is
        enabled) and overlays the server's own always-on instruments, so
        the snapshot carries latency data and SLO inputs even with the
        global switch off.
        """
        snap = dict(TELEMETRY.registry.snapshot())
        snap["serving.latency_seconds"] = self.latency_hist.snapshot()
        snap["serving.breaker.open_seconds"] = {
            "type": "gauge",
            "value": round(self.breaker.open_seconds, 6),
        }
        snap["serving.queue.depth"] = {
            "type": "gauge",
            "value": float(self.admission.depth),
        }
        return {name: snap[name] for name in sorted(snap)}

    def _op_metrics(self, request: Request) -> dict:
        return ok_response(
            request.id,
            op="metrics",
            quantiles_ms=self.latency_quantiles(),
            metrics=self.metrics_snapshot(),
        )

    def _op_healthz(self, request: Request) -> dict:
        """Cheap liveness + SLO summary (no model read, no reload)."""
        breaker = self.breaker.snapshot()
        usable = self.host.active.selector is not None
        return ok_response(
            request.id,
            op="healthz",
            state="ok" if usable and breaker["state"] != "open" else "degraded",
            uptime_seconds=round(self.clock() - self.started_at, 3),
            model_usable=usable,
            breaker_state=breaker["state"],
            breaker_open_seconds=breaker["open_seconds"],
            queue_depth=self.admission.depth,
            shed=self.admission.n_shed,
            expired=self.admission.n_expired,
            latency_ms=self.latency_quantiles(),
        )

    # -- burst handling (admission-controlled) ------------------------------

    def submit_burst(self, lines: Iterable[str | LineTooLong]) -> list[dict]:
        """Admit a burst of request lines, then drain the queue.

        Models what the reader thread sees when a client pipes faster
        than the server processes: parse rejections answer immediately,
        the bounded queue sheds its oldest on overflow, dequeued
        requests past their deadline are answered ``overloaded``, and
        the survivors are processed in arrival order.  Every line gets
        exactly one response; a line the transport discarded unread
        (:class:`LineTooLong`) gets the answer it would have got whole.
        """
        cap = self.config.max_request_bytes
        responses: list[dict] = []
        with TELEMETRY.span("serving.admission"):
            for line in lines:
                try:
                    if isinstance(line, LineTooLong):
                        raise RequestParseError(
                            too_large_response(line.n_bytes, cap)
                        )
                    request = parse_request_line(line, cap)
                except RequestParseError as exc:
                    responses.append(self._finish(exc.response))
                    continue
                for shed in self.admission.offer(request):
                    responses.append(self._finish(
                        overloaded_response(CODE_QUEUE_FULL, shed.id),
                        op=shed.op,
                    ))
        responses.extend(self._drain_queue())
        return responses

    def _drain_queue(self) -> list[dict]:
        """Drain the admission queue in micro-batches of ``max_batch``.

        Each drained batch is primed with one vectorized inference pass
        over its predict ops; every request is then answered
        *individually* through the unchanged per-item flow (deadline →
        gateway → breaker → inference → OOD), which consults the
        precompute instead of redoing the same row-stable math.
        Response order is exactly the one-at-a-time order: expired
        notices surface at their take position, answers at theirs.
        """
        out: list[dict] = []
        limit = max(1, self.config.max_batch)
        while True:
            # ("resp", answered) | ("req", pending) in take order.
            entries: list[tuple[str, object]] = []
            batch: list[Request] = []
            while len(batch) < limit:
                request, expired = self.admission.take()
                for dead in expired:
                    entries.append((
                        "resp",
                        self._finish(
                            overloaded_response(CODE_DEADLINE, dead.id)
                        ),
                    ))
                if request is None:
                    break
                entries.append(("req", request))
                batch.append(request)
            if not entries:
                break
            drained_all = len(batch) < limit
            with TELEMETRY.span("serving.microbatch", n=len(batch)):
                self._prime_batch(batch)
            try:
                for kind, payload in entries:
                    if kind == "resp":
                        out.append(payload)  # type: ignore[arg-type]
                    else:
                        out.append(self.process(payload))
            finally:
                self._batch_model = None
                self._batch_ingest.clear()
                self._batch_results.clear()
            if drained_all:
                break
        return out

    def _prime_batch(self, batch: list[Request]) -> None:
        """Precompute shared inference for one micro-batch.

        Best-effort only: any problem (unusable model, ingest failure,
        inference error) leaves the affected requests out of the cache
        and the per-item flow handles them exactly as before.  The
        breaker is *not* consulted here — ``allow()`` advances half-open
        probe state, so it must run once per request, in ``_op_predict``.
        """
        self._batch_model = None
        self._batch_ingest.clear()
        self._batch_results.clear()
        if self.config.max_batch <= 1 or len(batch) <= 1:
            return
        keys: list[int] = []
        vecs: list[np.ndarray] = []
        for request in batch:
            if request.op != "predict" or request.rejection is not None:
                continue
            try:
                _, vec = self.gateway.ingest(request.body)
            except IngestError:
                continue  # the per-item path answers `invalid`
            self._batch_ingest[id(request)] = vec
            keys.append(id(request))
            vecs.append(vec[0])
        if len(vecs) <= 1:
            return
        if self.config.hot_reload:
            self.host.check_reload()
        selector = self.host.active.selector
        if selector is None:
            return
        try:
            X = np.vstack(vecs)
            assigned = selector.assign(X)
            distances = selector.nearest_distance(X)
        except Exception:
            return  # per-item inference recomputes and degrades itself
        self._batch_model = selector
        for key, centroid, distance in zip(keys, assigned, distances):
            self._batch_results[key] = (
                float(distance),
                selector.centroid_labels[int(centroid)],
                int(centroid),
            )
        TELEMETRY.observe("serving.batch_size", float(len(batch)))
        TELEMETRY.inc("serving.microbatch.primed", len(vecs))

    def p99_latency(self) -> float:
        """p99 of recent request latencies (seconds; 0 when idle)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(0.99 * len(ordered)))
        return ordered[rank]

    # -- transports ---------------------------------------------------------

    def _read_line(self, stream) -> str | LineTooLong:
        """``stream.readline()`` bounded by ``max_request_bytes``.

        A longer line is discarded through its newline (or EOF) and comes
        back as a :class:`LineTooLong`, which :meth:`submit_burst`
        answers, so the conversation goes on with the next line.
        """
        size = max(self.config.max_request_bytes, 0) + 1
        line = stream.readline(size)
        if len(line) < size:
            return line
        n_chars = len(line)
        while not line.endswith("\n"):
            line = stream.readline(size)
            if not line:
                break
            n_chars += len(line)
        return LineTooLong(n_chars)

    def _drain_ready(
        self, stream, limit: int = 256, wait_seconds: float = 0.0
    ) -> list[str | LineTooLong]:
        """Opportunistically batch-read lines already waiting on ``stream``.

        Uses ``select`` on the underlying fd; with ``wait_seconds`` 0 it
        never blocks, otherwise it lingers up to that budget for more
        input so short bursts fill a fuller micro-batch
        (``--max-batch-delay-ms``).  On streams without a real fd
        (StringIO) it reads nothing and the caller degrades to
        line-at-a-time processing.
        """
        lines: list[str | LineTooLong] = []
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            return lines
        deadline = time.monotonic() + max(wait_seconds, 0.0)
        while len(lines) < limit:
            timeout = (
                max(0.0, deadline - time.monotonic())
                if wait_seconds > 0
                else 0
            )
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            except (OSError, ValueError):
                break
            if not ready:
                break
            line = self._read_line(stream)
            if not line:
                break
            lines.append(line)
        return lines

    def serve_stream(self, instream, outstream) -> int:
        """JSONL loop: read request lines, write one response line each."""
        while not self._stop:
            line = self._read_line(instream)
            if not line:
                break
            if isinstance(line, str) and not line.strip():
                continue
            lines = [line] + self._drain_ready(
                instream,
                limit=max(256, self.config.max_batch),
                wait_seconds=self.config.max_batch_delay_seconds,
            )
            for response in self.submit_burst(lines):
                outstream.write(encode_response(response) + "\n")
            outstream.flush()
        return 0

    def serve_socket(self, socket_path: str) -> int:
        """Unix-socket loop: one JSONL conversation per connection."""
        import socket as socketlib

        if os.path.exists(socket_path):
            os.unlink(socket_path)
        server_socket = socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        )
        try:
            server_socket.bind(socket_path)
            server_socket.listen(8)
            while not self._stop:
                conn, _ = server_socket.accept()
                with conn:
                    reader = conn.makefile("r", encoding="utf-8")
                    while not self._stop:
                        line = self._read_line(reader)
                        if not line:
                            break
                        if isinstance(line, str) and not line.strip():
                            continue
                        for response in self.submit_burst([line]):
                            conn.sendall(
                                (encode_response(response) + "\n").encode()
                            )
        finally:
            server_socket.close()
            if os.path.exists(socket_path):
                os.unlink(socket_path)
        return 0
