"""``tier``: open-loop load on the multi-worker front-end with one worker.

The front-end (``perfbench/tier_host.py``) runs in its own process and
spawns its single worker.  This process is the only load source: an
asyncio generator over ``nproc`` connections at most.  Requests are
tiny and medium payloads, every line below asyncio's 64 KiB stream
limit.  Latency is timed from each request's *due* time, so a stall
charges every request queued behind it.

The end-to-end run boots the front-end with its telemetry off; the
traced run boots it with telemetry on, as ``repro serve`` does.  A
dropped connection or an unparsable answer is counted and the run goes
on; a tier that stops answering ends the run with ``correct`` false.

- reference step: a fixed rate well inside capacity (p50/p90);
- capacity: every connection kept busy (closed loop) for the sustained
  completion rate, the median over 0.5 s windows;
- ladder (traced run): fixed rates upward until one misses the p99
  limit or ends with a backlog; the last passing rate is ``tier.max_rps``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import time

import harness

#: A chosen mix, not measured traffic; no large class, whose lines pass
#: asyncio's 64 KiB stream limit.  ``p50_ms`` and ``p90_ms`` fall on
#: medium requests, three in four.
MIX = {"tiny": 25, "medium": 75}
CONNECTIONS = min(2, os.cpu_count() or 1)
REF_RATE = 100.0
LADDER = (100.0, 150.0, 200.0, 250.0, 300.0, 400.0)
STEP_SECONDS = 0.75
P99_LIMIT_MS = 50.0
SETUP_REPEATS = 3
#: The reference step is cut into blocks of this many seconds and the
#: capacity phase into windows; the run reports the fastest block and
#: the median window.
BLOCK_SECONDS = 1.5
WINDOW_SECONDS = 0.5
#: Longest wait for one answer, or for the load queue to drain, before
#: the run calls the tier stalled and ends with ``correct`` false.
STALL_SECONDS = 30.0


class Stalled(RuntimeError):
    """The tier stopped answering; its unanswered requests are counted."""


class Host:
    """One front-end process (and, through it, its worker)."""

    def __init__(self, work, model, index: int, telemetry: str = "on"):
        self.socket = str(work / f"s{index}.sock")
        self.log = open(work / f"host{index}.log", "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(harness.HERE / "tier_host.py"),
                str(model), self.socket, str(work / f"run{index}"),
                "--telemetry", telemetry,
            ],
            cwd=harness.ROOT,
            env=harness.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
        )

    async def ready(self, first: harness.Request, timeout: float = 60.0) -> float:
        """Seconds from launch to the first ``ok`` answer."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(self.socket)
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("tier front-end did not come up")
                await asyncio.sleep(0.01)
        try:
            response = await _ask(reader, writer, first.line)
        finally:
            writer.close()
        if response.get("format") != first.expected:
            raise RuntimeError(f"tier first answer wrong: {response}")
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *harness.proc_children(self.proc.pid)]
        return sum(harness.proc_peak_rss_mb(pid) for pid in pids)

    async def op(self, op: str) -> dict:
        reader, writer = await asyncio.open_unix_connection(self.socket)
        try:
            return await _ask(reader, writer, json.dumps({"id": op, "op": op}))
        finally:
            writer.close()

    async def stop(self) -> None:
        """Drain via ``shutdown``; kill the fleet if it does not exit."""
        try:
            if self.proc.poll() is None:
                await self.op("shutdown")
                await asyncio.to_thread(self.proc.wait, 20)
        except (OSError, ValueError, asyncio.TimeoutError,
                subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                for pid in harness.proc_children(self.proc.pid):
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
                self.proc.kill()
            self.proc.wait()
            self.log.close()


async def _ask(reader, writer, line: str) -> dict:
    writer.write(line.encode() + b"\n")
    await writer.drain()
    raw = await asyncio.wait_for(reader.readline(), STALL_SECONDS)
    if not raw:
        raise ConnectionError("tier closed the connection")
    return json.loads(raw)


class Load:
    """Open-loop generator feeding ``CONNECTIONS`` conversations."""

    def __init__(self, socket: str, out: harness.Outcome, requests):
        self.socket = socket
        self.out = out
        self.cycle = itertools.cycle(requests)
        self.queue: asyncio.Queue = asyncio.Queue()
        self.inflight = 0
        self.tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        self.tasks = [
            asyncio.create_task(self._conversation())
            for _ in range(CONNECTIONS)
        ]

    async def close(self) -> None:
        for _ in self.tasks:
            self.queue.put_nowait(None)
        await self._join()
        await asyncio.gather(*self.tasks)

    async def _join(self) -> None:
        """Wait for the queue to drain; count it all dropped on a stall."""
        try:
            await asyncio.wait_for(self.queue.join(), STALL_SECONDS)
        except asyncio.TimeoutError:
            lost = self.inflight
            for task in self.tasks:
                task.cancel()
            await asyncio.gather(*self.tasks, return_exceptions=True)
            while not self.queue.empty():
                lost += self.queue.get_nowait() is not None
            self.out.attempted += lost
            self.out.failures["dropped"] += lost
            self.out.problems.append(
                f"tier stalled: {lost} requests unanswered after "
                f"{STALL_SECONDS:.0f} s"
            )
            raise Stalled(self.out.problems[-1]) from None

    async def _connect(self):
        """A (reader, writer) pair, or None when the tier is gone."""
        try:
            return await asyncio.open_unix_connection(self.socket)
        except OSError:
            return None

    async def _conversation(self) -> None:
        conn = await self._connect()
        try:
            while True:
                item = await self.queue.get()
                try:
                    if item is None:
                        return
                    conn = await self._exchange(conn, *item)
                finally:
                    self.queue.task_done()
        finally:
            if conn is not None:
                conn[1].close()

    def _dropped(self, req, why: str) -> None:
        self.out.attempted += 1
        self.out.fail("dropped", f"{req.rid}: {why}")

    async def _exchange(self, conn, due, req, sink):
        """Send one request and judge its answer; the connection after.

        A closed connection counts the request as dropped and reconnects;
        once the tier refuses connections, every later request is
        dropped too.  An answer that is not a JSON object is invalid.
        """
        if conn is None:
            self._dropped(req, "tier refuses connections")
            return None
        reader, writer = conn
        self.inflight += 1
        sent = time.perf_counter()
        try:
            writer.write(req.line.encode() + b"\n")
            await writer.drain()
            raw = await reader.readline()
        except (OSError, ValueError):
            raw = b""
        finally:
            self.inflight -= 1
        done = time.perf_counter()
        if not raw:
            self._dropped(req, "connection dropped")
            writer.close()
            return await self._connect()
        try:
            response = json.loads(raw)
        except ValueError:
            response = None
        if not isinstance(response, dict):
            self.out.attempted += 1
            self.out.fail("invalid", f"{req.rid}: unparsable answer {raw[:80]!r}")
            return conn
        self.out.judge(response, req.expected)
        sink.append((req, done - due, done - sent, done))
        return conn

    async def step(self, rate: float, seconds: float):
        """Offer ``rate`` req/s for ``seconds``; (records, lateness, backlog)."""
        n = max(1, int(rate * seconds))
        sink: list = []
        late: list[float] = []
        t0 = time.perf_counter() + 0.005
        for k in range(n):
            due = t0 + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            self.queue.put_nowait((due, next(self.cycle), sink))
        delay = t0 + n / rate - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        backlog = self.queue.qsize() + self.inflight
        await self._join()
        return sink, late, backlog

    async def saturate(self, seconds: float) -> list[float]:
        """Closed loop, every connection busy; completions/s per window."""
        sink: list = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            while self.queue.qsize() < CONNECTIONS:
                self.queue.put_nowait((time.perf_counter(), next(self.cycle), sink))
            await asyncio.sleep(0.0005)
        await self._join()
        full = int(seconds / WINDOW_SECONDS)
        windows: dict[int, list[float]] = {k: [] for k in range(full)}
        for *_, done in sink:
            k = int((done - t0) / WINDOW_SECONDS)
            if k < full:
                windows[k].append(done)
        # Rate inside each whole window: completions after its first one
        # over the time they took (exact, not rounded to the window).
        return [
            (len(w) - 1) / (w[-1] - w[0])
            for w in (sorted(v) for v in windows.values())
            if len(w) > 2
        ]

    async def warm(self, n: int) -> None:
        sink: list = []
        for _ in range(n):
            self.queue.put_nowait((time.perf_counter(), next(self.cycle), sink))
        await self._join()


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    with harness.workdir("tier") as work:
        model = work / "model.npz"
        frozen = harness.frozen_selector_file(seed, model)
        requests, redrawn = harness.make_requests(
            frozen, seed, MIX, max_line_bytes=harness.ASYNCIO_LINE_LIMIT
        )
        out.params = {
            "mix": MIX,
            "connections": CONNECTIONS,
            "workers": 1,
            "reference_rate": REF_RATE,
            "ladder": list(LADDER),
            "step_seconds": STEP_SECONDS,
            "p99_limit_ms": P99_LIMIT_MS,
            "max_line_bytes": max(len(r.line) + 1 for r in requests),
            "redrawn_inputs": redrawn,
            "loop": "open (due-time latency); capacity closed",
        }
        inproc = _inprocess_latency(model, requests) if trace else None
        asyncio.run(_drive(work, model, requests, seconds, trace, out, inproc))
    return out


def _blocks(sink) -> list[list[float]]:
    """Due-time latencies grouped into consecutive BLOCK_SECONDS slices."""
    first = min(done - lat for _, lat, _, done in sink)
    blocks: dict[int, list[float]] = {}
    for _, lat, _, done in sink:
        k = int((done - lat - first) / BLOCK_SECONDS)
        blocks.setdefault(k, []).append(lat)
    return [blocks[k] for k in sorted(blocks)]


def _inprocess_latency(model, requests) -> dict[str, float]:
    """Median in-process ``handle_line`` seconds per distinct request."""
    from repro.serving.server import SelectorServer, ServingConfig

    server = SelectorServer(ServingConfig(model_path=str(model)))
    samples: dict[str, list[float]] = {r.rid: [] for r in requests}
    for _ in range(4):
        for req in requests:
            t0 = time.perf_counter()
            server.handle_line(req.line)
            samples[req.rid].append(time.perf_counter() - t0)
    return {rid: harness.median(s[1:]) for rid, s in samples.items()}


async def _boot(work, model, index, first, telemetry="on"):
    """A running host and its launch-to-ready seconds (stopped on failure)."""
    host = Host(work, model, index, telemetry)
    try:
        return host, await host.ready(first)
    except BaseException:
        await host.stop()
        raise


async def _drive(work, model, requests, seconds, trace, out, inproc) -> None:
    try:
        if trace:
            await _traced(work, model, requests, seconds, out, inproc)
        else:
            await _untraced(work, model, requests, seconds, out)
    except Stalled:
        pass  # counted as dropped; the run reports ``correct`` false


async def _untraced(work, model, requests, seconds, out) -> None:
    """End-to-end figures, the front-end's telemetry off.

    The worker keeps the telemetry that ``repro serve`` always turns on
    for its ``metrics`` op; it cannot be switched off from outside.
    The run boots SETUP_REPEATS hosts one after another and loads each
    for its share of the seconds, so neither the boots nor the load sit
    in one spell of a shared machine.  Each share offers whole blocks of
    the reference rate, then saturates.
    """
    share = seconds / SETUP_REPEATS
    step_s = BLOCK_SECONDS * max(1, round(0.5 * share / BLOCK_SECONDS))
    setup, rss, blocks, capacity = [], [], [], []
    for k in range(SETUP_REPEATS):
        host, ready_s = await _boot(work, model, k, requests[0], "off")
        setup.append(ready_s)
        try:
            load = Load(host.socket, out, requests)
            await load.start()
            await load.warm(len(requests))
            sink, _, _ = await load.step(REF_RATE, step_s)
            capacity += await load.saturate(share - step_s)
            await load.close()
            rss.append(host.peak_rss_mb())
        finally:
            await host.stop()
        if sink:
            blocks += _blocks(sink)
    out.metrics["setup_s"] = harness.median(setup)
    out.metrics["peak_rss_mb"] = harness.median(rss)
    if blocks:
        out.metrics.update(harness.block_latency(blocks))
    # The median window, not the fastest: with two requests in flight the
    # rate follows the wake-ups between three processes on few cores, so
    # single windows swing both ways, and their extremes most.
    out.metrics["throughput_per_s"] = harness.median(capacity)


async def _traced(work, model, requests, seconds, out, inproc) -> None:
    m = out.metrics
    host, _ = await _boot(work, model, 0, requests[0])
    try:
        load = Load(host.socket, out, requests)
        await load.start()
        await load.warm(len(requests))
        sink, late, _ = await load.step(REF_RATE, 0.3 * seconds)
        shipped = harness.median(wire for _, _, wire, _ in sink)
        for size_class in ("tiny", "medium"):
            ms = [d * 1e3 for r, d, _, _ in sink if r.size_class == size_class]
            m[f"request.{size_class}.p50_ms"] = harness.median(ms)
        m["serving.frontend.added_ms"] = harness.median(
            (wire - inproc[r.rid]) * 1e3 for r, _, wire, _ in sink
        )
        max_rps, backlogs = 0.0, []
        for rate in LADDER:
            step, step_late, backlog = await load.step(rate, STEP_SECONDS)
            late.extend(step_late)
            backlogs.append(backlog)
            p99 = harness.quantile([d * 1e3 for _, d, _, _ in step], 0.99)
            if p99 > P99_LIMIT_MS or backlog > max(2, 0.05 * len(step)):
                break
            max_rps = rate
        await load.close()
        m["tier.max_rps"] = max_rps
        m["tier.backlog"] = max(backlogs)
        m["tier.generator_late_ms"] = harness.quantile(late, 0.99) * 1e3
        metrics = (await host.op("metrics")).get("metrics", {})
        for name in ("routed", "completed", "worker_lost", "hedges"):
            m[f"serving.frontend.{name}"] = metrics.get(
                f"serving.{name}", {}
            ).get("value", 0.0)
    finally:
        await host.stop()

    # The same reference step with the front-end's telemetry off.
    host, _ = await _boot(work, model, 1, requests[0], telemetry="off")
    try:
        load = Load(host.socket, out, requests)
        await load.start()
        await load.warm(len(requests))
        sink, _, _ = await load.step(REF_RATE, 0.3 * seconds)
        await load.close()
        plain = harness.median(wire for _, _, wire, _ in sink)
    finally:
        await host.stop()
    if plain > 0:
        m["trace_overhead"] = shipped / plain
