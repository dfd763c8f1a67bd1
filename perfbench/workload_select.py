"""``select``: in-process ``SelectorServer.handle_line``, one closed-loop caller.

A default ``ServingConfig`` serves a K-Means-VOTE model trained in
set-up.  The request list is a seeded mix of tiny (4-24 dims), medium
(~2k nnz) and large (~50k nnz) MatrixMarket payloads, replayed in whole
passes so every run sees the same mix.  No ``ml`` fit runs here.
"""

from __future__ import annotations

import sys
import time

import harness

#: Distinct requests per size class, replayed in whole passes.
#: A chosen mix, not measured traffic (the repository holds no request
#: log): ``p50_ms`` and ``p90_ms`` fall on medium requests, while the
#: four large ones take most of a pass's time and so set most of
#: ``throughput_per_s``.  Each class's share of the time is in the
#: provenance (``time_share``); per-class medians are per-layer rows.
MIX = {"tiny": 30, "medium": 66, "large": 4}
SETUP_REPEATS = 5


def _closed_loop(server, requests, seconds, outcome, latencies):
    """Whole passes over ``requests`` until ``seconds`` have elapsed.

    Appends (size class, seconds) per request to ``latencies`` and
    returns the wall seconds of each pass.
    """
    started = time.perf_counter()
    walls: list[float] = []
    while not walls or time.perf_counter() - started < seconds:
        t_pass = time.perf_counter()
        for req in requests:
            t0 = time.perf_counter()
            response = server.handle_line(req.line)
            latencies.append((req.size_class, time.perf_counter() - t0))
            outcome.judge(response, req.expected)
        walls.append(time.perf_counter() - t_pass)
    return walls


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.serving.server import SelectorServer, ServingConfig

    out = harness.Outcome()
    with harness.workdir("select") as work:
        model = work / "model.npz"
        frozen = harness.frozen_selector_file(seed, model)
        requests, redrawn = harness.make_requests(frozen, seed, MIX)
        first = work / "first.jsonl"
        first.write_text(requests[0].line)
        out.params = {
            "mix": MIX,
            "model_collection_size": harness.MODEL_SIZE,
            "model_clusters": harness.MODEL_CLUSTERS,
            "redrawn_inputs": redrawn,
            "loop": "closed, 1 caller",
        }
        server = SelectorServer(ServingConfig(model_path=str(model)))
        for req in requests:  # warm-up pass, not counted
            server.handle_line(req.line)

        if not trace:
            # Set-up probes are spread over the run, one before each
            # slice of the closed loop, so one slow spell of a shared
            # machine cannot cover them all.
            probe = harness.probe_argv("select", str(model), str(first))
            setup: list[float] = []
            latencies: list[tuple[str, float]] = []
            walls: list[float] = []
            for _ in range(SETUP_REPEATS):
                # Each slice's probe counts toward the slice's seconds.
                t0 = time.perf_counter()
                setup.append(harness.launch_to_ready(probe))
                left = seconds / SETUP_REPEATS - (time.perf_counter() - t0)
                walls += _closed_loop(server, requests, left, out, latencies)
            # Each request's fastest time over the run's passes: a pass
            # repeats identical work, and interference from other tenants
            # of a shared machine only ever adds time.
            n = len(requests)
            fastest = [
                min(s for _, s in latencies[i::n]) for i in range(n)
            ]
            out.metrics = {
                "setup_s": harness.median(setup),
                "peak_rss_mb": harness.peak_rss_mb(),
                "p50_ms": harness.median(fastest) * 1e3,
                "p90_ms": harness.quantile(fastest, 0.9) * 1e3,
                "throughput_per_s": n / min(walls),
            }
            out.params["time_share"] = _time_share(latencies)
            return out

        # Traced run: an untraced half for the overhead baseline and the
        # per-class latencies, then the same passes with spans on.
        latencies = []
        plain = _closed_loop(server, requests, seconds / 2, out, latencies)
        m = out.metrics
        for size_class in harness.SIZE_CLASSES:
            ms = [s * 1e3 for c, s in latencies if c == size_class]
            m[f"request.{size_class}.p50_ms"] = harness.median(ms)
        _tiered_row(frozen, requests, m)
        _traced_layers(server, requests, seconds / 2, out, min(plain))
    return out


def _time_share(latencies) -> dict[str, float]:
    """Each size class's share of the time spent in ``handle_line``."""
    total = sum(s for _, s in latencies)
    return {
        c: round(sum(s for k, s in latencies if k == c) / total, 3)
        for c in MIX
    }


def _tiered_row(frozen, requests, m: dict) -> None:
    """Comparison row: cheap-first tiered selection over the same matrices."""
    from repro.core.tiered import TieredSelector

    tiered = TieredSelector.calibrate(frozen)
    lat = []
    for req in requests:
        t0 = time.perf_counter()
        tiered.select(req.matrix)
        lat.append((time.perf_counter() - t0) * 1e3)
    m["core.tiered.p50_ms"] = harness.median(lat)
    m["core.tiered.escalation_rate"] = tiered.escalation_rate


def _traced_layers(server, requests, seconds, out, plain_pass_s) -> None:
    from repro.core.deploy import FrozenSelector
    from repro.serving import gateway

    targets = [
        (gateway, "read_matrix_market", "formats.io.read"),
        (FrozenSelector, "transform", "core.deploy.transform"),
        (FrozenSelector, "assign", "core.deploy.assign"),
        (FrozenSelector, "nearest_distance", "core.deploy.assign"),
        (server, "handle_line", "serving.server.handle_line"),
    ]
    handled = []
    with harness.telemetry_on() as tel, harness.spans_around(targets):
        walls = _closed_loop(server, requests, seconds, out, handled)
        rows, roots = harness.layer_rows(tel)
    passes, wall = len(walls), sum(walls)
    print(harness.format_layer_table(rows), file=sys.stderr)

    def row(name):
        return rows.get(name, harness.LayerRow(0, 0.0, 0.0))

    m = out.metrics
    n = len(handled)
    busy = {}
    for key, span in (
        ("formats.io.read", "formats.io.read"),
        ("features.stats.compute", "features.stats"),
        ("features.extract.derive", "features.derive"),
        ("core.deploy.transform", "core.deploy.transform"),
    ):
        r = row(span)
        busy[key] = r.busy_s
        m[f"{key}_ms"] = r.busy_s / max(r.calls, 1) * 1e3
        m[f"{key}_calls"] = r.calls
    assign = row("core.deploy.assign")
    m["core.deploy.assign_ms"] = assign.self_s / max(assign.calls, 1) * 1e3
    m["core.deploy.assign_calls"] = assign.calls
    read_bytes = passes * sum(len(req.text) for req in requests)
    m["formats.io.mb_per_s"] = read_bytes / 1e6 / max(row("formats.io.read").busy_s, 1e-12)
    handle = row("serving.server.handle_line")
    attributed = (
        busy["formats.io.read"]
        + busy["features.stats.compute"]
        + busy["features.extract.derive"]
        + assign.busy_s
    )
    m["serving.server.overhead_ms"] = (handle.busy_s - attributed) / max(n, 1) * 1e3
    m["serving.server.calls"] = handle.calls
    m["trace_overhead"] = min(walls) / plain_pass_s
    m["unattributed_s"] = max(wall - roots, 0.0)
