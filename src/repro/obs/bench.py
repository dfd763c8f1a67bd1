"""The serving/inference latency benchmark behind ``repro obs bench``.

Drives two request paths over a *seeded* workload so consecutive runs
measure the same work:

- **serve** — a :class:`~repro.serving.server.SelectorServer` over a
  synthetic frozen model answers ``n_requests`` valid predict lines one
  at a time; every request's wall latency is kept, so p50/p95/p99 are
  exact (nearest-rank over raw samples, not bucket estimates).
- **batch** — :class:`~repro.inference.engine.BatchPredictor` answers
  the same feature distribution in ``repeats`` sharded batches; the
  quantiles are over per-batch wall times.

Telemetry is enabled around both phases, so the result also carries the
per-stage span cost table (``stages``) and the merged metrics registry
snapshot (``metrics``) — the inputs ``repro obs report`` evaluates SLOs
against.  The output schema is the ``BENCH_obs.json`` contract::

    {"bench": "serving_latency", "seed": ..., "requests": ..., ...,
     "serve": {"p50_ms": ..., "p95_ms": ..., "p99_ms": ..., "rps": ...},
     "batch": {"p50_ms": ..., ..., "items_per_second": ...},
     "stages": {"serving.request": {"calls": ..., "cum_s": ...,
                "self_s": ...}, ...},
     "metrics": {...}}

`benchmarks/bench_serving_latency.py` is the CI-facing wrapper; the
logic lives here because ``benchmarks/`` is not an importable package.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.obs.quantiles import exact_quantile
from repro.obs.telemetry import TELEMETRY


def _stage_costs() -> dict:
    """Aggregate the live tracer into {span name: cost} rows."""
    from repro.obs.stats import aggregate

    events = TELEMETRY.tracer.events()
    return {
        hp.name: {
            "calls": hp.calls,
            "cum_s": round(hp.cum_seconds, 6),
            "self_s": round(hp.self_seconds, 6),
        }
        for hp in aggregate(events)
    }


def _quantiles_ms(samples: list[float]) -> dict:
    return {
        "p50_ms": round(exact_quantile(samples, 0.5) * 1e3, 6),
        "p95_ms": round(exact_quantile(samples, 0.95) * 1e3, 6),
        "p99_ms": round(exact_quantile(samples, 0.99) * 1e3, 6),
    }


def bench_serve(
    model_path: str, n_requests: int, seed: int, max_batch: int = 8
) -> tuple[dict, "object"]:
    """Time ``n_requests`` valid predict lines through the full server.

    Returns the result row plus the server (so the caller can read its
    metrics snapshot after the fact).
    """
    from repro.serving.drill import _random_matrix_text
    from repro.serving.server import SelectorServer, ServingConfig

    server = SelectorServer(
        ServingConfig(
            model_path=model_path, hot_reload=False, max_batch=max_batch
        )
    )
    lines = [
        json.dumps({
            "id": f"b{i}",
            "op": "predict",
            "mtx": _random_matrix_text(i, seed),
        })
        for i in range(n_requests)
    ]
    latencies: list[float] = []
    statuses: dict[str, int] = {}
    started = time.perf_counter()
    for line in lines:
        t0 = time.perf_counter()
        response = server.handle_line(line)
        latencies.append(time.perf_counter() - t0)
        status = str(response.get("status"))
        statuses[status] = statuses.get(status, 0) + 1
    wall = time.perf_counter() - started
    row = {
        "n_requests": n_requests,
        "rps": round(n_requests / wall, 3) if wall > 0 else None,
        "wall_s": round(wall, 6),
        "statuses": dict(sorted(statuses.items())),
        **_quantiles_ms(latencies),
    }
    return row, server


def bench_batch(
    n_items: int, jobs: int, seed: int, repeats: int = 5
) -> dict:
    """Time ``repeats`` sharded batches of ``n_items`` feature vectors."""
    from repro.inference.engine import BatchPredictor
    from repro.serving.drill import synthetic_frozen_selector

    predictor = BatchPredictor(synthetic_frozen_selector(seed=seed))
    rng = np.random.default_rng(seed)
    n_features = predictor.frozen.centroids.shape[1]
    X = rng.random((n_items, n_features))
    walls: list[float] = []
    n_fallback = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = predictor.predict_sharded(X, jobs=jobs)
        walls.append(time.perf_counter() - t0)
        n_fallback = report.n_fallback
    total = sum(walls)
    return {
        "n_items": n_items,
        "jobs": jobs,
        "repeats": repeats,
        "items_per_second": (
            round(repeats * n_items / total, 3) if total > 0 else None
        ),
        "n_fallback": n_fallback,
        **_quantiles_ms(walls),
    }


def run_bench(
    model_path: str,
    n_requests: int = 200,
    n_items: int = 256,
    jobs: int = 2,
    seed: int = 0,
    max_batch: int = 8,
    repeats: int = 5,
) -> dict:
    """Full serving+batch benchmark; returns the BENCH_obs.json payload.

    Runs with telemetry enabled (restoring the prior state afterwards)
    so per-stage span costs and the metrics snapshot come along.
    """
    was_enabled = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        serve_row, server = bench_serve(
            model_path, n_requests, seed, max_batch=max_batch
        )
        batch_row = bench_batch(n_items, jobs, seed, repeats=repeats)
        stages = _stage_costs()
        metrics = server.metrics_snapshot()
    finally:
        if not was_enabled:
            TELEMETRY.disable()
    return {
        "bench": "serving_latency",
        "seed": seed,
        "requests": n_requests,
        "serve": serve_row,
        "batch": batch_row,
        "stages": stages,
        "metrics": metrics,
    }


def write_bench(result: dict, path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "bench_batch",
    "bench_serve",
    "run_bench",
    "write_bench",
]
