"""repro.obs — tracing, metrics, and profiling for the selection pipeline.

Three layers:

- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms in
  a thread-safe registry, exportable as JSON and Prometheus text format.
- :mod:`repro.obs.trace` — a tree of timed spans (``perf_counter``-based),
  exportable as Chrome-trace-compatible JSONL.
- :mod:`repro.obs.telemetry` — the global :data:`TELEMETRY` facade that
  instrumented call sites use.  **No-op by default**: with telemetry
  disabled, ``TELEMETRY.span()`` returns one shared no-op object and the
  metric helpers return after a single predicate, so instrumentation on
  hot paths (feature extraction, online updates, frozen-selector
  predict) is effectively free until a profiling run turns it on.

Typical use::

    from repro.obs import TELEMETRY

    TELEMETRY.enable()
    with TELEMETRY.span("pipeline.fit", n=len(X)):
        ...
    TELEMETRY.tracer.write_jsonl("trace.jsonl")
    print(TELEMETRY.registry.to_prometheus())

The CLI exposes the same machinery as ``repro <cmd> --profile [PATH]``
and ``repro stats <trace.jsonl>``.
"""

from repro.obs.context import (
    TraceContext,
    activate,
    current_context,
    new_trace_id,
    request_scope,
    stitch,
    worker_capture,
)
from repro.obs.events import EventLog, read_events
from repro.obs.export import dump_profile, render_metrics, render_span_tree
from repro.obs.metrics import (
    BACKOFF_BUCKETS,
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    bucket_quantile,
    quantile_key,
    snapshot_quantile,
    summarize,
)
from repro.obs.slo import (
    SLOConfigError,
    SLOResult,
    evaluate,
    load_slo_file,
)
from repro.obs.stats import (
    HotPath,
    TraceParseError,
    aggregate,
    load_trace,
    render_hot_paths,
    stats_report,
    total_root_seconds,
)
from repro.obs.telemetry import (
    NOOP_SPAN,
    Stopwatch,
    Telemetry,
    TELEMETRY,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "BACKOFF_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "EventLog",
    "Gauge",
    "Histogram",
    "HotPath",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SLOConfigError",
    "SLOResult",
    "Span",
    "Stopwatch",
    "TELEMETRY",
    "Telemetry",
    "TraceContext",
    "TraceParseError",
    "Tracer",
    "activate",
    "aggregate",
    "bucket_quantile",
    "current_context",
    "dump_profile",
    "evaluate",
    "load_slo_file",
    "load_trace",
    "new_trace_id",
    "quantile_key",
    "read_events",
    "render_hot_paths",
    "render_metrics",
    "render_span_tree",
    "request_scope",
    "snapshot_quantile",
    "stats_report",
    "stitch",
    "summarize",
    "total_root_seconds",
    "worker_capture",
]
