"""repro.serving — the resilient, long-running selector service.

The paper's deployment story (§1 requirement 2, §5.4) is "train once,
deploy many times": a frozen selector answers format queries cheaply
wherever matrices arrive.  This package grows that one-shot ``predict``
into a service that stays correct and *alive* under malformed input,
burst overload, model faults, and model rollover:

- :mod:`repro.serving.protocol` — JSONL request/response wire format
  with structured statuses (``ok`` / ``invalid`` / ``overloaded`` /
  ``fallback``) and machine-readable error codes.
- :mod:`repro.serving.gateway` — ingestion that treats every matrix as
  hostile: byte/dim/nnz budgets, strict MatrixMarket policy (NaN/Inf and
  duplicate coordinates rejected), certified-finite features.
- :mod:`repro.serving.admission` — bounded queue, per-request deadlines,
  shed-oldest load shedding.
- :mod:`repro.serving.breaker` — circuit breaker around model inference
  (closed → open → half-open probes).
- :mod:`repro.serving.reload` — hot model reload: one host over a file
  or model-store loader; watch by mtime/SHA-256, shadow-validate on a
  golden set, atomic swap, quarantine of bad candidates.
- :mod:`repro.serving.server` — the ``repro serve`` loop
  (stdin/stdout JSONL and Unix-socket transports) wiring it together.
- :mod:`repro.serving.drill` — the deterministic chaos drill shared by
  tests, ``repro chaos --target serve``, and the serve-smoke CI job.

Horizontal scaling (``repro serve --workers N``) adds three layers on
top, leaving the per-worker request path above unchanged:

- :mod:`repro.serving.routing` — consistent-hash ring keeping each
  client's admission/breaker state local to one worker.
- :mod:`repro.serving.modelstore` — shared mmap model store: the
  front-end shadow-validates and publishes once, N workers attach
  read-only to the same pages.
- :mod:`repro.serving.frontend` — the asyncio front-end: JSONL fan-out
  to a fixed fleet, typed worker-loss responses, respawn, and tier-wide
  metric/health aggregation.

The front-end also runs the tail-latency resilience layer (DESIGN §15):
deadline propagation (``deadline_ms`` on the wire, min-combined with
``--request-timeout``), hedged dispatch under a token-bucket budget
with the conservation contract ``completed == primary_wins +
hedge_wins``, and graceful drain on SIGTERM/``shutdown``.
"""

import importlib

#: Public name → the submodule that defines it.  Names resolve on first
#: use (PEP 562 ``__getattr__``), so importing one layer, such as
#: ``repro.serving.server``, loads that layer's imports and no sibling's:
#: a worker never loads the asyncio front-end or the drill (DESIGN §18).
_EXPORTS = {
    name: module
    for module, names in {
        "admission": ("AdmissionController",),
        "breaker": ("CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"),
        "drill": (
            "DrillExpectation",
            "DrillReport",
            "build_request_lines",
            "run_serve_drill",
            "synthetic_frozen_selector",
        ),
        "frontend": ("ServingTier", "TierConfig", "TierError"),
        "gateway": ("GatewayLimits", "IngestError", "IngestionGateway"),
        "modelstore": ("ModelStore", "ModelStoreError", "StoreLoader"),
        "protocol": (
            "Request",
            "RequestParseError",
            "STATUS_FALLBACK",
            "STATUS_INVALID",
            "STATUS_OK",
            "STATUS_OVERLOADED",
            "STATUSES",
            "encode_response",
            "parse_request_line",
        ),
        "reload": (
            "FileLoader",
            "ModelHost",
            "ModelVersion",
            "RELOAD_QUARANTINED",
            "RELOAD_SWAPPED",
            "RELOAD_UNCHANGED",
            "golden_features",
        ),
        "routing": ("DEFAULT_REPLICAS", "HashRing", "stable_hash"),
        "server": ("SelectorServer", "ServingConfig"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
