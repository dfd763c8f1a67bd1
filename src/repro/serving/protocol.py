"""Wire protocol of the resilient selector service.

One JSON object per line in both directions (JSONL), over stdin/stdout
or a Unix socket.  Requests::

    {"id": "r1", "op": "predict", "mtx": "%%MatrixMarket ..."}
    {"id": "r2", "op": "predict", "path": "/data/matrix.mtx"}
    {"id": "r3", "op": "feedback", "mtx": "...", "best_format": "ell"}
    {"id": "r4", "op": "health"}
    {"id": "r5", "op": "reload"}

``op`` defaults to ``predict``.  A request may carry a ``deadline_ms``
field: the client's remaining latency budget in milliseconds at send
time.  The tier front-end min-combines it with its own
``--request-timeout`` and forwards the *remaining* budget to the worker,
whose admission queue and predict path both honor it — a request whose
budget ran out is answered ``overloaded``/``deadline_exceeded`` without
burning inference time.  Every request — including ones the server
sheds or rejects — receives exactly one response whose ``status`` is
one of:

- ``ok`` — the model answered; ``format`` holds the recommendation.
- ``invalid`` — the request itself is unusable; ``code`` says why
  (``bad_json``, ``payload_too_large``, ``nonfinite_value``, ...).
- ``overloaded`` — admission control shed the request (``queue_full``),
  its deadline expired before processing (``deadline_exceeded``), or the
  server is draining for shutdown and no longer accepts new work
  (``draining``).
- ``fallback`` — the input was fine but the model could not be trusted;
  ``format`` still carries a safe recommendation and ``reason`` says why
  (``breaker_open``, ``out_of_distribution``, ``model_unusable``,
  ``inference_error``, ``internal_error``).

Responses are serialised with sorted keys and no whitespace so the same
logical answer is byte-identical across runs — the property the
serve-vs-predict parity drill asserts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# -- statuses ---------------------------------------------------------------

STATUS_OK = "ok"
STATUS_INVALID = "invalid"
STATUS_OVERLOADED = "overloaded"
STATUS_FALLBACK = "fallback"

#: Every status a response may carry (the drill asserts membership).
STATUSES = (STATUS_OK, STATUS_INVALID, STATUS_OVERLOADED, STATUS_FALLBACK)

# -- invalid-request codes --------------------------------------------------

CODE_BAD_JSON = "bad_json"
CODE_NOT_OBJECT = "not_object"
CODE_UNKNOWN_OP = "unknown_op"
CODE_MISSING_FIELD = "missing_field"
CODE_PAYLOAD_TOO_LARGE = "payload_too_large"
CODE_BAD_FEATURES = "bad_features"

# -- overload codes ---------------------------------------------------------

CODE_QUEUE_FULL = "queue_full"
CODE_DEADLINE = "deadline_exceeded"
#: The server is draining for graceful shutdown: in-flight requests
#: finish, new ones are answered with this typed refusal (never dropped).
CODE_DRAINING = "draining"

# -- tier codes -------------------------------------------------------------

#: A non-predict request was in flight on a worker that died; the tier
#: front-end answers it with this ``invalid`` code instead of hanging.
CODE_WORKER_LOST = "worker_lost"
#: The worker never answered within the front-end's patience budget.
CODE_WORKER_TIMEOUT = "worker_timeout"

# -- fallback reasons -------------------------------------------------------

REASON_BREAKER_OPEN = "breaker_open"
REASON_OUT_OF_DISTRIBUTION = "out_of_distribution"
REASON_MODEL_UNUSABLE = "model_unusable"
REASON_INFERENCE_ERROR = "inference_error"
REASON_INTERNAL_ERROR = "internal_error"
#: A predict/feedback request was in flight on a worker that died; the
#: tier front-end still answers with a safe format recommendation.
REASON_WORKER_LOST = "worker_lost"

#: Ops the server understands.  ``metrics`` returns a live registry
#: snapshot with latency quantiles; ``healthz`` is the cheap liveness
#: probe (state + SLO summary) meant for scrapers and load balancers.
KNOWN_OPS = (
    "predict", "feedback", "health", "healthz", "metrics", "reload",
    "shutdown",
)


@dataclass
class Request:
    """One admitted request, annotated by the admission controller."""

    id: str | None
    op: str
    body: dict
    #: Arrival timestamp on the server clock (set at admission).
    arrival: float = 0.0
    #: Absolute processing deadline (``None`` = no deadline).
    deadline: float | None = None
    #: Client/front-end latency budget remaining at send time, in
    #: milliseconds (the wire ``deadline_ms`` field); admission
    #: min-combines it with the configured deadline.
    budget_ms: float | None = None
    #: Pre-built response for requests rejected at parse time; the
    #: processing loop emits it verbatim instead of dispatching.
    rejection: dict | None = field(default=None, repr=False)


class RequestParseError(Exception):
    """A line that never became a request; carries the error response."""

    def __init__(self, response: dict) -> None:
        super().__init__(response.get("error", "unparseable request"))
        self.response = response


class LineTooLong(ValueError):
    """A line over the byte cap, already discarded through its newline.

    ``n_bytes`` is the line's :func:`line_bytes`: the length
    :func:`parse_request_line` reports for the line read whole.
    """

    def __init__(self, n_bytes: int) -> None:
        super().__init__(f"line of {n_bytes} bytes exceeds the stream limit")
        self.n_bytes = n_bytes


def invalid_response(
    code: str, error: str, request_id: str | None = None
) -> dict:
    return {
        "id": request_id,
        "status": STATUS_INVALID,
        "code": code,
        "error": error,
    }


def overloaded_response(code: str, request_id: str | None = None) -> dict:
    return {"id": request_id, "status": STATUS_OVERLOADED, "code": code}


def fallback_response(
    fmt: str, reason: str, request_id: str | None = None, **extra
) -> dict:
    resp = {
        "id": request_id,
        "status": STATUS_FALLBACK,
        "format": fmt,
        "reason": reason,
    }
    resp.update(extra)
    return resp


def ok_response(request_id: str | None = None, **fields) -> dict:
    resp = {"id": request_id, "status": STATUS_OK}
    resp.update(fields)
    return resp


def too_large_response(n_bytes: int, max_bytes: int) -> dict:
    """The ``invalid`` answer to a request line over the byte cap."""
    return invalid_response(
        CODE_PAYLOAD_TOO_LARGE,
        f"request line of {n_bytes} bytes exceeds the {max_bytes}-byte limit",
    )


def line_bytes(line: str) -> int:
    """UTF-8 length of ``line`` without one trailing ``"\\n"``.

    What the request-line byte cap counts, on every entry point: a line
    answers the same whether or not its transport kept the newline, and
    (valid UTF-8) whether it arrived as bytes or as text.  An ASCII line
    (the usual case) is measured without a copy.
    """
    n = len(line) if line.isascii() else len(line.encode("utf-8", "surrogatepass"))
    return n - 1 if line.endswith("\n") else n


def parse_request_line(line: str, max_bytes: int | None = None) -> Request:
    """Parse one JSONL request line into a :class:`Request`.

    The line may end in its ``"\\n"``; the answer is the same without
    it.  Raises :class:`RequestParseError` carrying the ready-to-send
    ``invalid`` response; the ingestion path never lets a hostile line
    escalate beyond that.
    """
    if max_bytes is not None:
        n_bytes = line_bytes(line)
        if n_bytes > max_bytes:
            raise RequestParseError(too_large_response(n_bytes, max_bytes))
    try:
        obj = json.loads(line)
    except (ValueError, TypeError) as exc:
        if line.endswith("\n"):
            # Name the error's position in the line without its newline.
            return parse_request_line(line[:-1])
        raise RequestParseError(
            invalid_response(CODE_BAD_JSON, f"unparseable JSON: {exc}")
        ) from exc
    if not isinstance(obj, dict):
        raise RequestParseError(
            invalid_response(
                CODE_NOT_OBJECT,
                f"request must be a JSON object, got {type(obj).__name__}",
            )
        )
    raw_id = obj.get("id")
    request_id = None if raw_id is None else str(raw_id)
    op = str(obj.get("op", "predict")).lower()
    if op not in KNOWN_OPS:
        raise RequestParseError(
            invalid_response(
                CODE_UNKNOWN_OP,
                f"unknown op {op!r}; known: {list(KNOWN_OPS)}",
                request_id,
            )
        )
    # Hostile-input tolerance: a non-numeric/non-finite deadline_ms is
    # ignored rather than rejected (the request is otherwise fine).  A
    # numeric budget <= 0 is kept — admission expires it immediately,
    # which is exactly what an already-out-of-budget client deserves.
    raw_budget = obj.get("deadline_ms")
    budget_ms = None
    if isinstance(raw_budget, (int, float)) and not isinstance(
        raw_budget, bool
    ):
        value = float(raw_budget)
        if math.isfinite(value):
            budget_ms = value
    return Request(id=request_id, op=op, body=obj, budget_ms=budget_ms)


def encode_response(response: dict) -> str:
    """Deterministic single-line encoding (sorted keys, no whitespace)."""
    return json.dumps(
        response, sort_keys=True, separators=(",", ":"), default=str
    )
