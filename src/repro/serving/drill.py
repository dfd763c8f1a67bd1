"""Deterministic serving drill: hostile traffic, bursts, and model swaps.

One harness drives every serving robustness check — the
``tests/serving`` end-to-end tests, ``repro chaos --target serve``, and
the ``serve-smoke`` CI job — so they all agree on what "survives" means:

- every submitted line receives exactly one structured response,
- every response's ``status`` is one of the four protocol statuses,
- crafted-malformed payloads come back ``invalid`` with the *expected*
  error code (or ``overloaded`` if admission shed them first),
- the process never raises out of the serving loop.

Request generation is pure (seeded NumPy generators keyed by request
index), so a drill is exactly reproducible — the same discipline as the
campaign fault injection in :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.deploy import FrozenSelector
from repro.formats.coo import COOMatrix
from repro.formats.io import matrix_market_string
from repro.serving.protocol import (
    STATUS_FALLBACK,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUSES,
    RequestParseError,
    parse_request_line,
)
from repro.serving.server import SelectorServer

#: Formats a synthetic model recommends, cycled across centroids.
_LABEL_CYCLE = ("csr", "ell", "coo", "hyb")


def synthetic_frozen_selector(
    seed: int = 0, n_centroids: int = 12
) -> FrozenSelector:
    """A structurally valid frozen model with deterministic arrays.

    Not *trained* on anything — the drill exercises the serving path,
    not selection quality — but it runs the real transform → assign →
    label pipeline end to end.
    """
    rng = np.random.default_rng(seed)
    n_features = 21
    labels = np.array(
        [_LABEL_CYCLE[i % len(_LABEL_CYCLE)] for i in range(n_centroids)],
        dtype=object,
    )
    return FrozenSelector(
        transform_kind=None,
        transform_shift=None,
        transform_apply=None,
        scaler_min=np.zeros(n_features),
        scaler_span=np.ones(n_features),
        pca_mean=None,
        pca_components=None,
        centroids=rng.random((n_centroids, n_features)),
        centroid_labels=labels,
    )


def _random_matrix_text(index: int, seed: int) -> str:
    """A small valid MatrixMarket body, unique coordinates, finite values."""
    rng = np.random.default_rng(seed * 1_000_003 + index)
    nrows = int(rng.integers(4, 24))
    ncols = int(rng.integers(4, 24))
    nnz = int(rng.integers(1, max(2, nrows * ncols // 6)))
    flat = rng.choice(nrows * ncols, size=nnz, replace=False)
    rows, cols = np.divmod(flat, ncols)
    vals = rng.uniform(0.5, 2.0, size=nnz)
    return matrix_market_string(COOMatrix((nrows, ncols), rows, cols, vals))


#: Crafted-malformed payload builders: (tag, expected invalid code, builder).
_POISON_PAYLOADS: tuple[tuple[str, str, Callable[[], str]], ...] = (
    ("bad_json", "bad_json", lambda: '{"op": "predict", "mtx": '),
    ("not_object", "not_object", lambda: '["predict"]'),
    ("unknown_op", "unknown_op", lambda: '{"op": "explode"}'),
    ("no_payload", "missing_field", lambda: '{"op": "predict"}'),
    (
        "bad_banner",
        "bad_banner",
        lambda: json.dumps({"op": "predict", "mtx": "hello world\n1 1 1\n"}),
    ),
    (
        "nan_value",
        "nonfinite_value",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1 nan\n",
            }
        ),
    ),
    (
        "duplicate_entry",
        "duplicate_entry",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1.0\n1 1 2.0\n",
            }
        ),
    ),
    (
        "huge_nnz",
        "too_large",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "3 3 999999999999\n1 1 1.0\n",
            }
        ),
    ),
    (
        "out_of_range",
        "index_out_of_range",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n7 7 1.0\n",
            }
        ),
    ),
    (
        "truncated",
        "count_mismatch",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "5 5 9\n1 1 1.0\n2 2 1.0\n",
            }
        ),
    ),
    (
        "negative_dims",
        "bad_size",
        lambda: json.dumps(
            {
                "op": "predict",
                "mtx": "%%MatrixMarket matrix coordinate real general\n"
                "-3 3 1\n1 1 1.0\n",
            }
        ),
    ),
)


@dataclass
class DrillExpectation:
    """What statuses (and invalid-code) a request may legally draw."""

    statuses: tuple[str, ...]
    invalid_code: str | None = None


def build_request_lines(
    n: int, seed: int = 0, oversize_bytes: int | None = None
) -> tuple[list[str], dict[str, DrillExpectation]]:
    """``n`` deterministic request lines plus per-id expectations.

    Roughly 60% valid predict requests, a rotating cast of malformed /
    poison payloads, periodic health probes, and (when
    ``oversize_bytes`` is given) occasional oversized inline matrices.
    Malformed payloads may still legally come back ``overloaded`` — a
    shed request is shed before it is parsed deeply.
    """
    lines: list[str] = []
    expectations: dict[str, DrillExpectation] = {}
    poison_cursor = 0
    for i in range(n):
        request_id = f"r{i}"
        if i % 17 == 5:
            lines.append(json.dumps({"id": request_id, "op": "health"}))
            expectations[request_id] = DrillExpectation(
                (STATUS_OK, STATUS_OVERLOADED)
            )
        elif i % 23 == 7 and oversize_bytes is not None:
            body = {
                "id": request_id,
                "op": "predict",
                "mtx": "%" * (oversize_bytes + 1),
            }
            lines.append(json.dumps(body))
            expectations[request_id] = DrillExpectation(
                (STATUS_INVALID, STATUS_OVERLOADED),
                invalid_code="payload_too_large",
            )
        elif i % 3 == 1:
            tag, code, builder = _POISON_PAYLOADS[
                poison_cursor % len(_POISON_PAYLOADS)
            ]
            poison_cursor += 1
            try:
                payload = json.loads(builder())
                payload["id"] = request_id
                lines.append(json.dumps(payload))
                expectations[request_id] = DrillExpectation(
                    (STATUS_INVALID, STATUS_OVERLOADED), invalid_code=code
                )
            except (ValueError, TypeError):
                # Deliberately unparseable (or non-object) line: no id
                # survives parsing, so the response's id is null —
                # counted but not tracked per-id.
                lines.append(builder())
        else:
            body = {
                "id": request_id,
                "op": "predict",
                "mtx": _random_matrix_text(i, seed),
            }
            lines.append(json.dumps(body))
            # A valid request may be answered by the model, shed under
            # burst, or served by the fallback while the breaker is
            # open / faults are injected.
            expectations[request_id] = DrillExpectation(
                ("ok", "fallback", "overloaded")
            )
    return lines, expectations


def tier_expectations(
    expectations: dict[str, DrillExpectation],
) -> dict[str, DrillExpectation]:
    """Widen single-process expectations for the multi-worker tier.

    A worker may die with any routed request in flight; the front-end
    then answers predict/feedback with a *typed* ``fallback`` (reason
    ``worker_lost``) instead of hanging.  Every tracked id therefore
    may legally draw ``fallback`` on top of its single-process status
    set; the invalid-code expectation still applies whenever the
    response actually is ``invalid``.
    """
    widened: dict[str, DrillExpectation] = {}
    for request_id, expected in expectations.items():
        statuses = expected.statuses
        if STATUS_FALLBACK not in statuses:
            statuses = statuses + (STATUS_FALLBACK,)
        widened[request_id] = DrillExpectation(
            statuses, expected.invalid_code
        )
    return widened


@dataclass
class DrillReport:
    """Outcome of one serving drill."""

    n_requests: int = 0
    n_responses: int = 0
    by_status: Counter = field(default_factory=Counter)
    by_code: Counter = field(default_factory=Counter)
    by_reason: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)
    swap_events: list[str] = field(default_factory=list)
    breaker_opens: int = 0
    #: Measured p99 latency; ``None`` (and left out of the text) when
    #: the drill measured none.
    p99_latency_ms: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        summary = (
            f"serving drill: {self.n_requests} requests, "
            f"{self.n_responses} responses"
        )
        if self.p99_latency_ms is not None:
            summary += f", p99 {self.p99_latency_ms:.2f} ms"
        lines = [
            summary,
            "  statuses : "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.by_status.items())
            ),
        ]
        if self.by_code:
            lines.append(
                "  codes    : "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.by_code.items())
                )
            )
        if self.by_reason:
            lines.append(
                "  reasons  : "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.by_reason.items())
                )
            )
        lines.append(
            f"  breaker  : {self.breaker_opens} open transition(s)"
        )
        if self.swap_events:
            lines.append("  reloads  : " + ", ".join(self.swap_events))
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations[:20])
        else:
            lines.append("  contract : every request answered, no crashes")
        return "\n".join(lines)


def run_serve_drill(
    server: SelectorServer,
    lines: list[str],
    expectations: dict[str, DrillExpectation] | None = None,
    burst: int = 1,
    actions: dict[int, Callable[[], str | None]] | None = None,
) -> DrillReport:
    """Feed ``lines`` to ``server`` in bursts and audit every response.

    ``actions`` maps a burst index to a callable run *before* that burst
    (model swaps, fault toggles); a non-None return value is recorded in
    the report's ``swap_events``.
    """
    expectations = expectations or {}
    report = DrillReport(n_requests=len(lines))
    answered: Counter = Counter()
    burst_index = 0
    for start in range(0, len(lines), max(1, burst)):
        if actions and burst_index in actions:
            try:
                event = actions[burst_index]()
                if event:
                    report.swap_events.append(event)
            except Exception as exc:
                report.violations.append(f"drill action failed: {exc}")
        burst_index += 1
        chunk = lines[start : start + max(1, burst)]
        try:
            responses = server.submit_burst(chunk)
        except Exception as exc:
            report.violations.append(
                f"server raised out of submit_burst: "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        if len(responses) != len(chunk):
            report.violations.append(
                f"burst of {len(chunk)} lines drew {len(responses)} "
                f"responses"
            )
        for response in responses:
            _audit_response(report, answered, expectations, response)
    _audit_coverage(report, answered, expectations)
    report.breaker_opens = server.breaker.n_opens
    report.p99_latency_ms = server.latency_quantiles()["p99"] or 0.0
    return report


def _audit_response(
    report: DrillReport,
    answered: Counter,
    expectations: dict[str, DrillExpectation],
    response: dict,
) -> None:
    """Check one response against the contract; record in ``report``."""
    report.n_responses += 1
    status = response.get("status")
    report.by_status[status] += 1
    if "code" in response:
        report.by_code[response["code"]] += 1
    if "reason" in response:
        report.by_reason[response["reason"]] += 1
    if status not in STATUSES:
        report.violations.append(
            f"unknown status {status!r} in {response}"
        )
    request_id = response.get("id")
    if request_id is not None:
        answered[request_id] += 1
        expected = expectations.get(request_id)
        if expected is not None:
            if status not in expected.statuses:
                report.violations.append(
                    f"{request_id}: status {status!r} not in "
                    f"{expected.statuses}"
                )
            elif (
                status == STATUS_INVALID
                and expected.invalid_code is not None
                and response.get("code") != expected.invalid_code
            ):
                report.violations.append(
                    f"{request_id}: code "
                    f"{response.get('code')!r} != expected "
                    f"{expected.invalid_code!r}"
                )


def _audit_coverage(
    report: DrillReport,
    answered: Counter,
    expectations: dict[str, DrillExpectation],
) -> None:
    for request_id, count in answered.items():
        if count != 1:
            report.violations.append(
                f"{request_id}: answered {count} times"
            )
    for request_id in expectations:
        if request_id not in answered:
            report.violations.append(f"{request_id}: never answered")


def audit_tier_responses(
    pairs: list[tuple[str, dict]],
    expectations: dict[str, DrillExpectation] | None = None,
    n_requests: int | None = None,
) -> DrillReport:
    """Audit ``(line, response)`` pairs collected from the tier front-end.

    The multi-worker analogue of the in-process audit inside
    :func:`run_serve_drill`: same contract (exactly one structured
    response per line, legal status, expected invalid code), but the
    responses were gathered by a socket client
    (:func:`repro.serving.frontend.drive_tier`) instead of
    ``submit_burst``.  The breaker count is left zero and the p99 unset
    — tier-wide figures come from the aggregated ``metrics`` op instead.
    """
    expectations = expectations or {}
    report = DrillReport(
        n_requests=len(pairs) if n_requests is None else n_requests
    )
    answered: Counter = Counter()
    for _line, response in pairs:
        _audit_response(report, answered, expectations, response)
    _audit_coverage(report, answered, expectations)
    return report


def _refused_by_front_end(line: str, max_bytes: int) -> bool:
    """Whether the tier front-end answers ``line`` ``invalid`` itself.

    The line is framed as :func:`~repro.serving.frontend.drive_tier`
    sends it and the front-end parses it: with one trailing newline,
    which the byte cap does not count.
    """
    try:
        parse_request_line(line.rstrip("\n") + "\n", max_bytes)
    except RequestParseError:
        return True
    return False


def audit_tier_conservation(tier, lines: Iterable[str] = ()) -> list[str]:
    """Check the tier's accounting invariants; returns violations.

    ``lines`` are the request lines the caller sent the front-end over
    its client connections; a caller that sent none passes none.  Three
    exact conservation laws (DESIGN §15) plus one bound:

    - ``routed == completed + worker_lost`` — no routed request is ever
      double-counted or silently dropped, hedged or not.
    - ``completed == primary_wins + hedge_wins`` — every completed
      request was won by exactly one dispatch branch; a hedge that
      fires never inflates the completion count.
    - ``invalid`` equals the number of non-blank ``lines`` that
      :func:`parse_request_line` rejects under the tier's
      ``max_request_bytes`` — every line the front-end answers itself is
      counted once.  Blank lines draw no answer, so they are skipped.
    - hedge volume stays within the token-bucket budget:
      ``hedges <= hedge_budget * routed + burst``.
    """
    violations: list[str] = []
    if tier.n_routed != tier.n_completed + tier.n_worker_lost:
        violations.append(
            f"conservation: routed={tier.n_routed} != "
            f"completed={tier.n_completed} + "
            f"worker_lost={tier.n_worker_lost}"
        )
    if tier.n_completed != tier.n_primary_wins + tier.n_hedge_wins:
        violations.append(
            f"hedge conservation: completed={tier.n_completed} != "
            f"primary_wins={tier.n_primary_wins} + "
            f"hedge_wins={tier.n_hedge_wins}"
        )
    max_bytes = tier.config.max_request_bytes
    refused = sum(
        1
        for line in lines
        if line.strip() and _refused_by_front_end(line, max_bytes)
    )
    if tier.n_invalid != refused:
        violations.append(
            f"invalid conservation: invalid={tier.n_invalid} != "
            f"{refused} lines refused by the front-end's parse"
        )
    budget = tier.config.hedge_budget
    if budget > 0:
        burst = max(1.0, 32.0 * budget)
        allowed = budget * tier.n_routed + burst
        if tier.n_hedges > allowed + 1e-9:
            violations.append(
                f"hedge budget: {tier.n_hedges} hedges over "
                f"{tier.n_routed} routed exceeds "
                f"{budget:.2%} + burst {burst:.1f}"
            )
    return violations


async def run_tier_drain_drill(
    socket_path: str, n_inflight: int = 4, seed: int = 0
) -> DrillReport:
    """Drive a graceful drain against a running tier front-end.

    The drain contract: **zero silently-dropped requests**.  Concretely,

    - requests in flight when ``shutdown`` lands are answered (any
      structured status), never left hanging or cut off,
    - the shutdown acknowledgement itself reports ``draining``,
    - a straggler arriving mid-drain draws a typed
      ``overloaded``/``draining`` refusal — a fast clean no, not a hang.

    Every read is bounded, so a broken drain shows up as a violation in
    the returned report instead of a hung drill.
    """
    report = DrillReport(n_requests=n_inflight + 2)

    async def bounded_readline(reader, tag: str) -> bytes | None:
        try:
            return await asyncio.wait_for(reader.readline(), timeout=30.0)
        except asyncio.TimeoutError:
            report.violations.append(f"{tag}: no response within 30s")
            return None

    # In-flight load: one predict per connection, written but not yet
    # awaited, so they are inside the fleet when shutdown arrives.
    conns = []
    for c in range(n_inflight):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        line = json.dumps(
            {
                "id": f"drain{c}",
                "op": "predict",
                "client": f"drain-client-{c}",
                "mtx": _random_matrix_text(c, seed),
            }
        )
        writer.write((line + "\n").encode())
        await writer.drain()
        conns.append((reader, writer))
    # The straggler's connection is opened *before* the drain begins so
    # its refusal cannot race the final teardown.
    straggler_reader, straggler_writer = await asyncio.open_unix_connection(
        socket_path
    )
    await asyncio.sleep(0.05)
    ctl_reader, ctl_writer = await asyncio.open_unix_connection(socket_path)
    ctl_writer.write(b'{"id": "drain_ctl", "op": "shutdown"}\n')
    await ctl_writer.drain()
    raw = await bounded_readline(ctl_reader, "drain_ctl")
    if raw:
        ack = json.loads(raw)
        if ack.get("status") != STATUS_OK or not ack.get("draining"):
            report.violations.append(
                f"shutdown ack is not a draining ok: {ack}"
            )
    # By the time the acknowledgement is readable, `_draining` is set:
    # this straggler must draw the typed refusal.
    straggler_writer.write(
        (
            json.dumps(
                {
                    "id": "drain_late",
                    "op": "predict",
                    "mtx": _random_matrix_text(10_000, seed),
                }
            )
            + "\n"
        ).encode()
    )
    await straggler_writer.drain()
    raw = await bounded_readline(straggler_reader, "drain_late")
    if raw:
        late = json.loads(raw)
        report.n_responses += 1
        report.by_status[late.get("status")] += 1
        if late.get("code"):
            report.by_code[late["code"]] += 1
        if (
            late.get("status") != STATUS_OVERLOADED
            or late.get("code") != "draining"
        ):
            report.violations.append(
                f"drain_late: drew {late} instead of a typed "
                f"draining refusal"
            )
    for c, (reader, writer) in enumerate(conns):
        raw = await bounded_readline(reader, f"drain{c}")
        if raw is None:
            continue
        if not raw:
            report.violations.append(
                f"drain{c}: connection closed with the request in flight"
            )
            continue
        response = json.loads(raw)
        report.n_responses += 1
        report.by_status[response.get("status")] += 1
        if response.get("status") not in STATUSES:
            report.violations.append(
                f"drain{c}: unknown status in {response}"
            )
        if response.get("id") != f"drain{c}":
            report.violations.append(
                f"drain{c}: answered with id {response.get('id')!r}"
            )
        writer.close()
    straggler_writer.close()
    ctl_writer.close()
    return report
