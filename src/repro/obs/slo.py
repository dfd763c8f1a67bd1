"""Declarative SLO rules evaluated against a metrics-registry snapshot.

An SLO file is JSON::

    {
      "slos": [
        {"name": "predict p99 under 10ms",
         "metric": "serving.latency_seconds", "quantile": 0.99,
         "max": 0.010},
        {"name": "shed rate under 5%",
         "ratio": ["serving.shed", "serving.admitted"], "max": 0.05},
        {"name": "no quarantined reloads",
         "metric": "serving.reload.quarantined", "max": 0},
        {"name": "breaker open under 2s",
         "metric": "serving.breaker.open_seconds", "max": 2.0}
      ]
    }

Three rule shapes, all sharing ``max`` (inclusive upper bound) and/or
``min`` (inclusive lower bound):

- ``metric`` + ``quantile`` — bucket-interpolated quantile of a
  histogram (p99 latency, span costs).
- ``metric`` alone — the scalar value of a counter/gauge, or the
  *count* of a histogram.
- ``ratio: [numerator, denominator]`` — counter ratio (shed rate,
  fallback rate, OOD rate).  A zero denominator evaluates to 0.0 —
  "no traffic" should not trip a rate SLO.

A rule whose metric is absent from the snapshot is *skipped* (passes,
flagged ``missing``) unless it sets ``"required": true`` — permissive CI
gates stay green on workloads that never exercise a subsystem, while
production gates can insist the metric exists.

Everything here is pure functions over plain dicts so the ``repro obs
report`` CLI and tests share one evaluator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.quantiles import quantile_key, snapshot_quantile


class SLOConfigError(ValueError):
    """A malformed SLO rule or file."""


@dataclass(frozen=True)
class SLOResult:
    """Outcome of one rule: observed value vs. bounds."""

    name: str
    value: float
    ok: bool
    detail: str

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _scalar(snapshot: Mapping, metric: str) -> float | None:
    """Value of a counter/gauge, count of a histogram; None if absent."""
    data = snapshot.get(metric)
    if data is None:
        return None
    if data.get("type") == "histogram":
        return float(data.get("count", 0))
    return float(data.get("value", 0.0))


def _check_rule(rule: Mapping[str, Any], snapshot: Mapping) -> SLOResult:
    name = rule.get("name") or rule.get("metric") or "unnamed"
    lo = rule.get("min")
    hi = rule.get("max")
    if lo is None and hi is None:
        raise SLOConfigError(f"rule {name!r}: needs at least one of min/max")
    required = bool(rule.get("required", False))

    if "ratio" in rule:
        pair = rule["ratio"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise SLOConfigError(
                f"rule {name!r}: ratio must be [numerator, denominator]"
            )
        num, den = _scalar(snapshot, pair[0]), _scalar(snapshot, pair[1])
        if num is None or den is None:
            missing = pair[0] if num is None else pair[1]
            return _missing(name, missing, required)
        value = num / den if den else 0.0
        label = f"{pair[0]}/{pair[1]}"
    elif "metric" in rule:
        metric = rule["metric"]
        q = rule.get("quantile")
        if q is not None:
            data = snapshot.get(metric)
            if data is None:
                return _missing(name, metric, required)
            if data.get("type") != "histogram":
                raise SLOConfigError(
                    f"rule {name!r}: quantile needs a histogram, "
                    f"{metric!r} is a {data.get('type')}"
                )
            value = snapshot_quantile(data, float(q))
            if math.isnan(value):
                return _missing(name, f"{metric} (empty)", required)
            label = f"{quantile_key(float(q))}({metric})"
        else:
            scalar = _scalar(snapshot, metric)
            if scalar is None:
                return _missing(name, metric, required)
            value = scalar
            label = metric
    else:
        raise SLOConfigError(f"rule {name!r}: needs 'metric' or 'ratio'")

    ok = True
    bound = ""
    if hi is not None and value > float(hi):
        ok = False
        bound = f" > max {hi:g}"
    if lo is not None and value < float(lo):
        ok = False
        bound = f" < min {lo:g}"
    if ok:
        bounds = [f"max {hi:g}" if hi is not None else "",
                  f"min {lo:g}" if lo is not None else ""]
        bound = f" (within {', '.join(b for b in bounds if b)})"
    return SLOResult(name, value, ok, f"{label} = {value:g}{bound}")


def _missing(name: str, what: str, required: bool) -> SLOResult:
    if required:
        return SLOResult(
            name, math.nan, False, f"required metric {what} missing"
        )
    return SLOResult(
        name, math.nan, True, f"metric {what} missing — skipped"
    )


def evaluate(
    rules: list[Mapping[str, Any]], snapshot: Mapping
) -> list[SLOResult]:
    """Evaluate every rule; order of results matches order of rules."""
    return [_check_rule(rule, snapshot) for rule in rules]


def load_slo_file(path: str) -> list[dict]:
    """Parse an SLO JSON file; returns the rule list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SLOConfigError(f"cannot read SLO file {path}: {exc}") from exc
    rules = data.get("slos") if isinstance(data, dict) else None
    if not isinstance(rules, list) or not rules:
        raise SLOConfigError(
            f"SLO file {path} must hold a non-empty top-level 'slos' list"
        )
    return rules


def report(
    rules: list[Mapping[str, Any]], snapshot: Mapping
) -> tuple[str, bool]:
    """Rendered multi-line report plus overall pass/fail."""
    results = evaluate(rules, snapshot)
    lines = [r.render() for r in results]
    n_fail = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} SLOs met"
        + (f", {n_fail} violated" if n_fail else "")
    )
    return "\n".join(lines), n_fail == 0


__all__ = [
    "SLOConfigError",
    "SLOResult",
    "evaluate",
    "load_slo_file",
    "report",
]
