"""Declarative SLO evaluation over metrics snapshots."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    SLOConfigError,
    evaluate,
    load_slo_file,
)
from repro.obs.slo import report


@pytest.fixture
def snapshot():
    reg = MetricsRegistry()
    reg.counter("serving.shed").inc(5)
    reg.counter("serving.admitted").inc(100)
    reg.gauge("serving.breaker.open_seconds").set(1.5)
    hist = Histogram(
        "serving.latency_seconds", buckets=(0.001, 0.01, 0.1, 1.0)
    )
    for _ in range(99):
        hist.observe(0.005)
    hist.observe(0.5)  # one slow outlier drives the p100 tail
    snap = reg.snapshot()
    snap["serving.latency_seconds"] = hist.snapshot()
    return snap


class TestRuleShapes:
    def test_quantile_rule_passes_and_fails(self, snapshot):
        ok_rule = {"name": "p50", "metric": "serving.latency_seconds",
                   "quantile": 0.5, "max": 0.01}
        bad_rule = {"name": "p100", "metric": "serving.latency_seconds",
                    "quantile": 1.0, "max": 0.01}
        results = evaluate([ok_rule, bad_rule], snapshot)
        assert results[0].ok
        assert not results[1].ok
        assert "> max" in results[1].detail

    def test_scalar_rule(self, snapshot):
        (res,) = evaluate(
            [{"name": "breaker", "metric": "serving.breaker.open_seconds",
              "max": 2.0}],
            snapshot,
        )
        assert res.ok
        assert res.value == 1.5

    def test_scalar_rule_on_histogram_uses_count(self, snapshot):
        (res,) = evaluate(
            [{"name": "traffic", "metric": "serving.latency_seconds",
              "min": 100}],
            snapshot,
        )
        assert res.ok
        assert res.value == 100.0

    def test_ratio_rule(self, snapshot):
        (res,) = evaluate(
            [{"name": "shed rate",
              "ratio": ["serving.shed", "serving.admitted"], "max": 0.1}],
            snapshot,
        )
        assert res.ok
        assert res.value == pytest.approx(0.05)

    def test_zero_denominator_is_zero_not_error(self, snapshot):
        snapshot["serving.admitted"]["value"] = 0.0
        (res,) = evaluate(
            [{"name": "shed rate",
              "ratio": ["serving.shed", "serving.admitted"], "max": 0.1}],
            snapshot,
        )
        assert res.ok
        assert res.value == 0.0


class TestMissingMetrics:
    def test_missing_metric_skips_by_default(self, snapshot):
        (res,) = evaluate(
            [{"name": "ghost", "metric": "no.such.metric", "max": 1}],
            snapshot,
        )
        assert res.ok
        assert math.isnan(res.value)
        assert "skipped" in res.detail

    def test_required_missing_metric_fails(self, snapshot):
        (res,) = evaluate(
            [{"name": "ghost", "metric": "no.such.metric", "max": 1,
              "required": True}],
            snapshot,
        )
        assert not res.ok
        assert "required" in res.detail


class TestConfigErrors:
    def test_rule_without_bounds(self, snapshot):
        with pytest.raises(SLOConfigError, match="min/max"):
            evaluate([{"name": "x", "metric": "serving.shed"}], snapshot)

    def test_rule_without_metric_or_ratio(self, snapshot):
        with pytest.raises(SLOConfigError, match="'metric' or 'ratio'"):
            evaluate([{"name": "x", "max": 1}], snapshot)

    def test_quantile_on_non_histogram(self, snapshot):
        with pytest.raises(SLOConfigError, match="needs a histogram"):
            evaluate(
                [{"name": "x", "metric": "serving.shed", "quantile": 0.5,
                  "max": 1}],
                snapshot,
            )

    def test_malformed_ratio(self, snapshot):
        with pytest.raises(SLOConfigError, match="numerator"):
            evaluate(
                [{"name": "x", "ratio": ["only-one"], "max": 1}], snapshot
            )


class TestLoadAndReport:
    def test_load_slo_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps({"slos": [{"name": "a", "metric": "m", "max": 1}]}),
            encoding="utf-8",
        )
        rules = load_slo_file(str(path))
        assert rules[0]["name"] == "a"

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(SLOConfigError, match="cannot read"):
            load_slo_file(str(tmp_path / "nope.json"))

    def test_load_rejects_empty_slos(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": []}), encoding="utf-8")
        with pytest.raises(SLOConfigError, match="non-empty"):
            load_slo_file(str(path))

    def test_report_counts_violations(self, snapshot):
        text, ok = report(
            [{"name": "good", "metric": "serving.breaker.open_seconds",
              "max": 2.0},
             {"name": "bad", "metric": "serving.breaker.open_seconds",
              "max": 0.1}],
            snapshot,
        )
        assert not ok
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "1/2 SLOs met, 1 violated" in text

    def test_permissive_ci_gate_parses(self):
        # The file the chaos drill's counters are gated on must stay loadable.
        from pathlib import Path

        path = Path(__file__).parents[2] / "benchmarks" / "slo_permissive.json"
        rules = load_slo_file(str(path))
        assert any(r.get("quantile") == 0.99 for r in rules)
