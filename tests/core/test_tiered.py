"""TieredSelector: calibration, determinism, and escalation fidelity.

The contract under test:

- calibration is a pure function of the frozen model (same model in,
  same margin threshold out);
- tier-1 answers only when the observed margin strictly exceeds the
  threshold, so raising the threshold can only move answers from tier 1
  to tier 2 — never change a tier-2 answer;
- every escalation is bit-identical to the full 21-feature pipeline,
  which means a forced-escalation selector *is* the full pipeline.
"""

import numpy as np
import pytest

from repro.core.tiered import TierDecision, TieredSelector
from repro.features import extract_features
from repro.features.extract import cheap_features_from_lengths
from repro.serving.drill import synthetic_frozen_selector


@pytest.fixture(scope="module")
def frozen():
    return synthetic_frozen_selector(seed=5)


@pytest.fixture(scope="module")
def tiered(frozen):
    return TieredSelector.calibrate(frozen)


def _matrices(n, seed=11):
    from repro.formats.coo import COOMatrix

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        nrows = int(rng.integers(2, 40))
        ncols = int(rng.integers(2, 40))
        nnz = int(rng.integers(1, max(2, nrows * ncols // 4)))
        flat = rng.choice(nrows * ncols, size=nnz, replace=False)
        rows, cols = np.divmod(flat, ncols)
        out.append(COOMatrix(
            (nrows, ncols), rows, cols, rng.uniform(0.5, 2.0, size=nnz)
        ))
    return out


def test_calibration_is_deterministic(frozen):
    a = TieredSelector.calibrate(frozen)
    b = TieredSelector.calibrate(frozen)
    assert a.margin_threshold == b.margin_threshold
    assert np.isfinite(a.margin_threshold)
    assert a.margin_threshold >= 0.0


def test_threshold_must_be_finite_and_nonnegative(frozen):
    with pytest.raises(ValueError):
        TieredSelector(frozen, -0.5)
    with pytest.raises(ValueError):
        TieredSelector(frozen, float("nan"))


def test_selection_is_deterministic(tiered):
    for m in _matrices(10):
        first = tiered.select(m)
        second = tiered.select(m)
        assert first == second


def test_escalations_match_full_pipeline(frozen, tiered):
    escalated = 0
    for m in _matrices(40):
        decision = tiered.select(m)
        assert isinstance(decision, TierDecision)
        assert decision.tier in (1, 2)
        if decision.tier == 2:
            escalated += 1
            vec = extract_features(m)[None, :]
            centroid = int(frozen.assign(vec)[0])
            assert decision.centroid == centroid
            assert decision.format == str(frozen.centroid_labels[centroid])
    assert escalated > 0, "workload never escalated; contract untested"


def test_forced_escalation_is_the_full_pipeline(frozen):
    forced = TieredSelector(frozen, 1e18)
    for m in _matrices(15, seed=3):
        decision = forced.select(m)
        assert decision.tier == 2
        vec = extract_features(m)[None, :]
        assert decision.centroid == int(frozen.assign(vec)[0])
    assert forced.escalation_rate == 1.0


def test_tier1_margin_strictly_exceeds_threshold(tiered):
    for m in _matrices(40):
        nrows, ncols = m.shape
        cheap = cheap_features_from_lengths(
            nrows, ncols, m.nnz, m.row_lengths()
        )
        decision, margin = tiered.stage1_with_margin(cheap)
        if decision is not None:
            assert decision.tier == 1
            assert margin > tiered.margin_threshold
            assert decision.margin == margin


def test_raising_threshold_only_moves_answers_to_tier2(frozen, tiered):
    stricter = TieredSelector(
        frozen, tiered.margin_threshold * 2.0 + 1.0
    )
    for m in _matrices(25):
        loose = tiered.select(m)
        strict = stricter.select(m)
        assert strict.tier >= loose.tier
        if loose.tier == 2:
            # Already escalated: a stricter margin cannot change it.
            assert strict.tier == 2
            assert strict.format == loose.format
            assert strict.centroid == loose.centroid


def test_counters_and_escalation_rate(frozen):
    ts = TieredSelector.calibrate(frozen)
    assert ts.requests == 0 and ts.escalations == 0
    assert ts.escalation_rate == 0.0
    matrices = _matrices(20, seed=17)
    for m in matrices:
        ts.select(m)
    assert ts.requests == len(matrices)
    assert 0 <= ts.escalations <= ts.requests
    assert ts.escalation_rate == ts.escalations / ts.requests


def test_decision_fields(tiered):
    (m,) = _matrices(1, seed=2)
    decision = tiered.select(m)
    assert isinstance(decision.format, str) and decision.format
    assert isinstance(decision.centroid, int)
    assert isinstance(decision.margin, float)
