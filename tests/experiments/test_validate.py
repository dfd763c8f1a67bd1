"""The paper-shape claims validator."""

import numpy as np
import pytest

from repro.experiments.validate import ClaimResult, check_claims, render


@pytest.fixture(scope="module")
def claims(tiny_data):
    """One evaluation shared by every test: it regenerates Tables 4, 6, 7."""
    return check_claims(tiny_data)


def test_claims_evaluate(claims):
    assert len(claims) >= 10
    for c in claims:
        assert isinstance(c, ClaimResult)
        assert c.measured  # every claim carries evidence strings
        assert c.paper_evidence


def test_core_claims_hold_on_tiny_data(claims):
    holds = {c.claim: c.holds for c in claims}
    # The most robust shape claims must hold even at test scale.
    assert holds["CSR is the majority class on every architecture"]
    assert holds["no model beats the oracle (GT <= 1)"]
    assert holds[
        "every Mean-Shift variant loses to the best K-Means variant"
    ]
    # Overall, the vast majority of shape claims hold.
    assert np.mean(list(holds.values())) >= 0.8


def test_render(claims):
    text = render(claims)
    assert "claims hold" in text
    assert text.count("paper:") == len(claims)
