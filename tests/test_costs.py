"""Analytic cost accounting, the attempt policy, and cache saturation fits."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.cli import main
from fedhlm.costs import (
    CostModel,
    PHitEstimator,
    cache_hit_curve,
    expected_cost,
    fit_cache_alpha,
    should_attempt_p2p,
)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(c_llm=0.0)
    with pytest.raises(ValueError):
        CostModel(c_p2p=-1.0)
    for c_p2p, c_llm in ((math.nan, 4.0), (1.0, math.nan), (1.0, math.inf), (4.0, 4.0), (5.0, 4.0)):
        with pytest.raises(ValueError):
            CostModel(c_p2p=c_p2p, c_llm=c_llm)
    model = CostModel()
    assert model.c_p2p == 1.0
    assert model.c_llm == 4.0


def test_expected_cost_endpoints():
    model = CostModel(c_p2p=1.0, c_llm=4.0)
    assert expected_cost(1.0, model) == 1.0
    assert expected_cost(0.0, model) == 5.0
    assert expected_cost(0.5, model) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        expected_cost(1.2, model)


def test_attempt_rule_boundary():
    model = CostModel(c_p2p=1.0, c_llm=4.0)  # ratio 0.25
    assert should_attempt_p2p(0.3, model) is True
    assert should_attempt_p2p(0.2, model) is False
    # equality attempts: indifference resolves toward collaboration
    assert should_attempt_p2p(0.25, model) is True
    with pytest.raises(ValueError):
        should_attempt_p2p(-0.1, model)


def test_opportunistic_policy_never_exceeds_pure_policies():
    model = CostModel(c_p2p=1.0, c_llm=4.0)
    for step in range(21):
        p = step * 0.05
        policy = expected_cost(p, model) if should_attempt_p2p(p, model) else model.c_llm
        assert policy <= expected_cost(p, model)
        assert policy <= model.c_llm


def test_cache_hit_curve_shape():
    assert cache_hit_curve(0, 0.05) == 0.0
    assert cache_hit_curve(1, math.log(2.0)) == pytest.approx(0.5)
    values = [cache_hit_curve(s, 0.02) for s in (8, 16, 32, 64, 128, 256, 512)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values)
    with pytest.raises(ValueError):
        cache_hit_curve(-1, 0.02)
    with pytest.raises(ValueError):
        cache_hit_curve(8, 0.0)


def test_fit_recovers_known_alpha_exactly():
    # points generated from the curve itself make the log-space least
    # squares problem exact, so the fit returns the generating alpha.
    # alpha * max(size) must stay modest: once 1 - exp(-alpha*s) rounds
    # to 1.0 in float64 the fit can only see the clamped value.
    sizes = [8, 16, 32, 64, 128, 256, 512]
    for alpha in (0.001, 0.0125, 0.02):
        hits = [cache_hit_curve(s, alpha) for s in sizes]
        assert fit_cache_alpha(sizes, hits) == pytest.approx(alpha, rel=1e-9)


def test_fit_validation_and_saturation_guard():
    with pytest.raises(ValueError):
        fit_cache_alpha([], [])
    with pytest.raises(ValueError):
        fit_cache_alpha([1, 2], [0.5])
    with pytest.raises(ValueError):
        fit_cache_alpha([0, 2], [0.1, 0.2])
    # a ratio of exactly 1 is nudged below 1 instead of producing -inf
    assert math.isfinite(fit_cache_alpha([4, 8], [0.5, 1.0]))


def test_cache_model_validation():
    # the saturating cache model is cache_hit_curve itself; `fedhlm cost`
    # passes --cache-alpha to it and exits 2 when it rejects the value
    for alpha in (0.0, -0.02, math.nan, math.inf):
        with pytest.raises(ValueError):
            cache_hit_curve(8, alpha)
        assert main(["cost", "--cache-alpha", str(alpha)]) == 2


def test_estimator_uses_prior_until_window_filled():
    est = PHitEstimator(window=4, prior=0.5)
    assert est.estimate() == 0.5
    est.record(True)
    est.record(False)
    est.record(True)
    assert est.estimate() == 0.5  # still only three observations
    est.record(True)
    assert est.estimate() == pytest.approx(0.75)


def test_estimator_window_slides():
    est = PHitEstimator(window=3, prior=0.9)
    for outcome in (False, False, False):
        est.record(outcome)
    assert est.estimate() == 0.0
    est.record(True)
    est.record(True)
    assert est.estimate() == pytest.approx(2.0 / 3.0)


def test_estimator_validation():
    with pytest.raises(ValueError):
        PHitEstimator(window=0, prior=0.5)
    with pytest.raises(ValueError):
        PHitEstimator(window=3, prior=1.5)


def test_estimator_over_one_history():
    def estimate(history: list[bool], **kwargs) -> float:
        est = PHitEstimator(**kwargs)
        for outcome in history:
            est.record(outcome)
        return est.estimate()

    history = [True, False, True, True, False]
    # fewer outcomes than the window: the prior stands in
    assert estimate(history, window=8, prior=0.3) == 0.3
    # a full window averages every outcome, a short one only the latest
    assert estimate(history, window=5, prior=0.5) == pytest.approx(0.6)
    assert estimate(history, window=2, prior=0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        estimate(history, window=0, prior=0.5)


@given(
    window=st.integers(1, 12),
    prior=st.floats(0.0, 1.0),
    history=st.lists(st.booleans(), max_size=40),
)
def test_estimate_is_the_prior_then_the_mean_of_the_last_window(window, prior, history):
    est = PHitEstimator(window=window, prior=prior)
    assert est.estimate() == prior
    for n, outcome in enumerate(history, start=1):
        est.record(outcome)
        assert est.estimate() == (prior if n < window else sum(history[n - window : n]) / window)
