"""Rejection feedback, the soft-gated loss, and threshold updates."""

import math

import numpy as np
import pytest

from fedhlm.model_source import TokenDistribution
from fedhlm.thresholds import (
    LearnerConfig,
    RejectionFeedback,
    Threshold,
    local_loss,
    loss_gradient,
    lr_schedule,
    rejection_probability,
    sgd_step,
)


def fb(u: float, beta: float) -> RejectionFeedback:
    return RejectionFeedback(uncertainty=u, rejection_prob=beta)


def random_feedback(rng: np.random.Generator, size: int) -> list[RejectionFeedback]:
    return [fb(float(rng.random()), float(rng.random())) for _ in range(size)]


def test_rejection_probability_cases():
    slm = TokenDistribution(np.array([0.5, 0.35, 0.15]))
    llm = TokenDistribution(np.array([0.35, 0.5, 0.15]))
    # llm mass 0.35 on token 0 against slm mass 0.5 rejects with 1 - 0.7
    assert rejection_probability(slm, llm, 0) == pytest.approx(0.3)
    # more large-model mass than small-model mass never rejects
    assert rejection_probability(slm, llm, 1) == 0.0
    assert rejection_probability(slm, llm, 2) == 0.0
    with pytest.raises(ValueError):
        rejection_probability(slm, llm, 3)


def test_rejection_probability_floors_vanishing_denominator():
    slm = TokenDistribution(np.array([1.0, 0.0]))
    llm = TokenDistribution(np.array([0.5, 0.5]))
    # slm[1] = 0 floors to 1e-12, making the ratio enormous and beta 0
    assert rejection_probability(slm, llm, 1) == 0.0
    # llm[t] = 0 with slm mass present rejects with certainty
    slm2 = TokenDistribution(np.array([0.5, 0.5]))
    llm2 = TokenDistribution(np.array([1.0, 0.0]))
    assert rejection_probability(slm2, llm2, 1) == 1.0


def test_feedback_validation():
    with pytest.raises(ValueError):
        RejectionFeedback(uncertainty=-0.1, rejection_prob=0.5)
    with pytest.raises(ValueError):
        RejectionFeedback(uncertainty=0.5, rejection_prob=1.5)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(gamma=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(lam=-0.01)
    with pytest.raises(ValueError):
        LearnerConfig(eta0=0.0)
    cfg = LearnerConfig()
    assert (cfg.gamma, cfg.lam, cfg.eta0) == (10.0, 0.01, 0.05)


def test_loss_at_gate_midpoint():
    # sigmoid(0) = 0.5 and (1 - 0.2)^2 = 0.64, so one boundary record with
    # lambda 0 contributes exactly 0.32
    cfg = LearnerConfig(gamma=10.0, lam=0.0)
    assert local_loss([fb(0.4, 0.2)], 0.4, cfg) == pytest.approx(0.32)


def test_loss_saturated_gate_magnitude():
    cfg = LearnerConfig(gamma=10.0, lam=0.01)
    value = local_loss([fb(1.0, 0.2)], 0.0, cfg)
    assert value == pytest.approx(0.65, abs=1e-3)


def test_loss_empty_and_nonnegative():
    cfg = LearnerConfig()
    assert local_loss([], 0.5, cfg) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        records = random_feedback(rng, int(rng.integers(1, 20)))
        assert local_loss(records, float(rng.random()), cfg) >= 0.0


def test_loss_nonincreasing_in_threshold():
    cfg = LearnerConfig()
    rng = np.random.default_rng(2)
    records = random_feedback(rng, 30)
    grid = np.linspace(0.0, 1.0, 41)
    values = [local_loss(records, float(t), cfg) for t in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_gradient_at_gate_midpoint():
    cfg = LearnerConfig(gamma=10.0, lam=0.0)
    assert loss_gradient([fb(0.4, 0.2)], 0.4, cfg) == pytest.approx(-1.6)


def test_gradient_empty_and_nonpositive():
    cfg = LearnerConfig()
    assert loss_gradient([], 0.3, cfg) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        records = random_feedback(rng, int(rng.integers(1, 50)))
        g = loss_gradient(records, float(rng.random()), cfg)
        assert g <= 0.0


def test_gradient_matches_finite_difference_spot_checks():
    # The full randomized sweep lives in the acceptance suite; this pins a
    # handful of fixed cases at each gamma.
    rng = np.random.default_rng(4)
    for gamma in (1.0, 10.0, 50.0):
        cfg = LearnerConfig(gamma=gamma, lam=0.01)
        records = random_feedback(rng, 12)
        th = 0.37
        h = 1e-6
        fd = (local_loss(records, th + h, cfg) - local_loss(records, th - h, cfg)) / (2 * h)
        analytic = loss_gradient(records, th, cfg)
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sgd_step_moves_and_clamps():
    th = Threshold(value=0.5)
    up = sgd_step(th, gradient=-2.0, learning_rate=0.1)
    assert up.value == pytest.approx(0.7)
    clamped_high = sgd_step(Threshold(0.95), gradient=-10.0, learning_rate=0.1)
    assert clamped_high.value == 1.0
    clamped_low = sgd_step(Threshold(0.05), gradient=10.0, learning_rate=0.1)
    assert clamped_low.value == 0.0
    with pytest.raises(ValueError):
        sgd_step(th, gradient=-1.0, learning_rate=0.0)


def test_nonpositive_gradients_never_lower_threshold():
    rng = np.random.default_rng(5)
    cfg = LearnerConfig()
    th = Threshold(0.1)
    for round_index in range(40):
        records = random_feedback(rng, int(rng.integers(1, 30)))
        g = loss_gradient(records, th.value, cfg)
        new = sgd_step(th, g, lr_schedule(cfg.eta0, round_index))
        assert new.value >= th.value
        assert 0.0 <= new.value <= 1.0
        th = new


def test_threshold_validation():
    with pytest.raises(ValueError):
        Threshold(-0.01)
    with pytest.raises(ValueError):
        Threshold(1.01)


def test_lr_schedule_values_and_errors():
    assert lr_schedule(0.05, 0) == 0.05
    assert lr_schedule(0.1, 1) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        lr_schedule(0.1, -1)


def test_lr_schedule_sum_properties():
    eta0 = 0.05
    rates = [lr_schedule(eta0, r) for r in range(100_000)]
    # partial sums grow without bound (harmonic series) ...
    assert sum(rates) > eta0 * math.log(100_000)
    # ... while the squared sum stays under eta0^2 * pi^2 / 6
    assert sum(r * r for r in rates) < eta0 * eta0 * math.pi * math.pi / 6.0
