"""Uncertainty scoring, and the hard gate and soft relaxation that act on a score."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.costs import PHitEstimator
from fedhlm.engine import ClientState, SimulationConfig, Stage, resolve_token
from fedhlm.federation import ClusterTopology
from fedhlm.model_source import TokenDistribution, VocabSpec, argmax_token, gen_distribution_pair
from fedhlm.peers import TokenCache
from fedhlm.thresholds import LearnerConfig, RejectionFeedback, local_loss
from fedhlm.uncertainty import (
    SamplerConfig,
    ScoreKind,
    entropy_score,
    mc_disagreement,
    soften,
)


def one_hot(size: int, index: int) -> TokenDistribution:
    p = np.zeros(size)
    p[index] = 1.0
    return TokenDistribution(p)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(num_samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    cfg = SamplerConfig()
    assert cfg.num_samples == 10
    assert cfg.temperature == 2.0


def test_one_hot_distribution_never_disagrees():
    rng = np.random.default_rng(0)
    dist = one_hot(8, 3)
    for k in (1, 10, 100):
        score = mc_disagreement(dist, SamplerConfig(num_samples=k), rng)
        assert score.value == 0.0
        assert score.kind is ScoreKind.MC_DISAGREEMENT


def test_disagreement_is_quantized_to_sample_count():
    rng = np.random.default_rng(7)
    cfg = SamplerConfig(num_samples=10)
    for _ in range(100):
        p = rng.dirichlet(np.full(6, 0.5))
        score = mc_disagreement(TokenDistribution(p), cfg, rng)
        scaled = score.value * cfg.num_samples
        assert abs(scaled - round(scaled)) < 1e-12
        assert 0.0 <= score.value <= 1.0


def test_uniform_disagreement_matches_analytic_rate():
    # Oracle: sampling a uniform distribution over V tokens disagrees with
    # the argmax with probability (V - 1) / V; here 3/4. The softened
    # distribution of a uniform vector is still uniform, so the empirical
    # rate over 10^5 draws must sit within 0.01 of 0.75.
    vocab = 4
    expected = (vocab - 1) / vocab
    dist = TokenDistribution(np.full(vocab, 1.0 / vocab))
    rng = np.random.default_rng(42)
    score = mc_disagreement(dist, SamplerConfig(num_samples=100_000), rng)
    assert abs(score.value - expected) <= 0.01


def test_disagreement_determinism():
    dist = TokenDistribution(np.array([0.5, 0.3, 0.2]))
    cfg = SamplerConfig()
    a = mc_disagreement(dist, cfg, np.random.default_rng(123))
    b = mc_disagreement(dist, cfg, np.random.default_rng(123))
    assert a.value == b.value


def _choice_disagreement(dist: TokenDistribution, cfg: SamplerConfig, rng: np.random.Generator) -> float:
    # reference: the same score drawn through Generator.choice
    draws = rng.choice(dist.size, size=cfg.num_samples, p=soften(dist, cfg.temperature))
    return int(np.count_nonzero(draws != argmax_token(dist))) / cfg.num_samples


@given(
    vocab=st.integers(2, 1999),
    alpha=st.sampled_from([0.05, 0.6, 2.0]),
    num_samples=st.integers(1, 64),
    temperature=st.floats(1.0, 8.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_scoring_draw_matches_generator_choice(vocab, alpha, num_samples, temperature, seed):
    # score for score, and the generator left in the same state
    cfg = SamplerConfig(num_samples=num_samples, temperature=temperature)
    dist = TokenDistribution(np.random.default_rng(seed).dirichlet(np.full(vocab, alpha)))
    ours = np.random.default_rng(seed + 1)
    ref = np.random.default_rng(seed + 1)
    for _ in range(3):
        assert mc_disagreement(dist, cfg, ours).value == _choice_disagreement(dist, cfg, ref)
    assert ours.random() == ref.random()


def test_soften_flattens_toward_uniform():
    dist = TokenDistribution(np.array([0.7, 0.2, 0.1]))
    same = soften(dist, 1.0)
    assert np.allclose(same, dist.probs)
    flat = soften(dist, 100.0)
    assert flat.max() - flat.min() < dist.probs.max() - dist.probs.min()
    assert abs(float(flat.sum()) - 1.0) <= 1e-12


def test_entropy_score_limits():
    assert entropy_score(one_hot(5, 0)).value == 0.0
    uniform = TokenDistribution(np.full(8, 0.125))
    assert entropy_score(uniform).value == pytest.approx(math.log(8))
    assert entropy_score(uniform).kind is ScoreKind.ENTROPY


def test_hard_route_boundary_retains():
    # the gate in resolve_token: retain when the score is at or below the
    # threshold, escalate only when it is strictly above
    cfg = SimulationConfig(topology=ClusterTopology(num_clients=2, num_clusters=1), mode="uhlm")
    slm, llm = gen_distribution_pair(cfg.profile, np.random.default_rng(3), mode=1)
    client = ClientState(
        client_id=0,
        cluster_id=0,
        profile=cfg.profile,
        mixture=np.full(cfg.partition.num_classes, 1.0 / cfg.partition.num_classes),
        threshold=0.5,
        cache=TokenCache(capacity=cfg.cache_capacity),
        estimator=PHitEstimator(window=cfg.cost.p_hit_window),
    )

    def stage(score: float) -> Stage:
        return resolve_token(
            client, slm, llm, argmax_token(slm), False, False, cfg, np.random.default_rng(0), uncertainty=score
        ).stage

    assert stage(0.2) is Stage.LOCAL
    # a score exactly at the threshold stays local
    assert stage(0.5) is Stage.LOCAL
    assert stage(0.7) is Stage.LLM


def soft_gate(score: float, threshold: float, gamma: float) -> float:
    # with rejection probability 0 and lambda 0 a feedback record's loss is
    # its soft gate alone, sigmoid(gamma * (score - threshold))
    feedback = [RejectionFeedback(uncertainty=score, rejection_prob=0.0)]
    return local_loss(feedback, threshold, LearnerConfig(gamma=gamma, lam=0.0))


def test_soft_route_is_sigmoid_of_scaled_gap():
    assert soft_gate(0.5, 0.5, 10.0) == pytest.approx(0.5)
    assert soft_gate(0.9, 0.5, 10.0) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)))
    with pytest.raises(ValueError):
        LearnerConfig(gamma=0.0)


def test_soft_route_monotone_in_score():
    values = [soft_gate(u, 0.4, 10.0) for u in np.linspace(0.0, 1.0, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sigmoid_is_stable_at_extremes():
    # a gap of +-1000 saturates without overflowing either branch
    with np.errstate(over="raise", invalid="raise"):
        assert soft_gate(1.0, 0.0, 1000.0) == 1.0
        assert soft_gate(0.0, 1.0, 1000.0) == pytest.approx(0.0)
    assert soft_gate(0.5, 0.5, 1000.0) == 0.5
