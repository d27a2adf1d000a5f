"""Per-token uncertainty scores: predictive entropy and Monte-Carlo disagreement."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model_source import TokenDistribution, argmax_token


class ScoreKind(enum.Enum):
    ENTROPY = "entropy"
    MC_DISAGREEMENT = "disagreement"


@dataclass(frozen=True)
class SamplerConfig:
    """Monte-Carlo disagreement sampler: num_samples draws at temperature > 1."""

    num_samples: int = 10
    temperature: float = 2.0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.temperature <= 1.0:
            raise ValueError("temperature must be > 1")


@dataclass(frozen=True)
class UncertaintyScore:
    value: float
    kind: ScoreKind


def entropy_score(dist: TokenDistribution) -> UncertaintyScore:
    """Shannon entropy of the distribution in nats; 0*ln(0) counts as 0."""
    p = dist.probs
    nz = p[p > 0.0]
    value = float(-(nz * np.log(nz)).sum())
    return UncertaintyScore(max(value, 0.0), ScoreKind.ENTROPY)


def soften(dist: TokenDistribution, temperature: float) -> np.ndarray:
    """Temperature-flattened probabilities: p_i^(1/T), renormalized."""
    q = dist.probs ** (1.0 / temperature)
    return q / q.sum()


def mc_disagreement(
    dist: TokenDistribution, cfg: SamplerConfig, rng: np.random.Generator
) -> UncertaintyScore:
    """Fraction of temperature-softened samples that disagree with the argmax.

    Draws cfg.num_samples tokens from the softened distribution and counts
    how many differ from the unsoftened argmax. The score is a multiple of
    1/num_samples in [0, 1].

    Each sample costs one uniform, inverted through the softened CDF
    (rescaled to end at exactly 1) by a right-sided search. This is the
    draw Generator.choice(p=...) makes internally, without re-validating a
    vector that is a distribution by construction: same uniforms, same
    tokens, same generator state afterwards.
    """
    predicted = argmax_token(dist)
    cdf = np.add.accumulate(soften(dist, cfg.temperature))
    cdf /= cdf[-1]
    draws = cdf.searchsorted(rng.random(cfg.num_samples), side="right")
    disagreements = int(np.count_nonzero(draws != predicted))
    return UncertaintyScore(disagreements / cfg.num_samples, ScoreKind.MC_DISAGREEMENT)
