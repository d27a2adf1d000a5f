"""Uncertainty scores of a client-round's SLM rows: Monte-Carlo disagreement or entropy.

score_rows scores a (T, V) array of probability rows in one array pass and
returns one score in [0, 1] per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KIND_DISAGREEMENT = "disagreement"
KIND_ENTROPY = "entropy"


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


def score_rows(probs: np.ndarray, kind: str, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """One uncertainty score per row of probs, a (T, V) array of distributions.

    KIND_ENTROPY: the row's Shannon entropy (0*ln(0) counts as 0) divided by
    ln(V), clamped at 1 because a uniform row can round to just above it.
    Draws no randomness.

    KIND_DISAGREEMENT: the fraction of cfg.num_samples draws from the
    temperature-softened row, p_i^(1/T) renormalized, that differ from the
    unsoftened argmax; a multiple of 1/num_samples. One (T, num_samples)
    uniform matrix is drawn, in row order, and each uniform is inverted
    through its row's softened CDF (rescaled to end at exactly 1) by a
    right-sided search: the count of CDF entries at or below it. Row by row
    this is the draw Generator.choice(V, size=num_samples, p=softened) makes,
    from the same uniforms, so it picks the same tokens and leaves the
    generator in the same state.
    """
    if kind == KIND_ENTROPY:
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
        entropy = np.maximum(-(probs * logs).sum(axis=1), 0.0)
        return np.minimum(entropy / math.log(probs.shape[1]), 1.0)
    soft = probs ** (1.0 / cfg.temperature)
    soft /= soft.sum(axis=1, keepdims=True)
    cdf = np.add.accumulate(soft, axis=1)
    cdf /= cdf[:, -1:]
    uniforms = rng.random((probs.shape[0], cfg.num_samples))
    draws = np.count_nonzero(cdf[:, None, :] <= uniforms[:, :, None], axis=2)
    disagreements = np.count_nonzero(draws != probs.argmax(axis=1)[:, None], axis=1)
    return disagreements / cfg.num_samples
