"""Uncertainty scores of SLM rows: Monte-Carlo disagreement or entropy.

score_rows scores a (T, V) array of probability rows in one array pass and
returns one score in [0, 1] per row. A round scores all its clients' rows in
one pass, each client drawing from its own generator.

The Monte-Carlo score never finds which token a sample drew. A softened
row's CDF never decreases, being a running sum of nonnegative values divided
by its positive last entry, so a right-sided search lands on the predicted
token p exactly when the uniform u satisfies cdf[p - 1] <= u < cdf[p] (with
cdf[-1] = -inf). Each sample therefore costs two comparisons with the
predicted token's interval, whatever the vocabulary size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def score_rows(probs: np.ndarray, kind: str, cfg: SamplerConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One uncertainty score per row of probs, a (T, V) array of distributions.

    KIND_ENTROPY: the row's Shannon entropy (0*ln(0) counts as 0) divided by
    ln(V), clamped at 1 because a uniform row can round to just above it.
    Draws no randomness, so rngs may be empty.

    KIND_DISAGREEMENT: the fraction of cfg.num_samples draws from the
    temperature-softened row, p_i^(1/T) renormalized, that differ from the
    unsoftened argmax; a multiple of 1/num_samples. The rows split into
    len(rngs) equal blocks, and block i draws one (rows, num_samples)
    uniform matrix from rngs[i], in row order. No generators, or rows that
    do not split evenly, raise ValueError. Generator.choice(V,
    size=num_samples, p=softened) inverts each of these uniforms through the
    row's softened CDF (rescaled to end at exactly 1) by a right-sided
    search, so its draw equals the argmax exactly when the uniform lies in
    the argmax's CDF interval [cdf[p - 1], cdf[p]). Counting the uniforms in
    that interval, with the interval's ends computed as choice computes
    them, therefore gives choice's score from the same uniforms and leaves
    each generator in the same state.
    """
    if kind == KIND_ENTROPY:
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
        logs *= probs
        return np.minimum(np.maximum(-logs.sum(axis=1), 0.0) / math.log(probs.shape[1]), 1.0)
    if not rngs or len(probs) % len(rngs):
        raise ValueError(f"{len(probs)} rows do not split into {len(rngs)} equal blocks")
    running = probs ** (1.0 / cfg.temperature)
    running /= running.sum(axis=1, keepdims=True)
    np.cumsum(running, axis=1, out=running)
    # The predicted token's CDF interval [lo, hi): each running sum divided by the last, as choice divides.
    rows, predicted = np.arange(len(probs)), probs.argmax(axis=1)
    last = running[:, -1]
    hi = running[rows, predicted] / last
    lo = np.where(predicted > 0, running[rows, predicted - 1] / last, -np.inf)
    uniforms, count = np.empty((len(probs), cfg.num_samples)), len(probs) // len(rngs)
    for i, rng in enumerate(rngs):
        rng.random(out=uniforms[i * count : (i + 1) * count])
    agreements = np.count_nonzero((lo[:, None] <= uniforms) & (uniforms < hi[:, None]), axis=1)
    return (cfg.num_samples - agreements) / cfg.num_samples
