"""Uncertainty scores of SLM rows: Monte-Carlo disagreement or entropy.

score_rows scores a (T, V) array of probability rows in one array pass and
returns one score in [0, 1] per row. A round scores all its clients' rows in
one pass, each client drawing from its own generator.
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


def _cumulative(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's running sums, rescaled to end at exactly 1: the CDF Generator.choice builds from p."""
    cdf = np.cumsum(rows, axis=-1, out=out)
    cdf /= cdf[..., -1:].copy()  # dividing by a view of cdf would first copy all of cdf
    return cdf


def _search(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Right-sided search of each row's uniforms in its CDF: the indices Generator.choice draws."""
    return np.count_nonzero(cdf[..., None, :] <= uniforms[..., None], axis=-1)


def _score_blocks(probs: np.ndarray, kind: str, cfg: SamplerConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """score_rows over equal row blocks, block i drawing from rngs[i]; only the MC search is per block."""
    if kind == KIND_ENTROPY:
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
        logs *= probs
        return np.minimum(np.maximum(-logs.sum(axis=1), 0.0) / math.log(probs.shape[1]), 1.0)
    cdf = probs ** (1.0 / cfg.temperature)
    cdf /= cdf.sum(axis=1, keepdims=True)
    _cumulative(cdf, out=cdf)
    predicted, count = probs.argmax(axis=1)[:, None], probs.shape[0] // len(rngs)
    disagreements = np.empty(probs.shape[0], np.int64)
    for i, rng in enumerate(rngs):
        rows = slice(i * count, (i + 1) * count)
        draws = _search(cdf[rows], rng.random((count, cfg.num_samples)))
        disagreements[rows] = np.count_nonzero(draws != predicted[rows], axis=1)
    return disagreements / cfg.num_samples


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
    return _score_blocks(probs, kind, cfg, [rng])
