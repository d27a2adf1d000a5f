"""Communication cost accounting and the opportunistic offloading policy.

A transmitted token either resolves laterally at P2P cost or falls through
to the cloud at P2P-plus-LLM cost, so the expected spend is linear in the
peer hit probability. Attempting P2P only pays off when that probability
clears the cost ratio c_p2p / c_llm; below it, skipping straight to the
cloud is cheaper in expectation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostModel:
    """Relay and cloud prices per escalated token, and the window and prior
    of the lateral hit-rate estimate."""

    c_p2p: float = 1.0
    c_llm: float = 4.0
    p_hit_window: int = 50
    p_hit_prior: float = 0.5

    def __post_init__(self) -> None:
        # Written so that NaN fails each check.
        if not (math.isfinite(self.c_llm) and self.c_llm > 0):
            raise ValueError("c_llm must be finite and > 0")
        if not 0 <= self.c_p2p < self.c_llm:
            raise ValueError("c_p2p must be >= 0 and cheaper than c_llm")
        if self.p_hit_window < 1:
            raise ValueError("p_hit_window must be >= 1")
        if not 0.0 <= self.p_hit_prior <= 1.0:
            raise ValueError("p_hit_prior must lie in [0, 1]")


def expected_cost(p_hit: float, model: CostModel) -> float:
    """Expected cost of attempting P2P: miss pays c_p2p + c_llm, hit pays c_p2p."""
    if not 0.0 <= p_hit <= 1.0:
        raise ValueError("p_hit must lie in [0, 1]")
    return (1.0 - p_hit) * (model.c_p2p + model.c_llm) + p_hit * model.c_p2p


def should_attempt_p2p(p_hit: float, model: CostModel) -> bool:
    """Attempt exactly when the hit probability reaches c_p2p / c_llm."""
    if not 0.0 <= p_hit <= 1.0:
        raise ValueError("p_hit must lie in [0, 1]")
    return p_hit >= model.c_p2p / model.c_llm


def cache_hit_curve(size: int, alpha: float) -> float:
    """Modelled hit ratio for a cache of the given size: 1 - exp(-alpha*size)."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return 1.0 - math.exp(-alpha * size)


def fit_cache_alpha(sizes: list[int], hit_ratios: list[float]) -> float:
    """Least-squares fit of the saturating curve on log(1 - hit_ratio).

    Minimizing sum((log(1-H) + alpha*S)^2) over alpha gives the closed form
    -sum(S*log(1-H)) / sum(S^2). Hit ratios of exactly 1 are nudged below 1
    so the log stays finite.
    """
    if len(sizes) != len(hit_ratios) or not sizes:
        raise ValueError("sizes and hit_ratios must be equal-length, non-empty")
    s = np.asarray(sizes, dtype=np.float64)
    h = np.clip(np.asarray(hit_ratios, dtype=np.float64), 0.0, 1.0 - 1e-9)
    if np.any(s <= 0):
        raise ValueError("sizes must be positive")
    log_miss = np.log1p(-h)
    alpha = -float(np.dot(s, log_miss) / np.dot(s, s))
    return max(alpha, 1e-12)


class PHitEstimator:
    """Sliding-window estimate of the peer/cache resolution probability.

    Records one boolean per attempted lateral resolution and keeps a running
    count of the hits in the window, so an estimate costs one division. Until
    the window has filled once, the configured prior is returned, which keeps
    the opportunistic policy exploring during cold start.
    """

    def __init__(self, window: int, prior: float):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= prior <= 1.0:
            raise ValueError("prior must lie in [0, 1]")
        self.window, self.prior = window, prior
        self._history: deque[bool] = deque(maxlen=window)
        self._hits = 0

    def record(self, resolved: bool) -> None:
        resolved = bool(resolved)
        if len(self._history) == self.window:
            self._hits -= self._history[0]
        self._history.append(resolved)
        self._hits += resolved

    def estimate(self) -> float:
        if len(self._history) < self.window:
            return self.prior
        return self._hits / self.window
