"""Per-client learning of the transmission threshold.

Each round a client learns from the tokens the cloud model adjudicated.
Its feedback is two arrays in token order: the uncertainty each token
carried when it was sent, and the rejection probability the cloud reported
for it. The local loss penalizes sending tokens the cloud was likely to
accept, so its gradient only ever pushes the threshold upward (toward
keeping more tokens on device). One projected SGD step runs per round with
a 1/(1+round) learning-rate decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_source import PROB_FLOOR, TokenDistribution


@dataclass(frozen=True)
class LearnerConfig:
    gamma: float = 10.0
    lam: float = 0.01
    eta0: float = 0.05

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")


def rejection_probability(slm: TokenDistribution, llm: TokenDistribution, token: int) -> float:
    """Chance the cloud rejects the submitted token: max(1 - llm[t]/slm[t], 0).

    The denominator is floored at 1e-12 so a vanishing SLM probability
    cannot blow up the ratio.
    """
    # Scalar reads and comparisons rather than float()/max(): the cloud
    # calls this once per escalated token, and the result is the same float.
    probs = slm.probs
    if not 0 <= token < probs.size:
        raise ValueError(f"token {token} outside vocabulary")
    denom = probs.item(token)
    if denom < PROB_FLOOR:
        denom = PROB_FLOOR
    beta = 1.0 - llm.probs.item(token) / denom
    return 0.0 if beta < 0.0 else beta


def _weights(betas: np.ndarray, lam: float) -> np.ndarray:
    return (1.0 - np.asarray(betas, dtype=np.float64)) ** 2 + lam


def _soft_gates(scores: np.ndarray, threshold: float, gamma: float) -> np.ndarray:
    z = gamma * (np.asarray(scores, dtype=np.float64) - threshold)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def local_loss(scores: np.ndarray, betas: np.ndarray, threshold: float, cfg: LearnerConfig) -> float:
    """Sum over the cloud's tokens of sigmoid(gamma*(score - threshold)) * ((1-beta)^2 + lam)."""
    return float(np.dot(_soft_gates(scores, threshold, cfg.gamma), _weights(betas, cfg.lam)))


def loss_gradient(scores: np.ndarray, betas: np.ndarray, threshold: float, cfg: LearnerConfig) -> float:
    """d(local_loss)/d(threshold); every term is <= 0, so the step only raises the threshold.

    Extreme gamma or lambda can overflow the sum to -inf, which the
    projected step turns into a threshold of 1.
    """
    if len(scores) == 0:
        return 0.0
    gates = _soft_gates(scores, threshold, cfg.gamma)
    terms = gates * (1.0 - gates) * _weights(betas, cfg.lam)
    with np.errstate(over="ignore"):
        return float(-cfg.gamma * np.sum(terms))


def sgd_step(threshold: float, gradient: float, learning_rate: float) -> float:
    """One projected gradient step, clamped back into [0, 1]."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    return min(max(threshold - learning_rate * gradient, 0.0), 1.0)


def lr_schedule(eta0: float, round_index: int) -> float:
    """Decay eta0 / (1 + round): the sum diverges while the squared sum converges."""
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    return eta0 / (1.0 + round_index)
