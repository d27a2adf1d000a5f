"""The cloud's rule: its rejection probability and accept-or-resample over a submitted token.

The large model plays verifier: the submitted token is kept with
probability min(llm[t]/slm[t], 1) and otherwise replaced by a draw from the
normalized surplus max(llm - slm, 0). Under that rule a token sampled from
the small model and corrected this way is marginally distributed exactly as
the large model would have sampled it.

Both resample branches draw the replacement by inverse CDF: one uniform
from the generator, located in the running sum of the weights. That is the
draw ``Generator.choice(n, p=w)`` performs internally, so it consumes
exactly the same single uniform and returns the same token, without
``choice``'s re-validation of a ``p`` that is already a probability vector
by construction.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .model_source import PROB_FLOOR, TokenDistribution


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    RESAMPLED = "resampled"


# Bound once: a member lookup on the enum class, or a method lookup on a
# ufunc, costs more than reading a global.
_ACCEPTED = Verdict.ACCEPTED
_RESAMPLED = Verdict.RESAMPLED
_sum = np.add.reduce
_running_sum = np.add.accumulate


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


class AdjudicationResult(NamedTuple):
    """The cloud's verdict on one token; a tuple, so building one is cheap."""

    final_token: int
    verdict: Verdict
    rejection_prob: float


def llm_adjudicate(
    slm: TokenDistribution,
    llm: TokenDistribution,
    token: int,
    rng: np.random.Generator,
) -> AdjudicationResult:
    """Accept the submitted token or resample from the large model's surplus.

    Acceptance happens with probability 1 - rejection_probability. On
    rejection the replacement comes from norm(max(llm - slm, 0)); when that
    surplus is identically zero (the models agree everywhere) the
    replacement falls back to a draw from the llm distribution itself.

    Either replacement is an inverse-CDF draw that consumes exactly one
    uniform, as ``Generator.choice`` did, and picks the same token.
    """
    beta = rejection_probability(slm, llm, token)
    if beta <= 0.0 or rng.random() >= beta:
        return AdjudicationResult(token, _ACCEPTED, beta)
    weights = llm.probs - slm.probs
    np.maximum(weights, 0.0, out=weights)
    total = _sum(weights)
    if total <= 0.0:
        weights = llm.probs
    else:
        weights /= total
    cdf = _running_sum(weights)
    cdf /= cdf[-1]
    replacement = int(cdf.searchsorted(rng.random(), side="right"))
    return AdjudicationResult(replacement, _RESAMPLED, beta)
