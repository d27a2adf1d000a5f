"""Paired token probability distributions for a small and a large model.

The simulator never runs a real language model. Each prediction step instead
draws a pair of probability vectors over a shared vocabulary: one for the
on-device small model (SLM) and one for the cloud large model (LLM). Pairs
are either generated synthetically from a ModelProfile or replayed from a
logit-trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROB_FLOOR = 1e-12
NORMALIZATION_ATOL = 1e-9
TRACE_NORMALIZATION_ATOL = 1e-6
# Ceiling on a profile's sharpness and on its total background
# concentration: far past the point where draws are one-hot, and low enough
# that a draw's gamma variates sum without overflow.
MAX_CONCENTRATION = 1e300


class MalformedRow(ValueError):
    """A trace row that cannot be parsed into two valid distributions."""


class VocabMismatch(ValueError):
    """Trace vocabulary width disagrees with the expected vocabulary."""


@dataclass(frozen=True)
class VocabSpec:
    """Shared token vocabulary, identified by its size."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")


@dataclass(frozen=True, eq=False)
class TokenDistribution:
    """Probability vector over the vocabulary for one prediction step."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("probs must be a 1-d vector of size >= 2")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(float(p.sum()) - 1.0) <= NORMALIZATION_ATOL:  # NaN fails too
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")

    @property
    def size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class ModelProfile:
    """Knobs controlling synthetic SLM/LLM pair generation.

    agreement is the probability that both models share the same mode token.
    Sharpness sets how concentrated each drawn distribution is around its
    mode; larger values give more confident predictions.
    """

    vocab: VocabSpec
    agreement: float = 0.9
    slm_sharpness: float = 240.0
    llm_sharpness: float = 800.0
    background: float = 0.05
    confidence_coupling: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.agreement <= 1.0:
            raise ValueError("agreement must lie in [0, 1]")
        if not (0 < self.slm_sharpness <= MAX_CONCENTRATION and 0 < self.llm_sharpness <= MAX_CONCENTRATION):
            raise ValueError(f"sharpness values must lie in (0, {MAX_CONCENTRATION:g}]")
        if not 0 < self.background * self.vocab.size <= MAX_CONCENTRATION:
            raise ValueError(f"background times vocab_size must lie in (0, {MAX_CONCENTRATION:g}]")
        if self.confidence_coupling < 0:
            raise ValueError("confidence_coupling must be nonnegative")


def _clamp_renormalize(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, PROB_FLOOR)
    return p / p.sum()


def _unchecked_distribution(probs: np.ndarray) -> TokenDistribution:
    """Wrap a float64 vector this module has just floored and renormalized.

    Skips the public constructor's checks, which such a vector passes by
    construction; outside input goes through TokenDistribution(...).
    """
    dist = object.__new__(TokenDistribution)
    object.__setattr__(dist, "probs", probs)
    return dist


def _peaked_distribution(
    vocab: VocabSpec, mode: int, sharpness: float, background: float, rng: np.random.Generator
) -> TokenDistribution:
    """Dirichlet draw concentrated on `mode`, with `mode` forced to be the argmax."""
    alpha = np.full(vocab.size, background)
    alpha[mode] += sharpness
    p = rng.dirichlet(alpha)
    # Swap the largest coordinate into the mode slot so argmax == mode on
    # every draw, not merely in expectation.
    top = int(np.argmax(p))
    if top != mode:
        p[mode], p[top] = p[top], p[mode]
    return _unchecked_distribution(_clamp_renormalize(p))


def gen_distribution_pair(
    profile: ModelProfile,
    rng: np.random.Generator,
    mode: int | None = None,
) -> tuple[TokenDistribution, TokenDistribution]:
    """Draw one synthetic (slm, llm) pair.

    The SLM mode is `mode` when given, else uniform over the vocabulary. The
    LLM shares that mode with probability
    profile.agreement * slm_top_prob ** profile.confidence_coupling, so the
    two models disagree most on exactly the tokens the small model is itself
    unsure about. With confidence_coupling = 0 the agreement rate is the
    constant profile.agreement. Disagreeing pairs use a uniformly chosen
    different mode for the LLM.
    """
    v = profile.vocab.size
    if mode is None:
        slm_mode = int(rng.integers(v))
    else:
        if not 0 <= mode < v:
            raise ValueError(f"mode {mode} outside vocabulary of size {v}")
        slm_mode = mode
    slm = _peaked_distribution(profile.vocab, slm_mode, profile.slm_sharpness, profile.background, rng)
    agree = profile.agreement * float(slm.probs[slm_mode]) ** profile.confidence_coupling
    if rng.random() < agree:
        llm_mode = slm_mode
    else:
        llm_mode = int(rng.integers(v - 1))
        if llm_mode >= slm_mode:
            llm_mode += 1
    llm = _peaked_distribution(profile.vocab, llm_mode, profile.llm_sharpness, profile.background, rng)
    return slm, llm


def argmax_token(dist: TokenDistribution) -> int:
    """Index of the most probable token; ties break to the lowest index."""
    return int(np.argmax(dist.probs))


@dataclass(frozen=True)
class TraceStep:
    """One replayed prediction step from a logit-trace file."""

    reference_token: int
    slm: TokenDistribution
    llm: TokenDistribution


@dataclass(frozen=True)
class LogitTrace:
    vocab: VocabSpec
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


def _parse_probs(cells: list[str], line_no: int) -> np.ndarray:
    try:
        p = np.array([float(c) for c in cells], dtype=np.float64)
    except ValueError as exc:
        raise MalformedRow(f"line {line_no}: non-numeric probability") from exc
    if not np.all(np.isfinite(p)):
        raise MalformedRow(f"line {line_no}: non-finite probability")
    if np.any(p < 0.0):
        raise MalformedRow(f"line {line_no}: negative probability")
    if abs(float(p.sum()) - 1.0) > TRACE_NORMALIZATION_ATOL:
        raise MalformedRow(f"line {line_no}: probabilities sum to {p.sum()!r}")
    return p / p.sum()


def load_logit_trace(path: str | Path, vocab: VocabSpec) -> LogitTrace:
    """Parse a logit-trace file.

    Format: a `# vocab=<V>` header line, then one CSV row per step holding
    `reference_token, slm_p0..slm_p{V-1}, llm_p0..llm_p{V-1}`. Rows whose
    probabilities fail to normalize within 1e-6 raise MalformedRow; rows
    encoding a different vocabulary width raise VocabMismatch.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip().startswith("# vocab="):
        raise MalformedRow("missing `# vocab=<V>` header line")
    header = lines[0].strip()
    try:
        declared = int(header.split("=", 1)[1])
    except (IndexError, ValueError) as exc:
        raise MalformedRow(f"unparseable header {header!r}") from exc
    if declared != vocab.size:
        raise VocabMismatch(f"trace declares vocab={declared}, expected {vocab.size}")

    steps: list[TraceStep] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        width = len(cells) - 1
        if width != 2 * vocab.size:
            # An even width that parses as two equal-size distributions of
            # the wrong vocabulary is a vocabulary mismatch; anything else
            # is a malformed row.
            if width > 0 and width % 2 == 0:
                raise VocabMismatch(
                    f"line {line_no}: row encodes vocab={width // 2}, expected {vocab.size}"
                )
            raise MalformedRow(f"line {line_no}: expected {1 + 2 * vocab.size} columns, got {len(cells)}")
        try:
            reference = int(cells[0])
        except ValueError as exc:
            raise MalformedRow(f"line {line_no}: non-integer reference token") from exc
        if not 0 <= reference < vocab.size:
            raise MalformedRow(f"line {line_no}: reference token {reference} outside vocabulary")
        slm = TokenDistribution(_parse_probs(cells[1 : 1 + vocab.size], line_no))
        llm = TokenDistribution(_parse_probs(cells[1 + vocab.size :], line_no))
        steps.append(TraceStep(reference, slm, llm))
    return LogitTrace(vocab, steps)


def save_logit_trace(path: str | Path, trace: LogitTrace, decimals: int = 8) -> None:
    """Write a trace in the same format load_logit_trace reads."""
    fmt = f"%.{decimals}f"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vocab={trace.vocab.size}\n")
        for step in trace.steps:
            cells = [str(step.reference_token)]
            cells += [fmt % p for p in step.slm.probs]
            cells += [fmt % p for p in step.llm.probs]
            fh.write(",".join(cells) + "\n")
