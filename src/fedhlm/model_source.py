"""Paired token probability distributions for a small and a large model.

The simulator never runs a real language model. Each prediction step instead
has a pair of probability vectors over a shared vocabulary: one for the
on-device small model (SLM) and one for the cloud large model (LLM). A
client-round's steps are drawn at once, as two (T, V) arrays of rows, by
gen_distribution_rows from a ModelProfile, or replayed from a logit-trace
file, which load_logit_trace reads into one LogitTrace of stacked rows. A
round stacks every client's rows, each drawn from the client's generator,
in two parts: the SLM rows with every step's LLM mode, then, once the
round knows which steps escalate, the LLM rows of those steps alone. Every
drawn row holds its maximum at its mode, so a step's mode is the LLM's
answer. gen_distribution_rows is the one-client case, with an LLM row for
every step. A TokenDistribution wraps one row where a single step is
judged on its own, as at the cloud.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
            raise ValueError(f"probabilities must sum to 1, got {float(p.sum())!r}")

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


def _unchecked_distribution(probs: np.ndarray) -> TokenDistribution:
    """Wrap a float64 row this module has drawn, or a validated trace row.

    Skips the public constructor's checks, which such a row passes by
    construction; outside input goes through TokenDistribution(...).
    """
    dist = object.__new__(TokenDistribution)
    object.__setattr__(dist, "probs", probs)
    return dist


def _peaked_rows(
    size: int, modes: np.ndarray, counts: Sequence[int], sharpness: Sequence[float], background: float,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One Dirichlet row per mode, concentrated on it, with the row's maximum in the mode slot. modes is
    flat in client order: block i, the next counts[i] modes, is drawn from rngs[i] with sharpness[i].

    The stack's alpha rows are built at once; a client's rows are then one
    standard_gamma draw over its own, normalized. Each variate overwrites
    its alpha cell, which standard_gamma reads first. A row whose variates
    all underflow to 0 becomes one-hot at its mode.
    """
    rows = np.arange(len(modes))
    p = np.full((len(rows), size), background)
    p[rows, modes] += np.repeat(sharpness, counts)
    start = 0
    for count, rng in zip(counts, rngs):
        if count:  # a client without rows costs no call
            rng.standard_gamma(p[start : start + count], out=p[start : start + count])
            start += count
    total = p.sum(axis=1)
    empty = total == 0.0
    p[empty, modes[empty]] = total[empty] = 1.0
    p /= total[:, None]
    # Swap each row's largest coordinate into its mode slot, so the mode
    # holds the maximum on every row, not merely in expectation.
    top = p.argmax(axis=1)
    p[rows, top], p[rows, modes] = p[rows, modes], p[rows, top]
    np.maximum(p, PROB_FLOOR, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _draw_slm(
    profile: ModelProfile, slm_sharpness: Sequence[float], agreement: Sequence[float], modes: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """The (n * T, V) SLM stack and the (n, T) LLM modes for the (n, T) modes: block i drawn from
    rngs[i] as gen_distribution_rows of profile with slm_sharpness[i] and agreement[i] draws it, up to
    its LLM rows."""
    n, count = modes.shape
    v = profile.vocab.size
    slm = _peaked_rows(v, modes.ravel(), [count] * n, slm_sharpness, profile.background, rngs)
    uniforms, other = np.empty((n, count)), np.empty((n, count), np.int64)
    for i, rng in enumerate(rngs):
        rng.random(out=uniforms[i])
        other[i] = rng.integers(v - 1, size=count)
    other += other >= modes
    top = slm[np.arange(modes.size), modes.ravel()].reshape(n, count)
    agrees = uniforms < np.asarray(agreement)[:, None] * top**profile.confidence_coupling
    return slm, np.where(agrees, modes, other)


def gen_distribution_rows(
    profile: ModelProfile, modes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one synthetic (slm, llm) row pair per entry of `modes`, as two (T, V) arrays.

    SLM row t peaks on modes[t]. Its LLM row shares that mode with
    probability profile.agreement * slm_top_prob ** profile.confidence_coupling,
    so the two models disagree most on exactly the tokens the small model is
    itself unsure about. With confidence_coupling = 0 the agreement rate is
    the constant profile.agreement. Disagreeing rows use a uniformly chosen
    different mode for the LLM. The draws come in this order: the SLM rows,
    the agreement uniforms, the disagreeing modes, the LLM rows. Every row
    is floored at PROB_FLOOR, sums to 1 within NORMALIZATION_ATOL and holds
    its maximum at its mode.
    """
    v = profile.vocab.size
    modes = np.asarray(modes, dtype=np.int64)
    if modes.size and not (0 <= modes.min() and modes.max() < v):
        raise ValueError(f"modes must lie in the vocabulary of size {v}")
    slm, llm_modes = _draw_slm(profile, [profile.slm_sharpness], [profile.agreement], modes[None], [rng])
    return slm, _peaked_rows(v, llm_modes[0], [modes.size], [profile.llm_sharpness], profile.background, [rng])


class LogitTrace(NamedTuple):
    """A replayed trace, row i for step i: the (N,) int64 reference tokens and the (N, V) float64 SLM
    and LLM rows."""

    reference: np.ndarray
    slm: np.ndarray
    llm: np.ndarray


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
        raise MalformedRow(f"line {line_no}: probabilities sum to {float(p.sum())!r}")
    return p / p.sum()


def load_logit_trace(path: str | Path, vocab: VocabSpec) -> LogitTrace:
    """Parse a logit-trace file.

    Format (UTF-8, a leading byte-order mark allowed): a `# vocab=<V>` header
    line, then one CSV row per step holding
    `reference_token, slm_p0..slm_p{V-1}, llm_p0..llm_p{V-1}`. Rows whose
    probabilities fail to normalize within 1e-6 raise MalformedRow; rows
    encoding a different vocabulary width raise VocabMismatch.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
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

    references, slm, llm = [], [], []
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
        references.append(reference)
        slm.append(_parse_probs(cells[1 : 1 + vocab.size], line_no))
        llm.append(_parse_probs(cells[1 + vocab.size :], line_no))
    rows = (np.array(r, dtype=np.float64).reshape(-1, vocab.size) for r in (slm, llm))
    return LogitTrace(np.array(references, dtype=np.int64), *rows)


def save_logit_trace(path: str | Path, trace: LogitTrace) -> None:
    """Write a trace in the format load_logit_trace reads, each probability as its repr, which reads
    back as the same float: a row that sums to 1 within 1e-6 reloads at any vocabulary size."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vocab={trace.slm.shape[1]}\n")
        for reference, slm, llm in zip(trace.reference.tolist(), trace.slm.tolist(), trace.llm.tolist()):
            fh.write(",".join([str(reference), *map(repr, slm), *map(repr, llm)]) + "\n")
