"""Uncertainty scoring, the hard gate run_round applies to a score, and the soft relaxation of that gate."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.engine import STAGES, Stage
from fedhlm.thresholds import LearnerConfig, local_loss
from fedhlm.uncertainty import (
    KIND_DISAGREEMENT,
    KIND_ENTROPY,
    SamplerConfig,
    score_rows,
)


def one_hot_rows(size: int, indices: list[int]) -> np.ndarray:
    return np.eye(size)[indices]


def disagreement(probs: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    return score_rows(probs, KIND_DISAGREEMENT, cfg, [rng])


def entropy(probs: np.ndarray) -> np.ndarray:
    return score_rows(probs, KIND_ENTROPY, SamplerConfig(), [])


def softened(probs: np.ndarray, temperature: float) -> np.ndarray:
    # reference: p_i^(1/T), renormalized, one 1-d row at a time
    q = probs ** (1.0 / temperature)
    return q / q.sum()


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
    rows = one_hot_rows(8, [3, 0, 7])
    for k in (1, 10, 100):
        before = rng.bit_generator.state
        assert disagreement(rows, SamplerConfig(num_samples=k), rng).tolist() == [0.0, 0.0, 0.0]
        # the disagreement kind spends exactly one uniform per sample of each row
        ref = np.random.default_rng(0)
        ref.bit_generator.state = before
        ref.random((3, k))
        assert ref.random() == rng.random()


def test_disagreement_is_quantized_to_sample_count():
    rng = np.random.default_rng(7)
    cfg = SamplerConfig(num_samples=10)
    scores = disagreement(rng.dirichlet(np.full(6, 0.5), size=100), cfg, rng)
    scaled = scores * cfg.num_samples
    assert np.all(np.abs(scaled - np.round(scaled)) < 1e-12)
    assert np.all((0.0 <= scores) & (scores <= 1.0))


def test_uniform_disagreement_matches_analytic_rate():
    # Oracle: sampling a uniform distribution over V tokens disagrees with
    # the argmax with probability (V - 1) / V; here 3/4. The softened
    # distribution of a uniform vector is still uniform, so the empirical
    # rate over 10^5 draws must sit within 0.01 of 0.75.
    vocab = 4
    expected = (vocab - 1) / vocab
    rows = np.full((1, vocab), 1.0 / vocab)
    rng = np.random.default_rng(42)
    score = disagreement(rows, SamplerConfig(num_samples=100_000), rng)[0]
    assert abs(score - expected) <= 0.01


def test_disagreement_determinism():
    rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    cfg = SamplerConfig()
    a = disagreement(rows, cfg, np.random.default_rng(123))
    b = disagreement(rows, cfg, np.random.default_rng(123))
    assert np.array_equal(a, b)


def _choice_disagreement(probs: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> float:
    # reference: one row's score drawn through Generator.choice
    draws = rng.choice(probs.size, size=cfg.num_samples, p=softened(probs, cfg.temperature))
    return int(np.count_nonzero(draws != probs.argmax())) / cfg.num_samples


@given(
    vocab=st.integers(2, 1999),
    alpha=st.sampled_from([0.05, 0.6, 2.0]),
    num_samples=st.integers(1, 64),
    temperature=st.floats(1.0, 8.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
)
def test_scoring_draw_matches_generator_choice(vocab, alpha, num_samples, temperature, seed, rows):
    # score for score, row by row, and the generator left in the same state
    cfg = SamplerConfig(num_samples=num_samples, temperature=temperature)
    probs = np.random.default_rng(seed).dirichlet(np.full(vocab, alpha), size=rows)
    ours = np.random.default_rng(seed + 1)
    ref = np.random.default_rng(seed + 1)
    for _ in range(3):
        assert disagreement(probs, cfg, ours).tolist() == [_choice_disagreement(p, cfg, ref) for p in probs]
    assert ours.random() == ref.random()


def _search_disagreement(probs: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    # reference: one block's samples found by a right-sided search of each softened CDF
    q = probs ** (1.0 / cfg.temperature)
    q /= q.sum(axis=1, keepdims=True)
    cdf = np.cumsum(q, axis=1)
    cdf = cdf / cdf[:, -1:]  # rescaled to end at exactly 1, as Generator.choice rescales
    uniforms = rng.random((len(probs), cfg.num_samples))
    draws = np.count_nonzero(cdf[:, None, :] <= uniforms[:, :, None], axis=-1)
    return np.count_nonzero(draws != probs.argmax(axis=1)[:, None], axis=1) / cfg.num_samples


ROW_KINDS = ("dirichlet", "zeros", "one_hot", "uniform")


@given(
    vocab=st.integers(2, 60),
    blocks=st.integers(1, 4),
    count=st.integers(1, 5),
    num_samples=st.integers(1, 40),
    temperature=st.floats(1.0, 8.0, exclude_min=True),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=20, max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_scores_match_a_per_block_search(vocab, blocks, count, num_samples, temperature, kinds, seed):
    # The interval test gives the search's score on rows with exact zeros,
    # one-hot rows and uniform rows (argmax ties), block for block, and
    # leaves each block's generator where the search leaves it.
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds[: blocks * count]:
        if kind == "one_hot":
            row = np.eye(vocab)[rng.integers(vocab)]
        elif kind == "uniform":
            row = np.full(vocab, 1.0 / vocab)
        else:
            row = rng.dirichlet(np.full(vocab, 0.3))
            if kind == "zeros":
                row[rng.random(vocab) < 0.5] = 0.0
                row[rng.integers(vocab)] += 1.0  # keep a positive entry
                row /= row.sum()
        rows.append(row)
    probs, cfg = np.array(rows), SamplerConfig(num_samples=num_samples, temperature=temperature)
    ours, refs = ([np.random.default_rng([seed, b]) for b in range(blocks)] for _ in "ab")
    want = [_search_disagreement(probs[b * count : (b + 1) * count], cfg, ref) for b, ref in enumerate(refs)]
    assert score_rows(probs, KIND_DISAGREEMENT, cfg, ours).tolist() == np.concatenate(want).tolist()
    assert [r.bit_generator.state for r in ours] == [r.bit_generator.state for r in refs]


def test_disagreement_needs_rows_that_split_evenly_over_at_least_one_generator():
    probs, cfg = np.full((5, 4), 0.25), SamplerConfig()
    with pytest.raises(ValueError, match="5 rows do not split into 2 equal blocks"):
        score_rows(probs, KIND_DISAGREEMENT, cfg, [np.random.default_rng(0), np.random.default_rng(1)])
    with pytest.raises(ValueError, match="5 rows do not split into 0 equal blocks"):
        score_rows(probs, KIND_DISAGREEMENT, cfg, [])
    # entropy draws nothing, so it needs no generators
    assert score_rows(probs, KIND_ENTROPY, cfg, []).tolist() == pytest.approx([1.0] * 5)


def test_soften_flattens_toward_uniform():
    # Oracle: a row disagrees with its argmax at rate 1 - q_0, where q is the
    # softened row; near T = 1 that is 1 - 0.7, and it grows toward the
    # uniform rate 2/3 as T grows. 10^5 samples put each rate within 0.01.
    row = np.array([[0.7, 0.2, 0.1]])
    rates = []
    for temperature in (1.0 + 1e-9, 2.0, 100.0):
        expected = 1.0 - softened(row[0], temperature)[0]
        rate = disagreement(row, SamplerConfig(100_000, temperature), np.random.default_rng(5))[0]
        assert abs(rate - expected) <= 0.01
        rates.append(rate)
    assert abs(rates[0] - 0.3) <= 0.01
    assert rates[0] < rates[1] < rates[2] < 2 / 3
    flat = softened(row[0], 100.0)
    assert flat.max() - flat.min() < row.max() - row.min()
    assert abs(float(flat.sum()) - 1.0) <= 1e-12


def test_entropy_score_limits():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    rows = np.vstack([one_hot_rows(8, [0]), np.full((1, 8), 0.125)])
    # one-hot rows have no entropy; a uniform row's ln(8) is the ceiling, so it scores 1
    assert score_rows(rows, KIND_ENTROPY, SamplerConfig(), [rng]).tolist() == [0.0, pytest.approx(1.0)]
    assert rng.bit_generator.state == before  # the entropy kind draws no randomness


def soft_gate(score: float, threshold: float, gamma: float) -> float:
    # with rejection probability 0 and lambda 0 a cloud token's loss is
    # its soft gate alone, sigmoid(gamma * (score - threshold))
    return local_loss(np.array([score]), np.array([0.0]), threshold, LearnerConfig(gamma=gamma, lam=0.0))


def test_hard_route_boundary_retains(one_token_round):
    # the gate in run_round: retain when the score is at or below the threshold,
    # escalate only when it is strictly above, in both gated modes
    score, play = one_token_round
    thresholds = (min(1.0, score + 0.25), score, float(np.nextafter(score, 0.0)), score / 2)
    for mode in ("fedhlm", "uhlm"):
        stages = [STAGES[play(mode, threshold).stage[0, 0]] for threshold in thresholds]
        assert stages == [Stage.LOCAL, Stage.LOCAL, Stage.LLM, Stage.LLM]


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
