"""Synthetic (small, large) distribution pairs and the logit trace format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.engine import SimulationConfig, _score
from fedhlm.federation import ClusterTopology
from fedhlm.model_source import (
    NORMALIZATION_ATOL,
    LogitTrace,
    MalformedRow,
    ModelProfile,
    TokenDistribution,
    TraceStep,
    VocabMismatch,
    VocabSpec,
    argmax_token,
    gen_distribution_pair,
    load_logit_trace,
    save_logit_trace,
)
from fedhlm.uncertainty import entropy_score


def fixed_agreement_profile(agreement: float, vocab: int = 16) -> ModelProfile:
    # confidence_coupling=0 makes the argmax-match rate exactly `agreement`
    return ModelProfile(vocab=VocabSpec(vocab), agreement=agreement, confidence_coupling=0.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        TokenDistribution(np.array([0.5]))
    with pytest.raises(ValueError):
        TokenDistribution(np.array([0.7, -0.1, 0.4]))
    with pytest.raises(ValueError):
        TokenDistribution(np.array([0.5, 0.6]))
    dist = TokenDistribution(np.array([0.25, 0.75]))
    assert dist.size == 2


def test_vocab_spec_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        VocabSpec(1)
    assert VocabSpec(4).size == 4


def test_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile(vocab=VocabSpec(8), agreement=1.5)
    with pytest.raises(ValueError):
        ModelProfile(vocab=VocabSpec(8), slm_sharpness=0.0)
    with pytest.raises(ValueError):
        ModelProfile(vocab=VocabSpec(8), confidence_coupling=-0.1)


def test_pairs_are_normalized_and_argmax_forced():
    profile = ModelProfile(vocab=VocabSpec(12))
    rng = np.random.default_rng(3)
    for _ in range(200):
        slm, llm = gen_distribution_pair(profile, rng)
        assert abs(float(slm.probs.sum()) - 1.0) <= 1e-9
        assert abs(float(llm.probs.sum()) - 1.0) <= 1e-9
        assert 0 <= argmax_token(slm) < 12
        assert 0 <= argmax_token(llm) < 12


@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.integers(2, 1999),
    slm_sharpness=st.floats(1e-6, 1e4),
    llm_sharpness=st.floats(1e-6, 1e4),
    background=st.floats(1e-3, 2.0),
    agreement=st.sampled_from([0.0, 1.0]),
)
def test_generated_pairs_are_valid_distributions(
    seed, vocab, slm_sharpness, llm_sharpness, background, agreement
):
    # the pairs skip the public constructor's checks, so check what they skip
    profile = ModelProfile(
        vocab=VocabSpec(vocab),
        agreement=agreement,
        slm_sharpness=slm_sharpness,
        llm_sharpness=llm_sharpness,
        background=background,
        confidence_coupling=0.0,
    )
    rng = np.random.default_rng(seed)
    mode = int(rng.integers(vocab))
    slm, llm = gen_distribution_pair(profile, rng, mode=mode)
    for dist in (slm, llm):
        assert dist.probs.dtype == np.float64 and dist.probs.shape == (vocab,)
        assert np.all(dist.probs >= 0.0)
        assert abs(float(dist.probs.sum()) - 1.0) <= NORMALIZATION_ATOL
    assert argmax_token(slm) == mode
    # with the coupling off, agreement 1 always shares the mode and 0 never does
    assert (argmax_token(llm) == mode) == (agreement == 1.0)


def test_full_agreement_forces_shared_argmax():
    profile = fixed_agreement_profile(1.0)
    rng = np.random.default_rng(11)
    for _ in range(500):
        slm, llm = gen_distribution_pair(profile, rng)
        assert argmax_token(slm) == argmax_token(llm)


def test_requested_mode_is_respected():
    profile = ModelProfile(vocab=VocabSpec(10))
    rng = np.random.default_rng(5)
    for mode in (0, 3, 9):
        slm, _ = gen_distribution_pair(profile, rng, mode=mode)
        assert argmax_token(slm) == mode
    with pytest.raises(ValueError):
        gen_distribution_pair(profile, rng, mode=10)


def test_agreement_rate_monte_carlo():
    # Oracle: with the coupling disabled, each draw shares the argmax with
    # probability exactly `agreement`, so the empirical rate over 10^5
    # draws lands within a few standard errors of 0.7.
    profile = fixed_agreement_profile(0.7)
    rng = np.random.default_rng(42)
    draws = 100_000
    matches = 0
    for _ in range(draws):
        slm, llm = gen_distribution_pair(profile, rng)
        matches += argmax_token(slm) == argmax_token(llm)
    rate = matches / draws
    assert 0.69 <= rate <= 0.71


def test_pair_generation_is_deterministic():
    profile = ModelProfile(vocab=VocabSpec(8))
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(50):
        slm_a, llm_a = gen_distribution_pair(profile, a)
        slm_b, llm_b = gen_distribution_pair(profile, b)
        assert np.array_equal(slm_a.probs, slm_b.probs)
        assert np.array_equal(llm_a.probs, llm_b.probs)


def test_normalized_entropy_limit_is_log_vocab():
    # a uniform row attains the entropy ceiling ln(V); the engine's entropy
    # score divides by that ceiling, so the row scores 1
    vocab = VocabSpec(32)
    uniform = TokenDistribution(np.full(vocab.size, 1.0 / vocab.size))
    assert entropy_score(uniform).value == pytest.approx(np.log(32.0))
    cfg = SimulationConfig(
        topology=ClusterTopology(num_clients=2, num_clusters=1),
        profile=ModelProfile(vocab=vocab),
        uncertainty_kind="entropy",
    )
    assert _score(cfg, uniform, np.random.default_rng(0)) == pytest.approx(1.0)


def _tiny_trace(vocab: VocabSpec, steps: int, seed: int = 0) -> LogitTrace:
    rng = np.random.default_rng(seed)
    profile = ModelProfile(vocab=vocab)
    rows = []
    for _ in range(steps):
        slm, llm = gen_distribution_pair(profile, rng)
        rows.append(TraceStep(argmax_token(llm), slm, llm))
    return LogitTrace(vocab, rows)


def test_trace_roundtrip(tmp_path):
    vocab = VocabSpec(6)
    trace = _tiny_trace(vocab, 3)
    path = tmp_path / "trace.csv"
    save_logit_trace(path, trace, decimals=12)
    loaded = load_logit_trace(path, vocab)
    assert len(loaded) == 3
    for orig, back in zip(trace.steps, loaded.steps):
        assert back.reference_token == orig.reference_token
        assert np.allclose(back.slm.probs, orig.slm.probs, atol=1e-9)
        assert np.allclose(back.llm.probs, orig.llm.probs, atol=1e-9)


def test_trace_rejects_negative_probability(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# vocab=2\n0,-0.1,1.1,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_logit_trace(path, VocabSpec(2))


def test_trace_rejects_wrong_width(tmp_path):
    # a row encoding five columns of probabilities cannot split into two
    # equal distributions, so it is malformed rather than a width mismatch
    path = tmp_path / "bad.csv"
    path.write_text("# vocab=4\n0,0.25,0.25,0.25,0.25,1.0\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_logit_trace(path, VocabSpec(4))


def test_trace_vocab_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "0," + ",".join(["0.2"] * 5) + "," + ",".join(["0.2"] * 5)
    path.write_text(f"# vocab=5\n{rows}\n", encoding="utf-8")
    with pytest.raises(VocabMismatch):
        load_logit_trace(path, VocabSpec(4))


def test_trace_row_width_mismatch_same_header(tmp_path):
    path = tmp_path / "bad.csv"
    body = "0," + ",".join(["0.25"] * 4) + "," + ",".join(["0.25"] * 4)
    path.write_text(f"# vocab=3\n{body}\n", encoding="utf-8")
    with pytest.raises(VocabMismatch):
        load_logit_trace(path, VocabSpec(3))


def test_trace_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_logit_trace(path, VocabSpec(2))


def test_trace_reference_token_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# vocab=2\n7,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_logit_trace(path, VocabSpec(2))
