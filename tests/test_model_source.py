"""Synthetic (small, large) distribution pairs and the logit trace format."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedhlm.engine import SimulationConfig, run
from fedhlm.federation import ClusterTopology, PartitionSpec
from fedhlm.model_source import (
    NORMALIZATION_ATOL,
    TRACE_NORMALIZATION_ATOL,
    LogitTrace,
    MalformedRow,
    ModelProfile,
    TokenDistribution,
    VocabMismatch,
    VocabSpec,
    gen_distribution_rows,
    load_logit_trace,
    save_logit_trace,
)
from fedhlm.uncertainty import KIND_ENTROPY, SamplerConfig, score_rows


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


def uniform_modes(profile: ModelProfile, rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(profile.vocab.size, size=count)


def test_pairs_are_normalized_and_argmax_forced():
    profile = ModelProfile(vocab=VocabSpec(12))
    rng = np.random.default_rng(3)
    modes = uniform_modes(profile, rng, 200)
    slm, llm = gen_distribution_rows(profile, modes, rng)
    assert slm.shape == llm.shape == (200, 12)
    assert np.all(np.abs(slm.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(np.abs(llm.sum(axis=1) - 1.0) <= 1e-9)
    assert np.array_equal(slm.argmax(axis=1), modes)
    assert np.all((0 <= llm.argmax(axis=1)) & (llm.argmax(axis=1) < 12))


@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.integers(2, 1999),
    slm_sharpness=st.floats(1e-6, 1e4),
    llm_sharpness=st.floats(1e-6, 1e4),
    background=st.floats(1e-3, 2.0),
    agreement=st.sampled_from([0.0, 1.0]),
    rows=st.integers(1, 6),
)
# gamma variates of shape 1e-6 are 0.0 in float64 almost always, so every
# row's variates underflow and the row must come out one-hot at its mode
@example(seed=0, vocab=3, slm_sharpness=1e-6, llm_sharpness=1e-6, background=1e-6, agreement=1.0, rows=4)
def test_generated_pairs_are_valid_distributions(
    seed, vocab, slm_sharpness, llm_sharpness, background, agreement, rows
):
    # the rows skip the public constructor's checks, so check what they skip
    profile = ModelProfile(
        vocab=VocabSpec(vocab),
        agreement=agreement,
        slm_sharpness=slm_sharpness,
        llm_sharpness=llm_sharpness,
        background=background,
        confidence_coupling=0.0,
    )
    rng = np.random.default_rng(seed)
    modes = uniform_modes(profile, rng, rows)
    slm, llm = gen_distribution_rows(profile, modes, rng)
    for probs in (slm, llm):
        assert probs.dtype == np.float64 and probs.shape == (rows, vocab)
        assert np.all(probs >= 0.0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= NORMALIZATION_ATOL)
    assert np.array_equal(slm.argmax(axis=1), modes)
    # with the coupling off, agreement 1 always shares the mode and 0 never does
    assert np.all((llm.argmax(axis=1) == modes) == (agreement == 1.0))
    if background == 1e-6:
        assert np.allclose(slm[np.arange(rows), modes], 1.0)


def test_full_agreement_forces_shared_argmax():
    profile = fixed_agreement_profile(1.0)
    rng = np.random.default_rng(11)
    slm, llm = gen_distribution_rows(profile, uniform_modes(profile, rng, 500), rng)
    assert np.array_equal(slm.argmax(axis=1), llm.argmax(axis=1))


def test_requested_mode_is_respected():
    profile = ModelProfile(vocab=VocabSpec(10))
    rng = np.random.default_rng(5)
    slm, _ = gen_distribution_rows(profile, np.array([0, 3, 9]), rng)
    assert slm.argmax(axis=1).tolist() == [0, 3, 9]
    for modes in ([3, 10], [-1]):
        with pytest.raises(ValueError):
            gen_distribution_rows(profile, np.array(modes), rng)


def test_agreement_rate_monte_carlo():
    # Oracle: with the coupling disabled, each draw shares the argmax with
    # probability exactly `agreement`, so the empirical rate over 10^5
    # draws lands within a few standard errors of 0.7.
    profile = fixed_agreement_profile(0.7)
    rng = np.random.default_rng(42)
    draws = 100_000
    slm, llm = gen_distribution_rows(profile, uniform_modes(profile, rng, draws), rng)
    rate = np.count_nonzero(slm.argmax(axis=1) == llm.argmax(axis=1)) / draws
    assert 0.69 <= rate <= 0.71


def test_pair_generation_is_deterministic():
    profile = ModelProfile(vocab=VocabSpec(8))
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(5):
        slm_a, llm_a = gen_distribution_rows(profile, uniform_modes(profile, a, 10), a)
        slm_b, llm_b = gen_distribution_rows(profile, uniform_modes(profile, b, 10), b)
        assert np.array_equal(slm_a, slm_b)
        assert np.array_equal(llm_a, llm_b)


def test_normalized_entropy_limit_is_log_vocab():
    # a uniform row attains the entropy ceiling ln(V), and the entropy score
    # divides by that ceiling, so the row scores 1; a row split evenly over
    # two tokens has entropy ln(2), so it scores ln(2) / ln(32) = 1/5
    vocab = VocabSpec(32)
    half = np.zeros(vocab.size)
    half[[3, 17]] = 0.5
    rows = np.stack([np.full(vocab.size, 1.0 / vocab.size), half])
    scores = score_rows(rows, KIND_ENTROPY, SamplerConfig(), np.random.default_rng(0))
    assert scores.tolist() == pytest.approx([1.0, 0.2])


def _tiny_trace(vocab: VocabSpec, steps: int, seed: int = 0) -> LogitTrace:
    rng = np.random.default_rng(seed)
    profile = ModelProfile(vocab=vocab)
    slm, llm = gen_distribution_rows(profile, uniform_modes(profile, rng, steps), rng)
    return LogitTrace(llm.argmax(axis=1), slm, llm)


def test_trace_roundtrip(tmp_path):
    vocab = VocabSpec(6)
    trace = _tiny_trace(vocab, 3)
    path = tmp_path / "trace.csv"
    save_logit_trace(path, trace, decimals=12)
    loaded = load_logit_trace(path, vocab)
    assert loaded.reference.dtype == np.int64 and loaded.slm.shape == loaded.llm.shape == (3, vocab.size)
    assert np.array_equal(loaded.reference, trace.reference)
    assert np.allclose(loaded.slm, trace.slm, atol=1e-9)
    assert np.allclose(loaded.llm, trace.llm, atol=1e-9)


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


# Keeps a drawn row's sum clear of the tolerance edge: the row's own
# rounding is a few ulps, far below this.
_SUM_MARGIN = 1e-12


@st.composite
def probability_cells(draw, size: int, valid: bool) -> list[str]:
    """One distribution's cells: accepted ones if valid, else rejected ones.

    Accepted: rows that sum to 1 within the trace tolerance, and one-hot
    rows. Rejected: rows that miss the tolerance by a little more,
    zero-mass rows and rows holding a NaN.
    """
    kind = draw(st.sampled_from(["near", "one-hot"] if valid else ["outside", "zero-mass", "nan"]))
    if kind == "zero-mass":
        return ["0.0"] * size
    if kind in ("one-hot", "nan"):
        hot = draw(st.integers(0, size - 1))
        fill = "1.0" if kind == "one-hot" else "nan"
        return [fill if i == hot else "0.0" for i in range(size)]
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(lambda w: sum(w) > 0))
    edge = TRACE_NORMALIZATION_ATOL
    if kind == "near":
        gap = draw(st.floats(-(edge - _SUM_MARGIN), edge - _SUM_MARGIN))
    else:
        gap = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(edge + _SUM_MARGIN, 0.5))
    total = sum(weights)
    return [repr(w / total * (1.0 + gap)) for w in weights]


def trace_row(vocab: int, valid: bool = True, bad_part: int = 0) -> st.SearchStrategy[str]:
    """A reference token then the SLM and LLM cells; bad_part 0 or 1 is the invalid one."""
    parts = [probability_cells(vocab, valid or part != bad_part) for part in (0, 1)]
    return st.tuples(st.integers(0, vocab - 1), *parts).map(
        lambda row: ",".join([str(row[0]), *row[1], *row[2]])
    )


@given(vocab=st.integers(2, 6), data=st.data())
def test_trace_rows_replay_or_name_their_line(vocab, data):
    rows = data.draw(st.lists(trace_row(vocab), min_size=1, max_size=4))
    bad_at = data.draw(st.none() | st.integers(0, len(rows)))
    if bad_at is not None:
        rows.insert(bad_at, data.draw(trace_row(vocab, valid=False, bad_part=data.draw(st.integers(0, 1)))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.trace")
        path.write_text(f"# vocab={vocab}\n" + "\n".join(rows) + "\n", encoding="utf-8")
        if bad_at is not None:
            # The header is line 1, so row i is line i + 2.
            with pytest.raises(MalformedRow, match=f"^line {bad_at + 2}:"):
                load_logit_trace(path, VocabSpec(vocab))
            return
        assert len(load_logit_trace(path, VocabSpec(vocab)).reference) == len(rows)
        for kind in ("disagreement", "entropy"):
            # A zero threshold escalates every uncertain token, so replayed
            # rows also reach the cache, peers, edge and cloud.
            cfg = SimulationConfig(
                topology=ClusterTopology(num_clients=3, num_clusters=2),
                partition=PartitionSpec(num_classes=2),
                profile=ModelProfile(vocab=VocabSpec(vocab)),
                rounds=2,
                tokens_per_client=4,
                initial_threshold=0.0,
                uncertainty_kind=kind,
                trace_path=str(path),
            )
            report = run(cfg)
            assert report.total_tokens() == 2 * 3 * 4
            for rnd in report.rounds:
                assert sum(rnd.outcome_counts.values()) == 3 * 4
                columns = rnd.outcomes
                assert all(getattr(columns, f.name).shape == (3, 4) for f in fields(columns))
                assert ((0.0 <= columns.uncertainty) & (columns.uncertainty <= 1.0)).all()
                assert ((0 <= columns.final_token) & (columns.final_token < vocab)).all()
