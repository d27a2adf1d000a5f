"""Cloud-side accept-or-resample verification of submitted tokens."""

import numpy as np
import pytest

from fedhlm.adjudication import AdjudicationResult, Verdict, llm_adjudicate, rejection_probability
from fedhlm.model_source import TokenDistribution


def dist(*probs: float) -> TokenDistribution:
    return TokenDistribution(np.array(probs, dtype=np.float64))


def test_dominated_token_always_accepted():
    slm = dist(0.3, 0.7)
    llm = dist(0.5, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(500):
        result = llm_adjudicate(slm, llm, 0, rng)
        assert result.verdict is Verdict.ACCEPTED
        assert result.final_token == 0
        assert result.rejection_prob == 0.0


def test_zero_mass_token_always_resampled():
    slm = dist(0.5, 0.5, 0.0)
    llm = dist(0.0, 0.6, 0.4)
    rng = np.random.default_rng(1)
    for _ in range(500):
        result = llm_adjudicate(slm, llm, 0, rng)
        assert result.verdict is Verdict.RESAMPLED
        assert result.rejection_prob == 1.0
        # the residual max(llm - slm, 0) zeroes the rejected token
        assert result.final_token != 0


def test_resampled_token_comes_from_positive_residual():
    slm = dist(0.6, 0.3, 0.1)
    llm = dist(0.2, 0.3, 0.5)
    residual_support = {2}  # only llm[2] > slm[2]
    rng = np.random.default_rng(2)
    seen_resample = False
    for _ in range(2000):
        result = llm_adjudicate(slm, llm, 0, rng)
        if result.verdict is Verdict.RESAMPLED:
            seen_resample = True
            assert result.final_token in residual_support
    assert seen_resample


def test_resample_targets_surplus_mode():
    # with mirrored distributions the entire surplus sits on token 0, so
    # every rejection of token 1 must land there
    slm = dist(0.2, 0.8)
    llm = dist(0.8, 0.2)
    rng = np.random.default_rng(3)
    result = None
    for _ in range(200):
        result = llm_adjudicate(slm, llm, 1, rng)
        if result.verdict is Verdict.RESAMPLED:
            break
    assert result is not None and result.verdict is Verdict.RESAMPLED
    assert result.final_token == 0


def test_equal_distributions_never_reject():
    shared = dist(0.4, 0.35, 0.25)
    rng = np.random.default_rng(8)
    for token in range(3):
        for _ in range(100):
            result = llm_adjudicate(shared, shared, token, rng)
            assert result.verdict is Verdict.ACCEPTED
            assert result.rejection_prob == 0.0


def test_acceptance_rate_tracks_one_minus_beta():
    # slm puts 0.5 on the token, llm 0.35, so beta = 1 - 0.35/0.5 = 0.3
    slm = dist(0.5, 0.35, 0.15)
    llm = dist(0.35, 0.5, 0.15)
    beta = rejection_probability(slm, llm, 0)
    assert beta == pytest.approx(0.3)
    rng = np.random.default_rng(42)
    trials = 20_000
    accepted = sum(llm_adjudicate(slm, llm, 0, rng).verdict is Verdict.ACCEPTED for _ in range(trials))
    assert abs(accepted / trials - (1.0 - beta)) <= 0.02


def test_adjudication_determinism():
    slm = dist(0.5, 0.35, 0.15)
    llm = dist(0.35, 0.5, 0.15)
    first = [llm_adjudicate(slm, llm, 0, np.random.default_rng(9)).final_token for _ in range(1)]
    second = [llm_adjudicate(slm, llm, 0, np.random.default_rng(9)).final_token for _ in range(1)]
    a = np.random.default_rng(77)
    b = np.random.default_rng(77)
    seq_a = [llm_adjudicate(slm, llm, 0, a).final_token for _ in range(100)]
    seq_b = [llm_adjudicate(slm, llm, 0, b).final_token for _ in range(100)]
    assert first == second
    assert seq_a == seq_b


def test_result_carries_beta_for_feedback():
    slm = dist(0.5, 0.5)
    llm = dist(0.25, 0.75)
    result = llm_adjudicate(slm, llm, 0, np.random.default_rng(5))
    assert isinstance(result, AdjudicationResult)
    assert result.rejection_prob == pytest.approx(0.5)


def _choice_adjudicate(slm, llm, token, rng):
    # the resample draw as Generator.choice makes it: the reference the
    # inverse-CDF draw in llm_adjudicate must reproduce bit for bit
    beta = rejection_probability(slm, llm, token)
    if beta <= 0.0 or rng.random() >= beta:
        return AdjudicationResult(token, Verdict.ACCEPTED, beta)
    residual = np.maximum(llm.probs - slm.probs, 0.0)
    total = float(residual.sum())
    p = llm.probs if total <= 0.0 else residual / total
    return AdjudicationResult(int(rng.choice(llm.probs.size, p=p)), Verdict.RESAMPLED, beta)


@pytest.mark.parametrize("vocab", [2, 3, 5, 12, 64, 257, 1000, 1999])
def test_resample_draw_matches_generator_choice(vocab):
    # token for token, and the generator left in the same state, over
    # seeded Dirichlet pairs in the surplus branch and in the zero-surplus
    # fallback (slm == llm with the submitted token given no mass)
    verdicts = {"surplus": set(), "fallback": set()}
    for seed in range(25):
        gen = np.random.default_rng([vocab, seed])
        alpha = float(gen.choice([0.1, 0.6, 2.0]))
        slm_p = gen.dirichlet(np.full(vocab, alpha))
        llm_p = gen.dirichlet(np.full(vocab, alpha))
        shared = gen.dirichlet(np.full(vocab, alpha))
        zeroed = int(gen.integers(vocab))
        shared[zeroed] = 0.0
        shared /= shared.sum()
        cases = {
            "surplus": (TokenDistribution(slm_p), TokenDistribution(llm_p), int(np.argmax(slm_p - llm_p))),
            "fallback": (TokenDistribution(shared), TokenDistribution(shared), zeroed),
        }
        for branch, (slm, llm, token) in cases.items():
            ours = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for _ in range(8):
                got = llm_adjudicate(slm, llm, token, ours)
                assert got == _choice_adjudicate(slm, llm, token, ref)
                verdicts[branch].add(got.verdict)
            assert ours.random() == ref.random()
    assert Verdict.RESAMPLED in verdicts["surplus"]
    assert verdicts["fallback"] == {Verdict.RESAMPLED}


def test_zero_surplus_falls_back_to_llm_draw():
    # identical models give no surplus anywhere; the token they both assign
    # zero mass is rejected outright and the replacement follows llm
    slm = dist(0.5, 0.5, 0.0)
    llm = dist(0.5, 0.5, 0.0)
    assert rejection_probability(slm, llm, 2) == 1.0
    rng = np.random.default_rng(11)
    trials = 4000
    finals = np.zeros(3, dtype=np.int64)
    for _ in range(trials):
        result = llm_adjudicate(slm, llm, 2, rng)
        assert result.verdict is Verdict.RESAMPLED
        assert result.rejection_prob == 1.0
        finals[result.final_token] += 1
    assert finals[2] == 0
    assert np.abs(finals / trials - llm.probs).max() <= 0.03
