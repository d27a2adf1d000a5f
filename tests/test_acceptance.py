"""End-to-end acceptance gate.

Each test exercises one numbered criterion, records a pass/fail line that the
terminal summary replays, and enforces the stated tolerance. The heavier
simulation criteria share the session's stock-size runs (see conftest.py).
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import ALPHAS, record_criterion, with_alpha

from fedhlm.adjudication import Verdict, llm_adjudicate
from fedhlm.costs import (
    CostModel,
    cache_hit_curve,
    expected_cost,
    fit_cache_alpha,
    should_attempt_p2p,
)
from fedhlm.engine import Stage, default_config, run
from fedhlm.federation import cluster_aggregate, global_aggregate
from fedhlm.model_source import TokenDistribution, VocabSpec
from fedhlm.peers import PeerConfig, TokenCache, embedding_matrix
from fedhlm.reporting import emit_metrics_csv, emit_trace
from fedhlm.thresholds import LearnerConfig, local_loss, loss_gradient


def check(number: int, ok: bool, detail: str) -> None:
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def default_run(stock_runs):
    return stock_runs["fedhlm"]


@pytest.fixture(scope="module")
def uhlm_run(stock_runs):
    return stock_runs["uhlm"]


def test_criterion_1_gradient_matches_finite_differences():
    # Oracle: central differences of a long-double reimplementation of the
    # loss. Relative error uses a 1e-3 denominator floor so sets whose true
    # gradient is far below the stencil's resolution are compared at an
    # equivalent absolute tolerance of 1e-9.
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    step = 1e-6
    worst = 0.0
    sets = 0
    for _ in range(40):
        for gamma in (1.0, 10.0, 50.0):
            size = int(rng.integers(1, 51))
            scores, betas = rng.random((size, 2)).T  # the draws of size (score, beta) pairs
            cfg = LearnerConfig(gamma=gamma, lam=float(rng.choice([0.0, 0.01, 0.1])))
            threshold = float(rng.random())

            u = scores.astype(np.longdouble)
            w = (1.0 - betas.astype(np.longdouble)) ** 2
            w = w + np.longdouble(cfg.lam)

            def loss_ld(t: float) -> np.longdouble:
                z = np.longdouble(gamma) * (u - np.longdouble(t))
                return (w / (1.0 + np.exp(-z))).sum()

            fd = float((loss_ld(threshold + step) - loss_ld(threshold - step)) / (2 * step))
            analytic = loss_gradient(scores, betas, threshold, cfg, [size])[0]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
            worst = max(worst, rel)
            sets += 1
            # analytic never exceeds zero and the loss itself agrees too
            assert analytic <= 0.0
            assert local_loss(scores, betas, threshold, cfg) >= 0.0
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and sets >= 100 and elapsed < 5.0
    check(1, ok, f"gradient vs finite differences: {sets} sets, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_aggregation_matches_brute_force():
    # Oracle: exact rational arithmetic; binary64 inputs convert to
    # Fractions without rounding, so the reference mean is exact.
    rng = random.Random(777)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 15)
        thresholds = [rng.random() for _ in range(n)]
        weights = [rng.randint(0, 40) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = rng.randint(1, 40)
        exact = sum(Fraction(t) * w for t, w in zip(thresholds, weights)) / sum(weights)
        got = cluster_aggregate(thresholds, weights)
        worst = max(worst, abs(got - float(exact)))

        order = list(range(n))
        rng.shuffle(order)
        permuted = cluster_aggregate([thresholds[i] for i in order], [weights[i] for i in order])
        assert permuted == got

        values = [rng.random() for _ in range(rng.randint(1, 10))]
        exact_mean = sum(Fraction(v) for v in values) / len(values)
        got_mean = global_aggregate(values)
        worst = max(worst, abs(got_mean - float(exact_mean)))
        rng.shuffle(values)
        assert global_aggregate(values) == got_mean

    ok = worst <= 1e-12
    check(2, ok, f"aggregation vs exact rational means: worst abs err {worst:.2e} over 1000 inputs")


def test_criterion_3_rejection_sampling_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    vocab = 12
    trials = 100_000

    worst_gap = 0.0
    for _ in range(20):
        slm = TokenDistribution(rng.dirichlet(np.full(vocab, 0.6)))
        llm = TokenDistribution(rng.dirichlet(np.full(vocab, 0.6)))
        token = int(rng.choice(vocab, p=slm.probs))
        beta = max(1.0 - float(llm.probs[token]) / max(float(slm.probs[token]), 1e-12), 0.0)
        accepted = 0
        for _ in range(trials):
            accepted += llm_adjudicate(slm, llm, token, rng).verdict is Verdict.ACCEPTED
        worst_gap = max(worst_gap, abs(accepted / trials - (1.0 - beta)))

    # residual-resampling property: finals of full accept-or-resample
    # trials are marginally distributed as the large model
    slm = TokenDistribution(rng.dirichlet(np.full(vocab, 0.6)))
    llm = TokenDistribution(rng.dirichlet(np.full(vocab, 0.6)))
    finals = np.zeros(vocab, dtype=np.int64)
    drawn = rng.choice(vocab, size=trials, p=slm.probs)
    for token in drawn:
        finals[llm_adjudicate(slm, llm, int(token), rng).final_token] += 1
    tv = 0.5 * float(np.abs(finals / trials - llm.probs).sum())

    elapsed = time.monotonic() - start
    ok = worst_gap <= 0.02 and tv <= 0.02 and elapsed < 30.0
    check(
        3,
        ok,
        f"acceptance within {worst_gap:.4f} of 1-beta over 20 triples, final-token TV {tv:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_baseline_ordering(default_run, uhlm_run):
    fed, fed_elapsed = default_run
    uhlm, uhlm_elapsed = uhlm_run
    fed_totals = fed.outcome_totals()
    uhlm_totals = uhlm.outcome_totals()
    total = fed.total_tokens()
    assert total == 18_000 and uhlm.total_tokens() == 18_000

    local_frac = fed_totals[Stage.LOCAL] / total
    ratio = fed_totals[Stage.LLM] / max(uhlm_totals[Stage.LLM], 1)
    elapsed = fed_elapsed + uhlm_elapsed
    ok = (
        ratio <= 0.10
        and local_frac >= 0.85
        and fed_totals[Stage.P2P] > 0
        and elapsed < 60.0
    )
    check(
        4,
        ok,
        f"llm {fed_totals[Stage.LLM]} vs {uhlm_totals[Stage.LLM]} (ratio {ratio:.4f}), "
        f"local {local_frac:.4f}, p2p {fed_totals[Stage.P2P]}, {elapsed:.1f}s",
    )


def _stage_fractions(report) -> tuple[float, float]:
    """The run's local and llm shares of its tokens."""
    totals = report.outcome_totals()
    total = report.total_tokens()
    return totals[Stage.LOCAL] / total, totals[Stage.LLM] / total


def test_criterion_5_non_iid_trend(alpha_reports):
    fractions = [_stage_fractions(alpha_reports[alpha]) for alpha in ALPHAS]
    local = [f[0] for f in fractions]
    llm = [f[1] for f in fractions]
    ok = local[0] > local[1] > local[2] and llm[0] < llm[1] < llm[2]
    check(
        5,
        ok,
        "local " + " > ".join(f"{v:.4f}" for v in local) + "; llm " + " < ".join(f"{v:.4f}" for v in llm),
    )


def test_criterion_5_paired_over_seeds(seed_runs):
    # One seed's trend can fail by luck: at seed 10 the local share is
    # 0.9769 at alpha 10 and 0.9788 at alpha 1. So each step of the trend is
    # also checked on its paired differences over seeds 1-10 (the same seed
    # at neighbouring alphas), as a one-sided paired t statistic that must
    # exceed 2 (the t(9) 5% point is 1.83). Measured over seeds 1-20, every
    # window of ten seeds gave a smallest t of at least 3.1; seeds 1-10 give
    # 4.8 (local share, alpha 10 against 1), and the other three steps 7.0
    # and over.
    fractions = {}
    for seed, report in seed_runs.items():
        configs = [with_alpha(alpha, seed) for alpha in ALPHAS]
        fractions[seed] = [_stage_fractions(report if cfg == report.config else run(cfg)) for cfg in configs]
    worst, details = math.inf, []
    for hi in range(len(ALPHAS) - 1):
        for kind, sign in ((0, 1), (1, -1)):
            diffs = [sign * (f[hi][kind] - f[hi + 1][kind]) for f in fractions.values()]
            t = statistics.fmean(diffs) / (statistics.stdev(diffs) / math.sqrt(len(diffs)))
            worst = min(worst, t)
            details.append(f"{('local', 'llm')[kind]} {ALPHAS[hi]:g}/{ALPHAS[hi + 1]:g} t={t:.1f}")
    check(5, worst > 2.0, "paired over seeds 1-10: " + ", ".join(details))


def test_criterion_6_threshold_plateau(default_run):
    report, _ = default_run
    series = [rnd.global_threshold for rnd in report.rounds]
    late_deltas = [
        abs(series[i] - series[i - 1]) for i in range(26, len(series))
    ]
    worst = max(late_deltas)
    ok = worst < 0.01
    check(6, ok, f"max |round-to-round threshold change| after round 25 = {worst:.5f}")


def test_criterion_6_mean_over_seeds(seed_runs):
    # One seed can fail: at seed 7 a cluster that had been silent for rounds
    # takes the broadcast value again in round 29, and the global threshold
    # hops by 0.025. So the worst late change is also averaged over seeds
    # 1-10; that mean is 0.0032, a third of the bound, and no window of ten
    # seeds in 1-20 gave more than 0.0034.
    worsts = []
    for report in seed_runs.values():
        series = [rnd.global_threshold for rnd in report.rounds]
        worsts.append(max(abs(series[i] - series[i - 1]) for i in range(26, len(series))))
    mean = math.fsum(worsts) / len(worsts)
    check(6, mean < 0.01, f"mean over seeds 1-10 of the worst late change = {mean:.5f} (max {max(worsts):.5f})")


def test_criterion_7_cost_policy_dominance():
    violations = 0
    points = 0
    for ratio in (0.1, 0.25, 0.5, 0.9):
        model = CostModel(c_p2p=ratio, c_llm=1.0)
        for step in range(21):
            p_hit = step * 0.05
            always = expected_cost(p_hit, model)
            never = model.c_llm
            policy = always if should_attempt_p2p(p_hit, model) else never
            points += 1
            if policy > min(always, never):
                violations += 1
    ok = violations == 0
    check(7, ok, f"opportunistic policy dominated pure policies at all {points} grid points")


def test_criterion_8_cache_saturation():
    start = time.monotonic()
    vocab = VocabSpec(1000)
    peer = PeerConfig()
    table = embedding_matrix(vocab, peer)
    rng = np.random.default_rng(42)
    ranks = np.arange(1, vocab.size + 1, dtype=np.float64)
    weights = ranks ** -0.7
    weights /= weights.sum()
    stream = rng.choice(vocab.size, size=20_000, p=weights)

    sizes = [8, 16, 32, 64, 128, 256, 512]
    hit_ratios = []
    for size in sizes:
        cache = TokenCache(table, capacity=size)
        hits = 0
        for token in stream.tolist():
            if cache.lookup(token, peer).token is not None:
                hits += 1
            else:
                cache.insert(token)
        hit_ratios.append(hits / len(stream))

    monotone = all(a <= b for a, b in zip(hit_ratios, hit_ratios[1:]))
    alpha = fit_cache_alpha(sizes, hit_ratios)
    predicted = [cache_hit_curve(s, alpha) for s in sizes]
    mean = sum(hit_ratios) / len(hit_ratios)
    ss_res = sum((h - p) ** 2 for h, p in zip(hit_ratios, predicted))
    ss_tot = sum((h - mean) ** 2 for h in hit_ratios)
    r_squared = 1.0 - ss_res / ss_tot
    elapsed = time.monotonic() - start

    ok = monotone and r_squared >= 0.9
    check(
        8,
        ok,
        f"hit ratios {hit_ratios[0]:.3f}..{hit_ratios[-1]:.3f} monotone={monotone}, "
        f"alpha={alpha:.5f}, R^2={r_squared:.3f}, {elapsed:.1f}s",
    )


def test_criterion_9_conservation_and_determinism(tmp_path, default_run, uhlm_run):
    fed, _ = default_run
    uhlm, _ = uhlm_run
    cfg = default_config()
    per_round = cfg.topology.num_clients * cfg.tokens_per_client
    conserved = all(
        sum(rnd.outcome_counts.values()) == per_round for rnd in fed.rounds + uhlm.rounds
    )

    rerun = run(cfg)
    paths = {}
    for name, report in (("base", fed), ("rerun", rerun)):
        emit_metrics_csv(report, tmp_path / f"{name}.csv")
        emit_trace(report, tmp_path / f"{name}.jsonl")
        paths[name] = (
            (tmp_path / f"{name}.csv").read_bytes(),
            (tmp_path / f"{name}.jsonl").read_bytes(),
        )
    identical = paths["base"] == paths["rerun"]

    ok = conserved and identical
    check(
        9,
        ok,
        f"stage counts sum to {per_round} every round; rerun outputs byte-identical={identical}",
    )


def _spearman(x: list[float], y: list[float]) -> float:
    def midranks(values: list[float]) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, kind="mergesort")
        ranks = np.empty(len(v), dtype=np.float64)
        sorted_v = v[order]
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
                j += 1
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return ranks

    rx = midranks(x)
    ry = midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0


def _entropy_reuse_rho(report) -> float:
    entropies = [report.client_metrics[c].token_entropy for c in sorted(report.client_metrics)]
    hit_ratios = [report.client_metrics[c].cache_hit_ratio for c in sorted(report.client_metrics)]
    return _spearman(entropies, hit_ratios)


def test_criterion_10_entropy_reuse_correlation(default_run):
    report, _ = default_run
    rho = _entropy_reuse_rho(report)
    ok = rho > 0.0
    check(10, ok, f"Spearman rho(entropy, peer-resolution ratio) = {rho:+.3f} across 20 clients")


def test_criterion_10_mean_over_seeds(seed_runs):
    # One seed's rho varies from seed to seed by about 0.2 (sd over seeds
    # 1-20), so the claim is also checked on the mean over ten seeds.
    rhos = [_entropy_reuse_rho(report) for report in seed_runs.values()]
    mean = math.fsum(rhos) / len(rhos)
    check(10, mean > 0.0, f"mean Spearman rho over seeds 1-10 = {mean:+.3f} (range {min(rhos):+.3f}..{max(rhos):+.3f})")
