"""Round execution, token routing, baselines, and determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedhlm.cli import main
from fedhlm.costs import CostModel, PHitEstimator
from fedhlm.engine import (
    ClientState,
    ConfigInvalid,
    EmptyHistory,
    SimulationConfig,
    SimulationState,
    Stage,
    TokenOutcome,
    _generate_workload,
    _PeerView,
    _score,
    client_token_entropy,
    default_config,
    resolve_token,
    run,
    run_round,
    substream,
)
from fedhlm.federation import ClusterTopology, PartitionSpec
from fedhlm.model_source import (
    LogitTrace,
    ModelProfile,
    TokenDistribution,
    TraceStep,
    VocabSpec,
    argmax_token,
    gen_distribution_pair,
    save_logit_trace,
)
from fedhlm.peers import Embedding, PeerConfig, TokenCache, embedding_matrix, token_embedding
from fedhlm.reporting import emit_metrics_csv, emit_trace


def small_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(
        topology=ClusterTopology(num_clients=6, num_clusters=2),
        rounds=4,
        tokens_per_client=10,
        seed=7,
    )
    return replace(base, **overrides) if overrides else base


def make_client(threshold: float, prior: float, cfg: SimulationConfig) -> ClientState:
    return ClientState(
        client_id=0,
        cluster_id=0,
        profile=cfg.profile,
        mixture=np.full(cfg.partition.num_classes, 1.0 / cfg.partition.num_classes),
        threshold=threshold,
        cache=TokenCache(capacity=cfg.cache_capacity),
        estimator=PHitEstimator(window=cfg.cost.p_hit_window, prior=prior),
    )


def crafted_pair(cfg: SimulationConfig, mode: int) -> tuple[TokenDistribution, TokenDistribution]:
    rng = np.random.default_rng(100 + mode)
    return gen_distribution_pair(cfg.profile, rng, mode=mode)


def test_config_validation_errors():
    topo = ClusterTopology(num_clients=4, num_clusters=2)
    with pytest.raises(ConfigInvalid):
        SimulationConfig(topology=topo, rounds=0)
    with pytest.raises(ConfigInvalid):
        SimulationConfig(topology=topo, mode="nope")
    with pytest.raises(ConfigInvalid):
        SimulationConfig(topology=topo, initial_threshold=1.5)
    with pytest.raises(ConfigInvalid):
        SimulationConfig(topology=topo, cache_capacity=0)


def test_default_config_shape():
    cfg = default_config()
    assert cfg.topology.num_clients == 20
    assert cfg.topology.num_clusters == 4
    assert cfg.rounds == 30
    assert cfg.tokens_per_client == 30


def test_local_outcomes_carry_zero_cost():
    with pytest.raises(ValueError):
        TokenOutcome(Stage.LOCAL, 0, 1.0, 0.2, True)


def test_substream_reproducible_and_independent():
    a = substream(42, 3, 1).random(5)
    b = substream(42, 3, 1).random(5)
    c = substream(42, 3, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_client_token_entropy_limits():
    vocab = VocabSpec(8)
    assert client_token_entropy([3] * 50, vocab) == 0.0
    assert client_token_entropy(list(range(8)) * 4, vocab) == pytest.approx(1.0)
    with pytest.raises(EmptyHistory):
        client_token_entropy([], vocab)


def test_resolve_retains_at_threshold_boundary():
    cfg = small_config()
    client = make_client(threshold=0.4, prior=0.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=1)
    outcome = resolve_token(client, slm, llm, [], [], cfg, np.random.default_rng(0), uncertainty=0.4)
    assert outcome.stage is Stage.LOCAL
    assert outcome.charged_cost == 0.0
    assert outcome.final_token == argmax_token(slm)
    assert outcome.p2p_attempted is False
    assert outcome.rejection_prob is None


def test_resolve_skips_p2p_when_estimator_below_ratio():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=0.0, cfg=cfg)  # 0.0 < c_p2p/c_llm
    slm, llm = crafted_pair(cfg, mode=2)
    outcome = resolve_token(client, slm, llm, [], [], cfg, np.random.default_rng(1), uncertainty=0.9)
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.charged_cost == cfg.cost.c_llm
    assert outcome.rejection_prob is not None


def test_resolve_hits_primed_cache():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=3)
    predicted = argmax_token(slm)
    emb = embedding_matrix(cfg.profile.vocab, cfg.peer)
    client.cache.insert(Embedding(emb[predicted]), predicted)
    outcome = resolve_token(client, slm, llm, [], [], cfg, np.random.default_rng(2), uncertainty=0.9)
    assert outcome.stage is Stage.P2P
    assert outcome.p2p_attempted is True
    assert outcome.charged_cost == cfg.cost.c_p2p
    assert outcome.final_token == predicted
    assert outcome.rejection_prob is None  # peer resolutions produce no cloud feedback


def test_resolve_peer_consensus_accepts_and_caches():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=4)
    predicted = argmax_token(slm)
    own = token_embedding(predicted, cfg.profile.vocab, cfg.peer.embedding_dim, cfg.peer.embedding_seed)
    outcome = resolve_token(
        client, slm, llm, lambda: [own], lambda: [], cfg, np.random.default_rng(3), uncertainty=0.9
    )
    assert outcome.stage is Stage.P2P
    assert outcome.final_token == predicted
    assert len(client.cache) == 1  # consensus success seeds the cache


def test_resolve_edge_accepts_when_neighbors_align():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=5)
    predicted = argmax_token(slm)
    own = token_embedding(predicted, cfg.profile.vocab, cfg.peer.embedding_dim, cfg.peer.embedding_seed)
    other = token_embedding(
        (predicted + 1) % cfg.profile.vocab.size,
        cfg.profile.vocab,
        cfg.peer.embedding_dim,
        cfg.peer.embedding_seed,
    )
    outcome = resolve_token(
        client, slm, llm, lambda: [other], lambda: [own], cfg, np.random.default_rng(4), uncertainty=0.9
    )
    assert outcome.stage is Stage.EDGE
    assert outcome.charged_cost == cfg.cost.c_p2p
    assert outcome.rejection_prob is None


def test_resolve_escalates_to_llm_after_failed_attempt():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=6)
    predicted = argmax_token(slm)
    far = token_embedding(
        (predicted + 2) % cfg.profile.vocab.size,
        cfg.profile.vocab,
        cfg.peer.embedding_dim,
        cfg.peer.embedding_seed,
    )
    outcome = resolve_token(
        client, slm, llm, lambda: [far], lambda: [far], cfg, np.random.default_rng(5), uncertainty=0.9
    )
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is True
    assert outcome.charged_cost == cfg.cost.c_p2p + cfg.cost.c_llm
    assert outcome.rejection_prob is not None
    # adjudicated finals enter the cache for future reuse
    assert len(client.cache) == 1


def _unreachable():
    raise AssertionError("view provider called")


def _resolve_with_providers(cfg, client, mode, peers, edge=_unreachable, uncertainty=0.9):
    slm, llm = crafted_pair(cfg, mode=mode)
    return resolve_token(client, slm, llm, peers, edge, cfg, np.random.default_rng(mode), uncertainty)


def test_views_are_not_built_for_local_skipped_or_cached_tokens():
    cfg = small_config()
    stays = make_client(threshold=0.5, prior=1.0, cfg=cfg)
    assert _resolve_with_providers(cfg, stays, 1, _unreachable, uncertainty=0.2).stage is Stage.LOCAL
    skips = make_client(threshold=0.1, prior=0.0, cfg=cfg)
    skipped = _resolve_with_providers(cfg, skips, 2, _unreachable)
    assert skipped.stage is Stage.LLM and skipped.p2p_attempted is False

    cached = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    predicted = argmax_token(crafted_pair(cfg, mode=3)[0])
    cached.cache.insert(token_embedding(predicted, cfg.profile.vocab), predicted)
    hit = _resolve_with_providers(cfg, cached, 3, _unreachable)
    assert hit.stage is Stage.P2P and hit.final_token == predicted


def test_edge_view_is_not_built_when_consensus_accepts():
    cfg = small_config()
    predicted = argmax_token(crafted_pair(cfg, mode=4)[0])
    calls = []

    def peers():
        calls.append("peers")
        return np.stack([token_embedding(predicted, cfg.profile.vocab).values] * 3)

    outcome = _resolve_with_providers(cfg, make_client(threshold=0.1, prior=1.0, cfg=cfg), 4, peers)
    assert outcome.stage is Stage.P2P and outcome.final_token == predicted
    assert calls == ["peers"]


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baselines_never_build_views(mode):
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    assert _resolve_with_providers(cfg, client, 5, _unreachable).stage is Stage.LLM


def test_peer_view_matches_per_peer_construction():
    # oracle: per-peer rows and per-timestep cluster means, bit for bit
    cfg = small_config(topology=ClusterTopology(num_clients=7, num_clusters=3))
    state = SimulationState(cfg)
    workloads = {c.client_id: _generate_workload(state, c, 0) for c in state.clients}
    view = _PeerView(state, workloads)
    emb = state.embeddings
    for client in state.clients:
        members = state.cluster_members[client.cluster_id]
        for t in range(cfg.tokens_per_client):
            expected = [emb[workloads[p].predicted[t]] for p in members if p != client.client_id]
            rows = np.array(expected).reshape(-1, emb.shape[1])
            assert np.array_equal(view.peer_embeddings(client.client_id, t), rows)
    for cluster_id in range(cfg.topology.num_clusters):
        for t in range(cfg.tokens_per_client):
            expected = [
                emb[[workloads[m].predicted[t] for m in state.cluster_members[other]]].mean(axis=0)
                for other in range(cfg.topology.num_clusters)
                if other != cluster_id
            ]
            got = [c.values for c in view.edge_centroids(cluster_id, t)]
            assert len(got) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baseline_gates_skip_the_lateral_tiers(mode):
    # A primed cache and an aligned peer would resolve this token in fedhlm mode.
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=3)
    predicted = argmax_token(slm)
    own = token_embedding(predicted, cfg.profile.vocab, cfg.peer.embedding_dim, cfg.peer.embedding_seed)
    client.cache.insert(own, predicted)
    outcome = resolve_token(client, slm, llm, [own], [own], cfg, np.random.default_rng(6), uncertainty=0.9)
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.charged_cost == cfg.cost.c_llm
    assert outcome.rejection_prob is not None
    assert len(client.cache) == 1  # the cloud's final token is not cached


def test_rand_gate_ignores_uncertainty():
    cfg = small_config(mode="rand", p_offload=0.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=2)
    outcome = resolve_token(client, slm, llm, [], [], cfg, np.random.default_rng(7), uncertainty=1.0)
    assert outcome.stage is Stage.LOCAL


def test_round_conservation_and_cost_consistency():
    report = run(small_config())
    cfg = small_config()
    for rnd in report.rounds:
        counts = rnd.outcome_counts
        assert sum(counts.values()) == cfg.topology.num_clients * cfg.tokens_per_client
        flat = [o for outcomes in rnd.outcomes.values() for o in outcomes]
        assert math.fsum(o.charged_cost for o in flat) == pytest.approx(rnd.total_cost, abs=1e-9)
        llm_with_attempt = rnd.llm_after_p2p
        recomputed = (
            (counts[Stage.P2P] + counts[Stage.EDGE]) * cfg.cost.c_p2p
            + llm_with_attempt * (cfg.cost.c_p2p + cfg.cost.c_llm)
            + (counts[Stage.LLM] - llm_with_attempt) * cfg.cost.c_llm
        )
        assert rnd.total_cost == pytest.approx(recomputed, abs=1e-9)


def test_broadcast_thresholds_are_uniform():
    report = run(small_config())
    for rnd in report.rounds:
        after = set(rnd.thresholds_after.values())
        assert len(after) == 1
        assert after == {rnd.global_threshold}
    # each next-round local value is one never-decreasing step away from
    # the broadcast, since the gradient cannot be positive
    for prev, nxt in zip(report.rounds, report.rounds[1:]):
        for value in nxt.thresholds_local.values():
            assert value >= prev.global_threshold - 1e-12
            assert value <= 1.0


def test_simulation_determinism_across_runs(tmp_path):
    cfg = small_config()
    a = run(cfg)
    b = run(cfg)
    for name, rep in (("a", a), ("b", b)):
        emit_metrics_csv(rep, tmp_path / f"{name}.csv")
        emit_trace(rep, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_trace_driven_workload(tmp_path):
    vocab = VocabSpec(8)
    profile = ModelProfile(vocab=vocab, slm_sharpness=40.0, llm_sharpness=120.0, background=0.2)
    rng = np.random.default_rng(17)
    steps = []
    for _ in range(40):
        slm, llm = gen_distribution_pair(profile, rng)
        steps.append(TraceStep(argmax_token(llm), slm, llm))
    path = tmp_path / "trace.csv"
    save_logit_trace(path, LogitTrace(vocab, steps), decimals=10)

    cfg = SimulationConfig(
        topology=ClusterTopology(num_clients=2, num_clusters=1),
        profile=ModelProfile(vocab=vocab),
        rounds=2,
        tokens_per_client=10,
        trace_path=str(path),
        seed=5,
    )
    first = run(cfg)
    second = run(cfg)
    assert first.total_tokens() == 40
    for rnd_a, rnd_b in zip(first.rounds, second.rounds):
        assert rnd_a.outcome_counts == rnd_b.outcome_counts
        assert rnd_a.global_threshold == rnd_b.global_threshold


def test_uhlm_baseline_never_uses_peers():
    report = run(small_config(mode="uhlm", static_threshold=0.25))
    totals = report.outcome_totals()
    assert totals[Stage.P2P] == 0
    assert totals[Stage.EDGE] == 0
    assert totals[Stage.LOCAL] + totals[Stage.LLM] == report.total_tokens()
    for rnd in report.rounds:
        assert set(rnd.thresholds_local.values()) == {0.25}
        assert set(rnd.thresholds_after.values()) == {0.25}


def test_rand_baseline_offload_rate_matches_binomial_oracle():
    # Oracle: each of the 18,000 tokens offloads independently with
    # p = 0.7, so the count concentrates near 12,600 with sigma ~ 61.
    report = run(default_config(mode="rand", p_offload=0.7))
    totals = report.outcome_totals()
    assert report.total_tokens() == 18_000
    assert totals[Stage.P2P] == 0 and totals[Stage.EDGE] == 0
    assert abs(totals[Stage.LLM] - 12_600) <= 200


def test_mode_dispatch_guards():
    assert run(small_config()).config.mode == "fedhlm"
    assert run(small_config(mode="rand")).config.mode == "rand"


def test_entropy_scoring_mode_runs():
    report = run(small_config(uncertainty_kind="entropy"))
    for rnd in report.rounds:
        for outcomes in rnd.outcomes.values():
            for outcome in outcomes:
                assert 0.0 <= outcome.uncertainty <= 1.0


def test_entropy_score_of_uniform_rows_stays_in_unit_interval():
    # ln(V) / ln(V) rounds to 1.0000000000000002 for hundreds of V in this range.
    rng = np.random.default_rng(0)
    for size in range(2, 2000):
        cfg = small_config(
            uncertainty_kind="entropy",
            profile=ModelProfile(vocab=VocabSpec(size)),
            partition=PartitionSpec(num_classes=2),
        )
        assert _score(cfg, TokenDistribution(np.full(size, 1.0 / size)), rng) <= 1.0, size


def test_entropy_mode_escalates_uniform_trace_rows_to_the_cloud(tmp_path, capsys):
    vocab = VocabSpec(12)
    rng = np.random.default_rng(3)
    steps = []
    for _ in range(20):
        llm = rng.dirichlet(np.full(vocab.size, 0.6))
        uniform = TokenDistribution(np.full(vocab.size, 1.0 / vocab.size))
        steps.append(TraceStep(int(llm.argmax()), uniform, TokenDistribution(llm)))
    trace_path = tmp_path / "uniform.trace"
    save_logit_trace(trace_path, LogitTrace(vocab, steps))
    cfg_path = tmp_path / "run.cfg"
    # c_p2p near c_llm keeps the estimator from trying peers, so every
    # escalated token reaches cloud feedback with its score.
    cfg_path.write_text(
        "profile.vocab_size = 12\n"
        "run.uncertainty_kind = entropy\n"
        "cost.c_p2p = 3.9\n"
        f"run.trace_path = {trace_path}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "llm=18000 (100.0%)" in capsys.readouterr().out


def test_client_metrics_populated():
    report = run(small_config())
    assert set(report.client_metrics) == set(range(6))
    for metrics in report.client_metrics.values():
        assert 0.0 <= metrics.token_entropy <= 1.0
        assert 0.0 <= metrics.cache_hit_ratio <= 1.0
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.llm_token_count >= 0


def test_aggregation_reports_align_with_rounds():
    report = run(small_config())
    for rnd in report.rounds:
        assert len(rnd.cluster_thresholds) == small_config().topology.num_clusters
        assert rnd.global_threshold == pytest.approx(
            math.fsum(rnd.cluster_thresholds) / len(rnd.cluster_thresholds)
        )
