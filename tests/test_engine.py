"""Round execution, token routing, lateral decisions, baselines, and determinism."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.cli import main
from fedhlm.costs import CostModel, PHitEstimator
from fedhlm.engine import (
    MODES,
    STAGES,
    ClientState,
    ConfigInvalid,
    EmptyHistory,
    SimulationConfig,
    SimulationState,
    Stage,
    _draw_modes,
    _generate_workload,
    client_token_entropy,
    default_config,
    lateral_decisions,
    resolve_token,
    run,
    substream,
)
from fedhlm.federation import ClusterTopology, PartitionSpec
from fedhlm.model_source import (
    LogitTrace,
    ModelProfile,
    VocabSpec,
    gen_distribution_rows,
    save_logit_trace,
)
from fedhlm.peers import (
    ConsensusDecision,
    EdgeDecision,
    Embedding,
    PeerConfig,
    TokenCache,
    centroid,
    cosine_similarity,
    edge_validate,
    embedding_matrix,
    peer_consensus,
    token_embedding,
)
from fedhlm.reporting import emit_metrics_csv, emit_trace
from fedhlm.thresholds import loss_gradient, lr_schedule, sgd_step
from fedhlm.uncertainty import KIND_DISAGREEMENT, KIND_ENTROPY, SamplerConfig, score_rows


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


def crafted_pair(cfg: SimulationConfig, mode: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(100 + mode)
    (slm,), (llm,) = gen_distribution_rows(cfg.profile, np.array([mode]), rng)
    return slm, llm


def argmax(row: np.ndarray) -> int:
    return int(row.argmax())


@pytest.mark.parametrize("vocab,classes,exponent", [(32, 4, 1.5), (10, 3, 0.0), (7, 7, 4.0), (50, 1, 1.1)])
def test_drawn_modes_match_a_per_token_search(vocab, classes, exponent):
    # reference: each token's class region and Zipf CDF, searched on its own
    cfg = small_config(
        profile=ModelProfile(vocab=VocabSpec(vocab)),
        partition=PartitionSpec(num_classes=classes),
        zipf_exponent=exponent,
        tokens_per_client=200,
    )
    state = SimulationState(cfg)
    client = state.clients[0]
    regions = np.array_split(np.arange(vocab), classes)
    rng = np.random.default_rng(3)
    classes_drawn = rng.choice(classes, size=200, p=client.mixture)
    picks = rng.random(200)
    want = []
    for c, pick in zip(classes_drawn, picks):
        ranks = np.arange(1, len(regions[c]) + 1) ** -exponent
        idx = int(np.searchsorted(np.cumsum(ranks / ranks.sum()), pick, side="right"))
        want.append(int(regions[c][min(idx, len(regions[c]) - 1)]))
    assert _draw_modes(state, client, np.random.default_rng(3)).tolist() == want


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
    outcome = resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), False, False, cfg, np.random.default_rng(0),
        uncertainty=0.4,
    )
    assert outcome.stage is Stage.LOCAL
    assert outcome.charged_cost == 0.0
    assert outcome.final_token == argmax(slm)
    assert outcome.p2p_attempted is False
    assert outcome.rejection_prob is None


def test_resolve_skips_p2p_when_estimator_below_ratio():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=0.0, cfg=cfg)  # 0.0 < c_p2p/c_llm
    slm, llm = crafted_pair(cfg, mode=2)
    outcome = resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), False, False, cfg, np.random.default_rng(1),
        uncertainty=0.9,
    )
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.charged_cost == cfg.cost.c_llm
    assert outcome.rejection_prob is not None


def test_resolve_hits_primed_cache():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=3)
    predicted = argmax(slm)
    emb = embedding_matrix(cfg.profile.vocab, cfg.peer)
    client.cache.insert(Embedding(emb[predicted]), predicted)
    outcome = resolve_token(
        client, slm, llm, predicted, argmax(llm), False, False, cfg, np.random.default_rng(2), uncertainty=0.9
    )
    assert outcome.stage is Stage.P2P
    assert outcome.p2p_attempted is True
    assert outcome.charged_cost == cfg.cost.c_p2p
    assert outcome.final_token == predicted
    assert outcome.rejection_prob is None  # peer resolutions produce no cloud feedback


def test_resolve_peer_consensus_accepts_and_caches():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=4)
    predicted = argmax(slm)
    outcome = resolve_token(
        client, slm, llm, predicted, argmax(llm), True, False, cfg, np.random.default_rng(3), uncertainty=0.9
    )
    assert outcome.stage is Stage.P2P
    assert outcome.final_token == predicted
    assert len(client.cache) == 1  # consensus success seeds the cache


def test_resolve_edge_accepts_when_neighbors_align():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=5)
    outcome = resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), False, True, cfg, np.random.default_rng(4),
        uncertainty=0.9,
    )
    assert outcome.stage is Stage.EDGE
    assert outcome.charged_cost == cfg.cost.c_p2p
    assert outcome.rejection_prob is None


def test_resolve_escalates_to_llm_after_failed_attempt():
    cfg = small_config()
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=6)
    outcome = resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), False, False, cfg, np.random.default_rng(5),
        uncertainty=0.9,
    )
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is True
    assert outcome.charged_cost == cfg.cost.c_p2p + cfg.cost.c_llm
    assert outcome.rejection_prob is not None
    # adjudicated finals enter the cache for future reuse
    assert len(client.cache) == 1


def _resolve_with_both_flags(cfg, client, mode, uncertainty=0.9):
    slm, llm = crafted_pair(cfg, mode=mode)
    return resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), True, True, cfg, np.random.default_rng(mode), uncertainty
    )


def test_local_skipped_and_cached_tokens_ignore_both_flags():
    cfg = small_config()
    stays = make_client(threshold=0.5, prior=1.0, cfg=cfg)
    assert _resolve_with_both_flags(cfg, stays, 1, uncertainty=0.2).stage is Stage.LOCAL
    skips = make_client(threshold=0.1, prior=0.0, cfg=cfg)
    skipped = _resolve_with_both_flags(cfg, skips, 2)
    assert skipped.stage is Stage.LLM and skipped.p2p_attempted is False

    # The cache stores another token under the predicted token's embedding,
    # so only a cache hit can return it.
    cached = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    predicted = argmax(crafted_pair(cfg, mode=3)[0])
    stored = (predicted + 1) % cfg.profile.vocab.size
    cached.cache.insert(token_embedding(predicted, cfg.profile.vocab), stored)
    hit = _resolve_with_both_flags(cfg, cached, 3)
    assert hit.stage is Stage.P2P and hit.final_token == stored


def test_consensus_accept_ignores_the_edge_flag():
    cfg = small_config()
    predicted = argmax(crafted_pair(cfg, mode=4)[0])
    outcome = _resolve_with_both_flags(cfg, make_client(threshold=0.1, prior=1.0, cfg=cfg), 4)
    assert outcome.stage is Stage.P2P and outcome.final_token == predicted


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baselines_ignore_both_flags(mode):
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    assert _resolve_with_both_flags(cfg, client, 5).stage is Stage.LLM


def per_token_flags(predicted, emb, clusters, cfg):
    """Oracle: peer_consensus on per-peer rows, edge_validate on the other clusters' round means at t."""
    means = [emb[predicted[members]].mean(axis=0) if members else None for members in clusters]
    consensus = np.zeros(predicted.shape, dtype=bool)
    edge = np.zeros(predicted.shape, dtype=bool)
    for c, members in enumerate(clusters):
        for i in members:
            for t in range(predicted.shape[1]):
                own = Embedding(emb[predicted[i, t]])
                rows = emb[[predicted[p, t] for p in members if p != i]]
                consensus[i, t] = peer_consensus(own, rows, cfg) is ConsensusDecision.ACCEPT_LOCAL
                centers = [
                    Embedding(mean[t])
                    for o, mean in enumerate(means)
                    if o != c and mean is not None and float(np.linalg.norm(mean[t])) > 1e-12
                ]
                edge[i, t] = edge_validate(own, centers, cfg) is EdgeDecision.ACCEPT
    return consensus, edge


def _assert_flags_match_oracle(predicted, emb, clusters, cfg):
    got = lateral_decisions(predicted, emb, clusters, cfg)
    want = per_token_flags(predicted, emb, clusters, cfg)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return got


@pytest.mark.parametrize(
    "cfg",
    [
        small_config(topology=ClusterTopology(num_clients=7, num_clusters=3)),
        small_config(topology=ClusterTopology(num_clients=5, num_clusters=5)),
        # the lateral golden config's settings, under which both tiers accept
        small_config(
            topology=ClusterTopology(num_clients=24, num_clusters=6),
            zipf_exponent=4.0,
            peer=PeerConfig(edge_threshold=0.6),
            tokens_per_client=30,
        ),
    ],
    ids=["7x3", "5x5", "lateral-pin"],
)
def test_lateral_decisions_match_per_token_oracle(cfg):
    state = SimulationState(cfg)
    seen = np.zeros((2, 2), dtype=bool)  # (consensus, edge) x (False, True)
    for round_index in range(3):
        predicted = np.stack([_generate_workload(state, c, round_index).predicted for c in state.clients])
        flags = _assert_flags_match_oracle(predicted, state.embeddings, state.cluster_members, cfg.peer)
        for tier, flag in enumerate(flags):
            seen[tier, 0] |= not flag.all()
            seen[tier, 1] |= flag.any()
    if cfg.topology.num_clusters == 6:
        assert seen.all()  # both outcomes of both tiers were compared


@st.composite
def near_ties(draw):
    """A small table, clusters and predictions, with each threshold placed
    within a few ulps of one cosine the exact path computes."""
    dim = draw(st.integers(1, 4))
    vocab = draw(st.integers(2, 5))
    entries = st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim)
    emb = np.array(draw(st.lists(entries, min_size=vocab, max_size=vocab)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    clusters = [list(range(sum(sizes[:c]), sum(sizes[: c + 1]))) for c in range(len(sizes))]
    steps = draw(st.integers(1, 3))
    rows = st.lists(st.integers(0, vocab - 1), min_size=steps, max_size=steps)
    predicted = np.array(draw(st.lists(rows, min_size=sum(sizes), max_size=sum(sizes))))

    def near(cos):
        for _ in range(abs(ulps := draw(st.integers(-3, 3)))):
            cos = np.nextafter(cos, np.sign(ulps) * np.inf)
        return float(min(cos, 1.0))

    c = draw(st.sampled_from([c for c, size in enumerate(sizes) if size > 1] or [0]))
    i, t, o = draw(st.sampled_from(clusters[c])), draw(st.integers(0, steps - 1)), (c + 1) % len(sizes)
    own = Embedding(emb[predicted[i, t]])
    peers = [p for p in clusters[c] if p != i]
    similarity = near(cosine_similarity(own, centroid(emb[predicted[peers, t]]))) if peers else 0.9
    edge = near(cosine_similarity(own, Embedding(emb[predicted[clusters[o]]].mean(axis=0)[t])))
    return predicted, emb, clusters, PeerConfig(similarity_threshold=similarity, edge_threshold=edge)


@given(near_ties())
def test_lateral_decisions_settle_near_ties_exactly(case):
    _assert_flags_match_oracle(*case)


def test_a_nearly_cancelling_peer_sum_is_decided_exactly():
    # Client 0's peers nearly cancel: their sum is about 1e-9 long, while the
    # float sum over the whole cluster carries rounding of order 1e-16.
    emb = np.array([[0.6, 0.8], [1.0, 1e-3], [-1.0, -1e-3 + 1e-9]])
    predicted = np.array([[0], [1], [2]])
    exact = cosine_similarity(Embedding(emb[0]), centroid(emb[1:]))
    for threshold in (exact, float(np.nextafter(exact, 2.0))):
        cfg = PeerConfig(similarity_threshold=threshold)
        consensus, _ = _assert_flags_match_oracle(predicted, emb, [[0, 1, 2]], cfg)
        assert consensus[0, 0] == (threshold == exact)


def test_a_client_without_peers_escalates():
    emb = np.eye(3)
    predicted = np.array([[0, 1], [0, 1], [0, 1]])
    consensus, _ = _assert_flags_match_oracle(predicted, emb, [[0], [1, 2]], PeerConfig())
    assert not consensus[0].any()  # alone in its cluster, with no peers to agree with
    assert consensus[1:].all()


def test_an_empty_cluster_has_no_centroid():
    emb = np.eye(2)
    predicted = np.array([[0, 1], [0, 1], [0, 0]])
    cfg = PeerConfig(edge_threshold=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean of an empty slice
        with_empty = _assert_flags_match_oracle(predicted, emb, [[0, 1], [], [2]], cfg)
    without = lateral_decisions(predicted, emb, [[0, 1], [2]], cfg)
    assert all(np.array_equal(a, b) for a, b in zip(with_empty, without))
    assert with_empty[1].tolist() == [[True, False], [True, False], [True, False]]


def test_cancelled_centroids_escalate_and_are_skipped():
    # One dimension, tokens +1 and -1: a +1 and a -1 cancel exactly.
    emb = np.array([[1.0], [-1.0]])
    predicted = np.array([[0], [0], [1], [0], [1]])
    cfg = PeerConfig(similarity_threshold=0.5, edge_threshold=0.5)
    consensus, edge = _assert_flags_match_oracle(predicted, emb, [[0, 1, 2], [3, 4]], cfg)
    # Clients 0 and 1 see a cancelled peer sum; the rest disagree with theirs.
    assert not consensus.any()
    # Cluster 1's mean cancels, so cluster 0 has no neighbour to match; the
    # mean of cluster 0 is +1/3, which client 3's +1 matches.
    assert edge[:, 0].tolist() == [False, False, False, True, False]


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baseline_gates_skip_the_lateral_tiers(mode):
    # A primed cache and an aligned peer would resolve this token in fedhlm mode.
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=3)
    predicted = argmax(slm)
    own = token_embedding(predicted, cfg.profile.vocab, cfg.peer.embedding_dim, cfg.peer.embedding_seed)
    client.cache.insert(own, predicted)
    outcome = resolve_token(
        client, slm, llm, predicted, argmax(llm), True, True, cfg, np.random.default_rng(6), uncertainty=0.9
    )
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.charged_cost == cfg.cost.c_llm
    assert outcome.rejection_prob is not None
    assert len(client.cache) == 1  # the cloud's final token is not cached


def test_rand_gate_ignores_uncertainty():
    cfg = small_config(mode="rand", p_offload=0.0)
    client = make_client(threshold=0.1, prior=1.0, cfg=cfg)
    slm, llm = crafted_pair(cfg, mode=2)
    outcome = resolve_token(
        client, slm, llm, argmax(slm), argmax(llm), False, False, cfg, np.random.default_rng(7),
        uncertainty=1.0,
    )
    assert outcome.stage is Stage.LOCAL


def test_round_conservation_and_cost_consistency():
    report = run(small_config())
    cfg = small_config()
    for rnd in report.rounds:
        counts = rnd.outcome_counts
        assert sum(counts.values()) == cfg.topology.num_clients * cfg.tokens_per_client
        assert math.fsum(rnd.outcomes.cost.ravel().tolist()) == pytest.approx(rnd.total_cost, abs=1e-9)
        llm_with_attempt = rnd.llm_after_p2p
        recomputed = (
            (counts[Stage.P2P] + counts[Stage.EDGE]) * cfg.cost.c_p2p
            + llm_with_attempt * (cfg.cost.c_p2p + cfg.cost.c_llm)
            + (counts[Stage.LLM] - llm_with_attempt) * cfg.cost.c_llm
        )
        assert rnd.total_cost == pytest.approx(recomputed, abs=1e-9)


@st.composite
def tiny_configs(draw):
    """Every mode and scoring kind at tiny sizes, with gates, prices and peers drawn
    so that tokens stay local, reach the cache, peers and edge, and reach the cloud."""
    clients = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0)
    return SimulationConfig(
        topology=ClusterTopology(num_clients=clients, num_clusters=draw(st.integers(1, clients))),
        peer=PeerConfig(edge_threshold=draw(st.sampled_from([None, 0.3]))),
        cost=CostModel(c_p2p=draw(st.floats(0.0, 0.99)), c_llm=1.0, p_hit_prior=draw(st.one_of(st.just(1.0), unit))),
        sampler=SamplerConfig(num_samples=draw(st.integers(1, 12))),
        rounds=draw(st.integers(1, 3)),
        tokens_per_client=draw(st.integers(1, 8)),
        initial_threshold=draw(st.one_of(st.just(0.0), unit)),
        static_threshold=draw(unit),
        p_offload=draw(unit),
        seed=draw(st.integers(0, 2**32)),
        mode=draw(st.sampled_from(MODES)),
        uncertainty_kind=draw(st.sampled_from([KIND_DISAGREEMENT, KIND_ENTROPY])),
        zipf_exponent=draw(st.sampled_from([1.5, 4.0])),
    )


@given(tiny_configs())
def test_round_columns_hold_their_invariants(cfg):
    # The workloads are drawn again from a fresh state: they depend only on
    # the seed, the client and the round.
    report, fresh = run(cfg), SimulationState(cfg)
    stage_of = {stage: STAGES.index(stage) for stage in Stage}
    c_p2p, c_llm = cfg.cost.c_p2p, cfg.cost.c_llm
    prev = cfg.static_threshold if cfg.mode == "uhlm" else cfg.initial_threshold
    for rnd in report.rounds:
        works = [_generate_workload(fresh, c, rnd.round_index) for c in fresh.clients]
        predicted, target = np.stack([w.predicted for w in works]), np.stack([w.target for w in works])
        o = rnd.outcomes
        local, llm = o.stage == stage_of[Stage.LOCAL], o.stage == stage_of[Stage.LLM]
        lateral = ~local & ~llm
        assert all(getattr(o, f).shape == predicted.shape for f in ("stage", "final_token", "cost", "beta"))
        assert np.array_equal(o.uncertainty, np.stack([w.uncertainty for w in works]))
        # a local token is free, unadjudicated, unchanged and never tried peers
        assert (o.cost[local] == 0.0).all() and np.isnan(o.beta[local]).all()
        assert np.array_equal(o.final_token[local], predicted[local]) and not o.p2p_attempted[local].any()
        # only the cloud leaves a rejection probability, and it lies in [0, 1]
        assert ((o.beta[llm] >= 0.0) & (o.beta[llm] <= 1.0)).all() and np.isnan(o.beta[~llm]).all()
        assert o.p2p_attempted[lateral].all() and (o.cost[lateral] == c_p2p).all()
        if cfg.mode != "fedhlm":
            assert not lateral.any() and not o.p2p_attempted.any()
        assert np.array_equal(o.correct, o.final_token == target)
        counts = np.bincount(o.stage.ravel(), minlength=len(STAGES)).tolist()
        assert sum(counts) == cfg.topology.num_clients * cfg.tokens_per_client
        assert rnd.outcome_counts == dict(zip(STAGES, counts))
        # every cost recounts from the stage and attempt columns
        priced = np.where(local, 0.0, np.where(lateral, c_p2p, np.where(o.p2p_attempted, c_p2p + c_llm, c_llm)))
        assert np.array_equal(o.cost, priced)
        assert rnd.total_cost == math.fsum(priced.ravel().tolist())
        assert rnd.llm_after_p2p == int(np.count_nonzero(o.p2p_attempted & llm))
        # fedhlm learns from exactly its cloud tokens' scores and betas, from the last broadcast;
        # the baselines keep their threshold
        for c in range(cfg.topology.num_clients):
            want = prev
            if cfg.mode == "fedhlm":
                grad = loss_gradient(o.uncertainty[c, llm[c]], o.beta[c, llm[c]], prev, cfg.learner)
                want = sgd_step(prev, grad, lr_schedule(cfg.learner.eta0, rnd.round_index))
            assert rnd.thresholds_local[c] == want
        prev = rnd.global_threshold


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
    slm, llm = gen_distribution_rows(profile, rng.integers(vocab.size, size=40), rng)
    path = tmp_path / "trace.csv"
    save_logit_trace(path, LogitTrace(llm.argmax(axis=1), slm, llm), decimals=10)

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
        scores = rnd.outcomes.uncertainty
        assert ((0.0 <= scores) & (scores <= 1.0)).all()


def test_entropy_score_of_uniform_rows_stays_in_unit_interval():
    # ln(V) / ln(V) rounds to 1.0000000000000002 for hundreds of V in this range.
    rng = np.random.default_rng(0)
    for size in range(2, 2000):
        uniform = np.full((2, size), 1.0 / size)
        assert np.all(score_rows(uniform, KIND_ENTROPY, SamplerConfig(), rng) <= 1.0), size


def test_entropy_mode_escalates_uniform_trace_rows_to_the_cloud(tmp_path, capsys):
    vocab = VocabSpec(12)
    rng = np.random.default_rng(3)
    llm = rng.dirichlet(np.full(vocab.size, 0.6), size=20)
    uniform = np.full((20, vocab.size), 1.0 / vocab.size)
    trace_path = tmp_path / "uniform.trace"
    save_logit_trace(trace_path, LogitTrace(llm.argmax(axis=1), uniform, llm))
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
