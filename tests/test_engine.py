"""Round execution, token routing, lateral decisions, baselines, and determinism."""

import math
import tempfile
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedhlm import engine
from fedhlm.adjudication import llm_adjudicate
from fedhlm.cli import main
from fedhlm.costs import CostModel, PHitEstimator, should_attempt_p2p
from fedhlm.engine import (
    _TAG_COIN,
    _TAG_GEN,
    _TAG_PARTITION,
    _TAG_RESOLVE,
    MODES,
    STAGES,
    ClientMetrics,
    RoundOutcomes,
    SimulationConfig,
    SimulationState,
    Stage,
    _cloud_rows,
    _draw_modes,
    _draw_round,
    _trace_steps,
    _Workload,
    client_token_entropy,
    default_config,
    route_escalated,
    run,
    run_round,
    substreams,
)
from fedhlm.federation import ClusterTopology, PartitionSpec, dirichlet_partition
from fedhlm.model_source import (
    LogitTrace,
    ModelProfile,
    TokenDistribution,
    VocabSpec,
    _peaked_rows,
    gen_distribution_rows,
    save_logit_trace,
)
from fedhlm.peers import (
    ConsensusDecision,
    EdgeDecision,
    PeerConfig,
    TokenCache,
    centroid,
    cosine_similarity,
    edge_validate,
    embedding_matrix,
    lateral_decisions,
    peer_consensus,
)
from fedhlm.reporting import emit_metrics_csv, emit_trace
from fedhlm.thresholds import loss_gradient, lr_schedule, sgd_step
from fedhlm.uncertainty import KIND_DISAGREEMENT, KIND_ENTROPY, SamplerConfig, score_rows
from test_peers import ReferenceLRU


def small_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(
        topology=ClusterTopology(num_clients=6, num_clusters=2),
        rounds=4,
        tokens_per_client=10,
        seed=7,
    )
    return replace(base, **overrides) if overrides else base


def make_client(prior: float, cfg: SimulationConfig, units: np.ndarray | None = None) -> SimpleNamespace:
    """Client 0's cache, comparing the rows of units (by default the run's embedding table), and its
    hit-rate estimator, starting at prior."""
    return SimpleNamespace(
        cache=TokenCache(embedding_matrix(cfg.profile.vocab, cfg.peer) if units is None else units, cfg.cache_capacity),
        estimator=PHitEstimator(window=cfg.cost.p_hit_window, prior=prior),
    )


def seed_stream(seed: int, *path: int) -> np.random.Generator:
    """The run's stream for path, built by SeedSequence itself, as the reference draws take it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def client_mixtures(cfg: SimulationConfig) -> list[np.ndarray]:
    """Each client's class mixture, redrawn on the run's partition stream."""
    return list(dirichlet_partition(cfg.partition, cfg.topology, seed_stream(cfg.seed, _TAG_PARTITION)))


def crafted_pair(cfg: SimulationConfig, mode: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(100 + mode)
    (slm,), (llm,) = gen_distribution_rows(cfg.profile, np.array([mode]), rng)
    return slm, llm


def argmax(row: np.ndarray) -> int:
    return int(row.argmax())


def round_work(state: SimulationState, round_index: int) -> _Workload:
    """The round's workload on the run's own generation streams, as run_round draws it."""
    rngs = [seed_stream(state.cfg.seed, _TAG_GEN, c, round_index) for c in range(state.cfg.topology.num_clients)]
    return _draw_round(state, round_index, rngs)


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
    regions = np.array_split(np.arange(vocab), classes)
    mixtures = client_mixtures(cfg)
    uniforms = np.stack([np.random.default_rng([3, c]).random((2, 200)) for c in range(len(mixtures))])
    drawn = _draw_modes(state, uniforms[:, 0], uniforms[:, 1])
    for cid, mixture in enumerate(mixtures):
        rng = np.random.default_rng([3, cid])
        classes_drawn = rng.choice(classes, size=200, p=mixture)
        picks = rng.random(200)
        want = []
        for c, pick in zip(classes_drawn, picks):
            ranks = np.arange(1, len(regions[c]) + 1) ** -exponent
            idx = int(np.searchsorted(np.cumsum(ranks / ranks.sum()), pick, side="right"))
            want.append(int(regions[c][min(idx, len(regions[c]) - 1)]))
        assert drawn[cid].tolist() == want


@pytest.mark.parametrize("classes", [1, 2, 3, 7])
def test_class_draw_matches_generator_choice(classes, monkeypatch):
    # class for class, and the generator left in the same state, over seeded
    # Dirichlet mixtures with some classes given no weight; a drawn mode's
    # class is the region it falls in
    gen = np.random.default_rng(classes)
    mixtures = gen.dirichlet(np.full(classes, 0.5), size=25)
    mixtures[gen.random(mixtures.shape) < 0.3] = 0.0
    mixtures[~mixtures.any(axis=1), -1] = 1.0
    mixtures /= mixtures.sum(axis=1, keepdims=True)
    monkeypatch.setattr(engine, "dirichlet_partition", lambda spec, topology, rng: mixtures)
    cfg = small_config(
        topology=ClusterTopology(num_clients=len(mixtures), num_clusters=1),
        profile=ModelProfile(vocab=VocabSpec(2 * classes + 1)),
        partition=PartitionSpec(num_classes=classes),
    )
    state = SimulationState(cfg)
    for size in (1, 13):
        ours = [np.random.default_rng([classes, size, i]) for i in range(len(mixtures))]
        refs = [np.random.default_rng([classes, size, i]) for i in range(len(mixtures))]
        uniforms = np.stack([rng.random((2, size)) for rng in ours])
        modes = _draw_modes(state, uniforms[:, 0], uniforms[:, 1])
        drawn = np.searchsorted(state.class_starts, modes, side="right") - 1
        for i, (ref, mixture) in enumerate(zip(refs, mixtures)):
            assert drawn[i].tolist() == ref.choice(classes, size=size, p=mixture).tolist()
            ref.random(size)  # the picks
        assert [rng.random() for rng in ours] == [rng.random() for rng in refs]


def reference_rows(size, modes, sharpness, background, rng):
    """One client-round's Dirichlet rows as they were drawn before rounds were stacked."""
    rows = np.arange(modes.size)
    alpha = np.full((modes.size, size), background)
    alpha[rows, modes] += sharpness
    p = rng.standard_gamma(alpha)
    total = p.sum(axis=1)
    empty = total == 0.0
    p[empty, modes[empty]] = total[empty] = 1.0
    p /= total[:, None]
    top = p.argmax(axis=1)
    p[rows, top], p[rows, modes] = p[rows, modes], p[rows, top]
    np.maximum(p, 1e-12, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def reference_client_round(state, cid, mixture, round_index, rng, escalated):
    """Oracle: client cid's client-round drawn and scored on its own, with Generator.choice over its class
    mixture, then the LLM rows of its escalated tokens; returns its workload and those rows."""
    cfg, count, v = state.cfg, state.cfg.tokens_per_client, state.cfg.profile.vocab.size
    if state.trace is not None:
        base = (cid * cfg.rounds + round_index) * count
        steps = (base + np.arange(count)) % len(state.trace.reference)
        slm, target = state.trace.slm[steps], state.trace.reference[steps]
    else:
        classes = rng.choice(cfg.partition.num_classes, size=count, p=mixture)
        ranks = np.count_nonzero(state.zipf[classes] <= rng.random(count)[:, None], axis=1)
        modes = state.class_starts[classes] + np.minimum(ranks, state.class_widths[classes] - 1)
        sharpness, profile = state.sharpness[cid], cfg.profile
        miss_rate = min(0.5, cfg.confusion_scale / sharpness)
        if miss_rate > 0.0:
            flips = rng.random(count) < miss_rate
            modes = np.where(flips, rng.integers(v, size=count), modes)
        slm = reference_rows(v, modes, sharpness, profile.background, rng)
        top = slm[np.arange(count), modes]
        agrees = rng.random(count) < state.agreement[cid] * top**profile.confidence_coupling
        other = rng.integers(v - 1, size=count)
        other += other >= modes
        target = np.where(agrees, modes, other)
    if cfg.uncertainty_kind == KIND_ENTROPY:
        logs = np.log(slm, out=np.zeros_like(slm), where=slm > 0.0)
        uncertainty = np.minimum(np.maximum(-(slm * logs).sum(axis=1), 0.0) / math.log(v), 1.0)
    else:
        soft = slm ** (1.0 / cfg.sampler.temperature)
        soft /= soft.sum(axis=1, keepdims=True)
        cdf = np.add.accumulate(soft, axis=1)
        cdf /= cdf[:, -1:]
        uniforms = rng.random((count, cfg.sampler.num_samples))
        draws = np.count_nonzero(cdf[:, None, :] <= uniforms[:, :, None], axis=2)
        uncertainty = np.count_nonzero(draws != slm.argmax(axis=1)[:, None], axis=1) / cfg.sampler.num_samples
    if state.trace is not None:
        llm = state.trace.llm[steps[escalated]]
    else:
        llm = reference_rows(v, target[escalated], cfg.profile.llm_sharpness, cfg.profile.background, rng)
    return _Workload(slm, slm.argmax(axis=1), target, uncertainty), llm


@st.composite
def round_cases(draw):
    """Small runs over every input of a round's generation and scoring, and whether to replay a trace."""
    clients, vocab = draw(st.integers(1, 4)), draw(st.sampled_from([2, 5, 8, 9, 33]))
    if draw(st.booleans()):
        profile = ModelProfile(vocab=VocabSpec(vocab), agreement=draw(st.floats(0.0, 1.0)))
    else:  # every client's sharpness clamps to 1e-6, and most rows' variates all underflow
        profile = ModelProfile(vocab=VocabSpec(vocab), slm_sharpness=1e-6, llm_sharpness=1e-6, background=1e-6)
    cfg = SimulationConfig(
        topology=ClusterTopology(num_clients=clients, num_clusters=1),
        partition=PartitionSpec(num_classes=draw(st.integers(1, min(vocab, 4)))),
        profile=profile,
        sampler=SamplerConfig(num_samples=draw(st.integers(1, 10))),
        rounds=draw(st.integers(1, 2)),
        tokens_per_client=draw(st.sampled_from([1, 2, 7, 30])),
        seed=draw(st.integers(0, 2**32)),
        uncertainty_kind=draw(st.sampled_from([KIND_DISAGREEMENT, KIND_ENTROPY])),
        confusion_scale=draw(st.sampled_from([0.0, 12.0])),
        zipf_exponent=draw(st.sampled_from([0.0, 1.5])),
    )
    return cfg, draw(st.sampled_from([None, 1, 13])), draw(st.sampled_from([0.0, 0.5, 1.0]))


def bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype.str, a.tobytes()


@given(round_cases())
def test_round_block_matches_per_client_reference(case):
    # The round's stacked arithmetic gives each client the bits its own
    # client-round would have, the LLM rows of a random share of its tokens
    # included, and leaves each generator where the per-client draws would:
    # a numpy change in reduction order fails here.
    cfg, trace_steps, share = case
    with tempfile.TemporaryDirectory() as tmp:
        if trace_steps is not None:
            rng = np.random.default_rng(cfg.seed)
            slm, llm = rng.dirichlet(np.full(cfg.profile.vocab.size, 0.5), size=(2, trace_steps))
            save_logit_trace(f"{tmp}/t.csv", LogitTrace(llm.argmax(axis=1), slm, llm))
            cfg = replace(cfg, trace_path=f"{tmp}/t.csv")
        state = SimulationState(cfg)
    mixtures = client_mixtures(cfg)
    for round_index in range(cfg.rounds):
        ours, refs = ([seed_stream(cfg.seed, _TAG_GEN, c, round_index) for c in range(len(mixtures))] for _ in "ab")
        got = _draw_round(state, round_index, ours)
        escalated = np.random.default_rng([cfg.seed, round_index]).random(got.predicted.shape) < share
        llm, start = _cloud_rows(state, round_index, got, escalated, ours), 0
        for cid, (mixture, ref) in enumerate(zip(mixtures, refs)):
            want, rows = reference_client_round(state, cid, mixture, round_index, ref, escalated[cid])
            for name in _Workload._fields:
                assert bits(getattr(got, name)[cid]) == bits(getattr(want, name)), name
            assert bits(llm[start : start + len(rows)]) == bits(rows)
            start += len(rows)
        assert start == len(llm)
        assert [rng.bit_generator.state for rng in ours] == [rng.bit_generator.state for rng in refs]


def test_config_validation_errors():
    topo = ClusterTopology(num_clients=4, num_clusters=2)
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        SimulationConfig(topology=topo, rounds=0)
    with pytest.raises(ValueError, match="mode must be one of"):
        SimulationConfig(topology=topo, mode="nope")
    with pytest.raises(ValueError, match=r"initial_threshold must lie in \[0, 1\]"):
        SimulationConfig(topology=topo, initial_threshold=1.5)
    with pytest.raises(ValueError, match="cache_capacity must be >= 1"):
        SimulationConfig(topology=topo, cache_capacity=0)


def test_default_config_shape():
    cfg = default_config()
    assert cfg.topology.num_clients == 20
    assert cfg.topology.num_clusters == 4
    assert cfg.rounds == 30
    assert cfg.tokens_per_client == 30


def test_substream_reproducible_and_independent():
    a, b, c = (rng.random(5) for rng in substreams(42, [[3, 1], [3, 1], [3, 2]]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**260]),
        st.integers(2**32, 2**260),
    ),
    paths=st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width), min_size=1, max_size=6)
    ),
)
def test_vectorized_streams_equal_seed_sequence_streams(seed, paths):
    # Tags, clients and rounds as any uint32 words; a seed of 2**128 or more has words past the pool's four.
    want = [seed_stream(seed, *path).bit_generator.state for path in paths]
    assert [rng.bit_generator.state for rng in substreams(seed, np.array(paths))] == want


def test_client_token_entropy_limits():
    vocab = VocabSpec(8)
    assert client_token_entropy([3] * 50, vocab) == 0.0
    assert client_token_entropy(list(range(8)) * 4, vocab) == pytest.approx(1.0)


def entropy_by_former_formula(history: list[int], vocab: VocabSpec) -> float:
    """client_token_entropy as it was written before normalized_entropy: only the seen tokens divided."""
    counts = np.bincount(np.asarray(history, dtype=np.int64), minlength=vocab.size)
    p = counts[counts > 0] / len(history)
    entropy = float(-(p * np.log(p)).sum())
    return min(max(entropy / math.log(vocab.size), 0.0), 1.0)


@given(st.integers(2, 64).flatmap(lambda v: st.tuples(st.just(v), st.lists(st.integers(0, v - 1), min_size=1))))
@example(case=(5, [0, 1, 2, 3, 4]))  # an entropy that rounds past ln(5)
@example(case=(8, [3] * 50))  # entropy -0.0
def test_client_token_entropy_keeps_its_former_bits(case):
    size, history = case
    vocab = VocabSpec(size)
    want = entropy_by_former_formula(history, vocab)
    assert np.float64(client_token_entropy(history, vocab)).tobytes() == np.float64(want).tobytes()


def test_resolve_retains_at_threshold_boundary(one_token_round):
    # run_round's gate in both gated modes: a threshold equal to the score keeps
    # the token local, and the local cells are the SLM's own, uncharged
    score, play = one_token_round
    assert 0.0 < score < 1.0
    for mode in ("fedhlm", "uhlm"):
        o = play(mode, score)
        assert o.uncertainty[0, 0] == score
        assert STAGES[o.stage[0, 0]] is Stage.LOCAL
        assert o.cost[0, 0] == 0.0 and np.isnan(o.beta[0, 0]) and not o.p2p_attempted[0, 0]
        assert o.final_token[0, 0] == 0  # the SLM's own argmax


def walk_one(cfg, client, mode, consensus=False, edge=False, routed=(0,)):
    """route_escalated over a one-token round of one client holding crafted_pair(cfg, mode); its cells
    as scalars."""
    slm, llm = crafted_pair(cfg, mode=mode)
    work = _Workload(slm[None, None], np.array([[argmax(slm)]]), np.array([[argmax(llm)]]), np.array([[0.9]]))
    state = SimpleNamespace(cfg=cfg, caches=[client.cache], estimators=[client.estimator])
    escalated = np.isin([[0]], routed)
    rngs = {0: np.random.default_rng(mode)}
    out = route_escalated(state, work, escalated, llm[None][escalated[0]], [consensus], [edge], rngs)
    cells = SimpleNamespace(**{name: column[0, 0].item() for name, column in out._asdict().items()})
    cells.stage = STAGES[cells.stage]
    return cells


def test_resolve_skips_p2p_when_estimator_below_ratio():
    cfg = small_config()
    client = make_client(prior=0.0, cfg=cfg)  # 0.0 < c_p2p/c_llm
    outcome = walk_one(cfg, client, 2)
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.cost == cfg.cost.c_llm
    assert not math.isnan(outcome.beta)


def test_resolve_hits_primed_cache():
    cfg = small_config()
    client = make_client(prior=1.0, cfg=cfg)
    predicted = argmax(crafted_pair(cfg, mode=3)[0])
    client.cache.insert(predicted)
    outcome = walk_one(cfg, client, 3)
    assert outcome.stage is Stage.P2P
    assert outcome.p2p_attempted is True
    assert outcome.cost == cfg.cost.c_p2p
    assert outcome.final_token == predicted
    assert math.isnan(outcome.beta)  # peer resolutions produce no cloud feedback


def test_resolve_peer_consensus_accepts_and_caches():
    cfg = small_config()
    client = make_client(prior=1.0, cfg=cfg)
    predicted = argmax(crafted_pair(cfg, mode=4)[0])
    outcome = walk_one(cfg, client, 4, consensus=True)
    assert outcome.stage is Stage.P2P
    assert outcome.final_token == predicted
    assert client.cache.entries() == [predicted]  # consensus success seeds the cache


def test_resolve_edge_accepts_when_neighbors_align():
    cfg = small_config()
    client = make_client(prior=1.0, cfg=cfg)
    outcome = walk_one(cfg, client, 5, edge=True)
    assert outcome.stage is Stage.EDGE
    assert outcome.cost == cfg.cost.c_p2p
    assert math.isnan(outcome.beta)


def test_resolve_escalates_to_llm_after_failed_attempt():
    cfg = small_config()
    client = make_client(prior=1.0, cfg=cfg)
    outcome = walk_one(cfg, client, 6)
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is True
    assert outcome.cost == cfg.cost.c_p2p + cfg.cost.c_llm
    assert not math.isnan(outcome.beta)
    # adjudicated finals enter the cache for future reuse
    assert client.cache.entries() == [outcome.final_token]


def test_local_skipped_and_cached_tokens_ignore_both_flags():
    cfg = small_config()
    stays = make_client(prior=1.0, cfg=cfg)
    assert walk_one(cfg, stays, 1, True, True, routed=()).stage is Stage.LOCAL
    skips = make_client(prior=0.0, cfg=cfg)
    skipped = walk_one(cfg, skips, 2, True, True)
    assert skipped.stage is Stage.LLM and skipped.p2p_attempted is False

    # In this unit table the stored token's row equals the predicted token's,
    # so the cache answers with the stored token: only a hit can return it.
    predicted = argmax(crafted_pair(cfg, mode=3)[0])
    stored = (predicted + 1) % cfg.profile.vocab.size
    units = np.eye(cfg.profile.vocab.size)
    units[stored] = units[predicted]
    cached = make_client(prior=1.0, cfg=cfg, units=units)
    cached.cache.insert(stored)
    hit = walk_one(cfg, cached, 3, True, True)
    assert hit.stage is Stage.P2P and hit.final_token == stored


def test_consensus_accept_ignores_the_edge_flag():
    cfg = small_config()
    predicted = argmax(crafted_pair(cfg, mode=4)[0])
    outcome = walk_one(cfg, make_client(prior=1.0, cfg=cfg), 4, True, True)
    assert outcome.stage is Stage.P2P and outcome.final_token == predicted


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baselines_ignore_both_flags(mode):
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(prior=1.0, cfg=cfg)
    assert walk_one(cfg, client, 5, True, True).stage is Stage.LLM


def per_token_flags(predicted, emb, clusters, cfg):
    """Oracle: peer_consensus on per-peer rows, edge_validate on the other clusters' round means at t."""
    means = [emb[predicted[members]].mean(axis=0) if members else None for members in clusters]
    consensus = np.zeros(predicted.shape, dtype=bool)
    edge = np.zeros(predicted.shape, dtype=bool)
    for c, members in enumerate(clusters):
        for i in members:
            for t in range(predicted.shape[1]):
                own = emb[predicted[i, t]]
                rows = emb[[predicted[p, t] for p in members if p != i]]
                consensus[i, t] = peer_consensus(own, rows, cfg) is ConsensusDecision.ACCEPT_LOCAL
                centers = [mean[t] for o, mean in enumerate(means) if o != c and mean is not None]
                edge[i, t] = edge_validate(own, centers, cfg) is EdgeDecision.ACCEPT
    return consensus, edge


def _assert_flags_match_oracle(predicted, emb, clusters, cfg, mask=None):
    """The flags, one per masked cell in C order, equal the oracle's at those cells; no mask means
    every cell."""
    mask = np.ones(predicted.shape, bool) if mask is None else mask
    got = lateral_decisions(predicted, emb, clusters, cfg, mask)
    want = per_token_flags(predicted, emb, clusters, cfg)
    for flags, oracle in zip(got, want):
        assert flags.dtype == bool and np.array_equal(flags, oracle[mask])
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
    rng = np.random.default_rng(cfg.topology.num_clients)
    for round_index in range(3):
        predicted = round_work(state, round_index).predicted
        for mask in (None, rng.random(predicted.shape) < 0.4):
            flags = _assert_flags_match_oracle(predicted, state.embeddings, state.cluster_members, cfg.peer, mask)
            for tier, flag in enumerate(flags):
                seen[tier, 0] |= not flag.all()
                seen[tier, 1] |= flag.any()
    if cfg.topology.num_clusters == 6:
        assert seen.all()  # both outcomes of both tiers were compared


@st.composite
def near_ties(draw):
    """A small table, clusters, predictions and a mask, with each threshold
    placed within a few ulps of one cosine the exact path computes at a
    masked cell."""
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
    own = emb[predicted[i, t]]
    peers = [p for p in clusters[c] if p != i]
    similarity = near(cosine_similarity(own, centroid(emb[predicted[peers, t]]))) if peers else 0.9
    edge = near(cosine_similarity(own, emb[predicted[clusters[o]]].mean(axis=0)[t]))
    cells = st.lists(st.booleans(), min_size=steps, max_size=steps)
    mask = np.array(draw(st.lists(cells, min_size=sum(sizes), max_size=sum(sizes))), dtype=bool)
    mask[i, t] = True
    return predicted, emb, clusters, PeerConfig(similarity_threshold=similarity, edge_threshold=edge), mask


@given(near_ties())
def test_lateral_decisions_settle_near_ties_exactly(case):
    _assert_flags_match_oracle(*case)


@settings(max_examples=40)
@given(st.integers(1, 64), st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_each_edge_cosine_of_a_round_is_cosine_similarity(dim, num_clusters, steps, seed):
    # With every cluster emptied but a cell's own and one other, the cell's
    # edge flag reads that other cluster's cosine alone. It accepts at
    # cosine_similarity(own, mean) and not one ulp above, so the round's
    # cosine equals the per-token one bit for bit.
    rng = np.random.default_rng(seed)
    emb = np.abs(rng.standard_normal((6, dim)))  # positive rows: every cosine lies in (0, 1]
    clients = 3 * num_clusters
    clusters = [part.tolist() for part in np.array_split(rng.permutation(clients), num_clusters)]
    predicted = rng.integers(len(emb), size=(clients, steps))
    mask = rng.random(predicted.shape) < 0.5
    for c, members in enumerate(clusters):
        mine = np.zeros_like(mask)
        mine[members] = mask[members]
        for o, others in enumerate(clusters):
            if o == c:
                continue
            kept = [m if j in (c, o) else [] for j, m in enumerate(clusters)]
            means = emb[predicted[others]].mean(axis=0)
            for cell, (i, t) in enumerate(zip(*np.nonzero(mine))):
                sim = cosine_similarity(emb[predicted[i, t]], means[t])
                for threshold, accepts in ((sim, True), (float(np.nextafter(sim, 2.0)), False)):
                    if threshold <= 1.0:
                        _, edge = lateral_decisions(predicted, emb, kept, PeerConfig(edge_threshold=threshold), mine)
                        assert edge[cell] == accepts


def test_a_nearly_cancelling_peer_sum_is_decided_exactly():
    # Client 0's peers nearly cancel: their sum is about 1e-9 long, while the
    # float sum over the whole cluster carries rounding of order 1e-16.
    emb = np.array([[0.6, 0.8], [1.0, 1e-3], [-1.0, -1e-3 + 1e-9]])
    predicted = np.array([[0], [1], [2]])
    exact = cosine_similarity(emb[0], centroid(emb[1:]))
    for threshold in (exact, float(np.nextafter(exact, 2.0))):
        cfg = PeerConfig(similarity_threshold=threshold)
        consensus, _ = _assert_flags_match_oracle(predicted, emb, [[0, 1, 2]], cfg)
        assert consensus.reshape(predicted.shape)[0, 0] == (threshold == exact)


def test_a_client_without_peers_escalates():
    emb = np.eye(3)
    predicted = np.array([[0, 1], [0, 1], [0, 1]])
    consensus, _ = _assert_flags_match_oracle(predicted, emb, [[0], [1, 2]], PeerConfig())
    consensus = consensus.reshape(predicted.shape)
    assert not consensus[0].any()  # alone in its cluster, with no peers to agree with
    assert consensus[1:].all()


def test_an_empty_cluster_has_no_centroid():
    emb = np.eye(2)
    predicted = np.array([[0, 1], [0, 1], [0, 0]])
    cfg = PeerConfig(edge_threshold=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean of an empty slice
        with_empty = _assert_flags_match_oracle(predicted, emb, [[0, 1], [], [2]], cfg)
    without = lateral_decisions(predicted, emb, [[0, 1], [2]], cfg, np.ones(predicted.shape, bool))
    assert all(np.array_equal(a, b) for a, b in zip(with_empty, without))
    assert with_empty[1].reshape(predicted.shape).tolist() == [[True, False], [True, False], [True, False]]


def test_cancelled_centroids_escalate_and_are_skipped():
    # One dimension, tokens +1 and -1: a +1 and a -1 cancel exactly.
    emb = np.array([[1.0], [-1.0]])
    predicted = np.array([[0], [0], [1], [0], [1]])
    cfg = PeerConfig(similarity_threshold=0.5, edge_threshold=0.5)
    flags = _assert_flags_match_oracle(predicted, emb, [[0, 1, 2], [3, 4]], cfg)
    consensus, edge = (f.reshape(predicted.shape) for f in flags)
    # Clients 0 and 1 see a cancelled peer sum; the rest disagree with theirs.
    assert not consensus.any()
    # Cluster 1's mean cancels, so cluster 0 has no neighbour to match; the
    # mean of cluster 0 is +1/3, which client 3's +1 matches.
    assert edge[:, 0].tolist() == [False, False, False, True, False]


def test_an_empty_mask_has_no_flags():
    predicted = np.array([[0, 1], [1, 0]])
    flags = lateral_decisions(predicted, np.eye(2), [[0, 1]], PeerConfig(), np.zeros(predicted.shape, bool))
    assert [(f.shape, f.dtype) for f in flags] == [((0,), np.dtype(bool))] * 2


@pytest.mark.parametrize("mode", ["uhlm", "rand"])
def test_baseline_gates_skip_the_lateral_tiers(mode):
    # A primed cache and an aligned peer would resolve this token in fedhlm mode.
    cfg = small_config(mode=mode, p_offload=1.0)
    client = make_client(prior=1.0, cfg=cfg)
    client.cache.insert(argmax(crafted_pair(cfg, mode=3)[0]))
    outcome = walk_one(cfg, client, 3, True, True)
    assert outcome.stage is Stage.LLM
    assert outcome.p2p_attempted is False
    assert outcome.cost == cfg.cost.c_llm
    assert not math.isnan(outcome.beta)
    assert len(client.cache) == 1  # the cloud's final token is not cached


def test_rand_gate_ignores_uncertainty():
    # rand's coins decide alone: every token stays local at p_offload 0 under
    # a zero threshold, and every token escalates at 1 under a threshold of 1.
    for p_offload, want in ((0.0, Stage.LOCAL), (1.0, Stage.LLM)):
        threshold = 1.0 - p_offload
        cfg = small_config(mode="rand", p_offload=p_offload, initial_threshold=threshold)
        assert run(cfg).outcome_totals()[want] == cfg.rounds * cfg.topology.num_clients * cfg.tokens_per_client


def test_round_conservation_and_cost_consistency():
    report = run(small_config())
    cfg = small_config()
    for rnd in report.rounds:
        counts = rnd.outcome_counts
        assert sum(counts.values()) == cfg.topology.num_clients * cfg.tokens_per_client
        assert math.fsum(rnd.outcomes.cost.ravel().tolist()) == pytest.approx(rnd.total_cost, abs=1e-9)
        o = rnd.outcomes
        llm_with_attempt = int(np.count_nonzero(o.p2p_attempted & (o.stage == STAGES.index(Stage.LLM))))
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
        p_offload=draw(unit),
        seed=draw(st.integers(0, 2**32)),
        mode=draw(st.sampled_from(MODES)),
        uncertainty_kind=draw(st.sampled_from([KIND_DISAGREEMENT, KIND_ENTROPY])),
        zipf_exponent=draw(st.sampled_from([1.5, 4.0])),
    )


METRICS_HEADER = (
    "round,global_threshold,local_count,p2p_count,edge_count,llm_count,"
    "transmission_rate,avg_uncertainty,rejection_rate,total_cost,trr"
)


def metrics_lines(report) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        emit_metrics_csv(report, f"{tmp}/metrics.csv")
        with open(f"{tmp}/metrics.csv", encoding="utf-8") as f:
            return f.read().splitlines()


@given(tiny_configs())
def test_round_columns_hold_their_invariants(cfg):
    # The workloads are drawn again from a fresh state: they depend only on
    # the seed, the client and the round.
    report, fresh = run(cfg), SimulationState(cfg)
    stage_of = {stage: STAGES.index(stage) for stage in Stage}
    c_p2p, c_llm = cfg.cost.c_p2p, cfg.cost.c_llm
    prev = cfg.initial_threshold
    clusters = [cfg.topology.members(c) for c in range(cfg.topology.num_clusters)]
    cluster_prev = [prev] * len(clusters)
    header, *rows = metrics_lines(report)
    assert header == METRICS_HEADER and len(rows) == cfg.rounds
    for rnd, row in zip(report.rounds, rows):
        work = round_work(fresh, rnd.round_index)
        predicted, target = work.predicted, work.target
        o = rnd.outcomes
        local, llm = o.stage == stage_of[Stage.LOCAL], o.stage == stage_of[Stage.LLM]
        lateral = ~local & ~llm
        assert all(getattr(o, f).shape == predicted.shape for f in ("stage", "final_token", "cost", "beta"))
        assert np.array_equal(o.uncertainty, work.uncertainty)
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
        # fedhlm learns from exactly its cloud tokens' scores and betas, from the last broadcast;
        # the baselines keep their threshold
        for c in range(cfg.topology.num_clients):
            want = prev
            if cfg.mode == "fedhlm":
                grad = loss_gradient(o.uncertainty[c, llm[c]], o.beta[c, llm[c]], prev, cfg.learner, [llm[c].sum()])[0]
                want = sgd_step(prev, grad, lr_schedule(cfg.learner.eta0, rnd.round_index))
            assert rnd.thresholds_local[c] == want
        # the broadcast: clusters average by transmitted tokens (keeping their last value when
        # no member transmitted), and the global value is the mean of the clusters'
        if cfg.mode == "fedhlm":
            sent = (~local).sum(axis=1)
            cluster_prev = [
                sum(rnd.thresholds_local[m] * sent[m] for m in members) / sent[members].sum()
                if sent[members].sum() else before
                for members, before in zip(clusters, cluster_prev)
            ]
            assert rnd.global_threshold == pytest.approx(sum(cluster_prev) / len(cluster_prev), abs=1e-12)
        else:
            assert rnd.global_threshold == prev
        prev = rnd.global_threshold
        # every metrics.csv cell, recomputed from the columns
        total = sum(counts)
        cloud_betas = o.beta[llm].tolist()
        want_row = [
            str(rnd.round_index),
            f"{rnd.global_threshold:.6f}",
            *map(str, counts),
            f"{(total - counts[stage_of[Stage.LOCAL]]) / total:.6f}",
            f"{math.fsum(o.uncertainty.ravel().tolist()) / o.uncertainty.size:.6f}",
            f"{math.fsum(cloud_betas) / len(cloud_betas) if cloud_betas else 0.0:.6f}",
            f"{math.fsum(priced.ravel().tolist()):.6f}",
            f"{1.0 - counts[stage_of[Stage.LLM]] / total:.6f}",
        ]
        assert row.split(",") == want_row


@pytest.mark.parametrize("mode", MODES)
def test_learning_takes_one_gradient_call_per_round(mode, monkeypatch):
    # A fedhlm round hands every client's cloud tokens to the learner at
    # once, in client blocks; the baselines never learn.
    calls = []
    gradient = engine.loss_gradient

    def counted(*args):
        calls.append(args)
        return gradient(*args)

    monkeypatch.setattr(engine, "loss_gradient", counted)
    cfg = small_config(mode=mode)
    run(cfg)
    assert len(calls) == (cfg.rounds if mode == "fedhlm" else 0)
    assert all(len(args[-1]) == cfg.topology.num_clients for args in calls)


@pytest.mark.parametrize("mode", MODES)
def test_one_walk_per_round(mode, monkeypatch):
    # Every mode routes a round's escalated cells in one call.
    calls = []
    walk = engine.route_escalated

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(engine, "route_escalated", counted)
    cfg = small_config(mode=mode)
    run(cfg)
    assert len(calls) == cfg.rounds


def assert_replays_from_its_own_rows(cfg: SimulationConfig) -> None:
    """Entropy scoring draws nothing, so replaying a run's own SLM rows,
    targets and cloud rows through state.trace, in _trace_steps order,
    takes every decision the run took. Cells that did not escalate read no
    cloud row; their SLM rows stand in."""
    recorded, cloud_rows = [], engine._cloud_rows

    def recording(state, round_index, work, escalated, rngs):
        llm = cloud_rows(state, round_index, work, escalated, rngs)
        recorded.append((work.slm, work.target, escalated, llm))
        return llm

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_cloud_rows", recording)
        report = run(cfg)
    state = SimulationState(cfg)
    size, v = cfg.rounds * cfg.topology.num_clients * cfg.tokens_per_client, cfg.profile.vocab.size
    state.trace = LogitTrace(np.empty(size, np.int64), np.empty((size, v)), np.empty((size, v)))
    for round_index, (slm, target, escalated, llm) in enumerate(recorded):
        steps = _trace_steps(state, round_index)
        state.trace.reference[steps], state.trace.slm[steps], state.trace.llm[steps] = target, slm, slm
        state.trace.llm[steps[escalated]] = llm
    for rnd in report.rounds:
        replayed = run_round(state, rnd.round_index)
        for name, column in rnd.outcomes._asdict().items():
            assert bits(getattr(replayed.outcomes, name)) == bits(column), name
        assert replayed.thresholds_local == rnd.thresholds_local
        assert replayed.cluster_thresholds == rnd.cluster_thresholds
        assert replayed.global_threshold == rnd.global_threshold


@pytest.mark.parametrize("mode", MODES)
def test_a_run_replays_from_its_own_rows(mode):
    assert_replays_from_its_own_rows(default_config(seed=101, mode=mode, uncertainty_kind=KIND_ENTROPY))


@pytest.mark.parametrize("mode", MODES)
@given(tiny_configs())
def test_a_generated_run_replays_from_its_own_rows(mode, cfg):
    assert_replays_from_its_own_rows(replace(cfg, mode=mode, uncertainty_kind=KIND_ENTROPY))


def test_broadcast_thresholds_are_uniform():
    report = run(small_config())
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
    save_logit_trace(path, LogitTrace(llm.argmax(axis=1), slm, llm))

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
    report = run(small_config(mode="uhlm", initial_threshold=0.25))
    totals = report.outcome_totals()
    assert totals[Stage.P2P] == 0
    assert totals[Stage.EDGE] == 0
    assert totals[Stage.LOCAL] + totals[Stage.LLM] == report.total_tokens()
    for rnd in report.rounds:
        assert set(rnd.thresholds_local.values()) == {0.25}
        assert rnd.global_threshold == 0.25


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
    for size in range(2, 2000):
        uniform = np.full((2, size), 1.0 / size)
        assert np.all(score_rows(uniform, KIND_ENTROPY, SamplerConfig(), []) <= 1.0), size


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


def test_silent_clusters_as_readme_counts_them(stock_runs, seed_runs):
    # README: a cluster whose members transmitted nothing that round keeps
    # its last value; at stock settings that is 57 of the 120 cluster-rounds
    # at seed 42 and 100 of 120 at seed 7. Recounted from the stage columns
    # and the topology's members.
    for report, want in ((stock_runs["fedhlm"][0], 57), (seed_runs[7], 100)):
        topo = report.config.topology
        clusters = [topo.members(c) for c in range(topo.num_clusters)]
        before, silent = (report.config.initial_threshold,) * len(clusters), 0
        for rnd in report.rounds:
            sent = np.count_nonzero(rnd.outcomes.stage != STAGES.index(Stage.LOCAL), axis=1)
            for members, prev, value in zip(clusters, before, rnd.cluster_thresholds):
                if not sent[members].any():
                    silent += 1
                    assert value == prev
            before = rnd.cluster_thresholds
        assert (report.config.seed, silent, len(report.rounds) * len(clusters)) == (report.config.seed, want, 120)


class ListEstimator:
    """The attempt rule's hit-rate estimate over a plain list: the prior until a window of outcomes is
    in, then the hit share of the last window."""

    def __init__(self, cost: CostModel):
        self.window, self.prior, self.outcomes = cost.p_hit_window, cost.p_hit_prior, []

    def estimate(self) -> float:
        if len(self.outcomes) < self.window:
            return self.prior
        return sum(self.outcomes[-self.window:]) / self.window

    def record(self, hit: bool) -> None:
        self.outcomes.append(hit)


def round_sources(state: SimulationState, round_index: int):
    """A round's workload as round_work draws it, with coin(i, t, rng), rand's gate coin for client i's
    token t, and cloud_row(i, t), the cloud row of an escalated token, each asked for once per token in
    (client, t) order. The coins are the client-round's own lane. A generated cloud row is drawn on its
    own, next on the client's generation stream: row by row, standard_gamma draws what one call per
    client-round draws."""
    cfg = state.cfg
    clients = range(cfg.topology.num_clients)
    rngs = [seed_stream(cfg.seed, _TAG_GEN, c, round_index) for c in clients]
    work = _draw_round(state, round_index, rngs)
    coins = [seed_stream(cfg.seed, _TAG_COIN, c, round_index) for c in clients]
    coins = [rng.random(cfg.tokens_per_client) for rng in coins]
    if state.trace is not None:
        steps = _trace_steps(state, round_index)
        return work, lambda i, t, rng: coins[i][t], lambda i, t: state.trace.llm[steps[i, t]]
    p = cfg.profile

    def cloud_row(i, t):
        return _peaked_rows(p.vocab.size, work.target[i, t : t + 1], [1], [p.llm_sharpness], p.background, [rngs[i]])[0]

    return work, lambda i, t, rng: coins[i][t], cloud_row


def reference_run(cfg: SimulationConfig):
    """Everything after generation, token by token, as README's "How a token is routed" tells it.

    Returns each round's (columns, local thresholds, cluster thresholds,
    global threshold), then each client's metrics.
    """
    state = SimulationState(cfg)
    n, count, lateral = cfg.topology.num_clients, cfg.tokens_per_client, cfg.mode == "fedhlm"
    clusters = [cfg.topology.members(c) for c in range(cfg.topology.num_clusters)]
    emb = embedding_matrix(cfg.profile.vocab, cfg.peer)
    caches = [ReferenceLRU(emb, cfg.cache_capacity, cfg.peer.similarity_threshold) for _ in range(n)]
    estimators = [ListEstimator(cfg.cost) for _ in range(n)]
    threshold = cfg.initial_threshold
    cluster_values = [threshold] * len(clusters)
    c_p2p, c_llm = cfg.cost.c_p2p, cfg.cost.c_llm
    rounds = []
    for r in range(cfg.rounds):
        work, coin, cloud_row = round_sources(state, r)
        predicted, shape = work.predicted, work.predicted.shape
        cols = RoundOutcomes(
            np.zeros(shape, np.int8), predicted.copy(), np.zeros(shape), work.uncertainty,
            np.full(shape, np.nan), np.zeros(shape, bool), np.zeros(shape, bool),
        )
        means = [emb[predicted[m]].mean(axis=0) if m else None for m in clusters]
        for i in range(n):
            rng, home = seed_stream(cfg.seed, _TAG_RESOLVE, i, r), cfg.topology.assignment[i]
            cache, estimator = caches[i], estimators[i]
            for t in range(count):
                if cfg.mode == "rand":
                    escalated = coin(i, t, rng) < cfg.p_offload
                else:
                    escalated = work.uncertainty[i, t] > threshold
                if not escalated:
                    continue
                # Every escalated token has a cloud row, whether or not the cloud sees it.
                stage, final, cost, cloud = Stage.LLM, int(predicted[i, t]), c_llm, cloud_row(i, t)
                own = emb[predicted[i, t]]
                attempted = lateral and should_attempt_p2p(estimator.estimate(), cfg.cost)
                if attempted:
                    cost = c_p2p
                    peers = emb[[predicted[p, t] for p in clusters[home] if p != i]]
                    centers = [m[t] for o, m in enumerate(means) if o != home and m is not None]
                    if (hit := cache.lookup(final)) is not None:
                        estimator.record(True)
                        stage, final = Stage.P2P, hit
                    elif peer_consensus(own, peers, cfg.peer) is ConsensusDecision.ACCEPT_LOCAL:
                        estimator.record(True)
                        cache.insert(final)
                        stage = Stage.P2P
                    else:
                        estimator.record(False)
                        if edge_validate(own, centers, cfg.peer) is EdgeDecision.ACCEPT:
                            cache.insert(final)
                            stage = Stage.EDGE
                        else:
                            cost = c_p2p + c_llm
                if stage is Stage.LLM:
                    slm, llm = TokenDistribution(work.slm[i, t]), TokenDistribution(cloud)
                    verdict = llm_adjudicate(slm, llm, final, rng)
                    final, cols.beta[i, t] = verdict.final_token, verdict.rejection_prob
                    if lateral:
                        cache.insert(final)
                cols.stage[i, t], cols.final_token[i, t], cols.cost[i, t] = STAGES.index(stage), final, cost
                cols.p2p_attempted[i, t] = attempted
        cols = cols._replace(correct=cols.final_token == work.target)
        local = dict.fromkeys(range(n), threshold)
        if lateral:
            eta = lr_schedule(cfg.learner.eta0, r)
            for i in range(n):
                cloud = cols.stage[i] == STAGES.index(Stage.LLM)
                scores, betas = work.uncertainty[i, cloud], cols.beta[i, cloud]
                grad = loss_gradient(scores, betas, threshold, cfg.learner, [len(scores)])[0]
                local[i] = sgd_step(threshold, grad, eta)
            sent = np.count_nonzero(cols.stage != STAGES.index(Stage.LOCAL), axis=1).tolist()
            cluster_values = [
                math.fsum(local[m] * sent[m] for m in members) / sum(sent[m] for m in members)
                if sum(sent[m] for m in members) else before
                for members, before in zip(clusters, cluster_values)
            ]
            threshold = math.fsum(cluster_values) / len(cluster_values)
        rounds.append((cols, local, tuple(cluster_values), threshold))
    stage, final, correct, attempted = (
        np.hstack([getattr(cols, k) for cols, *_ in rounds])
        for k in ("stage", "final_token", "correct", "p2p_attempted")
    )
    metrics = {}
    for i in range(n):
        tried = int(attempted[i].sum())
        metrics[i] = ClientMetrics(
            client_token_entropy(final[i], cfg.profile.vocab),
            int((stage[i] == STAGES.index(Stage.P2P)).sum()) / tried if tried else 0.0,
            int((stage[i] == STAGES.index(Stage.LLM)).sum()),
            int(correct[i].sum()) / stage.shape[1],
        )
    return rounds, metrics


@st.composite
def lateral_heavy_configs(draw):
    """fedhlm runs where every lateral tier acts: few classes and a steep Zipf draw, so peers often
    predict the same token and consensus accepts; few embedding dimensions and low thresholds, so the
    edge tier accepts and the cache answers with other tokens; a cache smaller than the vocabulary, so
    it evicts; and a short window, so each recorded outcome moves the next attempt decision. Gates at 0
    and at multiples of 1/10 meet scores exactly."""
    clients, vocab = draw(st.integers(3, 8)), draw(st.sampled_from([5, 12, 32]))
    return SimulationConfig(
        topology=ClusterTopology(num_clients=clients, num_clusters=draw(st.integers(1, 3))),
        profile=ModelProfile(vocab=VocabSpec(vocab)),
        partition=PartitionSpec(num_classes=draw(st.integers(1, 3))),
        peer=PeerConfig(
            similarity_threshold=draw(st.sampled_from([0.3, 0.6, 0.9])),
            embedding_dim=draw(st.sampled_from([2, 3, 64])),
            edge_threshold=draw(st.sampled_from([None, 0.2, 0.5])),
        ),
        cost=CostModel(
            c_p2p=draw(st.sampled_from([1.0, 2.5])),
            p_hit_window=draw(st.integers(1, 3)),
            p_hit_prior=draw(st.sampled_from([0.5, 1.0])),
        ),
        cache_capacity=draw(st.integers(1, 4)),
        rounds=draw(st.integers(1, 3)),
        tokens_per_client=draw(st.integers(2, 10)),
        initial_threshold=draw(st.sampled_from([0.0, 0.1, 0.3])),
        seed=draw(st.integers(0, 2**32)),
        uncertainty_kind=draw(st.sampled_from([KIND_DISAGREEMENT, KIND_ENTROPY])),
        zipf_exponent=draw(st.sampled_from([1.5, 4.0, 4.0])),
    )


@settings(max_examples=150)
@given(st.one_of(tiny_configs(), lateral_heavy_configs()), st.sampled_from([None, None, 5, 23]))
def test_whole_run_matches_per_token_oracle(cfg, trace_rows):
    # Every column, threshold and client metric of a run equals the per-token
    # reference's, bit for bit; NaN betas compare by their bits.
    with tempfile.TemporaryDirectory() as tmp:
        if trace_rows is not None:
            rng = np.random.default_rng(cfg.seed)
            slm, llm = rng.dirichlet(np.full(cfg.profile.vocab.size, 0.5), size=(2, trace_rows))
            save_logit_trace(f"{tmp}/t.csv", LogitTrace(llm.argmax(axis=1), slm, llm))
            cfg = replace(cfg, trace_path=f"{tmp}/t.csv")
        report, (rounds, metrics) = run(cfg), reference_run(cfg)
    for rnd, (cols, local, cluster_values, threshold) in zip(report.rounds, rounds, strict=True):
        for name, column in cols._asdict().items():
            assert bits(getattr(rnd.outcomes, name)) == bits(column), name
        assert rnd.thresholds_local == local
        assert rnd.cluster_thresholds == cluster_values and rnd.global_threshold == threshold
    assert report.client_metrics == metrics
