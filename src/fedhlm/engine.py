"""Round-based simulation of uncertainty-gated token routing.

Each round every client predicts a fixed number of tokens, and every token
takes one path, resolve_token. A gate first decides whether the token
escalates; a token that does not stays on device. In the learned `fedhlm`
mode an escalated token opportunistically tries the client's semantic cache
and then peer consensus, falls back to edge validation, and finally asks the
cloud model to adjudicate. The `uhlm` (static threshold) and `rand` (coin
flip) baselines differ only in the gate and send every escalated token
straight to the cloud. In `fedhlm` mode cloud feedback drives one
threshold-learning step per client per round, followed by cluster-weighted
and global averaging with a broadcast back to every client.

All randomness flows from one seed through named per-client, per-round
streams, so reruns are bit-identical and clients may execute in parallel
without perturbing the result.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .adjudication import llm_adjudicate
from .costs import CostModel, PHitEstimator, should_attempt_p2p
from .federation import (
    AllWeightsZero,
    ClusterTopology,
    PartitionSpec,
    cluster_aggregate,
    dirichlet_partition,
    global_aggregate,
    mixture_skew,
)
from .model_source import (
    MAX_CONCENTRATION,
    LogitTrace,
    ModelProfile,
    TokenDistribution,
    VocabSpec,
    argmax_token,
    gen_distribution_pair,
    load_logit_trace,
)
from .peers import (
    ConsensusDecision,
    EdgeDecision,
    Embedding,
    PeerConfig,
    TokenCache,
    edge_validate,
    embedding_matrix,
    peer_consensus,
)
from .thresholds import (
    ClientRoundStats,
    LearnerConfig,
    RejectionFeedback,
    Threshold,
    loss_gradient,
    lr_schedule,
    sgd_step,
)
from .uncertainty import SamplerConfig, entropy_score, mc_disagreement

MODE_FEDHLM = "fedhlm"
MODE_RAND = "rand"
MODE_UHLM = "uhlm"
MODES = (MODE_FEDHLM, MODE_RAND, MODE_UHLM)

KIND_DISAGREEMENT = "disagreement"
KIND_ENTROPY = "entropy"

# Named sub-stream tags; every consumer of randomness gets its own lane.
_TAG_PARTITION = 1
_TAG_PROFILES = 2
_TAG_GEN = 3
_TAG_RESOLVE = 4


class ConfigInvalid(ValueError):
    """Simulation configuration violates a cross-field constraint."""


class EmptyHistory(ValueError):
    """Token entropy requested for a client that accepted no tokens."""


class Stage(enum.Enum):
    LOCAL = "local"
    P2P = "p2p"
    EDGE = "edge"
    LLM = "llm"


@dataclass(frozen=True)
class SimulationConfig:
    topology: ClusterTopology
    partition: PartitionSpec = PartitionSpec()
    profile: ModelProfile = None  # type: ignore[assignment]
    sampler: SamplerConfig = SamplerConfig()
    learner: LearnerConfig = LearnerConfig()
    peer: PeerConfig = PeerConfig()
    cost: CostModel = CostModel()
    rounds: int = 30
    tokens_per_client: int = 30
    initial_threshold: float = 0.1
    seed: int = 42
    mode: str = MODE_FEDHLM
    p_offload: float = 0.7
    static_threshold: float = 0.1
    uncertainty_kind: str = KIND_DISAGREEMENT
    cache_capacity: int = 256
    heterogeneity: float = 1.2
    skew_sharpness_coupling: float = 1.5
    skew_agreement_coupling: float = 0.3
    confusion_scale: float = 12.0
    zipf_exponent: float = 1.5
    trace_path: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.profile is None:
            object.__setattr__(self, "profile", ModelProfile(vocab=VocabSpec(32)))
        if self.rounds < 1:
            raise ConfigInvalid("rounds must be >= 1")
        if self.tokens_per_client < 1:
            raise ConfigInvalid("tokens_per_client must be >= 1")
        if not 0.0 <= self.initial_threshold <= 1.0:
            raise ConfigInvalid("initial_threshold must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")
        if self.mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.p_offload <= 1.0:
            raise ConfigInvalid("p_offload must lie in [0, 1]")
        if not 0.0 <= self.static_threshold <= 1.0:
            raise ConfigInvalid("static_threshold must lie in [0, 1]")
        if self.uncertainty_kind not in (KIND_DISAGREEMENT, KIND_ENTROPY):
            raise ConfigInvalid("uncertainty_kind must be 'disagreement' or 'entropy'")
        if self.cache_capacity < 1:
            raise ConfigInvalid("cache_capacity must be >= 1")
        if self.heterogeneity < 0 or self.skew_sharpness_coupling < 0 or self.skew_agreement_coupling < 0:
            raise ConfigInvalid("heterogeneity and coupling strengths must be >= 0")
        if self.confusion_scale < 0:
            raise ConfigInvalid("confusion_scale must be >= 0")
        if self.zipf_exponent < 0:
            raise ConfigInvalid("zipf_exponent must be >= 0")
        if self.workers < 1:
            raise ConfigInvalid("workers must be >= 1")
        if self.partition.num_classes > self.profile.vocab.size:
            raise ConfigInvalid("num_classes cannot exceed the vocabulary size")
        if lr_schedule(self.learner.eta0, self.rounds - 1) == 0.0:
            raise ConfigInvalid("eta0 underflows to a zero learning rate by the last round")
        if self.trace_path is not None and not Path(self.trace_path).is_file():
            raise ConfigInvalid(f"trace file not found: {self.trace_path}")
        # No token is charged more than c_p2p + c_llm, so this bound keeps
        # every cost total finite. Comparing the int with a float is exact.
        tokens = self.rounds * self.topology.num_clients * self.tokens_per_client
        if tokens > sys.float_info.max / (self.cost.c_p2p + self.cost.c_llm):
            raise ConfigInvalid("c_p2p + c_llm per token overflows the run's total cost")


def default_config(**overrides) -> SimulationConfig:
    """The stock 20-client, 4-cluster, 30-round configuration."""
    cfg = SimulationConfig(topology=ClusterTopology(num_clients=20, num_clusters=4))
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class TokenOutcome:
    stage: Stage
    final_token: int
    charged_cost: float
    uncertainty: float
    correct: bool
    rejection_prob: float | None = None
    p2p_attempted: bool = False

    def __post_init__(self) -> None:
        if self.stage is Stage.LOCAL and self.charged_cost != 0.0:
            raise ValueError("local outcomes carry zero cost")


@dataclass
class ClientState:
    """Everything a client carries across rounds."""

    client_id: int
    cluster_id: int
    profile: ModelProfile
    mixture: np.ndarray
    threshold: float
    cache: TokenCache
    estimator: PHitEstimator
    accepted_tokens: list[int] = field(default_factory=list)
    p2p_attempts: int = 0
    p2p_successes: int = 0
    llm_tokens: int = 0
    correct_tokens: int = 0
    total_tokens: int = 0


@dataclass(frozen=True)
class ClientMetrics:
    token_entropy: float
    cache_hit_ratio: float
    llm_token_count: int
    accuracy: float


@dataclass
class RoundReport:
    round_index: int
    per_client: dict[int, ClientRoundStats]
    outcomes: dict[int, list[TokenOutcome]]
    outcome_counts: dict[Stage, int]
    thresholds_local: dict[int, float]
    thresholds_after: dict[int, float]
    cluster_thresholds: tuple[float, ...]
    global_threshold: float
    total_cost: float
    avg_uncertainty: float
    rejection_rate: float
    llm_after_p2p: int


@dataclass
class SimulationReport:
    config: SimulationConfig
    rounds: list[RoundReport]
    client_metrics: dict[int, ClientMetrics]

    def outcome_totals(self) -> dict[Stage, int]:
        totals = {stage: 0 for stage in Stage}
        for rnd in self.rounds:
            for stage in Stage:
                totals[stage] += rnd.outcome_counts[stage]
        return totals

    def total_tokens(self) -> int:
        return sum(self.outcome_totals().values())

    def total_cost(self) -> float:
        return math.fsum(rnd.total_cost for rnd in self.rounds)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one named lane of the run's randomness."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


def client_token_entropy(history: list[int], vocab: VocabSpec) -> float:
    """Empirical entropy of accepted tokens, normalized into [0, 1] by ln(V)."""
    if len(history) == 0:
        raise EmptyHistory("client accepted no tokens")
    counts = np.bincount(np.asarray(history, dtype=np.int64), minlength=vocab.size)
    p = counts[counts > 0] / len(history)
    entropy = float(-(p * np.log(p)).sum())
    return min(max(entropy / math.log(vocab.size), 0.0), 1.0)


@dataclass
class _Workload:
    """One client-round of pre-generated prediction steps."""

    slm: list[TokenDistribution]
    llm: list[TokenDistribution]
    predicted: np.ndarray
    uncertainty: np.ndarray
    reference: np.ndarray | None = None


class SimulationState:
    """Mutable world state threaded through run_round."""

    def __init__(self, cfg: SimulationConfig):
        self.cfg = cfg
        vocab = cfg.profile.vocab
        partition_rng = substream(cfg.seed, _TAG_PARTITION)
        mixtures = dirichlet_partition(cfg.partition, cfg.topology, partition_rng)
        profile_rng = substream(cfg.seed, _TAG_PROFILES)
        # As Python floats, a multiplier that overflowed to inf carries on
        # without warnings until the sharpness clamp below saturates it.
        with np.errstate(over="ignore"):
            multipliers = np.exp(profile_rng.normal(0.0, cfg.heterogeneity, cfg.topology.num_clients))
        multipliers = multipliers.tolist()

        self.embeddings = embedding_matrix(vocab, cfg.peer)
        self.class_regions = np.array_split(np.arange(vocab.size), cfg.partition.num_classes)
        self.zipf_cums = [_zipf_cumulative(len(region), cfg.zipf_exponent) for region in self.class_regions]

        self.trace: LogitTrace | None = None
        if cfg.trace_path is not None:
            try:
                self.trace = load_logit_trace(cfg.trace_path, vocab)
            except (OSError, ValueError) as exc:
                raise ConfigInvalid(f"trace file {cfg.trace_path}: {exc}") from None
            if len(self.trace) == 0:
                raise ConfigInvalid("trace file contains no steps")

        start = cfg.static_threshold if cfg.mode == MODE_UHLM else cfg.initial_threshold
        self.clients: list[ClientState] = []
        for client_id in range(cfg.topology.num_clients):
            mixture = mixtures[client_id]
            skew = mixture_skew(mixture)
            sharpness = cfg.profile.slm_sharpness * multipliers[client_id] * math.exp(
                -cfg.skew_sharpness_coupling * skew
            )
            # Overflow (inf, or nan where it meets an underflowed coupling)
            # saturates at the largest concentration a profile allows.
            sharpness = max(sharpness, 1e-6) if sharpness <= MAX_CONCENTRATION else MAX_CONCENTRATION
            agreement = cfg.profile.agreement * (1.0 - cfg.skew_agreement_coupling * skew)
            profile = replace(
                cfg.profile,
                slm_sharpness=sharpness,
                agreement=min(max(agreement, 0.0), 1.0),
            )
            self.clients.append(
                ClientState(
                    client_id=client_id,
                    cluster_id=cfg.topology.assignment[client_id],
                    profile=profile,
                    mixture=mixture,
                    threshold=start,
                    cache=TokenCache(capacity=cfg.cache_capacity),
                    estimator=PHitEstimator(window=cfg.cost.p_hit_window, prior=cfg.cost.p_hit_prior),
                )
            )
        self.cluster_thresholds = [start] * cfg.topology.num_clusters
        self.cluster_members = [
            cfg.topology.members(c) for c in range(cfg.topology.num_clusters)
        ]
        # Each client's cluster peers, in cluster order, for one-gather peer views.
        self.peer_indices = [
            np.array([m for m in self.cluster_members[c.cluster_id] if m != c.client_id], dtype=np.intp)
            for c in self.clients
        ]
        self.round_index = 0


def _zipf_cumulative(width: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, width + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    return np.cumsum(weights)


def _draw_modes(state: SimulationState, client: ClientState, rng: np.random.Generator) -> np.ndarray:
    count = state.cfg.tokens_per_client
    classes = rng.choice(state.cfg.partition.num_classes, size=count, p=client.mixture)
    picks = rng.random(count)
    modes = np.empty(count, dtype=np.int64)
    for i in range(count):
        region = state.class_regions[classes[i]]
        idx = int(np.searchsorted(state.zipf_cums[classes[i]], picks[i], side="right"))
        modes[i] = region[min(idx, len(region) - 1)]
    return modes


def _score(cfg: SimulationConfig, dist: TokenDistribution, rng: np.random.Generator) -> float:
    if cfg.uncertainty_kind == KIND_ENTROPY:
        # Normalized by ln(V) so the score is comparable with thresholds in
        # [0, 1]; a uniform row can round to just above 1.
        return min(entropy_score(dist).value / math.log(cfg.profile.vocab.size), 1.0)
    return mc_disagreement(dist, cfg.sampler, rng).value


def _generate_workload(state: SimulationState, client: ClientState, round_index: int) -> _Workload:
    cfg = state.cfg
    rng = substream(cfg.seed, _TAG_GEN, client.client_id, round_index)
    count = cfg.tokens_per_client
    slm_list: list[TokenDistribution] = []
    llm_list: list[TokenDistribution] = []
    predicted = np.empty(count, dtype=np.int64)
    uncertainty = np.empty(count, dtype=np.float64)
    reference: np.ndarray | None = None

    if state.trace is not None:
        reference = np.empty(count, dtype=np.int64)
        base = (client.client_id * cfg.rounds + round_index) * count
        for t in range(count):
            step = state.trace.steps[(base + t) % len(state.trace)]
            slm_list.append(step.slm)
            llm_list.append(step.llm)
            reference[t] = step.reference_token
            predicted[t] = argmax_token(step.slm)
            uncertainty[t] = _score(cfg, step.slm, rng)
    else:
        modes = _draw_modes(state, client, rng)
        # A weaker small model sometimes lands on the wrong token entirely,
        # scattering its confident predictions across the vocabulary.
        miss_rate = min(0.5, cfg.confusion_scale / client.profile.slm_sharpness)
        if miss_rate > 0.0:
            flips = rng.random(count) < miss_rate
            scattered = rng.integers(cfg.profile.vocab.size, size=count)
            modes = np.where(flips, scattered, modes)
        for t in range(count):
            slm, llm = gen_distribution_pair(client.profile, rng, mode=int(modes[t]))
            slm_list.append(slm)
            llm_list.append(llm)
            predicted[t] = argmax_token(slm)
            uncertainty[t] = _score(cfg, slm, rng)
    return _Workload(slm_list, llm_list, predicted, uncertainty, reference)


class _PeerView:
    """Per-round view of every client's published prediction embeddings.

    Clients publish the embedding of their predicted token at every
    timestep, local or not, so peers and the edge tier always have a
    same-timestep snapshot to compare against. The view holds the round's
    (clients, T) matrix of predicted tokens and every cluster's centroid at
    every timestep, computed once when the round starts; nothing in it
    changes afterwards, so client threads share it safely. The per-token
    views are built on demand: a client's peer rows only when one of its
    tokens reaches peer consensus, and the neighbour centroid list only
    when consensus escalates.
    """

    def __init__(self, state: SimulationState, workloads: dict[int, _Workload]):
        self._emb = state.embeddings
        self._peers = state.peer_indices
        self._predicted = np.stack([workloads[c.client_id].predicted for c in state.clients])
        # A cluster mean that cancels to zero has no direction to compare with.
        self._centroids = [
            [
                Embedding(mean) if float(np.linalg.norm(mean)) > 1e-12 else None
                for mean in self._emb[self._predicted[members]].mean(axis=0)
            ]
            for members in state.cluster_members
        ]

    def peer_embeddings(self, client_id: int, t: int) -> np.ndarray:
        """(peers, d) rows: the embeddings of the client's cluster peers' tokens at t."""
        return self._emb[self._predicted[self._peers[client_id], t]]

    def edge_centroids(self, cluster_id: int, t: int) -> list[Embedding]:
        """Every other cluster's centroid at t, skipping those that cancelled to zero."""
        return [
            by_t[t]
            for other, by_t in enumerate(self._centroids)
            if other != cluster_id and by_t[t] is not None
        ]


def resolve_token(
    client: ClientState,
    slm: TokenDistribution,
    llm: TokenDistribution,
    peer_embeddings: Callable[[], np.ndarray | list[Embedding]] | None,
    edge_centroids: Callable[[], list[Embedding]] | None,
    cfg: SimulationConfig,
    rng: np.random.Generator,
    stats: ClientRoundStats,
    uncertainty: float,
    reference_token: int | None = None,
) -> TokenOutcome:
    """Route one token through the gate / cache / consensus / edge / cloud pipeline.

    The gate escalates on a coin flip with probability cfg.p_offload in
    `rand` mode and when uncertainty exceeds the client's threshold
    otherwise. Only `fedhlm` mode tries the lateral tiers; the baselines
    take every escalated token straight to the cloud, so they may pass
    None for the views. The peer and edge views are zero-argument
    providers: peer_embeddings is called only after the cache misses and
    edge_centroids only after consensus escalates.
    """
    predicted = argmax_token(slm)
    target = reference_token if reference_token is not None else argmax_token(llm)
    if cfg.mode == MODE_RAND:
        escalate = rng.random() < cfg.p_offload
    else:
        escalate = uncertainty > client.threshold
    if not escalate:
        return _settle(client, Stage.LOCAL, predicted, 0.0, uncertainty, target)

    stats.transmitted_count += 1
    cost = cfg.cost
    lateral = cfg.mode == MODE_FEDHLM
    emb_row = embedding_matrix(cfg.profile.vocab, cfg.peer)
    attempted = lateral and should_attempt_p2p(client.estimator.estimate(), cost)
    if attempted:
        client.p2p_attempts += 1
        own = Embedding(emb_row[predicted])
        hit = client.cache.lookup(own, cfg.peer)
        if hit.token is not None:
            client.estimator.record(True)
            client.p2p_successes += 1
            return _settle(client, Stage.P2P, hit.token, cost.c_p2p, uncertainty, target, p2p_attempted=True)
        if peer_consensus(own, peer_embeddings(), cfg.peer) is ConsensusDecision.ACCEPT_LOCAL:
            client.estimator.record(True)
            client.p2p_successes += 1
            client.cache.insert(own, predicted)
            return _settle(client, Stage.P2P, predicted, cost.c_p2p, uncertainty, target, p2p_attempted=True)
        client.estimator.record(False)
        if edge_validate(own, edge_centroids(), cfg.peer) is EdgeDecision.ACCEPT:
            client.cache.insert(own, predicted)
            return _settle(client, Stage.EDGE, predicted, cost.c_p2p, uncertainty, target, p2p_attempted=True)

    result = llm_adjudicate(slm, llm, predicted, rng)
    final = result.final_token
    if lateral:
        client.cache.insert(Embedding(emb_row[final]), final)
    client.llm_tokens += 1
    stats.feedback.append(
        RejectionFeedback(uncertainty=uncertainty, rejection_prob=result.rejection_prob, token=predicted)
    )
    charged = cost.c_p2p + cost.c_llm if attempted else cost.c_llm
    return _settle(client, Stage.LLM, final, charged, uncertainty, target, result.rejection_prob, attempted)


def _settle(
    client: ClientState,
    stage: Stage,
    final: int,
    charged: float,
    uncertainty: float,
    target: int,
    rejection_prob: float | None = None,
    p2p_attempted: bool = False,
) -> TokenOutcome:
    """Build one token's outcome and book it on the client; target is the token counted correct."""
    outcome = TokenOutcome(stage, final, charged, uncertainty, final == target, rejection_prob, p2p_attempted)
    client.accepted_tokens.append(final)
    client.total_tokens += 1
    if outcome.correct:
        client.correct_tokens += 1
    return outcome


def _resolve_client_round(
    state: SimulationState,
    client: ClientState,
    round_index: int,
    workload: _Workload,
    view: _PeerView | None,
) -> tuple[list[TokenOutcome], ClientRoundStats]:
    cfg = state.cfg
    rng = substream(cfg.seed, _TAG_RESOLVE, client.client_id, round_index)
    stats = ClientRoundStats(client_id=client.client_id)
    lateral = view is not None
    outcomes: list[TokenOutcome] = []
    for t in range(cfg.tokens_per_client):
        outcomes.append(
            resolve_token(
                client,
                workload.slm[t],
                workload.llm[t],
                partial(view.peer_embeddings, client.client_id, t) if lateral else None,
                partial(view.edge_centroids, client.cluster_id, t) if lateral else None,
                cfg,
                rng,
                stats,
                float(workload.uncertainty[t]),
                int(workload.reference[t]) if workload.reference is not None else None,
            )
        )
    return outcomes, stats


def run_round(state: SimulationState, round_index: int) -> RoundReport:
    """Advance the world by one round and report what happened."""
    cfg = state.cfg
    clients = state.clients

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            workloads = dict(
                zip(
                    [c.client_id for c in clients],
                    pool.map(lambda c: _generate_workload(state, c, round_index), clients),
                )
            )
    else:
        workloads = {c.client_id: _generate_workload(state, c, round_index) for c in clients}

    # The baselines never look at peers, so they get no view.
    view = _PeerView(state, workloads) if cfg.mode == MODE_FEDHLM else None

    def resolve(client: ClientState):
        return _resolve_client_round(state, client, round_index, workloads[client.client_id], view)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            resolved = list(pool.map(resolve, clients))
    else:
        resolved = [resolve(c) for c in clients]

    outcomes = {c.client_id: res[0] for c, res in zip(clients, resolved)}
    per_client = {c.client_id: res[1] for c, res in zip(clients, resolved)}

    thresholds_local: dict[int, float] = {}
    if cfg.mode == MODE_FEDHLM:
        for client in clients:
            stats = per_client[client.client_id]
            grad = loss_gradient(stats.feedback, client.threshold, cfg.learner)
            eta = lr_schedule(cfg.learner.eta0, round_index)
            updated = sgd_step(Threshold(client.threshold), grad, eta)
            thresholds_local[client.client_id] = updated.value

        cluster_values: list[float] = []
        for cluster_id, members in enumerate(state.cluster_members):
            values = [thresholds_local[m] for m in members]
            weights = [per_client[m].transmitted_count for m in members]
            try:
                cluster_values.append(cluster_aggregate(values, weights))
            except AllWeightsZero:
                cluster_values.append(state.cluster_thresholds[cluster_id])
        state.cluster_thresholds = cluster_values
        global_threshold = global_aggregate(cluster_values)
        for client in clients:
            client.threshold = global_threshold
    else:
        for client in clients:
            thresholds_local[client.client_id] = client.threshold
        global_threshold = clients[0].threshold

    thresholds_after = {c.client_id: c.threshold for c in clients}

    counts = {stage: 0 for stage in Stage}
    llm_after_p2p = 0
    all_u: list[float] = []
    betas: list[float] = []
    cost_total = []
    for client in clients:
        for outcome in outcomes[client.client_id]:
            counts[outcome.stage] += 1
            all_u.append(outcome.uncertainty)
            cost_total.append(outcome.charged_cost)
            if outcome.stage is Stage.LLM:
                betas.append(outcome.rejection_prob)
                if outcome.p2p_attempted:
                    llm_after_p2p += 1

    report = RoundReport(
        round_index=round_index,
        per_client=per_client,
        outcomes=outcomes,
        outcome_counts=counts,
        thresholds_local=thresholds_local,
        thresholds_after=thresholds_after,
        cluster_thresholds=tuple(state.cluster_thresholds),
        global_threshold=global_threshold,
        total_cost=math.fsum(cost_total),
        avg_uncertainty=math.fsum(all_u) / len(all_u),
        rejection_rate=math.fsum(betas) / len(betas) if betas else 0.0,
        llm_after_p2p=llm_after_p2p,
    )
    state.round_index = round_index + 1
    return report


def run(cfg: SimulationConfig) -> SimulationReport:
    """Run cfg.rounds rounds of the policy cfg.mode selects."""
    state = SimulationState(cfg)
    rounds = [run_round(state, r) for r in range(cfg.rounds)]
    metrics: dict[int, ClientMetrics] = {}
    for client in state.clients:
        entropy = client_token_entropy(client.accepted_tokens, cfg.profile.vocab)
        hit_ratio = client.p2p_successes / client.p2p_attempts if client.p2p_attempts else 0.0
        metrics[client.client_id] = ClientMetrics(
            token_entropy=entropy,
            cache_hit_ratio=hit_ratio,
            llm_token_count=client.llm_tokens,
            accuracy=client.correct_tokens / client.total_tokens,
        )
    return SimulationReport(cfg, rounds, metrics)
