"""Round-based simulation of uncertainty-gated token routing.

Each round every client predicts a fixed number of tokens. A client-round's
distributions are drawn, or gathered from a replayed trace, as (T, V)
arrays and scored in one pass. A gate then decides, in one comparison per
client-round, which tokens escalate; the rest stay on device. Only escalated
tokens take the one routing path, resolve_token, except in `rand` mode,
which routes every token there since its gate coin shares a stream with the
cloud's draws. In the learned `fedhlm` mode an escalated token tries the
client's semantic cache and then peer consensus, falls back to edge
validation, and finally asks the cloud model to adjudicate. Consensus and
edge decisions depend only on the round's predicted tokens, so
lateral_decisions takes them once per round for every client and timestep.
The `uhlm` (static threshold) and `rand` (coin flip) baselines differ only
in the gate and send every escalated token straight to the cloud. A round's
outcomes are kept as (clients, T) columns. In `fedhlm` mode the cloud's
feedback drives one threshold-learning step per client per round, followed
by cluster-weighted and global averaging with a broadcast to every client.

All randomness flows from one seed through named per-client, per-round
streams, so reruns are bit-identical.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

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
    VocabSpec,
    _unchecked_distribution,
    gen_distribution_rows,
    load_logit_trace,
)
from .peers import (
    _NORM_EPS,
    ConsensusDecision,
    EdgeDecision,
    Embedding,
    PeerConfig,
    TokenCache,
    edge_validate,
    embedding_matrix,
    peer_consensus,
)
from .thresholds import LearnerConfig, loss_gradient, lr_schedule, sgd_step
from .uncertainty import KIND_DISAGREEMENT, KIND_ENTROPY, SamplerConfig, score_rows

MODE_FEDHLM = "fedhlm"
MODE_RAND = "rand"
MODE_UHLM = "uhlm"
MODES = (MODE_FEDHLM, MODE_RAND, MODE_UHLM)

# Named sub-stream tags; every consumer of randomness gets its own lane.
_TAG_PARTITION = 1
_TAG_PROFILES = 2
_TAG_GEN = 3
_TAG_RESOLVE = 4

# Ceiling on the cells (floats or ints) a run holds at once: a round's SLM
# and LLM rows, the embedding table, the caches, one cluster's lateral
# tables, a client-round's MC search (T x samples x V), the run's outcome
# columns. 2**24 float64 cells are 128 MiB; the stock run's largest
# term is 327,680 (its caches).
MAX_CELLS = 2**24


class ConfigInvalid(ValueError):
    """Simulation configuration violates a cross-field constraint."""


class EmptyHistory(ValueError):
    """Token entropy requested for a client that accepted no tokens."""


class Stage(enum.Enum):
    LOCAL = "local"
    P2P = "p2p"
    EDGE = "edge"
    LLM = "llm"


# A stage column holds each token's index into STAGES.
STAGES = tuple(Stage)
_CODE = {stage: code for code, stage in enumerate(STAGES)}
_LOCAL, _P2P, _LLM = _CODE[Stage.LOCAL], _CODE[Stage.P2P], _CODE[Stage.LLM]


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
        if self.partition.num_classes > self.profile.vocab.size:
            raise ConfigInvalid("num_classes cannot exceed the vocabulary size")
        if lr_schedule(self.learner.eta0, self.rounds - 1) == 0.0:
            raise ConfigInvalid("eta0 underflows to a zero learning rate by the last round")
        if self.trace_path is not None and not Path(self.trace_path).is_file():
            raise ConfigInvalid(f"trace file not found: {self.trace_path}")
        clients, vocab, dim = self.topology.num_clients, self.profile.vocab.size, self.peer.embedding_dim
        tokens = self.rounds * clients * self.tokens_per_client
        held = max(
            2 * clients * self.tokens_per_client * vocab, vocab * dim, clients * self.cache_capacity * dim,
            clients * self.tokens_per_client * max(dim, self.topology.num_clusters),
            self.tokens_per_client * self.sampler.num_samples * vocab, tokens,
        )
        if held > MAX_CELLS:
            raise ConfigInvalid(f"the run would hold {held} cells at once, over the ceiling of {MAX_CELLS}")
        # No token is charged more than c_p2p + c_llm, so this bound keeps
        # every cost total finite. Comparing the int with a float is exact.
        if tokens > sys.float_info.max / (self.cost.c_p2p + self.cost.c_llm):
            raise ConfigInvalid("c_p2p + c_llm per token overflows the run's total cost")


def default_config(**overrides) -> SimulationConfig:
    """The stock 20-client, 4-cluster, 30-round configuration."""
    cfg = SimulationConfig(topology=ClusterTopology(num_clients=20, num_clusters=4))
    return replace(cfg, **overrides) if overrides else cfg


class TokenOutcome(NamedTuple):
    """Where resolve_token sent one token; run_round copies it into its round's columns."""

    stage: Stage
    final_token: int
    charged_cost: float
    correct: bool
    rejection_prob: float | None = None
    p2p_attempted: bool = False


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


@dataclass(frozen=True)
class ClientMetrics:
    token_entropy: float
    cache_hit_ratio: float
    llm_token_count: int
    accuracy: float


@dataclass
class RoundOutcomes:
    """One round's tokens as (clients, T) columns, row i for client i. stage indexes STAGES; cost is 0
    for a local token; beta, the cloud's rejection probability, is NaN for a token the cloud did not see."""

    stage: np.ndarray
    final_token: np.ndarray
    cost: np.ndarray
    uncertainty: np.ndarray
    beta: np.ndarray
    correct: np.ndarray
    p2p_attempted: np.ndarray


@dataclass
class RoundReport:
    """One round: its outcome columns, and the counts, totals and means read from them (rejection_rate
    over the cloud's tokens), the thresholds after local learning, after the broadcast and per cluster."""

    round_index: int
    outcomes: RoundOutcomes
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
        return {stage: sum(rnd.outcome_counts[stage] for rnd in self.rounds) for stage in Stage}

    def total_tokens(self) -> int:
        return sum(self.outcome_totals().values())

    def total_cost(self) -> float:
        return math.fsum(rnd.total_cost for rnd in self.rounds)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one named lane of the run's randomness."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


def client_token_entropy(history: Sequence[int], vocab: VocabSpec) -> float:
    """Empirical entropy of accepted tokens, normalized into [0, 1] by ln(V)."""
    if len(history) == 0:
        raise EmptyHistory("client accepted no tokens")
    counts = np.bincount(np.asarray(history, dtype=np.int64), minlength=vocab.size)
    p = counts[counts > 0] / len(history)
    entropy = float(-(p * np.log(p)).sum())
    return min(max(entropy / math.log(vocab.size), 0.0), 1.0)


class _Workload(NamedTuple):
    """One client-round, a row or an entry per timestep; target is the trace's reference or the LLM's argmax."""

    slm: np.ndarray
    llm: np.ndarray
    predicted: np.ndarray
    target: np.ndarray
    uncertainty: np.ndarray


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
        # Class c owns a contiguous run of tokens; row c of zipf holds its
        # Zipf CDF, padded with inf past the run's width.
        regions = np.array_split(np.arange(vocab.size), cfg.partition.num_classes)
        self.class_starts = np.array([region[0] for region in regions])
        self.class_widths = np.array([len(region) for region in regions])
        self.zipf = np.full((len(regions), self.class_widths.max()), np.inf)
        for c, width in enumerate(self.class_widths):
            self.zipf[c, :width] = _zipf_cumulative(width, cfg.zipf_exponent)

        self.trace: LogitTrace | None = None
        if cfg.trace_path is not None:
            try:
                self.trace = load_logit_trace(cfg.trace_path, vocab)
            except (OSError, ValueError) as exc:
                raise ConfigInvalid(f"trace file {cfg.trace_path}: {exc}") from None
            if not len(self.trace.reference):
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


def _zipf_cumulative(width: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, width + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    return np.cumsum(weights)


def _draw_modes(state: SimulationState, client: ClientState, rng: np.random.Generator) -> np.ndarray:
    count = state.cfg.tokens_per_client
    classes = rng.choice(state.cfg.partition.num_classes, size=count, p=client.mixture)
    picks = rng.random(count)
    # A right-sided search of each class's CDF: the count of entries at or below the pick.
    ranks = np.count_nonzero(state.zipf[classes] <= picks[:, None], axis=1)
    return state.class_starts[classes] + np.minimum(ranks, state.class_widths[classes] - 1)


def _generate_workload(state: SimulationState, client: ClientState, round_index: int) -> _Workload:
    cfg = state.cfg
    rng = substream(cfg.seed, _TAG_GEN, client.client_id, round_index)
    count = cfg.tokens_per_client
    if state.trace is not None:
        trace = state.trace
        base = (client.client_id * cfg.rounds + round_index) * count
        steps = (base + np.arange(count)) % len(trace.reference)
        slm, llm, target = trace.slm[steps], trace.llm[steps], trace.reference[steps]
    else:
        modes = _draw_modes(state, client, rng)
        # A weaker small model sometimes lands on the wrong token entirely,
        # scattering its confident predictions across the vocabulary.
        miss_rate = min(0.5, cfg.confusion_scale / client.profile.slm_sharpness)
        if miss_rate > 0.0:
            flips = rng.random(count) < miss_rate
            scattered = rng.integers(cfg.profile.vocab.size, size=count)
            modes = np.where(flips, scattered, modes)
        slm, llm = gen_distribution_rows(client.profile, modes, rng)
        target = llm.argmax(axis=1)
    uncertainty = score_rows(slm, cfg.uncertainty_kind, cfg.sampler, rng)
    return _Workload(slm, llm, slm.argmax(axis=1), target, uncertainty)


def lateral_decisions(
    predicted: np.ndarray, emb: np.ndarray, clusters: list[list[int]], cfg: PeerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Consensus-accept and edge-accept flags for every (client, t) of a round.

    Clients publish the embedding of their predicted token at every
    timestep, local or not. A client's peer centroid is its cluster's sum
    less its own row (no peers escalate); the edge tier compares the own row
    with every other cluster's mean, skipping empty clusters and means of
    norm at most 1e-12. A float cosine decides only when it clears its
    threshold by more than a bound on the rounding of this path and of the
    exact per-token one; the bound grows as the peer sum cancels. Near ties
    and centroids near the cutoff are re-decided by peer_consensus (fsum
    centroid) or edge_validate, so the flags equal their decisions.
    """
    eps, dim = np.finfo(np.float64).eps, emb.shape[1]
    tol = (3 * dim + 8) * eps  # rounding of one cosine, on either path
    thr, edge_thr = cfg.similarity_threshold, cfg.effective_edge_threshold()
    empty = np.zeros((predicted.shape[1], dim))
    means = np.stack([emb[predicted[m]].mean(axis=0) if m else empty for m in clusters])  # (clusters, T, d)
    mnorm = np.linalg.norm(means, axis=-1).T  # (T, clusters)
    valid, near_cut = mnorm > _NORM_EPS, np.abs(mnorm - _NORM_EPS) <= _NORM_EPS * tol
    consensus, edge, redo_consensus, redo_edge = np.zeros((4, *predicted.shape), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, members in enumerate(clusters):
            k, rows = len(members), emb[predicted[members]]  # (k, T, d)
            own = np.linalg.norm(rows, axis=-1)
            if k > 1:
                peer_sum = rows.sum(axis=0) - rows
                norm = np.linalg.norm(peer_sum, axis=-1)
                cos = np.einsum("ktd,ktd->kt", rows, peer_sum) / (own * norm)
                # err bounds the float peer sum's error and its norm's rounding: slack < exact norm.
                err = (k + dim) * eps * own.sum(axis=0)
                slack = norm - 2 * err
                sure = (slack > 2 * _NORM_EPS * (k - 1)) & (np.abs(cos - thr) > 2 * err / slack + tol)
                consensus[members], redo_consensus[members] = sure & (cos >= thr), ~sure
            cos = (rows.swapaxes(0, 1) @ means.transpose(1, 2, 0)).swapaxes(0, 1) / (own[..., None] * mnorm)
            others = np.arange(len(clusters)) != c
            live = valid & others
            edge[members] = (live & (cos >= edge_thr)).any(axis=-1)
            tie = (live & (np.abs(cos - edge_thr) <= tol)).any(axis=-1)
            redo_edge[members] = tie | (near_cut & others).any(axis=-1)
    cluster_of = {m: c for c, members in enumerate(clusters) for m in members}
    for i, t in zip(*np.nonzero(redo_consensus)):
        peers = [m for m in clusters[cluster_of[i]] if m != i]
        decision = peer_consensus(Embedding(emb[predicted[i, t]]), emb[predicted[peers, t]], cfg)
        consensus[i, t] = decision is ConsensusDecision.ACCEPT_LOCAL
    for i, t in zip(*np.nonzero(redo_edge)):
        centers = [
            Embedding(means[o, t])
            for o in range(len(clusters))
            if o != cluster_of[i] and float(np.linalg.norm(means[o, t])) > _NORM_EPS
        ]
        edge[i, t] = edge_validate(Embedding(emb[predicted[i, t]]), centers, cfg) is EdgeDecision.ACCEPT
    return consensus, edge


def resolve_token(
    client: ClientState,
    slm: np.ndarray,
    llm: np.ndarray,
    predicted: int,
    target: int,
    consensus: bool,
    edge: bool,
    cfg: SimulationConfig,
    rng: np.random.Generator,
    uncertainty: float,
) -> TokenOutcome:
    """Route one token through the gate / cache / consensus / edge / cloud pipeline.

    The gate escalates on a coin flip with probability cfg.p_offload in
    `rand` mode and when uncertainty exceeds the client's threshold
    otherwise (run_round applies that comparison to a client-round first).
    slm and llm are the step's two probability rows, and predicted is the
    SLM's argmax. Only `fedhlm` mode tries the lateral tiers, reading its
    round's lateral_decisions flags: consensus counts only after the cache
    misses and edge only after consensus escalates; the baselines take
    every escalated token straight to the cloud and ignore both. The
    outcome counts as correct when its final token is target: the reference
    token when replaying a trace, else the LLM's argmax.
    """
    if cfg.mode == MODE_RAND:
        escalate = rng.random() < cfg.p_offload
    else:
        escalate = uncertainty > client.threshold
    if not escalate:
        return TokenOutcome(Stage.LOCAL, predicted, 0.0, predicted == target)

    cost = cfg.cost
    lateral = cfg.mode == MODE_FEDHLM
    emb_row = embedding_matrix(cfg.profile.vocab, cfg.peer)
    attempted = lateral and should_attempt_p2p(client.estimator.estimate(), cost)
    if attempted:
        own = Embedding(emb_row[predicted])
        hit = client.cache.lookup(own, cfg.peer)
        if hit.token is not None:
            client.estimator.record(True)
            return TokenOutcome(Stage.P2P, hit.token, cost.c_p2p, hit.token == target, p2p_attempted=True)
        if consensus:
            client.estimator.record(True)
            client.cache.insert(own, predicted)
            return TokenOutcome(Stage.P2P, predicted, cost.c_p2p, predicted == target, p2p_attempted=True)
        client.estimator.record(False)
        if edge:
            client.cache.insert(own, predicted)
            return TokenOutcome(Stage.EDGE, predicted, cost.c_p2p, predicted == target, p2p_attempted=True)

    result = llm_adjudicate(_unchecked_distribution(slm), _unchecked_distribution(llm), predicted, rng)
    final = result.final_token
    if lateral:
        client.cache.insert(Embedding(emb_row[final]), final)
    charged = cost.c_p2p + cost.c_llm if attempted else cost.c_llm
    return TokenOutcome(Stage.LLM, final, charged, final == target, result.rejection_prob, attempted)


def run_round(state: SimulationState, round_index: int) -> RoundReport:
    """Advance the world by one round and report what happened."""
    cfg = state.cfg
    clients = state.clients
    slm, llm, *columns = zip(*(_generate_workload(state, c, round_index) for c in clients))
    predicted, target, uncertainty = map(np.stack, columns)
    # The baselines never look at peers, so their flags stay False.
    if cfg.mode == MODE_FEDHLM:
        consensus, edge = lateral_decisions(predicted, state.embeddings, state.cluster_members, cfg.peer)
    else:
        consensus = edge = np.zeros(predicted.shape, bool)

    # Every token starts as a local one; a routed token overwrites its cells.
    out = RoundOutcomes(
        np.full(predicted.shape, _LOCAL, np.int8), predicted.copy(), np.zeros(predicted.shape), uncertainty,
        np.full(predicted.shape, np.nan), predicted == target, np.zeros(predicted.shape, bool),
    )
    rows = [m.tolist() for m in (predicted, target, consensus, edge, uncertainty)]
    for client in clients:
        cid = client.client_id
        # rand's gate coin shares the cloud's stream, so rand routes every token.
        if cfg.mode == MODE_RAND:
            routed = range(cfg.tokens_per_client)
        elif not (routed := np.flatnonzero(uncertainty[cid] > client.threshold).tolist()):
            continue
        rng = substream(cfg.seed, _TAG_RESOLVE, cid, round_index)
        pred, tgt, cons, edge_ok, score = (row[cid] for row in rows)
        for t in routed:
            o = resolve_token(
                client, slm[cid][t], llm[cid][t], pred[t], tgt[t], cons[t], edge_ok[t], cfg, rng, score[t]
            )
            out.stage[cid, t], out.final_token[cid, t], out.cost[cid, t] = _CODE[o.stage], o.final_token, o.charged_cost
            out.correct[cid, t], out.p2p_attempted[cid, t] = o.correct, o.p2p_attempted
            out.beta[cid, t] = np.nan if o.rejection_prob is None else o.rejection_prob

    to_cloud = out.stage == _LLM
    thresholds_local: dict[int, float] = {}
    if cfg.mode == MODE_FEDHLM:
        eta = lr_schedule(cfg.learner.eta0, round_index)
        for client in clients:
            cid, mine = client.client_id, to_cloud[client.client_id]
            grad = loss_gradient(uncertainty[cid, mine], out.beta[cid, mine], client.threshold, cfg.learner)
            thresholds_local[cid] = sgd_step(client.threshold, grad, eta)

        # A client's weight is the number of tokens it transmitted.
        transmitted = np.count_nonzero(out.stage != _LOCAL, axis=1).tolist()
        cluster_values: list[float] = []
        for cluster_id, members in enumerate(state.cluster_members):
            values = [thresholds_local[m] for m in members]
            try:
                cluster_values.append(cluster_aggregate(values, [transmitted[m] for m in members]))
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

    # fsum is exact, so these totals do not depend on the order of the cells.
    llm_count = int(np.count_nonzero(to_cloud))
    return RoundReport(
        round_index=round_index,
        outcomes=out,
        outcome_counts=dict(zip(STAGES, np.bincount(out.stage.ravel(), minlength=len(STAGES)).tolist())),
        thresholds_local=thresholds_local,
        thresholds_after={c.client_id: c.threshold for c in clients},
        cluster_thresholds=tuple(state.cluster_thresholds),
        global_threshold=global_threshold,
        total_cost=math.fsum(out.cost.ravel().tolist()),
        avg_uncertainty=math.fsum(uncertainty.ravel().tolist()) / uncertainty.size,
        rejection_rate=math.fsum(out.beta[to_cloud].tolist()) / llm_count if llm_count else 0.0,
        llm_after_p2p=int(np.count_nonzero(out.p2p_attempted & to_cloud)),
    )


def run(cfg: SimulationConfig) -> SimulationReport:
    """Run cfg.rounds rounds of the policy cfg.mode selects."""
    state = SimulationState(cfg)
    rounds = [run_round(state, r) for r in range(cfg.rounds)]
    # The run's columns as (clients, rounds x T), and per-client counts of them.
    stage, final, correct, attempted = (
        np.hstack([getattr(rnd.outcomes, k) for rnd in rounds])
        for k in ("stage", "final_token", "correct", "p2p_attempted")
    )
    counts = zip(*(np.count_nonzero(m, axis=1).tolist() for m in (stage == _P2P, stage == _LLM, attempted, correct)))
    metrics = {
        client_id: ClientMetrics(
            token_entropy=client_token_entropy(final[client_id], cfg.profile.vocab),
            cache_hit_ratio=p2p / attempts if attempts else 0.0,
            llm_token_count=to_cloud,
            accuracy=right / stage.shape[1],
        )
        for client_id, (p2p, to_cloud, attempts, right) in enumerate(counts)
    }
    return SimulationReport(cfg, rounds, metrics)
