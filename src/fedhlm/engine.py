"""Round-based simulation of uncertainty-gated token routing.

Each round every client predicts a fixed number of tokens. A round's
small-model rows are drawn, each client from its own stream, or gathered
from a replayed trace, as a (clients * T, V) stack and scored in one pass;
each token's target, the cloud model's mode, comes with its row. A gate
then decides, in one array comparison per round, which tokens escalate:
scores against the threshold, or in `rand` mode coins from a lane of their
own. The rest stay on device. Only escalated tokens get a cloud row, drawn
after the gate. One function, route_escalated, then walks the round's
escalated tokens once, in the C order of the mask (client by client, each
client's in timestep order), and writes where each one ended into the
round's columns. In the learned `fedhlm` mode an escalated token tries the
client's semantic cache and then peer consensus, falls back to edge
validation, and finally asks the cloud model to adjudicate. Consensus and
edge decisions depend only on the round's predicted tokens, so
peers.lateral_decisions takes them once per round, one of each per
escalated token in that same order. The `uhlm` (static threshold) and
`rand` (coin flip) baselines differ only in the gate and send every
escalated token straight to the cloud. A round's outcomes are kept as (clients, T) columns. Every client
gates a round on the same threshold, which the state holds once: the
initial threshold, which only `fedhlm` mode moves, and there the last
broadcast. There the cloud's
feedback drives one threshold-learning step per client per round, and the
cluster-weighted and global averages of those steps become the next
round's threshold.

All randomness flows from one seed through named per-client, per-round
streams, so reruns are bit-identical. A round seeds each lane's streams
for all its clients with one vectorized pass of SeedSequence's hash.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .adjudication import llm_adjudicate
from .costs import CostModel, PHitEstimator, should_attempt_p2p
from .federation import (
    ClusterTopology,
    PartitionSpec,
    dirichlet_partition,
    hierarchical_aggregate,
    mixture_skew,
    normalized_entropy,
)
from .model_source import (
    MAX_CONCENTRATION,
    LogitTrace,
    ModelProfile,
    VocabSpec,
    _draw_slm,
    _peaked_rows,
    _unchecked_distribution,
    load_logit_trace,
)
from .peers import PeerConfig, ProbeState, TokenCache, embedding_matrix, lateral_decisions
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
_TAG_COIN = 5

# Ceiling on the cells (floats or ints) a run holds at once: a round's SLM
# rows, softened CDFs or entropy logs (in the walk, the escalated tokens'
# SLM rows) and escalated tokens' LLM rows (each at most clients*T x V; the
# escalated count is known only after the gate), the one embedding table
# (V x d), which the lateral tables and the caches both read, the lateral
# tables, a round's MC uniforms (clients*T x samples), the run's outcome
# columns, and the probe state (three numbers per probed token and two per
# held one, each token one of the run's, so at most 5 x min(V, tokens)). A
# cache holds at most min(capacity, V) token ids and slots, fewer than a
# round's rows. 2**24 float64 cells are 128 MiB; the stock run's largest
# term is 57,600 (a round's tables).
MAX_CELLS = 2**24


class ConfigInvalid(ValueError):
    """Simulation configuration violates a cross-field constraint."""


class Stage(enum.Enum):
    LOCAL = "local"
    P2P = "p2p"
    EDGE = "edge"
    LLM = "llm"


# A stage column holds each token's index into STAGES.
STAGES = tuple(Stage)
_LOCAL, _P2P, _EDGE, _LLM = range(len(STAGES))


@dataclass(frozen=True)
class SimulationConfig:
    topology: ClusterTopology
    partition: PartitionSpec = PartitionSpec()
    profile: ModelProfile = field(default_factory=lambda: ModelProfile(vocab=VocabSpec(32)))
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
    uncertainty_kind: str = KIND_DISAGREEMENT
    cache_capacity: int = 256
    heterogeneity: float = 1.2
    skew_sharpness_coupling: float = 1.5
    skew_agreement_coupling: float = 0.3
    confusion_scale: float = 12.0
    zipf_exponent: float = 1.5
    trace_path: str | None = None

    def __post_init__(self) -> None:
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
            3 * clients * self.tokens_per_client * vocab, vocab * dim,
            clients * self.tokens_per_client * max(dim, self.topology.num_clusters),
            clients * self.tokens_per_client * self.sampler.num_samples, tokens, 5 * min(vocab, tokens),
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


class ClientMetrics(NamedTuple):
    token_entropy: float
    cache_hit_ratio: float
    llm_token_count: int
    accuracy: float


class RoundOutcomes(NamedTuple):
    """One round's tokens as (clients, T) columns, row i for client i. stage indexes STAGES; cost is 0
    for a local token; beta, the cloud's rejection probability, is NaN for a token the cloud did not see."""

    stage: np.ndarray
    final_token: np.ndarray
    cost: np.ndarray
    uncertainty: np.ndarray
    beta: np.ndarray
    correct: np.ndarray
    p2p_attempted: np.ndarray


class RoundReport(NamedTuple):
    """One round: its outcome columns, their stage counts and total cost, each client's threshold
    after local learning, and the cluster and global thresholds; the global one gates the next round."""

    round_index: int
    outcomes: RoundOutcomes
    outcome_counts: dict[Stage, int]
    thresholds_local: dict[int, float]
    cluster_thresholds: tuple[float, ...]
    global_threshold: float
    total_cost: float


class SimulationReport(NamedTuple):
    config: SimulationConfig
    rounds: list[RoundReport]
    client_metrics: dict[int, ClientMetrics]

    def outcome_totals(self) -> dict[Stage, int]:
        return {stage: sum(rnd.outcome_counts[stage] for rnd in self.rounds) for stage in Stage}

    def total_tokens(self) -> int:
        return sum(self.outcome_totals().values())

    def total_cost(self) -> float:
        return math.fsum(rnd.total_cost for rnd in self.rounds)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j modulo 2**32, for j = 0..count, as uint32."""
    powers = np.full(count + 1, mult, np.uint32)
    powers[0] = init
    return np.multiply.accumulate(powers, out=powers)


def _xorshift(values: np.ndarray) -> np.ndarray:
    values ^= values >> 16
    return values


def _hashmix(values: np.ndarray, consts: np.ndarray, j: int, width: int) -> np.ndarray:
    """SeedSequence's hashmix of values[..., m] with its (j + m)-th hash constant, for m < width."""
    return _xorshift((values ^ consts[j : j + width]) * consts[j + 1 : j + width + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R))


@functools.lru_cache(maxsize=16)
def _seed_pool(words: tuple[int, int, int, int]) -> np.ndarray:
    """SeedSequence's pool after it mixes the seed's first four words, the start of every path's entropy."""
    consts = _powers(_INIT_A, _MULT_A, 16)
    pool = _hashmix(np.array(words, np.uint32), consts, 0, 4)
    for src in range(4):
        # Each pool word mixes into the other three, each with its own constant.
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], consts, 4 + 3 * src, 3))
    pool.setflags(write=False)
    return pool


class _PathSeed(ISeedSequence):
    """The four uint64 words SeedSequence(entropy=seed, spawn_key=path).generate_state(4, np.uint64)
    gives, which is all PCG64 asks of its seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for generate_state(4, np.uint64)


def substreams(seed: int, paths: np.ndarray) -> list[np.random.Generator]:
    """Independent generators, one per named lane of the run's randomness: the default_rng of
    SeedSequence(entropy=seed, spawn_key=path) for each row of paths, (n, k) ints in [0, 2**32), k >= 1.

    SeedSequence hashes the seed's little-endian uint32 words, padded with
    zeros to four, then the path's words; that hash runs here once over all
    the paths in uint32 arithmetic. The first four words fill the pool, and
    any further words (a seed of 2**128 or more) mix in before the path's.
    """
    paths = np.asarray(paths)
    words = np.frombuffer(seed.to_bytes(4 * max(4, -(-seed.bit_length() // 32)), "little"), "<u4")
    columns = [*words[4:, None], *paths.astype(np.uint32).T]
    consts = _powers(_INIT_A, _MULT_A, 16 + 4 * len(columns))
    pool = _seed_pool(tuple(words[:4].tolist()))
    for j, word in enumerate(columns):
        pool = _mix(pool, _hashmix(word[:, None], consts, 16 + 4 * j, 4))
    # generate_state(4, np.uint64) mixes the pool, cycled to 8 words, as hashmix does, with its own constants.
    consts = _powers(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.tile(pool, 2), consts, 0, 8)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_PathSeed(w))) for w in words]


def client_token_entropy(history: Sequence[int], vocab: VocabSpec) -> float:
    """Empirical entropy of a non-empty history of accepted tokens, normalized into [0, 1] by ln(V)."""
    return normalized_entropy(np.bincount(np.asarray(history, dtype=np.int64), minlength=vocab.size) / len(history))


class _Workload(NamedTuple):
    """One round, row i for client i; target is the trace's reference or the LLM's mode."""

    slm: np.ndarray
    predicted: np.ndarray
    target: np.ndarray
    uncertainty: np.ndarray


class SimulationState:
    """Mutable world state threaded through run_round. Each per-client fact is one column, entry i for
    client i: its small model's sharpness, agreement and miss rate, and in `fedhlm` mode its cache and
    hit-rate estimator."""

    def __init__(self, cfg: SimulationConfig):
        self.cfg = cfg
        vocab, n, profile = cfg.profile.vocab, cfg.topology.num_clients, cfg.profile
        partition_rng, profile_rng = substreams(cfg.seed, [[_TAG_PARTITION], [_TAG_PROFILES]])
        mixtures = dirichlet_partition(cfg.partition, cfg.topology, partition_rng)
        # As Python floats, a multiplier that overflowed to inf carries on
        # without warnings until the sharpness clamp below saturates it.
        with np.errstate(over="ignore"):
            multipliers = np.exp(profile_rng.normal(0.0, cfg.heterogeneity, n))
        self.sharpness, self.agreement = [], []
        for multiplier, mixture in zip(multipliers.tolist(), mixtures):
            skew = mixture_skew(mixture)
            sharpness = profile.slm_sharpness * multiplier * math.exp(-cfg.skew_sharpness_coupling * skew)
            # Overflow (inf, or nan where it meets an underflowed coupling)
            # saturates at the largest concentration a profile allows.
            self.sharpness.append(max(sharpness, 1e-6) if sharpness <= MAX_CONCENTRATION else MAX_CONCENTRATION)
            agreement = profile.agreement * (1.0 - cfg.skew_agreement_coupling * skew)
            self.agreement.append(min(max(agreement, 0.0), 1.0))
        # A weaker small model sometimes lands on the wrong token entirely,
        # scattering its confident predictions across the vocabulary.
        self.miss_rate = np.array([min(0.5, cfg.confusion_scale / s) for s in self.sharpness])

        # Only `fedhlm` mode compares embeddings and estimates hit rates: the
        # lateral tables, and each client's cache and estimator. The caches
        # read the same table and share one probe state over it.
        self.embeddings, self.caches, self.estimators = None, [None] * n, [None] * n
        if cfg.mode == MODE_FEDHLM:
            self.embeddings = table = embedding_matrix(vocab, cfg.peer)
            probes, cost = ProbeState(table), cfg.cost
            self.caches = [TokenCache(table, cfg.cache_capacity, probes) for _ in range(n)]
            self.estimators = [PHitEstimator(window=cost.p_hit_window, prior=cost.p_hit_prior) for _ in range(n)]
        # Class c owns a contiguous run of tokens; row c of zipf holds its
        # Zipf CDF, padded with inf past the run's width.
        regions = np.array_split(np.arange(vocab.size), cfg.partition.num_classes)
        self.class_starts = np.array([region[0] for region in regions])
        # Running sums rescaled to end at exactly 1: the CDF Generator.choice builds from p.
        self.class_cdf = np.cumsum(mixtures, axis=1)
        self.class_cdf /= self.class_cdf[:, -1:].copy()  # dividing by a view would first copy all of it
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

        # Every client gates on this one threshold; only `fedhlm` mode moves it.
        self.threshold = cfg.initial_threshold
        self.cluster_thresholds = [self.threshold] * cfg.topology.num_clusters
        self.cluster_members = [cfg.topology.members(c) for c in range(cfg.topology.num_clusters)]


def _zipf_cumulative(width: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, width + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    return np.cumsum(weights)


def _draw_modes(state: SimulationState, class_uniforms: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Each token's mode from its (clients, T) class uniform and pick: a class, then a rank in it."""
    classes = np.count_nonzero(state.class_cdf[:, None] <= class_uniforms[..., None], axis=-1)
    ranks = np.count_nonzero(state.zipf[classes] <= picks[..., None], axis=-1)
    return state.class_starts[classes] + np.minimum(ranks, state.class_widths[classes] - 1)


def _trace_steps(state: SimulationState, round_index: int) -> np.ndarray:
    """The trace rows a replayed round reads, row i for client i: each client-round's T rows in turn,
    wrapping around."""
    cfg = state.cfg
    steps = (np.arange(cfg.topology.num_clients)[:, None] * cfg.rounds + round_index) * cfg.tokens_per_client
    return (steps + np.arange(cfg.tokens_per_client)) % len(state.trace.reference)


def _draw_round(state: SimulationState, round_index: int, rngs: Sequence[np.random.Generator]) -> _Workload:
    """One round's workload, client i drawing from rngs[i], its _TAG_GEN stream, what its client-round
    alone would draw up to the gate: class, pick and confusion uniforms, scattered modes, then the SLM
    rows, agreement uniforms and disagreeing modes, so that every token has its LLM mode, then scoring
    uniforms. The arithmetic between draws runs once over the (clients * T, V) stack. rngs is empty
    when the round draws nothing."""
    cfg = state.cfg
    n, count, v = cfg.topology.num_clients, cfg.tokens_per_client, cfg.profile.vocab.size
    if state.trace is not None:
        steps = _trace_steps(state, round_index)
        slm, target = state.trace.slm[steps.ravel()], state.trace.reference[steps]
    else:
        miss_rate = state.miss_rate
        uniforms, scattered = np.zeros((3, n, count)), np.zeros((n, count), np.int64)
        for i, rng in enumerate(rngs):
            missed = miss_rate[i] > 0.0
            uniforms[: 2 + missed, i] = rng.random((2 + missed, count))
            if missed:
                scattered[i] = rng.integers(v, size=count)
        modes = np.where(uniforms[2] < miss_rate[:, None], scattered, _draw_modes(state, uniforms[0], uniforms[1]))
        slm, target = _draw_slm(cfg.profile, state.sharpness, state.agreement, modes, rngs)
    uncertainty = score_rows(slm, cfg.uncertainty_kind, cfg.sampler, rngs).reshape(n, count)
    predicted = slm.argmax(axis=1).reshape(n, count)
    return _Workload(slm.reshape(n, count, v), predicted, target, uncertainty)


def _cloud_rows(
    state: SimulationState, round_index: int, work: _Workload, escalated: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The LLM rows of a round's escalated (client, t) cells, in that order: read from the replayed
    trace, or peaked on each target and drawn on the client's stream after its scoring uniforms, one
    standard_gamma call per client-round."""
    if state.trace is not None:
        return state.trace.llm[_trace_steps(state, round_index)[escalated]]
    p, counts = state.cfg.profile, np.count_nonzero(escalated, axis=1)
    return _peaked_rows(p.vocab.size, work.target[escalated], counts, [p.llm_sharpness] * len(rngs), p.background, rngs)


def route_escalated(
    state: SimulationState, work: _Workload, escalated: np.ndarray, llm: np.ndarray,
    consensus: Iterable[bool], edge: Iterable[bool], rngs: dict[int, np.random.Generator],
) -> RoundOutcomes:
    """Walk a round's escalated cells once, in the C order of the mask, and return the round's columns.

    run_round has already applied the gate. Every per-cell input comes in
    that order: llm holds the cloud's rows, consensus and edge the flags of
    lateral_decisions. rngs maps each routed client to its resolve stream.
    Only `fedhlm` mode tries the lateral tiers, when the client's estimator
    makes an attempt pay: its cache, then the consensus flag, then the edge
    flag. The baselines take every escalated cell straight to the cloud and
    ignore both flags. The cloud's final token enters the client's cache in
    `fedhlm` mode. Every cell starts local (free, unadjudicated, its own
    prediction), the walk's cells overwrite the escalated ones, and a token
    is correct when its final token is its target.
    """
    cfg, cost = state.cfg, state.cfg.cost
    lateral = cfg.mode == MODE_FEDHLM
    cids, cells = np.nonzero(escalated)[0].tolist(), []
    for cid, slm, cloud, final, agree, near in zip(
        cids, work.slm[escalated], llm, work.predicted[escalated].tolist(), consensus, edge
    ):
        cache, estimator = state.caches[cid], state.estimators[cid]
        stage, charged, beta = _LLM, cost.c_llm, math.nan
        attempted = lateral and should_attempt_p2p(estimator.estimate(), cost)
        if attempted:
            hit = cache.lookup(final, cfg.peer).token
            if hit is not None:
                estimator.record(True)
                stage, final = _P2P, hit
            elif agree:
                estimator.record(True)
                cache.insert(final)
                stage = _P2P
            else:
                estimator.record(False)
                if near:
                    cache.insert(final)
                    stage = _EDGE
            charged = cost.c_p2p if stage != _LLM else cost.c_p2p + cost.c_llm
        if stage == _LLM:
            result = llm_adjudicate(_unchecked_distribution(slm), _unchecked_distribution(cloud), final, rngs[cid])
            final, beta = result.final_token, result.rejection_prob
            if lateral:
                cache.insert(final)
        cells.append((stage, final, charged, beta, attempted))
    shape = escalated.shape
    stages, finals, costs, betas, attempts = columns = (
        np.full(shape, _LOCAL, np.int8), work.predicted.copy(), np.zeros(shape), np.full(shape, np.nan),
        np.zeros(shape, bool),
    )
    for column, values in zip(columns, zip(*cells)):
        column[escalated] = values
    return RoundOutcomes(stages, finals, costs, work.uncertainty, betas, finals == work.target, attempts)


def _lane(seed: int, tag: int, cids: np.ndarray, round_index: int) -> list[np.random.Generator]:
    """Client cids[i]'s stream of lane tag in this round, for each i."""
    return substreams(seed, np.column_stack((np.full(len(cids), tag), cids, np.full(len(cids), round_index))))


def run_round(state: SimulationState, round_index: int) -> RoundReport:
    """Advance the world by one round and report what happened."""
    cfg = state.cfg
    clients = np.arange(cfg.topology.num_clients)
    # Replaying a trace scored by entropy draws nothing, so such a round builds no generation streams.
    draws = state.trace is None or cfg.uncertainty_kind != KIND_ENTROPY
    rngs = _lane(cfg.seed, _TAG_GEN, clients, round_index) if draws else []
    work = _draw_round(state, round_index, rngs)
    predicted, uncertainty = work.predicted, work.uncertainty
    # Every mode gates by array before any routing; rand's coins have their own lane.
    if cfg.mode == MODE_RAND:
        coins = _lane(cfg.seed, _TAG_COIN, clients, round_index)
        escalated = np.array([rng.random(cfg.tokens_per_client) for rng in coins]) < cfg.p_offload
    else:
        escalated = uncertainty > state.threshold
    llm = _cloud_rows(state, round_index, work, escalated, rngs)
    # The baselines never look at peers, so their flags stay False.
    if cfg.mode == MODE_FEDHLM:
        flags = lateral_decisions(predicted, state.embeddings, state.cluster_members, cfg.peer, escalated)
        consensus, edge = (cells.tolist() for cells in flags)
    else:
        consensus = edge = itertools.repeat(False)
    routing = np.flatnonzero(escalated.any(axis=1))
    resolve = dict(zip(routing.tolist(), _lane(cfg.seed, _TAG_RESOLVE, routing, round_index)))
    out = route_escalated(state, work, escalated, llm, consensus, edge, resolve)

    thresholds_local = dict.fromkeys(clients.tolist(), state.threshold)
    if cfg.mode == MODE_FEDHLM:
        # Each client learns from its own cloud tokens: the C order of the mask gives the client blocks.
        eta, cloud = lr_schedule(cfg.learner.eta0, round_index), out.stage == _LLM
        grads = loss_gradient(uncertainty[cloud], out.beta[cloud], state.threshold, cfg.learner, cloud.sum(axis=1))
        thresholds_local = {cid: sgd_step(state.threshold, grad, eta) for cid, grad in enumerate(grads)}

        # A client's weight is the number of tokens it transmitted.
        transmitted = np.count_nonzero(out.stage != _LOCAL, axis=1).tolist()
        state.cluster_thresholds, state.threshold = hierarchical_aggregate(
            thresholds_local, transmitted, state.cluster_members, state.cluster_thresholds
        )

    # fsum is exact, so the total does not depend on the order of the cells.
    return RoundReport(
        round_index=round_index,
        outcomes=out,
        outcome_counts=dict(zip(STAGES, np.bincount(out.stage.ravel(), minlength=len(STAGES)).tolist())),
        thresholds_local=thresholds_local,
        cluster_thresholds=tuple(state.cluster_thresholds),
        global_threshold=state.threshold,
        total_cost=math.fsum(out.cost.ravel().tolist()),
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
