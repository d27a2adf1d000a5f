"""Deterministic simulator for uncertainty-gated token routing across
device, peer cluster, edge, and cloud tiers, with federated learning of
per-client transmission thresholds."""

from .adjudication import AdjudicationResult, Verdict, llm_adjudicate
from .config import ConfigError, InvalidValue, MissingFile, config_to_text, parse_config, parse_config_text
from .costs import (
    CostModel,
    PHitEstimator,
    cache_hit_curve,
    expected_cost,
    fit_cache_alpha,
    should_attempt_p2p,
)
from .engine import (
    ConfigInvalid,
    EmptyHistory,
    RoundOutcomes,
    RoundReport,
    SimulationConfig,
    SimulationReport,
    SimulationState,
    Stage,
    TokenOutcome,
    client_token_entropy,
    default_config,
    resolve_token,
    run,
    run_round,
    substream,
)
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
    LogitTrace,
    MalformedRow,
    ModelProfile,
    TokenDistribution,
    TraceStep,
    VocabMismatch,
    VocabSpec,
    gen_distribution_rows,
    load_logit_trace,
    save_logit_trace,
)
from .peers import (
    EMBEDDING_SEED,
    CacheResult,
    ConsensusDecision,
    Embedding,
    NoPeers,
    PeerConfig,
    TokenCache,
    centroid,
    cosine_similarity,
    edge_validate,
    peer_consensus,
    token_embedding,
)
from .reporting import (
    MetricsRow,
    compute_trr,
    emit_metrics_csv,
    emit_trace,
    metrics_rows,
    summarize,
)
from .thresholds import (
    LearnerConfig,
    RejectionFeedback,
    Threshold,
    lr_schedule,
    local_loss,
    loss_gradient,
    rejection_probability,
    sgd_step,
)
from .uncertainty import KIND_DISAGREEMENT, KIND_ENTROPY, SamplerConfig, score_rows

__version__ = "0.1.0"
