"""Deterministic simulator for uncertainty-gated token routing across
device, peer cluster, edge, and cloud tiers, with federated learning of
per-client transmission thresholds.

The package exports what README.md and the demos use; everything else is
imported from its module, as in `from fedhlm.engine import run_round`.
"""

from .adjudication import llm_adjudicate, rejection_probability
from .costs import CostModel, cache_hit_curve, expected_cost, fit_cache_alpha, should_attempt_p2p
from .engine import SimulationReport, Stage, default_config, run
from .model_source import ModelProfile, TokenDistribution, VocabSpec, gen_distribution_rows
from .peers import PeerConfig, TokenCache, edge_validate, embedding_matrix, peer_consensus
from .reporting import compute_trr, summarize
from .thresholds import lr_schedule
from .uncertainty import KIND_DISAGREEMENT, SamplerConfig, score_rows

__version__ = "0.1.0"
