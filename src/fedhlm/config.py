"""Flat key=value configuration files with dotted section keys.

Example:

    # twenty clients in four clusters
    topology.num_clients = 20
    learner.gamma = 10.0
    run.mode = fedhlm

Unspecified keys take the module defaults. parse_config and config_to_text
round-trip: serializing a configuration and parsing it back reproduces an
equal configuration object.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .costs import CostModel
from .engine import MODES, SimulationConfig
from .federation import ClusterTopology, PartitionSpec
from .model_source import ModelProfile, VocabSpec
from .peers import PeerConfig
from .thresholds import LearnerConfig
from .uncertainty import SamplerConfig


class ConfigError(ValueError):
    """Base class for configuration failures."""


class MissingFile(ConfigError):
    pass


class InvalidValue(ConfigError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


_INT_KEYS = {
    "topology.num_clients",
    "topology.num_clusters",
    "partition.num_classes",
    "profile.vocab_size",
    "sampler.num_samples",
    "peer.embedding_dim",
    "peer.embedding_seed",
    "peer.cache_capacity",
    "cost.p_hit_window",
    "run.rounds",
    "run.tokens_per_client",
    "run.seed",
    "run.workers",
}

_FLOAT_KEYS = {
    "partition.dirichlet_alpha",
    "profile.agreement",
    "profile.slm_sharpness",
    "profile.llm_sharpness",
    "profile.background",
    "profile.confidence_coupling",
    "sampler.temperature",
    "learner.gamma",
    "learner.lambda",
    "learner.eta0",
    "peer.similarity_threshold",
    "peer.edge_threshold",
    "cost.c_p2p",
    "cost.c_llm",
    "cost.p_hit_prior",
    "run.initial_threshold",
    "run.p_offload",
    "run.static_threshold",
    "run.heterogeneity",
    "run.skew_sharpness_coupling",
    "run.skew_agreement_coupling",
    "run.confusion_scale",
    "run.zipf_exponent",
}

_STR_KEYS = {
    "topology.assignment",
    "run.mode",
    "run.uncertainty_kind",
    "run.trace_path",
}

KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidValue(f"line {line_no}", f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise InvalidValue(key, "unknown configuration key")
        if not value:
            raise InvalidValue(key, "empty value")
        values[key] = value
    return values


def _get_int(values: dict[str, str], key: str, default: int) -> int:
    if key not in values:
        return default
    try:
        return int(values[key])
    except ValueError:
        raise InvalidValue(key, f"expected an integer, got {values[key]!r}") from None


def _get_float(values: dict[str, str], key: str, default: float | None) -> float | None:
    if key not in values:
        return default
    try:
        return float(values[key])
    except ValueError:
        raise InvalidValue(key, f"expected a number, got {values[key]!r}") from None


def _get_str(values: dict[str, str], key: str, default: str | None) -> str | None:
    return values.get(key, default)


def _build(values: dict[str, str]) -> SimulationConfig:
    defaults = SimulationConfig(topology=ClusterTopology(num_clients=20, num_clusters=4))

    num_clients = _get_int(values, "topology.num_clients", defaults.topology.num_clients)
    num_clusters = _get_int(values, "topology.num_clusters", defaults.topology.num_clusters)
    assignment: dict[int, int] = {}
    raw_assignment = _get_str(values, "topology.assignment", None)
    if raw_assignment is not None:
        try:
            clusters = [int(c.strip()) for c in raw_assignment.split(",")]
        except ValueError:
            raise InvalidValue("topology.assignment", "expected comma-separated cluster ids") from None
        if len(clusters) != num_clients:
            raise InvalidValue(
                "topology.assignment",
                f"expected {num_clients} entries, got {len(clusters)}",
            )
        assignment = dict(enumerate(clusters))

    def build_section(section: str, factory, overrides: dict[str, dict] | None = None):
        """Construct one config section, blaming the offending key on failure.

        overrides maps each file key present in `values` to the kwargs that
        apply only that key; a retry with a single key isolates which one
        broke a constraint, so the error can name it.
        """
        try:
            return factory()
        except ValueError as exc:
            if overrides:
                for key, single in overrides.items():
                    try:
                        factory(**single)
                    except ValueError as single_exc:
                        raise InvalidValue(key, str(single_exc)) from None
            raise InvalidValue(section, str(exc)) from None

    def gather(section: str, cls, table: list[tuple[str, str, object, object]]):
        """table rows: (file key, constructor field, caster, default)."""
        full = {field: caster(values, key, default) for key, field, caster, default in table}
        singles = {
            key: {field: full[field]}
            for key, field, _, _ in table
            if key in values
        }

        # A zero-arg call uses every parsed value; a keyword call isolates
        # one key against the section defaults.
        def factory(**kw):
            if not kw:
                return cls(**full)
            base = {field: default for _, field, _, default in table}
            return cls(**(base | kw))

        return build_section(section, factory, singles)

    topology = build_section(
        "topology",
        lambda **kw: ClusterTopology(
            **(
                dict(num_clients=num_clients, num_clusters=num_clusters, assignment=assignment) | kw
                if not kw
                else dict(num_clients=20, num_clusters=4, assignment={}) | kw
            )
        ),
        {
            key: {field: value}
            for key, field, value in (
                ("topology.num_clients", "num_clients", num_clients),
                ("topology.num_clusters", "num_clusters", num_clusters),
            )
            if key in values
        },
    )
    partition = gather(
        "partition",
        PartitionSpec,
        [
            ("partition.dirichlet_alpha", "dirichlet_alpha", _get_float, defaults.partition.dirichlet_alpha),
            ("partition.num_classes", "num_classes", _get_int, defaults.partition.num_classes),
        ],
    )
    profile = gather(
        "profile",
        ModelProfile,
        [
            ("profile.vocab_size", "vocab", lambda v, k, d: VocabSpec(_get_int(v, k, d.size)), defaults.profile.vocab),
            ("profile.agreement", "agreement", _get_float, defaults.profile.agreement),
            ("profile.slm_sharpness", "slm_sharpness", _get_float, defaults.profile.slm_sharpness),
            ("profile.llm_sharpness", "llm_sharpness", _get_float, defaults.profile.llm_sharpness),
            ("profile.background", "background", _get_float, defaults.profile.background),
            ("profile.confidence_coupling", "confidence_coupling", _get_float, defaults.profile.confidence_coupling),
        ],
    )
    sampler = gather(
        "sampler",
        SamplerConfig,
        [
            ("sampler.num_samples", "num_samples", _get_int, defaults.sampler.num_samples),
            ("sampler.temperature", "temperature", _get_float, defaults.sampler.temperature),
        ],
    )
    learner = gather(
        "learner",
        LearnerConfig,
        [
            ("learner.gamma", "gamma", _get_float, defaults.learner.gamma),
            ("learner.lambda", "lam", _get_float, defaults.learner.lam),
            ("learner.eta0", "eta0", _get_float, defaults.learner.eta0),
        ],
    )
    peer = gather(
        "peer",
        PeerConfig,
        [
            ("peer.similarity_threshold", "similarity_threshold", _get_float, defaults.peer.similarity_threshold),
            ("peer.embedding_dim", "embedding_dim", _get_int, defaults.peer.embedding_dim),
            ("peer.embedding_seed", "embedding_seed", _get_int, defaults.peer.embedding_seed),
            ("peer.edge_threshold", "edge_threshold", _get_float, defaults.peer.edge_threshold),
        ],
    )
    cost = gather(
        "cost",
        CostModel,
        [
            ("cost.c_p2p", "c_p2p", _get_float, defaults.cost.c_p2p),
            ("cost.c_llm", "c_llm", _get_float, defaults.cost.c_llm),
            ("cost.p_hit_window", "p_hit_window", _get_int, defaults.cost.p_hit_window),
            ("cost.p_hit_prior", "p_hit_prior", _get_float, defaults.cost.p_hit_prior),
        ],
    )

    mode = _get_str(values, "run.mode", defaults.mode)
    if mode not in MODES:
        raise InvalidValue("run.mode", f"must be one of {', '.join(MODES)}")
    kind = _get_str(values, "run.uncertainty_kind", defaults.uncertainty_kind)

    run_table = [
        ("run.rounds", "rounds", _get_int, defaults.rounds),
        ("run.tokens_per_client", "tokens_per_client", _get_int, defaults.tokens_per_client),
        ("run.initial_threshold", "initial_threshold", _get_float, defaults.initial_threshold),
        ("run.seed", "seed", _get_int, defaults.seed),
        ("run.p_offload", "p_offload", _get_float, defaults.p_offload),
        ("run.static_threshold", "static_threshold", _get_float, defaults.static_threshold),
        ("peer.cache_capacity", "cache_capacity", _get_int, defaults.cache_capacity),
        ("run.heterogeneity", "heterogeneity", _get_float, defaults.heterogeneity),
        ("run.skew_sharpness_coupling", "skew_sharpness_coupling", _get_float, defaults.skew_sharpness_coupling),
        ("run.skew_agreement_coupling", "skew_agreement_coupling", _get_float, defaults.skew_agreement_coupling),
        ("run.confusion_scale", "confusion_scale", _get_float, defaults.confusion_scale),
        ("run.zipf_exponent", "zipf_exponent", _get_float, defaults.zipf_exponent),
        ("run.workers", "workers", _get_int, defaults.workers),
    ]
    run_full = {field: caster(values, key, default) for key, field, caster, default in run_table}
    run_full.update(
        topology=topology,
        partition=partition,
        profile=profile,
        sampler=sampler,
        learner=learner,
        peer=peer,
        cost=cost,
        mode=mode,
        uncertainty_kind=kind,
        trace_path=_get_str(values, "run.trace_path", defaults.trace_path),
    )
    run_singles = {key: {field: run_full[field]} for key, field, _, _ in run_table if key in values}

    def run_factory(**kw):
        if not kw:
            return SimulationConfig(**run_full)
        base = {field: default for _, field, _, default in run_table}
        base["topology"] = defaults.topology
        return SimulationConfig(**(base | kw))

    return build_section("run", run_factory, run_singles)


def parse_config(path: str | Path) -> SimulationConfig:
    """Read a configuration file; missing keys fall back to defaults."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"configuration file not found: {path}")
    return _build(_parse_lines(path.read_text(encoding="utf-8")))


def parse_config_text(text: str) -> SimulationConfig:
    return _build(_parse_lines(text))


def config_to_text(cfg: SimulationConfig) -> str:
    """Serialize every effective setting, defaults included, one key per line."""
    assignment = ",".join(str(cfg.topology.assignment[c]) for c in range(cfg.topology.num_clients))
    pairs: list[tuple[str, object]] = [
        ("topology.num_clients", cfg.topology.num_clients),
        ("topology.num_clusters", cfg.topology.num_clusters),
        ("topology.assignment", assignment),
        ("partition.dirichlet_alpha", cfg.partition.dirichlet_alpha),
        ("partition.num_classes", cfg.partition.num_classes),
        ("profile.vocab_size", cfg.profile.vocab.size),
        ("profile.agreement", cfg.profile.agreement),
        ("profile.slm_sharpness", cfg.profile.slm_sharpness),
        ("profile.llm_sharpness", cfg.profile.llm_sharpness),
        ("profile.background", cfg.profile.background),
        ("profile.confidence_coupling", cfg.profile.confidence_coupling),
        ("sampler.num_samples", cfg.sampler.num_samples),
        ("sampler.temperature", cfg.sampler.temperature),
        ("learner.gamma", cfg.learner.gamma),
        ("learner.lambda", cfg.learner.lam),
        ("learner.eta0", cfg.learner.eta0),
        ("peer.similarity_threshold", cfg.peer.similarity_threshold),
        ("peer.embedding_dim", cfg.peer.embedding_dim),
        ("peer.embedding_seed", cfg.peer.embedding_seed),
        ("peer.cache_capacity", cfg.cache_capacity),
        ("cost.c_p2p", cfg.cost.c_p2p),
        ("cost.c_llm", cfg.cost.c_llm),
        ("cost.p_hit_window", cfg.cost.p_hit_window),
        ("cost.p_hit_prior", cfg.cost.p_hit_prior),
        ("run.rounds", cfg.rounds),
        ("run.tokens_per_client", cfg.tokens_per_client),
        ("run.initial_threshold", cfg.initial_threshold),
        ("run.seed", cfg.seed),
        ("run.mode", cfg.mode),
        ("run.p_offload", cfg.p_offload),
        ("run.static_threshold", cfg.static_threshold),
        ("run.uncertainty_kind", cfg.uncertainty_kind),
        ("run.heterogeneity", cfg.heterogeneity),
        ("run.skew_sharpness_coupling", cfg.skew_sharpness_coupling),
        ("run.skew_agreement_coupling", cfg.skew_agreement_coupling),
        ("run.confusion_scale", cfg.confusion_scale),
        ("run.zipf_exponent", cfg.zipf_exponent),
        ("run.workers", cfg.workers),
    ]
    if cfg.peer.edge_threshold is not None:
        pairs.append(("peer.edge_threshold", cfg.peer.edge_threshold))
    if cfg.trace_path is not None:
        pairs.append(("run.trace_path", cfg.trace_path))
    return "\n".join(f"{key} = {value}" for key, value in pairs) + "\n"
