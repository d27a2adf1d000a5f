"""Flat key=value configuration files with dotted section keys.

Example:

    # twenty clients in four clusters
    topology.num_clients = 20
    learner.gamma = 10.0
    run.mode = fedhlm

Unspecified keys take the module defaults. parse_config and config_to_text
round-trip: serializing a configuration and parsing it back reproduces an
equal configuration object.

Every key is declared once, in KEYS, with its section (None for the
top-level SimulationConfig), field, caster and formatter; parsing,
validation and serialization all walk that one table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from .engine import InvalidValue, SimulationConfig, default_config
from .model_source import VocabSpec


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _assignment(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated cluster ids") from None


# file key -> (section, field, caster, formatter), in serialization order.
KEYS: dict[str, tuple[str | None, str, Callable[[str], object], Callable[[object], str]]] = {
    "topology.num_clients": ("topology", "num_clients", _int, str),
    "topology.num_clusters": ("topology", "num_clusters", _int, str),
    "topology.assignment": ("topology", "assignment", _assignment, lambda a: ",".join(map(str, a))),
    "partition.dirichlet_alpha": ("partition", "dirichlet_alpha", _float, str),
    "partition.num_classes": ("partition", "num_classes", _int, str),
    "profile.vocab_size": ("profile", "vocab", lambda t: VocabSpec(_int(t)), lambda v: str(v.size)),
    "profile.agreement": ("profile", "agreement", _float, str),
    "profile.slm_sharpness": ("profile", "slm_sharpness", _float, str),
    "profile.llm_sharpness": ("profile", "llm_sharpness", _float, str),
    "profile.background": ("profile", "background", _float, str),
    "profile.confidence_coupling": ("profile", "confidence_coupling", _float, str),
    "sampler.num_samples": ("sampler", "num_samples", _int, str),
    "sampler.temperature": ("sampler", "temperature", _float, str),
    "learner.gamma": ("learner", "gamma", _float, str),
    "learner.lambda": ("learner", "lam", _float, str),
    "learner.eta0": ("learner", "eta0", _float, str),
    "peer.similarity_threshold": ("peer", "similarity_threshold", _float, str),
    "peer.embedding_dim": ("peer", "embedding_dim", _int, str),
    "peer.embedding_seed": ("peer", "embedding_seed", _int, str),
    "peer.cache_capacity": (None, "cache_capacity", _int, str),
    "cost.c_p2p": ("cost", "c_p2p", _float, str),
    "cost.c_llm": ("cost", "c_llm", _float, str),
    "cost.p_hit_window": ("cost", "p_hit_window", _int, str),
    "cost.p_hit_prior": ("cost", "p_hit_prior", _float, str),
    "run.rounds": (None, "rounds", _int, str),
    "run.tokens_per_client": (None, "tokens_per_client", _int, str),
    "run.initial_threshold": (None, "initial_threshold", _float, str),
    "run.seed": (None, "seed", _int, str),
    "run.mode": (None, "mode", str, str),
    "run.p_offload": (None, "p_offload", _float, str),
    "run.uncertainty_kind": (None, "uncertainty_kind", str, str),
    "run.heterogeneity": (None, "heterogeneity", _float, str),
    "run.skew_sharpness_coupling": (None, "skew_sharpness_coupling", _float, str),
    "run.skew_agreement_coupling": (None, "skew_agreement_coupling", _float, str),
    "run.confusion_scale": (None, "confusion_scale", _float, str),
    "run.zipf_exponent": (None, "zipf_exponent", _float, str),
    "peer.edge_threshold": ("peer", "edge_threshold", _float, str),
    "run.trace_path": (None, "trace_path", str, str),
}


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidValue(line, f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise InvalidValue(key, "unknown configuration key")
        if not value:
            raise InvalidValue(key, "empty value")
        values[key] = value
    return values


def _apply(cast: dict[str, object]) -> SimulationConfig:
    """The defaults with the cast values replaced; raises ValueError on a violated constraint.

    A topology without an assignment recomputes the contiguous one, so the
    default assignment follows a changed client or cluster count.
    """
    fields: dict[str | None, dict[str, object]] = {"topology": {"assignment": ()}}
    for key, value in cast.items():
        section, name, _, _ = KEYS[key]
        fields.setdefault(section, {})[name] = value
    cfg = default_config()
    sections = {section: replace(getattr(cfg, section), **kw) for section, kw in fields.items() if section}
    return replace(cfg, **sections, **fields.get(None, {}))


def _build(values: dict[str, str]) -> SimulationConfig:
    cast: dict[str, object] = {}
    for key, text in values.items():
        try:
            cast[key] = KEYS[key][2](text)
        except ValueError as exc:
            raise InvalidValue(key, str(exc)) from None
    try:
        return _apply(cast)
    except (ValueError, OverflowError) as exc:
        message = str(exc)
    # Error path only. Add the keys back one at a time over the defaults,
    # from the last table row up (later rows refine earlier ones, as an
    # assignment refines the client count), and name the first whose
    # addition fails. The last trial is the whole file, so one always does.
    trial: dict[str, object] = {}
    for key in reversed([k for k in KEYS if k in cast]):
        trial[key] = cast[key]
        try:
            _apply(trial)
        except (ValueError, OverflowError):
            raise InvalidValue(key, message) from None
    raise AssertionError("the full key set failed, so one of its trials must")


def parse_config(path: str | Path) -> SimulationConfig:
    """Read a UTF-8 configuration file, with or without a byte-order mark; missing keys fall back to
    defaults."""
    path = Path(path)
    if not path.is_file():
        raise InvalidValue(str(path), "configuration file not found")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidValue(str(path), f"configuration file is not UTF-8: {exc}") from None
    return parse_config_text(text)


def parse_config_text(text: str) -> SimulationConfig:
    return _build(_parse_lines(text))


def config_to_text(cfg: SimulationConfig) -> str:
    """Serialize every effective setting, defaults included, one key per line.

    Keys whose value is None (no edge threshold, no trace) are left out.
    """
    lines = []
    for key, (section, name, _, show) in KEYS.items():
        value = getattr(getattr(cfg, section) if section else cfg, name)
        if value is not None:
            lines.append(f"{key} = {show(value)}")
    return "\n".join(lines) + "\n"
