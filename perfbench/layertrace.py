"""Per-layer tracing of fedhlm from outside the package.

Wrappers time the public functions of each module. A function is wrapped at
every name a caller looks it up by: `engine` binds its imports with
``from .x import y``, so each ``fedhlm.*`` module namespace that holds the
function gets the wrapper, not only the defining module. Classes are traced
through their own ``__init__`` or methods, which every caller reaches.

A layer's self time is its call's duration minus the time its traced
children took. Calls are aggregated per (name, parent name), so memory stays
bounded however many calls a run makes; individual spans are kept only for
the coarse layers named in SPAN_LAYERS.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

from fedhlm.adjudication import Verdict
from fedhlm.peers import ConsensusDecision, EdgeDecision


@dataclass(frozen=True)
class Target:
    """One traced layer: `attr` of `module`, or `method` of class `attr`."""

    module: str
    attr: str
    method: str | None = None
    useful: object = None  # predicate on the return value, for ratio metrics

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('fedhlm.')}.{self.attr}" + (
            f".{self.method}" if self.method not in (None, "__init__") else ""
        )


TARGETS = (
    Target("fedhlm.cli", "main"),
    Target("fedhlm.config", "parse_config"),
    Target("fedhlm.config", "config_to_text"),
    Target("fedhlm.engine", "SimulationState", "__init__"),
    Target("fedhlm.engine", "run_round"),
    Target("fedhlm.engine", "resolve_token"),
    Target("fedhlm.federation", "dirichlet_partition"),
    Target("fedhlm.federation", "cluster_aggregate"),
    Target("fedhlm.federation", "global_aggregate"),
    Target("fedhlm.model_source", "gen_distribution_pair"),
    Target("fedhlm.model_source", "TokenDistribution", "__init__"),
    Target("fedhlm.uncertainty", "mc_disagreement"),
    Target("fedhlm.peers", "Embedding", "__init__"),
    Target("fedhlm.peers", "peer_consensus", useful=lambda r: r is ConsensusDecision.ACCEPT_LOCAL),
    Target("fedhlm.peers", "edge_validate", useful=lambda r: r is EdgeDecision.ACCEPT),
    Target("fedhlm.peers", "TokenCache", "lookup", useful=lambda r: r.token is not None),
    Target("fedhlm.peers", "TokenCache", "insert"),
    Target("fedhlm.costs", "should_attempt_p2p", useful=lambda r: r is True),
    Target("fedhlm.adjudication", "llm_adjudicate", useful=lambda r: r.verdict is Verdict.ACCEPTED),
    Target("fedhlm.thresholds", "loss_gradient"),
    Target("fedhlm.reporting", "emit_metrics_csv"),
    Target("fedhlm.reporting", "emit_trace"),
)

# Layers at run_round and above keep one span record per call.
SPAN_LAYERS = frozenset({
    "op", "cli.main", "config.parse_config", "config.config_to_text", "engine.SimulationState",
    "engine.run_round", "reporting.emit_metrics_csv", "reporting.emit_trace",
})


class Tracer:
    """Span stack plus per-(name, parent) aggregates: [calls, total_s, self_s, useful]."""

    def __init__(self):
        self._stack: list[list] = []  # [name, child_s, span_id]
        self.aggregates: dict[tuple[str, str | None], list] = {}
        self.spans: list[dict] = []
        self.op = -1
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, name: str, useful, fn, args, kwargs):
        keep = name in SPAN_LAYERS
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, span_id]
        stack = self._stack
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += duration
            key = (name, parent[0] if parent is not None else None)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]
            if keep:
                parent_id = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                self.spans.append({"op": self.op, "id": span_id, "parent": parent_id, "name": name,
                                   "start": start, "end": end})
        if useful is not None and useful(result):
            agg[3] += 1
        return result

    def run_op(self, op: int, fn):
        """Run one benchmark operation as the root span `op`."""
        self.op = op
        return self.call("op", None, fn, (), {})

    def take(self) -> dict[tuple[str, str | None], list]:
        """Aggregates since the last take, then reset them."""
        taken, self.aggregates = self.aggregates, {}
        return taken

    def _wrap(self, name: str, fn, useful):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, useful, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at each name callers look it up by."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fedhlm" or n.startswith("fedhlm.")]
        for target in TARGETS:
            owner = sys.modules.get(target.module)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(target.name)
                continue
            if target.method is not None:
                method = vars(original).get(target.method)
                if method is None:
                    self.missing.append(target.name)
                    continue
                self._patch(original, target.method, method, self._wrap(target.name, method, target.useful))
                continue
            wrapper = self._wrap(target.name, original, target.useful)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._installed)
        self._installed.clear()
        return restored


def fold(aggregates: list[dict], by_parent: bool = False) -> dict:
    """Sum [calls, total_s, self_s, useful] over aggregates, per name or per (name, parent)."""
    out: dict = {}
    for agg in aggregates:
        for key, values in agg.items():
            acc = out.setdefault(key if by_parent else key[0], [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
    return out
