"""Client clustering, non-IID workload partitioning, and threshold aggregation.

Thresholds flow upward in two stages each round: clusters average their
members' thresholds weighted by transmitted-token counts, then the global
value is the plain mean over clusters and is broadcast back to every client.
Both averages use exactly-rounded summation so reordering the inputs can
never change the result, not even in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class AllWeightsZero(ValueError):
    """Every client in the cluster carries zero aggregation weight."""


@dataclass(frozen=True)
class ClusterTopology:
    """Static assignment of clients to clusters."""

    num_clients: int
    num_clusters: int
    assignment: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_clients < 1 or self.num_clusters < 1:
            raise ValueError("need at least one client and one cluster")
        if not self.assignment:
            object.__setattr__(
                self, "assignment", _contiguous_assignment(self.num_clients, self.num_clusters)
            )
        if set(self.assignment) != set(range(self.num_clients)):
            raise ValueError(f"assignment must cover exactly the client ids 0..{self.num_clients - 1}")
        if self.num_clusters > self.num_clients:
            raise ValueError("cannot have more clusters than clients")
        seen = set(self.assignment.values())
        if not seen <= set(range(self.num_clusters)):
            raise ValueError("cluster ids must lie in 0..num_clusters-1")
        if len(seen) != self.num_clusters:
            raise ValueError("every cluster must be non-empty")

    def members(self, cluster_id: int) -> list[int]:
        return sorted(c for c, g in self.assignment.items() if g == cluster_id)


def _contiguous_assignment(num_clients: int, num_clusters: int) -> dict[int, int]:
    """Contiguous blocks of near-equal size; earlier clusters absorb the remainder."""
    blocks = np.array_split(np.arange(num_clients), num_clusters)
    return {client: cluster for cluster, block in enumerate(blocks) for client in block.tolist()}


@dataclass(frozen=True)
class PartitionSpec:
    """Dirichlet non-IID partition: lower alpha concentrates each client's
    class mixture on fewer classes."""

    dirichlet_alpha: float = 10.0
    num_classes: int = 4

    def __post_init__(self) -> None:
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        # A mixture draw sums num_classes gamma variates of mean
        # dirichlet_alpha; keep that sum clear of overflow.
        if not math.isfinite(2.0 * self.dirichlet_alpha * self.num_classes):
            raise ValueError("dirichlet_alpha * num_classes overflows the mixture draw")


def dirichlet_partition(
    spec: PartitionSpec, topology: ClusterTopology, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """Per-client class mixtures drawn from a symmetric Dirichlet(alpha).

    Each mixture is a probability vector over spec.num_classes. Clients are
    drawn in id order, so an identical seed reproduces the partition exactly.
    """
    alpha = np.full(spec.num_classes, spec.dirichlet_alpha)
    return {client: rng.dirichlet(alpha) for client in range(topology.num_clients)}


def normalized_entropy(p: np.ndarray) -> float:
    """Shannon entropy of a 1-d distribution over its nonzero entries, divided by ln(p.size) (p.size >= 2)
    and clamped into [0, 1]."""
    nz = p[p > 0.0]
    return min(max(float(-(nz * np.log(nz)).sum()) / math.log(p.size), 0.0), 1.0)


def mixture_skew(mixture: np.ndarray) -> float:
    """How far a class mixture is from uniform: 1 - H(m)/ln(num_classes), in [0, 1]."""
    m = np.asarray(mixture, dtype=np.float64)
    return 0.0 if m.size <= 1 else 1.0 - normalized_entropy(m)


def cluster_aggregate(thresholds: list[float], weights: list[int]) -> float:
    """Weighted mean of member thresholds, weights = transmitted-token counts.

    Uses math.fsum so the result is the correctly rounded weighted mean and
    therefore invariant under any permutation of the members. Raises
    AllWeightsZero when no member transmitted anything this round.
    """
    if len(thresholds) != len(weights) or not thresholds:
        raise ValueError("thresholds and weights must be equal-length, non-empty lists")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = math.fsum(weights)
    if total == 0.0:
        raise AllWeightsZero("no transmitted tokens in cluster")
    return math.fsum(t * w for t, w in zip(thresholds, weights)) / total


def global_aggregate(cluster_thresholds: list[float]) -> float:
    """Unweighted mean across clusters, exactly rounded for permutation invariance."""
    if not cluster_thresholds:
        raise ValueError("need at least one cluster threshold")
    return math.fsum(cluster_thresholds) / len(cluster_thresholds)
