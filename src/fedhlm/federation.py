"""Client clustering, non-IID workload partitioning, and threshold aggregation.

Thresholds flow upward in two stages each round: clusters average their
members' thresholds weighted by transmitted-token counts, then the global
value is the plain mean over clusters and is broadcast back to every client.
A silent cluster, one whose members transmitted nothing that round, keeps
its previous value, and that value enters the global mean. Both averages
use exactly-rounded summation so reordering the inputs can never change the
result, not even in the last bit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np


class AllWeightsZero(ValueError):
    """Every client in the cluster carries zero aggregation weight."""


@dataclass(frozen=True)
class ClusterTopology:
    """Static assignment of clients to clusters: entry i of assignment is client i's cluster id. The
    default is contiguous blocks of near-equal size, earlier clusters absorbing the remainder."""

    num_clients: int
    num_clusters: int
    assignment: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_clients < 1 or self.num_clusters < 1:
            raise ValueError("need at least one client and one cluster")
        if not self.assignment:
            blocks = np.array_split(np.arange(self.num_clients), self.num_clusters)
            object.__setattr__(self, "assignment", tuple(c for c, block in enumerate(blocks) for _ in block))
        if not isinstance(self.assignment, tuple) or len(self.assignment) != self.num_clients:
            raise ValueError(f"assignment must be a tuple of {self.num_clients} cluster ids, one per client")
        if self.num_clusters > self.num_clients:
            raise ValueError("cannot have more clusters than clients")
        seen = set(self.assignment)
        if not seen <= set(range(self.num_clusters)):
            raise ValueError("cluster ids must lie in 0..num_clusters-1")
        if len(seen) != self.num_clusters:
            raise ValueError("every cluster must be non-empty")

    def members(self, cluster_id: int) -> list[int]:
        return [c for c, g in enumerate(self.assignment) if g == cluster_id]


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


def dirichlet_partition(spec: PartitionSpec, topology: ClusterTopology, rng: np.random.Generator) -> np.ndarray:
    """Per-client class mixtures drawn from a symmetric Dirichlet(alpha), as a (clients, classes) array.

    Row i is client i's probability vector over spec.num_classes. Clients are
    drawn in id order, so an identical seed reproduces the partition exactly.
    """
    return rng.dirichlet(np.full(spec.num_classes, spec.dirichlet_alpha), size=topology.num_clients)


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


def hierarchical_aggregate(
    thresholds: Mapping[int, float], weights: Sequence[int], clusters: Sequence[Sequence[int]],
    previous: Sequence[float],
) -> tuple[list[float], float]:
    """One round's two aggregation levels: (each cluster's value, the global mean of them).

    thresholds and weights hold one entry per client id, clusters each
    cluster's member ids and previous each cluster's value from the round
    before. A silent cluster, whose members all weigh 0, keeps its previous
    value, and that value enters the global mean.
    """
    cluster_values = []
    for members, before in zip(clusters, previous):
        try:
            cluster_values.append(cluster_aggregate([thresholds[m] for m in members], [weights[m] for m in members]))
        except AllWeightsZero:
            cluster_values.append(before)
    return cluster_values, global_aggregate(cluster_values)
