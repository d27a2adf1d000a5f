"""Topology, non-IID partitioning, and two-level threshold aggregation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedhlm.federation import (
    AllWeightsZero,
    ClusterTopology,
    PartitionSpec,
    cluster_aggregate,
    dirichlet_partition,
    global_aggregate,
    hierarchical_aggregate,
    mixture_skew,
    normalized_entropy,
)


def test_contiguous_default_assignment():
    topo = ClusterTopology(num_clients=6, num_clusters=3)
    assert topo.assignment == (0, 0, 1, 1, 2, 2)
    assert topo.members(1) == [2, 3]


def test_uneven_split_keeps_every_cluster_nonempty():
    topo = ClusterTopology(num_clients=7, num_clusters=3)
    sizes = [len(topo.members(c)) for c in range(3)]
    assert sum(sizes) == 7
    assert min(sizes) >= 1


def test_topology_validation():
    with pytest.raises(ValueError):
        ClusterTopology(num_clients=0, num_clusters=1)
    with pytest.raises(ValueError):
        ClusterTopology(num_clients=4, num_clusters=5)
    with pytest.raises(ValueError, match="0..num_clusters-1"):
        ClusterTopology(num_clients=2, num_clusters=2, assignment=(0, 3))
    with pytest.raises(ValueError, match="non-empty"):
        # cluster 1 left empty
        ClusterTopology(num_clients=2, num_clusters=2, assignment=(0, 0))
    with pytest.raises(ValueError, match="one per client"):
        # a dict would otherwise be read as its keys
        ClusterTopology(num_clients=2, num_clusters=2, assignment={0: 1, 1: 0})
    with pytest.raises(ValueError, match="one per client"):
        ClusterTopology(num_clients=3, num_clusters=2, assignment=(0, 1))


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(dirichlet_alpha=0.0)
    with pytest.raises(ValueError):
        PartitionSpec(num_classes=0)


def test_dirichlet_partition_shapes_and_determinism():
    spec = PartitionSpec(dirichlet_alpha=0.5, num_classes=8)
    topo = ClusterTopology(num_clients=5, num_clusters=1)
    first = dirichlet_partition(spec, topo, np.random.default_rng(21))
    second = dirichlet_partition(spec, topo, np.random.default_rng(21))
    assert first.shape == (5, 8)
    for client, mixture in enumerate(first):
        assert abs(float(mixture.sum()) - 1.0) <= 1e-9
        assert np.array_equal(mixture, second[client])


@pytest.mark.parametrize("alpha", [0.01, 0.09, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("classes", [1, 2, 7])
def test_dirichlet_partition_is_one_draw_per_client(alpha, classes):
    # row for row, and the generator left in the same state, as drawing each
    # client's mixture on its own (alpha below 0.1 takes numpy's other
    # Dirichlet algorithm)
    spec, topo = PartitionSpec(dirichlet_alpha=alpha, num_classes=classes), ClusterTopology(9, 3)
    ours, ref = np.random.default_rng([classes, 5]), np.random.default_rng([classes, 5])
    mixtures = dirichlet_partition(spec, topo, ours)
    want = [ref.dirichlet(np.full(classes, alpha)) for _ in range(topo.num_clients)]
    assert mixtures.shape == (9, classes)
    assert [row.tobytes() for row in mixtures] == [row.tobytes() for row in want]
    assert ours.bit_generator.state == ref.bit_generator.state


def test_single_client_partition():
    spec = PartitionSpec()
    topo = ClusterTopology(num_clients=1, num_clusters=1)
    mixtures = dirichlet_partition(spec, topo, np.random.default_rng(0))
    assert abs(float(mixtures[0].sum()) - 1.0) <= 1e-9


def test_mixture_skew_limits():
    assert mixture_skew(np.full(4, 0.25)) == pytest.approx(0.0)
    assert mixture_skew(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        skew = mixture_skew(rng.dirichlet(np.full(6, 0.3)))
        assert 0.0 <= skew <= 1.0


def skew_by_former_formula(m: np.ndarray) -> float:
    """mixture_skew as it was written before normalized_entropy: the clamp after the subtraction."""
    if m.size <= 1:
        return 0.0
    nz = m[m > 0.0]
    entropy = float(-(nz * np.log(nz)).sum())
    return min(max(1.0 - entropy / math.log(m.size), 0.0), 1.0)


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=64).filter(any))
@example([1.0, 0.0, 0.0])  # entropy -0.0
@example([0.2] * 5)  # a uniform mixture whose entropy rounds past ln(5)
@example([1 / 3] * 3)
@example([0.7])
def test_mixture_skew_is_one_minus_normalized_entropy_bit_for_bit(weights):
    m = np.array(weights) / math.fsum(weights)
    skew = mixture_skew(m)
    assert np.float64(skew).tobytes() == np.float64(skew_by_former_formula(m)).tobytes()
    if m.size > 1:
        assert np.float64(1.0 - normalized_entropy(m)).tobytes() == np.float64(skew).tobytes()
        assert 0.0 <= normalized_entropy(m) <= 1.0


def test_cluster_aggregate_examples():
    assert cluster_aggregate([0.4, 0.6], [10, 30]) == pytest.approx(0.55)
    assert cluster_aggregate([0.7], [5]) == 0.7
    with pytest.raises(AllWeightsZero):
        cluster_aggregate([0.4, 0.6], [0, 0])
    with pytest.raises(ValueError):
        cluster_aggregate([0.4], [1, 2])
    with pytest.raises(ValueError):
        cluster_aggregate([], [])
    with pytest.raises(ValueError):
        cluster_aggregate([0.5], [-1])


def test_cluster_aggregate_against_exact_rational_mean():
    # Oracle: integer weights and binary64 thresholds are exactly
    # representable as rationals, so Fraction arithmetic gives the true
    # weighted mean with no rounding at all.
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 12)
        thresholds = [rng.random() for _ in range(n)]
        weights = [rng.randint(0, 50) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        exact = sum(Fraction(t) * w for t, w in zip(thresholds, weights)) / sum(weights)
        assert abs(cluster_aggregate(thresholds, weights) - float(exact)) <= 1e-12


def test_cluster_aggregate_permutation_invariant_exactly():
    rng = random.Random(7)
    thresholds = [rng.random() for _ in range(9)]
    weights = [rng.randint(1, 20) for _ in range(9)]
    base = cluster_aggregate(thresholds, weights)
    order = list(range(9))
    for _ in range(20):
        rng.shuffle(order)
        assert cluster_aggregate([thresholds[i] for i in order], [weights[i] for i in order]) == base


def test_global_aggregate_examples_and_bounds():
    assert global_aggregate([0.5, 0.6]) == pytest.approx(0.55)
    assert global_aggregate([0.53]) == 0.53
    with pytest.raises(ValueError):
        global_aggregate([])
    rng = random.Random(11)
    for _ in range(100):
        values = [rng.random() for _ in range(rng.randint(1, 10))]
        agg = global_aggregate(values)
        assert min(values) - 1e-15 <= agg <= max(values) + 1e-15


def test_global_aggregate_permutation_invariant_exactly():
    rng = random.Random(13)
    values = [rng.random() for _ in range(8)]
    base = global_aggregate(values)
    for _ in range(20):
        rng.shuffle(values)
        assert global_aggregate(values) == base


def test_global_aggregate_matches_exact_rational_mean():
    rng = random.Random(17)
    for _ in range(300):
        values = [rng.random() for _ in range(rng.randint(1, 9))]
        exact = sum(Fraction(v) for v in values) / len(values)
        assert abs(global_aggregate(values) - float(exact)) <= 1e-12


def aggregate_by_former_loop(thresholds, weights, clusters, previous):
    """The engine's aggregation as it was written before hierarchical_aggregate."""
    cluster_values = []
    for cluster_id, members in enumerate(clusters):
        values = [thresholds[m] for m in members]
        try:
            cluster_values.append(cluster_aggregate(values, [weights[m] for m in members]))
        except AllWeightsZero:
            cluster_values.append(previous[cluster_id])
    return cluster_values, global_aggregate(cluster_values)


@st.composite
def aggregation_rounds(draw):
    """A topology's clusters, with per-client thresholds and weights (zeros common) and previous values."""
    clients = draw(st.integers(1, 12))
    clusters = draw(st.integers(1, clients))
    ids = list(range(clusters)) + draw(st.lists(st.integers(0, clusters - 1), min_size=clients - clusters,
                                                 max_size=clients - clusters))
    topo = ClusterTopology(clients, clusters, tuple(draw(st.permutations(ids))))
    unit = st.floats(0.0, 1.0)
    thresholds = dict(enumerate(draw(st.lists(unit, min_size=clients, max_size=clients))))
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(0, 30)), min_size=clients, max_size=clients))
    previous = draw(st.lists(unit, min_size=clusters, max_size=clusters))
    return thresholds, weights, [topo.members(c) for c in range(clusters)], previous


@given(aggregation_rounds())
@example(({0: 0.25, 1: 0.75}, [0, 0], [[0, 1]], [0.5]))  # one silent cluster
@example(({0: 0.1, 1: 0.2, 2: 0.3}, [0, 4, 0], [[0], [1, 2]], [0.9, 0.4]))
def test_hierarchical_aggregate_matches_the_former_loop(case):
    thresholds, weights, clusters, previous = case
    values, value = hierarchical_aggregate(thresholds, weights, clusters, previous)
    want_values, want = aggregate_by_former_loop(thresholds, weights, clusters, previous)
    assert np.array(values).tobytes() == np.array(want_values).tobytes()
    assert np.float64(value).tobytes() == np.float64(want).tobytes()
    # a silent cluster keeps its previous value, and that value enters the global mean
    for members, before, got in zip(clusters, previous, values):
        if not any(weights[m] for m in members):
            assert got == before
