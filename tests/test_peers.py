"""Token embeddings, peer consensus, edge validation, and the LRU cache."""

import math

import numpy as np
import pytest

from fedhlm.model_source import VocabSpec
from fedhlm.peers import (
    CacheLookup,
    ConsensusDecision,
    EdgeDecision,
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


def vec(*values: float) -> Embedding:
    return Embedding(np.array(values, dtype=np.float64))


def test_embedding_rejects_zero_vector():
    with pytest.raises(ValueError):
        Embedding(np.zeros(4))


def test_token_embedding_determinism_and_norm():
    vocab = VocabSpec(32)
    a = token_embedding(5, vocab)
    b = token_embedding(5, vocab)
    assert np.array_equal(a.values, b.values)
    assert abs(a.norm - 1.0) <= 1e-9
    with pytest.raises(ValueError):
        token_embedding(32, vocab)


def test_distinct_tokens_are_nearly_orthogonal():
    # concentration check: at dim 64 no pair of the 32 token vectors should
    # come anywhere near the 0.85 consensus threshold
    vocab = VocabSpec(32)
    vectors = np.stack([token_embedding(t, vocab).values for t in range(32)])
    gram = vectors @ vectors.T
    off_diag = gram[~np.eye(32, dtype=bool)]
    assert float(np.abs(off_diag).max()) < 0.5


def test_centroid_examples():
    v = vec(0.6, 0.8)
    both = centroid([v, vec(0.6, 0.8)])
    assert np.allclose(both.values, [0.6, 0.8])
    mid = centroid([vec(1.0, 0.0), vec(0.0, 1.0)])
    assert np.allclose(mid.values, [0.5, 0.5])
    with pytest.raises(NoPeers):
        centroid([])
    with pytest.raises(ValueError):
        centroid([vec(1.0, 0.0), Embedding(np.ones(3))])


def test_centroid_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    peers = [Embedding(rng.normal(size=8)) for _ in range(7)]
    base = centroid(peers).values
    order = list(range(7))
    for _ in range(10):
        rng.shuffle(order)
        assert np.array_equal(centroid([peers[i] for i in order]).values, base)


def _generator_fsum_centroid(peers: list[Embedding]) -> np.ndarray:
    # oracle: one exactly rounded sum per coordinate over numpy scalars
    count = len(peers)
    return np.array([math.fsum(p.values[i] for p in peers) / count for i in range(peers[0].values.size)])


def test_centroid_rows_and_list_agree_bit_for_bit():
    rng = np.random.default_rng(8)
    for count in (1, 2, 5, 49, 130):
        for dim in (1, 3, 64):
            rows = rng.normal(size=(count, dim))
            peers = [Embedding(row) for row in rows]
            from_rows = centroid(rows).values
            assert np.array_equal(from_rows, centroid(peers).values)
            assert np.array_equal(from_rows, _generator_fsum_centroid(peers))
            own = Embedding(rng.normal(size=dim))
            cfg = PeerConfig(similarity_threshold=0.3)
            assert peer_consensus(own, rows, cfg) is peer_consensus(own, peers, cfg)


def test_peer_consensus_on_rows_escalates_without_peers_and_checks_dimension():
    cfg = PeerConfig()
    own = vec(1.0, 0.0)
    assert peer_consensus(own, np.empty((0, 2)), cfg) is ConsensusDecision.ESCALATE
    assert peer_consensus(own, np.array([[0.0, 1.0], [0.0, -1.0]]), cfg) is ConsensusDecision.ESCALATE
    with pytest.raises(ValueError):
        peer_consensus(own, np.ones((2, 3)), cfg)
    with pytest.raises(NoPeers):
        centroid(np.empty((0, 4)))


def test_cosine_similarity_reference_points():
    a = vec(1.0, 0.0)
    assert cosine_similarity(a, vec(1.0, 0.0)) == 1.0
    assert cosine_similarity(a, vec(0.0, 1.0)) == 0.0
    assert cosine_similarity(a, vec(-1.0, 0.0)) == -1.0
    # scale invariance
    assert cosine_similarity(vec(0.3, 0.4), vec(0.6, 0.8)) == pytest.approx(1.0)


def test_peer_consensus_boundary_accepts():
    cfg = PeerConfig(similarity_threshold=0.85)
    own = vec(1.0, 0.0)
    assert peer_consensus(own, [own], cfg) is ConsensusDecision.ACCEPT_LOCAL
    exactly_at = vec(0.85, math.sqrt(1.0 - 0.85 * 0.85))
    assert cosine_similarity(own, exactly_at) == 0.85
    assert peer_consensus(own, [exactly_at], cfg) is ConsensusDecision.ACCEPT_LOCAL
    below = vec(0.85 - 1e-9, math.sqrt(1.0 - (0.85 - 1e-9) ** 2))
    assert peer_consensus(own, [below], cfg) is ConsensusDecision.ESCALATE


def test_peer_consensus_empty_and_degenerate_escalate():
    cfg = PeerConfig()
    own = vec(1.0, 0.0)
    assert peer_consensus(own, [], cfg) is ConsensusDecision.ESCALATE
    cancelling = [vec(0.0, 1.0), vec(0.0, -1.0)]
    assert peer_consensus(own, cancelling, cfg) is ConsensusDecision.ESCALATE
    with pytest.raises(ValueError):
        peer_consensus(own, [Embedding(np.ones(3))], cfg)


def test_peer_consensus_permutation_invariant():
    rng = np.random.default_rng(5)
    cfg = PeerConfig(similarity_threshold=0.2)
    own = Embedding(rng.normal(size=6))
    peers = [Embedding(rng.normal(size=6)) for _ in range(5)]
    base = peer_consensus(own, peers, cfg)
    for _ in range(10):
        rng.shuffle(peers)
        assert peer_consensus(own, peers, cfg) is base


def test_edge_validate_cases():
    cfg = PeerConfig(similarity_threshold=0.85)
    own = vec(1.0, 0.0)
    assert edge_validate(own, [own], cfg) is EdgeDecision.ACCEPT
    assert edge_validate(own, [vec(0.0, 1.0)], cfg) is EdgeDecision.FORWARD
    assert edge_validate(own, [], cfg) is EdgeDecision.FORWARD


def test_separate_edge_threshold_honored():
    cfg = PeerConfig(similarity_threshold=0.85, edge_threshold=0.2)
    assert cfg.effective_edge_threshold() == 0.2
    own = vec(1.0, 0.0)
    halfway = vec(0.5, math.sqrt(0.75))
    assert edge_validate(own, [halfway], cfg) is EdgeDecision.ACCEPT
    assert peer_consensus(own, [halfway], cfg) is ConsensusDecision.ESCALATE


def test_peer_config_validation():
    with pytest.raises(ValueError):
        PeerConfig(similarity_threshold=1.5)
    with pytest.raises(ValueError):
        PeerConfig(embedding_dim=0)
    assert PeerConfig().effective_edge_threshold() == PeerConfig().similarity_threshold


def test_cache_insert_then_lookup_hits():
    cfg = PeerConfig()
    cache = TokenCache(capacity=4)
    e = vec(1.0, 0.0)
    cache.insert(e, 7)
    result = cache.lookup(e, cfg)
    assert result.outcome is CacheLookup.HIT
    assert result.token == 7
    assert result.similarity >= cfg.similarity_threshold


def test_empty_cache_misses():
    result = TokenCache(capacity=2).lookup(vec(1.0, 0.0), PeerConfig())
    assert result.outcome is CacheLookup.MISS
    assert result.token is None


def test_lookup_prefers_highest_similarity_entry():
    cfg = PeerConfig(similarity_threshold=0.85)
    cache = TokenCache(capacity=4)
    # entries at known angles from the upcoming query vector
    cache.insert(vec(0.90, math.sqrt(1 - 0.90**2)), 1)
    cache.insert(vec(0.95, math.sqrt(1 - 0.95**2)), 2)
    result = cache.lookup(vec(1.0, 0.0), cfg)
    assert result.outcome is CacheLookup.HIT
    assert result.token == 2


def test_lru_eviction_order():
    cache = TokenCache(capacity=2)
    a, b, c = vec(1.0, 0.0), vec(0.0, 1.0), vec(-1.0, 0.0)
    cache.insert(a, 0)
    cache.insert(b, 1)
    cache.insert(c, 2)
    held = {token for token, _ in cache.entries()}
    assert held == {1, 2}
    assert len(cache) == 2


def test_reinserting_token_refreshes_recency_without_growth():
    cache = TokenCache(capacity=2)
    cache.insert(vec(1.0, 0.0), 0)
    cache.insert(vec(0.0, 1.0), 1)
    cache.insert(vec(1.0, 0.0), 0)  # refresh, not a new entry
    assert len(cache) == 2
    cache.insert(vec(-1.0, 0.0), 2)  # evicts token 1, the stale one
    assert {token for token, _ in cache.entries()} == {0, 2}


def test_lookup_hit_refreshes_recency():
    cfg = PeerConfig()
    cache = TokenCache(capacity=2)
    a, b = vec(1.0, 0.0), vec(0.0, 1.0)
    cache.insert(a, 0)
    cache.insert(b, 1)
    assert cache.lookup(a, cfg).token == 0  # bump token 0 to most recent
    cache.insert(vec(-1.0, 0.0), 2)
    assert {token for token, _ in cache.entries()} == {0, 2}


class ReferenceLRU:
    """Brute-force model: list of (token, unit vector), most recent last."""

    def __init__(self, capacity: int, threshold: float):
        self.capacity = capacity
        self.threshold = threshold
        self.items: list[tuple[int, np.ndarray]] = []

    def lookup(self, query: np.ndarray):
        if not self.items:
            return None
        q = query / np.linalg.norm(query)
        sims = [float(v @ q) for _, v in self.items]
        best = max(range(len(sims)), key=lambda i: (sims[i], -i))
        if sims[best] < self.threshold:
            return None
        token, v = self.items.pop(best)
        self.items.append((token, v))
        return token

    def insert(self, token: int, vector: np.ndarray) -> None:
        unit = vector / np.linalg.norm(vector)
        for i, (held, _) in enumerate(self.items):
            if held == token:
                self.items.pop(i)
                self.items.append((token, unit))
                return
        if len(self.items) >= self.capacity:
            self.items.pop(0)
        self.items.append((token, unit))


def test_cache_agrees_with_reference_model_under_random_ops():
    rng = np.random.default_rng(2024)
    vocab = VocabSpec(40)
    cfg = PeerConfig()
    vectors = {t: token_embedding(t, vocab).values for t in range(40)}
    for trial in range(5):
        capacity = int(rng.integers(1, 9))
        cache = TokenCache(capacity=capacity)
        model = ReferenceLRU(capacity, cfg.similarity_threshold)
        for _ in range(300):
            token = int(rng.integers(40))
            if rng.random() < 0.5:
                got = cache.lookup(Embedding(vectors[token]), cfg)
                want = model.lookup(vectors[token])
                assert (got.token if got.outcome is CacheLookup.HIT else None) == want
            else:
                cache.insert(Embedding(vectors[token]), token)
                model.insert(token, vectors[token])
            assert len(cache) <= capacity
        assert [t for t, _ in cache.entries()] == [t for t, _ in model.items]


def test_cache_dimension_mismatch_rejected():
    cache = TokenCache(capacity=2)
    cache.insert(vec(1.0, 0.0), 0)
    with pytest.raises(ValueError):
        cache.insert(Embedding(np.ones(3)), 1)


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        TokenCache(capacity=0)
