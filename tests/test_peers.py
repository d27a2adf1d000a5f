"""Token embeddings, peer consensus, edge validation, and the LRU cache."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.model_source import VocabSpec
from fedhlm.peers import (
    ConsensusDecision,
    EdgeDecision,
    PeerConfig,
    ProbeState,
    TokenCache,
    centroid,
    cosine_similarity,
    edge_validate,
    embedding_matrix,
    pair_similarity,
    peer_consensus,
    row_norms,
)


def vec(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def rows(*peers: np.ndarray) -> np.ndarray:
    """Vectors stacked as the (count, dim) rows centroid, peer_consensus and edge_validate take."""
    return np.stack(peers) if peers else np.empty((0, 2))


def test_embedding_rejects_zero_vector():
    # cosine_similarity rejects a vector of norm at most 1e-12, which has no direction
    with pytest.raises(ValueError):
        cosine_similarity(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        cosine_similarity(vec(1.0, 0.0), vec(1e-13, 0.0))


def test_token_embedding_determinism_and_norm():
    vocab = VocabSpec(32)
    a = embedding_matrix(vocab, PeerConfig())
    b = embedding_matrix(VocabSpec(32), PeerConfig())
    assert np.array_equal(a, b) and not a.flags.writeable  # callers share one read-only table
    assert np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= 1e-9)


def test_distinct_tokens_are_nearly_orthogonal():
    # concentration check: at dim 64 no pair of the 32 token vectors should
    # come anywhere near the 0.85 consensus threshold
    vocab = VocabSpec(32)
    vectors = embedding_matrix(vocab, PeerConfig())
    gram = vectors @ vectors.T
    off_diag = gram[~np.eye(32, dtype=bool)]
    assert float(np.abs(off_diag).max()) < 0.5


def test_centroid_examples():
    v = vec(0.6, 0.8)
    both = centroid(rows(v, vec(0.6, 0.8)))
    assert np.allclose(both, [0.6, 0.8])
    mid = centroid(rows(vec(1.0, 0.0), vec(0.0, 1.0)))
    assert np.allclose(mid, [0.5, 0.5])


def test_centroid_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    peers = rng.normal(size=(7, 8))
    base = centroid(peers)
    order = list(range(7))
    for _ in range(10):
        rng.shuffle(order)
        assert np.array_equal(centroid(peers[order]), base)


def _generator_fsum_centroid(peers: np.ndarray) -> np.ndarray:
    # oracle: one exactly rounded sum per coordinate over numpy scalars
    count, dim = peers.shape
    return np.array([math.fsum(row[i] for row in peers) / count for i in range(dim)])


def test_centroid_is_the_fsum_mean_and_consensus_its_cosine():
    rng = np.random.default_rng(8)
    for count in (1, 2, 5, 49, 130):
        for dim in (1, 3, 64):
            peers = rng.normal(size=(count, dim))
            center = centroid(peers)
            assert np.array_equal(center, _generator_fsum_centroid(peers))
            own = rng.normal(size=dim)
            cfg = PeerConfig(similarity_threshold=0.3)
            accepts = cosine_similarity(own, center) >= cfg.similarity_threshold
            assert (peer_consensus(own, peers, cfg) is ConsensusDecision.ACCEPT_LOCAL) == accepts


def test_peer_consensus_on_rows_escalates_without_peers_and_checks_dimension():
    cfg = PeerConfig()
    own = vec(1.0, 0.0)
    assert peer_consensus(own, np.empty((0, 2)), cfg) is ConsensusDecision.ESCALATE
    assert peer_consensus(own, np.array([[0.0, 1.0], [0.0, -1.0]]), cfg) is ConsensusDecision.ESCALATE
    with pytest.raises(ValueError):
        peer_consensus(own, np.ones((2, 3)), cfg)


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
    assert peer_consensus(own, rows(own), cfg) is ConsensusDecision.ACCEPT_LOCAL
    exactly_at = vec(0.85, math.sqrt(1.0 - 0.85 * 0.85))
    assert cosine_similarity(own, exactly_at) == 0.85
    assert peer_consensus(own, rows(exactly_at), cfg) is ConsensusDecision.ACCEPT_LOCAL
    below = vec(0.85 - 1e-9, math.sqrt(1.0 - (0.85 - 1e-9) ** 2))
    assert peer_consensus(own, rows(below), cfg) is ConsensusDecision.ESCALATE


def test_peer_consensus_empty_and_degenerate_escalate():
    cfg = PeerConfig()
    own = vec(1.0, 0.0)
    assert peer_consensus(own, rows(), cfg) is ConsensusDecision.ESCALATE
    cancelling = rows(vec(0.0, 1.0), vec(0.0, -1.0))
    assert peer_consensus(own, cancelling, cfg) is ConsensusDecision.ESCALATE
    with pytest.raises(ValueError):
        peer_consensus(own, rows(np.ones(3)), cfg)


def test_peer_consensus_permutation_invariant():
    rng = np.random.default_rng(5)
    cfg = PeerConfig(similarity_threshold=0.2)
    own = rng.normal(size=6)
    peers = rng.normal(size=(5, 6))
    base = peer_consensus(own, peers, cfg)
    for _ in range(10):
        rng.shuffle(peers)
        assert peer_consensus(own, peers, cfg) is base


def test_edge_validate_cases():
    cfg = PeerConfig(similarity_threshold=0.85)
    own = vec(1.0, 0.0)
    assert edge_validate(own, rows(own), cfg) is EdgeDecision.ACCEPT
    assert edge_validate(own, rows(vec(0.0, 1.0)), cfg) is EdgeDecision.FORWARD
    assert edge_validate(own, rows(vec(0.0, 1.0), own), cfg) is EdgeDecision.ACCEPT
    assert edge_validate(own, rows(), cfg) is EdgeDecision.FORWARD


def test_edge_validate_skips_a_centroid_without_direction_in_any_order():
    cfg = PeerConfig()
    own, flat = vec(1.0, 0.0), vec(0.0, 0.0)
    assert edge_validate(own, rows(flat, own), cfg) is EdgeDecision.ACCEPT
    assert edge_validate(own, rows(own, flat), cfg) is EdgeDecision.ACCEPT
    assert edge_validate(own, rows(flat, vec(1e-13, 0.0)), cfg) is EdgeDecision.FORWARD


def test_separate_edge_threshold_honored():
    cfg = PeerConfig(similarity_threshold=0.85, edge_threshold=0.2)
    assert cfg.effective_edge_threshold() == 0.2
    own = vec(1.0, 0.0)
    halfway = vec(0.5, math.sqrt(0.75))
    assert edge_validate(own, rows(halfway), cfg) is EdgeDecision.ACCEPT
    assert peer_consensus(own, rows(halfway), cfg) is ConsensusDecision.ESCALATE


def test_peer_config_validation():
    with pytest.raises(ValueError):
        PeerConfig(similarity_threshold=1.5)
    with pytest.raises(ValueError):
        PeerConfig(embedding_dim=0)
    assert PeerConfig().effective_edge_threshold() == PeerConfig().similarity_threshold


@given(st.integers(1, 300), st.integers(1, 130), st.integers(0, 2**32 - 1))
def test_pair_similarity_of_a_row_does_not_depend_on_the_other_rows(count, dim, seed):
    # The exact probe bound and the round's edge flags rest on this: a row's
    # similarity and norm inside any batch equal, bit for bit, its values
    # alone, and a strided or Fortran-ordered input gives its C-ordered copy's.
    rng = np.random.default_rng(seed)
    wide, long = rng.standard_normal((2 * count, 2 * dim)), rng.standard_normal(2 * dim)
    rows, row = np.ascontiguousarray(wide[::2, ::2]), np.ascontiguousarray(long[::2])
    together, norms = pair_similarity(rows, row), row_norms(rows)
    alone = np.concatenate([pair_similarity(rows[[i]], row) for i in range(count)])
    assert together.tobytes() == alone.tobytes()
    assert norms.tobytes() == np.concatenate([row_norms(rows[[i]]) for i in range(count)]).tobytes()
    for layout in (wide[::2, ::2], np.asfortranarray(rows)):
        assert pair_similarity(layout, long[::2]).tobytes() == together.tobytes()
        assert row_norms(layout).tobytes() == norms.tobytes()


# Rows of a 2-d unit table: token 0 points along x, tokens 1 and 2 lie at
# cosines 0.90 and 0.95 from it, token 3 along y, token 4 along -x, and
# token 5 repeats token 2's row.
PLANE = np.array([
    [1.0, 0.0], [0.90, math.sqrt(1 - 0.90**2)], [0.95, math.sqrt(1 - 0.95**2)], [0.0, 1.0], [-1.0, 0.0],
    [0.95, math.sqrt(1 - 0.95**2)],
])


def test_cache_insert_then_lookup_hits():
    cfg = PeerConfig()
    cache = TokenCache(PLANE, capacity=4)
    cache.insert(0)
    result = cache.lookup(0, cfg)
    assert result.token == 0


def test_empty_cache_misses():
    result = TokenCache(PLANE, capacity=2).lookup(0, PeerConfig())
    assert result.token is None


def test_lookup_prefers_highest_similarity_entry():
    # The cache is semantic, not a dict: token 0 is not cached, yet tokens 1
    # and 2 both clear 0.85 against it, and the closer one answers.
    cfg = PeerConfig(similarity_threshold=0.85)
    cache = TokenCache(PLANE, capacity=4)
    cache.insert(1)
    cache.insert(2)
    cache.insert(3)
    result = cache.lookup(0, cfg)
    assert result.token == 2
    assert TokenCache(PLANE, capacity=4).lookup(0, cfg).token is None
    cache.insert(1)  # refreshing token 1 leaves the slot order alone
    assert cache.lookup(0, cfg).token == 2
    assert cache.lookup(0, PeerConfig(similarity_threshold=0.96)).token is None


def test_lookup_tie_goes_to_the_first_slot():
    # Tokens 2 and 5 share a row; slot order, not recency, breaks the tie.
    cfg = PeerConfig()
    cache = TokenCache(PLANE, capacity=4)
    cache.insert(5)
    cache.insert(2)
    assert cache.lookup(0, cfg).token == 5
    assert cache.lookup(0, cfg).token == 5  # the hit made 5 the most recent; its slot is still first
    assert cache.entries() == [2, 5]


def test_lru_eviction_order():
    cache = TokenCache(PLANE, capacity=2)
    cache.insert(0)
    cache.insert(3)
    cache.insert(4)
    assert cache.entries() == [3, 4]
    assert len(cache) == 2


def test_reinserting_token_refreshes_recency_without_growth():
    cache = TokenCache(PLANE, capacity=2)
    cache.insert(0)
    cache.insert(3)
    cache.insert(0)  # refresh, not a new entry
    assert len(cache) == 2
    cache.insert(4)  # evicts token 3, the stale one
    assert cache.entries() == [0, 4]


def test_lookup_hit_refreshes_recency():
    cfg = PeerConfig()
    cache = TokenCache(PLANE, capacity=2)
    cache.insert(0)
    cache.insert(3)
    assert cache.lookup(0, cfg).token == 0  # bump token 0 to most recent
    cache.insert(4)
    assert cache.entries() == [0, 4]


class ReferenceLRU:
    """Brute-force model over a unit table: cached token ids by slot, and by recency, most recent last.

    A lookup takes the pair similarity of the query's row with every slot's
    row, in slot order, and answers with the first best slot at or above the
    threshold. A new token fills the next slot, or the least recent one's.
    """

    def __init__(self, units: np.ndarray, capacity: int, threshold: float):
        self.units = units
        self.capacity = capacity
        self.threshold = threshold
        self.slots: list[int] = []
        self.items: list[int] = []

    def lookup(self, token: int):
        if not self.slots:
            return None
        sims = pair_similarity(self.units[self.slots], self.units[token])
        best = int(np.argmax(sims))
        if sims[best] < self.threshold:
            return None
        held = self.slots[best]
        self.items.remove(held)
        self.items.append(held)
        return held

    def insert(self, token: int) -> None:
        if token in self.items:
            self.items.remove(token)
        elif len(self.items) >= self.capacity:
            self.slots[self.slots.index(self.items.pop(0))] = token
        else:
            self.slots.append(token)
        self.items.append(token)


def test_cache_agrees_with_reference_model_under_random_ops():
    # At dim 64 only a cached query token hits; at dim 3 many distinct
    # tokens clear the threshold against each other.
    rng = np.random.default_rng(2024)
    vocab = VocabSpec(40)
    others = {64: 0, 3: 0}  # hits answered by a token other than the query
    for dim, trial in itertools.product((64, 3), range(5)):
        cfg = PeerConfig(embedding_dim=dim)
        units = embedding_matrix(vocab, cfg)
        capacity = int(rng.integers(1, 9))
        cache = TokenCache(units, capacity=capacity)
        model = ReferenceLRU(units, capacity, cfg.similarity_threshold)
        for _ in range(300):
            token = int(rng.integers(40))
            if rng.random() < 0.5:
                got = cache.lookup(token, cfg)
                want = model.lookup(token)
                assert got.token == want
                others[dim] += want is not None and want != token
            else:
                cache.insert(token)
                model.insert(token)
            assert len(cache) <= capacity
        assert cache.entries() == model.items
    assert others[64] == 0 and others[3] > 0


def _probe_thresholds(units: np.ndarray) -> list[float]:
    """1.0, 0.85, and the rows' self-similarities that a PeerConfig accepts: each is a threshold that
    a cached query's own similarity meets exactly."""
    selfs = [pair_similarity(units[[r]], row).item() for r, row in enumerate(units)]
    return [1.0, 0.85, *sorted({s for s in selfs if 0.0 < s <= 1.0})]


@pytest.mark.parametrize("dim", [2, 3, 64])
def test_caches_sharing_a_probe_state_agree_with_reference_models(dim):
    # Three caches of one run share its probe state, inserts and lookups
    # interleaved across them; each must answer as its own brute-force model.
    # At dim 2 the PLANE table adds exact ties (tokens 2 and 5 share a row)
    # and a threshold (0.90) that a product meets exactly.
    rng = np.random.default_rng(dim)
    tables = [embedding_matrix(VocabSpec(40), PeerConfig(embedding_dim=dim))] + ([PLANE] if dim == 2 else [])
    for units in tables:
        for threshold in _probe_thresholds(units) + ([0.90, 0.95] if units is PLANE else []):
            cfg = PeerConfig(similarity_threshold=threshold)
            probes = ProbeState(units)
            capacities = rng.integers(1, min(9, len(units) - 1), size=3).tolist()
            caches = [TokenCache(units, capacity, probes) for capacity in capacities]
            models = [ReferenceLRU(units, capacity, threshold) for capacity in capacities]
            for _ in range(120):
                i, token = int(rng.integers(3)), int(rng.integers(len(units)))
                if rng.random() < 0.5:
                    assert caches[i].lookup(token, cfg).token == models[i].lookup(token)
                else:
                    caches[i].insert(token)
                    models[i].insert(token)
            assert [cache.entries() for cache in caches] == [model.items for model in models]


@pytest.mark.parametrize("token", [8, 12])
def test_a_cached_tokens_own_lookup_does_not_depend_on_the_other_cached_tokens(token):
    # At threshold 1.0 a token's self-similarity decides its own lookup. A
    # BLAS product once rounded it differently beside seven other rows than
    # alone, so these two tokens hit alone and missed in a full cache.
    table, cfg = embedding_matrix(VocabSpec(32), PeerConfig()), PeerConfig(similarity_threshold=1.0)
    answers = []
    for others in ([], [t for t in range(8) if t != token][:7]):
        cache = TokenCache(table, capacity=8)
        for held in [*others, token]:
            cache.insert(held)
        answers.append(cache.lookup(token, cfg).token)
    own = pair_similarity(table[[token]], table[token]).item()
    assert answers == [token if own >= 1.0 else None] * 2


def test_caches_must_share_their_probe_states_table():
    with pytest.raises(ValueError):
        TokenCache(PLANE, 2, ProbeState(PLANE.copy()))


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        TokenCache(PLANE, capacity=0)
