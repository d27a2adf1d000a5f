"""Embedding-based peer consensus, semantic token cache, and edge validation.

Tokens are compared through fixed pseudo-random unit vectors, one per
vocabulary entry. Distinct tokens then have near-orthogonal embeddings, so a
cosine-similarity threshold close to 1 effectively tests "same token" while
still supporting the soft matching the cache and the consensus rule use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model_source import VocabSpec

# Fixed seed for the token embedding table. Embeddings identify tokens and
# must be stable across runs so traces from different runs stay comparable.
EMBEDDING_SEED = 0x7E0C5

_NORM_EPS = 1e-12


class NoPeers(ValueError):
    """Centroid requested over an empty peer list."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """A vector with a cached norm; zero vectors are rejected."""

    values: np.ndarray
    norm: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("embedding must be a 1-d vector")
        n = float(np.linalg.norm(v))
        if n <= _NORM_EPS:
            raise ValueError("zero embedding rejected")
        object.__setattr__(self, "norm", n)


@dataclass(frozen=True)
class PeerConfig:
    similarity_threshold: float = 0.85
    embedding_dim: int = 64
    embedding_seed: int = EMBEDDING_SEED
    # Edge validation reuses similarity_threshold unless this is set.
    edge_threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must lie in (0, 1]")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.embedding_seed < 0:
            raise ValueError("embedding_seed must be >= 0")
        if self.edge_threshold is not None and not 0.0 < self.edge_threshold <= 1.0:
            raise ValueError("edge_threshold must lie in (0, 1]")

    def effective_edge_threshold(self) -> float:
        return self.similarity_threshold if self.edge_threshold is None else self.edge_threshold


@lru_cache(maxsize=32)
def _embedding_matrix(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """Unit-norm rows, one per token, from a dedicated seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(vocab_size, dim)))
    mat = rng.standard_normal((vocab_size, dim))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    mat.setflags(write=False)
    return mat


def embedding_matrix(vocab: VocabSpec, cfg: PeerConfig) -> np.ndarray:
    """Read-only (vocab.size x embedding_dim) matrix of token embeddings."""
    return _embedding_matrix(vocab.size, cfg.embedding_dim, cfg.embedding_seed)


def token_embedding(
    token: int, vocab: VocabSpec, dim: int = 64, seed: int = EMBEDDING_SEED
) -> Embedding:
    """Deterministic unit embedding for a token: same inputs, same vector, always."""
    if not 0 <= token < vocab.size:
        raise ValueError(f"token {token} outside vocabulary of size {vocab.size}")
    return Embedding(_embedding_matrix(vocab.size, dim, seed)[token])


def centroid(rows: np.ndarray) -> Embedding:
    """Elementwise mean of (count, dim) peer rows.

    Each coordinate is an exactly rounded sum, so any reordering of the
    peers yields the identical vector. Raises NoPeers when there are none.
    """
    count = len(rows)
    if count == 0:
        raise NoPeers("cannot take the centroid of zero peers")
    mean = np.array([math.fsum(column) / count for column in rows.T.tolist()], dtype=np.float64)
    return Embedding(mean)


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Standard cosine similarity, clipped into [-1, 1] against rounding spill."""
    sim = float(np.dot(a.values, b.values)) / (a.norm * b.norm)
    return min(max(sim, -1.0), 1.0)


class ConsensusDecision(enum.Enum):
    ACCEPT_LOCAL = "accept_local"
    ESCALATE = "escalate"


def peer_consensus(own: Embedding, rows: np.ndarray, cfg: PeerConfig) -> ConsensusDecision:
    """Accept the local token when it aligns with the mean of the peers' (count, dim) rows.

    Similarity at least cfg.similarity_threshold accepts; no peers or a
    degenerate (mutually cancelling) centroid escalates.
    """
    if len(rows) == 0:
        return ConsensusDecision.ESCALATE
    if rows.shape[1] != own.values.size:
        raise ValueError("peer embeddings must match the client's dimension")
    try:
        center = centroid(rows)
    except ValueError:
        # Peers cancelled out to a zero vector: nothing to agree with.
        return ConsensusDecision.ESCALATE
    if cosine_similarity(own, center) >= cfg.similarity_threshold:
        return ConsensusDecision.ACCEPT_LOCAL
    return ConsensusDecision.ESCALATE


class EdgeDecision(enum.Enum):
    ACCEPT = "accept"
    FORWARD = "forward"


def edge_validate(
    own: Embedding, neighbor_centroids: list[Embedding], cfg: PeerConfig
) -> EdgeDecision:
    """Edge-tier check against neighboring clusters' centroid embeddings."""
    threshold = cfg.effective_edge_threshold()
    for center in neighbor_centroids:
        if cosine_similarity(own, center) >= threshold:
            return EdgeDecision.ACCEPT
    return EdgeDecision.FORWARD


@dataclass(frozen=True)
class CacheResult:
    """A hit's stored token and similarity; a miss has token None."""

    token: int | None = None
    similarity: float | None = None


@dataclass
class TokenCache:
    """Bounded semantic cache with least-recently-used eviction.

    Lookups return the stored token of the most similar entry at or above
    the similarity threshold and refresh that entry's recency. Entries are
    keyed by token id, so re-inserting a cached token refreshes rather than
    duplicates it.
    """

    capacity: int = 256
    _vectors: np.ndarray | None = field(default=None, repr=False)
    _tokens: list[int] = field(default_factory=list, repr=False)
    _stamps: list[int] = field(default_factory=list, repr=False)
    _slot_by_token: dict[int, int] = field(default_factory=dict, repr=False)
    _clock: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    def __len__(self) -> int:
        return len(self._tokens)

    def _ensure_storage(self, dim: int) -> None:
        if self._vectors is None:
            self._vectors = np.zeros((self.capacity, dim), dtype=np.float64)
        elif self._vectors.shape[1] != dim:
            raise ValueError("embedding dimension differs from cached entries")

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, query: Embedding, cfg: PeerConfig) -> CacheResult:
        if not self._tokens:
            return CacheResult()
        n = len(self._tokens)
        sims = self._vectors[:n] @ (query.values / query.norm)
        best = int(np.argmax(sims))
        similarity = float(sims[best])
        if similarity < cfg.similarity_threshold:
            return CacheResult()
        self._stamps[best] = self._tick()
        return CacheResult(self._tokens[best], min(similarity, 1.0))

    def insert(self, embedding: Embedding, token: int) -> None:
        self._ensure_storage(embedding.values.size)
        unit = embedding.values / embedding.norm
        slot = self._slot_by_token.get(token)
        if slot is not None:
            self._vectors[slot] = unit
            self._stamps[slot] = self._tick()
            return
        if len(self._tokens) < self.capacity:
            slot = len(self._tokens)
            self._tokens.append(token)
            self._stamps.append(0)
        else:
            slot = min(range(len(self._stamps)), key=self._stamps.__getitem__)
            del self._slot_by_token[self._tokens[slot]]
            self._tokens[slot] = token
        self._vectors[slot] = unit
        self._stamps[slot] = self._tick()
        self._slot_by_token[token] = slot

    def entries(self) -> list[tuple[int, Embedding]]:
        """(token, embedding) pairs ordered oldest to most recently used."""
        order = sorted(range(len(self._tokens)), key=self._stamps.__getitem__)
        return [(self._tokens[i], Embedding(self._vectors[i].copy())) for i in order]
