"""Embedding-based peer consensus, semantic token cache, and edge validation.

Tokens are compared through fixed pseudo-random unit vectors, one per
vocabulary entry. Distinct tokens then have near-orthogonal embeddings, so a
cosine-similarity threshold close to 1 effectively tests "same token" while
still supporting the soft matching the cache and the consensus rule use.
Vectors are plain float64 arrays: one embedding is a 1-d row, a set of peers
or centroids is (count, dim) rows. Every similarity is one row-wise einsum,
pair_similarity, and every norm another, row_norms, so a pair's value does
not depend on what else shares the call. peer_consensus and edge_validate
decide one token; lateral_decisions takes both tiers' flags for a round's
escalated tokens with the same arithmetic, one of each per token. A
TokenCache holds token ids over the run's one embedding table, and every
cache of a run shares one ProbeState, whose similarity bounds settle most
probes without a product. The engine's walk over a round's escalated
tokens probes the cache first for each one that tries the lateral tiers,
before the peer and edge flags.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model_source import VocabSpec

# Fixed seed for the token embedding table. Embeddings identify tokens and
# must be stable across runs so traces from different runs stay comparable.
EMBEDDING_SEED = 0x7E0C5

_NORM_EPS = 1e-12


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


def pair_similarity(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Each of the (count, dim) rows' dot product with row, taken as one row-wise einsum.

    einsum rounds each row's sum on its own, so a row's value is the same bit
    for bit whichever other rows share the call. A BLAS product does not
    promise that: it may round a row differently inside a batch than alone.
    A strided or Fortran-ordered input may also round differently, so the
    rows are made C-contiguous first.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(rows), np.ascontiguousarray(row))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each of the (count, dim) rows, as pair_similarity takes its sums."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def centroid(rows: np.ndarray) -> np.ndarray:
    """Elementwise mean of (count, dim) peer rows; rows holds at least one peer.

    Each coordinate is an exactly rounded sum, so any reordering of the
    peers yields the identical vector.
    """
    count = len(rows)
    return np.array([math.fsum(column) / count for column in rows.T.tolist()], dtype=np.float64)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Standard cosine similarity of two 1-d vectors, clipped into [-1, 1] against rounding spill.

    The dot comes from pair_similarity and the norms from row_norms. A vector
    of norm at most 1e-12 has no direction and raises ValueError.
    """
    pair = np.stack([a, b]).astype(np.float64, copy=False)
    norm_a, norm_b = row_norms(pair).tolist()
    if min(norm_a, norm_b) <= _NORM_EPS:
        raise ValueError("zero vector rejected")
    sim = pair_similarity(pair[:1], pair[1]).item() / (norm_a * norm_b)
    return min(max(sim, -1.0), 1.0)


class ConsensusDecision(enum.Enum):
    ACCEPT_LOCAL = "accept_local"
    ESCALATE = "escalate"


def peer_consensus(own: np.ndarray, rows: np.ndarray, cfg: PeerConfig) -> ConsensusDecision:
    """Accept the local token when its row aligns with the mean of the peers' (count, dim) rows.

    Similarity at least cfg.similarity_threshold accepts; no peers or a
    degenerate (mutually cancelling) centroid escalates.
    """
    if len(rows) == 0:
        return ConsensusDecision.ESCALATE
    if rows.shape[1] != own.size:
        raise ValueError("peer embeddings must match the client's dimension")
    try:
        similarity = cosine_similarity(own, centroid(rows))
    except ValueError:
        # Peers cancelled out to a zero vector: nothing to agree with.
        return ConsensusDecision.ESCALATE
    if similarity >= cfg.similarity_threshold:
        return ConsensusDecision.ACCEPT_LOCAL
    return ConsensusDecision.ESCALATE


class EdgeDecision(enum.Enum):
    ACCEPT = "accept"
    FORWARD = "forward"


def edge_validate(own: np.ndarray, centers: np.ndarray, cfg: PeerConfig) -> EdgeDecision:
    """Edge-tier check of own against neighboring clusters' (count, dim) centroid rows.

    A centroid of norm at most 1e-12 has no direction and is skipped, in
    whatever order the centroids come.
    """
    threshold = cfg.effective_edge_threshold()
    for center in centers:
        if row_norms([center]).item() > _NORM_EPS and cosine_similarity(own, center) >= threshold:
            return EdgeDecision.ACCEPT
    return EdgeDecision.FORWARD


def lateral_decisions(
    predicted: np.ndarray, emb: np.ndarray, clusters: list[list[int]], cfg: PeerConfig, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Consensus-accept and edge-accept flags of a round's masked (client, t) cells, one of each per
    cell in the mask's C order.

    Clients publish the embedding of their predicted token at every
    timestep, local or not, so the cluster sums and means take every
    client's row. The edge tier compares the own row with every other
    cluster's mean, skipping empty clusters and means of norm at most
    1e-12. Its cosines take cosine_similarity's dots and norms in the same
    order, so each masked edge flag is edge_validate's decision. A client's
    peer centroid is its cluster's sum less its own row (no peers
    escalate). That float cosine decides only when it clears its threshold
    by more than a bound on the rounding of this path and of the exact
    per-token one; the bound grows as the peer sum cancels. Near ties are
    re-decided by peer_consensus (fsum centroid), so each masked consensus
    flag equals its decision.
    """
    eps, dim = np.finfo(np.float64).eps, emb.shape[1]
    tol = (3 * dim + 8) * eps  # rounding of one cosine, on either path
    thr, edge_thr = cfg.similarity_threshold, cfg.effective_edge_threshold()
    rows, steps = np.nonzero(mask)
    if not len(rows):
        return np.zeros(0, bool), np.zeros(0, bool)
    count, sizes = predicted.shape[1], np.array([len(m) for m in clusters])
    norms = row_norms(emb)[predicted]  # (clients, T)
    sums, norm_sums = np.zeros((len(clusters), count, dim)), np.zeros((len(clusters), count))
    cluster_of = np.empty(len(predicted), np.int64)
    for c, members in enumerate(clusters):
        if members:
            sums[c], norm_sums[c] = emb[predicted[members]].sum(axis=0), norms[members].sum(axis=0)
            cluster_of[members] = c
    means = sums / np.maximum(sizes, 1)[:, None, None]  # (clusters, T, d); an empty cluster's is 0
    mnorm = row_norms(means.reshape(-1, dim)).reshape(len(clusters), count)[:, steps].T  # (cells, clusters)
    tokens, own, mine = predicted[rows, steps], norms[rows, steps], cluster_of[rows]
    own_rows, k = emb[tokens], sizes[mine]
    with np.errstate(divide="ignore", invalid="ignore"):
        at = mine * count + steps
        peer_sum = sums.reshape(-1, dim)[at] - own_rows
        norm = row_norms(peer_sum)
        cos = np.einsum("nd,nd->n", own_rows, peer_sum) / (own * norm)
        # err bounds the float peer sum's error and its norm's rounding: slack < exact norm.
        err = (k + dim) * eps * norm_sums.ravel()[at]
        slack = norm - 2 * err
        sure = (slack > 2 * _NORM_EPS * (k - 1)) & (np.abs(cos - thr) > 2 * err / slack + tol)
        consensus, redo = (k > 1) & sure & (cos >= thr), (k > 1) & ~sure
        # Each masked token's dot with every cluster mean, taken per distinct token and gathered per
        # cell. A BLAS product here raised the run's peak memory by its work buffers; einsum does not.
        distinct, at = np.unique(tokens, return_inverse=True)
        cos = np.einsum("ud,ctd->uct", emb[distinct], means)[at, :, steps] / (own[:, None] * mnorm)
    live = (mnorm > _NORM_EPS) & (np.arange(len(clusters)) != mine[:, None])
    edge = (live & (cos >= edge_thr)).any(axis=-1)
    for j in np.flatnonzero(redo).tolist():
        i, t = rows[j], steps[j]
        peers = [m for m in clusters[mine[j]] if m != i]
        decision = peer_consensus(emb[predicted[i, t]], emb[predicted[peers, t]], cfg)
        consensus[j] = decision is ConsensusDecision.ACCEPT_LOCAL
    return consensus, edge


class CacheResult(NamedTuple):
    """A hit's stored token; a miss has token None."""

    token: int | None = None


_MISS = CacheResult()


class ProbeState:
    """One run's similarity bounds for cache probes, shared by every TokenCache of the run.

    held lists each token any cache of the run has held, in first-insert
    order; it only grows. For each probed token the state keeps its
    self-similarity, once it is held, and its rival: the largest similarity
    between it and any other held token. Both are filled lazily, each
    (probed, held) pair compared once as held grows, by pair_similarity, so
    they equal the values a product over any cache's rows gives.
    """

    def __init__(self, units: np.ndarray):
        self.units = units
        self.held: list[int] = []
        self._known: set[int] = set()
        self._bounds: dict[int, list] = {}

    def hold(self, token: int) -> None:
        if token not in self._known:
            self._known.add(token)
            self.held.append(token)

    def bounds(self, token: int) -> list:
        """[self-similarity, rival, held tokens compared so far] of token, compared up to the last held;
        the self-similarity is -inf while token is not held."""
        entry = self._bounds.setdefault(token, [-math.inf, -math.inf, 0])
        if entry[2] < len(self.held):
            new = self.held[entry[2]:]
            sims = dict(zip(new, pair_similarity(self.units.take(new, axis=0), self.units[token]).tolist()))
            entry[0] = sims.pop(token, entry[0])
            entry[1] = max([entry[1], *sims.values()])
            entry[2] = len(self.held)
        return entry


class TokenCache:
    """Bounded semantic cache of token ids with least-recently-used eviction.

    units is the run's embedding table, one unit row per token id
    (embedding_matrix). A lookup compares the query token's row with the rows
    of the cached tokens in slot order, returns the most similar entry at or
    above the similarity threshold (the first slot on a tie) and refreshes
    that entry's recency, so a different token with a close enough row can
    answer. Re-inserting a cached token refreshes rather than duplicates it.

    probes is the run's ProbeState, shared by every cache of the run (a cache
    built without one gets its own). A lookup whose query has no rival at or
    above the threshold needs no product: only the query itself can answer,
    and it does when it is cached with a self-similarity at or above the
    threshold. Every other lookup takes the product over the cached rows.
    """

    def __init__(self, units: np.ndarray, capacity: int, probes: ProbeState | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if probes is None:
            probes = ProbeState(units)
        elif probes.units is not units:
            raise ValueError("probes must bound the cache's own table")
        self.units, self.capacity, self.probes = units, capacity, probes
        # Slot i's token id, and each cached token's slot, least recently used first.
        self._tokens: list[int] = []
        self._slots: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tokens)

    def lookup(self, token: int, cfg: PeerConfig) -> CacheResult:
        if not self._tokens:
            return _MISS
        thr = cfg.similarity_threshold
        own, rival, _ = self.probes.bounds(token)
        if rival < thr:
            if own < thr or token not in self._slots:
                return _MISS
            hit = token
        else:
            sims = pair_similarity(self.units.take(self._tokens, axis=0), self.units[token])
            best = sims.argmax().item()
            if sims[best] < thr:
                return _MISS
            hit = self._tokens[best]
        self._slots.move_to_end(hit)
        return CacheResult(hit)

    def insert(self, token: int) -> None:
        if token in self._slots:
            self._slots.move_to_end(token)
            return
        self.probes.hold(token)
        if len(self._tokens) < self.capacity:
            self._slots[token] = len(self._tokens)
            self._tokens.append(token)
        else:
            _, slot = self._slots.popitem(last=False)
            self._slots[token] = slot
            self._tokens[slot] = token

    def entries(self) -> list[int]:
        """Cached token ids, oldest to most recently used."""
        return list(self._slots)
