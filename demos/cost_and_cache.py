"""Offload economics: when lateral attempts pay off, and how cache size
drives the hit rate that decides it.

First prints the expected per-token cost of always attempting a lateral
resolution versus never attempting one, as the hit probability varies.
The crossover sits exactly at the price ratio of the two links. Then
streams a skewed token workload through caches of doubling capacity and
fits the saturating hit-rate curve to the measurements.
"""

import numpy as np

from fedhlm import (
    CostModel,
    PeerConfig,
    TokenCache,
    VocabSpec,
    cache_hit_curve,
    expected_cost,
    fit_cache_alpha,
    should_attempt_p2p,
    token_embedding,
)


def cost_table() -> None:
    model = CostModel(c_p2p=1.0, c_llm=4.0)
    crossover = model.c_p2p / model.c_llm
    print(f"link prices: lateral {model.c_p2p}, cloud {model.c_llm} (crossover at p_hit = {crossover})")
    print(f"{'p_hit':>6} {'attempt':>9} {'skip':>6} {'policy':>8}")
    for k in range(0, 11):
        p = k / 10
        choice = "attempt" if should_attempt_p2p(p, model) else "skip"
        print(f"{p:>6.1f} {expected_cost(p, model):>9.2f} {model.c_llm:>6.2f} {choice:>8}")


def cache_curve() -> None:
    vocab = VocabSpec(512)
    peer = PeerConfig()
    rng = np.random.default_rng(5)
    ranks = np.arange(1, vocab.size + 1, dtype=np.float64)
    weights = ranks ** -0.9
    weights /= weights.sum()
    stream = rng.choice(vocab.size, size=6000, p=weights)
    vectors = {t: token_embedding(int(t), vocab) for t in np.unique(stream)}

    sizes = [4, 8, 16, 32, 64, 128]
    measured = []
    for size in sizes:
        cache = TokenCache(capacity=size)
        hits = 0
        for t in stream:
            if cache.lookup(vectors[t], peer).token is not None:
                hits += 1
            else:
                cache.insert(vectors[t], int(t))
        measured.append(hits / len(stream))

    alpha = fit_cache_alpha(sizes, measured)
    print()
    print(f"fitted saturation rate alpha = {alpha:.4f}")
    print(f"{'capacity':>9} {'measured':>9} {'modelled':>9}")
    for size, hit in zip(sizes, measured):
        print(f"{size:>9} {hit:>9.3f} {cache_hit_curve(size, alpha):>9.3f}")


def main() -> None:
    cost_table()
    cache_curve()


if __name__ == "__main__":
    main()
