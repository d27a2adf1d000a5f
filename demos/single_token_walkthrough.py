"""Walk one token through every routing tier by hand.

Draws a small/large distribution pair (one row of the arrays the engine
draws per client-round), scores the small model's uncertainty, consults the transmission gate, and shows what the cache,
peer consensus, edge check, and cloud adjudication each decide. The
simulation engine performs these exact steps; here every intermediate
quantity is printed.
"""

import numpy as np

from fedhlm import (
    KIND_DISAGREEMENT,
    CostModel,
    ModelProfile,
    PeerConfig,
    SamplerConfig,
    TokenCache,
    TokenDistribution,
    VocabSpec,
    edge_validate,
    expected_cost,
    gen_distribution_rows,
    llm_adjudicate,
    peer_consensus,
    rejection_probability,
    score_rows,
    token_embedding,
)


def main() -> None:
    vocab = VocabSpec(32)
    # low sharpness: an ambiguous context where the small model spreads
    # its probability mass and the gate has a real decision to make
    profile = ModelProfile(vocab=vocab, agreement=0.9, slm_sharpness=3.0)
    peer_cfg = PeerConfig()
    sampler = SamplerConfig()
    costs = CostModel()
    rng = np.random.default_rng(99)

    slm_rows, llm_rows = gen_distribution_rows(profile, rng.integers(vocab.size, size=1), rng)
    token = int(slm_rows[0].argmax())
    print(f"small model proposes token {token} with p={slm_rows[0, token]:.3f}")

    score = float(score_rows(slm_rows, KIND_DISAGREEMENT, sampler, rng)[0])
    print(f"disagreement across {sampler.num_samples} softened samples: {score:.2f}")

    threshold = 0.1
    # a score exactly at the threshold stays local
    transmit = score > threshold
    print(f"gate at threshold {threshold}: {'transmit' if transmit else 'resolve locally'}")
    if not transmit:
        print("token stays on the device at zero transport cost")
        return

    own = token_embedding(token, vocab)

    cache = TokenCache(capacity=8)
    hit = cache.lookup(own, peer_cfg)
    print(f"semantic cache: {'hit' if hit.token is not None else 'miss (cache is cold)'}")

    # two agreeable peers and one dissenter
    peers = np.stack([own.values, own.values, token_embedding((token + 1) % vocab.size, vocab).values])
    verdict = peer_consensus(own, peers, peer_cfg)
    print(f"peer consensus over {len(peers)} neighbors: {verdict.name}")

    centroids = [token_embedding((token + 5) % vocab.size, vocab)]
    edge = edge_validate(own, centroids, peer_cfg)
    print(f"edge centroid check: {edge.name}")

    slm, llm = TokenDistribution(slm_rows[0]), TokenDistribution(llm_rows[0])
    beta = rejection_probability(slm, llm, token)
    result = llm_adjudicate(slm, llm, token, rng)
    print(
        f"cloud adjudication: rejection probability {beta:.3f}, "
        f"{result.verdict.name.lower()}, final token {result.final_token}"
    )

    worst_case = costs.c_p2p + costs.c_llm
    print(f"cost if every stage had failed: {worst_case:.1f} units")
    print(f"expected cost at a 60% lateral hit rate: {expected_cost(0.6, costs):.2f} units")


if __name__ == "__main__":
    main()
