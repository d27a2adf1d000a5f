"""How client data heterogeneity reshapes routing.

Sweeps the Dirichlet concentration that controls how skewed each
client's token mixture is. Low concentration means clients specialize
in narrow slices of the vocabulary. The simulator couples that skew to a
blunter small model (`run.skew_sharpness_coupling`) and to less agreement
with the cloud model (`run.skew_agreement_coupling`), so the direction in
which local resolution moves is read off the table, not assumed.
"""

from collections.abc import Mapping
from dataclasses import replace

from fedhlm import SimulationReport, Stage, default_config, run


def main(precomputed: Mapping[float, SimulationReport] | None = None) -> None:
    """precomputed maps an alpha to a finished run of the stock config at it; other alphas are run here."""
    precomputed = precomputed or {}
    print(f"{'alpha':>7} {'local':>8} {'peer':>7} {'edge':>7} {'cloud':>7} {'cost':>9}")
    local_share: dict[float, float] = {}
    for alpha in (10.0, 1.0, 0.1):
        cfg = default_config()
        cfg = replace(cfg, partition=replace(cfg.partition, dirichlet_alpha=alpha))
        report = precomputed[alpha] if alpha in precomputed else run(cfg)
        assert report.config == cfg, f"the alpha {alpha} report is not of the stock config at that alpha"
        totals = report.outcome_totals()
        n = report.total_tokens()
        cost = sum(rnd.total_cost for rnd in report.rounds)
        local_share[alpha] = totals[Stage.LOCAL] / n
        print(
            f"{alpha:>7.1f} {totals[Stage.LOCAL] / n:>8.2%} {totals[Stage.P2P] / n:>7.2%} "
            f"{totals[Stage.EDGE] / n:>7.2%} {totals[Stage.LLM] / n:>7.2%} {cost:>9.0f}"
        )
    high, low = max(local_share), min(local_share)
    if local_share[low] > local_share[high]:
        trend = "more"
    elif local_share[low] < local_share[high]:
        trend = "less"
    else:
        trend = "the same"
    print()
    print(
        f"smaller alpha = more specialized clients = {trend} local resolution "
        f"({local_share[high]:.2%} at alpha {high} -> {local_share[low]:.2%} at alpha {low})"
    )


if __name__ == "__main__":
    main()
