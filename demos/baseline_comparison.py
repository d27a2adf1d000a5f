"""Compare the full protocol against its two reference policies.

Three runs over identical workloads: the learned gate with lateral
resolution, a static-threshold policy that sends every transmitted
token straight to the cloud, and a coin-flip offloader. Prints stage
shares, total transport cost, and the transmission reduction rate.
"""

from collections.abc import Mapping

from fedhlm import SimulationReport, Stage, compute_trr, default_config, run, summarize


def main(precomputed: Mapping[str, SimulationReport] | None = None) -> None:
    """precomputed maps a mode to a finished run of the stock config in that mode; other modes are run here."""
    precomputed = precomputed or {}
    rows = []
    reports = {}
    for mode in ("fedhlm", "uhlm", "rand"):
        cfg = default_config(mode=mode)
        report = reports[mode] = precomputed[mode] if mode in precomputed else run(cfg)
        assert report.config == cfg, f"the {mode} report is not of the stock {mode} config"
        totals = report.outcome_totals()
        n = report.total_tokens()
        cost = sum(rnd.total_cost for rnd in report.rounds)
        rows.append((mode, totals, n, cost, compute_trr(report)))

    print(f"{'policy':<8} {'local':>8} {'peer':>7} {'edge':>7} {'cloud':>7} {'cost':>9} {'trr':>7}")
    for mode, totals, n, cost, trr in rows:
        print(
            f"{mode:<8} {totals[Stage.LOCAL] / n:>8.2%} {totals[Stage.P2P] / n:>7.2%} "
            f"{totals[Stage.EDGE] / n:>7.2%} {totals[Stage.LLM] / n:>7.2%} "
            f"{cost:>9.0f} {trr:>7.4f}"
        )

    learned, static = rows[0], rows[1]
    saved = 1.0 - learned[3] / static[3]
    print()
    print(f"learned gating spends {saved:.1%} less transport than static-threshold offloading")
    print()
    print(summarize(reports["fedhlm"]))


if __name__ == "__main__":
    main()
