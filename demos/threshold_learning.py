"""Watch the federated threshold climb and settle.

Runs the stock simulation and prints the global transmission threshold
round by round, together with the decaying learning rate and the share
of tokens escalated past the devices. Thresholds rise while cloud
feedback says escalations were wasted, then flatten as the learning
rate decays and the remaining escalations start earning their cost.
"""

from fedhlm import Stage, default_config, lr_schedule, run


def main() -> None:
    cfg = default_config()
    report = run(cfg)

    print(f"{'round':>5} {'lr':>8} {'global threshold':>17} {'escalated':>10}")
    for rnd in report.rounds:
        total = sum(rnd.outcome_counts.values())
        escalated = total - rnd.outcome_counts[Stage.LOCAL]
        lr = lr_schedule(cfg.learner.eta0, rnd.round_index)
        print(
            f"{rnd.round_index:>5} {lr:>8.4f} {rnd.global_threshold:>17.4f} "
            f"{escalated / total:>9.1%}"
        )

    first, last = report.rounds[0], report.rounds[-1]
    print()
    print(f"threshold moved {first.global_threshold:.4f} -> {last.global_threshold:.4f}")
    late = [abs(b.global_threshold - a.global_threshold)
            for a, b in zip(report.rounds[-5:], report.rounds[-4:])]
    print(f"largest change over the final five rounds: {max(late):.5f}")


if __name__ == "__main__":
    main()
