"""Command line front end.

Subcommands:
    run       learned-threshold simulation
    baseline  random-offload or static-threshold comparison run
    sweep     repeat a run across mixture concentrations or relay/LLM cost ratios
    cost      analytic offload-cost and cache-saturation tables

Exit codes: 0 success, 2 configuration problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import engine
from .config import ConfigError, InvalidValue, _float, config_to_text, parse_config
from .costs import cache_hit_curve, expected_cost, should_attempt_p2p
from .engine import MODE_FEDHLM, MODE_RAND, MODE_UHLM, ConfigInvalid, default_config
from .reporting import compute_trr, emit_metrics_csv, emit_trace, summarize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedhlm", description="Uncertainty-gated token routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="key=value configuration file")
        p.add_argument("--out-dir", type=Path, default=None, help="directory for metrics, trace, and resolved config")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")

    p_run = sub.add_parser("run", help="learned-threshold simulation")
    common(p_run)
    p_run.add_argument("--mode", choices=engine.MODES, default=None, help="override run.mode")

    p_base = sub.add_parser("baseline", help="non-learning comparison run")
    common(p_base)
    p_base.add_argument(
        "--mode",
        choices=[MODE_RAND, MODE_UHLM],
        default=None,
        help="baseline policy (defaults to run.mode when it is already a baseline)",
    )

    p_sweep = sub.add_parser("sweep", help="run across a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--alphas", type=str, default=None, help="comma-separated mixture concentrations")
    p_sweep.add_argument(
        "--cost-ratios", type=str, default=None, help="comma-separated relay/LLM cost ratios in (0, 1)"
    )

    p_cost = sub.add_parser("cost", help="analytic cost tables, no simulation")
    common(p_cost)
    p_cost.add_argument("--cache-alpha", type=float, default=0.02, help="cache saturation rate")

    return parser


def _load_config(args: argparse.Namespace) -> engine.SimulationConfig:
    cfg = parse_config(args.config) if args.config is not None else default_config()
    if getattr(args, "seed", None) is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ConfigInvalid as exc:
            raise InvalidValue("--seed", str(exc)) from None
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, mode=args.mode)
    return cfg


def _write_outputs(cfg: engine.SimulationConfig, report, out_dir: Path | None) -> None:
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_metrics_csv(report, out_dir / "metrics.csv")
    emit_trace(report, out_dir / "trace.jsonl")
    (out_dir / "config.resolved.txt").write_text(config_to_text(cfg), encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    """run, and baseline, which refuses the learned mode."""
    cfg = _load_config(args)
    if args.command == "baseline" and cfg.mode == MODE_FEDHLM:
        raise InvalidValue("--mode", "baseline needs rand or uhlm, by flag or in the config")
    report = engine.run(cfg)
    _write_outputs(cfg, report, args.out_dir)
    print(summarize(report))
    return 0


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        values = [_float(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidValue(flag, str(exc)) from None
    if not values:
        raise InvalidValue(flag, "empty grid")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.alphas is not None and args.cost_ratios is not None:
        raise InvalidValue("sweep", "pass either --alphas or --cost-ratios, not both")

    if args.cost_ratios is not None:
        flag, label = "--cost-ratios", "cost_ratio"
        grid = _parse_grid(args.cost_ratios, flag)
        def configure(value: float) -> engine.SimulationConfig:
            return replace(cfg, cost=replace(cfg.cost, c_p2p=value * cfg.cost.c_llm))
    else:
        flag, label = "--alphas", "alpha"
        grid = _parse_grid(args.alphas, flag) if args.alphas is not None else [10.0, 1.0, 0.1]
        def configure(value: float) -> engine.SimulationConfig:
            return replace(cfg, partition=replace(cfg.partition, dirichlet_alpha=value))

    # Every grid point is checked before the first one runs.
    points = []
    for value in grid:
        try:
            points.append((value, configure(value)))
        except ValueError as exc:
            raise InvalidValue(flag, f"{value}: {exc}") from None

    summary = [f"{label},local_frac,p2p_frac,edge_frac,llm_frac,trr,total_cost,final_threshold"]
    for value, point_cfg in points:
        report = engine.run(point_cfg)
        totals = report.outcome_totals()
        total = report.total_tokens()
        final_threshold = report.rounds[-1].global_threshold
        # Stage order is local, p2p, edge, llm, as in the header.
        fractions = [f"{totals[stage] / total:.6f}" for stage in engine.Stage]
        trailer = (compute_trr(report), report.total_cost(), final_threshold)
        summary.append(",".join([f"{value}", *fractions, *(f"{v:.6f}" for v in trailer)]))
        if args.out_dir is not None:
            point_dir = args.out_dir / f"{label}_{value}"
            _write_outputs(point_cfg, report, point_dir)
        print(f"{label}={value}  {summarize(report)}")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "sweep_summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        curve_lines = ["cache_size,hit_ratio"] + [
            f"{size},{cache_hit_curve(size, args.cache_alpha):.6f}" for size in (8, 16, 32, 64, 128, 256, 512)
        ]
    except ValueError as exc:
        raise InvalidValue("--cache-alpha", str(exc)) from None
    cost = cfg.cost
    policy_lines = ["p_hit,expected_escalation_cost,attempt_p2p,policy_cost"]
    for step in range(21):
        p_hit = step * 0.05
        attempt = should_attempt_p2p(p_hit, cost)
        escalation = expected_cost(p_hit, cost)
        policy_cost = escalation if attempt else cost.c_llm
        policy_lines.append(f"{p_hit:.2f},{escalation:.6f},{int(attempt)},{policy_cost:.6f}")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "cost_policy.csv").write_text("\n".join(policy_lines) + "\n", encoding="utf-8")
        (args.out_dir / "cache_curve.csv").write_text("\n".join(curve_lines) + "\n", encoding="utf-8")
        (args.out_dir / "config.resolved.txt").write_text(config_to_text(cfg), encoding="utf-8")
    else:
        print("\n".join(policy_lines))
        print()
        print("\n".join(curve_lines))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "baseline": _cmd_run,
    "sweep": _cmd_sweep,
    "cost": _cmd_cost,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ConfigInvalid) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
