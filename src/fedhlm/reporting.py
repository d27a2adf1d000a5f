"""Metrics tables and per-token trace emission.

Output files are deterministic: the same report object always serializes to
byte-identical CSV and JSON-lines content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .engine import RoundReport, SimulationReport, Stage

CSV_COLUMNS = (
    "round",
    "global_threshold",
    "local_count",
    "p2p_count",
    "edge_count",
    "llm_count",
    "transmission_rate",
    "avg_uncertainty",
    "rejection_rate",
    "total_cost",
    "trr",
)


@dataclass(frozen=True)
class MetricsRow:
    round_index: int
    global_threshold: float
    local_count: int
    p2p_count: int
    edge_count: int
    llm_count: int
    transmission_rate: float
    avg_uncertainty: float
    rejection_rate: float
    total_cost: float
    trr: float


def round_trr(report: RoundReport) -> float:
    """Fraction of the round's tokens kept away from the large model."""
    total = sum(report.outcome_counts.values())
    if total == 0:
        return 1.0
    return 1.0 - report.outcome_counts[Stage.LLM] / total


def compute_trr(report: SimulationReport) -> float:
    """Whole-run transmission reduction: 1 - (large-model tokens / all tokens)."""
    total = report.total_tokens()
    if total == 0:
        return 1.0
    return 1.0 - report.outcome_totals()[Stage.LLM] / total


def metrics_row(report: RoundReport) -> MetricsRow:
    counts = report.outcome_counts
    total = sum(counts.values())
    transmitted = total - counts[Stage.LOCAL]
    return MetricsRow(
        round_index=report.round_index,
        global_threshold=report.global_threshold,
        local_count=counts[Stage.LOCAL],
        p2p_count=counts[Stage.P2P],
        edge_count=counts[Stage.EDGE],
        llm_count=counts[Stage.LLM],
        transmission_rate=transmitted / total if total else 0.0,
        avg_uncertainty=report.avg_uncertainty,
        rejection_rate=report.rejection_rate,
        total_cost=report.total_cost,
        trr=round_trr(report),
    )


def metrics_rows(report: SimulationReport) -> list[MetricsRow]:
    return [metrics_row(r) for r in report.rounds]


def _fmt(value: float) -> str:
    # %.6f keeps reruns byte-stable and is plenty for desk-scale metrics
    return f"{value:.6f}"


def emit_metrics_csv(report: SimulationReport, path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in metrics_rows(report):
        lines.append(
            ",".join(
                (
                    str(row.round_index),
                    _fmt(row.global_threshold),
                    str(row.local_count),
                    str(row.p2p_count),
                    str(row.edge_count),
                    str(row.llm_count),
                    _fmt(row.transmission_rate),
                    _fmt(row.avg_uncertainty),
                    _fmt(row.rejection_rate),
                    _fmt(row.total_cost),
                    _fmt(row.trr),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_trace(report: SimulationReport, path: str | Path) -> None:
    """One JSON object per resolved token, ordered by round, client, timestep."""
    lines: list[str] = []
    for round_report in report.rounds:
        for client_id in sorted(round_report.outcomes):
            for timestep, outcome in enumerate(round_report.outcomes[client_id]):
                record = {
                    "round": round_report.round_index,
                    "client": client_id,
                    "timestep": timestep,
                    "stage": outcome.stage.value,
                    "uncertainty": outcome.uncertainty,
                    "beta": outcome.rejection_prob,
                    "cost": outcome.charged_cost,
                    "correct": outcome.correct,
                }
                lines.append(json.dumps(record, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summarize(report: SimulationReport) -> str:
    """Human-readable one-line run summary for terminals and logs."""
    totals = report.outcome_totals()
    total = report.total_tokens()
    if total == 0:
        return "no tokens resolved"
    parts = [
        f"tokens={total}",
        f"local={totals[Stage.LOCAL]} ({totals[Stage.LOCAL] / total:.1%})",
        f"p2p={totals[Stage.P2P]} ({totals[Stage.P2P] / total:.1%})",
        f"edge={totals[Stage.EDGE]} ({totals[Stage.EDGE] / total:.1%})",
        f"llm={totals[Stage.LLM]} ({totals[Stage.LLM] / total:.1%})",
        f"trr={compute_trr(report):.4f}",
        f"cost={report.total_cost():.1f}",
        f"final_threshold={report.rounds[-1].global_threshold:.4f}" if report.rounds else "",
    ]
    return "  ".join(p for p in parts if p)
