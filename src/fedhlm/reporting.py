"""Metrics tables and per-token trace emission.

Output files are deterministic: the same report object always serializes to
byte-identical CSV and JSON-lines content. The trace is written from each
round's outcome columns with one format template per line.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

from .engine import STAGES, RoundReport, SimulationReport, Stage

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


# How each CSV column is written: counts as integers, the rest by _fmt.
_CSV_FORMATS = (str, _fmt, str, str, str, str, _fmt, _fmt, _fmt, _fmt, _fmt)


def emit_metrics_csv(report: SimulationReport, path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in metrics_rows(report):
        lines.append(",".join(fmt(value) for fmt, value in zip(_CSV_FORMATS, astuple(row))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# One trace line, as json.dumps(record, separators=(",", ":")) writes it: a
# finite float's repr is its JSON text, and the key order is fixed.
TRACE_LINE = '{"round":%d,"client":%d,"timestep":%d,"stage":"%s","uncertainty":%r,"beta":%s,"cost":%r,"correct":%s}'


def emit_trace(report: SimulationReport, path: str | Path) -> None:
    """One JSON object per token, ordered by round, client, timestep.

    beta is null for a token the cloud did not adjudicate (NaN in its column).
    """
    names = [stage.value for stage in STAGES]
    lines: list[str] = []
    for rnd in report.rounds:
        o, r = rnd.outcomes, rnd.round_index
        columns = (o.stage.tolist(), o.uncertainty.tolist(), o.beta.tolist(), o.cost.tolist(), o.correct.tolist())
        for client, row in enumerate(zip(*columns)):
            lines += [
                TRACE_LINE % (r, client, t, names[s], u, "null" if b != b else repr(b), c, "true" if ok else "false")
                for t, (s, u, b, c, ok) in enumerate(zip(*row))
            ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summarize(report: SimulationReport) -> str:
    """Human-readable one-line run summary for terminals and logs."""
    totals = report.outcome_totals()
    total = report.total_tokens()
    if total == 0:
        return "no tokens resolved"
    parts = [
        f"tokens={total}",
        *(f"{stage.value}={totals[stage]} ({totals[stage] / total:.1%})" for stage in STAGES),
        f"trr={compute_trr(report):.4f}",
        f"cost={report.total_cost():.1f}",
        f"final_threshold={report.rounds[-1].global_threshold:.4f}" if report.rounds else "",
    ]
    return "  ".join(p for p in parts if p)
