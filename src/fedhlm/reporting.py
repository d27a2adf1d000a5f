"""Metrics tables and per-token trace emission.

Output files are deterministic: the same report object always serializes to
byte-identical CSV and JSON-lines content. Each metrics.csv column is
declared once, in CSV_COLUMNS, as its header and the text of a round's
cell; the means are read from the round's outcome columns. The trace is
written from those columns with one format template per line.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from pathlib import Path

from .engine import STAGES, RoundReport, SimulationReport, Stage


def round_trr(report: RoundReport) -> float:
    """Fraction of the round's tokens kept away from the large model."""
    return 1.0 - report.outcome_counts[Stage.LLM] / sum(report.outcome_counts.values())


def compute_trr(report: SimulationReport) -> float:
    """Whole-run transmission reduction: 1 - (large-model tokens / all tokens)."""
    return 1.0 - report.outcome_totals()[Stage.LLM] / report.total_tokens()


def _fmt(value: float) -> str:
    # %.6f keeps reruns byte-stable and is plenty for desk-scale metrics
    return f"{value:.6f}"


def _transmission_rate(report: RoundReport) -> float:
    total = sum(report.outcome_counts.values())
    return (total - report.outcome_counts[Stage.LOCAL]) / total


def _avg_uncertainty(report: RoundReport) -> float:
    scores = report.outcomes.uncertainty
    return math.fsum(scores.ravel().tolist()) / scores.size


def _rejection_rate(report: RoundReport) -> float:
    """Mean rejection probability over the round's cloud tokens; 0 when there are none."""
    o, count = report.outcomes, report.outcome_counts[Stage.LLM]
    return math.fsum(o.beta[o.stage == STAGES.index(Stage.LLM)].tolist()) / count if count else 0.0


# metrics.csv header -> the text of a round's cell, in column order. fsum is
# exact, so a mean does not depend on the order of the cells.
CSV_COLUMNS: dict[str, Callable[[RoundReport], str]] = {
    "round": lambda r: str(r.round_index),
    "global_threshold": lambda r: _fmt(r.global_threshold),
    "local_count": lambda r: str(r.outcome_counts[Stage.LOCAL]),
    "p2p_count": lambda r: str(r.outcome_counts[Stage.P2P]),
    "edge_count": lambda r: str(r.outcome_counts[Stage.EDGE]),
    "llm_count": lambda r: str(r.outcome_counts[Stage.LLM]),
    "transmission_rate": lambda r: _fmt(_transmission_rate(r)),
    "avg_uncertainty": lambda r: _fmt(_avg_uncertainty(r)),
    "rejection_rate": lambda r: _fmt(_rejection_rate(r)),
    "total_cost": lambda r: _fmt(r.total_cost),
    "trr": lambda r: _fmt(round_trr(r)),
}


def emit_metrics_csv(report: SimulationReport, path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(cell(rnd) for cell in CSV_COLUMNS.values()) for rnd in report.rounds]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# One trace line, as json.dumps(record, separators=(",", ":")) writes it: a
# finite float's repr is its JSON text, and the key order is fixed. The line
# is its position's head, its stage and score, its beta, then its cost and
# correctness.
TRACE_HEAD = '{"round":%d,"client":%d,"timestep":'
TRACE_SCORE = ',"stage":"%s","uncertainty":%r,"beta":'
TRACE_COST = ',"cost":%r,"correct":%s}'


def emit_trace(report: SimulationReport, path: str | Path) -> None:
    """One JSON object per token, ordered by round, client, timestep, written one round at a time.

    beta is null for a token the cloud did not adjudicate (NaN in its column).
    A round's tokens share few (stage, score) and (stage, cost, correct)
    values, so each one's text is formatted once per round; a score kind
    with continuous values, such as entropy, then holds at most a round's
    worth. Within a stage no score or cost mixes 0.0 with -0.0, the one pair
    of equal floats whose reprs differ.
    """
    names = [stage.value for stage in STAGES]
    with open(path, "w", encoding="utf-8") as fh:
        for rnd in report.rounds:
            o, r, lines = rnd.outcomes, rnd.round_index, []
            scores: dict[tuple, str] = {}
            costs: dict[tuple, str] = {}
            columns = (o.stage.tolist(), o.uncertainty.tolist(), o.beta.tolist(), o.cost.tolist(), o.correct.tolist())
            for client, row in enumerate(zip(*columns)):
                head = TRACE_HEAD % (r, client)
                for t, (s, u, b, c, ok) in enumerate(zip(*row)):
                    score = scores.get(key := (s, u))
                    if score is None:
                        score = scores[key] = TRACE_SCORE % (names[s], u)
                    cost = costs.get(key := (s, c, ok))
                    if cost is None:
                        cost = costs[key] = TRACE_COST % (c, "true" if ok else "false")
                    lines.append(f"{head}{t}{score}{'null' if b != b else repr(b)}{cost}\n")
            fh.write("".join(lines))


def summarize(report: SimulationReport) -> str:
    """Human-readable one-line run summary for terminals and logs."""
    totals = report.outcome_totals()
    total = report.total_tokens()
    parts = [
        f"tokens={total}",
        *(f"{stage.value}={totals[stage]} ({totals[stage] / total:.1%})" for stage in STAGES),
        f"trr={compute_trr(report):.4f}",
        f"cost={report.total_cost():.1f}",
        f"final_threshold={report.rounds[-1].global_threshold:.4f}",
    ]
    return "  ".join(parts)
