"""Shared pytest wiring for the suite.

The acceptance tests record one line per criterion; the terminal summary
replays them after the run so the pass/fail ledger survives output capture.

Property tests run under one derandomized hypothesis profile: every run
tries the same examples and keeps no example database, so the suite stays
deterministic.

The stock-size runs that acceptance criteria 4, 5, 6, 9 and 10 and the
baseline and heterogeneity demos all read are session fixtures, so each is
run once per session. So are the stock runs at seeds 1-10 that the
criteria's companions over seeds and the silent-cluster count read.

`one_token_round` runs one gated round on a single client holding a single
replayed trace row, so a test can set the threshold against the row's score.
"""

from __future__ import annotations

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from fedhlm.engine import (
    RoundOutcomes,
    SimulationConfig,
    SimulationReport,
    SimulationState,
    default_config,
    run,
    run_round,
)
from fedhlm.federation import ClusterTopology, PartitionSpec
from fedhlm.model_source import LogitTrace, ModelProfile, VocabSpec, load_logit_trace, save_logit_trace
from fedhlm.uncertainty import KIND_ENTROPY, SamplerConfig, score_rows

settings.register_profile("fedhlm", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("fedhlm")

_CRITERION_LINES: list[str] = []

# The Dirichlet alphas of criterion 5 and the heterogeneity demo; 10 is the stock default.
ALPHAS = (10.0, 1.0, 0.1)

# The seeds of the companion tests that check a claim over seeds rather than at one.
SEEDS = range(1, 11)


def with_alpha(alpha: float, seed: int = 42) -> SimulationConfig:
    cfg = default_config(seed=seed)
    return replace(cfg, partition=replace(cfg.partition, dirichlet_alpha=alpha))


@pytest.fixture(scope="session")
def stock_runs() -> dict[str, tuple[SimulationReport, float]]:
    """The stock config in `fedhlm` and `uhlm` mode: mode -> (report, seconds the run took)."""
    runs = {}
    for mode in ("fedhlm", "uhlm"):
        start = time.monotonic()
        report = run(default_config(mode=mode))
        runs[mode] = report, time.monotonic() - start
    return runs


@pytest.fixture(scope="session")
def alpha_reports(stock_runs) -> dict[float, SimulationReport]:
    """The stock config at each of ALPHAS; the stock `fedhlm` run stands for its own alpha."""
    stock = stock_runs["fedhlm"][0]
    return {alpha: stock if with_alpha(alpha) == stock.config else run(with_alpha(alpha)) for alpha in ALPHAS}


@pytest.fixture(scope="session")
def seed_runs() -> dict[int, SimulationReport]:
    """The stock config at each of SEEDS: seed -> report."""
    return {seed: run(default_config(seed=seed)) for seed in SEEDS}


@pytest.fixture
def one_token_round(tmp_path):
    """(score, play): the entropy score of one trace row, which draws no randomness, and
    play(mode, threshold) -> the RoundOutcomes of a round where a lone client replays that row.
    A lone client has no cache entry, peers or neighbor clusters, so an escalated token goes to the cloud."""
    vocab = VocabSpec(8)
    slm = np.array([[0.4, 0.3, 0.1, 0.1, 0.05, 0.03, 0.01, 0.01]])
    path = tmp_path / "one.trace"
    save_logit_trace(path, LogitTrace(np.array([0]), slm, slm[:, ::-1].copy()))
    rows = load_logit_trace(path, vocab).slm
    score = float(score_rows(rows, KIND_ENTROPY, SamplerConfig(), [])[0])

    def play(mode: str, threshold: float) -> RoundOutcomes:
        cfg = SimulationConfig(
            topology=ClusterTopology(num_clients=1, num_clusters=1), profile=ModelProfile(vocab=vocab),
            partition=PartitionSpec(num_classes=2), rounds=1, tokens_per_client=1, mode=mode,
            uncertainty_kind=KIND_ENTROPY, trace_path=str(path), initial_threshold=threshold,
        )
        return run_round(SimulationState(cfg), 0).outcomes

    return score, play


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _CRITERION_LINES.append(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return

    def criterion_number(line: str) -> int:
        match = re.search(r"criterion (\d+)", line)
        return int(match.group(1)) if match else 0

    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES, key=criterion_number):
        terminalreporter.write_line(line)
