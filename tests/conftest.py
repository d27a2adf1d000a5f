"""Shared pytest wiring for the suite.

The acceptance tests record one line per criterion; the terminal summary
replays them after the run so the pass/fail ledger survives output capture.

Property tests run under one derandomized hypothesis profile: every run
tries the same examples and keeps no example database, so the suite stays
deterministic.
"""

from __future__ import annotations

import re

from hypothesis import settings

settings.register_profile("fedhlm", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("fedhlm")

_CRITERION_LINES: list[str] = []


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
