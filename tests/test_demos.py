"""Every demo in demos/ and README.md's library snippet run to completion against the current API."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {p.stem: p for p in sorted((ROOT / "demos").glob("*.py"))}


@pytest.fixture(scope="module")
def demo_output(stock_runs, alpha_reports):
    """Run a demo's main() once per module and return what it printed.

    The baseline and heterogeneity demos are handed the session's stock-size
    runs, so they print their tables from the same reports the acceptance
    criteria check.
    """
    printed: dict[str, str] = {}
    precomputed = {
        "baseline_comparison": {mode: report for mode, (report, _) in stock_runs.items()},
        "heterogeneity_sweep": alpha_reports,
    }

    def get(stem: str) -> str:
        if stem not in printed:
            spec = importlib.util.spec_from_file_location(f"demo_{stem}", DEMOS[stem])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                args = [precomputed[stem]] if stem in precomputed else []
                module.main(*args)
            printed[stem] = out.getvalue()
        return printed[stem]

    return get


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("stem", list(DEMOS))
def test_demo_main_runs(stem, demo_output):
    assert demo_output(stem).strip()


def test_heterogeneity_conclusion_follows_its_table(demo_output):
    lines = demo_output("heterogeneity_sweep").strip().splitlines()
    local = {float(row.split()[0]): float(row.split()[1].rstrip("%")) for row in lines[1:4]}
    expected = "less" if local[0.1] < local[10.0] else "more" if local[0.1] > local[10.0] else "the same"
    assert f"= {expected} local resolution" in lines[-1]


def test_readme_library_snippet_runs():
    # The ```python block under "The same thing as a library", run as printed.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("The same thing as a library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md library snippet", "exec"), {})
    summary, totals = out.getvalue().splitlines()
    assert summary.startswith("tokens=18000 ") and "Stage.LOCAL" in totals
