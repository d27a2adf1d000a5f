"""Config files, metrics/trace emission, and the command line surface."""

import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedhlm.cli import main
from fedhlm.config import (
    KEYS,
    InvalidValue,
    config_to_text,
    parse_config,
    parse_config_text,
)
from fedhlm.engine import (
    STAGES,
    RoundOutcomes,
    RoundReport,
    SimulationConfig,
    SimulationReport,
    Stage,
    default_config,
    run,
)
from fedhlm.federation import ClusterTopology
from fedhlm.reporting import (
    CSV_COLUMNS,
    compute_trr,
    emit_metrics_csv,
    emit_trace,
    round_trr,
    summarize,
)


def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        topology=ClusterTopology(num_clients=4, num_clusters=2),
        rounds=3,
        tokens_per_client=6,
        seed=11,
    )


TINY_TEXT = "\n".join(
    [
        "# four clients, two clusters, short run",
        "topology.num_clients = 4",
        "topology.num_clusters = 2",
        "run.rounds = 3",
        "run.tokens_per_client = 6",
        "run.seed = 11",
    ]
)


# --- configuration parsing ---


def test_empty_config_yields_defaults():
    cfg = parse_config_text("")
    assert cfg == default_config()
    assert (cfg.topology.num_clients, cfg.topology.num_clusters, cfg.rounds) == (20, 4, 30)


def test_comments_and_blanks_ignored():
    cfg = parse_config_text("\n# note\n\n  run.seed = 9  \n")
    assert cfg.seed == 9


def test_unknown_key_rejected():
    with pytest.raises(InvalidValue) as err:
        parse_config_text("run.banana = 3")
    assert err.value.key == "run.banana"


def test_keys_that_did_nothing_are_unknown():
    for key in (
        "partition.tokens_per_client",
        "cost.c_uplink",
        "cost.tau_slm",
        "cost.tau_llm",
        "cost.tau_uplink",
        "run.workers",
    ):
        with pytest.raises(InvalidValue, match="unknown configuration key") as err:
            parse_config_text(f"{key} = 1")
        assert err.value.key == key


def test_malformed_line_rejected():
    with pytest.raises(InvalidValue, match="line 2: expected key = value") as err:
        parse_config_text("run.rounds = 2\n  this is not a key value pair\n")
    assert err.value.key == "this is not a key value pair"


def test_type_errors_name_the_key():
    with pytest.raises(InvalidValue) as err:
        parse_config_text("run.rounds = many")
    assert err.value.key == "run.rounds"
    with pytest.raises(InvalidValue) as err:
        parse_config_text("learner.gamma = fast")
    assert err.value.key == "learner.gamma"


def test_constraint_errors_name_the_key():
    cases = {
        "partition.dirichlet_alpha = -1": "partition.dirichlet_alpha",
        "learner.gamma = 0": "learner.gamma",
        "profile.agreement = 2.0": "profile.agreement",
        "run.p_offload = 1.5": "run.p_offload",
        "peer.similarity_threshold = 3": "peer.similarity_threshold",
        "cost.c_llm = 0": "cost.c_llm",
        "topology.num_clusters = 0": "topology.num_clusters",
        "run.mode = turbo": "run.mode",
        "profile.vocab_size = 1": "profile.vocab_size",
        "run.uncertainty_kind = foo": "run.uncertainty_kind",
        "partition.num_classes = 100": "partition.num_classes",
        "topology.num_clients = 4\ntopology.num_clusters = 2\ntopology.assignment = 0,0,0,5": "topology.assignment",
        "peer.embedding_seed = -1": "peer.embedding_seed",
        "cost.c_llm = 1e308": "cost.c_llm",
        "partition.dirichlet_alpha = 1e308": "partition.dirichlet_alpha",
        "run.trace_path = /nonexistent/fedhlm.trace": "run.trace_path",
        "run.tokens_per_client = 1000000000000000000": "run.tokens_per_client",
        "profile.vocab_size = 100000000000": "profile.vocab_size",
        # the lateral tables' clients x T x d term binds where the two V x d tables' does not
        "peer.embedding_dim = 100000": "peer.embedding_dim",
        # a round's MC uniforms hold clients x T x num_samples cells
        "sampler.num_samples = 100000": "sampler.num_samples",
    }
    for text, key in cases.items():
        with pytest.raises(InvalidValue) as err:
            parse_config_text(text)
        assert err.value.key == key, text


def test_the_ceiling_counts_the_one_embedding_table():
    # A run holds one V x d embedding table, which the lateral tables and the
    # caches share. Every other term of this config is at most 12.0M cells,
    # under 2^24 (16.8M).
    text = (
        "topology.num_clients = 1\ntopology.num_clusters = 1\npartition.num_classes = 1\n"
        "run.tokens_per_client = 1\nsampler.num_samples = 8\nprofile.vocab_size = 1500000\n"
    )
    assert parse_config_text(text + "peer.embedding_dim = 11").peer.embedding_dim == 11  # 16.5M cells
    with pytest.raises(InvalidValue, match="over the ceiling") as err:
        parse_config_text(text + "peer.embedding_dim = 12")  # 18.0M cells
    assert err.value.key == "profile.vocab_size"


def test_the_ceiling_counts_a_rounds_monte_carlo_uniforms():
    # The stock round draws 20 clients x 30 tokens x num_samples scoring
    # uniforms at once, and no cell of it is vocabulary-wide. Every other
    # term of the stock config is at most 57,600 cells.
    assert parse_config_text("sampler.num_samples = 27962").sampler.num_samples == 27962  # 16,777,200 cells
    with pytest.raises(InvalidValue, match="over the ceiling") as err:
        parse_config_text("sampler.num_samples = 27963")  # 16,777,800 cells, over 2^24 = 16,777,216
    assert err.value.key == "sampler.num_samples"


def test_the_ceiling_counts_a_rounds_three_vocabulary_tables():
    # A round holds its SLM rows, its LLM rows and their softened CDFs, each
    # clients x T x V cells. Every other term of this config is at most 7.0M
    # cells, under 2^24 (16.8M).
    text = (
        "topology.num_clients = 8\ntopology.num_clusters = 1\npartition.num_classes = 1\n"
        "run.tokens_per_client = 1000\n"
    )
    assert parse_config_text(text + "profile.vocab_size = 699").profile.vocab.size == 699  # 3 x 5.592M cells
    with pytest.raises(InvalidValue, match="over the ceiling") as err:
        parse_config_text(text + "profile.vocab_size = 700")  # 3 x 5.600M cells
    assert err.value.key == "profile.vocab_size"


def test_a_cache_past_the_vocabulary_size_changes_nothing(stock_runs, tmp_path):
    # A cache holds at most V distinct token ids (V = 32 here), so a huge
    # capacity is accepted and gives the stock run's outputs.
    big = run(parse_config_text("peer.cache_capacity = 1000000"))
    for name, report in (("big", big), ("stock", stock_runs["fedhlm"][0])):
        emit_metrics_csv(report, tmp_path / f"{name}.csv")
        emit_trace(report, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "big.csv").read_bytes() == (tmp_path / "stock.csv").read_bytes()
    assert (tmp_path / "big.jsonl").read_bytes() == (tmp_path / "stock.jsonl").read_bytes()


def test_readme_quick_start_line_is_the_stock_summary(stock_runs):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    printed = [line for line in section.splitlines() if line.startswith("tokens=")]
    assert printed == [summarize(stock_runs["fedhlm"][0])]


def test_readme_configuration_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    resolved = config_to_text(default_config()).splitlines()
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert len(rows) >= 10
    for cells in rows:
        keys = re.findall(r"`([^`]+)`", cells[0])
        defaults = [d.strip().strip("`") for d in cells[1].split(",")]
        assert len(keys) == len(defaults), cells
        for key, default in zip(keys, defaults):
            assert key in KEYS, key
            if default == "unset":
                assert not any(line.startswith(f"{key} = ") for line in resolved), key
            else:
                assert f"{key} = {default}" in resolved, key


def test_non_finite_numbers_name_the_key():
    for key in ("learner.eta0", "learner.gamma", "profile.slm_sharpness", "cost.c_p2p", "run.heterogeneity"):
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(InvalidValue, match="expected a finite number") as err:
                parse_config_text(f"{key} = {text}")
            assert err.value.key == key


def test_missing_file_raises():
    with pytest.raises(InvalidValue, match="configuration file not found") as err:
        parse_config("/nonexistent/fedhlm.conf")
    assert err.value.key == "/nonexistent/fedhlm.conf"


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(TINY_TEXT, encoding="utf-8")
    assert parse_config(path) == tiny_config()


def test_roundtrip_default_and_customized():
    for cfg in (
        default_config(),
        tiny_config(),
        replace(default_config(), uncertainty_kind="entropy", mode="uhlm"),
    ):
        assert parse_config_text(config_to_text(cfg)) == cfg


def test_serialization_echoes_every_effective_setting():
    text = config_to_text(default_config())
    for key in (
        "topology.num_clients",
        "topology.assignment",
        "partition.dirichlet_alpha",
        "profile.vocab_size",
        "sampler.temperature",
        "learner.lambda",
        "peer.cache_capacity",
        "cost.c_llm",
        "run.rounds",
        "run.seed",
        "run.zipf_exponent",
    ):
        assert f"{key} = " in text


def test_custom_assignment_roundtrip():
    text = "\n".join(
        [
            "topology.num_clients = 4",
            "topology.num_clusters = 2",
            "topology.assignment = 1,0,1,0",
        ]
    )
    cfg = parse_config_text(text)
    assert cfg.topology.assignment == (1, 0, 1, 0)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_assignment_length_must_match():
    with pytest.raises(InvalidValue) as err:
        parse_config_text("topology.num_clients = 3\ntopology.assignment = 0,0")
    assert err.value.key == "topology.assignment"


# --- transmission reduction rate ---


def _report(counts: dict[Stage, int], outcomes: RoundOutcomes, round_index: int = 0) -> SimulationReport:
    rnd = RoundReport(
        round_index=round_index,
        outcomes=outcomes,
        outcome_counts=counts,
        thresholds_local={},
        cluster_thresholds=(0.1,),
        global_threshold=0.1,
        total_cost=0.0,
    )
    return SimulationReport(default_config(), [rnd], {})


def _counts_report(local: int, p2p: int, edge: int, llm: int) -> SimulationReport:
    counts = {Stage.LOCAL: local, Stage.P2P: p2p, Stage.EDGE: edge, Stage.LLM: llm}
    return _report(counts, RoundOutcomes(*(np.empty((0, 0)) for _ in RoundOutcomes._fields)))


def test_trr_endpoints():
    assert compute_trr(_counts_report(100, 0, 0, 0)) == 1.0
    assert compute_trr(_counts_report(0, 0, 0, 100)) == 0.0


def test_trr_headline_ratio():
    report = _counts_report(16_584, 400, 308, 708)
    value = compute_trr(report)
    assert value == pytest.approx(1.0 - 708 / 18_000, abs=1e-12)
    assert round(value, 4) == 0.9607


def test_round_trr_matches_whole_run_on_single_round():
    report = _counts_report(50, 10, 5, 35)
    assert round_trr(report.rounds[0]) == compute_trr(report)


# --- metrics CSV and trace emission ---


@pytest.fixture(scope="module")
def tiny_report():
    return run(tiny_config())


def test_metrics_csv_layout(tmp_path, tiny_report):
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(tiny_report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3
    assert lines[0] == ",".join(CSV_COLUMNS)
    for line in lines[1:]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


# Floats the trace must spell as json does: subnormals, the smallest normal,
# a sum that rounds, the largest double below 1.
AWKWARD = st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1 - 2**-53])
# (c_p2p, c_llm) pairs, the stock prices first.
PRICES = st.sampled_from([(1.0, 4.0), (1e-7, 1e16), (1e-7, 1.0), (3.0, 1e16), (0.3, 0.7)])


@st.composite
def trace_grids(draw):
    """A round index and a (clients, T) grid of trace records without their keys."""
    c_p2p, c_llm = draw(PRICES)
    cell = st.builds(
        lambda *values: dict(zip(("stage", "uncertainty", "beta", "cost", "correct"), values)),
        st.sampled_from([stage.value for stage in STAGES]),
        st.one_of(st.floats(0.0, 1.0), AWKWARD),
        st.one_of(st.none(), st.floats(0.0, 1.0), AWKWARD),
        st.sampled_from([0.0, c_p2p, c_llm, c_p2p + c_llm]),
        st.booleans(),
    )
    row = st.lists(cell, min_size=(steps := draw(st.integers(1, 5))), max_size=steps)
    return draw(st.integers(0, 40)), draw(st.lists(row, min_size=1, max_size=3))


@given(trace_grids())
def test_trace_lines_are_what_json_dumps_writes(case):
    round_index, grid = case
    column = lambda read, dtype=None: np.array([[read(cell) for cell in row] for row in grid], dtype)  # noqa: E731
    outcomes = RoundOutcomes(
        stage=column(lambda cell: STAGES.index(Stage(cell["stage"])), np.int8),
        final_token=column(lambda cell: 0),
        cost=column(lambda cell: cell["cost"], float),
        uncertainty=column(lambda cell: cell["uncertainty"], float),
        beta=column(lambda cell: np.nan if cell["beta"] is None else cell["beta"], float),
        correct=column(lambda cell: cell["correct"], bool),
        p2p_attempted=column(lambda cell: False, bool),
    )
    want = [
        json.dumps({"round": round_index, "client": client, "timestep": t, **cell}, separators=(",", ":"))
        for client, row in enumerate(grid)
        for t, cell in enumerate(row)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.jsonl")
        emit_trace(_report({}, outcomes, round_index), path)
        assert path.read_text(encoding="utf-8").splitlines() == want


def test_metrics_csv_byte_stable(tmp_path):
    cfg = tiny_config()
    first, second = run(cfg), run(cfg)
    emit_metrics_csv(first, tmp_path / "one.csv")
    emit_metrics_csv(second, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_trace_layout_and_order(tmp_path, tiny_report):
    path = tmp_path / "trace.jsonl"
    emit_trace(tiny_report, path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3 * 4 * 6  # rounds x clients x tokens
    keys = [(r["round"], r["client"], r["timestep"]) for r in records]
    assert keys == sorted(keys)
    for record in records:
        assert record["stage"] in {"local", "p2p", "edge", "llm"}
        assert (record["beta"] is None) == (record["stage"] != "llm")
        assert isinstance(record["correct"], bool)


def test_trace_is_written_one_round_at_a_time(tmp_path, stock_runs):
    # The stock run's trace is 18,000 lines, about 1.9 MB; only a round's
    # 600 lines of text may be held at once.
    report = stock_runs["fedhlm"][0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        emit_trace(report, tmp_path / "trace.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2**20


def test_csv_counts_agree_with_trace(tmp_path, tiny_report):
    emit_metrics_csv(tiny_report, tmp_path / "metrics.csv")
    emit_trace(tiny_report, tmp_path / "trace.jsonl")
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    csv_lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    for line in csv_lines:
        cells = line.split(",")
        rnd = int(cells[0])
        from_trace = {"local": 0, "p2p": 0, "edge": 0, "llm": 0}
        for record in records:
            if record["round"] == rnd:
                from_trace[record["stage"]] += 1
        assert [int(cells[2]), int(cells[3]), int(cells[4]), int(cells[5])] == [
            from_trace["local"],
            from_trace["p2p"],
            from_trace["edge"],
            from_trace["llm"],
        ]


def test_trr_consistent_with_trace(tmp_path, tiny_report):
    emit_trace(tiny_report, tmp_path / "trace.jsonl")
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    llm = sum(1 for r in records if r["stage"] == "llm")
    assert compute_trr(tiny_report) == pytest.approx(1.0 - llm / len(records), abs=1e-12)


def test_summarize_mentions_totals(tiny_report):
    text = summarize(tiny_report)
    assert "tokens=72" in text
    assert "trr=" in text


# --- command line ---


def _write_tiny(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY_TEXT + "\n", encoding="utf-8")
    return path


def test_cli_run_writes_artifacts(tmp_path, capsys):
    conf = _write_tiny(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(conf), "--out-dir", str(out)])
    assert code == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "trace.jsonl").is_file()
    resolved = parse_config(out / "config.resolved.txt")
    assert resolved == tiny_config()
    assert "tokens=72" in capsys.readouterr().out


def test_cli_seed_override_changes_resolved_config(tmp_path):
    conf = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out-dir", str(out), "--seed", "99"]) == 0
    assert parse_config(out / "config.resolved.txt").seed == 99


def test_cli_baseline_requires_mode(tmp_path):
    conf = _write_tiny(tmp_path)
    assert main(["baseline", "--config", str(conf)]) == 2
    assert main(["baseline", "--config", str(conf), "--mode", "uhlm"]) == 0
    assert main(["baseline", "--config", str(conf), "--mode", "rand"]) == 0


def test_cli_bad_config_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("partition.dirichlet_alpha = -1\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) == 2
    for text in (
        "learner.eta0 = nan",
        "profile.vocab_size = 1",
        "peer.embedding_seed = -1",
        "cost.c_llm = 1e308",
        "run.workers = 1",
        "run.tokens_per_client = 1000000000000000000",
        "profile.vocab_size = 100000000000",
        "sampler.num_samples = 100000",
    ):
        conf.write_text(text + "\n", encoding="utf-8")
        assert main(["run", "--config", str(conf)]) == 2, text


def test_cli_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    conf = tmp_path / "latin.conf"
    conf.write_bytes(b"run.rounds = 2\n\xff\n")
    assert main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {conf}: ") and "not UTF-8" in err


def test_a_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    conf = tmp_path / "bom.conf"
    conf.write_bytes(b"\xef\xbb\xbfrun.rounds = 2\n")
    assert parse_config(conf).rounds == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--cost-ratios", "nan"],
        ["sweep", "--cost-ratios", "1.5"],
        ["sweep", "--cost-ratios", "0.5,-0.1"],
        ["sweep", "--alphas", "0"],
        ["sweep", "--alphas", "inf"],
        ["sweep", "--alphas", "10.0,x"],
        ["cost", "--cache-alpha", "0"],
        ["cost", "--cache-alpha", "nan"],
        ["run", "--seed", "-1"],
        ["baseline", "--seed", "-1", "--mode", "uhlm"],
        ["sweep", "--seed", "-1"],
        ["cost", "--seed", "-1"],
    ],
)
def test_cli_bad_flag_values_exit_2_naming_the_flag(argv, capsys):
    # A bad point anywhere in a grid fails before the first point runs.
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {argv[1]}: ")


def _run_on_trace(tmp_path, contents: str) -> int:
    trace = tmp_path / "bad.trace"
    trace.write_text(contents, encoding="utf-8")
    conf = tmp_path / "trace.conf"
    conf.write_text(TINY_TEXT + f"\nrun.trace_path = {trace}\n", encoding="utf-8")
    return main(["run", "--config", str(conf)])


def test_cli_malformed_trace_exits_2(tmp_path, capsys):
    assert _run_on_trace(tmp_path, "# vocab=32\n1,0.5,0.5\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: run.trace_path: "), err
    assert str(tmp_path / "bad.trace") in err and "line 2" in err


def test_cli_trace_without_steps_exits_2_naming_the_key(tmp_path, capsys):
    assert _run_on_trace(tmp_path, "# vocab=32\n# no rows\n") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: run.trace_path: {tmp_path / 'bad.trace'}: "), err
    assert "no steps" in err


def test_cli_missing_config_exits_2_naming_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    assert main(["run", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {missing}: configuration file not found")


def test_cli_sweep_writes_grid(tmp_path):
    conf = _write_tiny(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(conf), "--out-dir", str(out), "--alphas", "5.0,0.5"])
    assert code == 0
    summary = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0].startswith("alpha,")
    assert len(summary) == 3
    assert (out / "alpha_5.0" / "metrics.csv").is_file()
    assert (out / "alpha_0.5" / "metrics.csv").is_file()


def test_cli_sweep_rejects_two_grids(tmp_path, capsys):
    conf = _write_tiny(tmp_path)
    assert main(["sweep", "--config", str(conf), "--alphas", "1.0", "--cost-ratios", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --cost-ratios: ")


def test_cli_cost_tables(tmp_path):
    out = tmp_path / "cost"
    assert main(["cost", "--out-dir", str(out)]) == 0
    policy = (out / "cost_policy.csv").read_text(encoding="utf-8").splitlines()
    assert policy[0] == "p_hit,expected_escalation_cost,attempt_p2p,policy_cost"
    assert len(policy) == 22
    curve = (out / "cache_curve.csv").read_text(encoding="utf-8").splitlines()
    assert len(curve) == 8
    # hit ratio column is monotone in cache size
    ratios = [float(line.split(",")[1]) for line in curve[1:]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_cli_cost_stdout_without_out_dir(capsys):
    assert main(["cost"]) == 0
    printed = capsys.readouterr().out
    assert "p_hit,expected_escalation_cost" in printed
    assert "cache_size,hit_ratio" in printed
