"""Generated configuration files: whatever the parser accepts runs.

Every example is a small base file (4 clients, 2 rounds, 6 tokens each)
followed by a drawn subset of the rows of fedhlm.config.KEYS, each with a
drawn value: in range, out of range, non-finite or not a number at all. Size
keys are drawn from ranges that keep a run at most 8 clients, 2 rounds and 8
tokens each. A file the parser rejects must name one of its own keys. A file
it accepts must run, and then:

- every token is counted exactly once per round;
- each round's costs recount from trace.jsonl to metrics.csv, and every
  token is charged a price its stage allows;
- every threshold stays in [0, 1];
- the run summarizes, and its transmission reduction recounts from
  metrics.csv, so no accepted config yields a report without tokens;
- the config survives config_to_text and parse_config_text unchanged;
- a second run writes byte-identical metrics.csv and trace.jsonl.

A run may stop with ConfigInvalid only when it replays a trace file whose
contents do not fit the config, since the file is read when the run starts.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from fedhlm.config import KEYS, InvalidValue, config_to_text, parse_config_text
from fedhlm.engine import ConfigInvalid, Stage, run
from fedhlm.model_source import (
    LogitTrace,
    ModelProfile,
    VocabSpec,
    gen_distribution_rows,
    save_logit_trace,
)
from fedhlm.reporting import compute_trr, emit_metrics_csv, emit_trace, summarize

BASE = "topology.num_clients = 4\ntopology.num_clusters = 2\nrun.rounds = 2\nrun.tokens_per_client = 6\n"
TRACE_DIR = "@trace-dir@"

# The extremes of the positive floats, drawn as often as the rest.
EXTREMES = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308])
UNIT = st.floats(0.0, 1.0)
POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), EXTREMES)
NONNEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False), EXTREMES)
JUNK = st.sampled_from(["many", "1.5.0", "0x10", "1,2", "--"])
FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]), st.floats(allow_nan=True, allow_infinity=True).map(repr)
)
# Anything at all: any float including nan and +-inf, any integer up to
# 2**64 in magnitude, or text that is no number.
ANYTHING = st.one_of(FLOAT_TEXT, st.integers(-(2**64), 2**64).map(str), JUNK)
# Anything but a size above the cap, which would only make the run long.
NOT_A_SIZE = st.one_of(FLOAT_TEXT, st.integers(-(2**64), 0).map(str), JUNK)


def value(valid: st.SearchStrategy, invalid: st.SearchStrategy[str] = ANYTHING) -> st.SearchStrategy[str]:
    """A value from the key's valid domain nine times in ten, else from `invalid`."""
    text = valid.map(lambda v: repr(v) if isinstance(v, float) else str(v))
    return st.integers(0, 9).flatmap(lambda pick: text if pick else invalid)


def size(cap: int) -> st.SearchStrategy[str]:
    return value(st.integers(1, cap), NOT_A_SIZE)


# Valid domains span each key's full range, extremes included. Only the
# size keys are capped (8 clients, 2 rounds, 8 tokens per client, vocabulary
# 64, 16 samples or dimensions, 64 cache entries), so every run stays tiny.
VALUES = {
    "topology.num_clients": size(8),
    "topology.num_clusters": size(8),
    "topology.assignment": value(st.lists(st.integers(0, 1), min_size=4, max_size=4).map(
        lambda c: ",".join(map(str, c))
    )),
    "partition.dirichlet_alpha": value(POSITIVE),
    "partition.num_classes": size(64),
    "profile.vocab_size": value(st.integers(2, 64), NOT_A_SIZE),
    "profile.agreement": value(UNIT),
    "profile.slm_sharpness": value(POSITIVE),
    "profile.llm_sharpness": value(POSITIVE),
    "profile.background": value(POSITIVE),
    "profile.confidence_coupling": value(NONNEGATIVE),
    "sampler.num_samples": size(16),
    "sampler.temperature": value(st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
    "learner.gamma": value(POSITIVE),
    "learner.lambda": value(NONNEGATIVE),
    "learner.eta0": value(POSITIVE),
    "peer.similarity_threshold": value(st.floats(0.0, 1.0, exclude_min=True)),
    "peer.embedding_dim": size(16),
    "peer.embedding_seed": value(st.integers(0, 2**64)),
    "peer.cache_capacity": size(64),
    "cost.c_p2p": value(NONNEGATIVE),
    "cost.c_llm": value(POSITIVE),
    "cost.p_hit_window": value(st.integers(1, 64)),
    "cost.p_hit_prior": value(UNIT),
    "run.rounds": size(2),
    "run.tokens_per_client": size(8),
    "run.initial_threshold": value(UNIT),
    "run.seed": value(st.integers(0, 2**64)),
    "run.mode": value(st.sampled_from(["fedhlm", "uhlm", "rand"])),
    "run.p_offload": value(UNIT),
    "run.uncertainty_kind": value(st.sampled_from(["disagreement", "entropy"])),
    "run.heterogeneity": value(NONNEGATIVE),
    "run.skew_sharpness_coupling": value(NONNEGATIVE),
    "run.skew_agreement_coupling": value(NONNEGATIVE),
    "run.confusion_scale": value(NONNEGATIVE),
    "run.zipf_exponent": value(NONNEGATIVE),
    "peer.edge_threshold": value(st.floats(0.0, 1.0, exclude_min=True)),
    "run.trace_path": st.sampled_from(["valid.trace", "malformed.trace", "missing.trace"]).map(
        lambda name: f"{TRACE_DIR}/{name}"
    ),
}


@st.composite
def config_files(draw) -> str:
    keys = draw(st.lists(st.sampled_from(list(KEYS)), max_size=8, unique=True))
    return BASE + "".join(f"{key} = {draw(VALUES[key])}\n" for key in keys)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("traces")
    vocab = VocabSpec(32)
    rng = np.random.default_rng(0)
    slm, llm = gen_distribution_rows(ModelProfile(vocab=vocab), rng.integers(vocab.size, size=5), rng)
    save_logit_trace(directory / "valid.trace", LogitTrace(llm.argmax(axis=1), slm, llm))
    (directory / "malformed.trace").write_text("# vocab=32\n1,0.5,0.5\n", encoding="utf-8")
    return directory


def test_every_key_has_a_value_strategy():
    assert set(VALUES) == set(KEYS)


def _outputs(report, directory: Path) -> tuple[bytes, bytes]:
    emit_metrics_csv(report, directory / "metrics.csv")
    emit_trace(report, directory / "trace.jsonl")
    return (directory / "metrics.csv").read_bytes(), (directory / "trace.jsonl").read_bytes()


@given(text=config_files())
def test_accepted_configs_run_and_keep_their_invariants(text, trace_dir):
    text = text.replace(TRACE_DIR, str(trace_dir))
    try:
        cfg = parse_config_text(text)
    except InvalidValue as exc:
        assert exc.key in {line.partition(" = ")[0] for line in text.splitlines()}, str(exc)
        return
    assert parse_config_text(config_to_text(cfg)) == cfg
    event("accepted")

    try:
        report = run(cfg)
    except ConfigInvalid:
        assert cfg.trace_path is not None
        event("trace rejected")
        return
    event("ran")
    with tempfile.TemporaryDirectory() as tmp:
        one, two = Path(tmp, "1"), Path(tmp, "2")
        one.mkdir()
        two.mkdir()
        metrics, trace = _outputs(report, one)
        assert (metrics, trace) == _outputs(run(cfg), two)

    clients, per_client = cfg.topology.num_clients, cfg.tokens_per_client
    records = [json.loads(line) for line in trace.decode().splitlines()]
    rows = [line.split(",") for line in metrics.decode().splitlines()[1:]]
    assert len(rows) == len(report.rounds) == cfg.rounds
    assert len(records) == cfg.rounds * clients * per_client
    c_p2p, c_llm = cfg.cost.c_p2p, cfg.cost.c_llm
    prices = {"local": {0.0}, "p2p": {c_p2p}, "edge": {c_p2p}, "llm": {c_llm, c_p2p + c_llm}}
    for rnd, row in zip(report.rounds, rows):
        mine = [r for r in records if r["round"] == rnd.round_index]
        counts = {stage: sum(r["stage"] == stage for r in mine) for stage in prices}
        assert sum(rnd.outcome_counts.values()) == len(mine) == clients * per_client
        assert [int(cell) for cell in row[2:6]] == [counts[s] for s in ("local", "p2p", "edge", "llm")]
        assert all(r["cost"] in prices[r["stage"]] for r in mine)
        assert math.fsum(r["cost"] for r in mine) == rnd.total_cost
        assert row[9] == f"{rnd.total_cost:.6f}"
        thresholds = [
            rnd.global_threshold,
            *rnd.cluster_thresholds,
            *rnd.thresholds_local.values(),
        ]
        assert all(0.0 <= t <= 1.0 for t in thresholds)
        assert rnd.outcome_counts[Stage.LOCAL] == counts["local"]
    llm, total = sum(int(row[5]) for row in rows), sum(int(cell) for row in rows for cell in row[2:6])
    assert summarize(report).startswith(f"tokens={total}  ")
    assert compute_trr(report) == 1.0 - llm / total
