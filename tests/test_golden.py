"""Golden outputs of the stock configuration, a lateral-tier config and a replayed trace.

The sha256 of each byte-stable output file is pinned, so any change to the
RNG stream, the routing decisions or the file layout shows up here. Each
client-round draws on its own generation stream, in this order: the class,
pick and confusion uniforms and the scattered modes; the SLM rows, the
agreement uniforms and the disagreeing modes, which fix every token's LLM
mode (a generated token's target); the scoring uniforms; and, after the
gate, the LLM rows of its escalated tokens only. A round's distributions
are shaped and scored as (clients * T, V) stacks, with the same bits as one
client-round at a time. The `uhlm` baseline sends 8,505 tokens through
cloud adjudication, so its pins are the ones a changed resample draw would
break; the `rand` pins fix the coin-flip gate, whose coins each
client-round draws as one (T,) array on a lane of their own.

The stock run settles almost nothing at the peer or edge tier, so the
lateral pin uses a config where both accept: 24 clients in 6 clusters, a
near-frozen threshold, a steep Zipf draw (peers often predict the same
token) and a lower edge threshold. It gives 7 consensus accepts, 65 edge
accepts and 1,058 p2p tokens. Its per-client metrics are pinned as well,
because no output file holds them.

The trace-replay pin runs a 997-row logit trace in disagreement mode. Replay
spends randomness only on uncertainty scoring and the routing after it, and
the batched (T, S) scoring draw takes the same uniforms in the same order as
one draw of S per token did, so this pin predates the columnar stream and
holds across changes to the synthetic generator, such as the move of the
LLM rows after the gate.

The entropy-replay pin runs the same trace with entropy scoring. Such a
round draws nothing, so it builds no generation streams; the pin was taken
when every round still built them.

The entropy pin runs the stock config with entropy scoring, the one scoring
kind the other pins do not use: 93 tokens reach the cloud and 195 settle at
the peer tier.
"""

import hashlib

import numpy as np
import pytest

import fedhlm.engine
from fedhlm.cli import main
from fedhlm.config import parse_config_text
from fedhlm.engine import _TAG_GEN, _TAG_RESOLVE, run

GOLDEN = {
    ("run",): {
        "metrics.csv": "c41fa4fc1302e45168aab9d9907c3c7958252e02c68a2bedbc20c079b318ce4d",
        "trace.jsonl": "039853fbf1e86d9c14e06b58d40ce3037726c4f4bd00fc68e5c19efa8f413e87",
    },
    ("baseline", "--mode", "uhlm"): {
        "metrics.csv": "4006f6e5016367690544b35ddefab7441b8a70882fec3fac9ff9b0a61e5a3c55",
        "trace.jsonl": "cc56c712cff87070e170868e6ab6fa32ef533b7c9768a0127300ef35f7208569",
    },
    ("baseline", "--mode", "rand"): {
        "metrics.csv": "9f53a9498e19bf04beaf21250801d24b9f81bb45939164b90b076a83c81469d4",
        "trace.jsonl": "3ed9ace155b9e1b3cb8a182a61862395caa35fa4a942dcc3993763edfb46095b",
    },
}

LATERAL_CONFIG = """\
topology.num_clients = 24
topology.num_clusters = 6
learner.eta0 = 0.001
run.rounds = 4
run.zipf_exponent = 4.0
peer.edge_threshold = 0.6
"""

# sha256 of one line per client: token entropy, cache hit ratio, LLM token
# count and accuracy, floats by repr.
LATERAL_CLIENT_METRICS = "4eb8853face739032bb33130301c9728ac84c00bcd7605c11dba3b5832ee4cf9"

LATERAL_GOLDEN = {
    "metrics.csv": "f4b399b2cde4aced7479e9d6ff93b8f3c68d7c9f202f8a24f709c34d8251201f",
    "trace.jsonl": "5450c0cfa463e7a2c24d68a939a4d3269b880bcd8c873cc718957185c2ae313f",
}


TRACE_CONFIG = """\
topology.num_clients = 10
topology.num_clusters = 2
run.rounds = 10
run.uncertainty_kind = disagreement
"""

TRACE_GOLDEN = {
    "metrics.csv": "56f959f2046a2365948b5e8c588cba4de7fbeee2f51b7f54c719ea63a3669154",
    "trace.jsonl": "3f5065d02d121cc3ecbc96ba54477456374f6d7fc15f5ddc5aad04d2ec6fc3a6",
}

ENTROPY_REPLAY_GOLDEN = {
    "metrics.csv": "899aa3b6e51603631d537524e8a2a47e4cf911912480efa6f6ac8f07a2f6c3db",
    "trace.jsonl": "2b9317064214b01662567919b6432a36fc14ee109414d2ce379112bbac4f632e",
}

ENTROPY_CONFIG = "run.uncertainty_kind = entropy\n"

ENTROPY_GOLDEN = {
    "metrics.csv": "b6fa3f044f0dd3dca4ebce60c8d7da07d08979e6501f5692d053dc186041195d",
    "trace.jsonl": "d066d207397bc8b78a196946c253a8c229ac899230963d88924435898052ad19",
}


def _write_replay_trace(path, rows=997, vocab=32):
    """Rows drawn with numpy's own Dirichlet, so the pin does not depend on
    fedhlm's generator: a peaked SLM row, and an LLM row peaked on the same
    token four times in five."""
    rng = np.random.default_rng(2024)
    lines = [f"# vocab={vocab}"]
    for _ in range(rows):
        mode, other = rng.integers(vocab, size=2)
        alpha = np.full(vocab, 0.1)
        alpha[mode] += rng.uniform(1.0, 60.0)
        slm = rng.dirichlet(alpha)
        alpha = np.full(vocab, 0.1)
        alpha[mode if rng.random() < 0.8 else other] += 200.0
        llm = rng.dirichlet(alpha)
        lines.append(",".join([str(int(llm.argmax())), *map(repr, slm.tolist()), *map(repr, llm.tolist())]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("command", list(GOLDEN), ids=lambda c: c[-1])
def test_stock_outputs_match_golden_hashes(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*command, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, GOLDEN[command]) == GOLDEN[command]


def test_lateral_outputs_match_golden_hashes(tmp_path, capsys):
    cfg_path = tmp_path / "lateral.cfg"
    cfg_path.write_text(LATERAL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out
    assert _digests(out, LATERAL_GOLDEN) == LATERAL_GOLDEN
    assert "p2p=1058 " in summary and "edge=65 " in summary


def test_lateral_client_metrics_match_golden_hash():
    metrics = run(parse_config_text(LATERAL_CONFIG)).client_metrics
    text = "".join(
        f"{c} {m.token_entropy!r} {m.cache_hit_ratio!r} {m.llm_token_count} {m.accuracy!r}\n"
        for c, m in sorted(metrics.items())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LATERAL_CLIENT_METRICS


def test_trace_replay_outputs_match_golden_hashes(tmp_path, capsys):
    trace_path = tmp_path / "replay.trace"
    _write_replay_trace(trace_path)
    cfg_path = tmp_path / "replay.cfg"
    cfg_path.write_text(TRACE_CONFIG + f"run.trace_path = {trace_path}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, TRACE_GOLDEN) == TRACE_GOLDEN


def test_entropy_replay_builds_no_generation_streams(tmp_path, capsys, monkeypatch):
    trace_path = tmp_path / "replay.trace"
    _write_replay_trace(trace_path)
    cfg_path = tmp_path / "replay.cfg"
    text = TRACE_CONFIG.replace("disagreement", "entropy") + f"run.trace_path = {trace_path}\n"
    cfg_path.write_text(text, encoding="utf-8")
    tags = []
    substreams = fedhlm.engine.substreams

    def counted(seed, paths):
        tags.extend(np.asarray(paths)[:, 0].tolist())
        return substreams(seed, paths)

    monkeypatch.setattr(fedhlm.engine, "substreams", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert "llm=148 " in capsys.readouterr().out
    assert _digests(out, ENTROPY_REPLAY_GOLDEN) == ENTROPY_REPLAY_GOLDEN
    assert _TAG_GEN not in tags and tags.count(_TAG_RESOLVE) > 0


def test_entropy_outputs_match_golden_hashes(tmp_path, capsys):
    cfg_path = tmp_path / "entropy.cfg"
    cfg_path.write_text(ENTROPY_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out
    assert _digests(out, ENTROPY_GOLDEN) == ENTROPY_GOLDEN
    assert "p2p=195 " in summary and "llm=93 " in summary
