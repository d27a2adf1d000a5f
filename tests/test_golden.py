"""Golden outputs of the stock configuration, a lateral-tier config and a replayed trace.

The sha256 of each byte-stable output file is pinned, so any change to the
RNG stream, the routing decisions or the file layout shows up here. The
stream is the columnar one: each client-round's distributions are drawn as
(T, V) arrays and scored in one pass. The `uhlm` baseline sends 8,379
tokens through cloud adjudication, so its pins are the ones a changed
resample draw would break; the `rand` pins fix the coin-flip gate, which
draws one uniform per token before adjudication.

The stock run settles almost nothing at the peer or edge tier, so the
lateral pin uses a config where both accept: 24 clients in 6 clusters, a
near-frozen threshold, a steep Zipf draw (peers often predict the same
token) and a lower edge threshold. It gives 7 consensus accepts, 63 edge
accepts and 1,052 p2p tokens. Its per-client metrics are pinned as well,
because no output file holds them.

The trace-replay pin runs a 997-row logit trace in disagreement mode. Replay
spends randomness only on uncertainty scoring and the routing after it, and
the batched (T, S) scoring draw takes the same uniforms in the same order as
one draw of S per token did, so this pin predates the columnar stream and
holds across changes to the synthetic generator.

The entropy pin runs the stock config with entropy scoring, the one scoring
kind the other pins do not use: 93 tokens reach the cloud and 195 settle at
the peer tier.
"""

import hashlib

import numpy as np
import pytest

from fedhlm.cli import main
from fedhlm.config import parse_config_text
from fedhlm.engine import run

GOLDEN = {
    ("run",): {
        "metrics.csv": "d31716ae879c734f823b1a73ba2e89b694dc20335f8efaee65497dcefd46c99c",
        "trace.jsonl": "ba5527dad0b26fd67c68695e0471940bd2a19ae19c4837a7a3d85b38a763239c",
    },
    ("baseline", "--mode", "uhlm"): {
        "metrics.csv": "1fc156f614bcc32e2aba0c0debfe9a1d3eb261f16bb251513afaf12a00127c6d",
        "trace.jsonl": "2beebcdaaf303c3f2cfe1eef1c26aa98b477c1f415855acf94613d31ffae07aa",
    },
    ("baseline", "--mode", "rand"): {
        "metrics.csv": "15d945588185795b0654ecc80b377c0fabe9b8d1a632734f00bb0a3db3ea76b5",
        "trace.jsonl": "a08ccd9e77f7592adde019aee53957b6d93a2d7081aa0b0fea744bc5d0038dc7",
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
LATERAL_CLIENT_METRICS = "8c87970fe0448e19c8e9c85182241699f9f3a6482ae0a6e4c99162a62ffd33c3"

LATERAL_GOLDEN = {
    "metrics.csv": "3cb0511fd351e6bebbd65d5933d0cea157d3c31028fced3137b597e9b70fd600",
    "trace.jsonl": "a6338481e58c6afa1d0d2494bd89db3e43a4419973cb24895330ee5b3843421e",
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

ENTROPY_CONFIG = "run.uncertainty_kind = entropy\n"

ENTROPY_GOLDEN = {
    "metrics.csv": "553a5dd16f0af6714d786146746e316e3cd5ddf4398e166c05729141473b38f2",
    "trace.jsonl": "8a571346a408809e53b9c6b0b75f50086584777dda8359e97117a6ed16b44b82",
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
    assert "p2p=1052 " in summary and "edge=63 " in summary


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


def test_entropy_outputs_match_golden_hashes(tmp_path, capsys):
    cfg_path = tmp_path / "entropy.cfg"
    cfg_path.write_text(ENTROPY_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out
    assert _digests(out, ENTROPY_GOLDEN) == ENTROPY_GOLDEN
    assert "p2p=195 " in summary and "llm=93 " in summary
