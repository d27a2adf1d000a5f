"""Golden outputs of the stock configuration and of a lateral-tier config.

The sha256 of each byte-stable output file is pinned, so any change to the
RNG stream, the routing decisions or the file layout shows up here. The
`uhlm` baseline sends 8,454 tokens through cloud adjudication, so its pins
are the ones a changed resample draw would break; the `rand` pins fix the
coin-flip gate, which draws one uniform per token before adjudication.

The stock run settles almost nothing at the peer or edge tier, so the
lateral pin uses a config where both accept: 24 clients in 6 clusters, a
near-frozen threshold, a steep Zipf draw (peers often predict the same
token) and a lower edge threshold. It gives 6 consensus accepts, 61 edge
accepts and 1,079 p2p tokens. Its per-client metrics are pinned as well,
because no output file holds them.
"""

import hashlib

import pytest

from fedhlm.cli import main
from fedhlm.config import parse_config_text
from fedhlm.engine import run

GOLDEN = {
    ("run",): {
        "metrics.csv": "257c0c80b5a1c963ab366374513d4827101c77b7d2538020c1f6a990de599567",
        "trace.jsonl": "f36906bd41affb1454be04a9411ac2ff5a0f4a0cfd3119ba5f233d2469d05ef9",
    },
    ("baseline", "--mode", "uhlm"): {
        "metrics.csv": "f43045d32da8375bc521d5b60ae5d8d33c78fd98b7df972be66e9d28696d530d",
        "trace.jsonl": "733ca0f9f4ba440c7b891bc48567b3f84b3fcf0240af613fc418c1f8f86dd4f5",
    },
    ("baseline", "--mode", "rand"): {
        "metrics.csv": "afc6e69708316a7f761dafe0195b629fa3fa873da57b4c57f27680870a0f5da2",
        "trace.jsonl": "cfacaa30437c8e19259d0f59ddfeea21d856dac40698ee81bc4ed8bff3060a85",
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
LATERAL_CLIENT_METRICS = "0d21084417f6f8a6c6193d04652eac009fe4c6cb941d3d5784b925b3c4af30f2"

LATERAL_GOLDEN = {
    "metrics.csv": "f6fceb32e7ae96325387891f8376ef4fd66f14c905e86e59c498fd12ca4eb5b6",
    "trace.jsonl": "36e50ec9733e689d8ca566b41bba6fc30714affecdf72162d9c6c0543e8acea1",
}


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
    assert "p2p=1079 " in summary and "edge=61 " in summary


def test_lateral_client_metrics_match_golden_hash():
    metrics = run(parse_config_text(LATERAL_CONFIG)).client_metrics
    text = "".join(
        f"{c} {m.token_entropy!r} {m.cache_hit_ratio!r} {m.llm_token_count} {m.accuracy!r}\n"
        for c, m in sorted(metrics.items())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LATERAL_CLIENT_METRICS
