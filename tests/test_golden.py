"""Golden outputs of the stock configuration.

The sha256 of each byte-stable output file is pinned, so any change to the
RNG stream, the routing decisions or the file layout shows up here. The
`uhlm` baseline sends 8,454 tokens through cloud adjudication, so its pins
are the ones a changed resample draw would break; the `rand` pins fix the
coin-flip gate, which draws one uniform per token before adjudication.
"""

import hashlib

import pytest

from fedhlm.cli import main

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


@pytest.mark.parametrize("command", list(GOLDEN), ids=lambda c: c[-1])
def test_stock_outputs_match_golden_hashes(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*command, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[command]}
    assert digests == GOLDEN[command]
