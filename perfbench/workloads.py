"""The benchmark's four workloads and the checks on their outputs.

Each workload is built from the benchmark seed alone and exposes:

    setup()        the per-process set-up that ``setup_s`` times
    prepare(k)     untimed: inputs of operation k; returns the call to time,
                   which returns an OpResult
    finish_op(r)   untimed: digest of what the operation wrote
    check(results) correctness checks over the operations run

The simulation workloads drive ``fedhlm.cli.main`` exactly as a user would
(``fedhlm run`` / ``fedhlm baseline`` with ``--config``, ``--seed`` and
``--out-dir``) and check the files it writes. The adjudication workload calls
``fedhlm.adjudication.llm_adjudicate`` in the shape of acceptance criterion 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fedhlm import adjudication, cli
from fedhlm.config import parse_config
from fedhlm.engine import SimulationState
from fedhlm.model_source import TokenDistribution

# Every key takes its built-in value: the README's `fedhlm run` defaults.
STOCK_CONFIG = "# stock configuration: every key at its default\n"

# 200 clients in 4 clusters (50 peers each) with a near-frozen threshold, so
# about 45% of tokens escalate and the cache, consensus, edge and estimator
# do most of the work.
LATERAL_CONFIG = """\
topology.num_clients = 200
topology.num_clusters = 4
learner.eta0 = 0.001
run.rounds = 3
"""

# Criterion 3 shape: Dirichlet(0.6) slm/llm pairs over a vocabulary of 12.
ADJ_VOCAB = 12
ADJ_CONCENTRATION = 0.6
ADJ_PAIRS = 20
# Per operation: this many trials for each of its 20 pairs, plus the residual pass.
ADJ_TRIALS_PER_PAIR = 1000
ADJ_RESIDUAL_TRIALS = 2500
# Criterion 3 tolerance on the accept-rate gap and the final-token TV.
ADJ_TOLERANCE = 0.02
# Operations a run needs for its checks: 20 give 400,000 accept trials
# (standard error of the pooled gap under 0.001) and 50,000 residual draws
# (expected TV under 0.0065), both well under the tolerance.
ADJ_MIN_OPS = 20


@dataclass
class OpResult:
    """What one operation produced: token count, output digest, details."""

    tokens: int
    digest: str
    ok: bool = True
    error: str = ""
    payload: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SimWorkload:
    """A full `fedhlm` CLI run; every operation repeats the same seed."""

    min_ops = 1  # operations the checks need

    def __init__(self, name: str, command: str, mode: str | None, config_text: str, seed: int, work_dir: Path):
        self.name = name
        self.command = command
        self.mode = mode
        self.seed = seed
        self.cfg_path = work_dir / f"{name}.cfg"
        self.out_dir = work_dir / "out"
        # Set-up probes reuse the file the run wrote, so they time no write.
        if not self.cfg_path.exists() or self.cfg_path.read_text(encoding="utf-8") != config_text:
            self.cfg_path.write_text(config_text, encoding="utf-8")
        self.cfg = None  # set by setup()

    def setup(self) -> None:
        """Config parse and SimulationState construction, as the CLI does them."""
        cfg = replace(parse_config(self.cfg_path), seed=self.seed)
        if self.mode is not None:
            cfg = replace(cfg, mode=self.mode)
        SimulationState(cfg)
        self.cfg = cfg

    def argv(self) -> list[str]:
        argv = [self.command, "--config", str(self.cfg_path), "--seed", str(self.seed), "--out-dir", str(self.out_dir)]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        return argv

    def expected_tokens(self) -> int:
        cfg = self.cfg
        return cfg.topology.num_clients * cfg.tokens_per_client * cfg.rounds

    def prepare(self, k: int):
        """Every operation repeats the same command; the returned call is the timed part."""
        return self._run

    def _run(self) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv())
        return OpResult(tokens=self.expected_tokens(), digest="", ok=code == 0,
                        error=err.getvalue().strip() if code else "", payload={"stdout": out.getvalue()})

    def finish_op(self, result: OpResult) -> None:
        """Hash the files the operation wrote (outside the timed region)."""
        if result.ok:
            result.payload["sha256"] = {
                f: _sha256(self.out_dir / f) for f in ("metrics.csv", "trace.jsonl", "config.resolved.txt")
            }
            result.digest = "/".join(result.payload["sha256"].values())

    def check(self, results: list[OpResult]) -> tuple[list[Check], dict]:
        """Checks on the output files, which every operation reproduced byte for byte."""
        cfg = self.cfg
        per_round = cfg.topology.num_clients * cfg.tokens_per_client
        rows = _read_metrics(self.out_dir / "metrics.csv")
        rounds_ok = Check("rounds", len(rows) == cfg.rounds, f"{len(rows)} metrics rows for {cfg.rounds} rounds")
        if not rows:
            return [rounds_ok], {}
        recount = _recount_trace(self.out_dir / "trace.jsonl", cfg.cost.c_llm)
        checks = [
            rounds_ok,
            Check(
                "conservation",
                all(r["local"] + r["p2p"] + r["edge"] + r["llm"] == per_round for r in rows),
                f"stage counts sum to {per_round} (clients x tokens) in every round",
            ),
            Check(
                "thresholds_in_unit_interval",
                all(0.0 <= r["global_threshold"] <= 1.0 for r in rows),
                "every round's broadcast threshold lies in [0, 1]",
            ),
            Check(
                "trace_recount",
                [_csv_view(r) for r in rows] == [recount["rounds"].get(r["round"]) for r in rows]
                and len(recount["rounds"]) == len(rows),
                "stage counts and cost recounted from trace.jsonl equal metrics.csv",
            ),
            Check(
                "trace_values_in_range",
                recount["out_of_range"] == 0,
                f"{recount['out_of_range']} trace records with uncertainty or beta outside [0, 1]",
            ),
        ]
        first = results[0]
        summary = first.payload["stdout"].strip().splitlines()[-1] if first.payload["stdout"].strip() else ""
        totals = {s: sum(r[s] for r in rows) for s in ("local", "p2p", "edge", "llm")}
        tokens = sum(totals.values())
        expected_summary = (
            f"tokens={tokens}  local={totals['local']} ({totals['local'] / tokens:.1%})"
            f"  p2p={totals['p2p']} ({totals['p2p'] / tokens:.1%})"
            f"  edge={totals['edge']} ({totals['edge'] / tokens:.1%})"
            f"  llm={totals['llm']} ({totals['llm'] / tokens:.1%})"
        )
        checks.append(Check("summary_line", summary.startswith(expected_summary), f"printed {summary!r}"))
        checks.append(Check("token_count", tokens == self.expected_tokens(),
                            f"{tokens} tokens for {self.expected_tokens()} expected"))
        total_cost = math.fsum(r["total_cost"] for r in rows)
        stats = {
            "summary": summary,
            "tokens": tokens,
            "stage_counts": totals,
            "stage_fractions": {s: totals[s] / tokens for s in totals},
            "trr": 1.0 - totals["llm"] / tokens,
            "cost_per_token": total_cost / tokens,
            "final_threshold": rows[-1]["global_threshold"],
            "lateral_attempts": recount["attempts"],
            "sha256": first.payload["sha256"],
        }
        return checks, stats


def _read_metrics(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        raw = dict(zip(header, line.split(",")))
        rows.append({
            "round": int(raw["round"]),
            "global_threshold": float(raw["global_threshold"]),
            "local": int(raw["local_count"]),
            "p2p": int(raw["p2p_count"]),
            "edge": int(raw["edge_count"]),
            "llm": int(raw["llm_count"]),
            "total_cost_text": raw["total_cost"],
            "total_cost": float(raw["total_cost"]),
        })
    return rows


def _csv_view(row: dict) -> tuple:
    return (row["local"], row["p2p"], row["edge"], row["llm"], row["total_cost_text"])


def _recount_trace(path: Path, c_llm: float) -> dict:
    """Per-round stage counts and exactly summed cost, read from the trace.

    A lateral attempt is a token that resolved at p2p or edge, or that reached
    the cloud and was charged more than the cloud price alone.
    """
    counts: dict[int, dict[str, int]] = {}
    costs: dict[int, list[float]] = {}
    attempts = 0
    out_of_range = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rnd = rec["round"]
            stage = rec["stage"]
            counts.setdefault(rnd, {"local": 0, "p2p": 0, "edge": 0, "llm": 0})[stage] += 1
            costs.setdefault(rnd, []).append(rec["cost"])
            if stage in ("p2p", "edge") or (stage == "llm" and rec["cost"] > c_llm):
                attempts += 1
            beta = rec["beta"]
            if not 0.0 <= rec["uncertainty"] <= 1.0 or (beta is not None and not 0.0 <= beta <= 1.0):
                out_of_range += 1
    rounds = {
        rnd: (c["local"], c["p2p"], c["edge"], c["llm"], f"{math.fsum(costs[rnd]):.6f}")
        for rnd, c in counts.items()
    }
    return {"rounds": rounds, "attempts": attempts, "out_of_range": out_of_range}


class AdjudicateWorkload:
    """Criterion 3's loop: repeated accept-or-resample on Dirichlet pairs.

    Operation k draws 20 fresh (slm, llm, token) triples and its uniforms
    from (seed, k), so every operation is reproducible and a run averages the
    accept/resample mix over many pairs instead of depending on 20 of them.
    The residual-marginal pass uses one pair for the whole run, so its draws
    pool into a single final-token distribution to compare with the llm.
    """

    name = "adjudicate"
    min_ops = ADJ_MIN_OPS

    def __init__(self, seed: int):
        self.seed = seed
        self.residual: tuple[TokenDistribution, TokenDistribution] | None = None

    def _triples(self, k: int) -> list[tuple[TokenDistribution, TokenDistribution, int, float]]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(0, k)))
        alpha = np.full(ADJ_VOCAB, ADJ_CONCENTRATION)
        triples = []
        for _ in range(ADJ_PAIRS):
            slm = TokenDistribution(rng.dirichlet(alpha))
            llm = TokenDistribution(rng.dirichlet(alpha))
            token = int(rng.choice(ADJ_VOCAB, p=slm.probs))
            # Independent oracle for the acceptance probability, as criterion 3 computes it.
            beta = max(1.0 - float(llm.probs[token]) / max(float(slm.probs[token]), 1e-12), 0.0)
            triples.append((slm, llm, token, beta))
        return triples

    def setup(self) -> None:
        """Build the residual pair and the first operation's triples."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(1,)))
        alpha = np.full(ADJ_VOCAB, ADJ_CONCENTRATION)
        self.residual = (TokenDistribution(rng.dirichlet(alpha)), TokenDistribution(rng.dirichlet(alpha)))
        self._triples(0)

    def expected_tokens(self) -> int:
        return ADJ_PAIRS * ADJ_TRIALS_PER_PAIR + ADJ_RESIDUAL_TRIALS

    def prepare(self, k: int):
        """Draw operation k's inputs; the returned call is the timed part."""
        triples = self._triples(k)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(2, k)))
        return lambda: self._run(triples, rng)

    def _run(self, triples, rng) -> OpResult:
        adjudicate = adjudication.llm_adjudicate
        accepted_verdict = adjudication.Verdict.ACCEPTED
        accepted = []
        for slm, llm, token, _ in triples:
            hits = 0
            for _ in range(ADJ_TRIALS_PER_PAIR):
                hits += adjudicate(slm, llm, token, rng).verdict is accepted_verdict
            accepted.append(hits)
        slm, llm = self.residual
        finals = [0] * ADJ_VOCAB
        for token in rng.choice(ADJ_VOCAB, size=ADJ_RESIDUAL_TRIALS, p=slm.probs).tolist():
            finals[adjudicate(slm, llm, token, rng).final_token] += 1
        expected = [ADJ_TRIALS_PER_PAIR * (1.0 - beta) for *_, beta in triples]
        return OpResult(tokens=self.expected_tokens(), digest="",
                        payload={"accepted": accepted, "expected": expected, "finals": finals})

    def finish_op(self, result: OpResult) -> None:
        result.digest = hashlib.sha256(json.dumps(result.payload).encode()).hexdigest()

    def check(self, results: list[OpResult]) -> tuple[list[Check], dict]:
        ops = len(results)
        trials = ops * ADJ_PAIRS * ADJ_TRIALS_PER_PAIR
        accepted = sum(sum(r.payload["accepted"]) for r in results)
        expected = math.fsum(e for r in results for e in r.payload["expected"])
        gap = abs(accepted - expected) / trials
        worst_pair = max(abs(a - e) / ADJ_TRIALS_PER_PAIR
                         for r in results for a, e in zip(r.payload["accepted"], r.payload["expected"]))
        finals = np.sum([r.payload["finals"] for r in results], axis=0)
        draws = ops * ADJ_RESIDUAL_TRIALS
        tv = 0.5 * float(np.abs(finals / draws - self.residual[1].probs).sum())
        checks = [
            Check("enough_trials", ops >= ADJ_MIN_OPS, f"{trials} accept trials, {draws} residual draws"),
            Check("accept_rate_gap", gap <= ADJ_TOLERANCE,
                  f"|accept rate - mean(1 - beta)| = {gap:.5f} over {ops * ADJ_PAIRS} pairs "
                  f"(tolerance {ADJ_TOLERANCE})"),
            Check("final_token_tv", tv <= ADJ_TOLERANCE,
                  f"TV(final tokens, llm) = {tv:.5f} over {draws} draws (tolerance {ADJ_TOLERANCE})"),
        ]
        stats = {
            "adjudicated_tokens": ops * self.expected_tokens(),
            "accept_rate": accepted / trials,
            "accept_rate_gap": gap,
            "worst_pair_gap": worst_pair,
            "final_token_tv": tv,
            "accept_trials": trials,
            "residual_draws": draws,
        }
        return checks, stats


def identity_checks(workload, ops: list[dict], reference: dict[int, str]) -> list[Check]:
    """Equal operation index, equal output bytes; simulations repeat one seed, so all match."""
    mismatched = [op["k"] for op in ops if reference.get(op["k"], op["result"].digest) != op["result"].digest]
    checks = [Check("same_index_same_bytes", not mismatched, f"mismatched operation indices: {mismatched}")]
    if isinstance(workload, SimWorkload):
        digests = {op["result"].digest for op in ops}
        checks.append(Check("deterministic_outputs", len(digests) == 1,
                            f"{len(ops)} operations wrote {len(digests)} distinct output sets"))
    return checks


def reconcile(workload, layers: list[dict], stats: dict, missing: list[str]) -> list[Check]:
    """Traced call counts per operation against the counts the outputs report.

    `layers` holds one {layer: [calls, total_s, self_s, useful]} per traced
    operation. A layer the tracer could not find is skipped, not failed.
    """
    if isinstance(workload, SimWorkload):
        attempts = stats["lateral_attempts"]
        expectations = [
            ("gen_distribution_pair.calls == tokens", "model_source.gen_distribution_pair", 0, stats["tokens"]),
            ("llm_adjudicate.calls == llm stage count", "adjudication.llm_adjudicate", 0, stats["stage_counts"]["llm"]),
            ("TokenCache.lookup.calls == lateral attempts", "peers.TokenCache.lookup", 0, attempts),
            ("should_attempt_p2p true == lateral attempts", "costs.should_attempt_p2p", 3, attempts),
        ]
        if workload.mode == "uhlm":
            expectations += [
                (f"{name}.calls == 0 on uhlm", name, 0, 0)
                for name in ("peers.Embedding", "peers.peer_consensus", "peers.edge_validate",
                             "peers.TokenCache.lookup", "peers.TokenCache.insert")
            ]
    else:
        expectations = [
            ("llm_adjudicate.calls == adjudicated tokens", "adjudication.llm_adjudicate", 0, workload.expected_tokens()),
            ("gen_distribution_pair.calls == 0", "model_source.gen_distribution_pair", 0, 0),
            ("TokenDistribution.calls == 0", "model_source.TokenDistribution", 0, 0),
        ]
    checks = []
    for label, name, column, want in expectations:
        if name in missing:
            checks.append(Check(f"reconcile: {label}", True, f"skipped: {name} not found to trace"))
            continue
        seen = sorted({layer.get(name, [0, 0.0, 0.0, 0])[column] for layer in layers})
        checks.append(Check(f"reconcile: {label}", seen == [want], f"traced {seen} per operation, expected {want}"))
    return checks


def make(name: str, seed: int, work_dir: Path):
    """The workload called `name`, with its inputs made from `seed`."""
    if name == "stock":
        return SimWorkload("stock", "run", None, STOCK_CONFIG, seed, work_dir)
    if name == "lateral":
        return SimWorkload("lateral", "run", None, LATERAL_CONFIG, seed, work_dir)
    if name == "uhlm":
        return SimWorkload("uhlm", "baseline", "uhlm", STOCK_CONFIG, seed, work_dir)
    if name == "adjudicate":
        return AdjudicateWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
