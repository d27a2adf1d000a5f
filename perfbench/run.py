"""fedhlm benchmark: host throughput end to end, self time per module.

Run from the repository root:

    python3 perfbench/run.py --workload stock --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.py): stock, lateral, uhlm, adjudicate. Each runs in a
closed loop, one operation after another in this one process, until
--seconds have passed (and at least a workload-specific number of
operations). With --trace 0 the last line of output reports the end-to-end
metrics tokens_per_s, setup_s and peak_rss_mb; with --trace 1 it reports the
per-layer metrics of PER_LAYER_METRICS from a run traced by layertrace.py.
Every run checks the program's outputs; a failed check counts its
operations as failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

WORKLOADS = ("stock", "lateral", "uhlm", "adjudicate")
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 9
# Timed operations per untraced run, at least, so the median means something.
MIN_TIMED_OPS = 3
# Share of a traced run spent on untraced operations, for trace_overhead.
UNTRACED_SHARE = 1 / 3

PER_LAYER_METRICS = (
    "model_source.gen_distribution_pair.calls",
    "model_source.gen_distribution_pair.self_s",
    "model_source.TokenDistribution.calls",
    "model_source.TokenDistribution.self_s",
    "uncertainty.mc_disagreement.calls",
    "uncertainty.mc_disagreement.self_s",
    "peers.Embedding.calls",
    "peers.Embedding.self_s",
    "peers.peer_consensus.calls",
    "peers.peer_consensus.self_s",
    "peers.peer_consensus.accept_ratio",
    "peers.TokenCache.lookup.calls",
    "peers.TokenCache.lookup.self_s",
    "peers.TokenCache.lookup.hit_ratio",
    "peers.TokenCache.insert.calls",
    "peers.TokenCache.insert.self_s",
    "peers.edge_validate.calls",
    "peers.edge_validate.self_s",
    "peers.edge_validate.accept_ratio",
    "costs.should_attempt_p2p.calls",
    "costs.should_attempt_p2p.attempt_ratio",
    "adjudication.llm_adjudicate.calls",
    "adjudication.llm_adjudicate.self_s",
    "adjudication.llm_adjudicate.accept_ratio",
    "engine.run_round.calls",
    "engine.run_round.self_s",
    "engine.resolve_token.calls",
    "engine.resolve_token.self_s",
    "engine.SimulationState.self_s",
    "config.parse_config.self_s",
    "federation.dirichlet_partition.self_s",
    "thresholds.loss_gradient.calls",
    "thresholds.loss_gradient.self_s",
    "federation.cluster_aggregate.calls",
    "federation.cluster_aggregate.self_s",
    "federation.global_aggregate.calls",
    "reporting.emit_metrics_csv.self_s",
    "reporting.emit_trace.self_s",
    "config.config_to_text.self_s",
    "trace_overhead",
)


def _unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith(".self_s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------- host facts


def _cpu_times() -> list[int] | None:
    """Aggregate jiffies from /proc/stat: user nice system idle iowait irq softirq steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None


def _steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_info(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- measuring


def _distribution(values: list[float]) -> dict:
    """Median, min, max and the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in (99, 95, 90, 75):
            if len(values) * (100 - p) / 100 >= 10:
                out[f"p{p}"] = cuts[p - 1]
                break
    return out


def measure(workload, seconds: float, min_ops: int, indices, tracer=None) -> list[dict]:
    """Run operations until `seconds` have passed and at least `min_ops` ran.

    Only the operation itself is timed: not drawing its inputs, not hashing
    its outputs. With a tracer, each operation is the root span and its
    per-layer aggregates are stored with it.
    """
    ops = []
    start = time.perf_counter()
    for k in indices:
        if len(ops) >= min_ops and time.perf_counter() - start >= seconds:
            break
        call = workload.prepare(k)
        if tracer is not None:
            tracer.take()  # drop calls made while preparing
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = tracer.run_op(k, call) if tracer is not None else call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            ops.append({"k": k, "wall": time.perf_counter() - t0, "result": None, "error": repr(exc)})
            continue
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        op = {"k": k, "wall": wall, "cpu": cpu, "result": result,
              "error": "" if result.ok else result.error or "operation reported failure"}
        if tracer is not None:
            op["layers"] = tracer.take()
        workload.finish_op(result)
        ops.append(op)
    return ops


def setup_times(name: str, seed: int, work_dir: Path) -> list[float]:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), name, str(seed), str(work_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------- one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "fedhlm" / "__init__.py").is_file():
        print(f"error: no fedhlm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedhlm

    if not Path(fedhlm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported fedhlm from {fedhlm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    work_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed, work_dir)
    workload.setup()
    info: dict = {"workload": name, "trace": int(trace), "host": host_info(seed)}

    cpu_before = _cpu_times()
    setup = setup_times(name, seed, work_dir) if not trace else []
    if not trace:
        ops = measure(workload, seconds, max(MIN_TIMED_OPS, workload.min_ops), itertools.count())
        traced_ops: list[dict] = []
    else:
        ops = measure(workload, seconds * UNTRACED_SHARE, 1, itertools.count())
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            # Replay operation 0 for the byte-identity check, then carry on
            # with fresh indices so every operation adds new trials.
            indices = itertools.chain([0], itertools.count(len(ops)))
            traced_ops = measure(workload, seconds * (1 - UNTRACED_SHARE),
                                 1 + max(0, workload.min_ops - len(ops)), indices, tracer)
        finally:
            restored = tracer.remove()
        layers = [layertrace.fold([op["layers"]]) for op in traced_ops if not op["error"]]
        info["trace_missing_layers"] = tracer.missing
    cpu_after = _cpu_times()

    all_ops = ops + traced_ops
    good = [op for op in all_ops if not op["error"]]
    checks: list = []
    stats: dict = {}
    if good:
        # The first traced operation replays operation 0; count its trials once.
        unique = [op for op in ops + traced_ops[1:] if not op["error"]]
        checks, stats = workload.check([op["result"] for op in unique])
        reference = {op["k"]: op["result"].digest for op in ops if not op["error"]}
        checks += workloads.identity_checks(workload, good, reference)
        if trace:
            checks.append(workloads.Check("wrappers_removed", restored, "every traced name restored after tracing"))
            if stats:
                checks += workloads.reconcile(workload, layers, stats, tracer.missing)
    attempted = len(all_ops)
    # A failed check condemns every operation whose output it covered.
    failed = attempted if not good or not all(c.ok for c in checks) else attempted - len(good)
    walls = [op["wall"] for op in ops if not op["error"]]
    rates = [op["result"].tokens / op["wall"] for op in ops if not op["error"]]
    info.update({
        "seconds": seconds,
        "operations": attempted,
        "failed": failed,
        "errors": sorted({op["error"] for op in all_ops if op["error"]})[:5],
        "checks": [c.as_dict() for c in checks],
        "simulated": stats,
        "steal_share": _steal_share(cpu_before, cpu_after),
        "op_seconds": _distribution(walls) if walls else None,
        "op_walls": walls,
        "op_cpu_over_wall": (statistics.median(op["cpu"] / op["wall"] for op in ops if not op["error"])
                             if walls else None),
    })

    if not trace:
        metrics = {
            "tokens_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        info["tokens_per_s"] = _distribution(rates) if rates else None
        info["setup_s"] = _distribution(setup)
    else:
        metrics = _layer_metrics(layers, traced_ops, walls)
        by_parent = layertrace.fold([op["layers"] for op in traced_ops if not op["error"]], by_parent=True)
        info["layers_by_parent"] = {f"{n} <- {p}": v for (n, p), v in sorted(by_parent.items(), key=str)}
        spans_path = work_dir / "spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans), encoding="utf-8")
        info["spans_file"] = str(spans_path.relative_to(ROOT))

    (work_dir / "info.json").write_text(json.dumps(info, indent=2, default=str) + "\n", encoding="utf-8")
    _print_report(info, metrics, checks)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(layers: list[dict], traced_ops: list[dict], untraced_walls: list[float]) -> dict:
    metrics = {}
    for metric in PER_LAYER_METRICS:
        if metric == "trace_overhead":
            traced_walls = [op["wall"] for op in traced_ops if not op["error"]]
            value = (statistics.median(traced_walls) / statistics.median(untraced_walls)
                     if traced_walls and untraced_walls else 0.0)
        else:
            layer, stat = metric.rsplit(".", 1)
            rows = [lay.get(layer, [0, 0.0, 0.0, 0]) for lay in layers] or [[0, 0.0, 0.0, 0]]
            if stat == "calls":
                value = statistics.median_low(r[0] for r in rows)
            elif stat == "self_s":
                value = statistics.median(r[2] for r in rows)
            else:
                total = sum(r[0] for r in rows)
                value = sum(r[3] for r in rows) / total if total else 0.0
        metrics[metric] = {"value": value, "unit": _unit(metric)}
    return metrics


def _print_report(info: dict, metrics: dict, checks: list) -> None:
    print(f"workload={info['workload']} seed={info['host']['seed']} trace={info['trace']} "
          f"operations={info['operations']} failed={info['failed']} steal_share={info['steal_share']}")
    samples = {"tokens_per_s": (info.get("tokens_per_s") or {}).get("samples"),
               "setup_s": (info.get("setup_s") or {}).get("samples")}
    for name, m in metrics.items():
        n = samples.get(name)
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f"  (median of {n})" if n else ""))
    for c in checks:
        print(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    if info.get("simulated", {}).get("summary"):
        print(f"  {info['simulated']['summary']}")


# ---------------------------------------------------------------- all workloads


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32
    if args.workload == "all":
        return run_all(seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
