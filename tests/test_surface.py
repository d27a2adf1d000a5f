"""The package's surface, read from the source with ast, and the benchmark harness's hold on it.

No module under src/fedhlm/ imports a name it never uses, and
fedhlm/__init__.py re-exports exactly the names that README.md's python
blocks and the demos take from the package; everything else is imported
from its module. A private name crosses from one module to a sibling only
where PRIVATE_IMPORTS lists it, and a public function or class is left to
the tests alone only where TEST_ONLY lists it. Only the classes in
DATACLASSES are dataclasses, and the cache and the hit-rate estimator take
only their public parameters. The perfbench harness, loaded from its files
unchanged, still finds the functions it traces and still sets its workloads
up, and one traced operation of each gated workload passes every check and
reconcile it makes.
"""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from fedhlm.costs import PHitEstimator
from fedhlm.peers import TokenCache

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedhlm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) for each name an import binds; `from __future__` binds none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return bound


def package_names(tree: ast.AST) -> set[str]:
    """Names taken from the top-level package: `from fedhlm import x` and `fedhlm.x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fedhlm":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "fedhlm":
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# Underscore names that one module takes from a sibling; every other private name stays in its module.
PRIVATE_IMPORTS = {
    "config._float", "model_source._draw_slm", "model_source._peaked_rows", "model_source._unchecked_distribution",
}


def test_private_names_cross_module_boundaries_only_where_listed():
    crossing = {
        f"{node.module}.{alias.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert crossing == PRIVATE_IMPORTS


# The validated configs, whose replace, equality and checks rely on the generated methods, and
# TokenDistribution, which validates outside input.
DATACLASSES = {
    "VocabSpec", "ModelProfile", "SamplerConfig", "LearnerConfig", "PeerConfig", "CostModel",
    "ClusterTopology", "PartitionSpec", "SimulationConfig", "TokenDistribution",
}


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def test_only_the_validated_configs_are_dataclasses():
    decorated = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(is_dataclass_decorator(d) for d in node.decorator_list)
    }
    assert decorated == DATACLASSES
    # Stateful classes are built from their public parameters alone.
    assert list(inspect.signature(TokenCache).parameters) == ["units", "capacity", "probes"]
    assert list(inspect.signature(PHitEstimator).parameters) == ["window", "prior"]


def readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.DOTALL)


def test_package_exports_what_readme_and_demos_import():
    sources = readme_blocks() + [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    wanted = set().union(*(package_names(ast.parse(source)) for source in sources))
    exported = {name for name, _ in imported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))}
    assert sorted(exported - wanted) == [], "re-exported, but neither README.md nor a demo imports it"
    assert sorted(wanted - exported) == [], "imported by README.md or a demo, but not re-exported"


# Public functions and classes that only the tests call: README documents the trace writer, and the
# gradient test checks loss_gradient against the loss it differentiates.
TEST_ONLY = {"model_source.save_logit_trace", "thresholds.local_loss"}


def named(tree: ast.AST) -> set[str]:
    """Every name, attribute, imported name and string constant in tree; the harness names its
    traced functions by string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_only_the_listed_public_names_are_used_by_tests_alone():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths] + [ast.parse(b) for b in readme_blocks()]
    used = set().union(*map(named, trees))
    unused = {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in used
    }
    assert unused == TEST_ONLY


# Layers the harness names that the package no longer has; every other target must be found.
HARNESS_GONE = {
    "engine.resolve_token", "model_source.gen_distribution_pair", "uncertainty.mc_disagreement", "peers.Embedding",
}


def load_harness(name: str, monkeypatch):
    """perfbench/<name>.py as a module, loaded by path under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_harness_tracer_finds_its_targets_and_puts_them_back(monkeypatch):
    load_harness("workloads", monkeypatch)  # imports every fedhlm module the tracer patches
    tracer = load_harness("layertrace", monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.remove()
    assert set(tracer.missing) <= HARNESS_GONE, sorted(set(tracer.missing) - HARNESS_GONE)
    assert restored


@pytest.mark.parametrize("name", ["stock", "lateral", "uhlm"])
def test_the_harness_sets_up_each_gated_workload(name, monkeypatch, tmp_path):
    workload = load_harness("workloads", monkeypatch).make(name, 101, tmp_path)
    workload.setup()
    assert workload.cfg.seed == 101


def skipped_layers(checks) -> set[str]:
    """The layers of the reconciles the harness skipped, as their details name them."""
    return {c.detail.split()[1] for c in checks if c.detail.startswith("skipped: ")}


@pytest.mark.parametrize("name", ["stock", "lateral", "uhlm"])
def test_a_traced_operation_passes_every_harness_check(name, monkeypatch, tmp_path):
    # One traced operation per gated workload, checked and reconciled as the
    # benchmark does, so a change that breaks a reconcile fails here first.
    workloads = load_harness("workloads", monkeypatch)
    layertrace = load_harness("layertrace", monkeypatch)
    workload = workloads.make(name, 101, tmp_path)
    workload.setup()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        result = tracer.run_op(0, workload.prepare(0))
    finally:
        restored = tracer.remove()
    assert restored and result.ok, result.error
    workload.finish_op(result)
    checks, stats = workload.check([result])
    layers = [layertrace.fold([tracer.take()])]
    reconciles = workloads.reconcile(workload, layers, stats, tracer.missing)
    assert [c.as_dict() for c in checks + reconciles if not c.ok] == []
    # Only the layers the package no longer has go unreconciled.
    reconciled = skipped_layers(workloads.reconcile(workload, layers, stats, [t.name for t in layertrace.TARGETS]))
    assert skipped_layers(reconciles) == reconciled & HARNESS_GONE
