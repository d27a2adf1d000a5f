"""The package's surface, read from the source with ast.

No module under src/fedhlm/ imports a name it never uses, and
fedhlm/__init__.py re-exports exactly the names that README.md's python
blocks and the demos take from the package; everything else is imported
from its module.
"""

import ast
import re
from pathlib import Path

import pytest

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


def test_package_exports_what_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    wanted = set().union(*(package_names(ast.parse(source)) for source in sources))
    exported = {name for name, _ in imported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))}
    assert sorted(exported - wanted) == [], "re-exported, but neither README.md nor a demo imports it"
    assert sorted(wanted - exported) == [], "imported by README.md or a demo, but not re-exported"
