"""Every name a package exports resolves, and every module uses what it
imports, so a deletion cannot leave a stale entry in ``__all__`` or a stale
import behind."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("package", ["vialbench", "vialbench.perception"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each module-level import of ``path`` whose
    bound name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used]


def test_no_module_keeps_an_unused_import():
    """A deletion cannot leave its import behind (``__init__`` files
    import to export, so they are left out)."""
    package = Path(importlib.import_module("vialbench").__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    assert [hit for path in modules for hit in _unused_imports(path)] == []
